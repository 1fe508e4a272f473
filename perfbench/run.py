"""Benchmark entry point: closed loop of passes, one fresh process each.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
src/ as is, nothing is installed.  Passes run one after another (one
client, closed loop), each in a new worker process with one BLAS/OpenMP
thread, because a command-line user pays imports and set-up on every
invocation and a timed pass must not reuse anything an earlier pass left
in the process.  Passes start until --seconds have elapsed.  With
--trace 1 every round is an untraced pass followed by a traced one.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the layer metrics with --trace 1.  The full record, with the
environment and every pass, goes to perfbench/out/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("simulate", "verify-mc", "oracles")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5  # set-up is timed at least this often per run
DEADLINE_S = 170.0  # the whole run, passes included, ends before this


class BenchError(Exception):
    """The harness itself could not run a pass; no result is printed."""


def run_pass(args, index, mode, tmp, started):
    """One worker process; mode is "plain", "traced" or "setup-only"."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass", str(index), "--tmp", os.path.join(tmp, f"p{index}")]
    if mode != "plain":
        cmd.append(f"--{mode}")
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True,
                              timeout=max(1.0, DEADLINE_S - (spawned - started)))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} overran the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass {index} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("ready") - spawned
    record["traced"] = mode == "traced"
    return record


def run_passes(args, tmp):
    started = time.monotonic()
    passes, index, longest = [], 0, 0.0
    modes = ("plain",) if args.trace == 0 else ("plain", "traced")
    while True:
        t = time.monotonic()
        for mode in modes:
            passes.append(run_pass(args, index, mode, tmp, started))
            index += 1
        longest = max(longest, time.monotonic() - t)
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds or elapsed + longest > DEADLINE_S - 10.0:
            break
    setups = [p["setup_s"] for p in passes if not p["traced"]]
    while args.trace == 0 and len(setups) < SETUP_SAMPLES:
        setups.append(run_pass(args, index, "setup-only", tmp,
                               started)["setup_s"])
        index += 1
    return passes, setups


def metrics(args, passes, setups):
    plain = [p for p in passes if not p["traced"]]
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace == 0:
        return {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                p["peak_rss_mb"] for p in plain), "unit": "MB"},
        }
    traced = [p for p in passes if p["traced"]]
    out = {"setup.import.s": {"value": statistics.median(
        p["import_s"] for p in passes), "unit": "s"}}
    for name, unit in spans.LAYER_METRICS.items():
        out[name] = {"value": statistics.median(
            p["layers"][name] for p in traced), "unit": unit}
    overhead = statistics.median(p["wall_s"] for p in traced) - wall
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    out["trace.overhead_share"] = {"value": overhead / wall, "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "volterrasim", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        passes, setups = run_passes(args, tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [f for p in passes for f in p["check_failures"]]
    result = {
        "correct": not failures,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics(args, passes, setups),
    }
    record = {"args": vars(args), "env": passes[0]["env"], "result": result,
              "check_failures": failures, "passes": passes,
              "setup_samples_s": setups}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for line in failures + [e for p in passes for e in p["errors"]]:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
