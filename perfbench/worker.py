"""One pass of one workload, in a fresh process.

Started by run.py with the BLAS/OpenMP thread variables already set, so
numpy loads with them.  Prints one JSON line: the time it became ready
(imports and inputs done, on the system-wide monotonic clock), the
pass's wall time, peak resident set, operation counts, check failures,
the environment and, for a traced pass, the layer metrics.

    python3 perfbench/worker.py --workload NAME --seed N --pass I \
        --tmp DIR [--traced | --setup-only]
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0


def environment():
    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return info.get("openblas configuration", info.get("version"))

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop once ready: one more set-up sample")
    args = parser.parse_args()

    tracer = None
    if args.traced:
        tracer = spans.Tracer()
        tracer.install()
    # each pass draws fresh package seeds from (benchmark seed, pass index)
    seed = int(np.random.SeedSequence([args.seed & 0xFFFFFFFF,
                                       args.pass_index]).generate_state(1)[0])
    os.makedirs(args.tmp)
    ops, check = workloads.build(args.workload, seed, args.tmp)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    results, errors, op_s = {}, [], {}
    start = time.perf_counter()
    cpu = time.process_time()
    for name, op in ops:
        t = time.perf_counter()
        try:
            results[name] = op()
        except Exception:  # counted as a failed operation, run continues
            errors.append(f"{name}: {traceback.format_exc(limit=3)}")
        op_s[name] = time.perf_counter() - t
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        check_failures = check(results)
    except Exception:  # an output the checks cannot even read is wrong
        check_failures = [f"checks raised: {traceback.format_exc(limit=3)}"]

    record = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "op_s": op_s,
        "peak_rss_mb": rss_mb,
        "import_s": IMPORT_S,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "check_failures": check_failures,
        "env": environment(),
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["absent"] = tracer.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
