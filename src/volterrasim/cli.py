"""Command-line front end: reproducible simulation and verification runs.

Exit codes: 0 success, 1 suite failure, 2 usage or configuration error.
Every stochastic command requires --seed.  simulate, and verify with
--out, write a manifest from which the run can be reproduced
byte-for-byte (no timestamps, all defaults spelled out).
"""

import argparse
import contextlib
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .blas import one_blas_thread
from .errors import ConfigError, VolterraError, check_hurst
from .csvtext import format_rows
from .diagnostics import SUITES
from .processes import PROCESSES, GridSpec, RosenblattScheme, simulate, \
    through_origin, write_csv

MANIFEST_SCHEMA = "2"
# The simulate pool forks on Linux: a forked worker starts without
# importing the package again, which a spawned or forkserver one must do.
# On 2 CPUs the benchmark's three simulate commands took about 2 s with
# forked workers, 4-6 s with spawned or forkserver ones and 3 s in one
# process, so elsewhere the default is one process.  The package starts
# no thread, and OpenBLAS stops its own before a fork.
FORK_POOL = sys.platform == "linux"


def parse_grid(text: str) -> GridSpec:
    """Grid literal "t_min:t_max:n_points", e.g. "-2:2:401"."""
    try:
        t_min, t_max, n_points = text.split(":")
        parts = float(t_min), float(t_max), int(n_points)
    except ValueError:
        raise ConfigError(f"grid must be t_min:t_max:n_points, "
                          f"got {text!r}") from None
    return GridSpec(*parts)


def int_at_least(low: int, kind: str):
    """argparse type for integers of at least low, called kind integers."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, "
                                             f"got {text}")
        return value

    # argparse names the type in its "invalid ... value" message
    parse.__name__ = kind.replace("-", "") + "_int"
    return parse


positive_int = int_at_least(1, "positive")  # counts
nonnegative_int = int_at_least(0, "non-negative")  # seeds


def default_workers() -> int:
    """Every CPU this process may run on where the pool forks, else 1."""
    return len(os.sched_getaffinity(0)) if FORK_POOL else 1


@contextlib.contextmanager
def simulate_pool(n: int):
    """n worker processes for simulate jobs (see FORK_POOL)."""
    fork = multiprocessing.get_context("fork") if FORK_POOL else None
    with one_blas_thread(), ProcessPoolExecutor(max_workers=n,
                                                mp_context=fork) as pool:
        yield pool


def write_manifest(path, command: str, params: dict) -> None:
    """Structured plain text; keys sorted so reruns are byte-identical."""
    with open(path, "w") as fh:
        fh.write("[manifest]\n")
        fh.write(f"schema = {MANIFEST_SCHEMA}\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"command = {command}\n")
        for key in sorted(params):
            fh.write(f"{key} = {params[key]}\n")


def out_paths(args, *names) -> list:
    """Paths of the outputs names in the directory --out, made if needed.

    ConfigError if --out cannot be a directory, or if an output exists
    and --force is not given.
    """
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use --out {args.out} as a directory: "
                          f"{exc.strerror}") from exc
    paths = [os.path.join(args.out, name) for name in names]
    for p in paths:
        if os.path.exists(p) and not args.force:
            raise ConfigError(f"{p} exists (use --force to overwrite)")
    return paths


def _simulate_block(job):
    """One block of paths, its CSV text written row by row to the part
    file named by the job's last field; returns each row's length."""
    *params, part = job
    with open(part, "wb") as fh:
        return [fh.write(row) for row in format_rows(simulate(*params).values)]


def _part_rows(part, lengths):
    """The rows of a part file, one at a time."""
    with open(part, "rb") as fh:
        for n in lengths:
            yield fh.read(n)


def cmd_simulate(args) -> int:
    check_hurst(args.H)
    grid = parse_grid(args.grid)
    # what simulate() would refuse in the workers is refused before --out
    sim_grid, _ = through_origin(grid)
    if args.process == "rosenblatt":
        RosenblattScheme.for_grid(sim_grid, args.H, args.tail_tol,
                                  args.substeps)
    csv_path, manifest_path = out_paths(args, "ensemble.csv", "manifest.txt")
    chunk = -(-args.paths // args.workers)  # ceil division
    jobs = [(args.process, grid, args.H, min(chunk, args.paths - offset),
             args.seed, 0, offset, args.tail_tol, args.substeps)
            for offset in range(0, args.paths, chunk)]
    # path identity depends only on (seed, path index), and the text of a
    # value is the same in every process, so the CSV is independent of the
    # split
    if len(jobs) == 1:
        write_csv(csv_path, grid, args.paths,
                  [format_rows(simulate(*jobs[0]).values)])
    else:
        # each worker writes its block's text to a part file, and the parent
        # joins the parts row by row; they go on the --out disk because the
        # default temporary directory may be held in memory
        with tempfile.TemporaryDirectory(prefix=".parts-", dir=args.out) as tmp:
            parts = [os.path.join(tmp, str(k)) for k in range(len(jobs))]
            # the pool starts all its processes at once, so none beyond the jobs
            with simulate_pool(min(args.workers, len(jobs))) as pool:
                lengths = list(pool.map(_simulate_block, [
                    job + (part,) for job, part in zip(jobs, parts)]))
            write_csv(csv_path, grid, args.paths,
                      [_part_rows(p, n) for p, n in zip(parts, lengths)])
    write_manifest(manifest_path, "simulate", {
        "process": args.process,
        "H": repr(args.H),
        "grid": args.grid,
        "paths": args.paths,
        "seed": args.seed,
        "tail_tol": repr(args.tail_tol),
        "substeps": args.substeps,
        "workers": "any (results worker-independent)",
        "output": "ensemble.csv",
    })
    print(f"wrote {csv_path} ({grid.n_points} rows, {args.paths + 1} columns)")
    return 0


def cmd_verify(args) -> int:
    from . import suites

    check_hurst(args.H)
    stochastic = SUITES[args.suite] is not None
    if stochastic:
        if args.seed is None:
            raise ConfigError("--seed is required for stochastic suites")
        suites._check_run(args.suite, args.paths, args.seed)
    if args.out:
        report, manifest_path = out_paths(args, f"verify_{args.suite}.txt",
                                          "manifest.txt")
    run = getattr(suites, "suite_" + args.suite.replace("-", "_"))
    ok, lines = run(args.H, args.paths, args.seed) if stochastic else run()
    for line in lines:
        print(line)
    if args.out:
        with open(report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        # the deterministic suites read none of the run parameters
        params = {"suite": args.suite}
        if stochastic:
            params.update(H=repr(args.H), paths=args.paths, seed=args.seed)
        write_manifest(manifest_path, "verify", params)
    print("suite result:", "pass" if ok else "FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="volterrasim",
        description="Volterra-noise simulation and verification tool")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a path ensemble as CSV")
    sim.add_argument("--process", choices=PROCESSES, required=True)
    sim.add_argument("--H", type=float, required=True,
                     help="Hurst parameter in (1/2, 1)")
    sim.add_argument("--grid", required=True, help="t_min:t_max:n_points")
    sim.add_argument("--paths", type=positive_int, required=True)
    sim.add_argument("--seed", type=nonnegative_int, required=True)
    sim.add_argument("--tail-tol", type=float, default=1e-3,
                     help="Rosenblatt truncation variance bound")
    sim.add_argument("--substeps", type=positive_int, default=4,
                     help="Rosenblatt time-refinement factor")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")
    sim.add_argument("--workers", type=positive_int, default=default_workers(),
                     help="parallel path blocks, default: on Linux the CPUs "
                          "this process may use, elsewhere 1 (results "
                          "independent of it)")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--H", type=float, default=0.7)
    ver.add_argument("--paths", type=positive_int, default=600)
    ver.add_argument("--seed", type=nonnegative_int, default=None)
    ver.add_argument("--out", default=None, help="report directory")
    ver.add_argument("--force", action="store_true")
    ver.set_defaults(func=cmd_verify)
    return parser


def _join_grid_flag(argv):
    """Fold "--grid -2:2:401" into "--grid=-2:2:401" for argparse."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--grid" and i + 1 < len(argv):
            out.append(f"--grid={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    argv = _join_grid_flag(sys.argv[1:] if argv is None else list(argv))
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VolterraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
