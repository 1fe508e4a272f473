"""Command-line front end: reproducible simulation and verification runs.

Exit codes: 0 success, 1 suite failure, 2 usage or configuration error.
Every stochastic command requires --seed, and every run writes a
manifest from which it can be reproduced byte-for-byte (no timestamps,
all defaults spelled out).
"""

import argparse
import contextlib
import ctypes
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .errors import ConfigError, VolterraError
from .csvtext import format_rows
from .processes import PROCESSES, GridSpec, simulate, write_csv

MANIFEST_SCHEMA = "1"
# The simulate pool forks on Linux: a forked worker starts without
# importing the package again, which a spawned or forkserver one must do.
# On 2 CPUs the benchmark's three simulate commands took about 2 s with
# forked workers, 4-6 s with spawned or forkserver ones and 3 s in one
# process, so elsewhere the default is one process.  The package starts
# no thread, and OpenBLAS stops its own before a fork.
FORK_POOL = sys.platform == "linux"


def parse_grid(text: str) -> GridSpec:
    """Grid literal "t_min:t_max:n_points", e.g. "-2:2:401"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be t_min:t_max:n_points, got {text!r}")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


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
nonnegative_int = int_at_least(0, "non-negative")  # seeds and stream ids


def default_workers() -> int:
    """Every CPU this process may run on where the pool forks, else 1."""
    return len(os.sched_getaffinity(0)) if FORK_POOL else 1


# (get, set) thread-count functions of the OpenBLAS builds bundled in
# numpy's wheels (64-bit integers) and scipy's
OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@contextlib.contextmanager
def one_blas_thread():
    """Every OpenBLAS mapped into this process at one thread, then back.

    Workers forked inside inherit the setting, so n workers run n threads
    and not n BLAS pools each.  Any other BLAS build is left as it is.
    The thread count never changes a simulated value.
    """
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    restore = []
    for lib in map(ctypes.CDLL, libs):
        for get, set_ in OPENBLAS_THREADS:
            if hasattr(lib, set_):
                restore.append((getattr(lib, set_), getattr(lib, get)()))
                break
    for set_, _ in restore:
        set_(1)
    try:
        yield
    finally:
        for set_, n in restore:
            set_(n)


@contextlib.contextmanager
def simulate_pool(n: int):
    """n worker processes for simulate jobs (see FORK_POOL)."""
    if not FORK_POOL:
        with ProcessPoolExecutor(max_workers=n) as pool:
            yield pool
        return
    with one_blas_thread(), ProcessPoolExecutor(
            max_workers=n, mp_context=multiprocessing.get_context("fork")) as pool:
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
    """One block of paths, returned as its CSV text rows (format_rows)."""
    return format_rows(simulate(*job).values)


def cmd_simulate(args) -> int:
    grid = parse_grid(args.grid)
    csv_path, manifest_path = out_paths(args, "ensemble.csv", "manifest.txt")
    workers = args.workers
    chunk = -(-args.paths // workers)  # ceil division
    jobs = []
    offset = 0
    while offset < args.paths:
        n_block = min(chunk, args.paths - offset)
        jobs.append((args.process, grid, args.H, n_block, args.seed,
                     args.stream, offset, args.tail_tol, args.substeps))
        offset += n_block
    if len(jobs) == 1:
        blocks = [_simulate_block(jobs[0])]
    else:
        # the pool starts all its processes at once, so none beyond the jobs
        with simulate_pool(min(workers, len(jobs))) as pool:
            blocks = list(pool.map(_simulate_block, jobs))
    # path identity depends only on (seed, stream, path index), and the
    # text of a value is the same in every process, so the CSV is
    # independent of the split
    write_csv(csv_path, grid, args.paths, blocks)
    write_manifest(manifest_path, "simulate", {
        "process": args.process,
        "H": repr(args.H),
        "grid": args.grid,
        "paths": args.paths,
        "seed": args.seed,
        "stream": args.stream,
        "tail_tol": repr(args.tail_tol),
        "substeps": args.substeps,
        "workers": "any (results worker-independent)",
        "output": "ensemble.csv",
    })
    print(f"wrote {csv_path} ({grid.n_points} rows, {args.paths + 1} columns)")
    return 0


def cmd_verify(args) -> int:
    from . import suites

    stochastic = args.suite not in ("kernel", "criteria")
    if stochastic and args.seed is None:
        raise ConfigError("--seed is required for stochastic suites")
    seed = 0 if args.seed is None else args.seed
    if args.out:
        report, manifest_path = out_paths(args, f"verify_{args.suite}.txt",
                                          "manifest.txt")
    if args.suite == "kernel":
        ok, lines = suites.suite_kernel()
    elif args.suite == "isometry":
        ok, lines = suites.suite_isometry(args.H, args.paths, seed)
    elif args.suite == "law-symmetry":
        ok, lines = suites.suite_law_symmetry(args.H, args.paths, seed)
    elif args.suite == "stationarity":
        ok, lines = suites.suite_stationarity(args.H, args.paths, seed,
                                              x0=args.x0)
    elif args.suite == "limit":
        ok, lines = suites.suite_limit(args.H, args.paths, seed)
    else:
        ok, lines = suites.suite_criteria()
    for line in lines:
        print(line)
    if args.out:
        with open(report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        write_manifest(manifest_path, "verify", {
            "suite": args.suite,
            "H": repr(args.H),
            "paths": args.paths,
            "seed": args.seed,
            "x0": args.x0,
        })
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
    sim.add_argument("--stream", type=nonnegative_int, default=0)
    sim.add_argument("--tail-tol", type=float, default=1e-3,
                     help="Rosenblatt truncation variance bound")
    sim.add_argument("--substeps", type=int, default=4,
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
    from .suites import SUITES

    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--H", type=float, default=0.7)
    ver.add_argument("--paths", type=positive_int, default=600)
    ver.add_argument("--seed", type=nonnegative_int, default=None)
    ver.add_argument("--x0", choices=("x-infinity",), default="x-infinity",
                     help="initial condition for the stationarity suite")
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
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_grid_flag(list(argv))
    try:
        args = parser.parse_args(argv)
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
