"""Command-line front end: reproducible simulation and verification runs.

Exit codes: 0 success, 1 suite failure, 2 usage or configuration error.
Every stochastic command requires --seed, and every run writes a
manifest from which it can be reproduced byte-for-byte (no timestamps,
all defaults spelled out).
"""

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import VolterraError
from .processes import Ensemble, GridSpec, simulate

MANIFEST_SCHEMA = "1"


def parse_grid(text: str) -> GridSpec:
    """Grid literal "t_min:t_max:n_points", e.g. "-2:2:401"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be t_min:t_max:n_points, got {text!r}")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


def write_manifest(path, command: str, params: dict) -> None:
    """Structured plain text; keys sorted so reruns are byte-identical."""
    with open(path, "w") as fh:
        fh.write("[manifest]\n")
        fh.write(f"schema = {MANIFEST_SCHEMA}\n")
        fh.write(f"version = {__version__}\n")
        fh.write(f"command = {command}\n")
        for key in sorted(params):
            fh.write(f"{key} = {params[key]}\n")


def _simulate_block(args_tuple):
    process, grid_args, *rest = args_tuple
    return simulate(process, GridSpec(*grid_args), *rest).values


def cmd_simulate(args) -> int:
    grid = parse_grid(args.grid)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "ensemble.csv")
    manifest_path = os.path.join(out_dir, "manifest.txt")
    for p in (csv_path, manifest_path):
        if os.path.exists(p) and not args.force:
            print(f"error: {p} exists (use --force to overwrite)",
                  file=sys.stderr)
            return 2

    grid_args = (grid.t_min, grid.t_max, grid.n_points)
    blocks = []
    workers = max(1, args.workers)
    chunk = -(-args.paths // workers)  # ceil division
    jobs = []
    offset = 0
    while offset < args.paths:
        n_block = min(chunk, args.paths - offset)
        jobs.append((args.process, grid_args, args.H, n_block, args.seed,
                     args.stream, offset, args.tail_tol, args.substeps))
        offset += n_block
    if workers == 1 or len(jobs) == 1:
        blocks = [_simulate_block(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_simulate_block, jobs))
    values = np.hstack(blocks)
    # path identity depends only on (seed, stream, path index), so the
    # assembled ensemble is independent of the worker split
    ens = Ensemble(grid, values, tag=args.process)
    ens.to_csv(csv_path)
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
        print("error: --seed is required for stochastic suites",
              file=sys.stderr)
        return 2
    seed = 0 if args.seed is None else args.seed
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
        os.makedirs(args.out, exist_ok=True)
        report = os.path.join(args.out, f"verify_{args.suite}.txt")
        if os.path.exists(report) and not args.force:
            print(f"error: {report} exists (use --force to overwrite)",
                  file=sys.stderr)
            return 2
        with open(report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        write_manifest(os.path.join(args.out, "manifest.txt"), "verify", {
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
    sim.add_argument("--process", choices=("fbm", "rosenblatt"), required=True)
    sim.add_argument("--H", type=float, required=True,
                     help="Hurst parameter in (1/2, 1)")
    sim.add_argument("--grid", required=True, help="t_min:t_max:n_points")
    sim.add_argument("--paths", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--tail-tol", type=float, default=1e-3,
                     help="Rosenblatt truncation variance bound")
    sim.add_argument("--substeps", type=int, default=4,
                     help="Rosenblatt time-refinement factor")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")
    sim.add_argument("--workers", type=int, default=1,
                     help="parallel path blocks (results independent of it)")
    sim.set_defaults(func=cmd_simulate)

    ver = sub.add_parser("verify", help="run a named invariant suite")
    from .suites import SUITES

    ver.add_argument("--suite", choices=SUITES, required=True)
    ver.add_argument("--H", type=float, default=0.7)
    ver.add_argument("--paths", type=int, default=600)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--x0", default="x-infinity",
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
    except VolterraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
