import hashlib
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from volterrasim import cli
from volterrasim.cli import main, parse_grid, write_manifest
from volterrasim.processes import GridSpec, ensemble_from_csv, simulate
from volterrasim.suites import SUITES


def run(*argv):
    return main(list(argv))


def readme_commands():
    """Each `volterrasim ...` line of the README's sh blocks, as argv."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path) as fh:
        blocks = re.findall(r"```sh\n(.*?)```", fh.read(), re.S)
    return [shlex.split(line)[1:] for block in blocks
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("volterrasim ")]


README_COMMANDS = readme_commands()


class TestReadmeCommands:
    def test_every_command_and_suite_is_shown(self):
        shown = {tuple(argv[:3]) for argv in README_COMMANDS}
        assert {("simulate", "--process", p) for p in ("fbm", "rosenblatt")} \
            | {("verify", "--suite", s) for s in SUITES} <= shown

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_parses(self, argv):
        # parsed only, nothing runs
        cli.build_parser().parse_args(cli._join_grid_flag(argv))


class TestParseGrid:
    def test_basic(self):
        g = parse_grid("0:1:11")
        assert (g.t_min, g.t_max, g.n_points) == (0.0, 1.0, 11)

    def test_negative_start(self):
        g = parse_grid("-2:2:401")
        assert g.t_min == -2.0

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("0:1")


class TestManifest:
    def test_sorted_and_stable(self, tmp_path):
        p = tmp_path / "manifest.txt"
        write_manifest(p, "simulate", {"b": 2, "a": 1})
        text = p.read_text()
        assert text.index("a = 1") < text.index("b = 2")
        write_manifest(p, "simulate", {"a": 1, "b": 2})
        assert p.read_text() == text


class TestSimulate:
    def test_fbm_roundtrip(self, tmp_path):
        out = tmp_path / "run"
        code = run("simulate", "--process", "fbm", "--H", "0.7",
                   "--grid", "-1:1:41", "--paths", "8", "--seed", "5",
                   "--out", str(out))
        assert code == 0
        ens = ensemble_from_csv(out / "ensemble.csv")
        assert ens.values.shape == (41, 8)
        assert (out / "manifest.txt").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ("simulate", "--process", "fbm", "--H", "0.8",
                "--grid", "0:1:21", "--paths", "5", "--seed", "9")
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        assert (a / "ensemble.csv").read_bytes() == \
            (b / "ensemble.csv").read_bytes()
        assert (a / "manifest.txt").read_bytes() == \
            (b / "manifest.txt").read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path,
                                                 monkeypatch):
        # 2 paths on 3 workers; 7; and 70: one block of 64 and one of 6 on
        # one worker, blocks of 24, 24 and 22 on three.  Without --workers
        # the CLI uses every CPU, here made 3 so that the default runs the
        # pool on any machine.  Ensemble.to_csv of the same paths made in
        # this process writes the same bytes.
        monkeypatch.setattr(cli, "default_workers", lambda: 3)
        for process in ("fbm", "rosenblatt"):
            for paths in (2, 7, 70):
                lib = tmp_path / f"{process}{paths}.csv"
                simulate(process, GridSpec(0.0, 1.0, 21), 0.75, paths, 2, 0,
                         0, 1e-2, 2).to_csv(lib)
                for workers in ((), ("--workers", "1"), ("--workers", "3")):
                    out = tmp_path / f"{process}{paths}w{''.join(workers)}"
                    assert run("simulate", "--process", process,
                               "--H", "0.75", "--grid", "0:1:21",
                               "--paths", str(paths), "--seed", "2",
                               "--tail-tol", "1e-2", "--substeps", "2",
                               *workers, "--out", str(out)) == 0
                    assert (out / "ensemble.csv").read_bytes() == \
                        lib.read_bytes(), (process, paths, workers)

    def test_pool_never_outnumbers_the_jobs(self, tmp_path, monkeypatch):
        sizes = []

        class RecordingPool:
            """Runs the jobs in this process; records the requested size."""

            def __init__(self, max_workers, mp_context=None):
                sizes.append(max_workers)
                if cli.FORK_POOL:
                    assert mp_context.get_start_method() == "fork"

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        argv = ("simulate", "--process", "fbm", "--H", "0.7",
                "--grid", "0:1:11", "--seed", "1")
        assert run(*argv, "--paths", "2", "--workers", "500",
                   "--out", str(tmp_path / "a")) == 0
        assert sizes == [2]
        # the default is every CPU this process may use
        monkeypatch.setattr(cli, "default_workers", lambda: 4)
        assert run(*argv, "--paths", "1000", "--out", str(tmp_path / "b")) == 0
        assert sizes == [2, 4]

    @pytest.mark.skipif(not cli.FORK_POOL, reason="the pool forks on Linux")
    def test_pool_workers_run_one_blas_thread(self):
        # a worker's BLAS call starts no thread, and the caller's BLAS
        # thread counts come back after the pool
        script = """if True:
            import ctypes, os
            import numpy as np
            from volterrasim import cli

            def counts():
                with open("/proc/self/maps") as fh:
                    libs = {l.split()[-1] for l in fh if "openblas" in l}
                return sorted(getattr(lib, get)()
                              for lib in map(ctypes.CDLL, libs)
                              for get, _ in cli.OPENBLAS_THREADS
                              if hasattr(lib, get))

            def threads_after_blas():
                a = np.ones((600, 600))
                a @ a
                return len(os.listdir("/proc/self/task"))

            before = counts()
            with cli.simulate_pool(1) as pool:
                print(pool.submit(threads_after_blas).result())
            print(before == counts() and len(before) > 0)
        """
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == ["1", "True"]

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # fbm's FFTs and Rosenblatt's convolution never call BLAS, and the
        # far Rosenblatt cells are one mat-vec per path, so the BLAS thread
        # count cannot change a reduction order
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        for process, grid in (("fbm", "-2:2:801"), ("rosenblatt", "-1:1:201")):
            outs = []
            for threads in ("1", "2"):
                out = tmp_path / f"{process}{threads}"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                           PYTHONPATH=os.path.abspath(src))
                subprocess.run(
                    [sys.executable, "-m", "volterrasim.cli", "simulate",
                     "--process", process, "--H", "0.75",
                     "--grid", grid, "--paths", "40", "--seed", "7",
                     "--out", str(out)], env=env, check=True,
                    capture_output=True)
                outs.append((out / "ensemble.csv").read_bytes())
            assert outs[0] == outs[1], process

    @pytest.mark.parametrize("process, H, grid, md5", [
        ("fbm", "0.7", "-2:2:801", "db2410ea57f210b18a080498cfba1cdc"),
        ("rosenblatt", "0.75", "-1:1:201", "27ff98a7bc414c42224f9456fd53c0d3"),
    ])
    def test_readme_md5(self, tmp_path, process, H, grid, md5):
        # the two ensembles whose md5 the README gives
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert run("simulate", "--process", process, "--H", H,
                       "--grid", grid, "--paths", "40", "--seed", "7",
                       "--workers", workers, "--out", str(out)) == 0
            digest = hashlib.md5((out / "ensemble.csv").read_bytes())
            assert digest.hexdigest() == md5, workers

    def test_unreachable_tail_tol_prints_only_the_error(self, tmp_path,
                                                        capsys):
        # no overflow warning may come before, or under -W error instead of,
        # the configuration error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("simulate", "--process", "rosenblatt", "--H", "0.75",
                       "--grid", "0:1:11", "--paths", "1", "--seed", "1",
                       "--tail-tol", "1e-300",
                       "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tail tolerance 1e-300 unreachable")
        assert err.count("\n") == 1

    def test_overwrite_protection(self, tmp_path):
        out = tmp_path / "run"
        argv = ("simulate", "--process", "fbm", "--H", "0.7",
                "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                "--out", str(out))
        assert run(*argv) == 0
        assert run(*argv) == 2
        assert run(*argv, "--force") == 0

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run("simulate", "--process", "fbm", "--H", "0.7",
                   "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                   "--out", str(out)) == 2
        _, err = capsys.readouterr()
        assert err.startswith("error: ") and "--out" in err
        assert out.read_text() == "not a directory\n"

    def test_bad_H_is_usage_error(self, tmp_path):
        code = run("simulate", "--process", "fbm", "--H", "0.3",
                   "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                   "--out", str(tmp_path / "x"))
        assert code == 2

    def test_missing_required_flag(self):
        assert run("simulate", "--process", "fbm") == 2

    @pytest.mark.parametrize("process, flag, value, word", [
        ("rosenblatt", "--substeps", "0", "substeps"),
        ("rosenblatt", "--tail-tol", "0", "tail_tol"),
        ("rosenblatt", "--H", "0.3", "H must lie in (1/2, 1)"),
        ("fbm", "--paths", "0", "--paths"),
        ("rosenblatt", "--paths", "0", "--paths"),
        ("fbm", "--workers", "-3", "--workers"),
        ("fbm", "--workers", "0", "--workers"),
        ("fbm", "--grid", "0.35:1:10", "whole number"),
        ("fbm", "--seed", "-1", "--seed: must be a non-negative integer"),
        ("rosenblatt", "--stream", "-2",
         "--stream: must be a non-negative integer"),
    ])
    def test_bad_value_is_usage_error_with_a_clear_message(
            self, tmp_path, capsys, monkeypatch, process, flag, value, word):
        # the last occurrence of a repeated flag wins; 3 default workers
        # make the errors cross from the pool on any machine
        monkeypatch.setattr(cli, "default_workers", lambda: 3)
        assert run("simulate", "--process", process, "--H", "0.75",
                   "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                   "--out", str(tmp_path / "x"), flag, value) == 2
        assert word in capsys.readouterr().err


class TestVerify:
    def test_kernel_suite_needs_no_seed(self, capsys):
        assert run("verify", "--suite", "kernel") == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_criteria_suite(self, capsys):
        assert run("verify", "--suite", "criteria") == 0
        assert "pass" in capsys.readouterr().out

    def test_stochastic_suite_requires_seed(self, capsys):
        assert run("verify", "--suite", "isometry") == 2
        assert "--seed" in capsys.readouterr().err

    def test_isometry_with_report(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code = run("verify", "--suite", "isometry", "--seed", "4",
                   "--paths", "400", "--out", str(out))
        assert code == 0
        report = (out / "verify_isometry.txt").read_text()
        assert report.strip()
        assert (out / "manifest.txt").exists()
        # overwrite protection on the report too
        assert run("verify", "--suite", "isometry", "--seed", "4",
                   "--paths", "400", "--out", str(out)) == 2

    def test_existing_report_refused_before_the_suite_runs(self, tmp_path,
                                                          capsys):
        (tmp_path / "verify_isometry.txt").write_text("old\n")
        assert run("verify", "--suite", "isometry", "--seed", "4",
                   "--out", str(tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "exists" in err
        assert (tmp_path / "verify_isometry.txt").read_text() == "old\n"

    def test_manifest_of_a_simulate_run_refused(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run("simulate", "--process", "fbm", "--H", "0.7",
                   "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                   "--out", str(out)) == 0
        manifest = (out / "manifest.txt").read_text()
        capsys.readouterr()
        assert run("verify", "--suite", "criteria", "--out", str(out)) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err == (f"error: {out / 'manifest.txt'} exists "
                       f"(use --force to overwrite)\n")
        assert (out / "manifest.txt").read_text() == manifest
        assert not (out / "verify_criteria.txt").exists()

    def test_out_that_is_a_file_refused_before_the_suite_runs(self, tmp_path,
                                                              capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run("verify", "--suite", "criteria", "--out", str(out)) == 2
        printed, err = capsys.readouterr()
        assert printed == ""
        assert err.startswith("error: ") and "--out" in err
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("paths", ["0", "1"])
    def test_isometry_needs_two_paths(self, capsys, paths):
        assert run("verify", "--suite", "isometry", "--seed", "4",
                   "--paths", paths) == 2
        out, err = capsys.readouterr()
        assert "suite result" not in out
        assert "paths" in err

    def test_bad_x0_names_the_flag(self, capsys):
        assert run("verify", "--suite", "stationarity", "--seed", "4",
                   "--x0", "bogus") == 2
        out, err = capsys.readouterr()
        assert "suite result" not in out
        assert "--x0" in err

    def test_negative_seed_is_usage_error(self, capsys):
        assert run("verify", "--suite", "isometry", "--seed", "-1") == 2
        out, err = capsys.readouterr()
        assert "suite result" not in out
        assert "--seed: must be a non-negative integer" in err

    def test_limit_suite_too_few_paths_is_usage_error(self, capsys):
        assert run("verify", "--suite", "limit", "--seed", "1",
                   "--paths", "3") == 2
        out, err = capsys.readouterr()
        assert "suite result" not in out
        assert "50 observations" in err

    def test_unknown_suite_is_usage_error(self):
        assert run("verify", "--suite", "nope") == 2
        assert run("verify", "--suite", "kernel", "--workers", "2") == 2
