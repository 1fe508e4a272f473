import numpy as np
import pytest

from volterrasim.cli import main, parse_grid, write_manifest
from volterrasim.processes import ensemble_from_csv


def run(*argv):
    return main(list(argv))


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

    def test_worker_count_does_not_change_output(self, tmp_path):
        outs = []
        for w, name in ((1, "w1"), (3, "w3")):
            out = tmp_path / name
            assert run("simulate", "--process", "rosenblatt", "--H", "0.75",
                       "--grid", "0:1:21", "--paths", "7", "--seed", "2",
                       "--tail-tol", "1e-2", "--substeps", "2",
                       "--workers", str(w), "--out", str(out)) == 0
            outs.append((out / "ensemble.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_overwrite_protection(self, tmp_path):
        out = tmp_path / "run"
        argv = ("simulate", "--process", "fbm", "--H", "0.7",
                "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                "--out", str(out))
        assert run(*argv) == 0
        assert run(*argv) == 2
        assert run(*argv, "--force") == 0

    def test_bad_H_is_usage_error(self, tmp_path):
        code = run("simulate", "--process", "fbm", "--H", "0.3",
                   "--grid", "0:1:11", "--paths", "3", "--seed", "1",
                   "--out", str(tmp_path / "x"))
        assert code == 2

    def test_missing_required_flag(self):
        assert run("simulate", "--process", "fbm") == 2


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

    def test_unknown_suite_is_usage_error(self):
        assert run("verify", "--suite", "nope") == 2
        assert run("verify", "--suite", "kernel", "--workers", "2") == 2
