"""Command-line interface: subcommands, formats, precedence, exit codes."""

import csv
import filecmp
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import aimdexit
from aimdexit.cli import main

UP_ONE_GOLDEN = 0.18710800316525594  # E[e^-tau] for lam=1, p=0.5, x=1 -> a=2

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The tree this suite imports, i.e. the one under test.
SRC = str(Path(aimdexit.__file__).resolve().parents[1])


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    """(config dict, header list, data rows, trailing comments)."""
    config, comments, lines = {}, [], []
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line and not lines:
            key, _, val = line[2:].partition("=")
            config[key] = val
        elif line.startswith("#"):
            comments.append(line)
        elif line:
            lines.append(line)
    rows = list(csv.reader(lines))
    return config, rows[0], rows[1:], comments


class TestEval:
    def test_csv_single_point(self, capsys):
        rc, out, err = run(capsys, "eval", "--kind", "up-one", "--lambda", "1",
                           "--p", "0.5", "--w", "1", "--x", "1", "--a", "2")
        assert rc == 0 and err == ""
        config, header, rows, _ = parse_csv(out)
        assert config["command"] == "eval"
        assert config["kind"] == "up-one"
        assert header[:4] == ["kind", "lambda", "p", "w"]
        assert len(rows) == 1
        value = float(rows[0][header.index("value")])
        assert math.isclose(value, UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_multiple_w_values_emit_ordered_rows(self, capsys):
        rc, out, _ = run(capsys, "eval", "--kind", "up-one", "--lambda", "1",
                         "--p", "0.5", "--w", "0.25,0.5,1,2", "--x", "1", "--a", "2")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        vals = [float(r[header.index("value")]) for r in rows]
        assert len(vals) == 4
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_json_payload_shape(self, capsys):
        rc, out, _ = run(capsys, "eval", "--kind", "up-one", "--lambda", "1",
                         "--p", "0.5", "--w", "1", "--x", "1", "--a", "2",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "summary"}
        assert payload["config"]["command"] == "eval"
        assert "threads" not in payload["config"]
        assert "output" not in payload["config"]
        assert "seed" not in payload["config"]  # analytic-only command
        assert math.isclose(payload["rows"][0]["value"], UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_every_jump_exiting_case_is_pure_drift(self, capsys):
        # p*a == b: every jump exits downward, so the up part is e^{-gamma(a-x)}
        rc, out, _ = run(capsys, "eval", "--kind", "two-sided-up", "--lambda", "1",
                         "--p", "0.5", "--w", "1", "--x", "1.5", "--a", "2", "--b", "1")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        assert float(rows[0][header.index("value")]) == pytest.approx(math.exp(-1.0), rel=1e-14)


class TestSimulate:
    def test_drift_only_run_is_exact(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--kind", "up-one", "--lambda", "0",
                         "--p", "0.5", "--w", "1", "--x", "1", "--a", "2",
                         "--paths", "128")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        assert float(rows[0][header.index("mc_mean")]) == math.exp(-1.0)
        assert float(rows[0][header.index("mc_stderr")]) == 0.0

    def test_seed_flag_changes_the_sample(self, capsys):
        base = ("simulate", "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                "--w", "1", "--x", "1", "--a", "2", "--paths", "4000")
        _, out1, _ = run(capsys, *base, "--seed", "1")
        _, out2, _ = run(capsys, *base, "--seed", "2")
        _, out1b, _ = run(capsys, *base, "--seed", "1")
        m = lambda out: float(parse_csv(out)[2][0][parse_csv(out)[1].index("mc_mean")])
        assert m(out1) != m(out2)
        assert m(out1) == m(out1b)


class TestCompare:
    def test_single_point_passes(self, capsys):
        rc, out, _ = run(capsys, "compare", "--kind", "up-one", "--lambda", "1",
                         "--p", "0.5", "--w", "1", "--x", "1", "--a", "2",
                         "--paths", "20000", "--seed", "7")
        assert rc == 0
        config, header, rows, comments = parse_csv(out)
        assert comments[-1] == "# pass 1/1"
        assert rows[0][header.index("verdict")] == "pass"
        analytic = float(rows[0][header.index("analytic")])
        assert math.isclose(analytic, UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_setup_error_rows_fail_the_command(self, capsys):
        # a cap violating the censoring-bias invariant is caught per row
        rc, out, _ = run(capsys, "compare", "--kind", "up-one", "--lambda", "1",
                         "--p", "0.5", "--w", "1", "--x", "1", "--a", "2",
                         "--paths", "1000", "--cap", "0.5")
        assert rc == 1
        _, header, rows, comments = parse_csv(out)
        assert rows[0][header.index("verdict")] == "error"
        assert comments[-1] == "# pass 0/1"

    def test_output_file_and_thread_byte_identity(self, capsys, tmp_path):
        files = []
        for threads in ("1", "4", "8"):
            path = tmp_path / f"t{threads}.csv"
            rc, out, _ = run(capsys, "compare", "--kind", "two-sided-up",
                             "--lambda", "1", "--p", "0.5", "--w", "0.5",
                             "--x", "1.2", "--a", "2", "--b", "0.8",
                             "--paths", "50000", "--threads", threads,
                             "--output", str(path))
            assert rc == 0
            assert "pass 1/1" in out  # summary still printed to stdout
            files.append(path)
        assert filecmp.cmp(files[0], files[1], shallow=False)
        assert filecmp.cmp(files[0], files[2], shallow=False)


class TestSweep:
    def test_sweep_over_w(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--sweep", "w", "--values", "0.25,0.5,1",
                         "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                         "--x", "1", "--a", "2")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        vals = [float(r[header.index("analytic")]) for r in rows]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))
        assert rows[0][header.index("mc_mean")] == ""  # analytic-only by default

    def test_sweep_over_missing_level_is_seeded_from_values(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--sweep", "a", "--values", "2,3,4",
                         "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                         "--w", "1", "--x", "1")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        vals = [float(r[header.index("analytic")]) for r in rows]
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))

    def test_sweep_with_paths_confronts_mc(self, capsys):
        rc, out, _ = run(capsys, "sweep", "--sweep", "w", "--values", "0.5,1",
                         "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                         "--x", "1", "--a", "2", "--paths", "20000")
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        assert all(r[header.index("verdict")] == "pass" for r in rows)

    def test_zero_variance_rows_use_the_compare_pass_rule(self, capsys, monkeypatch):
        # lam = 0: every path exits at the same time, so the MC mean is exact
        # and only a 1e-12 match passes; a miss reads z = inf, as in compare
        argv = ("sweep", "--sweep", "w", "--values", "0.5,1", "--kind", "up-one",
                "--lambda", "0", "--p", "0.5", "--x", "1", "--a", "2", "--paths", "100")
        rc, out, _ = run(capsys, *argv)
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        assert [r[header.index("z_score")] for r in rows] == ["0.0", "0.0"]
        assert all(r[header.index("verdict")] == "pass" for r in rows)
        real = aimdexit.cli.evaluate
        monkeypatch.setattr(aimdexit.cli, "evaluate",
                            lambda *args, **kwargs: real(*args, **kwargs) + 1e-9)
        rc, out, _ = run(capsys, *argv)
        assert rc == 1
        _, header, rows, _ = parse_csv(out)
        assert [r[header.index("z_score")] for r in rows] == ["inf", "inf"]
        assert all(r[header.index("verdict")] == "fail" for r in rows)

    def test_unknown_sweep_variable_is_rejected(self, capsys):
        rc, _, err = run(capsys, "sweep", "--sweep", "q", "--values", "1,2",
                         "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                         "--x", "1", "--a", "2")
        assert rc == 2
        assert err.startswith("aimdexit: error: validation:")


class TestPrecedenceAndConfig:
    def test_config_file_fills_unset_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = up-one\nlambda = 1\np = 0.5\nw = 1\nx = 1\na = 2\n")
        rc, out, _ = run(capsys, "eval", "--config", str(cfg))
        assert rc == 0
        _, header, rows, _ = parse_csv(out)
        assert math.isclose(float(rows[0][header.index("value")]),
                            UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_flags_beat_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind = up-one\nlambda = 2\np = 0.5\nw = 1\nx = 1\na = 2\n")
        rc, out, _ = run(capsys, "eval", "--config", str(cfg), "--lambda", "1")
        assert rc == 0
        config, header, rows, _ = parse_csv(out)
        assert config["lambda"] == "1.0"
        assert math.isclose(float(rows[0][header.index("value")]),
                            UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_env_seed_is_used_and_flag_beats_it(self, capsys, monkeypatch):
        monkeypatch.setenv("AIMDEXIT_SEED", "42")
        base = ("simulate", "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                "--w", "1", "--x", "1", "--a", "2", "--paths", "100")
        rc, out, _ = run(capsys, *base)
        assert rc == 0
        assert parse_csv(out)[0]["seed"] == "42"
        rc, out, _ = run(capsys, *base, "--seed", "9")
        assert parse_csv(out)[0]["seed"] == "9"

    def test_bad_env_seed_is_a_validation_error(self, capsys, monkeypatch):
        monkeypatch.setenv("AIMDEXIT_SEED", "not-a-number")
        rc, _, err = run(capsys, "simulate", "--kind", "up-one", "--lambda", "1",
                         "--p", "0.5", "--w", "1", "--x", "1", "--a", "2")
        assert rc == 2
        assert err.startswith("aimdexit: error: validation:")

    def test_unknown_config_key_is_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        rc, _, err = run(capsys, "eval", "--config", str(cfg))
        assert rc == 2
        assert "frobnicate" in err

    @pytest.mark.parametrize("name, value", [("rel_tol", "1e-10"), ("max_terms", "20")])
    def test_removed_series_controls_are_rejected(self, capsys, tmp_path, name, value):
        # the series tolerance and term cap are fixed; neither flag nor
        # config key may pretend to set them, even to a once-valid value
        point = ("eval", "--kind", "up-one", "--lambda", "1", "--p", "0.5",
                 "--w", "1", "--x", "1", "--a", "2")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        for extra in (("--" + name.replace("_", "-"), value), ("--config", str(cfg))):
            rc, out, err = run(capsys, *point, *extra)
            assert rc == 2 and out == ""
            assert err.count("\n") == 1
            assert err.startswith("aimdexit: error: validation:")
            assert name.replace("_", "-") in err or name in err


class TestErrorReporting:
    def test_missing_point_is_a_single_line_validation_error(self, capsys):
        rc, _, err = run(capsys, "eval", "--lambda", "1", "--p", "0.5", "--w", "1")
        assert rc == 2
        assert err.count("\n") == 1
        assert err.startswith("aimdexit: error: validation:")

    def test_domain_violation_maps_to_exit_two(self, capsys):
        rc, _, err = run(capsys, "eval", "--kind", "up-one", "--lambda", "1",
                         "--p", "1.5", "--w", "1", "--x", "1", "--a", "2")
        assert rc == 2
        assert "p" in err

    def test_convergence_failure_maps_to_exit_three(self, capsys):
        # the upward series needs more than its 10,000-term cap here
        rc, _, err = run(capsys, "eval", "--kind", "up-one", "--lambda", "2",
                         "--p", "0.5", "--w", "8", "--x", "0", "--a", "3000")
        assert rc == 3
        assert err.startswith("aimdexit: error: convergence:")


class TestConsoleScript:
    """``main()`` as a process entry point: argv from ``sys.argv``, return
    code as exit status.  Both runs put the imported source tree first on
    ``PYTHONPATH``, so neither can pass on code from another install."""

    ARGV = ["eval", "--kind", "up-one", "--lambda", "1", "--p", "0.5",
            "--w", "1", "--x", "1", "--a", "2", "--format", "json"]

    @staticmethod
    def check_run(cmd):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        payload = json.loads(proc.stdout)
        assert math.isclose(payload["rows"][0]["value"], UP_ONE_GOLDEN, rel_tol=1e-15)

    def test_installed_entry_point_runs(self):
        # Run the declared [project.scripts] target as the wrapper that pip
        # generates for it does, so no install step is needed.
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["aimdexit"]
        module, _, attr = entry.partition(":")
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        self.check_run([sys.executable, "-c", wrapper, *self.ARGV])

    def test_module_entry_point_runs(self):
        self.check_run([sys.executable, "-m", "aimdexit", *self.ARGV])

    @pytest.mark.skipif(shutil.which("aimdexit") is None,
                        reason="aimdexit console script not installed")
    def test_console_script_on_path_runs(self):
        self.check_run(["aimdexit", *self.ARGV])
