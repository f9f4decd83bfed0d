import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincool
from spincool.cli import main
from spincool.config import (ConfigError, config_hash, load_run_config,
                             parse_config_text)

FAST = ["--set", "t_final=2.0", "--set", "samples=9"]


class TestConfig:
    def test_parse_basic(self):
        text = """
        # reference point overrides
        omega_pd = 140.0
        delta_pd = -1750   # inline comment
        alpha = 1+1j
        samples = 21
        """
        values = parse_config_text(text)
        assert values == {"omega_pd": 140.0, "delta_pd": -1750.0,
                          "alpha": 1 + 1j, "samples": 21}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("omega_zz = 1.0")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("delta = 1\ndelta = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("delta = fast")
        with pytest.raises(ConfigError):
            parse_config_text("samples = 2.5")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_run_config("/nonexistent/config.txt")

    def test_overrides_apply(self):
        cfg = load_run_config(None, ["omega_eff=2.0", "beta=0.5"])
        assert cfg.params.omega_eff == 2.0
        assert cfg.beta == 0.5 + 0j

    def test_hash_stable_and_sensitive(self):
        a = load_run_config(None, [])
        b = load_run_config(None, [])
        c = load_run_config(None, ["delta=0"])
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestSimulate:
    def test_outputs_and_schema(self, tmp_path):
        out = str(tmp_path / "run")
        rc = main(["--out", out, *FAST, "simulate"])
        assert rc == 0
        csv_text = (tmp_path / "run" / "trajectory.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0].startswith("# spincool trajectory csv v1")
        header = lines[1].split(",")
        assert header == ["t_us", "pop_psi0", "pop_psif", "pop_perp",
                          "pop_reservoir", "pop_1P1_total", "pop_1D2_total",
                          "pop_6s"]
        assert len(lines) == 2 + 9
        times = [float(row.split(",")[0]) for row in lines[2:]]
        assert times == sorted(times)
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert 0 <= summary["fidelity"] <= 1
        assert summary["config_sha"]
        assert summary["config"]["t_final"] == "2.0"

    def test_rerun_identical_bytes(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["--out", out_a, *FAST, "simulate"]) == 0
        assert main(["--out", out_b, *FAST, "simulate"]) == 0
        for name in ("trajectory.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_svg_emitted(self, tmp_path):
        out = str(tmp_path / "svg")
        assert main(["--out", out, *FAST, "--svg", "simulate"]) == 0
        doc = (tmp_path / "svg" / "populations_log.svg").read_text()
        assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
        assert (tmp_path / "svg" / "transfer.svg").exists()

    def test_flags_accepted_after_subcommand(self, tmp_path):
        out = str(tmp_path / "after")
        rc = main(["simulate", "--out", out, "--set", "t_final=1.0",
                   "--set", "samples=3"])
        assert rc == 0
        assert (tmp_path / "after" / "summary.json").exists()

    def test_minimal_grid(self, tmp_path):
        out = str(tmp_path / "tiny")
        rc = main(["--out", out, "--set", "t_final=1.0", "--set", "samples=2",
                   "simulate"])
        assert rc == 0
        lines = (tmp_path / "tiny" / "trajectory.csv").read_text().splitlines()
        times = [float(r.split(",")[0]) for r in lines[2:]]
        assert times == [0.0, 1.0]

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # step-size underflow in the adaptive path must abort with code 3
        # and leave no partial outputs
        out = tmp_path / "fail"
        rc = main(["--out", str(out), "--set", "method=rk45",
                   "--set", "rel_tol=10.0", "--set", "abs_tol=1.0",
                   "--set", "t_final=2.0", "--set", "samples=3", "simulate"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        assert not (out / "summary.json").exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--set", "bogus=1", "simulate"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t_final = 1.0\nsamples = 5\nomega_eff = 2\n")
        out = str(tmp_path / "out")
        assert main(["--config", str(cfg), "--out", out, "simulate"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["omega_eff"] == "2.0"


class TestBalance:
    def test_reference(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "balance"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega_pd_balanced_mhz"] == pytest.approx(144.27, abs=0.05)
        assert payload["nu_mhz"] == pytest.approx(-3.8826, abs=0.01)
        assert payload["delta_recommendation_mhz"] == pytest.approx(3.8826, abs=0.01)

    def test_detuned_branch_reports_imbalance(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "--set", "delta_pd=-1750", "balance"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["imbalance_at_input_mhz"] == pytest.approx(0.42, abs=0.02)
        assert payload["omega_pd_balanced_mhz"] != pytest.approx(144.27, abs=0.05)

    def test_bad_bracket_exit_2(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "balance", "--bracket", "140", "141"])
        assert rc == 2
        assert "no sign change" in capsys.readouterr().err


class TestDressed:
    def test_prints_overlaps(self, capsys):
        assert main(["dressed"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["overlap_up"] == pytest.approx(0.99409, abs=5e-4)
        assert payload["overlap_down"] == pytest.approx(0.99910, abs=5e-4)


class TestLevelsAndLasercalc:
    def test_levels_values(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "levels"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows = {int(r.split(",")[0]): float(r.split(",")[1]) for r in out[2:]}
        assert rows[13] == pytest.approx(-1764.75)
        assert rows[5] == pytest.approx(2099.625)
        assert (tmp_path / "levels.csv").exists()

    def test_lasercalc_json(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "lasercalc"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 3


class TestReproduce:
    def test_unknown_target_exit_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "reproduce", "fig9"])
        assert exc.value.code == 2

    def test_levels_target(self, tmp_path):
        assert main(["--out", str(tmp_path), "reproduce", "levels"]) == 0
        assert (tmp_path / "levels.csv").exists()

    def test_fig3_deterministic(self, tmp_path):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["--out", out_a, "--set", "samples=41", "reproduce", "fig3"]) == 0
        assert main(["--out", out_b, "--set", "samples=41", "reproduce", "fig3"]) == 0
        assert (tmp_path / "a" / "fig3.csv").read_bytes() == \
            (tmp_path / "b" / "fig3.csv").read_bytes()

    @pytest.mark.parametrize("target, key, values", [
        ("table1", "alpha_over_beta", [0.1, 1 / 3, 0.5, 2.0, 3.0, 10.0, 100.0]),
        ("impurity", "chi", [0.0, 0.01, 0.1]),
    ])
    def test_sweep_records(self, tmp_path, target, key, values):
        assert main(["--out", str(tmp_path), "--set", "t_final=1.0",
                     "reproduce", target]) == 0
        records = json.loads((tmp_path / f"{target}.json").read_text())
        assert [r[key] for r in records] == values
        for r in records:
            assert set(r) == {key, "fidelity", "pop_perp", "pop_total"}
            assert 0 <= r["fidelity"] <= 1
            assert abs(r["pop_total"] - 1) < 1e-8
        csv_lines = (tmp_path / f"{target}.csv").read_text().splitlines()
        assert csv_lines[1] == f"{key},fidelity,pop_perp,pop_total"
        assert len(csv_lines) == 2 + len(values)

    def test_jobs_option_and_key_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(tmp_path), "--jobs", "2", "reproduce", "table1"])
        assert exc.value.code == 2
        assert main(["--out", str(tmp_path), "--set", "jobs=2", "reproduce",
                     "table1"]) == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err


def _run_python(code: str) -> str:
    """Run code in a fresh interpreter that imports this checkout; its stdout."""
    src = str(Path(spincool.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        out = _run_python(f"import sys, spincool.cli; print({SCIPY_LOADED})")
        assert out.strip() == "[]"

    def test_artifact_commands_leave_scipy_unloaded(self, tmp_path):
        commands = [["simulate"], ["balance"], ["reproduce", "table1"],
                    ["reproduce", "sensitivity"]]
        code = ("import sys\n"
                "from spincool.cli import main\n"
                f"for cmd in {commands!r}:\n"
                f"    assert main(['--out', {str(tmp_path)!r}, *cmd]) == 0, cmd\n"
                f"print({SCIPY_LOADED})\n")
        out = _run_python(code)
        assert out.splitlines()[-1] == "[]"
        assert (tmp_path / "sensitivity.json").exists()

    def test_adaptive_method_loads_scipy_integrate(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "from spincool.lindblad import IntegratorConfig, evolve\n"
                "rho0 = np.diag([0.0, 1.0])\n"
                "c = np.array([[0.0, 1.0], [0.0, 0.0]])\n"
                "before = 'scipy.integrate' in sys.modules\n"
                "traj = evolve(rho0, np.zeros((2, 2)), [c], [0.0, 1.0],\n"
                "              IntegratorConfig(method='dop853'))\n"
                "print(before, 'scipy.integrate' in sys.modules,\n"
                "      abs(traj.states[-1, 1, 1].real - np.exp(-1.0)) < 1e-6)\n")
        assert _run_python(code).split() == ["False", "True", "True"]


class TestSvgPlot:
    def test_log_floor_handles_zeros(self):
        from spincool.svgplot import line_plot
        doc = line_plot([("a", [0, 1, 2], [0.0, 1e-3, 1.0])], log_y=True)
        assert "polyline" in doc

    def test_rejects_empty(self):
        from spincool.svgplot import line_plot
        with pytest.raises(ValueError):
            line_plot([("a", [], [])])
