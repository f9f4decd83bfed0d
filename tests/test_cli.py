import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spincool
from spincool import analysis, cli, lindblad
from spincool.cli import main
from spincool.config import (ConfigError, config_hash, load_run_config,
                             parse_config_text)
from spincool.srmodel import BasisState

FAST = ["--set", "t_final=2.0", "--set", "samples=9"]


def assert_reruns_identical(tmp_path: Path, args: list[str]) -> list[str]:
    """Run `spincool --out DIR *args` twice; both runs write the same files, byte for byte."""
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        assert main(["--out", str(out), *args]) == 0
    names = sorted(path.name for path in runs[0].iterdir())
    assert sorted(path.name for path in runs[1].iterdir()) == names
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
    return names


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

    def test_non_utf8_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("delta = 1.0  # \u00e9\n".encode("latin-1"))
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "dressed"]) == 2
        assert "cannot read config" in capsys.readouterr().err

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

    # grid edges of evolve's stepping for one state: a trailing run of one sample
    # (runs of 256) and a grid that ends two samples into the first P^8 product
    @pytest.mark.parametrize("samples", [257, 10])
    def test_grid_edges_rerun_identical_bytes(self, tmp_path, samples):
        names = assert_reruns_identical(tmp_path, ["--set", f"samples={samples}", "simulate"])
        assert names == ["summary.json", "trajectory.csv"]

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

    @staticmethod
    def _assert_fails(tmp_path, capsys, overrides, code, message, command="simulate"):
        out = tmp_path / "fail"
        args = [a for kv in overrides for a in ("--set", kv)]
        assert main(["--out", str(out), *args, command]) == code
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a 10 THz drive leaves the exponential's rounding errors far above
        # the trace tolerance: the default engine must abort with code 3 and
        # leave no partial outputs
        self._assert_fails(tmp_path, capsys,
                           ["omega_ps=1e13", "t_final=2.0", "samples=3"],
                           3, "numerical failure: state invariants violated")

    def test_series_outside_unit_interval_exit_3(self, tmp_path, capsys, monkeypatch):
        # evolve passes samples down to -10x the positivity tolerance, but the
        # named series allow only 1e-8 outside [0, 1], both a level population
        # and a projection <psi|rho|psi>
        def reservoir_below_0(run):
            k = list(run.basis.levels).index(BasisState.RESERVOIR)
            run.coords[..., -1, run.basis.diag[k]] = -5e-8

        def psi0_above_1(run):
            # pop_psi0 starts at 1 and is the first series checked
            run.coords[..., 0, :] *= 1 + 5e-8

        for perturb, name in ((reservoir_below_0, "pop_reservoir"), (psi0_above_1, "pop_psi0")):
            def evolve(*args, perturb=perturb):
                run = lindblad.evolve(*args)
                perturb(run)
                return run

            monkeypatch.setattr(analysis, "evolve", evolve)
            self._assert_fails(tmp_path, capsys, ["t_final=2.0", "samples=9"], 3,
                               f"numerical failure: series {name!r} outside [0, 1]")

    # a warning that leaks out of a reported failure fails the test
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("override", ["gamma_p=1e300"])
    def test_non_finite_generator_exit_3(self, tmp_path, capsys, override):
        # a power of L overflows inside expm
        self._assert_fails(tmp_path, capsys, [override], 3,
                           "numerical failure: propagation failed")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["dressed", "balance"])
    def test_overlap_tie_exit_3(self, tmp_path, capsys, command):
        # with the dressing lasers off, this field makes |1P1 0,down> and
        # |1P1 -1,up> degenerate; their hyperfine mixing is then maximal and
        # two eigenvectors overlap |1P1 -1,up> equally, at 1/sqrt(2)
        self._assert_fails(tmp_path, capsys, ["omega_ps=0", "omega_pd=0",
                                              "b_field=7.753104246619223"],
                           3, "numerical failure: overlap tie", command)

    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_normalized(self, tmp_path):
        out = tmp_path / "huge"
        assert main(["--out", str(out), "--set", "beta=1e308", "--set", "t_final=1.0",
                     "--set", "samples=3", "simulate"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0 <= summary["fidelity"] <= 1

    # each value is finite, but delta_pd + e_hf on the 1D2 F=11/2 diagonal
    # is not after 2 pi scaling; in the second case delta keeps the configured
    # diagonal finite, and only the delta = 0 Hamiltonian that compute_nu and
    # balance_omega_pd build overflows; in the third, 2 pi a_1p1 is finite but
    # the 1P1 hyperfine diagonal is not
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["simulate", "dressed", "balance", "levels",
                                         "lasercalc"])
    def test_overflowing_hamiltonian_exit_2(self, tmp_path, capsys, command):
        for overrides in (["delta_pd=-2e307", "e_hf=-2e307"],
                          ["delta_pd=-2.8e307", "e_hf=-1e306", "delta=2e307"],
                          ["a_1p1=1e307"]):
            self._assert_fails(tmp_path, capsys, overrides, 2,
                               "config error: the model Hamiltonian is not finite", command)

    @pytest.mark.filterwarnings("error")
    def test_unallocatable_samples_exit_3(self, tmp_path, capsys):
        # 2^62 samples exceed numpy's array size limit: the time grid fails
        # before anything is allocated
        out = tmp_path / "fail"
        assert main(["--out", str(out), "--set", "samples=4611686018427387904",
                     "simulate"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cannot allocate the samples: array is too big")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_config_error_exit_2(self, tmp_path, capsys):
        self._assert_fails(tmp_path, capsys, ["bogus=1"], 2, "config error")

    # omega_ps=1e308 is finite, but 2 pi times it is not
    @pytest.mark.parametrize("overrides", [
        ["t_final=0"], ["t_final=-1"], ["t_final=nan"], ["t_final=inf"],
        ["samples=0"], ["samples=-3"], ["samples=1"],
        ["alpha=0", "beta=0"], ["alpha=nan"], ["beta=inf"], ["omega_ps=1e308"],
        ["method=dop853"], ["rel_tol=1e-8"], ["abs_tol=1e-10"], ["max_step=0.01"],
    ], ids=lambda kvs: ",".join(kvs))
    def test_bad_value_exit_2(self, tmp_path, capsys, overrides):
        self._assert_fails(tmp_path, capsys, overrides, 2, "config error")

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

    @pytest.mark.parametrize("bracket", [("nan", "300"), ("50", "inf"), ("300", "50")],
                             ids=" ".join)
    def test_malformed_bracket_exit_2(self, tmp_path, capsys, bracket):
        rc = main(["--out", str(tmp_path), "balance", "--bracket", *bracket])
        assert rc == 2
        assert "not finite with lo < hi" in capsys.readouterr().err
        assert not (tmp_path / "balance.json").exists()


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


class TestEmptyOut:
    @pytest.mark.parametrize("argv", [
        ["simulate"], ["reproduce", "table1"], ["levels"], ["lasercalc"],
        ["dressed"], ["balance"], ["levels", "--out", ""],
    ], ids=" ".join)
    def test_rejected_before_any_write(self, monkeypatch, capsys, argv):
        # an empty --out would put the outputs at the filesystem root; the
        # writer is replaced so that nothing is written even if it is called
        writes = []
        monkeypatch.setattr(cli, "atomic_write_text", lambda path, text: writes.append(path))
        assert main(["--out", "", *FAST, *argv]) == 2
        assert writes == []
        assert "--out must not be empty" in capsys.readouterr().err


class TestOutNotDirectory:
    @pytest.mark.parametrize("below", ["", "sub", "sub/dir"])
    def test_rejected_before_any_write(self, tmp_path, monkeypatch, capsys, below):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        writes = []
        monkeypatch.setattr(cli, "atomic_write_text", lambda path, text: writes.append(path))
        assert main(["--out", str(taken / below), *FAST, "simulate"]) == 2
        assert writes == []
        assert taken.read_text() == "keep\n"
        assert f"{taken} is not a directory" in capsys.readouterr().err


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

    # the engine commands at full length; at omega_eff=0 evolve propagates three parts
    @pytest.mark.parametrize("args, names", [
        (["reproduce", "table1"], ["table1.csv", "table1.json"]),
        (["reproduce", "fig3"], ["fig3.csv"]),
        (["reproduce", "sensitivity"], ["sensitivity.csv", "sensitivity.json"]),
        (["reproduce", "impurity"], ["impurity.csv", "impurity.json"]),
        (["--set", "omega_eff=0", "--set", "samples=41", "simulate"],
         ["summary.json", "trajectory.csv"]),
    ], ids=["table1", "fig3", "sensitivity", "impurity", "omega_eff=0"])
    def test_engine_commands_rerun_identical_bytes(self, tmp_path, args, names):
        assert assert_reruns_identical(tmp_path, args) == names

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


def _run_python(code: str, environ: dict[str, str] | None = None) -> str:
    """Run code in a fresh interpreter that imports this checkout; its stdout."""
    src = str(Path(spincool.__file__).resolve().parent.parent)
    env = {**(os.environ if environ is None else environ), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


class TestImports:
    def test_package_import_leaves_numpy_unloaded(self):
        out = _run_python("import sys, spincool; print('numpy' in sys.modules)")
        assert out.strip() == "False"

    def test_engine_import_leaves_model_unloaded(self):
        out = _run_python("import sys, spincool.lindblad; "
                          "print('spincool.srmodel' in sys.modules)")
        assert out.strip() == "False"

    def test_cli_import_leaves_scipy_unloaded(self):
        out = _run_python(f"import sys, spincool.cli; print({SCIPY_LOADED})")
        assert out.strip() == "[]"

    def test_cli_import_leaves_hashlib_and_numbers_unloaded(self):
        out = _run_python("import sys, spincool.cli; "
                          "print(sorted({'hashlib', 'numbers'} & set(sys.modules)))")
        assert out.strip() == "[]"

    def test_light_commands_leave_numpy_unloaded(self, tmp_path):
        # scalar commands and config errors, the overflow check included, never load numpy
        commands = [["levels"], ["lasercalc"], ["reproduce", "appendixA"],
                    ["reproduce", "levels"], ["--set", "bogus=1", "simulate"],
                    ["--set", "delta_pd=-2e307", "--set", "e_hf=-2e307", "levels"]]
        code = ("import sys\n"
                "import spincool.cli\n"
                "print('numpy' in sys.modules)\n"
                f"codes = [spincool.cli.main(['--out', {str(tmp_path)!r}, *cmd]) "
                f"for cmd in {commands!r}]\n"
                "print(codes, 'numpy' in sys.modules)\n")
        out = _run_python(code).splitlines()
        assert out[0] == "False"
        assert out[-1] == "[0, 0, 0, 0, 2, 2] False"
        assert (tmp_path / "laser_budget.json").exists()

    # each light command once more in a fresh interpreter with numpy unimportable and
    # warnings as errors writes the files and prints the text of the in-process run
    @pytest.mark.parametrize("cmd", [["levels"], ["lasercalc"], ["reproduce", "appendixA"],
                                     ["reproduce", "levels"]], ids=" ".join)
    def test_light_command_without_numpy_writes_the_same_bytes(self, tmp_path, capsys, cmd):
        here, fresh = tmp_path / "in_process", tmp_path / "no_numpy"
        assert main(["--out", str(here), *cmd]) == 0
        printed = capsys.readouterr().out
        code = ("import sys, warnings\n"
                "warnings.simplefilter('error')\n"
                "sys.modules['numpy'] = None\n"
                "from spincool.cli import main\n"
                f"sys.exit(main(['--out', {str(fresh)!r}, *{cmd!r}]))\n")
        assert _run_python(code) == printed
        names = sorted(path.name for path in here.iterdir()) if here.exists() else []
        assert (sorted(path.name for path in fresh.iterdir()) if fresh.exists() else []) == names
        for name in names:
            assert (fresh / name).read_bytes() == (here / name).read_bytes()

    def test_engine_run_leaves_numpy_ma_unloaded(self):
        code = ("import sys\n"
                "from spincool.analysis import cool\n"
                "from spincool.srmodel import ModelParams\n"
                "cool(1.0, 1.0, ModelParams(), t_final=2.0, samples=9)\n"
                "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n")
        assert _run_python(code).strip() == "True False"

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

    def test_every_command_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with scipy unimportable every
        # command and reproduce target still succeeds
        targets = ["fig3", "table1", "sensitivity", "impurity", "appendixA",
                   "levels", "isotopes"]
        commands = [["--svg", "simulate"], ["balance"], ["dressed"], ["levels"],
                    ["lasercalc"], *(["reproduce", t] for t in targets)]
        code = ("import json, sys\n"
                "sys.modules['scipy'] = None\n"
                "from spincool.cli import main\n"
                "codes = {}\n"
                f"for cmd in {commands!r}:\n"
                "    try:\n"
                f"        codes[' '.join(cmd)] = main(['--out', {str(tmp_path)!r}, *cmd])\n"
                "    except Exception as exc:\n"
                "        codes[' '.join(cmd)] = repr(exc)\n"
                "print(json.dumps(codes))\n")
        codes = json.loads(_run_python(code).splitlines()[-1])
        assert codes == {" ".join(cmd): 0 for cmd in commands}
        assert (tmp_path / "transfer.svg").exists()
        assert (tmp_path / "isotopes.json").exists()


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    @staticmethod
    def _threads(module: str, **user: str) -> str:
        """The three thread variables after importing module, starting from user's values."""
        environ = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
        code = f"import os, {module}; print([os.environ.get(v) for v in {THREAD_VARS!r}])"
        return _run_python(code, {**environ, **user}).strip()

    def test_cli_defaults_one_thread(self):
        assert self._threads("spincool.cli") == "['1', '1', '1']"

    def test_user_value_kept(self):
        out = self._threads("spincool.cli", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2")
        assert out == "['2', '1', '2']"

    def test_library_import_leaves_threads_unset(self):
        assert self._threads("spincool.lindblad") == "[None, None, None]"


class TestSvgPlot:
    def test_log_floor_handles_zeros(self):
        from spincool.svgplot import line_plot
        doc = line_plot([("a", [0, 1, 2], [0.0, 1e-3, 1.0])], log_y=True)
        assert "polyline" in doc

    def test_rejects_empty(self):
        from spincool.svgplot import line_plot
        with pytest.raises(ValueError):
            line_plot([("a", [], [])])
