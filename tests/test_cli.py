import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spincool
from spincool import analysis, cli, lindblad
from spincool.cli import main
from spincool.config import (ConfigError, config_hash, load_run_config,
                             parse_config_text)
from spincool.srmodel import BasisState, ModelParams

FAST = ["--set", "t_final=2.0", "--set", "samples=9"]

# the artifact commands, kept here only, and the files each writes; the 777- and
# 3-sample commands use grid steps that no artifact uses, and their exponentials and
# the 10-sample one take 10 and 13 squarings, the most; evolve fills samples
# [2^k, 2^(k+1)) through P^(2^k), so samples=4097 ends in a level of one sample
# (sample 0 through P^4096) and samples=10 two samples into the level of P^8; with
# the clock drive off evolve propagates three parts
RUN_FILES = ["summary.json", "trajectory.csv"]
ARTIFACT_COMMANDS = {
    "simulate": RUN_FILES,
    "--set samples=4001 --svg simulate": ["populations_log.svg", *RUN_FILES, "transfer.svg"],
    "balance": ["balance.json"],
    "dressed": [],
    "levels": ["levels.csv"],
    "lasercalc": ["laser_budget.json"],
    "reproduce fig3": ["fig3.csv"],
    "reproduce table1": ["table1.csv", "table1.json"],
    "reproduce sensitivity": ["sensitivity.csv", "sensitivity.json"],
    "reproduce impurity": ["impurity.csv", "impurity.json"],
    "reproduce appendixA": ["laser_budget.json"],
    "reproduce levels": ["levels.csv"],
    "reproduce isotopes": ["isotopes.json"],
    "--set t_final=26 --set samples=777 simulate": RUN_FILES,
    "--set t_final=0.37 --set samples=3 simulate": RUN_FILES,
    "--set samples=4097 simulate": RUN_FILES,
    "--set samples=10 simulate": RUN_FILES,
    "--set omega_eff=0 --set samples=41 simulate": RUN_FILES,
}
# scalar arithmetic only: these run without numpy
LIGHT_COMMANDS = ["levels", "lasercalc", "reproduce appendixA", "reproduce levels"]
ENGINE_COMMANDS = [cmd for cmd in ARTIFACT_COMMANDS if cmd not in LIGHT_COMMANDS]


def assert_same_files(a: Path, b: Path) -> list[str]:
    """Directories a and b hold the same files, byte for byte (none if absent); their names."""
    names = sorted(path.name for path in a.iterdir()) if a.exists() else []
    assert (sorted(path.name for path in b.iterdir()) if b.exists() else []) == names
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
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

    def test_config_line_without_equals_exit_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("delta = 1.0\nomega_pd 140\n")
        assert main(["--config", str(path), "--out", str(tmp_path / "out"), "dressed"]) == 2
        assert f"{path}:2: expected key = value" in capsys.readouterr().err

    # a comment, an empty string and two lines parse to a number of keys other than one
    @pytest.mark.parametrize("item", ["#alpha=2", "", "alpha=2\nbeta=3"],
                             ids=["comment", "empty", "two_lines"])
    def test_override_sets_exactly_one_key(self, item):
        with pytest.raises(ConfigError, match="--set expects exactly one key=value"):
            load_run_config(None, [item])

    def test_commented_override_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--set", "#alpha=2", "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --set expects exactly one key=value")
        assert err.count("\n") == 1
        assert not out.exists()

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

    # config_sha is the SHA-256 of the sorted key=value lines, whichever module hashes
    @pytest.mark.parametrize("overrides", [[], ["delta=0"],
                                           ["alpha=1+1j", "omega_pd=140", "samples=21"]],
                             ids=lambda kvs: ",".join(kvs) or "default")
    def test_hash_is_sha256_of_the_sorted_lines(self, overrides):
        cfg = load_run_config(None, overrides)
        canon = "\n".join(f"{k}={v}" for k, v in sorted(cfg.to_flat_dict().items()))
        assert config_hash(cfg) == hashlib.sha256(canon.encode()).hexdigest()[:16]

    def test_default_hash(self):
        assert config_hash(load_run_config(None, [])) == "e265502de17819cf"


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

    def test_peak_memory_is_the_engine_run(self, tmp_path):
        # the command keeps the series, not the trajectory, while it diagonalises,
        # hashes and writes, so its peak is the engine run's
        import tracemalloc

        assert main(["--out", str(tmp_path / "warm"), *FAST, "--svg", "simulate"]) == 0
        peaks = []
        for run in (lambda: analysis.cool(1.0, 1.0, ModelParams(), 20.0, 4001),
                    lambda: main(["--out", str(tmp_path / "run"), "--set", "samples=4001",
                                  "--svg", "simulate"])):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

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
        assert main(["--out", str(out), *args, *command.split()]) == code
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_numerical_failure_exit_3(self, tmp_path, capsys):
        # a 10 THz drive leaves the exponential's rounding errors far above
        # the trace tolerance: the default engine must abort with code 3 and
        # leave no partial outputs
        self._assert_fails(tmp_path, capsys,
                           ["omega_ps=1e13", "t_final=2.0", "samples=3"],
                           3, "numerical failure: state invariants violated")

    @pytest.mark.parametrize("target", ["fig3", "table1", "sensitivity", "impurity"])
    def test_evolving_targets_numerical_failure_exit_3(self, tmp_path, capsys, target):
        # every command that evolves reports the engine's failures, as simulate does
        self._assert_fails(tmp_path, capsys, ["omega_ps=1e13"], 3,
                           "numerical failure: state invariants violated", f"reproduce {target}")

    def test_series_outside_unit_interval_exit_3(self, tmp_path, capsys, monkeypatch):
        # evolve passes samples down to -10x the positivity tolerance, but the
        # named series allow only 1e-8 outside [0, 1], both a level population
        # and a projection <psi|rho|psi>
        def reservoir_below_0(run):
            run.coords[..., -1, run.basis._pos[BasisState.RESERVOIR * (run.basis.n + 1)]] = -5e-8

        def psi0_above_1(run):
            # pop_psi0 starts at 1 and is the first series checked
            run.coords[..., 0, :] *= 1 + 5e-8

        run_evolve = lindblad.evolve
        for perturb, name in ((reservoir_below_0, "pop_reservoir"), (psi0_above_1, "pop_psi0")):
            def evolve(*args, perturb=perturb):
                run = run_evolve(*args)
                perturb(run)
                return run

            monkeypatch.setattr(lindblad, "evolve", evolve)
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
    def test_overlap_tie_simulate_writes_null_dressed_summary(self, tmp_path):
        # at the overlap tie above the run itself is sound: simulate writes its files
        # and reports the dressed pair it cannot pick as null
        out = tmp_path / "tie"
        assert main(["--out", str(out), "--set", "omega_ps=0", "--set", "omega_pd=0",
                     "--set", "b_field=7.753104246619223", *FAST, "simulate"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["dressed_overlaps"] is None
        assert summary["nu_mhz"] is None and summary["imbalance_mhz"] is None

    @pytest.mark.parametrize("command", ["dressed", "balance"])
    @pytest.mark.parametrize("error", [analysis.AmbiguousOverlapError, np.linalg.LinAlgError])
    def test_diagonalization_failure_exit_3(self, tmp_path, capsys, monkeypatch, command, error):
        # the dressed-state commands load no lindblad: these two are their numerical failures
        def dressed_pair(p):
            raise error("eigh failed")

        monkeypatch.setattr(analysis, "dressed_pair", dressed_pair)
        self._assert_fails(tmp_path, capsys, [], 3, "numerical failure: eigh failed", command)

    @pytest.mark.filterwarnings("error")
    def test_huge_amplitude_normalized(self, tmp_path):
        out = tmp_path / "huge"
        assert main(["--out", str(out), "--set", "beta=1e308", "--set", "t_final=1.0",
                     "--set", "samples=3", "simulate"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0 <= summary["fidelity"] <= 1

    # equal amplitudes whose norm overflows, or that are subnormal, are the state of 1, 1
    @pytest.mark.parametrize("amplitude", ["1.5e308", "1e-320"])
    def test_extreme_equal_amplitudes_match_unit_ones(self, tmp_path, amplitude):
        fidelity = []
        for value in ("1", amplitude):
            out = tmp_path / value
            assert main(["--out", str(out), "--set", f"alpha={value}", "--set", f"beta={value}",
                         *FAST, "simulate"]) == 0
            fidelity.append(json.loads((out / "summary.json").read_text())["fidelity"])
        assert abs(fidelity[1] - fidelity[0]) <= 1e-12

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

    @pytest.mark.parametrize("command", ["levels", "simulate"])
    def test_failed_write_exit_2(self, tmp_path, capsys, monkeypatch, command):
        # a full disk at the rename: one line on stderr, no traceback, no temp file left
        def full(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "replace", full)
        out = tmp_path / "out"
        assert main(["--out", str(out), *FAST, command]) == 2
        assert capsys.readouterr().err == (f"error: cannot write outputs: [Errno {errno.ENOSPC}] "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert list(out.iterdir()) == []

    def test_failed_write_keeps_the_earlier_files(self, tmp_path, capsys, monkeypatch):
        # a rerun that fails at any of its four writes leaves the files of an earlier
        # run with other values as they were, next to nothing of its own, and prints
        # only the error
        out = tmp_path / "out"
        assert main(["--out", str(out), "--set", "t_final=1.0", "--set", "samples=5",
                     "--svg", "simulate"]) == 0
        earlier = {path.name: path.read_bytes() for path in out.iterdir()}
        assert len(earlier) == 4
        capsys.readouterr()
        replace = os.replace
        for failing in range(4):
            calls = []

            def flaky(src, dst, failing=failing, calls=calls):
                calls.append(dst)
                if len(calls) == failing + 1:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                replace(src, dst)

            monkeypatch.setattr(os, "replace", flaky)
            assert main(["--out", str(out), *FAST, "--svg", "simulate"]) == 2
            assert capsys.readouterr() == ("", f"error: cannot write outputs: [Errno "
                                               f"{errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == earlier

    def test_directory_in_a_files_place_replaces_no_file(self, tmp_path, capsys):
        # the commit checks every target before its first move: trajectory.csv, moved
        # before summary.json, keeps the earlier run's bytes
        out = tmp_path / "out"
        assert main(["--out", str(out), "--set", "samples=5", "simulate"]) == 0
        earlier = (out / "trajectory.csv").read_bytes()
        (out / "summary.json").unlink()
        (out / "summary.json").mkdir()
        capsys.readouterr()
        assert main(["--out", str(out), "--set", "samples=7", "simulate"]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write outputs: [Errno {errno.EISDIR}] "
                                           f"{os.strerror(errno.EISDIR)}: "
                                           f"'{out / 'summary.json'}'\n")
        assert (out / "trajectory.csv").read_bytes() == earlier
        assert sorted(path.name for path in out.iterdir()) == ["summary.json", "trajectory.csv"]

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

    def test_bracket_beyond_valid_omega_pd_exit_2(self, tmp_path, capsys):
        # finite ends whose 2 pi multiple overflows: no valid omega_pd
        out = tmp_path / "out"
        assert main(["--out", str(out), "balance", "--bracket", "1e308", "1.7e308"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bracket end 1e+308 is not a valid omega_pd")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_jump_in_bracket_exit_2(self, tmp_path, capsys):
        # the dressed pair changes states inside this bracket: a sign change, no root
        rc = main(["--out", str(tmp_path), "--set", "omega_ps=0", "--set", "delta_pd=0",
                   "--set", "b_field=1", "balance", "--bracket", "36.03", "38.53"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no root on [36.03, 38.53]") and err.count("\n") == 1
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


def _python(*args: str, environ: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this checkout with args; the finished process."""
    src = str(Path(spincool.__file__).resolve().parent.parent)
    env = {**(os.environ if environ is None else environ), "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _run_python(code: str, environ: dict[str, str] | None = None) -> str:
    """Run code in a fresh interpreter that imports this checkout; its stdout."""
    proc = _python("-c", code, environ=environ)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
        # nor dataclasses (the records are NamedTuples and slots classes) or the
        # laser budget, which only lasercalc and reproduce appendixA import
        unused = {'hashlib', 'numbers', 'dataclasses', 'spincool.lasercalc'}
        out = _run_python("import sys, spincool.cli; "
                          f"print(sorted({unused!r} & set(sys.modules)))")
        assert out.strip() == "[]"

    def test_light_commands_leave_numpy_unloaded(self, tmp_path):
        # scalar commands and config errors, the overflow check included, never load numpy
        commands = [*(cmd.split() for cmd in LIGHT_COMMANDS), ["--set", "bogus=1", "simulate"],
                    ["--set", "delta_pd=-2e307", "--set", "e_hf=-2e307", "levels"]]
        code = ("import sys\n"
                "import spincool.cli\n"
                "print('numpy' in sys.modules)\n"
                f"codes = [spincool.cli.main(['--out', {str(tmp_path)!r}, *cmd]) "
                f"for cmd in {commands!r}]\n"
                "print(codes, sorted({'numpy', 'dataclasses'} & set(sys.modules)))\n")
        out = _run_python(code).splitlines()
        assert out[0] == "False"
        assert out[-1] == "[0, 0, 0, 0, 2, 2] []"
        assert (tmp_path / "laser_budget.json").exists()

    # each light command once more in a fresh interpreter with numpy unimportable and
    # warnings as errors writes the files and prints the text of the in-process run;
    # only the laser-budget commands load lasercalc
    @pytest.mark.parametrize("cmd", LIGHT_COMMANDS)
    def test_light_command_without_numpy_writes_the_same_bytes(self, tmp_path, capsys, cmd):
        here, fresh = tmp_path / "in_process", tmp_path / "no_numpy"
        assert main(["--out", str(here), *cmd.split()]) == 0
        printed = capsys.readouterr().out
        laser = cmd.split()[-1] in ("lasercalc", "appendixA")
        code = ("import sys, warnings\n"
                "warnings.simplefilter('error')\n"
                "sys.modules['numpy'] = None\n"
                "from spincool.cli import main\n"
                f"code = main(['--out', {str(fresh)!r}, *{cmd.split()!r}])\n"
                f"assert ('spincool.lasercalc' in sys.modules) is {laser}\n"
                "sys.exit(code)\n")
        assert _run_python(code) == printed
        assert_same_files(here, fresh)

    def test_simulate_leaves_hashlib_unloaded(self, tmp_path):
        # config_sha comes from the builtin SHA-256, so OpenSSL's libcrypto stays unloaded
        code = ("import sys\n"
                "from spincool.cli import main\n"
                f"assert main(['--out', {str(tmp_path)!r}, *{FAST!r}, 'simulate']) == 0\n"
                "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
        assert _run_python(code).splitlines()[-1] == "[]"
        assert json.loads((tmp_path / "summary.json").read_text())["config_sha"]

    def test_commands_load_the_engine_and_plotter_only_to_use_them(self, tmp_path):
        # one interpreter, in this order: the dressed-state commands diagonalize without
        # lindblad, and simulate loads svgplot only with --svg
        commands = [["dressed"], ["balance"], ["reproduce", "isotopes"],
                    [*FAST, "simulate"], [*FAST, "--svg", "simulate"]]
        code = ("import sys\n"
                "from spincool.cli import main\n"
                f"for cmd in {commands!r}:\n"
                f"    assert main(['--out', {str(tmp_path)!r}, *cmd]) == 0, cmd\n"
                "    print('loaded', sorted({'spincool.lindblad', 'spincool.svgplot'} "
                "& set(sys.modules)))\n")
        loaded = [line for line in _run_python(code).splitlines() if line.startswith("loaded")]
        assert loaded == ["loaded []"] * 3 + ["loaded ['spincool.lindblad']",
                                              "loaded ['spincool.lindblad', 'spincool.svgplot']"]

    def test_engine_run_leaves_numpy_ma_unloaded(self):
        code = ("import sys\n"
                "from spincool.analysis import cool\n"
                "from spincool.srmodel import ModelParams\n"
                "cool(1.0, 1.0, ModelParams(), t_final=2.0, samples=9)\n"
                "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)\n")
        assert _run_python(code).strip() == "True False"


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _without_thread_vars() -> dict[str, str]:
    """This environment with the BLAS thread variables unset, so the CLI's default runs."""
    return {k: v for k, v in os.environ.items() if k not in THREAD_VARS}


@pytest.fixture(scope="module")
def artifact_runs(tmp_path_factory) -> dict[str, Path]:
    """Each artifact command run once in process: its output directory."""
    root = tmp_path_factory.mktemp("artifacts")
    runs = {cmd: root / str(k) for k, cmd in enumerate(ARTIFACT_COMMANDS)}
    for cmd, out in runs.items():
        assert main(["--out", str(out), *cmd.split()]) == 0, cmd
    return runs


class TestArtifactCommands:
    # the second run in process writes the files of the first, byte for byte
    @pytest.mark.parametrize("cmd", ARTIFACT_COMMANDS)
    def test_reruns_identical_bytes(self, tmp_path, artifact_runs, cmd):
        assert main(["--out", str(tmp_path / "rerun"), *cmd.split()]) == 0
        assert assert_same_files(artifact_runs[cmd], tmp_path / "rerun") == ARTIFACT_COMMANDS[cmd]

    def test_engine_commands_in_a_fresh_interpreter(self, tmp_path, artifact_runs):
        # one interpreter with warnings as errors and the CLI's own BLAS default runs
        # every engine command, whose files are those of the in-process run, without
        # loading scipy (numpy is the only runtime dependency), and then 2^62 samples,
        # which numpy refuses before allocating: exit 3, one line on stderr and no
        # output directory
        fresh = {cmd: str(tmp_path / str(k)) for k, cmd in enumerate(ENGINE_COMMANDS)}
        huge = tmp_path / "huge"
        code = ("import sys\n"
                "from spincool.cli import main\n"
                f"for cmd, out in {list(fresh.items())!r}:\n"
                "    assert main(['--out', out, *cmd.split()]) == 0, cmd\n"
                f"assert not {SCIPY_LOADED}, {SCIPY_LOADED}\n"
                f"sys.exit(main(['--out', {str(huge)!r}, '--set', 'samples={2**62}', "
                "'simulate']))\n")
        proc = _python("-W", "error", "-c", code, environ=_without_thread_vars())
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical failure: cannot allocate the samples")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert not huge.exists()
        for cmd, out in fresh.items():
            assert_same_files(artifact_runs[cmd], Path(out))


class TestBlasThreads:
    @staticmethod
    def _threads(module: str, **user: str) -> str:
        """The three thread variables after importing module, starting from user's values."""
        code = f"import os, {module}; print([os.environ.get(v) for v in {THREAD_VARS!r}])"
        return _run_python(code, {**_without_thread_vars(), **user}).strip()

    def test_cli_defaults_one_thread(self):
        assert self._threads("spincool.cli") == "['1', '1', '1']"

    def test_user_value_kept(self):
        out = self._threads("spincool.cli", OPENBLAS_NUM_THREADS="2", MKL_NUM_THREADS="2")
        assert out == "['2', '1', '2']"

    def test_library_import_leaves_threads_unset(self):
        assert self._threads("spincool.lindblad") == "[None, None, None]"


class TestGcFreeze:
    # the CLI's other process-level setting: the collector is paused while the command
    # imports, then what the imports built is frozen and the collector resumes for the
    # command's own work; main gives its caller back the collector's on/off state on
    # every exit, and the library neither pauses nor freezes anything
    def test_cli_run_freezes_its_imports(self, tmp_path):
        # young collections before the freeze, 31-32 for table1 with the collector on,
        # and whether it is on while the command runs
        code = ("import gc\n"
                "import spincool.cli as cli\n"
                "before = []\n"
                "gc.callbacks.append(lambda phase, info: phase == 'start'\n"
                "                    and not gc.get_freeze_count() and before.append(info))\n"
                "run = cli.cmd_reproduce\n"
                "def cmd_reproduce(*args):\n"
                "    print('running', gc.isenabled())\n"
                "    return run(*args)\n"
                "cli.cmd_reproduce = cmd_reproduce\n"
                f"assert cli.main(['--out', {str(tmp_path)!r}, 'reproduce', 'table1']) == 0\n"
                "print(len(before), gc.get_freeze_count() > 0, gc.isenabled())\n")
        lines = _run_python(code).splitlines()
        assert lines[0] == "running True"
        assert lines[-1] == "0 True True"

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_gives_back_the_callers_collector_state(self, tmp_path, enabled):
        # each call finds nothing frozen (gc.unfreeze), as the first call in a process
        # does, so each one pauses the collector; --help and the unknown flag leave main
        # by argparse's SystemExit, the others by their exit code
        calls = [(["reproduce", "table1"], 0),
                 (["--set", "samples=1", "simulate"], 2),
                 (["--out", "", "simulate"], 2),
                 (["--set", "omega_ps=1e13", "simulate"], 3),
                 (["--help"], 0),
                 (["--no-such-flag", "simulate"], 2)]
        code = ("import contextlib, gc, io\n"
                "from spincool.cli import main\n"
                f"for argv in {[argv for argv, _ in calls]!r}:\n"
                "    gc.unfreeze()\n"
                f"    {'gc.enable()' if enabled else 'gc.disable()'}\n"
                "    try:\n"
                "        with contextlib.redirect_stdout(io.StringIO()):  # --help's text\n"
                f"            code = main(['--out', {str(tmp_path / 'out')!r}, *argv])\n"
                "    except SystemExit as exc:\n"
                "        code = exc.code\n"
                "    print(code, gc.isenabled())\n")
        assert _run_python(code).splitlines() == [f"{exit_code} {enabled}"
                                                  for _, exit_code in calls]

    def test_library_run_leaves_nothing_frozen(self):
        code = ("import gc\n"
                "from spincool.analysis import table1_sweep\n"
                "from spincool.srmodel import ModelParams\n"
                "table1_sweep(ModelParams())\n"
                "print(gc.get_freeze_count(), gc.isenabled())\n")
        assert _run_python(code).strip() == "0 True"


class TestSvgPlot:
    def test_log_floor_handles_zeros(self):
        from spincool.svgplot import line_plot
        doc = line_plot([("a", [0, 1, 2], [0.0, 1e-3, 1.0])], log_y=True)
        assert "polyline" in doc

    def test_flat_log_series(self):
        # every value at or below the 1e-12 floor: a zero y span, widened before the ticks
        from spincool.svgplot import line_plot
        doc = line_plot([("a", [0, 1, 2], [0.0, 1e-13, 1e-12])], log_y=True)
        assert doc.count("<polyline") == 1

    def test_rejects_empty(self):
        from spincool.svgplot import line_plot
        with pytest.raises(ValueError):
            line_plot([("a", [], [])])
