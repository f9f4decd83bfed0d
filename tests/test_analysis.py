import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spincool import analysis, lindblad
from spincool.analysis import (
    BALANCE_TOL_MHZ,
    ISOTOPE_CASES,
    TABLE1_RATIOS,
    AmbiguousOverlapError,
    BracketError,
    SaturationError,
    _eigh,
    _reduced_overlap,
    balance_omega_pd,
    cool,
    dressed_pair,
    min_omega_ps,
    nu_or_imbalance,
    sensitivity_suite,
    table1_sweep,
)
from spincool.constants import SR87_TWICE_I
from spincool.lindblad import pure_density
from spincool.srmodel import (
    BasisState,
    ModelParams,
    collapse_ops,
    hamiltonian,
    hamiltonian_mhz,
    qubit_vectors,
)

from .oracles import full_dressed_pair, full_manifold_overlap, one_shot_lindblad
from .test_engine_properties import PROPERTY, physical_params


ENTRIES = st.floats(1e-6, 1e4) | st.floats(-1e4, -1e-6) | st.sampled_from([0.0, 1.0, -1.0])


@st.composite
def symmetric_matrices(draw) -> np.ndarray:
    """Real symmetric n x n, n from 1 to 13: dense draws, zero matrices, and exactly
    degenerate spectra (a block repeated on the diagonal, or c times all ones)."""
    kind = draw(st.sampled_from(["dense", "zero", "repeated", "ones"]))
    n = draw(st.integers(1, 13))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "ones":
        return np.full((n, n), draw(ENTRIES))
    m = draw(st.integers(1, 6)) if kind == "repeated" else n
    upper = np.array(draw(st.lists(ENTRIES, min_size=m * m, max_size=m * m))).reshape(m, m)
    a = np.triu(upper) + np.triu(upper, 1).T
    return np.kron(np.eye(2), a) if kind == "repeated" else a


# n eps (times max |a|) units; 20000 derandomized draws measured at most 4.5 for the
# eigenvalues against numpy, 1.7 for the rebuilt matrix and 0.9 for orthonormality
EIGH_BOUND = 10


class TestEigh:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=symmetric_matrices())
    def test_matches_numpy_and_rebuilds_the_matrix(self, a):
        n = len(a)
        values, vectors = map(np.array, _eigh(a.tolist()))
        tol = EIGH_BOUND * n * np.finfo(float).eps
        scale = tol * np.abs(a).max()  # 0 for the zero matrix: exact results
        assert np.abs(np.sort(values) - np.linalg.eigvalsh(a)).max() <= scale
        assert np.abs(vectors @ np.diag(values) @ vectors.T - a).max() <= scale
        assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= tol

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 1001, -2.0 ** 1001])
    def test_entry_not_finite_or_beyond_2_to_1000_raises(self, bad):
        with pytest.raises(FloatingPointError, match="not finite or beyond 2\\^1000"):
            _eigh([[1.0, 2.0], [2.0, bad]])

    def test_largest_entries_stay_finite(self):
        # at 2^1000 the differences and sums of the rotations stay below the float limit
        big = 2.0 ** 1000
        values = sorted(_eigh([[big, big], [big, -big]])[0])
        assert values == pytest.approx([-math.sqrt(2) * big, math.sqrt(2) * big], rel=1e-15)

    def test_no_convergence_raises(self, monkeypatch):
        # a dense 3x3 matrix needs more than one sweep
        dense = [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
        assert len(_eigh(dense)[0]) == 3
        monkeypatch.setattr(analysis, "_JACOBI_SWEEPS", 1)
        with pytest.raises(FloatingPointError, match="not diagonal within 1 sweeps"):
            _eigh(dense)


class TestDressedPair:
    def test_reference_overlaps(self, reference_params):
        pair = dressed_pair(reference_params)
        assert pair.overlap_up == pytest.approx(0.99409, abs=5e-4)
        assert pair.overlap_down == pytest.approx(0.99910, abs=5e-4)

    def test_common_energy_at_zero_delta(self, reference_params):
        pair = dressed_pair(reference_params.replace(delta=0.0))
        assert pair.energy_up == pytest.approx(-3.8826, abs=0.01)
        assert pair.energy_down == pytest.approx(-3.8826, abs=0.01)

    def test_no_hyperfine_no_lasers_gives_unit_overlaps(self, reference_params):
        p = reference_params.replace(a_1p1=0.0, q_1p1=0.0, omega_pd=0.0)
        pair = dressed_pair(p)
        assert pair.overlap_up == pytest.approx(1.0, abs=1e-12)
        assert pair.overlap_down == pytest.approx(1.0, abs=1e-12)

    def test_suppression_contrast(self, reference_params):
        # switching the suppression laser off leaves the hyperfine spin
        # mixing unchecked; with it on, the spin-flip amplitude is tiny
        unsuppressed = dressed_pair(reference_params.replace(omega_ps=0.0))
        assert unsuppressed.overlap_up < 0.97
        suppressed = dressed_pair(reference_params)
        assert abs(suppressed.e_up[BasisState.P1_0_DOWN]) < 1e-3
        # without hyperfine the down target never mixes into the up state
        bare = dressed_pair(reference_params.replace(a_1p1=0.0, q_1p1=0.0))
        assert abs(bare.e_up[BasisState.P1_M1_DOWN]) < 1e-12
        assert bare.overlap_up > 0.99

    def test_eigenpairs_reconstruct_hamiltonian(self, reference_params):
        H = np.array(hamiltonian_mhz(reference_params.replace(omega_eff=0.0)))
        energies, vectors = map(np.array, _eigh(H.tolist()))
        rebuilt = vectors @ np.diag(energies) @ vectors.T
        assert np.abs(rebuilt - H).max() < 1e-9 * max(1.0, np.abs(H).max())

    @PROPERTY
    @given(p=physical_params)
    @example(p=ModelParams())
    def test_matches_full_manifold(self, p):
        # the sector diagonalization against the whole 13 levels by np.linalg.eigh
        pair, full = dressed_pair(p), full_dressed_pair(p)
        for vector, want in ((pair.e_up, full.e_up), (pair.e_down, full.e_down)):
            assert len(vector) == 13
            # an eigenvector is defined up to its sign
            assert np.abs(np.abs(vector) - np.abs(want)).max() <= 1e-9
        for got, want in zip(pair[2:], full[2:]):
            assert got == pytest.approx(want, abs=1e-9)

    def test_degenerate_overlap_raises(self, reference_params):
        # resonant dressing with no detunings splits the up target 50/50
        # between two eigenvectors: a genuine tie
        p = reference_params.replace(omega_ps=0.0, delta=0.0, delta_pd=0.0,
                                     b_field=0.0, a_1p1=0.0, q_1p1=0.0, e_hf=0.0)
        for pair in (dressed_pair, full_dressed_pair):
            with pytest.raises(AmbiguousOverlapError, match="overlap tie for state P1_M1_UP"):
                pair(p)


class TestNuOrImbalance:
    def test_reference_value(self, reference_params):
        nu, imbalance = nu_or_imbalance(reference_params)
        assert nu == pytest.approx(-3.8826, abs=1e-3) and imbalance is None

    def test_trivial_zero(self, reference_params):
        p = reference_params.replace(omega_pd=0.0, omega_ps=0.0, a_1p1=0.0,
                                     q_1p1=0.0, b_field=0.0)
        nu, imbalance = nu_or_imbalance(p)
        assert nu == pytest.approx(0.0, abs=1e-12) and imbalance is None

    def test_unbalanced_reports_imbalance(self, reference_params):
        nu, imbalance = nu_or_imbalance(reference_params.replace(delta_pd=-1750.0))
        assert nu is None and imbalance == pytest.approx(0.42, abs=0.02)


class TestBalanceOmegaPd:
    def test_reference_root(self, reference_params):
        root = balance_omega_pd(reference_params)
        assert root == pytest.approx(144.27, abs=0.05)

    def test_residual_below_tolerance(self, reference_params):
        root = balance_omega_pd(reference_params)
        pair = dressed_pair(reference_params.replace(omega_pd=root, delta=0.0))
        assert abs(pair.energy_up - pair.energy_down) < 1e-4

    def test_bracket_invariance(self, reference_params):
        a = balance_omega_pd(reference_params, bracket=(100.0, 200.0))
        b = balance_omega_pd(reference_params, bracket=(50.0, 299.0))
        assert a == pytest.approx(b, abs=1e-4)

    def test_other_detuning_self_consistent(self, reference_params):
        p = reference_params.replace(delta_pd=-1500.0)
        root = balance_omega_pd(p, bracket=(50.0, 300.0))
        nu, imbalance = nu_or_imbalance(p.replace(omega_pd=root))
        assert imbalance is None
        rerun = dressed_pair(p.replace(omega_pd=root, delta=-nu))
        assert rerun.energy_up == pytest.approx(rerun.energy_down, abs=1e-4)

    def test_bad_bracket(self, reference_params):
        with pytest.raises(BracketError):
            balance_omega_pd(reference_params, bracket=(140.0, 141.0))

    @pytest.mark.parametrize("bracket", [(1e308, 1.7e308), (50.0, 1.7e308)])
    def test_bracket_end_not_a_valid_omega_pd(self, reference_params, bracket):
        # finite, but 2 pi times it overflows, which ModelParams rejects as omega_pd
        with pytest.raises(BracketError, match="is not a valid omega_pd"):
            balance_omega_pd(reference_params, bracket=bracket)

    def test_jump_is_not_a_root(self, reference_params):
        # the dressed pair changes states inside the bracket, so bisection would
        # converge on the jump of the level difference
        p = reference_params.replace(omega_ps=0.0, delta_pd=0.0, b_field=1.0)
        with pytest.raises(BracketError, match="jumps across 0"):
            balance_omega_pd(p, bracket=(36.03, 38.53))

    def test_bracket_of_floats_wider_apart_than_tol_ends(self, reference_params):
        # near 2e13 MHz adjacent floats lie 0.004 MHz apart, above the 1e-6 MHz
        # tolerance: bisection stops at two of them and the residual check decides
        p = reference_params.replace(delta_pd=-1.7e14)
        with pytest.raises(BracketError, match="jumps across 0"):
            balance_omega_pd(p, bracket=(1.78e13, 3.16e13))

    @pytest.mark.parametrize("delta_pd", [None, -1500.0])
    def test_matches_brentq(self, reference_params, delta_pd):
        from scipy.optimize import brentq

        p = reference_params if delta_pd is None else reference_params.replace(delta_pd=delta_pd)

        def imbalance(omega_pd):
            pair = dressed_pair(p.replace(omega_pd=omega_pd, delta=0.0))
            return pair.energy_up - pair.energy_down

        root = balance_omega_pd(p)
        assert abs(root - brentq(imbalance, 50.0, 300.0, xtol=1e-6)) <= 1e-6
        assert abs(imbalance(root)) < BALANCE_TOL_MHZ


class TestCool:
    def test_reference_endpoint(self, fig3_run):
        assert fig3_run.fidelity == pytest.approx(0.9996, abs=3e-4)
        assert fig3_run.pop_residual_clock == pytest.approx(7e-6, rel=0.5)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan])
    def test_non_finite_amplitude_rejected(self, reference_params, alpha):
        # named before anything is evolved, with no numpy warning (an error in this suite)
        with pytest.raises(ValueError, match="qubit amplitudes must be finite"):
            cool(alpha, 1.0, reference_params, 1.0, 3)

    def test_global_phase_invariance(self, reference_params):
        phase = np.exp(1j * 0.7)
        a = cool(phase * 1.0, phase * 1.0, reference_params, t_final=2.0, samples=5)
        b = cool(1.0, 1.0, reference_params, t_final=2.0, samples=5)
        assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)

    def test_populations_sum_to_one(self, fig3_run):
        obs = fig3_run.series
        k = -1
        total = (obs["pop_psif"][k] + obs["pop_perp"][k] + obs["pop_psi0"][k]
                 + obs["pop_reservoir"][k] + obs["pop_1P1_total"][k]
                 + obs["pop_1D2_total"][k] + obs["pop_6s"][k])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_unreached_levels_read_zero(self, reference_params):
        # without the clock drive the index set holds the two clock levels only
        res = cool(1.0, 1.0, reference_params.replace(omega_eff=0.0), t_final=2.0, samples=5)
        basis = res.trajectory.basis
        levels = sorted(basis.r[basis.r == basis.c].tolist())
        assert levels == sorted([BasisState.CLOCK_UP, BasisState.CLOCK_DOWN])
        for name in ("pop_reservoir", "pop_1P1_total", "pop_1D2_total", "pop_6s"):
            assert res.series[name].tolist() == [0.0] * 5
        assert res.series["pop_psi0"] == pytest.approx(np.ones(5), abs=1e-12)

    def test_fidelity_monotone_after_ten_us(self, fig3_run):
        t = fig3_run.trajectory.times
        f = fig3_run.series["pop_psif"]
        tail = f[t >= 10.0]
        assert np.all(np.diff(tail) > -1e-9)

    def test_trajectory_schema(self, fig3_run):
        obs = fig3_run.series
        expected = {"pop_psi0", "pop_psif", "pop_perp", "pop_reservoir",
                    "pop_1P1_total", "pop_1D2_total", "pop_6s"}
        assert expected <= set(obs)
        assert all(len(v) == len(fig3_run.trajectory.times) for v in obs.values())


class TestSweeps:
    def test_no_ratios_no_rows(self, reference_params):
        assert table1_sweep(reference_params, ratios=()) == []

    def test_sensitivity_has_reference_row(self, sensitivity_rows, fig3_run):
        ref = next(r for r in sensitivity_rows if r.name == "reference")
        assert ref.fidelity == pytest.approx(fig3_run.fidelity, abs=1e-9)

    def test_sensitivity_rows_complete(self, sensitivity_rows):
        names = {r.name for r in sensitivity_rows}
        assert {"reference", "omega_eff=2", "delta=0", "delta=0 (late)",
                "omega_ps=250", "ps_detuning=10", "omega_pd=140",
                "delta_pd=-1750"} <= names

    def test_impurity_zero_row_matches_reference(self, impurity_rows, fig3_run):
        chi0 = next(r for r in impurity_rows if r.overrides["chi"] == 0.0)
        assert chi0.fidelity == pytest.approx(fig3_run.fidelity, abs=1e-9)

    def test_rows_close_population_balance(self, sensitivity_rows, impurity_rows):
        for row in (*sensitivity_rows, *impurity_rows):
            assert row.notes["pop_total"] == pytest.approx(1.0, abs=1e-6), row.name

    def test_sensitivity_one_run_per_generator(self, reference_params, monkeypatch):
        # delta = 0 and omega_pd = 140 are each read twice from one run
        calls = []
        evolve = lindblad.evolve
        monkeypatch.setattr(lindblad, "evolve", lambda *args: calls.append(1) or evolve(*args))
        sensitivity_suite(reference_params)
        assert len(calls) == 7

    def test_table1_matches_one_shot_oracle_at_full_length(self, table1_rows, sensitivity_rows,
                                                           reference_params):
        # 100 to 600 grid steps against one 169-dimensional exponential per read
        p = reference_params
        assert [row.overrides["alpha_over_beta"] for row in table1_rows] == list(TABLE1_RATIOS)
        # (params, alpha/beta, t_us, fidelity, pop_perp) of every table1 and sensitivity read
        reads = [(p, row.overrides["alpha_over_beta"], row.t_us, row.fidelity, row.pop_perp)
                 for row in table1_rows]
        for row in sensitivity_rows:
            q = p.replace(**row.overrides)
            reads.append((q, 1.0, row.t_us, row.fidelity, row.pop_perp))
            if "fidelity_30us" in row.notes:
                reads.append((q, 1.0, 30.0, row.notes["fidelity_30us"],
                              row.notes["pop_perp_30us"]))
        assert len(reads) == len(table1_rows) + len(sensitivity_rows) + 1
        for q, ratio, t_us, fidelity, pop_perp in reads:
            H, cs = hamiltonian(q), [c.matrix() for c in collapse_ops(q)]
            psi0, psi_f, psi_perp = qubit_vectors(ratio, 1.0)
            rho = one_shot_lindblad(pure_density(psi0), H, cs, [t_us])[0]
            assert abs(fidelity - np.vdot(psi_f, rho @ psi_f).real) <= 1e-12, (q, t_us)
            assert abs(pop_perp - np.vdot(psi_perp, rho @ psi_perp).real) <= 1e-12, (q, t_us)


class TestScaledConstants:
    @staticmethod
    def overlaps(scale, p):
        pair = dressed_pair(p.replace(a_1p1=scale * p.a_1p1, q_1p1=scale * p.q_1p1))
        return pair.overlap_up, pair.overlap_down

    def test_scale_zero_removes_spin_mixing_loss(self, reference_params):
        # scale 0 keeps only the dressing admixture; overlaps rise to the
        # pure-dressing ceiling and are monotone in the scale
        up0, down0 = self.overlaps(0.0, reference_params)
        up1, down1 = self.overlaps(1.0, reference_params)
        up4, down4 = self.overlaps(4.0, reference_params)
        assert up0 > up1 > up4
        assert down0 >= down1 >= down4 - 1e-9
        assert up0 > 0.99 and down0 > 0.999

    def test_scale_four(self, reference_params):
        up, down = self.overlaps(4.0, reference_params)
        assert up == pytest.approx(0.984, abs=2e-3)
        assert down == pytest.approx(0.999, abs=2e-3)


class TestBisect:
    def test_adjacent_floats_are_not_split(self):
        lo = 2e13
        hi = math.nextafter(lo, math.inf)
        probes = []
        assert analysis._bisect(lambda x: probes.append(x) or True, lo, hi, 1e-6) == (lo, hi)
        assert probes == []

    def test_ends_at_adjacent_floats_around_the_switch(self):
        switch = 3.0e13 + 0.001
        lo, hi = analysis._bisect(lambda x: x >= switch, 1.78e13, 3.16e13, 1e-6)
        assert hi == math.nextafter(lo, math.inf)
        assert lo < switch <= hi


class TestMinOmegaPs:
    @pytest.mark.parametrize("I, shown", [(0, "0"), (-0.5, "-0.5")])
    def test_spin_below_one_half_rejected(self, I, shown):
        with pytest.raises(ValueError, match=f"nuclear spin I >= 1/2, got I = {shown}$"):
            min_omega_ps(I, -213.0, 0.0)

    def test_saturation_reported(self):
        # a hyperfine constant this large keeps the overlap at 0.82155 even at the cap
        with pytest.raises(SaturationError) as err:
            min_omega_ps(0.5, -8520.0, 0.0)
        assert err.value.best_overlap == pytest.approx(0.82155, abs=1e-5)
        assert str(err.value) == "overlap 0.82155 below threshold 0.99 even at 20000 MHz"

    def test_monotone_in_strength(self):
        overlap = _reduced_overlap(0.5, -213.0, 0.0)
        values = [overlap(om) for om in (500.0, 1000.0, 2000.0, 4000.0)]
        assert values == sorted(values)


REDUCED = settings(max_examples=40, deadline=None, derandomize=True)
OMEGA_PS_GRID = (0.0, 1.0, 300.0, 2150.0, 20000.0)


class TestReducedModel:
    """The isotope estimate's three levels: the 87Sr model's sector, and the whole manifold."""

    SECTOR = (BasisState.P1_M1_UP, BasisState.P1_0_DOWN, BasisState.S6_DOWN)

    def check_sector_of_the_model(self, a_1p1: float, q_1p1: float) -> None:
        # with the dressing, the clock drive, delta and the field off, the model's
        # |1P1 -1, up>, |1P1 0, down> and 6s are the reduced model at I = 9/2, bit for bit
        overlap = _reduced_overlap(SR87_TWICE_I / 2, a_1p1, q_1p1)
        others = [s for s in BasisState if s not in self.SECTOR]
        for omega_ps in OMEGA_PS_GRID:
            H = hamiltonian_mhz(ModelParams(omega_pd=0.0, omega_eff=0.0, delta=0.0, b_field=0.0,
                                            omega_ps=omega_ps, a_1p1=a_1p1, q_1p1=q_1p1))
            assert all(H[i][k] == 0.0 and H[k][i] == 0.0 for i in self.SECTOR for k in others)
            sector = [[H[i][k] for k in self.SECTOR] for i in self.SECTOR]
            want = max(abs(w) for w in _eigh(sector)[1][0])
            assert overlap(omega_ps).hex() == want.hex()

    def test_sector_of_the_model_at_the_reference_constants(self):
        self.check_sector_of_the_model(-3.4, 39.0)

    @REDUCED
    @given(a_1p1=st.floats(-300.0, 300.0), q_1p1=st.floats(-300.0, 300.0))
    def test_sector_of_the_model_on_draws(self, a_1p1, q_1p1):
        self.check_sector_of_the_model(a_1p1, q_1p1)

    # near omega_ps = 0 (or A = 0) the other mF sectors hold levels degenerate with the
    # reduced ones, among which the full diagonalization may rotate: no unique overlap
    @pytest.mark.parametrize("name, I, A, Q", ISOTOPE_CASES, ids=[c[0] for c in ISOTOPE_CASES])
    def test_full_manifold_oracle_on_isotopes(self, name, I, A, Q):
        overlap = _reduced_overlap(I, A, Q)
        for omega_ps in (*OMEGA_PS_GRID[1:], min_omega_ps(I, A, Q)):
            assert overlap(omega_ps) == pytest.approx(
                full_manifold_overlap(A, Q, I, omega_ps), abs=1e-12)

    @REDUCED
    @given(twice_i=st.integers(1, 15),
           A=st.floats(1.0, 300.0) | st.floats(-300.0, -1.0), Q=st.floats(-300.0, 300.0),
           omega_ps=st.floats(1.0, 20000.0))
    def test_full_manifold_oracle_on_draws(self, twice_i, A, Q, omega_ps):
        assert _reduced_overlap(twice_i / 2, A, Q)(omega_ps) == pytest.approx(
            full_manifold_overlap(A, Q, twice_i / 2, omega_ps), abs=1e-12)
