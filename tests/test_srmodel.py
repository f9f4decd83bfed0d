import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given

from spincool.config import RunConfig, load_run_config
from spincool.srmodel import (
    TWO_PI,
    BasisState,
    CollapseOp,
    ModelParams,
    _dressing_amplitude,
    collapse_ops,
    hamiltonian,
    qubit_vectors,
    with_polarization_impurity,
)

from .oracles import operator_hf_matrix, sr87_product_model
from .test_engine_properties import PROPERTY, ZERO_FIELD, physical_params

B = BasisState


def allowed_coupling_mask() -> np.ndarray:
    """Boolean mask of entries that may be nonzero in the model Hamiltonian."""
    mask = np.zeros((13, 13), dtype=bool)
    for k in range(13):
        mask[k, k] = True
    pairs = [
        (B.D2_F13_STRETCH, B.P1_M1_DOWN),
        (B.D2_F13_M11, B.P1_0_DOWN),
        (B.D2_F13_M11, B.P1_M1_UP),
        (B.D2_F11_M11, B.P1_0_DOWN),
        (B.D2_F11_M11, B.P1_M1_UP),
        (B.S6_DOWN, B.P1_0_DOWN),
        (B.P1_M1_UP, B.CLOCK_UP),
        (B.P1_M1_DOWN, B.CLOCK_DOWN),
        (B.P1_0_DOWN, B.P1_M1_UP),  # hyperfine spin mixing
    ]
    for i, k in pairs:
        mask[i, k] = mask[k, i] = True
    return mask


class TestModelParams:
    def test_defaults_are_reference_point(self):
        p = ModelParams()
        assert (p.omega_eff, p.omega_ps, p.omega_pd) == (1.0, 300.0, 144.27)
        assert (p.delta, p.delta_pd, p.delta_ps_extra) == (3.8826, -1700.0, 0.0)
        assert (p.gamma_p, p.gamma_s, p.gamma_d) == (32.0, 3.0, 0.47)
        assert (p.b_field, p.a_1p1, p.q_1p1, p.e_hf) == (1.0, -3.4, 39.0, 1300.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(gamma_p=-1.0)
        with pytest.raises(ValueError):
            ModelParams(delta=float("nan"))
        with pytest.raises(ValueError):
            ModelParams(b_field=-0.1)

    def test_immutable_value_record(self):
        # equal and hashed by value, rebuilt and checked again by replace, and
        # copied or pickled as a constructor call
        p = ModelParams(omega_pd=140.0)
        with pytest.raises(AttributeError, match="cannot assign to field 'omega_pd'"):
            p.omega_pd = 150.0
        with pytest.raises(AttributeError, match="cannot delete field 'omega_pd'"):
            del p.omega_pd
        # another type, even a record of the same values, is never equal

        class Subclass(ModelParams):
            __slots__ = ()

        assert p.__eq__(p._values()) is NotImplemented and p != p._values()
        assert Subclass(omega_pd=140.0) != p
        assert p == ModelParams(1.0, 300.0, 140.0) and hash(p) == hash(ModelParams(omega_pd=140.0))
        assert p.replace(omega_pd=144.27) == ModelParams() != p
        with pytest.raises(ValueError, match="gamma_p must be >= 0"):
            p.replace(gamma_p=-1.0)
        with pytest.raises(TypeError):
            p.replace(omega=1.0)
        assert copy.deepcopy(p) == pickle.loads(pickle.dumps(p)) == p
        assert repr(ModelParams()).startswith("ModelParams(omega_eff=1.0, omega_ps=300.0,")

    def test_dict_roundtrip(self):
        # the flat config echo in summary.json reloads to the same run
        p = ModelParams(omega_pd=140.0, delta_pd=-1750.0, gamma_d=0.1 + 0.2)
        cfg = RunConfig(params=p, alpha=0.3 - 0.7j, t_final=1 / 3)
        echo = cfg.to_flat_dict()
        assert load_run_config(overrides=[f"{k}={v}" for k, v in echo.items()]) == cfg


class TestHamiltonian:
    def test_uv_coupling_entry(self):
        p = ModelParams()
        H = hamiltonian(p)
        assert H[B.D2_F13_STRETCH, B.P1_M1_DOWN] == pytest.approx(
            TWO_PI * p.omega_pd / 2, rel=1e-15)

    def test_hermitian_exactly(self):
        H = hamiltonian(ModelParams())
        assert np.array_equal(H, H.T)
        assert H.dtype == np.float64

    def test_zero_pattern(self):
        H = hamiltonian(ModelParams())
        assert np.all(H[~allowed_coupling_mask()] == 0.0)

    def test_p1_plus_state_has_no_coherent_coupling(self):
        H = hamiltonian(ModelParams())
        row = H[B.P1_P1_DOWN].copy()
        row[B.P1_P1_DOWN] = 0.0
        assert np.all(row == 0.0)
        col = H[:, B.P1_P1_DOWN].copy()
        col[B.P1_P1_DOWN] = 0.0
        assert np.all(col == 0.0)

    def test_clock_and_ground_carry_no_optical_diagonal(self):
        H = hamiltonian(ModelParams())
        for s in (B.CLOCK_UP, B.CLOCK_DOWN, B.GROUND_UP, B.GROUND_DOWN, B.RESERVOIR):
            assert H[s, s] == 0.0

    def test_lasers_off_leaves_embedded_hyperfine(self):
        p = ModelParams(omega_eff=0.0, omega_ps=0.0, omega_pd=0.0, delta=0.0,
                        delta_pd=0.0, b_field=0.0, e_hf=0.0)
        H = hamiltonian(p) / TWO_PI
        oracle = operator_hf_matrix(-3.4, 39.0, 4.5, 1.0).real
        # |mJ, mI> lexicographic: index = (mJ+1)*10 + (mI+9/2)
        def idx(mj, tmi):
            return (mj + 1) * 10 + (tmi + 9) // 2
        embedding = {B.P1_0_DOWN: idx(0, -9), B.P1_M1_UP: idx(-1, -7),
                     B.P1_M1_DOWN: idx(-1, -9), B.P1_P1_DOWN: idx(1, -9)}
        for si, oi in embedding.items():
            for sk, ok in embedding.items():
                assert H[si, sk] == pytest.approx(oracle[oi, ok], abs=1e-9)
        # everything outside the 1P1 block vanishes
        others = [s for s in range(13) if s not in embedding]
        assert np.all(H[others][:, others] == 0.0)

    def test_dressing_amplitude_rejects_mj_outside_j1(self):
        with pytest.raises(ValueError):
            _dressing_amplitude(6.5, -6.5, -2, -4.5)

    def test_e_hf_moves_only_the_f11_diagonal(self):
        base = hamiltonian(ModelParams(e_hf=1300.0))
        moved = hamiltonian(ModelParams(e_hf=1400.0))
        diff = moved - base
        assert diff[B.D2_F11_M11, B.D2_F11_M11] == pytest.approx(TWO_PI * 100.0)
        diff[B.D2_F11_M11, B.D2_F11_M11] = 0.0
        assert np.all(diff == 0.0)


class TestCollapseOps:
    def test_count_and_shapes(self):
        ops = collapse_ops(ModelParams())
        assert len(ops) == 9
        assert all(op.matrix().shape == (13, 13) for op in ops)

    def test_spin_preserving_channel_is_rank_two(self):
        c0 = collapse_ops(ModelParams())[0]
        assert np.linalg.matrix_rank(c0.matrix()) == 2
        targets = {(term[1], term[2]) for term in c0.terms}
        assert targets == {(B.GROUND_UP, B.P1_M1_UP), (B.GROUND_DOWN, B.P1_M1_DOWN)}

    def test_sign_of_pi_channel(self):
        c1 = collapse_ops(ModelParams())[1]
        assert c1.matrix()[B.GROUND_DOWN, B.P1_0_DOWN] < 0

    def test_zero_rates_kill_all_amplitudes(self):
        ops = collapse_ops(ModelParams(gamma_p=0.0, gamma_s=0.0, gamma_d=0.0))
        assert all(np.all(op.matrix() == 0.0) for op in ops)

    def test_per_source_drain_rates(self):
        p = ModelParams()
        total = sum(op.matrix().conj().T @ op.matrix() for op in collapse_ops(p))
        # each 1P1 state drains at gamma_p/3, the 6s state at 3 gamma_s,
        # each 1D2 state at gamma_d (rates in rad/us)
        for s in (B.P1_0_DOWN, B.P1_M1_UP, B.P1_M1_DOWN, B.P1_P1_DOWN):
            assert total[s, s] == pytest.approx(TWO_PI * p.gamma_p / 3, rel=1e-12)
        assert total[B.S6_DOWN, B.S6_DOWN] == pytest.approx(TWO_PI * 3 * p.gamma_s, rel=1e-12)
        for s in (B.D2_F13_STRETCH, B.D2_F13_M11, B.D2_F11_M11):
            assert total[s, s] == pytest.approx(TWO_PI * p.gamma_d, rel=1e-12)
        for s in (B.CLOCK_UP, B.CLOCK_DOWN, B.GROUND_UP, B.GROUND_DOWN, B.RESERVOIR):
            assert total[s, s] == 0.0


class TestProductSpaceOracle:
    """H and the jumps equal the product-space model restricted to the 13 states."""

    @staticmethod
    def check(p: ModelParams) -> None:
        H, jumps, idx = sr87_product_model(p)
        on_basis = np.ix_(idx, idx)
        want_H = H[on_basis]
        # jumps from 1D2 states outside the basis vanish on it
        want_ops = [j[on_basis] for j in jumps if np.any(j[on_basis])]
        got_H = hamiltonian(p)
        assert np.all(np.abs(got_H - want_H) <= 1e-12 * np.maximum(np.abs(want_H), 1.0))
        got_ops = [op.matrix() for op in collapse_ops(p)]
        assert len(got_ops) == len(want_ops) == 9
        for got, want in zip(got_ops, want_ops):
            assert np.abs(got - want).max() <= 1e-12

    def test_reference_point(self):
        self.check(ModelParams())

    def test_other_rates_constants_and_ladder(self):
        self.check(ModelParams(gamma_p=11.0, gamma_s=0.7, gamma_d=2.5, a_1p1=5.1,
                               q_1p1=-21.0, e_hf=900.0, b_field=30.0))

    @PROPERTY
    @given(p=physical_params)
    @example(p=ZERO_FIELD)
    def test_physical_draws(self, p):
        self.check(p)


class TestPolarizationImpurity:
    def test_identity_at_zero(self):
        p = ModelParams()
        assert with_polarization_impurity(p, 0.0) == p

    def test_dressing_scaling_hits_all_xi_products(self):
        base = ModelParams()
        p = with_polarization_impurity(base, 0.01)
        assert p.omega_pd == pytest.approx(0.9 * base.omega_pd)
        H, H0 = hamiltonian(p), hamiltonian(base)
        # the closed-form angular factors xi_0 ... xi_3
        for (i, j), xi in (((B.D2_F13_M11, B.P1_0_DOWN), math.sqrt(2 / 13)),
                           ((B.D2_F13_M11, B.P1_M1_UP), 3 / math.sqrt(13)),
                           ((B.D2_F11_M11, B.P1_0_DOWN), 3 / math.sqrt(26)),
                           ((B.D2_F11_M11, B.P1_M1_UP), -2 / math.sqrt(13))):
            assert H[i, j] == pytest.approx(TWO_PI * xi * p.omega_pd / 2)
            assert H[i, j] == pytest.approx(0.9 * H0[i, j])

    def test_dressing_chi_ten_percent(self):
        p = with_polarization_impurity(ModelParams(), 0.1)
        reduction = 1 - p.omega_pd / ModelParams().omega_pd
        assert reduction == pytest.approx(0.32, abs=0.005)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            with_polarization_impurity(ModelParams(), -0.1)
        with pytest.raises(ValueError):
            with_polarization_impurity(ModelParams(), 1.0)


class TestQubitVectors:
    def test_fig_states(self):
        psi0, psi_f, psi_perp = qubit_vectors(1.0, 1.0)
        s = 1 / math.sqrt(2)
        assert psi0[B.CLOCK_UP] == pytest.approx(s)
        assert psi0[B.CLOCK_DOWN] == pytest.approx(s)
        assert psi_f[B.GROUND_UP] == pytest.approx(s)
        assert psi_perp[B.GROUND_UP] == pytest.approx(s)
        assert psi_perp[B.GROUND_DOWN] == pytest.approx(-s)

    def test_orthogonality(self):
        for a, b in ((1, 1), (2 + 1j, 0.3 - 0.7j), (1, 0)):
            _, psi_f, psi_perp = qubit_vectors(a, b)
            assert abs(np.vdot(psi_f, psi_perp)) < 1e-14
            assert np.linalg.norm(psi_f) == pytest.approx(1.0)
            assert np.linalg.norm(psi_perp) == pytest.approx(1.0)

    def test_alpha_only(self):
        _, _, psi_perp = qubit_vectors(1.0, 0.0)
        support = np.nonzero(psi_perp)[0]
        assert list(support) == [B.GROUND_DOWN]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            qubit_vectors(0.0, 0.0)

    @pytest.mark.parametrize("alpha, beta", [(math.inf, 1.0), (1.0, complex(0.0, math.nan)),
                                             (math.nan, 1e308), (-math.inf, math.inf)])
    def test_non_finite_rejected(self, alpha, beta):
        with pytest.raises(ValueError, match="qubit amplitudes must be finite"):
            qubit_vectors(alpha, beta)

    # amplitudes whose norm overflows, or that are subnormal, still give unit vectors
    @pytest.mark.parametrize("alpha, beta", [(1.5e308, 1.5e308), (1e-320, 1e-320),
                                             (5e-324, 5e-324), (1.5e308 + 1.5e308j, 1)])
    def test_extreme_amplitudes_give_unit_vectors(self, alpha, beta):
        psi0, psi_f, psi_perp = qubit_vectors(alpha, beta)
        for psi in (psi0, psi_f, psi_perp):
            assert abs(np.linalg.norm(psi) - 1) <= 1e-15
        assert abs(np.vdot(psi_f, psi_perp)) <= 1e-15


class TestCollapseOpType:
    def test_one_term_matrix(self):
        op = CollapseOp(terms=((2.0, B.GROUND_DOWN, B.P1_0_DOWN),))
        m = op.matrix()
        assert m[B.GROUND_DOWN, B.P1_0_DOWN] == 2.0
        assert np.count_nonzero(m) == 1
