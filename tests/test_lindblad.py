import cmath
import math

import numpy as np
import pytest

from spincool import lindblad
from spincool.lindblad import (
    POSITIVITY_TOL,
    DensityMatrixError,
    IntegrationError,
    IntegratorConfig,
    check_density_matrix,
    evolve,
    expm,
    liouvillian_apply,
    liouvillian_matrix,
    population,
    pure_density,
    reachable_subspace,
)
from spincool.srmodel import (
    ModelParams,
    collapse_ops,
    hamiltonian,
    qubit_vectors,
    with_polarization_impurity,
)

GAMMA = 1.3  # rad/us, arbitrary two-level decay rate


def damping_op(gamma: float) -> np.ndarray:
    c = np.zeros((2, 2))
    c[0, 1] = math.sqrt(gamma)
    return c


class TestDensityMatrixChecks:
    def test_pure_density(self):
        rho = pure_density(np.array([1.0, 1.0]))
        assert rho[0, 0] == pytest.approx(0.5)
        check_density_matrix(rho)

    def test_rejects_bad_matrices(self):
        with pytest.raises(DensityMatrixError):
            check_density_matrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # non-Hermitian
        with pytest.raises(DensityMatrixError):
            check_density_matrix(np.diag([0.7, 0.7]))  # trace 1.4
        with pytest.raises(DensityMatrixError):
            check_density_matrix(np.diag([1.2, -0.2]))  # negative eigenvalue
        with pytest.raises(DensityMatrixError):
            pure_density(np.zeros(3))

    def test_stack_names_first_failure(self):
        good = pure_density(np.array([1.0, 1.0j]))
        stack = np.array([[good, good, good], [good, good, np.diag([0.7, 0.7])]])
        check_density_matrix(stack[:1])
        with pytest.raises(DensityMatrixError, match="trace") as exc:
            check_density_matrix(stack)
        assert exc.value.index == (1, 2)
        stack[0, 1, 0, 1] += 1e-6
        with pytest.raises(DensityMatrixError, match="hermiticity") as exc:
            check_density_matrix(stack)
        assert exc.value.index == (0, 1)

    @staticmethod
    def _blocked(top: np.ndarray, tail: tuple[float, float]) -> np.ndarray:
        # 5 levels in three blocks: {0, 1, 2} and the 1x1 blocks {3}, {4}
        rho = np.zeros((5, 5), dtype=complex)
        rho[:3, :3] = top
        rho[3, 3], rho[4, 4] = tail
        return rho

    def test_negative_eigenvalue_inside_block_names_stack_index(self):
        psi = np.array([1.0, 1.0j, -1.0]) / math.sqrt(3)
        good = self._blocked(0.8 * np.outer(psi, psi.conj()), (0.1, 0.1))
        # positive diagonal, eigenvalues 0.7, -0.1, 0.2: only the coherence
        # between levels 0 and 1 makes it fail
        top = np.array([[0.3, 0.4, 0.0], [0.4, 0.3, 0.0], [0.0, 0.0, 0.2]])
        # the first matrix has no coherences: the blocks come from the whole stack
        mixed = np.diag([0.3, 0.3, 0.2, 0.1, 0.1]).astype(complex)
        stack = np.array([mixed, good, self._blocked(top, (0.1, 0.1)), good])
        assert len(lindblad._blocks(stack)) == 3
        check_density_matrix(stack[:2])
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -1.000e-01") as exc:
            check_density_matrix(stack)
        assert exc.value.index == (2,)

    def test_negative_eigenvalue_in_one_level_block(self):
        psi = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
        good = self._blocked(0.8 * np.outer(psi, psi), (0.1, 0.1))
        bad = self._blocked(0.85 * np.outer(psi, psi), (0.2, -0.05))
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -5.000e-02") as exc:
            check_density_matrix(np.array([good, bad]))
        assert exc.value.index == (1,)

    def test_dense_matrix_is_one_block(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        assert len(lindblad._blocks(rho)) == 1
        check_density_matrix(rho)
        w, v = np.linalg.eigh(rho)
        w[0] = -0.02
        w[1:] *= 1.02 / w[1:].sum()
        bad = (v * w) @ v.conj().T
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -2.000e-02"):
            check_density_matrix(bad)

    def test_positivity_tolerance_edge(self):
        # eigenvalues (1 + x, -x) of a rotated 2x2 block with coherences
        c, s = math.cos(0.3), math.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        for x, ok in ((0.5 * POSITIVITY_TOL, True), (2 * POSITIVITY_TOL, False)):
            rho = rot @ np.diag([1 + x, -x]) @ rot.T
            if ok:
                check_density_matrix(rho)
            else:
                with pytest.raises(DensityMatrixError, match="negative eigenvalue"):
                    check_density_matrix(rho)


def _non_normal(n: int, seed: int) -> np.ndarray:
    """Complex upper-triangular-dominated matrix with unit 1-norm."""
    rng = np.random.default_rng(seed)
    m = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m += 0.1 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return m / np.abs(m).sum(axis=0).max()


def _pade_plan(A: np.ndarray) -> tuple[int, int]:
    A2 = A @ A
    powers = [np.eye(len(A)), A2, A2 @ A2]
    powers.append(powers[2] @ A2)
    return lindblad._pade_degree(A, powers)


# norms that take the degree-selection through 3, 5, 7, 9 and 13 without and
# with squaring
EXPM_SCALES = (0.005, 0.1, 0.8, 3.0, 8.0, 30.0, 100.0)


class TestExpm:
    @pytest.mark.parametrize("scale", EXPM_SCALES)
    @pytest.mark.parametrize("seed", [3, 5])
    def test_matches_mpmath(self, scale, seed):
        import mpmath

        A = scale * _non_normal(5, seed)
        with mpmath.workdps(30):
            ref = np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=complex)
        err = np.abs(expm(A) - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max()
        assert err <= 1e-13

    def test_scales_cover_every_degree(self):
        plans = [_pade_plan(scale * _non_normal(5, seed))
                 for scale in EXPM_SCALES for seed in (3, 5)]
        assert {m for m, _ in plans} == {3, 5, 7, 9, 13}
        assert (13, 0) in plans
        assert any(s > 0 for _, s in plans)

    @pytest.mark.parametrize("dt", [0.0125, 0.05, 0.065, 0.075])
    def test_matches_scipy_on_reachable_block(self, dt):
        from scipy.linalg import expm as scipy_expm

        p = ModelParams()
        L = liouvillian_matrix(hamiltonian(p), collapse_ops(p))
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        idx = reachable_subspace(L, pure_density(psi0).reshape(-1) != 0)
        A = L[np.ix_(idx, idx)] * dt
        assert _pade_plan(A)[1] > 0
        ref = scipy_expm(A)
        assert np.abs(expm(A) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_zero_and_scalar(self):
        for n in (1, 4):
            assert np.array_equal(expm(np.zeros((n, n), dtype=complex)), np.eye(n))
        for z in (1e-3 + 2e-3j, -0.7 + 3j, 40.0 - 25.0j):
            got = expm(np.array([[z]]))
            assert got.shape == (1, 1)
            # exp has relative condition number |z| at z
            tol = 4 * np.finfo(float).eps * max(1.0, abs(z))
            assert abs(got[0, 0] - cmath.exp(z)) <= tol * abs(cmath.exp(z))


class TestReachableSubspace:
    @pytest.mark.parametrize("p", [
        ModelParams(),
        ModelParams(delta_pd=-1750.0),
        with_polarization_impurity(ModelParams(), 0.1, "dressing"),
    ], ids=["reference", "delta_pd=-1750", "chi=0.1"])
    def test_size_and_closure(self, p):
        L = liouvillian_matrix(hamiltonian(p), collapse_ops(p))
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        idx = reachable_subspace(L, pure_density(psi0).reshape(-1) != 0)
        assert len(idx) == 87
        outside = np.setdiff1d(np.arange(L.shape[0]), idx)
        assert not np.any(L[np.ix_(outside, idx)])

    def test_disconnected_entries_left_out(self):
        # a decaying two-level system never builds up coherence from a population
        L = liouvillian_matrix(np.zeros((2, 2)), [damping_op(GAMMA)])
        support = np.array([False, False, False, True])
        assert reachable_subspace(L, support).tolist() == [0, 3]


class TestLiouvillianApply:
    def test_zero_generator(self):
        rho = pure_density(np.array([1.0, 0.0]))
        out = liouvillian_apply(np.zeros((2, 2)), [], rho)
        assert np.all(out == 0.0)

    def test_traceless_output(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(4, 4))
        H = H + H.T
        cs = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_density(psi)
        out = liouvillian_apply(H, cs, rho)
        assert abs(np.trace(out)) < 1e-12

    def test_amplitude_damping_rhs(self):
        rho = pure_density(np.array([0.0, 1.0]))
        out = liouvillian_apply(np.zeros((2, 2)), [damping_op(GAMMA)], rho)
        assert out[1, 1] == pytest.approx(-GAMMA, rel=1e-12)
        assert out[0, 0] == pytest.approx(GAMMA, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DensityMatrixError):
            liouvillian_apply(np.zeros((3, 3)), [], np.eye(2))
        with pytest.raises(DensityMatrixError):
            liouvillian_apply(np.zeros((2, 2)), [np.zeros((3, 3))], np.eye(2) / 2)

    def test_matches_superoperator_matrix(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(3, 3))
        H = H + H.T
        cs = [rng.normal(size=(3, 3)) for _ in range(2)]
        rho = np.eye(3) / 3 + 0.1 * (lambda a: (a + a.conj().T) / 2)(
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho = rho / np.trace(rho)
        direct = liouvillian_apply(H, cs, rho)
        via_matrix = (liouvillian_matrix(H, cs) @ rho.reshape(-1)).reshape(3, 3)
        assert np.abs(direct - via_matrix).max() < 1e-12


class TestEvolve:
    def test_unitary_purity_conserved(self):
        H = np.array([[0.0, 2.0], [2.0, 1.0]])
        rho0 = pure_density(np.array([1.0, 0.5 + 0.2j]))
        traj = evolve(rho0, H, [], np.linspace(0, 20, 81))
        purities = [np.trace(r @ r).real for r in traj.states]
        assert max(abs(p - 1.0) for p in purities) < 1e-8

    @pytest.mark.parametrize("method", ["expm", "rk45", "dop853"])
    def test_two_level_decay_analytic(self, method):
        rho0 = pure_density(np.array([0.0, 1.0]))
        t = np.linspace(0, 3.0, 16)
        cfg = IntegratorConfig(method=method)
        traj = evolve(rho0, np.zeros((2, 2)), [damping_op(GAMMA)], t, cfg)
        excited = np.array([r[1, 1].real for r in traj.states])
        expected = np.exp(-GAMMA * t)
        assert np.abs(excited / expected - 1).max() < 1e-6

    def test_methods_agree_on_full_model(self):
        # independent cross-check of the exact propagator against adaptive RK
        p = ModelParams()
        H = hamiltonian(p)
        cs = collapse_ops(p)
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        rho0 = pure_density(psi0)
        t = np.linspace(0, 0.5, 6)
        ref = evolve(rho0, H, cs, t).states[-1]
        alt = evolve(rho0, H, cs, t, IntegratorConfig(method="dop853")).states[-1]
        assert np.abs(ref - alt).max() < 1e-6

    def test_invariants_along_trajectory(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 2.0)
        traj = evolve(pure_density(psi0), hamiltonian(p), collapse_ops(p),
                      np.linspace(0, 20, 41))
        for rho in traj.states:
            assert abs(np.trace(rho).real - 1) < 1e-8
            assert np.abs(rho - rho.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_deterministic_reruns(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        t = np.linspace(0, 5, 11)
        a = evolve(pure_density(psi0), hamiltonian(p), collapse_ops(p), t)
        b = evolve(pure_density(psi0), hamiltonian(p), collapse_ops(p), t)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.states, b.states))

    def test_stack_matches_single_runs(self):
        p = ModelParams()
        H, cs = hamiltonian(p), collapse_ops(p)
        rho0 = np.array([pure_density(qubit_vectors(r, 1.0)[0]) for r in (0.2, 1.0, 7.0)])
        t = np.linspace(0, 4, 9)
        stacked = evolve(rho0, H, cs, t).states
        assert stacked.shape == (3, 9, 13, 13)
        for k in range(3):
            single = evolve(rho0[k], H, cs, t).states
            assert np.abs(stacked[k] - single).max() < 1e-12

    def test_non_hermitian_evolution_detected(self):
        # a non-Hermitian generator keeps the trace and, after
        # re-symmetrization, positivity; only the raw state shows it
        H = np.array([[0.0, 1e-3], [0.0, 0.0]])
        rho0 = np.array([[0.6, 0.1], [0.1, 0.4]])
        with pytest.raises(IntegrationError, match="hermiticity"):
            evolve(rho0, H, [], np.linspace(0, 1, 3))

    def test_tolerance_halving_converged(self):
        # adaptive path: halving tolerances moves the result by far less
        # than the acceptance slack
        rho0 = pure_density(np.array([0.0, 1.0]))
        t = np.linspace(0, 3.0, 4)
        loose = evolve(rho0, np.zeros((2, 2)), [damping_op(GAMMA)], t,
                       IntegratorConfig(method="rk45")).states[-1]
        tight = evolve(rho0, np.zeros((2, 2)), [damping_op(GAMMA)], t,
                       IntegratorConfig(method="rk45", rel_tol=5e-9,
                                        abs_tol=5e-11)).states[-1]
        assert np.abs(loose - tight).max() < 1e-6

    def test_expm_max_step_subdivision(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        rho0 = pure_density(psi0)
        t = np.linspace(0, 2, 3)
        free = evolve(rho0, hamiltonian(p), collapse_ops(p), t).states[-1]
        capped = evolve(rho0, hamiltonian(p), collapse_ops(p), t,
                        IntegratorConfig(max_step=0.13)).states[-1]
        assert np.abs(free - capped).max() < 1e-11

    def test_expm_step_size_independence(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        rho0 = pure_density(psi0)
        coarse = evolve(rho0, hamiltonian(p), collapse_ops(p),
                        np.linspace(0, 4, 5)).states[-1]
        fine = evolve(rho0, hamiltonian(p), collapse_ops(p),
                      np.linspace(0, 4, 41)).states[-1]
        assert np.abs(coarse - fine).max() < 1e-11

    def test_bad_grid_rejected(self):
        rho0 = pure_density(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            evolve(rho0, np.zeros((2, 2)), [], [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            evolve(rho0, np.zeros((2, 2)), [], [])

    def test_bad_initial_state_rejected(self):
        with pytest.raises(DensityMatrixError):
            evolve(np.diag([0.7, 0.7]), np.zeros((2, 2)), [], [1.0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(method="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(max_step=-1.0)


class TestPopulation:
    def test_pure_state(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        assert population(pure_density(psi), psi) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = np.eye(13) / 13
        psi = np.zeros(13)
        psi[4] = 1.0
        assert population(rho, psi) == pytest.approx(1 / 13)

    def test_clipping(self):
        rho = np.diag([1.0 + 5e-9, -5e-9])
        psi0 = np.array([1.0, 0.0])
        psi1 = np.array([0.0, 1.0])
        assert population(rho, psi0) == 1.0
        assert population(rho, psi1) == 0.0

    def test_excursion_beyond_tolerance_raises(self):
        rho = np.diag([1.0 + 5e-8, -5e-8])
        with pytest.raises(DensityMatrixError):
            population(rho, np.array([0.0, 1.0]))
        with pytest.raises(DensityMatrixError):
            population(rho, np.array([1.0, 0.0]))

    def test_stacked(self):
        rho = np.array([np.diag([0.25, 0.75]), np.diag([1.0, 0.0])])
        psi = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert population(rho, psi).tolist() == [0.25, 0.0]
        assert population(rho, psi[0]).tolist() == [0.25, 1.0]
