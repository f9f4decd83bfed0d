import math

import numpy as np
import pytest

from spincool.lindblad import (
    DensityMatrixError,
    IntegrationError,
    IntegratorConfig,
    check_density_matrix,
    evolve,
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
