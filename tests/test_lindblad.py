import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given

from spincool import lindblad
from spincool.lindblad import (
    POSITIVITY_TOL,
    DensityMatrixError,
    IntegrationError,
    RealBasis,
    Trajectory,
    check_density_matrix,
    evolve,
    expm,
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

from .oracles import adaptive_lindblad, liouvillian_apply, one_shot_lindblad
from .test_engine_properties import PROPERTY, physical_params

GAMMA = 1.3  # rad/us, arbitrary two-level decay rate


def damping_op(gamma: float) -> np.ndarray:
    c = np.zeros((2, 2))
    c[0, 1] = math.sqrt(gamma)
    return c


def collapse_matrices(p: ModelParams) -> list[np.ndarray]:
    return [c.matrix() for c in collapse_ops(p)]


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

    @pytest.mark.parametrize("shape", [(3,), (2, 3)])
    def test_not_square_in_both_checks(self, shape):
        # check_density_matrix and evolve's initial-state check share the shape check
        for check in (check_density_matrix, lambda rho: evolve(rho, np.zeros((2, 2)), [], 1.0, 2)):
            with pytest.raises(DensityMatrixError, match=rf"not square: shape \({shape[0]},"):
                check(np.zeros(shape))

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
        mixed = np.diag([0.3, 0.3, 0.2, 0.1, 0.1]).astype(complex)
        stack = np.array([mixed, good, self._blocked(top, (0.1, 0.1)), good])
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


def _non_normal(n: int, seed: int, real: bool = False) -> np.ndarray:
    """Upper-triangular-dominated matrix with unit 1-norm, complex unless real."""
    rng = np.random.default_rng(seed)

    def draw() -> np.ndarray:
        x = rng.normal(size=(n, n))
        return x if real else x + 1j * rng.normal(size=(n, n))

    m = np.triu(draw())
    m += 0.1 * draw()
    return m / np.abs(m).sum(axis=0).max()


# norms that take expm through the degree-13 approximant without and with squaring
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

    @pytest.mark.parametrize("scale", EXPM_SCALES)
    def test_real_input_stays_real(self, scale):
        import mpmath

        A = scale * _non_normal(5, 7, real=True)
        with mpmath.workdps(30):
            ref = np.array(mpmath.expm(mpmath.matrix(A.tolist())).tolist(), dtype=float)
        got = expm(A)
        assert got.dtype == np.float64
        assert np.abs(got - ref).sum(axis=0).max() / np.abs(ref).sum(axis=0).max() <= 1e-13

    def test_scales_cover_unscaled_and_scaled(self):
        plans = {lindblad._squarings(scale * _non_normal(5, seed)) > 0
                 for scale in EXPM_SCALES for seed in (3, 5)}
        assert plans == {False, True}

    # 0.185, the step of `--set t_final=0.37 --set samples=3 simulate`, takes 10
    # squarings, and 20/9, the step of `--set samples=10 simulate`, takes 13, the
    # most of any command that CI reruns
    @pytest.mark.parametrize("dt", [0.0125, 0.05, 0.065, 0.075, 0.185, 20 / 9])
    def test_matches_scipy_on_reachable_block(self, dt):
        from scipy.linalg import expm as scipy_expm

        p = ModelParams()
        L = liouvillian_matrix(hamiltonian(p), collapse_matrices(p))
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        idx = reachable_subspace(*np.nonzero(L), pure_density(psi0).reshape(-1) != 0)
        A = L[np.ix_(idx, idx)] * dt
        assert lindblad._squarings(A) > 0
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

    # exp(800) overflows only in the squarings, 1e60 already in A^6
    @pytest.mark.parametrize("a", [800.0, 1e60])
    def test_overflow_raises(self, a):
        with pytest.raises(FloatingPointError, match="not finite"):
            expm(np.array([[a]]))


class TestReachableSubspace:
    @pytest.mark.parametrize("p", [
        ModelParams(),
        ModelParams(delta_pd=-1750.0),
        with_polarization_impurity(ModelParams(), 0.1),
    ], ids=["reference", "delta_pd=-1750", "chi=0.1"])
    def test_size_and_closure(self, p):
        L = liouvillian_matrix(hamiltonian(p), collapse_matrices(p))
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        idx = reachable_subspace(*np.nonzero(L), pure_density(psi0).reshape(-1) != 0)
        assert len(idx) == 87
        outside = np.setdiff1d(np.arange(L.shape[0]), idx)
        assert not np.any(L[np.ix_(outside, idx)])

    def test_disconnected_entries_left_out(self):
        # a decaying two-level system never builds up coherence from a population
        L = liouvillian_matrix(np.zeros((2, 2)), [damping_op(GAMMA)])
        support = np.array([False, False, False, True])
        assert reachable_subspace(*np.nonzero(L), support).tolist() == [0, 3]


def rhs(H: np.ndarray, cs: list, rho: np.ndarray) -> np.ndarray:
    """drho/dt through the package's superoperator, L vec(rho)."""
    n = rho.shape[0]
    return (liouvillian_matrix(H, cs) @ rho.reshape(-1)).reshape(n, n)


class TestLiouvillianApply:
    """The superoperator's right-hand side, L vec(rho), and its oracle."""

    def test_zero_generator(self):
        rho = pure_density(np.array([1.0, 0.0]))
        assert np.all(liouvillian_apply(np.zeros((2, 2)), [], rho) == 0.0)
        assert np.all(rhs(np.zeros((2, 2)), [], rho) == 0.0)

    def test_traceless_output(self):
        rng = np.random.default_rng(7)
        H = rng.normal(size=(4, 4))
        H = H + H.T
        cs = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(3)]
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        rho = pure_density(psi)
        out = rhs(H, cs, rho)
        assert abs(np.trace(out)) < 1e-12

    def test_amplitude_damping_rhs(self):
        rho = pure_density(np.array([0.0, 1.0]))
        out = rhs(np.zeros((2, 2)), [damping_op(GAMMA)], rho)
        assert out[1, 1] == pytest.approx(-GAMMA, rel=1e-12)
        assert out[0, 0] == pytest.approx(GAMMA, rel=1e-12)

    def test_matches_superoperator_matrix(self):
        rng = np.random.default_rng(3)
        H = rng.normal(size=(3, 3))
        H = H + H.T
        cs = [rng.normal(size=(3, 3)) for _ in range(2)]
        rho = np.eye(3) / 3 + 0.1 * (lambda a: (a + a.conj().T) / 2)(
            rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho = rho / np.trace(rho)
        assert np.abs(liouvillian_apply(H, cs, rho) - rhs(H, cs, rho)).max() < 1e-12


class TestEvolve:
    def test_unitary_purity_conserved(self):
        H = np.array([[0.0, 2.0], [2.0, 1.0]])
        rho0 = pure_density(np.array([1.0, 0.5 + 0.2j]))
        traj = evolve(rho0, H, [], 20.0, 81)
        purities = [np.trace(r @ r).real for r in traj.states]
        assert max(abs(p - 1.0) for p in purities) < 1e-8

    @pytest.mark.parametrize("t_final", [3.0], ids=["expm"])
    def test_two_level_decay_analytic(self, t_final):
        rho0 = pure_density(np.array([0.0, 1.0]))
        traj = evolve(rho0, np.zeros((2, 2)), [damping_op(GAMMA)], t_final, 16)
        assert np.array_equal(traj.times, np.linspace(0, t_final, 16))
        excited = np.array([r[1, 1].real for r in traj.states])
        expected = np.exp(-GAMMA * traj.times)
        assert np.abs(excited / expected - 1).max() < 1e-6

    def test_methods_agree_on_full_model(self):
        # independent cross-check of the exact propagator against adaptive RK
        p = ModelParams()
        H = hamiltonian(p)
        cs = collapse_matrices(p)
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        rho0 = pure_density(psi0)
        ref = evolve(rho0, H, cs, 0.5, 6).states
        alt = adaptive_lindblad(rho0, H, cs, np.linspace(0, 0.5, 6))
        assert np.abs(ref - alt).max() < 1e-6

    def test_invariants_along_trajectory(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 2.0)
        traj = evolve(pure_density(psi0), hamiltonian(p), collapse_matrices(p), 20.0, 41)
        for rho in traj.states:
            assert abs(np.trace(rho).real - 1) < 1e-8
            assert np.abs(rho - rho.conj().T).max() < 1e-9
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_deterministic_reruns(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        a = evolve(pure_density(psi0), hamiltonian(p), collapse_matrices(p), 5.0, 11)
        b = evolve(pure_density(psi0), hamiltonian(p), collapse_matrices(p), 5.0, 11)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.states, b.states))

    def test_stack_matches_single_runs(self):
        p = ModelParams()
        H, cs = hamiltonian(p), collapse_matrices(p)
        rho0 = np.array([pure_density(qubit_vectors(r, 1.0)[0]) for r in (0.2, 1.0, 7.0)])
        stacked = evolve(rho0, H, cs, 4.0, 9).states
        assert stacked.shape == (3, 9, 13, 13)
        for k in range(3):
            single = evolve(rho0[k], H, cs, 4.0, 9).states
            assert np.abs(stacked[k] - single).max() < 1e-12

    def test_non_hermitian_evolution_detected(self):
        # a non-Hermitian generator keeps the trace, and the Hermitian part
        # of each state stays positive: only the hermiticity check sees it
        H = np.array([[0.0, 1e-3], [0.0, 0.0]])
        rho0 = np.array([[0.6, 0.1], [0.1, 0.4]])
        with pytest.raises(IntegrationError, match="hermiticity"):
            evolve(rho0, H, [], 1.0, 3)

    def test_expm_step_size_independence(self):
        p = ModelParams()
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        rho0 = pure_density(psi0)
        coarse = evolve(rho0, hamiltonian(p), collapse_matrices(p), 4.0, 5).states[-1]
        fine = evolve(rho0, hamiltonian(p), collapse_matrices(p), 4.0, 41).states[-1]
        assert np.abs(coarse - fine).max() < 1e-11

    def test_bad_grid_rejected(self):
        rho0 = pure_density(np.array([1.0, 0.0]))
        for t_final in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="t_final"):
                evolve(rho0, np.zeros((2, 2)), [], t_final, 3)
        for samples in (1, 0):
            with pytest.raises(ValueError, match="samples"):
                evolve(rho0, np.zeros((2, 2)), [], 1.0, samples)

    def test_one_exponential_per_part(self, monkeypatch):
        # the in-sector coordinates (populations included) and the cross-sector
        # coherences that carry the qubit
        calls = []
        monkeypatch.setattr(lindblad, "expm", lambda A: calls.append(A) or expm(A))
        p = ModelParams()
        rho0 = np.array([pure_density(qubit_vectors(r, 1.0)[0]) for r in (0.5, 2.0)])
        evolve(rho0, hamiltonian(p), collapse_matrices(p), 20.0, 401)
        assert [A.shape for A in calls] == [(49, 49), (38, 38)]

    def test_bad_initial_state_rejected(self):
        with pytest.raises(DensityMatrixError):
            evolve(np.diag([0.7, 0.7]), np.zeros((2, 2)), [], 1.0, 2)

    @pytest.mark.parametrize("bad, message", [
        (np.array([[0.5, 0.1], [0.3, 0.5]]), "hermiticity violation 2.000e-01 > 1e-10"),
        (np.diag([0.7, 0.7]), "trace deviation 4.000e-01 > 1e-09"),
        (np.diag([1.2, -0.2]), "negative eigenvalue -2.000e-01"),
    ], ids=["hermiticity", "trace", "positivity"])
    def test_bad_initial_state_named_in_its_stack(self, bad, message):
        good = np.diag([0.5, 0.5])
        with pytest.raises(DensityMatrixError) as exc:
            evolve(np.array([[good, good], [good, bad]]), np.zeros((2, 2)),
                   [damping_op(GAMMA)], 1.0, 2)
        assert str(exc.value) == f"{message} at stack index (1, 1) (initial state)"

    @pytest.mark.parametrize("H, gamma", [
        (np.array([[0.0, np.inf], [np.inf, 0.0]]), GAMMA),
        (np.zeros((2, 2)), 1e300),
    ], ids=["non-finite", "power-overflow"])
    def test_non_finite_generator_is_integration_error(self, H, gamma):
        rho0 = pure_density(np.array([0.0, 1.0]))
        with pytest.raises(IntegrationError, match="propagation failed"):
            evolve(rho0, H, [damping_op(gamma)], 1.0, 2)

    @pytest.mark.parametrize("name, of_samples", [
        ("linspace", lambda *args: args[2] == 7),
        ("empty", lambda shape, *_: np.ndim(shape) == 1 and shape[0] == 7),
    ], ids=["time-grid", "coordinates"])
    def test_unallocatable_samples_is_integration_error(self, monkeypatch, name, of_samples):
        # a fake numpy allocator that is out of memory for the 7-sample arrays only
        real = getattr(np, name)

        def fake(*args, **kwargs):
            if of_samples(*args):
                raise MemoryError("Unable to allocate")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, name, fake)
        rho0 = pure_density(np.array([0.0, 1.0]))
        with pytest.raises(IntegrationError, match="cannot allocate the samples: Unable"):
            evolve(rho0, np.zeros((2, 2)), [damping_op(GAMMA)], 1.0, 7)


class TestGeneratorPlan:
    """evolve analyses the generator's sparsity pattern once per key and reuses it."""

    @staticmethod
    def _run(p: ModelParams, alpha: float, beta: float) -> Trajectory:
        psi0 = qubit_vectors(alpha, beta)[0]
        return evolve(pure_density(psi0), hamiltonian(p), collapse_matrices(p), 2.0, 41)

    def test_results_do_not_depend_on_earlier_calls(self):
        b = ModelParams(omega_ps=250.0)
        lindblad._generator_plan.cache_clear()
        fresh = self._run(b, 2.0, 1.0)
        lindblad._generator_plan.cache_clear()
        # B's pattern from a population alone reaches fewer entries: the support is in the key
        assert len(self._run(b, 1.0, 0.0).basis.idx) == 49
        # the reference has B's pattern and builds the plan that B reuses; with the
        # clock drive off the pattern differs, and the generator has parts [1, 2, 1]
        self._run(ModelParams(), 2.0, 1.0)
        off = ModelParams(omega_eff=0.0)
        plan = lindblad._reachable_generator(hamiltonian(off), collapse_matrices(off),
                                             pure_density(qubit_vectors(2.0, 1.0)[0]).reshape(-1) != 0)[0]
        assert [part.stop - part.start for part in plan.parts] == [1, 2, 1]
        self._run(off, 2.0, 1.0)
        hits = lindblad._generator_plan.cache_info().hits
        again = self._run(b, 2.0, 1.0)
        assert lindblad._generator_plan.cache_info().hits == hits + 1
        assert again.basis.idx.tobytes() == fresh.basis.idx.tobytes()
        assert again.coords.tobytes() == fresh.coords.tobytes()

    def test_plan_is_read_only(self):
        p = ModelParams()
        plan = lindblad._reachable_generator(hamiltonian(p), collapse_matrices(p),
                                             pure_density(qubit_vectors(1.0, 1.0)[0]).reshape(-1) != 0)[0]
        basis = plan.basis
        nb, take, zero = next(q for q in basis._plans if len(q) == 3)
        assert nb == 9
        for array in (plan.keys, plan.hamiltonian, basis.idx, basis.diag, basis.blocks[0],
                      take, basis.T, basis.T_inv):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        assert not zero.flags.writeable
        with pytest.raises(TypeError):
            plan.parts[0] = slice(0, 1)


def static(rho: np.ndarray):
    """Two samples of rho under the zero generator, whose propagator is exactly I."""
    return evolve(rho, np.zeros(np.shape(rho)[-2:]), [], 1.0, 2)


class TestPopulation:
    def test_pure_state(self):
        psi = np.array([1.0, 1.0j]) / math.sqrt(2)
        assert population(static(pure_density(psi)), psi)[0] == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = np.eye(13) / 13
        psi = np.zeros(13)
        psi[4] = 1.0
        assert population(static(rho), psi)[0] == pytest.approx(1 / 13)

    def test_values_returned_unclipped(self):
        traj = static(np.diag([1.0 + 5e-9, -5e-9]))
        assert population(traj, np.eye(2))[:, 0].tolist() == [1.0 + 5e-9, -5e-9]

    def test_stacked(self):
        traj = static(np.array([np.diag([0.25, 0.75]), np.diag([1.0, 0.0])]))
        psi = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert population(traj, psi)[:, 0].tolist() == [0.25, 0.0]
        assert population(traj, psi[0])[:, 0].tolist() == [0.25, 1.0]

    def test_matches_full_states(self):
        p = ModelParams()
        psis = np.array([qubit_vectors(r, 1.0)[0] for r in (0.3, 4.0)])
        traj = evolve(np.array([pure_density(v) for v in psis]), hamiltonian(p),
                      collapse_matrices(p), 3.0, 7)
        rng = np.random.default_rng(4)
        psi = rng.normal(size=(3, 2, 13)) + 1j * rng.normal(size=(3, 2, 13))
        psi /= 2 * np.linalg.norm(psi, axis=-1, keepdims=True)
        want = np.einsum("jki,ktil,jkl->jkt", psi.conj(), traj.states, psi).real
        assert np.abs(population(traj, psi) - want).max() <= 1e-15


def reference_basis(p: ModelParams) -> tuple[np.ndarray, RealBasis]:
    """The Liouvillian at p and the real basis of the clock-qubit subspace."""
    H, cs = hamiltonian(p), collapse_matrices(p)
    support = pure_density(qubit_vectors(1.0, 1.0)[0]).reshape(-1) != 0
    idx = lindblad._reachable_generator(H, cs, support)[0].basis.idx
    return liouvillian_matrix(H, cs), RealBasis(idx, len(H))


def _supported(basis: RealBasis, rho: np.ndarray) -> np.ndarray:
    """rho with every entry outside the index set zeroed."""
    out = np.zeros(rho.size, dtype=complex)
    out[basis.idx] = rho.reshape(-1)[basis.idx]
    return out.reshape(rho.shape)


class TestRealBasis:
    def test_round_trip(self):
        _, basis = reference_basis(ModelParams())
        assert sorted(len(f) for f in basis.blocks) == [1, 1, 2, 9]
        everything = np.arange(169).reshape(13, 13)
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.normal(size=(13, 13)) + 1j * rng.normal(size=(13, 13))
            rho = _supported(basis, a + a.conj().T)
            u = basis.T @ rho.reshape(-1)[basis.idx]
            assert np.all(u.imag == 0)
            assert np.array_equal(basis.entries(u.real, everything)[0], rho)
            assert np.array_equal(basis.T_inv @ u, rho.reshape(-1)[basis.idx])

    @pytest.mark.parametrize("p", [
        ModelParams(),
        ModelParams(delta_pd=-1750.0),
        with_polarization_impurity(ModelParams(), 0.1),
    ], ids=["reference", "delta_pd=-1750", "chi=0.1"])
    def test_generator_is_exactly_real(self, p):
        L, basis = reference_basis(p)
        Lr = basis.T @ L[np.ix_(basis.idx, basis.idx)] @ basis.T_inv
        assert np.all(Lr.imag == 0)
        assert np.abs(Lr).max() > 1e3

    @PROPERTY
    @given(p=physical_params)
    def test_generator_is_exactly_real_over_parameters(self, p):
        L, basis = reference_basis(p)
        assert np.all((basis.T @ L[np.ix_(basis.idx, basis.idx)] @ basis.T_inv).imag == 0)

    @staticmethod
    def _stack(basis: RealBasis, bad: np.ndarray) -> np.ndarray:
        """Coordinates (3, 2, m) of a mixed state, with `bad` at stack index (2, 1)."""
        good = np.diag(np.full(13, 1 / 13))
        u = np.array([[(basis.T @ good.reshape(-1)[basis.idx]).real] * 2] * 3)
        u[2, 1] = (basis.T @ bad.reshape(-1)[basis.idx]).real
        return u

    def test_negative_eigenvalue_inside_nine_level_block(self):
        _, basis = reference_basis(ModelParams())
        block = next(f for f in basis.blocks if len(f) == 9)
        a, b = block[0, 0] // 13, block[-1, -1] // 13
        bad = np.diag(np.full(13, 1 / 13)).astype(complex)
        # eigenvalues 1/13 -+ |x| on levels a, b: x = 1/13 + 0.1 leaves one at -0.1
        bad[a, b] = (1 / 13 + 0.1) * (0.6 + 0.8j)
        bad[b, a] = np.conj(bad[a, b])
        u = self._stack(basis, bad)
        basis.check(u[:2], 1e-8, 1e-7)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -1.000e-01") as exc:
            basis.check(u, 1e-8, 1e-7)
        assert exc.value.index == (2, 1)

    def test_negative_eigenvalue_in_one_level_block(self):
        _, basis = reference_basis(ModelParams())
        lone = [f[0, 0] // 13 for f in basis.blocks if len(f) == 1]
        bad = np.diag(np.full(13, 1 / 13))
        bad[lone[0], lone[0]] -= 1 / 13 + 0.05
        bad[lone[1], lone[1]] += 1 / 13 + 0.05
        u = self._stack(basis, bad)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -5.000e-02") as exc:
            basis.check(u, 1e-8, 1e-7)
        assert exc.value.index == (2, 1)

    def test_trace_deviation_names_stack_index(self):
        _, basis = reference_basis(ModelParams())
        u = self._stack(basis, np.diag(np.full(13, 1.001 / 13)))
        with pytest.raises(DensityMatrixError, match="trace deviation 1.000e-03") as exc:
            basis.check(u, 1e-8, 1e-7)
        assert exc.value.index == (2, 1)

    def test_negative_eigenvalue_in_two_level_block(self):
        _, basis = reference_basis(ModelParams())
        pair = next(f for f in basis.blocks if len(f) == 2)
        a, b = pair[0, 0] // 13, pair[1, 1] // 13
        bad = np.diag(np.full(13, 1 / 13)).astype(complex)
        # eigenvalues 1/13 -+ |x|: the closed form must take the lower root
        bad[a, b] = (1 / 13 + 0.1) * (0.6 - 0.8j)
        bad[b, a] = np.conj(bad[a, b])
        u = self._stack(basis, bad)
        basis.check(u[:2], 1e-8, 1e-7)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -1.000e-01") as exc:
            basis.check(u, 1e-8, 1e-7)
        assert exc.value.index == (2, 1)

    @staticmethod
    def _edge_state(basis: RealBasis, size: int, x: float) -> np.ndarray:
        """A unit-trace state whose block of `size` levels has the eigenvalue -x."""
        levels = next(f for f in basis.blocks if len(f) == size)[:, 0] // 13
        rho = np.diag(np.full(13, 1 / 13)).astype(complex)
        if size == 1:
            a, other = levels[0], (levels[0] + 1) % 13
            rho[a, a] = -x
            rho[other, other] += 1 / 13 + x
            return rho
        # eigenvectors with a complex coherence on the first and last level of the block
        v, w = np.array([0.6, 0.8j]), np.array([0.8, -0.6j])
        ab = np.ix_(levels[[0, -1]], levels[[0, -1]])
        rho[ab] = (2 / 13 + x) * np.outer(v, v.conj()) - x * np.outer(w, w.conj())
        return rho

    @pytest.mark.parametrize("size", [1, 2, 9])
    def test_positivity_tolerance_edges(self, size):
        _, basis = reference_basis(ModelParams())
        tol = 1e-7
        basis.check(self._stack(basis, self._edge_state(basis, size, 0.5 * tol)), 1e-8, tol)
        with pytest.raises(DensityMatrixError, match="negative eigenvalue -2.000e-07") as exc:
            basis.check(self._stack(basis, self._edge_state(basis, size, 2 * tol)), 1e-8, tol)
        assert exc.value.index == (2, 1)

    def test_complex_coherences_of_nine_level_block(self):
        # a pure state on three levels of the block passes; flipping the sign of one
        # imaginary coherence gives det = -4/27 < 0 and must fail
        _, basis = reference_basis(ModelParams())
        levels = next(f for f in basis.blocks if len(f) == 9)[[0, 4, 8], 0] // 13
        psi = np.zeros(13, dtype=complex)
        psi[levels] = np.array([1.0, 1.0j, -1.0]) / math.sqrt(3)
        good = pure_density(psi)
        basis.check(self._stack(basis, good), 1e-8, 1e-7)
        bad = good.copy()
        a, b = levels[:2]
        bad[a, b], bad[b, a] = good[b, a], good[a, b]
        low = np.linalg.eigvalsh(bad)[0]
        assert low < -0.1
        with pytest.raises(DensityMatrixError, match=f"negative eigenvalue {low:.3e}") as exc:
            basis.check(self._stack(basis, bad), 1e-8, 1e-7)
        assert exc.value.index == (2, 1)

    def test_entries_outside_the_index_set_read_zero(self):
        # levels 0, 1 and 2 form one block through rho_01 and rho_12, but rho_02 is not
        # in the index set: its slots read 0, not a coordinate (rho_00 = 0.6 in its
        # place would give the 0-2 pair the determinant 0.06 - 0.36 < 0)
        basis = RealBasis(np.array([0, 1, 3, 4, 5, 7, 8]), 3)
        assert [len(f) for f in basis.blocks] == [3]
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        basis.check((basis.T @ rho.reshape(-1)[basis.idx]).real, 1e-8, 1e-7)
        rho[0, 1] = rho[1, 0] = 0.5  # the 0-1 pair: determinant 0.18 - 0.25 < 0
        with pytest.raises(DensityMatrixError, match="negative eigenvalue"):
            basis.check((basis.T @ rho.reshape(-1)[basis.idx]).real, 1e-8, 1e-7)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("size", [9, 2])
    def test_non_finite_coherence_names_stack_index(self, size, value):
        # the trace sums only the diagonal, and Cholesky need not raise on a
        # non-finite entry: the coherence coordinate alone must fail the check
        _, basis = reference_basis(ModelParams())
        block = next(f for f in basis.blocks if len(f) == size)
        u = self._stack(basis, np.diag(np.full(13, 1 / 13)))
        u[2, 1, basis._pos[block[0, -1]]] = value
        with pytest.raises(DensityMatrixError, match="non-finite state") as exc:
            basis.check(u, 1e-8, 1e-7)
        assert exc.value.index == (2, 1)


def test_sweeps_and_cli_never_build_full_states(monkeypatch, tmp_path):
    from spincool.analysis import cool, table1_sweep
    from spincool.cli import main

    builds = []
    full = Trajectory.states
    monkeypatch.setattr(Trajectory, "states",
                        property(lambda traj: builds.append(traj) or full.fget(traj)))
    p = ModelParams()
    table1_sweep(p, ratios=(0.5, 2.0), t_final=2.0)
    res = cool(1.0, 1.0, p, t_final=2.0, samples=11)
    for cmd in (["simulate"], ["reproduce", "table1"]):
        assert main(["--out", str(tmp_path), "--set", "t_final=2.0", *cmd]) == 0
    assert builds == []
    assert res.trajectory.states.shape == (11, 13, 13)
    assert len(builds) == 1


class TestStreamedCheck:
    """evolve steps and checks its samples in runs of about _CHECK_STATES states."""

    RATIOS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

    def _stack(self, p: ModelParams):
        rho0 = np.array([pure_density(qubit_vectors(r, 1.0)[0]) for r in self.RATIOS])
        return rho0, hamiltonian(p), collapse_matrices(p)

    def test_failure_names_the_absolute_sample_and_stops_stepping(self, monkeypatch):
        # a 5 THz drive fails the trace check first at sample 59, in the second
        # run of 42 samples: t and the stack index must count from the grid's start;
        # runs of 256 states, since at the default every grid here is one run
        monkeypatch.setattr(lindblad, "_CHECK_STATES", 256)
        calls = []
        check = RealBasis.check

        def spy(self, u, *args):
            if u.ndim == 3:  # a run of samples, not the initial states
                calls.append(u.shape[0])
            return check(self, u, *args)

        monkeypatch.setattr(RealBasis, "check", spy)
        rows = max(1, lindblad._CHECK_STATES // len(self.RATIOS))
        with pytest.raises(IntegrationError) as info:
            evolve(*self._stack(ModelParams(omega_ps=5e12)), 2.0, 4001)
        assert str(info.value) == ("state invariants violated at t=0.0295 us: trace deviation "
                                   "1.005e-08 > 1e-08 at stack index (59, 0)")
        assert len(calls) == 59 // rows + 1
        assert calls == [rows] * len(calls)

    @pytest.mark.parametrize("states, samples", [(6, 401), (1, 4001)],
                             ids=["table1", "simulate-4001"])
    def test_artifact_grids_are_one_run(self, monkeypatch, states, samples):
        calls = []
        check = RealBasis.check
        monkeypatch.setattr(RealBasis, "check",
                            lambda self, u, *args: calls.append(u.shape) or check(self, u, *args))
        rho0, H, cs = self._stack(ModelParams())
        evolve(rho0[:states], H, cs, 20.0, samples)
        assert calls == [(states, 87), (samples, states, 87)]

    def test_overflow_inside_a_run_is_a_failed_check(self, monkeypatch):
        # a propagator scaled by 1e3 overflows at sample 103, inside the one run: the
        # check names the first non-finite sample, and the stepping warns of nothing
        monkeypatch.setattr(lindblad, "expm", lambda A: 1e3 * expm(A))
        rho0, H, cs = self._stack(ModelParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as info:
                evolve(rho0[2], H, cs, 20.0, 401)
        assert str(info.value) == ("state invariants violated at t=5.15 us: non-finite state "
                                   "at stack index (103, 0)")

    # samples 1-7 are stepped with P, later ones from 8 earlier with P^8; the picks
    # cover the ladder's start, block edges and the edges of runs of 256 states (42
    # samples for 6 states, 256 for one)
    @pytest.mark.parametrize("states, t_final, samples, picks", [
        (6, 20.0, 401, [0, 1, 7, 8, 9, 16, 41, 42, 43, 84, 400]),
        (1, 30.0, 600, [255, 256, 257, 511, 599]),
    ], ids=["six-states", "one-state"])
    def test_ladder_matches_one_shot_oracle(self, monkeypatch, states, t_final, samples, picks):
        monkeypatch.setattr(lindblad, "_CHECK_STATES", 256)
        rho0, H, cs = self._stack(ModelParams())
        rho0 = rho0 if states > 1 else rho0[2]
        traj = evolve(rho0, H, cs, t_final, samples)
        basis = traj.basis
        ref = one_shot_lindblad(rho0, H, cs, traj.times[picks]).reshape(len(picks), states, -1)
        assert np.abs(np.delete(ref, basis.idx, axis=-1)).max() <= 1e-14
        # the oracle's states in real coordinates, shape (picks, states, m)
        want = np.einsum("ij,psj->psi", basis.T, ref[..., basis.idx]).real
        got = traj.coords.reshape(states, samples, -1)[:, picks].swapaxes(0, 1)
        assert np.abs(got - want).max() <= 1e-12

    def test_table1_sweep_peak_memory(self):
        # U (401 x 6 x 87 doubles, 1.6 MiB) and one run's check temporaries; the
        # bound keeps the ratio_sweep benchmark's resident memory at its parent's
        import tracemalloc

        from spincool.analysis import TABLE1_RATIOS, table1_sweep

        table1_sweep(ModelParams(), ratios=TABLE1_RATIOS[:6])
        tracemalloc.start()
        try:
            table1_sweep(ModelParams(), ratios=TABLE1_RATIOS[:6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * 2**20

    def test_peak_memory_is_bounded_by_the_coordinates(self):
        import tracemalloc

        args = self._stack(ModelParams())
        tracemalloc.start()
        try:
            traj = evolve(*args, 20.0, 4001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= traj.coords.nbytes + 4 * 2**20
