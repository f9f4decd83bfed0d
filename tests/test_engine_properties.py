"""Property tests of the propagation engine over physical parameter ranges.

Parameters are drawn around the reference operating point, within the
ranges the sensitivity and impurity analyses explore.  Examples are
derandomized so every run checks the same draws.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincool import lindblad
from spincool.analysis import TABLE1_RATIOS, cool, table1_sweep
from spincool.lindblad import RealBasis, evolve, liouvillian_matrix, pure_density
from spincool.srmodel import (
    ModelParams,
    collapse_ops,
    hamiltonian,
    qubit_vectors,
    with_polarization_impurity,
)

from .oracles import one_shot_lindblad

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

physical_params = st.builds(
    ModelParams,
    omega_eff=st.floats(0.5, 2.0),
    omega_ps=st.floats(200.0, 400.0),
    omega_pd=st.floats(60.0, 170.0),
    delta=st.floats(-5.0, 8.0),
    delta_pd=st.floats(-1800.0, -1600.0),
    delta_ps_extra=st.floats(-20.0, 20.0),
    b_field=st.floats(0.2, 3.0),
)
ratios = st.floats(0.01, 100.0)
amplitudes = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0,
                                allow_nan=False, allow_infinity=False)


@PROPERTY
@given(p=physical_params, ratio=ratios, t_final=st.floats(0.5, 2.0))
def test_subspace_engine_matches_full_one_shot_expm(p, ratio, t_final):
    psi0, _, _ = qubit_vectors(ratio, 1.0)
    rho0 = pure_density(psi0)
    H = hamiltonian(p)
    cs = [c.matrix() for c in collapse_ops(p)]
    got = evolve(rho0, H, cs, t_final, 3).states
    want = one_shot_lindblad(rho0, H, cs, np.linspace(0.0, t_final, 3))
    assert np.abs(got - want).max() <= 1e-12


@PROPERTY
@given(p=physical_params, rs=st.lists(ratios, min_size=2, max_size=4))
def test_batched_table1_matches_single_runs(p, rs):
    rows = table1_sweep(p, ratios=rs, t_final=5.0)
    assert [row.overrides["alpha_over_beta"] for row in rows] == rs
    for r, row in zip(rs, rows):
        single = cool(r, 1.0, p, t_final=5.0)
        assert abs(row.fidelity - single.fidelity) <= 1e-12
        assert abs(row.pop_perp - single.pop_perp) <= 1e-12


@PROPERTY
@given(p=physical_params, alpha=amplitudes, beta=amplitudes)
def test_invariants_along_trajectory(p, alpha, beta):
    states = cool(alpha, beta, p, t_final=20.0, samples=41).trajectory.states
    trace = np.trace(states, axis1=-2, axis2=-1)
    assert np.abs(trace - 1).max() <= 1e-9
    assert np.abs(states - states.conj().swapaxes(-1, -2)).max() <= 1e-10
    assert np.linalg.eigvalsh(states).min() >= -1e-8


@PROPERTY
@given(p=physical_params, alpha=amplitudes, beta=amplitudes,
       phase=st.floats(0.0, 2 * np.pi))
def test_global_phase_changes_nothing(p, alpha, beta, phase):
    u = cmath.exp(1j * phase)
    a = cool(alpha, beta, p, t_final=5.0, samples=11)
    b = cool(u * alpha, u * beta, p, t_final=5.0, samples=11)
    for name in ("fidelity", "pop_perp", "pop_reservoir", "pop_residual_clock"):
        assert abs(getattr(a, name) - getattr(b, name)) <= 1e-12
    assert np.abs(a.trajectory.states - b.trajectory.states).max() <= 1e-12


def dense_reachable(L: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Sorted entries of vec(rho) that the dense L reaches from support, with transposes."""
    n = math.isqrt(len(L))
    transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)
    pattern = (L != 0) | (L[np.ix_(transpose, transpose)] != 0)
    reached = support | support[transpose]
    while True:
        grown = reached | pattern[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def check_reachable_generator(p: ModelParams) -> list[int]:
    """Check evolve's generator at p against the dense one; return the part sizes.

    The index set is the dense reachable set, the generator equals the dense
    one on it bit for bit (+0.0 folds -0.0 into 0.0), and in real coordinates
    it has no entry outside the parts, which tile the index set in order.
    """
    H, cs = hamiltonian(p), [c.matrix() for c in collapse_ops(p)]
    rho0 = np.array([pure_density(qubit_vectors(r, 1.0)[0]) for r in TABLE1_RATIOS])
    support = np.any(rho0.reshape(len(rho0), -1) != 0, axis=0)
    plan, L = lindblad._reachable_generator(H, cs, support)
    idx, parts = plan.basis.idx, plan.parts
    dense = liouvillian_matrix(H, cs)
    assert np.array_equal(np.sort(idx), dense_reachable(dense, support))
    assert (L + 0.0).tobytes() == (dense[np.ix_(idx, idx)] + 0.0).tobytes()
    assert [part.start for part in parts] == [0, *(part.stop for part in parts[:-1])]
    assert parts[-1].stop == len(idx)
    basis = RealBasis(idx, len(H))
    outside = np.ones(L.shape, dtype=bool)
    for part in parts:
        outside[part, part] = False
    assert np.all(basis.T_dot(basis.dot_T_inv(L))[outside] == 0)
    return [part.stop - part.start for part in parts]


@PROPERTY
@given(p=physical_params, chi=st.floats(0.0, 0.2))
def test_reachable_generator_matches_dense(p, chi):
    check_reachable_generator(with_polarization_impurity(p, chi))


# the parameter sets of the artifacts: table1, fig3 and simulate run at the
# reference, the others are the sensitivity and impurity rows; with the clock
# drive off, the populations and the coherence of the two clock levels decouple
@pytest.mark.parametrize("p, sizes", [
    (ModelParams(), [49, 38]),
    (ModelParams(omega_eff=2.0), [49, 38]),
    (ModelParams(delta=0.0), [49, 38]),
    (ModelParams(omega_ps=250.0), [49, 38]),
    (ModelParams(delta_ps_extra=10.0), [49, 38]),
    (ModelParams(omega_pd=140.0), [49, 38]),
    (ModelParams(delta_pd=-1750.0), [49, 38]),
    (with_polarization_impurity(ModelParams(), 0.01), [49, 38]),
    (with_polarization_impurity(ModelParams(), 0.1), [49, 38]),
    (ModelParams(omega_eff=0.0), [1, 2, 1]),
], ids=["reference", "omega_eff=2", "delta=0", "omega_ps=250", "ps_detuning=10",
        "omega_pd=140", "delta_pd=-1750", "chi=0.01", "chi=0.1", "omega_eff=0"])
def test_reachable_generator_on_artifact_parameters(p, sizes):
    assert check_reachable_generator(p) == sizes
