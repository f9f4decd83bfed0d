"""Property tests of the propagation engine over physical parameter ranges.

Parameters are drawn around the reference operating point, within the
ranges the sensitivity and impurity analyses explore.  Examples are
derandomized so every run checks the same draws.
"""

import cmath

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spincool.analysis import cool, table1_sweep
from spincool.lindblad import evolve, pure_density
from spincool.srmodel import ModelParams, collapse_ops, hamiltonian, qubit_vectors

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
