"""Dressed-state diagnostics, parameter balancing, and cooling-fidelity runs.

The dressing lasers shift the two operative 1P1 spin states; cooling is
frequency-unresolved only when those two dressed levels are degenerate.
This module locates the dressed pair, finds the dressing Rabi frequency
that balances them, runs the master-equation cooling dynamics, and carries
the parameter-sensitivity and cross-isotope estimates.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .angmom import HalfInt
from .hyperfine import HyperfineConstants, SpinSpace, hf_matrix
from .lindblad import Trajectory, evolve, population, pure_density
from .srmodel import (
    TWO_PI,
    BasisState,
    D2_STATES,
    ModelParams,
    collapse_ops,
    hamiltonian,
    qubit_vectors,
    with_polarization_impurity,
)

__all__ = [
    "DressedPair",
    "CoolingResult",
    "AmbiguousOverlapError",
    "UnbalancedError",
    "BracketError",
    "SaturationError",
    "dressed_pair",
    "compute_nu",
    "balance_omega_pd",
    "cool",
    "table1_sweep",
    "TABLE1_RATIOS",
    "sensitivity_suite",
    "impurity_sweep",
    "scaled_constants_overlaps",
    "min_omega_ps",
    "ISOTOPE_CASES",
    "isotope_table",
]


class AmbiguousOverlapError(RuntimeError):
    """Two eigenvectors overlap the target spin state equally well."""


class UnbalancedError(RuntimeError):
    """The two dressed levels are not degenerate."""

    def __init__(self, imbalance_mhz: float):
        self.imbalance_mhz = imbalance_mhz
        super().__init__(f"dressed levels differ by {imbalance_mhz:.4f} MHz")


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class SaturationError(RuntimeError):
    """Overlap threshold not reachable below the Rabi-frequency cap."""

    def __init__(self, threshold: float, cap_mhz: float, best: float):
        self.threshold = threshold
        self.cap_mhz = cap_mhz
        self.best_overlap = best
        super().__init__(
            f"overlap {best:.5f} below threshold {threshold} even at {cap_mhz:.0f} MHz")


@dataclass(frozen=True)
class DressedPair:
    """The two eigenstates dominated by the operative 1P1 spin states.

    Energies are in MHz; overlaps are |<target|eigenvector>| against
    |1P1 -1, up> and |1P1 -1, down>.
    """

    e_up: np.ndarray
    e_down: np.ndarray
    energy_up: float
    energy_down: float
    overlap_up: float
    overlap_down: float


@dataclass
class CoolingResult:
    """Endpoint figures of one cooling run plus the sampled trajectory."""

    fidelity: float
    pop_perp: float
    pop_reservoir: float
    pop_residual_clock: float
    trajectory: Trajectory


def dressed_pair(p: ModelParams) -> DressedPair:
    """Diagonalize the laser-dressed manifold and pick the two qubit-carrying states.

    The clock coupling is switched off (it only probes the manifold), so the
    clock and ground states decouple exactly.  For each of the two spin
    targets the eigenvector with maximal overlap is returned; a tie at the
    1e-9 level is reported as an error rather than resolved arbitrarily.
    """
    H = hamiltonian(p.replace(omega_eff=0.0)) / TWO_PI
    energies, vectors = np.linalg.eigh(H)

    def select(target: BasisState) -> tuple[np.ndarray, float, float]:
        weights = np.abs(vectors[target, :])
        order = np.argsort(weights)
        best, runner_up = order[-1], order[-2]
        if weights[best] - weights[runner_up] < 1e-9:
            raise AmbiguousOverlapError(
                f"overlap tie for state {target.name}: "
                f"{weights[best]:.12f} vs {weights[runner_up]:.12f}")
        return vectors[:, best], float(energies[best]), float(weights[best])

    vec_up, e_up, ov_up = select(BasisState.P1_M1_UP)
    vec_down, e_down, ov_down = select(BasisState.P1_M1_DOWN)
    return DressedPair(e_up=vec_up, e_down=vec_down, energy_up=e_up,
                       energy_down=e_down, overlap_up=ov_up, overlap_down=ov_down)


BALANCE_TOL_MHZ = 1e-4


def compute_nu(p: ModelParams) -> float:
    """Common dressed energy nu (MHz) evaluated at delta = 0.

    Tuning the clock drive onto the dressed pair requires delta = -nu.
    Raises UnbalancedError (carrying the level separation) when the pair is
    not degenerate to within 1e-4 MHz.
    """
    pair = dressed_pair(p.replace(delta=0.0))
    imbalance = pair.energy_up - pair.energy_down
    if abs(imbalance) > BALANCE_TOL_MHZ:
        raise UnbalancedError(imbalance)
    return 0.5 * (pair.energy_up + pair.energy_down)


def balance_omega_pd(p: ModelParams, bracket: tuple[float, float] = (50.0, 300.0)) -> float:
    """Dressing Rabi frequency (MHz) that makes the two dressed levels degenerate.

    Bisection of the level difference to 1e-6 MHz; the result depends on
    delta_pd (a different detuning balances at a different Rabi frequency).
    """

    def imbalance(omega_pd: float) -> float:
        pair = dressed_pair(p.replace(omega_pd=omega_pd, delta=0.0))
        return pair.energy_up - pair.energy_down

    lo, hi = bracket
    f_lo, f_hi = imbalance(lo), imbalance(hi)
    if not np.isfinite(f_lo) or not np.isfinite(f_hi) or f_lo * f_hi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f({lo})={f_lo:.4f}, f({hi})={f_hi:.4f}")
    lo, hi = _bisect(lambda x: imbalance(x) * f_lo <= 0, lo, hi, 1e-6)
    return 0.5 * (lo + hi)


def _bisect(passed: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> tuple[float, float]:
    """Narrow [lo, hi] to width <= tol around the point where passed(x) turns true.

    passed(lo) is taken as false and passed(hi) as true; each step keeps that.
    """
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if passed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


_GROUP_SERIES = {
    "pop_1P1_total": [BasisState.P1_0_DOWN, BasisState.P1_M1_UP,
                      BasisState.P1_M1_DOWN, BasisState.P1_P1_DOWN],
    "pop_1D2_total": list(D2_STATES),
    "pop_6s": [BasisState.S6_DOWN],
}


def _cool_many(amplitudes: list[tuple[complex, complex]], p: ModelParams,
               t_final: float, samples: int) -> list[CoolingResult]:
    """One cooling run per (alpha, beta), all propagated in one evolve call."""
    psi0, psi_f, psi_perp = (np.array(v) for v in
                             zip(*(qubit_vectors(a, b) for a, b in amplitudes)))
    rho0 = np.array([pure_density(v) for v in psi0])
    run = evolve(rho0, hamiltonian(p), [c.matrix() for c in collapse_ops(p)],
                 t_final, samples)
    states = run.states

    # every series has shape (runs, samples)
    diag = np.diagonal(states, axis1=-2, axis2=-1).real
    series = {
        "pop_psi0": population(states, psi0[:, None]),
        "pop_psif": population(states, psi_f[:, None]),
        "pop_perp": population(states, psi_perp[:, None]),
        "pop_reservoir": diag[..., BasisState.RESERVOIR],
    }
    for name, group in _GROUP_SERIES.items():
        series[name] = diag[..., group].sum(axis=-1)

    results = []
    for k in range(len(amplitudes)):
        traj = Trajectory(times=run.times, states=states[k])
        for name, values in series.items():
            traj.add_population_series(name, values[k])
        results.append(CoolingResult(
            fidelity=float(series["pop_psif"][k, -1]),
            pop_perp=float(series["pop_perp"][k, -1]),
            pop_reservoir=float(series["pop_reservoir"][k, -1]),
            pop_residual_clock=float(series["pop_psi0"][k, -1]),
            trajectory=traj,
        ))
    return results


def cool(alpha: complex, beta: complex, p: ModelParams, t_final: float = 20.0,
         samples: int = 401) -> CoolingResult:
    """Run the cooling master equation from the clock-manifold qubit state.

    Reports the overlap with the ground-manifold target at t_final together
    with the leakage populations (orthogonal qubit state, reservoir,
    residual clock) and a trajectory carrying the standard named series.
    """
    return _cool_many([(alpha, beta)], p, t_final, samples)[0]


@dataclass
class SweepRow:
    """One labelled run of a parameter sweep."""

    name: str
    overrides: dict[str, float]
    t_us: float
    fidelity: float
    pop_perp: float
    notes: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "overrides": self.overrides, "t_us": self.t_us,
                "fidelity": self.fidelity, "pop_perp": self.pop_perp,
                "notes": self.notes}


def _endpoint_population_total(res: CoolingResult) -> float:
    """Sum of the named endpoint series plus the orthogonal clock residual.

    Equals the state trace (1) when the series cover the full space; the
    clock complement of the initial superposition is the only state the
    named series omit.
    """
    obs = res.trajectory.observables
    named = sum(obs[k][-1] for k in ("pop_psi0", "pop_psif", "pop_perp",
                                    "pop_reservoir", "pop_1P1_total",
                                    "pop_1D2_total", "pop_6s"))
    rho = res.trajectory.states[-1]
    clock = (rho[BasisState.CLOCK_UP, BasisState.CLOCK_UP].real
             + rho[BasisState.CLOCK_DOWN, BasisState.CLOCK_DOWN].real)
    return named + (clock - obs["pop_psi0"][-1])


TABLE1_RATIOS = (0.1, 1 / 3, 0.5, 2.0, 3.0, 10.0, 100.0)


def table1_sweep(p: ModelParams, ratios=TABLE1_RATIOS,
                 t_final: float = 20.0) -> list[SweepRow]:
    """Cooling fidelity versus the qubit amplitude ratio alpha/beta.

    All ratios share one Liouvillian and are propagated as one stack.
    """
    results = _cool_many([(r, 1.0) for r in ratios], p, t_final, 401)
    return [SweepRow(name=f"alpha/beta={r:g}", overrides={"alpha_over_beta": r},
                     t_us=t_final, fidelity=res.fidelity, pop_perp=res.pop_perp,
                     notes={"pop_total": _endpoint_population_total(res)})
            for r, res in zip(ratios, results)]


def sensitivity_suite(p: ModelParams) -> list[SweepRow]:
    """Fidelity response to single-parameter excursions of the three lasers.

    Covers: the unperturbed reference; a doubled clock-drive Rabi frequency
    (faster cooling, read at 5 us); delta = 0 (off-resonant clock drive,
    read at 20 and 26 us); a weaker or detuned omega_ps laser; and the two
    dressing-laser excursions that unbalance the dressed pair.
    """
    rows: list[SweepRow] = []

    def run(name: str, overrides: dict, t_us: float, notes: dict | None = None):
        res = cool(1.0, 1.0, p.replace(**overrides), t_final=t_us)
        row = SweepRow(name=name, overrides=dict(overrides), t_us=t_us,
                       fidelity=res.fidelity, pop_perp=res.pop_perp,
                       notes=dict(notes or {}))
        row.notes["pop_total"] = _endpoint_population_total(res)
        rows.append(row)
        return res

    run("reference", {}, 20.0)
    run("omega_eff=2", {"omega_eff": 2.0}, 5.0)
    run("delta=0", {"delta": 0.0}, 20.0)
    run("delta=0 (late)", {"delta": 0.0}, 26.0)
    run("omega_ps=250", {"omega_ps": 250.0}, 20.0)
    run("ps_detuning=10", {"delta_ps_extra": 10.0}, 20.0)
    run("omega_pd=140", {"omega_pd": 140.0}, 20.0)
    plateau = cool(1.0, 1.0, p.replace(omega_pd=140.0), t_final=30.0)
    rows[-1].notes["fidelity_30us"] = plateau.fidelity
    rows[-1].notes["pop_perp_30us"] = plateau.pop_perp

    try:
        compute_nu(p.replace(delta_pd=-1750.0))
        imbalance = 0.0
    except UnbalancedError as exc:
        imbalance = abs(exc.imbalance_mhz)
    run("delta_pd=-1750", {"delta_pd": -1750.0}, 20.0,
        notes={"imbalance_mhz": imbalance})
    return rows


def impurity_sweep(p: ModelParams, chis=(0.0, 0.01, 0.1),
                   t_final: float = 20.0) -> list[SweepRow]:
    """Cooling fidelity under dressing-laser polarization impurity."""
    rows = []
    for chi in chis:
        res = cool(1.0, 1.0, with_polarization_impurity(p, chi),
                   t_final=t_final)
        rows.append(SweepRow(name=f"chi={chi:g}", overrides={"chi": chi},
                             t_us=t_final, fidelity=res.fidelity, pop_perp=res.pop_perp,
                             notes={"pop_total": _endpoint_population_total(res)}))
    return rows


def scaled_constants_overlaps(scale: float, p: ModelParams | None = None
                              ) -> tuple[float, float]:
    """Dressed overlaps when the 1P1 hyperfine constants are scaled by `scale`.

    Gauges how the reference laser set copes with a stronger hyperfine
    interaction (heavier species with the same level scheme).
    """
    p = p or ModelParams()
    pair = dressed_pair(p.replace(a_1p1=scale * p.a_1p1, q_1p1=scale * p.q_1p1))
    return pair.overlap_up, pair.overlap_down


def _reduced_overlap(I: HalfInt, A: float, Q: float, omega_ps: float) -> float:
    """Overlap of the |mJ=-1, mI=1-I> dressed eigenstate in the reduced model.

    The reduced model is the full J=1 hyperfine manifold plus one auxiliary
    level resonantly coupled to |mJ=0, mI=-I> at omega_ps/2, which is the
    minimal description of the spin-mixing suppression for species where
    only the lowest-1P1 hyperfine constants are known.
    """
    space = SpinSpace(I, HalfInt(2))
    h = hf_matrix(HyperfineConstants(A, Q), space)
    basis = space.basis()
    idx_up = basis.index((HalfInt(-2), HalfInt(-I.twice + 2)))
    idx_target = basis.index((HalfInt(0), HalfInt(-I.twice)))
    n = len(basis)
    H = np.zeros((n + 1, n + 1))
    H[:n, :n] = h
    H[n, idx_target] = H[idx_target, n] = omega_ps / 2
    energies, vectors = np.linalg.eigh(H)
    k = int(np.argmax(np.abs(vectors[idx_up, :])))
    return float(abs(vectors[idx_up, k]))


def min_omega_ps(I, A: float, Q: float, threshold: float = 0.99,
                 cap_mhz: float = 20000.0, tol_mhz: float = 0.5) -> float:
    """Smallest omega_ps (MHz) keeping the spin-mixing overlap above threshold.

    Bisects the reduced-model overlap, which grows monotonically with the
    dressing strength.  Raises SaturationError when even cap_mhz is not
    enough.
    """
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    I = HalfInt.coerce(I)
    best = _reduced_overlap(I, A, Q, cap_mhz)
    if best < threshold:
        raise SaturationError(threshold, cap_mhz, best)
    return _bisect(lambda x: _reduced_overlap(I, A, Q, x) >= threshold,
                   0.0, cap_mhz, tol_mhz)[1]


# (label, I, A/MHz, Q/MHz) for the species with a compatible level scheme
ISOTOPE_CASES: tuple[tuple[str, HalfInt, float, float], ...] = (
    ("171Yb", HalfInt(1), -213.0, 0.0),
    ("173Yb", HalfInt(5), 60.0, 600.0),
    ("43Ca", HalfInt(7), -15.46, -9.7),
    ("41Ca", HalfInt(7), -18.84, -9.2),
    ("67Zn", HalfInt(5), 17.7, 20.0),
)


def isotope_table(threshold: float = 0.99) -> list[dict]:
    """Minimal spin-mixing-suppression Rabi frequency for each candidate species."""
    out = []
    for name, I, A, Q in ISOTOPE_CASES:
        out.append({
            "isotope": name,
            "twice_I": I.twice,
            "A_mhz": A,
            "Q_mhz": Q,
            "min_omega_ps_mhz": min_omega_ps(I, A, Q, threshold=threshold),
        })
    return out
