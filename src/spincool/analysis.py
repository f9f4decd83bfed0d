"""Dressed-state diagnostics, parameter balancing, and cooling-fidelity runs.

The dressing lasers shift the two operative 1P1 spin states; cooling is
frequency-unresolved only when those two dressed levels are degenerate.
This module locates the dressed pair, finds the dressing Rabi frequency
that balances them, runs the master-equation cooling dynamics, and carries
the parameter-sensitivity and cross-isotope estimates.

Only the cooling runs (cool and the sweeps built on it) propagate, and
they import numpy and the master-equation engine, lindblad, when they run.
The dressed-state functions and the isotope estimate diagonalize real
symmetric blocks of at most a few levels, by a pure-Python Jacobi solver
(_eigh), so a process that only diagonalizes never loads numpy or lindblad.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import TYPE_CHECKING, NamedTuple

from .angmom import _twice
from .hyperfine import HyperfineConstants, hf_block
from .srmodel import (
    DIM,
    BasisState,
    D2_STATES,
    P1_STATES,
    ModelParams,
    collapse_ops,
    hamiltonian,
    hamiltonian_mhz,
    qubit_vectors,
    with_polarization_impurity,
)

if TYPE_CHECKING:
    import numpy as np

    from .lindblad import Trajectory

__all__ = [
    "DressedPair",
    "CoolingResult",
    "AmbiguousOverlapError",
    "BracketError",
    "SaturationError",
    "dressed_pair",
    "nu_or_imbalance",
    "balance_omega_pd",
    "cool",
    "table1_sweep",
    "TABLE1_RATIOS",
    "sensitivity_suite",
    "impurity_sweep",
    "min_omega_ps",
    "ISOTOPE_CASES",
    "isotope_table",
]


class AmbiguousOverlapError(RuntimeError):
    """Two eigenvectors overlap the target spin state equally well."""


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class SaturationError(RuntimeError):
    """Overlap MIN_OVERLAP not reachable below the Rabi-frequency cap OMEGA_PS_CAP_MHZ."""

    def __init__(self, best: float):
        self.best_overlap = best
        super().__init__(f"overlap {best:.5f} below threshold {MIN_OVERLAP} "
                         f"even at {OMEGA_PS_CAP_MHZ:.0f} MHz")


class DressedPair(NamedTuple):
    """The two eigenstates dominated by the operative 1P1 spin states.

    e_up and e_down are the eigenvectors as 13 floats over the basis, zero
    outside the state's sector; energies are in MHz; overlaps are
    |<target|eigenvector>| against |1P1 -1, up> and |1P1 -1, down>.
    """

    e_up: list[float]
    e_down: list[float]
    energy_up: float
    energy_down: float
    overlap_up: float
    overlap_down: float


class CoolingResult(NamedTuple):
    """Endpoint figures of one cooling run, its named population series and trajectory."""

    fidelity: float
    pop_perp: float
    pop_reservoir: float
    pop_residual_clock: float
    trajectory: Trajectory
    series: dict[str, np.ndarray]


def dressed_pair(p: ModelParams) -> DressedPair:
    """Diagonalize the laser-dressed manifold and pick the two qubit-carrying states.

    The clock coupling is switched off (it only probes the manifold), so the
    clock and ground states decouple exactly.  Each spin target is
    diagonalized within its sector, the levels that the nonzero couplings
    join to it: every eigenvector outside weighs exactly 0 on the target.
    For each target the eigenvector with maximal overlap is returned; a tie
    at the 1e-9 level is reported as an error rather than resolved
    arbitrarily.
    """
    H = hamiltonian_mhz(p.replace(omega_eff=0.0))

    def select(target: BasisState) -> tuple[list[float], float, float]:
        sector = _sector(H, target)
        energies, vectors = _eigh([[H[i][k] for k in sector] for i in sector])
        weights = [abs(w) for w in vectors[sector.index(target)]]
        order = sorted(range(len(sector)), key=weights.__getitem__)
        best = order[-1]
        runner_up = weights[order[-2]] if len(order) > 1 else 0.0
        if weights[best] - runner_up < 1e-9:
            raise AmbiguousOverlapError(
                f"overlap tie for state {target.name}: "
                f"{weights[best]:.12f} vs {runner_up:.12f}")
        vector = [0.0] * DIM
        for i, row in zip(sector, vectors):
            vector[i] = row[best]
        return vector, energies[best], weights[best]

    vec_up, e_up, ov_up = select(BasisState.P1_M1_UP)
    vec_down, e_down, ov_down = select(BasisState.P1_M1_DOWN)
    return DressedPair(e_up=vec_up, e_down=vec_down, energy_up=e_up,
                       energy_down=e_down, overlap_up=ov_up, overlap_down=ov_down)


def _sector(H: list[list[float]], target: int) -> list[int]:
    """The levels joined to target by nonzero entries of H, in basis order."""
    sector = [target]
    for i in sector:  # the loop reaches the levels appended while it runs
        sector += [k for k, x in enumerate(H[i]) if x and k not in sector]
    return sorted(sector)


_JACOBI_SWEEPS = 50


def _eigh(a: list[list[float]]) -> tuple[list[float], list[list[float]]]:
    """(values, vectors) of the real symmetric matrix a; vectors[i][k] belongs to values[k].

    Unsorted.  Cyclic Jacobi with Rutishauser's rotation (Golub & Van Loan,
    Matrix Computations, section 8.5); an entry negligible next to both its
    diagonal entries is set to zero.  Plain float arithmetic, the same bits on
    every Python.  An entry not finite or beyond 2^1000, or no diagonal form
    after _JACOBI_SWEEPS sweeps, raises FloatingPointError.
    """
    n = len(a)
    a = [list(map(float, row)) for row in a]
    # below 2^1000 no rotation overflows; NaN fails the test too
    if not all(abs(x) <= 2.0 ** 1000 for row in a for x in row):
        raise FloatingPointError("eigendecomposition of a matrix with an entry that is "
                                 "not finite or beyond 2^1000")
    v = [[float(i == k) for k in range(n)] for i in range(n)]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for _ in range(_JACOBI_SWEEPS):
        if not any(a[p][q] for p, q in pairs):
            return [a[k][k] for k in range(n)], v
        for p, q in pairs:
            apq, app, aqq = a[p][q], a[p][p], a[q][q]
            if abs(app) + 100 * abs(apq) == abs(app) and abs(aqq) + 100 * abs(apq) == abs(aqq):
                a[p][q] = a[q][p] = 0.0
                continue
            theta = (aqq - app) / (2 * apq)
            t = math.copysign(1 / (abs(theta) + math.sqrt(1 + theta * theta)), theta)
            c = 1 / math.sqrt(1 + t * t)
            s, tau = t * c, t * c / (1 + c)
            a[p][p], a[q][q], a[p][q], a[q][p] = app - t * apq, aqq + t * apq, 0.0, 0.0
            for r in range(n):
                if r != p and r != q:
                    g, h = a[r][p], a[r][q]
                    a[r][p] = a[p][r] = g - s * (h + g * tau)
                    a[r][q] = a[q][r] = h + s * (g - h * tau)
                g, h = v[r][p], v[r][q]
                v[r][p], v[r][q] = g - s * (h + g * tau), h + s * (g - h * tau)
    raise FloatingPointError(f"Jacobi eigendecomposition: not diagonal "
                             f"within {_JACOBI_SWEEPS} sweeps")


BALANCE_TOL_MHZ = 1e-4


def nu_or_imbalance(p: ModelParams) -> tuple[float | None, float | None]:
    """(nu, None) when the dressed pair is balanced at delta = 0, else (None, |imbalance|), in MHz.

    nu is the common dressed energy: tuning the clock drive onto the pair
    requires delta = -nu.  The pair is balanced when its levels differ by at
    most BALANCE_TOL_MHZ.
    """
    pair = dressed_pair(p.replace(delta=0.0))
    imbalance = pair.energy_up - pair.energy_down
    if abs(imbalance) > BALANCE_TOL_MHZ:
        return None, abs(imbalance)
    return 0.5 * (pair.energy_up + pair.energy_down), None


def balance_omega_pd(p: ModelParams, bracket: tuple[float, float] | None = None) -> float:
    """Dressing Rabi frequency (MHz) that makes the two dressed levels degenerate.

    Bisection of the level difference to 1e-6 MHz on bracket, (50, 300) MHz by
    default; the result depends on delta_pd (a different detuning balances at
    a different Rabi frequency).  A bracket that is not finite with lo < hi is
    a BracketError, and so is one with an end that is not a valid omega_pd, or
    whose sign change is a jump (the dressed pair changes states) rather than
    a root: the levels at the result differ by more than BALANCE_TOL_MHZ.
    """
    lo, hi = bracket = (50.0, 300.0) if bracket is None else bracket
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise BracketError(f"bracket [{lo}, {hi}] is not finite with lo < hi")
    for end in bracket:
        try:
            p.replace(omega_pd=end)
        except ValueError as exc:
            raise BracketError(f"bracket end {end} is not a valid omega_pd: {exc}") from exc

    def imbalance(omega_pd: float) -> float:
        pair = dressed_pair(p.replace(omega_pd=omega_pd, delta=0.0))
        return pair.energy_up - pair.energy_down

    f_lo, f_hi = imbalance(lo), imbalance(hi)
    if not math.isfinite(f_lo) or not math.isfinite(f_hi) or f_lo * f_hi > 0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f({lo})={f_lo:.4f}, f({hi})={f_hi:.4f}")
    lo, hi = _bisect(lambda x: imbalance(x) * f_lo <= 0, lo, hi, 1e-6)
    root = 0.5 * (lo + hi)
    f_root = imbalance(root)
    if not abs(f_root) <= BALANCE_TOL_MHZ:
        raise BracketError(f"no root on [{bracket[0]}, {bracket[1]}]: the level difference "
                           f"jumps across 0 at {root:.6f}, f({root:.6f})={f_root:.4f} "
                           f"(the dressed pair changes states)")
    return root


def _bisect(passed: Callable[[float], bool], lo: float, hi: float,
            tol: float) -> tuple[float, float]:
    """Narrow [lo, hi] to width <= tol around the point where passed(x) turns true.

    passed(lo) is taken as false and passed(hi) as true; each step keeps that.
    Where adjacent floats lie more than tol apart, it stops at two of them.
    """
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if passed(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


_GROUP_SERIES = {
    "pop_reservoir": [BasisState.RESERVOIR],
    "pop_1P1_total": list(P1_STATES),
    "pop_1D2_total": list(D2_STATES),
    "pop_6s": [BasisState.S6_DOWN],
}
_SERIES_TOL = 1e-8


def _cool_many(amplitudes: list[tuple[complex, complex]], p: ModelParams,
               t_final: float, samples: int) -> list[CoolingResult]:
    """One cooling run per (alpha, beta), all propagated in one evolve call; no runs for none."""
    if not amplitudes:
        return []
    import numpy as np

    from .lindblad import DensityMatrixError, Trajectory, evolve, population, pure_density

    psi0, psi_f, psi_perp = (np.array(v) for v in
                             zip(*(qubit_vectors(a, b) for a, b in amplitudes)))
    rho0 = np.array([pure_density(v) for v in psi0])
    run = evolve(rho0, hamiltonian(p), [c.matrix() for c in collapse_ops(p)],
                 t_final, samples)

    # every series has shape (runs, samples)
    series = dict(zip(("pop_psi0", "pop_psif", "pop_perp"),
                      population(run, np.stack([psi0, psi_f, psi_perp]))))
    for name, group in _GROUP_SERIES.items():
        series[name] = run.level_sum(group)
    for name, values in series.items():
        low, high = values.min(), values.max()
        # not (x <= tol) also flags NaN
        if not (-low <= _SERIES_TOL and high - 1 <= _SERIES_TOL):
            raise DensityMatrixError(f"series {name!r} outside [0, 1]: "
                                     f"range [{low:.3e}, {high:.3e}]")

    return [CoolingResult(
        fidelity=float(series["pop_psif"][k, -1]),
        pop_perp=float(series["pop_perp"][k, -1]),
        pop_reservoir=float(series["pop_reservoir"][k, -1]),
        pop_residual_clock=float(series["pop_psi0"][k, -1]),
        trajectory=Trajectory(times=run.times, coords=run.coords[k], basis=run.basis),
        series={name: values[k] for name, values in series.items()},
    ) for k in range(len(amplitudes))]


def cool(alpha: complex, beta: complex, p: ModelParams, t_final: float = 20.0,
         samples: int = 401) -> CoolingResult:
    """Run the cooling master equation from the clock-manifold qubit state.

    Reports the overlap with the ground-manifold target at t_final together
    with the leakage populations (orthogonal qubit state, reservoir,
    residual clock), the named population series and the trajectory.
    """
    return _cool_many([(alpha, beta)], p, t_final, samples)[0]


class SweepRow(NamedTuple):
    """One labelled run of a parameter sweep."""

    name: str
    overrides: dict[str, float]
    t_us: float
    fidelity: float
    pop_perp: float
    notes: dict[str, float]


def _row(name: str, overrides: dict[str, float], res: CoolingResult, i: int = -1,
         **notes: float) -> SweepRow:
    """The sweep row of res read at sample i, with notes and the population total.

    pop_total sums the named series and the orthogonal clock residual: it equals
    the state trace (1) when the series cover the full space, the clock
    complement of the initial superposition being the only state they omit.
    """
    series, run = res.series, res.trajectory
    named = sum(values[i] for values in series.values())
    clock = run.level_sum([BasisState.CLOCK_UP, BasisState.CLOCK_DOWN])[i]
    return SweepRow(name=name, overrides=overrides, t_us=float(run.times[i]),
                    fidelity=float(series["pop_psif"][i]), pop_perp=float(series["pop_perp"][i]),
                    notes={**notes,
                           "pop_total": float(named + (clock - series["pop_psi0"][i]))})


TABLE1_RATIOS = (0.1, 1 / 3, 0.5, 2.0, 3.0, 10.0, 100.0)


def table1_sweep(p: ModelParams, ratios=TABLE1_RATIOS, t_final: float = 20.0,
                 samples: int = 401) -> list[SweepRow]:
    """Cooling fidelity versus the qubit amplitude ratio alpha/beta.

    All ratios share one Liouvillian and are propagated as one stack.
    """
    results = _cool_many([(r, 1.0) for r in ratios], p, t_final, samples)
    return [_row(f"alpha/beta={r:g}", {"alpha_over_beta": r}, res)
            for r, res in zip(ratios, results)]


def sensitivity_suite(p: ModelParams) -> list[SweepRow]:
    """Fidelity response to single-parameter excursions of the three lasers.

    Covers: the unperturbed reference; a doubled clock-drive Rabi frequency
    (faster cooling, read at 5 us); delta = 0 (off-resonant clock drive,
    read at 20 and 26 us); a weaker or detuned omega_ps laser; and the two
    dressing-laser excursions that unbalance the dressed pair.  One run per
    generator: delta = 0 (26 us) and omega_pd = 140 (30 us) run on the 0.05-us
    grid of the 20-us runs and are read at sample 400 (20 us) and at their end.
    """
    def row(name: str, overrides: dict[str, float], t_final: float = 20.0,
            **notes: float) -> SweepRow:
        return _row(name, overrides, cool(1.0, 1.0, p.replace(**overrides), t_final),
                    **notes)

    delta0 = cool(1.0, 1.0, p.replace(delta=0.0), 26.0, 521)
    plateau = cool(1.0, 1.0, p.replace(omega_pd=140.0), 30.0, 601)
    imbalance = nu_or_imbalance(p.replace(delta_pd=-1750.0))[1]
    return [
        row("reference", {}),
        row("omega_eff=2", {"omega_eff": 2.0}, 5.0),
        _row("delta=0", {"delta": 0.0}, delta0, 400),
        _row("delta=0 (late)", {"delta": 0.0}, delta0),
        row("omega_ps=250", {"omega_ps": 250.0}),
        row("ps_detuning=10", {"delta_ps_extra": 10.0}),
        _row("omega_pd=140", {"omega_pd": 140.0}, plateau, 400,
             fidelity_30us=plateau.fidelity, pop_perp_30us=plateau.pop_perp),
        row("delta_pd=-1750", {"delta_pd": -1750.0}, imbalance_mhz=imbalance or 0.0),
    ]


_IMPURITY_CHIS = (0.0, 0.01, 0.1)


def impurity_sweep(p: ModelParams, t_final: float = 20.0,
                   samples: int = 401) -> list[SweepRow]:
    """Cooling fidelity under dressing-laser polarization impurity."""
    return [_row(f"chi={chi:g}", {"chi": chi},
                 cool(1.0, 1.0, with_polarization_impurity(p, chi), t_final, samples))
            for chi in _IMPURITY_CHIS]


def _reduced_overlap(I, A: float, Q: float) -> Callable[[float], float]:
    """Overlap of the |mJ=-1, mI=1-I> dressed eigenstate in the reduced model, per omega_ps.

    The reduced model is the 1P1 pair |mJ=-1, mI=1-I>, |mJ=0, mI=-I> plus one
    auxiliary level resonantly coupled to the second at omega_ps/2, which is
    the minimal description of the spin-mixing suppression for species where
    only the lowest-1P1 hyperfine constants are known.  Hyperfine and the
    omega_ps coupling both conserve mF = mJ + mI, so no other 1P1 state of the
    J=1 manifold mixes in.  The hyperfine block is built once; each call of
    the returned function sets the coupling.
    """
    i = _twice(I) / 2  # a float before any arithmetic: 1 - np.uint8(2) would wrap
    H = [row + [0.0] for row in hf_block(HyperfineConstants(A, Q), i, 1,
                                         [(-1, 1 - i), (0, -i)])] + [[0.0] * 3]

    def overlap(omega_ps: float) -> float:
        H[2][1] = H[1][2] = omega_ps / 2
        return max(abs(w) for w in _eigh(H)[1][0])

    return overlap


# the spin-mixing overlap min_omega_ps asks for, and the largest omega_ps it tries (MHz)
MIN_OVERLAP = 0.99
OMEGA_PS_CAP_MHZ = 20000.0


def min_omega_ps(I, A: float, Q: float) -> float:
    """Smallest omega_ps (MHz), to 0.5 MHz, keeping the spin-mixing overlap >= MIN_OVERLAP.

    Bisects the reduced-model overlap, which grows monotonically with the
    dressing strength.  Raises SaturationError when even OMEGA_PS_CAP_MHZ is
    not enough, and ValueError for I < 1/2, which has no |mI=1-I> state.
    """
    if _twice(I) < 1:
        raise ValueError(f"the reduced model needs nuclear spin I >= 1/2, got I = {I}")
    overlap = _reduced_overlap(I, A, Q)
    best = overlap(OMEGA_PS_CAP_MHZ)
    if best < MIN_OVERLAP:
        raise SaturationError(best)
    return _bisect(lambda x: overlap(x) >= MIN_OVERLAP, 0.0, OMEGA_PS_CAP_MHZ, 0.5)[1]


# (label, I, A/MHz, Q/MHz) for the species with a compatible level scheme
ISOTOPE_CASES: tuple[tuple[str, float, float, float], ...] = (
    ("171Yb", 0.5, -213.0, 0.0),
    ("173Yb", 2.5, 60.0, 600.0),
    ("43Ca", 3.5, -15.46, -9.7),
    ("41Ca", 3.5, -18.84, -9.2),
    ("67Zn", 2.5, 17.7, 20.0),
)


def isotope_table() -> list[dict]:
    """Minimal spin-mixing-suppression Rabi frequency (MIN_OVERLAP) for each candidate species."""
    out = []
    for name, I, A, Q in ISOTOPE_CASES:
        out.append({
            "isotope": name,
            "twice_I": _twice(I),
            "A_mhz": A,
            "Q_mhz": Q,
            "min_omega_ps_mhz": min_omega_ps(I, A, Q),
        })
    return out
