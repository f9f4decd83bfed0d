"""Density-matrix propagation under a Lindblad master equation.

The generator is time independent here, so the default propagation method
is exact: the master equation is vectorized, the superoperator is cut to
the entries of vec(rho) reachable from the initial states, that block is
exponentiated once per distinct grid step (scaling-and-squaring), and
snapshots are produced by repeated application.  A stack of initial states
sharing one generator is propagated as one block.  This is deterministic,
step-size independent, and orders of magnitude faster than resolving the
GHz-scale detuning oscillations with an explicit stepper.  An adaptive
Runge-Kutta path (scipy) is kept as an independent cross-check and for
time-dependent extensions.  scipy is imported only when a propagation
needs it.

Sign convention of the master equation:

    drho/dt = i (rho H - H rho) + sum_k [2 c_k rho c_k+ - c_k+ c_k rho - rho c_k+ c_k] / 2

with H in rad/us and collapse amplitudes in sqrt(rad/us).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .srmodel import CollapseOp

__all__ = [
    "DensityMatrixError",
    "IntegrationError",
    "IntegratorConfig",
    "Trajectory",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
    "pure_density",
    "check_density_matrix",
    "liouvillian_apply",
    "liouvillian_matrix",
    "reachable_subspace",
    "evolve",
    "population",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8


class DensityMatrixError(ValueError):
    """A matrix violates the density-matrix invariants.

    index is the stack position of the offending matrix (() for a single
    matrix), or None when the error concerns no particular matrix.
    """

    def __init__(self, message: str, index: tuple[int, ...] | None = None):
        super().__init__(message)
        self.index = index


class IntegrationError(RuntimeError):
    """Propagation failed or produced an invalid state."""


def pure_density(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| for a normalized state vector."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n == 0:
        raise DensityMatrixError("zero state vector")
    psi = psi / n
    return np.outer(psi, psi.conj())


def _raise_first(bad: np.ndarray, values: np.ndarray, message: str, where: str) -> None:
    """Raise for the first matrix of a stack flagged in `bad`; message formats its value."""
    if not bad.any():
        return
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    at = f" at stack index {index}" if index else ""
    raise DensityMatrixError(message.format(values[index]) + at + where, index=index)


def check_density_matrix(rho: np.ndarray, *, herm_tol: float = HERMITICITY_TOL,
                         trace_tol: float = TRACE_TOL,
                         positivity_tol: float = POSITIVITY_TOL,
                         where: str = "") -> None:
    """Raise DensityMatrixError unless rho is Hermitian, unit trace, positive.

    rho is one matrix (n, n) or a stack (..., n, n); every matrix of a stack
    is checked in one batched pass and the error names the first failure.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DensityMatrixError(f"not square: shape {rho.shape}")
    rho_h = rho.conj().swapaxes(-1, -2)
    # ~(x <= tol) also flags NaN
    herm =np.abs(rho - rho_h).max(axis=(-2, -1))
    _raise_first(~(herm <= herm_tol), herm,
                 f"hermiticity violation {{:.3e}} > {herm_tol:.0e}", where)
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    _raise_first(~(tr <= trace_tol), tr, f"trace deviation {{:.3e}} > {trace_tol:.0e}", where)
    min_eig = np.linalg.eigvalsh((rho + rho_h) / 2)[..., 0]
    _raise_first(min_eig < -positivity_tol, min_eig, "negative eigenvalue {:.3e}", where)


@dataclass(frozen=True)
class IntegratorConfig:
    """Propagation settings.

    method "expm" (default) uses exact superoperator exponentiation;
    "dop853" and "rk45" integrate the vectorized equation adaptively with
    rel_tol/abs_tol/max_step.  max_step (us) also caps the expm substep.
    """

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = np.inf
    method: str = "expm"

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.method not in ("expm", "dop853", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")


@dataclass
class Trajectory:
    """Sampled observables of one propagation run.

    times are strictly increasing (us); observables maps a series name to a
    real array over times; states optionally stores the density matrices,
    shape (..., len(times), n, n) with the stack axes of the initial state.
    """

    times: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    states: np.ndarray | None = None

    def add_population_series(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.min() < -1e-8 or values.max() > 1 + 1e-8:
            raise ValueError(f"series {name!r} outside [0, 1]: "
                             f"range [{values.min():.3e}, {values.max():.3e}]")
        self.observables[name] = values


def _as_matrices(cs: list[CollapseOp] | list[np.ndarray], dim: int) -> list[np.ndarray]:
    out = []
    for c in cs:
        m = c.matrix(dim) if isinstance(c, CollapseOp) else np.asarray(c)
        if m.shape != (dim, dim):
            raise DensityMatrixError(f"collapse operator shape {m.shape} != ({dim}, {dim})")
        out.append(m.astype(complex))
    return out


def liouvillian_apply(H: np.ndarray, cs: list, rho: np.ndarray) -> np.ndarray:
    """Right-hand side drho/dt for Hamiltonian H (rad/us) and collapse operators cs."""
    H = np.asarray(H)
    rho = np.asarray(rho, dtype=complex)
    if H.shape != rho.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise DensityMatrixError(f"dimension mismatch: H {H.shape}, rho {rho.shape}")
    out = 1j * (rho @ H - H @ rho)
    for c in _as_matrices(cs, rho.shape[0]):
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def liouvillian_matrix(H: np.ndarray, cs: list) -> np.ndarray:
    """Superoperator L with vec(drho/dt) = L vec(rho), row-major vectorization."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    eye = np.eye(n)
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vec
    L = 1j * (np.kron(eye, H.T) - np.kron(H, eye))
    for c in _as_matrices(cs, n):
        cd = c.conj().T
        cdc = cd @ c
        L += np.kron(c, cd.T) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return L


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring (scipy.linalg.expm)."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(A)


def reachable_subspace(L: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Sorted indices of vec(rho) that L can populate starting from `support`.

    A graph search over the nonzero pattern of L: entry i is reached once
    some reached entry j has L[i, j] != 0.  The reached set is closed (L[i, j]
    is zero for every reached j and unreached i), so the block
    L[idx][:, idx] propagates any state supported on `support` exactly.
    """
    pattern = L != 0
    reached = np.asarray(support, dtype=bool)
    while True:
        grown = reached | pattern[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _propagate_expm(L: np.ndarray, y0: np.ndarray, t_grid: np.ndarray,
                    max_step: float) -> np.ndarray:
    """Columns of y0 (m, k) stepped over t_grid; returns shape (k, len(t_grid), m)."""
    spans = np.diff(t_grid, prepend=0.0)
    nsubs = np.ones(len(spans), dtype=int)
    if np.isfinite(max_step):
        nsubs = np.maximum(1, np.ceil(spans / max_step)).astype(int)
    subs = spans / nsubs
    cache: dict[float, np.ndarray] = {}
    out = np.empty((y0.shape[1], len(t_grid), y0.shape[0]), dtype=complex)
    y = y0
    for i, (sub, key, nsub) in enumerate(zip(subs, np.round(subs, 12).tolist(),
                                             nsubs.tolist())):
        if sub > 0:
            if key not in cache:
                cache[key] = expm(L * sub)
            P = cache[key]
            for _ in range(nsub):
                y = P @ y
        out[:, i] = y.T
    return out


def _propagate_scipy(L: np.ndarray, y0: np.ndarray, t_grid: np.ndarray,
                     cfg: IntegratorConfig) -> np.ndarray:
    """Adaptive integration of all columns of y0 as one system; shape (k, len(t_grid), m)."""
    from scipy.integrate import solve_ivp

    m, k = y0.shape
    method = {"dop853": "DOP853", "rk45": "RK45"}[cfg.method]
    span = (0.0, float(t_grid[-1]))
    # a diverging run overflows before the stepper gives up; the failure is
    # reported below, so the intermediate warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(lambda t, y: (L @ y.reshape(m, k)).reshape(-1), span,
                        y0.reshape(-1), method=method, t_eval=t_grid,
                        rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step)
    if not sol.success:
        raise IntegrationError(f"adaptive integration failed: {sol.message}")
    return sol.y.reshape(m, k, len(t_grid)).transpose(1, 2, 0)


def evolve(rho0: np.ndarray, H: np.ndarray, cs: list, t_grid,
           cfg: IntegratorConfig | None = None) -> Trajectory:
    """Propagate rho0 over t_grid (us, strictly increasing, from t=0).

    rho0 is one density matrix (n, n) or a stack (..., n, n) sharing the
    generator; the returned states have shape (..., len(t_grid), n, n).
    The Liouvillian is built once and cut to the entries reachable from
    the initial states, and all of them are propagated as one block.  The
    raw snapshots are checked against the density-matrix invariants (a
    violation beyond 10x tolerance aborts with diagnostics) and stored
    re-symmetrized, (rho+rho+)/2.  Output is deterministic for a fixed
    config.
    """
    cfg = cfg or IntegratorConfig()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or len(t_grid) == 0:
        raise ValueError("t_grid must be a non-empty 1-d sequence")
    if np.any(np.diff(t_grid) <= 0) or t_grid[0] < 0:
        raise ValueError("t_grid must be strictly increasing and non-negative")
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0, where=" (initial state)")

    n = rho0.shape[-1]
    stack = rho0.shape[:-2]
    vec0 = rho0.reshape(-1, n * n)
    L = liouvillian_matrix(H, cs)
    idx = reachable_subspace(L, np.any(vec0 != 0, axis=0))
    L_sub = L[np.ix_(idx, idx)]
    y0 = vec0[:, idx].T
    if cfg.method == "expm":
        y = _propagate_expm(L_sub, y0, t_grid, cfg.max_step)
    else:
        y = _propagate_scipy(L_sub, y0, t_grid, cfg)

    states = np.zeros((vec0.shape[0], len(t_grid), n * n), dtype=complex)
    states[:, :, idx] = y
    del y
    states = states.reshape(*stack, len(t_grid), n, n)
    try:
        check_density_matrix(states, herm_tol=10 * HERMITICITY_TOL,
                             trace_tol=10 * TRACE_TOL,
                             positivity_tol=10 * POSITIVITY_TOL)
    except DensityMatrixError as exc:
        t = t_grid[exc.index[-1]]
        raise IntegrationError(f"state invariants violated at t={t:g} us: {exc}") from exc
    states += states.conj().swapaxes(-1, -2)
    states *= 0.5
    return Trajectory(times=t_grid, states=states)


def population(rho: np.ndarray, psi: np.ndarray) -> float | np.ndarray:
    """<psi|rho|psi> as a real population; broadcasts over stacks (..., n, n) and (..., n).

    Values within POSITIVITY_TOL of [0, 1] are clipped into it for
    reporting; a larger excursion raises DensityMatrixError.
    """
    psi = np.asarray(psi, dtype=complex)
    val = np.einsum("...i,...ij,...j->...", psi.conj(), np.asarray(rho), psi).real
    if not np.all((val >= -POSITIVITY_TOL) & (val <= 1.0 + POSITIVITY_TOL)):
        raise DensityMatrixError(
            f"population outside [0, 1] by more than {POSITIVITY_TOL:.0e}: "
            f"range [{np.min(val):.3e}, {np.max(val):.3e}]")
    val = np.clip(val, 0.0, 1.0)
    return float(val) if val.ndim == 0 else val
