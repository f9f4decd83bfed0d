"""Density-matrix propagation under a Lindblad master equation.

The generator is time independent here, so the propagation is exact: the
master equation is vectorized, the superoperator is cut to the entries of
vec(rho) reachable from the initial states, that block is exponentiated
once for the step of the uniform sample grid, and snapshots are produced
by repeated application.  The exponential is Pade scaling and squaring in
numpy (Higham 2005; Al-Mohy & Higham 2009).  A stack of initial states
sharing one generator is propagated as one block.  This is deterministic,
step-size independent, and orders of magnitude faster than resolving the
GHz-scale detuning oscillations with an explicit stepper.

Sign convention of the master equation:

    drho/dt = i (rho H - H rho) + sum_k [2 c_k rho c_k+ - c_k+ c_k rho - rho c_k+ c_k] / 2

with H in rad/us and collapse amplitudes in sqrt(rad/us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DensityMatrixError",
    "IntegrationError",
    "Trajectory",
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "POSITIVITY_TOL",
    "pure_density",
    "check_density_matrix",
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
    herm = np.abs(rho - rho_h).max(axis=(-2, -1))
    _raise_first(~(herm <= herm_tol), herm,
                 f"hermiticity violation {{:.3e}} > {herm_tol:.0e}", where)
    tr = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    _raise_first(~(tr <= trace_tol), tr, f"trace deviation {{:.3e}} > {trace_tol:.0e}", where)
    # the eigenvalues of a block-diagonal matrix are those of its blocks; a
    # block passes when b + tol*I has a Cholesky factor (all eigenvalues >
    # -tol), and only a failing block pays for eigvalsh to locate the failure
    min_eig = None
    for idx in _blocks(rho):
        b = rho[..., idx[:, None], idx]
        b = (b + b.conj().swapaxes(-1, -2)) / 2
        try:
            np.linalg.cholesky(b + positivity_tol * np.eye(len(idx)))
        except np.linalg.LinAlgError:
            low = np.linalg.eigvalsh(b)[..., 0]
            min_eig = low if min_eig is None else np.minimum(min_eig, low)
    if min_eig is not None:
        _raise_first(min_eig < -positivity_tol, min_eig, "negative eigenvalue {:.3e}", where)


def _blocks(rho: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of a stack's joint nonzero pattern.

    Every matrix of the stack is block diagonal over these sets (after a
    common permutation); a dense matrix is one block.
    """
    n = rho.shape[-1]
    pattern = (rho != 0).reshape(-1, n, n).any(axis=0)
    pattern |= pattern.T
    unseen = np.ones(n, dtype=bool)
    blocks = []
    while unseen.any():
        block = reachable_subspace(pattern, np.arange(n) == np.argmax(unseen))
        unseen[block] = False
        blocks.append(block)
    return blocks


@dataclass
class Trajectory:
    """Sampled observables of one propagation run.

    times are strictly increasing (us); states are the density matrices,
    shape (..., len(times), n, n) with the stack axes of the initial state;
    observables maps a series name to a real array over times.
    """

    times: np.ndarray
    states: np.ndarray
    observables: dict[str, np.ndarray] = field(default_factory=dict)

    def add_population_series(self, name: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if values.min() < -1e-8 or values.max() > 1 + 1e-8:
            raise ValueError(f"series {name!r} outside [0, 1]: "
                             f"range [{values.min():.3e}, {values.max():.3e}]")
        self.observables[name] = values


def liouvillian_matrix(H: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """Superoperator L with vec(drho/dt) = L vec(rho), row-major vectorization.

    cs are the collapse operators as (n, n) matrices.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    eye = np.eye(n)
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vec
    L = 1j * (np.kron(eye, H.T) - np.kron(H, eye))
    for c in cs:
        cd = c.conj().T
        cdc = cd @ c
        L += np.kron(c, cd.T) - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return L


# theta_m (Higham 2005): the largest norm at which the degree-m diagonal Pade
# approximant still has a backward error bound below unit roundoff
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 4.25}


def _onenorm(A: np.ndarray) -> float:
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise FloatingPointError("matrix exponential: a matrix power is not finite")
    return norm


def _pade_coefficients(m: int) -> list[float]:
    """Coefficients b_0..b_m of the degree-m diagonal Pade approximant to exp, b_m = 1."""
    f = math.factorial
    return [f(2 * m - j) / (f(j) * f(m - j)) for j in range(m + 1)]


def _ell(A: np.ndarray, m: int) -> int:
    """Squarings to add so the degree-m backward error bound falls below unit roundoff.

    Al-Mohy & Higham (2009), eq. (5.1); ||(|A|)^(2m+1)||_1 is exact, as the
    column sums of a nonnegative matrix power.
    """
    abs_a = np.abs(A)
    v = np.ones(A.shape[0])
    for _ in range(2 * m + 1):
        v = v @ abs_a
    if v.max() == 0:
        return 0
    f = math.factorial
    c = f(2 * m) * f(2 * m + 1) / f(m) ** 2
    alpha = v.max() / (c * _onenorm(A))
    return max(0, math.ceil(math.log2(alpha / 2.0 ** -53) / (2 * m)))


def _pade_degree(A: np.ndarray, powers: list[np.ndarray]) -> tuple[int, int]:
    """Pade degree m and squarings s for A (Al-Mohy & Higham 2009, Algorithm 6.1).

    powers holds I, A^2, A^4, A^6 and gains A^8 once degrees 7 and 9 are
    tried; d_p = ||A^p||^(1/p) uses exact 1-norms of the even powers.
    """
    d4 = _onenorm(powers[2]) ** (1 / 4)
    d6 = _onenorm(powers[3]) ** (1 / 6)
    eta = max(d4, d6)
    for m in (3, 5):
        if eta <= _PADE_THETA[m] and _ell(A, m) == 0:
            return m, 0
    powers.append(powers[2] @ powers[2])
    d8 = _onenorm(powers[4]) ** (1 / 8)
    eta = max(d6, d8)
    for m in (7, 9):
        if eta <= _PADE_THETA[m] and _ell(A, m) == 0:
            return m, 0
    d10 = _onenorm(powers[2] @ powers[3]) ** (1 / 10)
    eta = min(eta, max(d8, d10))
    s = max(0, math.ceil(math.log2(eta / _PADE_THETA[13]))) if eta > 0 else 0
    return 13, s + _ell(A * 2.0 ** -s, 13)


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring.

    Higham (2005) with the degree and scaling choice of Al-Mohy & Higham
    (2009), the method of scipy.linalg.expm: exp(A) = r_m(A / 2^s)^(2^s)
    with r_m = (V - U)^-1 (V + U), U and V the odd and even parts of the
    degree-m Pade numerator.  A non-finite input, or a power of A that
    overflows, raises FloatingPointError.
    """
    A = np.asarray(A)
    if not np.isfinite(A).all():
        raise FloatingPointError("matrix exponential of a non-finite matrix")
    A2 = A @ A
    powers = [np.eye(A.shape[0], dtype=A.dtype), A2, A2 @ A2]
    powers.append(powers[2] @ A2)
    m, s = _pade_degree(A, powers)
    if s:
        A = A * 2.0 ** -s
        powers = [P * 2.0 ** (-2 * k * s) for k, P in enumerate(powers)]
    b = _pade_coefficients(m)
    if m == 13:
        I, A2, A4, A6 = powers[:4]
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
    else:
        terms = range((m + 1) // 2)
        U = A @ sum(b[2 * k + 1] * powers[k] for k in terms)
        V = sum(b[2 * k] * powers[k] for k in terms)
    # r_m = I + 2 (V - U)^-1 U: only the correction to I carries rounding
    # error, so the trace a Liouvillian propagator keeps is not biased by the
    # solve (that bias would grow 2^s-fold in the squarings)
    X = np.linalg.solve(V - U, 2 * U) + powers[0]
    for _ in range(s):
        X = X @ X
    return X


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


def evolve(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray], t_final: float,
           samples: int) -> Trajectory:
    """Propagate rho0 over the grid np.linspace(0, t_final, samples), in us.

    rho0 is one density matrix (n, n) or a stack (..., n, n) sharing the
    generator H with the collapse matrices cs; the returned states have
    shape (..., samples, n, n).  The Liouvillian is built once and cut to
    the entries reachable from the initial states, and all of them are
    propagated as one block with one exact exponential for the grid step.
    The snapshots are checked against the density-matrix invariants (a
    violation beyond 10x tolerance aborts with diagnostics) and stored as
    checked.  Output is deterministic for fixed inputs.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (t=0 and t_final), got {samples}")
    t_grid = np.linspace(0.0, t_final, samples)
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0, where=" (initial state)")

    n = rho0.shape[-1]
    stack = rho0.shape[:-2]
    vec0 = rho0.reshape(-1, n * n)
    # a non-finite or overflowing generator is reported as an IntegrationError
    # here or by the invariant checks below, so numpy's warnings are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        L = liouvillian_matrix(H, cs)
        idx = reachable_subspace(L, np.any(vec0 != 0, axis=0))
        try:
            P = expm(L[np.ix_(idx, idx)] * t_grid[1])
        except FloatingPointError as exc:
            raise IntegrationError(f"propagation failed: {exc}") from exc

    # y holds the reachable entries of every initial state, one per column
    y = vec0[:, idx].T
    states = np.zeros((vec0.shape[0], samples, n * n), dtype=complex)
    states[:, 0, idx] = y.T
    for i in range(1, samples):
        y = P @ y
        states[:, i, idx] = y.T
    states = states.reshape(*stack, samples, n, n)
    try:
        check_density_matrix(states, herm_tol=10 * HERMITICITY_TOL,
                             trace_tol=10 * TRACE_TOL,
                             positivity_tol=10 * POSITIVITY_TOL)
    except DensityMatrixError as exc:
        t = t_grid[exc.index[-1]]
        raise IntegrationError(f"state invariants violated at t={t:g} us: {exc}") from exc
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
