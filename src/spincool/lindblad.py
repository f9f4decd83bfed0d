"""Density-matrix propagation under a Lindblad master equation.

The generator is time independent, so the propagation is exact and
step-size independent: the superoperator is cut to the entries of vec(rho)
reachable from the initial states and written in real coordinates
(RealBasis), where it must be real, as it is when it preserves hermiticity;
it is exponentiated once for the grid step (Pade scaling and squaring in
numpy, Higham 2005, with the squarings chosen from ||A||_1) and applied to a
stack of states.
The samples are stepped and checked in runs of about 256 states, each run
for finite coordinates, unit trace and, block by block, positivity, and
stepping stops at the first failing run; full density matrices are built
only on request.

Sign convention of the master equation:

    drho/dt = i (rho H - H rho) + sum_k [2 c_k rho c_k+ - c_k+ c_k rho - rho c_k+ c_k] / 2

with H in rad/us and collapse amplitudes in sqrt(rad/us).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DensityMatrixError", "IntegrationError", "RealBasis", "Trajectory",
    "HERMITICITY_TOL", "TRACE_TOL", "POSITIVITY_TOL",
    "pure_density", "check_density_matrix", "liouvillian_matrix",
    "reachable_subspace", "evolve", "population",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8
_CHECK_STATES = 256  # states stepped and checked per run in evolve


class DensityMatrixError(ValueError):
    """A matrix violates the density-matrix invariants.

    index is the stack position of the offending matrix (() for a single
    matrix), or None when the error concerns no particular matrix.  The
    message is reason, then the index of a stacked matrix, then `where`.
    """

    def __init__(self, reason: str, index: tuple[int, ...] | None = None, where: str = ""):
        at = f" at stack index {index}" if index else ""
        super().__init__(reason + at + where)
        self.reason, self.index = reason, index


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
    raise DensityMatrixError(message.format(values[index]), index, where)


def _check_trace_and_positivity(trace: np.ndarray, blocks, trace_tol: float,
                                positivity_tol: float, where: str) -> None:
    """Raise for the first matrix of a stack off unit trace or with an eigenvalue below -tol.

    blocks are Hermitian stacks (..., nb, nb) whose spectra make up each matrix's; only
    a block without a Cholesky factor of b + tol*I pays for eigvalsh.  They are scratch:
    the shift by tol*I is made in place, which saves a block-sized copy.
    """
    dev = np.abs(trace - 1.0)
    # ~(x <= tol) also flags NaN
    _raise_first(~(dev <= trace_tol), dev, f"trace deviation {{:.3e}} > {trace_tol:.0e}", where)
    min_eig = None
    for b in blocks:
        i = np.arange(b.shape[-1])
        diag = b[..., i, i]
        b[..., i, i] += positivity_tol
        try:
            np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            b[..., i, i] = diag
            low = np.linalg.eigvalsh(b)[..., 0]
            min_eig = low if min_eig is None else np.minimum(min_eig, low)
    if min_eig is not None:
        _raise_first(min_eig < -positivity_tol, min_eig, "negative eigenvalue {:.3e}", where)


def check_density_matrix(rho: np.ndarray, where: str = "") -> None:
    """Raise DensityMatrixError unless rho is Hermitian, unit trace, positive.

    rho is one matrix (n, n) or a stack (..., n, n); every matrix of a stack
    is checked in one batched pass and the error names the first failure.
    """
    rho = np.asarray(rho)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DensityMatrixError(f"not square: shape {rho.shape}")
    rho_h = rho.conj().swapaxes(-1, -2)
    herm = np.abs(rho - rho_h).max(axis=(-2, -1))
    _raise_first(~(herm <= HERMITICITY_TOL), herm,
                 f"hermiticity violation {{:.3e}} > {HERMITICITY_TOL:.0e}", where)
    _check_trace_and_positivity(np.trace(rho, axis1=-2, axis2=-1), [(rho + rho_h) / 2],
                                TRACE_TOL, POSITIVITY_TOL, where)


class RealBasis:
    """Real coordinates of the Hermitian matrices on the entries L reaches from `support`.

    The entries idx (row-major positions r*n + c of vec(rho)) are grown together
    with their transposes.  u_k is rho_rr, Re rho_rc (r < c) or Im rho_cr (r > c)
    for idx[k] = r*n + c: rho_rc = u_k + i u_t and rho_cr = u_k - i u_t with t the
    transposed position.  u = T v and v = T_inv u for v = vec(rho)[idx].
    """

    def __init__(self, L: np.ndarray, support: np.ndarray):
        self.n = n = math.isqrt(len(support))
        transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)
        self.idx = idx = reachable_subspace((L != 0) | (L[np.ix_(transpose, transpose)] != 0),
                                            support | support[transpose])
        self.r, self.c = r, c = np.divmod(idx, n)
        m, k, t = len(idx), np.arange(len(idx)), np.searchsorted(idx, c * n + r)
        upper, lower, pair = r < c, r > c, r != c
        self.T_inv = np.zeros((m, m), dtype=complex)
        self.T_inv[k, k] = np.where(lower, -1j, 1.0)
        self.T_inv[k, t] += np.where(upper, 1j, 1.0) * pair
        self.T = self.T_inv.conj().T * np.where(pair, 0.5, 1.0)[:, None]
        self.diag, self.levels = np.flatnonzero(~pair), r[~pair]
        # v_k = u[re_k] + i sign_k u[im_k]; a matrix position outside idx reads v[m] = 0
        self._re, self._im = np.where(lower, t, k), np.where(upper, t, k)
        self._sign = upper - 1.0 * lower
        self._pos = np.full(n * n, m)
        self._pos[idx] = k
        # rho is block diagonal over connected levels; label each by the lowest it reaches
        label = np.arange(n)
        for _ in range(n):
            np.minimum.at(label, r, label[c])
        # sorted(set(...)), not np.unique, which loads numpy.ma
        groups = [np.flatnonzero(label == low) for low in sorted(set(label[r].tolist()))]
        self.blocks = [g[:, None] * n + g for g in groups]

    def entries(self, u: np.ndarray, *positions: np.ndarray) -> list[np.ndarray]:
        """rho[..., r, c] at each array of matrix positions r*n + c, from u (..., m)."""
        v = np.zeros(u.shape[:-1] + (len(self.idx) + 1,), dtype=complex)
        v.real[..., :-1] = u[..., self._re]
        v.imag[..., :-1] = self._sign * u[..., self._im]
        return [v[..., self._pos[f]] for f in positions]

    def check(self, u: np.ndarray, trace_tol: float, positivity_tol: float) -> None:
        """Raise DensityMatrixError for the first state of u (..., m) off trace or positivity.

        A state with a non-finite coordinate fails first: a non-finite coherence leaves the
        trace alone, and Cholesky need not raise on it.
        """
        if not np.isfinite(u).all():  # one pass; the per-state search is 10x slower
            _raise_first(~np.isfinite(u).all(axis=-1), u, "non-finite state", "")
        _check_trace_and_positivity(u[..., self.diag].sum(axis=-1),
                                    self.entries(u, *self.blocks), trace_tol, positivity_tol, "")


@dataclass
class Trajectory:
    """Sampled states of one propagation run.

    times (us) increase strictly; coords, shape (..., len(times), m), are the states
    in `basis` with the initial state's stack axes.
    """

    times: np.ndarray
    coords: np.ndarray
    basis: RealBasis

    @property
    def states(self) -> np.ndarray:
        """The density matrices, shape (..., len(times), n, n), built on each access."""
        n = self.basis.n
        return self.basis.entries(self.coords, np.arange(n * n).reshape(n, n))[0]

    @property
    def diagonal(self) -> np.ndarray:
        """The level populations, shape (..., len(times), n)."""
        out = np.zeros(self.coords.shape[:-1] + (self.basis.n,))
        out[..., self.basis.levels] = self.coords[..., self.basis.diag]
        return out


def liouvillian_matrix(H: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """Superoperator L with vec(drho/dt) = L vec(rho), row-major vectorization.

    cs are the collapse operators as (n, n) matrices.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    eye = np.eye(n)
    C = np.asarray(cs, dtype=complex).reshape(-1, n, n)
    S = np.einsum("kji,kjl->il", C.conj(), C)  # sum of c+ c
    # vec(A rho B) = (A kron B^T) vec(rho) for row-major vec
    L = np.kron(-1j * H - 0.5 * S, eye) + np.kron(eye, (1j * H - 0.5 * S).T)
    L += np.tensordot(C, C.conj(), axes=(0, 0)).transpose(0, 2, 1, 3).reshape(n * n, n * n)
    return L


# theta_13 (Higham 2005): the largest norm at which the degree-13 diagonal
# Pade approximant still has a backward error bound below unit roundoff
_THETA_13 = 4.25

# b_0..b_13 of the degree-13 diagonal Pade approximant to exp, b_13 = 1
_PADE_13 = [math.factorial(26 - j) / (math.factorial(j) * math.factorial(13 - j))
            for j in range(14)]


def _onenorm(A: np.ndarray) -> float:
    norm = float(np.abs(A).sum(axis=0).max())
    if not math.isfinite(norm):
        raise FloatingPointError("matrix exponential: a matrix power is not finite")
    return norm


def _squarings(A: np.ndarray) -> int:
    """Squarings s with ||A / 2^s||_1 <= theta_13 (Higham 2005), 0 when ||A||_1 <= theta_13."""
    return math.ceil(math.log2(max(_onenorm(A), _THETA_13) / _THETA_13))


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Pade scaling and squaring.

    Higham (2005), degree 13: exp(A) = r_13(A / 2^s)^(2^s) with s the fewest
    squarings that bring ||A / 2^s||_1 to theta_13 or below, and r_13 =
    (V - U)^-1 (V + U), U and V the odd and even parts of the degree-13 Pade
    numerator.  On the Liouvillians of this program this s equals the choice
    of Al-Mohy & Higham (2009), which starts from ||A^p||_1^(1/p) <= ||A||_1
    for p = 6, 8, 10 to avoid overscaling non-normal matrices.  A non-finite
    input, a power of A that overflows, or a result that overflows raises
    FloatingPointError.
    """
    A = np.asarray(A)
    if not np.isfinite(A).all():
        raise FloatingPointError("matrix exponential of a non-finite matrix")
    I = np.eye(A.shape[0], dtype=A.dtype)
    # an overflow raises FloatingPointError at a norm below, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        A2 = A @ A
        A4 = A2 @ A2
        A6 = A4 @ A2
        _onenorm(A6)  # raises when a power of A overflows
        s = _squarings(A)
        if s:
            A, A2, A4, A6 = (P * 2.0 ** (-k * s) for k, P in ((1, A), (2, A2), (4, A4), (6, A6)))
        b = _PADE_13
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * I)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * I)
        # r_13 = I + 2 (V - U)^-1 U: only the correction to I carries rounding
        # error, so the trace a Liouvillian propagator keeps is not biased by the
        # solve (that bias would grow 2^s-fold in the squarings)
        X = np.linalg.solve(V - U, 2 * U) + I
        for _ in range(s):
            X = X @ X
    _onenorm(X)
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


def _allocate(make, *args) -> np.ndarray:
    """make(*args), with an array too large to allocate an IntegrationError."""
    try:
        return make(*args)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise IntegrationError(f"cannot allocate the samples: {exc}") from exc


def evolve(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray], t_final: float,
           samples: int) -> Trajectory:
    """Propagate rho0, one density matrix or a stack, over linspace(0, t_final, samples) us.

    A generator with |Im| > HERMITICITY_TOL / t_final in real form is an IntegrationError;
    so is a sample that is not finite, or off unit trace or positivity by 10x tolerance,
    named by its time and stack index, and so is a time grid or coordinate array too
    large to allocate.  Samples are stepped and checked in runs of about
    _CHECK_STATES states and stepping stops at the first failing run: the check's
    precedence (finiteness, then trace, then positivity, then stack order) holds within
    a run, so a positivity failure in an earlier run is reported before a trace failure
    in a later one.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (t=0 and t_final), got {samples}")
    t_grid = _allocate(np.linspace, 0.0, t_final, samples)
    rho0 = np.asarray(rho0, dtype=complex)
    check_density_matrix(rho0, where=" (initial state)")

    vec0 = rho0.reshape(-1, rho0.shape[-1] ** 2)
    # a non-finite or overflowing generator is an IntegrationError below; mute numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        L = liouvillian_matrix(H, cs)
        basis = RealBasis(L, np.any(vec0 != 0, axis=0))
        # T L T_inv is real exactly when L maps Hermitian matrices to Hermitian ones
        Lr = basis.T @ L[np.ix_(basis.idx, basis.idx)] @ basis.T_inv
        try:
            P = expm(Lr.real * t_grid[1])
        except FloatingPointError as exc:
            raise IntegrationError(f"propagation failed: {exc}") from exc
        drift = np.abs(Lr.imag).max() * t_final
    # the stepping needs neither: a lower peak lets malloc keep the freed pages for the
    # next call instead of returning them and faulting them in again
    del L, Lr
    if not drift <= HERMITICITY_TOL:
        raise IntegrationError(f"generator breaks hermiticity: |Im L| t_final = "
                               f"{drift:.3e} > {HERMITICITY_TOL:.0e}")

    # U[i] holds the coordinates of every state at t_grid[i], one per column
    U = _allocate(np.empty, (samples, len(basis.idx), vec0.shape[0]))
    U[0] = (basis.T @ vec0[:, basis.idx].T).real
    # one run at a time keeps the check's temporaries small and reused, not faulted in afresh
    rows = max(1, _CHECK_STATES // vec0.shape[0])
    for start in range(0, samples, rows):
        for i in range(max(start, 1), min(start + rows, samples)):
            np.matmul(P, U[i - 1], out=U[i])
        try:
            basis.check(U[start:start + rows].transpose(0, 2, 1),
                        10 * TRACE_TOL, 10 * POSITIVITY_TOL)
        except DensityMatrixError as exc:
            index = (start + exc.index[0], *exc.index[1:])
            raise IntegrationError(f"state invariants violated at t={t_grid[index[0]]:g} us: "
                                   f"{exc.reason} at stack index {index}") from exc
    coords = U.transpose(2, 0, 1).reshape(*rho0.shape[:-2], samples, len(basis.idx))
    return Trajectory(times=t_grid, coords=coords, basis=basis)


def population(traj: Trajectory, psi: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> at every sample of traj, shape (..., len(times)); psi is (..., n).

    The values are returned as computed, neither checked against [0, 1] nor clipped.
    """
    psi, basis = np.asarray(psi, dtype=complex), traj.basis
    w = ((psi[..., basis.r].conj() * psi[..., basis.c]) @ basis.T_inv).real
    return (traj.coords @ w[..., None])[..., 0]
