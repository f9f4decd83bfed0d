"""Density-matrix propagation under a Lindblad master equation.

The generator is time independent, so the propagation is exact and
step-size independent.  It is built only on the entries of vec(rho)
reachable from the initial states: the nonzero terms of the superoperator
are listed from H and the collapse matrices, the reachable set is grown over
them together with the transposed entries, and the terms inside it are summed
into L[idx][:, idx], with no n^2 x n^2 array.  Its coordinates split into
parts that L never couples (at the reference point the populations with the
coherences inside one nuclear-spin sector, and the cross-sector coherences
that carry the qubit).  All of this structure depends only on sparsity
patterns, so it is analysed once per pattern, as the symbolic phase of a
sparse direct solver is: the plan (reachable entries, parts, summation keys,
real basis and its block plans) is cached under the nonzero patterns of the
Hamiltonian and jump terms and of the initial states, and a call only
gathers the term values into it.  In real coordinates (RealBasis), where the
generator must be real, as it is when it preserves hermiticity, it is formed
once, on the plan's basis, and it is block diagonal over the parts, since a part
holds every entry with its transpose.  Each part's real block is exponentiated
once for the grid step (Pade scaling and squaring in numpy, Higham 2005, with the
squarings chosen from ||A||_1) and applied to that part's columns of a stack of
states.  Sample i in [2^k, 2^(k+1)) is sample i - 2^k
through P^(2^k), P the grid-step propagator: one matrix product per level, and
one squaring between levels.  A Hermitian stack becomes checked coordinates in one function: the
initial states are checked for hermiticity as matrices and then converted and
checked on the plan's basis, and check_density_matrix does the same on a basis
of every entry; once every sample is stepped, all of them are checked in one
pass for finite coordinates, unit trace and, block by block, positivity.
Positivity reads the real coordinates: blocks of 1 and 2 levels in closed form,
larger ones by a Cholesky test of conj(rho_block) + tol*I taken into its lower
triangle, 128 states at a time.  The results stay in coordinates: populations and
projections are read from them directly, and no full density matrix is built.

Sign convention of the master equation:

    drho/dt = i (rho H - H rho) + sum_k [2 c_k rho c_k+ - c_k+ c_k rho - rho c_k+ c_k] / 2

with H in rad/us and collapse amplitudes in sqrt(rad/us).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "DensityMatrixError", "IntegrationError", "RealBasis", "Trajectory",
    "HERMITICITY_TOL", "TRACE_TOL", "POSITIVITY_TOL",
    "pure_density", "check_density_matrix", "liouvillian_matrix", "evolve", "population",
]

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = 1e-8
_CHOLESKY_STATES = 128  # states per Cholesky test of a block of 3 or more levels


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
    """|psi><psi| for a normalized state vector.

    A vector that is zero, or whose entries or norm are not finite, is a
    DensityMatrixError.
    """
    psi = np.asarray(psi, dtype=complex)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(psi)
    if n == 0:
        raise DensityMatrixError("zero state vector")
    # a finite norm has finite entries, but NaN entries give a NaN norm
    if not np.isfinite(n):
        raise DensityMatrixError(f"state vector norm is not finite: {n}")
    psi = psi / n
    return np.outer(psi, psi.conj())


def _raise_first(bad: np.ndarray, values: np.ndarray, message: str, where: str) -> None:
    """Raise for the first matrix of a stack flagged in `bad`; message formats its value."""
    if not bad.any():
        return
    index = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
    raise DensityMatrixError(message.format(values[index]), index, where)


def _block_plan(pos: np.ndarray, m: int):
    """How _check_positivity reads one level block from real coordinates u (..., m).

    pos (nb, nb) holds the coordinate of each entry of the block, m where u lacks it.
    A block of 1 level is (its diagonal,), one of 2 levels with every entry is
    (diagonal, diagonal, Re rho_01, Im rho_01): both have a closed-form spectrum.  A
    larger block is (nb, take, zero): float slot f of a complex (nb, nb) matrix, the
    lower triangle of conj(rho_block), is coordinate take[f] of u.  Its entry (i, j),
    i > j, is rho_ji = u[pos[j, i]] + i u[pos[i, j]], so the gather needs no sign.
    Cholesky and eigvalsh read neither the upper triangle nor the imaginary diagonal,
    whose slots read coordinate 0; the slots of an entry that u lacks are listed in
    zero.
    """
    nb = len(pos)
    if nb == 1:
        return (pos[0, 0],)
    if nb == 2 and (pos < m).all():
        return (pos[0, 0], pos[1, 1], pos[0, 1], pos[1, 0])
    take = np.zeros((nb, nb, 2), dtype=int)
    i, j = np.tril_indices(nb)
    take[i, j, 0] = pos[j, i]
    off = i > j
    take[i[off], j[off], 1] = pos[i[off], j[off]]
    take = take.reshape(-1)
    zero = np.flatnonzero(take == m)
    take[zero] = 0
    return nb, take, zero


def _read_only(*items) -> None:
    """Make every array among items, also those inside tuples, read-only."""
    todo = list(items)
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
            todo.extend(item)
        elif isinstance(item, np.ndarray):
            item.flags.writeable = False


def _gather(u: np.ndarray, plan, shift: float) -> np.ndarray:
    """conj(rho_block) + shift*I in the lower triangle, for each state of u (k, m)."""
    nb, take, zero = plan
    out = u.take(take, axis=1)
    if zero.size:
        out[:, zero] = 0.0
    out[:, ::2 * nb + 2] += shift  # the real diagonal
    return out.view(complex).reshape(-1, nb, nb)


def _check_positivity(u: np.ndarray, plans: tuple, tol: float, where: str) -> None:
    """Raise for the first state of u (..., m) with an eigenvalue below -tol.

    plans (_block_plan) are the level blocks whose spectra make up each state's.
    Blocks of 1 and 2 levels give their smallest eigenvalue in closed form.  A larger
    block is tested in chunks of _CHOLESKY_STATES states: a chunk passes when every
    conj(rho_block) + tol*I has a Cholesky factor, and only a failing chunk pays for
    eigvalsh.  Conjugation keeps the spectrum, and both read only the lower triangle.
    Each call costs several times one 9x9 factor, which a larger chunk spreads; a
    chunk of 9-level blocks holds about 0.3 MiB of temporaries, a fifth of the
    coordinates of six states over 401 samples.
    """
    flat = u.reshape(-1, u.shape[-1])
    low = np.full(len(flat), np.inf)
    for plan in plans:
        if len(plan) == 1:
            np.minimum(low, flat[:, plan[0]], out=low)
        elif len(plan) == 4:
            a, d, x, y = (flat[:, k] for k in plan)
            np.minimum(low, 0.5 * (a + d) - np.sqrt((0.5 * (a - d)) ** 2 + x * x + y * y),
                       out=low)
        else:
            for lo in range(0, len(flat), _CHOLESKY_STATES):
                rows, part = flat[lo:lo + _CHOLESKY_STATES], low[lo:lo + _CHOLESKY_STATES]
                try:
                    np.linalg.cholesky(_gather(rows, plan, tol))
                except np.linalg.LinAlgError:
                    np.minimum(part, np.linalg.eigvalsh(_gather(rows, plan, 0.0))[:, 0],
                               out=part)
    shape = u.shape[:-1]
    _raise_first((low < -tol).reshape(shape), low.reshape(shape),
                 "negative eigenvalue {:.3e}", where)


def _check_hermitian(rho: np.ndarray, where: str) -> None:
    """Raise unless rho is square, (n, n) or a stack (..., n, n), and every matrix of it
    is Hermitian to HERMITICITY_TOL; the error names the first that is not."""
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise DensityMatrixError(f"not square: shape {rho.shape}")
    herm = np.abs(rho - rho.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    _raise_first(~(herm <= HERMITICITY_TOL), herm,
                 f"hermiticity violation {{:.3e}} > {HERMITICITY_TOL:.0e}", where)


def check_density_matrix(rho: np.ndarray, where: str = "") -> None:
    """Raise DensityMatrixError unless rho is Hermitian, unit trace, positive.

    rho is one matrix (n, n) or a stack (..., n, n); every matrix of a stack
    is checked in one batched pass and the error names the first failure.
    Trace and positivity are those of the Hermitian part, read as the coordinates
    of a RealBasis on every entry, whose n levels form one block.
    """
    rho = np.asarray(rho)
    _check_hermitian(rho, where)
    n = rho.shape[-1]
    _coordinates(rho, RealBasis(np.arange(n * n), n), where)


def _coordinates(rho: np.ndarray, basis: RealBasis, where: str) -> np.ndarray:
    """The coordinates (..., m) in basis of the Hermitian part of rho (..., n, n), checked
    for finite values, unit trace to TRACE_TOL and positivity to POSITIVITY_TOL."""
    vec = rho.reshape(-1, rho.shape[-1] ** 2)
    u = basis.T_dot(vec[:, basis.idx].T).real.T.reshape(*rho.shape[:-2], -1)
    basis.check(u, TRACE_TOL, POSITIVITY_TOL, where)
    return u


class RealBasis:
    """Real coordinates of the Hermitian matrices on the entries idx of vec(rho), n levels.

    idx (row-major positions r*n + c, in any order) holds each entry with its
    transpose.  u_k is rho_rr, Re rho_rc (r < c) or Im rho_cr (r > c) for
    idx[k] = r*n + c: rho_rc = u_k + i u_t and rho_cr = u_k - i u_t with t the
    transposed position.  u = T v and v = T_inv u for v = vec(rho)[idx].  Each row and
    column of T and T_inv has at most two entries, at k and t, so both are applied
    by indexing (T_dot, dot_T_inv), never as dense matrices.
    """

    def __init__(self, idx: np.ndarray, n: int):
        self.n, self.idx = n, idx
        self.r, self.c = r, c = np.divmod(idx, n)
        m, k = len(idx), np.arange(len(idx))
        # a matrix position outside idx maps to m
        self._pos = np.full(n * n, m)
        self._pos[idx] = k
        t = self._pos[c * n + r]
        upper, lower, pair = r < c, r > c, r != c
        # T_inv[k, k] = a_k and T_inv[k, t_k] = b_k; T = T_inv^+ with its pair rows halved
        a = np.where(lower, -1j, 1.0)
        b = np.where(upper, 1j, 1.0) * pair
        half = np.where(pair, 0.5, 1.0)
        self._t, self._inv_k, self._inv_t = t, a, b[t]
        self._fwd_k, self._fwd_t = a.conj() * half, b[t].conj() * half
        # u @ _sums: each state's sum of coordinates and its trace
        self._sums = np.stack([np.ones(m), 1.0 * ~pair], axis=1)
        # rho is block diagonal over connected levels; label each by the lowest it reaches
        label = _lowest_linked(r, c, n)
        # sorted(set(...)), not np.unique, which loads numpy.ma
        groups = [np.flatnonzero(label == low) for low in sorted(set(label[r].tolist()))]
        self.blocks = tuple(g[:, None] * n + g for g in groups)
        self._plans = tuple(_block_plan(self._pos[f], m) for f in self.blocks)

    def T_dot(self, y: np.ndarray) -> np.ndarray:
        """T @ y for y (m, ...)."""
        return self._fwd_k[:, None] * y + self._fwd_t[:, None] * y[self._t]

    def dot_T_inv(self, x: np.ndarray) -> np.ndarray:
        """x @ T_inv for x (..., m)."""
        return x * self._inv_k + x[..., self._t] * self._inv_t

    def check(self, u: np.ndarray, trace_tol: float, positivity_tol: float,
              where: str = "") -> None:
        """Raise DensityMatrixError for the first state of u (..., m) off trace or positivity.

        A state with a non-finite coordinate fails first: a non-finite coherence leaves the
        trace alone, and Cholesky need not raise on it.  `where` ends the message.
        """
        # one product gives both sums; a state's sum is finite unless a coordinate is
        # not or the sum overflows, and only then are its coordinates searched
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (u.reshape(-1, u.shape[-1]) @ self._sums).reshape(*u.shape[:-1], 2)
        if not np.isfinite(sums[..., 0]).all():
            _raise_first(~np.isfinite(u).all(axis=-1), u, "non-finite state", where)
        dev = np.abs(sums[..., 1] - 1.0)
        # ~(x <= tol) also flags NaN
        _raise_first(~(dev <= trace_tol), dev, f"trace deviation {{:.3e}} > {trace_tol:.0e}",
                     where)
        _check_positivity(u, self._plans, positivity_tol, where)


class Trajectory(NamedTuple):
    """Sampled states of one propagation run.

    times (us) increase strictly; coords, shape (..., len(times), m), are the states
    in `basis` with the initial state's stack axes.
    """

    times: np.ndarray
    coords: np.ndarray
    basis: RealBasis

    def level_sum(self, levels) -> np.ndarray:
        """The summed populations of `levels`, shape (..., len(times)).

        The diagonal coordinates are added in the order of `levels`; a level outside
        the index set has population 0.
        """
        basis = self.basis
        at = basis._pos[np.asarray(levels, dtype=int) * (basis.n + 1)]
        return self.coords[..., at[at < len(basis.idx)]].sum(axis=-1)


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


def _lowest_linked(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """For each of `size` nodes, the lowest node that the edges a[e] -- b[e] link it to."""
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    label = np.arange(size)
    while True:
        low = label.copy()
        np.minimum.at(low, dst, label[src])
        if np.array_equal(low, label):
            return label
        label = low


def _reachable_subspace(rows: np.ndarray, cols: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Sorted indices of vec(rho) that a generator can populate starting from `support`.

    The generator's nonzero entries are at (rows[e], cols[e]): entry i is reached
    once some reached entry j has an edge (i, j).  The reached set is closed (no edge
    leads from a reached entry to an unreached one), so the block L[idx][:, idx]
    propagates any state supported on `support` exactly.
    """
    reached = np.array(support, dtype=bool)
    while True:
        grown = reached.copy()
        grown[rows[reached[cols]]] = True
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


class _Plan(NamedTuple):
    """What the generator on the reachable entries takes from its sparsity pattern alone.

    basis is the RealBasis of the reachable entries, ordered part by part, and parts
    are its slices that L never couples.  The terms inside the basis take their values
    from hamiltonian (flat positions in A and, offset by n*n, in B) and, for the jump
    terms, C.flat[jump_a] * conj(C.flat[jump_b]); term e adds into entry keys[e] of the
    bincount that builds L, the Hamiltonian terms' sums first.
    """

    basis: RealBasis
    parts: tuple
    hamiltonian: np.ndarray
    jump_a: np.ndarray
    jump_b: np.ndarray
    keys: np.ndarray


@functools.lru_cache(maxsize=8)
def _generator_plan(key: tuple) -> _Plan:
    """The _Plan of key = (n, collapse count, then the bytes of the nonzero patterns of
    A = -iH - S/2, B = (iH - S/2)^T, the collapse matrices and the support).

    The terms of L are A at ((i, j), (k, j)), B at ((i, j), (i, l)), and C[a1, b1]
    conj(C[a2, b2]) at ((a1, a2), (b1, b2)) for each pair of nonzeros of one collapse
    matrix C, in liouvillian_matrix's order of addition.  The entries are reached over
    the terms and their transposes from the support and its transpose.  A part is a
    connected component of the terms inside with each entry joined to its transpose,
    in the order of its lowest entry, each in increasing order.  The plan is a pure
    function of its key, and its arrays are read-only, so a cached plan never
    carries one call's values into another.
    """
    n, count, *patterns = key
    a_nz, b_nz, c_nz, support = (np.frombuffer(x, dtype=bool) for x in patterns)
    every = np.arange(n)
    i, k = np.nonzero(a_nz.reshape(n, n))
    j, l = np.nonzero(b_nz.reshape(n, n))
    ck, a, b = np.nonzero(c_nz.reshape(count, n, n))
    p, q = np.nonzero(ck[:, None] == ck[None, :])  # pairs of one C, in the order of C
    # the Hamiltonian terms, then the jump terms
    rows = np.concatenate([(i[:, None] * n + every).ravel(), (every[:, None] * n + j).ravel(),
                           a[p] * n + a[q]])
    cols = np.concatenate([(k[:, None] * n + every).ravel(), (every[:, None] * n + l).ravel(),
                           b[p] * n + b[q]])
    hamiltonian = np.concatenate([np.repeat(i * n + k, n), np.tile(n * n + j * n + l, n)])
    flat = (ck * n + a) * n + b
    jump_a, jump_b = flat[p], flat[q]

    transpose = np.arange(n * n).reshape(n, n).T.reshape(-1)
    idx = _reachable_subspace(np.concatenate([rows, transpose[rows]]),
                              np.concatenate([cols, transpose[cols]]),
                              support | support[transpose])
    m = len(idx)
    pos = np.full(n * n, m)
    pos[idx] = np.arange(m)
    inside = pos[cols] < m
    e, f = pos[rows[inside]], pos[cols[inside]]
    label = _lowest_linked(np.concatenate([e, np.arange(m)]),
                           np.concatenate([f, pos[transpose[idx]]]), m)
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    parts = tuple(slice(lo, hi) for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), m]))
    rank = np.empty(m, dtype=int)
    rank[order] = np.arange(m)
    # the Hamiltonian terms' sums, then the jump terms' sums, added as the dense L adds them
    keys = rank[e] * m + rank[f] + m * m * (np.flatnonzero(inside) >= len(hamiltonian))
    jumps = inside[len(hamiltonian):]
    basis = RealBasis(idx[order], n)
    plan = _Plan(basis, parts, hamiltonian[inside[:len(hamiltonian)]], jump_a[jumps],
                 jump_b[jumps], keys)
    _read_only(plan, *vars(basis).values())
    return plan


def _reachable_generator(H: np.ndarray, cs: list[np.ndarray], support: np.ndarray):
    """(plan, L): the _generator_plan of the entries of vec(rho) reachable from support,
    and L on them, ordered as the plan's basis.

    L holds the same sums as liouvillian_matrix(H, cs)[idx][:, idx] for the basis's idx:
    only the term values are gathered per call, the structure comes from the plan.
    """
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    C = np.asarray(cs, dtype=complex).reshape(-1, n, n)
    S = np.einsum("kji,kjl->il", C.conj(), C)  # sum of c+ c
    A, B = -1j * H - 0.5 * S, (1j * H - 0.5 * S).T
    plan = _generator_plan((n, len(C), *((x != 0).tobytes() for x in (A, B, C, support))))
    C = C.reshape(-1)
    vals = np.concatenate([np.concatenate([A.reshape(-1), B.reshape(-1)])[plan.hamiltonian],
                           C[plan.jump_a] * C[plan.jump_b].conj()])
    m = len(plan.basis.idx)
    sums = [np.bincount(plan.keys, weights=w, minlength=2 * m * m).reshape(2, m, m)
            for w in (vals.real, vals.imag)]
    L = np.empty((m, m), dtype=complex)
    L.real, L.imag = (s[0] + s[1] for s in sums)
    return plan, L


def _allocate(make, *args) -> np.ndarray:
    """make(*args), with an array too large to allocate an IntegrationError."""
    try:
        return make(*args)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise IntegrationError(f"cannot allocate the samples: {exc}") from exc


def _start(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray], dt: float,
           t_final: float) -> tuple[RealBasis, np.ndarray, list]:
    """The real basis of the entries reachable from rho0, rho0's checked coordinates
    (k, m) and (part, P) per part.

    rho0 is checked for hermiticity on its matrices, then on the basis for finite
    coordinates, unit trace and positivity, before the generator is exponentiated.
    P is the grid-step propagator of the part's coordinates, a slice of the basis,
    exponentiated from the part's block of the real generator T L T_inv, which is zero
    outside the parts; every part's P is formed before the real generator is tested for
    hermiticity.  The generator and its real form are freed on return, before evolve
    allocates the samples: a lower peak lets malloc keep the freed pages for the next
    call instead of returning them and faulting them in again.
    """
    where = " (initial state)"
    _check_hermitian(rho0, where)
    n = rho0.shape[-1]
    for name, op in (("H", H), *((f"collapse matrix {j}", c) for j, c in enumerate(cs))):
        if np.shape(op) != (n, n):
            raise ValueError(f"{name} has shape {np.shape(op)}; rho0 of shape "
                             f"{rho0.shape} needs ({n}, {n})")
    support = np.any(rho0.reshape(-1, n * n) != 0, axis=0)
    # a non-finite or overflowing generator is an IntegrationError below; mute numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        plan, L = _reachable_generator(H, cs, support)
    basis = plan.basis
    u0 = _coordinates(rho0, basis, where).reshape(-1, len(basis.idx))
    with np.errstate(over="ignore", invalid="ignore"):
        # T L T_inv is real exactly when L maps Hermitian matrices to Hermitian ones
        Lr = basis.T_dot(basis.dot_T_inv(L))
        try:
            steps = [(part, expm(Lr.real[part, part] * dt)) for part in plan.parts]
        except FloatingPointError as exc:
            raise IntegrationError(f"propagation failed: {exc}") from exc
        # numpy's max keeps a NaN, which fails the test below
        drift = np.abs(Lr.imag).max() * t_final
    if not drift <= HERMITICITY_TOL:
        raise IntegrationError(f"generator breaks hermiticity: |Im L| t_final = "
                               f"{drift:.3e} > {HERMITICITY_TOL:.0e}")
    return basis, u0, steps


def evolve(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray], t_final: float,
           samples: int) -> Trajectory:
    """Propagate rho0, one density matrix or a stack, over linspace(0, t_final, samples) us.

    The generator is built on the entries of vec(rho) reachable from rho0 and
    exponentiated once per part of them that it never couples with another.  Its
    structure (the reachable entries, the parts, the real basis and its block plans)
    depends only on the nonzero patterns of H's and the collapse matrices' terms and of
    rho0, and is analysed once per pattern (_generator_plan); a call gathers only the
    values.  H and each collapse matrix must be (n, n) for rho0's n, or a ValueError
    names the shapes.  rho0 must be Hermitian to HERMITICITY_TOL, and its coordinates
    in that basis finite, of unit trace and positive to TRACE_TOL and POSITIVITY_TOL;
    a failure is a DensityMatrixError that names the initial state.
    A generator with |Im| > HERMITICITY_TOL / t_final in real form is an IntegrationError;
    so is a sample that is not finite, or off unit trace or positivity by 10x tolerance,
    named by its time and stack index, and so is a time grid or coordinate array too
    large to allocate.  The coordinates are laid out (samples, k, m) for k initial
    states, each part's columns stepped by its own grid-step propagator P in levels of
    n = 1, 2, 4, ...: one product takes samples [0, n) through P^n to [n, 2n), the
    last level cut at the grid's end, and P^2n is P^n squared.
    Every sample is stepped, then all are checked in one pass, whose precedence is
    finiteness, then trace, then positivity, then stack order.  A sample that overflows
    in the stepping fails the check as non-finite.
    """
    if not (math.isfinite(t_final) and t_final > 0):
        raise ValueError(f"t_final must be finite and > 0, got {t_final!r}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2 (t=0 and t_final), got {samples}")
    t_grid = _allocate(np.linspace, 0.0, t_final, samples)
    rho0 = np.asarray(rho0, dtype=complex)
    basis, u0, propagators = _start(rho0, H, cs, t_grid[1], t_final)
    # U[i, j] holds the coordinates of state j at t_grid[i]; a part's columns step as u @ P^T
    k, m = u0.shape
    U = _allocate(np.empty, (samples, k, m))
    U[0] = u0
    # an overflow is reported by the check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for part, P in propagators:
            power, n = P.T, 1  # (P^n)^T
            while n < samples:
                hi = min(2 * n, samples)
                np.matmul(U[:hi - n].reshape(-1, m)[:, part], power,
                          out=U[n:hi].reshape(-1, m)[:, part])
                n, power = hi, (power @ power if hi < samples else None)
    try:
        basis.check(U, 10 * TRACE_TOL, 10 * POSITIVITY_TOL)
    except DensityMatrixError as exc:
        raise IntegrationError(f"state invariants violated at t={t_grid[exc.index[0]]:g} us: "
                               f"{exc.reason} at stack index {exc.index}") from exc
    coords = U.transpose(1, 0, 2).reshape(*rho0.shape[:-2], samples, m)
    return Trajectory(times=t_grid, coords=coords, basis=basis)


def population(traj: Trajectory, psi: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> at every sample of traj, shape (..., len(times)); psi is (..., n).

    The values are returned as computed, neither checked against [0, 1] nor clipped.
    """
    psi, basis = np.asarray(psi, dtype=complex), traj.basis
    w = basis.dot_T_inv(psi[..., basis.r].conj() * psi[..., basis.c]).real
    return (traj.coords @ w[..., None])[..., 0]
