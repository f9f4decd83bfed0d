"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the Clebsch-Gordan
oracle is the closed-form Racah factorial sum evaluated in exact rational
arithmetic, the hyperfine oracle builds I.J and (I.J)^2 as explicit
operator matrices from spin matrices, the 87Sr model oracle builds its
Hamiltonian and jumps on the |mJ, mI> product space from those two and the
Racah coefficients (taking only the frozen constants from the package), the
right-hand-side oracle applies
the master equation to rho by matrix products, the two propagation
oracles exponentiate the full column-major Liouvillian once per sample
time or integrate it with adaptive Runge-Kutta (DOP853), and the real-basis
oracle writes the engine's coordinate maps as dense matrices, entry by
entry, from the index set alone.  The isotope-estimate oracle keeps the whole
J = 1 (x) I manifold that the package reduces to one mF sector, and the
dressed-pair oracle, which takes the package's Hamiltonian, diagonalizes all
13 levels with numpy where the package diagonalizes each target's sector by
Jacobi rotations.

spin_basis and hf_matrix are the one exception: not oracles, they lay the
package's own hf_block over the whole lexicographic |mJ, mI> basis, so that
the tests can compare it with operator_hf_matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from spincool.analysis import AmbiguousOverlapError, DressedPair
from spincool.constants import MU_B_MHZ_PER_G, MU_N_MHZ_PER_G, SR87_NUCLEAR_MOMENT
from spincool.hyperfine import HyperfineConstants, hf_block
from spincool.srmodel import TWO_PI, BasisState, hamiltonian


def _fact(n: int) -> int:
    if n < 0:
        raise ValueError("negative factorial")
    return math.factorial(n)


def racah_cg(j1: float, m1: float, j2: float, m2: float, J: float, M: float) -> float:
    """Clebsch-Gordan coefficient by the Racah factorial sum (exact rationals)."""
    tj1, tm1 = round(2 * j1), round(2 * m1)
    tj2, tm2 = round(2 * j2), round(2 * m2)
    tJ, tM = round(2 * J), round(2 * M)
    if tM != tm1 + tm2:
        return 0.0
    if not abs(tj1 - tj2) <= tJ <= tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tJ) % 2 != 0:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0

    def half(t: int) -> int:
        assert t % 2 == 0
        return t // 2

    pre = Fraction(tJ + 1) * Fraction(
        _fact(half(tj1 + tj2 - tJ)) * _fact(half(tj1 - tj2 + tJ))
        * _fact(half(-tj1 + tj2 + tJ)), _fact(half(tj1 + tj2 + tJ) + 1))
    pre *= Fraction(
        _fact(half(tJ + tM)) * _fact(half(tJ - tM)) * _fact(half(tj1 - tm1))
        * _fact(half(tj1 + tm1)) * _fact(half(tj2 - tm2)) * _fact(half(tj2 + tm2)))

    k_min = max(0, half(tj2 - tJ - tm1), half(tj1 + tm2 - tJ))
    k_max = min(half(tj1 + tj2 - tJ), half(tj1 - tm1), half(tj2 + tm2))
    total = Fraction(0)
    for k in range(k_min, k_max + 1):
        denom = (_fact(k) * _fact(half(tj1 + tj2 - tJ) - k)
                 * _fact(half(tj1 - tm1) - k) * _fact(half(tj2 + tm2) - k)
                 * _fact(half(tJ - tj2 + tm1) + k) * _fact(half(tJ - tj1 - tm2) + k))
        total += Fraction((-1) ** k, denom)
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * math.sqrt(float(pre * total * total))


def spin_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Jx, Jy, Jz) over |m> ascending, m = -j ... +j."""
    tj = round(2 * j)
    dim = tj + 1
    ms = np.array([(-tj + 2 * k) / 2.0 for k in range(dim)])
    jz = np.diag(ms)
    jp = np.zeros((dim, dim))
    for k in range(dim - 1):
        jp[k + 1, k] = math.sqrt(j * (j + 1) - ms[k] * (ms[k] + 1))
    jm = jp.T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    return jx, jy, jz


def operator_hf_matrix(A: float, Q: float, I: float, J: float) -> np.ndarray:
    """A I.J + quadrupole term from explicit operator matrices, |mJ, mI> lexicographic."""
    Ix, Iy, Iz = spin_matrices(I)
    Jx, Jy, Jz = spin_matrices(J)
    IJ = sum(np.kron(Jk, Ik) for Jk, Ik in ((Jx, Ix), (Jy, Iy), (Jz, Iz)))
    dim = IJ.shape[0]
    H = A * IJ
    if I >= 1 and J >= 1:
        H = H + Q * (3 * IJ @ IJ + 1.5 * IJ
                     - I * J * (I + 1) * (J + 1) * np.eye(dim)) \
            / (2 * I * J * (2 * I - 1) * (2 * J - 1))
    return H


def spin_basis(I: float, J: float) -> list[tuple[float, float]]:
    """(mJ, mI) pairs of I (x) J in lexicographic order: mJ ascending, mI ascending within."""
    tI, tJ = round(2 * I), round(2 * J)
    return [(tmj / 2, tmi / 2) for tmj in range(-tJ, tJ + 1, 2) for tmi in range(-tI, tI + 1, 2)]


def hf_matrix(c: HyperfineConstants, I: float, J: float) -> np.ndarray:
    """The package's hf_block over spin_basis(I, J), in MHz."""
    return np.array(hf_block(c, I, J, spin_basis(I, J)))


def full_manifold_overlap(A: float, Q: float, I: float, omega_ps: float) -> float:
    """The isotope estimate's spin-mixing overlap, on the whole J = 1 (x) I manifold.

    The operator-built hyperfine matrix over |mJ, mI> (lexicographic) and one
    auxiliary level coupled to |mJ=0, mI=-I> at omega_ps/2; the largest
    |component| of |mJ=-1, mI=1-I> over the eigenvectors.
    """
    n_i = round(2 * I) + 1
    n = 3 * n_i
    up, target = 1, n_i  # |mJ=-1, mI=1-I> and |mJ=0, mI=-I>
    H = np.zeros((n + 1, n + 1))
    H[:n, :n] = operator_hf_matrix(A, Q, I, 1.0).real
    H[n, target] = H[target, n] = omega_ps / 2
    return float(np.abs(np.linalg.eigh(H)[1][up]).max())


def full_dressed_pair(p) -> DressedPair:
    """dressed_pair on the whole 13x13 Hamiltonian, by np.linalg.eigh.

    The same selection as the package: for each spin target the eigenvector of
    largest |overlap|, and an AmbiguousOverlapError when the runner-up is
    within 1e-9 of it.  Vectors are 13-float lists.
    """
    H = hamiltonian(p.replace(omega_eff=0.0)) / TWO_PI
    energies, vectors = np.linalg.eigh(H)

    def select(target: BasisState) -> tuple[list[float], float, float]:
        weights = np.abs(vectors[target, :])
        order = np.argsort(weights)
        best, runner_up = order[-1], order[-2]
        if weights[best] - weights[runner_up] < 1e-9:
            raise AmbiguousOverlapError(
                f"overlap tie for state {target.name}: "
                f"{weights[best]:.12f} vs {weights[runner_up]:.12f}")
        return vectors[:, best].tolist(), float(energies[best]), float(weights[best])

    vec_up, e_up, ov_up = select(BasisState.P1_M1_UP)
    vec_down, e_down, ov_down = select(BasisState.P1_M1_DOWN)
    return DressedPair(e_up=vec_up, e_down=vec_down, energy_up=e_up,
                       energy_down=e_down, overlap_up=ov_up, overlap_down=ov_down)


# The 13 states of the 87Sr model, in its basis order, as product-space labels:
# (manifold, 2F, 2mF) for 1D2, (manifold, 2mJ, 2mI) for 1P1, (manifold, 2mI) for
# the J = 0 manifolds, and the reservoir alone.
SR87_STATES = (
    ("1D2", 13, -13), ("1D2", 13, -11), ("1D2", 11, -11), ("6s", -9),
    ("1P1", 0, -9), ("1P1", -2, -7), ("1P1", -2, -9), ("clock", -7), ("clock", -9),
    ("ground", -7), ("ground", -9), ("reservoir",), ("1P1", 2, -9),
)


def sr87_product_model(p) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """(H, jumps, index of each SR87_STATES label) of 87Sr on the product space, rad/us.

    p carries the model's fields (omega_eff, ..., e_hf) by attribute.  The space
    is 1P1 |mJ, mI> (mJ then mI ascending), the 1D2 levels F = 13/2 and 11/2
    that the dressing laser addresses as |F, mF> (F descending, mF ascending),
    then |mI> of 6s, clock and ground, and one reservoir state; I = 9/2.

    - 1P1: A I.J + quadrupole, gJ = 1 Zeeman with the nuclear term
      -(mu/I) mu_N B Iz, and delta on the driven mJ = -1 and 0 levels.
    - 1D2: delta_pd + delta, plus e_hf on F = 11/2; 6s: delta + delta_ps_extra.
    - sigma-minus dressing 1P1 |mJ> -> 1D2 |mJ - 1> at omega_pd/2 times the
      dipole coefficient <1 mJ; 1 -1|2 mJ-1> coupled to |F, mF>, relative to
      the stretched line; omega_ps/2 between 6s and 1P1 mJ = 0 and
      omega_eff/2 between clock and 1P1 mJ = -1, both at equal mI.
    - Jumps: 1P1 mJ -> ground at sqrt(gamma_p) <1 mJ; 1 -mJ|0 0> for mJ = -1,
      0, 1; 6s -> 1P1 mJ at sqrt(gamma_s) for mJ = 0, 1, -1; each 1D2 state to
      the reservoir at sqrt(gamma_d).
    """
    I, n_i = 4.5, 10
    eye_i = np.eye(n_i)
    mis = np.arange(-I, I + 1)
    d2 = [(F, mF) for F in (6.5, 5.5) for mF in np.arange(-F, F + 1)]
    start = {"1P1": 0, "1D2": 3 * n_i, "6s": 3 * n_i + len(d2)}
    start["clock"] = start["6s"] + n_i
    start["ground"] = start["clock"] + n_i
    start["reservoir"] = start["ground"] + n_i
    n = start["reservoir"] + 1
    P = slice(0, 3 * n_i)
    D = slice(start["1D2"], start["6s"])

    def block(name: str) -> slice:
        return slice(start[name], start[name] + n_i)

    def mj_row(mJ: int) -> np.ndarray:
        """|mJ><mJ| picked out of J = 1 as a 1 x 3 row, mJ ascending."""
        return np.eye(3)[[mJ + 1]]

    def label_index(label) -> int:
        manifold, *twice = label
        if manifold == "1P1":
            return (twice[0] // 2 + 1) * n_i + (twice[1] + 9) // 2
        if manifold == "1D2":
            return start["1D2"] + d2.index((twice[0] / 2, twice[1] / 2))
        if manifold == "reservoir":
            return start["reservoir"]
        return start[manifold] + (twice[0] + 9) // 2

    _, _, Jz = spin_matrices(1.0)
    _, _, Iz = spin_matrices(I)
    H = np.zeros((n, n))
    H[P, P] = (operator_hf_matrix(p.a_1p1, p.q_1p1, I, 1.0).real
               + p.b_field * MU_B_MHZ_PER_G * np.kron(Jz, eye_i)
               - SR87_NUCLEAR_MOMENT / I * MU_N_MHZ_PER_G * p.b_field * np.kron(np.eye(3), Iz)
               + np.kron(np.diag([p.delta, p.delta, 0.0]), eye_i))
    H[D, D] = np.diag([p.delta_pd + p.delta + (p.e_hf if F == 5.5 else 0.0) for F, _ in d2])
    H[block("6s"), block("6s")] = (p.delta + p.delta_ps_extra) * eye_i

    # <J=2 mJ', mI | d- | J=1 mJ, mI>, then <F mF | mJ', mI> onto the coupled states
    dipole = np.array([[racah_cg(1, mJ, 1, -1, 2, mJp) for mJ in (-1, 0, 1)]
                       for mJp in range(-2, 3)])
    to_f = np.array([[racah_cg(2, mJp, I, mI, F, mF) for mJp in range(-2, 3) for mI in mis]
                     for F, mF in d2])
    dressing = to_f @ np.kron(dipole, eye_i)
    dressing /= dressing[label_index(("1D2", 13, -13)) - start["1D2"],
                         label_index(("1P1", -2, -9))]
    couplings = ((D, P, p.omega_pd * dressing),
                 (block("6s"), P, p.omega_ps * np.kron(mj_row(0), eye_i)),
                 (block("clock"), P, p.omega_eff * np.kron(mj_row(-1), eye_i)))
    for rows, cols, omega in couplings:
        H[rows, cols] = omega / 2
        H[cols, rows] = omega.T / 2

    def jump(rows: slice, cols: slice, amplitude: np.ndarray) -> np.ndarray:
        out = np.zeros((n, n))
        out[rows, cols] = amplitude
        return out

    jumps = [jump(block("ground"), P, math.sqrt(2 * math.pi * p.gamma_p)
                  * racah_cg(1, mJ, 1, -mJ, 0, 0) * np.kron(mj_row(mJ), eye_i))
             for mJ in (-1, 0, 1)]
    jumps += [jump(P, block("6s"), math.sqrt(2 * math.pi * p.gamma_s)
                   * np.kron(mj_row(mJ), eye_i).T) for mJ in (0, 1, -1)]
    reservoir = slice(start["reservoir"], n)
    jumps += [jump(reservoir, slice(start["1D2"] + k, start["1D2"] + k + 1),
                   math.sqrt(2 * math.pi * p.gamma_d)) for k in range(len(d2))]
    return 2 * math.pi * H, jumps, [label_index(label) for label in SR87_STATES]


def half_values(j_max: float):
    """0, 1/2, 1, ... j_max."""
    return [t / 2.0 for t in range(0, round(2 * j_max) + 1)]


def liouvillian_apply(H: np.ndarray, cs: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """drho/dt = i (rho H - H rho) + sum_k c rho c+ - (c+c rho + rho c+c) / 2."""
    rho = np.asarray(rho, dtype=complex)
    out = 1j * (rho @ H - H @ rho)
    for c in cs:
        cd = c.conj().T
        cdc = cd @ c
        out += c @ rho @ cd - 0.5 * (cdc @ rho + rho @ cdc)
    return out


def _column_major_liouvillian(H: np.ndarray, cs: list[np.ndarray]) -> np.ndarray:
    """L with vec(drho/dt) = L vec(rho) for column-major vectorization.

    vec(A rho B) = (B^T kron A) vec(rho), the transpose of the package's
    row-major convention.
    """
    H = np.asarray(H, dtype=complex)
    eye = np.eye(H.shape[0])
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for c in cs:
        cd = c.conj().T
        cdc = cd @ c
        L = L + np.kron(c.conj(), c) - 0.5 * (np.kron(eye, cdc) + np.kron(cdc.T, eye))
    return L


def one_shot_lindblad(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray],
                      times) -> np.ndarray:
    """rho(t) = expm(L t) vec(rho0) at each t, with the full n^2-dimensional L.

    rho0 is one density matrix (n, n) or a stack (k, n, n); the result has shape
    (len(times), *rho0.shape).  Each time is reached in one exponential rather
    than by stepping, shared by the whole stack.
    """
    from scipy.linalg import expm

    L = _column_major_liouvillian(H, cs)
    n = len(H)
    rho0 = np.asarray(rho0, dtype=complex)
    # column-major vec(rho) of each matrix, one per column
    v0 = rho0.reshape(-1, n, n).transpose(0, 2, 1).reshape(-1, n * n).T
    out = [(expm(L * t) @ v0).T.reshape(-1, n, n).transpose(0, 2, 1) for t in times]
    return np.array(out).reshape(len(times), *rho0.shape)


def adaptive_lindblad(rho0: np.ndarray, H: np.ndarray, cs: list[np.ndarray],
                      times, rtol: float = 1e-8, atol: float = 1e-10) -> np.ndarray:
    """rho(t) at each t by adaptive DOP853 integration of the full L."""
    from scipy.integrate import solve_ivp

    L = _column_major_liouvillian(H, cs)
    n = len(H)
    v0 = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    sol = solve_ivp(lambda t, y: L @ y, (0.0, float(times[-1])), v0, method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    assert sol.success, sol.message
    return np.array([y.reshape(n, n, order="F") for y in sol.y.T])


def real_basis_matrices(idx, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense (T, T_inv) of the real coordinates on the entries idx of row-major vec(rho).

    Coordinate k, at idx[k] = r*n + c, is rho_rr on the diagonal, Re rho_rc above
    it and Im rho_cr below it; u = T v and v = T_inv u for v = vec(rho)[idx] of a
    Hermitian rho.  Each entry is written from that convention, with t the
    position of the transposed entry c*n + r: Re rho_rc = (v_k + v_t) / 2,
    Im rho_cr = (v_t - v_k) / 2i, rho_rc = u_k + i u_t above the diagonal and
    rho_rc = u_t - i u_k below it.
    """
    at = {int(e): k for k, e in enumerate(idx)}
    m = len(at)
    T = np.zeros((m, m), dtype=complex)
    T_inv = np.zeros((m, m), dtype=complex)
    for e, k in at.items():
        r, c = divmod(e, n)
        if r == c:
            T[k, k] = T_inv[k, k] = 1.0
            continue
        t = at[c * n + r]
        if r < c:
            T[k, k] = T[k, t] = 0.5
            T_inv[k, k], T_inv[k, t] = 1.0, 1j
        else:
            T[k, k], T[k, t] = 0.5j, -0.5j
            T_inv[k, k], T_inv[k, t] = -1j, 1.0
    return T, T_inv


def full_states(traj) -> np.ndarray:
    """The density matrices (..., len(times), n, n) of a Trajectory.

    Reads only traj.coords and its basis's idx and n: the entries at idx are
    T_inv applied to each state's coordinates, every other entry is 0.
    """
    idx, n = traj.basis.idx, traj.basis.n
    rho = np.zeros(traj.coords.shape[:-1] + (n * n,), dtype=complex)
    rho[..., idx] = traj.coords @ real_basis_matrices(idx, n)[1].T
    return rho.reshape(*rho.shape[:-1], n, n)
