"""Independent reference implementations used only by the tests.

These deliberately share no code with the package: the Clebsch-Gordan
oracle is the closed-form Racah factorial sum evaluated in exact rational
arithmetic, the hyperfine oracle builds I.J and (I.J)^2 as explicit
operator matrices from spin matrices, the right-hand-side oracle applies
the master equation to rho by matrix products, and the two propagation
oracles exponentiate the full column-major Liouvillian once per sample
time or integrate it with adaptive Runge-Kutta (DOP853).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


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

    Each time is reached in one exponential rather than by stepping.
    """
    from scipy.linalg import expm

    L = _column_major_liouvillian(H, cs)
    n = len(H)
    v0 = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    return np.array([(expm(L * t) @ v0).reshape(n, n, order="F") for t in times])


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
