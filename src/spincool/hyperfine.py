"""Hyperfine and Zeeman energies in the decoupled |mJ, mI> basis.

Implements the magnetic-dipole (A) plus electric-quadrupole (Q) interaction
as explicit matrix elements: a diagonal part, the Delta mJ = -+1 /
Delta mI = +-1 ladder terms, and the Delta mJ = -+2 / Delta mI = +-2
quadrupole terms.  Only states with equal mJ + mI are coupled.  Energies are
frequencies (value/2pi) in MHz throughout.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._record import FrozenRecord
from .angmom import HalfInt, ladder_a, ladder_b
from .constants import MU_B_MHZ_PER_G, MU_N_MHZ_PER_G

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "HyperfineConstants",
    "SpinSpace",
    "ZeemanParams",
    "hf_element",
    "hf_block",
    "hf_matrix",
    "f_level_energy",
    "zeeman_diag",
]


class HyperfineConstants(FrozenRecord):
    """Magnetic-dipole constant A and electric-quadrupole constant Q, in MHz."""

    __slots__ = _fields = ("A", "Q")

    def __init__(self, A: float, Q: float):
        self._assign(locals())
        if not (math.isfinite(A) and math.isfinite(Q)):
            raise ValueError("hyperfine constants must be finite")


class SpinSpace(FrozenRecord):
    """A nuclear spin I coupled to an electronic angular momentum J."""

    __slots__ = _fields = ("I", "J")

    def __init__(self, I: HalfInt, J: HalfInt):
        I, J = HalfInt.coerce(I), HalfInt.coerce(J)
        self._assign(locals())
        if I.twice < 0 or J.twice < 0:
            raise ValueError("I and J must be non-negative")

    def basis(self) -> list[tuple[HalfInt, HalfInt]]:
        """(mJ, mI) pairs in lexicographic order: mJ ascending, mI ascending within."""
        return [
            (HalfInt(tmj), HalfInt(tmi))
            for tmj in range(-self.J.twice, self.J.twice + 1, 2)
            for tmi in range(-self.I.twice, self.I.twice + 1, 2)
        ]

    @property
    def has_quadrupole(self) -> bool:
        # the quadrupole denominator 2IJ(2I-1)(2J-1) vanishes for I or J < 1
        return self.I.twice >= 2 and self.J.twice >= 2


class ZeemanParams(FrozenRecord):
    """Magnetic field B (gauss), electronic g-factor, and nuclear moment (units of mu_N).

    The nuclear moment is the measured total moment of the nucleus; the
    nuclear Zeeman energy is modelled as -(moment/I) mu_N B mI.
    """

    __slots__ = _fields = ("B", "gJ", "mu_nuclear", "I")

    def __init__(self, B: float, gJ: float, mu_nuclear: float, I: HalfInt):
        I = HalfInt.coerce(I)
        self._assign(locals())
        if B < 0:
            raise ValueError("B must be >= 0")
        if not math.isfinite(gJ):
            raise ValueError("gJ must be finite")


def hf_element(c: HyperfineConstants, s: SpinSpace, mJp, mIp, mJ, mI) -> float:
    """<mJ', mI' | A I.J + quadrupole | mJ, mI> in MHz.

    Structurally zero unless mJ' + mI' = mJ + mI.
    """
    mJp, mIp = HalfInt.coerce(mJp), HalfInt.coerce(mIp)
    mJ, mI = HalfInt.coerce(mJ), HalfInt.coerce(mI)
    for m, j, name in ((mJp, s.J, "mJ'"), (mJ, s.J, "mJ"), (mIp, s.I, "mI'"), (mI, s.I, "mI")):
        if abs(m.twice) > j.twice or (j.twice - m.twice) % 2 != 0:
            raise ValueError(f"{name}={m} out of range for j={j}")
    if mJp.twice + mIp.twice != mJ.twice + mI.twice:
        return 0.0

    iv, jv = s.I.value, s.J.value
    mjv, miv = mJ.value, mI.value
    quad = s.has_quadrupole
    den = 2 * iv * jv * (2 * iv - 1) * (2 * jv - 1)

    dmj = (mJp.twice - mJ.twice) // 2
    val = 0.0
    if dmj == 0:
        val = c.A * miv * mjv
        if quad:
            val += c.Q * (3 * miv**2 * mjv**2 + 1.5 * miv * mjv
                          - iv * jv * (iv + 1) * (jv + 1)) / den
            val += c.Q * 3 * (iv + miv) * (iv - miv + 1) * (jv - mjv) * (jv + mjv + 1) / (4 * den)
            val += c.Q * 3 * (iv - miv) * (iv + miv + 1) * (jv + mjv) * (jv - mjv + 1) / (4 * den)
    elif dmj == -1:
        a = ladder_a(s.I, s.J, mJ, mI)
        val = 0.5 * c.A * a
        if quad:
            val += c.Q * (1.5 * (miv * mjv + (miv + 1) * (mjv - 1)) * a + 0.75 * a) / den
    elif dmj == 1:
        b = ladder_b(s.I, s.J, mJ, mI)
        val = 0.5 * c.A * b
        if quad:
            val += c.Q * (1.5 * (miv * mjv + (miv - 1) * (mjv + 1)) * b + 0.75 * b) / den
    elif dmj == -2 and quad:
        val = c.Q * 3 * ladder_a(s.I, s.J, mJ, mI) \
            * ladder_a(s.I, s.J, mJ - HalfInt(2), mI + HalfInt(2)) / (4 * den)
    elif dmj == 2 and quad:
        val = c.Q * 3 * ladder_b(s.I, s.J, mJ, mI) \
            * ladder_b(s.I, s.J, mJ + HalfInt(2), mI - HalfInt(2)) / (4 * den)
    return val


def hf_block(c: HyperfineConstants, s: SpinSpace, states: list[tuple[HalfInt, HalfInt]],
             zeeman: ZeemanParams | None = None) -> list[list[float]]:
    """Hyperfine (+ Zeeman, if given, on the diagonal) over |mJ, mI> states: MHz, nested lists.

    Pairs of unequal mF = mJ + mI are zero and skipped; the upper triangle is
    mirrored, as transpose pairs of the ladder terms differ by 1 ulp if computed apart.
    """
    n = len(states)
    out = [[0.0] * n for _ in range(n)]
    for i, (mJp, mIp) in enumerate(states):
        for k in range(i, n):
            mJ, mI = states[k]
            if mJp.twice + mIp.twice == mJ.twice + mI.twice:
                out[i][k] = out[k][i] = hf_element(c, s, mJp, mIp, mJ, mI)
        if zeeman is not None:
            out[i][i] += zeeman_diag(zeeman, mJp, mIp)
    return out


def hf_matrix(c: HyperfineConstants, s: SpinSpace) -> np.ndarray:
    """Hyperfine matrix over the lexicographic |mJ, mI> basis, in MHz.

    Hermitian (real symmetric) and block diagonal in mJ + mI.
    """
    import numpy as np

    return np.array(hf_block(c, s, s.basis()))


def f_level_energy(c: HyperfineConstants, I, J, F) -> float:
    """Energy of the F multiplet in MHz (Casimir form).

    With K = F(F+1) - I(I+1) - J(J+1):
    E = A K / 2 + Q [1.5 K (K+1) - 2 I(I+1) J(J+1)] / [2I(2I-1) 2J(2J-1)].
    """
    I, J, F = HalfInt.coerce(I), HalfInt.coerce(J), HalfInt.coerce(F)
    if not (abs(I.twice - J.twice) <= F.twice <= I.twice + J.twice):
        raise ValueError(f"F={F} outside |I-J|..I+J for I={I}, J={J}")
    iv, jv, fv = I.value, J.value, F.value
    K = fv * (fv + 1) - iv * (iv + 1) - jv * (jv + 1)
    e = c.A * K / 2
    if I.twice >= 2 and J.twice >= 2:
        e += c.Q * (1.5 * K * (K + 1) - 2 * iv * (iv + 1) * jv * (jv + 1)) \
            / (2 * iv * (2 * iv - 1) * 2 * jv * (2 * jv - 1))
    return e


def zeeman_diag(z: ZeemanParams, mJ, mI) -> float:
    """Diagonal Zeeman energy gJ mu_B B mJ - (mu/I) mu_N B mI, in MHz."""
    mJ, mI = HalfInt.coerce(mJ), HalfInt.coerce(mI)
    electronic = z.gJ * MU_B_MHZ_PER_G * z.B * mJ.value
    nuclear = 0.0
    if z.I.twice > 0:
        nuclear = -(z.mu_nuclear / z.I.value) * MU_N_MHZ_PER_G * z.B * mI.value
    return electronic + nuclear
