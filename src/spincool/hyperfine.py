"""Hyperfine energies in the decoupled |mJ, mI> basis.

The magnetic-dipole (A) plus electric-quadrupole (Q) interaction is diagonal
in F, with the Casimir energies E_F of f_level_energy.  Over |mJ, mI> it is
sum_F E_F |F mF><F mF|, so each matrix element is E_F weighted by the
Clebsch-Gordan overlaps of the two states with |F mF>, and only states of
equal mF = mJ + mI are coupled.  Energies are frequencies (value/2pi) in MHz
throughout; the 1P1 Zeeman shift is added by the model (srmodel).
"""

from __future__ import annotations

import math

from ._record import FrozenRecord
from .angmom import HalfInt, clebsch_gordan

__all__ = [
    "HyperfineConstants",
    "SpinSpace",
    "hf_element",
    "hf_block",
    "f_level_energy",
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


def hf_element(c: HyperfineConstants, s: SpinSpace, mJp, mIp, mJ, mI) -> float:
    """<mJ', mI' | A I.J + quadrupole | mJ, mI> in MHz: the one-pair case of hf_block.

    Exactly 0.0 unless mJ' + mI' = mJ + mI; a ValueError for a projection
    outside its J or I.
    """
    states = [(HalfInt.coerce(mJp), HalfInt.coerce(mIp)), (HalfInt.coerce(mJ), HalfInt.coerce(mI))]
    return hf_block(c, s, states)[0][1]


def hf_block(c: HyperfineConstants, s: SpinSpace,
             states: list[tuple[HalfInt, HalfInt]]) -> list[list[float]]:
    """Hyperfine interaction over |mJ, mI> states, without the Zeeman term: MHz, nested lists.

    Each element is sum over F of E_F <J mJ'; I mI'|F mF> <J mJ; I mI|F mF>,
    F ascending from max(|I-J|, |mF|) to I+J.  One pass: E_F once per F, each
    state's overlaps once per F >= |mF|, and each pair of equal mF = mJ + mI
    summed with its two overlaps multiplied first, so the block is symmetric
    to the bit.  Pairs of unequal mF are exactly 0.0.  A projection outside its
    J or I is a ValueError.
    """
    I, J = s.I, s.J
    f_lo, f_hi = abs(I.twice - J.twice), I.twice + J.twice
    energies = [f_level_energy(c, I, J, HalfInt(tf)) for tf in range(f_lo, f_hi + 1, 2)]
    # per state: twice mF, and its overlaps with |F mF> for F from max(f_lo, |mF|) up
    overlaps = []
    for mJ, mI in states:
        for m, j, name in ((mJ, J, "mJ"), (mI, I, "mI")):
            if abs(m.twice) > j.twice or (j.twice - m.twice) % 2 != 0:
                raise ValueError(f"{name}={m} out of range for j={j}")
        mF = mJ + mI
        overlaps.append((mF.twice, [clebsch_gordan(J, mJ, I, mI, HalfInt(tf), mF)
                                    for tf in range(max(f_lo, abs(mF.twice)), f_hi + 1, 2)]))
    n = len(states)
    out = [[0.0] * n for _ in range(n)]
    for i, (tmf, row) in enumerate(overlaps):
        e_f = energies[len(energies) - len(row):]  # the E_F of the F in row
        for k in range(i, n):
            tmf_k, col = overlaps[k]
            if tmf_k == tmf:
                val = 0.0
                for e, a, b in zip(e_f, row, col):
                    val += e * (a * b)
                out[i][k] = out[k][i] = val
    return out


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

