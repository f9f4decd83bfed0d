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
from .angmom import _cg, _twice

__all__ = [
    "HyperfineConstants",
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


def hf_element(c: HyperfineConstants, I, J, mJp, mIp, mJ, mI) -> float:
    """<mJ', mI' | A I.J + quadrupole | mJ, mI> in MHz: the one-pair case of hf_block.

    Exactly 0.0 unless mJ' + mI' = mJ + mI; a ValueError for a projection
    outside its J or I.
    """
    return hf_block(c, I, J, [(mJp, mIp), (mJ, mI)])[0][1]


def hf_block(c: HyperfineConstants, I, J, states) -> list[list[float]]:
    """Hyperfine interaction of spin I and J over (mJ, mI) states, without the Zeeman term.

    MHz, as nested lists.  Each element is sum over F of
    E_F <J mJ'; I mI'|F mF> <J mJ; I mI|F mF>, F ascending from
    max(|I-J|, |mF|) to I+J.  One pass: E_F once per F, each state's overlaps
    once per F >= |mF|, and each pair of equal mF = mJ + mI summed with its two
    overlaps multiplied first, so the block is symmetric to the bit.  Pairs of
    unequal mF are exactly 0.0.  A negative I or J, or a projection outside its
    J or I, is a ValueError.
    """
    tI, tJ = _twice(I), _twice(J)
    if tI < 0 or tJ < 0:
        raise ValueError("I and J must be non-negative")
    f_lo, f_hi = abs(tI - tJ), tI + tJ
    energies = [f_level_energy(c, I, J, tf / 2) for tf in range(f_lo, f_hi + 1, 2)]
    # per state: twice mF, and its overlaps with |F mF> for F from max(f_lo, |mF|) up
    overlaps = []
    for mJ, mI in states:
        tmj, tmi = _twice(mJ), _twice(mI)
        for m, tm, j, tj, name in ((mJ, tmj, J, tJ, "mJ"), (mI, tmi, I, tI, "mI")):
            if abs(tm) > tj or (tj - tm) % 2 != 0:
                raise ValueError(f"{name}={m} out of range for j={j}")
        tmf = tmj + tmi
        overlaps.append((tmf, [_cg(tJ, tmj, tI, tmi, tf, tmf)
                               for tf in range(max(f_lo, abs(tmf)), f_hi + 1, 2)]))
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
    tI, tJ, tF = _twice(I), _twice(J), _twice(F)
    if not abs(tI - tJ) <= tF <= tI + tJ:
        raise ValueError(f"F={F} outside |I-J|..I+J for I={I}, J={J}")
    iv, jv, fv = tI / 2.0, tJ / 2.0, tF / 2.0
    K = fv * (fv + 1) - iv * (iv + 1) - jv * (jv + 1)
    e = c.A * K / 2
    if tI >= 2 and tJ >= 2:
        e += c.Q * (1.5 * K * (K + 1) - 2 * iv * (iv + 1) * jv * (jv + 1)) \
            / (2 * iv * (2 * iv - 1) * 2 * jv * (2 * jv - 1))
    return e

