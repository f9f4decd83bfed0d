"""Exact angular-momentum algebra.

Clebsch-Gordan coefficients (Condon-Shortley convention), which build the
hyperfine matrix elements from the F-level energies and the dipole
amplitudes of the 87Sr cooling model.

Quantum numbers are carried as :class:`HalfInt` (twice-value integers), so
half-integer arithmetic is exact; floating point appears only in returned
coefficients.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from ._record import FrozenRecord

__all__ = [
    "HalfInt",
    "clebsch_gordan",
]


class HalfInt(FrozenRecord):
    """An exact integer or half-integer quantum number, stored as twice its value."""

    __slots__ = _fields = ("twice",)

    def __init__(self, twice: int):
        if not isinstance(twice, int):
            raise TypeError(f"HalfInt stores twice the value as int, got {twice!r}")
        object.__setattr__(self, "twice", twice)

    @classmethod
    def coerce(cls, x) -> "HalfInt":
        """Accept a HalfInt, an int, or a float that is exactly n/2."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, float):
            twice = 2 * x
            if not twice.is_integer():  # also inf and nan
                raise ValueError(f"{x} is not an integer or half-integer")
            return cls(int(twice))
        # operator.index takes what numbers.Integral registers (bool and numpy
        # integers too) without importing the numbers module
        try:
            return cls(2 * operator.index(x))
        except TypeError:
            raise TypeError(f"cannot interpret {x!r} as a half-integer") from None

    @property
    def value(self) -> float:
        return self.twice / 2.0

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __eq__(self, other) -> bool:
        try:
            return self.twice == HalfInt.coerce(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __hash__(self) -> int:
        # equal to an int or float of the same value, so it hashes as that value does
        half, odd = divmod(self.twice, 2)
        return hash(self.twice / 2 if odd else half)

    def __repr__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def _check_jm(j: HalfInt, m: HalfInt, what: str = "") -> None:
    if j.twice < 0:
        raise ValueError(f"negative angular momentum {what}j={j}")
    if (j.twice - m.twice) % 2 != 0:
        raise ValueError(f"{what}m={m} is not integer-spaced from j={j}")
    if abs(m.twice) > j.twice:
        raise ValueError(f"|{what}m|={m} exceeds j={j}")


@lru_cache(maxsize=None)
def _coupled_basis(tj1: int, tj2: int) -> dict:
    """Every coupled state |J, M> of j1 (x) j2 expanded over the product basis.

    Built by seeding each highest-weight state |J, J> from J+ |J, J> = 0 and
    then applying the total lowering operator.  Over the product states
    (m1, J - m1) in ascending m1, J+ |J, J> = 0 is the two-term recursion
    c(m1 + 1) = -c(m1) sqrt(j1(j1+1) - m1(m1+1)) / sqrt(j2(j2+1) - m2'(m2'+1))
    with m2' = J - m1 - 1 the next state's m2; the sign follows the
    Condon-Shortley convention: positive coefficient on the largest m1.
    Returns a dict keyed by (tJ, tM) whose values map (tm1, tm2) -> coefficient.
    """
    j1 = tj1 / 2.0
    j2 = tj2 / 2.0

    def product_states(tM):
        out = []
        for tm1 in range(-tj1, tj1 + 1, 2):
            tm2 = tM - tm1
            if -tj2 <= tm2 <= tj2:
                out.append((tm1, tm2))
        return out

    table: dict = {}
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 2, -2):
        tM = tJ
        basis = product_states(tM)
        coeffs = [1.0]
        for tm1, tm2 in basis[1:]:
            m1, m2 = tm1 / 2.0 - 1, tm2 / 2.0
            coeffs.append(-coeffs[-1] * math.sqrt(j1 * (j1 + 1) - m1 * (m1 + 1))
                          / math.sqrt(j2 * (j2 + 1) - m2 * (m2 + 1)))
        norm = math.copysign(math.hypot(*coeffs), coeffs[-1])
        vec = {s: c / norm for s, c in zip(basis, coeffs)}
        table[(tJ, tM)] = vec
        J = tJ / 2.0
        while tM > -tJ:
            M = tM / 2.0
            norm = math.sqrt(J * (J + 1) - M * (M - 1))
            lowered: dict = {}
            for (tm1, tm2), c in vec.items():
                m1 = tm1 / 2.0
                m2 = tm2 / 2.0
                f1 = j1 * (j1 + 1) - m1 * (m1 - 1)
                if f1 > 0:
                    key = (tm1 - 2, tm2)
                    lowered[key] = lowered.get(key, 0.0) + c * math.sqrt(f1) / norm
                f2 = j2 * (j2 + 1) - m2 * (m2 - 1)
                if f2 > 0:
                    key = (tm1, tm2 - 2)
                    lowered[key] = lowered.get(key, 0.0) + c * math.sqrt(f2) / norm
            tM -= 2
            vec = lowered
            table[(tJ, tM)] = vec
    return table


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Returns 0 for M != m1 + m2, |M| > J, or couplings outside the triangle
    rule: the coupled basis holds no such entry.
    Arguments may be HalfInt, int, or exact-half floats.
    """
    j1, m1 = HalfInt.coerce(j1), HalfInt.coerce(m1)
    j2, m2 = HalfInt.coerce(j2), HalfInt.coerce(m2)
    J, M = HalfInt.coerce(J), HalfInt.coerce(M)
    _check_jm(j1, m1, "j1: ")
    _check_jm(j2, m2, "j2: ")
    if J.twice < 0:
        raise ValueError(f"negative total angular momentum J={J}")
    table = _coupled_basis(j1.twice, j2.twice)
    return table.get((J.twice, M.twice), {}).get((m1.twice, m2.twice), 0.0)
