"""Exact angular-momentum algebra.

Clebsch-Gordan coefficients (Condon-Shortley convention), which build the
hyperfine matrix elements from the F-level energies and the dipole
amplitudes of the 87Sr cooling model.

Quantum numbers are plain numbers: ints, or floats that are exactly n/2.
Each public entry turns them into twice their value (_twice), so that
half-integer arithmetic is exact integer arithmetic inside; floating point
appears only in returned coefficients.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

__all__ = [
    "clebsch_gordan",
]


def _twice(x) -> int:
    """Twice the quantum number x: an int, or a float that is exactly n/2.

    A float that is not n/2 (nan and inf too) is a ValueError, any other
    non-integer a TypeError; bool and numpy integers count as integers.
    """
    if isinstance(x, float):
        twice = 2 * x
        if not twice.is_integer():  # also inf and nan
            raise ValueError(f"{x} is not an integer or half-integer")
        return int(twice)
    # operator.index takes what numbers.Integral registers (bool and numpy
    # integers too) without importing the numbers module
    try:
        return 2 * operator.index(x)
    except TypeError:
        raise TypeError(f"cannot interpret {x!r} as a half-integer") from None


def _check_jm(tj: int, tm: int, j, m, what: str) -> None:
    """Checks the twice-values tj, tm; the messages show j and m as given."""
    if tj < 0:
        raise ValueError(f"negative angular momentum {what}j={j}")
    if (tj - tm) % 2 != 0:
        raise ValueError(f"{what}m={m} is not integer-spaced from j={j}")
    if abs(tm) > tj:
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
    Arguments are ints or exact-half floats.
    """
    tj1, tm1, tj2, tm2, tJ, tM = map(_twice, (j1, m1, j2, m2, J, M))
    _check_jm(tj1, tm1, j1, m1, "j1: ")
    _check_jm(tj2, tm2, j2, m2, "j2: ")
    if tJ < 0:
        raise ValueError(f"negative total angular momentum J={J}")
    return _cg(tj1, tm1, tj2, tm2, tJ, tM)


def _cg(tj1: int, tm1: int, tj2: int, tm2: int, tJ: int, tM: int) -> float:
    """clebsch_gordan over twice-values, with j1 and j2 >= 0 and unchecked."""
    return _coupled_basis(tj1, tj2).get((tJ, tM), {}).get((tm1, tm2), 0.0)
