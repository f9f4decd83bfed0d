import math

import numpy as np
import pytest

from spincool.analysis import min_omega_ps
from spincool.angmom import _twice, clebsch_gordan
from spincool.hyperfine import HyperfineConstants, f_level_energy, hf_block, hf_element

from .oracles import half_values, racah_cg


C = HyperfineConstants(-3.4, 39.0)
# each public entry that takes quantum numbers, with x in one place where 1 and 2 are valid
ENTRIES = {
    "clebsch_gordan": lambda x: clebsch_gordan(x, 0, 1, 0, 2, 0),
    "f_level_energy": lambda x: f_level_energy(C, 4.5, x, 4.5),
    "hf_block": lambda x: hf_block(C, 4.5, x, [(0, -4.5)]),
    "hf_element": lambda x: hf_element(C, 4.5, 2, x, -4.5, x, -4.5),
    "min_omega_ps": lambda x: min_omega_ps(x, -213.0, 0.0),
}
# (x, the error it raises, or None for an integer that is taken as its value)
QUANTUM_NUMBERS = {
    "0.3": (0.3, ValueError),
    "float64(0.3)": (np.float64(0.3), ValueError),
    "nan": (math.nan, ValueError),
    "inf": (math.inf, ValueError),
    "-inf": (-math.inf, ValueError),
    "str": ("1", TypeError),
    "None": (None, TypeError),
    "numpy-bool": (np.bool_(True), TypeError),
    "complex": (1 + 0j, TypeError),
    "True": (True, None),
    "int64(2)": (np.int64(2), None),
    "uint8(2)": (np.uint8(2), None),
}


class TestQuantumNumbers:
    """Plain numbers as quantum numbers: ints, or floats that are exactly n/2."""

    def test_twice_values(self):
        # integers come in through operator.index: bool and numpy integers too
        for x, twice in ((2, 4), (0.5, 1), (-4.5, -9), (True, 2), (np.int64(-3), -6),
                         (np.uint8(2), 4), (np.float64(1.5), 3)):
            assert _twice(x) == twice
            assert type(_twice(x)) is int

    @pytest.mark.parametrize("x, error", QUANTUM_NUMBERS.values(), ids=QUANTUM_NUMBERS)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_checked_at_each_entry(self, entry, x, error):
        if error is None:
            assert ENTRIES[entry](x) == ENTRIES[entry](int(x))
        else:
            with pytest.raises(error):
                ENTRIES[entry](x)


class TestClebschGordan:
    def test_stretched_state(self):
        assert clebsch_gordan(1, 1, 0.5, 0.5, 1.5, 1.5) == pytest.approx(1.0, abs=1e-12)

    def test_projection_rule(self):
        assert clebsch_gordan(1, 0, 1, 1, 2, 0) == 0.0

    def test_bottom_stretched(self):
        assert clebsch_gordan(1, -1, 1, -1, 2, -2) == pytest.approx(1.0, abs=1e-12)

    def test_triangle_rule_returns_zero(self):
        assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0
        assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2, 0) == 0.0
        assert clebsch_gordan(1, 0, 1, 0, 1.5, 0) == 0.0  # J of the wrong parity
        assert clebsch_gordan(1, 1, 1, 1, 1, 2) == 0.0  # |M| > J

    def test_invalid_quantum_numbers_raise(self):
        with pytest.raises(ValueError):
            clebsch_gordan(-1, 0, 1, 0, 1, 0)
        with pytest.raises(ValueError):
            clebsch_gordan(1, 2, 1, 0, 2, 2)  # |m1| > j1
        with pytest.raises(ValueError):
            clebsch_gordan(1, 0.5, 1, 0, 1, 0.5)  # m not integer-spaced from j
        with pytest.raises(ValueError, match="negative total angular momentum J=-1"):
            clebsch_gordan(1, 0, 1, 0, -1, 0)

    # values frozen from the exact Racah-sum oracle (twice-value arguments)
    FROZEN = [
        (2, -2, 4, 0, 2, -2, 0.31622776601683794),
        (2, -2, 5, 1, 5, -1, -0.7171371656006361),
        (3, -3, 5, 5, 8, 2, 0.1336306209562122),
        (3, -1, 7, 7, 10, 6, 0.2581988897471611),
        (3, 1, 4, 2, 7, 3, 0.7559289460184544),
        (4, -2, 3, -3, 7, -5, 0.7559289460184544),
        (4, -2, 4, 4, 2, 2, -0.4472135954999579),
        (4, 0, 7, -3, 9, -3, 0.4187178946793119),
        (5, -3, 6, 2, 9, -1, -0.5945883900105632),
        (5, -1, 6, 2, 5, 1, 0.47809144373375745),
        (5, 1, 3, -1, 4, 0, -0.2672612419124244),
        (5, 5, 7, -1, 4, 4, 0.19920476822239894),
        (6, -6, 4, 4, 2, -2, 0.6546536707079771),
        (6, -6, 7, -1, 11, -7, -0.6145098677990269),
        (6, -4, 2, 0, 6, -4, -0.5773502691896257),
        (6, -2, 4, -2, 10, -4, 0.7071067811865476),
        (6, 4, 5, -1, 7, 3, 0.3086066999241838),
        (7, 1, 4, 4, 5, 5, -0.21821789023599236),
        (7, 5, 3, -3, 10, 2, 0.18257418583505536),
        (7, 7, 7, -5, 2, 2, 0.28867513459481287),
    ]

    @pytest.mark.parametrize("tj1,tm1,tj2,tm2,tJ,tM,expected", FROZEN)
    def test_frozen_grid(self, tj1, tm1, tj2, tm2, tJ, tM, expected):
        got = clebsch_gordan(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, tM / 2)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_matches_oracle_everywhere(self):
        # every coupling with j <= 9/2 agrees with the Racah sum to 1e-12
        worst = 0.0
        for j1 in half_values(4.5):
            for j2 in half_values(4.5):
                tj1, tj2 = round(2 * j1), round(2 * j2)
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            tM = tm1 + tm2
                            if abs(tM) > tJ:
                                continue
                            got = clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJ / 2, tM / 2)
                            want = racah_cg(j1, tm1 / 2, j2, tm2 / 2, tJ / 2, tM / 2)
                            worst = max(worst, abs(got - want))
        assert worst < 1e-12

    def test_orthogonality(self):
        # sum over (m1, m2) of C(..|J M) C(..|J' M') = delta_JJ' delta_MM'
        for j1, j2 in ((1.0, 1.0), (1.5, 1.0), (4.5, 2.0), (3.0, 2.5)):
            tj1, tj2 = round(2 * j1), round(2 * j2)
            couplings = [(tJ, tM) for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
                         for tM in range(-tJ, tJ + 1, 2)]
            for tJ, tM in couplings:
                for tJp, tMp in couplings:
                    total = 0.0
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        tm2 = tM - tm1
                        if abs(tm2) > tj2:
                            continue
                        total += (clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJ / 2, tM / 2)
                                  * clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJp / 2, tMp / 2))
                    expected = 1.0 if (tJ, tM) == (tJp, tMp) else 0.0
                    assert total == pytest.approx(expected, abs=1e-12)


class TestXiFactors:
    def test_completeness_over_f(self):
        # the F-coupling amplitudes squared sum to 1 for every reachable
        # (mJ', mI) pair -- CG completeness of the J' (x) I decomposition
        for tmjp in range(-4, 5, 2):
            for tmi in range(-9, 10, 2):
                tmf = tmjp + tmi
                total = sum(
                    clebsch_gordan(2, tmjp / 2, 4.5, tmi / 2, tF / 2, tmf / 2) ** 2
                    for tF in range(5, 14, 2) if abs(tmf) <= tF)
                assert total == pytest.approx(1.0, abs=1e-12)
