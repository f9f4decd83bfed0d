import math

import numpy as np
import pytest

from spincool.angmom import HalfInt, clebsch_gordan, dressing_amplitude, ladder_a, ladder_b

from .oracles import half_values, racah_cg

SQ2 = math.sqrt(2.0)


class TestHalfInt:
    def test_coerce_and_value(self):
        assert HalfInt.coerce(2).value == 2.0
        assert HalfInt.coerce(0.5).twice == 1
        assert HalfInt.coerce(HalfInt(-9)).value == -4.5
        # integers come in through operator.index: bool and numpy integers too
        for x, twice in ((True, 2), (np.int64(-3), -6), (np.uint8(2), 4), (np.float64(1.5), 3)):
            assert HalfInt.coerce(x).twice == twice
            assert type(HalfInt.coerce(x).twice) is int

    def test_rejects_non_half_values(self):
        with pytest.raises(ValueError):
            HalfInt.coerce(0.3)
        with pytest.raises(ValueError):
            HalfInt.coerce(np.float64(0.3))
        for x in ("1/2", "3", None, np.bool_(True), 1 + 0j):
            with pytest.raises(TypeError):
                HalfInt.coerce(x)
        with pytest.raises(TypeError):
            HalfInt(1.5)
        for x in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="is not an integer or half-integer"):
                HalfInt.coerce(x)

    def test_hash_agrees_with_eq(self):
        # equal values hash equally, so a set or dict key treats them as one
        for half, x in ((HalfInt(2), 1), (HalfInt(2), 1.0), (HalfInt(-3), -1.5),
                        (HalfInt(0), 0), (HalfInt(2 * 10**20), 10**20)):
            assert half == x and hash(half) == hash(x)
            assert len({half, x}) == 1
        assert HalfInt(1) != math.inf

    def test_exact_arithmetic(self):
        a = HalfInt(9)   # 9/2
        b = HalfInt(-7)  # -7/2
        assert (a + b).twice == 2
        assert (a - b).twice == 16
        assert HalfInt(4) == 2

    def test_repr(self):
        assert repr(HalfInt(9)) == "9/2"
        assert repr(HalfInt(4)) == "2"


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
        got = clebsch_gordan(HalfInt(tj1), HalfInt(tm1), HalfInt(tj2), HalfInt(tm2),
                             HalfInt(tJ), HalfInt(tM))
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


class TestLadderFactors:
    def test_vanishes_at_ceiling(self):
        assert ladder_a(4.5, 1, -1, 4.5) == 0.0      # mI at +I
        assert ladder_a(4.5, 1, -1, -4.5) == 0.0     # mJ at -J
        assert ladder_b(4.5, 1, 1, -4.5) == 0.0      # mJ at +J
        assert ladder_b(4.5, 1, 0, -4.5) == 0.0      # mI at -I

    def test_hand_evaluated_values(self):
        assert ladder_a(4.5, 1, 0, -4.5) == pytest.approx(3 * SQ2, abs=1e-12)
        assert ladder_a(0.5, 0.5, 0.5, -0.5) == pytest.approx(1.0, abs=1e-12)
        assert ladder_b(4.5, 1, -1, -3.5) == pytest.approx(3 * SQ2, abs=1e-12)

    def test_a_b_symmetry(self):
        # b(I, J, mJ, mI) = a(J, I, mI, mJ)
        for tmj in (-2, 0, 2):
            for tmi in range(-9, 10, 2):
                a = ladder_b(HalfInt(9), HalfInt(2), HalfInt(tmj), HalfInt(tmi))
                b = ladder_a(HalfInt(2), HalfInt(9), HalfInt(tmi), HalfInt(tmj))
                assert a == pytest.approx(b, abs=1e-12)


class TestXiFactors:
    def test_dressing_amplitude_rejects_mj_outside_j1(self):
        with pytest.raises(ValueError):
            dressing_amplitude(HalfInt(13), HalfInt(-13), -2, HalfInt(-9))

    def test_completeness_over_f(self):
        # the F-coupling amplitudes squared sum to 1 for every reachable
        # (mJ', mI) pair -- CG completeness of the J' (x) I decomposition
        for tmjp in range(-4, 5, 2):
            for tmi in range(-9, 10, 2):
                tmf = tmjp + tmi
                total = sum(
                    clebsch_gordan(HalfInt(4), HalfInt(tmjp), HalfInt(9),
                                   HalfInt(tmi), HalfInt(tF), HalfInt(tmf)) ** 2
                    for tF in range(5, 14, 2) if abs(tmf) <= tF)
                assert total == pytest.approx(1.0, abs=1e-12)
