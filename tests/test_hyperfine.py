import math

import numpy as np
import pytest

from spincool.angmom import HalfInt
from spincool.hyperfine import (
    HyperfineConstants,
    SpinSpace,
    ZeemanParams,
    f_level_energy,
    hf_element,
    hf_matrix,
    zeeman_diag,
)

from .oracles import half_values, operator_hf_matrix

P1_CONSTANTS = HyperfineConstants(A=-3.4, Q=39.0)
D2_CONSTANTS = HyperfineConstants(A=-194.0, Q=-75.0)
P1_SPACE = SpinSpace(I=HalfInt(9), J=HalfInt(2))
D2_SPACE = SpinSpace(I=HalfInt(9), J=HalfInt(4))


class TestHfElement:
    def test_diagonal_golden_values(self):
        up = hf_element(P1_CONSTANTS, P1_SPACE, -1, -3.5, -1, -3.5)
        down = hf_element(P1_CONSTANTS, P1_SPACE, -1, -4.5, -1, -4.5)
        assert up == pytest.approx(-8.65, abs=0.01)
        assert down == pytest.approx(-5.55, abs=0.01)

    def test_spin_mixing_element(self):
        # expected value read from the operator-construction oracle
        got = hf_element(P1_CONSTANTS, P1_SPACE, 0, -4.5, -1, -3.5)
        oracle = operator_hf_matrix(-3.4, 39.0, 4.5, 1.0)
        basis = P1_SPACE.basis()
        i = basis.index((HalfInt(0), HalfInt(-9)))
        k = basis.index((HalfInt(-2), HalfInt(-7)))
        assert got == pytest.approx(oracle[i, k].real, abs=1e-12)
        assert got == pytest.approx(0.5 * -3.4 * 3 * math.sqrt(2)
                                    + 39.0 * 6 * 3 * math.sqrt(2) / 72, abs=1e-9)

    def test_projection_conservation_is_structural(self):
        assert hf_element(P1_CONSTANTS, P1_SPACE, 1, -4.5, -1, -3.5) == 0.0
        assert hf_element(P1_CONSTANTS, P1_SPACE, 0, -3.5, -1, -3.5) == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            hf_element(P1_CONSTANTS, P1_SPACE, 2, -4.5, -1, -3.5)
        with pytest.raises(ValueError):
            hf_element(P1_CONSTANTS, P1_SPACE, 0, -5.5, 1, -4.5)

    def test_step_function_boundaries(self):
        # at mI = -I the (I + mI) quadrupole correction must vanish exactly,
        # and at mJ = J / mI = I the mirror term must: with A = 0 the
        # diagonal reduces to the bare K-like term for an F eigenstate
        c = HyperfineConstants(A=0.0, Q=1.0)
        s = SpinSpace(I=HalfInt(3), J=HalfInt(2))
        # stretched state: |mJ=J, mI=I> is the F = I+J eigenstate
        stretched = hf_element(c, s, 1, 1.5, 1, 1.5)
        assert stretched == pytest.approx(f_level_energy(c, 1.5, 1.0, 2.5), abs=1e-12)
        bottom = hf_element(c, s, -1, -1.5, -1, -1.5)
        assert bottom == pytest.approx(f_level_energy(c, 1.5, 1.0, 2.5), abs=1e-12)


class TestHfMatrix:
    def test_zero_constants_give_zero_matrix(self):
        z = hf_matrix(HyperfineConstants(0.0, 0.0), P1_SPACE)
        assert np.all(z == 0)

    def test_matches_operator_oracle_over_spin_grid(self):
        worst = 0.0
        for I in half_values(4.5):
            for J in half_values(2.0):
                s = SpinSpace(I=HalfInt.coerce(I), J=HalfInt.coerce(J))
                got = hf_matrix(HyperfineConstants(-3.4, 39.0), s)
                want = operator_hf_matrix(-3.4, 39.0, I, J)
                assert np.abs(want.imag).max() < 1e-12
                worst = max(worst, np.abs(got - want.real).max())
        assert worst < 1e-9

    def test_hermitian_and_block_structure(self):
        m = hf_matrix(P1_CONSTANTS, P1_SPACE)
        assert np.array_equal(m, m.T)
        basis = P1_SPACE.basis()
        for i, (mJp, mIp) in enumerate(basis):
            for k, (mJ, mI) in enumerate(basis):
                if mJp.twice + mIp.twice != mJ.twice + mI.twice:
                    assert m[i, k] == 0.0

    def test_matches_elementwise_assembly(self):
        m = hf_matrix(P1_CONSTANTS, P1_SPACE)
        basis = P1_SPACE.basis()
        for i, (mJp, mIp) in enumerate(basis):
            for k, (mJ, mI) in enumerate(basis):
                element = hf_element(P1_CONSTANTS, P1_SPACE, mJp, mIp, mJ, mI)
                assert m[i, k] == pytest.approx(element, abs=1e-9)

    def test_eigenvalues_group_into_f_multiplets(self):
        eigs = np.sort(np.linalg.eigvalsh(hf_matrix(D2_CONSTANTS, D2_SPACE)))
        expected = []
        for twice_f in (13, 11, 9, 7, 5):
            e = f_level_energy(D2_CONSTANTS, HalfInt(9), HalfInt(4), HalfInt(twice_f))
            expected.extend([e] * (twice_f + 1))
        assert np.allclose(eigs, np.sort(expected), atol=1e-8)

    def test_stretched_diagonal_equals_top_f_level(self):
        basis = D2_SPACE.basis()
        i = basis.index((HalfInt(4), HalfInt(9)))
        m = hf_matrix(D2_CONSTANTS, D2_SPACE)
        top = f_level_energy(D2_CONSTANTS, HalfInt(9), HalfInt(4), HalfInt(13))
        assert m[i, i] == pytest.approx(top, abs=1e-9)

    def test_trace_equals_multiplet_sum(self):
        m = hf_matrix(D2_CONSTANTS, D2_SPACE)
        total = sum((tf + 1) * f_level_energy(D2_CONSTANTS, HalfInt(9), HalfInt(4),
                                              HalfInt(tf))
                    for tf in (13, 11, 9, 7, 5))
        assert np.trace(m) == pytest.approx(total, abs=1e-6)


class TestFLevels:
    def test_d2_level_energies(self):
        I, J = HalfInt(9), HalfInt(4)
        assert f_level_energy(D2_CONSTANTS, I, J, HalfInt(13)) == pytest.approx(-1764.75, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, HalfInt(11)) == pytest.approx(-463.125, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, HalfInt(9)) == pytest.approx(603.875, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, HalfInt(7)) == pytest.approx(1453.4375, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, HalfInt(5)) == pytest.approx(2099.625, abs=1e-9)

    def test_out_of_range_f_raises(self):
        with pytest.raises(ValueError):
            f_level_energy(D2_CONSTANTS, HalfInt(9), HalfInt(4), HalfInt(15))
        with pytest.raises(ValueError):
            f_level_energy(D2_CONSTANTS, HalfInt(9), HalfInt(4), HalfInt(3))


class TestZeeman:
    Z = ZeemanParams(B=1.0, gJ=1.0, mu_nuclear=-1.0924, I=HalfInt(9))

    def test_electronic_part(self):
        val = zeeman_diag(self.Z, -1, 0.5)
        # nuclear part at mI = 1/2 is ~ 9e-5 MHz, electronic dominates
        assert val == pytest.approx(-1.3996, abs=2e-4)

    def test_zero_field(self):
        z0 = ZeemanParams(B=0.0, gJ=1.0, mu_nuclear=-1.0924, I=HalfInt(9))
        assert zeeman_diag(z0, -1, -4.5) == 0.0

    def test_full_p1_diagonal_with_field(self):
        up = hf_element(P1_CONSTANTS, P1_SPACE, -1, -3.5, -1, -3.5) \
            + zeeman_diag(self.Z, -1, -3.5)
        down = hf_element(P1_CONSTANTS, P1_SPACE, -1, -4.5, -1, -4.5) \
            + zeeman_diag(self.Z, -1, -4.5)
        assert up == pytest.approx(-10.05, abs=0.01)
        assert down == pytest.approx(-6.95, abs=0.01)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            ZeemanParams(B=-1.0, gJ=1.0, mu_nuclear=-1.0924, I=HalfInt(9))
