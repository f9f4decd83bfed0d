import math

import numpy as np
import pytest

from spincool.analysis import ISOTOPE_CASES
from spincool.constants import MU_B_MHZ_PER_G, MU_N_MHZ_PER_G, SR87_NUCLEAR_MOMENT
from spincool.hyperfine import (
    HyperfineConstants,
    f_level_energy,
    hf_block,
    hf_element,
)
from spincool.srmodel import BasisState, ModelParams, hamiltonian_mhz

from .oracles import half_values, hf_matrix, operator_hf_matrix, spin_basis

P1_CONSTANTS = HyperfineConstants(A=-3.4, Q=39.0)
D2_CONSTANTS = HyperfineConstants(A=-194.0, Q=-75.0)
P1_IJ = (4.5, 1)  # the 1P1 nuclear spin I and J
D2_IJ = (4.5, 2)


class TestHfElement:
    def test_diagonal_golden_values(self):
        up = hf_element(P1_CONSTANTS, *P1_IJ, -1, -3.5, -1, -3.5)
        down = hf_element(P1_CONSTANTS, *P1_IJ, -1, -4.5, -1, -4.5)
        assert up == pytest.approx(-8.65, abs=0.01)
        assert down == pytest.approx(-5.55, abs=0.01)

    def test_spin_mixing_element(self):
        # expected value read from the operator-construction oracle
        got = hf_element(P1_CONSTANTS, *P1_IJ, 0, -4.5, -1, -3.5)
        oracle = operator_hf_matrix(-3.4, 39.0, 4.5, 1.0)
        basis = spin_basis(*P1_IJ)
        i = basis.index((0, -4.5))
        k = basis.index((-1, -3.5))
        assert got == pytest.approx(oracle[i, k].real, abs=1e-12)
        assert got == pytest.approx(0.5 * -3.4 * 3 * math.sqrt(2)
                                    + 39.0 * 6 * 3 * math.sqrt(2) / 72, abs=1e-9)

    def test_projection_conservation_is_structural(self):
        assert hf_element(P1_CONSTANTS, *P1_IJ, 1, -4.5, -1, -3.5) == 0.0
        assert hf_element(P1_CONSTANTS, *P1_IJ, 0, -3.5, -1, -3.5) == 0.0

    def test_out_of_range_raises(self):
        # each of mJ', mI', mJ, mI in turn, once beyond its j and once off its ladder,
        # from the stretched pair: the bad state's |mF| exceeds I + J, so no
        # Clebsch-Gordan lookup is made that could raise in the check's place
        stretched = (1, 4.5, 1, 4.5)
        for k, bad_values in enumerate(((2, 1.5), (5.5, 5), (2, 1.5), (5.5, 5))):
            for bad in bad_values:
                args = list(stretched)
                args[k] = bad
                with pytest.raises(ValueError, match="out of range"):
                    hf_element(P1_CONSTANTS, *P1_IJ, *args)

    def test_step_function_boundaries(self):
        # the stretched states |J, I> and |-J, -I> are F = I + J eigenstates:
        # with A = 0 each diagonal is that level's quadrupole energy
        c = HyperfineConstants(A=0.0, Q=1.0)
        stretched = hf_element(c, 1.5, 1, 1, 1.5, 1, 1.5)
        assert stretched == pytest.approx(f_level_energy(c, 1.5, 1.0, 2.5), abs=1e-12)
        bottom = hf_element(c, 1.5, 1, -1, -1.5, -1, -1.5)
        assert bottom == pytest.approx(f_level_energy(c, 1.5, 1.0, 2.5), abs=1e-12)


# the model's four 1P1 states (mJ, mI)
MODEL_P1_STATES = [(0, -4.5), (-1, -3.5), (-1, -4.5), (1, -4.5)]


class TestHfBlock:
    @pytest.mark.parametrize("I, J", [(-4.5, 1), (4.5, -1)])
    def test_negative_spin_raises(self, I, J):
        with pytest.raises(ValueError, match="I and J must be non-negative"):
            hf_block(P1_CONSTANTS, I, J, [])

    @pytest.mark.parametrize("A, Q", [(math.inf, 39.0), (-3.4, math.nan)])
    def test_non_finite_constants_raise(self, A, Q):
        with pytest.raises(ValueError, match="hyperfine constants must be finite"):
            HyperfineConstants(A, Q)

    @pytest.mark.parametrize("c, I, states", [
        (P1_CONSTANTS, 4.5, MODEL_P1_STATES),
        *((HyperfineConstants(A, Q), I, spin_basis(I, 1)) for _, I, A, Q in ISOTOPE_CASES),
    ], ids=["1P1_model", *(name for name, *_ in ISOTOPE_CASES)])
    def test_symmetric_to_the_bit_and_zero_between_unequal_mf(self, c, I, states):
        block = hf_block(c, I, 1, states)
        for i, (mJp, mIp) in enumerate(states):
            for k, (mJ, mI) in enumerate(states):
                assert block[i][k].hex() == block[k][i].hex()
                if mJp + mIp != mJ + mI:
                    assert block[i][k].hex() == (0.0).hex()


class TestHfMatrix:
    def test_zero_constants_give_zero_matrix(self):
        z = hf_matrix(HyperfineConstants(0.0, 0.0), *P1_IJ)
        assert np.all(z == 0)

    # H is linear in (A, Q): the two unit pairs check every pair of constants
    @pytest.mark.parametrize("A, Q", [(-3.4, 39.0), (1.0, 0.0), (0.0, 1.0)])
    def test_matches_operator_oracle_over_spin_grid(self, A, Q):
        worst = 0.0
        for I in half_values(4.5):
            for J in half_values(2.0):
                got = hf_matrix(HyperfineConstants(A, Q), I, J)
                want = operator_hf_matrix(A, Q, I, J)
                assert np.abs(want.imag).max() < 1e-12
                worst = max(worst, np.abs(got - want.real).max())
        assert worst < 1e-12

    def test_hermitian_and_block_structure(self):
        m = hf_matrix(P1_CONSTANTS, *P1_IJ)
        assert np.array_equal(m, m.T)
        basis = spin_basis(*P1_IJ)
        for i, (mJp, mIp) in enumerate(basis):
            for k, (mJ, mI) in enumerate(basis):
                if mJp + mIp != mJ + mI:
                    assert m[i, k] == 0.0

    def test_matches_elementwise_assembly(self):
        m = hf_matrix(P1_CONSTANTS, *P1_IJ)
        basis = spin_basis(*P1_IJ)
        for i, (mJp, mIp) in enumerate(basis):
            for k, (mJ, mI) in enumerate(basis):
                element = hf_element(P1_CONSTANTS, *P1_IJ, mJp, mIp, mJ, mI)
                assert m[i, k] == pytest.approx(element, abs=1e-9)

    def test_eigenvalues_group_into_f_multiplets(self):
        eigs = np.sort(np.linalg.eigvalsh(hf_matrix(D2_CONSTANTS, *D2_IJ)))
        expected = []
        for twice_f in (13, 11, 9, 7, 5):
            e = f_level_energy(D2_CONSTANTS, *D2_IJ, twice_f / 2)
            expected.extend([e] * (twice_f + 1))
        assert np.allclose(eigs, np.sort(expected), atol=1e-8)

    def test_stretched_diagonal_equals_top_f_level(self):
        basis = spin_basis(*D2_IJ)
        i = basis.index((2, 4.5))
        m = hf_matrix(D2_CONSTANTS, *D2_IJ)
        top = f_level_energy(D2_CONSTANTS, *D2_IJ, 6.5)
        assert m[i, i] == pytest.approx(top, abs=1e-9)

    def test_trace_equals_multiplet_sum(self):
        m = hf_matrix(D2_CONSTANTS, *D2_IJ)
        total = sum((tf + 1) * f_level_energy(D2_CONSTANTS, *D2_IJ, tf / 2)
                    for tf in (13, 11, 9, 7, 5))
        assert np.trace(m) == pytest.approx(total, abs=1e-6)


class TestFLevels:
    def test_d2_level_energies(self):
        I, J = D2_IJ
        assert f_level_energy(D2_CONSTANTS, I, J, 6.5) == pytest.approx(-1764.75, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, 5.5) == pytest.approx(-463.125, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, 4.5) == pytest.approx(603.875, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, 3.5) == pytest.approx(1453.4375, abs=1e-9)
        assert f_level_energy(D2_CONSTANTS, I, J, 2.5) == pytest.approx(2099.625, abs=1e-9)

    def test_out_of_range_f_raises(self):
        with pytest.raises(ValueError):
            f_level_energy(D2_CONSTANTS, *D2_IJ, 7.5)
        with pytest.raises(ValueError):
            f_level_energy(D2_CONSTANTS, *D2_IJ, 1.5)


class TestZeeman:
    """The field's part of the model's four 1P1 diagonals, read between B = 0 and B = 1."""

    MJ_MI = {BasisState.P1_0_DOWN: (0, -4.5), BasisState.P1_M1_UP: (-1, -3.5),
             BasisState.P1_M1_DOWN: (-1, -4.5), BasisState.P1_P1_DOWN: (1, -4.5)}

    @staticmethod
    def field_part() -> list[list[float]]:
        H0 = hamiltonian_mhz(ModelParams(b_field=0.0))
        H1 = hamiltonian_mhz(ModelParams(b_field=1.0))
        return [[a - b for a, b in zip(r1, r0)] for r1, r0 in zip(H1, H0)]

    def test_b_linear_part(self):
        # gJ = 1, and the 87Sr moment over I = 9/2 per unit of mI
        shift = self.field_part()
        for s, (mJ, mI) in self.MJ_MI.items():
            want = MU_B_MHZ_PER_G * mJ - SR87_NUCLEAR_MOMENT / 4.5 * MU_N_MHZ_PER_G * mI
            assert shift[s][s] == pytest.approx(want, abs=1e-12)

    def test_electronic_part(self):
        # one unit of mJ at equal mI is mu_B B, 1.3996 MHz at 1 G
        shift = self.field_part()
        B = BasisState
        for lo, hi in ((B.P1_M1_DOWN, B.P1_0_DOWN), (B.P1_0_DOWN, B.P1_P1_DOWN)):
            assert shift[hi][hi] - shift[lo][lo] == pytest.approx(1.3996, abs=2e-4)

    def test_zero_field(self):
        # the field moves the four 1P1 diagonals and nothing else
        shift = self.field_part()
        for i, row in enumerate(shift):
            for k, value in enumerate(row):
                if not (i == k and i in self.MJ_MI):
                    assert value == 0.0

    def test_full_p1_diagonal_with_field(self):
        H = hamiltonian_mhz(ModelParams(delta=0.0))
        assert H[BasisState.P1_M1_UP][BasisState.P1_M1_UP] == pytest.approx(-10.05, abs=0.01)
        assert H[BasisState.P1_M1_DOWN][BasisState.P1_M1_DOWN] == pytest.approx(-6.95, abs=0.01)
