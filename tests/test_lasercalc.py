import math

import pytest

from spincool.constants import DIPOLE_EA0, EPSILON_0, HBAR, SPEED_OF_LIGHT
from spincool.lasercalc import (
    angular_frequency,
    field_for_rabi,
    intensity_from_field,
    power_from_intensity,
    rdme_from_linewidth,
    sr_laser_budget,
)
from spincool.srmodel import ModelParams

IR, UV = "1P1 <-> 6s 1S0 (1124 nm)", "1P1 <-> 5s15d 1D2 (424 nm)"


def _budget(**overrides) -> dict[str, dict]:
    return {r["transition"]: r for r in sr_laser_budget(ModelParams(**overrides))}


class TestDipoleConversions:
    def test_main_line_matrix_element(self):
        d = rdme_from_linewidth(2.0e8, 2 * math.pi * 6.51e14, mult=9)
        assert d == pytest.approx(5.38, rel=0.02)

    def test_infrared_line_matrix_element(self):
        d = rdme_from_linewidth(1.86e7, angular_frequency(1124.232), mult=1)
        assert d == pytest.approx(2.09, rel=0.02)

    def test_roundtrip_identity(self):
        # back through the module docstring's linewidth formula
        omega0 = angular_frequency(1124.232)
        for mult in (1, 9):
            for gamma in (1.86e7, 2.0e8, 123.0):
                d_si = rdme_from_linewidth(gamma, omega0, mult) * DIPOLE_EA0
                back = omega0 ** 3 * d_si ** 2 / (
                    mult * math.pi * EPSILON_0 * HBAR * SPEED_OF_LIGHT ** 3)
                assert back == pytest.approx(gamma, rel=1e-12)

    def test_zero_dipole_zero_linewidth(self):
        assert rdme_from_linewidth(0.0, angular_frequency(461.0), 9) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rdme_from_linewidth(1.0, -1.0, 1)
        with pytest.raises(ValueError):
            rdme_from_linewidth(1.0, angular_frequency(-5.0), 1)
        with pytest.raises(ValueError):
            rdme_from_linewidth(1.0, angular_frequency(461.0), 3)


class TestFieldIntensityPower:
    def test_infrared_chain(self):
        d = rdme_from_linewidth(1.86e7, angular_frequency(1124.232), mult=1)
        field = field_for_rabi(300.0, d)
        assert field == pytest.approx(1.12e4, rel=0.02)
        intensity = intensity_from_field(field)
        assert intensity / 1e4 == pytest.approx(16.7, rel=0.02)
        power = power_from_intensity(intensity, 20.0)
        assert power * 1e3 == pytest.approx(0.21, rel=0.02)

    def test_uv_chain(self):
        field = field_for_rabi(144.27, 0.092)
        assert field == pytest.approx(1.23e5, rel=0.02)
        power = power_from_intensity(intensity_from_field(field), 20.0)
        assert power * 1e3 == pytest.approx(25.1, rel=0.02)

    def test_zero_rabi_zero_field(self):
        assert field_for_rabi(0.0, 2.09) == 0.0
        assert intensity_from_field(0.0) == 0.0
        assert power_from_intensity(0.0, 20.0) == 0.0

    def test_quadratic_intensity_law(self):
        assert intensity_from_field(2.0) == pytest.approx(4 * intensity_from_field(1.0))

    def test_monotone_chain(self):
        ds = [rdme_from_linewidth(g, angular_frequency(1124.232), 1)
              for g in (1e6, 1e7, 1e8)]
        assert ds == sorted(ds)
        fields = [field_for_rabi(om, 2.09) for om in (10.0, 100.0, 1000.0)]
        assert fields == sorted(fields)

    def test_bad_beam(self):
        for radius in (0.0, -20.0):
            with pytest.raises(ValueError):
                power_from_intensity(1.0, radius)
        with pytest.raises(ValueError):
            field_for_rabi(100.0, 0.0)


class TestBudgetTable:
    def test_reference_records(self):
        records = _budget()
        assert len(records) == 3
        ir = records[IR]
        assert ir["rdme_ea0"] == pytest.approx(2.09, rel=0.02)
        assert ir["intensity_w_cm2"] == pytest.approx(16.7, rel=0.02)
        assert ir["power_mw"] == pytest.approx(0.21, rel=0.02)
        uv = records[UV]
        assert uv["field_v_per_m"] == pytest.approx(1.23e5, rel=0.02)
        assert uv["power_mw"] == pytest.approx(25.1, rel=0.02)
        main = records["1P1 -> ground (461 nm)"]
        assert main["rdme_ea0"] == pytest.approx(5.38, rel=0.02)

    # each laser moves its own line's record, by the square of its Rabi frequency
    @pytest.mark.parametrize("key, rabi_mhz, line", [("omega_ps", 250.0, IR),
                                                     ("omega_pd", 100.0, UV)],
                             ids=["omega_ps", "omega_pd"])
    def test_each_laser_drives_only_its_line(self, key, rabi_mhz, line):
        ref, moved = _budget(), _budget(**{key: rabi_mhz})
        scale = (rabi_mhz / ref[line]["rabi_mhz"]) ** 2
        assert moved[line]["rabi_mhz"] == rabi_mhz
        assert moved[line]["power_mw"] == pytest.approx(ref[line]["power_mw"] * scale,
                                                        rel=1e-12, abs=0)
        del ref[line], moved[line]
        assert moved == ref

    # 1e300 MHz overflows E^2 from a finite field; 1e307 MHz overflows the field itself
    @pytest.mark.parametrize("key, line", [("omega_ps", IR), ("omega_pd", UV)],
                             ids=["omega_ps", "omega_pd"])
    @pytest.mark.parametrize("rabi_mhz", [1e300, 1e307, -1e300])
    def test_non_finite_power_names_the_line(self, key, line, rabi_mhz):
        with pytest.raises(FloatingPointError) as exc:
            _budget(**{key: rabi_mhz})
        assert str(exc.value) == f"{line}: the power to drive {rabi_mhz:g} MHz is not finite"
