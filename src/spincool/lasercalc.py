"""Laser-budget conversion chain.

Linewidth -> reduced dipole matrix element -> field amplitude ->
intensity -> beam power, for estimating the laser power that drives each
dressing transition at a model's Rabi frequency.  The linewidth formula

    Gamma = omega0^3 |d|^2 / (mult * pi * eps0 * hbar * c^3)

carries an explicit multiplicity factor: 9 for a matrix element quoted in
the upper->lower direction of a J=0 <-> J=1 line, 1 for the opposite
direction convention.  Both appear in the literature, so the factor is an
argument rather than a hidden choice.
"""

from __future__ import annotations

import math

from .constants import BOHR_RADIUS, DIPOLE_EA0, ELEMENTARY_CHARGE, EPSILON_0, HBAR, SPEED_OF_LIGHT
from .srmodel import ModelParams

__all__ = [
    "angular_frequency",
    "rdme_from_linewidth",
    "field_for_rabi",
    "intensity_from_field",
    "power_from_intensity",
    "sr_laser_budget",
]


def angular_frequency(wavelength_nm: float) -> float:
    """omega0 in rad/s for a vacuum wavelength in nm."""
    return 2 * math.pi * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


def rdme_from_linewidth(gamma: float, omega0: float, mult: int) -> float:
    """Reduced dipole matrix element in units of e*a0, from a decay rate in 1/s."""
    if gamma < 0 or omega0 <= 0:
        raise ValueError("need gamma >= 0 and omega0 > 0")
    if mult not in (1, 9):
        raise ValueError("multiplicity factor must be 1 or 9")
    d_si = math.sqrt(mult * math.pi * EPSILON_0 * HBAR * SPEED_OF_LIGHT ** 3 * gamma
                     / omega0 ** 3)
    return d_si / DIPOLE_EA0


def field_for_rabi(omega_rabi_mhz: float, d_ea0: float) -> float:
    """Electric field (V/m) that drives a coupling of omega_rabi (MHz as rate/2pi)."""
    if d_ea0 <= 0:
        raise ValueError("dipole matrix element must be positive")
    omega_rad_s = 2 * math.pi * omega_rabi_mhz * 1e6
    return omega_rad_s * HBAR / (d_ea0 * ELEMENTARY_CHARGE * BOHR_RADIUS)


def intensity_from_field(field_v_per_m: float) -> float:
    """Beam intensity I = eps0 c E^2 / 2, in W/m^2; inf where E^2 overflows."""
    return 0.5 * EPSILON_0 * SPEED_OF_LIGHT * (field_v_per_m * field_v_per_m)


def power_from_intensity(intensity_w_m2: float, spot_radius_um: float) -> float:
    """Power in W through a disk of the beam's spot radius, in um."""
    if spot_radius_um <= 0:
        raise ValueError("spot radius must be positive")
    radius_m = spot_radius_um * 1e-6
    return intensity_w_m2 * math.pi * radius_m ** 2


def _drive(line: str, rabi_mhz: float, d_ea0: float) -> dict:
    """The field, intensity and power that drive line at rabi_mhz on a 20 um spot."""
    field = field_for_rabi(rabi_mhz, d_ea0)
    intensity = intensity_from_field(field)
    power = power_from_intensity(intensity, 20.0)
    # each step scales by a finite factor: a field or intensity that is not finite
    # leaves the power infinite
    if not math.isfinite(power):
        raise FloatingPointError(f"{line}: the power to drive {rabi_mhz:g} MHz is not finite")
    return {"transition": line, "rdme_ea0": d_ea0, "rabi_mhz": rabi_mhz,
            "field_v_per_m": field, "intensity_w_cm2": intensity / 1e4,
            "power_mw": power * 1e3}


def sr_laser_budget(p: ModelParams) -> list[dict]:
    """Worked laser budget for the two 87Sr dressing transitions at p's Rabi frequencies.

    Returns records for: the main 1P1 decay line (rate to matrix element,
    multiplicity 9), the 1124 nm 1P1 <-> 6s line driven at p.omega_ps, and the
    424 nm dressing line, using the literature 0.092 e*a0 estimate, driven at
    p.omega_pd.  A driven line whose power is not finite is a FloatingPointError.
    """
    d_ir = rdme_from_linewidth(1.86e7, angular_frequency(1124.232), mult=1)
    return [
        {"transition": "1P1 -> ground (461 nm)", "linewidth_per_s": 2.0e8,
         "rdme_ea0": rdme_from_linewidth(2.0e8, 2 * math.pi * 6.51e14, mult=9)},
        {"linewidth_per_s": 1.86e7, **_drive("1P1 <-> 6s 1S0 (1124 nm)", p.omega_ps, d_ir)},
        _drive("1P1 <-> 5s15d 1D2 (424 nm)", p.omega_pd, 0.092),
    ]
