"""The concrete 13-level 87Sr cooling model.

States, laser couplings, hyperfine and Zeeman structure, and the nine
spontaneous-emission channels.  User-facing quantities are frequencies
(value/2pi) in MHz and gauss, exactly as quoted in spectroscopy tables;
assembly multiplies by 2pi so that Hamiltonians are in rad/us and time is
in us.

The nuclear-spin qubit lives in the two lowest Zeeman substates of the
I = 9/2 ground manifold: "up" is mI = -7/2 and "down" is mI = -9/2.
"""

from __future__ import annotations

import math
from enum import IntEnum
from typing import TYPE_CHECKING, NamedTuple

from ._record import FrozenRecord
from .angmom import HalfInt, xi_factors
from .constants import SR87_NUCLEAR_MOMENT, SR87_TWICE_I
from .hyperfine import HyperfineConstants, SpinSpace, ZeemanParams, hf_element, zeeman_diag

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BasisState",
    "ModelParams",
    "CollapseOp",
    "TWO_PI",
    "hamiltonian_mhz",
    "hamiltonian",
    "collapse_ops",
    "with_polarization_impurity",
    "qubit_vectors",
]

TWO_PI = 2.0 * math.pi

DIM = 13

I_SR = HalfInt(SR87_TWICE_I)   # 9/2
MI_UP = HalfInt(-7)            # mI = -7/2
MI_DOWN = HalfInt(-9)          # mI = -9/2

XI = xi_factors()  # relative strengths of the four weaker dressing couplings


class BasisState(IntEnum):
    """The 13 basis states, in fixed order.

    ========  =============================================
    index     state
    ========  =============================================
    0         |[5s15d 1D2] F=13/2, mF=-13/2>
    1         |[5s15d 1D2] F=13/2, mF=-11/2>
    2         |[5s15d 1D2] F=11/2, mF=-11/2>
    3         |[5s6s 1S0] mJ=0, down>
    4         |[5s5p 1P1] mJ=0, down>
    5         |[5s5p 1P1] mJ=-1, up>
    6         |[5s5p 1P1] mJ=-1, down>
    7         |[5s5p 3P0] mJ=0, up>      (clock)
    8         |[5s5p 3P0] mJ=0, down>    (clock)
    9         |[5s2  1S0] mJ=0, up>      (ground)
    10        |[5s2  1S0] mJ=0, down>    (ground)
    11        reservoir (collects 1D2 decay)
    12        |[5s5p 1P1] mJ=+1, down>
    ========  =============================================
    """

    D2_F13_STRETCH = 0
    D2_F13_M11 = 1
    D2_F11_M11 = 2
    S6_DOWN = 3
    P1_0_DOWN = 4
    P1_M1_UP = 5
    P1_M1_DOWN = 6
    CLOCK_UP = 7
    CLOCK_DOWN = 8
    GROUND_UP = 9
    GROUND_DOWN = 10
    RESERVOIR = 11
    P1_P1_DOWN = 12


# (mJ, mI) quantum numbers of the four 1P1 states
P1_QUANTUM_NUMBERS: dict[BasisState, tuple[HalfInt, HalfInt]] = {
    BasisState.P1_0_DOWN: (HalfInt(0), MI_DOWN),
    BasisState.P1_M1_UP: (HalfInt(-2), MI_UP),
    BasisState.P1_M1_DOWN: (HalfInt(-2), MI_DOWN),
    BasisState.P1_P1_DOWN: (HalfInt(2), MI_DOWN),
}

D2_STATES = (BasisState.D2_F13_STRETCH, BasisState.D2_F13_M11, BasisState.D2_F11_M11)
P1_STATES = (BasisState.P1_0_DOWN, BasisState.P1_M1_UP, BasisState.P1_M1_DOWN,
             BasisState.P1_P1_DOWN)


class ModelParams(FrozenRecord):
    """All model parameters: Rabi frequencies and detunings in MHz, field in gauss.

    gamma_* are the spontaneous linewidths of 1P1, 6s 1S0, and 5s15d 1D2 as
    rate/2pi in MHz.  e_hf is the 1D2 F=13/2 to F=11/2 splitting used for
    the dressing-laser detuning ladder.  Defaults are the reference
    operating point of the cooling scheme.
    """

    __slots__ = _fields = ("omega_eff", "omega_ps", "omega_pd", "delta", "delta_pd",
                           "delta_ps_extra", "gamma_p", "gamma_s", "gamma_d", "b_field",
                           "a_1p1", "q_1p1", "e_hf")

    def __init__(
            self,
            omega_eff: float = 1.0,        # clock <-> 1P1 two-photon Rabi frequency
            omega_ps: float = 300.0,       # 1P1 <-> 6s 1S0 pi-polarized Rabi frequency
            omega_pd: float = 144.27,      # 1P1 <-> 1D2 sigma-minus dressing Rabi frequency
            delta: float = 3.8826,         # common shift restoring clock <-> dressed-1P1 resonance
            delta_pd: float = -1700.0,     # dressing-laser detuning at the F=13/2 line
            delta_ps_extra: float = 0.0,   # additional detuning of the omega_ps laser
            gamma_p: float = 32.0,         # 1P1 linewidth
            gamma_s: float = 3.0,          # 6s 1S0 linewidth
            gamma_d: float = 0.47,         # 1D2 linewidth
            b_field: float = 1.0,          # gauss
            a_1p1: float = -3.4,           # 1P1 hyperfine A
            q_1p1: float = 39.0,           # 1P1 hyperfine Q
            e_hf: float = 1300.0,          # 1D2 F-splitting entering the detuning ladder
    ):
        self._assign(locals())
        for name in ("gamma_p", "gamma_s", "gamma_d"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in self._fields:
            # assembly multiplies by 2pi, which must stay finite too
            if not math.isfinite(TWO_PI * getattr(self, name)):
                raise ValueError(f"{name} must be finite (also after 2pi scaling)")
        if self.b_field < 0:
            raise ValueError("b_field must be >= 0")

    def replace(self, **overrides) -> "ModelParams":
        """A copy with the named fields replaced, checked as a new record."""
        return ModelParams(**{**dict(zip(self._fields, self._values())), **overrides})

    @property
    def hyperfine_1p1(self) -> HyperfineConstants:
        return HyperfineConstants(self.a_1p1, self.q_1p1)

    @property
    def zeeman(self) -> ZeemanParams:
        # gJ = 1 for a pure singlet L=1, S=0 level
        return ZeemanParams(B=self.b_field, gJ=1.0, mu_nuclear=SR87_NUCLEAR_MOMENT, I=I_SR)


class CollapseOp(NamedTuple):
    """One spontaneous-emission jump operator, sum of amplitude |to><from| terms.

    Most channels are single transitions; the spin-preserving 1P1 mJ=-1
    decay is one operator with two simultaneous terms (both spin branches),
    which is what preserves the qubit coherence through the jump.
    Amplitudes are in sqrt(rad/us).
    """

    terms: tuple[tuple[float, BasisState, BasisState], ...]  # (amplitude, to, from)

    @classmethod
    def single(cls, amplitude: float, to_state: BasisState, from_state: BasisState):
        return cls(terms=((amplitude, to_state, from_state),))

    def matrix(self, dim: int = DIM) -> np.ndarray:
        import numpy as np

        out = np.zeros((dim, dim))
        for amp, to_state, from_state in self.terms:
            out[to_state, from_state] += amp
        return out


def _p1_diagonal_mhz(p: ModelParams, state: BasisState) -> float:
    mJ, mI = P1_QUANTUM_NUMBERS[state]
    space = SpinSpace(I_SR, HalfInt(2))
    return hf_element(p.hyperfine_1p1, space, mJ, mI, mJ, mI) + zeeman_diag(p.zeeman, mJ, mI)


def hamiltonian_mhz(p: ModelParams) -> list[list[float]]:
    """13x13 rotating-frame Hamiltonian in MHz (value/2pi), as nested lists.

    Laser couplings enter as Omega/2 off-diagonals; detunings sit on the
    diagonals of the optically driven states (clock and ground rows stay
    zero).  The four 1P1 states additionally carry their hyperfine plus
    Zeeman diagonal, and the single spin-mixing hyperfine coupling
    |1P1 0, down> <-> |1P1 -1, up> is kept explicitly.  Plain floats, so
    that the configuration check needs no numpy.
    """
    B = BasisState
    H = [[0.0] * DIM for _ in range(DIM)]

    H[B.D2_F13_STRETCH][B.D2_F13_STRETCH] = p.delta_pd + p.delta
    H[B.D2_F13_M11][B.D2_F13_M11] = p.delta_pd + p.delta
    H[B.D2_F11_M11][B.D2_F11_M11] = p.delta_pd + p.e_hf + p.delta
    H[B.S6_DOWN][B.S6_DOWN] = p.delta + p.delta_ps_extra
    for s in (B.P1_0_DOWN, B.P1_M1_UP, B.P1_M1_DOWN):
        H[s][s] = p.delta

    def couple(i: BasisState, j: BasisState, omega: float) -> None:
        H[i][j] += omega / 2
        H[j][i] += omega / 2

    couple(B.D2_F13_STRETCH, B.P1_M1_DOWN, p.omega_pd)
    couple(B.D2_F13_M11, B.P1_0_DOWN, XI.xi0 * p.omega_pd)
    couple(B.D2_F13_M11, B.P1_M1_UP, XI.xi1 * p.omega_pd)
    couple(B.D2_F11_M11, B.P1_0_DOWN, XI.xi2 * p.omega_pd)
    couple(B.D2_F11_M11, B.P1_M1_UP, XI.xi3 * p.omega_pd)
    couple(B.S6_DOWN, B.P1_0_DOWN, p.omega_ps)
    couple(B.P1_M1_UP, B.CLOCK_UP, p.omega_eff)
    couple(B.P1_M1_DOWN, B.CLOCK_DOWN, p.omega_eff)

    for s in P1_STATES:
        H[s][s] += _p1_diagonal_mhz(p, s)

    space = SpinSpace(I_SR, HalfInt(2))
    mix = hf_element(p.hyperfine_1p1, space, HalfInt(0), MI_DOWN, HalfInt(-2), MI_UP)
    H[B.P1_0_DOWN][B.P1_M1_UP] += mix
    H[B.P1_M1_UP][B.P1_0_DOWN] += mix

    return H


def hamiltonian(p: ModelParams) -> np.ndarray:
    """13x13 rotating-frame Hamiltonian in rad/us (real symmetric): 2pi hamiltonian_mhz(p)."""
    import numpy as np

    return TWO_PI * np.array(hamiltonian_mhz(p))


def collapse_ops(p: ModelParams) -> list[CollapseOp]:
    """The nine spontaneous-emission channels, amplitudes in sqrt(rad/us).

    1P1 decays to ground at gamma_p/3 per mJ channel; the mJ=-1 channel is a
    single two-term operator covering both nuclear-spin branches.  The 6s
    state decays at gamma_s into each of the three 1P1 mJ states, and each
    of the three 1D2 states drains into the reservoir at gamma_d.
    """
    B = BasisState
    amp_p = math.sqrt(TWO_PI * p.gamma_p / 3)
    amp_s = math.sqrt(TWO_PI * p.gamma_s)
    amp_d = math.sqrt(TWO_PI * p.gamma_d)
    ops = [
        CollapseOp(terms=(
            (amp_p, B.GROUND_UP, B.P1_M1_UP),
            (amp_p, B.GROUND_DOWN, B.P1_M1_DOWN),
        )),
        CollapseOp.single(-amp_p, B.GROUND_DOWN, B.P1_0_DOWN),
        CollapseOp.single(amp_p, B.GROUND_DOWN, B.P1_P1_DOWN),
        CollapseOp.single(amp_s, B.P1_0_DOWN, B.S6_DOWN),
        CollapseOp.single(amp_s, B.P1_P1_DOWN, B.S6_DOWN),
        CollapseOp.single(amp_s, B.P1_M1_DOWN, B.S6_DOWN),
        CollapseOp.single(amp_d, B.RESERVOIR, B.D2_F13_STRETCH),
        CollapseOp.single(amp_d, B.RESERVOIR, B.D2_F13_M11),
        CollapseOp.single(amp_d, B.RESERVOIR, B.D2_F11_M11),
    ]
    return ops


def with_polarization_impurity(p: ModelParams, chi: float) -> ModelParams:
    """Parameters with a polarization intensity impurity chi on the dressing laser.

    Every sigma-minus dressing coupling drops to (1-sqrt(chi)), i.e.
    omega_pd is scaled wholesale.
    """
    if not 0 <= chi < 1:
        raise ValueError(f"chi must be in [0, 1), got {chi}")
    return p.replace(omega_pd=(1 - math.sqrt(chi)) * p.omega_pd)


def qubit_vectors(alpha: complex, beta: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial clock-manifold state, ground-manifold target, and its qubit-plane complement.

    Amplitudes are normalized internally; psi_perp carries (beta*, -alpha*)
    on the ground manifold so that <psi_f|psi_perp> = 0.
    """
    import numpy as np

    # hypot overflows near the largest floats and loses bits among the subnormals, so
    # both amplitudes are first divided by the power of two just above their largest part;
    # in two halves (2^1074 is no float) this is exact, and ordinary values keep their bits
    top = max(abs(part) for z in (complex(alpha), complex(beta)) for part in (z.real, z.imag))
    shift = math.frexp(top)[1]
    for half in (shift // 2, shift - shift // 2):
        alpha, beta = alpha / 2.0 ** half, beta / 2.0 ** half
    norm = math.hypot(abs(alpha), abs(beta))
    if norm == 0:
        raise ValueError("qubit amplitudes must not both be zero")
    a, b = alpha / norm, beta / norm
    psi0 = np.zeros(DIM, dtype=complex)
    psi0[BasisState.CLOCK_UP] = a
    psi0[BasisState.CLOCK_DOWN] = b
    psi_f = np.zeros(DIM, dtype=complex)
    psi_f[BasisState.GROUND_UP] = a
    psi_f[BasisState.GROUND_DOWN] = b
    psi_perp = np.zeros(DIM, dtype=complex)
    psi_perp[BasisState.GROUND_UP] = np.conj(b)
    psi_perp[BasisState.GROUND_DOWN] = -np.conj(a)
    return psi0, psi_f, psi_perp
