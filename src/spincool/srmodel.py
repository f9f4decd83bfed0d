"""The concrete 13-level 87Sr cooling model.

One table of states (STATES), and the laser couplings, 1P1 hyperfine and
Zeeman block and nine jumps derived from it by selection rule.  User-facing
quantities are frequencies (value/2pi) in MHz and gauss, exactly as quoted in
spectroscopy tables; assembly multiplies by 2pi so that Hamiltonians are in
rad/us and time is in us.

The nuclear-spin qubit lives in the two lowest Zeeman substates of the
I = 9/2 ground manifold: "up" is mI = -7/2 and "down" is mI = -9/2.
"""

from __future__ import annotations

import math
from enum import IntEnum
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, NamedTuple

from ._record import FrozenRecord
from .angmom import clebsch_gordan
from .constants import MU_B_MHZ_PER_G, MU_N_MHZ_PER_G, SR87_NUCLEAR_MOMENT, SR87_TWICE_I
from .hyperfine import HyperfineConstants, f_level_energy, hf_block

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
    "d2_f_levels",
    "with_polarization_impurity",
    "qubit_vectors",
]

TWO_PI = 2.0 * math.pi

# I = 9/2, the 1P1 J = 1, and the 5s15d 1D2 manifold that the dressing laser
# addresses: J = 2, and its A and Q in MHz
_I, _P1_J, _D2_J = SR87_TWICE_I / 2, 1, 2
_D2_HYPERFINE = HyperfineConstants(-194.0, -75.0)


class Level(NamedTuple):
    """One basis state: its name, manifold, quantum numbers and diagonal detuning terms."""

    name: str
    manifold: str              # "1D2", "6s", "1P1", "clock", "ground" or "reservoir"
    twice: tuple[int, ...]     # (2mJ, 2mI), or (2F, 2mF) for 1D2; none for the reservoir
    detuning: tuple[str, ...]  # ModelParams fields summed on the diagonal, in this order


# The one place where the basis is written, in basis order: every coupling, the 1P1
# hyperfine block and every jump below follow from these rows by selection rule.
# mI = -7/2 is the qubit's "up", mI = -9/2 its "down".
STATES = (
    Level("D2_F13_STRETCH", "1D2", (13, -13), ("delta_pd", "delta")),
    Level("D2_F13_M11", "1D2", (13, -11), ("delta_pd", "delta")),
    Level("D2_F11_M11", "1D2", (11, -11), ("delta_pd", "e_hf", "delta")),
    Level("S6_DOWN", "6s", (0, -9), ("delta", "delta_ps_extra")),
    Level("P1_0_DOWN", "1P1", (0, -9), ("delta",)),
    Level("P1_M1_UP", "1P1", (-2, -7), ("delta",)),
    Level("P1_M1_DOWN", "1P1", (-2, -9), ("delta",)),
    Level("CLOCK_UP", "clock", (0, -7), ()),
    Level("CLOCK_DOWN", "clock", (0, -9), ()),
    Level("GROUND_UP", "ground", (0, -7), ()),
    Level("GROUND_DOWN", "ground", (0, -9), ()),
    Level("RESERVOIR", "reservoir", (), ()),
    Level("P1_P1_DOWN", "1P1", (2, -9), ()),
)
DIM = len(STATES)
BasisState = IntEnum("BasisState", [(level.name, k) for k, level in enumerate(STATES)],
                     module=__name__)
BasisState.__doc__ = "The 13 basis states, named and ordered as in STATES."


def _in(manifold: str) -> tuple[BasisState, ...]:
    return tuple(s for s in BasisState if STATES[s].manifold == manifold)


def _p1_at(twice_mj: int, s: BasisState) -> list[BasisState]:
    """The 1P1 states of the given 2mJ whose mI is that of s."""
    return [p1 for p1 in P1_STATES if STATES[p1].twice == (twice_mj, STATES[s].twice[1])]


D2_STATES = _in("1D2")
P1_STATES = _in("1P1")
# (mJ, mI) of each 1P1 state, for its hyperfine block and Zeeman diagonal
_P1_MJ_MI = [tuple(t / 2 for t in STATES[s].twice) for s in P1_STATES]


def d2_f_levels() -> list[tuple[int, float]]:
    """(2F, E_F in MHz) of each 5s15d 1D2 hyperfine level, F from I + J down to |I - J|."""
    return [(tf, f_level_energy(_D2_HYPERFINE, _I, _D2_J, tf / 2))
            for tf in range(SR87_TWICE_I + 2 * _D2_J, abs(SR87_TWICE_I - 2 * _D2_J) - 1, -2)]


def _dressing_amplitude(F, mF, mJ, mI) -> float:
    """Un-normalized sigma-minus dipole amplitude <1D2 F mF | d_- | 1P1 mJ mI>.

    The photon removes one unit of z-projection from the J=1 electron state;
    the electron lands in the 1D2 manifold, which is then coupled to the
    nuclear spin to form F.  An mJ outside J=1 raises ValueError.
    """
    return (clebsch_gordan(1, mJ, 1, -1, _D2_J, mJ - 1)
            * clebsch_gordan(_D2_J, mJ - 1, _I, mI, F, mF))


def _couplings() -> list[tuple[BasisState, BasisState, str, float]]:
    """(state, state, Rabi-frequency field, relative amplitude) of each laser coupling.

    The sigma-minus dressing joins each 1P1 state to each 1D2 state its
    dipole amplitude reaches, relative to the stretched line; omega_ps joins
    6s to 1P1 mJ = 0, and omega_eff the clock to 1P1 mJ = -1, at equal mI.
    """
    def dressing(d2: BasisState, p1: BasisState) -> float:
        return _dressing_amplitude(*(t / 2 for t in STATES[d2].twice + STATES[p1].twice))

    stretched = next(s for s in D2_STATES if STATES[s].twice[1] == -STATES[s].twice[0])
    ref = next(a for s in P1_STATES if (a := dressing(stretched, s)))
    out = [(d2, p1, "omega_pd", a / ref) for d2 in D2_STATES for p1 in P1_STATES
           if (a := dressing(d2, p1))]
    for manifold, twice_mj, field in (("6s", 0, "omega_ps"), ("clock", -2, "omega_eff")):
        out += [(s, p1, field, 1.0) for s in _in(manifold) for p1 in _p1_at(twice_mj, s)]
    return out


def _jumps() -> list[tuple[str, int, tuple[tuple[float, BasisState, BasisState], ...]]]:
    """(linewidth field, share of it, (sign, to, from) terms) of each jump operator.

    1P1 decays to the ground state of equal mI, one operator per mJ holding
    every spin branch, signed by c = <1 mJ; 1 -mJ|0 0> at the share 1/c^2 = 3
    of gamma_p; 6s decays to 1P1 mJ = 0, +1, -1 at equal mI, and each 1D2
    state to the reservoir.
    """
    out = []
    for twice_mj in (-2, 0, 2):
        cg = clebsch_gordan(1, twice_mj / 2, 1, -twice_mj / 2, 0, 0)
        out.append(("gamma_p", round(cg ** -2), tuple(
            (math.copysign(1.0, cg), g, p1) for g in _in("ground") for p1 in _p1_at(twice_mj, g))))
    out += [("gamma_s", 1, ((1.0, p1, s6),))
            for s6 in _in("6s") for twice_mj in (0, 2, -2) for p1 in _p1_at(twice_mj, s6)]
    out += [("gamma_d", 1, ((1.0, BasisState.RESERVOIR, d2),)) for d2 in D2_STATES]
    return out


# derived once per process, as plain data
_COUPLINGS = _couplings()
_JUMPS = _jumps()


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


class CollapseOp(NamedTuple):
    """One spontaneous-emission jump operator, sum of amplitude |to><from| terms.

    The 1P1 mJ=-1 decay holds both spin branches in one operator, which is
    what preserves the qubit coherence through the jump.  Amplitudes are in
    sqrt(rad/us).
    """

    terms: tuple[tuple[float, BasisState, BasisState], ...]  # (amplitude, to, from)

    def matrix(self, dim: int = DIM) -> np.ndarray:
        import numpy as np

        out = np.zeros((dim, dim))
        for amp, to_state, from_state in self.terms:
            out[to_state, from_state] += amp
        return out


def hamiltonian_mhz(p: ModelParams) -> list[list[float]]:
    """13x13 rotating-frame Hamiltonian in MHz (value/2pi), as plain nested lists (no numpy).

    Detuning terms on the diagonal, each coupling's relative amplitude times
    Omega/2 off it, plus the 1P1 hyperfine and Zeeman block.
    """
    H = [[0.0] * DIM for _ in range(DIM)]
    for i, level in enumerate(STATES):
        if level.detuning:
            # added left to right as listed; sum() compensates on Python 3.12+
            H[i][i] = reduce(add, (getattr(p, name) for name in level.detuning))
    for i, j, field, amplitude in _COUPLINGS:
        w = amplitude * getattr(p, field) / 2
        H[i][j] += w
        H[j][i] += w
    block = hf_block(p.hyperfine_1p1, _I, _P1_J, _P1_MJ_MI)
    for n, (mJ, mI) in enumerate(_P1_MJ_MI):
        # Zeeman: gJ = 1 for the pure singlet L = 1, S = 0, and the nuclear moment
        # spread over mI in steps of moment/I
        block[n][n] += MU_B_MHZ_PER_G * p.b_field * mJ \
            - SR87_NUCLEAR_MOMENT / _I * MU_N_MHZ_PER_G * p.b_field * mI
    for i, row in zip(P1_STATES, block):
        for j, value in zip(P1_STATES, row):
            H[i][j] += value
    return H


def hamiltonian(p: ModelParams) -> np.ndarray:
    """13x13 rotating-frame Hamiltonian in rad/us (real symmetric): 2pi hamiltonian_mhz(p)."""
    import numpy as np

    return TWO_PI * np.array(hamiltonian_mhz(p))


def collapse_ops(p: ModelParams) -> list[CollapseOp]:
    """The nine spontaneous-emission channels, amplitudes in sqrt(rad/us).

    Each channel's amplitude is sqrt(2pi gamma / share), signed per term.
    """
    ops = []
    for field, share, terms in _JUMPS:
        amp = math.sqrt(TWO_PI * getattr(p, field) / share)
        ops.append(CollapseOp(tuple([(sign * amp, to, frm) for sign, to, frm in terms])))
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
    on the ground manifold so that <psi_f|psi_perp> = 0.  An amplitude that is
    not finite, or two that are both zero, is a ValueError.
    """
    import numpy as np

    parts = [part for z in (complex(alpha), complex(beta)) for part in (z.real, z.imag)]
    if not all(map(math.isfinite, parts)):
        raise ValueError(f"qubit amplitudes must be finite, got {alpha!r}, {beta!r}")
    # hypot overflows near the largest floats and loses bits among the subnormals, so
    # both amplitudes are first divided by the power of two just above their largest part;
    # in two halves (2^1074 is no float) this is exact, and ordinary values keep their bits
    top = max(map(abs, parts))
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
