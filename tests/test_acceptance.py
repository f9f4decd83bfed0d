"""Acceptance suite: the quantitative exit criteria of the package.

Each test prints one PASS/FAIL line (run with -s to stream them).  All
golden numbers are checked at fixed tolerances; shared heavy runs come from
session fixtures.
"""

import math
import time

import numpy as np

from spincool.analysis import (
    balance_omega_pd,
    cool,
    dressed_pair,
    min_omega_ps,
    nu_or_imbalance,
)
from spincool.angmom import clebsch_gordan
from spincool.hyperfine import (
    HyperfineConstants,
    f_level_energy,
    hf_element,
)
from spincool.lasercalc import (
    angular_frequency,
    field_for_rabi,
    intensity_from_field,
    power_from_intensity,
    rdme_from_linewidth,
)
from spincool.lindblad import evolve, pure_density
from spincool.srmodel import (
    BasisState,
    collapse_ops,
    hamiltonian,
    hamiltonian_mhz,
    qubit_vectors,
)

from .oracles import full_states, half_values, hf_matrix, operator_hf_matrix, racah_cg

RESULTS: list[tuple[str, bool]] = []


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    RESULTS.append((criterion, ok))
    assert ok, f"{criterion}: {detail}"


def within(value: float, target: float, tol: float) -> bool:
    return abs(value - target) <= tol


class TestCriterion01HyperfineGoldenValues:
    def test_diagonals(self, reference_params):
        c = HyperfineConstants(-3.4, 39.0)
        hf_up = hf_element(c, 4.5, 1, -1, -3.5, -1, -3.5)
        hf_down = hf_element(c, 4.5, 1, -1, -4.5, -1, -4.5)
        # the model's own 1P1 diagonals at 1 G, without the common shift delta
        H = hamiltonian_mhz(reference_params.replace(delta=0.0))
        full_up = H[BasisState.P1_M1_UP][BasisState.P1_M1_UP]
        full_down = H[BasisState.P1_M1_DOWN][BasisState.P1_M1_DOWN]
        ok = (within(hf_up, -8.65, 0.01) and within(hf_down, -5.55, 0.01)
              and within(full_up, -10.05, 0.01) and within(full_down, -6.95, 0.01))
        check("1 hyperfine diagonals (-8.65, -5.55) and with field (-10.05, -6.95) MHz",
              ok, f"got ({hf_up:.4f}, {hf_down:.4f}), ({full_up:.4f}, {full_down:.4f})")


class TestCriterion02FLevels:
    def test_levels_and_splittings(self):
        c = HyperfineConstants(-194.0, -75.0)
        targets = {13: -1765.0, 11: -463.0, 9: 604.0, 7: 1453.0, 5: 2100.0}
        levels = {tf: f_level_energy(c, 4.5, 2, tf / 2) for tf in targets}
        ok = all(within(levels[tf], targets[tf], 1.0) for tf in targets)
        s1, s2 = levels[11] - levels[13], levels[9] - levels[11]
        ok = ok and 1250.0 <= s1 <= 1350.0 and 1050.0 <= s2 <= 1150.0
        check("2 1D2 F-level energies and ~1.3/1.1 GHz splittings", ok,
              f"levels={[round(levels[tf], 2) for tf in (13, 11, 9, 7, 5)]}, "
              f"splittings=({s1:.1f}, {s2:.1f})")


class TestCriterion03XiFactors:
    def test_values(self, reference_params):
        # the model's own dressing couplings, each relative to the stretched line
        B = BasisState
        H = hamiltonian_mhz(reference_params)
        ref = H[B.D2_F13_STRETCH][B.P1_M1_DOWN]
        got = tuple(H[d2][p1] / ref for d2, p1 in ((B.D2_F13_M11, B.P1_0_DOWN),
                                                   (B.D2_F13_M11, B.P1_M1_UP),
                                                   (B.D2_F11_M11, B.P1_0_DOWN),
                                                   (B.D2_F11_M11, B.P1_M1_UP)))
        expected = (math.sqrt(2 / 13), 3 / math.sqrt(13), 3 / math.sqrt(26),
                    -2 / math.sqrt(13))
        ok = all(abs(g - e) <= 1e-12 for g, e in zip(got, expected))
        check("3 dressing angular factors to 1e-12", ok,
              f"got {tuple(round(g, 6) for g in got)}")


class TestCriterion04DressedPair:
    def test_overlaps_and_energy(self, reference_params):
        pair = dressed_pair(reference_params)
        nu, imbalance = nu_or_imbalance(reference_params)
        ok = (imbalance is None
              and within(pair.overlap_up, 0.99409, 5e-4)
              and within(pair.overlap_down, 0.99910, 5e-4)
              and within(nu, -3.8826, 0.01))
        check("4 dressed overlaps (0.99409, 0.99910), common energy -3.8826 MHz",
              ok, f"got ({pair.overlap_up:.5f}, {pair.overlap_down:.5f}), "
                  f"nu={nu}, imbalance={imbalance}")


class TestCriterion05Balancing:
    def test_root(self, reference_params):
        root = balance_omega_pd(reference_params, bracket=(50.0, 300.0))
        ok = within(root, 144.27, 0.05)
        check("5 balanced dressing Rabi frequency 144.27 +/- 0.05 MHz", ok,
              f"got {root:.4f}")


class TestCriterion06ReferenceRun:
    def test_endpoint(self, fig3_run):
        r = fig3_run
        ok = within(r.fidelity, 0.9996, 3e-4)
        ok = ok and within(r.pop_perp, 1.0e-4, 0.3e-4)
        ok = ok and within(r.pop_reservoir, 2.9e-4, 0.3 * 2.9e-4)
        ok = ok and 7e-7 <= r.pop_residual_clock <= 7e-5
        check("6 reference endpoint: fidelity 0.9996, perp 1.0e-4, "
              "reservoir 2.9e-4, residual clock ~7e-6", ok,
              f"got {r.fidelity:.5f}, {r.pop_perp:.2e}, {r.pop_reservoir:.2e}, "
              f"{r.pop_residual_clock:.1e}")

    def test_single_run_under_ten_seconds(self, reference_params):
        start = time.perf_counter()
        cool(1.0, 1.0, reference_params, t_final=20.0, samples=401)
        elapsed = time.perf_counter() - start
        check("6b one 20 us run completes in under 10 s", elapsed < 10.0,
              f"{elapsed:.2f} s")


class TestCriterion07Table1:
    def test_ratio_sweep(self, table1_rows, reference_params):
        targets = {0.1: 0.9999, 1 / 3: 0.9999, 0.5: 0.9998, 2.0: 0.9993,
                   3.0: 0.9992, 10.0: 0.9991}
        got = {row.overrides["alpha_over_beta"]: row.fidelity for row in table1_rows}
        ok = all(within(got[r], targets[r], 2e-4) for r in targets)
        extreme = cool(100.0, 1.0, reference_params, t_final=20.0)
        ok = ok and within(extreme.fidelity, 0.99909, 2e-4)
        check("7 amplitude-ratio fidelities and the 100:1 point 0.99909", ok,
              f"got {[round(got[r], 5) for r in targets]}, "
              f"extreme {extreme.fidelity:.5f}")


class TestCriterion08Sensitivity:
    def test_rows(self, sensitivity_rows):
        rows = {r.name: r for r in sensitivity_rows}
        detail = []
        ok = True

        r = rows["delta=0"]
        ok &= within(r.fidelity, 0.9991, 3e-4)
        detail.append(f"delta=0@20: {r.fidelity:.5f}")
        r = rows["delta=0 (late)"]
        ok &= within(r.fidelity, 0.9996, 3e-4)
        detail.append(f"delta=0@26: {r.fidelity:.5f}")

        r = rows["omega_ps=250"]
        ok &= within(r.fidelity, 0.9996, 3e-4)
        detail.append(f"ps250: {r.fidelity:.5f}")

        r = rows["ps_detuning=10"]
        ok &= within(r.fidelity, 0.9996, 3e-4)
        detail.append(f"ps_det10: {r.fidelity:.5f}")

        r = rows["omega_pd=140"]
        ok &= within(r.fidelity, 0.99946, 3e-4)
        ok &= within(r.notes["fidelity_30us"], 0.99947, 3e-4)
        ok &= within(r.pop_perp, 2.6e-4, 0.3 * 2.6e-4)
        detail.append(f"pd140: {r.fidelity:.5f}/{r.notes['fidelity_30us']:.5f}, "
                      f"perp {r.pop_perp:.2e}")

        r = rows["delta_pd=-1750"]
        ok &= within(r.fidelity, 0.9988, 3e-4)
        ok &= within(r.notes["imbalance_mhz"], 0.42, 0.02)
        ok &= within(r.pop_perp, 9.2e-4, 0.3 * 9.2e-4)
        detail.append(f"pd-1750: {r.fidelity:.5f}, imb {r.notes['imbalance_mhz']:.3f}, "
                      f"perp {r.pop_perp:.2e}")

        r = rows["omega_eff=2"]
        ok &= r.fidelity >= 0.9995
        detail.append(f"eff2@5: {r.fidelity:.5f}")

        check("8 sensitivity table (six laser excursions)", bool(ok), "; ".join(detail))


class TestCriterion09Impurity:
    def test_dressing_impurity(self, impurity_rows):
        rows = {r.overrides["chi"]: r.fidelity for r in impurity_rows}
        ok = within(rows[0.01], 0.9981, 5e-4) and within(rows[0.1], 0.9878, 1e-3)
        check("9 polarization impurity: chi 0.01 -> 0.9981, chi 0.1 -> 0.9878",
              ok, f"got {rows[0.01]:.5f}, {rows[0.1]:.5f}")


class TestCriterion10ScaledConstants:
    def test_fourfold(self, reference_params):
        p = reference_params
        pair = dressed_pair(p.replace(a_1p1=4 * p.a_1p1, q_1p1=4 * p.q_1p1))
        up, down = pair.overlap_up, pair.overlap_down
        ok = within(up, 0.984, 0.002) and within(down, 0.999, 0.002)
        check("10 fourfold hyperfine constants -> overlaps (0.984, 0.999)", ok,
              f"got ({up:.4f}, {down:.4f})")


class TestCriterion11Isotopes:
    def test_minimal_rabi_estimates(self):
        targets = {"171Yb": (0.5, -213.0, 0.0, 2150.0),
                   "173Yb": (2.5, 60.0, 600.0, 5400.0),
                   "43Ca": (3.5, -15.46, -9.7, 490.0),
                   "41Ca": (3.5, -18.84, -9.2, 580.0),
                   "67Zn": (2.5, 17.7, 20.0, 535.0)}
        detail = []
        ok = True
        for name, (I, A, Q, target) in targets.items():
            got = min_omega_ps(I, A, Q)
            ok &= abs(got - target) <= 0.15 * target
            detail.append(f"{name}: {got:.0f}")
        check("11 minimal suppression Rabi frequencies across species (+/-15%)",
              bool(ok), "; ".join(detail))


class TestCriterion12LaserBudget:
    def test_conversion_chain(self):
        d_main = rdme_from_linewidth(2.0e8, 2 * math.pi * 6.51e14, 9)
        d_ir = rdme_from_linewidth(1.86e7, angular_frequency(1124.232), 1)
        field_ir = field_for_rabi(300.0, d_ir)
        intensity_ir = intensity_from_field(field_ir) / 1e4
        power_ir = power_from_intensity(intensity_from_field(field_ir), 20.0) * 1e3
        field_uv = field_for_rabi(144.27, 0.092)
        power_uv = power_from_intensity(intensity_from_field(field_uv), 20.0) * 1e3
        values = [(d_main, 5.38), (d_ir, 2.09), (field_ir, 1.12e4),
                  (intensity_ir, 16.7), (power_ir, 0.21), (field_uv, 1.23e5),
                  (power_uv, 25.1)]
        ok = all(abs(got - want) <= 0.02 * want for got, want in values)
        check("12 laser-budget chain (7 worked conversions, +/-2%)", ok,
              "; ".join(f"{got:.4g}/{want:g}" for got, want in values))


class TestCriterion13PropertySuites:
    def test_state_invariants_along_reference_run(self, fig3_run):
        traces = [abs(np.trace(r).real - 1) for r in full_states(fig3_run.trajectory)]
        herms = [np.abs(r - r.conj().T).max() for r in full_states(fig3_run.trajectory)]
        eigs = [np.linalg.eigvalsh(r).min() for r in full_states(fig3_run.trajectory)]
        ok = max(traces) <= 1e-8 and max(herms) <= 1e-9 and min(eigs) >= -1e-8
        check("13a state invariants: trace 1e-8, hermiticity 1e-9, positivity 1e-8",
              ok, f"max drift {max(traces):.1e}, {max(herms):.1e}, min eig {min(eigs):.1e}")

    def test_cg_matches_oracle(self):
        worst = 0.0
        for j1 in half_values(4.5):
            for j2 in half_values(4.5):
                tj1, tj2 = round(2 * j1), round(2 * j2)
                for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                    for tm1 in range(-tj1, tj1 + 1, 2):
                        for tm2 in range(-tj2, tj2 + 1, 2):
                            if abs(tm1 + tm2) > tJ:
                                continue
                            got = clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2,
                                                 tJ / 2, (tm1 + tm2) / 2)
                            want = racah_cg(j1, tm1 / 2, j2, tm2 / 2,
                                            tJ / 2, (tm1 + tm2) / 2)
                            worst = max(worst, abs(got - want))
        check("13b CG vs independent factorial-sum oracle to 1e-12",
              worst < 1e-12, f"worst {worst:.2e}")

    def test_hyperfine_matrix_vs_operator_oracle(self):
        worst = 0.0
        for I in half_values(4.5):
            for J in half_values(2.0):
                got = hf_matrix(HyperfineConstants(-3.4, 39.0), I, J)
                want = operator_hf_matrix(-3.4, 39.0, I, J).real
                worst = max(worst, np.abs(got - want).max())
        check("13c hyperfine matrix vs operator-construction oracle to 1e-9 MHz",
              worst < 1e-9, f"worst {worst:.2e}")

    def test_two_level_decay_analytic(self):
        gamma = 0.9
        c = np.zeros((2, 2))
        c[0, 1] = math.sqrt(gamma)
        traj = evolve(pure_density(np.array([0.0, 1.0])), np.zeros((2, 2)), [c], 4.0, 9)
        excited = np.array([r[1, 1].real for r in full_states(traj)])
        rel = np.abs(excited / np.exp(-gamma * traj.times) - 1).max()
        check("13d two-level decay matches analytic to 1e-6 relative",
              rel < 1e-6, f"worst rel {rel:.1e}")

    def test_determinism_byte_identical(self, reference_params):
        psi0, _, _ = qubit_vectors(1.0, 1.0)
        H = hamiltonian(reference_params)
        cs = [c.matrix() for c in collapse_ops(reference_params)]
        a = evolve(pure_density(psi0), H, cs, 5.0, 11)
        b = evolve(pure_density(psi0), H, cs, 5.0, 11)
        ok = all(x.tobytes() == y.tobytes() for x, y in zip(full_states(a), full_states(b)))
        check("13e reruns are byte-identical", ok)

    def test_grid_subdivision_convergence(self, reference_params, fig3_run):
        # 1201, 2001 and 6801 samples split each 0.05 us step of the
        # 401-sample grid into 3, 5 and 17 steps; the endpoint must not move
        # beyond 1e-9
        diffs = []
        for samples in (1201, 2001, 6801):
            sub = cool(1.0, 1.0, reference_params, t_final=20.0, samples=samples)
            diffs.append(max(abs(sub.fidelity - fig3_run.fidelity),
                             abs(sub.pop_perp - fig3_run.pop_perp)))
        check("13f endpoint stable under grid subdivision (<1e-9)",
              max(diffs) < 1e-9, f"diffs {', '.join(f'{d:.1e}' for d in diffs)}")
