"""Command-line front end.

Subcommands:

    simulate    run the cooling dynamics, write trajectory CSV + summary JSON
    balance     find the dressing Rabi frequency that balances the dressed pair
    dressed     print the dressed-pair overlaps and energies
    reproduce   regenerate a reference artifact (fig3, table1, sensitivity,
                impurity, appendixA, levels, isotopes)
    lasercalc   print the laser-budget conversion table
    levels      print the 5s15d 1D2 F-level energies

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from . import analysis, lasercalc
from .angmom import HalfInt
from .config import (ConfigError, RunConfig, SummaryRecord, atomic_write_text,
                     config_hash, load_run_config)
from .hyperfine import HyperfineConstants, f_level_energy
from .lindblad import DensityMatrixError, IntegrationError
from .svgplot import line_plot

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _csv(kind: str, cols, rows) -> str:
    """CSV text under a `# spincool {kind} csv v1` schema line.

    A str cell is written as is; any other cell is a number, written as the
    repr of its float so that it reads back bit for bit.
    """
    lines = [f"# spincool {kind} csv v1", ",".join(cols)]
    lines += [",".join(v if isinstance(v, str) else repr(float(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_TRAJECTORY_COLS = ("pop_psi0", "pop_psif", "pop_perp", "pop_reservoir",
                    "pop_1P1_total", "pop_1D2_total", "pop_6s")


def _trajectory_csv(traj) -> str:
    series = [traj.observables[c] for c in _TRAJECTORY_COLS]
    return _csv("trajectory", ("t_us", *_TRAJECTORY_COLS), zip(traj.times, *series))


def _write_sweep(out_dir: str, stem: str, kind: str, cols, rows, records) -> None:
    """One sweep as {stem}.csv and {stem}.json; prints the CSV past its schema line."""
    text = _csv(kind, cols, rows)
    atomic_write_text(f"{out_dir}/{stem}.csv", text)
    atomic_write_text(f"{out_dir}/{stem}.json", _json(records))
    print(text.split("\n", 1)[1], end="")


def _write_points(out_dir: str, stem: str, key: str, rows) -> None:
    """A one-parameter sweep, one record per swept value."""
    cols = (key, "fidelity", "pop_perp", "pop_total")
    points = [(r.overrides[key], r.fidelity, r.pop_perp, r.notes["pop_total"])
              for r in rows]
    _write_sweep(out_dir, stem, stem, cols, points,
                 [dict(zip(cols, point)) for point in points])


def _dressed_summary(cfg: RunConfig) -> tuple[tuple[float, float] | None,
                                              float | None, float | None]:
    try:
        pair = analysis.dressed_pair(cfg.params)
        overlaps = (pair.overlap_up, pair.overlap_down)
    except analysis.AmbiguousOverlapError:
        return None, None, None
    try:
        nu = analysis.compute_nu(cfg.params)
        return overlaps, nu, None
    except analysis.UnbalancedError as exc:
        return overlaps, None, abs(exc.imbalance_mhz)


def cmd_simulate(cfg: RunConfig, out_dir: str, svg: bool) -> int:
    start = time.perf_counter()
    result = analysis.cool(cfg.alpha, cfg.beta, cfg.params,
                           t_final=cfg.t_final, samples=cfg.samples)
    overlaps, nu, imbalance = _dressed_summary(cfg)
    record = SummaryRecord(
        config=cfg.to_flat_dict(),
        config_sha=config_hash(cfg),
        fidelity=result.fidelity,
        final_populations={
            "perp": result.pop_perp,
            "reservoir": result.pop_reservoir,
            "residual_clock": result.pop_residual_clock,
        },
        dressed_overlaps=overlaps,
        nu_mhz=nu,
        imbalance_mhz=imbalance,
    )
    atomic_write_text(f"{out_dir}/trajectory.csv", _trajectory_csv(result.trajectory))
    atomic_write_text(f"{out_dir}/summary.json", _json(dataclasses.asdict(record)))
    if svg:
        t = list(result.trajectory.times)
        obs = result.trajectory.observables
        leak = [("perp", t, list(obs["pop_perp"])),
                ("reservoir", t, list(obs["pop_reservoir"])),
                ("1P1", t, list(obs["pop_1P1_total"])),
                ("1D2", t, list(obs["pop_1D2_total"])),
                ("6s", t, list(obs["pop_6s"]))]
        main = [("initial", t, list(obs["pop_psi0"])),
                ("target", t, list(obs["pop_psif"]))]
        svg_doc = line_plot(leak, xlabel="t (us)", ylabel="log10 population",
                            title="leakage populations", log_y=True)
        atomic_write_text(f"{out_dir}/populations_log.svg", svg_doc)
        svg_doc = line_plot(main, xlabel="t (us)", ylabel="population",
                            title="qubit transfer")
        atomic_write_text(f"{out_dir}/transfer.svg", svg_doc)
    print(f"fidelity at {cfg.t_final:g} us: {result.fidelity:.6f}  "
          f"(outputs in {out_dir}, wall clock {time.perf_counter() - start:.3f} s)")
    return 0


def cmd_balance(cfg: RunConfig, out_dir: str, bracket: tuple[float, float]) -> int:
    p = cfg.params
    try:
        nu_input = None
        imbalance_input = None
        try:
            nu_input = analysis.compute_nu(p)
        except analysis.UnbalancedError as exc:
            imbalance_input = abs(exc.imbalance_mhz)
        balanced = analysis.balance_omega_pd(p, bracket=bracket)
        nu = analysis.compute_nu(p.replace(omega_pd=balanced))
    except analysis.BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    payload = {
        "omega_pd_input_mhz": p.omega_pd,
        "imbalance_at_input_mhz": imbalance_input,
        "nu_at_input_mhz": nu_input,
        "omega_pd_balanced_mhz": balanced,
        "nu_mhz": nu,
        "delta_recommendation_mhz": -nu,
    }
    text = _json(payload)
    atomic_write_text(f"{out_dir}/balance.json", text)
    print(text, end="")
    return 0


def cmd_dressed(cfg: RunConfig) -> int:
    pair = analysis.dressed_pair(cfg.params)
    payload = {
        "overlap_up": pair.overlap_up,
        "overlap_down": pair.overlap_down,
        "energy_up_mhz": pair.energy_up,
        "energy_down_mhz": pair.energy_down,
    }
    print(_json(payload), end="")
    return 0


def cmd_levels(out_dir: str) -> int:
    c = HyperfineConstants(-194.0, -75.0)
    I, J = HalfInt(9), HalfInt(4)
    rows = [(str(twice_f), f_level_energy(c, I, J, HalfInt(twice_f)))
            for twice_f in (13, 11, 9, 7, 5)]
    text = _csv("levels", ("twice_F", "energy_mhz"), rows)
    atomic_write_text(f"{out_dir}/levels.csv", text)
    print(text, end="")
    return 0


def cmd_lasercalc(out_dir: str) -> int:
    records = lasercalc.sr_laser_budget()
    text = _json(records)
    atomic_write_text(f"{out_dir}/laser_budget.json", text)
    print(text, end="")
    return 0


def cmd_reproduce(which: str, cfg: RunConfig, out_dir: str) -> int:
    p = cfg.params
    if which == "fig3":
        result = analysis.cool(1.0, 1.0, p, t_final=cfg.t_final, samples=cfg.samples)
        atomic_write_text(f"{out_dir}/fig3.csv", _trajectory_csv(result.trajectory))
        print(f"fig3: fidelity {result.fidelity:.5f}, perp {result.pop_perp:.2e}, "
              f"reservoir {result.pop_reservoir:.2e}")
    elif which == "table1":
        _write_points(out_dir, "table1", "alpha_over_beta",
                      analysis.table1_sweep(p, t_final=cfg.t_final))
    elif which == "sensitivity":
        rows = analysis.sensitivity_suite(p)
        notes = ("fidelity_30us", "pop_perp_30us", "imbalance_mhz")
        cells = [(r.name, r.t_us, r.fidelity, r.pop_perp,
                  *(r.notes.get(k, "") for k in notes)) for r in rows]
        _write_sweep(out_dir, "sensitivity", "sweep",
                     ("name", "t_us", "fidelity", "pop_perp", *notes), cells,
                     [r.to_dict() for r in rows])
    elif which == "impurity":
        _write_points(out_dir, "impurity", "chi",
                      analysis.impurity_sweep(p, t_final=cfg.t_final))
    elif which == "appendixA":
        return cmd_lasercalc(out_dir)
    elif which == "levels":
        return cmd_levels(out_dir)
    elif which == "isotopes":
        table = analysis.isotope_table()
        text = _json(table)
        atomic_write_text(f"{out_dir}/isotopes.json", text)
        print(text, end="")
    else:
        print(f"error: unknown reproduce target {which!r}", file=sys.stderr)
        return EXIT_CONFIG
    return 0


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the shared flags are accepted both before and after the subcommand;
    # the after-subcommand copies only override when given explicitly
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=d if suppress else None,
                        help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        default=d if suppress else [],
                        help="override one config key (repeatable)")
    parser.add_argument("--out", default=d if suppress else "out",
                        help="output directory (not empty)")
    parser.add_argument("--svg", action="store_true",
                        default=d if suppress else False,
                        help="also emit SVG plots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spincool",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name)
        _common_flags(cmd, suppress=True)
        return cmd

    add_command("simulate")
    balance = add_command("balance")
    balance.add_argument("--bracket", nargs=2, type=float, default=(50.0, 300.0),
                         metavar=("LO", "HI"))
    add_command("dressed")
    repro = add_command("reproduce")
    repro.add_argument("target", choices=("fig3", "table1", "sensitivity",
                                          "impurity", "appendixA", "levels",
                                          "isotopes"))
    add_command("lasercalc")
    add_command("levels")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not args.out:
        # an empty directory would put every output at the filesystem root
        print("config error: --out must not be empty", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_run_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.svg)
        if args.command == "balance":
            return cmd_balance(cfg, args.out, tuple(args.bracket))
        if args.command == "dressed":
            return cmd_dressed(cfg)
        if args.command == "reproduce":
            return cmd_reproduce(args.target, cfg, args.out)
        if args.command == "lasercalc":
            return cmd_lasercalc(args.out)
        if args.command == "levels":
            return cmd_levels(args.out)
    except (IntegrationError, DensityMatrixError, np.linalg.LinAlgError,
            analysis.AmbiguousOverlapError, analysis.SaturationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
