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

Importing this module loads only the stdlib and the pure-Python model
modules (config, srmodel, hyperfine, angmom, constants, lasercalc,
svgplot).  numpy, analysis and lindblad load in the commands that compute
(simulate, balance, dressed, reproduce fig3/table1/sensitivity/impurity/
isotopes), so levels, lasercalc, reproduce appendixA/levels, --help and
every configuration error run without numpy.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import TYPE_CHECKING

from . import __version__, lasercalc
from .angmom import HalfInt
from .config import ConfigError, RunConfig, atomic_write_text, config_hash, load_run_config
from .hyperfine import HyperfineConstants, f_level_energy
from .svgplot import line_plot

if TYPE_CHECKING:
    from . import analysis

# at most 169-wide matrices gain nothing from more BLAS threads but CPU time;
# the pool is sized when numpy loads, so default it to one before, unless set
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

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


def _trajectory_csv(result: analysis.CoolingResult) -> str:
    times, series = result.trajectory.times, result.series
    return _csv("trajectory", ("t_us", *series), zip(times, *series.values()))


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
    from . import analysis

    try:
        pair = analysis.dressed_pair(cfg.params)
    except analysis.AmbiguousOverlapError:
        return None, None, None
    return (pair.overlap_up, pair.overlap_down), *analysis.nu_or_imbalance(cfg.params)


def cmd_simulate(cfg: RunConfig, out_dir: str, svg: bool) -> int:
    from . import analysis

    start = time.perf_counter()
    result = analysis.cool(cfg.alpha, cfg.beta, cfg.params,
                           t_final=cfg.t_final, samples=cfg.samples)
    overlaps, nu, imbalance = _dressed_summary(cfg)
    # echoes its input so runs are repeatable; no wall-clock data, so reruns are identical
    payload = {
        "config": cfg.to_flat_dict(),
        "config_sha": config_hash(cfg),
        "fidelity": result.fidelity,
        "final_populations": {
            "perp": result.pop_perp,
            "reservoir": result.pop_reservoir,
            "residual_clock": result.pop_residual_clock,
        },
        "dressed_overlaps": overlaps,
        "nu_mhz": nu,
        "imbalance_mhz": imbalance,
        "tool_version": f"spincool {__version__}",
    }
    atomic_write_text(f"{out_dir}/trajectory.csv", _trajectory_csv(result))
    atomic_write_text(f"{out_dir}/summary.json", _json(payload))
    if svg:
        t, obs = list(result.trajectory.times), result.series
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
    from . import analysis

    p = cfg.params
    try:
        nu_input, imbalance_input = analysis.nu_or_imbalance(p)
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
    from . import analysis

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
    """The targets that compute; main runs appendixA and levels as lasercalc and levels."""
    from . import analysis

    p = cfg.params
    if which == "fig3":
        result = analysis.cool(1.0, 1.0, p, t_final=cfg.t_final, samples=cfg.samples)
        atomic_write_text(f"{out_dir}/fig3.csv", _trajectory_csv(result))
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
                     [dataclasses.asdict(r) for r in rows])
    elif which == "impurity":
        _write_points(out_dir, "impurity", "chi",
                      analysis.impurity_sweep(p, t_final=cfg.t_final))
    elif which == "isotopes":
        table = analysis.isotope_table()
        text = _json(table)
        atomic_write_text(f"{out_dir}/isotopes.json", text)
        print(text, end="")
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
    # the writes create --out below its nearest existing path, which must be a directory
    existing = args.out
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        print(f"config error: --out {args.out}: {existing} is not a directory", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_run_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # scalar arithmetic only: these run without numpy
    name = args.target if args.command == "reproduce" else args.command
    if name == "levels":
        return cmd_levels(args.out)
    if name in ("lasercalc", "appendixA"):
        return cmd_lasercalc(args.out)
    import numpy as np
    from .analysis import AmbiguousOverlapError, SaturationError
    from .lindblad import DensityMatrixError, IntegrationError
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out, args.svg)
        if args.command == "balance":
            return cmd_balance(cfg, args.out, tuple(args.bracket))
        if args.command == "dressed":
            return cmd_dressed(cfg)
        return cmd_reproduce(args.target, cfg, args.out)
    except (IntegrationError, DensityMatrixError, np.linalg.LinAlgError,
            AmbiguousOverlapError, SaturationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
