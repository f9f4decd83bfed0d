"""Command-line front end.

build_parser holds each command's one-line help and the exit codes, which
`spincool --help` lists; main parses, loads the run configuration and runs the
command through _run.

Importing this module loads only the stdlib and the pure-Python model
modules (config, srmodel, hyperfine, angmom, constants).  _run imports by the
command's kind: nothing more for levels and reproduce levels, lasercalc for
lasercalc and reproduce appendixA, analysis for the rest, and numpy and the
engine, lindblad, only for those that evolve the master equation (simulate,
reproduce fig3/table1/sensitivity/impurity).  balance, dressed and reproduce
isotopes diagonalize a few levels in pure Python; they, the laser-budget and
levels commands, --help and every configuration error run without numpy.
svgplot loads only with --svg, which every command accepts and only simulate
reads.

Three settings hold for the CLI's own process, not for the library: BLAS
threads default to one, the cyclic garbage collector is paused while a
command imports, and once those imports are done the objects they built are
frozen out of garbage collection (gc.freeze) and the collector resumes.
main gives its caller back the collector's own on/off state on every exit.
"""

from __future__ import annotations

import argparse
import errno
import gc
import json
import os
import sys
import time

from . import __version__
from .config import ConfigError, RunConfig, atomic_write_text, config_hash, load_run_config
from .hyperfine import f_level_energy
from .srmodel import _D2_HYPERFINE, _D2_J, _I

# at most 169-wide matrices gain nothing from more BLAS threads but CPU time;
# the pool is sized when numpy loads, so default it to one before, unless set
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# the commands that evolve the master equation, the only ones that load numpy and lindblad
_EVOLVING = ("simulate", "fig3", "table1", "sensitivity", "impurity")


def _csv(kind: str, cols, lines) -> str:
    """CSV text under a `# spincool {kind} csv v1` schema line: the header cols, then
    the formatted lines."""
    return "\n".join([f"# spincool {kind} csv v1", ",".join(cols), *lines]) + "\n"


def _csv_line(cells) -> str:
    """One CSV line.  A str cell is written as is; any other cell is a Python float,
    written as its repr so that it reads back bit for bit."""
    return ",".join(v if isinstance(v, str) else repr(v) for v in cells)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _trajectory_csv(times, series: dict) -> str:
    # every cell is a float, so each column goes through repr by map, with no per-cell test
    columns = [map(repr, values.tolist()) for values in (times, *series.values())]
    return _csv("trajectory", ("t_us", *series), map(",".join, zip(*columns)))


class _Outputs:
    """A command's files and printed text, delivered together; every command prints here.

    write stages each file through atomic_write_text as it is rendered, in a private
    directory under out_dir; commit moves them all into place and then prints, and
    discard removes whatever is still staged, so a failed run leaves out_dir as it was.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self._stage = f"{out_dir}/.spincool-{os.getpid()}"
        self._names: list[str] = []
        self._stdout: list[str] = []

    def write(self, name: str, text: str, echo: bool = False) -> None:
        """Stage text as file name; with echo, also print the same text."""
        atomic_write_text(f"{self._stage}/{name}", text)
        self._names.append(name)
        if echo:
            self.print(text)

    def print(self, text: str) -> None:
        self._stdout.append(text)

    def commit(self) -> None:
        """Move the staged files into place, then print; a directory in a file's place
        raises before the first move, so that no file is replaced."""
        for name in self._names:
            target = f"{self.out_dir}/{name}"
            if os.path.isdir(target) and not os.path.islink(target):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
        for name in self._names:
            os.replace(f"{self._stage}/{name}", f"{self.out_dir}/{name}")
        print("".join(self._stdout), end="")

    def discard(self) -> None:
        """Remove the staging directory and whatever it still holds."""
        try:
            names = os.listdir(self._stage)
        except FileNotFoundError:
            return
        for name in names:
            os.unlink(f"{self._stage}/{name}")
        os.rmdir(self._stage)


def _write_sweep(out: _Outputs, stem: str, kind: str, cols, rows, records) -> None:
    """One sweep as {stem}.csv and {stem}.json; prints the CSV past its schema line."""
    text = _csv(kind, cols, map(_csv_line, rows))
    out.write(f"{stem}.csv", text)
    out.write(f"{stem}.json", _json(records))
    out.print(text.split("\n", 1)[1])


def _write_points(out: _Outputs, stem: str, key: str, rows) -> None:
    """A one-parameter sweep, one record per swept value."""
    cols = (key, "fidelity", "pop_perp", "pop_total")
    points = [(r.overrides[key], r.fidelity, r.pop_perp, r.notes["pop_total"])
              for r in rows]
    _write_sweep(out, stem, stem, cols, points,
                 [dict(zip(cols, point)) for point in points])


def _dressed_summary(cfg: RunConfig) -> tuple[tuple[float, float] | None,
                                              float | None, float | None]:
    from . import analysis

    try:
        pair = analysis.dressed_pair(cfg.params)
    except analysis.AmbiguousOverlapError:
        return None, None, None
    return (pair.overlap_up, pair.overlap_down), *analysis.nu_or_imbalance(cfg.params)


def cmd_simulate(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    from . import analysis

    start = time.perf_counter()
    result = analysis.cool(cfg.alpha, cfg.beta, cfg.params,
                           t_final=cfg.t_final, samples=cfg.samples)
    # keep only what is written: the trajectory's coordinates (2.8 MB at 4001
    # samples) go with the result, before the diagonalisation and the writes
    times, series, fidelity = result.trajectory.times, result.series, result.fidelity
    final = {"perp": result.pop_perp, "reservoir": result.pop_reservoir,
             "residual_clock": result.pop_residual_clock}
    del result
    overlaps, nu, imbalance = _dressed_summary(cfg)
    # echoes its input so runs are repeatable; no wall-clock data, so reruns are identical
    payload = {
        "config": cfg.to_flat_dict(),
        "config_sha": config_hash(cfg),
        "fidelity": fidelity,
        "final_populations": final,
        "dressed_overlaps": overlaps,
        "nu_mhz": nu,
        "imbalance_mhz": imbalance,
        "tool_version": f"spincool {__version__}",
    }
    out.write("trajectory.csv", _trajectory_csv(times, series))
    out.write("summary.json", _json(payload))
    if args.svg:
        from .svgplot import line_plot

        # one list of Python floats for the shared times, one per curve as it is plotted
        t = times.tolist()

        def curves(*named: tuple[str, str]) -> list:
            return [(label, t, series[key].tolist()) for label, key in named]

        svg_doc = line_plot(curves(("perp", "pop_perp"), ("reservoir", "pop_reservoir"),
                                   ("1P1", "pop_1P1_total"), ("1D2", "pop_1D2_total"),
                                   ("6s", "pop_6s")),
                            xlabel="t (us)", ylabel="log10 population",
                            title="leakage populations", log_y=True)
        out.write("populations_log.svg", svg_doc)
        svg_doc = line_plot(curves(("initial", "pop_psi0"), ("target", "pop_psif")),
                            xlabel="t (us)", ylabel="population", title="qubit transfer")
        out.write("transfer.svg", svg_doc)
    out.print(f"fidelity at {cfg.t_final:g} us: {fidelity:.6f}  (outputs in {out.out_dir}, "
              f"wall clock {time.perf_counter() - start:.3f} s)\n")
    return 0


def cmd_balance(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    """A bracket with no valid root is an analysis.BracketError, which _run reports."""
    from . import analysis

    p = cfg.params
    nu_input, imbalance_input = analysis.nu_or_imbalance(p)
    balanced = analysis.balance_omega_pd(p, bracket=tuple(args.bracket))
    # the root is balanced to BALANCE_TOL_MHZ, so nu is a number here
    nu = analysis.nu_or_imbalance(p.replace(omega_pd=balanced))[0]
    payload = {
        "omega_pd_input_mhz": p.omega_pd,
        "imbalance_at_input_mhz": imbalance_input,
        "nu_at_input_mhz": nu_input,
        "omega_pd_balanced_mhz": balanced,
        "nu_mhz": nu,
        "delta_recommendation_mhz": -nu,
    }
    out.write("balance.json", _json(payload), echo=True)
    return 0


def cmd_dressed(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    from . import analysis

    pair = analysis.dressed_pair(cfg.params)
    payload = {
        "overlap_up": pair.overlap_up,
        "overlap_down": pair.overlap_down,
        "energy_up_mhz": pair.energy_up,
        "energy_down_mhz": pair.energy_down,
    }
    out.print(_json(payload))
    return 0


def cmd_levels(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    top, bottom = round(2 * (_I + _D2_J)), round(2 * abs(_I - _D2_J))
    rows = [(str(twice_f), f_level_energy(_D2_HYPERFINE, _I, _D2_J, twice_f / 2))
            for twice_f in range(top, bottom - 1, -2)]
    out.write("levels.csv", _csv("levels", ("twice_F", "energy_mhz"), map(_csv_line, rows)),
              echo=True)
    return 0


def cmd_lasercalc(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    from .lasercalc import sr_laser_budget

    out.write("laser_budget.json", _json(sr_laser_budget()), echo=True)
    return 0


def cmd_reproduce(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    """The targets that compute; _run runs appendixA and levels as lasercalc and levels."""
    from . import analysis

    p, which = cfg.params, args.target
    if which == "fig3":
        result = analysis.cool(1.0, 1.0, p, t_final=cfg.t_final, samples=cfg.samples)
        out.write("fig3.csv", _trajectory_csv(result.trajectory.times, result.series))
        out.print(f"fig3: fidelity {result.fidelity:.5f}, perp {result.pop_perp:.2e}, "
                  f"reservoir {result.pop_reservoir:.2e}\n")
    elif which == "table1":
        _write_points(out, "table1", "alpha_over_beta",
                      analysis.table1_sweep(p, t_final=cfg.t_final, samples=cfg.samples))
    elif which == "sensitivity":
        rows = analysis.sensitivity_suite(p)
        notes = ("fidelity_30us", "pop_perp_30us", "imbalance_mhz")
        cells = [(r.name, r.t_us, r.fidelity, r.pop_perp,
                  *(r.notes.get(k, "") for k in notes)) for r in rows]
        _write_sweep(out, "sensitivity", "sweep",
                     ("name", "t_us", "fidelity", "pop_perp", *notes), cells,
                     [r._asdict() for r in rows])
    elif which == "impurity":
        _write_points(out, "impurity", "chi",
                      analysis.impurity_sweep(p, t_final=cfg.t_final, samples=cfg.samples))
    elif which == "isotopes":
        out.write("isotopes.json", _json(analysis.isotope_table()), echo=True)
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
                        help="also write SVG plots (only simulate has any)")


# each command's one-line help, which --help lists
_COMMANDS = {
    "simulate": "run the cooling dynamics: trajectory.csv, summary.json",
    "balance": "balance the dressed pair in omega_pd: balance.json",
    "dressed": "print the dressed-pair overlaps and energies",
    "reproduce": "regenerate one reference artifact",
    "lasercalc": "the laser-budget conversion table: laser_budget.json",
    "levels": "the 5s15d 1D2 F-level energies: levels.csv",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spincool", description="Cooling of 87Sr nuclear spin qubits.",
        epilog=f"exit codes: 0 success, {EXIT_CONFIG} configuration or output error, "
               f"{EXIT_NUMERICAL} numerical failure")
    _common_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=text, description=text)
        _common_flags(commands[name], suppress=True)
    commands["balance"].add_argument("--bracket", nargs=2, type=float, default=(50.0, 300.0),
                                     metavar=("LO", "HI"))
    commands["reproduce"].add_argument("target", choices=("fig3", "table1", "sensitivity",
                                                          "impurity", "appendixA", "levels",
                                                          "isotopes"))
    return parser


def main(argv: list[str] | None = None) -> int:
    # the imports run with the collector off, the first time in a process: what they
    # build is frozen, not collected; _freeze_imports turns it on for the command's work
    enabled = gc.isenabled()
    if not gc.get_freeze_count():
        gc.disable()
    try:
        return _main(argv)
    finally:
        # the caller's own setting, also on the paths that never reach the freeze and
        # for a caller that had the collector off
        (gc.enable if enabled else gc.disable)()


def _main(argv: list[str] | None) -> int:
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
    out = _Outputs(args.out)
    try:
        code = _run(args, cfg, out)
        if code == 0:
            out.commit()
        return code
    except OSError as exc:  # a write that fails: full disk, no permission
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        out.discard()


def _freeze_imports() -> None:
    """Leave what the imports built out of every later garbage collection, then
    turn the collector back on.

    Modules, classes, functions and numpy's tables live until the process exits,
    yet each full collection, the ones at exit included, would traverse them
    again.  main pauses the collector until here, so the imports run without
    the young-generation collections that would only traverse them.  Frozen
    after the command's imports, and once per process: a caller that runs main
    repeatedly would otherwise make each run's uncollected garbage permanent.
    Objects made later are collected as usual.
    """
    if not gc.get_freeze_count():
        gc.freeze()
        gc.enable()


def _run(args: argparse.Namespace, cfg: RunConfig, out: _Outputs) -> int:
    """Import what the command uses, freeze the imports and run the command; its exit code.

    A numerical failure is reported here as EXIT_NUMERICAL, and a balance bracket
    with no valid root as EXIT_CONFIG.
    """
    name = args.target if args.command == "reproduce" else args.command
    # reproduce appendixA and levels are the laser-budget and levels commands
    command = {"appendixA": "lasercalc", "levels": "levels"}.get(name, args.command)
    failures, bad_input = (FloatingPointError,), ()
    # levels is scalar arithmetic only, and the laser budget loads no analysis
    if command == "lasercalc":
        from . import lasercalc  # noqa: F401  (loaded before the freeze)
    elif command != "levels":
        # the dressed-state commands diagonalize in pure Python, without numpy
        from . import analysis
        failures += (analysis.AmbiguousOverlapError,)
        bad_input = (analysis.BracketError,)
        if name in _EVOLVING:
            import numpy as np

            from .lindblad import DensityMatrixError, IntegrationError
            failures += (np.linalg.LinAlgError, IntegrationError, DensityMatrixError)
    _freeze_imports()
    try:
        # looked up when called, so that a replaced cmd_* runs
        return globals()[f"cmd_{command}"](args, cfg, out)
    except failures as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except bad_input as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
