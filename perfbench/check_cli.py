"""Checks of the artifacts one `spincool` process wrote.

Every command must exit 0 and write its artifacts; the numbers in them
must match the golden values of the acceptance criteria (golden.json)
within the same tolerances.  Stdlib only, so the harness can run it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())


class _Problems(list):
    def near(self, what: str, value, target_tol) -> None:
        target, tol = target_tol
        if not isinstance(value, (int, float)) or not abs(value - target) <= tol:
            self.append(f"{what} = {value!r}, want {target} +/- {tol}")

    def near_rel(self, what: str, value, target: float, rel: float) -> None:
        if not isinstance(value, (int, float)) or not abs(value - target) <= rel * abs(target):
            self.append(f"{what} = {value!r}, want {target} +/- {rel:.0%}")


def _csv_rows(text: str) -> list[dict[str, str]]:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _check_trajectory(p: _Problems, text: str, samples: int, prefix: str) -> dict:
    rows = _csv_rows(text)
    if len(rows) != samples:
        p.append(f"{prefix}: {len(rows)} rows, want {samples}")
        return {}
    end = {k: float(v) for k, v in rows[-1].items()}
    g = GOLDEN["reference_run"]
    p.near(f"{prefix} final fidelity", end["pop_psif"], g["fidelity"])
    p.near(f"{prefix} final pop_perp", end["pop_perp"], g["pop_perp"])
    p.near(f"{prefix} final reservoir", end["pop_reservoir"], g["pop_reservoir"])
    lo, hi = g["pop_residual_clock_range"]
    if not lo <= end["pop_psi0"] <= hi:
        p.append(f"{prefix} residual clock {end['pop_psi0']!r} outside [{lo}, {hi}]")
    return end


def _simulate(p: _Problems, files: dict, samples: int, svg: bool) -> None:
    end = _check_trajectory(p, files["trajectory.csv"], samples, "trajectory.csv")
    summary = json.loads(files["summary.json"])
    p.near("summary fidelity", summary["fidelity"], GOLDEN["reference_run"]["fidelity"])
    if end and summary["fidelity"] != end["pop_psif"]:
        p.append("summary fidelity differs from the trajectory endpoint")
    g = GOLDEN["dressed"]
    p.near("summary overlap_up", summary["dressed_overlaps"][0], g["overlap_up"])
    p.near("summary overlap_down", summary["dressed_overlaps"][1], g["overlap_down"])
    p.near("summary nu_mhz", summary["nu_mhz"], g["nu_mhz"])
    if svg:
        for name, series in (("transfer.svg", 2), ("populations_log.svg", 5)):
            doc = files[name]
            if not (doc.startswith("<svg") and doc.rstrip().endswith("</svg>")):
                p.append(f"{name} is not an SVG document")
            if doc.count("<polyline") != series:
                p.append(f"{name}: {doc.count('<polyline')} series, want {series}")


def _balance(p: _Problems, files: dict) -> None:
    d = json.loads(files["balance.json"])
    p.near("omega_pd_balanced_mhz", d["omega_pd_balanced_mhz"],
           GOLDEN["balance"]["omega_pd_balanced_mhz"])
    p.near("nu_mhz", d["nu_mhz"], GOLDEN["dressed"]["nu_mhz"])


def _dressed(p: _Problems, stdout: str) -> None:
    d = json.loads(stdout)
    g = GOLDEN["dressed"]
    p.near("overlap_up", d["overlap_up"], g["overlap_up"])
    p.near("overlap_down", d["overlap_down"], g["overlap_down"])


def _levels(p: _Problems, files: dict) -> None:
    got = {r["twice_F"]: float(r["energy_mhz"]) for r in _csv_rows(files["levels.csv"])}
    for twice_f, target_tol in GOLDEN["levels"].items():
        p.near(f"level 2F={twice_f}", got.get(twice_f), target_tol)


def _lasercalc(p: _Problems, files: dict) -> None:
    g = GOLDEN["lasercalc"]
    records = {r["transition"]: r for r in json.loads(files["laser_budget.json"])}
    for transition, fields in g.items():
        if transition == "rel":
            continue
        for key, target in fields.items():
            p.near_rel(f"{transition} {key}", records.get(transition, {}).get(key),
                       target, g["rel"])


def _table1(p: _Problems, files: dict) -> None:
    g = GOLDEN["table1"]
    records = json.loads(files["table1.json"])
    for ratio, target in g["fidelity"]:
        hits = [r for r in records if math.isclose(r["alpha_over_beta"], ratio)]
        p.near(f"table1 fidelity at {ratio:g}", hits[0]["fidelity"] if hits else None,
               (target, g["tol"]))


def _sensitivity(p: _Problems, files: dict) -> None:
    rows = {r["name"]: r for r in json.loads(files["sensitivity.json"])}
    for name, fields in GOLDEN["sensitivity"].items():
        row = rows.get(name)
        if row is None:
            p.append(f"sensitivity row {name!r} missing")
            continue
        values = {"fidelity": row["fidelity"], "pop_perp": row["pop_perp"], **row["notes"]}
        for key, target_tol in fields.items():
            if key == "fidelity_min":
                if not values["fidelity"] >= target_tol:
                    p.append(f"{name} fidelity {values['fidelity']!r} < {target_tol}")
            else:
                p.near(f"{name} {key}", values.get(key), target_tol)


def _impurity(p: _Problems, files: dict) -> None:
    records = json.loads(files["impurity.json"])
    for chi, target_tol in GOLDEN["impurity"].items():
        hits = [r["fidelity"] for r in records if math.isclose(r["chi"], float(chi))]
        p.near(f"impurity fidelity at chi={chi}", hits[0] if hits else None, target_tol)


def _isotopes(p: _Problems, files: dict) -> None:
    g = GOLDEN["isotopes"]
    got = {r["isotope"]: r["min_omega_ps_mhz"] for r in json.loads(files["isotopes.json"])}
    for name, target in g["min_omega_ps_mhz"].items():
        p.near_rel(f"{name} min_omega_ps_mhz", got.get(name), target, g["rel"])


def problems(argv: tuple[str, ...], exit_code: int, files: dict[str, str],
             stdout: str) -> list[str]:
    """Everything wrong with one CLI op; an empty list means it passed.

    files maps each artifact name in the op's output directory to its text.
    """
    p = _Problems()
    if exit_code != 0:
        p.append(f"exit code {exit_code}")
    cmd = " ".join(argv)
    try:
        if cmd == "simulate":
            _simulate(p, files, samples=401, svg=False)
        elif cmd == "--set samples=4001 --svg simulate":
            _simulate(p, files, samples=4001, svg=True)
        elif cmd == "balance":
            _balance(p, files)
        elif cmd == "dressed":
            _dressed(p, stdout)
        elif cmd == "levels":
            _levels(p, files)
        elif cmd == "lasercalc":
            _lasercalc(p, files)
        elif cmd == "reproduce fig3":
            _check_trajectory(p, files["fig3.csv"], 401, "fig3.csv")
        elif cmd == "reproduce table1":
            _table1(p, files)
        elif cmd == "reproduce sensitivity":
            _sensitivity(p, files)
        elif cmd == "reproduce impurity":
            _impurity(p, files)
        elif cmd == "reproduce isotopes":
            _isotopes(p, files)
        else:
            p.append(f"no check for command {cmd!r}")
    except KeyError as exc:
        p.append(f"missing artifact or field {exc}")
    except (ValueError, TypeError, IndexError) as exc:
        p.append(f"unreadable artifact: {exc!r}")
    return list(p)
