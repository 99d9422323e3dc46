"""The benchmark's workloads: seeded scenario files, the CLI command each
runs, and the correctness gate on the artifacts it leaves behind.

This module imports nothing from concentra and no numpy, so the process
that drives the measured runs stays small and loads no program code.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SCENARIO_DIR = Path("src") / "concentra" / "scenarios"
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# Largest seeded shift of a u0 centre, per axis, as a share of the cell
# width.  Kept below one half so the shift stays under one cell in 2D.
SHIFT_CELLS = 0.45


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str          # bundled scenario the seeded input starts from
    command: str           # concentra subcommand
    extra: tuple = ()

    def argv(self, scenario_path, out_dir) -> list:
        return [self.command, str(scenario_path), *self.extra,
                "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload("run_local_1d", "local_logistic", "run"),
    Workload("run_global_2d", "scenario2", "run"),
    Workload("sweep_global_1d", "quadratic_concave", "sweep",
             ("--epsilon", "0.02,0.01,0.005")),
)}


class GateError(Exception):
    """An artifact failed a correctness check."""


# --- seeded inputs --------------------------------------------------------

def _axis_values(v, dim):
    return [float(x) for x in v] if isinstance(v, list) else [float(v)] * dim


def cell_widths(raw) -> list:
    g, dim = raw["grid"], raw["dimension"]
    lower = _axis_values(g["lower"], dim)
    upper = _axis_values(g["upper"], dim)
    pts = g["points_per_axis"]
    pts = pts if isinstance(pts, list) else [pts] * dim
    return [(hi - lo) / n for lo, hi, n in zip(lower, upper, pts)]


def seeded_scenario(root: Path, workload: Workload, seed: int) -> str:
    """Text of the scenario file the CLI receives.  Seed 0 is the bundled
    file verbatim; any other seed shifts each u0 centre by a seeded offset
    of under one grid cell."""
    text = (root / SCENARIO_DIR / f"{workload.scenario}.json").read_text()
    if seed == 0:
        return text
    raw = json.loads(text)
    rng = random.Random(f"{workload.name}:{seed}")
    widths = cell_widths(raw)
    for bump in raw["u0"]:
        bump["center"] = [c + rng.uniform(-SHIFT_CELLS, SHIFT_CELLS) * h
                          for c, h in zip(bump["center"], widths)]
    return json.dumps(raw, indent=2)


# --- artifact checks ------------------------------------------------------

def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _final_xbar(series: Path, steps: int) -> list:
    """Check the per-step series and return its last peak position."""
    with open(series, newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    cols = [i for i, name in enumerate(header) if name.startswith("xbar_")]
    if len(body) != steps + 1:
        raise GateError(f"{series.parent.name}/series.csv has {len(body)} "
                        f"rows, expected {steps + 1}")
    for k, row in enumerate(body):
        if not all(math.isfinite(float(row[i])) for i in cols):
            raise GateError(f"{series.parent.name}: non-finite xbar at "
                            f"row {k}")
    return [float(body[-1][i]) for i in cols]


def _near(xbar, ref, widths, what):
    if any(abs(a - b) > h for a, b, h in zip(xbar, ref, widths)):
        raise GateError(f"{what}: final xbar {xbar} is more than one cell "
                        f"from the reference {ref}")


def _finite(value, what) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise GateError(f"{what} is not a finite number: {value!r}")
    return float(value)


def evaluate(workload: Workload, raw: dict, out_dir: Path) -> dict:
    """Run the correctness gate on one command's artifacts and return its
    accuracy observables.  Raises GateError on the first failed check."""
    reference = json.loads(REFERENCE_FILE.read_text())[workload.name]
    steps = raw["config"]["steps"]
    widths = cell_widths(raw)
    if workload.command == "run":
        dirs = [d for d in out_dir.iterdir() if d.is_dir()]
        if len(dirs) != 1:
            raise GateError(f"expected one artifact dir, found {len(dirs)}")
        xbar = _final_xbar(dirs[0] / "series.csv", steps)
        _near(xbar, reference["final_xbar"], widths, workload.name)
        reports = json.loads((dirs[0] / "reports.json").read_text())
        canonical = reports.get("canonical", {})
        return {
            "pde_ode_sup_distance": _finite(
                canonical.get("pde_vs_canonical_sup_distance"),
                "pde_vs_canonical_sup_distance"),
            "constraint_residual": _finite(
                reports.get("constraint_residual_post_layer"),
                "constraint_residual_post_layer"),
        }

    with open(out_dir / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    eps_list = [e.strip() for e in workload.extra[1].split(",")]
    if len(rows) != len(eps_list):
        raise GateError(f"sweep.csv has {len(rows)} rows, expected "
                        f"{len(eps_list)}")
    rows.sort(key=lambda r: -float(r["epsilon"]))
    for row in rows:
        if row["status"] != "ok":
            raise GateError(f"sweep row eps={row['epsilon']}: "
                            f"{row['status']}")
        eps = f"{float(row['epsilon']):g}"
        xbar = _final_xbar(out_dir / Path(row["dir"]).name / "series.csv",
                           steps)
        _near(xbar, reference["final_xbar"][eps], widths,
              f"{workload.name} eps={eps}")
    residuals = [_finite(float(r["residual_post_layer"]),
                         "residual_post_layer") for r in rows]
    if any(b >= a for a, b in zip(residuals, residuals[1:])):
        raise GateError(f"residual_post_layer does not decrease as epsilon "
                        f"halves: {residuals}")
    sups = [_finite(float(r["sup_distance"]), "sup_distance") for r in rows]
    return {"pde_ode_sup_distance": max(sups),
            "constraint_residual": residuals[-1]}
