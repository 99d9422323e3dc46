"""Command-line front end: scenario runs, epsilon sweeps, limit-ODE
integrations, and scenario validation.

Commands
--------
run <file>            full PDE run with attached diagnostics
sweep <file> --epsilon e1,e2,...   one run per epsilon, in order, in
                      this process
canonical <file> [--closure m] [--pde-dir d]   limit ODE only
check <file>          validate and print the assumption report and the
                      box-truncation risks

A command builds its artifacts in a private directory under --out and
renames it to `<scenario>_<crc32>` when it succeeds, the CRC-32 of the
resolved parameters; a failed command removes only its private directory.
`run` hands run_simulation a snapshot sink that writes each `snap_<step>.npy`
at its step; a sweep row's sink keeps none.  A sweep row that fails is
marked failed in sweep.csv and the rows after it still run.  sweep.csv's
`dir` column names each row's directory under --out.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.  `main`
alone maps errors to codes: an unreadable or invalid scenario file, series
or --out (VALIDATION_ERRORS) exits 2; a failure of the numerics once the
scenario has loaded (NUMERICAL_ERRORS) exits 3.  Either prints one line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import shutil
import sys
import zlib
from types import SimpleNamespace

import numpy as np

from . import canonical as canon
from . import diagnostics as diag
from .grid import RING_CELLS, GridError, write_field_npy
from .models import (LocalCompetitionModel, ModelError, QuadraticFunction,
                     check_assumptions)
from .pde import (ConfigError, SeriesFormatError, SolverError,
                  diffusion_solve, run_simulation, u0_peaks, write_series_csv,
                  write_trajectory_csv, read_trajectory_csv)
from .scenarios import Scenario, ScenarioError, load_scenario
from .wkb import DENSITY_FLOOR, WkbError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

VALIDATION_ERRORS = (ScenarioError, SeriesFormatError, ConfigError, OSError)
# A scenario that loads has built its grid, model, diffusion and config, so
# a later ModelError or GridError comes from the numerics; a later
# ConfigError (an initial density that underflows, a diffusion coefficient
# that is not positive on the grid) is still the input's.
NUMERICAL_ERRORS = (SolverError, WkbError, ModelError, FloatingPointError,
                    np.linalg.LinAlgError, canon.ClosureError, GridError)
LAYER_STEPS = 10   # steps of the transient layer the post-layer max skips
SWEEP_COLUMNS = ("epsilon", "residual_post_layer", "sup_distance",
                 "monotonicity_violation", "dir", "status")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, float) and not np.isfinite(obj):
        return None if np.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _write_json(work, **files) -> None:
    """Write each keyword's object to `<keyword>.json` in `work`."""
    for name, obj in files.items():
        with open(os.path.join(work, f"{name}.json"), "w") as f:
            json.dump(_jsonable(obj), f, indent=2, sort_keys=True)


def _resolved_params(sc: Scenario, model, overrides=None) -> dict:
    cfg = dataclasses.asdict(sc.build_config())
    if overrides:
        cfg.update(overrides)
    grid = sc.build_grid()
    resolved = {
        "scenario": sc.raw,
        "config": cfg,
        "domain": {"lower": list(grid.lower), "upper": list(grid.upper),
                   "points_per_axis": list(grid.points_per_axis)},
        "boundary_rule": "no-flux",
        "psi": model.psi,
        "diffusion_solve": diffusion_solve(grid),
        "density_floor": DENSITY_FLOOR,
    }
    return resolved


@contextlib.contextmanager
def _artifact_dir(out_root, sc: Scenario, resolved: dict):
    """(work, path): `path` is the directory of a run with parameters
    `resolved`, the scenario's name and the CRC-32 of the sorted
    parameters as 8 hex digits; `work` is a new private directory beside
    it for the block to write in.  `work` is renamed to `path` when the
    block succeeds, replacing an earlier run there, and removed if it
    fails, so a failure leaves `path` as it was."""
    crc = zlib.crc32(json.dumps(_jsonable(resolved), sort_keys=True).encode())
    name = f"{sc.name}_{crc:08x}"
    path = os.path.join(out_root, name)
    os.makedirs(out_root, exist_ok=True)
    for k in itertools.count():
        work = os.path.join(out_root, f".{name}.{os.getpid()}.{k}")
        try:
            os.mkdir(work)
            break
        except FileExistsError:
            continue
    try:
        yield work, path
        if os.path.isdir(path):
            os.rename(path, work + ".old")
            try:
                os.rename(work, path)
            except BaseException:
                os.rename(work + ".old", path)   # the earlier run back
                raise
            shutil.rmtree(work + ".old")
        else:
            os.rename(work, path)
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise


def _assumption_report(sc: Scenario, model, b):
    constants = sc.build_constants()
    u0 = None
    if len(sc.u0) == 1:   # value/hess of the single initial bump
        u0 = QuadraticFunction(0.0, sc.u0[0]["center"], sc.u0[0]["weights"])
    rep = check_assumptions(model, constants, sc.domain(), b=b, u0=u0)
    return rep.to_dict()


def _canonical_run(sc: Scenario, model, closure_mode, feed=None, dt=None,
                   T=None):
    """Integrate the limit ODE per the scenario's settings; returns
    (trajectory, reports dict)."""
    settings = sc.canonical_settings()
    mode = closure_mode or settings["closure"]
    dt = dt if dt is not None else settings["dt"]
    T = T if T is not None else settings["T"]
    x0, H0 = u0_peaks(sc.u0)[0]
    if mode == "from_pde":
        closure = canon.HessianClosure("from_pde", feed=feed)
    else:
        closure = canon.HessianClosure(mode, initial_hessian=H0)
    traj = canon.integrate_canonical(x0, closure, model, dt, T,
                                     domain=sc.domain())
    if traj.times.size < 2:
        raise SolverError(f"canonical trajectory left the domain on its "
                          f"first step, at t={traj.exit_time:.6g}, "
                          f"x={traj.exit_point.tolist()}: no second sample "
                          "to report")
    residuals = diag.constraint_residual(traj, model)
    reports = {
        "closure": mode,
        "approximate_closure": mode == "riccati",
        "constraint_residual_max": float(np.max(residuals)),
        "monotonicity_violation_macro": diag.monotonicity_violation(traj.macro),
        "exit_time": traj.exit_time,
    }
    attractor, why = canon.long_time_attractor(model, sc.domain())
    if attractor is None:
        reports["attractor"] = {"found": False, "reason": why}
    else:
        x_inf, m_inf = attractor
        reports["attractor"] = {"found": True, "point": x_inf.tolist(),
                                "macro": float(m_inf),
                                "final_distance": float(
                                    np.linalg.norm(traj.points[-1] - x_inf))}
    if isinstance(model, LocalCompetitionModel):
        reports["persistence"] = canon.persistence_envelope(traj, model)
        ly = canon.lyapunov_local(traj, model)
        ly.pop("series", None)
        reports["lyapunov"] = ly
    return traj, residuals, reports


@contextlib.contextmanager
def _pde_run(sc: Scenario, out_root, sweep=False):
    """Run `sc` into its artifact directory `outdir`, built in `work`:
    series.csv, the snapshots as they are taken (a sweep row keeps none),
    the post-layer residual and the canonical comparison (a sweep row
    forces from_pde on the PDE's dt and T).  If the `with` block fails,
    `outdir` stays as it was."""
    model, config, b = sc.build_model(), sc.build_config(), sc.build_diffusion()
    resolved = _resolved_params(sc, model)
    with _artifact_dir(out_root, sc, resolved) as (work, outdir):
        def snapshot(step, density):
            if not sweep:
                write_field_npy(density,
                                os.path.join(work, f"snap_{step:06d}.npy"))

        result = run_simulation(config, model, sc.build_grid(), sc.u0,
                                probes=sc.probes, b=b,
                                constants=sc.build_constants(),
                                snapshot=snapshot)
        write_series_csv(result, os.path.join(work, "series.csv"))
        post = diag.post_layer_max(result.series.times, result.residuals,
                                   LAYER_STEPS * config.dt)
        canonical = None
        if sweep or "canonical" in sc.raw:
            mode, dt, T = (("from_pde", config.dt, config.steps * config.dt)
                           if sweep else (None, None, None))
            traj, c_res, c_reports = _canonical_run(
                sc, model, mode, feed=result.trajectory, dt=dt, T=T)
            sup, _, _ = diag.compare_trajectories(result.trajectory, traj)
            c_reports["pde_vs_canonical_sup_distance"] = sup
            canonical = (traj, c_res, c_reports)
        yield SimpleNamespace(outdir=outdir, work=work, resolved=resolved,
                              model=model, b=b, result=result,
                              residual_post_layer=post, canonical=canonical)


def _cmd_run(args) -> int:
    sc = load_scenario(args.scenario)
    with _pde_run(sc, args.out) as run:
        result, model, work = run.result, run.model, run.work
        reports = {
            "assumptions": _assumption_report(sc, model, run.b),
            "regularity": result.regularity_reports,
            "probe_maxima": result.probe_maxima,
            "warnings": result.warnings,
            "advisories": result.advisories,
            "constraint_residual_post_layer": run.residual_post_layer,
            "I_monotonicity_violation": diag.monotonicity_violation(
                result.series.I),
            "I_total_variation": diag.total_variation(result.series.I),
        }
        if isinstance(model, LocalCompetitionModel):
            reports["persistence"] = canon.persistence_envelope(
                result.trajectory, model)
        if run.canonical is not None:
            traj, c_res, reports["canonical"] = run.canonical
            write_trajectory_csv(traj, os.path.join(work, "trajectory.csv"),
                                 residuals=c_res, psi=model.psi)

        if len(sc.u0) > 1 and result.probe_maxima:
            last = max(result.probe_maxima)
            peaks = result.probe_maxima[last]
            if len(peaks) >= 2:
                # peaks are value-sorted; mark the weaker one as dominated
                reports["dominated_bump"] = {"step": last,
                                             "point": peaks[-1][0],
                                             "peak_value": peaks[-1][1]}
            else:
                reports["dominated_bump"] = {"step": last,
                                             "note": "single peak survives"}

        manifest = dict(run.resolved)
        manifest["artifact_dir"] = os.path.basename(run.outdir)
        _write_json(work, manifest=manifest, reports=reports)
    print(run.outdir)
    return EXIT_OK


def _sweep_row(raw: dict, eps: float, out_root: str) -> dict:
    """The sweep row of scenario `raw` at `eps`.  A failure becomes the
    row's status, so the rows after it still run."""
    raw = json.loads(json.dumps(raw))
    raw["config"]["epsilon"] = eps
    try:
        with _pde_run(Scenario(raw), out_root, sweep=True) as run:
            mono = diag.monotonicity_violation(run.result.series.I)
    except Exception as exc:   # per-row failure marker
        return dict.fromkeys(SWEEP_COLUMNS, "") | {
            "epsilon": eps, "status": f"failed: {exc}"}
    _, _, c_reports = run.canonical
    return dict(zip(SWEEP_COLUMNS, (
        eps, run.residual_post_layer,
        c_reports["pde_vs_canonical_sup_distance"], mono,
        os.path.basename(run.outdir), "ok")))


def _epsilon_values(text: str) -> list:
    """The distinct epsilons of a comma-separated --epsilon list."""
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            eps = float(tok)
        except ValueError:
            raise ScenarioError(f"epsilon value {tok!r} is not a number")
        if not (np.isfinite(eps) and eps > 0):
            raise ScenarioError(f"epsilon values must be positive and "
                                f"finite: {tok}")
        if eps in values:
            print(f"warning: duplicate epsilon {eps} dropped", file=sys.stderr)
        else:
            values.append(eps)
    if len(values) < 2:
        raise ScenarioError("sweep needs at least two distinct epsilon values")
    return values


def _cmd_sweep(args) -> int:
    sc = load_scenario(args.scenario)
    values = _epsilon_values(args.epsilon)
    os.makedirs(args.out, exist_ok=True)
    rows = [_sweep_row(sc.raw, eps, args.out) for eps in values]
    rows.sort(key=lambda r: -r["epsilon"])
    path = os.path.join(args.out, "sweep.csv")
    with open(path, "w") as f:
        f.write(",".join(SWEEP_COLUMNS) + "\n")
        for r in rows:
            f.write(",".join(
                f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c])
                for c in SWEEP_COLUMNS) + "\n")
    print(path)
    failed = any(r["status"] != "ok" for r in rows)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_canonical(args) -> int:
    sc = load_scenario(args.scenario)
    mode = args.closure or sc.canonical_settings()["closure"]
    feed = None
    if mode == "from_pde":
        if not args.pde_dir:
            raise ScenarioError("from_pde closure requires --pde-dir")
        path = os.path.join(args.pde_dir, "series.csv")
        feed = read_trajectory_csv(path)
        if feed.points.shape[1] != sc.dimension:
            raise ScenarioError(f"{path}: series of dimension "
                                f"{feed.points.shape[1]}, scenario "
                                f"{sc.name} of dimension {sc.dimension}")
    model = sc.build_model()
    resolved = _resolved_params(sc, model, overrides={"canonical_only": True,
                                                      "closure": mode})
    with _artifact_dir(args.out, sc, resolved) as (work, outdir):
        traj, residuals, reports = _canonical_run(sc, model, mode, feed=feed)
        write_trajectory_csv(traj, os.path.join(work, "trajectory.csv"),
                             residuals=residuals, psi=model.psi)
        _write_json(work, manifest=resolved, reports=reports)
    print(outdir)
    return EXIT_OK


def _truncation_risks(sc: Scenario, model) -> list:
    """Where a run of `sc` risks box truncation: each u0 centre within
    RING_CELLS cells of a wall, and a growth rate at zero macro, R(x, 0)
    (or r(x) for the local family), whose grid maximum is on the boundary
    ring."""
    grid = sc.build_grid()
    lower, upper, h = (np.asarray(v, dtype=float)
                       for v in (grid.lower, grid.upper, grid.spacing))
    risks = []
    for k, bump in enumerate(sc.u0):
        center = np.atleast_1d(np.asarray(bump["center"], dtype=float))
        cells = float(np.min(np.minimum(center - lower, upper - center) / h))
        if cells < RING_CELLS:
            risks.append({"check": "u0_center_near_wall", "bump": k,
                          "center": center.tolist(),
                          "cells_from_wall": cells})
    nodes = grid.nodes()
    rate = np.asarray(model.rate(nodes, 0.0), dtype=float)
    node = np.unravel_index(int(np.argmax(rate)), grid.shape)
    if min(min(i, n - 1 - i) for i, n in zip(node, grid.shape)) < RING_CELLS:
        local = isinstance(model, LocalCompetitionModel)
        risks.append({"check": "growth_max_on_ring",
                      "rate": "r(x)" if local else "R(x, 0)",
                      "node": [int(i) for i in node],
                      "point": nodes[node].tolist()})
    return risks


def _cmd_check(args) -> int:
    sc = load_scenario(args.scenario)
    model = sc.build_model()
    report = _assumption_report(sc, model, sc.build_diffusion())
    payload = {"scenario": sc.name, "valid": True, "assumptions": report,
               "box_truncation": _truncation_risks(sc, model)}
    print(json.dumps(_jsonable(payload), indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="concentra",
        description="Trait-space concentration dynamics: PDE runs and the "
                    "limiting canonical ODE")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=".", help="artifact root directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario across epsilons")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--epsilon", required=True,
                         help="comma-separated epsilon values")
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_can = sub.add_parser("canonical", help="integrate the limit ODE only")
    p_can.add_argument("scenario")
    p_can.add_argument("--closure",
                       choices=canon.CLOSURE_MODES)
    p_can.add_argument("--pde-dir", help="artifact dir of a previous run "
                                         "(for the from_pde closure)")
    p_can.add_argument("--out", default=".")
    p_can.set_defaults(func=_cmd_canonical)

    p_check = sub.add_parser("check", help="validate a scenario and print "
                                           "the assumption report")
    p_check.add_argument("scenario")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
