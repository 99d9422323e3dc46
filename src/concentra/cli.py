"""Command-line front end: scenario runs, epsilon sweeps, limit-ODE
integrations, and scenario validation.

Commands
--------
run <file>            full PDE run with attached diagnostics
sweep <file> --epsilon e1,e2,...   one run per epsilon, in parallel
                      worker processes
canonical <file> [--closure m] [--pde-dir d]   limit ODE only
check <file>          validate and print the assumption report

CONCENTRA_THREADS caps the number of sweep worker processes; with 1 the
rows run in this process, in order.  Exit codes: 0 success, 2 validation
failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys
from types import SimpleNamespace

import numpy as np

from . import canonical as canon
from . import diagnostics as diag
from .grid import GridError, write_field_npy
from .models import (ConstraintInfeasibleError, LocalCompetitionModel,
                     ModelError, QuadraticFunction, check_assumptions)
from .pde import (CG_RTOL, ConfigError, SolverError, run_simulation, u0_peaks,
                  write_series_csv, write_trajectory_csv, read_trajectory_csv)
from .scenarios import Scenario, ScenarioError, load_scenario
from .wkb import DENSITY_FLOOR, WkbError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

NUMERICAL_ERRORS = (SolverError, WkbError, ModelError,
                    ConstraintInfeasibleError, FloatingPointError,
                    np.linalg.LinAlgError, canon.ClosureError, GridError)


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


def _resolved_params(sc: Scenario, overrides=None) -> dict:
    cfg = dict(sc.raw["config"])
    cfg.setdefault("snapshot_every", 0)
    cfg.setdefault("mass_target", 0.3)
    if overrides:
        cfg.update(overrides)
    grid = sc.build_grid()
    resolved = {
        "scenario": sc.raw,
        "config": cfg,
        "domain": {"lower": list(grid.lower), "upper": list(grid.upper),
                   "points_per_axis": list(grid.points_per_axis)},
        "boundary_rule": "no-flux",
        "weight_note": "interaction weight psi taken identically 1 in all "
                       "bundled scenarios",
        "cg_rtol": CG_RTOL,
        "density_floor": DENSITY_FLOOR,
    }
    return resolved


@contextlib.contextmanager
def _artifact_dir(out_root, sc: Scenario, resolved: dict):
    """The content-hash directory of a run, removed if the block fails."""
    digest = hashlib.sha256(
        json.dumps(_jsonable(resolved), sort_keys=True).encode()).hexdigest()
    path = os.path.join(out_root, f"{sc.name}_{digest[:8]}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    except BaseException:
        shutil.rmtree(path, ignore_errors=True)
        raise


def _assumption_report(sc: Scenario, model, b):
    constants = sc.build_constants()
    u0 = None
    if len(sc.u0) == 1:   # value/hess of the single initial bump
        u0 = QuadraticFunction(0.0, sc.u0[0]["center"], sc.u0[0]["weights"])
    rep = check_assumptions(model, constants, sc.domain(), b=b, u0=u0)
    return rep.to_dict()


def _canonical_run(sc: Scenario, model, closure_mode, pde_result=None,
                   feed=None, dt=None, T=None):
    """Integrate the limit ODE per the scenario's settings; returns
    (trajectory, reports dict)."""
    settings = sc.canonical_settings()
    mode = closure_mode or settings["closure"]
    dt = dt if dt is not None else settings["dt"]
    T = T if T is not None else settings["T"]
    x0, H0 = u0_peaks(sc.u0)[0]
    if mode == "from_pde":
        feed = feed if feed is not None else (
            pde_result.trajectory if pde_result is not None else None)
        if feed is None:
            raise ScenarioError("from_pde closure requires an attached PDE "
                                "run (or --pde-dir)")
        closure = canon.HessianClosure("from_pde", feed=feed)
    else:
        closure = canon.HessianClosure(mode, initial_hessian=H0)
    traj = canon.integrate_canonical(x0, closure, model, dt, T,
                                     domain=sc.domain())
    residuals, post = diag.constraint_residual(traj, model,
                                               t_layer=10 * dt)
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
    """Run `sc` into its content-hash directory: series.csv, the post-layer
    residual and the canonical comparison (a sweep row forces from_pde on
    the PDE's dt and T).  The directory goes if the `with` block fails."""
    model, config, b = sc.build_model(), sc.build_config(), sc.build_diffusion()
    resolved = _resolved_params(sc)
    with _artifact_dir(out_root, sc, resolved) as outdir:
        result = run_simulation(config, model, sc.build_grid(), sc.u0,
                                probes=sc.probes, b=b,
                                constants=sc.build_constants())
        write_series_csv(result, os.path.join(outdir, "series.csv"))
        _, post = diag.constraint_residual(result.trajectory, model,
                                           t_layer=10 * config.dt)
        canonical = None
        if sweep or "canonical" in sc.raw:
            mode, dt, T = (("from_pde", config.dt, config.steps * config.dt)
                           if sweep else (None, None, None))
            traj, c_res, c_reports = _canonical_run(
                sc, model, mode, pde_result=result, dt=dt, T=T)
            sup, _, _ = diag.compare_trajectories(result.trajectory, traj)
            c_reports["pde_vs_canonical_sup_distance"] = sup
            canonical = (traj, c_res, c_reports)
        yield SimpleNamespace(outdir=outdir, resolved=resolved, model=model,
                              b=b, result=result, residual_post_layer=post,
                              canonical=canonical)


def _cmd_run(args) -> int:
    try:
        sc = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    try:
        with _pde_run(sc, args.out) as run:
            result, model, outdir = run.result, run.model, run.outdir
            for step, snap in sorted(result.snapshots.items()):
                write_field_npy(snap, os.path.join(outdir,
                                                   f"snap_{step:06d}.npy"))
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
                write_trajectory_csv(traj, os.path.join(outdir,
                                                        "trajectory.csv"),
                                     residuals=c_res)

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
            manifest["artifact_dir"] = os.path.basename(outdir)
            with open(os.path.join(outdir, "manifest.json"), "w") as f:
                json.dump(_jsonable(manifest), f, indent=2, sort_keys=True)
            with open(os.path.join(outdir, "reports.json"), "w") as f:
                json.dump(_jsonable(reports), f, indent=2, sort_keys=True)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigError as exc:   # e.g. an initial density that underflows
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(outdir)
    return EXIT_OK


def _worker_count(n_jobs: int) -> int:
    cap = os.environ.get("CONCENTRA_THREADS")
    if cap:
        try:
            cap = int(cap)
        except ValueError:
            raise ScenarioError(f"CONCENTRA_THREADS={cap!r} is not an integer")
        if cap < 1:
            raise ScenarioError("CONCENTRA_THREADS must be >= 1")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_jobs, cap))


def _failed_row(eps: float, exc: Exception) -> dict:
    return {"epsilon": eps, "residual_post_layer": "", "sup_distance": "",
            "monotonicity_violation": "", "dir": "",
            "status": f"failed: {exc}"}


def _sweep_row(raw: dict, eps: float, out_root: str) -> dict:
    """One sweep row from plain data.  A failure becomes the row's status:
    an exception need not survive pickling back from a worker process
    (ConstraintInfeasibleError does not)."""
    raw = json.loads(json.dumps(raw))
    raw["config"]["epsilon"] = eps
    try:
        with _pde_run(Scenario(raw), out_root, sweep=True) as run:
            mono = diag.monotonicity_violation(run.result.series.I)
    except Exception as exc:   # per-row failure marker
        return _failed_row(eps, exc)
    _, _, c_reports = run.canonical
    return {"epsilon": eps, "residual_post_layer": run.residual_post_layer,
            "sup_distance": c_reports["pde_vs_canonical_sup_distance"],
            "monotonicity_violation": mono, "dir": run.outdir,
            "status": "ok"}


def _sweep_rows(raw: dict, values: list, out_root: str, workers: int):
    if workers == 1:
        return [_sweep_row(raw, eps, out_root) for eps in values]
    # imported here: they add about 9 ms to importing this module
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    # fork: workers inherit the imported numpy instead of importing it again
    # (the default start method is forkserver from Python 3.14)
    ctx = multiprocessing.get_context("fork")
    rows = []
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        futures = {pool.submit(_sweep_row, raw, eps, out_root): eps
                   for eps in values}
        for fut, eps in futures.items():
            try:
                rows.append(fut.result())
            except BrokenProcessPool as exc:   # a worker was killed
                rows.append(_failed_row(eps, exc))
    return rows


def _cmd_sweep(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        values = []
        for tok in args.epsilon.split(","):
            tok = tok.strip()
            if not tok:
                continue
            eps = float(tok)
            if not (np.isfinite(eps) and eps > 0):
                raise ScenarioError(f"epsilon values must be positive and "
                                    f"finite: {tok}")
            if eps in values:
                print(f"warning: duplicate epsilon {eps} dropped",
                      file=sys.stderr)
            else:
                values.append(eps)
        if len(values) < 2:
            raise ScenarioError("sweep needs at least two distinct epsilon "
                                "values")
        workers = _worker_count(len(values))
    except (ScenarioError, ConfigError, ModelError, ValueError,
            OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    rows = _sweep_rows(sc.raw, values, args.out, workers)
    rows.sort(key=lambda r: -r["epsilon"])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "sweep.csv")
    cols = ["epsilon", "residual_post_layer", "sup_distance",
            "monotonicity_violation", "dir", "status"]
    with open(path, "w") as f:
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(
                f"{r[c]:.17g}" if isinstance(r[c], float) else str(r[c])
                for c in cols) + "\n")
    print(path)
    failed = any(r["status"] != "ok" for r in rows)
    return EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_canonical(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        model = sc.build_model()
        mode = args.closure or sc.canonical_settings()["closure"]
        feed = None
        if mode == "from_pde":
            if not args.pde_dir:
                raise ScenarioError("from_pde closure requires --pde-dir")
            feed = read_trajectory_csv(os.path.join(args.pde_dir,
                                                    "series.csv"))
    except (ScenarioError, ConfigError, ModelError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    resolved = _resolved_params(sc, overrides={"canonical_only": True,
                                               "closure": mode})
    try:
        with _artifact_dir(args.out, sc, resolved) as outdir:
            traj, residuals, reports = _canonical_run(sc, model, mode,
                                                      feed=feed)
            write_trajectory_csv(traj, os.path.join(outdir, "trajectory.csv"),
                                 residuals=residuals)
            with open(os.path.join(outdir, "manifest.json"), "w") as f:
                json.dump(_jsonable(resolved), f, indent=2, sort_keys=True)
            with open(os.path.join(outdir, "reports.json"), "w") as f:
                json.dump(_jsonable(reports), f, indent=2, sort_keys=True)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(outdir)
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        sc = load_scenario(args.scenario)
        report = _assumption_report(sc, sc.build_model(), sc.build_diffusion())
    except (ScenarioError, ConfigError, ModelError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(json.dumps(_jsonable({"scenario": sc.name, "valid": True,
                                "assumptions": report}), indent=2,
                     sort_keys=True))
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
                       choices=["from_pde", "frozen", "riccati"])
    p_can.add_argument("--pde-dir", help="artifact dir of a previous run "
                                         "(for the from_pde closure)")
    p_can.add_argument("--out", default=".")
    p_can.set_defaults(func=_cmd_canonical)

    p_check = sub.add_parser("check", help="validate a scenario and print "
                                           "the assumption report")
    p_check.add_argument("scenario")
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
