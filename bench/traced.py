"""Traced pass: run one concentra CLI command in this process, with spans
around the calls into each module's public functions.

    python3 bench/traced.py SPANS.json -- run SCENARIO.json --out DIR

The wrappers are installed from here, by attribute, at the layer
boundaries; the program is not edited.  A callable that no longer exists is
listed as absent.  Besides spans it records, as benchmark checks:

- CG iterations per solve and each solve's relative residual;
- bytes of every snapshot written;
- RK4 steps taken by the canonical integrator;
- per PDE step, the gap between the relative mass change and that of the
  reaction-only update sum(n * exp(dt * R / eps)), R from the public
  ``ImexIntegrator.rate_field``.

Spans are written to SPANS.json once, after the command returns.  Run it
with CONCENTRA_THREADS=1: spans of concurrent workers would interleave.
"""

import time

SCRIPT_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import Tracer  # noqa: E402


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def install(tracer, np, cli, pde, canonical, diagnostics):
    wrap = tracer.wrap
    counters = tracer.counters

    def keep_max(key, value):
        counters[key] = max(counters.get(key, 0.0), float(value))

    # scenarios / models
    wrap(cli, "load_scenario", "scenarios.load_scenario")
    wrap(cli, "check_assumptions", "models.check_assumptions")
    wrap(canonical, "invert_constraint", "models.invert_constraint")

    # pde: run loop, step, macro coupling, diffusion solve, series writers
    wrap(cli, "run_simulation", "pde.run_simulation")
    wrap(cli, "write_series_csv", "pde.write_series_csv")
    wrap(cli, "write_trajectory_csv", "pde.write_trajectory_csv")
    engine = getattr(pde, "ImexIntegrator", None)
    if engine is None:
        tracer.absent.append("pde.ImexIntegrator")
    else:
        wrap(engine, "macro_of", "pde.ImexIntegrator.macro_of")
        mass_hooks = {}
        if callable(getattr(engine, "rate_field", None)):
            def mass_before(args, kwargs):
                eng, state = args[0], _arg(args, kwargs, 1, "state")
                rate, _ = eng.rate_field(state.density, state.macro)
                cfg, n = eng.config, state.density.values
                return (float(n.sum()),
                        float((n * np.exp(cfg.dt * rate / cfg.epsilon)).sum()))

            def mass_after(args, kwargs, new_state, ctx):
                m0, m_react = ctx
                m1 = float(new_state.density.values.sum())
                keep_max("mass_drift_max", abs(m1 - m_react) / m0)
                tracer.count("mass_checks")

            mass_hooks = {"before": mass_before, "after": mass_after}
        else:
            tracer.absent.append("pde.ImexIntegrator.rate_field")
        wrap(engine, "step", "pde.ImexIntegrator.step", **mass_hooks)

    def cg_before(args, kwargs):
        inner = kwargs.get("callback")

        def callback(xk):
            tracer.count("cg_iters")
            if inner is not None:
                inner(xk)
        kwargs["callback"] = callback

    def cg_after(args, kwargs, result, ctx):
        op, rhs = args[0], _arg(args, kwargs, 1, "b")
        sol = result[0]
        rel = np.linalg.norm(op @ sol - rhs) / np.linalg.norm(rhs)
        keep_max("solve_rel_residual_max", rel)

    wrap(pde, "cg", "pde.cg", before=cg_before, after=cg_after)

    # grid
    def snapshot_after(args, kwargs, result, ctx):
        tracer.count("snapshot_bytes",
                     os.path.getsize(_arg(args, kwargs, 1, "path")))

    wrap(cli, "write_field_csv", "grid.write_field_csv", after=snapshot_after)
    wrap(pde, "boundary_ring_mass", "grid.boundary_ring_mass")
    wrap(pde, "convolve_kernel", "grid.convolve_kernel")

    # wkb, as the run loop calls it
    for name in ("to_wkb", "locate_max", "hessian_at", "regularity_monitor"):
        wrap(pde, name, f"wkb.{name}")

    # canonical
    def rk4_after(args, kwargs, traj, ctx):
        tracer.count("rk4_steps", len(traj.times) - 1)

    wrap(canonical, "integrate_canonical", "canonical.integrate_canonical",
         after=rk4_after)
    for name in ("long_time_attractor", "persistence_envelope",
                 "lyapunov_local"):
        wrap(canonical, name, f"canonical.{name}")

    # diagnostics
    for name in ("constraint_residual", "compare_trajectories",
                 "monotonicity_violation", "total_variation"):
        wrap(diagnostics, name, f"diagnostics.{name}")


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    with tracer.span("import.concentra"):
        import numpy as np
        import concentra
        from concentra import canonical, cli, diagnostics, pde
    with tracer.span("bench.install"):
        install(tracer, np, cli, pde, canonical, diagnostics)
    with tracer.span("cli.main"):
        rc = cli.main(cli_args)
    data = tracer.to_dict()
    data["rc"] = rc
    data["script_s"] = time.perf_counter() - SCRIPT_START
    data["concentra_file"] = concentra.__file__
    with open(out_path, "w") as f:
        json.dump(data, f)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
