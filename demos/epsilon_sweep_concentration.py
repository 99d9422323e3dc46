"""How fast does the population Dirac-concentrate as mutations get rare?

Runs the one-dimensional concave-quadratic scenario at a sequence of
halving diffusion strengths epsilon and, for each run, measures two things:

  * how far the population sits from the constraint manifold R(xbar, I) = 0
    once the initial transient layer has passed, and
  * how far the PDE peak path strays from the limiting ODE for the
    concentration point (integrated with the PDE's own curvature feed).

The post-layer residual halves with epsilon: the peak rides the
constraint manifold ever closer.  The PDE-vs-ODE distance stays near
3e-4 at every epsilon: on this quadratic scenario the ODE is exact for the
peak, so the distance measures the time step's first-order splitting
error, which is set by dt, not by epsilon.

Run:  python3 demos/epsilon_sweep_concentration.py
"""

import dataclasses

from concentra import canonical as canon
from concentra import diagnostics as diag
from concentra.pde import run_simulation, u0_peaks
from concentra.scenarios import load_bundled


def main():
    sc = load_bundled("quadratic_concave")
    model = sc.build_model()
    grid = sc.build_grid()
    print(f"{'epsilon':>9} {'post-layer |R|':>16} {'sup |x_pde - x_ode|':>21}")
    for eps in (0.02, 0.01, 0.005):
        cfg = dataclasses.replace(sc.build_config(), epsilon=eps)
        result = run_simulation(cfg, model, grid, sc.u0,
                                constants=sc.build_constants())
        post = diag.post_layer_max(result.series.times, result.residuals,
                                   0.5)
        x0, _ = u0_peaks(sc.u0)[0]
        ode = canon.integrate_canonical(
            x0, canon.HessianClosure("from_pde", feed=result.trajectory),
            model, cfg.dt, cfg.steps * cfg.dt, domain=sc.domain())
        sup, _, _ = diag.compare_trajectories(result.trajectory, ode)
        print(f"{eps:>9.3f} {post:>16.3e} {sup:>21.3e}")
    print("\nHalving epsilon halves the post-layer residual: the peak rides "
          "the constraint\nmanifold.  The sup distance stays flat: it is "
          "the splitting error of dt.")


if __name__ == "__main__":
    main()
