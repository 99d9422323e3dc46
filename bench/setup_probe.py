"""Set-up probe, run in a fresh process:

    python3 bench/setup_probe.py SCENARIO.json

Times importing concentra.cli, loading the scenario, building its model,
grid, config and diffusion coefficient, constructing the integrator and the
initial density.  Prints one JSON line with that time, where concentra was
imported from, and the versions of the numerical stack it ran on.
"""

import json
import sys
import time

t0 = time.perf_counter()
import concentra.cli  # noqa: E402,F401  (the import is what is timed)
from concentra.pde import ImexIntegrator, init_density  # noqa: E402
from concentra.scenarios import load_scenario  # noqa: E402


def _blas_version(np) -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main(path: str) -> None:
    sc = load_scenario(path)
    model = sc.build_model()
    grid = sc.build_grid()
    config = sc.build_config()
    b = sc.build_diffusion()
    ImexIntegrator(grid, model, config, b=b)
    init_density(grid, sc.u0, config.epsilon, config.mass_target)
    setup_s = time.perf_counter() - t0

    import numpy as np
    import scipy
    print(json.dumps({
        "setup_s": setup_s,
        "concentra_file": concentra.__file__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_version(np),
    }))


if __name__ == "__main__":
    main(sys.argv[1])
