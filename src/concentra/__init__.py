"""Trait-space population dynamics with small mutations.

Integrates nonlocal Lotka-Volterra reaction-diffusion models at small
diffusion eps, tracks the concentration point through the log transform
u = eps ln n, and runs the limiting canonical ODE side by side so the two
descriptions can be compared quantitatively.
"""

from .grid import (DensityField, GridError, ScalarField, TraitGrid,
                   build_grid, integrate, laplacian, read_field_csv,
                   write_field_csv, write_field_npy)
from .models import (AssumptionConstants, ConstraintInfeasibleError,
                     DiffusionCoefficient, GlobalInteractionModel,
                     LocalCompetitionModel, ModelError,
                     NoPositiveSteadyStateError, build_model,
                     check_assumptions, constant_diffusion, eval_growth,
                     invert_constraint, phi_potential, sine_diffusion,
                     steady_state_weight)
from .wkb import (WkbError, WkbField, from_wkb, locate_max,
                  regularity_monitor, to_wkb)
from .pde import (ConfigError, ImexIntegrator, RunResult, SimulationConfig,
                  SimulationState, SolverError, init_density,
                  run_simulation, write_series_csv, write_trajectory_csv)
from .canonical import (ClosureError, ConcentrationTrajectory, HessianClosure,
                        canonical_rhs, gradient_flow_rate,
                        integrate_canonical, long_time_attractor,
                        lyapunov_local, no_mutation_weight_ode,
                        persistence_envelope, riccati_hessian_rhs)
from .diagnostics import (MacroSeries, compare_trajectories,
                          constraint_residual, monotonicity_violation,
                          post_layer_max, total_variation)
from .scenarios import (Scenario, ScenarioError, bundled_scenario_names,
                        load_bundled, load_scenario)

__version__ = "0.1.0"
