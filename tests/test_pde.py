"""IMEX stepping: splitting correctness, conservation, positivity, runs, CSV."""

import dataclasses
import functools
from fractions import Fraction

import numpy as np
import pytest

from concentra.grid import (DensityField, GridError, ScalarField,
                            TraitGrid, build_grid, diffusion_stencil,
                            integrate, kernel_convolution, stencil_weights,
                            write_field_npy)
from concentra.models import (GaussianKernel, QuadraticFunction, build_model,
                              constant_diffusion, sine_diffusion)
from concentra import pde
from concentra.canonical import ConcentrationTrajectory
from concentra.pde import (CG_MAXITER, CG_RTOL, ConfigError,
                           DegenerateInitializationError, ImexIntegrator,
                           SimulationConfig, SimulationState, SolverError,
                           init_density, read_trajectory_csv, run_simulation,
                           u0_peaks, write_series_csv, write_trajectory_csv)
from concentra.scenarios import load_bundled

from conftest import traced_peak


def zero_rate_model(dimension):
    return build_model({"family": "affine_global",
                        "params": {"a": 0.0, "slope": [0.0] * dimension,
                                   "coef_I": 0.0}}, dimension)


def constant_rate_model(r0, dimension):
    return build_model({"family": "affine_global",
                        "params": {"a": r0, "slope": [0.0] * dimension,
                                   "coef_I": 0.0}}, dimension)


def _axis_variance(density, axis):
    g = density.grid
    w = density.values.sum(axis=1 - axis) if g.dimension == 2 \
        else density.values
    x = g.axis_coords(axis)
    mass = w.sum()
    mean = (w * x).sum() / mass
    return ((x - mean) ** 2 * w).sum() / mass


def _run_steps(engine, state, steps):
    for _ in range(steps):
        state = engine.step(state)
    return state


# --- configuration and initial data ------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"epsilon": 0.0}, {"dt": -1.0}, {"steps": -1},
    {"epsilon": "0.01"}, {"mass_target": 0.0},
    {"epsilon": float("nan")}, {"dt": float("nan")},
    {"epsilon": float("inf")}, {"mass_target": float("nan")},
    {"snapshot_every": -1}, {"snapshot_every": 0.5},
    {"snapshot_every": "20"}, {"snapshot_every": True},
    {"epsilon": True}, {"dt": True}, {"steps": True}, {"mass_target": True},
    {"steps": 2.0}, {"steps": "2"}, {"mass_target": "0.3"},
])
def test_config_validation(kwargs):
    base = {"epsilon": 0.01, "dt": 0.01, "steps": 1}
    base.update(kwargs)
    with pytest.raises(ConfigError):
        SimulationConfig(**base)


def test_init_density_exact_mass():
    g = build_grid(2, 0.0, 1.0, 100)
    n = init_density(g, [{"center": [0.7, 0.7], "weights": [1.0, 5.0]}],
                     0.005, 0.3)
    assert integrate(n) == pytest.approx(0.3, abs=1e-12)


def test_init_density_two_bumps_split_mass_evenly():
    g = build_grid(2, 0.0, 1.0, 100)
    c = 0.25 * np.sqrt(2.0)
    n = init_density(g, [{"center": [c, 0.0], "weights": [2.4, 2.4]},
                         {"center": [0.0, c], "weights": [2.4, 2.4]}],
                     0.003, 0.3)
    swapped = n.values.T    # the two bumps are mirror images across x1=x2
    assert np.max(np.abs(n.values - swapped)) <= 1e-15
    nodes = g.nodes()
    below = n.values[nodes[..., 0] > nodes[..., 1]].sum() * g.cell_volume
    above = n.values[nodes[..., 1] > nodes[..., 0]].sum() * g.cell_volume
    assert below == pytest.approx(above, rel=1e-12)
    assert below == pytest.approx(0.15, abs=1e-6)


def test_init_density_underflow_raises():
    g = build_grid(1, 0.0, 1.0, 16)
    with pytest.raises(DegenerateInitializationError):
        init_density(g, [{"center": [0.5], "weights": [1e9]}], 1e-3, 0.3)


@pytest.mark.parametrize("dimension, bumps", [
    (1, [{"center": [0.4], "weights": [3.0]}]),
    (1, [{"center": [0.3], "weights": [2.0]},
         {"center": [0.8], "weights": [5.0]}]),
    (2, [{"center": [0.3, 0.6], "weights": [1.0, 4.0]}]),
    (2, [{"center": [0.25, 0.7], "weights": [2.0, 1.5]},
         {"center": [0.8, 0.2], "weights": [3.0, 0.5]}])])
def test_init_density_is_bitwise_the_quadratics_on_the_node_table(
        dimension, bumps):
    """The bumps summed from their per-axis terms are bitwise
    QuadraticFunction.value on the node table, exponentiated, summed and
    scaled to the mass."""
    g = build_grid(dimension, 0.0, 1.0, [37, 29][:dimension])
    eps, mass = 0.01, 0.3
    raw = np.zeros(g.shape)
    for bump in bumps:
        q = QuadraticFunction(0.0, bump["center"], bump["weights"])
        raw += np.exp(q.value(g.nodes()) / eps)
    ref = raw * (mass / (raw.sum() * g.cell_volume))
    assert init_density(g, bumps, eps, mass).values.tobytes() == ref.tobytes()


def test_init_density_peak_is_its_result_and_one_row():
    """On 150x150, init_density's traced peak, its result included, stays
    below 2.5 grid vectors: the result and one row for the bumps, with no
    node table or temporaries of the quadratic."""
    g = build_grid(2, 0.0, 1.0, 150)
    bumps = [{"center": [0.3, 0.3], "weights": [1.0, 1.0]}]
    peak = traced_peak(init_density, g, bumps, 0.004, 0.3)[1]
    assert peak < 2.5 * 8 * g.num_nodes


def test_u0_peaks_analytic():
    [(c, H)] = u0_peaks([{"center": [0.7, 0.7], "weights": [1.0, 5.0]}])
    assert np.array_equal(c, [0.7, 0.7])
    assert np.array_equal(H, np.diag([-2.0, -10.0]))


# --- splitting pieces ----------------------------------------------------------

def test_reaction_update_exact_for_constant_rate():
    # vanishing diffusion coefficient isolates the exponential reaction update
    g = build_grid(1, 0.0, 1.0, 128)
    r0, eps, dt = 0.35, 0.01, 0.002
    cfg = SimulationConfig(eps, dt, 1)
    engine = ImexIntegrator(g, constant_rate_model(r0, 1), cfg,
                            b=constant_diffusion(1e-30))
    n0 = init_density(g, [{"center": [0.5], "weights": [1.0]}], eps, 0.3)
    out = engine.step(SimulationState(0.0, n0, None))
    expected = n0.values * np.exp(r0 * dt / eps)
    keep = expected > 1e-200
    rel = np.abs(out.density.values[keep] - expected[keep]) / expected[keep]
    assert rel.max() <= 1e-12


def test_stiffness_number_reads_both_extremes_of_the_rate():
    """dt sup|R| / eps comes from max R and -min R: a rate whose negative
    extreme is the larger gives its advisory, and a nan rate gives nan in
    the overflow message."""
    g = build_grid(1, 0.0, 1.0, 32)
    engine = ImexIntegrator(g, zero_rate_model(1),
                            SimulationConfig(0.01, 0.01, 1))
    n0 = init_density(g, [{"center": [0.5], "weights": [1.0]}], 0.01, 0.3)
    rate = np.linspace(-2.5, 0.5, 32)
    engine.step(SimulationState(0.0, n0, None, rate))
    assert engine.advisories == [
        "dt*sup|R|/eps = 2.5 > 1: explicit reaction update may be inaccurate"]
    rate[7] = np.nan
    with pytest.raises(SolverError, match=r"dt\*sup\|R\|/eps = nan;"):
        engine.step(SimulationState(0.0, n0, None, rate))


def test_pure_diffusion_mass_conserved_per_step():
    """The 1D solve conserves the total mass to round-off, step by step."""
    g = build_grid(1, 0.0, 1.0, 256)
    cfg = SimulationConfig(0.01, 0.01, 1)
    engine = ImexIntegrator(g, zero_rate_model(1), cfg)
    state = SimulationState(
        0.0, init_density(g, [{"center": [0.5], "weights": [2.0]}], 0.01, 0.3),
        None)
    for _ in range(100):
        before = state.density.values.sum()
        state = engine.step(state)
        assert abs(state.density.values.sum() / before - 1.0) <= 1e-14


def _exact_tridiagonal_solve(k, rhs):
    """Thomas elimination in rational arithmetic: the exact solution of
    x_i + k_{i-1} (x_i - x_{i-1}) + k_i (x_i - x_{i+1}) = rhs_i."""
    k = [Fraction(0)] + k + [Fraction(0)]
    n = len(rhs)
    pivots, ys = [], []
    for i in range(n):
        diag = 1 + k[i] + k[i + 1]
        y = Fraction(rhs[i])
        if i:
            mult = k[i] / pivots[-1]
            diag -= mult * k[i]
            y += mult * ys[-1]
        pivots.append(diag)
        ys.append(y)
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (ys[i] + (k[i + 1] * x[i + 1] if i + 1 < n else 0)) / pivots[i]
    return x


@pytest.mark.parametrize("variable,nodes", [
    pytest.param(False, 64, id="uniform"),
    pytest.param(True, 64, id="faces"),
    pytest.param(False, 65, id="uniform-sweep"),
    pytest.param(True, 65, id="faces-sweep"),
])
def test_1d_solve_exact_entry_by_entry(variable, nodes):
    """Every entry of the 1D diffusion solve, the log-depth scan, down to
    the far tails, is accurate relative to itself: an rhs spanning 1e-250
    to 1 against the exact rational solve of the same operator.  On 64
    nodes each sweep of the scan takes six full levels; on 65 it takes a
    seventh, d = 64, that reaches a single entry."""
    engine = _diffusion_engine(1, variable, nodes)
    g, cfg = engine.grid, engine.config
    assert pde.diffusion_solve(g) == {"method": "tridiagonal"}
    w = (engine._faces[0][:-1] if variable
         else np.ones(g.num_nodes - 1))
    coef = Fraction(cfg.epsilon * cfg.dt) / Fraction(g.spacing[0]) ** 2
    k = [Fraction(v) * coef for v in w.tolist()]
    rhs = np.logspace(-250.0, 0.0, g.num_nodes)
    x = engine.step(SimulationState(0.0, DensityField(g, rhs), None))
    x = x.density.values
    exact = np.array([float(v) for v in _exact_tridiagonal_solve(
        k, rhs.tolist())])
    assert exact.min() < 1e-30
    assert np.max(np.abs(x - exact) / exact) <= 1e-12
    matvec, _ = _stencil_operator(engine)
    assert (np.linalg.norm(matvec(x) - rhs)
            <= 1e-13 * np.linalg.norm(rhs))


@pytest.mark.parametrize("form", ["scan"])   # the one 1D form
def test_1d_solve_needs_no_clamp(form):
    """A 1D step applies its solve, the log-depth scan, unclamped: it maps
    an rhs of exact zeros and values from 5e-324 to 1 to finite entries
    with no sign bit set (not even on a zero), for tridiagonal weights
    eps dt / h^2 from 6.4e-7 to 1e9.  Each solve is a new array that the
    next leaves as it is."""
    rng = np.random.default_rng(30)
    for nodes in (8, 9, 17, 64, 288, 289, 1024):
        g = build_grid(1, 0.0, 1.0, nodes)
        tiny = np.full(nodes, 5e-324)
        ladder = np.logspace(-323.0, 0.0, nodes)
        ladder[::3] = 0.0
        rhs_set = [np.zeros(nodes), np.where(np.arange(nodes) % 2, tiny, 0.0),
                   ladder, rng.permutation(ladder),
                   np.eye(1, nodes, nodes - 1)[0]]
        for eps_dt in (1e-8, 1e-4, 1e-2, 1.0, 1e3):
            engine = ImexIntegrator(g, zero_rate_model(1),
                                    SimulationConfig(1.0, eps_dt, 1))
            assert pde.diffusion_solve(g) == {"method": "tridiagonal"}
            solves = []
            for rhs in rhs_set:
                x = engine.step(SimulationState(
                    0.0, DensityField(g, rhs), None)).density.values
                assert np.isfinite(x).all()
                assert not np.signbit(x).any()
                solves.append((x, x.tobytes()))
            assert all(x.tobytes() == kept for x, kept in solves)


def test_1d_engine_holds_no_dense_inverse():
    """Building the engine of a 256-node 1D global model allocates no
    N x N matrix: at its peak it holds the scan's per-level products
    (log2 N - 1 grid vectors), its two rows, the reciprocal pivots and the
    Python floats of the factor build, under 32 grid vectors, where a
    dense inverse alone is 256."""
    g = build_grid(1, 0.0, 1.0, 256)
    _, peak = traced_peak(ImexIntegrator, g, zero_rate_model(1),
                          SimulationConfig(0.01, 0.01, 1))
    assert peak < 32 * 8 * g.num_nodes
    assert pde.diffusion_solve(g) == {"method": "tridiagonal"}


def _float_sweep(k, rhs):
    """Reference: the Thomas sweep over Python floats, with the factors of
    `pde._thomas_solver` built the same way, one entry after the other."""
    k = k.tolist()
    mult, inv = [], []
    q = 1.0
    for ki in k:
        p = q + ki
        inv.append(1.0 / p)
        mult.append(ki / p)
        q = 1.0 + ki * q / p
    r = rhs.tolist()
    ys = [r[0]]
    for ri, m in zip(r[1:], mult):
        ys.append(ri + m * ys[-1])
    xs = [ys[-1] * (1.0 / q)]
    for yi, ki, vi in zip(ys[-2::-1], k[::-1], inv[::-1]):
        xs.append((yi + ki * xs[-1]) * vi)
    return np.array(xs[::-1])


def _quadratic_concave_k():
    """eps dt / h^2 of the bundled quadratic_concave run."""
    sc = load_bundled("quadratic_concave")
    cfg = sc.build_config()
    return cfg.epsilon * cfg.dt / sc.build_grid().spacing[0] ** 2


@pytest.mark.parametrize("variable", [False, True], ids=["uniform", "faces"])
@pytest.mark.parametrize("nodes", [385, 512, 1024, 2048])
def test_1d_scan_matches_float_sweep_entry_by_entry(nodes, variable):
    """The log-depth scan against the float sweep it replaced, entry by
    entry, on rhs spanning 1e-250 to 1, sorted and permuted, for face
    weights from the smallest to the largest k a 1D run meets; repeated
    solves reuse the scan's rows."""
    rng = np.random.default_rng(nodes)
    w = rng.uniform(0.25, 4.0, nodes - 1) if variable else np.ones(nodes - 1)
    rhs = np.logspace(-250.0, 0.0, nodes)
    smallest = 1.0
    for coef in (1e-4, _quadratic_concave_k(), 50.0, 1e3):
        k = w * coef
        solve = pde._thomas_solver(k)
        for r in (rhs, rng.permutation(rhs)):
            ref = _float_sweep(k, r)
            smallest = min(smallest, ref.min())
            assert np.max(np.abs(solve(r) - ref) / ref) <= 1e-12
    assert smallest < 1e-200


def test_heat_kernel_variance_growth():
    g = build_grid(2, 0.0, 1.0, 64)
    eps, dt, steps = 0.005, 0.01, 20
    cfg = SimulationConfig(eps, dt, steps)
    engine = ImexIntegrator(g, zero_rate_model(2), cfg)
    state = SimulationState(
        0.0, init_density(g, [{"center": [0.5, 0.5],
                               "weights": [2.0, 2.0]}], eps, 0.3), None)
    v0 = [_axis_variance(state.density, ax) for ax in (0, 1)]
    state = _run_steps(engine, state, steps)
    v1 = [_axis_variance(state.density, ax) for ax in (0, 1)]
    for ax in (0, 1):
        growth = (v1[ax] - v0[ax]) / (2.0 * eps * dt * steps)
        assert 0.98 <= growth <= 1.02


def test_variable_diffusion_b4_quadruples_variance_growth():
    g = build_grid(1, 0.0, 1.0, 128)
    eps, dt, steps = 0.002, 0.01, 20
    growths = []
    for bval in (1.0, 4.0):
        cfg = SimulationConfig(eps, dt, steps)
        engine = ImexIntegrator(g, zero_rate_model(1), cfg,
                                b=constant_diffusion(bval))
        state = SimulationState(
            0.0, init_density(g, [{"center": [0.5], "weights": [2.0]}],
                              eps, 0.3), None)
        v0 = _axis_variance(state.density, 0)
        state = _run_steps(engine, state, steps)
        growths.append(_axis_variance(state.density, 0) - v0)
    ratio = growths[1] / growths[0]
    assert 3.92 <= ratio <= 4.08


def test_variable_diffusion_unit_b_matches_global_stepper():
    g = build_grid(1, 0.0, 1.0, 128)
    model = build_model({"family": "quadratic_global",
                         "params": {"k0": 1.0, "center": [0.5],
                                    "weights": [1.0]}}, 1)
    n0 = init_density(g, [{"center": [0.6], "weights": [1.0]}], 0.01, 0.3)
    paths = []
    for b in (None, constant_diffusion(1.0)):
        cfg = SimulationConfig(0.01, 0.005, 10)
        engine = ImexIntegrator(g, model, cfg, b=b)
        state = SimulationState(0.0, DensityField(g, n0.values.copy()), None)
        state = _run_steps(engine, state, 10)
        paths.append(state.density.values)
    assert np.max(np.abs(paths[0] - paths[1])) <= 1e-12


def test_local_constant_kernel_reduces_to_global():
    """A constant kernel is the global model with psi = 1: ten steps give
    byte-equal densities, in 1D and in 2D."""
    for d, points in ((1, 128), (2, 32)):
        g = build_grid(d, 0.0, 1.0, points)
        local = build_model({"family": "logistic_local",
                             "params": {"r": {"c0": 1.0, "center": [0.5] * d,
                                              "weights": [1.0] * d},
                                        "kernel": {"type": "constant",
                                                   "value": 1.0}}}, d)
        glob = build_model({"family": "quadratic_global",
                            "params": {"k0": 1.0, "center": [0.5] * d,
                                       "weights": [1.0] * d,
                                       "coef_I": 1.0}}, d)
        n0 = init_density(g, [{"center": [0.6] * d, "weights": [1.0] * d}],
                          0.01, 0.3)
        outs = []
        for model in (local, glob):
            cfg = SimulationConfig(0.01, 0.005, 10)
            engine = ImexIntegrator(g, model, cfg)
            state = SimulationState(0.0, DensityField(g, n0.values.copy()),
                                    None)
            outs.append(_run_steps(engine, state, 10).density.values)
        assert outs[0].tobytes() == outs[1].tobytes()


def test_positivity_with_oscillating_diffusion_coefficient():
    g = build_grid(1, 0.0, 1.0, 128)
    cfg = SimulationConfig(0.01, 0.01, 1)
    engine = ImexIntegrator(g, constant_rate_model(0.2, 1), cfg,
                            b=sine_diffusion(1.0, 0.5, 1.0))
    state = SimulationState(
        0.0, init_density(g, [{"center": [0.5], "weights": [1.0]}],
                          0.01, 0.3), None)
    for _ in range(20):
        state = engine.step(state)
        assert np.all(state.density.values >= 0)


def test_zero_density_is_absorbing_for_local_model():
    g = build_grid(1, 0.0, 1.0, 64)
    local = build_model({"family": "logistic_local",
                         "params": {"r": {"c0": 1.0, "center": [0.5],
                                          "weights": [1.0]}}}, 1)
    cfg = SimulationConfig(0.01, 0.01, 1)
    engine = ImexIntegrator(g, local, cfg)
    out = engine.step(SimulationState(0.0, DensityField(g, np.zeros(g.shape)),
                                      None))
    assert np.all(out.density.values == 0.0)


def _diffusion_engine(dimension, variable, nodes=None):
    g = build_grid(dimension, 0.0, 1.0,
                   nodes or (24 if dimension == 2 else 64))
    cfg = SimulationConfig(0.01, 0.01, 1)
    b = sine_diffusion(1.0, 0.5, 1.0) if variable else None
    return ImexIntegrator(g, zero_rate_model(dimension), cfg, b=b)


def _stencil_operator(engine, rows=None):
    """(matvec, work): Id - eps dt L of `engine` on the flattened grid, the
    stencil with the weights the engine folds, and the CG's five work
    vectors (x, r, p, q, tmp).  Given `rows`, the four its CG allocated,
    work is those and the engine's row as tmp, with the stencil's flux row
    over that row, as the engine's solve runs them; without, five new rows,
    the fifth (tmp) with the flux row under it.  `matvec(v, out)` writes
    into `out`, a new array without it."""
    g, cfg = engine.grid, engine.config
    n = g.num_nodes
    weights = stencil_weights(g, cfg.epsilon * cfg.dt, engine._faces)
    if rows is None:
        rows = pde._aligned_rows(5, n + 7)
        flux, work = rows[4], rows[:, :n]
    else:
        flux = engine._flux
        work = (*rows[:, :n], flux[:n])

    def matvec(v, out=None):
        return diffusion_stencil(v.reshape(g.shape), weights, True, out=out,
                                 flux=flux).reshape(-1)

    return matvec, work


def _engine_cg_rows(monkeypatch, grid, config):
    """A 2D engine, its row and the four rows its CG solve allocated, the
    only rows the engine allocates."""
    made, aligned_rows = [], pde._aligned_rows

    def record(count, length):
        made.append(aligned_rows(count, length))
        return made[-1]

    monkeypatch.setattr(pde, "_aligned_rows", record)
    engine = ImexIntegrator(grid, zero_rate_model(2), config)
    [(row,), rows] = made
    assert np.shares_memory(row, engine._flux)
    return engine, row, rows


@pytest.mark.parametrize("dimension", [1, 2])
@pytest.mark.parametrize("variable", [False, True], ids=["uniform", "faces"])
def test_cg_bitwise_equals_scipy_cg(dimension, variable):
    """The five solves run back to back in one engine's work rows, so each
    starts from the buffers the one before left dirty."""
    linalg = pytest.importorskip("scipy.sparse.linalg")
    engine = _diffusion_engine(dimension, variable)
    matvec, work = _stencil_operator(engine)
    g = engine.grid
    n = g.num_nodes
    op = linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    rng = np.random.default_rng(5)
    b = init_density(g, [{"center": [0.4] * dimension,
                          "weights": [1.0] * dimension}], 0.01,
                     0.3).values.reshape(-1)
    warm = b + 1e-3 * rng.standard_normal(n)
    cases = [(b, b, CG_MAXITER), (b, warm, CG_MAXITER),
             (b, np.zeros(n), CG_MAXITER), (b, warm, 3),
             (np.zeros(n), warm, CG_MAXITER)]
    for rhs, x0, maxiter in cases:
        x0_before = x0.copy()
        work[0] = x0
        ours, info = pde._cg(matvec, rhs, work, CG_RTOL, maxiter)
        ref, ref_info = linalg.cg(op, rhs, x0=x0, rtol=CG_RTOL, atol=0.0,
                                  maxiter=maxiter)
        assert info == ref_info
        assert ours.tobytes() == ref.tobytes()
        assert np.array_equal(x0, x0_before)
    work[0] = warm
    assert pde._cg(matvec, b, work, CG_RTOL, 3)[1] == 3


def test_cg_allocates_no_grid_vector(monkeypatch):
    """A cold 2D solve runs in the work rows the engine's CG allocated and
    the engine's row, which holds its rhs, as the engine passes it: forced
    to 10 or to 150 iterations, its traced allocations peak below an
    eighth of one grid vector.  The CG's own work set is four grid
    vectors; with the engine's row, five."""
    g = build_grid(2, 0.0, 1.0, 128)
    engine, row, rows = _engine_cg_rows(monkeypatch, g,
                                        SimulationConfig(1.0, 1.0, 1))
    matvec, work = _stencil_operator(engine, rows)
    b = init_density(g, [{"center": [0.4, 0.6], "weights": [1.0, 1.0]}],
                     0.01, 0.3).values.reshape(-1)
    assert rows.nbytes == 4 * b.nbytes
    assert rows.nbytes + row.nbytes < 5 * b.nbytes + 128

    def cold_solve(maxiter):
        work[0][:] = 0.0
        engine._row[:] = b
        return pde._cg(matvec, engine._row, work, CG_RTOL, maxiter)[1]

    peaks = []
    for maxiter in (10, 150):
        info, peak = traced_peak(cold_solve, maxiter)
        peaks.append(peak)
        assert info == maxiter
    assert max(peaks) < b.nbytes / 8


@pytest.mark.parametrize("n", [24, 97, 150])
def test_work_rows_start_on_64_byte_lines(monkeypatch, n):
    """The CG's four rows and the engine's row, the CG's tmp and flux row,
    each start on a 64-byte line, where numpy's SIMD loops write whole
    lines, and a product written into a CG row, with its fluxes in the
    engine's row, is the product into fresh buffers."""
    g = build_grid(2, 0.0, 1.0, n)
    engine, row, rows = _engine_cg_rows(monkeypatch, g,
                                        SimulationConfig(0.01, 0.01, 1))
    matvec, work = _stencil_operator(engine, rows)
    assert rows.shape[0] == 4 and row.size >= g.num_nodes + 7
    assert [w.shape for w in work] == [(g.num_nodes,)] * 5
    assert [w.ctypes.data % 64 for w in work] == [0] * 5
    assert row.ctypes.data % 64 == 0
    v = np.random.default_rng(2).standard_normal(g.num_nodes)
    fresh, _ = _stencil_operator(engine)
    assert matvec(v, work[3]).tobytes() == fresh(v).tobytes()


@pytest.mark.parametrize("variable", [False, True], ids=["uniform", "faces"])
def test_solve_of_its_own_flux_row_is_bitwise_a_kept_rhs(variable):
    """The engine's 2D solve overwrites an rhs held in its row, which is
    also its flux row, and returns the same bytes as the solve of the
    same rhs held apart, cold and warm."""
    engines = [_diffusion_engine(2, variable) for _ in range(2)]
    n0 = init_density(engines[0].grid, [{"center": [0.4, 0.6],
                                         "weights": [1.0, 1.0]}], 0.01, 0.3)
    rhs = n0.values.reshape(-1)
    for _ in range(3):
        own, kept = engines
        own._row[:] = rhs
        got = own._solve(own._row)
        assert not np.array_equal(own._row, rhs)   # the rhs is gone
        want = kept._solve(rhs.copy())
        assert got.tobytes() == want.tobytes()
        rhs = 0.5 * (got + rhs)


def test_cg_non_convergence_raises_solver_error(monkeypatch):
    engine = _diffusion_engine(2, False)
    n0 = init_density(engine.grid, [{"center": [0.4, 0.6],
                                     "weights": [1.0, 1.0]}], 0.01, 0.3)
    monkeypatch.setattr(pde, "CG_MAXITER", 1)
    with pytest.raises(SolverError, match=r"did not converge \(info=1, "
                                          r"residual=\d\.\d{3}e[-+]\d+\)"):
        engine.step(SimulationState(0.0, n0, None))


def test_model_of_neither_type_rejected():
    g = build_grid(1, 0.0, 1.0, 64)
    cfg = SimulationConfig(0.01, 0.01, 1)
    with pytest.raises(ConfigError, match="unsupported model type"):
        ImexIntegrator(g, object(), cfg)


def _ten_steps(model, b):
    g = build_grid(1, 0.0, 1.0, 128)
    engine = ImexIntegrator(g, model, SimulationConfig(0.01, 0.005, 10), b=b)
    n0 = init_density(g, [{"center": [0.6], "weights": [1.0]}], 0.01, 0.3)
    return _run_steps(engine, SimulationState(0.0, n0, None), 10)


def test_default_config_applies_diffusion_coefficient():
    """A given b is never dropped: the engine reads the face coefficients
    off `b` itself, for every model."""
    model = build_model({"family": "quadratic_global",
                         "params": {"k0": 1.0, "center": [0.5],
                                    "weights": [1.0]}}, 1)
    plain = _ten_steps(model, None).density.values
    varied = _ten_steps(model, sine_diffusion(1.0, 0.5, 1.0)).density.values
    assert np.max(np.abs(plain - varied)) > 1e-3


def test_local_model_unit_diffusion_matches_no_coefficient():
    local = load_bundled("local_logistic").build_model()
    plain = _ten_steps(local, None).density.values
    unit = _ten_steps(local, constant_diffusion(1.0)).density.values
    assert np.max(np.abs(plain - unit)) <= 1e-12


# --- full runs -------------------------------------------------------------------

def test_run_local_samples_kernel_once_per_run():
    """The competition kernel is sampled when the run starts, never per
    step: 5 and 10 steps evaluate it equally often."""
    sc = load_bundled("local_logistic")
    base = sc.build_model().kernel
    grid = build_grid(1, 0.0, 1.0, 64)

    class Counted(GaussianKernel):
        calls = 0

        def axis_factor(self, offsets, out=None):
            Counted.calls += 1
            return super().axis_factor(offsets, out=out)

        def profile(self, offsets):
            Counted.calls += 1
            return super().profile(offsets)

        def __call__(self, x, y):
            Counted.calls += 1
            return super().__call__(x, y)

    counts = []
    for steps in (5, 10):
        Counted.calls = 0
        model = dataclasses.replace(sc.build_model(), kernel=Counted(
            base.floor, base.amp, base.width))
        cfg = SimulationConfig(0.01, 0.002, steps)
        run_simulation(cfg, model, grid, sc.u0)
        counts.append(Counted.calls)
    assert counts[0] == counts[1] >= 1


def _quick_run(steps=30, epsilon=0.01, probes=None):
    sc = load_bundled("quadratic_concave")
    model = sc.build_model()
    grid = sc.build_grid()
    cfg = SimulationConfig(epsilon, 0.0025, steps, snapshot_every=15)
    return run_simulation(cfg, model, grid, sc.u0, probes=probes,
                          constants=sc.build_constants()), model, cfg


def test_run_zero_steps_records_initial_state_only():
    result, _, _ = _quick_run(steps=0)
    assert len(result.series.times) == 1
    assert result.series.rho[0] == pytest.approx(0.3, abs=1e-12)


def test_run_snapshots_and_series_lengths():
    result, _, cfg = _quick_run(steps=30)
    assert sorted(result.snapshots) == [0, 15, 30]
    assert len(result.series.times) == cfg.steps + 1
    assert result.trajectory.points.shape == (cfg.steps + 1, 1)


@pytest.mark.parametrize("name, points", [("quadratic_concave", None),
                                          ("scenario2", 24)])
def test_run_snapshot_sink_receives_the_default_snapshots(name, points):
    """A sink is handed each snapshot in step order: exactly the steps and
    bytes that RunResult.snapshots holds without one, which a sink leaves
    empty."""
    args, kwargs = _scenario_run(name, steps=20, points=points)
    args = (dataclasses.replace(args[0], snapshot_every=7),) + args[1:]
    kept = run_simulation(*args, **kwargs).snapshots
    handed = []
    result = run_simulation(*args, **kwargs, snapshot=lambda step, density:
                            handed.append((step, density.values.tobytes())))
    assert result.snapshots == {}
    assert [step for step, _ in handed] == [0, 7, 14]
    assert handed == [(k, v.values.tobytes()) for k, v in kept.items()]


def test_run_memory_does_not_grow_with_snapshots(tmp_path):
    """With a sink that writes each snapshot, a 2D run's traced peak at
    snapshot_every=1 stays within one grid vector of its peak with
    snapshots at the first and last steps only."""
    args, kwargs = _scenario_run("scenario2", steps=12, points=40)
    cfg, grid = args[0], args[2]

    def write(step, density):
        write_field_npy(density, tmp_path / f"snap_{step:06d}.npy")

    peaks = []
    for every in (cfg.steps, 1):
        run = (dataclasses.replace(cfg, snapshot_every=every),) + args[1:]
        peaks.append(traced_peak(run_simulation, *run, **kwargs,
                                 snapshot=write)[1])
    assert len(list(tmp_path.iterdir())) == cfg.steps + 1
    assert peaks[1] - peaks[0] < 8 * grid.num_nodes


def test_run_memory_peaks_below_two_record_blocks():
    """After a warm-up run, quadratic_concave's traced peak stays below two
    record blocks: the density block, and no second block of psi R n or
    copy of the initial density beside it."""
    sc = load_bundled("quadratic_concave")
    args = (sc.build_config(), sc.build_model(), sc.build_grid(), sc.u0)
    peak = traced_peak(run_simulation, *args)[1]
    assert peak < 2 * pde.RECORD_BLOCK_BYTES


def test_2d_run_builds_no_cached_node_table(monkeypatch):
    """A 2D run, probes included, asks the grid for its node table once,
    at the engine's set-up, and the grid keeps none."""
    calls = []
    build = TraitGrid.nodes

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(TraitGrid, "nodes", counted)
    args, kwargs = _scenario_run("scenario2", steps=10, probes=[0, 10])
    result = run_simulation(*args, **kwargs)
    assert len(result.series.times) == 11
    assert [rep["step"] for rep in result.regularity_reports] == [0, 10]
    assert calls == [args[2]]
    assert "_node_table" not in vars(args[2])


@pytest.mark.parametrize("name, steps, points", [
    ("quadratic_concave", 40, None), ("local_logistic", 40, None),
    ("scenario2", 12, 24)])
def test_run_J_is_psi_R_n_of_each_kept_density(name, steps, points):
    """J at every step is bitwise psi R n summed over that step's kept
    density, R from the public `rate_field`, times vol / eps."""
    args, kwargs = _scenario_run(name, steps, points, probes=[])
    model, grid = args[1], args[2]
    cfg = dataclasses.replace(args[0], snapshot_every=1)
    result = run_simulation(cfg, *args[1:], **kwargs)
    engine = ImexIntegrator(grid, model, cfg, b=kwargs["b"])
    assert sorted(result.snapshots) == list(range(steps + 1))
    for step, density in result.snapshots.items():
        rate, _ = engine.rate_field(density)
        total = (model.psi * rate * density.values).sum()
        J = total * grid.cell_volume / cfg.epsilon
        assert J.tobytes() == result.series.J[step].tobytes()


def test_run_two_bump_probe_reports_two_maxima():
    g = build_grid(2, 0.0, 1.0, 64)
    model = build_model({"family": "scenario3", "params": {"r_e": 1.0}}, 2)
    c = 0.25 * np.sqrt(2.0)
    u0 = [{"center": [c, 0.0], "weights": [2.4, 2.4]},
          {"center": [0.0, c], "weights": [2.4, 2.4]}]
    cfg = SimulationConfig(0.003, 0.001, 0)
    result = run_simulation(cfg, model, g, u0, probes=[0])
    assert len(result.probe_maxima[0]) == 2


def test_run_interaction_stays_below_cap():
    result, model, _ = _quick_run(steps=200)
    i_m = 0.5   # cap of the concave quadratic growth law
    assert result.series.I.max() <= i_m + 0.1


def test_run_determinism_bitwise():
    a, _, _ = _quick_run(steps=20)
    b, _, _ = _quick_run(steps=20)
    assert np.array_equal(a.series.I, b.series.I)
    assert np.array_equal(a.trajectory.points, b.trajectory.points)


def test_run_local_determinism_bitwise():
    """A 1D local run, through the once-built inverse and the per-axis
    competition matrix, repeats bit for bit in one process."""
    sc = load_bundled("local_logistic")
    grid = build_grid(1, 0.0, 1.0, 96)
    cfg = SimulationConfig(0.01, 0.002, 40, snapshot_every=20)
    runs = [run_simulation(cfg, sc.build_model(), grid, sc.u0, probes=[40],
                           constants=sc.build_constants()) for _ in range(2)]
    a, b = ([r.series.I, r.series.rho, r.series.J, r.series.boundary_mass,
             r.trajectory.points, r.trajectory.hessians, r.residuals,
             *(r.snapshots[k].values for k in (0, 20, 40))] for r in runs)
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
    assert runs[0].probe_maxima == runs[1].probe_maxima


def test_run_scan_determinism_bitwise():
    """A 512-node quadratic_concave run, through the log-depth scan and the
    rows it reuses, repeats bit for bit in one process, with another scan
    engine stepped in between."""
    sc = load_bundled("quadratic_concave")
    grid = sc.build_grid()
    assert pde.diffusion_solve(grid) == {"method": "tridiagonal"}
    cfg = dataclasses.replace(sc.build_config(), steps=20, snapshot_every=10)
    runs = []
    for _ in range(2):
        runs.append(run_simulation(cfg, sc.build_model(), grid, sc.u0,
                                   probes=[10, 20],
                                   constants=sc.build_constants()))
        other = _diffusion_engine(1, True, 600)
        _run_steps(other, SimulationState(0.0, init_density(
            other.grid, sc.u0, 0.01, 0.3), None), 3)
    a, b = ([r.series.I, r.series.rho, r.series.J, r.series.boundary_mass,
             r.trajectory.points, r.trajectory.hessians, r.residuals,
             *(r.snapshots[k].values for k in (0, 10, 20))] for r in runs)
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
    assert runs[0].probe_maxima == runs[1].probe_maxima


def test_run_global_2d_determinism_bitwise():
    """A 2D global run, through the warm-started CG in the engine's work
    rows, repeats bit for bit in one process, with another engine stepped
    in between."""
    sc = load_bundled("scenario2")
    grid = build_grid(2, 0.0, 1.0, 40)
    cfg = dataclasses.replace(sc.build_config(), steps=20, snapshot_every=10)
    runs = []
    for _ in range(2):
        runs.append(run_simulation(cfg, sc.build_model(), grid, sc.u0,
                                   probes=[10, 20],
                                   constants=sc.build_constants()))
        other = _diffusion_engine(2, True)
        _run_steps(other, SimulationState(0.0, init_density(
            other.grid, sc.u0, 0.01, 0.3), None), 3)
    a, b = ([r.series.I, r.series.rho, r.series.J, r.series.boundary_mass,
             r.trajectory.points, r.trajectory.hessians, r.residuals,
             *(r.snapshots[k].values for k in (0, 10, 20))] for r in runs)
    assert [x.tobytes() for x in a] == [x.tobytes() for x in b]
    assert runs[0].probe_maxima == runs[1].probe_maxima
    assert len(runs[0].regularity_reports) == 2


@pytest.mark.parametrize("name", ["quadratic_concave", "scenario2",
                                  "local_logistic"])
def test_step_given_the_rate_equals_one_that_computes_it(name):
    """`record()` hands its R to the next step.  A step given that R is
    byte-equal to one that evaluates it, over a few chained steps."""
    sc = load_bundled(name)
    grid = build_grid(2, 0.0, 1.0, 24) if name == "scenario2" \
        else sc.build_grid()
    cfg = sc.build_config()
    density = init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target)
    given, computed = (ImexIntegrator(grid, sc.build_model(), cfg)
                       for _ in range(2))
    a = b = SimulationState(0.0, density, None)
    for _ in range(3):
        rate, macro = given.rate_field(a.density, None)
        a = given.step(SimulationState(a.time, a.density, macro, rate))
        b = computed.step(b)
        assert a.density.values.tobytes() == b.density.values.tobytes()


@pytest.mark.parametrize("name,dimension", [("quadratic_concave", 1),
                                            ("scenario2", 2)])
def test_global_run_evaluates_rate_on_the_grid_once_per_step(monkeypatch,
                                                             name, dimension):
    """A global run evaluates the model's R over the grid once, at I = 0
    when the engine is built: every step's R is base + slope * I."""
    sc = load_bundled(name)
    model = sc.build_model()
    grid = build_grid(dimension, 0.0, 1.0, 32)
    calls = []
    rate = type(model).rate

    def counted(self, x, I):
        if np.shape(x)[:-1] == grid.shape:
            calls.append(I)
        return rate(self, x, I)

    monkeypatch.setattr(type(model), "rate", counted)
    cfg = dataclasses.replace(sc.build_config(), steps=12)
    run_simulation(cfg, model, grid, sc.u0)
    assert calls == [0.0]


@pytest.mark.parametrize("name", ["scenario1_isotropic", "quadratic_concave",
                                  "scenario2", "scenario3_circle"])
def test_engine_rate_is_the_global_growth_law_bitwise(name):
    """R = base + slope * I, built once, is bitwise `model.rate` on the
    nodes, at I = 0, at the run's initial I and away from both."""
    sc = load_bundled(name)
    model, grid, cfg = sc.build_model(), sc.build_grid(), sc.build_config()
    engine = ImexIntegrator(grid, model, cfg)
    density = init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target)
    nodes = grid.nodes()
    for macro in (0.0, engine.macro_of(density), 0.3, 1.7, 12.5):
        rate, used = engine.rate_field(density, macro)
        want = np.asarray(model.rate(nodes, macro), dtype=float)
        assert used == macro and rate.shape == grid.shape
        assert rate.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["local_logistic", "local_logistic_2d"])
def test_engine_rate_is_growth_minus_competition_bitwise(name):
    """With a Gaussian kernel the macro is the competition array C * n, and
    R is bitwise r(x) - (C * n)(x) on the nodes."""
    sc = load_bundled(name)
    model, grid, cfg = sc.build_model(), sc.build_grid(), sc.build_config()
    engine = ImexIntegrator(grid, model, cfg)
    conv = kernel_convolution(grid, model.kernel)
    r = np.asarray(model.intrinsic.value(grid.nodes()), dtype=float)
    rng = np.random.default_rng(53)
    for density in (init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target),
                    DensityField(grid, rng.random(grid.shape))):
        rate, macro = engine.rate_field(density)
        field = conv(density.values)
        assert type(macro) is np.ndarray and macro.shape == grid.shape
        assert macro.tobytes() == field.tobytes()
        assert rate.tobytes() == (r - field).tobytes()


def test_separable_kernel_couples_through_a_scalar():
    """A separable kernel C = phi(x) psi(y) couples like the global model:
    the macro is the float J = sum psi(y) n(y) vol, R is within 1e-13 of
    r(x) - sum_y C(x, y) n(y) vol, and it has no competition map."""
    rng = np.random.default_rng(59)
    for d, points in ((1, 48), (2, 12)):
        grid = build_grid(d, 0.0, 1.0, points)
        phi = {"c0": 2.0, "center": [0.3] * d, "weights": [0.5] * d}
        psi = {"c0": 1.5, "center": [0.7] * d, "weights": [0.25] * d}
        model = build_model({"family": "logistic_local",
                             "params": {"kernel": {"type": "separable",
                                                   "phi": phi,
                                                   "psi": psi}}}, d)
        engine = ImexIntegrator(grid, model, SimulationConfig(0.01, 0.01, 1))
        density = DensityField(grid, rng.random(grid.shape))
        rate, macro = engine.rate_field(density)

        nodes = grid.nodes().reshape(-1, d)
        n, vol = density.values.reshape(-1), grid.cell_volume
        kern = model.kernel
        assert type(macro) is float
        assert macro == float((kern.psi(nodes) * n).sum() * vol)
        direct = (np.asarray(model.intrinsic.value(nodes))
                  - np.array([sum(float(kern(x, y)) * nj
                                  for y, nj in zip(nodes, n)) * vol
                              for x in nodes]))
        assert np.max(np.abs(rate.reshape(-1) - direct)) <= 1e-13
        with pytest.raises(GridError, match="SeparableKernel"):
            kernel_convolution(grid, kern)


def test_local_step_validates_only_its_density(monkeypatch):
    """Each local step validates one field, the `DensityField` it returns:
    the competition field stays an array, so 10 more steps make 10 more
    field checks."""
    sc = load_bundled("local_logistic")
    checks = []
    check = ScalarField.__post_init__

    def counted(self):
        checks.append(type(self))
        return check(self)

    monkeypatch.setattr(ScalarField, "__post_init__", counted)
    counts = []
    for steps in (10, 20):
        checks.clear()
        cfg = dataclasses.replace(sc.build_config(), steps=steps)
        run_simulation(cfg, sc.build_model(), sc.build_grid(), sc.u0)
        counts.append(len(checks))
    assert counts[1] - counts[0] == 10


@pytest.mark.parametrize("name", ["quadratic_concave", "local_logistic"])
def test_run_steps_through_public_step_once_per_step(monkeypatch, name):
    """The benchmark's mass-drift gate wraps `ImexIntegrator.step` and calls
    `rate_field(state.density, state.macro)` before each call.  The run
    loop calls `step` once per step, on a state whose density and macro
    `rate_field` accepts and whose R is the one `rate_field` returns."""
    sc = load_bundled(name)
    grid = sc.build_grid()
    seen = []
    step = ImexIntegrator.step

    def hooked(self, state):
        rate, macro = self.rate_field(state.density, state.macro)
        seen.append(state.density.values.shape == grid.shape
                    and macro is state.macro
                    and rate.tobytes() == state.rate.tobytes())
        return step(self, state)

    monkeypatch.setattr(ImexIntegrator, "step", hooked)
    cfg = dataclasses.replace(sc.build_config(), steps=12)
    run_simulation(cfg, sc.build_model(), grid, sc.u0)
    assert seen == [True] * 12


def test_quadratic_concave_regularity_monitor_sees_concave_u():
    """With tails exact to round-off the monitor measures u itself: on the
    concave quadratic scenario the Hessian stays near -2 * weights = -1 and
    the third differences stay small at the later probes."""
    sc = load_bundled("quadratic_concave")
    result = run_simulation(sc.build_config(), sc.build_model(),
                            sc.build_grid(), sc.u0, probes=[200, 400],
                            constants=sc.build_constants())
    assert [r["step"] for r in result.regularity_reports] == [200, 400]
    for report in result.regularity_reports:
        hess = report["hessian"]
        assert -1.0 <= hess["eig_min"] <= hess["eig_max"] <= -0.75
        assert report["third_derivative_max"] < 1.0


def test_run_advisory_recorded_for_stiff_reaction():
    result, _, _ = _quick_run(steps=5, epsilon=0.002)
    assert any("dt*sup|R|" in msg for msg in result.advisories)


def test_run_boundary_mass_warning():
    g = build_grid(1, 0.0, 1.0, 64)
    cfg = SimulationConfig(0.05, 0.01, 0)
    result = run_simulation(cfg, zero_rate_model(1), g,
                            [{"center": [0.98], "weights": [1.0]}])
    assert any("boundary ring mass" in msg for msg in result.warnings)


def test_run_ring_mass_warning_precedes_its_steps_notes(monkeypatch):
    """Within one step the ring-mass check comes before that step's
    boundary notes, whichever row of a block the step is."""
    g = build_grid(1, 0.0, 1.0, 64)
    cfg = SimulationConfig(0.05, 0.01, 4)
    for rows in (1, 2, 5):
        monkeypatch.setattr(pde, "RECORD_BLOCK_BYTES", rows * 8 * 64)
        result = run_simulation(cfg, zero_rate_model(1), g,
                                [{"center": [0.995], "weights": [1.0]}])
        assert result.warnings[0].startswith("boundary ring mass ")
        assert result.warnings[0].endswith(
            " at step 0; box truncation is affecting the run")
        assert result.warnings[1:] == [
            f"step {k}: maximum at boundary node (63,); refinement skipped"
            for k in range(5)]


def _scenario1_isotropic_run():
    sc = load_bundled("scenario1_isotropic")
    return run_simulation(sc.build_config(), sc.build_model(),
                          sc.build_grid(), sc.u0, probes=sc.probes,
                          b=sc.build_diffusion())


SCENARIO1_FIRST_BOUNDARY_NODE = \
    "step 33: maximum at boundary node (0, 14); refinement skipped"


def test_run_warnings_pinned_on_scenario1_isotropic():
    """The run's warning list: one ring-mass warning, then one message per
    distinct boundary-node peak, in step order."""
    result = _scenario1_isotropic_run()
    boundary = [w for w in result.warnings if "at boundary node" in w]
    assert len(result.warnings) == 49 and len(boundary) == 48
    assert result.warnings[0].startswith("boundary ring mass 1.563e-08 ")
    assert boundary[0] == SCENARIO1_FIRST_BOUNDARY_NODE
    assert len(set(result.warnings)) == 49


def test_locate_max_wrapped_like_the_traced_bench(monkeypatch):
    """The run loop calls `pde.locate_max` by that name once per record
    block, and its boundary messages travel through the `notes` keyword: a
    wrapper that forwards args and kwargs, as the traced bench installs,
    sees every call and changes no warning."""
    calls = []
    target = pde.locate_max

    @functools.wraps(target)
    def counting(*args, **kwargs):
        calls.append(kwargs.get("notes"))
        return target(*args, **kwargs)

    monkeypatch.setattr(pde, "locate_max", counting)
    result = _scenario1_isotropic_run()
    rows = pde.RECORD_BLOCK_BYTES // (8 * 100 * 100)
    assert len(result.series.times) == 81 and rows > 1
    assert len(calls) == -(-81 // rows)
    assert all(isinstance(notes, list) for notes in calls)
    assert sum(len(notes) for notes in calls) >= 48
    assert result.warnings[1] == SCENARIO1_FIRST_BOUNDARY_NODE
    assert len(result.warnings) == 49


def _result_bytes(result):
    """Everything a run records, as bytes and reprs: equal exactly when
    every array is bitwise equal and every list and report is the same."""
    s, traj = result.series, result.trajectory
    arrays = [s.times, s.I, s.rho, s.J, s.boundary_mass, traj.points,
              traj.hessians, result.residuals]
    return ([a.tobytes() for a in arrays],
            [(k, v.values.tobytes()) for k, v in
             sorted(result.snapshots.items())],
            repr(result.regularity_reports), repr(result.probe_maxima),
            result.warnings, result.advisories)


def _scenario_run(name, steps=None, points=None, probes=None):
    """A bundled scenario's `run_simulation` arguments, optionally with
    another step count, grid resolution or probe list."""
    sc = load_bundled(name)
    cfg, grid = sc.build_config(), sc.build_grid()
    if steps is not None:
        cfg = dataclasses.replace(cfg, steps=steps)
    if points is not None:
        grid = build_grid(grid.dimension, grid.lower, grid.upper, points)
    return ((cfg, sc.build_model(), grid, sc.u0),
            dict(probes=sc.probes if probes is None else probes,
                 b=sc.build_diffusion(), constants=sc.build_constants()))


@pytest.mark.parametrize("name, steps, points, probes", [
    # probes 6 and 7 end and start a block of 7 rows, 200 ends one of 3
    ("quadratic_concave", None, None, [0, 6, 7, 200, 400]),
    ("local_logistic", 60, None, [0, 31, 60]),
    ("scenario2", None, 24, None),
    ("scenario3_circle", 40, 32, [0, 20, 40]),
    ("scenario1_isotropic", None, None, None),
    ("quadratic_concave", 0, None, [0]),
])
def test_run_results_do_not_depend_on_the_block_size(monkeypatch, name,
                                                     steps, points, probes):
    """Blocks of 1, 2, 3 and 7 rows and the default one record every series
    value, Hessian, warning, advisory, probe maximum, regularity report and
    snapshot bitwise alike, one locate_max call per block."""
    args, kwargs = _scenario_run(name, steps, points, probes)
    grid, count = args[2], args[0].steps + 1
    calls = []
    target = pde.locate_max

    def counting(*a, **kw):
        calls.append(1)
        return target(*a, **kw)

    monkeypatch.setattr(pde, "locate_max", counting)
    row_bytes = 8 * grid.num_nodes
    results = []
    for budget in [rows * row_bytes for rows in (1, 2, 3, 7)] + [
            pde.RECORD_BLOCK_BYTES]:
        monkeypatch.setattr(pde, "RECORD_BLOCK_BYTES", budget)
        rows = max(1, budget // row_bytes)
        calls.clear()
        results.append(_result_bytes(run_simulation(*args, **kwargs)))
        assert len(calls) == -(-count // rows)
    assert all(r == results[0] for r in results[1:])


def test_bench_interface_names():
    """The names the benchmark's set-up probe and its mass-drift gate call:
    renaming one would drop that check without notice."""
    sc = load_bundled("quadratic_concave")
    grid, model, cfg = sc.build_grid(), sc.build_model(), sc.build_config()
    engine = ImexIntegrator(grid, model, cfg, b=sc.build_diffusion())
    density = init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target)
    rate, macro = engine.rate_field(density, None)
    assert rate.shape == grid.shape and macro == engine.macro_of(density)
    new = engine.step(SimulationState(0.0, density, macro)).density
    assert new.values.shape == grid.shape
    assert (engine.config.dt, engine.config.epsilon) == (cfg.dt, cfg.epsilon)
    for name in ("locate_max", "to_wkb", "regularity_monitor",
                 "boundary_ring_mass"):
        assert callable(getattr(pde, name))


def test_series_csv_roundtrip(tmp_path):
    result, _, _ = _quick_run(steps=10)
    path = tmp_path / "series.csv"
    write_series_csv(result, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,I,rho,J,xbar_1,H_11,residual_R,boundary_mass"
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, result.series.times)
    assert np.array_equal(back.points, result.trajectory.points)
    assert np.array_equal(back.macro, result.series.I)
    assert np.array_equal(back.hessians, result.trajectory.hessians,
                          equal_nan=True)
    assert back.source == "pde"


def test_trajectory_csv_text_is_17g_per_value(tmp_path):
    """Each value is written as f"{v:.17g}" would write it: nan, inf, -0
    and 17 significant digits included, over more rows than one chunk."""
    rng = np.random.default_rng(5)
    rows = 600
    hess = rng.normal(size=(rows, 2, 2)) * 10.0 ** rng.uniform(-20, 20,
                                                                (rows, 1, 1))
    hess[:2] = [[[-0.0, np.inf], [np.inf, 1e-300]],
                [[np.nan, -np.inf], [-np.inf, 2.0 / 3.0]]]
    points = rng.uniform(-1.0, 1.0, (rows, 2))
    points[:2] = [[-0.0, 1e16], [0.1, np.nan]]
    macro = rng.uniform(0.0, 5.0, rows)
    macro[:2] = [0.0, 5e-324]
    residuals = rng.normal(size=rows)
    residuals[:2] = [-1.5e-17, 123456789.123456789]
    traj = ConcentrationTrajectory(np.arange(rows) * 0.1, points, macro,
                                   hess, source="pc%t")
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path, residuals=residuals)
    lines = path.read_text().splitlines()
    assert lines[0] == ("source,t,I,rho,J,xbar_1,xbar_2,H_11,H_12,H_22,"
                        "residual_R,boundary_mass")
    assert len(lines) == rows + 1
    for k, line in enumerate(lines[1:]):
        row = [traj.times[k], macro[k], macro[k], float("nan"), *points[k],
               hess[k, 0, 0], hess[k, 0, 1], hess[k, 1, 1], residuals[k],
               float("nan")]
        assert line == "pc%t," + ",".join(f"{v:.17g}" for v in row)
    assert lines[1] == ("pc%t,0,0,0,nan,-0,10000000000000000,-0,inf,1e-300,"
                        "-1.5e-17,nan")


def test_trajectory_csv_roundtrip_2d(tmp_path):
    """H_12 fills both off-diagonal entries of the rebuilt Hessians."""
    hess = np.array([[[-2.0, 0.25], [0.25, -3.0]],
                     [[-1.5, -0.5], [-0.5, -4.0]]])
    traj = ConcentrationTrajectory(np.array([0.0, 0.1]),
                                   np.array([[0.7, 0.2], [0.6, 0.3]]),
                                   np.array([0.3, 0.4]), hess,
                                   source="canonical_frozen")
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    for name in ("times", "points", "macro", "hessians"):
        assert np.array_equal(getattr(back, name), getattr(traj, name))
    assert back.source == "canonical_frozen"
