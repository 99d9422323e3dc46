"""Log transform, peak location/curvature, regularity monitors."""

import dataclasses
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest

from concentra import pde, wkb
from concentra.grid import DensityField, build_grid
from concentra.models import AssumptionConstants
from concentra.pde import SimulationConfig, init_density, run_simulation
from concentra.scenarios import load_bundled
from concentra.wkb import (DENSITY_FLOOR, WkbError, WkbField, from_wkb,
                           locate_max, regularity_monitor, to_wkb,
                           well_resolved_mask)

from conftest import traced_peak


def _grid2(n=50, lower=0.0, upper=1.0):
    return build_grid(2, lower, upper, n)


def _quad_u(grid, center, weights):
    nodes = grid.nodes()
    c = np.asarray(center, dtype=float)
    w = np.asarray(weights, dtype=float)
    return ((nodes - c) ** 2 * -w).sum(axis=-1)


# --- transforms -----------------------------------------------------------------

def test_to_wkb_unit_density_is_zero():
    g = _grid2()
    u = to_wkb(DensityField(g, np.ones(g.shape)), 0.01)
    assert np.max(np.abs(u.values)) == 0.0
    assert not u.floor_mask.any()


def test_to_wkb_exact_log_of_gaussian_bump():
    eps = 0.005
    g = _grid2()
    q = _quad_u(g, (0.5, 0.5), (1.0, 1.0))
    n = DensityField(g, np.exp(q / eps))
    u = to_wkb(n, eps)
    above = ~u.floor_mask
    assert np.max(np.abs(u.values[above] - q[above])) <= 1e-13


def test_to_wkb_zero_density_hits_floor():
    g = _grid2()
    eps = 0.01
    u = to_wkb(DensityField(g, np.zeros(g.shape)), eps)
    assert u.floor_mask.all()
    assert np.allclose(u.values, eps * np.log(DENSITY_FLOOR))


def test_to_wkb_rejects_nonpositive_epsilon():
    g = _grid2()
    with pytest.raises(WkbError):
        to_wkb(DensityField(g, np.ones(g.shape)), 0.0)


def test_from_wkb_zero_gives_unit_density():
    g = _grid2()
    n = from_wkb(WkbField(g, np.zeros(g.shape), 0.01))
    assert np.max(np.abs(n.values - 1.0)) == 0.0


def test_roundtrip_relative_error():
    rng = np.random.default_rng(47)
    g = _grid2()
    eps = 0.005
    u_vals = rng.uniform(-1.0, 0.0, size=g.shape)
    n = from_wkb(WkbField(g, u_vals, eps))
    back = to_wkb(n, eps)
    rel = np.abs(back.values - u_vals) / np.abs(u_vals).max()
    assert rel.max() <= 1e-13


def test_from_wkb_overflow_names_node():
    g = _grid2(16)
    u_vals = np.zeros(g.shape)
    u_vals[3, 4] = 10.0
    with pytest.raises(WkbError, match=r"\(3, 4\)"):
        from_wkb(WkbField(g, u_vals, 0.005))


def test_from_wkb_tiny_density_no_underflow():
    g = _grid2(16)
    n = from_wkb(WkbField(g, np.full(g.shape, -0.5), 0.005))
    assert np.all(n.values > 0)
    assert n.values[0, 0] == pytest.approx(np.exp(-100.0), rel=1e-14)


# --- peak location ----------------------------------------------------------------

def test_locate_max_recovers_offnode_center():
    g = _grid2(50)
    center = (0.5037, 0.4473)      # deliberately off-node
    u = WkbField(g, _quad_u(g, center, (2.0, 3.0)), 0.01)
    [(pt, val, _)] = locate_max(u)
    assert np.max(np.abs(pt - np.asarray(center))) <= 1e-10
    assert val == pytest.approx(0.0, abs=1e-10)


def test_locate_max_constant_shift_invariance():
    g = _grid2(50)
    u1 = WkbField(g, _quad_u(g, (0.41, 0.63), (1.0, 2.0)), 0.01)
    u2 = WkbField(g, u1.values + 3.25, 0.01)
    [(p1, v1, _)] = locate_max(u1)
    [(p2, v2, _)] = locate_max(u2)
    assert np.max(np.abs(p1 - p2)) <= 1e-12
    assert v2 - v1 == pytest.approx(3.25, abs=1e-12)


def test_locate_max_multi_reports_two_bumps():
    g = _grid2(60)
    a = _quad_u(g, (0.3, 0.3), (4.0, 4.0))
    b = _quad_u(g, (0.7, 0.7), (4.0, 4.0))
    u = WkbField(g, np.maximum(a, b), 0.01)
    peaks = locate_max(u, multi=True)
    assert len(peaks) == 2
    pts = sorted(tuple(np.round(p, 2)) for p, _, _ in peaks)
    assert pts == [(0.3, 0.3), (0.7, 0.7)]


def test_locate_max_multi_drops_deeply_dominated_bump():
    g = _grid2(60)
    eps = 0.01
    a = _quad_u(g, (0.3, 0.3), (4.0, 4.0))
    b = _quad_u(g, (0.7, 0.7), (4.0, 4.0)) - 2.0 * eps * np.log(1e6)
    u = WkbField(g, np.maximum(a, b), eps)
    peaks = locate_max(u, multi=True)
    assert len(peaks) == 1


def test_locate_max_multi_face_top_reported_once_2d():
    """local_logistic_2d's u0 has its top at x = 0.75, the face between
    nodes 47 and 48 of its 64 cells: both tie as local maxima and refine to
    one vertex, which is reported once, from the higher of the two."""
    sc = load_bundled("local_logistic_2d")
    cfg, grid = sc.build_config(), sc.build_grid()
    u = to_wkb(init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target),
               cfg.epsilon)
    local = wkb._local_maxima(u.values)
    assert np.flatnonzero(local[:, 19]).tolist() == [47, 48]
    assert u.values[47, 19] == u.values[48, 19]
    [(pt, value, _)] = locate_max(u, multi=True)
    assert pt == pytest.approx([0.75, 0.3], abs=1e-12)
    assert value == 0.026032391173736288


def test_locate_max_multi_face_top_reported_once_1d():
    """A bump centred at 0.5 on 256 nodes tops out on the face between
    nodes 127 and 128; one peak, at 0.5, in one field and in each row of a
    stack of two."""
    g = build_grid(1, 0.0, 1.0, 256)
    n = init_density(g, [{"center": [0.5], "weights": [1.0]}], 0.01, 1.0)
    u = to_wkb(n, 0.01)
    assert np.flatnonzero(wkb._local_maxima(u.values)).tolist() == [127, 128]
    [(pt, value, _)] = locate_max(u, multi=True)
    assert pt[0] == pytest.approx(0.5, abs=1e-12)
    stack = WkbField(g, np.stack([u.values, u.values + 1.0]), 0.01)
    peaks = locate_max(stack, multi=True)
    assert peaks.rows.tolist() == [0, 1]
    assert peaks.points[0].tobytes() == pt.tobytes()
    assert peaks.values[0] == value


def test_locate_max_copies_no_padded_record_block():
    """A run's record block pads its rows to 64-byte lines, so a 150^2
    block (22 500 = 8 * 2812 + 4 entries a row) is not one contiguous
    stack.  `locate_max` on two such rows allocates nothing of a row's
    size, where an argmax along the stack's axis copies the whole block,
    and its peaks are bitwise those of a contiguous copy and of each row
    alone, a tie going to the first node."""
    g = build_grid(2, 0.0, 1.0, 150)
    n = g.num_nodes
    block = pde._aligned_rows(2, n)[:, :n].reshape((2,) + g.shape)
    assert not block.flags.c_contiguous
    x, y = g.axis_coords(0)[:, None], g.axis_coords(1)[None, :]
    block[0] = -(x - 0.3011) ** 2 - 2.0 * (y - 0.6502) ** 2
    block[1] = -np.minimum((x - 0.25) ** 2, (x - 0.75) ** 2) - (y - 0.5) ** 2
    u = WkbField(g, block, 0.01)
    peaks, peak = traced_peak(locate_max, u)
    assert peak < 8 * n
    kept = locate_max(WkbField(g, np.ascontiguousarray(block), 0.01))
    for got, want in zip(peaks, kept):
        assert got.tobytes() == want.tobytes()
    assert peaks.rows.tolist() == [0, 1]
    for row in range(2):
        [(pt, value, hess)] = locate_max(WkbField(g, block[row], 0.01))
        assert peaks.points[row].tobytes() == pt.tobytes()
        assert peaks.values[row] == value
        assert peaks.hessians[row].tobytes() == hess.tobytes()
    assert peaks.points[1, 0] < 0.5

def test_locate_max_boundary_warns_and_returns_node():
    g = build_grid(1, 0.0, 1.0, 32)
    x = g.axis_coords(0)
    u = WkbField(g, x.copy(), 0.01)    # increasing: max at the last node
    with pytest.warns(RuntimeWarning, match="boundary"):
        [(pt, _, H)] = locate_max(u)
    assert pt[0] == x[-1]
    assert np.isnan(H).all()


def test_locate_max_quartic_center_improves_with_resolution():
    center = 0.5037
    errs = []
    for n in (64, 256):
        g = build_grid(1, 0.0, 1.0, n)
        x = g.axis_coords(0)
        u = WkbField(g, -(x - center) ** 4, 0.01)
        [(pt, _, _)] = locate_max(u)
        errs.append(abs(pt[0] - center))
        assert errs[-1] <= g.spacing[0]
    assert errs[1] < errs[0]


# --- curvature ---------------------------------------------------------------------

def _hessian(u):
    [(_, _, H)] = locate_max(u)
    return H


def test_hessian_exact_on_axis_aligned_quadratic():
    g = _grid2(50)
    u = WkbField(g, _quad_u(g, (0.5, 0.5), (1.0, 5.0)), 0.01)
    assert np.max(np.abs(_hessian(u) - np.diag([-2.0, -10.0]))) <= 1e-10


def test_hessian_exact_on_1d_quadratic():
    g = build_grid(1, 0.0, 1.0, 64)
    x = g.axis_coords(0)
    u = WkbField(g, -3.5 * (x - 0.4123) ** 2, 0.01)
    assert _hessian(u) == pytest.approx(np.array([[-7.0]]), abs=1e-9)


def test_hessian_initial_bump_coefficients():
    eps = 0.005
    g = _grid2(100)
    n = DensityField(g, np.exp(_quad_u(g, (0.7, 0.7), (1.0, 5.0)) / eps))
    H = _hessian(to_wkb(n, eps))
    assert np.max(np.abs(H - np.diag([-2.0, -10.0]))) <= 1e-8


def test_hessian_rotated_quadratic_cross_term():
    g = _grid2(50)
    theta = 0.4
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    A = R @ np.diag([-2.0, -8.0]) @ R.T
    nodes = g.nodes() - np.array([0.5, 0.5])
    u_vals = 0.5 * np.einsum("...i,ij,...j->...", nodes, A, nodes)
    H = _hessian(WkbField(g, u_vals, 0.01))
    assert np.max(np.abs(H - A)) <= 1e-8


def test_hessian_affine_invariance():
    g = _grid2(50)
    base = _quad_u(g, (0.5, 0.5), (1.0, 3.0))
    nodes = g.nodes()
    affine = 0.7 * nodes[..., 0] - 1.3 * nodes[..., 1] + 0.25
    H1 = _hessian(WkbField(g, base, 0.01))
    H2 = _hessian(WkbField(g, base + affine, 0.01))
    assert np.max(np.abs(H1 - H2)) <= 1e-10


def test_hessian_rejects_boundary_proximity():
    """Within two cells of the boundary the peak is still refined, but its
    Hessian is nan; on the boundary ring the peak stays at the node."""
    g = _grid2(50)
    h = g.spacing[0]
    x1 = g.axis_coords(0)[1]
    u = WkbField(g, _quad_u(g, (x1 + 0.2 * h, 0.5), (1.0, 1.0)), 0.01)
    [(pt, _, H)] = locate_max(u)
    assert pt[0] == pytest.approx(x1 + 0.2 * h, abs=1e-10)
    assert H.shape == (2, 2) and np.isnan(H).all()

    u = WkbField(g, _quad_u(g, (0.005, 0.5), (1.0, 1.0)), 0.01)
    with pytest.warns(RuntimeWarning, match="boundary"):
        [(pt, _, H)] = locate_max(u)
    assert pt[0] == g.axis_coords(0)[0]
    assert H.shape == (2, 2) and np.isnan(H).all()


def test_hessian_gaussian_density_1d():
    eps = 0.01
    g = build_grid(1, 0.0, 1.0, 200)
    x = g.axis_coords(0)
    n = DensityField(g, np.exp(-2.5 * (x - 0.617) ** 2 / eps))
    [(pt, _, H)] = locate_max(to_wkb(n, eps))
    assert pt[0] == pytest.approx(0.617, abs=1e-9)
    assert H == pytest.approx(np.array([[-5.0]]), abs=1e-7)


def test_hessian_on_face_vertex_is_the_refinement_node_fit():
    """Two nodes tie for the maximum, so the fitted vertex lies on the face
    between them, and the nearest node to it may be the other one.  The
    Hessian is the fit at the argmax node the vertex was refined from."""
    g = build_grid(1, 0.0, 1.0, 40)
    h = g.spacing[0]
    k0 = 17
    k = np.arange(40, dtype=float)
    vals = -((k - k0 - 0.5) * h) ** 2
    vals[k0 + 2:] *= 3.0         # differs from the mirror image past the tie
    assert vals[k0] == vals[k0 + 1]
    u = WkbField(g, vals, 0.01)
    [(pt, _, H)] = locate_max(u)
    assert pt[0] == pytest.approx(g.axis_coords(0)[k0] + 0.5 * h, abs=1e-12)
    assert H.tobytes() == _fit(vals, (k0,), g)[2].tobytes()
    assert H[0, 0] == pytest.approx(-2.0, abs=1e-9)
    other = _fit(vals, (k0 + 1,), g)[2]
    assert other[0, 0] == pytest.approx(-6.5, abs=1e-9)


def test_hessian_scenario1_step0_is_the_refinement_node_fit():
    """scenario1's initial bump is centred on a cell face: the nearest node
    to the peak is not the argmax node."""
    sc = load_bundled("scenario1_anisotropic")
    grid, cfg = sc.build_grid(), sc.build_config()
    u = to_wkb(init_density(grid, sc.u0, cfg.epsilon, cfg.mass_target),
               cfg.epsilon)
    idx = np.unravel_index(int(np.argmax(u.values)), grid.shape)
    [(pt, _, H)] = locate_max(u)
    nearest = tuple(int(np.argmin(np.abs(grid.axis_coords(j) - pt[j])))
                    for j in range(grid.dimension))
    assert nearest != tuple(int(i) for i in idx)
    assert H.tobytes() == _fit(u.values, idx, grid)[2].tobytes()


def test_fit_quadratic_runs_once_per_candidate(monkeypatch):
    """The stacked fit runs once per call of locate_max and takes each
    candidate once: in a run, once per record block, one candidate per
    recorded step."""
    calls = []
    fit = wkb._quadratic_fits

    def counting(flat, rows, centre, grid):
        calls.append(list(zip(rows.tolist(), centre.tolist())))
        return fit(flat, rows, centre, grid)

    monkeypatch.setattr(wkb, "_quadratic_fits", counting)
    g = _grid2(60)
    two = np.maximum(_quad_u(g, (0.3, 0.3), (4.0, 4.0)),
                     _quad_u(g, (0.7, 0.7), (4.0, 4.0)))
    assert len(locate_max(WkbField(g, two, 0.01), multi=True)) == 2
    assert len(calls) == 1 and len(set(calls[0])) == len(calls[0]) == 2

    sc = load_bundled("quadratic_concave")
    cfg = sc.build_config()
    cfg = SimulationConfig(cfg.epsilon, cfg.dt, 5)
    grid = sc.build_grid()
    for rows, blocks in ((6, [6]), (2, [2, 2, 2]), (4, [4, 2])):
        calls.clear()
        monkeypatch.setattr(pde, "RECORD_BLOCK_BYTES",
                            rows * 8 * grid.num_nodes)
        result = run_simulation(cfg, sc.build_model(), grid, sc.u0)
        assert len(result.series.times) == 6
        assert [[row for row, _ in c] for c in calls] == [
            list(range(n)) for n in blocks]


def _fit(values, idx, grid):
    """The stacked fit at node `idx` of one field, as a stack of one."""
    f0, g, h = wkb._quadratic_fits(
        values.reshape(1, -1), np.array([0]),
        np.array([np.ravel_multi_index(idx, values.shape)]), grid)
    return f0[0], g[0], h[0]


def _refine(u, idx):
    """The stacked refinement at node `idx` of one field."""
    points, values, hess, _ = wkb._refine_maxima(
        u.values.reshape(1, -1), np.array([0]),
        np.array([np.ravel_multi_index(idx, u.values.shape)]), u.grid)
    return points[0], float(values[0]), hess[0]


def test_stacked_2d_fit_is_each_windows_own_product():
    """The 2D fit of m windows in one stacked product gives each window
    bitwise the coefficients of its own `op @ w`, for m = 1 to 64 (a
    product of the windows as one matrix goes through gemm and does not,
    from two rows on)."""
    rng = np.random.default_rng(26)
    g = build_grid(2, (-1.0, 0.5), (0.7, 2.0), 20)
    op = wkb._fit_operator(*g.spacing)
    for m in range(1, 65):
        flat = rng.standard_normal((3, g.num_nodes)) * 10.0 ** rng.uniform(
            -3, 3, (3, 1))
        rows = rng.integers(0, 3, m)
        idx = rng.integers(1, 19, (m, 2))
        f0, grad, hess = wkb._quadratic_fits(
            flat, rows, np.ravel_multi_index(idx.T, g.shape), g)
        for j in range(m):
            (i0, i1), values = idx[j], flat[rows[j]].reshape(g.shape)
            c = op @ values[i0 - 1:i0 + 2, i1 - 1:i1 + 2].ravel()
            assert f0[j].tobytes() == c[0].tobytes()
            assert grad[j].tobytes() == c[1:3].tobytes()
            assert hess[j].tobytes() == np.array(
                [[2.0 * c[3], c[4]], [c[4], 2.0 * c[5]]]).tobytes()


def _exact_fit_operator(hx, hy):
    """The least-squares operator (A^T A)^{-1} A^T of the 3x3 fit's design
    A at spacing (hx, hy), in exact rationals of the float spacings."""
    hx, hy = Fraction(hx), Fraction(hy)
    design = [[Fraction(1), i * hx, j * hy, (i * hx) ** 2, i * j * hx * hy,
               (j * hy) ** 2] for i in (-1, 0, 1) for j in (-1, 0, 1)]
    # Gauss-Jordan on [A^T A | A^T]
    rows = [[sum(a[p] * a[q] for a in design) for q in range(6)]
            + [a[p] for a in design] for p in range(6)]
    for p in range(6):
        pivot = next(r for r in range(p, 6) if rows[r][p])
        rows[p], rows[pivot] = rows[pivot], rows[p]
        rows[p] = [v / rows[p][p] for v in rows[p]]
        for r in range(6):
            if r != p and rows[r][p]:
                rows[r] = [v - rows[r][p] * w
                           for v, w in zip(rows[r], rows[p])]
    return [row[6:] for row in rows], design


@pytest.mark.parametrize("spacing", [
    build_grid(2, 0.0, 1.0, 150).spacing,   # scenario2's grid
    build_grid(2, (-1.0, 0.5), (0.7, 2.0), 20).spacing])
def test_fit_operator_is_the_exact_least_squares_table(spacing):
    """Every entry of the fit operator is within 2 ulps of the exact
    least-squares operator of its design, exact zeros included: the worst
    entries measure 0.94 and 1.58 ulps at these spacings, 1.91 over 300
    random ones.  np.linalg.pinv, kept here only as a reference, agrees to
    round-off."""
    op = wkb._fit_operator(*spacing)
    exact, design = _exact_fit_operator(*spacing)
    assert op.shape == (6, 9) and not op.flags.writeable
    for p in range(6):
        for q in range(9):
            value = exact[p][q]
            ulp = np.spacing(abs(float(value))) if value else 0.0
            assert abs(Fraction(float(op[p, q])) - value) <= 2 * Fraction(ulp)
    pinv = np.linalg.pinv(np.array(design, dtype=float))
    assert np.abs(pinv - op).max() <= 1e-12 * np.abs(op).max()


def test_2d_run_calls_no_lapack(monkeypatch):
    """A 2D run builds its fit operator and everything else without LAPACK:
    every np.linalg routine but norm raises.  The operator cache is cleared
    first, so the run builds the operator under the patch."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg routine called during the run")

    for name in np.linalg.__all__:
        if name != "norm" and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    wkb._fit_operator.cache_clear()
    sc = load_bundled("scenario2")
    cfg = dataclasses.replace(sc.build_config(), steps=10)
    result = run_simulation(cfg, sc.build_model(), sc.build_grid(), sc.u0,
                            b=sc.build_diffusion())
    assert len(result.series.times) == 11


def _lapack_refine(grid, idx, fit):
    """The vertex as the per-candidate refinement once computed it, with a
    LAPACK solve and eigvalsh on the fit (f0, g, h) of the window at node
    `idx`: the reference the 1D float formula must match bitwise."""
    node = np.array([grid.axis_coords(j)[idx[j]]
                     for j in range(grid.dimension)])
    f0, g, h = fit
    hess = h if all(2 <= i < n - 2 for i, n in zip(idx, grid.shape)) \
        else np.full_like(h, np.nan)
    try:
        delta = np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        return node, f0, hess
    ev = np.linalg.eigvalsh(h)
    if ev.max() >= 0 or np.any(np.abs(delta) > np.asarray(grid.spacing)):
        return node, f0, hess
    value = f0 + g @ delta + 0.5 * delta @ h @ delta
    return node + delta, float(value), hess


def _peak_bytes(peak):
    point, value, hess = peak
    return (point.dtype, point.tobytes(), np.float64(value).tobytes(),
            hess.tobytes())


def _random_grids(rng, count, n=12):
    return [build_grid(1, lo, lo + 10.0 ** rng.uniform(-2, 1), n)
            for lo in rng.uniform(-2.0, 1.0, count)]


def _by_grid(grids, windows):
    """The (values, node) windows, window i on grid i mod len(grids),
    stacked per grid: (grid, values (m, n), nodes (m,), the fit of each
    window as a list of (f0, g, h)), from one stacked fit per grid."""
    for j, grid in enumerate(grids):
        mine = windows[j::len(grids)]
        vals = np.array([v for v, _ in mine])
        nodes = np.array([k for _, k in mine])
        fits = wkb._quadratic_fits(vals, np.arange(len(mine)), nodes, grid)
        yield grid, vals, nodes, list(zip(*fits))


def test_1d_vertex_bitwise_lapack_formula_through_locate_max():
    """10 000 random 3-point windows whose centre is the argmax, at every
    interior node (next to the edge the Hessian is nan), over value scales
    from 1e-3 to 1e3 and differences from 1e-14 to 10."""
    rng = np.random.default_rng(20261018)
    grids = _random_grids(rng, 8)
    n = grids[0].shape[0]
    windows = []
    while len(windows) < 10_000:
        f0 = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-3, 3)
        a, b = 10.0 ** rng.uniform(-14, 1, 2) * rng.uniform(0.0, 1.0, 2)
        if rng.uniform() < 0.05:
            b = 0.0                      # a tie after the argmax node
        fm, fp = f0 - a, f0 - b
        if not fm < f0:
            continue                     # the argmax would be the left node
        k = int(rng.integers(1, n - 1))
        vals = np.full(n, min(fm, fp) - 1.0 - abs(f0))
        vals[k - 1:k + 2] = (fm, f0, fp)
        windows.append((vals, k))
    nan_hessians = 0
    for grid, vals, nodes, fits in _by_grid(grids, windows):
        peaks = locate_max(WkbField(grid, vals, 0.01))
        assert peaks.rows.tolist() == list(range(len(nodes)))
        for j, k in enumerate(nodes.tolist()):
            peak = (peaks.points[j], peaks.values[j], peaks.hessians[j])
            assert (_peak_bytes(peak)
                    == _peak_bytes(_lapack_refine(grid, (k,), fits[j])))
            nan_hessians += bool(np.isnan(peak[2]).all())
    assert nan_hessians > 1000


def test_1d_vertex_bitwise_lapack_formula_on_any_window():
    """Windows no argmax yields: convex, exactly flat or linear (zero
    curvature), and vertices more than one cell away."""
    rng = np.random.default_rng(77)
    grids = _random_grids(rng, 4)
    n = grids[0].shape[0]
    windows = [(0.5, 1.0, 1.5), (2.0, 2.0, 2.0), (-0.25, -0.25, -0.25),
               (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-3.0, 0.0, 2.99)]
    for _ in range(5000):
        scale = 10.0 ** rng.uniform(-3, 3)
        windows.append(tuple(rng.uniform(-1.0, 1.0, 3) * scale))
    placed = []
    for window in windows:
        k = int(rng.integers(1, n - 1))
        vals = np.zeros(n)
        vals[k - 1:k + 2] = window
        placed.append((vals, k))
    kinds = {"convex": 0, "flat": 0, "far": 0, "moved": 0}
    for g, vals, nodes, fits in _by_grid(grids, placed):
        points, values, hessians, _ = wkb._refine_maxima(
            vals, np.arange(len(nodes)), nodes, g)
        for j, k in enumerate(nodes.tolist()):
            peak = (points[j], float(values[j]), hessians[j])
            assert (_peak_bytes(peak)
                    == _peak_bytes(_lapack_refine(g, (k,), fits[j])))
            _, grad, hess = fits[j]
            if hess[0, 0] > 0:
                kinds["convex"] += 1
            elif hess[0, 0] == 0:
                kinds["flat"] += 1
            elif abs(grad[0] / hess[0, 0]) > g.spacing[0]:
                kinds["far"] += 1
            else:
                kinds["moved"] += 1
    assert min(kinds.values()) >= 3, kinds


def _lstsq_refine_2d(u, idx):
    """The 2D vertex as the per-candidate refinement once computed it:
    `lstsq` on the 9x6 design, a LAPACK solve, and eigvalsh for
    definiteness."""
    grid, (hx, hy) = u.grid, u.grid.spacing
    X, Y = np.meshgrid([-hx, 0.0, hx], [-hy, 0.0, hy], indexing="ij")
    design = np.column_stack([np.ones(9), X.ravel(), Y.ravel(),
                              X.ravel() ** 2, (X * Y).ravel(), Y.ravel() ** 2])
    window = u.values[idx[0] - 1:idx[0] + 2, idx[1] - 1:idx[1] + 2]
    c0, c1, c2, c3, c4, c5 = np.linalg.lstsq(design, window.ravel(),
                                             rcond=None)[0]
    g, h = np.array([c1, c2]), np.array([[2.0 * c3, c4], [c4, 2.0 * c5]])
    node = np.array([grid.axis_coords(j)[idx[j]] for j in range(2)])
    delta = np.linalg.solve(h, -g)
    if (np.linalg.eigvalsh(h).max() >= 0
            or np.any(np.abs(delta) > np.asarray(grid.spacing))):
        return node, float(c0), h
    return node + delta, float(c0 + g @ delta + 0.5 * delta @ h @ delta), h


def test_2d_vertex_meets_lstsq_formula():
    """3000 quadratic windows with random curvature (negative definite,
    indefinite or convex) and vertices up to 1.5 cells off the node: the
    cached pseudo-inverse and the closed-form vertex keep lstsq's choice of
    node or vertex.  The point agrees within 256 units of the vertex's
    conditioning, eps |window| / (|smallest eigenvalue| h), the value
    within 1e-11 and the Hessian within 1e-10 of its largest eigenvalue;
    the largest gaps measured were 68 units, 3.0e-12 and 7.5e-12."""
    rng = np.random.default_rng(78)
    kinds = {"kept": 0, "moved": 0}
    for i in range(3000):
        g = build_grid(2, rng.uniform(-1.0, 0.0, 2),
                       rng.uniform(0.5, 2.0, 2), int(rng.integers(8, 40)))
        hx, hy = g.spacing
        k = tuple(int(j) for j in rng.integers(2, np.array(g.shape) - 2))
        m = rng.standard_normal((2, 2))
        hess = -(m @ m.T) * 10.0 ** rng.uniform(0, 3)
        if i % 5 == 0:
            hess += np.diag(rng.uniform(0.0, 2.0, 2) * np.abs(hess).max())
        node = np.array([g.axis_coords(j)[k[j]] for j in range(2)])
        vertex = node + rng.uniform(-1.5, 1.5, 2) * (hx, hy)
        d = g.nodes() - vertex
        vals = 0.5 * np.einsum("...i,ij,...j->...", d, hess, d) + 3.0
        u = WkbField(g, vals, 0.01)
        ref = _lstsq_refine_2d(u, k)
        ev = np.linalg.eigvalsh(ref[2])
        edge = np.abs(np.abs(vertex - node) / (hx, hy) - 1.0).min()
        if abs(ev.max()) < 1e-9 * abs(ev).max() or edge < 1e-9:
            continue   # a tie lstsq's round-off may break either way
        point, value, h = _refine(u, k)
        kinds["moved" if (point != node).any() else "kept"] += 1
        assert (point == node).all() == (ref[0] == node).all()
        window = np.abs(vals[k[0] - 1:k[0] + 2, k[1] - 1:k[1] + 2]).max()
        unit = (np.finfo(float).eps * window
                / (np.abs(ev).min() * min(hx, hy)))
        assert np.all(np.abs(point - ref[0]) <= 256 * unit)
        assert abs(value - ref[1]) <= 1e-11 * max(1.0, abs(ref[1]))
        assert np.all(np.abs(h - ref[2]) <= 1e-10 * np.abs(ev).max())
    assert min(kinds.values()) >= 300, kinds


def test_1d_flat_top_through_locate_max_keeps_the_node():
    """Three tied maxima: the middle one has exactly zero curvature and
    stays at its node, as a singular 1x1 solve left it."""
    g = build_grid(1, 0.0, 1.0, 16)
    vals = np.full(16, -1.0)
    vals[6:9] = 0.5
    u = WkbField(g, vals, 0.01)
    got = sorted(_peak_bytes(p) for p in locate_max(u, multi=True))
    assert got == sorted(_peak_bytes(_lapack_refine(g, (k,),
                                                    _fit(vals, (k,), g)))
                         for k in (6, 7, 8))
    middle = _refine(u, (7,))
    assert middle[0][0] == g.axis_coords(0)[7] and middle[1] == 0.5


def test_locate_max_boundary_message_goes_to_notes():
    """With a notes list the boundary message is appended to it and no
    warning is raised."""
    g = build_grid(2, 0.0, 1.0, 20)
    vals = _quad_u(g, (0.5, 0.5), (1.0, 1.0))
    vals[0, 14] = 1.0
    notes = ["earlier"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        [(pt, _, H)] = locate_max(WkbField(g, vals, 0.01), notes=notes)
    assert notes == ["earlier",
                     "maximum at boundary node (0, 14); refinement skipped"]
    assert pt.tobytes() == np.array([g.axis_coords(0)[0],
                                     g.axis_coords(1)[14]]).tobytes()
    assert np.isnan(H).all()


def _roll_local_maxima(vals):
    """The np.roll form of the multi-peak mask that _local_maxima replaced:
    the reference it must agree with."""
    local = np.ones(vals.shape, dtype=bool)
    for ax in range(vals.ndim):
        up = np.roll(vals, -1, axis=ax)
        dn = np.roll(vals, 1, axis=ax)
        edge_hi = [slice(None)] * vals.ndim
        edge_hi[ax] = slice(-1, None)
        edge_lo = [slice(None)] * vals.ndim
        edge_lo[ax] = slice(0, 1)
        up[tuple(edge_hi)] = -np.inf
        dn[tuple(edge_lo)] = -np.inf
        local &= (vals >= up) & (vals >= dn)
    if vals.ndim == 2:
        for sx in (-1, 1):
            for sy in (-1, 1):
                diag = np.roll(np.roll(vals, sx, axis=0), sy, axis=1)
                edge = [slice(None)] * 2
                edge[0] = slice(0, 1) if sx == 1 else slice(-1, None)
                diag[tuple(edge)] = -np.inf
                edge = [slice(None)] * 2
                edge[1] = slice(0, 1) if sy == 1 else slice(-1, None)
                diag[tuple(edge)] = -np.inf
                local &= vals >= diag
    return local


def test_local_maxima_matches_roll_reference():
    rng = np.random.default_rng(7)
    for trial in range(600):
        shape = ((int(rng.integers(1, 12)),) if trial % 2 else
                 tuple(int(n) for n in rng.integers(1, 9, size=2)))
        # few distinct levels, so ties (plateaus) are common
        levels = int(rng.integers(1, 4)) if trial % 3 else 1000
        vals = rng.integers(0, levels, size=shape).astype(float)
        assert np.array_equal(wkb._local_maxima(vals),
                              _roll_local_maxima(vals)), vals
        # a stack of such fields, each row compared with no other row
        rows = int(rng.integers(1, 4))
        stack = rng.integers(0, levels, size=(rows,) + shape).astype(float)
        local = wkb._local_maxima(stack, len(shape))
        assert local.shape == stack.shape
        for row, mask in zip(stack, local):
            assert np.array_equal(mask, _roll_local_maxima(row)), stack


def test_local_maxima_allocates_less_than_its_block():
    """The multi-peak mask of a (6, 100, 100) record block compares slices
    of the block itself and pads no copy of it: its traced peak stays below
    the block's bytes."""
    vals = np.random.default_rng(3).standard_normal((6, 100, 100))
    local, peak = traced_peak(wkb._local_maxima, vals, 2)
    assert local.shape == vals.shape
    assert peak < vals.nbytes


# --- regularity monitors --------------------------------------------------------------

def test_regularity_exact_quadratic_passes():
    L = 1.5
    g = build_grid(2, -1.0, 1.0, 60)
    nodes = g.nodes()
    u = WkbField(g, -L * (nodes ** 2).sum(axis=-1), 1.0)
    c = AssumptionConstants(L_bar_0=1e-9, L_bar_1=L, L_under_0=1e-9,
                            L_under_1=L, K_bar_0=1.0, C_grad_u=2.0 * L)
    rep = regularity_monitor(u, c, time=0.0)
    assert rep["envelope"]["passed"]
    assert abs(rep["envelope"]["margin"]) <= 1e-9
    assert rep["hessian"]["passed"]
    assert rep["hessian"]["eig_min"] == pytest.approx(-2 * L, abs=1e-9)
    assert rep["hessian"]["eig_max"] == pytest.approx(-2 * L, abs=1e-9)
    assert rep["third_derivative_max"] <= 1e-7
    assert rep["gradient_growth"]["passed"]


def test_regularity_quartic_fails_hessian_near_origin():
    g = build_grid(1, -1.0, 1.0, 100)
    x = g.axis_coords(0)
    u = WkbField(g, -x ** 4, 1.0)
    c = AssumptionConstants(L_bar_1=1.0, L_under_1=100.0)
    rep = regularity_monitor(u, c)
    # D2u = -12 x^2 -> 0 near the origin, above the -2 L_bar_1 ceiling
    assert rep["hessian"]["passed"] is False
    assert rep["hessian"]["eig_max"] > -2.0


def test_regularity_linear_gradient_constant():
    g = build_grid(1, 0.0, 1.0, 80)
    x = g.axis_coords(0)
    slope = 0.8
    u = WkbField(g, slope * x, 1.0)
    c = AssumptionConstants(C_grad_u=slope)
    rep = regularity_monitor(u, c)
    assert rep["gradient_growth"]["measured_constant"] <= slope + 1e-10
    assert rep["gradient_growth"]["passed"]


def _symmetric_2x2_sets(rng):
    """(a, b, c) of 1600 random symmetric [[a, b], [b, c]]: 1000 with
    signed entries from 1e-8 to 1e4, then 200 each with a = c and b = 0,
    with |b| >> |a - c| (a and c 1e-12 apart), and with a = c."""
    def entries(k):
        return rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-8, 4, k)
    same, near = entries(200), entries(200)
    apart = near * (1 + 1e-12 * rng.standard_normal(200))
    a = np.concatenate([entries(1000), same, near, same])
    c = np.concatenate([entries(1000), same, apart, same])
    b = np.concatenate([entries(1000), np.zeros(200),
                        near * 10.0 ** rng.uniform(-6, 2, 200), entries(200)])
    return a, b, c


def test_eigenvalues_2x2_closed_form_meets_eigvalsh():
    """The monitor's closed form against LAPACK's eigvalsh, matrix by
    matrix: both eigenvalues within 4 ulps of the larger |eigenvalue|."""
    a, b, c = _symmetric_2x2_sets(np.random.default_rng(71))
    lower, upper = wkb._eigenvalues_2x2(a, b, c)
    ref = np.linalg.eigvalsh(np.stack([np.stack([a, b], -1),
                                       np.stack([b, c], -1)], -2))
    ulp = np.spacing(np.abs(ref).max(axis=-1))
    assert np.all(np.abs(lower - ref[:, 0]) <= 4 * ulp)
    assert np.all(np.abs(upper - ref[:, 1]) <= 4 * ulp)
    tie = slice(1000, 1200)     # a = c, b = 0: both eigenvalues are a
    assert np.array_equal(lower[tie], a[tie])
    assert np.array_equal(upper[tie], a[tie])


def _eigvalsh_bracket(values, spacing, mask):
    """The reference bracket: the (nodes, d, d) stack of second and mixed
    differences on the interior, through eigvalsh."""
    d = values.ndim
    inner = (slice(1, -1),) * d
    hess = np.empty(values[inner].shape + (d, d))
    for ax in range(d):
        plus, minus = list(inner), list(inner)
        plus[ax], minus[ax] = slice(2, None), slice(0, -2)
        hess[..., ax, ax] = (values[tuple(plus)] - 2 * values[inner]
                             + values[tuple(minus)]) / spacing[ax] ** 2
    if d == 2:
        mixed = (values[2:, 2:] - values[2:, :-2] - values[:-2, 2:]
                 + values[:-2, :-2]) / (4.0 * spacing[0] * spacing[1])
        hess[..., 0, 1] = hess[..., 1, 0] = mixed
    ev = np.linalg.eigvalsh(hess[mask[inner]])
    return ev.min(), ev.max()


@pytest.mark.parametrize("dimension", [1, 2])
def test_regularity_hessian_bracket_meets_eigvalsh(dimension):
    """On a rough concave u with part of the grid under the well-resolved
    cut, the monitor's bracket meets the eigvalsh of the Hessian stack:
    bitwise in 1D, within 4 ulps of the larger |eigenvalue| in 2D."""
    rng = np.random.default_rng(73)
    g = build_grid(dimension, -1.0, 1.0, [41, 37][:dimension])
    nodes = g.nodes()
    u = WkbField(g, -(nodes ** 2).sum(axis=-1)
                 + 1e-3 * rng.standard_normal(g.shape), 0.01)
    mask = well_resolved_mask(u)
    assert 0 < mask.sum() < mask.size
    rep = regularity_monitor(u, AssumptionConstants())
    lo, hi = _eigvalsh_bracket(u.values, g.spacing, mask)
    if dimension == 1:
        assert (rep["hessian"]["eig_min"], rep["hessian"]["eig_max"]) \
            == (lo, hi)
    else:
        ulp = np.spacing(max(abs(lo), abs(hi)))
        assert abs(rep["hessian"]["eig_min"] - lo) <= 4 * ulp
        assert abs(rep["hessian"]["eig_max"] - hi) <= 4 * ulp


@pytest.mark.parametrize("dimension", [1, 2])
def test_third_difference_max_matches_node_loop(dimension):
    """The largest directional third difference over a random mask, node
    by node against a loop over the masked nodes whose 4-point stencil
    stays on the grid."""
    rng = np.random.default_rng(79)
    g = build_grid(dimension, 0.0, 1.0, [13, 11][:dimension])
    values = rng.standard_normal(g.shape)
    mask = rng.random(g.shape) < 0.2
    dirs = [(1,)] if dimension == 1 else [(1, 0), (0, 1), (1, 1), (1, -1)]
    worst = 0.0
    for node in zip(*np.nonzero(mask)):
        for direction in dirs:
            stencil = [tuple(i + k * s for i, s in zip(node, direction))
                       for k in (-1, 0, 1, 2)]
            if all(0 <= i < n for p in stencil for i, n in zip(p, g.shape)):
                fm, f0, f1, f2 = (values[p] for p in stencil)
                step = g.spacing[0] if dimension == 1 else np.hypot(
                    *(s * h for s, h in zip(direction, g.spacing)))
                worst = max(worst, abs(f2 - 3 * f1 + 3 * f0 - fm) / step ** 3)
    assert wkb._third_difference_max(values, g.spacing, mask) == worst


def test_well_resolved_mask_thresholds_at_forty_epsilon():
    g = build_grid(1, 0.0, 1.0, 64)
    eps = 0.01
    vals = np.linspace(-1.0, 0.0, 64)
    u = WkbField(g, vals, eps)
    mask = well_resolved_mask(u)
    assert np.array_equal(mask, vals >= -40 * eps)


def _at_offsets(values, offsets):
    """Views of `values` at each node offset in `offsets` (one int per
    axis), all over the core of nodes from which every offset stays on the
    grid: entry i of the view for offset o is values[i + o]."""
    lo = [max(0, -min(o[ax] for o in offsets)) for ax in range(values.ndim)]
    hi = [n - max(0, max(o[ax] for o in offsets))
          for ax, n in enumerate(values.shape)]
    return [values[tuple(slice(l + k, h + k) for l, h, k in zip(lo, hi, o))]
            for o in offsets]


def _reference_monitor(u, c, time):
    """The monitor's readings from whole-grid expressions, a new array per
    operation: the formulas that the monitor, in two scratch rows, must
    match bitwise."""
    grid, v, h = u.grid, u.values, u.grid.spacing
    mask = (~u.floor_mask) & (v >= v.max() - wkb.WELL_RESOLVED_DROP
                              * u.epsilon)
    x2 = [grid.axis_coords(ax) ** 2 for ax in range(grid.dimension)]
    norms2 = x2[0] if grid.dimension == 1 else np.add.outer(*x2)
    out = {"fraction": float(mask.mean())}
    if c.L_bar_0 is not None:
        slack = (c.K_bar_0
                 + 2.0 * grid.dimension * u.epsilon * c.L_bar_1) * time
        upper = c.L_bar_0 - c.L_bar_1 * norms2 + slack
        lower = -c.L_under_0 - c.L_under_1 * norms2 - slack
        out["margin"] = float(np.minimum(upper - v, v - lower)[mask].min())
    inner = (slice(1, -1),) * grid.dimension
    interior = np.zeros_like(mask)
    interior[inner] = mask[inner]
    m = interior[inner]
    second = []
    for ax in range(grid.dimension):
        plus, minus = list(inner), list(inner)
        plus[ax], minus[ax] = slice(2, None), slice(0, -2)
        second.append(((v[tuple(plus)] - 2 * v[inner] + v[tuple(minus)])
                       / h[ax] ** 2)[m])
    if grid.dimension == 1:
        lower, upper = second[0], second[0]
    else:
        b = ((v[2:, 2:] - v[2:, :-2] - v[:-2, 2:] + v[:-2, :-2])
             / (4.0 * h[0] * h[1]))[m]
        a, cc = second
        mean, radius = (a + cc) / 2, np.hypot((a - cc) / 2, b)
        lower, upper = mean - radius, mean + radius
    out["eig"] = (float(lower.min()), float(upper.max()))
    worst = None
    dirs = ([(1,)] if grid.dimension == 1
            else [(1, 0), (0, 1), (1, 1), (1, -1)])
    for direction in dirs:
        step = (h[0] if grid.dimension == 1 else
                np.hypot(*(s * hh for s, hh in zip(direction, h))))
        views = _at_offsets(v, [tuple(k * s for s in direction)
                                for k in (-1, 0, 1, 2)])
        fm, f0, f1, f2 = views
        sel = _at_offsets(interior, [tuple(k * s for s in direction)
                                     for k in (-1, 0, 1, 2)])[1]
        if sel.any():
            third = float((np.abs(f2 - 3 * f1 + 3 * f0 - fm)
                           / step ** 3)[sel].max())
            worst = third if worst is None else max(worst, third)
    out["third"] = worst
    grads = np.gradient(v, *h)
    gn = np.abs(grads) if grid.dimension == 1 else np.hypot(*grads)
    out["grad"] = float((gn / (1.0 + np.sqrt(norms2)))[mask].max())
    return out


def _monitor_readings(rep):
    out = {"fraction": rep["well_resolved_fraction"],
           "eig": (rep["hessian"]["eig_min"], rep["hessian"]["eig_max"]),
           "third": rep["third_derivative_max"],
           "grad": rep["gradient_growth"]["measured_constant"]}
    if rep["envelope"] is not None:
        out["margin"] = rep["envelope"]["margin"]
    return out


_FULL_CONSTANTS = AssumptionConstants(L_bar_0=0.2, L_bar_1=0.4,
                                      L_under_0=0.3, L_under_1=3.0,
                                      K_bar_0=0.7, C_grad_u=4.0)


@pytest.mark.parametrize("constants", [
    AssumptionConstants(), AssumptionConstants(L_bar_1=0.4, L_under_1=3.0),
    _FULL_CONSTANTS])
@pytest.mark.parametrize("dimension, points", [
    (1, [61]), (1, [16]), (2, [41, 37]), (2, [9, 12]), (2, [64, 64])])
def test_regularity_monitor_is_bitwise_its_whole_grid_formulas(
        dimension, points, constants):
    """Every reading of the monitor is bitwise the reference's whole-grid
    expressions, on rough concave fields whose well-resolved mask has holes
    (floor-clipped nodes inside the peak region) and a ragged edge, with
    and without the envelope's constants."""
    rng = np.random.default_rng(sum(points) + dimension)
    g = build_grid(dimension, -1.0, 1.0, points)
    eps = 0.02
    u0 = -(0.6 * g.nodes() ** 2).sum(axis=-1) \
        + 3e-3 * rng.standard_normal(g.shape)
    n = np.exp(u0 / eps)
    n[rng.random(g.shape) < 0.1] = 0.0      # floor-clipped holes
    u = to_wkb(DensityField(g, n), eps)
    mask = well_resolved_mask(u)
    assert u.floor_mask.any() and 0 < mask.sum() < mask.size
    for time in (0.0, 1.3):
        rep = regularity_monitor(u, constants, time=time)
        got, ref = _monitor_readings(rep), _reference_monitor(u, constants,
                                                              time)
        assert got == ref
        assert (rep["envelope"] is None) == (constants.L_bar_0 is None)


def test_third_difference_is_null_when_no_node_has_a_stencil():
    """On 16 nodes with only node 14 well resolved, the Hessian is read
    from its 3-point stencil, but no direction has a 4-point one there:
    the third difference is None (JSON null), not a measured 0.0."""
    g = build_grid(1, 0.0, 1.0, 16)
    x = g.axis_coords(0)
    u = WkbField(g, -50.0 * (x - x[14]) ** 2, 1e-4)
    assert np.flatnonzero(well_resolved_mask(u)).tolist() == [14]
    rep = regularity_monitor(u, AssumptionConstants())
    assert rep["hessian"]["eig_min"] == pytest.approx(-100.0, rel=1e-9)
    assert rep["third_derivative_max"] is None
    assert json.loads(json.dumps(rep))["third_derivative_max"] is None


def test_regularity_monitor_allocates_under_five_grid_vectors():
    """On a fully resolved 150x150 field, with every constant set, the
    monitor allocates less than five grid vectors above the memory live at
    the call: two scratch rows and the masks, no stack of temporaries."""
    g = build_grid(2, -1.0, 1.0, 150)
    u = WkbField(g, -0.01 * (g.nodes() ** 2).sum(axis=-1), 0.01)
    assert well_resolved_mask(u).all()
    rep, peak = traced_peak(regularity_monitor, u, _FULL_CONSTANTS, 0.5)
    assert rep["hessian"] is not None and rep["envelope"] is not None
    assert peak < 5 * 8 * g.num_nodes


def test_regularity_monitor_reads_no_strided_view():
    """The monitor's differences run over flat rows, which numpy runs with
    no ufunc buffers: on a fully resolved 150x150 field, with every
    constant set, one call allocates at most 2.3 grid vectors above the
    memory live at the call, its two scratch rows and the mask."""
    g = build_grid(2, -1.0, 1.0, 150)
    u = WkbField(g, -0.01 * (g.nodes() ** 2).sum(axis=-1), 0.01)
    assert well_resolved_mask(u).all()
    rep, peak = traced_peak(regularity_monitor, u, _FULL_CONSTANTS, 0.5)
    assert rep["hessian"] is not None and rep["envelope"] is not None
    assert rep["third_derivative_max"] is not None
    assert peak <= 2.3 * 8 * g.num_nodes


@pytest.mark.parametrize("dimension, points", [(1, [17]), (2, [13, 11]),
                                               (2, [8, 8]), (2, [8, 21])])
def test_hessian_bracket_leaves_out_the_outer_ring(dimension, points):
    """A mask that holds outer-ring nodes, whose Hessian stencil leaves the
    grid (in 2D, in the flat row, wraps into the line beside), gives the
    bracket of the same mask off the ring, bitwise."""
    rng = np.random.default_rng(83)
    g = build_grid(dimension, 0.0, 1.0, points)
    values = rng.standard_normal(g.shape)
    rows = np.empty((2, g.num_nodes))
    for _ in range(20):
        mask = rng.random(g.shape) < 0.5
        inner = (slice(1, -1),) * dimension
        off_ring = np.zeros_like(mask)
        off_ring[inner] = mask[inner]
        assert (wkb._hessian_bracket(values, g.spacing, mask, rows)
                == wkb._hessian_bracket(values, g.spacing, off_ring, rows))
