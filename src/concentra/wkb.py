"""Log transform u = eps ln(n), peak location/curvature, regularity monitors.

The density concentrates like exp(u/eps); u stays order one, so the Dirac
location is read off as the maximum of u and the mutation matrix as its
Hessian there.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import (RING_CELLS, DensityField, FieldStack, GridError,
                   ScalarField, TraitGrid)

DENSITY_FLOOR = 1e-280   # keeps u finite; far below any meaningful density
EXP_LIMIT = 700.0        # exp overflow threshold for u/eps
WELL_RESOLVED_DROP = 40.0  # nodes with u >= max - 40 eps enter statistics
MULTI_MAX_DROP_FACTOR = 1e6  # secondary maxima must exceed max - eps ln(1e6)


class WkbError(ValueError):
    """Invalid transform input or out-of-range request."""


@dataclass
class WkbField:
    """u = eps ln n on a grid; `floor_mask` flags nodes clipped at the
    density floor (excluded from regularity statistics).  `values` has the
    grid's shape, or (k, *grid.shape) for a stack of k transforms."""

    grid: TraitGrid
    values: np.ndarray
    epsilon: float
    floor_mask: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape[-self.grid.dimension:] != self.grid.shape:
            self.values = self.values.reshape(self.grid.shape)
        if self.epsilon <= 0:
            raise WkbError(f"epsilon must be positive, got {self.epsilon}")
        if self.floor_mask is None:
            self.floor_mask = np.zeros(self.values.shape, dtype=bool)


def to_wkb(density: DensityField | FieldStack, epsilon: float,
           out: np.ndarray = None) -> WkbField:
    """u = eps * ln(max(n, floor)); floor-clipped nodes are flagged.  A
    `grid.FieldStack` gives the stack of its rows' transforms.  u is
    written into `out` when given, which may be the density's own values."""
    n = density.values
    # one row per field: numpy runs each as one loop, where a strided stack
    # of 2D fields would run line by line
    flat = n.reshape(-1, density.grid.num_nodes)
    mask = flat < DENSITY_FLOOR
    u = np.maximum(flat, DENSITY_FLOOR,
                   out=None if out is None else out.reshape(flat.shape))
    np.log(u, out=u)
    u *= epsilon
    return WkbField(density.grid, u.reshape(n.shape), epsilon,
                    mask.reshape(n.shape))


def from_wkb(u: WkbField) -> DensityField:
    """n = exp(u/eps); exact inverse of to_wkb above the floor."""
    arg = u.values / u.epsilon
    if np.any(arg > EXP_LIMIT):
        k = tuple(int(i) for i in
                  np.unravel_index(int(np.argmax(arg)), u.values.shape))
        raise WkbError(f"u/eps = {arg[k]:.3g} overflows exp at node {k}")
    return DensityField(u.grid, np.exp(arg))


# --- peak location and curvature -------------------------------------------

class Peaks(NamedTuple):
    """The peaks of a stack of transforms, grouped by row and highest first
    within each: the row of each, its point (m, d), value (m,) and Hessian
    (m, d, d)."""

    rows: np.ndarray
    points: np.ndarray
    values: np.ndarray
    hessians: np.ndarray


# the least-squares operator of the 3x3 quadratic fit at unit spacing, as
# integer rows over their denominators: row p gives the coefficient of 1,
# x, y, x^2, xy, y^2 from the window's 9 values, offsets (x, y) in C order,
# x = -1 first
_FIT_NUMERATORS = np.array([[-1, 2, -1, 2, 5, 2, -1, 2, -1],
                            [-1, -1, -1, 0, 0, 0, 1, 1, 1],
                            [-1, 0, 1, -1, 0, 1, -1, 0, 1],
                            [1, 1, 1, -2, -2, -2, 1, 1, 1],
                            [1, 0, -1, 0, 0, 0, -1, 0, 1],
                            [1, -2, 1, 1, -2, 1, 1, -2, 1]], dtype=float)
_FIT_DENOMINATORS = np.array([9.0, 6.0, 6.0, 6.0, 4.0, 6.0])


@functools.lru_cache(maxsize=8)
def _fit_operator(hx: float, hy: float) -> np.ndarray:
    """The 6x9 least-squares operator of the 3x3 quadratic fit at spacing
    (hx, hy): each row of the exact unit-spacing table divided by its power
    of the spacing, which leaves every entry within 2 ulps of the exact
    operator.  Built once per spacing, read-only, and without LAPACK, whose
    first call would grow the run's memory."""
    powers = np.array([1.0, hx, hy, hx * hx, hx * hy, hy * hy])
    op = _FIT_NUMERATORS / (_FIT_DENOMINATORS * powers)[:, None]
    op.flags.writeable = False
    return op


@functools.lru_cache(maxsize=8)
def _window(shape: tuple) -> np.ndarray:
    """The 3^d flat offsets of a node's fit window on a grid of `shape`,
    raveled, built once per shape and read-only.  The last, (1, ...), is
    also the flat index of node (1, ...), which has a window."""
    strides = [math.prod(shape[ax + 1:]) for ax in range(len(shape))]
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=len(shape))))
    window = offsets @ strides
    window.flags.writeable = False
    return window


# the 2D Hessian [[2 c3, c4], [c4, 2 c5]] from the fit's coefficients c
_HESSIAN_COEFFS = np.array([3, 4, 4, 5])
_HESSIAN_FACTORS = np.array([2.0, 1.0, 1.0, 2.0])


def _quadratic_fits(flat: np.ndarray, rows: np.ndarray, centre: np.ndarray,
                    grid: TraitGrid):
    """Least-squares quadratics on the 3x3 (or 3-point) windows of a stack
    of fields: `flat` holds its rows flattened, (k, N), and window m is
    centred on flat node centre[m] of row rows[m], at least one node from
    every wall.

    Returns the (value, gradient, hessian) of each fit at its centre node
    in physical coordinates, shapes (m,), (m, d), (m, d, d).  Exact on
    quadratic data.  In 2D all windows go through one stacked product with
    the operator, which gives each window bitwise its own `op @ w`."""
    windows = flat[rows[:, None], centre[:, None] + _window(grid.shape)]
    h = grid.spacing
    if grid.dimension == 1:
        fm, f0, fp = windows.T
        c1 = (fp - fm) / (2.0 * h[0])
        c2 = (fp - 2.0 * f0 + fm) / (2.0 * h[0] ** 2)
        return f0, c1[:, None], (2.0 * c2)[:, None, None]
    c = np.matmul(_fit_operator(*h), windows[:, :, None])[..., 0]
    hess = c[:, _HESSIAN_COEFFS] * _HESSIAN_FACTORS
    return c[:, 0], c[:, 1:3], hess.reshape(-1, 2, 2)


def _refine_maxima(flat: np.ndarray, rows: np.ndarray, at: np.ndarray,
                   grid: TraitGrid):
    """Sub-grid peak, its value and its curvature at flat node at[m] of row
    rows[m] of a flattened stack (k, N), from one quadratic fit there.

    A peak falls back to its node when the fitted vertex is degenerate or
    more than one cell away, and when the node is on a wall, where no
    window fits: it keeps the node's own value there.  A Hessian is nan
    when its node is within RING_CELLS of a wall.  Returns the points
    (m, d), values (m,), Hessians (m, d, d) and the wall mask (m,)."""
    idx = np.unravel_index(at, grid.shape)
    # cells from each candidate to the nearest wall
    wall = np.minimum.reduce([np.minimum(i, n - 1 - i)
                              for i, n in zip(idx, grid.shape)])
    ring = wall < 1
    # a ring node has no window: fit any, here node (1, ...), and drop it
    f0, g, h = _quadratic_fits(flat, rows,
                               np.where(ring, _window(grid.shape)[-1], at),
                               grid)
    hess = np.where((wall < RING_CELLS)[:, None, None], np.nan, h)
    node = grid.nodes()[idx]
    spacing = grid.spacing
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if grid.dimension == 1:
            # the 1x1 solve and eigenvalue, bitwise what LAPACK gives; exact
            # zero curvature keeps the node, as a singular solve does
            g1, h11 = g[:, 0], h[:, 0, 0]
            delta = -g1 / h11
            kept = (h11 >= 0) | (np.abs(delta) > spacing[0]) | ring
            # f0 + g @ delta + 0.5 * delta @ h @ delta, associated alike
            value = f0 + g1 * delta + ((0.5 * delta) * h11) * delta
            delta = delta[:, None]
        else:
            # the 2x2 vertex in closed form: h is negative definite exactly
            # when h11 < 0 and det h > 0, and then delta = -h^{-1} g
            g1, g2 = g.T
            h4 = h.reshape(-1, 4)
            a, b, c = h4[:, 0], h4[:, 1], h4[:, 3]
            det = a * c - b * b
            # (b g2 - c g1, b g1 - a g2) / det, both components at once
            delta = (b[:, None] * g[:, ::-1] - h4[:, 3::-3] * g) / det[:, None]
            dx, dy = delta.T
            kept = (~((a < 0) & (det > 0))
                    | (np.abs(delta) > spacing).any(axis=1) | ring)
            value = f0 + g1 * dx + g2 * dy + 0.5 * (a * dx * dx
                                                     + 2.0 * b * dx * dy
                                                     + c * dy * dy)
        points = np.where(kept[:, None], node, node + delta)
    values = np.where(kept, f0, value)
    if ring.any():
        values[ring] = flat[rows[ring], at[ring]]
    return points, values, hess, ring


def _local_maxima(vals: np.ndarray, dimension: int = None) -> np.ndarray:
    """Nodes >= each of their 3^d - 1 neighbours, diagonals included, over
    the last `dimension` axes (all by default); the outside of the box
    counts as -inf."""
    d = vals.ndim if dimension is None else dimension
    lead = (0,) * (vals.ndim - d)
    offsets = [lead + o for o in itertools.product((-1, 0, 1), repeat=d)]
    padded = np.pad(vals, [(0, 0)] * len(lead) + [(1, 1)] * d,
                    constant_values=-np.inf)
    views = _at_offsets(padded, offsets)
    node = views[len(offsets) // 2]   # the zero offset, vals itself
    local = np.ones(vals.shape, dtype=bool)
    for view in views:
        local &= node >= view
    return local


def _distinct(rows: np.ndarray, points: np.ndarray, spacing) -> np.ndarray:
    """Mask of the peaks, sorted by row and highest first within each, that
    lie at least half a cell, on some axis, from every higher peak of their
    row.  Two adjacent nodes are both local maxima only when they tie, and
    a parabola through two equal values has its vertex midway between them:
    a top on a cell face is found at both its nodes, and both refine to the
    face.  A plateau of three nodes refines to its two faces and its middle
    node, half a cell apart, and keeps all three."""
    half = 0.5 * np.asarray(spacing)
    keep = np.ones(len(rows), dtype=bool)
    for lag in range(1, len(rows)):
        same = rows[lag:] == rows[:-lag]
        if not same.any():   # rows are sorted: no longer lag pairs a row
            break
        near = (np.abs(points[lag:] - points[:-lag]) < half).all(axis=1)
        keep[lag:] &= ~(same & near)
    return keep


def locate_max(u: WkbField, multi: bool = False, notes: list = None):
    """Peak(s) of u as (point, value, hessian): grid argmax refined by a
    local quadratic fit, whose Hessian is the curvature of u there.

    With `multi`, every local maximum within eps*ln(1e6) of the global one
    is reported (coexisting concentration points), highest first, the
    first found on a tie, and once: a candidate refined to within half a
    cell of a higher one is that one again (`_distinct`).  Peaks on the
    boundary ring are returned at the raw node, with a nan Hessian and a
    message (fit window unavailable): appended to `notes` when a list is
    given, raised as a RuntimeWarning otherwise.

    One field gives a list of (point, value, hessian).  A stack of
    transforms gives one `Peaks` over all its rows, from one fit of every
    candidate, and its notes are (row, message) pairs.
    """
    grid, d = u.grid, u.grid.dimension
    flat = u.values.reshape(-1, grid.num_nodes)
    k = len(flat)
    if multi:
        cut = flat.max(axis=1) - u.epsilon * np.log(MULTI_MAX_DROP_FACTOR)
        local = _local_maxima(flat.reshape((k,) + grid.shape), d)
        found = np.flatnonzero(local.reshape(k, -1) & (flat >= cut[:, None]))
        rows, at = np.divmod(found, grid.num_nodes)
    else:
        rows, at = np.arange(k), flat.argmax(axis=1)
    points, values, hessians, ring = _refine_maxima(flat, rows, at, grid)

    stack = u.values.ndim > d
    if ring.any():
        idx = np.column_stack(np.unravel_index(at[ring], grid.shape))
        for row, i in zip(rows[ring].tolist(), idx.tolist()):
            msg = f"maximum at boundary node {tuple(i)}; refinement skipped"
            if notes is None:
                warnings.warn(msg, RuntimeWarning)
            else:
                notes.append((row, msg) if stack else msg)
    if multi:
        # by row, then highest first; both sorts stable, so ties keep the
        # candidates' order
        order = np.argsort(-values, kind="stable")
        order = order[np.argsort(rows[order], kind="stable")]
        order = order[_distinct(rows[order], points[order], grid.spacing)]
        rows, points, values, hessians = (rows[order], points[order],
                                          values[order], hessians[order])
    if stack:
        return Peaks(rows, points, values, hessians)
    return list(zip(points, values.tolist(), hessians))


# --- regularity monitors -----------------------------------------------------

def well_resolved_mask(u: WkbField) -> np.ndarray:
    return (~u.floor_mask) & (u.values >= u.values.max()
                              - WELL_RESOLVED_DROP * u.epsilon)


def _at_offsets(values, offsets):
    """Views of `values` at each node offset in `offsets` (one int per
    axis), all over the core of nodes from which every offset stays on the
    grid: entry i of the view for offset o is values[i + o]."""
    lo = [max(0, -min(o[ax] for o in offsets)) for ax in range(values.ndim)]
    hi = [n - max(0, max(o[ax] for o in offsets))
          for ax, n in enumerate(values.shape)]
    return [values[tuple(slice(l + k, h + k) for l, h, k in zip(lo, hi, o))]
            for o in offsets]


# the node, its neighbours along each axis (+ then -) and, in 2D, the four
# diagonal neighbours of the mixed difference
_HESSIAN_OFFSETS = {1: [(0,), (1,), (-1,)],
                    2: [(0, 0), (1, 0), (0, 1), (-1, 0), (0, -1),
                        (1, 1), (1, -1), (-1, 1), (-1, -1)]}


def _eigenvalues_2x2(a, b, c):
    """Lower and upper eigenvalues of the symmetric [[a, b], [b, c]],
    entry by entry: (a + c)/2 -+ hypot((a - c)/2, b)."""
    mean, radius = (a + c) / 2, np.hypot((a - c) / 2, b)
    return mean - radius, mean + radius


def _hessian_bracket(values, spacing, mask):
    """Smallest and largest Hessian eigenvalue over the masked nodes that
    have every neighbour on the grid.  The Hessian is the second
    differences a (and c) along the axes and, in 2D, the mixed difference
    b; in 1D its eigenvalue is a itself."""
    d = values.ndim
    offsets = _HESSIAN_OFFSETS[d]
    f0, *f = _at_offsets(values, offsets)
    m = _at_offsets(mask, offsets)[0]
    second = [((f[ax] - 2 * f0 + f[d + ax]) / spacing[ax] ** 2)[m]
              for ax in range(d)]
    if d == 1:
        return float(second[0].min()), float(second[0].max())
    pp, pm, mp, mm = f[4:]
    b = ((pp - pm - mp + mm) / (4.0 * spacing[0] * spacing[1]))[m]
    lower, upper = _eigenvalues_2x2(second[0], b, second[1])
    return float(lower.min()), float(upper.max())


def _third_difference_max(values, spacing, mask):
    """Largest directional third difference over masked nodes (axes and, in
    2D, the two diagonals)."""
    worst = 0.0
    d = values.ndim
    dirs = [tuple(int(j == ax) for j in range(d)) for ax in range(d)]
    if d == 2:
        dirs += [(1, 1), (1, -1)]
    for direction in dirs:
        step = np.hypot(*(s * h for s, h in zip(direction, spacing))) if d == 2 \
            else abs(direction[0]) * spacing[0]
        # node offsets of the 4-point stencil along `direction`
        offsets = [tuple(k * s for s in direction) for k in (-1, 0, 1, 2)]
        fm, f0, f1, f2 = _at_offsets(values, offsets)
        m = _at_offsets(mask, offsets)[1]
        if m.any():
            third = np.abs(f2 - 3 * f1 + 3 * f0 - fm) / step ** 3
            worst = max(worst, float(third[m].max()))
    return worst


def regularity_monitor(u: WkbField, constants, time: float = 0.0) -> dict:
    """Audit u against the concavity-regime bounds.

    Reports the quadratic envelope (with the time-growing slack), the Hessian
    eigenvalue range over well-resolved nodes (in closed form), the largest
    third difference, and the measured gradient-growth constant.  Checks
    lacking constants are reported as null.
    """
    grid = u.grid
    c = constants
    mask = well_resolved_mask(u)
    x2 = [grid.axis_coords(ax) ** 2 for ax in range(grid.dimension)]
    norms2 = x2[0] if grid.dimension == 1 else np.add.outer(*x2)
    report = {"time": time,
              "well_resolved_fraction": float(mask.mean()),
              "envelope": None, "hessian": None,
              "third_derivative_max": None, "gradient_growth": None}

    if all(getattr(c, k, None) is not None for k in
           ("L_bar_0", "L_bar_1", "L_under_0", "L_under_1", "K_bar_0")):
        slack = (c.K_bar_0 + 2.0 * grid.dimension * u.epsilon * c.L_bar_1) * time
        upper = c.L_bar_0 - c.L_bar_1 * norms2 + slack
        lower = -c.L_under_0 - c.L_under_1 * norms2 - slack
        if mask.any():
            margin = float(np.minimum(upper - u.values,
                                      u.values - lower)[mask].min())
        else:
            margin = float("nan")
        report["envelope"] = {"margin": margin, "slack": slack,
                              "passed": bool(margin >= -1e-10)}

    # the well-resolved nodes off the outer ring
    inner = (slice(1, -1),) * grid.dimension
    interior = np.zeros_like(mask)
    interior[inner] = mask[inner]
    if interior.any():
        lo, hi = _hessian_bracket(u.values, grid.spacing, interior)
        entry = {"eig_min": lo, "eig_max": hi}
        if getattr(c, "L_bar_1", None) is not None and \
                getattr(c, "L_under_1", None) is not None:
            entry["bracket"] = [-2.0 * c.L_under_1, -2.0 * c.L_bar_1]
            entry["passed"] = bool(lo >= -2.0 * c.L_under_1 - 1e-10
                                   and hi <= -2.0 * c.L_bar_1 + 1e-10)
        report["hessian"] = entry
        report["third_derivative_max"] = _third_difference_max(
            u.values, grid.spacing, interior)

        grads = np.gradient(u.values, *grid.spacing)
        if grid.dimension == 1:
            gn = np.abs(grads)
        else:
            gn = np.hypot(*grads)
        ratio = gn / (1.0 + np.sqrt(norms2))
        measured = float(ratio[mask].max())
        entry = {"measured_constant": measured}
        if getattr(c, "C_grad_u", None) is not None:
            entry["bound"] = c.C_grad_u
            entry["passed"] = bool(measured <= c.C_grad_u + 1e-10)
        report["gradient_growth"] = entry

    return report
