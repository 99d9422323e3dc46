"""Log transform u = eps ln(n), peak location/curvature, regularity monitors.

The density concentrates like exp(u/eps); u stays order one, so the Dirac
location is read off as the maximum of u and the mutation matrix as its
Hessian there.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import DensityField, GridError, ScalarField, TraitGrid

DENSITY_FLOOR = 1e-280   # keeps u finite; far below any meaningful density
EXP_LIMIT = 700.0        # exp overflow threshold for u/eps
WELL_RESOLVED_DROP = 40.0  # nodes with u >= max - 40 eps enter statistics
MULTI_MAX_DROP_FACTOR = 1e6  # secondary maxima must exceed max - eps ln(1e6)


class WkbError(ValueError):
    """Invalid transform input or out-of-range request."""


@dataclass
class WkbField:
    """u = eps ln n on a grid; `floor_mask` flags nodes clipped at the
    density floor (excluded from regularity statistics)."""

    grid: TraitGrid
    values: np.ndarray
    epsilon: float
    floor_mask: np.ndarray = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            self.values = self.values.reshape(self.grid.shape)
        if self.epsilon <= 0:
            raise WkbError(f"epsilon must be positive, got {self.epsilon}")
        if self.floor_mask is None:
            self.floor_mask = np.zeros(self.grid.shape, dtype=bool)


def to_wkb(density: DensityField, epsilon: float) -> WkbField:
    """u = eps * ln(max(n, floor)); floor-clipped nodes are flagged."""
    n = density.values
    mask = n < DENSITY_FLOOR
    u = epsilon * np.log(np.maximum(n, DENSITY_FLOOR))
    return WkbField(density.grid, u, epsilon, mask)


def from_wkb(u: WkbField) -> DensityField:
    """n = exp(u/eps); exact inverse of to_wkb above the floor."""
    arg = u.values / u.epsilon
    if np.any(arg > EXP_LIMIT):
        k = tuple(int(i) for i in
                  np.unravel_index(int(np.argmax(arg)), u.values.shape))
        raise WkbError(f"u/eps = {arg[k]:.3g} overflows exp at node {k}")
    return DensityField(u.grid, np.exp(arg))


# --- peak location and curvature -------------------------------------------

def _window_slices(idx, shape):
    return tuple(slice(i - 1, i + 2) for i in idx)


def _is_interior(idx, shape, margin=1):
    return all(margin <= i < n - margin for i, n in zip(idx, shape))


@functools.lru_cache(maxsize=8)
def _fit_operator(hx: float, hy: float) -> np.ndarray:
    """The 6x9 least-squares operator of the 3x3 quadratic fit at spacing
    (hx, hy), the pseudo-inverse of its design matrix, built once per
    spacing and read-only."""
    dx = np.array([-hx, 0.0, hx])
    dy = np.array([-hy, 0.0, hy])
    X, Y = np.meshgrid(dx, dy, indexing="ij")
    design = np.column_stack([np.ones(9), X.ravel(), Y.ravel(),
                              X.ravel() ** 2, (X * Y).ravel(), Y.ravel() ** 2])
    op = np.linalg.pinv(design)
    op.flags.writeable = False
    return op


def _fit_quadratic(values: np.ndarray, idx: tuple, grid: TraitGrid):
    """Least-squares quadratic on the 3x3 (or 3-point) window around a node.

    Returns (value, gradient, hessian) of the fit at the node center in
    physical coordinates.  Exact on quadratic data.
    """
    h = grid.spacing
    window = values[_window_slices(idx, values.shape)]
    if grid.dimension == 1:
        fm, f0, fp = window
        c1 = (fp - fm) / (2.0 * h[0])
        c2 = (fp - 2.0 * f0 + fm) / (2.0 * h[0] ** 2)
        return float(f0), np.array([c1]), np.array([[2.0 * c2]])
    c0, c1, c2, c3, c4, c5 = (_fit_operator(*h) @ window.ravel()).tolist()
    grad = np.array([c1, c2])
    hess = np.array([[2.0 * c3, c4], [c4, 2.0 * c5]])
    return c0, grad, hess


def _node(grid: TraitGrid, idx) -> np.ndarray:
    """Coordinates of node `idx`: entry idx of each `grid.axis_coords`."""
    return np.array([lo + (i + 0.5) * h
                     for lo, i, h in zip(grid.lower, idx, grid.spacing)])


def _refine_max(u: WkbField, idx: tuple):
    """Sub-grid peak, its value and its curvature, from one quadratic fit at
    the node.  The peak falls back to the node when the fitted vertex is
    degenerate or more than one cell away; the Hessian is nan when the node
    is within two cells of the boundary."""
    grid = u.grid
    node = _node(grid, idx)
    f0, g, h = _fit_quadratic(u.values, idx, grid)
    hess = h if _is_interior(idx, u.values.shape, margin=2) \
        else np.full_like(h, np.nan)
    if grid.dimension == 1:
        # the 1x1 solve and eigenvalue on floats, bitwise what LAPACK gives;
        # exact zero curvature keeps the node, as a singular solve does
        g1, h11 = float(g[0]), float(h[0, 0])
        if h11 >= 0:
            return node, f0, hess
        d = -g1 / h11
        if abs(d) > grid.spacing[0]:
            return node, f0, hess
        # f0 + g @ delta + 0.5 * delta @ h @ delta, associated alike
        return node + d, f0 + g1 * d + ((0.5 * d) * h11) * d, hess
    # the 2x2 vertex in closed form: h is negative definite exactly when
    # h11 < 0 and det h > 0, and then delta = -h^{-1} g
    g1, g2 = g.tolist()
    (a, b), (_, c) = h.tolist()
    det = a * c - b * b
    if not (a < 0 and det > 0):
        return node, f0, hess
    dx, dy = (b * g2 - c * g1) / det, (b * g1 - a * g2) / det
    if abs(dx) > grid.spacing[0] or abs(dy) > grid.spacing[1]:
        return node, f0, hess
    value = f0 + g1 * dx + g2 * dy + 0.5 * (a * dx * dx + 2.0 * b * dx * dy
                                             + c * dy * dy)
    return node + np.array([dx, dy]), value, hess


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    """Nodes >= each of their 3^d - 1 neighbours, diagonals included; the
    outside of the box counts as -inf."""
    offsets = list(itertools.product((-1, 0, 1), repeat=vals.ndim))
    views = _at_offsets(np.pad(vals, 1, constant_values=-np.inf), offsets)
    node = views[len(offsets) // 2]   # the zero offset, vals itself
    local = np.ones(vals.shape, dtype=bool)
    for view in views:
        local &= node >= view
    return local


def locate_max(u: WkbField, multi: bool = False, notes: list = None):
    """Peak(s) of u as (point, value, hessian): grid argmax refined by a
    local quadratic fit, whose Hessian is the curvature of u there.

    With `multi`, every local maximum within eps*ln(1e6) of the global one
    is reported (coexisting concentration points).  Peaks on the boundary
    ring are returned at the raw node, with a nan Hessian and a message
    (fit window unavailable): appended to `notes` when a list is given,
    raised as a RuntimeWarning otherwise.
    """
    vals = u.values
    shape = vals.shape
    if multi:
        cut = vals.max() - u.epsilon * np.log(MULTI_MAX_DROP_FACTOR)
        candidates = [tuple(idx) for idx in
                      np.argwhere(_local_maxima(vals) & (vals >= cut))]
    else:
        candidates = [np.unravel_index(int(np.argmax(vals)), shape)]

    out = []
    d = u.grid.dimension
    for idx in candidates:
        if not _is_interior(idx, shape):
            msg = (f"maximum at boundary node {tuple(int(i) for i in idx)}; "
                   "refinement skipped")
            if notes is None:
                warnings.warn(msg, RuntimeWarning)
            else:
                notes.append(msg)
            out.append((_node(u.grid, idx), float(vals[tuple(idx)]),
                        np.full((d, d), np.nan)))
        else:
            out.append(_refine_max(u, tuple(idx)))
    out.sort(key=lambda peak: -peak[1])
    return out


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
