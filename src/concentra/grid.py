"""Uniform cell-centered grids on trait space: stencils, quadrature, kernel convolution.

All fields live on cell centers of a rectangular box.  The diffusion stencils
are written in conservative flux form with zero-flux boundary faces, which
makes discrete mass conservation exact and keeps the stencil symmetric.  The
competition convolution of a kernel that is a product of axis factors (the
Gaussian) is built once per grid and kernel, one nonnegative matrix per
axis; any other kernel is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

RING_CELLS = 2   # width of the boundary ring, the outermost cells of the box


class GridError(ValueError):
    """Invalid grid construction or field data."""


@dataclass(frozen=True)
class TraitGrid:
    """Cell-centered uniform grid on a box in trait space (dimension 1 or 2).

    Node coordinates along axis j are lower[j] + (i + 1/2) * spacing[j].
    """

    dimension: int
    lower: tuple
    upper: tuple
    points_per_axis: tuple

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {self.dimension}")
        for name, tup in (("lower", self.lower), ("upper", self.upper),
                          ("points_per_axis", self.points_per_axis)):
            if len(tup) != self.dimension:
                raise GridError(f"{name} must have length {self.dimension}")
        for lo, up in zip(self.lower, self.upper):
            if not up > lo:
                raise GridError(f"degenerate box: lower={self.lower} upper={self.upper}")
        for n in self.points_per_axis:
            if n < 8:
                raise GridError(f"points_per_axis must be >= 8, got {n}")

    # Geometry is computed once per grid: a cached value is stored in the
    # instance __dict__, not as a field, so equality, hashing, replace()
    # and the manifests see only the four fields above.
    @cached_property
    def spacing(self) -> tuple:
        return tuple((u - l) / n for l, u, n in
                     zip(self.lower, self.upper, self.points_per_axis))

    @cached_property
    def shape(self) -> tuple:
        return tuple(self.points_per_axis)

    @cached_property
    def num_nodes(self) -> int:
        return int(np.prod(self.points_per_axis))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coords(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        n = self.points_per_axis[axis]
        return self.lower[axis] + (np.arange(n) + 0.5) * h

    def nodes(self) -> np.ndarray:
        """A new table of the node coordinates, shape (*shape, dimension),
        on each call: the caller keeps it only for as long as it reads it."""
        axes = [self.axis_coords(j) for j in range(self.dimension)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def axis_sum(terms, out: np.ndarray) -> np.ndarray:
    """sum_j t_j(x_j) on the nodes, from one 1D term per axis, into `out`
    (the grid's shape): the last axis's term, then in 2D the first's added
    down the columns.  A sum of two terms is the same in either order, and
    a single broadcast operand keeps numpy's ufunc buffers to one."""
    np.copyto(out, terms[-1])
    if len(terms) == 2:
        out += terms[0][:, None]
    return out


def build_grid(dimension, lower, upper, points_per_axis) -> TraitGrid:
    """Build a cell-centered grid; scalars are broadcast across axes."""
    def tup(v):
        if np.isscalar(v):
            return (v,) * dimension
        return tuple(v)
    return TraitGrid(dimension, tup(lower), tup(upper), tup(points_per_axis))


@dataclass
class ScalarField:
    """Grid-sampled real function; values are stored with the grid's shape."""

    grid: TraitGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            if self.values.size == self.grid.num_nodes:
                self.values = self.values.reshape(self.grid.shape)
            else:
                raise GridError(
                    f"field has {self.values.size} values, grid has "
                    f"{self.grid.num_nodes} nodes")
        # NaN propagates through min and max, and +-inf is an extreme
        self._check_range(float(self.values.min()), float(self.values.max()))

    def _check_range(self, low: float, high: float) -> None:
        if not (math.isfinite(low) and math.isfinite(high)):
            raise GridError("field contains non-finite values")


@dataclass
class DensityField(ScalarField):
    """Nonnegative population density on a grid."""

    def _check_range(self, low: float, high: float) -> None:
        super()._check_range(low, high)
        if low < 0:
            raise GridError(f"density field has negative entries "
                            f"(min {low:g})")


@dataclass(frozen=True)
class FieldStack:
    """Fields on one grid stacked along a leading axis: `values` has shape
    (k, *grid.shape).  The rows are not checked again: each is a copy of a
    field that was."""

    grid: TraitGrid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[1:] != self.grid.shape:
            raise GridError(f"stack of shape {self.values.shape} on a grid "
                            f"of shape {self.grid.shape}")


def diffusion_stencil(values: np.ndarray, weights, identity: bool = False,
                      out=None, flux=None) -> np.ndarray:
    """Flux-form no-flux diffusion stencil on the flattened grid, with no
    division: `values - div(w grad values)` with `identity`, and
    `-div(w grad values)` without.

    Along axis a, with flat stride s (the product of the later axis
    lengths) over the N nodes, the face fluxes are one shift and one scale,
    F = w_a * (v[s:] - v[:-s]), with the weights folded once by
    `stencil_weights`.  In the flux row F follows s leading entries, so
    that the row read from there holds the face before each node; those s
    entries and every line's first entry, where the shift wraps in from the
    line before, are set to +0.0, the no-flux boundary faces.  Each node
    then takes one subtract of the face after it and one add of the face
    before it.  Every entry is bitwise what padding the fluxes with +0.0 at
    both ends of each line gives, signed zeros included.

    The result goes to `out` (C-contiguous with N entries; returned in its
    own shape) and the fluxes to `flux`, one row of at least N + 7 entries;
    each is allocated when not given, and neither is read before it is
    written.
    """
    if out is None:
        out = np.empty(values.shape)
    if flux is None:
        flux = np.empty(values.size + 7)
    v = values.reshape(-1)
    res = out.reshape(-1)
    n = v.size
    # the first axis subtracts from the values (or zeros) into `out`, and
    # the last s nodes, which have no face after them, take them as they are
    start = v if identity else np.broadcast_to(0.0, v.shape)
    s = n
    for w, length in zip(weights, values.shape):
        s //= length
        # F starts at a multiple of 8 entries: in a row that starts on a
        # 64-byte line, numpy's SIMD loops then write whole lines, which
        # took half the time of unaligned writes on an AVX-512 Xeon
        lead = -(-s // 8) * 8
        f = flux[lead:lead + n - s]
        before = flux[lead - s:lead - s + n]
        np.subtract(v[s:], v[:-s], out=f)
        f *= w
        before.reshape(-1, length, s)[:, 0] = 0.0
        np.subtract(start[:-s], f, out=res[:-s])
        res[n - s:] = start[n - s:]
        res += before
        start = res
    return out


def stencil_weights(grid: TraitGrid, scale: float, faces=None) -> list:
    """The per-axis weights of `diffusion_stencil`, folded once: the
    scalar scale / h_a^2, or with `faces` (`face_coefficients`) the array
    of the grid's first N - s faces along each axis times it.  The implicit
    step Id - eps dt div(b grad) takes scale = eps dt; `laplacian` takes -1.
    """
    weights = []
    s = grid.num_nodes
    for ax, (h, length) in enumerate(zip(grid.spacing, grid.shape)):
        s //= length
        w = scale / h ** 2
        weights.append(w if faces is None else faces[ax][:-s] * w)
    return weights


def laplacian(field: ScalarField) -> ScalarField:
    """Second-order diffusion stencil (3-point in 1D, 5-point in 2D).

    Flux form: (f_{i+1}-f_i) - (f_i-f_{i-1}) over h^2, with zero flux on
    boundary faces.  Exact on quadratics at interior nodes.
    """
    return ScalarField(field.grid, diffusion_stencil(
        field.values, stencil_weights(field.grid, -1.0)))


def face_coefficients(grid: TraitGrid, b_values: np.ndarray) -> list:
    """Arithmetic face averages of a node-sampled coefficient: one flat
    array of grid.num_nodes weights per axis.  Entry k weighs the face
    between flat node k and its successor along the axis; it is 0 on each
    line's last node, whose face is the no-flux boundary.
    `stencil_weights` folds them into the stencil's weights."""
    faces = []
    for ax in range(grid.dimension):
        lo = [slice(None)] * grid.dimension
        hi = list(lo)
        lo[ax], hi[ax] = slice(None, -1), slice(1, None)
        w = np.zeros(grid.shape)
        w[tuple(lo)] = 0.5 * (b_values[tuple(hi)] + b_values[tuple(lo)])
        faces.append(w.reshape(-1))
    return faces


def integrate(field: ScalarField, weight=1) -> float:
    """Midpoint quadrature sum(w(x_i) f_i) * cell volume."""
    v = field.values
    if np.isscalar(weight):
        return float(weight * v.sum() * field.grid.cell_volume)
    w = np.asarray(weight(field.grid.nodes()), dtype=float)
    return float((w * v).sum() * field.grid.cell_volume)


def boundary_ring_mass(density: DensityField | FieldStack,
                       totals: np.ndarray = None):
    """Mass carried by the boundary ring (RING_CELLS): a float for one
    density field, an array of one entry per row for a `FieldStack`.
    `totals`, when given, is each row's
    `values.reshape(rows, -1).sum(axis=1)`, which is not summed again."""
    grid = density.grid
    v = density.values.reshape((-1,) + grid.shape)
    rows = len(v)
    if totals is None:
        totals = v.reshape(rows, -1).sum(axis=1)
    # each interior adds up in flat order: reshaping a 2D one copies it,
    # where a strided 2D view would sum line by line, with other round-off
    interior = v[(...,) + (slice(RING_CELLS, -RING_CELLS),) * grid.dimension]
    mass = (totals - interior.reshape(rows, -1).sum(axis=1)) * grid.cell_volume
    return mass if density.values.ndim > grid.dimension else float(mass[0])


def kernel_convolution(grid: TraitGrid, kernel):
    """The competition map n -> (x_i -> sum_j C(x_i, y_j) n_j * cell volume)
    on `grid` of a kernel that is a floor plus a product of one-axis
    factors, C = floor + amp * prod_a axis_factor(x_a - y_a) (an
    .axis_factor method).  One nonnegative matrix K_a[i, j] =
    axis_factor(x_i - x_j) per axis is built once, and the map is
    amp vol K_x @ N @ K_y.T + floor vol sum(N).  Each output entry is a sum
    of nonnegative products, accurate relative to itself down to the far
    tails of the kernel.  A separable kernel has no such map: the engine
    couples it through the scalar int psi n.

    Returns a callable from density values to field values (grid shape).
    Any other kernel raises GridError naming its type.
    """
    if not callable(getattr(kernel, "axis_factor", None)):
        raise GridError(f"kernel of type {type(kernel).__name__} is not a "
                        "product of axis factors")
    mats = []
    for ax in range(grid.dimension):
        x = grid.axis_coords(ax)
        k = np.subtract.outer(x, x)
        mats.append(kernel.axis_factor(k, out=k))
    vol = grid.cell_volume
    amp, floor = kernel.amp * vol, kernel.floor * vol

    def per_axis(n):
        out = mats[0] @ n
        if grid.dimension == 2:
            out = out @ mats[1].T
        out *= amp
        out += floor * n.sum()
        return out
    return per_axis


# --- field snapshot formats ----------------------------------------------

def write_field_npy(field: ScalarField, path) -> None:
    """Run snapshot format: the float64 values with the grid's shape, as
    `.npy` at exactly `path` (bit-exact; read back with
    `np.load(path, allow_pickle=False)`).  The grid is not stored: a run
    records it in manifest.json["domain"]."""
    with open(path, "wb") as f:
        np.save(f, field.values, allow_pickle=False)


def write_field_csv(field: ScalarField, path) -> None:
    """CSV export: header comment with grid metadata, then one row per
    node `x1[,x2],value` in row-major order, 17 significant digits."""
    g = field.grid
    n = ",".join(str(k) for k in g.points_per_axis)
    lo = ",".join(f"{v:.17g}" for v in g.lower)
    up = ",".join(f"{v:.17g}" for v in g.upper)
    nodes = g.nodes().reshape(-1, g.dimension)
    vals = field.values.reshape(-1)
    with open(path, "w") as f:
        f.write(f"# grid dim={g.dimension} n={n} lower={lo} upper={up}\n")
        for x, v in zip(nodes, vals):
            coords = ",".join(f"{c:.17g}" for c in x)
            f.write(f"{coords},{v:.17g}\n")


def read_field_csv(path) -> ScalarField:
    """Read back a `write_field_csv` file; a malformed header or row raises
    GridError naming the path and what is wrong."""
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("# grid "):
            raise GridError(f"{path}: missing grid header")
        tokens = header[len("# grid "):].split()
        for tok in tokens:
            if "=" not in tok:
                raise GridError(f"{path}: grid header token {tok!r} is not "
                                "key=value")
        meta = dict(tok.split("=", 1) for tok in tokens)
        for key in ("dim", "n", "lower", "upper"):
            if key not in meta:
                raise GridError(f"{path}: grid header has no {key}=")
        try:
            dim = int(meta["dim"])
            npts = tuple(int(s) for s in meta["n"].split(","))
            lower = tuple(float(s) for s in meta["lower"].split(","))
            upper = tuple(float(s) for s in meta["upper"].split(","))
            grid = TraitGrid(dim, lower, upper, npts)
        except (ValueError, GridError) as exc:
            raise GridError(f"{path}: bad grid header ({exc})") from exc
        try:
            vals = np.array([float(line.rsplit(",", 1)[1]) for line in f])
        except (IndexError, ValueError) as exc:   # no comma, or not a number
            raise GridError(f"{path}: unreadable row ({exc})") from exc
    if vals.size != grid.num_nodes:
        raise GridError(f"{path}: {vals.size} rows for the grid's "
                        f"{grid.num_nodes} nodes")
    return ScalarField(grid, vals.reshape(grid.shape))
