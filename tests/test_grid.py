"""Grid construction, stencils, quadrature, kernel convolution, snapshot CSV."""

import dataclasses
import math
import re

import numpy as np
import pytest

from concentra.grid import (RING_CELLS, DensityField, FieldStack, GridError,
                            ScalarField, TraitGrid, boundary_ring_mass,
                            build_grid, diffusion_stencil, face_coefficients,
                            integrate, kernel_convolution, laplacian,
                            read_field_csv, stencil_weights, write_field_csv)
from concentra.models import GaussianKernel, build_model
from concentra.pde import ConfigError, ImexIntegrator, SimulationConfig


def _grid2(n=32, lower=0.0, upper=1.0):
    return build_grid(2, lower, upper, n)


def _grid1(n=64, lower=0.0, upper=1.0):
    return build_grid(1, lower, upper, n)


# --- construction -----------------------------------------------------------

def test_spacing_100_squared():
    g = _grid2(100)
    assert g.spacing == (0.01, 0.01)


def test_spacing_150_squared():
    g = _grid2(150)
    assert g.spacing == (1.0 / 150.0, 1.0 / 150.0)


def test_cell_centered_first_node_1d():
    g = _grid1(8)
    assert g.axis_coords(0)[0] == 0.0625


def test_grid_geometry_cached_bitwise_and_not_fields():
    g = build_grid(2, (-0.3, 0.1), (1.7, 0.9), (37, 53))
    spacing = tuple((u - l) / n for l, u, n in
                    zip(g.lower, g.upper, g.points_per_axis))
    assert np.array(g.spacing).tobytes() == np.array(spacing).tobytes()
    assert (np.float64(g.cell_volume).tobytes()
            == np.float64(float(np.prod(spacing))).tobytes())
    assert g.shape == (37, 53) and g.num_nodes == 37 * 53
    assert type(g.num_nodes) is int and type(g.cell_volume) is float
    assert g.spacing is g.spacing        # computed once
    nodes = g.nodes()
    assert g.nodes() is nodes            # one node table per grid
    assert not nodes.flags.writeable
    with pytest.raises(ValueError):
        nodes[0, 0, 0] = 0.0
    mesh = np.meshgrid(g.axis_coords(0), g.axis_coords(1), indexing="ij")
    assert nodes.tobytes() == np.stack(mesh, axis=-1).tobytes()
    assert nodes.shape == (37, 53, 2)

    fresh = TraitGrid(2, (-0.3, 0.1), (1.7, 0.9), (37, 53))
    assert g == fresh and hash(g) == hash(fresh)
    assert [f.name for f in dataclasses.fields(g)] == [
        "dimension", "lower", "upper", "points_per_axis"]
    assert dataclasses.asdict(g) == {"dimension": 2, "lower": (-0.3, 0.1),
                                     "upper": (1.7, 0.9),
                                     "points_per_axis": (37, 53)}
    wider = dataclasses.replace(g, points_per_axis=(40, 53))
    assert wider.spacing[0] == 2.0 / 40 and wider.num_nodes == 40 * 53
    assert wider.nodes().shape == (40, 53, 2)
    assert wider != g
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.lower = (0.0, 0.0)


def test_degenerate_box_rejected():
    with pytest.raises(GridError):
        build_grid(1, 1.0, 0.0, 16)


def test_too_few_points_rejected():
    with pytest.raises(GridError):
        build_grid(2, 0.0, 1.0, 4)


def test_bad_dimension_rejected():
    with pytest.raises(GridError):
        TraitGrid(3, (0.0,) * 3, (1.0,) * 3, (16,) * 3)


def test_density_rejects_negative_values():
    g = _grid1()
    with pytest.raises(GridError):
        DensityField(g, -np.ones(g.shape))


def test_field_rejects_non_finite():
    g = _grid1()
    v = np.ones(g.shape)
    v[3] = np.inf
    with pytest.raises(GridError):
        ScalarField(g, v)


@pytest.mark.parametrize("entries,message", [
    ({3: np.nan}, "non-finite"),
    ({3: np.inf}, "non-finite"),
    ({3: -np.inf}, "non-finite"),
    ({3: -1e-300}, "negative entries"),
    ({3: np.nan, 5: -1.0}, "non-finite"),
    ({3: -1.0, 5: np.nan}, "non-finite"),
], ids=["nan", "+inf", "-inf", "negative", "nan-then-negative",
        "negative-then-nan"])
def test_density_checks_name_the_first_fault(entries, message):
    """One min and one max find every fault; a non-finite entry is named
    before a negative one, wherever each lies."""
    g = _grid1()
    v = np.ones(g.shape)
    for i, x in entries.items():
        v[i] = x
    with pytest.raises(GridError, match=message):
        DensityField(g, v)
    if message == "non-finite":
        with pytest.raises(GridError, match=message):
            ScalarField(g, v)
    else:
        assert ScalarField(g, v).values[3] < 0


def test_density_accepts_negative_zero():
    g = _grid1()
    v = np.ones(g.shape)
    v[[0, 4]] = -0.0
    assert DensityField(g, v).values[4] == 0.0


# --- laplacian --------------------------------------------------------------

def test_laplacian_annihilates_constants():
    g = _grid2()
    out = laplacian(ScalarField(g, np.full(g.shape, 3.7)))
    assert np.max(np.abs(out.values)) <= 1e-14


def test_laplacian_exact_on_quadratic():
    g = _grid2(40)
    nodes = g.nodes()
    f = ScalarField(g, (nodes ** 2).sum(axis=-1))
    out = laplacian(f).values
    interior = out[1:-1, 1:-1]
    assert np.max(np.abs(interior - 4.0)) <= 1e-10


def test_laplacian_second_order_on_sine():
    # Richardson check: halving h divides the interior error by about 4.
    errs = []
    for n in (64, 128):
        g = _grid1(n)
        x = g.axis_coords(0)
        f = ScalarField(g, np.sin(2 * np.pi * x))
        out = laplacian(f).values
        exact = -(2 * np.pi) ** 2 * np.sin(2 * np.pi * x)
        errs.append(np.max(np.abs(out[2:-2] - exact[2:-2])))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


# --- div(b grad), as the run builds it ---------------------------------------

def _div_b_grad(values, grid, b_nodes):
    """div(b grad f) with face weights from the node-sampled b, as
    `ImexIntegrator` builds its stencil."""
    return diffusion_stencil(values, stencil_weights(
        grid, -1.0, face_coefficients(grid, b_nodes)))


def test_div_b_grad_unit_coefficient_is_laplacian_bitwise():
    rng = np.random.default_rng(7)
    g = _grid2(24)
    f = ScalarField(g, rng.standard_normal(g.shape))
    a = laplacian(f).values
    b = _div_b_grad(f.values, g, np.ones(g.shape))
    assert np.array_equal(a, b)


def test_div_b_grad_constant_scaling():
    g = _grid2(32)
    nodes = g.nodes()
    f = (nodes ** 2).sum(axis=-1)
    out = _div_b_grad(f, g, 3.0 * np.ones(g.shape))
    assert np.max(np.abs(out[1:-1, 1:-1] - 12.0)) <= 1e-9


def test_div_b_grad_affine_coefficient_1d():
    # b(x) = 1 + x, f = x: d/dx((1+x) * 1) = 1 exactly on interior nodes.
    g = _grid1(64)
    x = g.axis_coords(0)
    out = _div_b_grad(x.copy(), g, 1.0 + x)
    assert np.max(np.abs(out[1:-1] - 1.0)) <= 1e-12


def test_div_b_grad_rejects_nonpositive_coefficient():
    class Vanishing:   # zero at every node; a DiffusionCoefficient refuses it
        def value(self, x):
            return np.zeros(np.shape(x)[:-1])

    g = _grid1()
    model = build_model({"family": "affine_global",
                         "params": {"a": 0.0, "slope": [0.0],
                                    "coef_I": 0.0}}, 1)
    with pytest.raises(ConfigError, match="must be positive on the grid"):
        ImexIntegrator(g, model, SimulationConfig(0.01, 0.01, 1),
                       b=Vanishing())


def _padded_stencil(values, grid, faces=None, coef=None):
    """Reference: face differences scaled by coef / h^2 (-1 / h^2 without
    coef, the Laplacian), times the face weights of `face_coefficients`
    (the face after each node, cut to the grid's inner faces), padded with
    +0.0 fluxes at both ends of each line.  Each node subtracts the flux
    after it and adds the one before it, starting from the values with
    coef and from zeros without."""
    out = np.zeros_like(values) if coef is None else values.copy()
    scale = -1.0 if coef is None else coef
    for ax, h in enumerate(grid.spacing):
        inner = [slice(None)] * values.ndim
        inner[ax] = slice(None, -1)
        w = scale / h ** 2
        if faces is not None:
            w = faces[ax].reshape(values.shape)[tuple(inner)] * w
        pad = [(0, 0)] * values.ndim
        pad[ax] = (1, 1)
        flux = np.pad(np.diff(values, axis=ax) * w, pad)
        out -= np.delete(flux, 0, axis=ax)
        out += np.delete(flux, -1, axis=ax)
    return out


def _divide_stencil(values, spacing, faces=None):
    """Second reference, the stencil's earlier arithmetic: the padded face
    fluxes' differences divided by h^2, summed over axes from zeros."""
    out = np.zeros_like(values)
    for ax in range(values.ndim):
        pad = [(0, 0)] * values.ndim
        pad[ax] = (1, 1)
        flux = np.pad(np.diff(values, axis=ax), pad)
        if faces is not None:
            pad[ax] = (1, 0)
            flux = np.pad(faces[ax].reshape(values.shape), pad) * flux
        out += np.diff(flux, axis=ax) / spacing[ax] ** 2
    return out


_STENCIL_GRIDS = pytest.mark.parametrize("grid", [
    build_grid(1, 0.0, 1.0, 64), build_grid(1, -0.5, 2.0, 9),
    build_grid(2, [0.0, -1.0], [1.0, 2.0], [24, 19]),
    build_grid(2, 0.0, 1.0, 150)], ids=["1d_64", "1d_9", "2d_24x19",
                                        "2d_150"])


def _stencil_data(grid, rng):
    """Normal values with 30 % signed zeros: -0.0 and +0.0 must match too."""
    f = rng.standard_normal(grid.shape)
    zeros = rng.random(grid.shape) < 0.3
    f[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return f


@_STENCIL_GRIDS
@pytest.mark.parametrize("variable", [False, True], ids=["uniform", "faces"])
def test_stencil_bitwise_equals_padded_formula(grid, variable):
    """Allocated or written into reused buffers filled with NaN before each
    call, the stencil is the padded formula byte for byte: a stale read of
    a wrap or boundary entry would show."""
    rng = np.random.default_rng(11)
    faces = (face_coefficients(grid, rng.uniform(0.5, 2.0, grid.shape))
             if variable else None)
    coef = 0.37
    lap = stencil_weights(grid, -1.0, faces)
    implicit = stencil_weights(grid, coef, faces)
    out = np.empty(grid.shape)
    flux = np.empty(grid.num_nodes + 7)
    for _ in range(5):
        f = _stencil_data(grid, rng)
        ref = _padded_stencil(f, grid, faces)
        ref_implicit = _padded_stencil(f, grid, faces, coef)
        assert diffusion_stencil(f, lap).tobytes() == ref.tobytes()
        assert (diffusion_stencil(f, implicit, True).tobytes()
                == ref_implicit.tobytes())
        for weights, identity, expected in ((lap, False, ref),
                                            (implicit, True, ref_implicit)):
            out.fill(np.nan)
            flux.fill(np.nan)
            assert diffusion_stencil(f, weights, identity, out=out,
                                     flux=flux) is out
            assert out.tobytes() == expected.tobytes()


@_STENCIL_GRIDS
@pytest.mark.parametrize("variable", [False, True], ids=["uniform", "faces"])
def test_stencil_meets_divide_formula_within_ulps(grid, variable):
    """Scaling the differences by the folded weights rounds otherwise than
    dividing their differences by h^2, but every entry stays within 4 ulps
    of the size of the terms it sums: the largest weight / h^2 times 2d
    |v_i| plus the magnitudes of its 2d neighbours (|v_i| more with the
    identity).  The gap measured on these grids is at most 2.3 ulps."""
    rng = np.random.default_rng(13)
    faces = (face_coefficients(grid, rng.uniform(0.5, 2.0, grid.shape))
             if variable else None)
    coef = 0.37
    ulp = np.finfo(float).eps
    wmax = 2.0 if variable else 1.0
    for _ in range(5):
        f = _stencil_data(grid, rng)
        size = 2 * f.ndim * np.abs(f)
        for ax in range(f.ndim):
            pad = [(0, 0)] * f.ndim
            pad[ax] = (1, 1)
            nbrs = np.pad(np.abs(f), pad)
            size += (np.delete(nbrs, [0, 1], axis=ax)
                     + np.delete(nbrs, [-1, -2], axis=ax))
        size *= wmax * max(h ** -2 for h in grid.spacing)
        old = _divide_stencil(f, grid.spacing, faces)
        new = diffusion_stencil(f, stencil_weights(grid, -1.0, faces))
        assert np.all(np.abs(new - old) <= 4 * ulp * size)
        new_implicit = diffusion_stencil(
            f, stencil_weights(grid, coef, faces), True)
        assert np.all(np.abs(new_implicit - (f - coef * old))
                      <= 4 * ulp * (np.abs(f) + coef * size))


# --- quadrature -------------------------------------------------------------

def test_integrate_constant_unit_box():
    g = _grid2()
    assert integrate(ScalarField(g, np.ones(g.shape))) == pytest.approx(
        1.0, abs=1e-14)


def test_integrate_scalar_weight():
    g = _grid2()
    assert integrate(ScalarField(g, np.ones(g.shape)), 2) == pytest.approx(
        2.0, abs=1e-14)


def test_integrate_callable_weight():
    g = _grid1()
    x = g.axis_coords(0)
    f = ScalarField(g, np.ones(g.shape))
    val = integrate(f, lambda pts: pts[..., 0])
    # midpoint rule is exact for the affine weight on a symmetric grid
    assert val == pytest.approx(0.5, abs=1e-14)


def test_integrate_gaussian_against_closed_form():
    eps = 0.005
    g = _grid2(100)
    nodes = g.nodes()
    c = 0.5
    n = np.exp(-(((nodes - c) ** 2).sum(axis=-1)) / eps)
    got = integrate(ScalarField(g, n))
    one_axis = (math.sqrt(math.pi * eps) / 2.0
                * (math.erf((1 - c) / math.sqrt(eps))
                   + math.erf(c / math.sqrt(eps))))
    assert got == pytest.approx(one_axis ** 2, rel=1e-8)


def test_boundary_ring_mass_uniform_field():
    g = _grid2(20)
    rho = 1.0
    n = DensityField(g, np.ones(g.shape))
    expected = rho * (1.0 - (16 / 20) ** 2)
    assert boundary_ring_mass(n) == pytest.approx(expected, abs=1e-12)


def _take_ring_mass(density, width):
    """The ring mass as np.take copies of the interior once gave it: the
    reference the sliced form must match bitwise."""
    v = density.values
    interior = v
    for ax in range(v.ndim):
        interior = np.take(interior, np.arange(width, v.shape[ax] - width),
                           axis=ax)
    return float((v.sum() - interior.sum()) * density.grid.cell_volume)


@pytest.mark.parametrize("dimension", [1, 2])
def test_boundary_ring_mass_bitwise_take_formula(dimension):
    rng = np.random.default_rng(300 + dimension)
    for _ in range(100):
        n = rng.integers(8, 200, size=dimension).tolist()
        g = build_grid(dimension, 0.0, rng.uniform(0.5, 3.0), n)
        values = rng.exponential(size=n) * 10.0 ** rng.uniform(-8, 8)
        density = DensityField(g, values)
        got = boundary_ring_mass(density)
        assert (np.float64(got).tobytes()
                == np.float64(_take_ring_mass(density, RING_CELLS)).tobytes())


@pytest.mark.parametrize("dimension", [1, 2])
def test_boundary_ring_mass_takes_the_callers_row_totals(dimension):
    """Row totals a caller already has give bitwise the ring masses the
    function sums for itself, and they are read, not summed again."""
    rng = np.random.default_rng(27 + dimension)
    g = build_grid(dimension, 0.0, 1.5, 24)
    stack = FieldStack(g, rng.exponential(size=(3,) + g.shape))
    totals = stack.values.reshape(3, -1).sum(axis=1)
    got = boundary_ring_mass(stack, totals=totals)
    assert got.tobytes() == boundary_ring_mass(stack).tobytes()
    assert np.all(boundary_ring_mass(stack, totals=totals + 1.0) > got)


# --- mass conservation / symmetry identities ---------------------------------

def test_integrate_laplacian_is_zero():
    rng = np.random.default_rng(11)
    g = _grid2(24)
    f = ScalarField(g, rng.standard_normal(g.shape))
    assert abs(integrate(laplacian(f))) <= 1e-12


def test_discrete_integration_by_parts_symmetry():
    rng = np.random.default_rng(13)
    g = _grid2(24)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    lhs = integrate(ScalarField(g, f * laplacian(ScalarField(g, h)).values))
    rhs = integrate(ScalarField(g, h * laplacian(ScalarField(g, f)).values))
    assert abs(lhs - rhs) <= 1e-12


# --- kernel convolution -------------------------------------------------------

def _midpoint_sum(grid, kernel, n):
    """The reference convolution: the midpoint rule
    sum_j C(x_i, y_j) n_j * cell volume, with the whole N x N kernel
    matrix evaluated at once."""
    nodes = grid.nodes().reshape(-1, grid.dimension)
    matrix = kernel(nodes[:, None, :], nodes[None, :, :])
    return (matrix @ n.reshape(-1) * grid.cell_volume).reshape(grid.shape)


def test_convolve_constant_kernel_gives_total_mass():
    rng = np.random.default_rng(17)
    g = _grid2(16)
    n = DensityField(g, rng.random(g.shape))
    rho = integrate(n)
    out = _midpoint_sum(g, lambda x, y: np.ones(
        np.broadcast_shapes(x.shape[:-1], y.shape[:-1])), n.values)
    assert np.max(np.abs(out - rho)) <= 1e-13


def test_convolve_matches_bruteforce_double_loop():
    rng = np.random.default_rng(23)
    g = _grid2(8)
    n = DensityField(g, rng.random(g.shape))
    kern = GaussianKernel(floor=0.1, amp=0.9, width=0.4)
    got = kernel_convolution(g, kern)(n.values).reshape(-1)
    nodes = g.nodes().reshape(-1, 2)
    flat = n.values.reshape(-1)
    vol = g.cell_volume
    brute = np.array([sum(float(kern(nodes[i], nodes[j])) * flat[j]
                          for j in range(len(flat))) * vol
                      for i in range(len(flat))])
    assert np.max(np.abs(got - brute)) <= 1e-13


def test_convolve_linearity_in_density():
    rng = np.random.default_rng(29)
    g = _grid1(32)
    n1 = rng.random(g.shape)
    n2 = rng.random(g.shape)
    conv = kernel_convolution(g, GaussianKernel(amp=1.0, width=0.3))
    mix = conv(2 * n1 + 3 * n2)
    parts = 2 * conv(n1) + 3 * conv(n2)
    assert np.max(np.abs(mix - parts)) <= 1e-13


@pytest.mark.parametrize("floor", [0.0, 0.8])
@pytest.mark.parametrize("grid", [
    build_grid(1, 0.0, 1.0, 256),
    build_grid(2, [0.0, -1.0], [1.0, 2.0], [24, 19]),
], ids=["1d_256", "2d_24x19"])
def test_convolve_fft_matches_direct(grid, floor):
    """The Gaussian kernel's fast path, one nonnegative matrix per axis,
    against the direct midpoint sum."""
    rng = np.random.default_rng(41)
    n = DensityField(grid, rng.random(grid.shape))
    kern = GaussianKernel(floor=floor, amp=0.2 if floor else 1.0, width=0.3)
    assert callable(kern.axis_factor)
    fast = kernel_convolution(grid, kern)(n.values)
    direct = _midpoint_sum(grid, kern, n.values)
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("grid,width", [
    (build_grid(1, 0.0, 1.0, 96), 0.05),
    (build_grid(2, [0.0, -1.0], [1.0, 2.0], [20, 27]), 0.12),
], ids=["1d_96", "2d_20x27"])
def test_convolve_narrow_kernel_tails_entry_by_entry(grid, width):
    """With no floor, a narrow width and a density concentrated near one
    corner, the competition field spans tens of decades; every entry, down
    to the far tails, is accurate relative to itself against the midpoint
    sum evaluated in long double."""
    rng = np.random.default_rng(47)
    corner = ((grid.nodes() - np.asarray(grid.lower) - 0.1) ** 2).sum(-1)
    n = DensityField(grid, (0.5 + rng.random(grid.shape))
                     * np.exp(-corner / 0.004))
    kern = GaussianKernel(floor=0.0, amp=1.3, width=width)
    got = kernel_convolution(grid, kern)(n.values)
    ld = np.longdouble
    nodes = grid.nodes().reshape(-1, grid.dimension).astype(ld)
    d2 = ((nodes[:, None, :] - nodes[None, :, :]) ** 2).sum(axis=-1)
    brute = ((ld(kern.amp) * np.exp(-d2 / (2 * ld(kern.width) ** 2)))
             @ n.values.reshape(-1).astype(ld)) * ld(grid.cell_volume)
    brute = brute.reshape(grid.shape)
    assert brute.min() < 1e-20 * brute.max()
    rel = np.abs(got.astype(ld) - brute) / brute
    assert float(rel.max()) <= 1e-13


def test_kernel_convolution_samples_kernel_once():
    calls = []

    class Counted(GaussianKernel):
        def axis_factor(self, offsets, out=None):
            calls.append(np.shape(offsets))
            return super().axis_factor(offsets, out=out)

        def profile(self, offsets):
            calls.append("profile")
            return super().profile(offsets)

    g = build_grid(2, 0.0, 1.0, [12, 10])
    conv = kernel_convolution(g, Counted(width=0.3))
    rng = np.random.default_rng(43)
    for _ in range(3):
        conv(rng.random(g.shape))
    # one call per axis, on every offset (i - j) h of that axis
    assert calls == [(12, 12), (10, 10)]


def test_kernel_of_neither_form_rejected_when_integrator_is_built():
    """A kernel that is neither separable nor a product of axis factors
    has no once-built convolution: the engine rejects it up front and
    names its type."""
    class PlainKernel:
        def __call__(self, x, y):
            return np.ones(np.broadcast_shapes(np.shape(x)[:-1],
                                               np.shape(y)[:-1]))

    model = dataclasses.replace(
        build_model({"family": "logistic_local",
                     "params": {"r": {"c0": 1.0, "center": [0.5],
                                      "weights": [1.0]},
                                "kernel": {"type": "gaussian"}}}, 1),
        kernel=PlainKernel())
    with pytest.raises(ConfigError, match="kernel of type PlainKernel "):
        ImexIntegrator(_grid1(32), model, SimulationConfig(0.01, 0.01, 1))


# --- snapshot CSV -------------------------------------------------------------

def test_field_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(37)
    g = _grid2(12)
    f = ScalarField(g, rng.standard_normal(g.shape))
    path = tmp_path / "snap.csv"
    write_field_csv(f, path)
    back = read_field_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_csv_header_format(tmp_path):
    g = _grid2(12, lower=0.0, upper=1.0)
    path = tmp_path / "snap.csv"
    write_field_csv(ScalarField(g, np.zeros(g.shape)), path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("# grid dim=2 n=12,12 lower=0,0 upper=1,1")


def test_field_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,1.0\n")
    with pytest.raises(GridError):
        read_field_csv(path)
    # each malformed file names its path and what is wrong, where a raw
    # KeyError or ValueError escaped before
    head = "# grid dim=1 n=8 lower=0 upper=1\n"
    rows = [f"{(i + 0.5) / 8!r},1.5\n" for i in range(8)]
    cases = [
        ("# grid dim=1 lower=0 upper=1\n", rows, "has no n="),
        ("# grid dim=1 n=8 lower=0 upper=1 oops\n", rows,
         "token 'oops' is not key=value"),
        (head, rows[:3], "3 rows for the grid's 8 nodes"),
        (head, rows[:4] + ["0.5625,one\n"] + rows[5:], "unreadable row"),
    ]
    for header, lines, message in cases:
        path.write_text(header + "".join(lines))
        with pytest.raises(GridError, match=f"^{re.escape(str(path))}: .*"
                                            f"{re.escape(message)}"):
            read_field_csv(path)
