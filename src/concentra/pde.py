"""IMEX time integration of the small-mutation population models.

Splitting per step: the stiff reaction term is applied explicitly through an
exponential (positivity-preserving, exact for frozen rates), then diffusion
implicitly by solving (Id - eps dt L) n_new = n_star.

The rate is affine in one macro, R = base + slope * macro, with base and
slope built once per run.  The macro is the scalar m = int w n for the
global model (w = psi) and for a separable kernel phi(x) psi(y)
(w = psi(y)); only a kernel of axis factors has the competition field
C * n as its macro.

The diffusion solve (`diffusion_solve`) is one callable built once per
run: in 1D the once-built inverse G or log-depth scans, which only add and
multiply nonnegative numbers, so every entry is exact to round-off and
none is negative; in 2D a warm-started matrix-free CG on the divide-free
`grid.diffusion_stencil` that allocates nothing and alone checks for
negative density.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import ConcentrationTrajectory
from .diagnostics import MacroSeries, constraint_residual
from .grid import (DensityField, FieldStack, GridError, TraitGrid,
                   axis_sum, boundary_ring_mass, diffusion_stencil,
                   face_coefficients, kernel_convolution, stencil_weights)
from .models import (AssumptionConstants, DiffusionCoefficient,
                     GlobalInteractionModel, LocalCompetitionModel,
                     QuadraticFunction)
from .wkb import WkbField, locate_max, regularity_monitor, to_wkb

CG_RTOL = 1e-10
CG_MAXITER = 2000
# Largest 1D grid that builds G = (Id - eps dt L)^{-1}.  G @ n costs O(n^2)
# per step against the scan's O(n log n).  Whole runs, build included
# (2-vCPU Xeon, OpenBLAS on 1 thread): seconds for G, then for the scan, as
# the range of three rounds' medians, and the alternating pairs the scan won
#   nodes  quadratic_concave, 400 steps     local_logistic, 2500 steps
#   256    0.036-0.052 0.033-0.047 15/21    0.32-0.42 0.34-0.42  5/15
#   288    0.039-0.058 0.045-0.056 15/21    0.41-0.44 0.37-0.43  7/15
#   320    0.047-0.055 0.034-0.044 21/21    0.40-0.46 0.30-0.42 15/15
#   384    0.050-0.067 0.031-0.043 21/21    0.63-0.66 0.50-0.52 15/15
#   448    0.072-0.094 0.038-0.052 21/21
# G ties the scan up to 288 nodes and loses every pair from 320.
GREEN_MAX_NODES = 288
# Bytes of a run's record block: each step's density is kept in it, and
# the other per-step observables are computed one block of
# max(1, RECORD_BLOCK_BYTES // (8 N)) steps at a time on an N-node grid.
# run_simulation in process, as the share of the time of one pass per step,
# then rows per block (2-vCPU Xeon, OpenBLAS on 1 thread, medians of 15-25
# alternations, measured with a second block of psi R n beside it):
#   KiB   local_logistic  quadratic_concave  scenario3_circle  scenario2
#   64    0.62  32        0.81  16           1.22   1          1.11  1
#   128   0.61  64        0.78  32           1.17   1          1.11  1
#   256   0.60 128        0.73  64           0.90   3          1.11  1
#   512   0.60 256        0.72 128           0.82   6          1.04  2
#   1024  0.59 512        0.71 256           0.78  13          1.02  5
# One row a block costs more than a pass per step.  With this one block the
# bench's peak RSS is 31.5 MB on local_logistic and 33.8 MB on scenario2
# (`concentra run`, same machine).
RECORD_BLOCK_BYTES = 512 * 1024
NEGATIVE_CLAMP = 1e-10   # relative tolerance for CG round-off below zero
BOUNDARY_MASS_FRACTION = 1e-8


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class DegenerateInitializationError(ConfigError):
    """Initial density underflowed to zero everywhere."""


class SeriesFormatError(ValueError):
    """A series or trajectory CSV lacks a column or rows it is read for."""


class SolverError(RuntimeError):
    """A time step failed: a PDE reaction overflow or diffusion solve, or a
    canonical ODE that left the domain before its second sample."""


@dataclass
class SimulationConfig:
    epsilon: float
    dt: float
    steps: int
    snapshot_every: int = 0
    mass_target: float = 0.3

    def __post_init__(self):
        for name in ("epsilon", "dt", "mass_target"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not (np.isfinite(v) and v > 0)):
                raise ConfigError(f"{name} must be positive and finite, "
                                  f"got {v!r}")
        for name in ("steps", "snapshot_every"):
            v = getattr(self, name)
            if (isinstance(v, bool) or not isinstance(v, (int, np.integer))
                    or v < 0):
                raise ConfigError(f"{name} must be a nonnegative integer, "
                                  f"got {v!r}")


@dataclass
class SimulationState:
    time: float
    density: DensityField
    macro: object = None     # float sum(w n) vol, or C * n for a Gaussian
    rate: np.ndarray = None  # R on the nodes for this density and macro


# --- initial data -----------------------------------------------------------

def init_density(grid: TraitGrid, u0_spec, epsilon: float,
                 mass_target: float) -> DensityField:
    """Sum of concave quadratic bumps exp(q_k/eps), scaled so the total mass
    in the box equals mass_target exactly (one scalar division)."""
    if mass_target <= 0:
        raise ConfigError(f"mass_target must be positive, got {mass_target}")
    if not u0_spec:
        raise ConfigError("u0_spec must list at least one bump")
    # each bump c0 - sum_j w_j (x_j - c_j)^2, QuadraticFunction.value's
    # operations, summed from its per-axis terms in one row
    raw, row = np.zeros(grid.shape), np.empty(grid.shape)
    for bump in u0_spec:
        q = QuadraticFunction(0.0, bump["center"], bump["weights"])
        axis_sum([(grid.axis_coords(j) - q.center[j]) ** 2 * q.weights[j]
                  for j in range(grid.dimension)], row)
        np.subtract(q.c0, row, out=row)
        row /= epsilon
        raw += np.exp(row, out=row)
    total = raw.sum() * grid.cell_volume
    if total == 0.0:
        raise DegenerateInitializationError(
            "initial density underflowed everywhere; bumps too narrow for "
            "this grid/epsilon")
    raw *= mass_target / total
    return DensityField(grid, raw)


def u0_peaks(u0_spec):
    """Analytic (center, Hessian) of each initial bump of the log density."""
    out = []
    for bump in u0_spec:
        center = np.atleast_1d(np.asarray(bump["center"], dtype=float))
        weights = np.atleast_1d(np.asarray(bump["weights"], dtype=float))
        out.append((center, np.diag(-2.0 * weights)))
    return out


# --- the IMEX engine ----------------------------------------------------------

def _cg(matvec, b, work, rtol, maxiter):
    """Unpreconditioned conjugate gradients for a symmetric positive-definite
    operator, stopping when ||r|| < rtol ||b||.  Operation for operation the
    recurrence of scipy.sparse.linalg.cg (scipy 1.17, atol 0), so the
    iterates are bitwise the same; ||r|| is sqrt(r . r), as np.linalg.norm
    computes it, from the one dot product that is also rho.

    `work` holds five vectors of b's size, (x, r, p, q, tmp), and the solve
    allocates none: x is the initial guess on entry and the solution on
    return, the others are overwritten.  `matvec(v, out)` writes the
    product into `out`; tmp serves only between products, so it may be
    scratch that matvec overwrites.  Returns (x, info): info is 0 on
    convergence and maxiter when the iterations ran out."""
    x, r, p, q, tmp = work
    bnrm2 = np.linalg.norm(b)
    if bnrm2 == 0:
        x[:] = b
        return x, 0
    atol = rtol * bnrm2
    if x.any():
        matvec(x, r)
        np.subtract(b, r, out=r)
    else:
        r[:] = b
    for iteration in range(maxiter):
        rho = np.dot(r, r)
        if np.sqrt(rho) < atol:
            return x, 0
        if iteration:
            p *= rho / rho_prev
            p += r
        else:
            p[:] = r
        matvec(p, q)
        alpha = rho / np.dot(p, q)
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(q, alpha, out=q)
        rho_prev = rho
    return x, maxiter


def _thomas_solver(k: np.ndarray, green: bool):
    """Solver of the tridiagonal M-matrix with off-diagonals -k[i] between
    nodes i and i+1 and unit row sums (diagonal 1 + k[i-1] + k[i], k = 0
    past the ends): the 1D operator Id - eps dt L with k the face weights
    times eps dt / h^2.

    The factors are built once, as Python floats.  The pivots are
    p[i] = q[i] + k[i] with q[0] = 1 and q[i+1] = 1 + k[i] q[i] / p[i], so
    they are sums of positive terms; the multipliers m[i] = k[i] / p[i] and
    the reciprocal pivots are positive too.  The matrix is symmetric, so
    the same m[i] serves the forward elimination y[i+1] = r[i+1] + m[i] y[i]
    and the back substitution x[i] = y[i] / p[i] + m[i] x[i+1].  A solve
    then only adds and multiplies nonnegative numbers: each entry of the
    solution is accurate relative to itself, down to the far tails.

    With `green` the factors build the inverse G once, by the elimination
    on the identity, row by row in one array, and a solve is G @ rhs: every
    entry of G is positive, so the product keeps that accuracy.  Without
    it a solve runs each recurrence as a Hillis-Steele scan: at level
    d = 1, 2, 4, ... every entry takes in the one d places behind it
    (ahead of it, going back) times the product of the d multipliers in
    between, so after ceil(log2 n) levels each entry carries O(log n)
    roundings instead of the sequential sweep's O(n).  The products per
    level are built once per run, and a solve runs in two rows the solver
    owns.  Either form returns a new array, nonnegative with no negative
    zero for a nonnegative rhs, so it needs no clamp."""
    k = k.tolist()
    mult, inv = [], []
    q = 1.0
    for ki in k:
        p = q + ki
        inv.append(1.0 / p)
        mult.append(ki / p)
        q = 1.0 + ki * q / p
    inv_last = 1.0 / q

    if green:
        # row i of g is row i of the forward sweep on the identity, then of
        # the back substitution; column j is the sweep of e_j, bitwise
        g = np.empty((len(k) + 1,) * 2)
        g[0] = 0.0
        g[0, 0] = 1.0
        for i, m in enumerate(mult, 1):
            np.multiply(g[i - 1], m, out=g[i])
            g[i, i] += 1.0
        g[-1] *= inv_last
        for i in reversed(range(len(k))):
            g[i] += k[i] * g[i + 1]
            g[i] *= inv[i]
        return lambda rhs: g @ rhs

    n = len(k) + 1
    inv_pivots = np.array(inv + [inv_last])
    y, tmp = np.empty(n), np.empty(n)
    # per level: the products m[j] ... m[j+d-1], then the views the
    # forward and the backward pass read and write, fixed once
    forward, backward = [], []
    d, prod = 1, np.array(mult)
    while d < n:
        forward.append((prod, y[:-d], tmp[:n - d], y[d:]))
        backward.append((prod, y[d:], tmp[:n - d], y[:-d]))
        prod = prod[:-d] * prod[d:]
        d *= 2

    def scan(levels):
        for prod, src, term, dst in levels:
            np.multiply(prod, src, out=term)
            np.add(dst, term, out=dst)

    def solve(rhs):
        np.copyto(y, rhs)
        scan(forward)
        np.multiply(y, inv_pivots, out=y)
        scan(backward)
        return y.copy()

    return solve


def _aligned_rows(count: int, length: int) -> np.ndarray:
    """`count` float rows of at least `length` entries, each starting on a
    64-byte line (see `grid.diffusion_stencil`)."""
    width = -(-length // 8) * 8
    buf = np.empty(count * width + 7)
    start = (-buf.ctypes.data // 8) % 8
    return buf[start:start + count * width].reshape(count, width)


def _cg_solver(grid: TraitGrid, weights: list):
    """Solver of Id - eps dt L on `grid`: `_cg` on the stencil with
    `weights`, warm-started from the last solution (the first from its
    rhs), in five 64-byte-aligned rows it owns, the fifth over the flux
    row.  A solve returns a new array, round-off below zero clamped; it
    raises SolverError if CG_MAXITER iterations do not converge or the
    minimum is below -NEGATIVE_CLAMP max(peak, 1)."""
    rows = _aligned_rows(5, grid.num_nodes + 7)
    work, flux = rows[:, :grid.num_nodes], rows[4]
    warm = False

    def matvec(v, out=None):
        """(Id - eps dt L) v, flat, into `out` (a new array if None)."""
        return diffusion_stencil(v.reshape(grid.shape), weights, True,
                                 out=out, flux=flux).reshape(-1)

    def solve(rhs):
        nonlocal warm
        if not warm:
            work[0] = rhs
            warm = True
        sol, info = _cg(matvec, rhs, work, CG_RTOL, CG_MAXITER)
        if info != 0:
            res = np.linalg.norm(matvec(sol) - rhs)
            raise SolverError(f"diffusion solve did not converge "
                              f"(info={info}, residual={res:.3e})")
        peak, low = float(sol.max()), float(sol.min())
        if low < -NEGATIVE_CLAMP * max(peak, 1.0):
            raise SolverError(f"diffusion solve produced negative density "
                              f"{low:.3e} (peak {peak:.3e})")
        return np.maximum(sol, 0.0)

    return solve


def diffusion_solve(grid: TraitGrid) -> dict:
    """The implicit diffusion solve `ImexIntegrator` runs on this grid, as a
    run's manifest records it: `green_matrix` (G @ n, 1D up to
    GREEN_MAX_NODES), `tridiagonal` (the factored solve as two log-depth
    scans, larger 1D grids) or `cg` (2D)."""
    if grid.dimension == 2:
        return {"method": "cg", "rtol": CG_RTOL}
    if grid.num_nodes <= GREEN_MAX_NODES:
        return {"method": "green_matrix"}
    return {"method": "tridiagonal"}


class ImexIntegrator:
    """One-step integrator with cached stencil data, a once-built
    competition convolution (a kernel of axis factors) and b = 1 unless
    `b` is given.  Its diffusion solve, the one `diffusion_solve` names,
    is built here as one callable from the rhs to a new density array:
    `_thomas_solver` in 1D, `_cg_solver` in 2D.  The reaction update runs
    in one row the engine owns, and each step's density is a new array."""

    def __init__(self, grid: TraitGrid, model, config: SimulationConfig,
                 b: DiffusionCoefficient = None):
        self.grid = grid
        self.config = config
        # the node table, dropped once the per-run arrays are built
        nodes = grid.nodes()
        self.advisories = []

        # R is affine in the macro, R = base + slope * macro, fixed per run.
        # A scalar macro is m = sum(w n) vol: w = psi and slope = -coef_I
        # (global model), w = psi(y) and slope = -phi(x) (separable kernel);
        # a kernel of axis factors keeps the field C * n, with slope -1.
        self._local = isinstance(model, LocalCompetitionModel)
        self._convolve = None
        if isinstance(model, GlobalInteractionModel):
            self._base = np.asarray(model.rate(nodes, 0.0), dtype=float)
            self._weight, self._slope = model.psi, -model.coef_I
        elif not self._local:
            raise ConfigError(f"unsupported model type "
                              f"{type(model).__name__}")
        else:
            kern = model.kernel
            self._base = np.asarray(model.intrinsic.value(nodes), dtype=float)
            if getattr(kern, "separable", False):
                self._weight, self._slope = kern.psi(nodes), -kern.phi(nodes)
            else:
                self._slope = -1.0
                try:
                    self._convolve = kernel_convolution(grid, kern)
                except GridError as exc:
                    raise ConfigError(str(exc)) from exc
        self._psi = model.psi   # the weight of I and J; 1 for the local model

        self._faces = None
        if b is not None:
            b_nodes = np.asarray(b.value(nodes), dtype=float)
            if np.any(b_nodes <= 0):
                raise ConfigError("diffusion coefficient must be positive "
                                  "on the grid")
            self._faces = face_coefficients(grid, b_nodes)
        del nodes

        weights = stencil_weights(grid, config.epsilon * config.dt,
                                  self._faces)
        method = diffusion_solve(grid)["method"]
        if method == "cg":
            self._solve = _cg_solver(grid, weights)
        else:   # the stencil's weights are the off-diagonals
            k = np.broadcast_to(weights[0], (grid.num_nodes - 1,))
            self._solve = _thomas_solver(k, method == "green_matrix")

    @functools.cached_property
    def _row(self) -> np.ndarray:
        """The flat row, 64-byte aligned, that the reaction update and the
        integrand of J are formed in, allocated at its first use."""
        return _aligned_rows(1, self.grid.num_nodes)[0, :self.grid.num_nodes]

    def macro_of(self, density: DensityField):
        """Macro coupling computed from a density: the float m = sum(w n)
        vol (I of the global model, J = int psi n of a separable kernel),
        or the competition field C * n on the nodes, an array (a kernel of
        axis factors)."""
        if self._convolve is not None:
            return self._convolve(density.values)
        return float((self._weight * density.values).sum()
                     * self.grid.cell_volume)

    def rate_field(self, density: DensityField, macro=None):
        """(R values on nodes, macro used): R = base + slope * macro."""
        if macro is None:
            macro = self.macro_of(density)
        return self._base + self._slope * macro, macro

    def psi_rate_density_sum(self, density: DensityField, rate) -> float:
        """sum(psi R n) over the nodes, J before its factor vol / eps,
        formed in the engine's row: a contiguous row sums as a row of
        `reshape(k, -1).sum(axis=1)` does."""
        row = self._row
        np.multiply(self._psi, rate.reshape(-1), out=row)
        row *= density.values.reshape(-1)
        return row.sum()

    def step(self, state: SimulationState) -> SimulationState:
        cfg = self.config
        n = state.density.values
        rate = state.rate
        if rate is None:
            rate, _ = self.rate_field(state.density, state.macro)

        # sup|R| from the extremes, with no grid of |R|; a nan stays nan
        advisory = (cfg.dt * float(max(rate.max(), -rate.min()))
                    / cfg.epsilon)
        if advisory > 1.0 and not self.advisories:
            self.advisories.append(
                f"dt*sup|R|/eps = {advisory:.3g} > 1: explicit reaction "
                "update may be inaccurate")

        # n * exp(dt * R / eps), operation for operation, in the one row
        n_star = self._row
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(rate.reshape(-1), cfg.dt, out=n_star)
            np.divide(n_star, cfg.epsilon, out=n_star)
            np.exp(n_star, out=n_star)
            np.multiply(n.reshape(-1), n_star, out=n_star)
        # no entry of n_star is negative, so its max (nan if any entry is)
        # is finite exactly when every entry is
        if not math.isfinite(n_star.max()):
            raise SolverError(f"reaction update overflowed: dt*sup|R|/eps = "
                              f"{advisory:.3g}; reduce dt or raise epsilon")
        density = DensityField(self.grid, self._solve(n_star))
        return SimulationState(state.time + cfg.dt, density, None)


# --- full runs ----------------------------------------------------------------

@dataclass
class RunResult:
    series: MacroSeries
    snapshots: dict
    trajectory: ConcentrationTrajectory
    residuals: np.ndarray
    regularity_reports: list
    probe_maxima: dict
    warnings: list
    advisories: list


def run_simulation(config: SimulationConfig, model, grid: TraitGrid, u0_spec,
                   probes=None, b: DiffusionCoefficient = None,
                   constants: AssumptionConstants = None,
                   snapshot=None) -> RunResult:
    """Step the model, recording macro observables and the tracked peak
    every step, snapshots every snapshot_every steps, and regularity
    reports at the probe steps.

    Each snapshot goes to the sink `snapshot(step, density)` at the step
    it is taken.  The default sink keeps them in `RunResult.snapshots`; a
    sink that writes or drops them holds a run's memory to its grid.

    Each step writes its density into one row of a block and the sum of
    psi R n, formed in the engine's row, into J; when the block is full, or
    the run ends, one pass over its rows computes every step's other
    observables (see RECORD_BLOCK_BYTES)."""
    engine = ImexIntegrator(grid, model, config, b=b)
    state = SimulationState(0.0, init_density(grid, u0_spec, config.epsilon,
                                              config.mass_target), None)
    probes = sorted(set(int(p) for p in (probes or [])))
    multi = len(u0_spec) > 1
    consts = constants if constants is not None else AssumptionConstants()

    count, d = config.steps + 1, grid.dimension
    times, Is, rhos, Js, bms = (np.empty(count) for _ in range(5))
    pts, hessians = np.empty((count, d)), np.empty((count, d, d))
    snapshots, reports, probe_maxima = {}, [], {}
    if snapshot is None:
        snapshot = snapshots.__setitem__
    run_warnings = []

    vol = grid.cell_volume
    rows = min(count, max(1, RECORD_BLOCK_BYTES // (8 * grid.num_nodes)))
    dens = (_aligned_rows(rows, grid.num_nodes)[:, :grid.num_nodes]
            .reshape((rows,) + grid.shape))

    def record_block(first, k):
        """The observables of steps first .. first + k - 1, whose densities
        are rows 0 .. k - 1 of the block and whose sums of psi R n are
        already in J."""
        steps = slice(first, first + k)
        n = dens[:k]
        totals = n.reshape(k, -1).sum(axis=1)
        rho = totals * vol
        rhos[steps] = rho
        Js[steps] = Js[steps] * vol / config.epsilon
        if engine._local:
            Is[steps] = rho
        stack = FieldStack(grid, n)
        bm = boundary_ring_mass(stack, totals=totals)
        bms[steps] = bm

        u = to_wkb(stack, config.epsilon, out=n)
        notes = []
        peaks = locate_max(u, multi=multi, notes=notes)
        # a row's highest peak comes first; one peak a row unless multi
        best = (np.searchsorted(peaks.rows, np.arange(k)) if multi
                else slice(None))
        pts[steps] = peaks.points[best]
        hessians[steps] = peaks.hessians[best]

        # one ring-mass warning, at its step, while the list is empty: it
        # comes before that step's boundary notes
        if not run_warnings:
            heavy = np.flatnonzero(bm > BOUNDARY_MASS_FRACTION * rho)
            if heavy.size and (not notes or notes[0][0] >= heavy[0]):
                j = int(heavy[0])
                run_warnings.append(
                    f"boundary ring mass {float(bm[j]):.3e} exceeds "
                    f"{BOUNDARY_MASS_FRACTION:g} of total mass at step "
                    f"{first + j}; box truncation is affecting the run")
        run_warnings.extend(f"step {first + j}: {note}" for j, note in notes)

        for step in (p for p in probes if first <= p < first + k):
            j = step - first
            mine = peaks.rows == j
            probe_maxima[step] = list(zip(peaks.points[mine].tolist(),
                                          peaks.values[mine].tolist()))
            rep = regularity_monitor(
                WkbField(grid, u.values[j], config.epsilon, u.floor_mask[j]),
                consts, time=float(times[step]))
            rep["step"] = step
            reports.append(rep)

    first = 0
    for step in range(count):
        if step:
            state = engine.step(state)
        rate, macro = engine.rate_field(state.density, state.macro)
        state.macro, state.rate = macro, rate
        dens[step - first] = state.density.values
        Js[step] = engine.psi_rate_density_sum(state.density, rate)
        times[step] = state.time
        if not engine._local:
            Is[step] = macro
        if config.snapshot_every and step % config.snapshot_every == 0:
            snapshot(step, state.density)
        if step - first + 1 == rows or step == config.steps:
            record_block(first, step - first + 1)
            first = step + 1

    series = MacroSeries(times, Is, rhos, Js, bms)
    traj = ConcentrationTrajectory(series.times, pts, series.I, hessians,
                                   source="pde")
    residuals = constraint_residual(traj, model)
    return RunResult(series, snapshots, traj, residuals, reports,
                     probe_maxima, run_warnings, list(engine.advisories))


# --- series CSV ---------------------------------------------------------------

# the Hessian entries a series row holds: the upper triangle, H_12 standing
# for both off-diagonal entries
_HESSIAN_ENTRIES = {1: [(0, 0)], 2: [(0, 0), (0, 1), (1, 1)]}


def _series_columns(dimension):
    return (["t", "I", "rho", "J"]
            + [f"xbar_{j + 1}" for j in range(dimension)]
            + [f"H_{i + 1}{j + 1}" for i, j in _HESSIAN_ENTRIES[dimension]]
            + ["residual_R", "boundary_mass"])


def _write_rows(f, columns, prefix: str = "") -> None:
    """Write equal-length columns (1D, or 2D for several) as CSV rows, each
    through one `%` format: 17 significant digits per value, the same text
    as `f"{v:.17g}"` (nan, inf and -0 included).  Rows are converted to
    Python floats 256 at a time: a whole table of them would add megabytes
    to the peak memory of a 10k-step trajectory."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    fmt = prefix.replace("%", "%%") + ",".join(["%.17g"] * width) + "\n"
    for start in range(0, len(columns[0]), 256):
        block = np.column_stack([c[start:start + 256] for c in columns])
        f.writelines(fmt % tuple(row) for row in block.tolist())


def _hess_columns(hessians, dimension):
    return [hessians[:, i, j] for i, j in _HESSIAN_ENTRIES[dimension]]


def write_series_csv(result: RunResult, path) -> None:
    """Per-step observables, one row per time step, 17 significant digits."""
    s = result.series
    traj = result.trajectory
    d = traj.points.shape[1]
    with open(path, "w") as f:
        f.write(",".join(_series_columns(d)) + "\n")
        _write_rows(f, [s.times, s.I, s.rho, s.J, traj.points,
                        *_hess_columns(traj.hessians, d), result.residuals,
                        s.boundary_mass])


def write_trajectory_csv(traj: ConcentrationTrajectory, path,
                         residuals=None, psi: float = 1.0) -> None:
    """Canonical-trajectory CSV: the series schema plus a leading source
    column; rho is the Dirac weight macro / psi (the model's `psi`, 1 for
    the local family) and the fields with no ODE counterpart (J,
    boundary_mass) are nan."""
    d = traj.points.shape[1]
    nan = np.broadcast_to(np.nan, traj.times.shape)
    with open(path, "w") as f:
        f.write("source," + ",".join(_series_columns(d)) + "\n")
        _write_rows(f, [traj.times, traj.macro, traj.macro / psi, nan,
                        traj.points, *_hess_columns(traj.hessians, d),
                        nan if residuals is None else residuals, nan],
                    prefix=traj.source + ",")


def read_trajectory_csv(path) -> ConcentrationTrajectory:
    """Rebuild a trajectory (times, points, macro, Hessians) from a series or
    trajectory CSV; SeriesFormatError names the path and what it lacks."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            rows = [line.strip().split(",") for line in f if line.strip()]
    except UnicodeDecodeError as exc:
        raise SeriesFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    d = 2 if "xbar_2" in header else 1
    names = _series_columns(d)
    for name in names:
        if name not in header:
            raise SeriesFormatError(f"{path}: no column {name!r}")
    if not rows:
        raise SeriesFormatError(f"{path}: no rows")
    cols = [header.index(name) for name in names]
    try:
        data = np.array([[float(r[c]) for c in cols] for r in rows])
    except (IndexError, ValueError) as exc:   # a short or non-numeric row
        raise SeriesFormatError(f"{path}: unreadable row ({exc})") from exc
    x = names.index("xbar_1")
    hess = np.empty((len(rows), d, d))
    for k, (i, j) in enumerate(_HESSIAN_ENTRIES[d], names.index("H_11")):
        hess[:, i, j] = hess[:, j, i] = data[:, k]
    return ConcentrationTrajectory(
        data[:, 0], data[:, x:x + d], data[:, 1], hess,
        source=rows[0][0] if header[0] == "source" else "pde")
