"""Growth laws with analytic derivatives, the assumption audit, constraint
inversion.

Trait points are numpy arrays of shape (..., d); every model method is
vectorized over the leading dimensions.  Models and diffusion coefficients
are frozen data: a growth law is its scalar function families and
constants, and its derivatives are methods over theirs.  A competition
kernel states its own symmetry.  A one-trait model's `on_floats()` gives
its law at one point on Python floats, bitwise equal to the array methods.
`check_assumptions` audits the concavity framework's inequalities on sample
points, each as a margin that is >= 0 where the inequality holds.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

ROOT_TOL = 1e-12          # R(x, 0) this far below zero still roots at I = 0


class ModelError(ValueError):
    """Model evaluation produced an invalid result."""


class ConstraintInfeasibleError(ModelError):
    """R(x, .) has no nonnegative root."""

    def __init__(self, x, r_at_zero, r_at_hi, i_hi):
        self.x = np.asarray(x, dtype=float)
        self.r_at_zero = float(r_at_zero)
        self.r_at_hi = float(r_at_hi)
        super().__init__(
            f"no sign change for R at x={self.x.tolist()}: "
            f"R(x,0)={r_at_zero:.6g}, R(x,{i_hi:.6g})={r_at_hi:.6g}")


class NoPositiveSteadyStateError(ModelError):
    """Local model with r(y) <= 0 has no positive Dirac steady state."""


class PotentialDomainError(ModelError):
    """The log-potential is only defined where r > 0."""


# --- scalar function families --------------------------------------------

class QuadraticFunction:
    """f(x) = c0 - sum_j w_j (x_j - c_j)^2 with analytic derivatives."""

    def __init__(self, c0, center, weights):
        self.c0 = float(c0)
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.weights = np.atleast_1d(np.asarray(weights, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.c0 - ((x - self.center) ** 2 * self.weights).sum(axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return -2.0 * self.weights * (x - self.center)

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        eye = np.diag(2.0 * self.weights)
        return np.broadcast_to(-eye, x.shape + (len(self.weights),)).copy()

    def on_floats(self):
        """(value, grad, hess) of the 1D function on a Python float, with
        the array methods' operations in their order."""
        c0, c, w = self.c0, float(self.center[0]), float(self.weights[0])
        curvature = -(2.0 * w)

        def value(x):
            dx = x - c
            return c0 - dx * dx * w

        return value, lambda x: -2.0 * w * (x - c), lambda x: curvature


class LinearFunction:
    """f(x) = c0 + slope . x with analytic derivatives."""

    def __init__(self, c0, slope):
        self.c0 = float(c0)
        self.slope = np.atleast_1d(np.asarray(slope, dtype=float))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.c0 + (self.slope * x).sum(axis=-1)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(self.slope, x.shape).copy()

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        d = len(self.slope)
        return np.zeros(x.shape[:-1] + (d, d))

    def on_floats(self):
        """(value, grad, hess) of the 1D function on a Python float."""
        c0, s = self.c0, float(self.slope[0])
        return lambda x: c0 + s * x, lambda x: s, lambda x: 0.0


# --- competition kernels ---------------------------------------------------
#
# A kernel's `diagonal` is C(x, x) when that is one constant for every x,
# as it is for an even translation-invariant kernel, whose grad_x C(x, x)
# is then 0; it is None when C(x, x) has to be evaluated at x.  Its
# `symmetric` states C(x, y) = C(y, x), which the Lyapunov and attractor
# theory of the local model needs.

class ConstantKernel:
    separable = True
    symmetric = True

    def __init__(self, value=1.0):
        self.value = float(value)
        self.diagonal = self.value

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
        return np.full(shape, self.value)

    def phi(self, x):
        return np.full(np.asarray(x).shape[:-1], self.value)

    def psi(self, y):
        return np.ones(np.asarray(y).shape[:-1])

    def grad_x(self, x, y):
        return np.zeros(np.asarray(x, dtype=float).shape)

    grad_y = grad_x

    def hess_x(self, x, y):
        d = np.asarray(x).shape[-1]
        return np.zeros(np.asarray(x).shape[:-1] + (d, d))


class GaussianKernel:
    """C(x, y) = floor + amp * exp(-|x-y|^2 / (2 width^2)).

    Translation-invariant, C(x, y) = profile(x - y), and a product over the
    axes: C = floor + amp * prod_a axis_factor(x_a - y_a), which lets the
    competition convolution run as one nonnegative matrix per axis."""

    separable = False
    symmetric = True

    def __init__(self, floor=0.0, amp=1.0, width=1.0):
        self.floor = float(floor)
        self.amp = float(amp)
        self.width = float(width)
        self.diagonal = self.floor + self.amp    # profile(0), bitwise

    def profile(self, offsets):
        s = (np.asarray(offsets, dtype=float) ** 2).sum(axis=-1)
        return self.floor + self.amp * np.exp(-s / (2.0 * self.width ** 2))

    def axis_factor(self, offsets, out=None):
        """exp(-d^2 / (2 width^2)) of each one-axis offset d, written to
        `out` when given (it may be `offsets` itself)."""
        out = np.square(offsets, out=out)
        np.divide(out, -2.0 * self.width ** 2, out=out)
        return np.exp(out, out=out)

    def __call__(self, x, y):
        return self.profile(np.asarray(x, dtype=float)
                            - np.asarray(y, dtype=float))

    def _bump(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        diff = x - y
        s = (diff ** 2).sum(axis=-1)
        return diff, self.amp * np.exp(-s / (2.0 * self.width ** 2))

    def grad_x(self, x, y):
        diff, e = self._bump(x, y)
        return -diff / self.width ** 2 * e[..., None]

    def grad_y(self, x, y):
        return -self.grad_x(x, y)

    def hess_x(self, x, y):
        diff, e = self._bump(x, y)
        d = diff.shape[-1]
        w2 = self.width ** 2
        outer = diff[..., :, None] * diff[..., None, :] / w2 ** 2
        return (outer - np.eye(d) / w2) * e[..., None, None]


class SeparableKernel:
    """Product kernel C(x, y) = phi(x) * psi(y); reduces the local model to
    the global-interaction one.  It is taken as symmetric when phi and psi
    are one family with equal parameters."""

    separable = True
    diagonal = None

    def __init__(self, phi, psi):
        self._phi = phi
        self._psi = psi
        a, b = vars(phi), vars(psi)
        self.symmetric = (type(phi) is type(psi) and a.keys() == b.keys()
                          and all(np.array_equal(a[k], b[k]) for k in a))

    def __call__(self, x, y):
        return self.phi(x) * self.psi(y)

    def phi(self, x):
        return np.asarray(self._phi.value(x), dtype=float)

    def psi(self, y):
        return np.asarray(self._psi.value(y), dtype=float)

    def grad_x(self, x, y):
        return self._phi.grad(x) * self.psi(y)[..., None]

    def grad_y(self, x, y):
        return self.phi(x)[..., None] * self._psi.grad(y)

    def hess_x(self, x, y):
        return self._phi.hess(x) * self.psi(y)[..., None, None]


# --- model types -----------------------------------------------------------

@dataclass(frozen=True)
class GlobalInteractionModel:
    """Growth law R(x, I) = growth(x) - coef_I * I driven by the weighted
    total population I = int psi n, with a constant weight psi > 0.  The
    constraint R = 0 has the closed-form root growth(x) / coef_I."""

    dimension: int
    growth: object      # scalar family with value/grad/hess in x, and
                        # on_floats for a 1D model
    coef_I: float
    psi: float = 1.0
    name: str = ""

    def __post_init__(self):
        if not self.psi > 0:
            raise ModelError(f"weight psi must be positive, got {self.psi}")

    def rate(self, x, I):
        return self.growth.value(x) - self.coef_I * np.asarray(I, dtype=float)

    def grad_x_rate(self, x, I):
        return self.growth.grad(x)

    def hess_x_rate(self, x, I):
        return self.growth.hess(x)

    def d_rate_dI(self, x, I):
        x = np.asarray(x, dtype=float)
        return np.full(np.broadcast_shapes(x.shape[:-1], np.shape(I)),
                       -self.coef_I)

    def multiplier(self, x):
        """The I that puts x on the constraint R(x, I) = 0."""
        return invert_constraint(self, x)

    def on_floats(self):
        """(multiplier, grad_x_rate, hess_x_rate) of a 1D model on Python
        floats, bitwise the array methods' results; the growth family must
        have on_floats."""
        value, grad, hess = self.growth.on_floats()
        return (lambda x: _constraint_root(self, value(x), x),
                lambda x, I: grad(x), lambda x, I: hess(x))


@dataclass(frozen=True)
class LocalCompetitionModel:
    """Growth r(x) minus a competition-kernel convolution.  The growth-law
    methods take the global model's convention with the Dirac weight rho in
    place of I: R(x, rho) = r(x) - rho C(x, x)."""

    dimension: int
    intrinsic: QuadraticFunction
    kernel: object
    name: str = ""

    psi = 1.0   # the weight of I = int psi n, a class attribute, not a field

    def rate(self, x, rho):
        return (np.asarray(self.intrinsic.value(x), dtype=float)
                - rho * np.asarray(self.kernel(x, x), dtype=float))

    def grad_x_rate(self, x, rho):
        g = np.asarray(self.intrinsic.grad(x), dtype=float)
        if self.kernel.diagonal is not None:    # grad_x C(x, x) = 0
            return g
        return g - rho * np.asarray(self.kernel.grad_x(x, x), dtype=float)

    def hess_x_rate(self, x, rho):
        return (np.asarray(self.intrinsic.hess(x), dtype=float)
                - rho * np.asarray(self.kernel.hess_x(x, x), dtype=float))

    def d_rate_dI(self, x, rho):
        return -np.asarray(self.kernel(x, x), dtype=float)

    def multiplier(self, x):
        """Weight max(r, 0) / C(x, x) of the Dirac steady state at x."""
        r = float(self.intrinsic.value(x))
        c = self.kernel.diagonal
        return max(r, 0.0) / (float(self.kernel(x, x)) if c is None else c)

    def on_floats(self):
        """(multiplier, grad_x_rate, hess_x_rate) of a 1D model on Python
        floats, bitwise the array methods' results, or None when C(x, x) is
        not a constant (a separable kernel evaluates it at every point)."""
        c = self.kernel.diagonal
        if c is None:
            return None
        value, grad, hess = self.intrinsic.on_floats()
        zero = np.zeros(1)
        # a constant diagonal makes D2_x C(x, x) one constant too
        c_hess = float(self.kernel.hess_x(zero, zero)[0, 0])

        def multiplier(x):
            r = value(x)
            return (0.0 if 0.0 > r else r) / c   # max(r, 0.0) sans call

        return (multiplier, lambda x, rho: grad(x),
                lambda x, rho: hess(x) - rho * c_hess)


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Mutation coefficient b(x) = base + amp sin(2 pi freq x_axis) > 0;
    amp = 0 is the constant coefficient."""

    base: float
    amp: float = 0.0
    freq: float = 1.0
    axis: int = 0

    def __post_init__(self):
        if not self.b_m > 0:
            raise ModelError(f"diffusion coefficient not uniformly positive: "
                             f"base {self.base} - |amp| {abs(self.amp)} <= 0")

    @property
    def b_m(self):
        return self.base - abs(self.amp)

    @property
    def b_M(self):
        return self.base + abs(self.amp)

    @property
    def third_bound(self):
        """sup |third derivative of b|."""
        return abs(self.amp) * self._k ** 3

    @property
    def _k(self):
        return 2.0 * math.pi * self.freq

    def _phase(self, x):
        return self._k * np.asarray(x, dtype=float)[..., self.axis]

    def value(self, x):
        return self.base + self.amp * np.sin(self._phase(x))

    def grad(self, x):
        g = np.zeros(np.shape(x))
        g[..., self.axis] = self.amp * self._k * np.cos(self._phase(x))
        return g

    def hess_trace(self, x):
        return -self.amp * self._k ** 2 * np.sin(self._phase(x))


def constant_diffusion(value=1.0) -> DiffusionCoefficient:
    return DiffusionCoefficient(float(value))


def sine_diffusion(base=1.0, amp=0.5, freq=1.0, axis=0) -> DiffusionCoefficient:
    return DiffusionCoefficient(base, amp, freq, axis)


# --- assumption constants ---------------------------------------------------

@dataclass
class AssumptionConstants:
    """Named constants of the concavity framework; all optional so partial
    ledgers can still be checked."""

    I_M: Optional[float] = None
    rho_M: Optional[float] = None
    K_bar_0: Optional[float] = None
    K_bar_1: Optional[float] = None
    K_under_1: Optional[float] = None
    K_bar_2: Optional[float] = None
    K_under_2: Optional[float] = None
    K_3: Optional[float] = None
    L_bar_0: Optional[float] = None
    L_bar_1: Optional[float] = None
    L_under_0: Optional[float] = None
    L_under_1: Optional[float] = None
    C_grad_u: Optional[float] = None
    B_1: Optional[float] = None
    B_2: Optional[float] = None
    B_3: Optional[float] = None
    K_bar_1_prime: Optional[float] = None
    K_under_1_prime: Optional[float] = None

    @classmethod
    def from_dict(cls, d: dict) -> "AssumptionConstants":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ModelError(f"unknown assumption constants: {sorted(unknown)}")
        return cls(**d)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


# --- core operations --------------------------------------------------------

def eval_growth(model, x, macro):
    """Per-capita growth rate at trait x.

    For the global model `macro` is the scalar I; for the local model it is
    the evaluated competition integral at x.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(model, GlobalInteractionModel):
        out = np.asarray(model.rate(x, macro), dtype=float)
    else:
        out = np.asarray(model.intrinsic.value(x), dtype=float) - macro
    if not np.all(np.isfinite(out)):
        raise ModelError(f"non-finite growth rate at x={x.tolist()}")
    return out if out.ndim else float(out)


def invert_constraint(model: GlobalInteractionModel, x):
    """The nonnegative root I = g(x) / c of R(x, I) = g(x) - c I = 0."""
    x = np.asarray(x, dtype=float)
    return _constraint_root(model, float(model.growth.value(x)), x)


def _constraint_root(model: GlobalInteractionModel, f0: float, x):
    """invert_constraint given f0 = g(x); x, an array or a 1D point's
    float, only names the point in errors."""
    if not math.isfinite(f0):
        raise ModelError(f"non-finite growth rate at "
                         f"x={np.atleast_1d(x).tolist()}")
    if f0 <= 0.0:
        if f0 < -ROOT_TOL:
            raise ConstraintInfeasibleError(np.atleast_1d(x), f0, f0, 0.0)
        return 0.0
    if not model.coef_I > 0.0:   # R(x, I) >= g(x) > 0 at every I
        raise ConstraintInfeasibleError(np.atleast_1d(x), f0, f0, math.inf)
    return f0 / model.coef_I


def steady_state_weight(model, y):
    """Weight of the Dirac steady state at trait y."""
    y = np.asarray(y, dtype=float)
    if isinstance(model, GlobalInteractionModel):
        return invert_constraint(model, y) / model.psi
    r = float(model.intrinsic.value(y))
    if r <= 0:
        raise NoPositiveSteadyStateError(
            f"r(y)={r:.6g} <= 0 at y={y.tolist()}: no positive steady state")
    return r / float(model.kernel(y, y))


def phi_potential(model: LocalCompetitionModel, x):
    """Log-potential ln r(x) - ln C(x, x); its maximizer is the long-time
    rest point of the local canonical dynamics."""
    x = np.asarray(x, dtype=float)
    r = np.asarray(model.intrinsic.value(x), dtype=float)
    if np.any(r <= 0):
        raise PotentialDomainError(
            "potential undefined where r <= 0 "
            f"(min r = {r.min():.6g})")
    c = np.asarray(model.kernel(x, x), dtype=float)
    out = np.log(r) - np.log(c)
    return out if out.ndim else float(out)


# --- assumption checking -----------------------------------------------------

SAMPLE_TOL = 1e-12   # round-off a sampled inequality may fall short by


@dataclass
class CheckResult:
    name: str
    passed: Optional[bool]           # None = not checkable with given inputs
    margin: Optional[float] = None   # >= 0 means satisfied
    worst_point: Optional[list] = None
    detail: str = ""


@dataclass
class AssumptionReport:
    checks: list

    @property
    def warnings(self):
        """Names of the failed checks: the 'outside concave framework' list."""
        return [c.name for c in self.checks if c.passed is False]

    @property
    def all_passed(self):
        return all(c.passed is not False for c in self.checks)

    def to_dict(self):
        return {"checks": [asdict(c) for c in self.checks],
                "outside_concave_framework": self.warnings,
                "all_passed": self.all_passed}


def _sample_box(domain, per_axis):
    lower, upper = (np.atleast_1d(np.asarray(v, dtype=float)) for v in domain)
    axes = [np.linspace(lower[j], upper[j], per_axis) for j in range(len(lower))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(lower))


def _eig_bracket(k_under, k_bar, mats, upper_mats=None):
    """Margin of -2 k_under <= eig <= -2 k_bar at each point: the least
    eigenvalue of `mats` against the lower end, the greatest of
    `upper_mats` (default `mats`) against the upper."""
    ev = np.linalg.eigvalsh(mats)
    ev_hi = ev if upper_mats is None else np.linalg.eigvalsh(upper_mats)
    return np.minimum(ev.min(axis=-1) + 2.0 * k_under,
                      -2.0 * k_bar - ev_hi.max(axis=-1))


def _chain(l_bar, k_bar, k_under, l_under):
    """Margin of 4 l_bar^2 <= k_bar <= k_under <= 4 l_under^2."""
    return min(k_bar - 4.0 * l_bar ** 2, k_under - k_bar,
               4.0 * l_under ** 2 - k_under)


def check_assumptions(model, constants: AssumptionConstants, domain,
                      samples: int = 256, b: DiffusionCoefficient = None,
                      u0=None) -> AssumptionReport:
    """Sampled audit of the concavity-framework inequalities.

    Advisory only: a failing check never aborts a simulation, it lands on the
    'outside concave framework' warning list.  `u0` may supply callables
    value/hess for the initial-data checks.
    """
    checks = []

    def record(name, margins, points=None, detail="", floor=-SAMPLE_TOL,
               positive=False):
        """Record the least of `margins`, an array whose last axis runs over
        the rows of `points` (a number when points is None), the point where
        it occurs, and whether it is > 0 (`positive`) or >= `floor`."""
        margins = np.asarray(margins, dtype=float)
        k = int(np.argmin(margins))
        m = float(margins.flat[k])
        worst = (None if points is None
                 else list(points[np.unravel_index(k, margins.shape)[-1]]))
        passed = m > 0 if positive else m >= floor
        checks.append(CheckResult(name, bool(passed), m, worst, detail))

    c = constants
    dim = model.dimension
    per_axis = max(2, int(round(samples ** (1.0 / dim))) if dim == 2 else samples)
    pts = _sample_box(domain, per_axis)
    norms2 = (pts ** 2).sum(axis=-1)

    if isinstance(model, GlobalInteractionModel):
        psi = float(model.psi)
        record("weight_bounds(7)", [psi], pts,
               f"psi in [{psi:.6g}, {psi:.6g}]", positive=True)

        if c.I_M is not None:
            r_at_im = np.asarray(model.rate(pts, c.I_M), dtype=float)
            k = int(np.argmax(r_at_im))
            top = float(r_at_im[k])
            record("normalization(8)", [-abs(top)], pts[k:k + 1],
                   f"max R(x, I_M) = {top:.6g}", floor=-1e-3)

        if None not in (c.K_bar_0, c.K_bar_1, c.K_under_1):
            i_grid = (np.linspace(0.0, c.I_M, 9) if c.I_M
                      else np.array([0.0]))
            r = np.asarray(model.rate(pts, i_grid[:, None]), dtype=float)
            record("quadratic_envelope(8b)",
                   np.minimum(r + c.K_under_1 * norms2,
                              c.K_bar_0 - c.K_bar_1 * norms2 - r), pts)

        # D2R and dR/dI of R = g(x) - coef_I I do not depend on I
        hess = np.asarray(model.hess_x_rate(pts, 0.0), dtype=float)
        if None not in (c.K_bar_1, c.K_under_1):
            record("hessian_bounds(9)",
                   _eig_bracket(c.K_under_1, c.K_bar_1, hess), pts,
                   "requires -2K_under_1 <= D2R <= -2K_bar_1 < 0")

        if None not in (c.K_bar_2, c.K_under_2):
            di = np.asarray(model.d_rate_dI(pts, 0.0), dtype=float)
            record("I_monotonicity(10)",
                   np.minimum(di + c.K_under_2, -c.K_bar_2 - di), pts)

        if c.K_3 is not None:
            record("laplacian_psi_R(10b)",
                   np.trace(hess, axis1=-2, axis2=-1) * psi + c.K_3, pts)

        chain = (c.L_bar_1, c.K_bar_1, c.K_under_1, c.L_under_1)
        if None not in chain:
            record("compatibility(17)", _chain(*chain),
                   detail="4 Lbar1^2 <= Kbar1 <= Kunder1 <= 4 Lunder1^2",
                   floor=0.0)

    else:  # local competition
        record("kernel_diag_positive(50)", model.kernel(pts, pts), pts,
               positive=True)

        if c.rho_M is not None:
            coarse = _sample_box(domain, min(per_axis, 24))
            r_x = np.asarray(model.intrinsic.value(coarse), dtype=float)
            cxy = np.asarray(model.kernel(coarse[:, None, :],
                                          coarse[None, :, :]), dtype=float)
            record("competition_dominance(51)",
                   (cxy - r_x[:, None] / c.rho_M).min(axis=1), coarse,
                   "pointwise sufficient condition C(x,y) >= r(x)/rho_M")

            if None not in (c.K_bar_1_prime, c.K_under_1_prime):
                hr = np.asarray(model.intrinsic.hess(pts), dtype=float)
                hc = np.asarray(model.kernel.hess_x(pts[:, None, :],
                                                    coarse[None, :, :]),
                                dtype=float)
                sup_pos = np.maximum(hc, 0.0).max(axis=1)
                sup_neg = np.minimum(hc, 0.0).max(axis=1)
                record("local_concavity(52)",
                       _eig_bracket(c.K_under_1_prime, c.K_bar_1_prime,
                                    hr - c.rho_M * sup_pos,
                                    hr + c.rho_M * sup_neg), pts)

        chain = (c.L_bar_1, c.K_bar_1_prime, c.K_under_1_prime, c.L_under_1)
        if None not in chain:
            record("compatibility(57)", _chain(*chain), floor=0.0)

    if u0 is not None and None not in (c.L_bar_0, c.L_bar_1, c.L_under_0,
                                       c.L_under_1):
        uv = np.asarray(u0.value(pts), dtype=float)
        record("initial_envelope(13)",
               np.minimum(uv + c.L_under_0 + c.L_under_1 * norms2,
                          c.L_bar_0 - c.L_bar_1 * norms2 - uv), pts)
        record("initial_concavity(14)",
               _eig_bracket(c.L_under_1, c.L_bar_1,
                            np.asarray(u0.hess(pts), dtype=float)), pts)

    if b is not None:
        bv = np.asarray(b.value(pts), dtype=float)
        record("diffusion_bounds(31)", bv, pts,
               f"b in [{bv.min():.6g}, {bv.max():.6g}]", positive=True)
        radial = 1.0 + np.sqrt(norms2)
        if c.B_1 is not None:
            gn = np.linalg.norm(np.asarray(b.grad(pts), dtype=float), axis=-1)
            record("diffusion_gradient(31b)", c.B_1 / radial - gn, pts)
        if c.B_2 is not None:
            tr = np.abs(np.asarray(b.hess_trace(pts), dtype=float))
            record("diffusion_hess_trace(31c)", c.B_2 / radial ** 2 - tr, pts)
        if c.B_3 is not None:
            record("diffusion_third(31d)", c.B_3 - b.third_bound, floor=0.0)
        if None not in (c.B_2, c.C_grad_u, c.K_bar_1):
            record("diffusion_compatibility(34)",
                   2.0 * c.K_bar_1 - c.B_2 * c.C_grad_u ** 2,
                   detail="B2 Cgrad^2 - 2 Kbar1 < 0", positive=True)

    return AssumptionReport(checks)


# --- registry of built-in families ------------------------------------------

def build_affine_global(params, dimension):
    slope = np.asarray(params.get("slope", [1.0] * dimension), dtype=float)
    g = LinearFunction(params.get("a", 2.0), -slope)
    return GlobalInteractionModel(dimension, g,
                                  float(params.get("coef_I", 1.0)),
                                  float(params.get("psi", 1.0)),
                                  "affine_global")


def build_quadratic_global(params, dimension):
    g = QuadraticFunction(params.get("k0", 1.0),
                          params.get("center", [0.0] * dimension),
                          params.get("weights", [1.0] * dimension))
    return GlobalInteractionModel(dimension, g,
                                  float(params.get("coef_I", 1.0)),
                                  float(params.get("psi", 1.0)),
                                  "quadratic_global")


class _Scenario2Growth:
    """g(x, y) = a + cy (y - y0)_+^2 + cx (x - x0)."""

    def __init__(self, a, cy, cx, x0, y0):
        self.a, self.cy, self.cx = float(a), float(cy), float(cx)
        self.x0, self.y0 = float(x0), float(y0)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        yp = np.maximum(x[..., 1] - self.y0, 0.0)
        return self.a + self.cy * yp ** 2 + self.cx * (x[..., 0] - self.x0)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        g = np.empty(x.shape)
        g[..., 0] = self.cx
        g[..., 1] = 2.0 * self.cy * np.maximum(x[..., 1] - self.y0, 0.0)
        return g

    def hess(self, x):
        x = np.asarray(x, dtype=float)
        h = np.zeros(x.shape[:-1] + (2, 2))
        h[..., 1, 1] = 2.0 * self.cy * (x[..., 1] > self.y0)
        return h


def build_scenario2(params, dimension):
    """R = 0.9 - I + 5 (y - 0.3)_+^2 + 2.3 (x - 0.3) on the plane."""
    if dimension != 2:
        raise ModelError("this growth law is two-dimensional")
    g = _Scenario2Growth(params.get("a", 0.9), params.get("cy", 5.0),
                         params.get("cx", 2.3), params.get("x0", 0.3),
                         params.get("y0", 0.3))
    return GlobalInteractionModel(2, g, 1.0, float(params.get("psi", 1.0)),
                                  "scenario2")


def build_scenario3(params, dimension):
    """R = 3 - 1.5 I + 5.6 (y^2 + R_e x^2); R_e breaks the circular symmetry."""
    if dimension != 2:
        raise ModelError("this growth law is two-dimensional")
    k = float(params.get("k", 5.6))
    g = QuadraticFunction(params.get("a", 3.0), [0.0, 0.0],
                          [-k * float(params.get("r_e", 1.0)), -k])
    return GlobalInteractionModel(2, g, float(params.get("coef_I", 1.5)),
                                  float(params.get("psi", 1.0)), "scenario3")


def _quadratic(spec, dimension):
    return QuadraticFunction(spec.get("c0", 1.0),
                             spec.get("center", [0.0] * dimension),
                             spec.get("weights", [1.0] * dimension))


def _build_kernel(spec, dimension):
    if spec is None:
        return ConstantKernel(1.0)
    kind = spec.get("type", "constant")
    if kind == "constant":
        return ConstantKernel(spec.get("value", 1.0))
    if kind == "gaussian":
        return GaussianKernel(floor=spec.get("floor", 0.0),
                              amp=spec.get("amp", 1.0),
                              width=spec.get("width", 1.0))
    return SeparableKernel(_quadratic(spec.get("phi", {}), dimension),
                           _quadratic(spec.get("psi", {}), dimension))


def build_logistic_local(params, dimension):
    r = _quadratic(params.get("r", {}), dimension)
    kernel = _build_kernel(params.get("kernel"), dimension)
    return LocalCompetitionModel(dimension, r, kernel, "logistic_local")


@dataclass(frozen=True)
class Required:
    """Spec of a key that an object must hold."""

    spec: object


@dataclass(frozen=True)
class PerAxis:
    """Spec of a list of one `entry` per trait axis; with `broadcast`, one
    bare entry also stands for every axis."""

    entry: object
    broadcast: bool = False


# A spec, checked by check_spec, states what a JSON value may be:
# - a kind of _KINDS;
# - a tuple of the values it may take;
# - [entry], a list of values of the spec `entry`; [entry, ...] holds one
#   or more;
# - a PerAxis, or Required around any spec (for an object's key);
# - a dict mapping each key an object reads to its spec; a dict whose one
#   key is "type" maps each type to the spec of an object of that type
#   ("constant" when the object names none).
_VECTOR = PerAxis("number")
_QUADRATIC = {"c0": "number", "center": _VECTOR, "weights": _VECTOR}
_KERNEL = {"type": {"constant": {"value": "number"},
                    "gaussian": {"floor": "nonnegative", "amp": "positive",
                                 "width": "positive"},
                    "separable": {"phi": _QUADRATIC, "psi": _QUADRATIC}}}

# family -> (builder, spec of the params it reads)
MODEL_FAMILIES = {
    "affine_global": (build_affine_global,
                      {"a": "number", "slope": _VECTOR, "coef_I": "number",
                       "psi": "number"}),
    "quadratic_global": (build_quadratic_global,
                         {"k0": "number", "center": _VECTOR,
                          "weights": _VECTOR, "coef_I": "positive",
                          "psi": "number"}),
    "scenario2": (build_scenario2,
                  {"a": "number", "cy": "number", "cx": "number",
                   "x0": "number", "y0": "number", "psi": "number"}),
    "scenario3": (build_scenario3,
                  {"a": "number", "k": "number", "r_e": "number",
                   "coef_I": "number", "psi": "number"}),
    "logistic_local": (build_logistic_local,
                       {"r": _QUADRATIC, "kernel": _KERNEL}),
}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def is_finite_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


# kind -> (test of a value in `dimension` traits, what a value of it is)
_KINDS = {
    "number": (lambda v, d: is_finite_number(v), "a finite number"),
    "positive": (lambda v, d: is_finite_number(v) and v > 0,
                 "a positive finite number"),
    "nonnegative": (lambda v, d: is_finite_number(v) and v >= 0,
                    "a nonnegative finite number"),
    "count": (lambda v, d: _is_int(v) and v >= 0, "a nonnegative integer"),
    "positive count": (lambda v, d: _is_int(v) and v > 0,
                       "a positive integer"),
    "axis": (lambda v, d: _is_int(v) and 0 <= v < d, "an integer in [0, {d})"),
    "text": (lambda v, d: isinstance(v, str), "a string"),
    "object": (lambda v, d: isinstance(v, dict),   # checked where it is read
               "an object"),
}


# the repr of an offending value in a message: deep nesting, long lists and
# long strings are cut short with '...'
_SHORT = reprlib.Repr()
_SHORT.maxlevel, _SHORT.maxstring, _SHORT.maxother = 3, 60, 60


def check_spec(value, spec, dimension, path):
    """Raise ModelError naming the first entry of `value`, found at `path`,
    that `spec` does not allow."""
    if isinstance(spec, Required):
        spec = spec.spec
    if isinstance(spec, PerAxis):
        if spec.broadcast and not isinstance(value, (list, tuple)):
            spec = spec.entry
        elif not (isinstance(value, (list, tuple))
                  and len(value) == dimension):
            raise ModelError(f"field {path} must be a list of length "
                             f"{dimension}, got {_SHORT.repr(value)}")
        else:
            spec = [spec.entry]
    if isinstance(spec, str):
        test, what = _KINDS[spec]
        if not test(value, dimension):
            raise ModelError(f"field {path} must be "
                             f"{what.format(d=dimension)}, "
                             f"got {_SHORT.repr(value)}")
    elif isinstance(spec, tuple):
        if value not in spec:
            raise ModelError(f"field {path} must be one of {sorted(spec)}, "
                             f"got {_SHORT.repr(value)}")
    elif isinstance(spec, list):
        if not (isinstance(value, (list, tuple))
                and len(value) >= len(spec) - 1):   # 1 for [entry, ...]
            raise ModelError(f"field {path} must be a list of "
                             f"{'one or more ' if len(spec) > 1 else ''}"
                             f"entries, got {_SHORT.repr(value)}")
        for k, v in enumerate(value):
            check_spec(v, spec[0], dimension, f"{path}[{k}]")
    else:
        if not isinstance(value, dict):
            raise ModelError(f"field {path} must be an object, "
                             f"got {_SHORT.repr(value)}")
        if "type" in spec:
            kind = value.get("type", "constant")
            check_spec(kind, tuple(spec["type"]), dimension, f"{path}.type")
            spec = spec["type"][kind]
            value = {k: v for k, v in value.items() if k != "type"}
        for key, v in value.items():
            if key not in spec:
                raise ModelError(f"field {path}.{key} is not read; the keys "
                                 f"read are {sorted(spec)}")
            check_spec(v, spec[key], dimension, f"{path}.{key}")
        for key, v in spec.items():
            if isinstance(v, Required) and key not in value:
                raise ModelError(f"missing field {path}.{key}")


def build_model(spec: dict, dimension: int):
    family = spec.get("family")
    if family not in MODEL_FAMILIES:
        raise ModelError(f"unknown model family {family!r}; "
                         f"known: {sorted(MODEL_FAMILIES)}")
    build, params_spec = MODEL_FAMILIES[family]
    params = spec.get("params", {})
    check_spec(params, params_spec, dimension, "$.model.params")
    return build(params, dimension)
