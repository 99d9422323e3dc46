"""Growth laws with analytic derivatives, assumption ledger, constraint inversion.

Trait points are numpy arrays of shape (..., d); every model callable is
vectorized over the leading dimensions.  Models are plain data + callables
and are never mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

ROOT_TOL = 1e-12          # absolute tolerance for constraint inversion
I_HI_MARGIN = 1.1         # bracket constraint roots up to I_M * (1 + 0.1)


class ModelError(ValueError):
    """Model evaluation produced an invalid result."""


class ConstraintInfeasibleError(ModelError):
    """R(x, .) has no nonnegative root in the bracket."""

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

    def __call__(self, x):
        return self.value(x)

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


class ConstantWeight:
    """psi(x) = const > 0."""

    def __init__(self, value=1.0):
        if value <= 0:
            raise ModelError(f"weight must be positive, got {value}")
        self.psi_m = self.psi_M = float(value)
        self.constant = True

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape[:-1], self.psi_m)


# --- competition kernels ---------------------------------------------------

class ConstantKernel:
    separable = True

    def __init__(self, value=1.0):
        self.value = float(value)

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

    Translation-invariant: C(x, y) = profile(x - y), which lets the
    competition convolution run as an FFT."""

    separable = False

    def __init__(self, floor=0.0, amp=1.0, width=1.0):
        self.floor = float(floor)
        self.amp = float(amp)
        self.width = float(width)

    def profile(self, offsets):
        s = (np.asarray(offsets, dtype=float) ** 2).sum(axis=-1)
        return self.floor + self.amp * np.exp(-s / (2.0 * self.width ** 2))

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
    the global-interaction one."""

    separable = True

    def __init__(self, phi, psi):
        self._phi = phi
        self._psi = psi

    def __call__(self, x, y):
        return self.phi(x) * self.psi(y)

    def phi(self, x):
        return np.asarray(self._phi.value(x) if hasattr(self._phi, "value")
                          else self._phi(x), dtype=float)

    def psi(self, y):
        return np.asarray(self._psi.value(y) if hasattr(self._psi, "value")
                          else self._psi(y), dtype=float)

    def _phi_grad(self, x):
        if hasattr(self._phi, "grad"):
            return self._phi.grad(x)
        return _fd_grad(lambda z: self.phi(z), x)

    def _psi_grad(self, y):
        if hasattr(self._psi, "grad"):
            return self._psi.grad(y)
        return _fd_grad(lambda z: self.psi(z), y)

    def grad_x(self, x, y):
        return self._phi_grad(x) * self.psi(y)[..., None]

    def grad_y(self, x, y):
        return self.phi(x)[..., None] * self._psi_grad(y)

    def hess_x(self, x, y):
        if hasattr(self._phi, "hess"):
            h = self._phi.hess(x)
        else:
            h = _fd_hess(lambda z: self.phi(z), x)
        return h * self.psi(y)[..., None, None]


# --- finite-difference fallback for user-supplied rates --------------------

def _fd_step(x):
    return 1e-5 * (1.0 + np.linalg.norm(np.asarray(x, dtype=float), axis=-1,
                                        keepdims=True))


def _fd_grad(f, x):
    x = np.asarray(x, dtype=float)
    h = _fd_step(x)
    g = np.empty(x.shape)
    for j in range(x.shape[-1]):
        e = np.zeros(x.shape[-1])
        e[j] = 1.0
        g[..., j] = (f(x + h * e) - f(x - h * e)) / (2.0 * h[..., 0])
    return g


def _fd_hess(f, x):
    x = np.asarray(x, dtype=float)
    d = x.shape[-1]
    h = _fd_step(x)[..., 0]
    out = np.empty(x.shape[:-1] + (d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = 1.0
        out[..., i, i] = (f(x + h[..., None] * ei) - 2.0 * f0
                          + f(x - h[..., None] * ei)) / h ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = 1.0
            hp = h[..., None]
            mixed = (f(x + hp * (ei + ej)) - f(x + hp * (ei - ej))
                     - f(x - hp * (ei - ej)) + f(x - hp * (ei + ej))) / (4.0 * h ** 2)
            out[..., i, j] = mixed
            out[..., j, i] = mixed
    return out


# --- model types -----------------------------------------------------------

@dataclass(frozen=True)
class GlobalInteractionModel:
    """Growth law R(x, I) driven by the weighted total population I.

    `growth` and `coef_I` are set when R = growth(x) - coef_I * I; the
    constraint R = 0 is then solved in closed form.
    """

    dimension: int
    rate: Callable
    grad_x_rate: Callable
    hess_x_rate: Callable
    d_rate_dI: Callable
    weight: ConstantWeight
    I_M: Optional[float] = None
    name: str = ""
    growth: object = None
    coef_I: Optional[float] = None

    def multiplier(self, x):
        """The I that puts x on the constraint R(x, I) = 0."""
        return invert_constraint(self, x)


@dataclass(frozen=True)
class LocalCompetitionModel:
    """Growth r(x) minus a competition-kernel convolution.  The growth-law
    methods take the global model's convention with the Dirac weight rho in
    place of I: R(x, rho) = r(x) - rho C(x, x)."""

    dimension: int
    intrinsic: QuadraticFunction
    kernel: object
    symmetric: bool = True
    name: str = ""

    def rate(self, x, rho):
        return (np.asarray(self.intrinsic.value(x), dtype=float)
                - rho * np.asarray(self.kernel(x, x), dtype=float))

    def grad_x_rate(self, x, rho):
        return (np.asarray(self.intrinsic.grad(x), dtype=float)
                - rho * np.asarray(self.kernel.grad_x(x, x), dtype=float))

    def hess_x_rate(self, x, rho):
        return (np.asarray(self.intrinsic.hess(x), dtype=float)
                - rho * np.asarray(self.kernel.hess_x(x, x), dtype=float))

    def multiplier(self, x):
        """Weight max(r, 0) / C(x, x) of the Dirac steady state at x."""
        r = float(self.intrinsic.value(x))
        return max(r, 0.0) / float(self.kernel(x, x))


@dataclass(frozen=True)
class DiffusionCoefficient:
    """Trait-dependent mutation coefficient b(x) > 0."""

    value: Callable
    grad: Callable
    hess_trace: Callable
    third_bound: float = 0.0
    constant: bool = False
    b_m: Optional[float] = None
    b_M: Optional[float] = None
    name: str = ""


def constant_diffusion(value=1.0) -> DiffusionCoefficient:
    v = float(value)
    if v <= 0:
        raise ModelError(f"diffusion coefficient must be positive, got {value}")

    def val(x):
        return np.full(np.asarray(x).shape[:-1], v)

    def grad(x):
        return np.zeros(np.asarray(x).shape)

    def tr(x):
        return np.zeros(np.asarray(x).shape[:-1])

    return DiffusionCoefficient(val, grad, tr, 0.0, True, v, v, "constant")


def sine_diffusion(base=1.0, amp=0.5, freq=1.0, axis=0) -> DiffusionCoefficient:
    """b(x) = base + amp * sin(2 pi freq x_axis)."""
    if base - abs(amp) <= 0:
        raise ModelError("sine diffusion coefficient not uniformly positive")
    k = 2.0 * math.pi * freq

    def val(x):
        x = np.asarray(x, dtype=float)
        return base + amp * np.sin(k * x[..., axis])

    def grad(x):
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape)
        g[..., axis] = amp * k * np.cos(k * x[..., axis])
        return g

    def tr(x):
        x = np.asarray(x, dtype=float)
        return -amp * k ** 2 * np.sin(k * x[..., axis])

    return DiffusionCoefficient(val, grad, tr, abs(amp) * k ** 3, False,
                                base - abs(amp), base + abs(amp), "sine")


# --- assumption constants ---------------------------------------------------

@dataclass
class AssumptionConstants:
    """Named constants of the concavity framework; all optional so partial
    ledgers can still be checked."""

    I_M: Optional[float] = None
    I_0: Optional[float] = None
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
    K_bar_b: Optional[float] = None
    K_under_b: Optional[float] = None
    K_bar_1_prime: Optional[float] = None
    K_under_1_prime: Optional[float] = None
    K_bar_0_prime: Optional[float] = None

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
    """Solve R(x, I) = 0 for the unique nonnegative root.

    When R = g(x) - c I (every built-in family) the root is g(x) / c.  Other
    rates are bracketed by bisection, then a Newton polish using dR/dI drives
    the residual below ROOT_TOL.
    """
    x = np.asarray(x, dtype=float)
    closed_form = model.growth is not None

    def f(i):
        return float(model.rate(x, i))

    def df(i):
        return float(model.d_rate_dI(x, i))

    f0 = float(model.growth.value(x)) if closed_form else f(0.0)
    if not math.isfinite(f0):
        raise ModelError(f"non-finite growth rate at x={x.tolist()}")
    if f0 <= 0.0:
        if f0 < -ROOT_TOL:
            raise ConstraintInfeasibleError(x, f0, f0, 0.0)
        return 0.0
    if closed_form:
        if not model.coef_I > 0.0:   # R(x, I) >= g(x) > 0 at every I
            raise ConstraintInfeasibleError(x, f0, f0, math.inf)
        return f0 / model.coef_I

    if model.I_M is not None:
        i_hi = I_HI_MARGIN * model.I_M
    else:
        i_hi = 1.0
        for _ in range(60):
            if f(i_hi) < 0.0:
                break
            i_hi *= 2.0
    fh = f(i_hi)
    if fh > 0.0:
        raise ConstraintInfeasibleError(x, f0, fh, i_hi)

    lo, hi = 0.0, float(i_hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-8:
            break
    i = 0.5 * (lo + hi)
    for _ in range(60):
        fi = f(i)
        if abs(fi) <= ROOT_TOL:
            return max(i, 0.0)
        i = min(max(i - fi / df(i), lo), hi)
    raise ModelError(f"constraint inversion stalled at x={x.tolist()}, "
                     f"residual {f(i):.3e}")


def steady_state_weight(model, y):
    """Weight of the Dirac steady state at trait y."""
    y = np.asarray(y, dtype=float)
    if isinstance(model, GlobalInteractionModel):
        i_bar = invert_constraint(model, y)
        psi = float(model.weight(y))
        if psi <= 0:
            raise ModelError(f"weight not positive at y={y.tolist()}")
        return i_bar / psi
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

@dataclass
class CheckResult:
    name: str
    passed: Optional[bool]           # None = not checkable with given inputs
    margin: Optional[float] = None   # >= 0 means satisfied
    worst_point: Optional[list] = None
    detail: str = ""

    def to_dict(self):
        return {"name": self.name, "passed": self.passed,
                "margin": self.margin, "worst_point": self.worst_point,
                "detail": self.detail}


@dataclass
class AssumptionReport:
    checks: list
    warnings: list

    @property
    def all_passed(self):
        return all(c.passed is not False for c in self.checks)

    def to_dict(self):
        return {"checks": [c.to_dict() for c in self.checks],
                "outside_concave_framework": self.warnings,
                "all_passed": self.all_passed}


def _sample_box(domain, per_axis):
    lower, upper = (np.atleast_1d(np.asarray(v, dtype=float)) for v in domain)
    axes = [np.linspace(lower[j], upper[j], per_axis) for j in range(len(lower))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(lower))


def _record(checks, warnings, name, passed, margin, worst, detail=""):
    checks.append(CheckResult(name, passed, margin,
                              None if worst is None else list(np.atleast_1d(worst))
                              , detail))
    if passed is False:
        warnings.append(name)


def _min_where(values, points):
    k = int(np.argmin(values))
    return float(values[k]), points[k]


def check_assumptions(model, constants: AssumptionConstants, domain,
                      samples: int = 256, b: DiffusionCoefficient = None,
                      u0=None) -> AssumptionReport:
    """Sampled audit of the concavity-framework inequalities.

    Advisory only: a failing check never aborts a simulation, it lands on the
    'outside concave framework' warning list.  `u0` may supply callables
    value/hess for the initial-data checks.
    """
    checks, warnings = [], []
    c = constants
    dim = model.dimension
    per_axis = max(2, int(round(samples ** (1.0 / dim))) if dim == 2 else samples)
    pts = _sample_box(domain, per_axis)
    norms2 = (pts ** 2).sum(axis=-1)

    if isinstance(model, GlobalInteractionModel):
        i_grid = (np.linspace(0.0, c.I_M, 9) if c.I_M else np.array([0.0]))

        psi = np.asarray(model.weight(pts), dtype=float)
        m = float(psi.min())
        _record(checks, warnings, "weight_bounds(7)", bool(m > 0), m,
                pts[int(np.argmin(psi))],
                f"psi in [{m:.6g}, {psi.max():.6g}]")

        if c.I_M is not None:
            r_at_im = np.asarray(model.rate(pts, c.I_M), dtype=float)
            top = float(r_at_im.max())
            _record(checks, warnings, "normalization(8)",
                    bool(abs(top) <= 1e-3), -abs(top),
                    pts[int(np.argmax(r_at_im))],
                    f"max R(x, I_M) = {top:.6g}")

        if c.K_bar_0 is not None and c.K_bar_1 is not None and c.K_under_1 is not None:
            worst_m, worst_pt = math.inf, None
            for i_val in i_grid:
                r = np.asarray(model.rate(pts, i_val), dtype=float)
                lo_m = r + c.K_under_1 * norms2
                up_m = c.K_bar_0 - c.K_bar_1 * norms2 - r
                marg = np.minimum(lo_m, up_m)
                mm, mp = _min_where(marg, pts)
                if mm < worst_m:
                    worst_m, worst_pt = mm, mp
            _record(checks, warnings, "quadratic_envelope(8b)",
                    bool(worst_m >= -1e-12), worst_m, worst_pt)

        if c.K_bar_1 is not None and c.K_under_1 is not None:
            worst_m, worst_pt = math.inf, None
            for i_val in i_grid:
                h = np.asarray(model.hess_x_rate(pts, i_val), dtype=float)
                ev = np.linalg.eigvalsh(h)
                marg = np.minimum(ev.min(axis=-1) + 2.0 * c.K_under_1,
                                  -2.0 * c.K_bar_1 - ev.max(axis=-1))
                mm, mp = _min_where(marg, pts)
                if mm < worst_m:
                    worst_m, worst_pt = mm, mp
            _record(checks, warnings, "hessian_bounds(9)",
                    bool(worst_m >= -1e-12), worst_m, worst_pt,
                    "requires -2K_under_1 <= D2R <= -2K_bar_1 < 0")

        if c.K_bar_2 is not None and c.K_under_2 is not None:
            worst_m, worst_pt = math.inf, None
            for i_val in i_grid:
                di = np.asarray(model.d_rate_dI(pts, i_val), dtype=float)
                marg = np.minimum(di + c.K_under_2, -c.K_bar_2 - di)
                mm, mp = _min_where(marg, pts)
                if mm < worst_m:
                    worst_m, worst_pt = mm, mp
            _record(checks, warnings, "I_monotonicity(10)",
                    bool(worst_m >= -1e-12), worst_m, worst_pt)

        if c.K_3 is not None and getattr(model.weight, "constant", False):
            worst_m, worst_pt = math.inf, None
            for i_val in i_grid:
                h = np.asarray(model.hess_x_rate(pts, i_val), dtype=float)
                lap = np.trace(h, axis1=-2, axis2=-1) * psi
                marg = lap + c.K_3
                mm, mp = _min_where(marg, pts)
                if mm < worst_m:
                    worst_m, worst_pt = mm, mp
            _record(checks, warnings, "laplacian_psi_R(10b)",
                    bool(worst_m >= -1e-12), worst_m, worst_pt)

        if all(v is not None for v in (c.L_bar_1, c.K_bar_1, c.K_under_1,
                                       c.L_under_1)):
            chain = (c.K_bar_1 - 4.0 * c.L_bar_1 ** 2,
                     c.K_under_1 - c.K_bar_1,
                     4.0 * c.L_under_1 ** 2 - c.K_under_1)
            m = float(min(chain))
            _record(checks, warnings, "compatibility(17)", bool(m >= 0), m, None,
                    "4 Lbar1^2 <= Kbar1 <= Kunder1 <= 4 Lunder1^2")

    else:  # local competition
        cxx = np.asarray(model.kernel(pts, pts), dtype=float)
        m, mp = _min_where(cxx, pts)
        _record(checks, warnings, "kernel_diag_positive(50)", bool(m > 0), m, mp)

        if c.rho_M is not None:
            coarse = _sample_box(domain, min(per_axis, 24))
            r_x = np.asarray(model.intrinsic.value(coarse), dtype=float)
            cxy = np.asarray(model.kernel(coarse[:, None, :],
                                          coarse[None, :, :]), dtype=float)
            marg = cxy - r_x[:, None] / c.rho_M
            k = int(np.argmin(marg))
            i, j = np.unravel_index(k, marg.shape)
            _record(checks, warnings, "competition_dominance(51)",
                    bool(marg[i, j] >= -1e-12), float(marg[i, j]),
                    coarse[i], "pointwise sufficient condition "
                    "C(x,y) >= r(x)/rho_M")

        if (c.rho_M is not None and c.K_bar_1_prime is not None
                and c.K_under_1_prime is not None):
            hr = np.asarray(model.intrinsic.hess(pts), dtype=float)
            coarse = _sample_box(domain, min(per_axis, 24))
            hc = np.asarray(model.kernel.hess_x(pts[:, None, :],
                                                coarse[None, :, :]), dtype=float)
            sup_pos = np.maximum(hc, 0.0).max(axis=1)
            sup_neg = np.minimum(hc, 0.0).max(axis=1)
            ev_lo = np.linalg.eigvalsh(hr - c.rho_M * sup_pos).min(axis=-1)
            ev_hi = np.linalg.eigvalsh(hr + c.rho_M * sup_neg).max(axis=-1)
            marg = np.minimum(ev_lo + 2.0 * c.K_under_1_prime,
                              -2.0 * c.K_bar_1_prime - ev_hi)
            mm, mp = _min_where(marg, pts)
            _record(checks, warnings, "local_concavity(52)",
                    bool(mm >= -1e-12), mm, mp)

        if all(v is not None for v in (c.L_bar_1, c.K_bar_1_prime,
                                       c.K_under_1_prime, c.L_under_1)):
            chain = (c.K_bar_1_prime - 4.0 * c.L_bar_1 ** 2,
                     c.K_under_1_prime - c.K_bar_1_prime,
                     4.0 * c.L_under_1 ** 2 - c.K_under_1_prime)
            m = float(min(chain))
            _record(checks, warnings, "compatibility(57)", bool(m >= 0), m, None)

    if u0 is not None and all(v is not None for v in
                              (c.L_bar_0, c.L_bar_1, c.L_under_0, c.L_under_1)):
        uv = np.asarray(u0.value(pts), dtype=float)
        lo_m = uv + c.L_under_0 + c.L_under_1 * norms2
        up_m = c.L_bar_0 - c.L_bar_1 * norms2 - uv
        marg = np.minimum(lo_m, up_m)
        mm, mp = _min_where(marg, pts)
        _record(checks, warnings, "initial_envelope(13)",
                bool(mm >= -1e-12), mm, mp)
        hu = np.asarray(u0.hess(pts), dtype=float)
        ev = np.linalg.eigvalsh(hu)
        marg = np.minimum(ev.min(axis=-1) + 2.0 * c.L_under_1,
                          -2.0 * c.L_bar_1 - ev.max(axis=-1))
        mm, mp = _min_where(marg, pts)
        _record(checks, warnings, "initial_concavity(14)",
                bool(mm >= -1e-12), mm, mp)

    if b is not None:
        bv = np.asarray(b.value(pts), dtype=float)
        m = float(bv.min())
        _record(checks, warnings, "diffusion_bounds(31)", bool(m > 0), m,
                pts[int(np.argmin(bv))],
                f"b in [{m:.6g}, {bv.max():.6g}]")
        if c.B_1 is not None:
            gn = np.linalg.norm(np.asarray(b.grad(pts), dtype=float), axis=-1)
            marg = c.B_1 / (1.0 + np.sqrt(norms2)) - gn
            mm, mp = _min_where(marg, pts)
            _record(checks, warnings, "diffusion_gradient(31b)",
                    bool(mm >= -1e-12), mm, mp)
        if c.B_2 is not None:
            tr = np.abs(np.asarray(b.hess_trace(pts), dtype=float))
            marg = c.B_2 / (1.0 + np.sqrt(norms2)) ** 2 - tr
            mm, mp = _min_where(marg, pts)
            _record(checks, warnings, "diffusion_hess_trace(31c)",
                    bool(mm >= -1e-12), mm, mp)
        if c.B_3 is not None:
            m = c.B_3 - b.third_bound
            _record(checks, warnings, "diffusion_third(31d)",
                    bool(m >= 0), float(m), None)
        if c.B_2 is not None and c.C_grad_u is not None and c.K_bar_1 is not None:
            m = 2.0 * c.K_bar_1 - c.B_2 * c.C_grad_u ** 2
            _record(checks, warnings, "diffusion_compatibility(34)",
                    bool(m > 0), float(m), None,
                    "B2 Cgrad^2 - 2 Kbar1 < 0")

    return AssumptionReport(checks, warnings)


# --- registry of built-in families ------------------------------------------

def _as_weight(spec):
    if spec is None:
        return ConstantWeight(1.0)
    if isinstance(spec, (int, float)):
        return ConstantWeight(spec)
    if isinstance(spec, dict) and spec.get("type", "constant") == "constant":
        return ConstantWeight(spec.get("value", 1.0))
    raise ModelError(f"unsupported weight spec {spec!r}")


def affine_in_I_model(g, coef_I, dimension, psi, name):
    """Global model R(x, I) = g(x) - coef_I * I with weight spec `psi`; the
    x-derivatives are g's."""
    c = float(coef_I)

    def rate(x, I):
        return g.value(x) - c * np.asarray(I, dtype=float)

    def grad(x, I):
        return g.grad(x)

    def hess(x, I):
        return g.hess(x)

    def d_i(x, I):
        x = np.asarray(x, dtype=float)
        return np.full(np.broadcast_shapes(x.shape[:-1], np.shape(I)), -c)

    return GlobalInteractionModel(dimension, rate, grad, hess, d_i,
                                  _as_weight(psi), name=name, growth=g,
                                  coef_I=c)


def build_affine_global(params, dimension):
    slope = np.atleast_1d(np.asarray(params.get("slope", [1.0] * dimension),
                                     dtype=float))
    if len(slope) != dimension:
        raise ModelError("slope length must match dimension")
    g = LinearFunction(params.get("a", 2.0), -slope)
    return affine_in_I_model(g, params.get("coef_I", 1.0), dimension,
                             params.get("psi"), "affine_global")


def build_quadratic_global(params, dimension):
    ci = float(params.get("coef_I", 1.0))
    if ci <= 0:
        raise ModelError("coef_I must be positive")
    g = QuadraticFunction(params.get("k0", 1.0),
                          params.get("center", [0.0] * dimension),
                          params.get("weights", [1.0] * dimension))
    return affine_in_I_model(g, ci, dimension, params.get("psi"),
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
    return affine_in_I_model(g, 1.0, 2, params.get("psi"), "scenario2")


def build_scenario3(params, dimension):
    """R = 3 - 1.5 I + 5.6 (y^2 + R_e x^2); R_e breaks the circular symmetry."""
    if dimension != 2:
        raise ModelError("this growth law is two-dimensional")
    k = float(params.get("k", 5.6))
    g = QuadraticFunction(params.get("a", 3.0), [0.0, 0.0],
                          [-k * float(params.get("r_e", 1.0)), -k])
    return affine_in_I_model(g, params.get("coef_I", 1.5), 2,
                             params.get("psi"), "scenario3")


def _build_kernel(spec, dimension):
    if spec is None:
        return ConstantKernel(1.0)
    kind = spec.get("type", "constant")
    if kind == "constant":
        return ConstantKernel(spec.get("value", 1.0))
    if kind == "gaussian":
        params = {"floor": spec.get("floor", 0.0), "amp": spec.get("amp", 1.0),
                  "width": spec.get("width", 1.0)}
        for key, v in params.items():
            need = "nonnegative" if key == "floor" else "positive"
            if not (isinstance(v, (int, float)) and math.isfinite(v)
                    and (v >= 0 if key == "floor" else v > 0)):
                raise ModelError(f"field $.model.params.kernel.{key} must be "
                                 f"finite and {need}, got {v!r}")
        return GaussianKernel(**params)
    if kind == "separable":
        phi = QuadraticFunction(**spec["phi"])
        psi = QuadraticFunction(**spec["psi"])
        return SeparableKernel(phi, psi)
    raise ModelError(f"unknown kernel type {kind!r}")


def build_logistic_local(params, dimension):
    r_spec = params.get("r", {})
    r = QuadraticFunction(r_spec.get("c0", 1.0),
                          r_spec.get("center", [0.0] * dimension),
                          r_spec.get("weights", [1.0] * dimension))
    kernel = _build_kernel(params.get("kernel"), dimension)
    symmetric = bool(params.get("symmetric",
                                not isinstance(kernel, SeparableKernel)))
    return LocalCompetitionModel(dimension, r, kernel, symmetric,
                                 "logistic_local")


MODEL_FAMILIES = {
    "affine_global": build_affine_global,
    "quadratic_global": build_quadratic_global,
    "scenario2": build_scenario2,
    "scenario3": build_scenario3,
    "logistic_local": build_logistic_local,
}


def build_model(spec: dict, dimension: int):
    family = spec.get("family")
    if family not in MODEL_FAMILIES:
        raise ModelError(f"unknown model family {family!r}; "
                         f"known: {sorted(MODEL_FAMILIES)}")
    return MODEL_FAMILIES[family](spec.get("params", {}), dimension)


def make_global_model_from_rate(rate, dimension, d_rate_dI=None, weight=None,
                                I_M=None, name="custom"):
    """Wrap a user-supplied rate with finite-difference derivatives
    (step 1e-5 * (1 + |x|))."""
    def grad(x, I):
        return _fd_grad(lambda z: np.asarray(rate(z, I), dtype=float), x)

    def hess(x, I):
        return _fd_hess(lambda z: np.asarray(rate(z, I), dtype=float), x)

    def d_i(x, I):
        if d_rate_dI is not None:
            return d_rate_dI(x, I)
        h = 1e-7 * (1.0 + abs(float(np.max(np.abs(I)))))
        return (np.asarray(rate(x, np.asarray(I) + h), dtype=float)
                - np.asarray(rate(x, np.asarray(I) - h), dtype=float)) / (2 * h)

    return GlobalInteractionModel(dimension, rate, grad, hess, d_i,
                                  weight or ConstantWeight(1.0), I_M, name)
