"""Limit dynamics of the concentration point: the canonical ODE with its
Hessian closures, the no-mutation weight ODE, gradient-flow and long-time
diagnostics."""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .models import (ConstraintInfeasibleError, GlobalInteractionModel,
                     LocalCompetitionModel, ModelError)


NEWTON_TOL = 1e-12    # |grad| at which a rest point search stops
NEWTON_ITERS = 100    # Newton steps before a start is given up
LYAPUNOV_TOL = 1e-8   # decrease of rho^2 C(x, x) still read as non-decreasing


class ClosureError(ValueError):
    """Hessian closure is singular or inconsistent with the request."""


@dataclass
class ConcentrationTrajectory:
    """Sampled motion of the concentration point.

    macro holds the multiplier (global: I, local: rho); hessians the closure
    matrix used/measured at each time.  exit_time and exit_point record
    truncation: when and where the point left the domain.
    """

    times: np.ndarray
    points: np.ndarray      # (n, d)
    macro: np.ndarray       # (n,)
    hessians: np.ndarray    # (n, d, d)
    source: str = "canonical"
    exit_time: Optional[float] = None
    exit_point: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.macro = np.asarray(self.macro, dtype=float)
        self.hessians = np.asarray(self.hessians, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if np.any(self.macro < -1e-12):
            raise ValueError("trajectory macro values must be nonnegative")

    def __len__(self):
        return self.times.size

    def interpolate_hessians(self, times) -> np.ndarray:
        """The Hessian series at each of `times`, componentwise linear in
        time and clamped to the sampled range: one np.interp call per
        entry, which gives each time bitwise its scalar call's value.  The
        (k, d, d) result is read-only, as its callers share its rows."""
        s = np.clip(np.asarray(times, dtype=float), self.times[0],
                    self.times[-1])
        d = self.hessians.shape[-1]
        out = np.empty((s.size, d, d))
        for i in range(d):
            for j in range(d):
                out[:, i, j] = np.interp(s, self.times, self.hessians[:, i, j])
        out.flags.writeable = False
        return out


CLOSURE_MODES = ("from_pde", "frozen", "riccati")   # of HessianClosure


@dataclass
class HessianClosure:
    """How the canonical ODE obtains D2u at the moving point.

    from_pde interpolates a measured series (the faithful mode); frozen keeps
    the initial matrix; riccati evolves an approximate self-contained matrix
    ODE (transport of third derivatives neglected — labeled approximate in
    all reports).
    """

    mode: str
    initial_hessian: np.ndarray = None
    feed: ConcentrationTrajectory = None

    def __post_init__(self):
        if self.mode not in CLOSURE_MODES:
            raise ClosureError(f"unknown closure mode {self.mode!r}")
        if self.mode == "from_pde":
            if self.feed is None:
                raise ClosureError("from_pde closure requires a measured "
                                   "Hessian series")
        else:
            if self.initial_hessian is None:
                raise ClosureError(f"{self.mode} closure requires an initial "
                                   "Hessian")
        if self.initial_hessian is not None:
            H = np.atleast_2d(np.asarray(self.initial_hessian, dtype=float))
            _check_negative_definite(H)
            self.initial_hessian = H


# --- closed-form 1x1 and 2x2 algebra -----------------------------------------
# A trait space has one or two axes, so every matrix the limit dynamics solve
# with or test is 1x1 or 2x2.  Cramer's rule and the leading minors handle
# them on Python floats with no LAPACK call: the first such call in a
# process faults in about 0.85 MB of OpenBLAS's code pages.

def _det(A) -> float:
    """Determinant of the 2x2 matrix A."""
    (a, b), (c, d) = A.tolist()
    return a * d - b * c


def _solve(A, v):
    """A^{-1} v for a 1x1 or 2x2 matrix A by Cramer's rule, or None when
    det A is 0.  A diagonal A divides v by its diagonal entry by entry,
    which is bitwise what LAPACK's solve returns."""
    if len(A) == 1:
        a = A[0, 0]
        return None if a == 0 else v / a
    det = _det(A)
    if det == 0:
        return None
    (a, b), (c, d) = A.tolist()
    v1, v2 = v.tolist()
    if b == 0 and c == 0:
        return np.array([v1 / a, v2 / d])
    return np.array([(d * v1 - b * v2) / det, (a * v2 - c * v1) / det])


def _check_negative_definite(H):
    """Raise ClosureError unless the symmetric part S of the 1x1 or 2x2 H
    is negative definite: S11 < 0 and, in 2D, det S > 0, which a NaN
    fails.  eigvalsh only words the failure."""
    S = 0.5 * (H + H.T)
    if S[0, 0] < 0 and (len(S) == 1 or _det(S) > 0):
        return
    ev = np.linalg.eigvalsh(S)
    raise ClosureError(f"closure matrix {H.tolist()} not negative "
                       f"definite (eigenvalues {ev.tolist()})")


def _solve_neg(hessian, vec):
    """(-H)^{-1} vec for a negative definite H."""
    H = np.atleast_2d(np.asarray(hessian, dtype=float))
    _check_negative_definite(H)
    return _solve(-H, np.atleast_1d(vec))


def canonical_rhs(x_bar, hessian, model, macro=None):
    """Velocity (-D2u)^{-1} grad_x R(x, m) of the concentration point, m the
    multiplier (I or rho) at x unless given."""
    x = np.asarray(x_bar, dtype=float)
    m = model.multiplier(x) if macro is None else float(macro)
    return _solve_neg(hessian, np.asarray(model.grad_x_rate(x, m), dtype=float))


def riccati_hessian_rhs(x_bar, macro, hessian, model):
    """Approximate closure dH/dt = D2_x(growth) + 2 H^2 (third-derivative
    transport neglected)."""
    x = np.asarray(x_bar, dtype=float)
    H = np.atleast_2d(np.asarray(hessian, dtype=float))
    d2 = np.asarray(model.hess_x_rate(x, macro), dtype=float)
    out = d2 + 2.0 * H @ H
    return 0.5 * (out + out.T)


def _point_arithmetic(model, d):
    """What the canonical RK4 computes at one point of a d-trait model.

    point(a) turns an array (the start, a closure matrix, a domain bound)
    into the loop's form; keep(samples, v) appends a point or matrix in
    that form to an `array('d')`; multiplier(x); velocity(x, m, neg) solves
    neg v = grad_x R(x, m) for neg = -H; riccati(x, m, H) is dH/dt;
    check(H) raises ClosureError unless H is negative definite; and
    outside(x, lower, upper) tests the domain.  A 1D model whose
    `on_floats()` gives its (multiplier, grad_x_rate, hess_x_rate) on Python
    floats runs on floats: a division and a sign test, doing the 1-element
    arrays' operations in their order, so the results are bitwise the same.
    Any other model runs on numpy arrays and the closed-form `_solve`.
    """
    on_floats = getattr(model, "on_floats", None) if d == 1 else None
    law = on_floats() if on_floats is not None else None
    if law is None:
        def velocity(x, m, neg):
            return _solve(neg, np.asarray(model.grad_x_rate(x, m),
                                          dtype=float))

        def riccati(x, m, H):
            return riccati_hessian_rhs(x, m, H, model)

        def outside(x, lower, upper):
            return np.any(x < lower) or np.any(x > upper)

        return SimpleNamespace(point=lambda a: a,
                               keep=lambda samples, a: samples.extend(a.flat),
                               multiplier=model.multiplier,
                               velocity=velocity, riccati=riccati,
                               check=_check_negative_definite,
                               outside=outside)

    multiplier, grad, hess = law

    def check(h):
        if not h < 0:   # the 1x1 eigenvalue test; eigvalsh only to fail
            _check_negative_definite(np.array([[h]]))

    return SimpleNamespace(
        point=lambda a: float(a.flat[0]), keep=array.append,
        multiplier=multiplier,
        velocity=lambda x, m, neg: grad(x, m) / neg,
        riccati=lambda x, m, h: hess(x, m) + 2.0 * h * h, check=check,
        outside=lambda x, lower, upper: x < lower or x > upper)


def integrate_canonical(x0, closure: HessianClosure, model, dt: float,
                        T: float, domain=None) -> ConcentrationTrajectory:
    """Classical RK4 on the canonical ODE, sampling every dt.

    The multiplier is recomputed algebraically at every stage.  In riccati
    mode the Hessian integrates alongside the position; in from_pde mode it
    is read from the measured series, interpolated at every stage time
    once per run.  The trajectory truncates (with exit_time recorded) if
    the point leaves `domain`.  The frozen -H is negated once per run, and
    a 1D run keeps its point and Hessian on Python floats (see
    _point_arithmetic).  The samples are kept as packed doubles.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    d = x0.size
    steps = max(1, int(round(T / dt)))
    frozen, riccati = closure.mode == "frozen", closure.mode == "riccati"
    ops = _point_arithmetic(model, d)
    point, multiplier, velocity = ops.point, ops.multiplier, ops.velocity
    x = point(x0)
    if domain is not None:
        lower, upper = (point(np.atleast_1d(np.asarray(v, dtype=float)))
                        for v in domain)

    feed = None
    if closure.mode == "from_pde":
        # every time the loop below asks the feed for, with t accumulated
        # as it does: the start, then t + dt/2 and t + dt per step
        stage_times = [0.0]
        t = 0.0
        for _ in range(steps):
            stage_times += [t + 0.5 * dt, t + dt]
            t += dt
        table = closure.feed.interpolate_hessians(stage_times)
        feed = dict(zip(stage_times, map(point, table))).__getitem__
        H = None
    else:
        # the riccati state, or the frozen matrix, which HessianClosure
        # checked: the stages do not check it again
        H = point(closure.initial_hessian)
        neg_frozen = -H

    def rhs(tau, xs, Hs, m=None):
        """(dx/dt, dH/dt) at one stage; dH/dt is None unless riccati."""
        if m is None:
            m = multiplier(xs)
        if frozen:
            return velocity(xs, m, neg_frozen), None
        Hc = Hs if riccati else feed(tau)
        ops.check(Hc)
        return (velocity(xs, m, -Hc),
                ops.riccati(xs, m, Hs) if riccati else None)

    m = multiplier(x)
    times, pts, macros, hessians = (array("d") for _ in range(4))
    keep = ops.keep

    def sample(t, x, m):
        times.append(t)
        keep(pts, x)
        macros.append(m)
        keep(hessians, H if feed is None else feed(t))

    sample(0.0, x, m)
    exit_time = exit_point = None
    t = 0.0
    for _ in range(steps):
        # kH is None unless riccati: the stage matrix is then the frozen
        # one, or None (from_pde reads the feed)
        k1x, k1H = rhs(t, x, H, m)   # m is the multiplier at x, recorded
        k2x, k2H = rhs(t + 0.5 * dt, x + 0.5 * dt * k1x,
                       H if k1H is None else H + 0.5 * dt * k1H)
        k3x, k3H = rhs(t + 0.5 * dt, x + 0.5 * dt * k2x,
                       H if k2H is None else H + 0.5 * dt * k2H)
        k4x, k4H = rhs(t + dt, x + dt * k3x,
                       H if k3H is None else H + dt * k3H)
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        if k1H is not None:
            H = H + dt / 6.0 * (k1H + 2 * k2H + 2 * k3H + k4H)
        t += dt
        if domain is not None and ops.outside(x, lower, upper):
            exit_time, exit_point = t, np.array(x, dtype=float).reshape(d)
            warnings.warn(f"canonical trajectory left the domain at "
                          f"t={t:.6g}, x={exit_point.tolist()}; truncated",
                          RuntimeWarning)
            break
        m = multiplier(x)
        sample(t, x, m)

    return ConcentrationTrajectory(
        np.frombuffer(times), np.frombuffer(pts).reshape(-1, d),
        np.frombuffer(macros), np.frombuffer(hessians).reshape(-1, d, d),
        source=f"canonical_{closure.mode}", exit_time=exit_time,
        exit_point=exit_point)


def gradient_flow_rate(x_bar, hessian, model: GlobalInteractionModel,
                       macro=None) -> float:
    """Predicted dI/dt = (-1/R_I) gradR . (-H)^{-1} gradR; nonnegative when
    R_I < 0 and -H is positive definite."""
    x = np.asarray(x_bar, dtype=float)
    i_bar = model.multiplier(x) if macro is None else float(macro)
    g = np.asarray(model.grad_x_rate(x, i_bar), dtype=float)
    r_i = float(model.d_rate_dI(x, i_bar))
    if not r_i < 0:
        raise ModelError(f"dR/dI = {r_i:.6g} is not negative at "
                         f"x={x.tolist()}")
    return float((-1.0 / r_i) * g @ _solve_neg(hessian, g))


def no_mutation_weight_ode(y, rho0, model, dt: float, T: float):
    """Weight dynamics of a mutation-free population fixed at trait(s) y.

    drho/dt = rho * R(y, psi rho), which is rho (r(y) - rho C(y,y)) for
    the local model (psi = 1).  Accepts a single trait point or a batch
    (m, d); returns (times, rho) with rho of shape (steps+1,) or
    (steps+1, m).
    """
    y = np.asarray(y, dtype=float)
    batch = y.ndim == 2
    ys = y if batch else y[None, :]
    rho = np.atleast_1d(np.asarray(rho0, dtype=float)).astype(float)
    if rho.size == 1 and batch:
        rho = np.full(ys.shape[0], float(rho0))
    if np.any(rho < 0):
        raise ModelError("initial weight must be nonnegative")

    # R is affine in its macro argument: evaluate its two terms once
    growth = np.asarray(model.rate(ys, 0.0), dtype=float)
    slope = np.asarray(model.d_rate_dI(ys, 0.0), dtype=float)

    def f(r):
        return r * (growth + slope * (model.psi * r))

    steps = max(1, int(round(T / dt)))
    out = np.empty((steps + 1, ys.shape[0]))
    out[0] = rho
    for k in range(steps):
        r = out[k]
        k1 = f(r)
        k2 = f(r + 0.5 * dt * k1)
        k3 = f(r + 0.5 * dt * k2)
        k4 = f(r + dt * k3)
        out[k + 1] = r + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
    times = np.arange(steps + 1) * dt
    return (times, out if batch else out[:, 0])


def _newton_critical_point(grad, jac, x0, domain):
    x = np.array(x0, dtype=float)
    lower, upper = (np.atleast_1d(np.asarray(v, dtype=float)) for v in domain)
    for _ in range(NEWTON_ITERS):
        g = grad(x)
        if np.linalg.norm(g) <= NEWTON_TOL:
            return x
        step = _solve(jac(x), -g)
        if step is None:   # a singular Jacobian
            return None
        x = x + step
        if np.any(x < lower - 1.0) or np.any(x > upper + 1.0):
            return None
    return None


def long_time_attractor(model, domain):
    """Rest point of the limit dynamics, or None with a diagnostic.

    Global: joint solve of grad_x R = 0 and R = 0 (the multiplier is
    eliminated algebraically).  Local symmetric: maximizer of the
    log-potential on {r > 0}.  Newton from the domain center, multistart on
    a coarse grid on failure.
    """
    lower, upper = (np.atleast_1d(np.asarray(v, dtype=float)) for v in domain)
    d = lower.size
    center = 0.5 * (lower + upper)

    if isinstance(model, GlobalInteractionModel):
        def grad(x):
            return np.asarray(model.grad_x_rate(x, model.multiplier(x)),
                              dtype=float)

        def jac(x):
            return np.atleast_2d(np.asarray(
                model.hess_x_rate(x, model.multiplier(x)), dtype=float))
    else:
        if not model.kernel.symmetric:
            return None, "attractor theory requires a symmetric kernel"

        def grad(x):
            r = float(model.intrinsic.value(x))
            if r <= 0:
                raise ModelError("outside {r > 0}")
            c = float(model.kernel(x, x))
            dc = (np.asarray(model.kernel.grad_x(x, x), dtype=float)
                  + np.asarray(model.kernel.grad_y(x, x), dtype=float))
            return np.asarray(model.intrinsic.grad(x), dtype=float) / r - dc / c

        def jac(x):
            h = 1e-6
            out = np.empty((d, d))
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                out[:, j] = (grad(x + e) - grad(x - e)) / (2 * h)
            return out

    starts = [center]
    axes = [np.linspace(lower[j], upper[j], 7)[1:-1] for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    starts += list(np.stack(mesh, axis=-1).reshape(-1, d))

    for x0 in starts:
        try:
            x = _newton_critical_point(grad, jac, x0, (lower, upper))
        except (ModelError, ConstraintInfeasibleError):
            continue
        if x is None or np.any(x < lower) or np.any(x > upper):
            continue
        return (x, model.multiplier(x)), None
    return None, "gradient never vanishes in the domain"


def persistence_envelope(traj: ConcentrationTrajectory,
                         model: LocalCompetitionModel) -> dict:
    """Smallest K >= 0 with r(x(t)) >= r(x(0)) e^{-K t} along the samples."""
    pts = np.asarray(traj.points, dtype=float)
    times = np.asarray(traj.times, dtype=float)
    r = np.asarray(model.intrinsic.value(pts), dtype=float)
    if r[0] <= 0:
        raise ModelError(f"initial intrinsic rate {r[0]:.6g} <= 0; "
                         "persistence bound does not apply")
    positive = bool(np.all(r > 0))
    if not positive:
        return {"K": float("inf"), "r_positive": False}
    later = times > times[0]
    if later.any():
        rates = np.log(r[0] / r[later]) / (times[later] - times[0])
        K = max(0.0, float(rates.max()))
    else:
        K = 0.0
    return {"K": K, "r_positive": True}


def lyapunov_local(traj: ConcentrationTrajectory,
                   model: LocalCompetitionModel) -> dict:
    """Series rho^2 C(x,x), which is non-decreasing for symmetric kernels."""
    if not model.kernel.symmetric:
        return {"applicable": False}
    pts = np.asarray(traj.points, dtype=float)
    rho = np.asarray(traj.macro, dtype=float)
    series = rho ** 2 * np.asarray(model.kernel(pts, pts), dtype=float)
    worst = float(np.diff(series).min()) if series.size > 1 else 0.0
    return {"applicable": True, "series": series, "worst_increment": worst,
            "passed": bool(worst >= -LYAPUNOV_TOL)}
