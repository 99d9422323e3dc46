"""Limit dynamics: canonical ODE, closures, weight ODE, long-time diagnostics."""

import dataclasses
import math

import numpy as np
import pytest

from concentra import canonical
from concentra.canonical import (ClosureError, ConcentrationTrajectory,
                                 HessianClosure, canonical_rhs,
                                 gradient_flow_rate, integrate_canonical,
                                 long_time_attractor, lyapunov_local,
                                 no_mutation_weight_ode, persistence_envelope,
                                 riccati_hessian_rhs)
from concentra.diagnostics import constraint_residual
from concentra.models import (ROOT_TOL, LocalCompetitionModel, ModelError,
                              QuadraticFunction, SeparableKernel, build_model,
                              phi_potential)
from concentra.pde import run_simulation, u0_peaks
from concentra.scenarios import load_bundled

from conftest import traced_peak


def affine_2d(a=2.0, slope=(1.0, 1.0)):
    return build_model({"family": "affine_global",
                        "params": {"a": a, "slope": list(slope)}}, 2)


def quadratic_1d(k0=0.5, center=0.0):
    return build_model({"family": "quadratic_global",
                        "params": {"k0": k0, "center": [center],
                                   "weights": [1.0]}}, 1)


def quadratic_2d(k0=1.0, center=(0.0, 0.0), weights=(1.0, 1.0)):
    return build_model({"family": "quadratic_global",
                        "params": {"k0": k0, "center": list(center),
                                   "weights": list(weights)}}, 2)


def local_1d(c0=1.0, center=0.0, weight=1.0):
    return build_model({"family": "logistic_local",
                        "params": {"r": {"c0": c0, "center": [center],
                                         "weights": [weight]}}}, 1)


# --- right-hand sides --------------------------------------------------------

def test_rhs_isotropic_curvature():
    v = canonical_rhs((0.2, 0.2), -2.0 * np.eye(2), affine_2d(), macro=0.3)
    assert np.max(np.abs(v - [-0.5, -0.5])) <= 1e-14


def test_rhs_anisotropic_curvature_leaves_diagonal():
    v = canonical_rhs((0.2, 0.2), np.diag([-2.0, -10.0]), affine_2d(),
                      macro=0.3)
    assert np.max(np.abs(v - [-0.5, -0.1])) <= 1e-14


def test_rhs_vanishes_at_rate_critical_point():
    m = quadratic_2d()
    v = canonical_rhs((0.0, 0.0), -np.eye(2), m)
    assert np.max(np.abs(v)) <= 1e-12


def test_rhs_rejects_indefinite_closure():
    with pytest.raises(ClosureError):
        canonical_rhs((0.2, 0.2), np.diag([-2.0, 1.0]), affine_2d(),
                      macro=0.3)


def test_riccati_fixed_point():
    m = quadratic_2d(weights=(4.0, 4.0))      # D2R = -8 Id
    dH = riccati_hessian_rhs((0.0, 0.0), 0.1, -2.0 * np.eye(2), m)
    assert np.max(np.abs(dH)) <= 1e-14


def test_riccati_relaxation_for_flat_rate():
    dH = riccati_hessian_rhs((0.2, 0.2), 0.1, -2.0 * np.eye(2), affine_2d())
    assert np.max(np.abs(dH - 8.0 * np.eye(2))) <= 1e-14


# --- closure bookkeeping -------------------------------------------------------

def test_closure_mode_validation():
    with pytest.raises(ClosureError):
        HessianClosure("magic", initial_hessian=-np.eye(1))
    with pytest.raises(ClosureError):
        HessianClosure("from_pde")
    with pytest.raises(ClosureError):
        HessianClosure("frozen", initial_hessian=np.eye(1))


def test_trajectory_validation():
    with pytest.raises(ValueError):
        ConcentrationTrajectory(np.array([0.0, 0.0]), np.zeros((2, 1)),
                                np.zeros(2), np.full((2, 1, 1), -1.0))
    with pytest.raises(ValueError):
        ConcentrationTrajectory(np.array([0.0, 1.0]), np.zeros((2, 1)),
                                np.array([0.1, -0.5]),
                                np.full((2, 1, 1), -1.0))


def test_hessian_interpolant_clamps_to_range():
    traj = ConcentrationTrajectory(
        np.array([0.0, 1.0]), np.zeros((2, 1)), np.zeros(2),
        np.array([[[-2.0]], [[-4.0]]]))
    table = traj.interpolate_hessians([0.5, -7.0, 9.0, 0.0, 1.0])
    assert table.shape == (5, 1, 1)
    assert table[0, 0, 0] == pytest.approx(-3.0)
    assert table[1:, 0, 0].tolist() == [-2.0, -4.0, -2.0, -4.0]


# --- integration -----------------------------------------------------------------

def test_integrate_constant_when_gradient_vanishes():
    m = build_model({"family": "affine_global",
                     "params": {"a": 1.0, "slope": [0.0, 0.0]}}, 2)
    closure = HessianClosure("frozen", initial_hessian=-np.eye(2))
    traj = integrate_canonical((0.3, 0.4), closure, m, 0.01, 1.0)
    assert np.max(np.abs(traj.points - [0.3, 0.4])) <= 1e-14


def test_integrate_linear_ode_closed_form():
    # R = 0.5 - x^2 - I with frozen H = -2 gives xdot = -x
    m = quadratic_1d()
    closure = HessianClosure("frozen", initial_hessian=[[-2.0]])
    traj = integrate_canonical((0.5,), closure, m, 1e-3, 1.0)
    assert traj.points[-1, 0] == pytest.approx(0.5 * math.exp(-1.0),
                                               abs=1e-10)


def test_rk4_order_on_linear_ode():
    m = quadratic_1d()
    closure = HessianClosure("frozen", initial_hessian=[[-2.0]])
    exact = 0.5 * math.exp(-1.0)
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate_canonical((0.5,), closure, m, dt, 1.0)
        errs.append(abs(traj.points[-1, 0] - exact))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_integrate_frozen_anisotropic_straight_line():
    m = affine_2d()
    closure = HessianClosure("frozen",
                             initial_hessian=np.diag([-2.0, -10.0]))
    traj = integrate_canonical((0.7, 0.7), closure, m, 0.01, 0.2)
    expected = np.array([0.7, 0.7]) + traj.times[:, None] * np.array(
        [-0.5, -0.1])
    assert np.max(np.abs(traj.points - expected)) <= 1e-10
    assert traj.source == "canonical_frozen"


def test_frozen_closure_checks_definiteness_once(monkeypatch):
    """HessianClosure checks the frozen matrix; the RK4 stages do not
    repeat it.  riccati's matrix changes per stage and is checked at each,
    in 1D by a sign test that calls no eigvalsh."""
    m = affine_2d()
    frozen = HessianClosure("frozen", initial_hessian=np.diag([-2.0, -10.0]))
    riccati = HessianClosure("riccati", initial_hessian=np.diag([-2.0, -10.0]))
    frozen_1d = HessianClosure("frozen", initial_hessian=[[-2.0]])
    riccati_1d = HessianClosure("riccati", initial_hessian=[[-3.0]])
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        calls.append(1)
        return eigvalsh(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    integrate_canonical((0.7, 0.7), frozen, m, 0.01, 0.1)
    assert calls == []
    integrate_canonical((0.7, 0.7), riccati, m, 0.01, 0.1)
    assert len(calls) == 4 * 10
    calls.clear()
    integrate_canonical((0.5,), frozen_1d, quadratic_1d(), 0.01, 0.1)
    integrate_canonical((0.5,), riccati_1d, quadratic_1d(), 0.01, 0.1)
    assert calls == []


def test_ode_samples_are_packed_doubles():
    """local_logistic's canonical run, 10 000 RK4 steps, keeps its samples
    as packed doubles: after a warm-up call its traced peak stays below
    0.6 MB, where four lists of Python floats and their copies into arrays
    peak near 1.4 MB."""
    sc = load_bundled("local_logistic")
    settings, model = sc.canonical_settings(), sc.build_model()
    x0, H0 = u0_peaks(sc.u0)[0]
    closure = HessianClosure(settings["closure"], initial_hessian=H0)

    def run():
        return integrate_canonical(x0, closure, model, settings["dt"],
                                   settings["T"], domain=sc.domain())

    traj, peak = traced_peak(run)
    assert len(traj) == 10_001 and traj.exit_time is None
    assert peak < 0.6e6


def test_from_pde_feed_turning_nonnegative_raises():
    """The 1D sign test raises where the measured H crosses 0 (t = 5/3)."""
    feed = ConcentrationTrajectory(
        np.array([0.0, 1.0, 2.0]), np.zeros((3, 1)), np.zeros(3),
        np.array([[[-2.0]], [[-2.0]], [[1.0]]]))
    closure = HessianClosure("from_pde", feed=feed)
    integrate_canonical((0.5,), closure, quadratic_1d(), 0.01, 1.6)
    with pytest.raises(ClosureError, match="not negative definite"):
        integrate_canonical((0.5,), closure, quadratic_1d(), 0.01, 2.0)


@pytest.mark.parametrize("d", [1, 2])
def test_nan_closure_matrix_fails_the_definiteness_check(d):
    """`nan >= 0` is false, so the check asks `< 0` of the largest
    eigenvalue: a NaN Hessian is named, in the 1D sign test, the 2D
    eigenvalue test and HessianClosure alike."""
    model, x0 = ((quadratic_1d(), (0.5,)) if d == 1 else
                 (quadratic_2d(), (0.2, 0.2)))
    nan = np.full((d, d), np.nan)
    feed = ConcentrationTrajectory(np.array([0.0, 1.0]), np.zeros((2, d)),
                                   np.zeros(2), np.array([-2.0 * np.eye(d),
                                                          nan]))
    closure = HessianClosure("from_pde", feed=feed)
    named = rf"closure matrix {nan.tolist()} not negative definite".replace(
        "[", r"\[")
    with pytest.raises(ClosureError, match=named):
        integrate_canonical(x0, closure, model, 0.01, 1.0)
    with pytest.raises(ClosureError, match=named):
        HessianClosure("frozen", initial_hessian=nan)


def test_integrate_truncates_on_domain_exit():
    m = affine_2d()
    closure = HessianClosure("frozen", initial_hessian=-np.eye(2))
    with pytest.warns(RuntimeWarning, match="left the domain"):
        traj = integrate_canonical((0.2, 0.2), closure, m, 0.01, 5.0,
                                   domain=(np.zeros(2), np.ones(2)))
    assert traj.exit_time is not None
    assert traj.times[-1] < 5.0


def test_integrate_truncates_on_one_trait_domain_exit():
    m = build_model({"family": "affine_global",
                     "params": {"a": 2.0, "slope": [1.0]}}, 1)
    closure = HessianClosure("frozen", initial_hessian=[[-1.0]])
    with pytest.warns(RuntimeWarning, match="left the domain"):
        traj = integrate_canonical((0.205,), closure, m, 0.01, 5.0,
                                   domain=(np.zeros(1), np.ones(1)))
    # x = 0.205 - t leaves [0, 1] between t = 0.2 and t = 0.21
    assert traj.exit_time == pytest.approx(0.21)
    assert traj.times[-1] == pytest.approx(0.2)
    assert traj.points.min() >= 0.0


def test_integrate_from_pde_closure_reads_feed():
    feed = ConcentrationTrajectory(
        np.array([0.0, 2.0]), np.zeros((2, 1)), np.zeros(2),
        np.array([[[-2.0]], [[-2.0]]]))
    m = quadratic_1d()
    closure = HessianClosure("from_pde", feed=feed)
    traj = integrate_canonical((0.5,), closure, m, 1e-3, 1.0)
    assert traj.points[-1, 0] == pytest.approx(0.5 * math.exp(-1.0),
                                               abs=1e-10)
    assert traj.source == "canonical_from_pde"


def test_riccati_closure_relaxes_hessian():
    m = quadratic_1d()        # D2R = -2, fixed point H = -1
    closure = HessianClosure("riccati", initial_hessian=[[-3.0]])
    traj = integrate_canonical((0.1,), closure, m, 1e-3, 8.0)
    assert traj.hessians[-1, 0, 0] == pytest.approx(-1.0, abs=1e-6)


def test_canonical_macro_monotone_and_on_constraint():
    m = quadratic_1d()
    closure = HessianClosure("frozen", initial_hessian=[[-2.0]])
    traj = integrate_canonical((0.5,), closure, m, 1e-3, 5.0)
    assert np.diff(traj.macro).min() >= -1e-10
    res = constraint_residual(traj, m)
    assert res.max() <= ROOT_TOL


# --- gradient flow -----------------------------------------------------------------

def test_gradient_flow_zero_at_equilibrium():
    assert gradient_flow_rate((0.0, 0.0), -np.eye(2), quadratic_2d()) == \
        pytest.approx(0.0, abs=1e-14)


def test_gradient_flow_reference_value():
    val = gradient_flow_rate((0.2, 0.2), -2.0 * np.eye(2), affine_2d(),
                             macro=0.3)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_gradient_flow_requires_decreasing_rate_in_I():
    m = build_model({"family": "affine_global",
                     "params": {"a": 1.0, "slope": [0.0, 0.0],
                                "coef_I": 0.0}}, 2)
    with pytest.raises(ModelError):
        gradient_flow_rate((0.2, 0.2), -np.eye(2), m, macro=0.0)


def test_gradient_flow_nonnegative_property():
    rng = np.random.default_rng(53)
    m = quadratic_2d(center=(0.5, 0.5))
    worst = math.inf
    for _ in range(1000):
        ang = rng.uniform(0, 2 * math.pi)
        rad = 0.9 * math.sqrt(rng.uniform(0, 1))
        x = np.array([0.5 + rad * math.cos(ang), 0.5 + rad * math.sin(ang)])
        r0 = 1.0 - rad ** 2
        macro = rng.uniform(0.0, r0)
        A = rng.standard_normal((2, 2))
        H = -(A @ A.T + 0.1 * np.eye(2))
        worst = min(worst, gradient_flow_rate(x, H, m, macro=macro))
    assert worst >= -1e-14


# --- the no-mutation weight ODE -----------------------------------------------------

def test_weight_ode_logistic_closed_form():
    m = local_1d()      # r(0) = 1 and C(0,0) = 1: plain logistic growth
    times, rho = no_mutation_weight_ode((0.0,), 0.1, m, 1e-3, 5.0)
    exact = 1.0 / (1.0 + 9.0 * np.exp(-times))
    assert np.max(np.abs(rho - exact)) <= 1e-8


def test_weight_ode_fixed_point_is_constant():
    m = build_model({"family": "affine_global",
                     "params": {"a": 1.0, "slope": [0.0]}}, 1)
    _, rho = no_mutation_weight_ode((0.4,), 1.0, m, 1e-2, 2.0)
    assert np.max(np.abs(rho - 1.0)) <= 1e-12


def test_weight_ode_extinction_absorbing():
    _, rho = no_mutation_weight_ode((0.5,), 0.0, local_1d(), 1e-2, 2.0)
    assert np.all(rho == 0.0)


def test_weight_ode_batch_shape():
    ys = np.array([[0.4], [0.5], [0.6]])
    times, rho = no_mutation_weight_ode(ys, 0.2, local_1d(), 1e-2, 1.0)
    assert rho.shape == (times.size, 3)


# --- long-time diagnostics ------------------------------------------------------------

def test_attractor_quadratic_global():
    m = quadratic_1d(k0=0.5, center=0.0)
    (x, macro), why = long_time_attractor(m, (np.array([-1.0]),
                                              np.array([1.0])))
    assert why is None
    assert abs(x[0]) <= 1e-9
    assert macro == pytest.approx(0.5, abs=1e-9)


def test_attractor_affine_rate_has_none():
    out, why = long_time_attractor(affine_2d(), (np.zeros(2), np.ones(2)))
    assert out is None
    assert "never vanishes" in why


def test_attractor_local_quadratic():
    m = local_1d()
    (x, rho), why = long_time_attractor(m, (np.array([-0.9]),
                                            np.array([0.9])))
    assert why is None
    assert abs(x[0]) <= 1e-8
    assert rho == pytest.approx(1.0, abs=1e-8)


GAUSSIAN = {"type": "gaussian", "floor": 0.8, "amp": 0.2, "width": 0.5}


def _gaussian_local(c0, center, weight):
    return build_model({"family": "logistic_local",
                        "params": {"r": {"c0": c0, "center": [center],
                                         "weights": [weight]},
                                   "kernel": GAUSSIAN}}, 1)


def _spy_newton(monkeypatch):
    """Record each Newton start and its outcome (None, or the point; a
    raised error is recorded as the error's type)."""
    calls = []
    newton = canonical._newton_critical_point

    def spy(grad, jac, x0, domain):
        try:
            x = newton(grad, jac, x0, domain)
        except Exception as exc:
            calls.append((np.asarray(x0).tolist(), type(exc)))
            raise
        calls.append((np.asarray(x0).tolist(),
                      None if x is None else x.tolist()))
        return x
    monkeypatch.setattr(canonical, "_newton_critical_point", spy)
    return calls


def test_attractor_local_off_centre_takes_newton_steps(monkeypatch):
    """The rest point of ln r - ln C(x, x) at r's centre 0.3, reached from
    the domain centre by Newton steps on the finite-difference Jacobian."""
    calls = _spy_newton(monkeypatch)
    (x, rho), why = long_time_attractor(_gaussian_local(1.0, 0.3, 1.0),
                                        ([0.0], [1.0]))
    assert why is None
    assert x[0] == pytest.approx(0.3, abs=1e-12)
    assert rho == pytest.approx(1.0, abs=1e-12)   # r(0.3) / C = 1 / 1
    assert [start for start, _ in calls] == [[0.5]]


def test_attractor_multistart_after_the_centre_fails(monkeypatch):
    """r(0.5) < 0, so the centre start leaves {r > 0} at once; the
    multistart's first start, 1/6, reaches r's centre 0.1."""
    model = _gaussian_local(0.05, 0.1, 2.0)
    assert float(model.intrinsic.value(np.array([0.5]))) < 0
    calls = _spy_newton(monkeypatch)
    (x, rho), why = long_time_attractor(model, ([0.0], [1.0]))
    assert why is None
    assert x[0] == pytest.approx(0.1, abs=1e-12)
    assert rho == pytest.approx(0.05, abs=1e-12)
    assert calls[0] == ([0.5], ModelError)
    assert calls[1][0] == [pytest.approx(1.0 / 6.0)]
    assert len(calls) == 2


def test_newton_gives_up_when_a_step_leaves_the_box():
    """A step that lands more than one unit outside the box ends the search
    with None; one inside it converges after one step."""
    newton = canonical._newton_critical_point
    box = ([0.0], [1.0])
    assert newton(lambda x: x - 5.0, lambda x: np.eye(1), [0.5], box) is None
    assert newton(lambda x: x - 0.25, lambda x: np.eye(1), [0.5],
                  box).tolist() == [0.25]


def _traj_1d(times, xs, macro=None):
    times = np.asarray(times, dtype=float)
    xs = np.asarray(xs, dtype=float)[:, None]
    m = np.zeros(times.size) if macro is None else np.asarray(macro)
    H = np.full((times.size, 1, 1), -1.0)
    return ConcentrationTrajectory(times, xs, m, H)


def test_persistence_constant_trajectory():
    traj = _traj_1d([0.0, 1.0, 2.0], [0.2, 0.2, 0.2])
    rep = persistence_envelope(traj, local_1d())
    assert rep == {"K": 0.0, "r_positive": True}


def test_persistence_synthetic_exponential_decay():
    ts = np.linspace(0.0, 1.0, 21)
    xs = np.sqrt(1.0 - np.exp(-2.0 * ts))   # r(x(t)) = e^{-2t} for r = 1 - x^2
    rep = persistence_envelope(_traj_1d(ts, xs), local_1d())
    assert rep["K"] == pytest.approx(2.0, abs=1e-10)
    assert rep["r_positive"]


def test_persistence_reports_a_nonpositive_rate_later():
    """r = 1 - x^2 is 1 at the start and -1.25 at x = 1.5: no envelope."""
    traj = _traj_1d([0.0, 1.0], [0.0, 1.5])
    assert persistence_envelope(traj, local_1d()) == {"K": math.inf,
                                                      "r_positive": False}


def test_persistence_rejects_nonpositive_start():
    traj = _traj_1d([0.0, 1.0], [1.5, 1.5])
    with pytest.raises(ModelError):
        persistence_envelope(traj, local_1d())


def test_lyapunov_equilibrium_constant():
    traj = _traj_1d([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], macro=[1.0, 1.0, 1.0])
    rep = lyapunov_local(traj, local_1d())
    assert rep["applicable"] and rep["passed"]
    assert rep["worst_increment"] == 0.0


def test_lyapunov_increases_along_canonical_flow():
    m = local_1d()
    closure = HessianClosure("frozen", initial_hessian=[[-2.0]])
    traj = integrate_canonical((0.5,), closure, m, 1e-2, 3.0)
    rep = lyapunov_local(traj, m)
    assert rep["passed"]
    assert np.all(np.diff(rep["series"]) > 0)


def test_two_trait_gaussian_kernel_run_climbs_the_potential():
    """local_logistic_2d, ODE only: rho^2 C(x, x) never decreases along
    the frozen run, which ends within one cell of the grid argmax of
    phi_potential."""
    sc = load_bundled("local_logistic_2d")
    x0, closure, model, dt, T, domain = _scenario_case("local_logistic_2d",
                                                       "frozen")
    traj = integrate_canonical(x0, closure, model, dt, T, domain=domain)
    assert traj.exit_time is None
    assert lyapunov_local(traj, model)["passed"]
    grid = sc.build_grid()
    nodes = grid.nodes().reshape(-1, 2)
    best = nodes[np.argmax(phi_potential(model, nodes))]
    assert np.all(np.abs(traj.points[-1] - best) <= grid.spacing)


PHI = {"c0": 2.0, "center": [0.0], "weights": [0.5]}


def _separable_local(phi, psi):
    return build_model({"family": "logistic_local",
                        "params": {"r": {"c0": 1.0, "center": [0.0],
                                         "weights": [1.0]},
                                   "kernel": {"type": "separable",
                                              "phi": phi, "psi": psi}}}, 1)


def test_lyapunov_not_applicable_for_asymmetric_kernel():
    m = _separable_local(PHI, {"c0": 1.0, "center": [0.7], "weights": [0.3]})
    assert m.kernel.symmetric is False
    traj = _traj_1d([0.0, 1.0], [0.1, 0.1], macro=[0.5, 0.5])
    assert lyapunov_local(traj, m) == {"applicable": False}
    assert long_time_attractor(m, ([-1.0], [1.0])) == (
        None, "attractor theory requires a symmetric kernel")


def test_separable_kernel_with_equal_factors_is_symmetric():
    m = _separable_local(PHI, dict(PHI))
    assert m.kernel.symmetric is True
    traj = _traj_1d([0.0, 1.0], [0.1, 0.1], macro=[0.5, 0.5])
    out = lyapunov_local(traj, m)
    assert out["applicable"] is True and out["passed"] is True
    (x, _), why = long_time_attractor(m, ([-1.0], [1.0]))
    assert why is None and abs(float(x[0])) <= 1e-6   # max of ln r - ln C


# --- local/global reduction -------------------------------------------------------------

class _PhiWeightedGlobal:
    """Global law R(x, I) = r(x) - phi(x) I, whose x-dependent coefficient of
    I no built-in family has; the canonical ODE reads only this interface."""

    def __init__(self, r, phi):
        self.r, self.phi = r, phi

    def rate(self, x, I):
        return self.r.value(x) - self.phi.value(x) * np.asarray(I, dtype=float)

    def grad_x_rate(self, x, I):
        return self.r.grad(x) - self.phi.grad(x) * I

    def hess_x_rate(self, x, I):
        return self.r.hess(x) - self.phi.hess(x) * I

    def multiplier(self, x):
        return float(self.r.value(x)) / float(self.phi.value(x))


def test_separable_kernel_reduces_local_to_global_dynamics():
    phi = QuadraticFunction(2.0, [0.0], [0.5])
    psi = QuadraticFunction(1.0, [0.0], [0.0])     # identically 1
    r = QuadraticFunction(1.0, [0.2], [1.0])
    local = LocalCompetitionModel(1, r, SeparableKernel(phi, psi),
                                  name="reduced")
    glob = _PhiWeightedGlobal(r, phi)
    closure_a = HessianClosure("frozen", initial_hessian=[[-2.0]])
    closure_b = HessianClosure("frozen", initial_hessian=[[-2.0]])
    ta = integrate_canonical((0.5,), closure_a, local, 0.01, 1.0)
    tb = integrate_canonical((0.5,), closure_b, glob, 0.01, 1.0)
    assert np.max(np.abs(ta.points - tb.points)) <= 1e-9
    assert np.max(np.abs(ta.macro - tb.macro)) <= 1e-9


# --- the integrator against the array RK4 it replaced ------------------------------

def _uncached_interpolant(traj):
    """Reference: the Hessian interpolant evaluated afresh at every call."""
    t, H = traj.times, traj.hessians

    def interp(s):
        s = min(max(float(s), t[0]), t[-1])
        d = H.shape[-1]
        out = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                out[i, j] = np.interp(s, t, H[:, i, j])
        return out

    return interp


def _array_rk4(x0, closure, model, dt, T, domain=None):
    """Reference: RK4 on numpy arrays (1-element ones in 1D) through the
    pointwise canonical_rhs and riccati_hessian_rhs, checking every stage
    and interpolating the from_pde feed afresh at every call."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    riccati = closure.mode == "riccati"
    feed = (_uncached_interpolant(closure.feed)
            if closure.mode == "from_pde" else None)
    H = closure.initial_hessian

    def rhs(t, xs, Hs):
        m = model.multiplier(xs)
        v = canonical_rhs(xs, Hs if feed is None else feed(t), model, macro=m)
        return v, (riccati_hessian_rhs(xs, m, Hs, model) if riccati else None)

    def stage(k, w):
        return H + w * dt * k if riccati else H

    times, pts, hess = [0.0], [x], [H if feed is None else feed(0.0)]
    t = 0.0
    for _ in range(max(1, int(round(T / dt)))):
        k1x, k1H = rhs(t, x, H)
        k2x, k2H = rhs(t + 0.5 * dt, x + 0.5 * dt * k1x, stage(k1H, 0.5))
        k3x, k3H = rhs(t + 0.5 * dt, x + 0.5 * dt * k2x, stage(k2H, 0.5))
        k4x, k4H = rhs(t + dt, x + dt * k3x, stage(k3H, 1.0))
        x = x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x)
        if riccati:
            H = H + dt / 6.0 * (k1H + 2 * k2H + 2 * k3H + k4H)
        t += dt
        if domain is not None and (np.any(x < domain[0])
                                   or np.any(x > domain[1])):
            break
        times.append(t)
        pts.append(x)
        hess.append(H if feed is None else feed(t))
    return (np.array(times), np.array(pts),
            np.array([model.multiplier(p) for p in pts]), np.array(hess))


def _scenario_case(name, mode, T=None, pde_steps=None):
    sc = load_bundled(name)
    model = sc.build_model()
    settings = sc.canonical_settings()
    x0, H0 = u0_peaks(sc.u0)[0]
    dt, T = settings["dt"], T or settings["T"]
    if mode == "from_pde":
        cfg = dataclasses.replace(sc.build_config(), steps=pde_steps)
        feed = run_simulation(cfg, model, sc.build_grid(), sc.u0).trajectory
        closure = HessianClosure("from_pde", feed=feed)
        T = pde_steps * cfg.dt
    else:
        closure = HessianClosure(mode, initial_hessian=H0)
    return x0, closure, model, dt, T, sc.domain()


def _separable_case():
    phi = QuadraticFunction(2.0, [0.0], [0.5])
    psi = QuadraticFunction(1.0, [0.7], [0.3])
    model = LocalCompetitionModel(1, QuadraticFunction(1.0, [0.2], [1.0]),
                                  SeparableKernel(phi, psi))
    return ((0.5,), HessianClosure("riccati", initial_hessian=[[-2.0]]),
            model, 0.01, 1.0, None)


def _coarse_case(mode):
    """A step of a quarter time unit towards the rate's critical point at
    0: |x| shrinks with the stage increments, so a changed last bit of a
    velocity shows in the trajectory."""
    return ((0.5,), HessianClosure(mode, initial_hessian=[[-1.5]]),
            quadratic_1d(), 0.25, 30.0, None)


BITWISE_CASES = {
    "coarse_dt_frozen": lambda: _coarse_case("frozen"),
    "coarse_dt_riccati": lambda: _coarse_case("riccati"),
    "local_logistic_frozen": lambda: _scenario_case("local_logistic",
                                                    "frozen"),
    "local_logistic_riccati": lambda: _scenario_case("local_logistic",
                                                     "riccati", T=2.0),
    "quadratic_concave_from_pde": lambda: _scenario_case(
        "quadratic_concave", "from_pde", pde_steps=100),
    "quadratic_concave_riccati": lambda: _scenario_case(
        "quadratic_concave", "riccati"),
    "separable_kernel_riccati": _separable_case,
    "scenario2_frozen": lambda: _scenario_case("scenario2", "frozen"),
    "scenario2_riccati": lambda: _scenario_case("scenario2", "riccati"),
}


def _uncached_table(traj, times):
    """Reference: each time of the feed table interpolated on its own."""
    interp = _uncached_interpolant(traj)
    return np.array([interp(s) for s in times])


def _feed_case_2d():
    """from_pde on a 2D feed of 41 samples with a turning, non-diagonal
    Hessian: 100 steps ask for 201 times between the samples."""
    t = np.linspace(0.0, 1.0, 41)
    H = np.empty((41, 2, 2))
    H[:, 0, 0] = -2.0 - t
    H[:, 0, 1] = H[:, 1, 0] = 0.3 * t
    H[:, 1, 1] = -1.5 - 0.5 * np.sin(3.0 * t)
    feed = ConcentrationTrajectory(t, np.zeros((41, 2)), np.zeros(41), H)
    return ((0.3, -0.2), HessianClosure("from_pde", feed=feed),
            quadratic_2d(), 0.01, 1.0, None)


def test_from_pde_feed_interpolates_each_time_once(monkeypatch):
    """Each RK4 step asks the feed for t, t + dt/2 twice, t + dt, and t + dt
    again for the record: a run interpolates its start and the two new
    times of every step in one np.interp call per Hessian entry (one in 1D,
    four in 2D), and its trajectory is the bytes of one that interpolates
    at every call."""
    for case, d, steps in (
            (_scenario_case("quadratic_concave", "from_pde", pde_steps=400),
             1, 400),
            (_feed_case_2d(), 2, 100)):
        calls = []
        interp = np.interp
        monkeypatch.setattr(np, "interp", lambda *a: calls.append(
            np.size(a[0])) or interp(*a))
        traj = integrate_canonical(*case[:5], domain=case[5])
        monkeypatch.undo()
        assert len(traj) == steps + 1
        assert calls == [1 + 2 * steps] * d * d
        assert not case[1].feed.interpolate_hessians([0.1]).flags.writeable
        monkeypatch.setattr(ConcentrationTrajectory, "interpolate_hessians",
                            _uncached_table)
        ref = integrate_canonical(*case[:5], domain=case[5])
        monkeypatch.undo()
        for field in ("times", "points", "macro", "hessians"):
            assert (getattr(traj, field).tobytes()
                    == getattr(ref, field).tobytes())


@pytest.mark.parametrize("name", sorted(BITWISE_CASES))
def test_integrate_canonical_bitwise_equals_array_rk4(name):
    """1D stages on Python floats, the frozen -H negated once and a
    kernel's constant diagonal change no bit of the trajectory."""
    x0, closure, model, dt, T, domain = BITWISE_CASES[name]()
    traj = integrate_canonical(x0, closure, model, dt, T, domain=domain)
    times, pts, macro, hess = _array_rk4(x0, closure, model, dt, T,
                                         domain=domain)
    assert len(traj) > 100
    assert np.array_equal(traj.times, times)
    assert np.array_equal(traj.points, pts)
    assert np.array_equal(traj.macro, macro)
    assert np.array_equal(traj.hessians, hess)
