"""Growth laws: evaluation, constraint inversion, analytic derivatives,
steady states, potentials, assumption audits."""

import dataclasses
import math

import numpy as np
import pytest

from concentra.models import (ROOT_TOL, AssumptionConstants, ConstantKernel,
                              ConstraintInfeasibleError, GaussianKernel,
                              GlobalInteractionModel, LocalCompetitionModel,
                              ModelError, NoPositiveSteadyStateError,
                              PotentialDomainError, QuadraticFunction,
                              SeparableKernel, build_model,
                              check_assumptions, constant_diffusion,
                              eval_growth, invert_constraint,
                              phi_potential, sine_diffusion,
                              steady_state_weight)
from concentra.scenarios import bundled_scenario_names, load_bundled


def affine_2d(a=2.0, slope=(1.0, 1.0), coef_I=1.0):
    return build_model({"family": "affine_global",
                        "params": {"a": a, "slope": list(slope),
                                   "coef_I": coef_I}}, 2)


def quadratic_1d(k0=0.5, center=0.0, coef_I=1.0):
    return build_model({"family": "quadratic_global",
                        "params": {"k0": k0, "center": [center],
                                   "weights": [1.0], "coef_I": coef_I}}, 1)


def quadratic_2d(k0=1.0, center=(0.5, 0.5)):
    return build_model({"family": "quadratic_global",
                        "params": {"k0": k0, "center": list(center),
                                   "weights": [1.0, 1.0]}}, 2)


def logistic_local(c0=1.0, center=0.0, weight=1.0, kernel=None):
    params = {"r": {"c0": c0, "center": [center], "weights": [weight]}}
    if kernel:
        params["kernel"] = kernel
    return build_model({"family": "logistic_local", "params": params}, 1)


# --- eval_growth --------------------------------------------------------------

def test_eval_growth_affine_example():
    m = affine_2d()
    assert eval_growth(m, (0.7, 0.7), 0.3) == pytest.approx(0.3, abs=1e-14)


def test_eval_growth_zero_at_normalization_point():
    m = quadratic_1d(k0=0.5)   # I_M = k0 / coef_I = 0.5
    assert eval_growth(m, (0.0,), 0.5) == pytest.approx(0.0, abs=1e-14)


def test_eval_growth_local_balance():
    m = logistic_local(c0=1.0, weight=0.0)   # r identically 1
    assert eval_growth(m, (0.4,), 1.0) == pytest.approx(0.0, abs=1e-14)


class _InfiniteGrowth:
    def value(self, x):
        return np.full(np.asarray(x).shape[:-1], np.inf)


def test_eval_growth_rejects_non_finite():
    m = GlobalInteractionModel(1, _InfiniteGrowth(), 1.0)
    with pytest.raises(ModelError):
        eval_growth(m, (0.5,), 0.0)


# --- invert_constraint ---------------------------------------------------------

def test_invert_affine_interior_point():
    assert invert_constraint(affine_2d(), (0.7, 0.7)) == pytest.approx(
        0.6, abs=1e-12)


def test_invert_affine_admissibility_boundary():
    assert invert_constraint(affine_2d(), (1.0, 1.0)) == 0.0


def test_invert_quadratic_center_recovers_cap():
    m = quadratic_1d(k0=0.5)
    assert invert_constraint(m, (0.0,)) == pytest.approx(0.5, abs=1e-12)


def test_invert_infeasible_raises_with_values():
    with pytest.raises(ConstraintInfeasibleError):
        invert_constraint(affine_2d(), (1.5, 1.5))


def test_invert_residual_property_random_points():
    rng = np.random.default_rng(41)
    m = quadratic_2d()
    worst = 0.0
    for _ in range(1000):
        # admissible: inside the disc where R(x, 0) > 0
        ang = rng.uniform(0, 2 * np.pi)
        rad = 0.95 * math.sqrt(rng.uniform(0, 1))
        x = np.array([0.5 + rad * math.cos(ang), 0.5 + rad * math.sin(ang)])
        i_bar = invert_constraint(m, x)
        worst = max(worst, abs(eval_growth(m, x, i_bar)))
    assert worst <= 1e-12


def _bisect_root(m, x):
    """Root of the decreasing I -> R(x, I) on [0, inf) by bisection."""
    lo, hi = 0.0, 1.0
    while eval_growth(m, x, hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if eval_growth(m, x, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


BUILT_IN_GLOBAL = {
    "affine_global": (2, {"a": 2.0, "slope": [1.0, 0.5], "coef_I": 1.3}),
    "quadratic_global": (2, {"k0": 1.0, "center": [0.5, 0.5],
                             "weights": [1.0, 2.0], "coef_I": 0.7}),
    "scenario2": (2, {}),
    "scenario3": (2, {"r_e": 1.1}),
}


@pytest.mark.parametrize("family", sorted(BUILT_IN_GLOBAL))
def test_invert_closed_form_matches_numeric(family):
    d, params = BUILT_IN_GLOBAL[family]
    m = build_model({"family": family, "params": params}, d)
    rng = np.random.default_rng(47)
    for x in rng.uniform(0.0, 1.0, size=(200, d)):   # R(x, 0) > 0 here
        assert invert_constraint(m, x) == pytest.approx(
            _bisect_root(m, x), abs=1e-12)


@pytest.mark.parametrize("family", sorted(BUILT_IN_GLOBAL))
def test_invert_root_changes_sign_per_family(family):
    """The closed-form multiplier is a root of R(x, .), and the one where R
    changes sign from positive to negative; where R(x, 0) < 0 there is
    none.  The box reaches past the feasible set of every family."""
    d, params = BUILT_IN_GLOBAL[family]
    m = build_model({"family": family, "params": params}, d)
    rng = np.random.default_rng(41)
    worst = 0.0
    for x in rng.uniform(-0.5, 1.5, size=(1000, d)):
        if eval_growth(m, x, 0.0) < 0.0:
            with pytest.raises(ConstraintInfeasibleError):
                invert_constraint(m, x)
            continue
        i_bar = invert_constraint(m, x)
        assert i_bar > 0.0
        worst = max(worst, abs(eval_growth(m, x, i_bar)))
        assert eval_growth(m, x, i_bar * (1.0 - 1e-9)) > 0.0
        assert eval_growth(m, x, i_bar * (1.0 + 1e-9)) < 0.0
    assert worst <= 1e-12


def test_invert_closed_form_infeasibility_contract():
    # R(x, 0) within ROOT_TOL below zero clamps to the root I = 0
    assert invert_constraint(affine_2d(a=-0.5 * ROOT_TOL), (0.0, 0.0)) == 0.0
    with pytest.raises(ConstraintInfeasibleError):
        invert_constraint(affine_2d(a=-2.0 * ROOT_TOL), (0.0, 0.0))
    # R independent of I and positive: no root, but the model still builds
    with pytest.raises(ConstraintInfeasibleError):
        invert_constraint(affine_2d(coef_I=0.0), (0.5, 0.5))
    assert invert_constraint(affine_2d(coef_I=0.0), (1.0, 1.0)) == 0.0
    with pytest.raises(ModelError):
        invert_constraint(affine_2d(), (np.nan, 0.5))


def test_invert_monotone_in_pointwise_rate_order():
    m = quadratic_2d()
    # closer to the center means a larger rate at every I, hence a larger root
    near = invert_constraint(m, (0.55, 0.5))
    far = invert_constraint(m, (0.9, 0.5))
    assert near > far


# --- one growth-law interface for both model types -------------------------------

GROWTH_LAWS = {
    **{name: (lambda name=name: load_bundled(name).build_model())
       for name in bundled_scenario_names()},
    "local_constant_kernel": lambda: logistic_local(
        c0=1.0, center=0.4, weight=1.5,
        kernel={"type": "constant", "value": 1.3}),
    "local_separable_kernel": lambda: logistic_local(
        c0=1.0, center=0.4, weight=1.5,
        kernel={"type": "separable",
                "phi": {"c0": 2.0, "center": [0.1], "weights": [0.5]},
                "psi": {"c0": 1.0, "center": [0.7], "weights": [0.3]}}),
}


@pytest.mark.parametrize("name", sorted(GROWTH_LAWS))
def test_growth_law_interface_bitwise_equals_forked_formulas(name):
    """multiplier, rate, grad_x_rate and hess_x_rate give, byte for byte,
    what the per-type formulas they replace gave."""
    m = GROWTH_LAWS[name]()
    local = isinstance(m, LocalCompetitionModel)
    rng = np.random.default_rng(53)
    pts = rng.uniform(0.0, 1.0, size=(200, m.dimension))   # feasible here
    macros = []
    for x in pts:
        if local:
            mult = (max(float(m.intrinsic.value(x)), 0.0)
                    / float(m.kernel(x, x)))
            grad = (np.asarray(m.intrinsic.grad(x), dtype=float)
                    - mult * np.asarray(m.kernel.grad_x(x, x), dtype=float))
            hess = (np.asarray(m.intrinsic.hess(x), dtype=float)
                    - float(mult)
                    * np.asarray(m.kernel.hess_x(x, x), dtype=float))
        else:
            mult = invert_constraint(m, x)
            grad = np.asarray(m.grad_x_rate(x, mult), dtype=float)
            hess = np.asarray(m.hess_x_rate(x, mult), dtype=float)
        got = m.multiplier(x)
        assert type(got) is type(mult)
        assert np.float64(got).tobytes() == np.float64(mult).tobytes()
        assert (np.asarray(m.grad_x_rate(x, got), dtype=float).tobytes()
                == grad.tobytes())
        assert (np.asarray(m.hess_x_rate(x, got), dtype=float).tobytes()
                == hess.tobytes())
        macros.append(mult)
    macros = np.asarray(macros)
    if local:
        rate = (np.asarray(m.intrinsic.value(pts), dtype=float)
                - macros * np.asarray(m.kernel(pts, pts), dtype=float))
    else:
        rate = np.asarray(m.rate(pts, macros), dtype=float)
    assert (np.asarray(m.rate(pts, macros), dtype=float).tobytes()
            == rate.tobytes())


ONE_TRAIT_LAWS = {
    **{name: GROWTH_LAWS[name] for name in (
        "local_logistic", "quadratic_concave", "local_constant_kernel")},
    "affine_global": lambda: build_model(
        {"family": "affine_global", "params": {"a": 2.0, "slope": [1.0]}},
        1),
}


@pytest.mark.parametrize("name", sorted(ONE_TRAIT_LAWS))
def test_float_law_bitwise_equals_array_methods(name):
    m = ONE_TRAIT_LAWS[name]()
    multiplier, grad, hess = m.on_floats()
    rng = np.random.default_rng(59)
    for x in [0.0, 0.2, 0.4, 0.5, *rng.uniform(0.0, 1.0, 200)]:
        p = np.array([x])
        mult = m.multiplier(p)
        assert np.float64(multiplier(float(x))).tobytes() == \
            np.float64(mult).tobytes()
        assert np.float64(grad(float(x), mult)).tobytes() == \
            np.asarray(m.grad_x_rate(p, mult), dtype=float).tobytes()
        assert np.float64(hess(float(x), mult)).tobytes() == \
            np.asarray(m.hess_x_rate(p, mult), dtype=float).tobytes()


def test_float_law_names_the_point_of_an_infeasible_root():
    m = build_model({"family": "affine_global",
                     "params": {"a": -1.0, "slope": [0.0]}}, 1)
    multiplier, _, _ = m.on_floats()
    with pytest.raises(ConstraintInfeasibleError) as on_floats:
        multiplier(0.5)
    with pytest.raises(ConstraintInfeasibleError) as on_arrays:
        m.multiplier(np.array([0.5]))
    assert str(on_floats.value) == str(on_arrays.value)
    assert on_floats.value.x.tolist() == [0.5]


def test_kernels_state_their_symmetry():
    q = QuadraticFunction(2.0, [0.1], [0.5])
    assert ConstantKernel(1.3).symmetric is True
    assert GaussianKernel(floor=0.8, amp=0.2, width=0.5).symmetric is True
    assert SeparableKernel(q, QuadraticFunction(2.0, [0.1], [0.5])).symmetric
    for other in (QuadraticFunction(1.0, [0.1], [0.5]),
                  QuadraticFunction(2.0, [0.7], [0.5]),
                  QuadraticFunction(2.0, [0.1], [0.3])):
        assert SeparableKernel(q, other).symmetric is False


# --- steady states and potential ------------------------------------------------

def test_steady_state_weight_global_unit():
    m = affine_2d(a=1.0, slope=(0.0, 0.0))
    assert steady_state_weight(m, (0.3, 0.8)) == pytest.approx(1.0, abs=1e-12)


def test_steady_state_weight_local_quadratic():
    m = logistic_local(c0=1.0, center=0.0, weight=1.0)
    assert steady_state_weight(m, (0.5,)) == pytest.approx(0.75, abs=1e-14)


def test_steady_state_weight_local_negative_rate():
    m = logistic_local(c0=1.0, center=0.0, weight=1.0)
    with pytest.raises(NoPositiveSteadyStateError):
        steady_state_weight(m, (2.0,))


def test_phi_potential_values():
    m = logistic_local(c0=1.0, center=0.0, weight=1.0)
    assert phi_potential(m, (0.0,)) == pytest.approx(0.0, abs=1e-14)
    assert phi_potential(m, (0.5,)) == pytest.approx(math.log(0.75), abs=1e-12)


def test_phi_potential_domain_error():
    m = logistic_local(c0=1.0, center=0.0, weight=1.0)
    with pytest.raises(PotentialDomainError):
        phi_potential(m, (1.5,))


def test_phi_potential_joint_scaling_invariance():
    lam = 3.7
    base = logistic_local(c0=1.0, center=0.0, weight=1.0)
    scaled = build_model(
        {"family": "logistic_local",
         "params": {"r": {"c0": lam, "center": [0.0], "weights": [lam]},
                    "kernel": {"type": "constant", "value": lam}}}, 1)
    xs = np.linspace(-0.9, 0.9, 41)[:, None]
    a = phi_potential(base, xs)
    b = phi_potential(scaled, xs)
    assert np.max(np.abs(a - b)) <= 1e-12


# --- assumption checks ----------------------------------------------------------

def _get(report, name):
    for c in report.checks:
        if c.name == name:
            return c
    raise AssertionError(f"check {name} not in report")


def test_check_assumptions_convex_rate_fails_concavity():
    m = build_model({"family": "scenario3", "params": {"r_e": 1.1}}, 2)
    c = AssumptionConstants(K_bar_1=1.0, K_under_1=1.0, I_M=2.0)
    rep = check_assumptions(m, c, (np.zeros(2), np.ones(2)), samples=100)
    assert _get(rep, "hessian_bounds(9)").passed is False
    assert "hessian_bounds(9)" in rep.warnings
    assert rep.all_passed is False


def test_check_assumptions_concave_quadratic_passes():
    m = quadratic_1d(k0=0.5)
    c = AssumptionConstants(I_M=0.5, K_bar_0=0.5, K_bar_1=1.0, K_under_1=1.0,
                            K_bar_2=1.0, K_under_2=1.0)
    rep = check_assumptions(m, c, (np.array([-0.7]), np.array([0.7])),
                            samples=200)
    for name in ("normalization(8)", "quadratic_envelope(8b)",
                 "hessian_bounds(9)", "I_monotonicity(10)"):
        assert _get(rep, name).passed is True


def test_check_assumptions_compatibility_arithmetic_failure():
    m = quadratic_1d()
    c = AssumptionConstants(L_bar_1=1.0, K_bar_1=2.0, K_under_1=2.0,
                            L_under_1=1.0)
    rep = check_assumptions(m, c, (np.array([-1.0]), np.array([1.0])),
                            samples=50)
    assert _get(rep, "compatibility(17)").passed is False


def test_check_assumptions_local_dominance():
    m = logistic_local(c0=1.0, center=0.5, weight=1.0,
                       kernel={"type": "gaussian", "floor": 0.8,
                               "amp": 0.2, "width": 0.5})
    c = AssumptionConstants(rho_M=1.25)
    rep = check_assumptions(m, c, (np.array([0.0]), np.array([1.0])),
                            samples=100)
    assert _get(rep, "kernel_diag_positive(50)").passed is True
    assert _get(rep, "competition_dominance(51)").passed is True


def test_check_assumptions_diffusion_entries():
    m = quadratic_1d()
    b = sine_diffusion(base=1.0, amp=0.4, freq=1.0)
    c = AssumptionConstants(B_1=10.0, B_2=100.0, B_3=200.0,
                            C_grad_u=0.1, K_bar_1=1.0)
    rep = check_assumptions(m, c, (np.array([-1.0]), np.array([1.0])),
                            samples=100, b=b)
    assert _get(rep, "diffusion_bounds(31)").passed is True
    assert _get(rep, "diffusion_third(31d)").passed is True


def test_check_assumptions_runs_every_check():
    """All twenty audits on two models: R = 0.5 - x^2 - I with u0 = -x^2/2,
    a sine b and every global constant; a Gaussian-kernel local model with
    u0 = -(x - 0.5)^2/2 and every local constant.  Bracket, chain and
    scalar margins are computed here from the constants."""
    c = AssumptionConstants(
        I_M=0.5, K_bar_0=0.75, K_bar_1=0.75, K_under_1=1.2, K_bar_2=0.5,
        K_under_2=2.0, K_3=1.0, L_bar_0=0.25, L_under_0=0.5, L_bar_1=0.25,
        L_under_1=0.75, B_1=10.0, B_2=100.0, B_3=50.0, C_grad_u=0.1)
    rep = check_assumptions(
        quadratic_1d(k0=0.5), c, (np.array([-1.0]), np.array([1.0])),
        samples=9, b=sine_diffusion(base=1.0, amp=0.4, freq=1.0),
        u0=QuadraticFunction(0.0, [0.0], [0.5]))
    assert [ch.name for ch in rep.checks] == [
        "weight_bounds(7)", "normalization(8)", "quadratic_envelope(8b)",
        "hessian_bounds(9)", "I_monotonicity(10)", "laplacian_psi_R(10b)",
        "compatibility(17)", "initial_envelope(13)", "initial_concavity(14)",
        "diffusion_bounds(31)", "diffusion_gradient(31b)",
        "diffusion_hess_trace(31c)", "diffusion_third(31d)",
        "diffusion_compatibility(34)"]
    margin = {ch.name: ch.margin for ch in rep.checks}
    # D2R = -2, dR/dI = -1, D2u0 = -1 and b = 1 + 0.4 sin(2 pi x)
    assert margin["weight_bounds(7)"] == 1.0
    assert margin["normalization(8)"] == 0.0        # max R(x, 0.5) = 0 at 0
    assert margin["hessian_bounds(9)"] == pytest.approx(
        min(-2.0 + 2.0 * c.K_under_1, -2.0 * c.K_bar_1 + 2.0))      # 0.4
    assert margin["I_monotonicity(10)"] == min(-1.0 + c.K_under_2,
                                               -c.K_bar_2 + 1.0)
    assert margin["laplacian_psi_R(10b)"] == -2.0 + c.K_3
    assert margin["compatibility(17)"] == pytest.approx(min(
        c.K_bar_1 - 4.0 * c.L_bar_1 ** 2, c.K_under_1 - c.K_bar_1,
        4.0 * c.L_under_1 ** 2 - c.K_under_1))                      # 0.45
    assert margin["initial_concavity(14)"] == min(
        -1.0 + 2.0 * c.L_under_1, -2.0 * c.L_bar_1 + 1.0)           # 0.5
    assert margin["diffusion_bounds(31)"] == pytest.approx(0.6)
    assert margin["diffusion_gradient(31b)"] == pytest.approx(
        c.B_1 / 2.0 - 0.8 * math.pi)                                # at x = -1
    assert margin["diffusion_hess_trace(31c)"] == pytest.approx(
        c.B_2 / 1.75 ** 2 - 1.6 * math.pi ** 2)                     # at -0.75
    assert margin["diffusion_third(31d)"] == pytest.approx(
        c.B_3 - 3.2 * math.pi ** 3)
    assert margin["diffusion_compatibility(34)"] == pytest.approx(
        2.0 * c.K_bar_1 - c.B_2 * c.C_grad_u ** 2)
    assert _get(rep, "diffusion_gradient(31b)").worst_point == [-1.0]
    assert _get(rep, "diffusion_hess_trace(31c)").worst_point == [-0.75]
    assert rep.warnings == ["laplacian_psi_R(10b)", "diffusion_third(31d)"]
    assert rep.warnings == [ch.name for ch in rep.checks
                            if ch.passed is False]
    assert rep.all_passed is False
    assert rep.to_dict()["outside_concave_framework"] == rep.warnings

    c = AssumptionConstants(rho_M=1.25, K_bar_1_prime=0.5,
                            K_under_1_prime=2.0, L_bar_0=0.25, L_under_0=0.5,
                            L_bar_1=0.25, L_under_1=0.5)
    local = logistic_local(c0=1.0, center=0.5, weight=1.0,
                           kernel={"type": "gaussian", "floor": 0.8,
                                   "amp": 0.2, "width": 0.5})
    rep = check_assumptions(local, c, (np.array([0.0]), np.array([1.0])),
                            u0=QuadraticFunction(0.0, [0.5], [0.5]))
    assert [ch.name for ch in rep.checks] == [
        "kernel_diag_positive(50)", "competition_dominance(51)",
        "local_concavity(52)", "compatibility(57)", "initial_envelope(13)",
        "initial_concavity(14)"]
    margin = {ch.name: ch.margin for ch in rep.checks}
    assert margin["kernel_diag_positive(50)"] == 1.0      # floor + amp
    # every x has a sample y at least 0.5 away, where D2_x C >= 0: the
    # upper end of the bracket reads D2 r = -2 and binds
    assert margin["local_concavity(52)"] == -2.0 * c.K_bar_1_prime + 2.0
    assert margin["compatibility(57)"] == min(
        c.K_bar_1_prime - 4.0 * c.L_bar_1 ** 2,
        c.K_under_1_prime - c.K_bar_1_prime,
        4.0 * c.L_under_1 ** 2 - c.K_under_1_prime)              # -1
    assert margin["initial_concavity(14)"] == min(
        -1.0 + 2.0 * c.L_under_1, -2.0 * c.L_bar_1 + 1.0)        # 0
    assert _get(rep, "compatibility(57)").worst_point is None
    assert rep.warnings == ["compatibility(57)"]
    assert rep.all_passed is False


# --- analytic derivatives against central differences ---------------------------

def _central_grad(f, x, h=1e-5):
    e = np.eye(x.size) * h
    return np.array([(f(x + e[j]) - f(x - e[j])) / (2.0 * h)
                     for j in range(x.size)])


def _central_hess(grad, x, h=1e-5):
    e = np.eye(x.size) * h
    return np.array([(grad(x + e[j]) - grad(x - e[j])) / (2.0 * h)
                     for j in range(x.size)]).T


def _local(kernel):
    return logistic_local(c0=1.0, center=0.4, weight=1.5, kernel=kernel)


DERIVATIVE_LAWS = {
    **{family: (lambda family=family: build_model(
        {"family": family, "params": BUILT_IN_GLOBAL[family][1]},
        BUILT_IN_GLOBAL[family][0])) for family in BUILT_IN_GLOBAL},
    "logistic_local_constant": lambda: _local(
        {"type": "constant", "value": 1.3}),
    "logistic_local_gaussian": lambda: _local(
        {"type": "gaussian", "floor": 0.2, "amp": 0.9, "width": 0.3}),
    "logistic_local_separable": lambda: _local(
        {"type": "separable",
         "phi": {"c0": 2.0, "center": [0.1], "weights": [0.5]},
         "psi": {"c0": 1.0, "center": [0.7], "weights": [0.3]}}),
}


@pytest.mark.parametrize("name", sorted(DERIVATIVE_LAWS))
def test_analytic_derivatives_match_central_differences(name):
    """grad_x_rate and hess_x_rate are the x-derivatives of the rate at a
    fixed macro state: I for a global law; for a local law the competition
    C(x, y) rho felt at x from a Dirac held at y = x.  d_rate_dI is the
    derivative in the macro argument, -coef_I for a global law."""
    m = DERIVATIVE_LAWS[name]()
    local = isinstance(m, LocalCompetitionModel)
    rng = np.random.default_rng(59)
    for x in rng.uniform(0.0, 1.0, size=(20, m.dimension)):
        if name == "scenario2" and abs(x[1] - 0.3) < 1e-3:
            continue   # the (y - y0)_+^2 term has no second derivative at y0
        macro = 0.7
        if local:
            def rate(z):
                return float(m.intrinsic.value(z)
                             - macro * m.kernel(z, x))

            def grad(z):
                return (m.intrinsic.grad(z)
                        - macro * m.kernel.grad_x(z, x))
        else:
            def rate(z):
                return float(m.rate(z, macro))

            def grad(z):
                return np.asarray(m.grad_x_rate(z, macro), dtype=float)
        g = np.asarray(m.grad_x_rate(x, macro), dtype=float)
        h = np.asarray(m.hess_x_rate(x, macro), dtype=float)
        assert np.max(np.abs(g - _central_grad(rate, x))) <= 1e-8
        assert np.max(np.abs(h - _central_hess(grad, x))) <= 1e-7
        d_i = (float(m.rate(x, macro + 1e-5))
               - float(m.rate(x, macro - 1e-5))) / 2e-5
        assert float(m.d_rate_dI(x, macro)) == pytest.approx(d_i, abs=1e-8)
        if not local:
            assert float(m.d_rate_dI(x, macro)) == -m.coef_I


def test_constant_diffusion_validates_sign():
    with pytest.raises(ModelError):
        constant_diffusion(0.0)


def test_sine_diffusion_positivity_guard():
    with pytest.raises(ModelError):
        sine_diffusion(base=1.0, amp=1.0)
    b = sine_diffusion(base=1.0, amp=0.5)
    assert b.b_m == pytest.approx(0.5)
    assert b.b_M == pytest.approx(1.5)


def test_constant_kernel_diagonal():
    k = ConstantKernel(2.0)
    assert float(k(np.zeros(1), np.zeros(1))) == 2.0
    assert k.diagonal == 2.0


@pytest.mark.parametrize("kernel", [
    ConstantKernel(1.3), GaussianKernel(floor=0.8, amp=0.2, width=0.5),
    GaussianKernel(amp=1.0, width=0.3)], ids=["constant", "gaussian_floor",
                                              "gaussian"])
def test_translation_invariant_kernel_states_its_diagonal(kernel):
    """C(x, x) is the stated constant, bitwise, and grad_x C(x, x) = 0."""
    x = np.random.default_rng(61).uniform(-2.0, 2.0, size=(100, 2))
    assert kernel(x, x).tobytes() == np.full(100, kernel.diagonal).tobytes()
    assert not np.any(kernel.grad_x(x, x))


def test_separable_kernel_has_no_constant_diagonal():
    phi = QuadraticFunction(2.0, [0.0], [0.5])
    assert SeparableKernel(phi, phi).diagonal is None


def test_assumption_constants_reject_unknown_names():
    with pytest.raises(ModelError):
        AssumptionConstants.from_dict({"K_mystery": 1.0})


def _ledger_margins(c):
    """Every margin of the audits of a global and a Gaussian-kernel local
    model, each with a sine b and a quadratic u0, under the ledger `c`."""
    b = sine_diffusion(base=1.0, amp=0.4, freq=1.0)
    glob = check_assumptions(
        quadratic_1d(k0=0.5), c, (np.array([-1.0]), np.array([1.0])),
        samples=9, b=b, u0=QuadraticFunction(0.0, [0.0], [0.5]))
    local = check_assumptions(
        logistic_local(c0=1.0, center=0.5, weight=1.0,
                       kernel={"type": "gaussian", "floor": 0.8,
                               "amp": 0.2, "width": 0.5}),
        c, (np.array([0.0]), np.array([1.0])), samples=9, b=b,
        u0=QuadraticFunction(0.0, [0.5], [0.5]))
    return [ch.margin for ch in glob.checks + local.checks]


def test_every_assumption_constant_moves_a_margin():
    """In a full ledger, scaling any one constant alone by 1/100 or by 100
    moves some audit margin: the ledger holds no constant nothing reads."""
    values = dict(
        I_M=0.5, rho_M=1.25, K_bar_0=0.75, K_bar_1=0.75, K_under_1=1.2,
        K_bar_2=0.5, K_under_2=2.0, K_3=1.0, L_bar_0=0.25, L_under_0=0.5,
        L_bar_1=0.25, L_under_1=0.75, B_1=10.0, B_2=100.0, B_3=50.0,
        C_grad_u=0.1, K_bar_1_prime=0.5, K_under_1_prime=2.0)
    full = {f.name: values.get(f.name, 1.0)
            for f in dataclasses.fields(AssumptionConstants)}
    base = _ledger_margins(AssumptionConstants(**full))
    unread = [name for name, v in full.items()
              if all(_ledger_margins(AssumptionConstants(
                  **{**full, name: v * scale})) == base
                     for scale in (0.01, 100.0))]
    assert unread == []


def test_assumption_constants_roundtrip():
    c = AssumptionConstants.from_dict({"I_M": 0.5, "L_bar_1": 1.0})
    assert c.to_dict() == {"I_M": 0.5, "L_bar_1": 1.0}


def test_unknown_model_family_rejected():
    with pytest.raises(ModelError):
        build_model({"family": "nope"}, 1)
