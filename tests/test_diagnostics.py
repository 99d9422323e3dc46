"""Series analytics: the run's macro series, BV/monotonicity, residuals,
comparison."""

import numpy as np
import pytest

from concentra.canonical import ConcentrationTrajectory
from concentra.diagnostics import (DiagnosticsError, MacroSeries,
                                   compare_trajectories, constraint_residual,
                                   monotonicity_violation, post_layer_max,
                                   total_variation)
from concentra.grid import build_grid
from concentra.models import ROOT_TOL, build_model
from concentra.pde import SimulationConfig, run_simulation


def zero_rate_model():
    return build_model({"family": "affine_global",
                        "params": {"a": 0.0, "slope": [0.0],
                                   "coef_I": 0.0}}, 1)


# --- MacroSeries validation -----------------------------------------------------

def test_macro_series_length_mismatch():
    with pytest.raises(DiagnosticsError):
        MacroSeries(np.array([0.0, 1.0]), np.zeros(3), np.zeros(2),
                    np.zeros(2), np.zeros(2))


def test_macro_series_negative_mass_rejected():
    with pytest.raises(DiagnosticsError):
        MacroSeries(np.array([0.0, 1.0]), np.zeros(2),
                    np.array([0.1, -0.2]), np.zeros(2), np.zeros(2))


def test_macro_series_times_must_increase():
    with pytest.raises(DiagnosticsError):
        MacroSeries(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2),
                    np.zeros(2), np.zeros(2))


# --- the series recorded by a run ---------------------------------------------------

def initial_series(model, grid, epsilon):
    cfg = SimulationConfig(epsilon, 0.01, 0)
    bump = [{"center": [0.5], "weights": [2.0]}]
    return run_simulation(cfg, model, grid, bump).series


def test_macro_series_gaussian_mass():
    s = initial_series(zero_rate_model(), build_grid(1, 0.0, 1.0, 128), 0.005)
    assert s.rho[0] == pytest.approx(0.3, abs=1e-12)
    assert s.I[0] == pytest.approx(0.3, abs=1e-12)
    assert s.J[0] == 0.0   # rate is identically zero


def test_macro_series_local_recomputes_competition_field():
    local = build_model({"family": "logistic_local",
                         "params": {"r": {"c0": 1.0, "center": [0.5],
                                          "weights": [1.0]}}}, 1)
    s = initial_series(local, build_grid(1, 0.0, 1.0, 64), 0.01)
    assert s.rho[0] == pytest.approx(0.3, abs=1e-12)
    assert np.isfinite(s.J[0])


# --- total variation ----------------------------------------------------------------

def test_total_variation_examples():
    assert total_variation([0.0, 1.0, 2.0]) == 2.0
    assert total_variation([1.5, 1.5, 1.5]) == 0.0
    assert total_variation([0.0, 1.0, 0.0]) == 2.0


def test_total_variation_invariances():
    rng = np.random.default_rng(59)
    s = rng.standard_normal(40)
    tv = total_variation(s)
    assert abs(total_variation(s + 7.3) - tv) <= 1e-14
    assert abs(total_variation(s[::-1]) - tv) <= 1e-14
    # concatenation at a shared endpoint adds exactly
    a, b = s[:20], s[19:]
    assert abs(total_variation(a) + total_variation(b) - tv) <= 1e-14


def test_total_variation_needs_two_samples():
    with pytest.raises(DiagnosticsError):
        total_variation([1.0])


# --- constraint residual ---------------------------------------------------------------

def _traj(times, xs, macro):
    xs = np.asarray(xs, dtype=float)[:, None]
    H = np.full((len(times), 1, 1), -1.0)
    return ConcentrationTrajectory(np.asarray(times, dtype=float), xs,
                                   np.asarray(macro, dtype=float), H)


def test_constraint_residual_zero_rate_model():
    traj = _traj([0.0, 1.0, 2.0], [0.2, 0.3, 0.4], [0.0, 0.0, 0.0])
    res = constraint_residual(traj, zero_rate_model())
    post = post_layer_max(traj.times, res, traj.times[0])
    assert np.all(res == 0.0)
    assert post == 0.0


def test_constraint_residual_layer_window():
    m = build_model({"family": "quadratic_global",
                     "params": {"k0": 0.5, "center": [0.0],
                                "weights": [1.0]}}, 1)
    # first sample far off the constraint, later samples exactly on it
    xs = [0.3, 0.2, 0.1]
    macro = [0.0, 0.5 - 0.04, 0.5 - 0.01]
    traj = _traj([0.0, 1.0, 2.0], xs, macro)
    res = constraint_residual(traj, m)
    post = post_layer_max(traj.times, res, t_layer=0.5)
    assert res[0] == pytest.approx(0.41)
    assert post <= 1e-12
    assert np.isnan(post_layer_max(traj.times, res, t_layer=2.5))


def test_constraint_residual_local_model():
    local = build_model({"family": "logistic_local",
                         "params": {"r": {"c0": 1.0, "center": [0.0],
                                          "weights": [1.0]}}}, 1)
    traj = _traj([0.0, 1.0], [0.5, 0.5], [0.75, 0.75])
    res = constraint_residual(traj, local)
    assert np.max(res) <= ROOT_TOL


# --- trajectory comparison ----------------------------------------------------------------

def test_compare_identical_trajectories():
    t = _traj([0.0, 1.0, 2.0], [0.1, 0.2, 0.3], [0.0, 0.0, 0.0])
    sup, common, dist = compare_trajectories(t, t)
    assert sup == 0.0
    assert np.all(dist == 0.0)


def test_compare_constant_offset():
    a = _traj([0.0, 1.0], [0.2, 0.2], [0.0, 0.0])
    b = _traj([0.0, 1.0], [0.3, 0.3], [0.0, 0.0])
    sup, _, _ = compare_trajectories(a, b)
    assert sup == pytest.approx(0.1, abs=1e-15)


def test_compare_interpolates_mismatched_sampling():
    a = _traj([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    b = _traj([0.0, 0.5, 2.0], [0.0, 0.5, 2.0], [0.0, 0.0, 0.0])
    sup, _, _ = compare_trajectories(a, b)
    assert sup <= 1e-15


def test_compare_common_times_bitwise_np_unique():
    """The merged time grid is np.unique's array byte for byte: shared,
    interleaved and out-of-overlap times, and -0.0 against +0.0."""
    rng = np.random.default_rng(3)
    ta = np.concatenate(([-0.0], np.cumsum(rng.uniform(0.0, 0.1, 60))))
    tb = np.concatenate(([0.0], ta[5:40:3], ta[41:] + 1e-3, [ta[-1] + 1.0]))
    tb = np.unique(tb)
    for a_t, b_t in ((ta, tb), (tb, ta), (ta, ta)):
        a = _traj(a_t, np.sin(a_t), np.zeros(a_t.size))
        b = _traj(b_t, np.cos(b_t), np.zeros(b_t.size))
        _, common, _ = compare_trajectories(a, b)
        lo, hi = max(a_t[0], b_t[0]), min(a_t[-1], b_t[-1])
        expected = np.unique(np.concatenate(
            [a_t[(a_t >= lo) & (a_t <= hi)], b_t[(b_t >= lo) & (b_t <= hi)]]))
        assert common.tobytes() == expected.tobytes()


def test_compare_merge_matches_np_unique_on_random_grids():
    """The merge of the two windows is np.unique's array byte for byte on
    random interleaved grids: shared times, one grid inside the other,
    grids that only touch, negative times, and sizes from 1 to 80."""
    rng = np.random.default_rng(19)
    for _ in range(300):
        pool = np.cumsum(rng.uniform(1e-3, 1.0, 120)) - rng.uniform(0, 30)
        a_t, b_t = (np.unique(rng.choice(pool, rng.integers(1, 81)))
                    for _ in range(2))
        case = rng.integers(0, 4)
        if case == 1:   # b a tail of a: every time of b shared
            b_t = a_t[rng.integers(0, a_t.size):]
        elif case == 2:   # b starts where a ends: one time shared
            b_t = a_t[-1] + np.cumsum(np.r_[0.0, rng.uniform(0.1, 1.0, 5)])
        a = _traj(a_t, np.sin(a_t), np.zeros(a_t.size))
        b = _traj(b_t, np.cos(b_t), np.zeros(b_t.size))
        lo, hi = max(a_t[0], b_t[0]), min(a_t[-1], b_t[-1])
        if hi < lo:
            continue
        expected = np.unique(np.concatenate(
            [a_t[(a_t >= lo) & (a_t <= hi)], b_t[(b_t >= lo) & (b_t <= hi)]]))
        for first, second in ((a, b), (b, a)):
            _, common, dist = compare_trajectories(first, second)
            assert common.tobytes() == expected.tobytes()
            assert dist.shape == common.shape


def test_compare_disjoint_ranges_raises():
    a = _traj([0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
    b = _traj([2.0, 3.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DiagnosticsError):
        compare_trajectories(a, b)


# --- monotonicity --------------------------------------------------------------------------

def test_monotonicity_examples():
    assert monotonicity_violation([0.0, 0.5, 1.5]) == 0.5
    assert monotonicity_violation([1.0, 1.0, 1.0]) == 0.0
    assert monotonicity_violation([0.0, 1.0, 0.25]) == -0.75


def test_monotonicity_needs_two_samples():
    with pytest.raises(DiagnosticsError):
        monotonicity_violation([1.0])
