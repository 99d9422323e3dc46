"""Time-series analytics: the macro-observable series, BV/monotonicity
checks, constraint residuals, trajectory comparison."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DiagnosticsError(ValueError):
    pass


@dataclass
class MacroSeries:
    """Per-step macro observables of one run: total interaction I, mass rho,
    the scaled reaction integral J = (1/eps) int psi R n, and the mass in the
    outer boundary ring."""

    times: np.ndarray
    I: np.ndarray
    rho: np.ndarray
    J: np.ndarray
    boundary_mass: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        for name in ("I", "rho", "J", "boundary_mass"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != self.times.shape:
                raise DiagnosticsError(f"{name} length {arr.size} != "
                                       f"times length {self.times.size}")
            setattr(self, name, arr)
        if np.any(np.diff(self.times) <= 0):
            raise DiagnosticsError("times must be strictly increasing")
        if np.any(self.rho < 0):
            raise DiagnosticsError("rho must be nonnegative")


def total_variation(series) -> float:
    """Sum of |increments|; equals |last - first| iff the series is monotone."""
    s = np.asarray(series, dtype=float)
    if s.size < 2:
        raise DiagnosticsError("total variation needs at least two samples")
    return float(np.abs(np.diff(s)).sum())


def constraint_residual(traj, model) -> np.ndarray:
    """|growth rate at the tracked peak| along a `ConcentrationTrajectory`."""
    return np.abs(np.asarray(model.rate(traj.points, traj.macro), dtype=float))


def post_layer_max(times: np.ndarray, residuals: np.ndarray,
                   t_layer: float) -> float:
    """Maximum of `residuals` past the transient window t < t_layer, where
    the multiplier relaxes onto the constraint; nan when no time is past
    it."""
    sel = times >= t_layer
    return float(residuals[sel].max()) if sel.any() else float("nan")


def _merged(a, b):
    """np.unique(np.concatenate([a, b])) of two strictly increasing arrays,
    by a merge instead of a sort: each entry goes to its index plus the
    count of the other array's entries before it, a's before b's equal
    ones, and each run of equal times keeps its first.  Equal times have
    equal bits but for -0.0 and +0.0, where np.unique keeps -0.0: the
    array holding a -0.0 goes first."""
    if np.signbit(b[b == 0]).any():
        a, b = b, a
    merged = np.empty(a.size + b.size)
    merged[np.arange(a.size) + np.searchsorted(b, a)] = a
    merged[np.arange(b.size) + np.searchsorted(a, b, side="right")] = b
    return merged[np.concatenate(([True], merged[1:] != merged[:-1]))]


def compare_trajectories(a, b):
    """Sup distance between two peak trajectories after linear time alignment.

    Returns (sup_distance, common_times, per-time distances).
    """
    ta = np.asarray(a.times, dtype=float)
    tb = np.asarray(b.times, dtype=float)
    lo, hi = max(ta[0], tb[0]), min(ta[-1], tb[-1])
    if hi < lo:
        raise DiagnosticsError(
            f"trajectories do not overlap: [{ta[0]:g},{ta[-1]:g}] vs "
            f"[{tb[0]:g},{tb[-1]:g}]")
    common = _merged(ta[(ta >= lo) & (ta <= hi)], tb[(tb >= lo) & (tb <= hi)])
    pa = np.asarray(a.points, dtype=float)
    pb = np.asarray(b.points, dtype=float)
    d = pa.shape[1]
    xa = np.column_stack([np.interp(common, ta, pa[:, j]) for j in range(d)])
    xb = np.column_stack([np.interp(common, tb, pb[:, j]) for j in range(d)])
    dist = np.linalg.norm(xa - xb, axis=1)
    return float(dist.max()), common, dist


def monotonicity_violation(series) -> float:
    """Smallest increment of `series`; negative where it decreases."""
    s = np.asarray(series, dtype=float)
    if s.size < 2:
        raise DiagnosticsError("monotonicity needs at least two samples")
    return float(np.diff(s).min())

