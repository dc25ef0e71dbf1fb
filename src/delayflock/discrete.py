"""Forward-Euler recursion with integer-valued delays.

One step advances positions by h * v and relaxes each velocity toward
the delayed velocities of its in-neighbors.  The step size is gated by
0 < kappa * h < 1 / n_infinity, which makes every update a convex
combination of buffered values; violating it voids every guarantee
downstream, so the gate is a constructor error unless explicitly
overridden for exploration.
"""
from __future__ import annotations

import numpy as np

from .dde import DiameterSeries, Trajectory, diameters, edge_forces
from .digraph import Digraph, compute_metrics  # noqa: F401  (traced here by bench/spans.py)
from .interaction import AdmissibilityError, DelayProfile, WeightFunction


class StabilityGateError(ValueError):
    """kappa * h outside (0, 1/n_infinity)."""


def check_gate(kappa: float, h: float, n_infinity: int, unsafe: bool = False):
    if h <= 0:
        raise StabilityGateError(f"step size must be positive, got {h}")
    if n_infinity > 0 and kappa * h >= 1.0 / n_infinity and not unsafe:
        raise StabilityGateError(
            f"kappa*h = {kappa * h:g} must be below 1/n_infinity = "
            f"{1.0 / n_infinity:g}; pass unsafe_h=True to explore anyway")


def history_tables(x0, v0, tau: int, history_x=None, history_v=None):
    """Positions and velocities at steps -tau .. 0, each (tau+1, N, d).

    They default to the constant extension of (x0, v0); explicit
    per-step tables (tau+1 snapshots, oldest first) override.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    if history_x is None:
        return np.repeat(x0[None], tau + 1, axis=0), np.repeat(v0[None], tau + 1, axis=0)
    bx = np.asarray(history_x, dtype=float)
    bv = np.asarray(history_v, dtype=float)
    if bx.shape != (tau + 1,) + x0.shape:
        raise ValueError(f"history tables must have shape {(tau + 1,) + x0.shape}")
    return bx, bv


def _lags(p: DelayProfile, ei, ej):
    """Integer delays of the arcs ej -> ei as a function of the step."""
    if not p.integer_valued:
        raise AdmissibilityError("profile is not integer-valued")
    delay_at = p.on_edges(ei, ej)
    return lambda t: np.rint(delay_at(t)).astype(np.intp)


def _advance(x, v, x_delayed, v_delayed, ei, w: WeightFunction, h: float):
    dv = edge_forces(x[ei], x_delayed, v[ei], v_delayed, ei, w, len(x))
    return x + h * v, v + h * dv


def simulate_discrete(x0, v0, g: Digraph, w: WeightFunction, p: DelayProfile,
                      t_end: int, h: float, history_x=None, history_v=None,
                      unsafe_h: bool = False) -> Trajectory:
    """Run the recursion for t_end steps; returns a sample-only
    Trajectory on the integer step grid {-tau, ..., t_end}."""
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    check_gate(w.effective_kappa, h, int(g.arcs.sum(axis=1).max()),
               unsafe=unsafe_h)
    tau = p.integer_tau_max
    bx, bv = history_tables(x0, v0, tau, history_x, history_v)
    M = tau + t_end + 1
    times = np.arange(-tau, t_end + 1, dtype=float)
    xs = np.empty((M,) + bx.shape[1:])
    vs = np.empty((M,) + bx.shape[1:])
    xs[: tau + 1] = bx
    vs[: tau + 1] = bv
    ei, ej = np.nonzero(g.arcs)
    lags = _lags(p, ei, ej)
    for k in range(t_end):
        now = tau + k
        back = now - lags(k)
        xs[now + 1], vs[now + 1] = _advance(xs[now], vs[now], xs[back, ej],
                                            vs[back, ej], ei, w, h)
    return Trajectory(times=times, xs=xs, vs=vs, dt=1.0, n_hist=tau,
                      discrete=True)


def discrete_diameters(traj: Trajectory, tau: int) -> DiameterSeries:
    """Window extrema over the last tau+1 steps, per component."""
    if not traj.discrete:
        raise ValueError("expected a discrete trajectory")
    return diameters(traj, tau)
