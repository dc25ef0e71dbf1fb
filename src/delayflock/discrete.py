"""Forward-Euler recursion with integer-valued delays.

One step advances positions by h * v and relaxes each velocity toward
the delayed velocities of its in-neighbors.  The recursion starts from
the same InitialHistory as the continuous model, read at the whole
steps -tau .. 0.  The step size is gated by 0 < kappa * h < 1 /
n_infinity, which makes every update a convex combination of buffered
values; violating it voids every guarantee downstream, so the gate is a
constructor error unless explicitly overridden for exploration.
"""
from __future__ import annotations

import numpy as np

from .dde import (DiameterSeries, InitialHistory, Trajectory, check_history, diameters,
                  edge_forces)
from .digraph import Digraph, compute_metrics  # noqa: F401  (traced here by bench/spans.py)
from .interaction import DelayProfile, WeightFunction


class StabilityGateError(ValueError):
    """kappa * h outside (0, 1/n_infinity)."""


def check_gate(kappa: float, h: float, n_infinity: int, unsafe: bool = False):
    if h <= 0:
        raise StabilityGateError(f"step size must be positive, got {h}")
    if n_infinity > 0 and kappa * h >= 1.0 / n_infinity and not unsafe:
        raise StabilityGateError(
            f"kappa*h = {kappa * h:g} must be below 1/n_infinity = "
            f"{1.0 / n_infinity:g}; pass unsafe_h=True to explore anyway")


def simulate_discrete(history: InitialHistory, g: Digraph, w: WeightFunction,
                      p: DelayProfile, t_end: int, h: float,
                      unsafe_h: bool = False) -> Trajectory:
    """Run the recursion for t_end steps from the history's states at
    steps -tau .. 0; returns a sample-only Trajectory on the integer
    step grid {-tau, ..., t_end}."""
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    check_gate(w.effective_kappa, h, int(g.arcs.sum(axis=1).max()),
               unsafe=unsafe_h)
    check_history(history, (g.n_vertices, history.dim), p)
    tau = p.integer_tau_max
    times = np.arange(-tau, t_end + 1, dtype=float)
    xs = np.empty((len(times),) + history.x0.shape)
    vs = np.empty_like(xs)
    xs[: tau + 1], vs[: tau + 1], _, _ = history.eval(times[: tau + 1])
    ei, ej = np.nonzero(g.arcs)
    delay_at = p.on_edges(ei, ej)
    for k in range(t_end):
        x, v = xs[tau + k], vs[tau + k]
        back = tau + k - np.rint(delay_at(k)).astype(np.intp)
        dv = edge_forces(x[ei], xs[back, ej], v[ei], vs[back, ej], ei, w, len(x))
        xs[tau + k + 1], vs[tau + k + 1] = x + h * v, v + h * dv
    return Trajectory(times=times, xs=xs, vs=vs, dt=1.0, n_hist=tau,
                      discrete=True)


def discrete_diameters(traj: Trajectory, tau: int) -> DiameterSeries:
    """Window extrema over the last tau+1 steps, per component."""
    if not traj.discrete:
        raise ValueError("expected a discrete trajectory")
    return diameters(traj, tau)
