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

from .dde import (DiameterSeries, InitialHistory, Trajectory, blowup_guard, check_grid,
                  check_history, diameters, edge_forces, receiver_bins)
from .digraph import Digraph, compute_metrics  # noqa: F401  (traced here by bench/spans.py)
from .interaction import DelayProfile, WeightFunction, batch_weight


class StabilityGateError(ValueError):
    """kappa * h outside (0, 1/n_infinity)."""


def check_gate(kappa: float, h: float, n_infinity: int, unsafe: bool = False):
    if not 0 < h < np.inf:
        raise StabilityGateError(f"step size must be positive and finite, got {h}")
    if n_infinity > 0 and kappa * h >= 1.0 / n_infinity and not unsafe:
        raise StabilityGateError(
            f"kappa*h = {kappa * h:g} must be below 1/n_infinity = "
            f"{1.0 / n_infinity:g}; no certificate exists past the gate, and a run "
            "with unsafe_h=True goes on uncertified")


def simulate_discrete(history: InitialHistory, g: Digraph, w: WeightFunction,
                      p: DelayProfile, t_end: int, h: float,
                      unsafe_h: bool = False) -> Trajectory:
    """Run the recursion for t_end steps from the history's states at steps
    -tau .. 0, on one component-major (x, v) array with the forces of
    ``edge_forces`` at each step's delays rounded half to even; returns a
    sample-only Trajectory on the step grid {-tau, ..., t_end}, or raises
    IntegrationError at a blow-up."""
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    check_gate(w.effective_kappa, h, g.max_in_degree, unsafe=unsafe_h)
    check_history(history, (g.n_vertices, history.dim), p)
    tau, n, d = p.integer_tau_max, g.n_vertices, history.dim
    check_grid(tau + t_end, (2, d, n), p, t_end)
    times = np.arange(-tau, t_end + 1, dtype=float)
    ys = np.empty((len(times), 2, d, n))   # (x, v) rows of agents, as integrate's
    ys[: tau + 1] = history.eval(times[: tau + 1])[0]
    check_blowup = blowup_guard(ys[: tau + 1, 1], 1)
    ei, ej = g.arc_list
    delay_at, bins, psi = p.on_edges(ei, ej), receiver_bins(ei, n, d), batch_weight([w], len(ei))
    lanes = np.arange(2 * d)[:, None] * n + ej   # per-arc lags gather flat elements
    for k in range(t_end):
        y, step = ys[tau + k], ys[tau + k + 1]   # the slope (v, dv) goes into the next row
        back = tau + k - np.rint(delay_at(k)).astype(np.intp)   # one lag, or one per arc
        delayed = (ys[back].take(ej, axis=-1) if back.ndim == 0
                   else ys.reshape(-1).take(back * (2 * d * n) + lanes).reshape(2, d, -1))
        step[0] = y[1]
        edge_forces(y.take(ei, axis=-1), delayed, bins, psi, step[1])
        np.add(y, np.multiply(h, step, out=step), out=step)   # x + h v, v + h dv
        check_blowup(step[1], k + 1)
    return Trajectory(times=times, ys=ys, dt=1.0, n_hist=tau)


def discrete_diameters(traj: Trajectory, tau: int) -> DiameterSeries:
    """Window extrema over the last tau+1 steps, per component, of a
    sample-only trajectory (one without Hermite slopes)."""
    if traj.dys is not None:
        raise ValueError("expected a discrete trajectory")
    return diameters(traj, tau)
