"""Fixed-step RK4 integrator for the delayed alignment system.

The system is integrated by the method of steps: delayed state lookups
during stage evaluation read the already-committed solution through
cubic Hermite interpolation (from t = 0 on, positions use velocities as
slopes and velocities the stored stage-1 derivatives).  On [-tau, 0]
the grid holds the piecewise-linear history and its own slopes, so a
lookup there reads the history exactly, except on a grid segment where
a sample time bends it: there the gap is at most (4/27) * dt times the
jump in slope.  Lookups slightly ahead of the last fully-specified
segment (delays smaller than the step) extrapolate that segment.

Zero, constant and sinusoidal delays take one value on every arc at a
given time, so each stage has one lookup time: its segment and basis
weights are planned for all stages before the loop, and a stage
evaluates the tables once over all agents.  Piecewise-random delays
differ from arc to arc and are gathered per arc at every stage.  Both
paths give the same numbers, bit for bit.

Also provides the windowed velocity-spread diagnostics: per-component
trailing-window extrema over [t - tau, t] and their spread.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .interaction import DelayProfile, WeightFunction


# a velocity beyond this multiple of its member's largest history one (or 1) is a blow-up
BLOWUP_FACTOR = 1e6


class IntegrationError(RuntimeError):
    """Integrator failure: bad step size, lookup out of range, blow-up.
    ``member`` is the index of the batch member that blew up, else None."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


@dataclass(frozen=True)
class InitialHistory:
    """Per-agent (x, v) data on [-tau, 0], one piecewise-linear function
    of time.

    A sampled history is the linear interpolation of its samples and
    holds the first sample before the first sample time; a constant
    history stores one snapshot and does not move.
    """

    tau: float
    x0: np.ndarray                     # (N, d) value at t = 0
    v0: np.ndarray
    times: np.ndarray | None = None    # (K,) strictly increasing, ending at 0
    xs: np.ndarray | None = None       # (K, N, d)
    vs: np.ndarray | None = None

    @classmethod
    def constant(cls, x0, v0, tau: float) -> "InitialHistory":
        x0 = np.atleast_2d(np.asarray(x0, dtype=float))
        v0 = np.atleast_2d(np.asarray(v0, dtype=float))
        if x0.shape != v0.shape:
            raise ValueError("position and velocity tables must have equal shapes")
        return cls(tau=float(tau), x0=x0, v0=v0)

    @classmethod
    def from_samples(cls, times, xs, vs) -> "InitialHistory":
        times = np.asarray(times, dtype=float)
        xs = np.asarray(xs, dtype=float)
        vs = np.asarray(vs, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError(f"a sampled history needs two or more samples, got {times.size}")
        if not (np.diff(times) > 0).all():
            raise ValueError("history sample times must be strictly increasing")
        if xs.ndim != 3 or xs.shape[0] != len(times) or vs.shape != xs.shape:
            raise ValueError(f"history tables must be (K, N, d), got {xs.shape}, {vs.shape}")
        if times[-1] != 0.0:
            raise ValueError("history samples must end at t = 0")
        return cls(tau=float(-times[0]), x0=xs[-1], v0=vs[-1],
                   times=times, xs=xs, vs=vs)

    @property
    def dim(self) -> int:
        return self.x0.shape[1]

    def eval(self, ts) -> tuple[np.ndarray, ...]:
        """(x, v, dx, dv) of all agents at the times ts <= 0, each
        (T, N, d): the interpolant and its slopes, those of the segment
        to the right of a sample time (to the left at t = 0).  Times
        before the first sample read that sample with the first
        segment's slopes; a constant history has zero slopes."""
        ts = np.asarray(ts, dtype=float)
        if self.times is None:
            shape = ts.shape + self.x0.shape
            return (np.broadcast_to(self.x0, shape), np.broadcast_to(self.v0, shape),
                    np.zeros(shape), np.zeros(shape))
        ts = np.minimum(np.maximum(ts, self.times[0]), 0.0)
        k = _segment(self.times, ts, len(self.times) - 1)
        t0 = self.times[k][:, None, None]
        h = self.times[k + 1][:, None, None] - t0
        u = (ts[:, None, None] - t0) / h
        xs, vs = self.xs, self.vs
        return ((1 - u) * xs[k] + u * xs[k + 1], (1 - u) * vs[k] + u * vs[k + 1],
                (xs[k + 1] - xs[k]) / h, (vs[k + 1] - vs[k]) / h)


@dataclass
class Trajectory:
    """Sampled solution on a uniform grid covering [-tau', t_end].

    ``n_hist`` is the index of t = 0.  For continuous runs ``dvs`` and
    ``dxs`` hold the velocity and position time-derivatives at the grid
    points so any interior time can be resolved by cubic Hermite
    interpolation; discrete runs leave them None and are sample-only.
    """

    times: np.ndarray        # (M,)
    xs: np.ndarray           # (M, N, d)
    vs: np.ndarray           # (M, N, d)
    dt: float
    n_hist: int
    dvs: np.ndarray | None = None
    dxs: np.ndarray | None = None
    # slopes at t=0 seen from the history side (the dynamics side lives
    # in dvs[n_hist] and dxs[n_hist]; the derivatives jump there)
    hist_end_slope: np.ndarray | None = None
    hist_end_xslope: np.ndarray | None = None
    discrete: bool = False

    @property
    def n_agents(self) -> int:
        return self.xs.shape[1]

    @property
    def dim(self) -> int:
        return self.xs.shape[2]

    def state_at(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated (x, v) of all agents at any covered time."""
        if t < self.times[0] - 1e-12 or t > self.times[-1] + 1e-12:
            raise IntegrationError(f"time {t} outside covered interval")
        if self.dvs is None:
            k = _segment(self.times, t, len(self.times) - 1)
            u = (t - self.times[k]) / self.dt
            return ((1 - u) * self.xs[k] + u * self.xs[k + 1],
                    (1 - u) * self.vs[k] + u * self.vs[k + 1])
        a, weights = _hermite_basis(self.times, float(t), len(self.times) - 1)
        x, v = _hermite_rows(((self.xs, self.dxs, self.hist_end_xslope),
                              (self.vs, self.dvs, self.hist_end_slope)),
                             a, weights, a + 1 == self.n_hist)
        return x, v


def check_history(history: InitialHistory, shape: tuple, p: DelayProfile):
    """Refuse a history whose agent table is not of ``shape`` (N, d) or
    that does not reach back to the longest delay."""
    if history.x0.shape != shape:
        raise IntegrationError(f"graph has {shape[0]} vertices but a member history "
                               f"has shape {history.x0.shape}")
    if history.tau + 1e-12 < p.tau_max:
        raise IntegrationError(f"history covers only [-{history.tau}, 0] but "
                               f"delays reach {p.tau_max}")


def _segment(times, s, hi):
    """Index k of the segment [times[k], times[k + 1]] holding each query
    time s, elementwise; times before times[0] get the first segment and
    times past times[hi] the segment ending at hi."""
    return np.minimum(np.maximum(times.searchsorted(s, side="right") - 1, 0), hi - 1)


def _hermite_basis(times, s, hi):
    """Segment index and cubic Hermite basis weights (h00, h10, h01, h11),
    the slope weights scaled by the segment length, of query times s,
    elementwise over arrays or scalars.  ``hi`` is the last grid index
    whose slope is valid; later lookups extrapolate the segment ending
    at hi.
    """
    seg = _segment(times, s, hi)
    t0 = times[seg]
    h = times[seg + 1] - t0
    u = (s - t0) / h
    u2 = u * u
    u3 = u2 * u
    return seg, (2 * u3 - 3 * u2 + 1, (u3 - 2 * u2 + u) * h, -2 * u3 + 3 * u2, (u3 - u2) * h)


def _hermite_rows(tables, a, weights, jump):
    """Every row of each (vals, slopes, fix_val) table at one time in
    segment a with basis ``weights``.  The slope at a + 1 is fix_val when
    ``jump`` (the derivative jumps where prescribed history meets the
    dynamics)."""
    h00, h10, h01, h11 = weights
    return [h00 * vals[a] + h10 * slopes[a] + h01 * vals[a + 1]
            + h11 * (fix_val if jump else slopes[a + 1]) for vals, slopes, fix_val in tables]


def _hermite_gather(times, tables, j_e, s_e, hi, fix_idx):
    """Cubic Hermite evaluation of vals[:, j_e[k]] at times s_e[k] for
    each (vals, slopes, fix_val) in ``tables``, sharing one segment
    search and one set of basis weights; fix_val replaces the slope at
    ``fix_idx`` when that is the right endpoint of the queried segment.
    """
    seg, basis = _hermite_basis(times, s_e, hi)
    h00, h10, h01, h11 = (b[:, None] for b in basis)
    seg1 = seg + 1
    at_fix = seg1 == fix_idx
    fixed = at_fix.any()
    out = []
    for vals, slopes, fix_val in tables:
        m1 = slopes[seg1, j_e]
        if fixed:
            m1 = np.where(at_fix[:, None], fix_val[j_e], m1)
        out.append(h00 * vals[seg, j_e] + h10 * slopes[seg, j_e]
                   + h01 * vals[seg1, j_e] + h11 * m1)
    return out


def _stage_plan(times, n_hist: int, n_steps: int, dt: float, p: DelayProfile):
    """The lookups of integrate's 4*n_steps + 1 stage evaluations.

    Stage s of the step from grid index k runs at times[k] + (0, dt/2,
    dt/2, dt)[s] with last valid slope index (max(k - 1, 1), k, k, k)[s];
    the final slope runs at times[-1] with index len(times) - 2.  Returns
    those times and indices and, when every arc shares the delay, the
    delays, each stage's one segment and basis weights, and whether that
    segment ends at n_hist; piecewise-random delays, looked up per arc,
    get None for these.
    """
    k = np.arange(n_hist, n_hist + n_steps)
    t = times[k]
    ts = np.append(np.stack([t, t + dt / 2, t + dt / 2, t + dt], axis=1), times[-1])
    # stage 1 may not use the segment ending at k (its slope is what the
    # step computes); delays shorter than dt extrapolate the segment before
    his = np.append(np.stack([np.maximum(k - 1, 1), k, k, k], axis=1), len(times) - 2)
    tau = p.shared(ts)
    if tau is None:
        return ts, his, None, None, None, None
    seg, basis = _hermite_basis(times, ts - tau, his)
    return ts, his, tau, seg, basis, seg + 1 == n_hist


def edge_forces(x_i, x_delayed, v_i, v_delayed, ei, w: WeightFunction, n: int):
    """Alignment forces summed per receiver over the arc list.

    Row e of the (E, d) inputs belongs to the arc ej[e] -> ei[e]: the
    receiver's own state and the sender's delayed state.  Returns the
    (n, d) array whose row i is sum over arcs into i of
    psi(|x_delayed - x_i|) * (v_delayed - v_i), summed in arc order.
    """
    dx = x_delayed - x_i
    r = np.sqrt(np.add.reduce(dx * dx, axis=1))
    coef = np.asarray(w(r))[:, None] * (v_delayed - v_i)
    dv = np.zeros((n, v_i.shape[1]))
    np.add.at(dv, ei, coef)
    return dv


def integrate(history: InitialHistory | Sequence[InitialHistory], g: Digraph,
              w: WeightFunction | Sequence[WeightFunction], p: DelayProfile, t_end: float,
              dt: float = 0.01) -> Trajectory | list[Trajectory]:
    """RK4 with interpolated history lookback (method of steps).

    Returns a Trajectory covering [-n_hist*dt, t_end] where n_hist*dt
    is tau rounded up to a whole number of steps (the extra reach is
    filled by the clamped history and never queried by the dynamics).
    B member histories (and one weight or B weights) sharing g, p, t_end
    and dt run as one block-diagonal system, member b owning agents
    b*N .. (b+1)*N-1, so xs reshapes to (M, B, N, d); each keeps its own
    blow-up guard and a lone run's arithmetic, and gets a Trajectory view.
    """
    if not 0 < dt < math.inf:
        raise IntegrationError(f"step size must be positive and finite, got {dt}")
    if not 0 < t_end < math.inf:
        raise IntegrationError(f"horizon must be positive and finite, got {t_end}")
    single = isinstance(history, InitialHistory)
    hists = [history] if single else list(history)
    B = len(hists)
    ws = [w] * B if isinstance(w, WeightFunction) else list(w)
    if not hists or len(ws) != B:
        raise IntegrationError(f"{B} member histories but {len(ws)} weights")
    n, d = g.n_vertices, hists[0].dim
    for h in hists:
        check_history(h, (n, d), p)
    tau = max(p.tau_max, *(h.tau for h in hists))
    # any positive delay gets a history step, however short
    n_hist = max(1, math.ceil(tau / dt - 1e-12)) if tau > 0 else 0
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    M = n_hist + n_steps + 1
    nb = B * n
    times = (np.arange(M) - n_hist) * dt
    xs = np.empty((M, nb, d))
    vs = np.empty((M, nb, d))
    dxs = np.zeros((M, nb, d))
    dvs = np.zeros((M, nb, d))
    members = [slice(b * n, (b + 1) * n) for b in range(B)]
    for sl, h in zip(members, hists):
        (xs[: n_hist + 1, sl], vs[: n_hist + 1, sl],
         dxs[: n_hist + 1, sl], dvs[: n_hist + 1, sl]) = h.eval(times[: n_hist + 1])
    # the history side of t = 0; the dynamics side replaces row n_hist
    hist_end_xslope, hist_end_slope = dxs[n_hist].copy(), dvs[n_hist].copy()
    dxs[n_hist] = vs[n_hist]
    guard = BLOWUP_FACTOR * np.maximum(
        np.abs(vs[: n_hist + 1]).reshape(n_hist + 1, B, -1).max(axis=(0, 2)), 1.0)

    ei, ej = np.nonzero(g.arcs)
    n_arcs = len(ei)
    # every member has a lone run's delays: drawn once, on one member's arcs
    local_at = p.on_edges(ei, ej)
    arc = np.tile(np.arange(n_arcs), B)
    delay_at = local_at if B == 1 else lambda t: local_at(t)[arc]
    ei, ej = np.tile(ei, B), np.tile(ej, B)
    offset = np.repeat(np.arange(B) * n, n_arcs)
    ei, ej = ei + offset, ej + offset
    # one weight call per run of members sharing a weight, with its own
    # scalar parameters (an exponent array rounds differently at beta = 1);
    # tabulated weights are compared by identity, as == fails on tables
    keys = [id(m) if m.kind == "tabulated" else (m.kind, m.kappa, m.beta, m.normalize_by)
            for m in ws]
    starts = [b for b in range(B) if b == 0 or keys[b] != keys[b - 1]]
    cuts = [b * n_arcs for b in starts] + [B * n_arcs]
    psi = ws[0] if len(starts) == 1 else lambda r: np.concatenate(
        [ws[b](r[lo:hi]) for b, lo, hi in zip(starts, cuts, cuts[1:])])
    tables = ((xs, dxs, hist_end_xslope), (vs, dvs, hist_end_slope))
    ts, his, tau_s, seg, basis, jump = _stage_plan(times, n_hist, n_steps, dt, p)

    def stage_rhs(k, x_stage, v_stage):
        # k: index of the stage in the plan
        if tau_s is None:
            tau_e = delay_at(ts[k])
            xd, vd = x_stage[ej], v_stage[ej]
            past = tau_e != 0.0
            if past.any():
                xd[past], vd[past] = _hermite_gather(times, tables, ej[past],
                                                     ts[k] - tau_e[past], his[k], n_hist)
        elif tau_s[k] != 0.0:
            xr, vr = _hermite_rows(tables, seg[k], [b[k] for b in basis], jump[k])
            xd, vd = xr[ej], vr[ej]
        else:
            xd, vd = x_stage[ej], v_stage[ej]
        return v_stage, edge_forces(x_stage[ei], xd, v_stage[ei], vd, ei, psi, nb)

    idx = n_hist
    for k in range(0, 4 * n_steps, 4):
        x, v = xs[idx], vs[idx]
        k1x, k1v = stage_rhs(k, x, v)
        dvs[idx] = k1v
        k2x, k2v = stage_rhs(k + 1, x + dt / 2 * k1x, v + dt / 2 * k1v)
        k3x, k3v = stage_rhs(k + 2, x + dt / 2 * k2x, v + dt / 2 * k2v)
        k4x, k4v = stage_rhs(k + 3, x + dt * k3x, v + dt * k3v)
        xs[idx + 1] = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)
        vs[idx + 1] = dxs[idx + 1] = v + dt / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        idx += 1
        # a NaN or inf fails the comparison too
        ok = np.abs(vs[idx]).reshape(B, -1).max(axis=1) <= guard
        if not ok.all():
            raise IntegrationError(f"solution blew up at t = {times[idx]:g}",
                                   member=int(ok.argmin()))
    # final slope so dense output covers the last segment
    _, dvs[idx] = stage_rhs(4 * n_steps, xs[idx], vs[idx])
    trajs = [Trajectory(times=times, xs=xs[:, sl], vs=vs[:, sl], dt=dt, n_hist=n_hist,
                        dvs=dvs[:, sl], dxs=dxs[:, sl], hist_end_slope=hist_end_slope[sl],
                        hist_end_xslope=hist_end_xslope[sl]) for sl in members]
    return trajs[0] if single else trajs


@dataclass
class DiameterSeries:
    """Trailing-window velocity extrema and spreads along a run.

    vbar/vund are (Q, d) per-component window max/min; spread_k their
    difference; spread the max over components.
    """

    times: np.ndarray
    vbar: np.ndarray
    vund: np.ndarray
    spread_k: np.ndarray
    spread: np.ndarray


def _segment_extrema(vals, slopes, dt, fix_idx=None, fix_val=None):
    """Per-segment min/max of the Hermite cubics, including interior
    critical points.  vals, slopes: (M, N, d).  Returns (M-1, N, d).

    fix_idx/fix_val override the right-endpoint slope of the segment
    ending at fix_idx (derivative jump between history and dynamics).
    """
    p0, p1 = vals[:-1], vals[1:]
    m0, m1 = slopes[:-1] * dt, slopes[1:] * dt
    if fix_idx is not None and fix_idx >= 1:
        m1 = m1.copy()
        m1[fix_idx - 1] = fix_val * dt
    # cubic in u on [0,1]: H(u); derivative is a quadratic a u^2 + b u + c
    a = 6 * p0 - 6 * p1 + 3 * m0 + 3 * m1
    b = -6 * p0 + 6 * p1 - 4 * m0 - 2 * m1
    c = m0
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    disc = b * b - 4 * a * c
    mask = disc > 0
    if np.any(mask):
        sq = np.sqrt(np.where(mask, disc, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            for sign in (-1.0, 1.0):
                u = np.where(np.abs(a) > 1e-300, (-b + sign * sq) / (2 * a),
                             np.where(np.abs(b) > 1e-300, -c / b, -1.0))
                ok = mask & (u > 0) & (u < 1)
                if np.any(ok):
                    u2 = u * u
                    u3 = u2 * u
                    val = ((2 * u3 - 3 * u2 + 1) * p0 + (u3 - 2 * u2 + u) * m0
                           + (-2 * u3 + 3 * u2) * p1 + (u3 - u2) * m1)
                    lo = np.where(ok, np.minimum(lo, val), lo)
                    hi = np.where(ok, np.maximum(hi, val), hi)
    return lo, hi


def _trailing_extreme(arr, win, reduce_fn):
    """reduce over the trailing window of length win+1 along axis 0."""
    if win == 0:
        return arr.copy()
    from numpy.lib.stride_tricks import sliding_window_view
    pad = np.repeat(arr[:1], win, axis=0)
    padded = np.concatenate([pad, arr], axis=0)
    sw = sliding_window_view(padded, win + 1, axis=0)
    return reduce_fn(sw, axis=-1)


def diameters(traj: Trajectory, tau: float) -> DiameterSeries:
    """Windowed velocity extrema along a trajectory.

    The window [t - tau, t] is evaluated for every grid time t >= 0
    from the grid samples plus the analytic interior extrema of each
    Hermite segment (sample-only for discrete runs).
    """
    win = int(round(tau / traj.dt))
    if win * traj.dt < tau - 1e-9 * max(tau, 1.0):
        win += 1
    if win > traj.n_hist:
        raise IntegrationError("window reaches before the trajectory start")
    vs = traj.vs
    g_max = vs.max(axis=1)   # (M, d) over agents
    g_min = vs.min(axis=1)
    if traj.dvs is not None and win > 0:
        # attach segment [t_k, t_k+1] extrema to the right grid index so
        # a trailing window ending at t_q never sees values past t_q;
        # the window's left edge overreaches by at most one segment,
        # which only widens the window and preserves monotonicity
        lo, hi = _segment_extrema(vs, traj.dvs, traj.dt,
                                  fix_idx=traj.n_hist,
                                  fix_val=traj.hist_end_slope)
        g_max[1:] = np.maximum(g_max[1:], hi.max(axis=1))
        g_min[1:] = np.minimum(g_min[1:], lo.min(axis=1))
    vbar_all = _trailing_extreme(g_max, win, np.max)
    vund_all = _trailing_extreme(g_min, win, np.min)
    q0 = traj.n_hist
    times = traj.times[q0:]
    vbar = vbar_all[q0:]
    vund = vund_all[q0:]
    spread_k = vbar - vund
    return DiameterSeries(times=times, vbar=vbar, vund=vund,
                          spread_k=spread_k, spread=spread_k.max(axis=1))


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    violations: tuple = ()
    max_increase: float = 0.0
    worst_time: float | None = None

    def __bool__(self):
        return self.passed


def check_monotone_diameter(series: DiameterSeries, tol: float) -> MonotonicityReport:
    """Flag any window-extremum moving the wrong way by more than tol.

    Checks vbar nonincreasing, vund nondecreasing, and both the
    per-component and overall spread nonincreasing, reporting the
    offending grid index and component.
    """
    violations = []
    max_inc = 0.0
    worst_time = None
    dv_up = np.diff(series.vbar, axis=0)
    dv_dn = np.diff(series.vund, axis=0)
    dk = np.diff(series.spread_k, axis=0)
    ds = np.diff(series.spread)[:, None]
    for name, arr, bad in (("vbar-increase", dv_up, dv_up > tol),
                           ("vund-decrease", dv_dn, dv_dn < -tol),
                           ("spread-increase", dk, dk > tol),
                           ("overall-spread-increase", ds, ds > tol)):
        idx = np.argwhere(bad)
        for q, k in idx[:10]:
            violations.append((name, int(q), int(k), float(arr[q, k])))
        if idx.size:
            drift = np.abs(arr[bad]).max()
            if drift > max_inc:
                max_inc = float(drift)
                q = int(idx[np.abs(arr[bad]).argmax(), 0])
                worst_time = float(series.times[q + 1])
    return MonotonicityReport(passed=not violations,
                              violations=tuple(violations),
                              max_increase=max_inc, worst_time=worst_time)
