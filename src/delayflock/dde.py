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

The state (x, v) is one array, a row of agents per component: a stage
takes one (x, v) difference per arc (``edge_forces``) and writes its
slope into a buffer, and a step updates in place.  Delays are planned a
chunk of stages at a time, and the stages whose rows are committed are
looked up in one call: on agent rows when every arc shares the delay
(zero, constant, sinusoidal), on arc rows when each arc has its own
(piecewise-random, held over an interval); both give the per-arc
lookup's numbers, bit for bit.  The two midpoint stages of a step share
their time and delays, so they read one looked-up row, and a lookup
finds its grid segment by arithmetic on the uniform grid, not by search.

Also provides the windowed velocity-spread diagnostics: per-component
extrema over the trailing window [t - tau, t] in O(M) for M grid rows,
Hermite interior extrema solved only where a root lies, and their spread.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .digraph import Digraph
from .interaction import DelayProfile, WeightFunction, batch_weight


# a velocity beyond this multiple of its member's largest history one (or 1) is a blow-up
BLOWUP_FACTOR = 1e6
# the most rows a block of planned lookups holds (one (x, v) row per stage and agent, or arc)
LOOKUP_BLOCK_ROWS = 2 ** 14


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
            zero = np.broadcast_to(0.0, shape)   # read-only, allocates nothing
            return np.broadcast_to(self.x0, shape), np.broadcast_to(self.v0, shape), zero, zero
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
        a = _segment(self.times, float(t), len(self.times) - 1)
        weights, jump = _hermite_basis(self.times, float(t), a), a + 1 == self.n_hist
        return (_hermite_rows((self.xs, self.dxs, self.hist_end_xslope), a, 1, weights, jump),
                _hermite_rows((self.vs, self.dvs, self.hist_end_slope), a, 1, weights, jump))


def blowup_guard(history_vs, members: int):
    """Both models' blow-up check of a (d, rows) velocity row at time t, for
    ``members`` equal runs of rows, with history velocities (K, d, rows); a
    NaN or inf fails it too.  A row within the smallest member limit
    passes on one reduction; any other is checked member by member."""
    with np.errstate(over="ignore"):   # a limit past the largest float is that float
        limit = np.minimum(BLOWUP_FACTOR * np.maximum(np.abs(history_vs).max(axis=0).reshape(
            history_vs.shape[1], members, -1).max(axis=(0, 2)), 1.0), np.finfo(float).max)
    least = limit.min()

    def check(v, t):
        if (speed := np.abs(v)).max() <= least:
            return
        ok = speed.reshape(len(speed), members, -1).max(axis=(0, 2)) <= limit
        if not ok.all():
            raise IntegrationError(f"solution blew up at t = {t:g}", member=int(ok.argmin()))
    return check


def check_grid(steps: float, row_shape: tuple):
    """Refuse, before anything is allocated, a run of ``steps`` time steps
    (history included, before rounding up) that is not finite or whose
    (rows, *row_shape) float table numpy cannot index."""
    if not (steps + 3) * math.prod(row_shape) * 8 <= np.iinfo(np.intp).max:   # nan fails too
        raise IntegrationError(f"a grid of {steps:g} time steps is too large for an array")


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


def _grid_segment(times, s, dt, n_hist, hi):
    """_segment on the uniform grid times[k] = (k - n_hist) * dt, by
    arithmetic: floor(s / dt) + n_hist, clamped, is at most one segment
    off, and one comparison with the grid each way, clamped again,
    settles it."""
    k = np.minimum(np.maximum(np.floor(s / dt) + n_hist, 0), hi - 1).astype(np.intp)
    k = np.maximum(k - (times.take(k) > s), 0)
    return np.minimum(k + (times.take(k + 1) <= s), hi - 1)


def _hermite_basis(times, s, seg):
    """Cubic Hermite basis weights (h00, h10, h01, h11) of query times s
    on the segments seg, the slope weights scaled by the segment length,
    elementwise over arrays or scalars."""
    t0 = times[seg]
    h = times[seg + 1] - t0
    u = (s - t0) / h
    u2 = u * u
    u3 = u2 * u
    return 2 * u3 - 3 * u2 + 1, (u3 - 2 * u2 + u) * h, -2 * u3 + 3 * u2, (u3 - u2) * h


def _hermite_rows(table, rows, step, weights, jump):
    """Cubic Hermite values on the (vals, slopes, fix_val) table, whose
    vals and slopes are indexed on axis 0: a segment runs from row
    ``rows`` to row rows + step, read with basis ``weights``, broadcast
    together.  The right-end slope is fix_val where ``jump`` (the
    derivative jumps where prescribed history meets the dynamics); right
    ends are read at ``rows`` past the first step rows, on one index."""
    vals, slopes, fix_val = table
    h00, h10, h01, h11 = weights
    m1 = slopes[step:].take(rows, axis=0)
    if np.any(jump):
        np.copyto(m1, fix_val, where=jump)
    return (h00 * vals.take(rows, axis=0) + h10 * slopes.take(rows, axis=0)
            + h01 * vals[step:].take(rows, axis=0) + h11 * m1)


def _stage_plan(times, n_hist: int, dt: float, at, members: int, first: int, stop: int):
    """The lookups of integrate's stages first .. stop - 1.  Stage q runs
    at times[k] + (0, dt/2, dt/2, dt)[q % 4], k = n_hist + q // 4, with
    last valid slope index (max(k - 1, 1), k, k, k)[q % 4]; the final
    slope, stage 4 * n_steps, opens a step past the end.  Stage 3 of a
    step shares stage 2's time, delays and index, so its row too, unless
    it opens the chunk.  Per distinct row: its time and index, its delays
    from ``at`` (an (S, 1) array when every arc shares them, else one
    (members * E,) array per row, the same object over a hold interval),
    the (members * E,) mask of its arcs at delay 0 (None if no arc
    is, or all share one delay), its shortest nonzero delay (0 if none)
    and the farthest segment it reads, that delay's; then each stage's row.
    """
    stage = np.arange(first, stop)
    fresh = stage % 4 != 2
    fresh[0] = True
    k, q = np.divmod(stage[fresh] + 4 * n_hist, 4)
    ts = times[k] + np.array([0.0, dt / 2, dt / 2, dt])[q]
    # stage 1 may not use the segment ending at k (its slope is what the
    # step computes); delays shorter than dt extrapolate the segment before
    his = np.where(q == 0, np.maximum(k - 1, 1), k)
    taus = [at(t) for t in ts.tolist()]
    if np.ndim(taus[0]) == 0:
        tau = np.array(taus)[:, None]
        short, zero = tau[:, 0], [None] * len(taus)
    else:
        held = {}   # per hold interval: the members' delays, its zero mask, the shortest nonzero
        for d in taus:
            if id(d) not in held:
                tiled = np.tile(d, members)
                held[id(d)] = (tiled, None if d.all() else tiled == 0.0,
                               np.min(d, where=d != 0.0, initial=d.max(initial=0.0)))
        tau, zero, short = zip(*(held[id(d)] for d in taus))
        short = np.array(short)
    return (ts, his, tau, zero, short, _grid_segment(times, ts - short, dt, n_hist, his),
            np.cumsum(fresh) - 1)


def receiver_bins(ei, n: int, d: int):
    """The bin k * n + ei[e] of component k of arc e's receiver, edge_forces' scatter index."""
    return (np.arange(d)[:, None] * n + ei).ravel()


def edge_forces(own, delayed, bins, w: WeightFunction, out):
    """Alignment forces summed per receiver over the arc list.

    Column e of the (2, d, E) inputs, x rows then v rows, belongs to the
    arc ej[e] -> ei[e]: the receiver's own (x, v) and the sender's
    delayed (x, v); ``bins`` is receiver_bins(ei, n, d).  Writes to
    column i of the (d, n) ``out`` the sum over arcs into i of
    psi(|x_delayed - x_i|) * (v_delayed - v_i), added to 0.0 in arc
    order, as np.add.at into zeros.
    """
    diff = delayed - own
    # only positions are squared: a velocity gap past 1e154 must not overflow
    sq = np.square(diff[0])
    # numpy reduces fewer than 8 terms left to right, as these row adds do, and more
    # pairwise, here on an arc-major copy, as the reference reduces its (E, d) rows
    r = np.sqrt(functools.reduce(np.add, sq) if len(sq) < 8
                else np.add.reduce(np.ascontiguousarray(sq.T), axis=1))
    out[...] = np.bincount(bins, (w(r) * diff[1]).ravel(), out.size).reshape(out.shape)


def integrate(history: InitialHistory | Sequence[InitialHistory], g: Digraph,
              w: WeightFunction | Sequence[WeightFunction], p: DelayProfile, t_end: float,
              dt: float = 0.01) -> Trajectory | list[Trajectory]:
    """RK4 with interpolated history lookback (method of steps), each
    stage's slope from ``edge_forces`` on the arcs' (x, v) rows.

    Returns a Trajectory covering [-n_hist*dt, t_end] where n_hist*dt
    is tau rounded up to a whole number of steps (the extra reach is
    filled by the clamped history and never queried by the dynamics).
    B member histories (and one weight or B weights) sharing g, p, t_end
    and dt run as one block-diagonal system, member b owning agents
    b*N .. (b+1)*N-1; each keeps its own blow-up guard and a lone run's
    arithmetic, and gets a Trajectory view.
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
    check_grid(tau / dt + t_end / dt, (2, d, B * n))
    # any positive delay gets a history step, however short
    n_hist = max(1, math.ceil(tau / dt - 1e-12)) if tau > 0 else 0
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    M = n_hist + n_steps + 1
    nb = B * n
    times = (np.arange(M) - n_hist) * dt
    # ys[k] = (x, v) and dys[k] its time derivative (dx, dv), each a (2, d, agents) table,
    # and their (M, 2, agents, d) views
    ys, dys = np.empty((M, 2, d, nb)), np.zeros((M, 2, d, nb))
    y_t, dy_t = ys.swapaxes(2, 3), dys.swapaxes(2, 3)
    members = [slice(b * n, (b + 1) * n) for b in range(B)]
    for sl, h in zip(members, hists):
        (y_t[: n_hist + 1, 0, sl], y_t[: n_hist + 1, 1, sl],
         dy_t[: n_hist + 1, 0, sl], dy_t[: n_hist + 1, 1, sl]) = h.eval(times[: n_hist + 1])
    # the history side of t = 0; the dynamics side replaces row n_hist
    hist_end = dys[n_hist].copy()
    check_blowup = blowup_guard(ys[: n_hist + 1, 1], B)

    ei, ej = g.arc_list
    n_arcs = len(ei)
    # every member has a lone run's delays: drawn once, on one member's arcs
    at = p.on_edges(ei, ej)
    offset = np.repeat(np.arange(B) * n, n_arcs)
    ei, ej = np.tile(ei, B) + offset, np.tile(ej, B) + offset
    bins, psi = receiver_bins(ei, nb, d), batch_weight(ws, n_arcs)
    # a delay every arc shares (one, or none for no arcs) is looked up on agent
    # rows, and each stage gathers its arcs from them; per-arc delays on arc rows
    shared = np.ndim(at(0.0)) == 0 or len(ej) <= 1
    # lookups of a shared delay gather whole (2d, nb) time rows by time index; per-arc
    # ones flat elements (time index * 2d + component) * nb + arc's sender
    row_size, lanes = 2 * d * nb, np.arange(2 * d)[:, None] * nb + ej
    table = ((ys.reshape(M, 2 * d, nb), dys.reshape(M, 2 * d, nb), hist_end.reshape(2 * d, nb))
             if shared else (ys.reshape(-1), dys.reshape(-1), hist_end.reshape(-1).take(lanes)))
    # stages are planned a chunk at a time and looked up a block at a time, never
    # past the chunk's end; either holds at most LOOKUP_BLOCK_ROWS rows
    span = max(1, LOOKUP_BLOCK_ROWS // (nb if shared else len(ej)))
    first, plan, block, lo, hi = -span, None, None, 0, 0

    def stage_rhs(k, y, out):
        # k: index of the stage in the run; writes the slope (v, dv) at y into out
        nonlocal first, plan, block, lo, hi
        if k >= first + span:
            first, lo, hi = k, 0, 0
            ts, his, tau_s, zero, short, seg, row = _stage_plan(
                times, n_hist, dt, at, B, k, min(k + span, 4 * n_steps + 1))
            # a block opened at a row reads only rows committed by then: to his, or n_hist
            ends = np.maximum.accumulate(seg + 1).searchsorted(np.maximum(his, n_hist), "right")
            plan = ts, his, tau_s, zero, short, short.tolist(), row.tolist(), ends.tolist()
        ts, his, tau_s, zero, short, shortest, row, ends = plan
        c = row[k - first]
        if shortest[c] == 0.0:
            yd = y.take(ej, axis=-1)
        else:
            if c >= hi:
                lo, hi = c, ends[c]
                s = ts[lo:hi, None]
                # an arc at delay 0 reads y; its lane looks up the row's shortest delay
                s = np.minimum(s - np.array(tau_s[lo:hi]), s - short[lo:hi, None])
                a = _grid_segment(times, s, dt, n_hist, his[lo:hi, None])
                rows = a[:, 0] if shared else a[:, None] * row_size + lanes
                block = _hermite_rows(table, rows, 1 if shared else row_size,
                                      [b[:, None] for b in _hermite_basis(times, s, a)],
                                      (a + 1 == n_hist)[:, None])
            yd = block[c - lo].reshape(2, d, -1)
            if shared:
                yd = yd.take(ej, axis=-1)
            elif zero[c] is not None:
                yd = np.where(zero[c], y.take(ej, axis=-1), yd)
        out[0] = y[1]
        edge_forces(y.take(ei, axis=-1), yd, bins, psi, out[1])

    # k1 goes into dys; y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4) runs as written, in place
    k2, k3, k4, yk = (np.empty((2, d, nb)) for _ in range(4))
    for idx in range(n_hist, M - 1):
        y, k1, k = ys[idx], dys[idx], 4 * (idx - n_hist)
        stage_rhs(k, y, k1)
        stage_rhs(k + 1, np.add(y, np.multiply(dt / 2, k1, out=yk), out=yk), k2)
        stage_rhs(k + 2, np.add(y, np.multiply(dt / 2, k2, out=yk), out=yk), k3)
        stage_rhs(k + 3, np.add(y, np.multiply(dt, k3, out=yk), out=yk), k4)
        np.add(k1, np.multiply(2, k2, out=k2), out=k2)
        np.add(k2, np.multiply(2, k3, out=k3), out=k2)
        np.multiply(dt / 6, np.add(k2, k4, out=k2), out=k2)
        np.add(y, k2, out=ys[idx + 1])
        check_blowup(ys[idx + 1, 1], times[idx + 1])
    # final slope so dense output covers the last segment
    stage_rhs(4 * n_steps, ys[-1], dys[-1])
    trajs = [Trajectory(times=times, xs=y_t[:, 0, sl], vs=y_t[:, 1, sl], dt=dt, n_hist=n_hist,
                        dvs=dy_t[:, 1, sl], dxs=dy_t[:, 0, sl],
                        hist_end_slope=hist_end[1, :, sl].T,
                        hist_end_xslope=hist_end[0, :, sl].T) for sl in members]
    return trajs[0] if single else trajs


@dataclass
class DiameterSeries:
    """Trailing-window velocity extrema and spreads along a run.

    vbar/vund are (Q, d) per-component window max/min, +0 where zero (so
    no entry is -0); spread_k their difference; spread the max over components.
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
    Roots are solved where the discriminant is positive, the cubic read
    at those inside (0, 1): each entry as the dense evaluation gives it.
    """
    # every table below is indexed flat, and reads fastest C-ordered
    vals, slopes = np.ascontiguousarray(vals), np.ascontiguousarray(slopes)
    p0, p1 = vals[:-1], vals[1:]
    m0, m1 = slopes[:-1] * dt, slopes[1:] * dt
    if fix_idx is not None and fix_idx >= 1:
        m1[fix_idx - 1] = fix_val * dt
    # cubic in u on [0,1]: H(u); derivative is a quadratic a u^2 + b u + c, c = m0
    a = 6 * p0 - 6 * p1 + 3 * m0 + 3 * m1
    b = -6 * p0 + 6 * p1 - 4 * m0 - 2 * m1
    lo = np.minimum(p0, p1)
    hi = np.maximum(p0, p1)
    disc = b * b - 4 * a * m0
    at = np.flatnonzero(disc > 0)
    p0, p1, m0, m1, flat_lo, flat_hi = (t.ravel() for t in (p0, p1, m0, m1, lo, hi))
    a, b, c, sq = a.ravel()[at], b.ravel()[at], m0[at], np.sqrt(disc.ravel()[at])
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            u = np.where(np.abs(a) > 1e-300, (-b + sign * sq) / (2 * a),
                         np.where(np.abs(b) > 1e-300, -c / b, -1.0))
            ok = (u > 0) & (u < 1)
            u, k = u[ok], at[ok]
            u2 = u * u
            u3 = u2 * u
            val = ((2 * u3 - 3 * u2 + 1) * p0[k] + (u3 - 2 * u2 + u) * m0[k]
                   + (-2 * u3 + 3 * u2) * p1[k] + (u3 - u2) * m1[k])
            flat_lo[k] = np.minimum(flat_lo[k], val)
            flat_hi[k] = np.maximum(flat_hi[k], val)
    return lo, hi


def _trailing_extreme(arr, win, fold):
    """fold (np.maximum or np.minimum) over the trailing window of win + 1
    rows of the (M, d) arr, its first row repeated before the start, in
    O(M) (van Herk / Gil-Werman): blocks of win + 1 rows, each window one
    block's suffix folded with the next one's prefix.  A window holding a
    NaN gives NaN; a zero extreme is +0 (adding 0.0 changes no other value)."""
    (m, d), w = arr.shape, win + 1
    fill = np.full((-(m + win) % w, d), -np.inf if fold is np.maximum else np.inf)
    blocks = np.concatenate([np.repeat(arr[:1], win, axis=0), arr, fill]).reshape(-1, w, d)
    prefix = fold.accumulate(blocks, axis=1).reshape(-1, d)
    suffix = fold.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].reshape(-1, d)
    return fold(suffix[:m], prefix[win: win + m]) + 0.0


def _agent_extreme(arr, fold):
    """fold.reduce (np.maximum or np.minimum) of the (M, N, d) arr over its
    agent axis, on an agent-major copy (numpy reduces a middle axis slowly);
    a zero extreme has either sign until _trailing_extreme makes it +0."""
    return fold.reduce(np.ascontiguousarray(arr.transpose(1, 0, 2)), axis=0)


def diameters(traj: Trajectory, tau: float) -> DiameterSeries:
    """Windowed velocity extrema along a trajectory.

    The window [t - tau, t] is evaluated for every grid time t >= 0
    from the grid samples plus the analytic interior extrema of each
    Hermite segment (sample-only for discrete runs).
    """
    if not 0 <= tau < np.inf:
        raise IntegrationError(f"window length tau must be nonnegative and finite, got {tau}")
    win = int(round(tau / traj.dt))
    if win * traj.dt < tau - 1e-9 * max(tau, 1.0):
        win += 1
    if win > traj.n_hist:
        raise IntegrationError("window reaches before the trajectory start")
    vs = np.ascontiguousarray(traj.vs)   # a C-ordered copy of the view: faster to fold
    g_max = _agent_extreme(vs, np.maximum)   # (M, d) over agents
    g_min = _agent_extreme(vs, np.minimum)
    if traj.dvs is not None and win > 0:
        # attach segment [t_k, t_k+1] extrema to the right grid index so
        # a trailing window ending at t_q never sees values past t_q;
        # the window's left edge overreaches by at most one segment,
        # which only widens the window and preserves monotonicity
        lo, hi = _segment_extrema(vs, traj.dvs, traj.dt,
                                  fix_idx=traj.n_hist,
                                  fix_val=traj.hist_end_slope)
        g_max[1:] = np.maximum(g_max[1:], _agent_extreme(hi, np.maximum))
        g_min[1:] = np.minimum(g_min[1:], _agent_extreme(lo, np.minimum))
    q0 = traj.n_hist
    vbar = _trailing_extreme(g_max, win, np.maximum)[q0:]
    vund = _trailing_extreme(g_min, win, np.minimum)[q0:]
    spread_k = vbar - vund
    return DiameterSeries(times=traj.times[q0:], vbar=vbar, vund=vund,
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
