"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own code paths: graph constants
come from Floyd-Warshall, a BFS from every vertex, or a reachability
closure run to convergence over the raw arc matrix, and reference
integrations use plain dense stepping or per-edge loops.
"""
import math

import numpy as np

from delayflock.analysis import RHO_DECADES, RHO_PER_DECADE, ModelParams
from delayflock.dde import _hermite_basis, _segment
from delayflock.digraph import Digraph
from delayflock.interaction import AdmissibilityError, WeightFunction

INF = math.inf


def floyd_warshall_metrics(arcs):
    """(roots, gamma_g, n_infinity) by all-pairs shortest paths plus an
    exhaustive root scan.  arcs[i][j] True means j transmits to i; a
    path step a -> b is allowed when arcs[b][a]."""
    arcs = np.asarray(arcs, dtype=bool)
    n = arcs.shape[0]
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for a in range(n):
        for b in range(n):
            if a != b and arcs[b][a]:
                dist[a, b] = 1.0
    for k in range(n):
        for a in range(n):
            for b in range(n):
                if dist[a, k] + dist[k, b] < dist[a, b]:
                    dist[a, b] = dist[a, k] + dist[k, b]
    roots = {r for r in range(n) if np.all(np.isfinite(dist[r]))}
    gamma = INF
    for r in roots:
        gamma = min(gamma, dist[r].max())
    gamma = int(gamma) if math.isfinite(gamma) else INF
    n_inf = int(arcs.sum(axis=1).max())
    return roots, gamma, n_inf


def all_digraphs(n):
    """Every boolean arc matrix without self-loops on n vertices."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(off)):
        m = np.zeros((n, n), dtype=bool)
        for k, (i, j) in enumerate(off):
            if bits >> k & 1:
                m[i, j] = True
        yield m


def two_agent_ode_difference(t, kappa, v_diff0):
    """Closed form for the 2-agent, zero-delay, constant-weight system:
    the velocity difference decays like exp(-2*kappa*t)."""
    return v_diff0 * math.exp(-2.0 * kappa * t)


def two_agent_delayed_difference(t, kappa, v_diff0):
    """The same pair with both arcs delayed by tau and a constant
    history, for 0 <= t <= tau: each agent relaxes toward the other's
    initial velocity, so the difference is v_diff0 (2 exp(-kappa t) - 1)."""
    return v_diff0 * (2.0 * math.exp(-kappa * t) - 1.0)


def arc_matrix(n, arcs):
    """Boolean [receiver][sender] matrix of 1-based (sender, receiver)
    pairs, the layout of the other oracles here."""
    m = np.zeros((n, n), dtype=bool)
    for sender, receiver in arcs:
        m[receiver - 1, sender - 1] = True
    return m


def matrix_digraph(arcs) -> Digraph:
    """The Digraph of a boolean [receiver][sender] matrix, the layout of
    the other oracles here."""
    arcs = np.asarray(arcs, dtype=bool)
    return Digraph(len(arcs), np.nonzero(arcs))


def windowed_spread_rk4(arcs, x0, v0, psi, delay_steps, window_steps,
                        n_steps, dt):
    """Windowed velocity spread of the delayed alignment system by plain
    grid RK4, for constant delays that are a whole number of steps.

    arcs[i][j] True means j transmits to i; every arc carries the delay
    ``delay_steps * dt`` and the history on [-delay, 0] is the constant
    state (x0, v0).  A stage at a whole step reads the delayed state at
    a grid sample; a stage at a half step reads the mean of the two
    neighbouring samples (linear interpolation); a zero delay reads the
    stage's own state.  The weight matrix is built densely from
    ``psi(distance)`` over all ordered pairs and masked by ``arcs``.

    Returns spread[q] for q = 0..n_steps: the largest over components of
    max - min over agents and over the grid samples in
    [(q - window_steps) * dt, q * dt].  Window extrema come from grid
    samples only.
    """
    mask = np.asarray(arcs, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    m = int(delay_steps)
    xs = np.zeros((m + n_steps + 1,) + x0.shape)
    vs = np.zeros_like(xs)
    xs[:m + 1] = x0
    vs[:m + 1] = v0

    def accel(x, v, xd, vd):
        if m == 0:
            xd, vd = x, v
        dist = np.sqrt(((xd[None, :, :] - x[:, None, :]) ** 2).sum(axis=2))
        wm = mask * psi(dist)
        return wm @ vd - wm.sum(axis=1)[:, None] * v

    for c in range(m, m + n_steps):
        x, v = xs[c], vs[c]
        xa, va = xs[c - m], vs[c - m]            # delayed state at t
        xb, vb = xs[c - m + 1], vs[c - m + 1]    # delayed state at t + dt
        xh, vh = 0.5 * (xa + xb), 0.5 * (va + vb)
        k1x, k1v = v, accel(x, v, xa, va)
        x2, v2 = x + 0.5 * dt * k1x, v + 0.5 * dt * k1v
        k2x, k2v = v2, accel(x2, v2, xh, vh)
        x3, v3 = x + 0.5 * dt * k2x, v + 0.5 * dt * k2v
        k3x, k3v = v3, accel(x3, v3, xh, vh)
        x4, v4 = x + dt * k3x, v + dt * k3v
        k4x, k4v = v4, accel(x4, v4, xb, vb)
        xs[c + 1] = x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        vs[c + 1] = v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

    # per-sample extrema over agents; rows before the first stored one
    # equal the constant history, so the window is clamped there
    top = vs.max(axis=1)
    bot = vs.min(axis=1)
    rows = np.arange(m, m + n_steps + 1)
    wmax = top[rows].copy()
    wmin = bot[rows].copy()
    for s in range(1, int(window_steps) + 1):
        back = np.maximum(rows - s, 0)
        wmax = np.maximum(wmax, top[back])
        wmin = np.minimum(wmin, bot[back])
    return (wmax - wmin).max(axis=1)


def closure_metrics(arcs):
    """(roots, gamma_g, n_infinity) by a reachability closure over
    boolean matrix products: after level l, reach[r] holds every vertex
    within distance l of r, so a root's eccentricity is the level at
    which its row fills.  arcs[i][j] True means j transmits to i."""
    step = np.asarray(arcs, dtype=bool).T.astype(np.float32)
    n = step.shape[0]
    reach = np.eye(n, dtype=bool)
    ecc = np.full(n, INF)
    level = 0
    while True:
        ecc[reach.all(axis=1) & np.isinf(ecc)] = level
        new = reach | ((reach.astype(np.float32) @ step) > 0)
        if (new == reach).all():
            break
        reach = new
        level += 1
    roots = {int(r) for r in np.flatnonzero(np.isfinite(ecc))}
    gamma = int(min(ecc[r] for r in roots)) if roots else INF
    return roots, gamma, int(np.asarray(arcs, dtype=bool).sum(axis=1).max())


def bfs_metrics(arcs):
    """(roots, gamma_g, n_infinity) by one frontier BFS from every vertex:
    a root is a vertex whose BFS reaches all others, and gamma_g is the
    least eccentricity of a root.  arcs[i][j] True means j transmits to
    i."""
    arcs = np.asarray(arcs, dtype=bool)
    succ = np.ascontiguousarray(arcs.T)
    n = arcs.shape[0]
    ecc = np.empty(n)
    for src in range(n):
        dist = np.full(n, INF)
        dist[src] = 0
        front = dist == 0
        level = 0
        while front.any():
            level += 1
            front = succ[front].any(axis=0) & (dist == INF)
            dist[front] = level
        ecc[src] = dist.max()
    roots = {int(r) for r in np.flatnonzero(ecc < INF)}
    gamma = int(min(ecc[r] for r in roots)) if roots else INF
    return roots, gamma, int(arcs.sum(axis=1).max())


def random_rooted_arcs(rng, n, k_in):
    """Boolean [receiver][sender] matrix on n vertices in which every
    vertex has k_in in-arcs and the first vertex of a random order
    reaches all others (each later vertex hears one earlier vertex)."""
    order = rng.permutation(n)
    m = np.zeros((n, n), dtype=bool)
    for pos in range(n):
        i = order[pos]
        if pos:
            m[i, order[rng.integers(pos)]] = True
        while m[i].sum() < k_in:
            j = rng.integers(n)
            if j != i:
                m[i, j] = True
    return m


def integer_delay(p, i, j, t):
    """Whole-step delay of the arc j -> i at step t, by the profile's
    per-edge call: the lag the discrete recursion reads, edge by edge."""
    if not p.integer_valued:
        raise AdmissibilityError("profile is not integer-valued")
    return int(round(p(i, j, t)))


def discrete_euler_reference(arcs, x0, v0, psi, lag, h, t_end):
    """The Euler recursion by plain per-edge loops over Python floats.

    x_i(t+1) = x_i(t) + h v_i(t) and
    v_i(t+1) = v_i(t) + h * sum over arcs j -> i of
               psi(|x_j(t - l) - x_i(t)|) (v_j(t - l) - v_i(t)),
    with l = lag(i, j, t) and the constant state (x0, v0) before t = 0.
    Returns the (t_end + 1, N, d) velocity table from t = 0.
    """
    arcs = np.asarray(arcs, dtype=bool)
    n = arcs.shape[0]
    xs = [[list(map(float, r)) for r in np.asarray(x0, dtype=float)]]
    vs = [[list(map(float, r)) for r in np.asarray(v0, dtype=float)]]
    for t in range(t_end):
        x, v = xs[-1], vs[-1]
        nx, nv = [], []
        for i in range(n):
            acc = [0.0] * len(x[i])
            for j in range(n):
                if not arcs[i][j]:
                    continue
                back = max(t - lag(i, j, t), 0)
                xj, vj = xs[back][j], vs[back][j]
                r = math.sqrt(sum((a - b) ** 2 for a, b in zip(xj, x[i])))
                c = psi(r)
                acc = [a + c * (b - vi) for a, b, vi in zip(acc, vj, v[i])]
            nx.append([xi + h * vi for xi, vi in zip(x[i], v[i])])
            nv.append([vi + h * a for vi, a in zip(v[i], acc)])
        xs.append(nx)
        vs.append(nv)
    return np.array(vs)


def hermite_reference(times, vals, slopes, t, hi, fix_idx, fix_val):
    """Cubic Hermite value of every row of vals at one time t, by a
    linear segment scan.

    vals, slopes: (M, N, d) grid tables.  The segment is the last one
    starting at or before t among segments 0 .. hi-1 (so times past
    times[hi] extrapolate the segment ending at hi).  fix_val replaces
    the right-endpoint slope when that endpoint is fix_idx.
    """
    k = 0
    while k < hi - 1 and times[k + 1] <= t:
        k += 1
    h = times[k + 1] - times[k]
    u = (t - times[k]) / h
    m1 = fix_val if k + 1 == fix_idx else slopes[k + 1]
    return ((2 * u ** 3 - 3 * u ** 2 + 1) * vals[k]
            + (u ** 3 - 2 * u ** 2 + u) * h * slopes[k]
            + (-2 * u ** 3 + 3 * u ** 2) * vals[k + 1]
            + (u ** 3 - u ** 2) * h * m1)


# the per-arc reference of integrate's planned lookups, one stage at a time;
# it shares the basis weights, _hermite_basis, with them, and finds each
# segment by searchsorted (_segment) where they do it by arithmetic
def _hermite_gather(times, table, j_e, s_e, hi, fix_idx):
    """Cubic Hermite evaluation of vals[:, j_e[k]] at times s_e[k] for
    the (M, rows, 2, d) state table (vals, slopes, fix_val); fix_val
    replaces the slope at ``fix_idx`` when that is the right endpoint
    of the queried segment.
    """
    vals, slopes, fix_val = table
    seg = _segment(times, s_e, hi)
    h00, h10, h01, h11 = (b[:, None, None] for b in _hermite_basis(times, s_e, seg))
    seg1 = seg + 1
    at_fix = seg1 == fix_idx
    m1 = slopes[seg1, j_e]
    if at_fix.any():
        m1 = np.where(at_fix[:, None, None], fix_val[j_e], m1)
    return h00 * vals[seg, j_e] + h10 * slopes[seg, j_e] + h01 * vals[seg1, j_e] + h11 * m1


def edge_forces_reference(x_i, x_delayed, v_i, v_delayed, ei, w, n):
    """The alignment forces on separate (E, d) position and velocity rows
    of the arcs ej[e] -> ei[e]: the (n, d) sum over arcs into each
    receiver of psi(|x_delayed - x_i|) * (v_delayed - v_i), in arc order."""
    dx = x_delayed - x_i
    r = np.sqrt(np.add.reduce(dx * dx, axis=1))
    dv = np.zeros((n, v_i.shape[1]))
    np.add.at(dv, ei, np.asarray(w(r))[:, None] * (v_delayed - v_i))
    return dv


def rk4_reference(history, g, w, p, t_end, dt):
    """One member's run of dde.integrate by the allocating RK4 step.

    Each stage reads its arcs' delayed states by the per-arc gather (an
    arc at delay 0 reads the stage's state), builds its slope with
    np.concatenate and takes y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4);
    stage times and slope limits are those of integrate's plan.
    Returns (ys, dys, hist_end): the (M, N, 2, d) state and slope tables
    and the history side of the slope at t = 0.
    """
    tau = max(p.tau_max, history.tau)
    n_hist = max(1, math.ceil(tau / dt - 1e-12)) if tau > 0 else 0
    n_steps = int(math.ceil(t_end / dt - 1e-12))
    times = (np.arange(n_hist + n_steps + 1) - n_hist) * dt
    n, d = history.x0.shape
    ys = np.empty((len(times), n, 2, d))
    dys = np.zeros_like(ys)
    (ys[: n_hist + 1, :, 0], ys[: n_hist + 1, :, 1],
     dys[: n_hist + 1, :, 0], dys[: n_hist + 1, :, 1]) = history.eval(times[: n_hist + 1])
    hist_end = dys[n_hist].copy()
    ei, ej = g.arc_list
    at = p.on_edges(ei, ej)

    def slope(t, hi, y):
        tau_e = np.broadcast_to(at(t), len(ei))
        past = tau_e != 0.0
        yd = y[ej]
        if past.any():
            yd[past] = _hermite_gather(times, (ys, dys, hist_end), ej[past], t - tau_e[past],
                                       hi, n_hist)
        dv = edge_forces_reference(y[ei, 0], yd[:, 0], y[ei, 1], yd[:, 1], ei, w, n)
        return np.concatenate((y[:, 1:], dv[:, None]), axis=1)

    for idx in range(n_hist, n_hist + n_steps):
        t, y = times[idx], ys[idx]
        dys[idx] = k1 = slope(t, max(idx - 1, 1), y)
        k2 = slope(t + dt / 2, idx, y + dt / 2 * k1)
        k3 = slope(t + dt / 2, idx, y + dt / 2 * k2)
        k4 = slope(t + dt, idx, y + dt * k3)
        ys[idx + 1] = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    dys[-1] = slope(times[-1], len(times) - 2, ys[-1])
    return ys, dys, hist_end


def euler_reference(history, g, w, p, t_end, h):
    """discrete.simulate_discrete's run on separate position and velocity
    tables: x + h * v and v + h * dv, the forces by
    edge_forces_reference on the lags p reads at each step.  Returns the
    (t_end + tau + 1, N, d) tables (xs, vs) from step -tau."""
    tau = p.integer_tau_max
    times = np.arange(-tau, t_end + 1, dtype=float)
    xs = np.empty((len(times),) + history.x0.shape)
    vs = np.empty_like(xs)
    xs[: tau + 1], vs[: tau + 1], _, _ = history.eval(times[: tau + 1])
    ei, ej = g.arc_list
    delay_at = p.on_edges(ei, ej)
    for k in range(t_end):
        x, v = xs[tau + k], vs[tau + k]
        back = tau + k - np.rint(delay_at(k)).astype(np.intp)
        dv = edge_forces_reference(x[ei], xs[back, ej], v[ei], vs[back, ej], ei, w, len(x))
        xs[tau + k + 1], vs[tau + k + 1] = x + h * v, v + h * dv
    return xs, vs


def max_pair_distance_reference(xs):
    """The largest distance between two agents over every time row of xs
    (M, N, d), from all rows' pair differences at once: M * N(N-1)/2 * d
    floats, where analysis.position_bound takes one row at a time."""
    iu, ju = np.triu_indices(xs.shape[1], k=1)
    return float(np.linalg.norm(xs[:, iu] - xs[:, ju], axis=-1).max())


def history_spreads_reference(times, xs, vs, arcs, tau):
    """D(0) and X(0) of a sampled history on [-tau, 0], by reading it at
    each breakpoint there: the window ends and the sample times inside.

    Between samples the history is the linear interpolation
    (1 - u) * a + u * b, found by a linear segment scan; a sample time
    reads its sample.  D(0) is the largest max-minus-min over agents and
    those times, per component; X(0) the largest distance from x_i(0)
    to x_j(s) over arcs j -> i (arcs[i][j] True) and those times s.
    """
    times = [float(t) for t in times]

    def state(tab, t):
        if t in times:
            return np.asarray(tab[times.index(t)], dtype=float)
        k = 0
        while times[k + 1] <= t:
            k += 1
        u = (t - times[k]) / (times[k + 1] - times[k])
        return (1 - u) * np.asarray(tab[k]) + u * np.asarray(tab[k + 1])

    window = [-tau] + [t for t in times if -tau < t < 0.0] + [0.0]
    n, d = np.asarray(xs[0]).shape
    d0 = 0.0
    for c in range(d):
        vals = [float(state(vs, t)[i, c]) for t in window for i in range(n)]
        d0 = max(d0, max(vals) - min(vals))
    x_now = state(xs, 0.0)
    x0 = 0.0
    for t in window:
        x_s = state(xs, t)
        for i in range(n):
            for j in range(n):
                if arcs[i][j]:
                    diff = [float(a - b) for a, b in zip(x_now[i], x_s[j])]
                    x0 = max(x0, math.sqrt(sum(e * e for e in diff)))
    return d0, x0


# The window diagnostics as they were before they ran in O(M), verbatim: the
# dense segment extrema and the sliding window reduction, and diameters on them.
# dde._segment_extrema must match them bit for bit, signed zeros included, and
# dde._trailing_extreme and dde.diameters must match them plus 0.0 (a zero window
# extreme is +0).

def segment_extrema_reference(vals, slopes, dt, fix_idx=None, fix_val=None):
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


def trailing_extreme_reference(arr, win, reduce_fn):
    """reduce over the trailing window of length win+1 along axis 0."""
    padded = np.concatenate([np.repeat(arr[:1], win, axis=0), arr])
    return reduce_fn(np.lib.stride_tricks.sliding_window_view(padded, win + 1, axis=0), axis=-1)


def diameters_reference(traj, tau):
    """(times, vbar, vund, spread_k, spread) of dde.diameters, from the two
    references above."""
    win = int(round(tau / traj.dt))
    if win * traj.dt < tau - 1e-9 * max(tau, 1.0):
        win += 1
    vs = traj.vs
    g_max = vs.max(axis=1)   # (M, d) over agents
    g_min = vs.min(axis=1)
    if traj.dvs is not None and win > 0:
        lo, hi = segment_extrema_reference(vs, traj.dvs, traj.dt,
                                           fix_idx=traj.n_hist,
                                           fix_val=traj.hist_end_slope)
        g_max[1:] = np.maximum(g_max[1:], hi.max(axis=1))
        g_min[1:] = np.minimum(g_min[1:], lo.min(axis=1))
    q0 = traj.n_hist
    vbar = trailing_extreme_reference(g_max, win, np.max)[q0:]
    vund = trailing_extreme_reference(g_min, win, np.min)[q0:]
    spread_k = vbar - vund
    return traj.times[q0:], vbar, vund, spread_k, spread_k.max(axis=1)


def _cell(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def csv_reference(cols, rows) -> str:
    """The text of a delayflock CSV written cell by cell: the header line,
    the column line, then one line per row, a float cell printed as
    format(x, ".17g") and any other cell by str."""
    lines = ["# delayflock-csv v1", ",".join(cols)]
    lines += [",".join(_cell(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_csv_reference(traj) -> str:
    """One row (t, agent, x..., v...) per time and agent."""
    d = traj.xs.shape[2]
    cols = (["t", "agent"] + [f"x{k + 1}" for k in range(d)]
            + [f"v{k + 1}" for k in range(d)])
    rows = [[float(t), i] + [float(v) for v in traj.xs[m, i]]
            + [float(v) for v in traj.vs[m, i]]
            for m, t in enumerate(traj.times) for i in range(traj.xs.shape[1])]
    return csv_reference(cols, rows)


def diameters_csv_reference(series) -> str:
    """One row (t, D, D_k..., vbar_k..., vund_k...) per window time."""
    d = series.vbar.shape[1]
    cols = (["t", "D"] + [f"D{k + 1}" for k in range(d)]
            + [f"vbar{k + 1}" for k in range(d)] + [f"vund{k + 1}" for k in range(d)])
    rows = [[float(t), float(series.spread[q])]
            + [float(v) for part in (series.spread_k, series.vbar, series.vund)
               for v in part[q]]
            for q, t in enumerate(series.times)]
    return csv_reference(cols, rows)


def certificate_reference(fields: dict) -> str:
    """One key=value line per certificate field."""
    return "".join(f"{k}={_cell(v)}\n" for k, v in fields.items())


# The rho search as it was before its scalar probes ran in Python floats, verbatim:
# every probe goes through numpy, so a scalar probe reaches the weight as a numpy
# scalar and takes its array path.  The certificate must match it bit for bit.

def condition_rhs(rho, x0: float, w: WeightFunction, p: ModelParams):
    """Right-hand side C * rho * psi(x0 + rho)^gamma of the sufficient
    condition (discrete constant when p.h is set)."""
    rho = np.asarray(rho, dtype=float)
    psi = np.asarray(w(x0 + rho), dtype=float)
    out = p.c * rho * psi ** p.gamma_g
    return out if out.ndim else float(out)


def _search_rho(d0: float, x0: float, w: WeightFunction, p: ModelParams):
    """Geometric-grid search for a rho satisfying the condition.

    Returns (rho, rhs_at_rho, satisfied).  Among satisfying grid points
    the smallest rho is taken: a smaller rho keeps psi(X0 + rho) large
    and therefore certifies the fastest contraction factor.  When no
    grid point satisfies, one golden-section pass around the grid
    maximum rules out a near-miss between grid points.
    """
    scale = max(1.0, x0)
    lo, hi = RHO_DECADES[0] * scale, RHO_DECADES[1] * scale
    n_pts = int(RHO_PER_DECADE * math.log10(hi / lo)) + 1
    grid = np.geomspace(lo, hi, n_pts)
    vals = condition_rhs(grid, x0, w, p)
    ok = np.flatnonzero(vals >= d0)
    if ok.size:
        k = int(ok[0])
        return float(grid[k]), float(vals[k]), True
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n_pts - 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        c1 = b - inv_phi * (b - a)
        c2 = a + inv_phi * (b - a)
        if condition_rhs(c1, x0, w, p) < condition_rhs(c2, x0, w, p):
            a = c1
        else:
            b = c2
    rho = 0.5 * (a + b)
    best = float(condition_rhs(rho, x0, w, p))
    if best < vals[k]:
        rho, best = float(grid[k]), float(vals[k])
    return rho, best, best >= d0
