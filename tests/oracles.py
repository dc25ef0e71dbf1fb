"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own code paths: graph constants
come from Floyd-Warshall or a reachability closure over the raw arc
matrix, and reference integrations use plain dense stepping or per-edge
loops.
"""
import math

import numpy as np

from delayflock.interaction import AdmissibilityError

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
