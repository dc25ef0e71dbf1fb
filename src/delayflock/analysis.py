"""Threshold constants, regime classification, and flocking certificates.

Everything here is a pure function of the model parameters and the
measured initial spreads.  A certificate records the sufficient
condition D(0) <= C * rho * psi(X(0) + rho)^gamma_g (continuous) or its
Euler analogue, the contraction factor delta it implies for blocks of
length gamma_g * (2*tau + 1), and the verdict with its margin.  The
condition is sufficient only: a not-guaranteed verdict says nothing
about the actual run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dde import DiameterSeries, InitialHistory, Trajectory, check_history
from .digraph import Digraph, compute_metrics
from .discrete import check_gate
from .interaction import DelayProfile, WeightFunction, verify_admissible

LONG_RANGE = "long-range"
CRITICAL = "critical"
SHORT_RANGE = "short-range"
NON_CS = "non-CS-weight"

# rho grid for the search in the long-range / critical / non-algebraic
# cases: 200 points per decade, then one golden-section refinement
RHO_DECADES = (1e-6, 1e9)
RHO_PER_DECADE = 200

# a position bound above this says nothing about a run and is flagged vacuous
VACUOUS_ABOVE = 1e9


class AnalysisError(ValueError):
    pass


@dataclass(frozen=True)
class ModelParams:
    """Everything the closed-form constants depend on."""

    gamma_g: int
    n_infinity: int
    kappa: float
    tau: float
    d: int
    h: float | None = None      # discrete only
    beta: float | None = None   # algebraic weight only

    def __post_init__(self):
        if not (isinstance(self.gamma_g, (int, np.integer)) and self.gamma_g >= 1):
            raise AnalysisError(
                f"gamma_g must be a finite integer >= 1, got {self.gamma_g} "
                "(single-vertex and treeless graphs are degenerate here)")
        if self.n_infinity < 1:
            raise AnalysisError("n_infinity must be >= 1 for a graph with arcs")
        if self.kappa <= 0 or self.tau < 0 or self.d < 1:
            raise AnalysisError("kappa > 0, tau >= 0, d >= 1 required")
        if self.h is not None:
            check_gate(self.kappa, self.h, self.n_infinity)


def c_infinity(p: ModelParams) -> float:
    """Continuous threshold constant.

    exp(-n_inf * kappa * gamma * (3*tau + 2))
    / (2 * sqrt(d) * gamma * (2*tau + 1) * (1 + n_inf * kappa)^gamma),
    evaluated in log space to dodge underflow for large arguments.
    """
    g, ni, k, tau, d = p.gamma_g, p.n_infinity, p.kappa, p.tau, p.d
    log_val = (-ni * k * g * (3 * tau + 2)
               - math.log(2 * math.sqrt(d) * g * (2 * tau + 1))
               - g * math.log1p(ni * k))
    return math.exp(log_val)


def c_bar_infinity(p: ModelParams) -> float:
    """Euler-scheme threshold constant; requires the stability gate."""
    if p.h is None:
        raise AnalysisError("discrete constant needs a step size h")
    g, ni, k, tau, d, h = p.gamma_g, p.n_infinity, p.kappa, p.tau, p.d, p.h
    check_gate(k, h, ni)
    log_val = (g * (3 * tau + 1) * math.log1p(-h * ni * k)
               + (g - 1) * math.log(h)
               - math.log(2 * math.sqrt(d) * g * (2 * tau + 1))
               - g * math.log1p(ni * k))
    return math.exp(log_val)


def classify_regime(beta: float, gamma_g: int) -> str:
    """Regimes of the algebraic weight: 2*beta*gamma below / at / above 1."""
    x = 2.0 * beta * gamma_g
    if x < 1.0:
        return LONG_RANGE
    if x == 1.0:
        return CRITICAL
    return SHORT_RANGE


def rho_plus(x0: float, beta: float, gamma_g: int) -> float:
    """Unique positive critical point of the condition curve when
    2*beta*gamma_g > 1."""
    bg = beta * gamma_g
    denom = 2.0 * bg - 1.0
    if denom <= 0:
        raise AnalysisError(
            f"rho_plus needs 2*beta*gamma_g > 1, got {2 * bg:g}")
    disc = bg * bg * x0 * x0 + denom
    return (x0 * (1.0 - bg) + math.sqrt(disc)) / denom


def condition_rhs(rho, x0: float, w: WeightFunction, p: ModelParams):
    """Right-hand side C * rho * psi(x0 + rho)^gamma of the sufficient
    condition (discrete constant when p.h is set)."""
    c = c_bar_infinity(p) if p.h is not None else c_infinity(p)
    rho = np.asarray(rho, dtype=float)
    psi = np.asarray(w(x0 + rho), dtype=float)
    out = c * rho * psi ** p.gamma_g
    return out if out.ndim else float(out)


def condition_supremum(x0: float, w: WeightFunction, p: ModelParams) -> float:
    """Supremum of the condition curve over rho, where it is finite.

    Only the critical algebraic regime has a finite nontrivial limit,
    C * kappa^gamma; elsewhere returns inf (long-range / constant
    weight) or the value at rho_plus (short-range).
    """
    c = c_bar_infinity(p) if p.h is not None else c_infinity(p)
    if w.kind == "cucker-smale" and p.beta is not None:
        regime = classify_regime(p.beta, p.gamma_g)
        if regime == CRITICAL:
            return c * w.effective_kappa ** p.gamma_g
        if regime == SHORT_RANGE:
            return condition_rhs(rho_plus(x0, p.beta, p.gamma_g), x0, w, p)
        return math.inf
    if w.kind == "constant":
        return math.inf
    return math.nan


def delta_continuous(rho: float, x0: float, w: WeightFunction,
                     p: ModelParams) -> float:
    """Per-block contraction factor for the continuous system."""
    g, ni, k, tau = p.gamma_g, p.n_infinity, p.kappa, p.tau
    log_sub = (g * math.log(float(w(x0 + rho))) - ni * k * g * (3 * tau + 2)
               - math.log(2.0) - g * math.log1p(ni * k))
    return 1.0 - math.exp(log_sub)


def delta_discrete(rho: float, x0: float, w: WeightFunction,
                   p: ModelParams) -> float:
    """Per-block contraction factor for the Euler recursion."""
    if p.h is None:
        raise AnalysisError("discrete delta needs a step size h")
    g, ni, k, tau, h = p.gamma_g, p.n_infinity, p.kappa, p.tau, p.h
    log_sub = (g * math.log(h) + g * math.log(float(w(x0 + rho)))
               + g * (3 * tau + 1) * math.log1p(-h * ni * k)
               - math.log(2.0) - g * math.log1p(ni * k))
    return 1.0 - math.exp(log_sub)


@dataclass(frozen=True)
class FlockingCertificate:
    """Evaluated sufficient condition for one scenario."""

    model: str                   # "continuous" | "discrete"
    c_const: float
    rho: float
    threshold: float
    measured_D0: float
    measured_X0: float
    regime: str
    delta: float
    verdict: str                 # "guaranteed" | "not-guaranteed"
    margin: float
    boundary_limit_used: bool = False
    params: ModelParams | None = None

    @property
    def guaranteed(self) -> bool:
        return self.verdict == "guaranteed"

    @property
    def block_length(self) -> float:
        """Span contracted by one factor of delta (time for the
        continuous model, steps for the discrete one)."""
        return self.params.gamma_g * (2 * self.params.tau + 1)

    def as_dict(self) -> dict:
        p = self.params
        return {
            "model": self.model, "gamma_g": p.gamma_g, "n_infinity": p.n_infinity,
            "kappa": p.kappa, "tau": p.tau, "d": p.d, "beta": p.beta, "h": p.h,
            "c_const": self.c_const, "rho": self.rho, "threshold": self.threshold,
            "D0": self.measured_D0, "X0": self.measured_X0, "regime": self.regime,
            "delta": self.delta, "verdict": self.verdict, "margin": self.margin,
        }


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


# relative slack for the non-strict comparison: the two sides of the
# boundary presets are the same closed form evaluated along different
# floating-point paths, so exact <= would flip on rounding noise
_CMP_RTOL = 1e-12


def _leq(a: float, b: float) -> bool:
    return a <= b * (1.0 + _CMP_RTOL) + 1e-300


def _certify(history: InitialHistory, g: Digraph, w: WeightFunction, dp: DelayProfile,
             h: float | None, rho: float | None) -> FlockingCertificate:
    """The certificate of either model: the discrete one when h is set."""
    rep = verify_admissible(w)
    if not rep:
        raise AnalysisError(f"weight is not admissible: {rep.violations[:1]}")
    check_history(history, (g.n_vertices, history.dim), dp)
    p = params_from_scenario(g, w, dp, d=history.dim, h=h)
    d0, x0 = initial_spreads(history, g, p.tau)
    model = "continuous" if h is None else "discrete"
    c = c_bar_infinity(p) if model == "discrete" else c_infinity(p)
    regime = NON_CS
    if w.kind == "cucker-smale":
        regime = classify_regime(w.beta, p.gamma_g)
    boundary = False
    if rho is not None:
        threshold = float(condition_rhs(rho, x0, w, p))
        satisfied = _leq(d0, threshold)
    elif regime == SHORT_RANGE:
        rho = rho_plus(x0, w.beta, p.gamma_g)
        threshold = float(condition_rhs(rho, x0, w, p))
        satisfied = _leq(d0, threshold)
    else:
        rho, threshold, satisfied = _search_rho(d0, x0, w, p)
        if not satisfied and regime == CRITICAL:
            # the curve increases toward a finite supremum that no
            # finite rho attains; the non-strict form of the condition
            # admits data sitting exactly on that limit
            sup = condition_supremum(x0, w, p)
            if _leq(d0, sup):
                threshold = sup
                satisfied = True
                boundary = True
    delta_fn = delta_discrete if model == "discrete" else delta_continuous
    delta = delta_fn(rho, x0, w, p)
    return FlockingCertificate(
        model=model, c_const=c, rho=float(rho), threshold=threshold,
        measured_D0=d0, measured_X0=x0, regime=regime, delta=delta,
        verdict="guaranteed" if satisfied else "not-guaranteed",
        margin=threshold - d0, boundary_limit_used=boundary, params=p)


def params_from_scenario(g: Digraph, w: WeightFunction, p: DelayProfile,
                         d: int, h: float | None = None) -> ModelParams:
    m = compute_metrics(g)
    if not m.has_spanning_tree:
        raise AnalysisError("graph has no spanning tree; the condition "
                            "constants are undefined")
    if m.gamma_g < 1:
        raise AnalysisError("single-vertex graph is degenerate for the "
                            "threshold analysis")
    tau = p.integer_tau_max if h is not None else p.tau_max
    return ModelParams(gamma_g=int(m.gamma_g), n_infinity=m.n_infinity,
                       kappa=w.effective_kappa, tau=tau, d=d, h=h,
                       beta=w.beta if w.kind == "cucker-smale" else None)


def check_continuous(history: InitialHistory, g: Digraph, w: WeightFunction,
                     p: DelayProfile, rho: float | None = None) -> FlockingCertificate:
    """Evaluate the continuous sufficient condition for given initial data.

    D(0) and X(0) are measured from the history itself, not taken from
    configuration.
    """
    return _certify(history, g, w, p, None, rho)


def check_discrete(history: InitialHistory, g: Digraph, w: WeightFunction,
                   p: DelayProfile, h: float, rho: float | None = None) -> FlockingCertificate:
    """Discrete analogue of check_continuous (integer delays, gate on
    kappa * h enforced by the constants), measured alike."""
    return _certify(history, g, w, p, h, rho)


def initial_spreads(history: InitialHistory, g: Digraph, tau: float) -> tuple[float, float]:
    """D(0) and X(0) on the window [-tau, 0]: the largest velocity
    spread over agents and times (max over components), and the largest
    ||x_i(0) - x_j(s)|| over arcs (j -> i) and times s.  The history is
    linear between its sample times, so both are attained at the window
    ends or at a sample time inside, the only times read."""
    ts = [-tau, 0.0]
    if history.times is not None:
        inside = history.times[(history.times > -tau) & (history.times < 0.0)]
        ts = np.concatenate(([-tau], inside, [0.0]))
    x, v, _, _ = history.eval(ts)
    d0 = float((v.max(axis=(0, 1)) - v.min(axis=(0, 1))).max())
    ei, ej = np.nonzero(g.arcs)
    return d0, float(np.linalg.norm(x[-1, ei] - x[:, ej], axis=-1).max(initial=0.0))


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    n_checked: int
    worst_excess: float
    empirical_rate: float
    bound_rate: float
    failures: tuple = ()

    def __bool__(self):
        return self.passed


def verify_decay(series: DiameterSeries, cert: FlockingCertificate,
                 tol: float = 1e-6) -> DecayReport:
    """Check the geometric per-block decay predicted by the certificate.

    For each block count n with n * gamma * (2*tau + 1) inside the run,
    require D(n * block) <= delta^n * D(0) * (1 + tol).  Also reports a
    least-squares rate fit of log D against the theoretical rate
    log(delta) / block (the bound is conservative; the fit is usually
    much faster).
    """
    if not cert.guaranteed:
        raise AnalysisError("decay verification requires a guaranteed verdict")
    block = cert.block_length
    d0 = float(series.spread[0])
    t_last = float(series.times[-1])
    dt = float(series.times[1] - series.times[0]) if len(series.times) > 1 else 1.0
    failures = []
    worst = 0.0
    n = 0
    while n * block <= t_last + 1e-9:
        t = n * block
        k = int(round((t - series.times[0]) / dt))
        k = min(k, len(series.spread) - 1)
        bound = cert.delta ** n * d0 * (1.0 + tol)
        val = float(series.spread[k])
        excess = val - bound
        worst = max(worst, excess)
        if val > bound:
            failures.append((n, t, val, bound))
        n += 1
    # empirical exponential rate from the positive tail
    pos = series.spread > 0
    rate = 0.0
    if pos.sum() >= 2:
        ts = series.times[pos]
        ys = np.log(series.spread[pos])
        rate = float(np.polyfit(ts, ys, 1)[0])
    bound_rate = math.log(cert.delta) / block if cert.delta > 0 else -math.inf
    return DecayReport(passed=not failures, n_checked=n,
                       worst_excess=worst, empirical_rate=rate,
                       bound_rate=bound_rate, failures=tuple(failures))


@dataclass(frozen=True)
class PositionBoundReport:
    passed: bool
    bound: float
    max_distance: float
    vacuous: bool

    def __bool__(self):
        return self.passed


def position_bound(traj: Trajectory, cert: FlockingCertificate) -> PositionBoundReport:
    """Check the uniform relative-position bound implied by the decay.

    bound = max_pairs sum_k |x_i^k(0) - x_j^k(0)|
            + d * D(0) * gamma * (2*tau+1) / (delta * ln(1/delta)),
    compared against the largest pairwise distance over the whole run.
    The bound explodes as delta -> 1 and is flagged vacuous past
    VACUOUS_ABOVE.
    """
    if not cert.guaranteed:
        raise AnalysisError("position bound requires a guaranteed verdict")
    n = traj.n_agents
    k0 = traj.n_hist
    x0 = traj.xs[k0]
    iu, ju = np.triu_indices(n, k=1)
    if len(iu) == 0:
        return PositionBoundReport(passed=True, bound=0.0, max_distance=0.0,
                                   vacuous=False)
    l1 = np.abs(x0[iu] - x0[ju]).sum(axis=1).max()
    ln_inv = -math.log(cert.delta)
    if ln_inv <= 0:
        bound = math.inf
    else:
        bound = float(l1 + cert.params.d * cert.measured_D0 * cert.block_length
                      / (cert.delta * ln_inv))
    xs = traj.xs[k0:]
    dmax = float(np.linalg.norm(xs[:, iu] - xs[:, ju], axis=-1).max())
    return PositionBoundReport(passed=dmax <= bound, bound=bound,
                               max_distance=dmax,
                               vacuous=bound > VACUOUS_ABOVE)
