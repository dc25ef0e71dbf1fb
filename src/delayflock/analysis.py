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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dde import DiameterSeries, InitialHistory, Trajectory, check_history
from .digraph import Digraph, compute_metrics
from .discrete import check_gate
from .interaction import DelayProfile, WeightFunction

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


class DegenerateGraphError(AnalysisError):
    """The graph has no spanning tree, or one vertex: no condition constants exist."""


class SpreadOverflowError(ValueError):
    """D(0) or X(0) of the initial data overflows a float.  Unlike an
    AnalysisError (a degenerate graph), a run without a certificate does
    not get round it: the data is out of range."""


@dataclass(frozen=True)
class ModelParams:
    """Everything the closed-form constants depend on, and the two that
    decide the certificate: its model's threshold constant ``c`` (the
    Euler one when h is set) and the weight's ``regime``."""

    gamma_g: int
    n_infinity: int
    kappa: float
    tau: float
    d: int
    h: float | None = None      # discrete only
    beta: float | None = None   # algebraic weight only

    def __post_init__(self):
        if not (isinstance(self.gamma_g, (int, np.integer)) and self.gamma_g >= 1):
            raise DegenerateGraphError(
                f"gamma_g must be a finite integer >= 1, got {self.gamma_g} "
                "(single-vertex and treeless graphs are degenerate here)")
        if self.n_infinity < 1:
            raise DegenerateGraphError("n_infinity must be >= 1 for a graph with arcs")
        if self.kappa <= 0 or self.tau < 0 or self.d < 1:
            raise AnalysisError("kappa > 0, tau >= 0, d >= 1 required")
        if self.h is not None:
            check_gate(self.kappa, self.h, self.n_infinity)

    @functools.cached_property
    def c(self) -> float:
        return c_infinity(self) if self.h is None else c_bar_infinity(self)

    @functools.cached_property
    def regime(self) -> str:
        return NON_CS if self.beta is None else classify_regime(self.beta, self.gamma_g)


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
    """Euler-scheme threshold constant; ModelParams has checked the
    stability gate."""
    if p.h is None:
        raise AnalysisError("discrete constant needs a step size h")
    g, ni, k, tau, d, h = p.gamma_g, p.n_infinity, p.kappa, p.tau, p.d, p.h
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
        raise AnalysisError(f"rho_plus needs 2*beta*gamma_g > 1, got {2 * bg:g}")
    disc = bg * bg * x0 * x0 + denom
    return (x0 * (1.0 - bg) + math.sqrt(disc)) / denom


def condition_rhs(rho, x0: float, w: WeightFunction, p: ModelParams):
    """Right-hand side C * rho * psi(x0 + rho)^gamma of the sufficient condition (discrete
    constant when p.h is set).  A scalar rho is one probe in Python floats, but psi^gamma
    takes numpy's array power, as on the grid: Python's can differ in the last bit."""
    rho = np.asarray(rho, dtype=float) if np.ndim(rho) else float(rho)
    out = p.c * rho * np.asarray(w(x0 + rho), dtype=float) ** p.gamma_g
    return out if out.ndim else float(out)


def condition_supremum(x0: float, w: WeightFunction, p: ModelParams) -> float:
    """Supremum of the condition curve over rho, where it is finite.

    Only the critical algebraic regime has a finite nontrivial limit,
    C * kappa^gamma; elsewhere returns inf (long-range / constant
    weight) or the value at rho_plus (short-range).
    """
    if w.kind == "cucker-smale" and p.regime != NON_CS:
        if p.regime == CRITICAL:
            return p.c * w.effective_kappa ** p.gamma_g
        if p.regime == SHORT_RANGE:
            return condition_rhs(rho_plus(x0, p.beta, p.gamma_g), x0, w, p)
        return math.inf
    return math.inf if w.kind == "constant" else math.nan


def _log_gap(rho: float, x0: float, w: WeightFunction, p: ModelParams) -> float:
    """log(1 - delta) of the Euler recursion with step p.h, or of the continuous system;
    AnalysisError where psi(x0 + rho) underflows to 0, as no rate exists there."""
    g, ni, k, tau, h = p.gamma_g, p.n_infinity, p.kappa, p.tau, p.h
    if not (psi := float(w(x0 + rho))) > 0.0:
        raise AnalysisError(f"psi(X0 + rho) underflows to 0 at rho = {rho:g}; "
                            "no contraction rate exists there")
    if h is None:
        return (g * math.log(psi) - ni * k * g * (3 * tau + 2)
                - math.log(2.0) - g * math.log1p(ni * k))
    return (g * math.log(h) + g * math.log(psi)
            + g * (3 * tau + 1) * math.log1p(-h * ni * k)
            - math.log(2.0) - g * math.log1p(ni * k))


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
    delta: float                 # rounded; the bounds use log_delta, which keeps its digits
    log_delta: float
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
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, n_pts - 1)]
    inv_phi = (math.sqrt(5) - 1) / 2
    for _ in range(60):
        c1, c2 = b - inv_phi * (b - a), a + inv_phi * (b - a)
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
    if rho is not None and not rho > 0:
        raise AnalysisError(f"rho must be positive, got {rho:g}")
    if not (rep := w.admissibility):
        raise AnalysisError(f"weight is not admissible: {rep.violations[:1]}")
    check_history(history, (g.n_vertices, history.dim), dp)
    m = compute_metrics(g)
    if not m.has_spanning_tree:
        raise DegenerateGraphError("graph has no spanning tree; the condition "
                                   "constants are undefined")
    p = ModelParams(gamma_g=int(m.gamma_g), n_infinity=m.n_infinity, kappa=w.effective_kappa,
                    tau=dp.tau_max if h is None else dp.integer_tau_max, d=history.dim, h=h,
                    beta=w.beta if w.kind == "cucker-smale" else None)
    d0, x0 = initial_spreads(history, g, p.tau)
    if not (math.isfinite(d0) and math.isfinite(x0)):
        raise SpreadOverflowError(f"initial spreads overflow: D(0) = {d0:g}, X(0) = {x0:g}; "
                                  "rescale the positions and velocities")
    boundary = False
    if rho is None and p.regime == SHORT_RANGE:
        rho = rho_plus(x0, p.beta, p.gamma_g)
    if rho is not None:
        threshold = float(condition_rhs(rho, x0, w, p))
        satisfied = _leq(d0, threshold)
    else:
        rho, threshold, satisfied = _search_rho(d0, x0, w, p)
        if not satisfied and p.regime == CRITICAL:
            # the curve increases toward a finite supremum that no
            # finite rho attains; the non-strict form of the condition
            # admits data sitting exactly on that limit
            sup = condition_supremum(x0, w, p)
            if _leq(d0, sup):
                threshold = sup
                satisfied = True
                boundary = True
    gap = math.exp(_log_gap(rho, x0, w, p))
    return FlockingCertificate(
        model="continuous" if h is None else "discrete", c_const=p.c, rho=float(rho),
        threshold=threshold, measured_D0=d0, measured_X0=x0, regime=p.regime, delta=1.0 - gap,
        log_delta=math.log1p(-gap),
        verdict="guaranteed" if satisfied else "not-guaranteed",
        margin=threshold - d0, boundary_limit_used=boundary, params=p)


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
    y = history.eval(ts)[0]
    x, (ei, ej) = y[:, 0].swapaxes(1, 2), g.arc_list   # x: (T, N, d)
    with np.errstate(over="ignore"):   # an overflow reads inf, which _certify refuses
        d0 = float((y[:, 1].max(axis=(0, 2)) - y[:, 1].min(axis=(0, 2))).max())
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
    failures, worst, n = [], 0.0, 0
    while n * block <= t_last + 1e-9:
        t = n * block
        k = min(int(round((t - series.times[0]) / dt)), len(series.spread) - 1)
        bound = math.exp(n * cert.log_delta) * d0 * (1.0 + tol)
        val = float(series.spread[k])
        worst = max(worst, val - bound)
        if val > bound:
            failures.append((n, t, val, bound))
        n += 1
    # empirical exponential rate from the positive tail
    pos = series.spread > 0
    rate = (float(np.polyfit(series.times[pos], np.log(series.spread[pos]), 1)[0])
            if pos.sum() >= 2 else 0.0)
    return DecayReport(passed=not failures, n_checked=n,
                       worst_excess=worst, empirical_rate=rate,
                       bound_rate=cert.log_delta / block, failures=tuple(failures))


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
    x0 = traj.xs[traj.n_hist]
    iu, ju = np.triu_indices(traj.n_agents, k=1)
    if len(iu) == 0:
        return PositionBoundReport(passed=True, bound=0.0, max_distance=0.0,
                                   vacuous=False)
    l1 = np.abs(x0[iu] - x0[ju]).sum(axis=1).max()
    ln_inv = -cert.log_delta
    bound = math.inf if ln_inv <= 0 else float(
        l1 + cert.params.d * cert.measured_D0 * cert.block_length / (cert.delta * ln_inv))
    # blocks of about 2^14 pairs: bounded memory, and few Python-level steps on small flocks
    xs, rows = traj.xs[traj.n_hist:], max(1, 2 ** 14 // len(iu))
    dmax = float(np.max([np.linalg.norm(xs[k:k + rows, iu] - xs[k:k + rows, ju], axis=-1).max()
                         for k in range(0, len(xs), rows)]))
    return PositionBoundReport(passed=dmax <= bound, bound=bound, max_distance=dmax,
                               vacuous=bound > VACUOUS_ABOVE)
