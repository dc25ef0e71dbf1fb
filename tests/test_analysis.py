import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from delayflock.analysis import (
    CRITICAL,
    LONG_RANGE,
    NON_CS,
    SHORT_RANGE,
    AnalysisError,
    ModelParams,
    c_bar_infinity,
    c_infinity,
    check_continuous,
    check_discrete,
    classify_regime,
    condition_rhs,
    condition_supremum,
    position_bound,
    _search_rho,
    rho_plus,
    verify_decay,
)
from delayflock.dde import InitialHistory, IntegrationError, Trajectory, diameters, integrate
from delayflock.digraph import Digraph
from delayflock.discrete import StabilityGateError
from delayflock.harness import run, scenario_from_dict
from delayflock.interaction import DelayProfile, WeightFunction

from oracles import _search_rho as search_rho_reference
from oracles import condition_rhs as condition_rhs_reference
from oracles import (history_spreads_reference, matrix_digraph, max_pair_distance_reference,
                     state_table)

FIG_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4)]
FIG_X0 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
FIG_V0 = np.array([[1.0, -2.0], [3.0, -4.0], [5.0, 6.0], [-7.0, -8.0]])
FIG_PARAMS = ModelParams(gamma_g=2, n_infinity=1, kappa=1.0, tau=1.0, d=2,
                         beta=0.25)


def curve(rho, x0, p):
    """The condition curve C rho psi(x0 + rho)^gamma of the algebraic weight
    with p's kappa and beta."""
    w = WeightFunction(kind="cucker-smale", kappa=p.kappa, beta=p.beta)
    return condition_rhs(rho, x0, w, p)


class TestConstants:
    def test_c_infinity_fig_value(self):
        want = math.exp(-10.0) / (48.0 * math.sqrt(2.0))
        assert c_infinity(FIG_PARAMS) == pytest.approx(want, rel=1e-12)

    def test_c_infinity_simplest(self):
        p = ModelParams(gamma_g=1, n_infinity=1, kappa=1.0, tau=0.0, d=1)
        assert c_infinity(p) == pytest.approx(math.exp(-2.0) / 4.0, rel=1e-14)

    def test_c_infinity_no_underflow(self):
        p = ModelParams(gamma_g=50, n_infinity=20, kappa=5.0, tau=10.0, d=3)
        val = c_infinity(p)
        assert val == 0.0 or val > 0.0  # finite, never nan
        assert math.isfinite(val)

    def test_c_bar_simple_value(self):
        p = ModelParams(gamma_g=1, n_infinity=1, kappa=1.0, tau=0.0, d=1,
                        h=0.5)
        assert c_bar_infinity(p) == pytest.approx(0.125, rel=1e-14)

    def test_c_bar_needs_h(self):
        with pytest.raises(AnalysisError):
            c_bar_infinity(FIG_PARAMS)

    def test_c_bar_gate(self):
        with pytest.raises(StabilityGateError):
            ModelParams(gamma_g=1, n_infinity=2, kappa=1.0, tau=0.0, d=1,
                        h=0.5)

    def test_c_bar_decreasing_in_h(self):
        hs = np.linspace(0.01, 0.45, 20)
        vals = [c_bar_infinity(ModelParams(gamma_g=1, n_infinity=1, kappa=1.0,
                                           tau=1.0, d=2, h=float(h)))
                for h in hs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(st.integers(1, 6), st.integers(1, 6), st.floats(0.1, 5),
           st.floats(0, 4), st.integers(1, 3))
    @settings(max_examples=150)
    def test_c_infinity_monotone_decreasing(self, g, ni, k, tau, d):
        p = ModelParams(gamma_g=g, n_infinity=ni, kappa=k, tau=tau, d=d)
        base = c_infinity(p)
        assert 0 <= base < 1
        for bump in (ModelParams(gamma_g=g + 1, n_infinity=ni, kappa=k, tau=tau, d=d),
                     ModelParams(gamma_g=g, n_infinity=ni + 1, kappa=k, tau=tau, d=d),
                     ModelParams(gamma_g=g, n_infinity=ni, kappa=k * 1.5, tau=tau, d=d),
                     ModelParams(gamma_g=g, n_infinity=ni, kappa=k, tau=tau + 0.5, d=d),
                     ModelParams(gamma_g=g, n_infinity=ni, kappa=k, tau=tau, d=d + 1)):
            assert c_infinity(bump) <= base

    def test_degenerate_params_rejected(self):
        with pytest.raises(AnalysisError):
            ModelParams(gamma_g=0, n_infinity=1, kappa=1.0, tau=0.0, d=1)
        with pytest.raises(AnalysisError):
            ModelParams(gamma_g=1, n_infinity=0, kappa=1.0, tau=0.0, d=1)
        with pytest.raises(AnalysisError):
            ModelParams(gamma_g=1, n_infinity=1, kappa=-1.0, tau=0.0, d=1)


class TestRegimes:
    def test_classification(self):
        assert classify_regime(0.25, 1) == LONG_RANGE
        assert classify_regime(0.25, 2) == CRITICAL
        assert classify_regime(17 / 32, 2) == SHORT_RANGE
        assert classify_regime(0.5, 1) == CRITICAL

    def test_rho_plus_values(self):
        assert rho_plus(0.0, 1.0, 1) == pytest.approx(1.0, rel=1e-14)
        assert rho_plus(1.0, 1.0, 1) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert rho_plus(2.0, 17 / 32, 2) == pytest.approx(2.0, rel=1e-12)

    def test_rho_plus_needs_short_range(self):
        with pytest.raises(AnalysisError):
            rho_plus(1.0, 0.25, 2)

    def test_rho_plus_is_stationary_point(self):
        p = ModelParams(gamma_g=2, n_infinity=1, kappa=1.0, tau=1.0, d=2,
                        beta=17 / 32)
        rp = rho_plus(2.0, 17 / 32, 2)
        eps = 1e-6
        deriv = (curve(rp + eps, 2.0, p) - curve(rp - eps, 2.0, p)) / (2 * eps)
        scale = curve(rp, 2.0, p) / rp
        assert abs(deriv) <= 1e-6 * scale

    def test_curve_value_by_substitution(self):
        p = ModelParams(gamma_g=2, n_infinity=1, kappa=1.0, tau=1.0, d=2,
                        beta=17 / 32)
        want = c_infinity(p) * 2.0 / (1.0 + 16.0) ** (17 / 16)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=17 / 32)
        assert condition_rhs(2.0, 2.0, w, p) == pytest.approx(want, rel=1e-13)

    def test_curve_shapes(self):
        rhos = np.geomspace(1e-4, 1e7, 400)
        # long-range: strictly increasing and unbounded
        p_long = ModelParams(gamma_g=1, n_infinity=1, kappa=1.0, tau=1.0, d=2,
                             beta=0.25)
        v = curve(rhos, 1.0, p_long)
        assert np.all(np.diff(v) > 0)
        assert v[-1] > 1e2 * v[len(v) // 2]
        # critical: increasing, bounded by the supremum
        v = curve(rhos, 1.0, FIG_PARAMS)
        assert np.all(np.diff(v) > 0)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        sup = condition_supremum(1.0, w, FIG_PARAMS)
        assert np.all(v < sup)
        assert v[-1] == pytest.approx(sup, rel=1e-3)
        # short-range: rises then falls, with the peak at rho_plus
        p_short = ModelParams(gamma_g=2, n_infinity=1, kappa=1.0, tau=1.0,
                              d=2, beta=17 / 32)
        v = curve(rhos, 1.0, p_short)
        peak = int(np.argmax(v))
        assert 0 < peak < len(v) - 1
        assert np.all(np.diff(v[:peak]) > 0)
        assert np.all(np.diff(v[peak + 1:]) < 0)
        rp = rho_plus(1.0, 17 / 32, 2)
        assert np.max(v) <= curve(rp, 1.0, p_short) * (1 + 1e-9)

    def test_supremum_critical(self):
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        assert condition_supremum(3.0, w, FIG_PARAMS) == pytest.approx(
            c_infinity(FIG_PARAMS), rel=1e-14)

    def test_supremum_long_range_infinite(self):
        p = ModelParams(gamma_g=1, n_infinity=1, kappa=1.0, tau=1.0, d=2,
                        beta=0.25)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        assert condition_supremum(1.0, w, p) == math.inf
        assert condition_supremum(1.0, WeightFunction(kind="constant", kappa=2.0),
                                  p) == math.inf


class TestDelta:
    # the per-block contraction factor a certificate reports at an explicit rho
    def test_in_unit_interval(self):
        hist, g, w, p = continuous_inputs(1.0)
        for rho in (0.01, 1.0, 100.0):
            assert 0.0 < check_continuous(hist, g, w, p, rho=rho).delta < 1.0

    def test_discrete_in_unit_interval(self):
        hist, g, w, p = continuous_inputs(1.0)
        for rho in (0.01, 1.0, 100.0):
            assert 0.0 < check_discrete(hist, g, w, p, h=0.05, rho=rho).delta < 1.0

    def test_smaller_rho_contracts_faster(self):
        hist, g, w, p = continuous_inputs(1.0)
        d_small = check_continuous(hist, g, w, p, rho=0.1).delta
        d_big = check_continuous(hist, g, w, p, rho=10.0).delta
        assert d_small < d_big


def fig_graph():
    return Digraph.from_arc_list(4, FIG_ARCS, one_based=True)


def continuous_inputs(scale, beta=0.25):
    g = fig_graph()
    w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=beta)
    p = DelayProfile.constant(1.0)
    hist = InitialHistory.constant(FIG_X0, scale * FIG_V0, tau=1.0)
    return hist, g, w, p


FIG2_SCALE = math.exp(-10.0) / (672.0 * math.sqrt(2.0))
CRITICAL_WEIGHT = WeightFunction(beta=0.25)   # 2 * beta * gamma_g = 1 on the fig digraph


class TestCertificates:
    def test_boundary_scale_guaranteed(self):
        hist, g, w, p = continuous_inputs(FIG2_SCALE)
        cert = check_continuous(hist, g, w, p)
        assert cert.guaranteed
        assert cert.regime == CRITICAL
        assert cert.boundary_limit_used
        assert cert.measured_D0 == pytest.approx(14 * FIG2_SCALE, rel=1e-12)
        assert 0 < cert.delta < 1

    def test_interior_scale_guaranteed_without_boundary(self):
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        cert = check_continuous(hist, g, w, p)
        assert cert.guaranteed
        assert not cert.boundary_limit_used
        assert cert.margin >= 0

    def test_large_scale_not_guaranteed(self):
        hist, g, w, p = continuous_inputs(1.0)
        cert = check_continuous(hist, g, w, p)
        assert not cert.guaranteed
        assert cert.margin < 0

    def test_short_range_uses_rho_plus(self):
        hist, g, w, p = continuous_inputs(
            math.exp(-10.0) / (7056.0 * math.sqrt(2.0)), beta=17 / 32)
        cert = check_continuous(hist, g, w, p)
        assert cert.guaranteed
        assert cert.regime == SHORT_RANGE
        assert cert.rho == pytest.approx(2.0, rel=1e-12)

    def test_explicit_rho_respected(self):
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        cert = check_continuous(hist, g, w, p, rho=3.0)
        assert cert.rho == 3.0
        assert cert.threshold == pytest.approx(
            condition_rhs(3.0, cert.measured_X0, w, cert.params), rel=1e-14)

    @pytest.mark.parametrize("model", ["continuous", "discrete"])
    @pytest.mark.parametrize("branch, w, scale, rho, regime, verdict", [
        ("explicit-rho", CRITICAL_WEIGHT, 0.5, 3.0, CRITICAL, "not-guaranteed"),
        ("rho-plus", WeightFunction(beta=17 / 32), 1e-9, None, SHORT_RANGE, "guaranteed"),
        ("grid-hit", WeightFunction(beta=0.1), 1e-6, None, LONG_RANGE, "guaranteed"),
        ("golden-section", CRITICAL_WEIGHT, 1.0, None, CRITICAL, "not-guaranteed"),
        ("boundary", CRITICAL_WEIGHT, None, None, CRITICAL, "guaranteed"),
        ("constant", WeightFunction(kind="constant"), 1e-6, None, NON_CS, "guaranteed"),
        ("tabulated", WeightFunction(kind="tabulated", table_r=[0.0, 1.0, 5.0],
                                     table_v=[1.0, 0.5, 0.2]), 1e-6, None, NON_CS, "guaranteed"),
    ], ids=["explicit-rho", "rho-plus", "grid-hit", "golden-section", "boundary", "constant",
            "tabulated"])
    def test_each_rho_branch_reads_its_model_constants(self, branch, w, scale, rho, regime,
                                                        verdict, model):
        # every branch of the rho search gives c_const, threshold, regime and
        # verdict bit for bit as the public closed forms of its model; the
        # boundary scale puts D(0) = 14 * scale on the critical supremum C
        h = None if model == "continuous" else 0.05
        if scale is None:
            c = ModelParams(gamma_g=2, n_infinity=1, kappa=1.0, tau=1.0, d=2, h=h, beta=0.25)
            scale = (c_infinity(c) if h is None else c_bar_infinity(c)) / 14.0
        hist, g, _, p = continuous_inputs(scale)
        cert = (check_continuous(hist, g, w, p, rho=rho) if h is None
                else check_discrete(hist, g, w, p, h=h, rho=rho))
        params = cert.params
        assert params.h == h and cert.model == model
        assert cert.c_const == (c_infinity(params) if h is None else c_bar_infinity(params))
        assert (cert.regime, cert.verdict) == (regime, verdict)
        assert cert.boundary_limit_used == (branch == "boundary")
        x0 = cert.measured_X0
        if branch == "boundary":
            assert cert.threshold == condition_supremum(x0, w, params)
        else:
            assert cert.threshold == condition_rhs(cert.rho, x0, w, params)
        if branch == "explicit-rho":
            assert cert.rho == rho
        if branch == "rho-plus":
            assert cert.rho == rho_plus(x0, w.beta, params.gamma_g)

    @pytest.mark.parametrize("model", ["continuous", "discrete"])
    @pytest.mark.parametrize("rho, text", [(-1, "-1"), (-5.0, "-5"), (0.0, "0"),
                                           (-1e-300, "-1e-300")])
    def test_non_positive_rho_refused(self, rho, text, model):
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        with pytest.raises(AnalysisError) as e:
            if model == "continuous":
                check_continuous(hist, g, w, p, rho=rho)
            else:
                check_discrete(hist, g, w, p, h=0.05, rho=rho)
        assert str(e.value) == f"rho must be positive, got {text}"

    def test_permutation_invariance(self):
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        cert = check_continuous(hist, g, w, p)
        perm = [2, 0, 3, 1]   # old vertex perm[k] becomes vertex k
        new, (ei, ej) = np.argsort(perm), g.arc_list
        hist2 = InitialHistory.constant(FIG_X0[perm],
                                        0.5 * FIG2_SCALE * FIG_V0[perm], tau=1.0)
        cert2 = check_continuous(hist2, Digraph(4, (new[ei], new[ej])), w, p)
        assert cert2.verdict == cert.verdict
        assert cert2.delta == pytest.approx(cert.delta, rel=1e-12)
        assert cert2.measured_D0 == pytest.approx(cert.measured_D0, rel=1e-14)

    def test_treeless_graph_rejected(self):
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=0.0)
        with pytest.raises(AnalysisError):
            check_continuous(hist, Digraph.from_arc_list(2, []),
                             WeightFunction(kind="constant", kappa=1.0),
                             DelayProfile.zero())

    def test_as_dict_roundtrip(self):
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        d = check_continuous(hist, g, w, p).as_dict()
        assert d["gamma_g"] == 2 and d["n_infinity"] == 1
        assert d["verdict"] == "guaranteed"
        assert d["model"] == "continuous"


def pair_history(v0):
    """Two agents at the origin with velocities v0, constant in time."""
    return InitialHistory.constant([[0.0], [0.0]], v0, tau=0.0)


def _bits(*xs) -> bytes:
    return np.array(xs, dtype=float).tobytes()


# a tabulated weight at kappa 1, scaled by kappa in the test
TABLE_R, TABLE_V = [0.0, 1.0, 5.0, 40.0], [1.0, 0.6, 0.2, 0.01]


class TestProbeArithmetic:
    """Scalar rho probes run in Python floats; every branch that probes gives
    (rho, threshold, satisfied) bit for bit as when each probe went through numpy
    (``oracles.condition_rhs`` and ``oracles._search_rho``)."""

    @settings(max_examples=400, deadline=None)
    @given(kind=st.sampled_from(["cucker-smale", "constant", "tabulated"]),
           beta=st.sampled_from([0, 0.5, 1, 2, 1.0, 2.0]) | st.floats(0.0, 3.0),
           gamma_g=st.sampled_from([1, 2]) | st.integers(1, 8),
           kappa=st.floats(0.05, 5.0), n_inf=st.integers(1, 6), tau=st.floats(0.0, 2.0),
           discrete=st.booleans(), log_x0=st.floats(-6.0, 6.0), log_d0=st.floats(-20.0, 6.0),
           branch=st.sampled_from(["search", "explicit-rho", "rho-plus"]),
           log_rho=st.floats(-8.0, 8.0))
    def test_probes_match_the_numpy_probes(self, kind, beta, gamma_g, kappa, n_inf, tau,
                                           discrete, log_x0, log_d0, branch, log_rho):
        if kind == "tabulated":
            w = WeightFunction(kind=kind, kappa=kappa, table_r=TABLE_R,
                               table_v=[kappa * v for v in TABLE_V])
        else:
            w = WeightFunction(kind=kind, kappa=kappa, beta=beta)
        p = ModelParams(gamma_g=gamma_g, n_infinity=n_inf, kappa=kappa, tau=tau, d=2,
                        h=0.5 / (kappa * n_inf) if discrete else None,
                        beta=beta if kind == "cucker-smale" else None)
        x0, d0 = 10.0 ** log_x0, 10.0 ** log_d0
        if branch == "search":
            rho, threshold, satisfied = _search_rho(d0, x0, w, p)
            want_rho, want_threshold, want_satisfied = search_rho_reference(d0, x0, w, p)
            assert satisfied == want_satisfied
        else:
            if branch == "rho-plus":
                assume(p.regime == SHORT_RANGE)
                rho = want_rho = rho_plus(x0, beta, gamma_g)
            else:
                rho = want_rho = 10.0 ** log_rho
            threshold = condition_rhs(rho, x0, w, p)
            want_threshold = condition_rhs_reference(rho, x0, w, p)
            assert type(threshold) is float
        assert _bits(rho, threshold) == _bits(want_rho, want_threshold)


class TestDiscreteCertificates:
    @pytest.mark.parametrize("sampled", [False, True], ids=["constant", "sampled"])
    def test_both_models_measure_the_same_initial_data(self, sampled):
        hist, g, w, p = continuous_inputs(1e-3)
        if sampled:
            # velocities that grow toward t = 0 on the whole steps -1, 0
            hist = InitialHistory.from_samples([-1.0, 0.0], [FIG_X0 - FIG_V0, FIG_X0],
                                               [0.5 * FIG_V0, FIG_V0])
        cont = check_continuous(hist, g, w, p)
        disc = check_discrete(hist, g, w, p, h=0.05)
        assert disc.model == "discrete" and cont.model == "continuous"
        assert disc.measured_D0 == cont.measured_D0
        assert disc.measured_X0 == cont.measured_X0
        assert disc.measured_D0 == pytest.approx(14.0 * (1.0 if sampled else 1e-3), rel=1e-15)

    def test_pair_critical_guaranteed(self):
        # two agents, gamma=1, beta=1/2 is the critical regime;
        # spread 0.1 sits below the supremum 0.225 of the condition curve
        g = Digraph.complete(2)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        cert = check_discrete(pair_history([[0.0], [0.1]]), g, w,
                              DelayProfile.zero(), h=0.1)
        assert cert.regime == CRITICAL
        assert cert.guaranteed
        sup = condition_supremum(cert.measured_X0, w, cert.params)
        assert sup == pytest.approx(0.225, rel=1e-12)
        assert cert.measured_D0 < sup

    def test_pair_boundary_scale(self):
        g = Digraph.complete(2)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        cert = check_discrete(pair_history([[0.0], [0.225]]), g, w,
                              DelayProfile.zero(), h=0.1)
        # D(0) sits exactly on the supremum of the condition curve; the
        # non-strict comparison must still certify (either through a grid
        # point whose value rounds to the supremum or the limit fallback)
        assert cert.guaranteed
        assert cert.threshold == pytest.approx(0.225, rel=1e-12)

    def test_gate_violation_raises(self):
        g = Digraph.complete(2)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        with pytest.raises(StabilityGateError):
            check_discrete(pair_history([[0.0], [0.1]]), g, w,
                           DelayProfile.zero(), h=1.5)

    def test_threshold_improves_as_h_shrinks(self):
        g = Digraph.complete(2)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        sups = []
        for h in (0.4, 0.2, 0.1, 0.05):
            cert = check_discrete(pair_history([[0.0], [0.01]]), g, w,
                                  DelayProfile.zero(), h=h)
            sups.append(condition_supremum(cert.measured_X0, w, cert.params))
        assert all(a < b for a, b in zip(sups, sups[1:]))


class TestInitialData:
    """D(0) and X(0) are measured on the window [-tau, 0] of the delay
    bound, from the piecewise-linear history."""

    def test_window_is_the_delay_bound(self):
        # the history reaches back to -3, the delay only to -1: the
        # velocity gap of 10 and the position 5 at t = -3 lie outside
        times = [-3.0, -2.0, -1.0, 0.0]
        xs = [[[0.0], [5.0]]] + [[[0.0], [0.0]]] * 3
        vs = [[[0.0], [10.0]]] + [[[0.0], [1.0]]] * 3
        hist = InitialHistory.from_samples(times, xs, vs)
        g = Digraph.complete(2)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        p = DelayProfile.constant(1.0)
        for cert in (check_continuous(hist, g, w, p), check_discrete(hist, g, w, p, h=0.1)):
            assert cert.measured_D0 == 1.0
            assert cert.measured_X0 == 0.0

    def test_history_shorter_than_the_delay_is_refused(self):
        hist, g, w, _ = continuous_inputs(1e-3)
        p = DelayProfile.constant(2.0)
        with pytest.raises(IntegrationError, match="history covers only"):
            check_continuous(hist, g, w, p)
        with pytest.raises(IntegrationError, match="history covers only"):
            check_discrete(hist, g, w, p, h=0.05)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3),
           st.integers(2, 8), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_spreads_are_exact_at_the_breakpoints(self, seed, n, d, k, frac):
        rng = np.random.default_rng(seed)
        times = np.unique(np.append(-rng.uniform(0.05, 3.0, k - 1), 0.0))
        xs = rng.normal(scale=3.0, size=(len(times), n, d))
        vs = rng.normal(size=(len(times), n, d))
        hist = InitialHistory.from_samples(times, xs, vs)
        tau = frac * hist.tau
        arcs = rng.random((n, n)) < 0.5
        arcs[np.arange(1, n), np.arange(n - 1)] = True   # a path: a spanning tree
        np.fill_diagonal(arcs, False)
        g = matrix_digraph(arcs)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        p = DelayProfile.constant(tau) if tau > 0 else DelayProfile.zero()
        cert = check_continuous(hist, g, w, p)
        d0, x0 = history_spreads_reference(times, xs, vs, arcs, tau)
        assert cert.measured_D0 == d0
        assert cert.measured_X0 == x0
        # no time between the breakpoints reads a larger spread; the
        # dense interpolation may round a few ulps above its end values
        dense = np.linspace(-tau, 0.0, 1000)
        x_d = np.stack([[np.interp(dense, times, xs[:, i, c]) for c in range(d)]
                        for i in range(n)])              # (n, d, 1000)
        v_d = np.stack([[np.interp(dense, times, vs[:, i, c]) for c in range(d)]
                        for i in range(n)])
        dense_d0 = (v_d.max(axis=(0, 2)) - v_d.min(axis=(0, 2))).max()
        ei, ej = np.nonzero(arcs)
        dense_x0 = np.linalg.norm(x_d[ei, :, -1:] - x_d[ej], axis=1).max()
        assert cert.measured_D0 >= dense_d0 - 1e-12 * (1.0 + dense_d0)
        assert cert.measured_X0 >= dense_x0 - 1e-12 * (1.0 + dense_x0)


class TestDecayAndPositions:
    def run_certified(self, scale=0.5 * FIG2_SCALE, t_end=30.0):
        hist, g, w, p = continuous_inputs(scale)
        cert = check_continuous(hist, g, w, p)
        traj = integrate(hist, g, w, p, t_end=t_end, dt=0.01)
        series = diameters(traj, tau=1.0)
        return cert, traj, series

    def test_decay_bound_holds(self):
        cert, _, series = self.run_certified()
        rep = verify_decay(series, cert)
        assert rep
        assert rep.n_checked >= 5
        assert rep.empirical_rate <= rep.bound_rate + 1e-12

    def test_decay_requires_guarantee(self):
        hist, g, w, p = continuous_inputs(1.0)
        cert = check_continuous(hist, g, w, p)
        with pytest.raises(AnalysisError):
            verify_decay(None, cert)

    def test_position_bound_holds(self):
        cert, traj, _ = self.run_certified()
        rep = position_bound(traj, cert)
        assert rep
        assert rep.max_distance <= rep.bound

    def test_max_distance_in_bounded_blocks_of_rows(self):
        # 100 agents, 501 rows: all rows' pair differences at once would
        # take 491 * 4950 * 2 floats (39 MB), three arrays of that size
        rng = np.random.default_rng(3)
        xs = 10 * rng.normal(size=(501, 100, 2))
        traj = Trajectory(times=0.1 * np.arange(-10, 491), ys=state_table(xs, np.zeros_like(xs)),
                          dt=0.1, n_hist=10)
        hist, g, w, p = continuous_inputs(0.5 * FIG2_SCALE)
        cert = check_continuous(hist, g, w, p)
        tracemalloc.start()
        try:
            rep = position_bound(traj, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.max_distance == max_pair_distance_reference(xs[10:])
        assert peak < 2e6

    def test_delta_rounding_to_one_keeps_its_rate(self):
        # ten agents all-to-all with a constant weight: 1 - delta is
        # exp(-45) / 20, below half an ulp of 1, so delta rounds to 1.0
        # while the bounds read the gap from log_delta
        rng = np.random.default_rng(2)
        s = scenario_from_dict({"graph": {"n": 10, "complete": True},
                                "delay": {"type": "constant", "tau": 1.0},
                                "positions": rng.normal(size=(10, 2)).tolist(),
                                "velocities": rng.normal(size=(10, 2)).tolist(),
                                "velocity_scale": 1e-20, "t_end": 3.0, "dt": 0.05})
        rep = run(s)
        cert = rep.certificate
        assert cert.guaranteed and cert.delta == 1.0
        assert cert.log_delta == pytest.approx(-math.exp(-45) / 20, rel=1e-12)
        assert rep.decay and rep.decay.bound_rate == cert.log_delta / 3
        assert rep.positions_check and math.isfinite(rep.positions_check.bound)

    def test_fabricated_violation_detected(self):
        cert, _, series = self.run_certified()
        series.spread[:] = series.spread[0]  # stalled decay
        rep = verify_decay(series, cert)
        assert not rep
        assert rep.failures
