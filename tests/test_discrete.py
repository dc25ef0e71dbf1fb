import functools
import math

import numpy as np
import pytest

from delayflock import discrete
from delayflock.dde import InitialHistory, IntegrationError, blowup_guard, integrate
from delayflock.digraph import Digraph
from delayflock.discrete import (
    StabilityGateError,
    check_gate,
    discrete_diameters,
    simulate_discrete,
)
from delayflock.interaction import DelayProfile, WeightFunction

from oracles import (discrete_euler_reference, euler_reference, integer_delay,
                     matrix_digraph, random_rooted_arcs)

FIG_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4)]
FIG_X0 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
FIG_V0 = np.array([[1.0, -2.0], [3.0, -4.0], [5.0, 6.0], [-7.0, -8.0]])

EULER_DELAYS = {"constant": DelayProfile.constant(2.0), "zero": DelayProfile.zero(),
                "random": DelayProfile(kind="piecewise-random", tau_max=3.0, low=0, high=3,
                                       seed=8, hold=4.0, integer_valued=True)}
# every kind of weight the Euler step evaluates; kappa * h stays below 1 / n_infinity = 1/3
EULER_WEIGHTS = {
    "beta-0.4-kappa-1": WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.4),
    "beta-0": WeightFunction(kind="cucker-smale", kappa=1.3, beta=0.0),
    "beta-0.4": WeightFunction(kind="cucker-smale", kappa=1.3, beta=0.4),
    "beta-1": WeightFunction(kind="cucker-smale", kappa=1.3, beta=1.0),
    "normalized": WeightFunction(kind="cucker-smale", kappa=1.3, beta=0.4, normalize_by=30),
    "constant": WeightFunction(kind="constant", kappa=1.3),
    "tabulated": WeightFunction(kind="tabulated", kappa=2.0, table_r=[0.0, 0.5, 2.0, 6.0],
                                table_v=[2.0, 1.5, 0.5, 0.25])}


def const(x0, v0, p):
    """The constant history of (x0, v0), reaching back to p's longest delay."""
    return InitialHistory.constant(x0, v0, tau=p.tau_max)


def pair_setup(kappa=1.0, h=0.1):
    g = Digraph.complete(2)
    w = WeightFunction(kind="constant", kappa=kappa)
    return g, w, DelayProfile.zero(), h


class TestGate:
    def test_boundary_rejected(self):
        with pytest.raises(StabilityGateError):
            check_gate(kappa=1.0, h=1.0, n_infinity=1)
        with pytest.raises(StabilityGateError):
            check_gate(kappa=2.0, h=0.25, n_infinity=2)

    def test_below_boundary_accepted(self):
        check_gate(kappa=1.0, h=0.999, n_infinity=1)
        check_gate(kappa=1.0, h=0.05, n_infinity=3)

    def test_unsafe_override(self):
        check_gate(kappa=1.0, h=2.0, n_infinity=1, unsafe=True)

    def test_nonpositive_h(self):
        with pytest.raises(StabilityGateError):
            check_gate(kappa=1.0, h=0.0, n_infinity=1)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_h(self, h):
        with pytest.raises(StabilityGateError, match="positive and finite"):
            check_gate(kappa=1.0, h=h, n_infinity=1, unsafe=True)

    def test_simulate_enforces_gate(self):
        g, w, p, _ = pair_setup()
        with pytest.raises(StabilityGateError):
            simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                              t_end=5, h=1.5)
        simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                          t_end=5, h=1.5, unsafe_h=True)

    def test_unsafe_run_has_a_blow_up_guard(self):
        # the velocity gap gains a factor 1 - 2*kappa*h = -5 a step, so the
        # largest speed (1 + 5^k) / 2 passes the guard of 1e6 at step 10
        g, w, p, _ = pair_setup()
        hist = const([[0.0], [0.0]], [[0.0], [1.0]], p)
        simulate_discrete(hist, g, w, p, t_end=9, h=3.0, unsafe_h=True)
        with pytest.raises(IntegrationError, match="^solution blew up at t = 10$") as e:
            simulate_discrete(hist, g, w, p, t_end=20, h=3.0, unsafe_h=True)
        assert e.value.member == 0

    @pytest.mark.parametrize("arcs, kappa, v, t", [([(1, 0)], 1e300, [[0.0], [1e10]], 1),
                                                   ([(1, 0), (0, 1)], 1.0, [[1e308], [-1e308]], 1)])
    def test_inf_and_nan_velocities_fail_the_guard(self, arcs, kappa, v, t):
        # a weight of 1e300 on a speed gap of 1e10 takes agent 0 to inf in one
        # step; speeds of 1e308 against -1e308 put the limit past the largest
        # float, which it is clamped to, so the inf of their first step fails it
        # a history of one (d, N) velocity row; the guard gives no overflow warning of its own
        check = blowup_guard(np.array([v], dtype=float).transpose(0, 2, 1), 1)
        with pytest.raises(IntegrationError):
            check(np.array([[math.inf, 0.0]]), 1)
        g, p = Digraph.from_arc_list(2, arcs), DelayProfile.zero()
        w = WeightFunction(kind="constant", kappa=kappa)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match=f"^solution blew up at t = {t}$") as e:
                simulate_discrete(const([[0.0], [0.0]], v, p), g, w, p, t_end=10, h=0.1,
                                  unsafe_h=True)
        assert e.value.member == 0

class TestStep:
    def test_single_euler_update(self):
        g, w, p, h = pair_setup()
        traj = simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                                 t_end=1, h=h)
        assert np.allclose(traj.xs[-1], [[0.0], [0.1]])
        assert np.allclose(traj.vs[-1], [[0.1], [0.9]])
        assert traj.times.tolist() == [0.0, 1.0]

    def test_two_agent_geometric_decay(self):
        # the velocity difference contracts by (1 - 2*kappa*h) each step
        g, w, p, h = pair_setup(kappa=0.8, h=0.2)
        traj = simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                                 t_end=40, h=h)
        diff = traj.vs[:, 1, 0] - traj.vs[:, 0, 0]
        factor = 1.0 - 2 * 0.8 * 0.2
        for k in range(40):
            assert diff[k + 1] == pytest.approx(factor * diff[k], abs=1e-15)

    def test_buffered_history_lag(self):
        # with an integer delay of 1 the neighbor's previous snapshot is used
        g = Digraph.from_arc_list(2, [(2, 1)], one_based=True)  # 2 -> 1
        w = WeightFunction(kind="constant", kappa=1.0)
        p = DelayProfile.constant(1.0)
        hx = np.array([[[0.0], [5.0]], [[0.0], [6.0]]])
        hv = np.array([[[0.0], [2.0]], [[0.0], [3.0]]])
        hist = InitialHistory.from_samples([-1.0, 0.0], hx, hv)
        traj = simulate_discrete(hist, g, w, p, t_end=1, h=0.1)
        # agent 1 sees agent 2 one step back: v update 0 + 0.1*(2 - 0)
        assert np.allclose(traj.vs[-1, 0], [0.2])
        assert np.allclose(traj.vs[-1, 1], [3.0])

    def test_state_at_reads_between_steps_and_refuses_nan(self):
        # a sample-only run is linear between steps; NaN is no covered time
        g, w, p, h = pair_setup()
        traj = simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                                 t_end=2, h=h)
        x, v = traj.state_at(1.5)
        assert x.tolist() == (0.5 * (traj.xs[1] + traj.xs[2])).tolist()
        assert v.tolist() == (0.5 * (traj.vs[1] + traj.vs[2])).tolist()
        for t in (math.nan, -1e-9, 2.0 + 1e-9):
            with pytest.raises(IntegrationError, match="outside covered interval"):
                traj.state_at(t)


class TestScalarReference:
    """The edge-array recursion against plain per-edge loops.  The
    kernel's axis norm and vector power may differ from their scalar
    forms in the last bit, so the runs agree to a relative 1e-12; against
    the Euler loop on arrays (oracles.euler_reference), bit for bit."""

    def _compare(self, p, t_end=40):
        rng = np.random.default_rng(21)
        arcs = random_rooted_arcs(rng, 30, 3)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.4)
        x0 = rng.uniform(-3, 3, size=(30, 2))
        v0 = rng.uniform(-1, 1, size=(30, 2))
        traj = simulate_discrete(const(x0, v0, p), matrix_digraph(arcs), w, p, t_end=t_end,
                                 h=0.1)
        ref = discrete_euler_reference(
            arcs, x0, v0, lambda r: (1.0 + r * r) ** -0.4,
            functools.partial(integer_delay, p), 0.1, t_end)
        got = traj.vs[traj.n_hist:]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_constant_delay(self):
        self._compare(DelayProfile.constant(2.0))

    def test_zero_delay(self):
        self._compare(DelayProfile.zero())

    def test_random_delay_across_hold_intervals(self):
        self._compare(DelayProfile(kind="piecewise-random", tau_max=3.0,
                                   low=0, high=3, seed=8, hold=4.0,
                                   integer_valued=True))

    @pytest.mark.parametrize("p, w", [
        pytest.param(p, w, id=name if wname == "beta-0.4-kappa-1" else f"{name}-{wname}")
        for name, p in EULER_DELAYS.items() for wname, w in EULER_WEIGHTS.items()])
    def test_one_state_array_matches_separate_tables_bit_for_bit(self, p, w):
        # the (x, v) rows of one array, one difference per arc and h times the
        # slope (v, dv) give the Euler loop on separate tables, bit for bit; the
        # step evaluates psi by interaction.batch_weight, as the RK4 stages do, and
        # the reference by WeightFunction.__call__: beta 1 takes numpy's reciprocal,
        # beta 0 and a constant weight a power of -0.0, a tabulated weight its own call
        rng = np.random.default_rng(3)
        g = matrix_digraph(random_rooted_arcs(rng, 30, 3))
        tau = p.integer_tau_max
        hist = InitialHistory.from_samples(np.arange(-tau - 1.0, 1.0),
                                           rng.uniform(-3, 3, size=(tau + 2, 30, 2)),
                                           rng.uniform(-1, 1, size=(tau + 2, 30, 2)))
        traj = simulate_discrete(hist, g, w, p, t_end=40, h=0.1)
        xs, vs = euler_reference(hist, g, w, p, 40, 0.1)
        assert traj.xs.tobytes() == xs.tobytes() and traj.vs.tobytes() == vs.tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8, 9])
    @pytest.mark.parametrize("p", [
        DelayProfile.constant(2.0),
        DelayProfile(kind="piecewise-random", tau_max=3.0, low=0, high=3, seed=8, hold=4.0,
                     integer_valued=True)], ids=["shared-lag", "per-arc-lags"])
    def test_component_rows_match_separate_tables_in_any_dimension(self, p, d):
        # a shared lag gathers its arcs from one row of the component-major table, per-arc
        # lags flat elements of several; from 8 dimensions on, the distances take numpy's
        # pairwise reduction
        rng = np.random.default_rng(d)
        g = matrix_digraph(random_rooted_arcs(rng, 20, 3))
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.4)
        tau = p.integer_tau_max
        hist = InitialHistory.from_samples(np.arange(-tau - 1.0, 1.0),
                                           rng.uniform(-3, 3, size=(tau + 2, 20, d)),
                                           rng.uniform(-1, 1, size=(tau + 2, 20, d)))
        traj = simulate_discrete(hist, g, w, p, t_end=30, h=0.1)
        xs, vs = euler_reference(hist, g, w, p, 30, 0.1)
        assert traj.xs.shape == xs.shape == (tau + 31, 20, d)
        assert traj.xs.tobytes() == xs.tobytes() and traj.vs.tobytes() == vs.tobytes()

    def test_simulate_runs_no_graph_search(self, monkeypatch):
        def forbidden(g):
            raise AssertionError("simulate_discrete() must not search the graph")

        monkeypatch.setattr(discrete, "compute_metrics", forbidden)
        g, w, p, h = pair_setup()
        traj = simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                                 t_end=3, h=h)
        assert traj.vs.shape == (4, 2, 1)
        with pytest.raises(StabilityGateError):    # kappa*h above 1/n_infinity
            simulate_discrete(const([[0.0], [0.0]], [[0.0], [1.0]], p), g, w, p,
                              t_end=3, h=1.5)


class TestSimulate:
    def test_window_extrema_monotone(self):
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        p = DelayProfile.constant(1.0)
        traj = simulate_discrete(const(FIG_X0, 0.01 * FIG_V0, p), g, w, p,
                                 t_end=400, h=0.05)
        series = discrete_diameters(traj, tau=1)
        assert np.all(np.diff(series.vbar, axis=0) <= 1e-12)
        assert np.all(np.diff(series.vund, axis=0) >= -1e-12)
        assert np.all(np.diff(series.spread) <= 1e-12)

    def test_convex_containment(self):
        # under the step-size gate each new velocity is a convex mix of
        # window velocities, so the global bounds can never expand
        rng = np.random.default_rng(11)
        g = Digraph.complete(3)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        p = DelayProfile(kind="piecewise-random", tau_max=2.0, low=0, high=2,
                         seed=5, hold=1.0, integer_valued=True)
        x0 = rng.normal(size=(3, 2))
        v0 = rng.normal(size=(3, 2))
        traj = simulate_discrete(const(x0, v0, p), g, w, p, t_end=200, h=0.1)
        for k in range(2):
            assert traj.vs[:, :, k].max() <= v0[:, k].max() + 1e-12
            assert traj.vs[:, :, k].min() >= v0[:, k].min() - 1e-12

    def test_converges_to_continuous(self):
        # first-order stepping: halving h roughly halves the error
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        x0, v0 = FIG_X0, 0.1 * FIG_V0
        hist = InitialHistory.constant(x0, v0, tau=0.0)
        ref = integrate(hist, g, w, DelayProfile.zero(), t_end=2.0, dt=5e-4)
        vref = ref.state_at(2.0)[1]
        errs = []
        for h in (0.02, 0.01):
            traj = simulate_discrete(hist, g, w, DelayProfile.zero(),
                                     t_end=int(round(2.0 / h)), h=h)
            errs.append(np.abs(traj.vs[-1] - vref).max())
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.15)

    def test_zero_steps(self):
        g, w, p, h = pair_setup()
        hist = const([[0.0], [1.0]], [[0.0], [1.0]], p)
        traj = simulate_discrete(hist, g, w, p, t_end=0, h=h)
        assert traj.vs.shape[0] == 1
        with pytest.raises(ValueError):
            simulate_discrete(hist, g, w, p, t_end=-1, h=h)

    def test_sampled_history_fills_the_rows_at_whole_steps(self):
        rng = np.random.default_rng(5)
        g = Digraph.complete(3)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        p = DelayProfile.constant(3.0)
        hx, hv = rng.normal(size=(2, 6, 3, 2))     # steps -5 .. 0, more than tau
        hist = InitialHistory.from_samples(np.arange(-5.0, 1.0), hx, hv)
        traj = simulate_discrete(hist, g, w, p, t_end=4, h=0.1)
        assert traj.times.tolist() == list(range(-3, 5))
        assert traj.xs[:4].tobytes() == hx[2:].tobytes()
        assert traj.vs[:4].tobytes() == hv[2:].tobytes()
        # the first step hears every neighbour's state of step -3
        x, v = hx[-1], hv[-1]
        for i in range(3):
            dv = sum(w(float(np.linalg.norm(hx[2, j] - x[i]))) * (hv[2, j] - v[i])
                     for j in range(3) if j != i)
            assert traj.vs[4, i] == pytest.approx(v[i] + 0.1 * dv, rel=1e-12)
            assert traj.xs[4, i].tolist() == (x[i] + 0.1 * v[i]).tolist()

    def test_history_must_reach_the_longest_delay(self):
        g, w, _, h = pair_setup()
        p = DelayProfile.constant(2.0)
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=1.0)
        with pytest.raises(IntegrationError, match="covers only"):
            simulate_discrete(hist, g, w, p, t_end=3, h=h)
        simulate_discrete(const([[0.0], [1.0]], [[0.0], [1.0]], p), g, w, p, t_end=3, h=h)

    @pytest.mark.parametrize("tau", [0, 1, 3])
    def test_discrete_diameters_are_trailing_window_extrema(self, tau):
        rng = np.random.default_rng(tau)
        g = Digraph.complete(5)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        p = DelayProfile.constant(float(tau)) if tau else DelayProfile.zero()
        traj = simulate_discrete(const(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), p),
                                 g, w, p, t_end=12, h=0.1)
        series = discrete_diameters(traj, tau)
        for q in range(13):
            window = traj.vs[q: q + tau + 1]      # steps q - tau .. q
            assert series.vbar[q].tolist() == window.max(axis=(0, 1)).tolist()
            assert series.vund[q].tolist() == window.min(axis=(0, 1)).tolist()
        assert series.spread.tolist() == series.spread_k.max(axis=1).tolist()
        assert series.times.tolist() == list(range(13))

    def test_discrete_diameter_requires_discrete(self):
        g, w, _, _ = pair_setup()
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=0.0)
        traj = integrate(hist, g, w, DelayProfile.zero(), t_end=1.0, dt=0.1)
        with pytest.raises(ValueError):
            discrete_diameters(traj, tau=0)
