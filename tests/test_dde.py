import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflock import dde
from delayflock.analysis import initial_spreads
from delayflock.dde import (
    BLOWUP_FACTOR,
    InitialHistory,
    IntegrationError,
    Trajectory,
    check_monotone_diameter,
    diameters,
    _stage_plan,
    blowup_guard,
    edge_forces,
    integrate,
    receiver_bins,
)
from delayflock.digraph import Digraph
from delayflock.discrete import discrete_diameters, simulate_discrete
from delayflock.interaction import DelayProfile, WeightFunction

from oracles import (
    _hermite_gather,
    diameters_reference,
    edge_forces_reference,
    hermite_reference,
    matrix_digraph,
    random_rooted_arcs,
    rk4_reference,
    segment_extrema_reference,
    trailing_extreme_reference,
    two_agent_delayed_difference,
    two_agent_ode_difference,
)

FIG_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4)]
FIG_X0 = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
FIG_V0 = np.array([[1.0, -2.0], [3.0, -4.0], [5.0, 6.0], [-7.0, -8.0]])
# dips a hair below 0 where sin = -1, at t = 0.3 + 0.4 k, which the
# stage times of dt = 0.02 hit: the delay clips to exactly 0 there
CLIPPING_SINUSOID = DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.3,
                                 amplitude=0.3 + 1e-13, period=0.4)


def component_major(rows):
    """(E, 2, d) arc rows (x, v) as the (2, d, E) table edge_forces reads."""
    return np.ascontiguousarray(np.moveaxis(rows, 0, -1))


# the ROADMAP accuracy table's delays on fig3-digraph's data: (delay, the least order of
# each halving of dt, the least order over both halvings)
ORDER_CASES = {
    "constant-whole-steps": (DelayProfile.constant(1.0), 3.7, 3.7),
    "constant-off-grid": (DelayProfile.constant(0.37, tau_max=1.0), 1.7, 1.7),
    "sinusoidal": (DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.3, amplitude=0.25,
                                period=1.3), 0.0, 1.5),
    "random-hold-100": (DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0, seed=0,
                                     hold=100.0), 0.0, 2.0),
    "random-hold-0.5": (DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.1, high=0.9,
                                     seed=0, hold=0.5), 0.8, 0.8),
    "random-integer-hold-0.5": (DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0,
                                             seed=0, hold=0.5, integer_valued=True), 0.8, 0.8),
}


def fig_setup(scale=1.0, beta=0.25, tau=1.0):
    g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
    w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=beta)
    p = DelayProfile.constant(tau) if tau > 0 else DelayProfile.zero()
    hist = InitialHistory.constant(FIG_X0, scale * FIG_V0, tau=tau)
    return g, w, p, hist


class TestRhs:
    """The right-hand side: edge_forces, and the delayed lookups of the
    RK4 stages in integrate."""

    def test_single_agent_is_inert(self):
        g = Digraph.from_arc_list(1, [])
        w = WeightFunction(kind="constant", kappa=1.0)
        none, dv = np.zeros((2, 2, 0)), np.zeros((2, 1))
        edge_forces(none, none, receiver_bins(np.zeros(0, dtype=int), 1, 2), w, dv)
        assert np.array_equal(dv, [[0.0], [0.0]])
        hist = InitialHistory.constant([[1.0, 2.0]], [[3.0, 4.0]], tau=0.0)
        traj = integrate(hist, g, w, DelayProfile.zero(), t_end=1.0, dt=0.1)
        assert np.array_equal(traj.dvs, np.zeros_like(traj.dvs))
        assert (traj.vs == [3.0, 4.0]).all()
        assert np.allclose(traj.state_at(1.0)[0], [[4.0, 6.0]], rtol=0, atol=1e-14)

    def test_identical_velocities_give_zero(self):
        g = Digraph.complete(3)
        w = WeightFunction(kind="cucker-smale", kappa=2.0, beta=0.5)
        y = np.array([[[0.0, 1.0, 5.0]], [[2.0, 2.0, 2.0]]])   # x row, then v row
        ei, ej = g.arc_list
        dv = np.zeros((1, 3))
        edge_forces(y[..., ei], y[..., ej], receiver_bins(ei, 3, 1), w, dv)
        assert np.array_equal(dv, np.zeros((1, 3)))

    def test_two_agents_unit_weight(self):
        # coupled pair, kappa = 1 at any distance: dv_i = v_j - v_i, so the
        # velocity gap changes at the closed form's rate at t = 0
        g = Digraph.complete(2)
        w = WeightFunction(kind="constant", kappa=1.0)
        y = np.array([[[0.0, 1.0]], [[0.0, 1.0]]])
        ei, ej = g.arc_list
        dv = np.zeros((1, 2))
        edge_forces(y[..., ei], y[..., ej], receiver_bins(ei, 2, 1), w, dv)
        assert np.array_equal(dv, [[1.0, -1.0]])
        eps = 1e-6
        rate = (two_agent_ode_difference(eps, 1.0, 1.0)
                - two_agent_ode_difference(-eps, 1.0, 1.0)) / (2 * eps)
        assert dv[0, 1] - dv[0, 0] == pytest.approx(rate, rel=1e-9)

    def test_delayed_lookup_used(self):
        # the force on receiver 0 uses the sender's delayed row ...
        w = WeightFunction(kind="constant", kappa=1.0)
        dv = np.zeros((1, 2))
        edge_forces(np.array([[[0.0]], [[1.0]]]), np.array([[[9.0]], [[4.0]]]),
                    receiver_bins(np.array([0]), 2, 1), w, dv)
        assert np.array_equal(dv, [[3.0, 0.0]])
        # ... which integrate looks up tau back: until t = tau each agent
        # of the pair hears the other's constant history
        w = WeightFunction(kind="constant", kappa=0.7)
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=0.5)
        traj = integrate(hist, Digraph.complete(2), w, DelayProfile.constant(0.5),
                         t_end=0.5, dt=1e-3)
        for t in (0.1, 0.3, 0.5):
            v = traj.state_at(t)[1]
            want = two_agent_delayed_difference(t, 0.7, 1.0)
            assert float(v[1, 0] - v[0, 0]) == pytest.approx(want, abs=1e-10)
        # an undelayed pair would be far off by then
        assert abs(want - two_agent_ode_difference(0.5, 0.7, 1.0)) > 0.05

    @pytest.mark.parametrize("d", [1, 2, 3, 11])
    def test_kernel_matches_the_separate_rows_bit_for_bit(self, d):
        # one (x, v) difference per arc on the component rows, and the sum written
        # into the velocity rows of the slope, give the separate rows' forces, bit for bit
        rng = np.random.default_rng(d)
        g = matrix_digraph(random_rooted_arcs(rng, 30, 4))
        ei, ej = g.arc_list
        own, delayed = rng.normal(size=(2, len(ei), 2, d)) * [[[[1.0]]], [[[3.0]]]]
        w = WeightFunction(kind="cucker-smale", kappa=1.3, beta=0.3)
        slope = np.zeros((2, d, 30))
        edge_forces(component_major(own), component_major(delayed), receiver_bins(ei, 30, d),
                    w, slope[1])
        want = edge_forces_reference(own[:, 0], delayed[:, 0], own[:, 1], delayed[:, 1],
                                     ei, w, 30)
        assert slope[1].T.tobytes() == want.tobytes()
        assert not slope[0].any()

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9])
    @pytest.mark.parametrize("n_arcs", [4, 1000, 40_000])
    def test_kernel_matches_add_at_on_any_terms(self, n_arcs, d):
        # the scatter adds each receiver's terms to 0.0 in arc order, as np.add.at into
        # zeros, and the norms sum d < 8 squares left to right, as np.add.reduce does;
        # arcs in any order, -0.0, +-inf and nan among the terms, and receivers (the
        # last two) without in-arcs
        rng = np.random.default_rng(10 * n_arcs + d)
        n = max(4, n_arcs // 5)
        ei = rng.permutation(np.arange(n_arcs) % (n - 2))
        own, delayed = rng.normal(size=(2, n_arcs, 2, d)) * 10.0 ** rng.integers(-3, 4, d)
        quiet = ei < (n - 2) // 2   # these receivers' terms are all -0.0
        own[quiet, 1], delayed[quiet, 1] = 0.0, -0.0
        for value in (np.inf, -np.inf, np.nan):   # in velocities and positions
            delayed[rng.choice(np.flatnonzero(~quiet), 1 + n_arcs // 100),
                    rng.integers(0, 2), rng.integers(0, d)] = value
        w = WeightFunction(kind="cucker-smale", kappa=1.3, beta=0.3)
        got = np.full((2, d, n), 7.0)
        with np.errstate(invalid="ignore"):   # inf - inf and 0 * inf give nan, as intended
            edge_forces(component_major(own), component_major(delayed),
                        receiver_bins(ei, n, d), w, got[1])
            want = edge_forces_reference(own[:, 0], delayed[:, 0], own[:, 1], delayed[:, 1],
                                         ei, w, n)
        # bit for bit but for the sign of a nan: np.add.at itself takes either of two nans
        # of opposite sign, by the shape of its operands
        nan, dv = np.isnan(want), got[1].T
        assert (np.isnan(dv) == nan).all() and nan.any()
        assert dv[~nan].tobytes() == want[~nan].tobytes()
        assert (got[0] == 7.0).all()
        assert np.zeros(((n - 2) // 2 + 2, d)).tobytes() == np.concatenate(
            (want[: (n - 2) // 2], want[-2:])).tobytes()   # +0.0, not -0.0

    def test_kernel_squares_positions_only(self):
        # a velocity gap of 1e200 squares past the largest float; only the position
        # gap is squared, so no overflow warning (an error in this suite) is raised
        w = WeightFunction(kind="constant", kappa=1.0)
        dv = np.zeros((1, 2))
        edge_forces(np.array([[[0.0]], [[0.0]]]), np.array([[[3.0]], [[1e200]]]),
                    receiver_bins(np.array([0]), 2, 1), w, dv)
        assert dv.tolist() == [[1e200, 0.0]]


class TestIntegrate:
    def test_two_agent_closed_form(self):
        g = Digraph.complete(2)
        w = WeightFunction(kind="constant", kappa=0.7)
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=0.0)
        traj = integrate(hist, g, w, DelayProfile.zero(), t_end=1.0, dt=1e-3)
        x, v = traj.state_at(1.0)
        got = float(v[1, 0] - v[0, 0])
        want = two_agent_ode_difference(1.0, 0.7, 1.0)
        assert got == pytest.approx(want, abs=1e-10)

    def test_identical_velocities_stay_constant(self):
        g, w, p, _ = fig_setup()
        hist = InitialHistory.constant(FIG_X0, np.ones((4, 2)), tau=1.0)
        traj = integrate(hist, g, w, p, t_end=3.0, dt=0.02)
        assert np.allclose(traj.vs, 1.0, atol=1e-13)
        x, _ = traj.state_at(3.0)
        assert np.allclose(x, FIG_X0 + 3.0, atol=1e-10)

    def test_velocities_stay_in_initial_box(self):
        g, w, p, hist = fig_setup(scale=0.01)
        traj = integrate(hist, g, w, p, t_end=10.0, dt=0.01)
        for k in range(2):
            lo = 0.01 * FIG_V0[:, k].min()
            hi = 0.01 * FIG_V0[:, k].max()
            span = hi - lo
            assert traj.vs[:, :, k].min() >= lo - 1e-9 * span
            assert traj.vs[:, :, k].max() <= hi + 1e-9 * span

    def test_boost_invariance_constant_weight(self):
        # constant weights: adding a fixed velocity offset shifts every
        # velocity sample by exactly that offset, delays included
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="constant", kappa=0.5)
        p = DelayProfile.constant(1.0)
        c = np.array([2.0, -3.0])
        h1 = InitialHistory.constant(FIG_X0, 0.1 * FIG_V0, tau=1.0)
        h2 = InitialHistory.constant(FIG_X0, 0.1 * FIG_V0 + c, tau=1.0)
        t1 = integrate(h1, g, w, p, t_end=5.0, dt=0.02)
        t2 = integrate(h2, g, w, p, t_end=5.0, dt=0.02)
        assert np.allclose(t2.vs - t1.vs, c, atol=1e-10)

    def test_boost_invariance_zero_delay(self):
        # zero delay: position differences are unaffected by a boost, so
        # the algebraic weight sees identical arguments
        g, w, _, _ = fig_setup(tau=0.0)
        p = DelayProfile.zero()
        c = np.array([5.0, 1.0])
        h1 = InitialHistory.constant(FIG_X0, 0.1 * FIG_V0, tau=0.0)
        h2 = InitialHistory.constant(FIG_X0, 0.1 * FIG_V0 + c, tau=0.0)
        t1 = integrate(h1, g, w, p, t_end=5.0, dt=0.02)
        t2 = integrate(h2, g, w, p, t_end=5.0, dt=0.02)
        assert np.allclose(t2.vs - t1.vs, c, atol=1e-10)

    def test_bad_arguments(self):
        g, w, p, hist = fig_setup()
        with pytest.raises(IntegrationError):
            integrate(hist, g, w, p, t_end=1.0, dt=0.0)
        with pytest.raises(IntegrationError):
            integrate(hist, g, w, p, t_end=-1.0)
        with pytest.raises(IntegrationError):
            integrate(hist, Digraph.complete(3), w, p, t_end=1.0)

    def test_delay_far_below_the_step_gets_a_history_step(self):
        # 1e-15 is below the 1e-12 * dt slack of the history length, yet
        # its stages still look up the past: they must read the history,
        # as a delay of 1e-12 (one history step either way) does
        g = Digraph.complete(2)
        w = WeightFunction(kind="constant", kappa=1.0)
        gaps = []
        for tau in (1e-15, 1e-12):
            hist = InitialHistory.constant([[0.0], [0.0]], [[0.0], [1.0]], tau=tau)
            traj = integrate(hist, g, w, DelayProfile.constant(tau), t_end=1.0, dt=0.01)
            assert traj.n_hist == 1
            gaps.append(float(traj.vs[-1, 1, 0] - traj.vs[-1, 0, 0]))
        assert gaps[0] == pytest.approx(gaps[1], rel=1e-9)

    def test_convergence_order(self):
        # classical 4th-order step: halving dt shrinks the error ~16x
        g, w, p, hist = fig_setup(scale=0.1)
        ref = integrate(hist, g, w, p, t_end=2.0, dt=0.0005)
        vref = ref.state_at(2.0)[1]
        errs = []
        for dt in (0.04, 0.02):
            traj = integrate(hist, g, w, p, t_end=2.0, dt=dt)
            errs.append(np.abs(traj.state_at(2.0)[1] - vref).max())
        assert errs[0] / errs[1] > 12.0

    @pytest.mark.parametrize("case", list(ORDER_CASES))
    def test_convergence_order_by_delay_kind(self, case):
        # the orders integrate reaches today, one delay kind a case, with a margin: each
        # halving of dt from 0.025 to 0.00625 divides the largest |v| error at t = 2,
        # against one run at dt = 0.00078125, by at least 2 ** each, and both halvings
        # together by 4 ** overall.  Observed: 4.0 and 4.0 on a whole number of steps;
        # 1.95 and 1.98 off the grid, where the slope jump at t = 0 comes back at
        # t = tau, 2 tau, ...; 0.27 then 3.7 for the sinusoid and 0.22 then 5.3 for
        # random delays held past the run's end (1.98 and 2.75 over both); 1.04 then
        # 1.10 for random delays held 0.5, float or integer, whose jumps the steps
        # ending on a hold boundary read a stage early
        p, each, overall = ORDER_CASES[case]
        g, w, _, hist = fig_setup()
        vref = integrate(hist, g, w, p, t_end=2.0, dt=0.00078125).state_at(2.0)[1]
        errs = np.array([np.abs(integrate(hist, g, w, p, t_end=2.0, dt=dt).state_at(2.0)[1]
                                - vref).max() for dt in (0.025, 0.0125, 0.00625)])
        orders = np.log2(errs[:-1] / errs[1:])
        assert orders.min() > each and orders.mean() > overall, orders


class TestBatch:
    """Members integrated as one block-diagonal system match lone runs."""

    @staticmethod
    def members():
        rng = np.random.default_rng(11)
        times = np.linspace(-1.0, 0.0, 11)
        sampled = InitialHistory.from_samples(
            times, FIG_X0 + rng.normal(size=(11, 4, 2)), rng.normal(size=(11, 4, 2)))
        hists = [InitialHistory.constant(FIG_X0, s * FIG_V0, tau=1.0)
                 for s in (0.01, 1.0, 3.0)] + [sampled]
        ws = [WeightFunction(kind="cucker-smale", kappa=1.0, beta=b)
              for b in (1.0, 1.0, 0.25, 17 / 32)]
        return hists, ws

    @staticmethod
    def mixed_weights():
        """Members whose weights take every branch of the batch weight: betas
        0, 1 (a reciprocal), 0.25 and 17/32, a constant, a normalized and a
        tabulated weight."""
        hists, _ = TestBatch.members()
        ws = [WeightFunction(kind="cucker-smale", kappa=1.3, beta=b)
              for b in (0.0, 1.0, 0.25, 17 / 32)]
        ws += [WeightFunction(kind="constant", kappa=0.7),
               WeightFunction(kind="cucker-smale", kappa=2.0, beta=1.0, normalize_by=4),
               WeightFunction(kind="tabulated", kappa=1.0, table_r=np.array([0.0, 1.0, 5.0]),
                              table_v=np.array([1.0, 0.8, 0.1]))]
        return [hists[k % len(hists)] for k in range(len(ws))], ws

    @pytest.mark.parametrize("p", [
        DelayProfile.constant(1.0),
        DelayProfile.constant(0.013, tau_max=1.0),
        DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=0.4,
                     period=0.7),
        DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.0, high=1.0,
                     seed=3, hold=0.3),
        DelayProfile.zero(),
        CLIPPING_SINUSOID])
    def test_members_match_lone_runs_bit_for_bit(self, p):
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        for hists, ws in (self.members(), self.mixed_weights()):
            batch = integrate(hists, g, ws, p, t_end=2.0, dt=0.02)
            assert len(batch) == len(hists)
            for h, w, got in zip(hists, ws, batch):
                want = integrate(h, g, w, p, t_end=2.0, dt=0.02)
                for name in ("times", "xs", "vs", "dvs", "dxs", "hist_end_slope",
                             "hist_end_xslope"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.n_hist == want.n_hist
                for t in (-0.51, -0.005, 0.0, 1.234, 2.0):
                    for a, b in zip(got.state_at(t), want.state_at(t)):
                        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("d", [1, 3, 8, 9])
    @pytest.mark.parametrize("p", [
        DelayProfile.constant(0.3, tau_max=0.5),
        DelayProfile(kind="piecewise-random", tau_max=0.5, high=0.5, seed=6, hold=0.3)],
        ids=["shared-constant", "per-arc-random"])
    def test_members_match_the_reference_in_any_dimension(self, p, d):
        # three members of d-dimensional agents, their rows one column each in the
        # component-major tables, against the allocating step on (M, N, 2, d) tables;
        # from 8 dimensions on, the distances take numpy's pairwise reduction
        rng = np.random.default_rng(d)
        g = matrix_digraph(random_rooted_arcs(rng, 7, 3))
        times = np.linspace(-0.5, 0.0, 6)
        hists = [InitialHistory.constant(3 * rng.normal(size=(7, d)), rng.normal(size=(7, d)),
                                         tau=0.5) for _ in range(2)]
        hists.append(InitialHistory.from_samples(times, 3 * rng.normal(size=(6, 7, d)),
                                                 rng.normal(size=(6, 7, d))))
        ws = [WeightFunction(kind="cucker-smale", kappa=1.0, beta=b) for b in (0.25, 1.0, 0.6)]
        batch = integrate(hists, g, ws, p, t_end=1.0, dt=0.05)
        for h, w, got in zip(hists, ws, batch):
            ys, dys, hist_end = rk4_reference(h, g, w, p, 1.0, 0.05)
            for name, want in (("xs", ys[:, :, 0]), ("vs", ys[:, :, 1]),
                               ("dxs", dys[:, :, 0]), ("dvs", dys[:, :, 1]),
                               ("hist_end_xslope", hist_end[:, 0]),
                               ("hist_end_slope", hist_end[:, 1])):
                assert getattr(got, name).shape == want.shape, name
                assert getattr(got, name).tobytes() == want.tobytes(), name

    def test_one_weight_serves_every_member(self):
        g, w, p, _ = fig_setup()
        hists, _ = self.members()
        batch = integrate(hists, g, w, p, t_end=1.0, dt=0.05)
        for h, got in zip(hists, batch):
            want = integrate(h, g, w, p, t_end=1.0, dt=0.05)
            assert got.vs.tobytes() == want.vs.tobytes()

    def test_blow_up_guard_is_per_member(self):
        # RK4 at 2*kappa*dt = 4 multiplies the velocity gap by 5 a step:
        # the small member passes its guard of 1e6 within 14 steps, far
        # below the 1e10 guard of its large-velocity batch-mate
        g = Digraph.complete(2)
        p = DelayProfile.zero()
        small = InitialHistory.constant([[0.0], [1.0]], [[0.0], [0.02]], tau=0.0)
        large = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1e4]], tau=0.0)
        unstable = WeightFunction(kind="constant", kappa=20.0)
        stable = WeightFunction(kind="constant", kappa=0.01)
        with pytest.raises(IntegrationError) as lone:
            integrate(small, g, unstable, p, t_end=1.4, dt=0.1)
        integrate([large], g, [stable], p, t_end=1.4, dt=0.1)
        for hists, ws in (([small, large], [unstable, stable]),
                          ([large, small], [stable, unstable])):
            with pytest.raises(IntegrationError) as batch:
                integrate(hists, g, ws, p, t_end=1.4, dt=0.1)
            assert str(batch.value) == str(lone.value)

    def test_guard_checks_members_past_the_smallest_limit(self):
        # the large member's speeds, near 1e7, are past the small member's limit
        # of 1e6 at every step but far within their own of 1e13: the guard checks
        # member by member and lets the batch run to the end
        g = Digraph.complete(2)
        p = DelayProfile.zero()
        small = InitialHistory.constant([[0.0], [1.0]], [[0.0], [0.02]], tau=0.0)
        large = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1e7]], tau=0.0)
        w = WeightFunction(kind="constant", kappa=0.01)
        batch = integrate([small, large], g, w, p, t_end=1.4, dt=0.1)
        assert np.abs(batch[1].vs[1:]).max(axis=(1, 2)).min() > BLOWUP_FACTOR
        for h, got in zip((small, large), batch):
            assert got.vs.tobytes() == integrate(h, g, w, p, t_end=1.4, dt=0.1).vs.tobytes()

    @pytest.mark.parametrize("bad", [0, 1, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_guard_names_a_member_with_a_nan_or_inf(self, bad, value):
        history = np.ones((3, 2, 12))    # K = 3 rows of d = 2, three members of four agents
        check = blowup_guard(history, 3)
        v = np.ones((2, 12))
        check(v, 0.5)
        v[1, 4 * bad + 2] = value
        with pytest.raises(IntegrationError, match=r"^solution blew up at t = 0\.5$") as e:
            check(v, 0.5)
        assert e.value.member == bad

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_inf_and_nan_velocities_name_their_member(self, bad):
        # a weight of 1e300 overflows within the first step, and inf - inf leaves
        # nan; speeds of 1e308 against -1e308 give an infinite limit, which only
        # nan fails
        g = Digraph.complete(2)
        p = DelayProfile.zero()
        calm = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=0.0)
        w = WeightFunction(kind="constant", kappa=0.1)
        for h, wb, t in ((calm, WeightFunction(kind="constant", kappa=1e300), "0.1"),
                         (InitialHistory.constant([[0.0], [1.0]], [[1e308], [-1e308]],
                                                  tau=0.0), w, None)):
            hists, ws = [calm] * 3, [w] * 3
            hists[bad], ws[bad] = h, wb
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(IntegrationError) as lone:
                    integrate(h, g, wb, p, t_end=1.0, dt=0.1)
                with pytest.raises(IntegrationError) as batch:
                    integrate(hists, g, ws, p, t_end=1.0, dt=0.1)
            assert t is None or str(lone.value) == f"solution blew up at t = {t}"
            assert str(batch.value) == str(lone.value) and batch.value.member == bad

    def test_random_delays_are_drawn_once_per_batch(self, monkeypatch):
        g = Digraph.complete(4)
        p = DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.0, high=1.0,
                         seed=5, hold=1.0)
        hists, _ = self.members()
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        draws = []                           # one entry per arc drawn
        held = DelayProfile._held_draws

        def counted(self, ei, ej, t, k):
            draws.extend([t] * len(ei))
            return held(self, ei, ej, t, k)

        monkeypatch.setattr(DelayProfile, "_held_draws", counted)
        integrate(hists[0], g, w, p, t_end=4.0, dt=0.05)
        lone = len(draws)
        integrate(hists + hists[:1], g, w, p, t_end=4.0, dt=0.05)
        assert lone == 12 * 5                # 12 arcs, hold intervals 0..4
        assert len(draws) == 2 * lone

    def test_history_must_cover_the_delays(self):
        g, w, p, hist = fig_setup()
        short = InitialHistory.constant(FIG_X0, FIG_V0, tau=0.5)
        with pytest.raises(IntegrationError, match="history covers only"):
            integrate(short, g, w, p, t_end=1.0)
        with pytest.raises(IntegrationError, match="history covers only"):
            integrate([hist, short], g, w, p, t_end=1.0)

    def test_member_shapes_and_weight_count(self):
        g, w, p, hist = fig_setup()
        three = InitialHistory.constant(FIG_X0[:3], FIG_V0[:3], tau=1.0)
        with pytest.raises(IntegrationError):
            integrate([hist, three], g, w, p, t_end=1.0)
        with pytest.raises(IntegrationError):
            integrate([hist, hist], g, [w], p, t_end=1.0)


class TestHermiteGather:
    @pytest.mark.parametrize("sampled", [False, True])
    def test_state_at_matches_per_lookup_reference(self, sampled):
        g, w, p, hist = fig_setup(scale=0.3)
        if sampled:
            rng = np.random.default_rng(4)
            hist = InitialHistory.from_samples(
                np.linspace(-1.0, 0.0, 6), FIG_X0 + rng.normal(size=(6, 4, 2)),
                rng.normal(size=(6, 4, 2)))
        traj = integrate([hist], g, [w], p, t_end=1.0, dt=0.05)[0]
        hi = len(traj.times) - 1
        # grid points, the segment ending at n_hist (where the slope
        # jumps), t = 0 itself, interior times and the last grid time
        ts = [-1.0, -0.37, -0.05, -0.01, -1e-9, 0.0, 1e-9, 0.02, 0.05,
              0.512, 0.95, 0.99, 1.0]
        for t in ts:
            x, v = traj.state_at(t)
            x_ref = hermite_reference(traj.times, traj.xs, traj.dxs, t, hi,
                                      traj.n_hist, traj.hist_end_xslope)
            v_ref = hermite_reference(traj.times, traj.vs, traj.dvs, t, hi,
                                      traj.n_hist, traj.hist_end_slope)
            assert np.allclose(x, x_ref, rtol=1e-13, atol=1e-14), t
            assert np.allclose(v, v_ref, rtol=1e-13, atol=1e-14), t
        # the history side of t = 0 reads the history's own slopes
        x, v = traj.state_at(-0.01)
        bent = hermite_reference(traj.times, traj.vs, traj.dvs, -0.01, hi,
                                 None, None)
        assert sampled or np.array_equal(x, FIG_X0)
        assert not np.allclose(v, bent, rtol=1e-13, atol=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(dt=st.sampled_from([0.02, 0.05, 0.1, 1 / 3, 1e-3]),
           n_hist=st.one_of(st.just(0), st.integers(1, 3000)), n_steps=st.integers(1, 3000),
           cut=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_grid_segment_is_the_clamped_search(self, dt, n_hist, n_steps, cut, seed):
        # integrate's grid; queries at every grid point and its neighbouring
        # floats, at midpoints, anywhere, and before the grid and past hi
        times = (np.arange(n_hist + n_steps + 1) - n_hist) * dt
        hi = 1 + int(cut * (len(times) - 2))
        span = times[-1] - times[0]
        s = np.concatenate([times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
                            (times[:-1] + times[1:]) / 2,
                            np.random.default_rng(seed).uniform(times[0] - dt, times[-1] + dt, 200),
                            times[0] - np.array([1e-300, dt / 2, dt, 3 * dt, span + 1.0]),
                            times[hi] + np.array([1e-12, dt / 2, dt, 3 * dt, span + 1.0])])
        assert (dde._grid_segment(times, s, dt, n_hist, hi)
                == dde._segment(times, s, hi)).all()
        # as a block looks up: each row of queries with its own last index
        rows = np.random.default_rng(seed).integers(1, len(times), (7, 1))
        assert (dde._grid_segment(times, s, dt, n_hist, rows)
                == dde._segment(times, s, rows)).all()


def plan_cases():
    """(delay, member histories, member weights) of the per-stage plan
    tests: zero, whole-step and sub-step constant delays, a sinusoid
    that clips to 0, one shorter than dt, a sampled history, four
    members with mixed betas, and random delays: from 0, from 2.5 * dt
    (four members), and whole numbers from 0 with every arc at 0 on the
    first hold interval."""
    g, w, _, hist = fig_setup(scale=0.3)
    members, ws = TestBatch.members()
    zero_hist = InitialHistory.constant(FIG_X0, 0.3 * FIG_V0, tau=0.0)
    short = DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.01, amplitude=0.005,
                         period=0.3)

    def random(**kw):
        return DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0, **kw)
    return {"zero": (DelayProfile.zero(), [zero_hist], [w]),
            "constant": (DelayProfile.constant(1.0), [hist], [w]),
            "sub-step": (DelayProfile.constant(0.013, tau_max=1.0), [hist], [w]),
            "clipping-sinusoid": (CLIPPING_SINUSOID, [hist], [w]),
            "short-sinusoid": (short, [hist], [w]),
            "sampled": (DelayProfile.constant(0.37, tau_max=1.0), members[3:], ws[3:]),
            "batch": (DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5,
                                   amplitude=0.4, period=0.7), members, ws),
            "random-from-0": (random(seed=3, hold=0.3), [hist], [w]),
            "random-from-2.5dt": (random(low=0.05, seed=8, hold=0.25), members, ws),
            "random-integer": (random(seed=4, hold=0.25, integer_valued=True), [hist], [w])}


def record_lookups(monkeypatch, cap=None):
    """Run integrate through recorders: returns the list that gets each
    stage's delayed states, the (2, d, E) rows edge_forces reads as (E, 2,
    d) arc rows, and the list that gets (first stage, segments, jumps,
    columns, looked-up rows) of each block of lookups, its stage counted
    by the edge_forces calls before it.  A block of S stages reads, for a
    delay every arc shares, the S whole (2d, agents) time rows of its
    segments from (M, 2d, agents) tables; for per-arc delays, the (S, 2d,
    arcs) flat elements (segment * 2d + component) * agents + sender, one
    time row (step) per segment."""
    stages, blocks = [], []
    forces, rows = dde.edge_forces, dde._hermite_rows

    def counted(own, delayed, *args):   # one call per stage
        stages.append(np.moveaxis(delayed, -1, 0))
        return forces(own, delayed, *args)

    def recorded(table, index, step, weights, jump):
        out = rows(table, index, step, weights, jump)
        if index.ndim == 1:   # time indices into whole rows
            M, lanes, n_cols = table[0].shape
            assert step == 1 and index.dtype.kind == "i" and jump.shape == (len(index), 1, 1)
            assert table[1].shape == (M, lanes, n_cols) and table[2].shape == (lanes, n_cols)
            assert out.shape == (len(index), lanes, n_cols)
            a = np.repeat(index[:, None], n_cols, axis=1)
            cols = np.arange(n_cols)
        else:                 # flat elements
            a, lanes = index[:, 0] // step, index.shape[1]
            assert table[0].ndim == 1
            assert (index - index[:, :1] == np.arange(lanes)[:, None] * (step // lanes)).all()
            cols = index[0, 0] % step
        blocks.append((len(stages), a, np.broadcast_to(jump[:, 0], a.shape).copy(), cols,
                       out.copy()))
        return out
    if cap is not None:
        monkeypatch.setattr(dde, "LOOKUP_BLOCK_ROWS", cap)
    monkeypatch.setattr(dde, "edge_forces", counted)
    monkeypatch.setattr(dde, "_hermite_rows", recorded)
    return stages, blocks


class TestStagePlan:
    """Every stage's delays are planned before the RK4 loop and looked up
    a block of stages per call, on agent rows when every arc shares the
    delay and on arc rows for per-arc delays; bit for bit as the per-arc
    gather (oracles._hermite_gather)."""

    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_plan_matches_per_arc_gather_stage_by_stage(self, case, monkeypatch):
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        dt, n_steps = 0.02, 100
        delayed, _ = record_lookups(monkeypatch)
        trajs = integrate(hists, g, ws, p, t_end=n_steps * dt, dt=dt)
        times, n_hist, B = trajs[0].times, trajs[0].n_hist, len(trajs)

        def state(x, v):   # the members' x and v views as one (..., rows, 2, d) array
            return np.stack([np.concatenate([getattr(t, a) for t in trajs], axis=-2)
                             for a in (x, v)], axis=-2)
        table = (state("xs", "vs"), state("dxs", "dvs"),
                 state("hist_end_xslope", "hist_end_slope"))
        ei, ej = g.arc_list
        delay_at = p.on_edges(ei, ej)
        ts, his, tau, zero, short, seg, row = _stage_plan(times, n_hist, dt,
                                                          p.on_edges(ei, ej), B,
                                                          0, 4 * n_steps + 1)
        # one row per distinct stage: stage 3 of a step reads stage 2's
        assert len(ts) == len(his) == len(tau) == len(zero) == len(short) == len(seg)
        assert len(ts) == 3 * n_steps + 1 and len(row) == len(delayed) == 4 * n_steps + 1
        ej = (ej + 4 * np.arange(B)[:, None]).ravel()
        looked_up, jumped = 0, False
        for k in range(4 * n_steps + 1):
            step, s = divmod(k, 4)
            idx, r = n_hist + step, row[k]
            assert r == 3 * step + (0, 1, 1, 2)[s]
            if step < n_steps:   # the loop's stage times and slope limits
                assert ts[r] == times[idx] + (0, dt / 2, dt / 2, dt)[s]
                assert his[r] == (max(idx - 1, 1), idx, idx, idx)[s]
            else:
                assert (ts[r], his[r]) == (times[idx], idx - 1)
            tau_e = np.tile(np.broadcast_to(delay_at(ts[r]), len(ei)), B)
            assert np.broadcast_to(tau[r], tau_e.shape).tobytes() == tau_e.tobytes()
            past = tau_e != 0.0
            assert short[r] == (tau_e[past].min() if past.any() else 0.0)
            # arcs at delay 0 are selected only where there are some, on arc rows
            if np.ndim(delay_at(0.0)) and not past.all():
                assert zero[r].shape == past.shape and zero[r].tobytes() == (~past).tobytes()
            else:
                assert zero[r] is None
            if s == 0:   # an arc at delay 0 reads the stage's state, here a committed row
                assert delayed[k][~past].tobytes() == table[0][idx, ej[~past]].tobytes()
            if not past.any():
                continue
            looked_up += 1
            want = _hermite_gather(times, table, ej[past], ts[r] - tau_e[past], his[r], n_hist)
            assert delayed[k][past].tobytes() == want.tobytes(), k
            if s == 2:   # the midpoint's second stage reads the first one's rows
                assert delayed[k][past].tobytes() == delayed[k - 1][past].tobytes(), k
            jumped |= (dde._segment(times, ts[r] - tau_e[past], his[r]) + 1 == n_hist).any()
        # random-integer holds every arc at 0 over its first 49 stages, t < 0.25
        assert looked_up == {"zero": 0, "clipping-sinusoid": 4 * n_steps - 9,
                             "random-integer": 4 * n_steps - 48}.get(case, 4 * n_steps + 1)
        assert jumped == (looked_up > 0)   # the slope jump at t = 0 is read

    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_integrate_matches_the_per_arc_path(self, case):
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        planned = integrate(hists, g, ws, p, t_end=2.0, dt=0.02)
        assert_per_arc_path_agrees(planned, hists, g, ws, p, 2.0, 0.02)

    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_integrate_matches_the_allocating_step(self, case):
        # slopes written into buffers and each step's operations run in place
        # give the allocating step's numbers, alone and batched
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        batch = integrate(hists, g, ws, p, t_end=2.0, dt=0.02)
        for h, w, member in zip(hists, ws, batch):
            ys, dys, hist_end = rk4_reference(h, g, w, p, 2.0, 0.02)
            for got in (integrate(h, g, w, p, t_end=2.0, dt=0.02), member):
                for name, want in (("xs", ys[:, :, 0]), ("vs", ys[:, :, 1]),
                                   ("dxs", dys[:, :, 0]), ("dvs", dys[:, :, 1]),
                                   ("hist_end_xslope", hist_end[:, 0]),
                                   ("hist_end_slope", hist_end[:, 1])):
                    assert getattr(got, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("cap", [dde.LOOKUP_BLOCK_ROWS, 40])
    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_each_block_reads_only_committed_rows(self, case, cap, monkeypatch):
        # a block of lookups opened at stage k may read only slopes up to
        # his[k], or the fixed history side of the slope jump at n_hist, and
        # holds at most cap rows: agents, or arcs for per-arc delays; it has
        # one row per distinct stage of its chunk, and each such stage that
        # looks up is in one block.  The graph has more arcs (5) than agents
        # (4), so the two row layouts differ
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS + [(4, 1)], one_based=True)
        dt, n_steps, B = 0.02, 100, len(hists)
        _, blocks = record_lookups(monkeypatch, cap)
        planned = integrate(hists, g, ws, p, t_end=n_steps * dt, dt=dt)
        times, n_hist = planned[0].times, planned[0].n_hist
        ei, ej = g.arc_list
        per_arc = np.ndim(p.on_edges(ei, ej)(0.0)) == 1
        n_rows = B * len(ei) if per_arc else B * g.n_vertices
        span = max(1, cap // n_rows)   # stages a chunk of the plan holds
        n_stages = 4 * n_steps + 1
        plans = [_stage_plan(times, n_hist, dt, p.on_edges(ei, ej), B, first,
                             min(first + span, n_stages)) for first in range(0, n_stages, span)]
        # the chunks' rows numbered through the run, and each stage's row
        his, short, seg = (np.concatenate([plan[i] for plan in plans]) for i in (1, 4, 5))
        chunk = np.concatenate([np.full(len(plan[0]), c) for c, plan in enumerate(plans)])
        starts = np.cumsum([0] + [len(plan[0]) for plan in plans])
        row = np.concatenate([plan[6] + start for plan, start in zip(plans, starts)])
        # stage 3 of a step shares stage 2's row, unless a chunk opens at it
        stage = np.arange(1, n_stages)
        assert ((row[1:] == row[:-1]) == ((stage % 4 == 2) & (stage % span != 0))).all()
        covered = np.zeros(len(his), dtype=bool)
        for k, a, jumps, cols, _ in blocks:
            r = row[k]
            assert short[r] != 0.0 and not covered[r:r + len(a)].any()
            assert len(cols) == n_rows and 1 <= len(a) <= span
            assert (chunk[r:r + len(a)] == chunk[r]).all() and r + len(a) <= starts[-1]
            assert a.max(axis=1).tobytes() == seg[r:r + len(a)].tobytes()
            assert (jumps == (a + 1 == n_hist)).all()
            assert ((a + 1 <= his[r]) | jumps).all(), k
            covered[r:r + len(a)] = True
        assert covered[short != 0.0].all()
        assert len(blocks) < (short != 0.0).sum() or not blocks   # stages do share blocks
        if case == "random-from-2.5dt" and cap // n_rows > 4:   # delays of two steps or more
            assert max(len(a) for _, a, _, _, _ in blocks) > 4      # blocks span steps
        monkeypatch.undo()
        assert_per_arc_path_agrees(planned, hists, g, ws, p, n_steps * dt, dt)

    @settings(max_examples=40, deadline=None)
    @given(ratio=st.one_of(st.sampled_from([0.3, 1.0, 1.5, 2.0, 7.0, 3.25]),
                           st.floats(0.01, 12.0)),
           sinusoid=st.booleans(), swing=st.floats(0.0, 1.0), period=st.floats(0.05, 3.0))
    def test_integrate_matches_the_per_arc_path_at_any_delay(self, ratio, sinusoid, swing,
                                                            period):
        # delays below one step, between one and two, whole and fractional
        # numbers of steps, and sinusoids of any depth and period
        dt = 0.05
        tau = ratio * dt
        p = (DelayProfile(kind="sinusoidal", tau_max=tau, mean=tau / 2,
                          amplitude=swing * tau / 2, period=period)
             if sinusoid else DelayProfile.constant(tau))
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        hists = [InitialHistory.constant(FIG_X0, s * FIG_V0, tau=tau) for s in (0.3, 1.0)]
        ws = [WeightFunction(kind="cucker-smale", beta=b) for b in (0.3, 1.0)]
        planned = integrate(hists, g, ws, p, t_end=1.0, dt=dt)
        assert_per_arc_path_agrees(planned, hists, g, ws, p, 1.0, dt)

    def test_blocks_of_a_long_delay_take_bounded_memory(self):
        # a delay of 500 steps: the first 2000 stages could be read from the
        # history at once, 2000 stages x 100 agents x 2 x 2 floats (3.2 MB)
        # per array, 26 MB at peak; capped blocks hold 163 stages.  Random
        # delays of 400 to 500 steps on the 100 arcs: 29 MB at peak uncapped
        n = 100
        g = Digraph.from_arc_list(n, [(i, (i + 1) % n) for i in range(n)])
        rng = np.random.default_rng(5)
        hist = InitialHistory.constant(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                                       tau=0.5)
        w = WeightFunction(kind="cucker-smale", beta=0.5)
        for p in (DelayProfile.constant(0.5),
                  DelayProfile(kind="piecewise-random", tau_max=0.5, low=0.4, high=0.5,
                               seed=2, hold=0.1)):
            tracemalloc.start()
            try:
                traj = integrate(hist, g, w, p, t_end=0.5, dt=0.001)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert traj.n_hist == 500
            state_tables = 2 * 2 * traj.xs.nbytes   # (x, v) and its slopes: 6.4 MB
            assert peak < state_tables + 4e6, p.kind

    def test_plan_memory_does_not_grow_with_the_run(self):
        # a hold below dt / 2 gives every stage its own per-arc delays; planned
        # a chunk of stages at a time, they take no more memory on a longer run,
        # so the peak grows with the state tables alone, as with a long hold
        rng = np.random.default_rng(0)
        n = 100
        g = matrix_digraph(random_rooted_arcs(rng, n, 5))
        hist = InitialHistory.constant(rng.uniform(-10, 10, (n, 2)), rng.normal(size=(n, 2)),
                                       tau=1.0)
        w = WeightFunction(kind="cucker-smale", beta=0.25)

        def peak(hold, t_end):
            p = DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.0, high=1.0,
                             seed=9, hold=hold)
            tracemalloc.start()
            try:
                integrate(hist, g, w, p, t_end=t_end, dt=0.05)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        excess = [peak(0.01, t_end) - peak(0.5, t_end) for t_end in (5.0, 10.0)]
        assert abs(excess[1] - excess[0]) < 1e6, excess


def assert_per_arc_path_agrees(planned, hists, g, ws, p, t_end, dt):
    """planned is integrate's run bit for bit as it goes when each arc gets
    its own copy of the delay: blocks of arc rows, not of agent rows."""
    class PerArc:
        tau_max = p.tau_max

        @staticmethod
        def on_edges(ei, ej):
            at = p.on_edges(ei, ej)
            return lambda t: np.array(np.broadcast_to(at(t), len(ei)))
    for got, want in zip(planned, integrate(hists, g, ws, PerArc, t_end=t_end, dt=dt)):
        for name in ("xs", "vs", "dxs", "dvs"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


class TestInitialHistory:
    """The history is one piecewise-linear function of time, read by one
    vectorized eval."""

    @pytest.mark.parametrize("times, shape, match", [
        ([0.0], (1, 2, 1), "two or more samples"),
        ([-1.0, -1.0, 0.0], (3, 2, 1), "strictly increasing"),
        ([-1.0, -2.0, 0.0], (3, 2, 1), "strictly increasing"),
        ([-1.0, 0.0], (2, 2), r"\(K, N, d\)"),
        ([-1.0, 0.0], (3, 2, 1), r"\(K, N, d\)"),
    ], ids=["one-sample", "repeated-time", "decreasing-times", "flat-table", "row-count"])
    def test_from_samples_refuses_malformed_tables(self, times, shape, match):
        with pytest.raises(ValueError, match=match):
            InitialHistory.from_samples(times, np.zeros(shape), np.zeros(shape))

    def test_eval_is_the_linear_interpolation(self):
        xs = np.array([[[0.0]], [[2.0]], [[2.0]]])
        vs = np.array([[[1.0]], [[-1.0]], [[3.0]]])
        hist = InitialHistory.from_samples([-2.0, -1.0, 0.0], xs, vs)
        x, v, dx, dv = hist.eval([-3.0, -2.0, -1.5, -1.0, -0.25, 0.0])
        assert x.shape == v.shape == dx.shape == dv.shape == (6, 1, 1)
        assert x.ravel().tolist() == [0.0, 0.0, 1.0, 2.0, 2.0, 2.0]
        assert v.ravel().tolist() == [1.0, 1.0, 0.0, -1.0, 2.0, 3.0]
        # the segment to the right of a sample time, to the left at t = 0
        assert dx.ravel().tolist() == [2.0, 2.0, 2.0, 0.0, 0.0, 0.0]
        assert dv.ravel().tolist() == [-2.0, -2.0, -2.0, 4.0, 4.0, 4.0]
        const = InitialHistory.constant(FIG_X0, FIG_V0, tau=1.0)
        x, v, dx, dv = const.eval([-1.0, -0.3, 0.0])
        assert np.array_equal(x, np.broadcast_to(FIG_X0, (3, 4, 2)))
        assert np.array_equal(v, np.broadcast_to(FIG_V0, (3, 4, 2)))
        assert not dx.any() and not dv.any()

    def test_constant_history_slopes_allocate_nothing(self):
        # 500 rows of 100 agents: one (T, N, d) table is 0.8 MB; the slopes are
        # read-only broadcast zeros, as the values are broadcast snapshots
        rng = np.random.default_rng(4)
        const = InitialHistory.constant(rng.normal(size=(100, 2)), rng.normal(size=(100, 2)),
                                        tau=1.0)
        ts = np.linspace(-1.0, 0.0, 500)
        tracemalloc.start()
        try:
            x, v, dx, dv = const.eval(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 500 * 100 * 2 * 8
        assert dx.shape == dv.shape == (500, 100, 2) and not dx.any() and not dv.any()
        assert not dx.flags.writeable and not dv.flags.writeable

    def test_state_at_reads_the_history(self):
        # 11 samples on [-1, 0] and dt = 0.01: the grid holds the history
        # and its slopes, so a lookup reads it up to rounding, except on a
        # grid segment that a sample time bends: the Hermite cubic there
        # leaves it by at most (4/27) dt |jump in slope|
        rng = np.random.default_rng(11)
        times = np.linspace(-1.0, 0.0, 11)
        xs = rng.normal(size=(11, 4, 2))
        vs = rng.normal(size=(11, 4, 2))
        hist = InitialHistory.from_samples(times, xs, vs)
        g, w, p, _ = fig_setup()
        dt = 0.01
        traj = integrate(hist, g, w, p, t_end=0.05, dt=dt)
        jumps = []
        for tab in (xs, vs):
            slope = np.diff(tab, axis=0) / np.diff(times)[:, None, None]
            jumps.append(np.concatenate([np.zeros((1, 4, 2)), np.diff(slope, axis=0),
                                         np.zeros((1, 4, 2))]))   # at each sample time
        bent = 0
        for k in range(traj.n_hist):
            t0, t1 = traj.times[k], traj.times[k + 1]
            inside = np.flatnonzero((times > t0) & (times <= t1))
            bent += len(inside) > 0
            for u in (0.1, 1 / 3, 0.5, 2 / 3, 0.9):
                t = t0 + u * (t1 - t0)
                got = traj.state_at(t)
                want = hist.eval([t])[:2]
                for a, b, jump in zip(got, want, jumps):
                    bound = 4 / 27 * dt * np.abs(jump[inside]).sum(axis=0) + 1e-12
                    assert (np.abs(a - b[0]) <= bound).all(), (t, np.abs(a - b[0]).max())
        assert bent == 10


class TestConstantHistory:
    """A constant history does not move: lookups of positions on
    [-tau, 0] read x0, not a cubic bent by the history velocities."""

    def test_state_at_reads_the_stated_history(self):
        g = Digraph.complete(2)
        w = WeightFunction(kind="constant", kappa=1.0)
        hist = InitialHistory.constant([[0.0], [0.0]], [[0.0], [1.0]], tau=1.0)
        traj = integrate(hist, g, w, DelayProfile.constant(1.0), t_end=0.1,
                         dt=0.01)
        for t in (-0.5025, -0.0075, -0.9951):
            x, v = traj.state_at(t)
            assert np.array_equal(x, [[0.0], [0.0]])
            assert np.array_equal(v, [[0.0], [1.0]])

    @pytest.mark.parametrize("p", [
        DelayProfile.constant(0.5025, tau_max=1.0),
        DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.6,
                     amplitude=0.3, period=0.37)])
    def test_delayed_positions_inside_history(self, p):
        # agent 1 hears agent 2, which does not move before t = 0; while
        # the delay reaches into the history agent 1 solves
        # x' = v, v' = (1 - v) / (1 + (1 - x)^2), here by a fine RK4
        g = Digraph.from_arc_list(2, [(2, 1)], one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=1.0)
        hist = InitialHistory.constant([[0.0], [1.0]], [[0.0], [1.0]], tau=1.0)
        traj = integrate(hist, g, w, p, t_end=0.5, dt=0.01)

        def f(y):
            return np.array([y[1], (1 - y[1]) / (1 + (1 - y[0]) ** 2)])

        y, h = np.zeros(2), 1e-4
        for _ in range(5000):
            k1 = f(y)
            k2 = f(y + h / 2 * k1)
            k3 = f(y + h / 2 * k2)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + f(y + h * k3))
        x, v = traj.state_at(0.5)
        assert abs(x[0, 0] - y[0]) < 1e-9
        assert abs(v[0, 0] - y[1]) < 1e-9


class TestDiameters:
    def test_fig_initial_values(self):
        g, w, p, hist = fig_setup()
        traj = integrate(hist, g, w, p, t_end=1.0, dt=0.01)
        series = diameters(traj, tau=1.0)
        assert series.spread[0] == pytest.approx(14.0, rel=1e-12)
        assert initial_spreads(hist, g, 1.0)[1] == pytest.approx(2.0, rel=1e-12)

    def test_single_agent_zero(self):
        g = Digraph.from_arc_list(1, [])
        w = WeightFunction(kind="constant", kappa=1.0)
        hist = InitialHistory.constant([[0.0]], [[3.0]], tau=0.0)
        traj = integrate(hist, g, w, DelayProfile.zero(), t_end=1.0, dt=0.1)
        series = diameters(traj, tau=0.0)
        assert np.allclose(series.spread, 0.0)

    def test_monotone_on_fig_run(self):
        g, w, p, hist = fig_setup(scale=0.01)
        traj = integrate(hist, g, w, p, t_end=10.0, dt=0.01)
        series = diameters(traj, tau=1.0)
        rep = check_monotone_diameter(series, tol=1e-9 * series.spread[0])
        assert rep
        assert rep.max_increase <= 1e-9 * series.spread[0]

    def test_monotone_check_flags_bump(self):
        g, w, p, hist = fig_setup(scale=0.01)
        traj = integrate(hist, g, w, p, t_end=2.0, dt=0.01)
        series = diameters(traj, tau=1.0)
        series.spread[50] += 0.5 * series.spread[0]
        rep = check_monotone_diameter(series, tol=1e-9)
        assert not rep
        assert rep.worst_time == pytest.approx(series.times[50])


def _same_series(series, ref):
    """A DiameterSeries against diameters_reference's tuple, byte for byte,
    its extremes and spreads plus 0.0: a zero extreme is +0."""
    times, *values = ref
    for got, want in zip((series.times, series.vbar, series.vund, series.spread_k,
                          series.spread), [times] + [v + 0.0 for v in values]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _negative_zeros(*arrays):
    return sum(int((np.signbit(a) & (a == 0)).sum()) for a in arrays)


class TestWindowDiagnostics:
    """The O(M) window extrema and the segment extrema solved only where a
    root lies, bit for bit against the dense and sliding references in
    oracles.py plus 0.0 (a zero extreme is +0), signed zeros included."""

    SIGNED = np.array([-1.0, -0.0, 0.0, 1.0])

    @pytest.mark.parametrize("win", [0, 1, 7, 8, 9, 50])
    def test_trailing_extreme_matches_sliding_reduction(self, win):
        rng = np.random.default_rng(win)
        for case in range(150):
            m, d = int(rng.integers(1, 301)), int(rng.integers(1, 4))
            # a third of the cases hold only -1, -0.0, 0.0 and 1
            arr = (rng.choice(self.SIGNED, size=(m, d)) if case % 3 == 0
                   else rng.normal(size=(m, d)) * 10.0 ** rng.integers(-3, 4))
            for fold, reduce_fn in ((np.maximum, np.max), (np.minimum, np.min)):
                got = dde._trailing_extreme(arr, win, fold)
                want = trailing_extreme_reference(arr, win, reduce_fn) + 0.0
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("zero", [0.0, -0.0, "mixed"])
    def test_zero_column_takes_the_sliding_reduction(self, zero):
        # a column of zeros beside two random ones: every extreme of it is +0
        rng = np.random.default_rng(1)
        arr = np.column_stack([rng.normal(size=120), np.zeros(120), rng.normal(size=120)])
        arr[:, 1] = rng.choice([0.0, -0.0], size=120) if zero == "mixed" else zero
        for win in (0, 1, 8, 9, 50):
            for fold, reduce_fn in ((np.maximum, np.max), (np.minimum, np.min)):
                got = dde._trailing_extreme(arr, win, fold)
                want = trailing_extreme_reference(arr, win, reduce_fn) + 0.0
                assert got.tobytes() == want.tobytes()
                assert _negative_zeros(got) == 0
        # one column of -0.0 and 0.0 alone: at win 8 the block extremes and the
        # window reduction pick different zeros, which both become +0
        all_zero = np.full((60, 1), -0.0)
        all_zero[::7] = 0.0
        for win in (1, 7, 8, 9, 50):
            for fold, reduce_fn in ((np.maximum, np.max), (np.minimum, np.min)):
                assert (dde._trailing_extreme(all_zero, win, fold).tobytes()
                        == np.zeros((60, 1)).tobytes()
                        == (trailing_extreme_reference(all_zero, win, reduce_fn)
                            + 0.0).tobytes())

    def test_a_column_folds_alike_alone_and_beside_others(self):
        # numpy's window reduction gives a column of -0.0 and 0.0 another zero
        # beside two other columns than alone; the stated +0 does not depend on d
        rng = np.random.default_rng(5)
        for case in range(40):
            m = int(rng.integers(1, 200))
            arr = rng.choice(self.SIGNED, size=(m, 3))
            arr[:, 1] = rng.choice([0.0, -0.0], size=m) if case % 2 else arr[:, 1]
            for win in (0, 1, 7, 8, 9, 50):
                for fold in (np.maximum, np.minimum):
                    alone = dde._trailing_extreme(arr[:, 1:2], win, fold)
                    beside = dde._trailing_extreme(arr, win, fold)
                    assert alone[:, 0].tobytes() == beside[:, 1].tobytes()

    @pytest.mark.parametrize("n, d", [(9, 1), (17, 1), (4, 2), (200, 2)])
    def test_agent_extremes_of_signed_zeros(self, n, d):
        # rows of -0.0 and 0.0 alone, and rows that also hold -1 or 1, in a
        # (x, v) table's velocity view; a strided (9, 1) view's reduction
        # picks another zero than the same rows copied out do, and either
        # becomes +0 once 0.0 is added, as the trailing fold adds it
        rng = np.random.default_rng(n)
        ys = rng.choice([-0.0, 0.0], size=(40, n, 2, d))
        ys[::3, 0, 1] = rng.choice([-1.0, 1.0], size=(14, d))
        traj = Trajectory(times=np.arange(-20, 20) * 0.5, xs=ys[:, :, 0], vs=ys[:, :, 1],
                          dt=0.5, n_hist=20)
        nans = ys.copy()   # and nans of either sign among the ones
        nans[::5, -1, 1] = np.where(rng.random((8, d)) < 0.5, np.nan, -np.nan)
        for vs in (traj.vs, traj.vs.copy(), nans[:, :, 1]):
            for fold, reduce_fn in ((np.maximum, np.max), (np.minimum, np.min)):
                got, want = dde._agent_extreme(vs, fold) + 0.0, reduce_fn(vs, axis=1) + 0.0
                nan = np.isnan(want)   # any nan in a row is its extreme, of either sign
                assert (np.isnan(got) == nan).all()
                assert got[~nan].tobytes() == want[~nan].tobytes()
        for tau in (0, 3):
            _same_series(discrete_diameters(traj, tau), diameters_reference(traj, tau))

    def test_segment_extrema_match_dense_reference(self):
        rng = np.random.default_rng(7)
        for case in range(60):
            m, n, d = int(rng.integers(2, 80)), int(rng.integers(1, 5)), int(rng.integers(1, 4))
            if case % 3 == 0:
                vals = rng.choice(self.SIGNED, size=(m, n, d))
                slopes = rng.choice(np.append(self.SIGNED, 2.0), size=(m, n, d))
            else:
                vals, slopes = rng.normal(size=(m, n, d)), 10 * rng.normal(size=(m, n, d))
            # a (x, v) table's velocity view, as a Trajectory holds it
            table = np.stack([rng.normal(size=(m, n, d)), vals], axis=2)[:, :, 1]
            fix_idx = int(rng.integers(0, m))
            for args in ((vals, slopes, 0.05), (table, slopes, 0.02, fix_idx,
                                                rng.normal(size=(n, d)))):
                for got, want in zip(dde._segment_extrema(*args),
                                     segment_extrema_reference(*args)):
                    assert got.tobytes() == want.tobytes()

    def test_segments_with_a_zero_coefficient(self):
        # one agent, dt 1: the derivative a u^2 + b u + c of segment 0 has a == 0
        # (root -c / b = 0.25), of segment 1 b == 0 (roots -+sqrt(108) / 18, one
        # inside); segment 2 is a straight line (a == b == 0) once the history's
        # slope -6 replaces its right end at fix_idx 3, and curved without it
        vals = np.array([0.0, 1.0, 1.0, -5.0])[:, None, None]
        slopes = np.array([-1.0, 3.0, -6.0, 9.0])[:, None, None]
        fix = np.array([[-6.0]])
        p0, p1, m0 = vals[:-1, 0, 0], vals[1:, 0, 0], slopes[:-1, 0, 0]
        m1 = np.array([3.0, -6.0, -6.0])
        a = 6 * p0 - 6 * p1 + 3 * m0 + 3 * m1
        b = -6 * p0 + 6 * p1 - 4 * m0 - 2 * m1
        assert a[0] == 0.0 and b[1] == 0.0 and a[2] == b[2] == 0.0
        for args in ((vals, slopes, 1.0), (vals, slopes, 1.0, 3, fix)):
            for got, want in zip(dde._segment_extrema(*args), segment_extrema_reference(*args)):
                assert got.tobytes() == want.tobytes()
        lo, hi = dde._segment_extrema(vals, slopes, 1.0, 3, fix)
        assert lo[0, 0, 0] < 0.0 and hi[1, 0, 0] > 1.0   # interior extrema, not the ends
        assert (lo[2, 0, 0], hi[2, 0, 0]) == (-5.0, 1.0)
        assert dde._segment_extrema(vals, slopes, 1.0)[0][2, 0, 0] < -5.0

    @pytest.mark.parametrize("p", [
        DelayProfile.zero(),
        DelayProfile.constant(1.0),
        DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=0.4, period=0.7),
        DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.0, high=1.0, seed=3,
                     hold=0.3)], ids=["zero", "constant", "sinusoidal", "piecewise-random"])
    @pytest.mark.parametrize("signed_zero_column", [False, True])
    def test_diameters_match_reference_alone_and_batched(self, p, signed_zero_column):
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        v0 = 0.3 * FIG_V0
        if signed_zero_column:   # the second velocity component stays +-0 throughout
            v0 = np.column_stack([v0[:, 0], [-0.0, 0.0, -0.0, -0.0]])
        hists = [InitialHistory.constant(FIG_X0, v0, tau=1.0),
                 InitialHistory.constant(FIG_X0, -0.7 * v0, tau=1.0)]
        lone = integrate(hists[0], g, w, p, t_end=3.0, dt=0.02)
        for traj in [lone] + integrate(hists, g, w, p, t_end=3.0, dt=0.02):
            for tau in (0.0, 0.02, 0.17, 1.0):
                _same_series(diameters(traj, tau), diameters_reference(traj, tau))

    @pytest.mark.parametrize("tau", [0, 1, 3])
    def test_discrete_diameters_match_reference(self, tau):
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        p = DelayProfile.constant(float(tau)) if tau else DelayProfile.zero()
        for v0 in (FIG_V0, np.column_stack([FIG_V0[:, 0], [0.0, -0.0, -0.0, 0.0]])):
            hist = InitialHistory.constant(FIG_X0, v0, tau=float(tau))
            traj = simulate_discrete(hist, g, w, p, t_end=40, h=0.1)
            _same_series(discrete_diameters(traj, tau), diameters_reference(traj, tau))

    def test_no_negative_zero_in_either_model(self):
        # velocities of -0.0 and 0.0 whose second component stays zero throughout
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5)
        v0 = np.column_stack([0.3 * FIG_V0[:, 0], [-0.0, 0.0, -0.0, -0.0]])
        still = np.full((4, 2), -0.0)
        for v in (v0, still):
            traj = integrate(InitialHistory.constant(FIG_X0, v, tau=1.0), g, w,
                             DelayProfile.constant(1.0), t_end=2.0, dt=0.05)
            steps = simulate_discrete(InitialHistory.constant(FIG_X0, v, tau=2.0), g, w,
                                      DelayProfile.constant(2.0), t_end=20, h=0.1)
            for series in (diameters(traj, 1.0), discrete_diameters(steps, 2)):
                assert (series.vbar[:, 1] == 0).all()
                assert _negative_zeros(series.vbar, series.vund, series.spread_k,
                                       series.spread) == 0

    @pytest.mark.parametrize("tau", [-0.5, -0.05, np.nan, np.inf, -np.inf])
    def test_window_length_not_finite_and_nonnegative_raises(self, tau):
        g, w, p, hist = fig_setup(scale=0.01)
        traj = integrate(hist, g, w, p, t_end=1.0, dt=0.1)
        with pytest.raises(IntegrationError,
                           match=f"window length tau must be nonnegative and finite, got {tau}"):
            diameters(traj, tau=tau)

    def test_window_one_past_the_history_raises(self):
        g, w, p, hist = fig_setup(scale=0.01)
        traj = integrate(hist, g, w, p, t_end=1.0, dt=0.02)
        diameters(traj, tau=traj.n_hist * traj.dt)
        with pytest.raises(IntegrationError, match="window reaches before the trajectory start"):
            diameters(traj, tau=(traj.n_hist + 1) * traj.dt)
