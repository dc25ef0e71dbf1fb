import numpy as np
import pytest

from delayflock import dde
from delayflock.analysis import initial_spreads
from delayflock.dde import (
    InitialHistory,
    IntegrationError,
    check_monotone_diameter,
    diameters,
    _hermite_gather,
    _hermite_rows,
    _stage_plan,
    edge_forces,
    integrate,
)
from delayflock.digraph import Digraph
from delayflock.interaction import DelayProfile, WeightFunction

from oracles import (
    hermite_reference,
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
        g = Digraph(np.zeros((1, 1), dtype=bool))
        w = WeightFunction(kind="constant", kappa=1.0)
        none = np.zeros((0, 2))
        dv = edge_forces(none, none, none, none, np.zeros(0, dtype=int), w, 1)
        assert np.array_equal(dv, [[0.0, 0.0]])
        hist = InitialHistory.constant([[1.0, 2.0]], [[3.0, 4.0]], tau=0.0)
        traj = integrate(hist, g, w, DelayProfile.zero(), t_end=1.0, dt=0.1)
        assert np.array_equal(traj.dvs, np.zeros_like(traj.dvs))
        assert (traj.vs == [3.0, 4.0]).all()
        assert np.allclose(traj.state_at(1.0)[0], [[4.0, 6.0]], rtol=0, atol=1e-14)

    def test_identical_velocities_give_zero(self):
        g = Digraph.complete(3)
        w = WeightFunction(kind="cucker-smale", kappa=2.0, beta=0.5)
        x = np.array([[0.0], [1.0], [5.0]])
        v = np.array([[2.0], [2.0], [2.0]])
        ei, ej = np.nonzero(g.arcs)
        dv = edge_forces(x[ei], x[ej], v[ei], v[ej], ei, w, 3)
        assert np.array_equal(dv, np.zeros((3, 1)))

    def test_two_agents_unit_weight(self):
        # coupled pair, kappa = 1 at any distance: dv_i = v_j - v_i, so the
        # velocity gap changes at the closed form's rate at t = 0
        g = Digraph.complete(2)
        w = WeightFunction(kind="constant", kappa=1.0)
        x = np.array([[0.0], [1.0]])
        v = np.array([[0.0], [1.0]])
        ei, ej = np.nonzero(g.arcs)
        dv = edge_forces(x[ei], x[ej], v[ei], v[ej], ei, w, 2)
        assert np.array_equal(dv, [[1.0], [-1.0]])
        eps = 1e-6
        rate = (two_agent_ode_difference(eps, 1.0, 1.0)
                - two_agent_ode_difference(-eps, 1.0, 1.0)) / (2 * eps)
        assert dv[1, 0] - dv[0, 0] == pytest.approx(rate, rel=1e-9)

    def test_delayed_lookup_used(self):
        # the force on receiver 0 uses the sender's delayed row ...
        w = WeightFunction(kind="constant", kappa=1.0)
        dv = edge_forces(np.array([[0.0]]), np.array([[9.0]]), np.array([[1.0]]),
                         np.array([[4.0]]), np.array([0]), w, 2)
        assert np.array_equal(dv, [[3.0], [0.0]])
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
        hists, ws = self.members()
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

    def test_random_delays_are_drawn_once_per_batch(self, monkeypatch):
        g = Digraph.complete(4)
        p = DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.0, high=1.0,
                         seed=5, hold=1.0)
        hists, _ = self.members()
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        draws = []
        draw = DelayProfile.__call__

        def counted(self, i, j, t):
            draws.append(t)
            return draw(self, i, j, t)

        monkeypatch.setattr(DelayProfile, "__call__", counted)
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


def plan_cases():
    """(delay, member histories, member weights) of the per-stage plan
    tests: zero, whole-step and sub-step constant delays, a sinusoid
    that clips to 0, one shorter than dt, a sampled history, and four
    members with mixed betas."""
    g, w, _, hist = fig_setup(scale=0.3)
    members, ws = TestBatch.members()
    zero_hist = InitialHistory.constant(FIG_X0, 0.3 * FIG_V0, tau=0.0)
    short = DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.01, amplitude=0.005,
                         period=0.3)
    return {"zero": (DelayProfile.zero(), [zero_hist], [w]),
            "constant": (DelayProfile.constant(1.0), [hist], [w]),
            "sub-step": (DelayProfile.constant(0.013, tau_max=1.0), [hist], [w]),
            "clipping-sinusoid": (CLIPPING_SINUSOID, [hist], [w]),
            "short-sinusoid": (short, [hist], [w]),
            "sampled": (DelayProfile.constant(0.37, tau_max=1.0), members[3:], ws[3:]),
            "batch": (DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5,
                                   amplitude=0.4, period=0.7), members, ws)}


class TestStagePlan:
    """Delays every arc shares are looked up once per stage, by basis
    weights planned before the RK4 loop; bit for bit as the per-arc
    gather, which piecewise-random delays use."""

    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_plan_matches_per_arc_gather_stage_by_stage(self, case):
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        dt, n_steps = 0.02, 100
        trajs = integrate(hists, g, ws, p, t_end=n_steps * dt, dt=dt)
        times, n_hist = trajs[0].times, trajs[0].n_hist
        tables = [(np.concatenate([getattr(t, a) for t in trajs], axis=1),
                   np.concatenate([getattr(t, b) for t in trajs], axis=1),
                   np.concatenate([getattr(t, c) for t in trajs]))
                  for a, b, c in (("xs", "dxs", "hist_end_xslope"),
                                  ("vs", "dvs", "hist_end_slope"))]
        ei, ej = np.nonzero(g.arcs)
        delay_at = p.on_edges(ei, ej)
        ej = (ej + 4 * np.arange(len(trajs))[:, None]).ravel()
        ts, his, tau, seg, basis, jump = _stage_plan(times, n_hist, n_steps, dt, p)
        assert len(ts) == len(his) == len(tau) == 4 * n_steps + 1
        looked_up = 0
        for k in range(4 * n_steps + 1):
            step, s = divmod(k, 4)
            idx = n_hist + step
            if step < n_steps:   # the loop's stage times and slope limits
                assert ts[k] == times[idx] + (0, dt / 2, dt / 2, dt)[s]
                assert his[k] == (max(idx - 1, 1), idx, idx, idx)[s]
            else:
                assert (ts[k], his[k]) == (times[idx], idx - 1)
            tau_e = np.tile(delay_at(ts[k]), len(trajs))
            assert tau_e.tobytes() == np.full(len(ej), tau[k]).tobytes()
            if tau[k] == 0.0:
                continue
            looked_up += 1
            want = _hermite_gather(times, tables, ej, ts[k] - tau_e, his[k], n_hist)
            got = _hermite_rows(tables, seg[k], [b[k] for b in basis], jump[k])
            for a, b in zip(got, want):
                assert a[ej].tobytes() == b.tobytes(), k
        assert looked_up == {"zero": 0, "clipping-sinusoid": 4 * n_steps - 9}.get(
            case, 4 * n_steps + 1)
        assert jump[tau != 0.0].any() == (looked_up > 0)   # the slope jump at t = 0 is read

    @pytest.mark.parametrize("case", list(plan_cases()))
    def test_integrate_matches_the_per_arc_path(self, case, monkeypatch):
        p, hists, ws = plan_cases()[case]
        g = Digraph.from_arc_list(4, FIG_ARCS, one_based=True)
        planned = integrate(hists, g, ws, p, t_end=2.0, dt=0.02)
        plan = dde._stage_plan   # as piecewise-random delays get it: no shared delay
        monkeypatch.setattr(dde, "_stage_plan", lambda *a: plan(*a)[:2] + (None,) * 4)
        for got, want in zip(planned, integrate(hists, g, ws, p, t_end=2.0, dt=0.02)):
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
        g = Digraph(np.zeros((1, 1), dtype=bool))
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
