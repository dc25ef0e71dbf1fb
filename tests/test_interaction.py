import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflock.dde import InitialHistory
from delayflock.digraph import Digraph
from delayflock.discrete import simulate_discrete
from delayflock.interaction import (
    AdmissibilityError,
    DelayProfile,
    WeightFunction,
    batch_weight,
    verify_admissible,
)

from oracles import integer_delay


class TestWeightEval:
    def test_algebraic_at_zero(self):
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        assert w(0.0) == 1.0

    def test_algebraic_known_value(self):
        # kappa (1 + 4)^(-1/4)
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        assert w(2.0) == pytest.approx(5.0 ** -0.25, rel=1e-12)
        assert w(2.0) == pytest.approx(0.6687403, abs=1e-7)

    def test_algebraic_short_range_value(self):
        # value at the certified critical distance of the fig4 preset
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=17 / 32)
        assert w(4.0) == pytest.approx(17.0 ** (-17 / 32), rel=1e-12)

    def test_negative_argument_rejected(self):
        w = WeightFunction(kind="constant", kappa=2.0)
        with pytest.raises(AdmissibilityError):
            w(-0.1)

    def test_normalized_variant(self):
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.0, normalize_by=4)
        assert w(3.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("normalize_by", [0, -4, math.nan, math.inf, 1e-320],
                             ids=["zero", "negative", "nan", "inf", "subnormal"])
    def test_normalizer_refused_unless_it_leaves_a_finite_positive_kappa(self, normalize_by):
        # 0 was taken as no normalization; 1e-320 made kappa / normalize_by inf
        with pytest.raises(AdmissibilityError, match="normalize_by must be positive"):
            WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.5, normalize_by=normalize_by)

    def test_batch_sharing_one_tabulated_weight_interpolates_once(self):
        # the batch's psi is the member's own call: one np.interp a stage,
        # no power evaluated on lanes the table then overwrites
        w = WeightFunction(kind="tabulated", kappa=1.0, table_r=[0.0, 1.0, 5.0],
                           table_v=[2.0, 1.0, 0.5], normalize_by=3)
        assert batch_weight([w, w, w], 4) is w
        twin = WeightFunction(kind="tabulated", kappa=1.0, table_r=[0.0, 1.0, 5.0],
                              table_v=[2.0, 1.0, 0.5], normalize_by=3)
        r = np.linspace(0.0, 6.0, 8)
        assert batch_weight([w, twin], 4)(r).tobytes() == w(r).tobytes()

    @given(st.floats(0, 50), st.floats(0, 50),
           st.floats(0.01, 10), st.floats(0, 3))
    @settings(max_examples=200)
    def test_non_increasing(self, r1, r2, kappa, beta):
        w = WeightFunction(kind="cucker-smale", kappa=kappa, beta=beta)
        lo, hi = min(r1, r2), max(r1, r2)
        assert w(lo) >= w(hi)
        assert 0 < w(hi) <= kappa

    @pytest.mark.parametrize("kw", [dict(kappa=math.nan), dict(kappa=math.inf),
                                    dict(beta=math.nan), dict(beta=math.inf)],
                             ids=["nan-kappa", "inf-kappa", "nan-beta", "inf-beta"])
    def test_non_finite_parameter_rejected(self, kw):
        with pytest.raises(AdmissibilityError, match="finite"):
            WeightFunction(**kw)

    HUGE = 10 ** 400   # an int past the largest float

    @pytest.mark.parametrize("kw, field", [
        (dict(kappa=HUGE), "kappa"),
        (dict(beta=HUGE), "beta"),
        (dict(normalize_by=HUGE), "normalize_by"),
        (dict(kind="tabulated", table_r=[0, HUGE], table_v=[1.0, 0.5]), "table_r"),
        (dict(kind="tabulated", table_r=[0.0, 1.0], table_v=[1, -HUGE]), "table_v")],
        ids=["kappa", "beta", "normalize-by", "table-r", "table-v"])
    def test_field_past_the_float_range_refused_by_name(self, kw, field):
        # kappa and beta were accepted and the first w(1.0) raised a bare
        # OverflowError; the others raised it while being checked
        with pytest.raises(AdmissibilityError, match=f"^{field} is past the float range$"):
            WeightFunction(**kw)


class TestVerifyAdmissible:
    def test_algebraic_passes(self):
        w = WeightFunction(kind="cucker-smale", kappa=1.0, beta=0.25)
        assert verify_admissible(w, r_max=100.0, n_samples=1000)

    def test_constant_passes(self):
        assert verify_admissible(WeightFunction(kind="constant", kappa=3.0))

    def test_increasing_table_fails(self):
        w = WeightFunction(kind="tabulated", kappa=1.0,
                           table_r=[0.0, 1.0, 2.0], table_v=[0.5, 0.4, 0.6])
        rep = verify_admissible(w, r_max=2.0, n_samples=50)
        assert not rep
        assert any(v[0] == "increasing" for v in rep.violations)

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            verify_admissible(WeightFunction(kind="constant", kappa=1.0), n_samples=1)


class TestDelayEval:
    def test_constant_off_diagonal(self):
        p = DelayProfile.constant(1.0)
        assert p(0, 1, 17.3) == 1.0
        assert p(2, 0, 0.0) == 1.0

    def test_diagonal_always_zero(self):
        for p in (DelayProfile.constant(1.0),
                  DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5,
                               amplitude=0.5, period=2 * math.pi),
                  DelayProfile(kind="piecewise-random", tau_max=2.0,
                               low=0.0, high=2.0, seed=7)):
            assert p(3, 3, 12.0) == 0.0

    def test_sinusoidal_value(self):
        p = DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5,
                         amplitude=0.5, period=2 * math.pi)
        assert p(0, 1, math.pi / 2) == pytest.approx(1.0)
        for t in np.linspace(0, 20, 200):
            assert 0.0 <= p(0, 1, float(t)) <= 1.0

    def test_bounds_random_samples(self):
        profiles = [DelayProfile.zero(),
                    DelayProfile.constant(0.7, tau_max=1.0),
                    DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.4,
                                 amplitude=0.3, period=3.0),
                    DelayProfile(kind="piecewise-random", tau_max=1.0,
                                 low=0.1, high=0.9, seed=3, hold=0.5)]
        rng = np.random.default_rng(0)
        for p in profiles:
            for _ in range(2000):
                i, j = rng.integers(0, 5, size=2)
                t = float(rng.uniform(0, 100))
                assert 0.0 <= p(int(i), int(j), t) <= p.tau_max

    def test_bound_violation_rejected(self):
        with pytest.raises(AdmissibilityError):
            DelayProfile(kind="constant", value=2.0, tau_max=1.0)
        with pytest.raises(AdmissibilityError):
            DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.8, amplitude=0.5)
        # SeedSequence refuses a negative seed; the vectorized draw would
        # split it into words and draw from them instead of failing
        with pytest.raises(AdmissibilityError, match="seed -1 is negative"):
            DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0, seed=-1)

    @pytest.mark.parametrize("kw, field", [
        (dict(kind="constant", tau_max=math.nan), "tau_max"),
        (dict(kind="zero", tau_max=math.inf), "tau_max"),
        (dict(kind="sinusoidal", tau_max=1.0, mean=math.nan, amplitude=0.1), "mean"),
        (dict(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=math.inf), "amplitude"),
        (dict(kind="piecewise-random", tau_max=1.0, high=1.0, hold=math.nan), "hold")],
        ids=["nan-tau-max", "inf-tau-max", "nan-mean", "inf-amplitude", "nan-hold"])
    def test_non_finite_field_refused_by_name(self, kw, field):
        # each was accepted and failed later in the integrator, or, an infinite
        # amplitude, was refused as a sinusoid that "dips below zero"
        with pytest.raises(AdmissibilityError, match=f"^{field}"):
            DelayProfile(**kw)

    @pytest.mark.parametrize("kw, field", [
        (dict(kind="zero", tau_max=10 ** 400), "tau_max"),
        (dict(kind="constant", tau_max=1.0, value=10 ** 400), "value"),
        (dict(kind="sinusoidal", tau_max=1.0, mean=10 ** 400), "mean"),
        (dict(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=-10 ** 400), "amplitude"),
        (dict(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=0.1, period=10 ** 400),
         "period"),
        (dict(kind="piecewise-random", tau_max=1.0, high=1.0, hold=10 ** 400), "hold"),
        (dict(kind="piecewise-random", tau_max=1.0, low=-10 ** 400, high=1.0), "low"),
        (dict(kind="piecewise-random", tau_max=1.0, high=10 ** 400), "high")],
        ids=["tau-max", "value", "mean", "amplitude", "period", "hold", "low", "high"])
    def test_field_past_the_float_range_refused_by_name(self, kw, field):
        # tau_max, mean and amplitude raised a bare OverflowError from math.isfinite;
        # a period or hold was accepted and overflowed at the first delay read; value,
        # low and high were refused as out of range without the field's name
        with pytest.raises(AdmissibilityError, match=f"^{field} is past the float range$"):
            DelayProfile(**kw)

    def test_a_seed_past_the_float_range_is_a_seed(self):
        # a seed is a whole number of 32-bit words, not a float: 2**1100 draws as
        # the per-arc call does
        p = DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0, seed=2 ** 1100)
        draws = p.on_edges(np.array([0, 1, 2]), np.array([1, 2, 0]))(0.3)
        assert draws.tolist() == [p(0, 1, 0.3), p(1, 2, 0.3), p(2, 0, 0.3)]


def _lags_read(p, t_end=20):
    """The lags of the arc 2 -> 1 at steps 0 .. t_end - 1, as a discrete
    run reads them.  Agent 2 relaxes toward agent 3, which stays at rest,
    so its velocity halves at every step, history included; agent 1's
    update then shows which of agent 2's steps it heard."""
    tau = p.integer_tau_max
    g = Digraph.from_arc_list(3, [(2, 1), (3, 2)], one_based=True)
    w = WeightFunction(kind="constant", kappa=1.0)
    times = np.arange(-max(tau, 1), 1.0)
    hv = np.zeros((len(times), 3, 1))
    hv[:, 1, 0] = 0.5 ** times
    hist = InitialHistory.from_samples(times, np.zeros_like(hv), hv)
    v = simulate_discrete(hist, g, w, p, t_end=t_end, h=0.5).vs[:, :, 0]
    heard = v[tau:-1, 0] + (v[tau + 1:, 0] - v[tau:-1, 0]) / 0.5
    row = np.abs(heard[:, None] - v[None, :, 1]).argmin(axis=1)
    return (np.arange(t_end) + tau - row).tolist()


class TestIntegerDelays:
    """The integer view of a profile: per edge by the reference in
    tests/oracles.py, and as the discrete recursion reads it."""

    def test_constant_one(self):
        p = DelayProfile.constant(1.0)
        assert integer_delay(p, 0, 1, 5) == 1
        assert integer_delay(p, 1, 1, 5) == 0
        assert _lags_read(p) == [1] * 20

    def test_zero_profile(self):
        p = DelayProfile.zero()
        assert integer_delay(p, 0, 1, 0) == 0
        assert p.integer_tau_max == 0
        assert _lags_read(p) == [0] * 20

    def test_seeded_random_deterministic(self):
        kw = dict(kind="piecewise-random", tau_max=2.0, low=0, high=2,
                  seed=42, hold=1.0, integer_valued=True)
        p1, p2 = DelayProfile(**kw), DelayProfile(**kw)
        seq1 = [integer_delay(p1, 0, 1, t) for t in range(50)]
        seq2 = [integer_delay(p2, 0, 1, t) for t in range(50)]
        assert seq1 == seq2
        assert set(seq1) == {0, 1, 2}
        assert _lags_read(p1) == _lags_read(p2) == seq1[:20]

    def test_random_draws_stay_in_a_fractional_range(self):
        # the only whole number in [0.5, 1.5] is 1
        p = DelayProfile(kind="piecewise-random", low=0.5, high=1.5, tau_max=2.0,
                         integer_valued=True)
        assert {integer_delay(p, 0, 1, t) for t in range(200)} == {1}
        with pytest.raises(AdmissibilityError, match="holds no whole number"):
            DelayProfile(kind="piecewise-random", low=0.2, high=0.8, tau_max=1.0,
                         integer_valued=True)

    def test_non_integer_profile_rejected(self):
        p = DelayProfile.constant(0.5, tau_max=1.0)
        with pytest.raises(AdmissibilityError):
            integer_delay(p, 0, 1, 0)
        with pytest.raises(AdmissibilityError):
            _lags_read(p)


def _profiles(integer_valued):
    if integer_valued:
        return [DelayProfile.zero(), DelayProfile.constant(2.0),
                DelayProfile(kind="sinusoidal", tau_max=3.0, mean=1.5,
                             amplitude=1.2, period=7.0, integer_valued=True),
                DelayProfile(kind="piecewise-random", tau_max=3.0, low=0,
                             high=3, seed=9, hold=3.0, integer_valued=True)]
    return [DelayProfile(kind="zero", tau_max=1.0),
            DelayProfile.constant(0.37, tau_max=1.0),
            DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5,
                         amplitude=0.4, period=0.9),
            DelayProfile(kind="piecewise-random", tau_max=1.0, low=0.1,
                         high=0.9, seed=4, hold=0.25)]


class TestOnEdges:
    """The edge-array delays equal the per-edge call bit for bit: zero,
    constant and sinusoidal delays as the one float every arc joining
    distinct agents shares, piecewise-random ones as an (E,) array,
    diagonal pairs included."""

    @staticmethod
    def _edges():
        rng = np.random.default_rng(2)
        ei = rng.integers(0, 6, size=40)
        ej = rng.integers(0, 6, size=40)
        ej[:3] = ei[:3]                      # diagonal pairs read 0
        return ei, ej

    @staticmethod
    def _check(p, at, ei, ej, t):
        """at(t) against p(i, j, t) on every arc; returns at(t)."""
        got = at(t)
        want = np.array([p(int(i), int(j), t) for i, j in zip(ei, ej)])
        if p.kind == "piecewise-random":
            assert got.shape == (len(ei),)
            assert got.tobytes() == want.tobytes()
        else:
            off = ei != ej
            assert type(got) is float
            assert np.full(off.sum(), got).tobytes() == want[off].tobytes()
        return got

    @pytest.mark.parametrize("k", range(4))
    def test_rk4_stages_across_hold_boundaries(self, k):
        # dt = 0.15 against hold 0.25: many steps have stages on both
        # sides of a boundary, and t = 0.25 lands exactly on one
        p = _profiles(integer_valued=False)[k]
        ei, ej = self._edges()
        at = p.on_edges(ei, ej)
        dt = 0.15
        for n in range(12):
            for t in (n * dt, n * dt + dt / 2, n * dt + dt / 2, n * dt + dt):
                self._check(p, at, ei, ej, t)
        self._check(p, at, ei, ej, 0.25)

    @pytest.mark.parametrize("k", range(4))
    def test_integer_steps_across_hold_boundaries(self, k):
        p = _profiles(integer_valued=True)[k]
        ei, ej = self._edges()
        at = p.on_edges(ei, ej)
        off = ei != ej
        for t in list(range(20)) + [4, 17, 0]:   # revisits earlier intervals
            got = np.broadcast_to(self._check(p, at, ei, ej, t), len(ei))
            lags = [integer_delay(p, int(i), int(j), t) for i, j in zip(ei, ej)]
            assert np.rint(got[off]).astype(int).tolist() == np.array(lags)[off].tolist()

    def test_one_draw_per_edge_per_hold_interval(self, monkeypatch):
        p = _profiles(integer_valued=False)[3]
        ei, ej = self._edges()
        calls = []                           # one entry per arc drawn
        held = DelayProfile._held_draws

        def counted(self, ei, ej, t, k):
            calls.extend([t] * len(ei))
            return held(self, ei, ej, t, k)

        monkeypatch.setattr(DelayProfile, "_held_draws", counted)
        at = p.on_edges(ei, ej)
        for t in np.arange(0.0, 1.0, 0.05):      # 20 calls, 4 intervals
            at(t)
        assert len(calls) == 4 * len(ei)

    def test_empty_edge_list(self):
        for p in _profiles(False) + _profiles(True):
            got = p.on_edges([], [])(0.3)
            assert got.shape == (0,) if p.kind == "piecewise-random" else type(got) is float


def _counting_calls(monkeypatch):
    """Patch DelayProfile.__call__ to record its arguments; returns the record."""
    calls = []
    draw = DelayProfile.__call__

    def counted(self, i, j, t):
        calls.append((i, j, t))
        return draw(self, i, j, t)
    monkeypatch.setattr(DelayProfile, "__call__", counted)
    return calls


class TestHeldDraws:
    """The vectorized draw of a hold interval equals ``__call__`` bit for
    bit on every arc: numpy's SeedSequence and PCG64 under the installed
    numpy are the reference."""

    HOLD = 0.5

    @staticmethod
    def _arcs(n_arcs=120, n_agents=200, seed=3):
        rng = np.random.default_rng(seed)
        ei = rng.integers(0, n_agents, size=n_arcs)
        ej = rng.integers(0, n_agents, size=n_arcs)
        ej[:4] = ei[:4]                      # diagonal pairs read 0
        return ei, ej

    @staticmethod
    def _graph_arcs(seed):
        """The 1000 arcs of a 200-agent graph, 5 senders per agent, no self-arcs."""
        ei = np.repeat(np.arange(200), 5)
        return ei, (ei + np.random.default_rng(seed).integers(1, 200, size=1000)) % 200

    def _check(self, p, ei, ej, k):
        t = (k + 0.5) * self.HOLD             # inside hold interval k
        assert math.floor(t / self.HOLD) == k
        got = p.on_edges(ei, ej)(t)
        want = np.array([p(int(i), int(j), t) for i, j in zip(ei, ej)], dtype=float)
        assert got.dtype == np.float64 and got.shape == (len(ei),)
        assert got.tobytes() == want.tobytes()

    def _profile(self, seed, low, high, integer_valued):
        return DelayProfile(kind="piecewise-random", tau_max=float(high), low=low, high=high,
                            seed=seed, hold=self.HOLD, integer_valued=integer_valued)

    # seeds of one, two and three uint32 words; k past the 0x7FFFFFFF mask
    SEEDS = [0, 7, 2 ** 31 - 1, 2 ** 40 + 3, 2 ** 64 + 5]
    HOLDS = [0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 33 + 1]
    # float ranges; integer ranges without rejections, with about half the
    # lanes rejected, of exactly 2**32 values and of more than 2**32 values
    RANGES = [(0.1, 0.9, False), (0.0, 1.0, False), (2.5, 2.5, False), (0.0, 1e-300, False),
              (0, 3, True), (1, 5, True), (0, 2 ** 31, True), (0, 2 ** 32 - 1, True),
              (2 ** 20, 2 ** 20 + 2 ** 33, True)]

    @pytest.mark.parametrize("low, high, integer_valued", RANGES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_arc_matches_the_call(self, seed, low, high, integer_valued):
        p = self._profile(seed, low, high, integer_valued)
        for k in self.HOLDS:
            self._check(p, *self._arcs(), k)
            self._check(p, [], [], k)

    @pytest.mark.parametrize("low, high, rejected", [
        (0.1, 0.9, (0.0, 0.0)), (0, 3, (0.0, 0.0)), (1, 5, (0.0, 0.0)),
        (0, 2 ** 31, (0.3, 0.7)), (0, 2 ** 32 - 1, (0.0, 0.0)), (0, 2 ** 33, (1.0, 1.0))])
    def test_per_arc_calls_only_where_the_kernel_cannot_draw(self, low, high, rejected,
                                                             monkeypatch):
        # [0, 2**31] has 2**31 + 1 values, so Lemire's method rejects about
        # half the lanes; [0, 2**33] has more than 2**32 values, so every lane
        p = self._profile(11, low, high, isinstance(low, int))
        ei, ej = self._graph_arcs(5)
        calls = _counting_calls(monkeypatch)
        p.on_edges(ei, ej)(0.2)
        assert rejected[0] <= len(calls) / len(ei) <= rejected[1]
        self._check(p, ei, ej, 0)

    def test_float_draws_make_no_per_arc_call(self, monkeypatch):
        p = self._profile(0, 0.0, 1.0, False)
        calls = _counting_calls(monkeypatch)
        at = p.on_edges(*self._graph_arcs(1))
        for t in (0.0, 0.3, 0.6, 7.2):
            at(t)
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 100), k=st.integers(-2 ** 40, 2 ** 40),
           arcs=st.lists(st.tuples(st.integers(0, 2 ** 20), st.integers(0, 2 ** 20)),
                         max_size=30),
           integer_valued=st.booleans())
    def test_random_seeds_holds_and_arcs(self, seed, k, arcs, integer_valued):
        p = self._profile(seed, 1, 6, integer_valued)
        ei, ej = (np.array(a, dtype=int).reshape(-1) for a in zip(*arcs)) if arcs else ([], [])
        self._check(p, ei, ej, k)
