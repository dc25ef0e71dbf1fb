import copy
import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delayflock import csvtext, digraph, harness
from delayflock.analysis import CRITICAL, SHORT_RANGE, AnalysisError, SpreadOverflowError
from delayflock.dde import (DiameterSeries, InitialHistory, IntegrationError, Trajectory,
                            integrate)
from delayflock.digraph import Digraph, compute_metrics
from delayflock.harness import (
    CSV_HEADER,
    PRESET_NAMES,
    Scenario,
    ScenarioError,
    load_scenario,
    preset,
    run,
    scenario_from_dict,
    sweep,
)
from delayflock.interaction import DelayProfile, WeightFunction

from oracles import (certificate_reference, diameters_csv_reference, state_table,
                     trajectory_csv_reference)

GOOD_RAW = {
    "graph": {"n": 4, "arcs": [[1, 2], [2, 3], [3, 1], [3, 4]]},
    "model": "continuous",
    "weight": {"type": "cucker-smale", "kappa": 1.0, "beta": 0.25},
    "delay": {"type": "constant", "tau": 1.0},
    "positions": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "velocities": [[1, -2], [3, -4], [5, 6], [-7, -8]],
    "velocity_scale": 0.01,
    "t_end": 5.0,
}


class TestLoading:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(GOOD_RAW))
        s = load_scenario(str(path))
        assert s.graph.n_vertices == 4
        assert s.weight.beta == 0.25
        assert s.delay.tau_max == 1.0
        assert np.allclose(s.velocities, 0.01 * np.asarray(GOOD_RAW["velocities"]))
        assert s.t_end == 5.0
        assert s.dt == 0.01  # default

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"graph": \n !')
        with pytest.raises(ScenarioError, match="bad.json:2"):
            load_scenario(str(path))

    def test_missing_key_named(self):
        raw = {k: v for k, v in GOOD_RAW.items() if k != "velocities"}
        with pytest.raises(ScenarioError, match="velocities"):
            scenario_from_dict(raw)

    def test_shape_mismatch_named(self):
        raw = dict(GOOD_RAW, velocities=[[1, -2], [3, -4], [5, 6]])
        with pytest.raises(ScenarioError, match="shape"):
            scenario_from_dict(raw)

    def test_delay_exceeding_bound_rejected(self):
        raw = dict(GOOD_RAW, delay={"type": "constant", "tau": 1.0, "value": 2.0})
        with pytest.raises(ScenarioError, match="outside"):
            scenario_from_dict(raw)

    def test_unknown_model_rejected(self):
        raw = dict(GOOD_RAW, model="semi-implicit")
        with pytest.raises(ScenarioError, match="model"):
            scenario_from_dict(raw)

    def test_discontinuous_delay_warns(self):
        raw = dict(GOOD_RAW, delay={"type": "piecewise-random", "tau": 1.0,
                                    "seed": 1})
        with pytest.warns(UserWarning, match="discontinuous"):
            scenario_from_dict(raw)

    def test_discrete_model_accepted(self):
        raw = dict(GOOD_RAW, model="discrete",
                   delay={"type": "constant", "tau": 1.0}, h=0.05)
        s = scenario_from_dict(raw)
        assert s.model == "discrete"
        assert s.delay.integer_tau_max == 1


def _numbers(obj, path=()):
    """Paths to every number inside a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, path + (k,))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, path + (i,))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path


def _edit(path, value=None, drop=False):
    raw = copy.deepcopy(GOOD_RAW)
    node = raw
    for k in path[:-1]:
        node = node[k]
    if drop:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return raw


REQUIRED = [("graph",), ("positions",), ("velocities",), ("graph", "n"), ("graph", "arcs")]
SECTIONS = {(): harness.SCENARIO_SCHEMA, ("graph",): harness.GRAPH_SCHEMA,
            ("weight",): harness.SCENARIO_SCHEMA["weight"],
            ("delay",): harness.SCENARIO_SCHEMA["delay"]}
BAD_NUMBERS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), st.text(),
                        st.lists(st.floats(allow_nan=False), max_size=3))


@st.composite
def _unknown_key(draw):
    section = draw(st.sampled_from(sorted(SECTIONS)))
    key = draw(st.text(min_size=1).filter(lambda k: k not in SECTIONS[section]))
    return _edit(section + (key,), draw(st.integers()))


CORRUPTED = st.one_of(
    st.sampled_from(REQUIRED).map(lambda p: _edit(p, drop=True)),
    _unknown_key(),
    st.builds(_edit, st.sampled_from(list(_numbers(GOOD_RAW))), BAD_NUMBERS))


@given(CORRUPTED)
@settings(max_examples=300, deadline=None)
def test_corrupted_scenario_raises_scenario_error_only(raw):
    with pytest.raises(ScenarioError):
        scenario_from_dict(raw)


class TestPresets:
    def test_all_names_build(self):
        assert len(PRESET_NAMES) == 8
        for name in PRESET_NAMES:
            s = preset(name)
            assert s.name == name
            assert s.graph.n_vertices == 4

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            preset("fig9-digraph")

    def test_complete_variant_metrics(self):
        m = compute_metrics(preset("fig2-complete").graph)
        assert m.gamma_g == 1
        assert m.n_infinity == 3

    def test_digraph_variant_metrics(self):
        m = compute_metrics(preset("fig2-digraph").graph)
        assert m.gamma_g == 2
        assert m.n_infinity == 1

    def test_scaled_presets_sit_on_thresholds(self):
        s2 = preset("fig2-digraph")
        assert float(np.abs(s2.velocities).max()) == pytest.approx(
            8 * math.exp(-10) / (672 * math.sqrt(2)), rel=1e-12)
        s4 = preset("fig4-digraph")
        assert s4.weight.beta == 17 / 32
        s5 = preset("fig5-digraph")
        assert s5.t_end == 20.0
        assert np.allclose(s5.velocities,
                           [[1, -2], [3, -4], [5, 6], [-7, -8]])


class TestRun:
    def test_certified_preset_runs_clean(self, tmp_path):
        s = preset("fig2-digraph").replace(t_end=6.0)
        rep = run(s, out_dir=str(tmp_path))
        assert rep.certificate is not None
        assert rep.certificate.guaranteed
        assert rep.certificate.regime == CRITICAL
        assert rep.monotonicity
        assert rep.decay
        assert rep.positions_check
        assert len(rep.csv_paths) == 3
        for p in rep.csv_paths:
            with open(p) as f:
                first = f.readline().strip()
            if p.endswith(".csv"):
                assert first == CSV_HEADER

    def test_short_range_preset_certified(self):
        s = preset("fig4-digraph").replace(t_end=6.0)
        rep = run(s)
        assert rep.certificate.guaranteed
        assert rep.certificate.regime == SHORT_RANGE
        assert rep.certificate.rho == pytest.approx(2.0, rel=1e-12)

    def test_uncertified_preset_still_simulates(self):
        s = preset("fig5-digraph").replace(t_end=3.0)
        rep = run(s)
        assert not rep.certificate.guaranteed
        assert rep.decay is None
        assert rep.positions_check is None
        assert rep.final_spread > 0

    def test_single_agent_degenerate(self):
        s = Scenario(name="solo", model="continuous",
                     graph=Digraph.from_arc_list(1, []),
                     weight=WeightFunction(kind="constant", kappa=1.0),
                     delay=DelayProfile.zero(),
                     positions=np.array([[0.0, 0.0]]),
                     velocities=np.array([[1.0, 1.0]]), t_end=1.0)
        rep = run(s)
        assert rep.certificate is None
        assert rep.no_certificate == "degenerate graph"
        assert rep.final_spread == 0.0
        assert rep.flocked
        assert rep.time_to_tolerance == 0.0

    @pytest.mark.parametrize("model", ["continuous", "discrete"])
    def test_refused_certificate_reports_its_own_reason(self, model):
        # a library Scenario that skipped validate_scenario: the rho refusal is
        # the reason, not "degenerate graph"
        s = preset("fig2-digraph").replace(rho=-1.0, model=model, h=0.1, t_end=3.0)
        rep = run(s)
        assert rep.certificate is None
        assert rep.no_certificate == "rho must be positive, got -1"
        # a graph without a spanning tree keeps its text
        rep = run(s.replace(rho=None, graph=Digraph.from_arc_list(4, [])))
        assert rep.no_certificate == "degenerate graph"

    def test_overflowing_spread_is_refused_not_run_uncertified(self):
        # X(0) overflows to inf; the run must not go on as a "degenerate graph"
        s = Scenario(name="far", model="continuous", graph=Digraph.complete(2),
                     weight=WeightFunction(kind="constant", kappa=1.0),
                     delay=DelayProfile.constant(1.0), positions=np.array([[0.0], [1e200]]),
                     velocities=np.array([[0.0], [1.0]]), t_end=1.0, dt=0.1)
        assert not issubclass(SpreadOverflowError, AnalysisError)
        for model in ("continuous", "discrete"):
            with pytest.raises(SpreadOverflowError, match="^initial spreads overflow: "
                                                          "D\\(0\\) = 1, X\\(0\\) = inf;"):
                run(s.replace(model=model, h=0.1))

    def test_discrete_run(self):
        s = Scenario(name="pair", model="discrete",
                     graph=Digraph.complete(2),
                     weight=WeightFunction(kind="cucker-smale", kappa=1.0,
                                           beta=0.5),
                     delay=DelayProfile(kind="zero", tau_max=0.0,
                                        integer_valued=True),
                     positions=np.array([[0.0], [1.0]]),
                     velocities=np.array([[0.0], [0.1]]),
                     h=0.1, t_end=100)
        rep = run(s)
        assert rep.certificate.guaranteed
        assert rep.monotonicity
        assert rep.decay
        assert rep.final_spread < 0.1


def _percent17(values) -> list[bytes]:
    return [b"%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _format17_texts(values) -> list[bytes]:
    cells = csvtext.format17(values)
    assert cells.shape == np.shape(values) + (csvtext.CELL,) and cells.dtype == np.uint8
    return [bytes(c).replace(b"\0", b"") for c in cells.reshape(-1, csvtext.CELL)]


def _format17_cases(kind: str, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "bits":   # every exponent: subnormals, nan payloads, both zeros and inf
        return np.r_[rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(float),
                     0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
    if kind == "magnitudes":   # |x| in [1e-6, 1e18), mostly on the fixed-notation path
        return rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-6, 18, 20000)
    if kind == "powers":   # 10^j, by pow and by the decimal literal, and their neighbours
        p = np.r_[10.0 ** np.arange(-5, 19), [float(f"1e{j}") for j in range(-5, 19)]]
        p = np.r_[p, np.nextafter(p, 0), np.nextafter(p, math.inf)]
        return np.r_[p, -p]
    if kind == "ties4":   # m / 4 in [1e15, 2^50): ...25 and ...75 round to even
        return rng.integers(4 * 10 ** 15, 2 ** 52, 20000) / 4
    if kind == "ties8":   # m / 8 in [1e13, 2^47): x * 100 ends in .5 for every odd m
        return rng.integers(8 * 10 ** 13, 2 ** 50, 20000) / 8
    if kind == "integers":   # 17 digits, no point
        return rng.integers(10 ** 16, 10 ** 17, 20000).astype(float)
    if kind == "zeros":   # texts whose 17 digits end in zeros, stripped with or before the point
        texts = []
        for k in range(-4, 17):
            # 1 to 16 trailing zeros: 17 - z digits, the last nonzero, then z zeros
            for z in range(1, 17):
                m = int(rng.integers(10 ** (16 - z), 10 ** (17 - z)))
                texts.append(f"{m - m % 10 + int(rng.integers(1, 10))}e{k - 16 + z}")
            # a run of zeros ending on each 4-digit group boundary, digits after it
            for end in (4, 8, 12, 16):
                for run in range(1, end + 1):
                    digits = rng.integers(1, 10, 17).astype(str)
                    digits[end - run + 1:end + 1] = "0"
                    texts.append(f"{''.join(digits)}e{k - 16}")
        values = np.array([float(t) for t in texts])
        whole = np.round(10.0 ** rng.uniform(0, 16, 2000))   # whole numbers up to 1e16
        halves = np.floor(10.0 ** rng.uniform(0, 15, 2000)) + rng.choice([0.5, 0.25, 0.75], 2000)
        values = np.r_[values, whole, halves, 1e16, 9999.0, 10000.0, 12.5, 0.25, 1e-4]
        return np.r_[values, -values]
    if kind == "signed-zeros":   # mostly 0 and -0, among fixed, scientific, inf and nan
        values = rng.choice([0.0, -0.0], 4096)
        some = rng.random(4096) < 0.2
        values[some] = rng.choice([-1.0, 1.0], some.sum()) * 10.0 ** rng.uniform(-30, 30,
                                                                                 some.sum())
        values[rng.integers(0, 4096, 40)] = rng.choice([math.inf, -math.inf, math.nan], 40)
        return np.r_[values, np.zeros(4096), -np.zeros(4096)]
    raise ValueError(kind)


class TestFormat17:
    """csvtext.format17 gives the bytes of '%.17g' % x, cell by cell."""

    @pytest.mark.parametrize("kind", ["bits", "magnitudes", "powers", "ties4", "ties8",
                                      "integers", "zeros", "signed-zeros"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_percent_formatting(self, kind, seed):
        values = _format17_cases(kind, seed)
        assert _format17_texts(values) == _percent17(values)

    @pytest.mark.parametrize("x, text", [
        (1000000000000000.25, b"1000000000000000.2"), (1000000000000000.75,
                                                        b"1000000000000000.8"),
        (0.5, b"0.5"), (-2.5, b"-2.5"), (1e-4, b"0.0001"), (-1e-5, b"-1.0000000000000001e-05"),
        (1e16, b"10000000000000000"), (1e17, b"1e+17"), (0.1, b"0.10000000000000001"),
        (-0.0, b"-0"), (0.0, b"0"), (123.0, b"123"), (-math.inf, b"-inf")])
    def test_known_texts(self, x, text):
        assert _format17_texts(np.array([x])) == [text] == _percent17([x])

    def test_shape_and_empty_input(self):
        assert csvtext.format17(np.zeros((2, 3))).shape == (2, 3, csvtext.CELL)
        assert csvtext.format17(np.array([])).shape == (0, csvtext.CELL)


class TestCsvFormat:
    """The writers give, byte for byte, the text of the per-cell reference
    writer in tests/oracles.py."""

    SPECIAL = [-0.0, math.inf, -math.inf, math.nan, 5e-324]

    def _table(self, shape, seed):
        a = np.random.default_rng(seed).normal(size=shape).ravel()
        k = min(a.size, len(self.SPECIAL))
        a[:k] = self.SPECIAL[:k]
        return a.reshape(shape)

    def test_special_values(self, tmp_path):
        times = np.array([-1.0, -0.0, 5e-324, 0.1, math.nan])
        traj = Trajectory(times=times, ys=state_table(self._table((5, 3, 2), 0),
                                                      self._table((5, 3, 2), 1)), dt=1.0, n_hist=1)
        spread_k = self._table((5, 2), 2)
        series = DiameterSeries(times=times, vbar=self._table((5, 2), 3),
                                vund=self._table((5, 2), 4), spread_k=spread_k,
                                spread=spread_k.max(axis=1))
        harness.write_trajectory_csv(traj, str(tmp_path / "t.csv"))
        harness.write_diameters_csv(series, str(tmp_path / "d.csv"))
        text = (tmp_path / "t.csv").read_bytes()
        assert text == trajectory_csv_reference(traj).encode()
        assert (tmp_path / "d.csv").read_bytes() == diameters_csv_reference(series).encode()
        for cell in (b"-0,", b",inf", b",-inf", b",nan", b"4.9406564584124654e-324,", b"0.10000000000000001,"):
            assert cell in text

    def _written(self, traj, tmp_path) -> bytes:
        harness.write_trajectory_csv(traj, str(tmp_path / "t.csv"))
        return (tmp_path / "t.csv").read_bytes()

    def _rows(self, *cells, d=1):
        """A trajectory whose m-th time row holds cells[m] in every x and v cell."""
        table = np.array(cells, dtype=float)[:, None, None] * np.ones((1, 2, d))
        return Trajectory(times=np.arange(len(cells), dtype=float),
                          ys=state_table(table, table.copy()), dt=1.0, n_hist=0)

    def test_rows_apart_only_by_the_sign_of_zero(self, tmp_path):
        # equal to array_equal, apart as bytes: each row is formatted anew
        traj = self._rows(0.0, -0.0, -0.0, 0.0, 0.0)
        text = self._written(traj, tmp_path)
        assert text == trajectory_csv_reference(traj).encode()
        assert text.count(b",-0,-0\n") == 4 and text.count(b",0,0\n") == 6

    def test_repeated_rows_take_special_times(self, tmp_path):
        # one (x, v) table throughout: each row is the first row's text with its own t
        traj = self._rows(*[1.5] * 7, d=2)
        traj.times = np.array([-1e-05, -0.0, 0.0, 5e-324, math.nan, -math.inf, 0.1])
        text = self._written(traj, tmp_path)
        assert text == trajectory_csv_reference(traj).encode()
        for t in (b"-1.0000000000000001e-05", b"-0", b"0", b"4.9406564584124654e-324",
                  b"nan", b"-inf", b"0.10000000000000001"):
            assert text.count(b"\n%s,0,1.5,1.5,1.5,1.5\n" % t) == 1

    def test_repeated_rows_of_nan(self, tmp_path):
        traj = self._rows(math.nan, math.nan, 1.0, math.nan, -math.inf, -math.inf)
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()

    def test_constant_history_rows_repeat(self, tmp_path):
        # the n_hist + 1 rows up to t = 0 hold the same (x, v) bytes
        traj = run(preset("fig2-digraph").replace(t_end=1.0, dt=0.1)).trajectory
        first = traj.xs[0].tobytes() + traj.vs[0].tobytes()
        assert all(traj.xs[m].tobytes() + traj.vs[m].tobytes() == first
                   for m in range(traj.n_hist + 1))
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()

    def test_blocks_that_only_repeat_format_nothing(self, tmp_path, monkeypatch):
        # 256 agents in 2 dimensions: 4 time rows a block, so the 16 rows of
        # a constant history up to t = 0 fill three blocks of repeats alone
        n = 256
        g = Digraph.from_arc_list(n, [(i, (i + 1) % n) for i in range(n)])
        rng = np.random.default_rng(3)
        hist = InitialHistory.constant(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)),
                                       tau=1.5)
        traj = integrate(hist, g, WeightFunction(kind="cucker-smale", beta=0.5),
                         DelayProfile.constant(1.5), t_end=0.5, dt=0.1)
        assert traj.n_hist == 15 and csvtext.BLOCK // (2 * n * 2) == 4
        formatted = []

        def spy(values):
            formatted.append(len(values))
            return csvtext.format17(values)
        monkeypatch.setattr(harness, "format17", spy)
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()
        # blocks from rows 0 and 16 on: the first row, then the rows after t = 0
        assert formatted == [1, 4, 1]

    def test_sampled_history_run(self, tmp_path):
        s = preset("fig2-digraph")
        times = np.array([-1.0, -0.5, 0.0])
        xs = s.positions + times[:, None, None] * s.velocities
        vs = s.velocities * (1.0 + times[:, None, None])
        traj = integrate(InitialHistory.from_samples(times, xs, vs), s.graph, s.weight,
                         s.delay, t_end=0.5, dt=0.1)
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()

    @pytest.mark.parametrize("n, d", [(3, 1), (3, 3), (1, 2), (1, 1)])
    def test_dimensions_and_single_agent(self, n, d, tmp_path):
        traj = Trajectory(times=np.linspace(-0.5, 1.0, 4), ys=state_table(
            self._table((4, n, d), 5), self._table((4, n, d), 6)), dt=0.5, n_hist=1)
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.lists(st.integers(0, 3), min_size=1,
                                                          max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_runs_of_repeated_rows(self, tmp_path_factory, n, d, picks, seed):
        # every row is one of four random (x, v) tables, so runs of repeats come often
        pool = self._table((4, 2, n, d), seed)
        pool[2, 0, 0, 0] = 0.0
        pool[3] = pool[2]
        pool[3, 0, 0, 0] = -0.0   # table 3 is table 2 but for the sign of one zero
        traj = Trajectory(times=np.arange(len(picks)) * 0.1,
                          ys=state_table(pool[picks, 0], pool[picks, 1]), dt=0.1, n_hist=0)
        tmp_path = tmp_path_factory.mktemp("csv")
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()

    @pytest.mark.parametrize("n, d", [(1, 3000), (3000, 1)])
    def test_row_wider_than_a_block(self, n, d, tmp_path):
        # one time row of 6000 floats is one block of its own
        assert 2 * n * d > csvtext.BLOCK
        xs, vs = self._table((3, n, d), 9), self._table((3, n, d), 10)
        xs[1], vs[1] = xs[0], vs[0]
        traj = Trajectory(times=np.array([-1.0, 0.0, 0.5]), ys=state_table(xs, vs), dt=0.5,
                          n_hist=1)
        assert self._written(traj, tmp_path) == trajectory_csv_reference(traj).encode()
        # and a diameters row of 2 + 3 * 1500 cells
        spread_k = self._table((2, 1500), 11)
        series = DiameterSeries(times=np.array([0.0, 0.5]), vbar=self._table((2, 1500), 12),
                                vund=self._table((2, 1500), 13), spread_k=spread_k,
                                spread=spread_k.max(axis=1))
        harness.write_diameters_csv(series, str(tmp_path / "d.csv"))
        assert (tmp_path / "d.csv").read_bytes() == diameters_csv_reference(series).encode()

    def test_repeats_across_block_boundaries(self, tmp_path, monkeypatch):
        # rows A B | B B | C C | B, two time rows a block, C being B but for one -0.0:
        # the repeats of B span two blocks, and only A, B, C and B again are formatted;
        # the block of repeats alone formats nothing
        n = csvtext.BLOCK // 4
        a, b = self._table((2, 2, n, 1), 14)
        b[0, 0, 0] = 0.0
        c = b.copy()
        c[0, 0, 0] = -0.0
        rows = np.array([a, b, b, b, c, c, b])
        traj = Trajectory(times=np.arange(7) * 0.25, ys=state_table(rows[:, 0], rows[:, 1]),
                          dt=0.25, n_hist=0)
        formatted = []
        monkeypatch.setattr(harness, "format17",
                            lambda v: formatted.append(v.size) or csvtext.format17(v))
        text = self._written(traj, tmp_path)
        assert text == trajectory_csv_reference(traj).encode()
        assert formatted == [2 * 2 * n, 2 * n, 2 * n]
        for t, x in ((b"0.75", b"0"), (b"1", b"-0"), (b"1.25", b"-0"), (b"1.5", b"0")):
            assert text.count(b"\n%s,0,%s," % (t, x)) == 1

    def test_one_time_row_held_at_a_time(self, tmp_path):
        # 200 agents x 1000 rows is about 22 MB of text; the writer holds one block of it
        traj = Trajectory(times=np.linspace(-1.0, 10.0, 1000),
                          ys=state_table(self._table((1000, 200, 2), 7),
                                         self._table((1000, 200, 2), 8)), dt=0.011, n_hist=0)
        tracemalloc.start()
        try:
            harness.write_trajectory_csv(traj, str(tmp_path / "t.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "t.csv").stat().st_size > 20e6
        assert peak < 4e6

    def test_preset_files(self, tmp_path):
        rep = run(preset("fig2-digraph"), str(tmp_path))
        refs = (trajectory_csv_reference(rep.trajectory),
                diameters_csv_reference(rep.diameter_series),
                certificate_reference(rep.certificate.as_dict()))
        assert len(rep.csv_paths) == len(refs)
        for path, ref in zip(rep.csv_paths, refs):
            with open(path, "rb") as f:
                assert f.read() == ref.encode(), path


class TestSweep:
    def template(self):
        return preset("fig2-digraph").replace(t_end=3.0, dt=0.05)

    def test_empty_axes_single_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        reports = sweep(self.template(), {}, out_path=str(out))
        assert len(reports) == 1
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # header comment + column row + one point

    def test_grid_order_and_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        axes = {"beta": [0.2, 0.3], "scale": [0.5, 1.0, 2.0]}
        reports = sweep(self.template(), axes, out_path=str(out))
        assert len(reports) == 6
        lines = out.read_text().splitlines()
        cols = lines[1].split(",")
        assert cols[:2] == ["beta", "scale"]
        assert "verdict" in cols and "delta" in cols
        assert len(lines) == 2 + 6
        # row order follows the axis product, last axis fastest
        first_betas = [float(r.split(",")[0]) for r in lines[2:]]
        assert first_betas == [0.2, 0.2, 0.2, 0.3, 0.3, 0.3]

    @pytest.mark.parametrize("model", ["continuous", "discrete"])
    def test_certificate_keys_that_are_axes_get_their_own_columns(self, tmp_path, model):
        # the axis keeps its name and the certificate's value is cert_<key>,
        # so every column name is unique
        template, axes = self.template(), {"beta": [0.3], "kappa": [0.5], "h": [0.25]}
        if model == "discrete":
            template = template.replace(model="discrete", t_end=20.0)
        else:
            del axes["h"]   # only the discrete model reads h
        out = tmp_path / "sweep.csv"
        sweep(template, axes, out_path=str(out))
        cols, row = (line.split(",") for line in out.read_text().splitlines()[1:])
        assert len(set(cols)) == len(cols)
        assert cols[:len(axes)] == list(axes)
        cell = dict(zip(cols, row))
        assert cell["cert_beta"] == cell["beta"] and cell["cert_kappa"] == cell["kappa"]
        if model == "discrete":
            assert cell["cert_h"] == cell["h"]
        else:   # the continuous certificate's h column stays empty
            assert cell["h"] == "" and "cert_h" not in cols
        assert "tau" in cols and "cert_tau" not in cols

    def test_unknown_axis(self):
        with pytest.raises(ScenarioError):
            sweep(self.template(), {"viscosity": [1.0]})

    def test_axis_without_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        with pytest.raises(ScenarioError, match="^sweep axis 'beta' has no values$"):
            sweep(self.template(), {"scale": [1.0], "beta": []}, out_path=str(out))
        assert not out.exists()

    def test_tau_axis_needs_a_constant_delay(self):
        # the axis sets DelayProfile.constant(tau); on a time-varying template
        # it would run another delay than the template's without a word
        for delay in (DelayProfile(kind="piecewise-random", tau_max=1.0, high=1.0, seed=3,
                                   hold=0.5),
                      DelayProfile(kind="sinusoidal", tau_max=1.0, mean=0.5, amplitude=0.5)):
            with pytest.raises(ScenarioError, match="^sweep axis 'tau' needs a constant "
                                                    f"delay, not {delay.kind}$"):
                sweep(self.template().replace(delay=delay), {"tau": [1.0]})
        for delay in (DelayProfile.zero(), DelayProfile.constant(1.0)):
            rep, = sweep(self.template().replace(delay=delay), {"tau": [0.5]})
            assert rep.scenario.delay == DelayProfile.constant(0.5)

    def test_scale_axis_overflow_is_refused(self):
        s = self.template().replace(velocities=np.array(harness.BASE_VELOCITIES))
        with pytest.raises(ScenarioError, match="^velocity scale 1e\\+308 overflows"):
            sweep(s, {"scale": [1e308]})
        with pytest.raises(ScenarioError, match="^velocity scale nan overflows"):
            sweep(s, {"scale": [math.nan]})

    def batch_sizes(self, monkeypatch):
        sizes = []
        integrate = harness.integrate

        def counted(history, *args, **kwargs):
            sizes.append(len(history))
            return integrate(history, *args, **kwargs)

        monkeypatch.setattr(harness, "integrate", counted)
        return sizes

    def test_batched_points_match_single_runs(self, monkeypatch):
        sizes = self.batch_sizes(monkeypatch)
        axes = {"beta": [0.0, 0.25, 0.5, 17 / 32, 1.0], "kappa": [0.5, 1.0],
                "scale": [1e-3, 30.0]}
        reports = sweep(self.template(), axes)
        assert sizes == [20]
        for rep in reports:
            assert_same(rep, run(rep.scenario))
        assert sizes == [20] + [1] * 20

    def test_tau_axis_gives_groups_of_one(self, monkeypatch):
        sizes = self.batch_sizes(monkeypatch)
        reports = sweep(self.template(), {"tau": [0.5, 1.0, 0.25]})
        assert sizes == [1, 1, 1]
        reports += sweep(self.template(), {"tau": [0.5, 1.0], "beta": [0.2, 0.6]})
        assert sizes == [1, 1, 1, 2, 2]
        for rep in reports:
            assert_same(rep, run(rep.scenario))

    def test_blow_up_names_its_point(self):
        # a constant weight with kappa*dt = 50 makes RK4 grow the second
        # point past its guard within a few steps; the first stays bounded
        with pytest.raises(IntegrationError, match=r"^fig2-digraph@beta=0,kappa=1000: "
                           r"solution blew up at t = "):
            sweep(self.template(), {"beta": [0.0], "kappa": [1.0, 1000.0]})

    def test_graph_constants_once_per_graph(self, monkeypatch):
        # every point of a beta sweep certifies on the template's graph,
        # whose frontier closure ends in one reverse search for the roots
        searches = []
        bfs = digraph._bfs
        monkeypatch.setattr(digraph, "_bfs", lambda *args: searches.append(args) or bfs(*args))
        n = 50
        arcs = [[i + 1, (i + 1) % n + 1] for i in range(n)] + [[1, k] for k in range(3, n, 7)]
        rng = np.random.default_rng(4)
        s = scenario_from_dict({"graph": {"n": n, "arcs": arcs},
                                "delay": {"type": "constant", "tau": 1.0},
                                "positions": rng.normal(size=(n, 2)).tolist(),
                                "velocities": rng.normal(size=(n, 2)).tolist(),
                                "t_end": 0.5, "dt": 0.05})
        reports = sweep(s, {"beta": [0.1, 0.4, 1.0]})
        assert len(searches) == 1
        assert {r.certificate.params.gamma_g for r in reports} == {compute_metrics(
            Digraph(s.graph.n_vertices, s.graph.arc_list)).gamma_g}

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        axes = {"scale": [0.5, 1.5]}
        sweep(self.template(), axes, out_path=str(a))
        sweep(self.template(), axes, out_path=str(b))
        assert a.read_bytes() == b.read_bytes()


def assert_same(a, b, path="report"):
    """a and b agree bit for bit, field by field."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), path
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b), path
        for k, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{path}[{k}]")
    elif isinstance(a, float):
        assert struct.pack("d", a) == struct.pack("d", b), path
    else:
        assert a == b, path
