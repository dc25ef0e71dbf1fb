"""Scenario configuration, reference-experiment presets, and reporting.

A Scenario bundles graph, weight, delays, initial data, and run
controls; ``run`` executes the certificate check, the matching
simulation, the window diagnostics, and (for certified runs) the decay
and position-bound verifications, emitting CSVs on request.  ``sweep``
evaluates a grid of scenario variants and writes one row per point.

Presets ``fig2-*`` .. ``fig5-*`` reproduce the four published
experiments: four agents in the plane on a small digraph (arcs 1->2,
2->3, 3->1, 3->4) or all-to-all, unit delay on every edge, and initial
velocities scaled to sit on, under, or far above the flocking
threshold.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import sys
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import analysis as an
from .csvtext import BLOCK, format17, join_cells
from .dde import (InitialHistory, IntegrationError, Trajectory, check_monotone_diameter,
                  diameters, integrate)
from .digraph import Digraph, label_pairs
from .discrete import StabilityGateError, discrete_diameters, simulate_discrete
from .interaction import DelayProfile, WeightFunction

CSV_HEADER = "# delayflock-csv v1"
OUTPUT_DIR_ENV = "DELAYFLOCK_OUT"

BASE_POSITIONS = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
BASE_VELOCITIES = [[1.0, -2.0], [3.0, -4.0], [5.0, 6.0], [-7.0, -8.0]]
FIG_DIGRAPH_ARCS = [[1, 2], [2, 3], [3, 1], [3, 4]]   # [sender, receiver], 1-based
FIG2_SCALE = math.exp(-10) / (672 * math.sqrt(2))
FIG4_SCALE = math.exp(-10) / (7056 * math.sqrt(2))

PRESET_NAMES = tuple(f"fig{k}-{v}" for k in (2, 3, 4, 5)
                     for v in ("digraph", "complete"))


class ScenarioError(ValueError):
    """Scenario file failed parsing or validation."""


@dataclass(frozen=True)
class Scenario:
    name: str
    model: str                      # "continuous" | "discrete"
    graph: Digraph
    weight: WeightFunction
    delay: DelayProfile
    positions: np.ndarray           # (N, d)
    velocities: np.ndarray          # (N, d)
    dt: float = 0.01
    h: float = 0.05
    t_end: float = 50.0
    rho: float | None = None
    flock_tol: float = 1e-6
    unsafe_h: bool = False

    def replace(self, **kw) -> "Scenario":
        return dataclasses.replace(self, **kw)

    def initial_history(self) -> InitialHistory:
        return InitialHistory.constant(self.positions, self.velocities,
                                       tau=self.delay.tau_max)


@dataclass
class RunReport:
    scenario: Scenario
    certificate: an.FlockingCertificate | None
    trajectory: Trajectory
    diameter_series: object
    final_spread: float
    time_to_tolerance: float | None
    monotonicity: object
    decay: an.DecayReport | None
    positions_check: an.PositionBoundReport | None
    csv_paths: tuple = ()
    no_certificate: str = ""     # why certificate is None

    @property
    def flocked(self) -> bool:
        return self.time_to_tolerance is not None

    @property
    def bound_broken(self) -> bool:
        """A certified run broke its decay or its position bound: a defect."""
        return (self.decay is not None and not self.decay
                or self.positions_check is not None and not self.positions_check)


# what a scenario key holds: a Kind (parse: the builders' value, or None) or a nested schema
Kind = namedtuple("Kind", "text parse")


def _float_table(v):
    a = np.asarray(v)
    return a.astype(float) if a.dtype.kind in "iuf" and np.isfinite(a).all() else None


NUMBER = Kind("a finite number", lambda v: v if isinstance(v, (int, float))   # and no huge int
              and not isinstance(v, bool) and abs(v) <= sys.float_info.max else None)
COUNT = Kind("a nonnegative integer", lambda v: v if type(v) is int and v >= 0 else None)
FLAG = Kind("true or false", lambda v: v if isinstance(v, bool) else None)
TEXT = Kind("a string", lambda v: v if isinstance(v, str) else None)
OBJECT = Kind("a JSON object", lambda v: v if isinstance(v, dict) else None)
TABLE = Kind("a table of finite numbers", _float_table)
ARCS = Kind("a list of [sender, receiver] integer pairs",   # parsed as from_arc_list takes them
            lambda v: label_pairs(labels) if isinstance(v, list)
            and all(map(isinstance, v, itertools.repeat(list))) and {*map(len, v)} <= {2}
            and {*map(type, labels := [*itertools.chain.from_iterable(v)])} <= {int} else None)
GRAPH_SCHEMA = {"n": COUNT, "arcs": ARCS, "complete": FLAG}
SCENARIO_SCHEMA = {
    "graph": OBJECT,    # parse_graph checks it against GRAPH_SCHEMA
    "model": TEXT,
    "weight": {"type": TEXT, "kappa": NUMBER, "beta": NUMBER, "normalize_by": NUMBER,
               "r": TABLE, "values": TABLE},
    "delay": {"type": TEXT, "tau": NUMBER, "integer": FLAG, "value": NUMBER,
              "mean": NUMBER, "amplitude": NUMBER, "period": NUMBER, "seed": COUNT,
              "hold": NUMBER, "low": NUMBER, "high": NUMBER},
    "positions": TABLE, "velocities": TABLE, "velocity_scale": NUMBER, "dt": NUMBER,
    "h": NUMBER, "t_end": NUMBER, "rho": NUMBER, "flock_tol": NUMBER, "unsafe_h": FLAG,
}


def _check(cfg, schema: dict, where: str = "") -> dict:
    """cfg, each value parsed by its kind, nested objects likewise; ScenarioError unless
    cfg is an object whose keys the schema knows, each holding a value of its kind."""
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where.rstrip('.') or 'scenario'} must be a JSON object")
    parsed = {}
    for key, value in cfg.items():
        if key not in schema:
            import difflib   # error path only, so not paid at import time
            near = difflib.get_close_matches(key, list(schema), n=1, cutoff=0.0)[0]
            raise ScenarioError(f"unknown scenario key {where + key!r}; "
                                f"did you mean {where + near!r}?")
        kind = schema[key]
        parsed[key] = (_check(value, kind, where + key + ".") if isinstance(kind, dict)
                       else kind.parse(value))
        if parsed[key] is None:
            raise ScenarioError(f"scenario key {where + key!r} must be {kind.text}, "
                                f"got {value!r:.60}")
    return parsed


def read_json(path: str) -> dict:
    """The JSON object in a file; a file that cannot be read or does not
    hold a JSON object is a ScenarioError naming the path."""
    try:
        with open(path) as f:
            raw = json.load(f)
    except json.JSONDecodeError as e:
        raise ScenarioError(f"{path}:{e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ScenarioError(f"{path}: not UTF-8 text ({e.reason})") from e
    except OSError as e:
        raise ScenarioError(f"{path}: {e.strerror}") from e
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: expected a JSON object")
    return raw


def parse_graph(cfg) -> Digraph:
    """The graph object of a scenario: ``{"n": N, "complete": true}`` or
    ``{"n": N, "arcs": [[sender, receiver], ...]}`` with 1-based labels."""
    cfg = _check(cfg, GRAPH_SCHEMA, "graph.")
    if "n" not in cfg or not (cfg.get("complete") or "arcs" in cfg):
        raise ScenarioError("graph needs 'n' and, unless complete, 'arcs'")
    if cfg.get("complete"):
        return Digraph.complete(cfg["n"])
    return Digraph.from_arc_list(cfg["n"], cfg["arcs"], one_based=True)


def _build_weight(cfg: dict) -> WeightFunction:
    kind = cfg.get("type", "cucker-smale")
    if kind == "tabulated-custom":
        return WeightFunction(kind="tabulated", kappa=cfg["kappa"], table_r=cfg["r"],
                              table_v=cfg["values"])
    return WeightFunction(kind=kind, kappa=cfg.get("kappa", 1.0),
                          beta=cfg.get("beta", 0.0),
                          normalize_by=cfg.get("normalize_by"))


def _build_delay(cfg: dict, integer_valued: bool = False) -> DelayProfile:
    kind = cfg.get("type", "zero")
    tau = cfg.get("tau", 0.0)
    common = dict(tau_max=tau, integer_valued=integer_valued or cfg.get("integer", False))
    if kind == "zero":
        return DelayProfile(kind="zero", tau_max=0.0,
                            integer_valued=common["integer_valued"])
    if kind == "constant":
        return DelayProfile(kind="constant", value=cfg.get("value", tau), **common)
    if kind == "sinusoidal":
        return DelayProfile(kind="sinusoidal", mean=cfg.get("mean", tau / 2),
                            amplitude=cfg.get("amplitude", tau / 2),
                            period=cfg.get("period", 1.0), **common)
    if kind == "piecewise-random":
        return DelayProfile(kind="piecewise-random", seed=cfg.get("seed", 0),
                            hold=cfg.get("hold", 1.0), low=cfg.get("low", 0.0),
                            high=cfg.get("high", tau), **common)
    raise ScenarioError(f"unknown delay type {kind!r}")


def load_scenario(path: str, **overrides) -> Scenario:
    """Parse and fully validate a JSON scenario file, its top-level keys
    replaced by ``overrides`` first so that they are checked alike."""
    return scenario_from_dict({**read_json(path), **overrides}, name=os.path.basename(path))


def scenario_from_dict(raw: dict, name: str = "scenario") -> Scenario:
    """Build and fully validate a scenario from its JSON object; every
    fault of the input, a value of the wrong kind among them, is a
    ScenarioError."""
    try:
        cfg = _check(raw, SCENARIO_SCHEMA)
        graph = parse_graph(cfg["graph"])
        model = cfg.get("model", "continuous")
        if model not in ("continuous", "discrete"):
            raise ScenarioError(f"model must be continuous or discrete, got {model!r}")
        weight = _build_weight(cfg.get("weight", {}))
        delay = _build_delay(cfg.get("delay", {}), integer_valued=(model == "discrete"))
        positions = cfg["positions"]
        velocities = _scaled(cfg["velocities"], cfg.get("velocity_scale", 1.0))
    except KeyError as e:
        raise ScenarioError(f"missing scenario key {e.args[0]!r}") from e
    except ScenarioError:
        raise
    except (TypeError, ValueError) as e:   # GraphError and AdmissibilityError too
        raise ScenarioError(str(e)) from e
    s = Scenario(name=name, model=model, graph=graph, weight=weight, delay=delay,
                 positions=positions, velocities=velocities,
                 **{k: cfg[k] for k in ("dt", "h", "t_end", "rho", "flock_tol", "unsafe_h")
                    if k in cfg})
    validate_scenario(s)
    return s


def validate_scenario(s: Scenario):
    n = s.graph.n_vertices
    if s.positions.ndim != 2 or s.positions.shape[0] != n or s.positions.shape[1] < 1:
        raise ScenarioError(
            f"positions table must be {n} x d with d >= 1, got shape {s.positions.shape}")
    if s.velocities.shape != s.positions.shape:
        raise ScenarioError(
            f"velocities table must match positions shape {s.positions.shape}, "
            f"got {s.velocities.shape}")
    if s.model == "discrete" and s.t_end < 0:
        raise ScenarioError(f"horizon must be nonnegative, got {s.t_end:g}")
    if s.model == "discrete" and not float(s.t_end).is_integer():
        raise ScenarioError(f"discrete horizon must be a whole number of steps, "
                            f"got {s.t_end:g}")
    if s.rho is not None and not s.rho > 0:
        raise ScenarioError(f"rho must be positive, got {s.rho:g}")
    if not s.flock_tol > 0:
        raise ScenarioError(f"flock_tol must be positive, got {s.flock_tol:g}")
    if not (rep := s.weight.admissibility):
        raise ScenarioError(f"weight is not admissible: {rep.violations[0]}")
    if s.model == "continuous" and not s.delay.continuous_in_t:
        warnings.warn("discontinuous delay profile used with the continuous "
                      "integrator; accuracy near jumps is degraded",
                      stacklevel=2)


def preset(name: str) -> Scenario:
    """Reference experiment configurations (continuous model).

    fig2: velocities scaled onto the certified threshold, beta = 1/4.
    fig3: same data unscaled (condition violated, still flocks).
    fig4: velocities scaled under the short-range bound, beta = 17/32.
    fig5: unscaled, beta = 17/32 (no mono-cluster flocking).
    Suffix -digraph uses the four-agent chain-with-branch topology,
    -complete the all-to-all network.
    """
    if name not in PRESET_NAMES:
        raise ScenarioError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    fig, variant = name.split("-")
    return scenario_from_dict({
        "graph": ({"n": 4, "complete": True} if variant == "complete"
                  else {"n": 4, "arcs": FIG_DIGRAPH_ARCS}),
        "weight": {"beta": 0.25 if fig in ("fig2", "fig3") else 17.0 / 32.0},
        "delay": {"type": "constant", "tau": 1.0, "integer": True},
        "positions": BASE_POSITIONS, "velocities": BASE_VELOCITIES,
        "velocity_scale": {"fig2": FIG2_SCALE, "fig3": 1.0,
                           "fig4": FIG4_SCALE, "fig5": 1.0}[fig],
        "t_end": 20.0 if fig == "fig5" else 50.0}, name=name)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, cols: list[str], chunks):
    """The header line, the column line, then the body's bytes as they come."""
    with open(path, "wb") as f:
        f.write(f"{CSV_HEADER}\n{','.join(cols)}\n".encode())
        f.writelines(chunks)


def write_trajectory_csv(traj: Trajectory, path: str):
    n, d = traj.n_agents, traj.dim
    cols = (["t", "agent"] + [f"x{k + 1}" for k in range(d)]
            + [f"v{k + 1}" for k in range(d)])
    labels = np.array([b"\1,%d," % i for i in range(n)])   # \1 marks where t goes
    labels = labels.view(np.uint8).reshape(n, labels.itemsize)
    step = max(1, BLOCK // (n * 2 * d))   # whole time rows a block

    def rows():   # the N lines of one time row a text, with \1 where t goes
        last = text = None   # the bits of the row before, its text
        for m in range(0, len(traj.times), step):
            vals = np.concatenate((traj.xs[m:m + step], traj.vs[m:m + step]), axis=2)
            bits = vals.view(np.uint64).reshape(len(vals), -1)   # -0.0 and 0.0 print apart
            new = np.empty(len(vals), bool)
            new[0] = last is None or (bits[0] != last).any()
            new[1:] = (bits[1:] != bits[:-1]).any(axis=1)
            # a block that only repeats the row before it formats nothing
            texts = join_cells(format17(vals[new]), labels) if new.any() else iter(())
            last = bits[-1]
            for t, fresh in zip(traj.times[m:m + step].tolist(), new.tolist()):
                if fresh:   # a repeated row reuses its predecessor's text
                    text = next(texts)
                yield text.replace(b"\1", b"%.17g" % t)
            del texts   # before the next block's texts are made
    _write_csv(path, cols, rows())


def write_diameters_csv(series, path: str):
    d = series.vbar.shape[1]
    cols = (["t", "D"] + [f"D{k + 1}" for k in range(d)]
            + [f"vbar{k + 1}" for k in range(d)] + [f"vund{k + 1}" for k in range(d)])
    rows = np.column_stack((series.times, series.spread, series.spread_k,
                            series.vbar, series.vund))
    step = max(1, BLOCK // len(cols))
    _write_csv(path, cols, (next(join_cells(format17(rows[q:q + step])[None]))
                            for q in range(0, len(rows), step)))


def write_certificate(cert: an.FlockingCertificate, path: str):
    with open(path, "w") as f:
        for k, v in cert.as_dict().items():
            f.write(f"{k}={_fmt(v)}\n")


def certify(s: Scenario) -> an.FlockingCertificate:
    """The scenario's flocking certificate, measured from its initial data;
    DegenerateGraphError on a graph without a spanning tree or of one agent,
    AnalysisError on other refusals (a rho at which psi underflows),
    SpreadOverflowError on initial data whose D(0) or X(0) overflows,
    StabilityGateError on a discrete step size past the gate."""
    if s.model == "discrete":
        return an.check_discrete(s.initial_history(), s.graph, s.weight, s.delay, s.h,
                                 rho=s.rho)
    return an.check_continuous(s.initial_history(), s.graph, s.weight, s.delay,
                               rho=s.rho)


def _run_group(group: list[Scenario], out_dir: str | None = None) -> list[RunReport]:
    """Certificates, one simulation for members sharing graph, delay, dt
    and t_end (discrete: one member), then each one's checks.  A blow-up
    is raised with the name of the member that blew up."""
    histories = [s.initial_history() for s in group]
    certs = []
    for s in group:   # an uncertified run goes on, with the reason it has no certificate
        try:
            certs.append((certify(s), ""))
        except an.DegenerateGraphError:
            certs.append((None, "degenerate graph"))
        except an.AnalysisError as e:
            certs.append((None, str(e)))
        except StabilityGateError:
            if not s.unsafe_h:
                raise
            certs.append((None, "kappa*h past the stability gate, run with unsafe_h"))
    s = group[0]
    try:
        if s.model == "discrete":
            trajs = [simulate_discrete(histories[0], s.graph, s.weight, s.delay,
                                       t_end=int(s.t_end), h=s.h, unsafe_h=s.unsafe_h)]
        else:
            trajs = integrate(histories, s.graph, [m.weight for m in group], s.delay,
                              t_end=s.t_end, dt=s.dt)
    except IntegrationError as e:
        if e.member is None:
            raise
        raise IntegrationError(f"{group[e.member].name}: {e}", e.member) from e
    return [_report(s, *c, traj, out_dir) for s, c, traj in zip(group, certs, trajs)]


def _report(s: Scenario, cert, why: str, traj: Trajectory, out_dir: str | None) -> RunReport:
    if s.model == "discrete":
        series = discrete_diameters(traj, s.delay.integer_tau_max)
        mono_tol = 1e-9 * max(float(series.spread[0]), 1e-300)
    else:
        series = diameters(traj, s.delay.tau_max)
        mono_tol = 1e-6 * max(float(series.spread[0]), 1e-300)
    mono = check_monotone_diameter(series, tol=mono_tol)
    decay = None
    pos_check = None
    if cert is not None and cert.guaranteed:
        decay = an.verify_decay(series, cert)
        pos_check = an.position_bound(traj, cert)
    below = np.flatnonzero(series.spread < s.flock_tol)
    ttt = float(series.times[below[0]]) if below.size else None
    paths = []
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        base = os.path.join(out_dir, s.name.replace(os.sep, "_"))
        write_trajectory_csv(traj, base + "_trajectory.csv")
        write_diameters_csv(series, base + "_diameters.csv")
        paths = [base + "_trajectory.csv", base + "_diameters.csv"]
        if cert is not None:
            write_certificate(cert, base + "_certificate.txt")
            paths.append(base + "_certificate.txt")
    return RunReport(scenario=s, certificate=cert, trajectory=traj,
                     diameter_series=series,
                     final_spread=float(series.spread[-1]),
                     time_to_tolerance=ttt, monotonicity=mono, decay=decay,
                     positions_check=pos_check, csv_paths=tuple(paths), no_certificate=why)


def run(s: Scenario, out_dir: str | None = None) -> RunReport:
    """Certificate check, simulation, diagnostics, optional CSV export."""
    return _run_group([s], out_dir)[0]


SWEEP_AXES = ("beta", "tau", "kappa", "h", "scale")


def _apply_axis(s: Scenario, axis: str, value: float) -> Scenario:
    if axis == "beta":
        return s.replace(weight=dataclasses.replace(s.weight, beta=float(value)))
    if axis == "kappa":
        return s.replace(weight=dataclasses.replace(s.weight, kappa=float(value)))
    if axis == "tau":
        if s.model == "discrete" and not float(value).is_integer():
            raise ScenarioError(f"sweep axis 'tau' needs whole steps on the discrete model, "
                                f"got {float(value)!r}")
        return s.replace(delay=DelayProfile.constant(float(value)))
    if axis == "h":
        return s.replace(h=float(value))
    return s.replace(velocities=_scaled(s.velocities, value))   # sweep checked the name


def _scaled(velocities: np.ndarray, scale: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        v = velocities * float(scale)
    if not np.isfinite(v).all():
        raise ScenarioError(f"velocity scale {float(scale):g} overflows the velocities")
    return v


def sweep(template: Scenario, axes: dict[str, list[float]],
          out_path: str | None = None) -> list[RunReport]:
    """Run every point of the axis product grid; reports in grid order,
    optionally one CSV row per point.  Continuous points sharing graph,
    delay, dt and t_end (beta, kappa and scale axes) run as one batched
    integration, each bit for bit as ``run`` gives it.
    """
    names = list(axes.keys())
    for a in names:
        if a not in SWEEP_AXES:
            raise ScenarioError(f"unknown sweep axis {a!r}; valid: {SWEEP_AXES}")
        if not len(axes[a]):
            raise ScenarioError(f"sweep axis {a!r} has no values")
        if a == "tau" and template.delay.kind not in ("zero", "constant"):
            raise ScenarioError(f"sweep axis 'tau' needs a constant delay, not {template.delay.kind}")
        if a == "h" and template.model != "discrete":
            raise ScenarioError("sweep axis 'h' needs the discrete model; a continuous run steps by dt")
    grid = list(itertools.product(*(axes[a] for a in names)))
    points = []
    for values in grid:
        s = template
        for axis, val in zip(names, values):
            s = _apply_axis(s, axis, val)
        points.append(s.replace(name=template.name + "@" + ",".join(
            f"{a}={_fmt(float(v))}" for a, v in zip(names, values))))
    groups: dict[object, list[int]] = {}
    for k, s in enumerate(points):
        key = k if s.model == "discrete" else (id(s.graph), s.delay, s.dt, s.t_end)
        groups.setdefault(key, []).append(k)
    reports = [None] * len(points)
    for ks in groups.values():
        for k, rep in zip(ks, _run_group([points[k] for k in ks])):
            reports[k] = rep
    if out_path is not None:
        write_sweep_csv(reports, names, grid, out_path)
    return reports


def write_sweep_csv(reports, names, grid, path: str):
    keys = ("gamma_g", "n_infinity", "kappa", "tau", "beta", "h",   # FlockingCertificate.as_dict
            "D0", "X0", "rho", "threshold", "delta", "verdict")
    # a certificate key that is also an axis is written as cert_<key>
    cols = [*names, *(f"cert_{k}" if k in names else k for k in keys),
            "final_spread", "time_to_tolerance", "flocked"]

    def line(values, rep: RunReport) -> str:
        cert = {} if rep.certificate is None else rep.certificate.as_dict()
        return ",".join([*(_fmt(float(v)) for v in values),
                         *("" if cert.get(k) is None else _fmt(cert[k]) for k in keys),
                         _fmt(rep.final_spread),
                         "" if rep.time_to_tolerance is None else _fmt(rep.time_to_tolerance),
                         str(rep.flocked).lower()]) + "\n"
    _write_csv(path, cols, (line(v, rep).encode() for v, rep in zip(grid, reports)))
