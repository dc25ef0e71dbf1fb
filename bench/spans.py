"""Span tracing of delayflock's module boundaries, applied from outside.

The library has no timers of its own, so the traced run replaces the
public functions at each module boundary with timing wrappers, in the
module namespace where callers look them up, and restores them when the
traced pass ends.  Spans stay in memory (name, start, end, parent, run
id) and are written out once, when the benchmark ends.  The two hot
leaves, ``DelayProfile.__call__`` and ``WeightFunction.__call__``, are
called up to a million times per pass, so they are not spans: each
leaf call adds to a count and a total time on the innermost open span.

A span's self time is its duration minus the time of its child spans
and of the leaf calls made directly inside it.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import os
import time


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.run_id = 0

    def _open(self, name: str) -> dict:
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1]["id"] if self._stack else None,
               "start": time.perf_counter(), "end": None,
               "child_s": 0.0, "leaf": {}, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict):
        rec["end"] = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += rec["end"] - rec["start"]

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span of one closed-loop call; its spans share a run id."""
        self.run_id += 1
        rec = self._open("bench.op:" + label)
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name: str, fn, counts=None):
        """Wrap fn in a span; ``counts(bound_args)`` runs after the call
        and returns work counts derived from the call's inputs."""
        tracer = self
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if counts is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec["counts"] = counts(bound.arguments)
            return out
        return wrapper

    def leaf(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                top = tracer._stack[-1]
                agg = top["leaf"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                top["child_s"] += dt
        return wrapper

    def dump(self, path: str):
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def _integrate_counts(a) -> dict:
    n_steps = int(math.ceil(a["t_end"] / a["dt"] - 1e-12))
    stages = 4 * n_steps + 1          # four RK4 stages per step, one final slope
    return {"stage_evals": stages,
            "edge_evals": stages * int(a["g"].arcs.sum())}


def _discrete_counts(a) -> dict:
    return {"edge_updates": int(a["t_end"]) * int(a["g"].arcs.sum())}


def _csv_counts(a) -> dict:
    return {"bytes": os.path.getsize(a["path"])}


# (namespace, attribute, span name, counts) per boundary; the namespace is
# the module where callers look the function up
def _boundaries(dfl):
    cli, harness, analysis, discrete = dfl.cli, dfl.harness, dfl.analysis, dfl.discrete
    return [
        (cli, "main", "cli.main", None),
        (harness, "load_scenario", "harness.load_scenario", None),
        (harness, "run", "harness.run", None),
        (harness, "sweep", "harness.sweep", None),
        (harness, "integrate", "dde.integrate", _integrate_counts),
        (harness, "diameters", "dde.diameters", None),
        (harness, "check_monotone_diameter", "dde.check_monotone_diameter", None),
        (harness, "simulate_discrete", "discrete.simulate_discrete", _discrete_counts),
        (harness, "discrete_diameters", "discrete.discrete_diameters", None),
        (harness, "write_trajectory_csv", "harness.write_trajectory_csv", _csv_counts),
        (harness, "write_diameters_csv", "harness.write_diameters_csv", _csv_counts),
        (harness, "write_sweep_csv", "harness.write_sweep_csv", _csv_counts),
        (analysis, "check_continuous", "analysis.check_continuous", None),
        (analysis, "check_discrete", "analysis.check_discrete", None),
        (analysis, "verify_decay", "analysis.verify_decay", None),
        (analysis, "position_bound", "analysis.position_bound", None),
        (analysis, "condition_rhs", "analysis.condition_rhs", None),
        (analysis, "compute_metrics", "digraph.compute_metrics", None),
        (discrete, "compute_metrics", "digraph.compute_metrics", None),
        (cli, "compute_metrics", "digraph.compute_metrics", None),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer, dfl):
    """Patch every boundary for the duration of the block."""
    saved = []
    for owner, attr, name, counts in _boundaries(dfl):
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.span(name, fn, counts))
    interaction = dfl.interaction
    for cls, name in ((interaction.DelayProfile, "interaction.delay"),
                      (interaction.WeightFunction, "interaction.weight")):
        fn = cls.__dict__["__call__"]
        saved.append((cls, "__call__", fn))
        setattr(cls, "__call__", tracer.leaf(name, fn))
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# per-layer metric -> (unit, better); the order is the print order
LAYER_METRICS = {
    "cli.main_self_s": ("s", "lower"),
    "harness.load_scenario_s": ("s", "lower"),
    "harness.run_self_s": ("s", "lower"),
    "harness.sweep_self_s": ("s", "lower"),
    "harness.csv_s": ("s", "lower"),
    "harness.csv_bytes": ("bytes", "lower"),
    "analysis.certify_s": ("s", "lower"),
    "analysis.certify_self_s": ("s", "lower"),
    "analysis.condition_rhs_calls": ("count", "lower"),
    "analysis.condition_rhs_s": ("s", "lower"),
    "analysis.verify_s": ("s", "lower"),
    "digraph.compute_metrics_calls": ("count", "lower"),
    "digraph.compute_metrics_s": ("s", "lower"),
    "interaction.delay_calls": ("count", "lower"),
    "interaction.delay_s": ("s", "lower"),
    "interaction.weight_calls": ("count", "lower"),
    "interaction.weight_s": ("s", "lower"),
    "dde.integrate_s": ("s", "lower"),
    "dde.integrate_self_s": ("s", "lower"),
    "dde.stage_evals": ("count", "lower"),
    "dde.edge_evals": ("count", "lower"),
    "dde.edge_evals_per_s": ("1/s", "higher"),
    "dde.diagnostics_s": ("s", "lower"),
    "discrete.simulate_s": ("s", "lower"),
    "discrete.simulate_self_s": ("s", "lower"),
    "discrete.edge_updates": ("count", "lower"),
    "discrete.edge_updates_per_s": ("1/s", "higher"),
    "discrete.diagnostics_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_CSV = ("harness.write_trajectory_csv", "harness.write_diameters_csv",
        "harness.write_sweep_csv")
_CERTIFY = ("analysis.check_continuous", "analysis.check_discrete")
_VERIFY = ("analysis.verify_decay", "analysis.position_bound")
_DDE_DIAG = ("dde.diameters", "dde.check_monotone_diameter")


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer figures of one traced pass (trace.overhead_s is left
    to the caller, which holds the untraced time)."""
    def pick(names):
        names = (names,) if isinstance(names, str) else names
        return [s for s in spans if s["name"] in names]

    def total(names):
        return sum((s["end"] - s["start"] for s in pick(names)), 0.0)

    def self_time(names):
        return sum((s["end"] - s["start"] - s["child_s"] for s in pick(names)), 0.0)

    def counted(names, key):
        return sum(s["counts"].get(key, 0) for s in pick(names))

    def leaf(name):
        calls = sum(s["leaf"].get(name, (0, 0.0))[0] for s in spans)
        secs = sum(s["leaf"].get(name, (0, 0.0))[1] for s in spans)
        return calls, secs

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    delay_calls, delay_s = leaf("interaction.delay")
    weight_calls, weight_s = leaf("interaction.weight")
    integrate_s = total("dde.integrate")
    edge_evals = counted("dde.integrate", "edge_evals")
    simulate_s = total("discrete.simulate_discrete")
    edge_updates = counted("discrete.simulate_discrete", "edge_updates")
    return {
        "cli.main_self_s": self_time("cli.main"),
        "harness.load_scenario_s": total("harness.load_scenario"),
        "harness.run_self_s": self_time("harness.run"),
        "harness.sweep_self_s": self_time("harness.sweep"),
        "harness.csv_s": total(_CSV),
        "harness.csv_bytes": counted(_CSV, "bytes"),
        "analysis.certify_s": total(_CERTIFY),
        "analysis.certify_self_s": self_time(_CERTIFY),
        "analysis.condition_rhs_calls": len(pick("analysis.condition_rhs")),
        "analysis.condition_rhs_s": total("analysis.condition_rhs"),
        "analysis.verify_s": total(_VERIFY),
        "digraph.compute_metrics_calls": len(pick("digraph.compute_metrics")),
        "digraph.compute_metrics_s": total("digraph.compute_metrics"),
        "interaction.delay_calls": delay_calls,
        "interaction.delay_s": delay_s,
        "interaction.weight_calls": weight_calls,
        "interaction.weight_s": weight_s,
        "dde.integrate_s": integrate_s,
        "dde.integrate_self_s": self_time("dde.integrate"),
        "dde.stage_evals": counted("dde.integrate", "stage_evals"),
        "dde.edge_evals": edge_evals,
        "dde.edge_evals_per_s": rate(edge_evals, integrate_s),
        "dde.diagnostics_s": total(_DDE_DIAG),
        "discrete.simulate_s": simulate_s,
        "discrete.simulate_self_s": self_time("discrete.simulate_discrete"),
        "discrete.edge_updates": edge_updates,
        "discrete.edge_updates_per_s": rate(edge_updates, simulate_s),
        "discrete.diagnostics_s": total("discrete.discrete_diameters"),
    }
