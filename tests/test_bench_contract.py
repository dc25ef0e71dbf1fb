"""The benchmark's traced pass patches library functions by name
(bench/spans.py).  A refactor that renames or drops one of them breaks
the traced benchmark with an AttributeError; this catches it first."""
import importlib.util
import inspect
from pathlib import Path

import delayflock
import delayflock.cli  # noqa: F401  (not imported by the package)
from delayflock.interaction import DelayProfile, WeightFunction

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_boundary_resolves_to_a_callable():
    boundaries = _spans()._boundaries(delayflock)
    assert boundaries
    for owner, attr, name, _ in boundaries:
        assert callable(getattr(owner, attr, None)), \
            f"{owner.__name__}.{attr} (span {name}) is missing"


def test_leaf_methods_are_defined_on_their_classes():
    for cls in (DelayProfile, WeightFunction):
        assert callable(cls.__dict__.get("__call__")), cls.__name__


def test_integrate_keeps_the_parameters_the_trace_counts_read():
    # _integrate_counts binds the call and reads g, t_end and dt by name
    params = inspect.signature(delayflock.harness.integrate).parameters
    assert {"g", "t_end", "dt"} <= set(params)
