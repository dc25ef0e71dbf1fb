"""Command-line entry points.

Exit codes: 0 success, 2 invalid input or a run that blew up (one
``error:`` line from the one handler in ``main``), 3 a certified run
broke its own decay or position bound (a defect, not a user error).
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import warnings

import numpy as np

from . import analysis as an
from . import harness
from .dde import IntegrationError
from .digraph import GraphError, compute_metrics
from .discrete import StabilityGateError
from .interaction import AdmissibilityError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEFECT = 3


def _out_dir(args) -> str | None:
    return args.out or os.environ.get(harness.OUTPUT_DIR_ENV)


def _print_report(rep: harness.RunReport):
    c = rep.certificate
    if c is None:
        print(f"certificate: n/a ({rep.no_certificate})")
    else:
        print(f"certificate: verdict={c.verdict} regime={c.regime} "
              f"D0={c.measured_D0:.6g} X0={c.measured_X0:.6g} "
              f"rho={c.rho:.6g} threshold={c.threshold:.6g} delta={c.delta:.12g}")
    print(f"final velocity spread: {rep.final_spread:.6g}")
    if rep.time_to_tolerance is not None:
        print(f"time to tolerance: {rep.time_to_tolerance:g}")
    else:
        print("time to tolerance: not reached")
    print(f"window monotonicity: {'ok' if rep.monotonicity else 'VIOLATED'}")
    if rep.decay is not None:
        print(f"decay bound: {'ok' if rep.decay else 'VIOLATED'} "
              f"(checked n=0..{rep.decay.n_checked - 1}, empirical rate "
              f"{rep.decay.empirical_rate:.4g}, bound rate {rep.decay.bound_rate:.4g})")
    if rep.positions_check is not None:
        tag = " (vacuous)" if rep.positions_check.vacuous else ""
        print(f"position bound: {'ok' if rep.positions_check else 'VIOLATED'} "
              f"max distance {rep.positions_check.max_distance:.6g} "
              f"<= {rep.positions_check.bound:.6g}{tag}")
    for p in rep.csv_paths:
        print(f"wrote {p}")


def _run_and_print(s: harness.Scenario, args) -> int:
    """Run, print the report; exit 3 when a certified bound was broken."""
    rep = harness.run(s, out_dir=_out_dir(args))
    _print_report(rep)
    return EXIT_DEFECT if rep.bound_broken else EXIT_OK


def cmd_analyze_graph(args) -> int:
    cfg = harness.read_json(args.file)
    g = harness.parse_graph(cfg.get("graph", cfg))   # a scenario or a bare graph
    m = compute_metrics(g)
    gamma = "inf" if math.isinf(m.gamma_g) else str(int(m.gamma_g))
    roots = sorted(r + 1 for r in m.roots)
    print(f"n_vertices={g.n_vertices}")
    print(f"roots={roots} (1-based)")
    print(f"gamma_g={gamma}")
    print(f"n_infinity={m.n_infinity}")
    return EXIT_OK


def cmd_check_condition(args) -> int:
    cert = harness.certify(harness.load_scenario(args.scenario))
    for k, v in cert.as_dict().items():
        print(f"{k}={v}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    overrides = {k: v for k, v in (("t_end", args.t_end), ("dt", args.dt)) if v is not None}
    return _run_and_print(harness.load_scenario(args.scenario, **overrides), args)


def cmd_reproduce(args) -> int:
    return _run_and_print(harness.preset(args.preset), args)


def _parse_axis(cfg: str):
    name, _, rng = cfg.partition("=")
    try:
        lo, hi, steps = rng.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
    except ValueError:
        raise harness.ScenarioError(
            f"axis must look like name=min:max:steps, got {cfg!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise harness.ScenarioError(f"axis {name!r} needs finite bounds, got {cfg!r}")
    if steps < 1:
        raise harness.ScenarioError(f"axis {name!r} needs at least one step")
    values = [lo] if steps == 1 else list(np.linspace(lo, hi, steps))
    return name, values


def cmd_sweep(args) -> int:
    s = harness.load_scenario(args.scenario)
    axes = {}
    for name, values in map(_parse_axis, args.axis):
        if name in axes:
            raise harness.ScenarioError(f"sweep axis {name!r} is given more than once")
        axes[name] = values
    out = _out_dir(args)
    out_path = None
    if out:
        os.makedirs(out, exist_ok=True)
        out_path = os.path.join(out, "sweep.csv")
    reports = harness.sweep(s, axes, out_path=out_path)
    bad = [r for r in reports if r.bound_broken]
    print(f"{len(reports)} points, "
          f"{sum(1 for r in reports if r.certificate and r.certificate.guaranteed)} "
          f"certified, {len(bad)} bound violations")
    if out_path:
        print(f"wrote {out_path}")
    return EXIT_DEFECT if bad else EXIT_OK


@functools.cache   # one parser per process, built by the first main call, not at import
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="delayflock",
        description="Simulate and certify delayed velocity-alignment dynamics")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("analyze-graph", help="graph constants of a topology file")
    q.add_argument("file")
    q.set_defaults(fn=cmd_analyze_graph)

    q = sub.add_parser("check-condition", help="evaluate the flocking certificate")
    q.add_argument("scenario")
    q.set_defaults(fn=cmd_check_condition)

    q = sub.add_parser("simulate", help="integrate a scenario and report")
    q.add_argument("scenario")
    q.add_argument("--t-end", type=float, default=None)
    q.add_argument("--dt", type=float, default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_simulate)

    q = sub.add_parser("reproduce", help="run a built-in experiment preset")
    q.add_argument("preset", choices=list(harness.PRESET_NAMES))
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_reproduce)

    q = sub.add_parser("sweep", help="grid of scenario variants")
    q.add_argument("scenario")
    q.add_argument("--axis", action="append", required=True,
                   metavar="name=min:max:steps")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:   # printed below, one line each
        try:
            code = args.fn(args)
        except (harness.ScenarioError, GraphError, AdmissibilityError, an.AnalysisError,
                an.SpreadOverflowError, StabilityGateError, IntegrationError, OSError,
                MemoryError) as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_VALIDATION
    sys.stderr.writelines(f"warning: {w.message}\n" for w in caught)
    return code


if __name__ == "__main__":
    sys.exit(main())
