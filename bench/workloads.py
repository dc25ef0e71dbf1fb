"""Seeded inputs, closed-loop operations and output checks of the
delayflock benchmark workloads.

Every input is generated here from the seed and written as a scenario
file (or passed as sweep-axis values); the program sees nothing else.
Each workload is a fixed list of operations, one pass; the benchmark
repeats passes in a closed loop, one caller, each call starting when
the previous one returns.

Expected outcomes come from an oracle independent of the program: the
graph constants (roots, gamma_g, n_infinity) from a reachability
closure by matrix products, the regime from beta and that gamma_g, and
the exit code from whether the graph has a root.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("sweep-fig2", "flock200-random", "discrete200", "certify-graphs")

# fig2-digraph preset: four agents, arcs 1->2, 2->3, 3->1, 3->4 (sender,
# receiver), velocities scaled onto the certified threshold, beta = 1/4
FIG2_ARCS = [(1, 2), (2, 3), (3, 1), (3, 4)]
FIG2_POSITIONS = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
FIG2_VELOCITIES = [[1.0, -2.0], [3.0, -4.0], [5.0, 6.0], [-7.0, -8.0]]
FIG2_SCALE = math.exp(-10) / (672 * math.sqrt(2))

SIZES = {
    "full": {
        # 3 calls of a 2 x 1 (beta x scale) grid; criterion-7 ranges and step
        "sweep-fig2": dict(calls=3, betas=2, scales=1, t_end=15.0, dt=0.02),
        "flock200-random": dict(n=200, k_in=5, dt=0.05, t_end=0.3, hold=0.5),
        "discrete200": dict(n=200, k_in=5, tau=2, t_end=30, h=0.1),
        # (N, in-arcs per agent, rooted); the median call falls in the
        # four like N=200 graphs and the tail in the three like N=400 ones
        "certify-graphs": dict(graphs=[
            (50, 2, True), (50, 8, True), (100, 3, True), (100, 6, True),
            (80, 3, False), (120, 4, False),
            (200, 4, True), (200, 4, True), (200, 4, True), (200, 4, True),
            (300, 3, True), (300, 6, True),
            (400, 4, True), (400, 4, True), (400, 4, True)]),
    },
    "tiny": {
        "sweep-fig2": dict(calls=2, betas=2, scales=1, t_end=1.0, dt=0.05),
        "flock200-random": dict(n=20, k_in=3, dt=0.05, t_end=0.3, hold=0.5),
        "discrete200": dict(n=20, k_in=3, tau=2, t_end=5, h=0.1),
        "certify-graphs": dict(graphs=[
            (12, 2, True), (20, 3, True), (16, 2, False), (30, 4, True)]),
    },
}

LONG_RANGE, CRITICAL, SHORT_RANGE = "long-range", "critical", "short-range"

# reference tolerances (relative): closed-form certificate quantities
# and the simulated final velocity spread
RTOL_CERT = 1e-9
RTOL_SPREAD = 1e-6


# ---------------------------------------------------------------- oracle

def rooted_arcs(rng, n: int, k_in: int, offset: int = 0) -> list:
    """Arcs (sender, receiver), 1-based, of a digraph in which every
    vertex has exactly k_in in-arcs and the first vertex of a random
    order reaches every other one (one in-arc from an earlier vertex)."""
    perm = rng.permutation(n)
    arcs = []
    for pos in range(n):
        i = int(perm[pos])
        senders = set()
        if pos:
            senders.add(int(perm[rng.integers(pos)]))
        while len(senders) < k_in:
            j = int(rng.integers(n))
            if j != i:
                senders.add(j)
        arcs += [(j + 1 + offset, i + 1 + offset) for j in sorted(senders)]
    return arcs


def rootless_arcs(rng, n: int, k_in: int) -> list:
    """Two rooted halves with no arc between them: no vertex reaches all."""
    half = n // 2
    return rooted_arcs(rng, half, k_in) + rooted_arcs(rng, n - half, k_in, half)


def graph_constants(n: int, arcs: list) -> dict:
    """Roots, gamma_g (least eccentricity over roots) and n_infinity by
    a reachability closure: after level l, row r holds every vertex
    within distance l of r."""
    step = np.zeros((n, n), dtype=np.float32)      # step[j, i]: arc j -> i
    for j, i in arcs:
        step[j - 1, i - 1] = 1.0
    reach = np.eye(n, dtype=bool)
    ecc = np.full(n, math.inf)
    ecc[reach.all(axis=1)] = 0
    level = 0
    while True:
        level += 1
        new = reach | ((reach.astype(np.float32) @ step) > 0)
        ecc[new.all(axis=1) & np.isinf(ecc)] = level
        if (new == reach).all():
            break
        reach = new
    roots = np.isfinite(ecc)
    return {"rooted": bool(roots.any()),
            "gamma_g": int(ecc[roots].min()) if roots.any() else None,
            "n_infinity": int(step.sum(axis=0).max())}


def regime(beta: float, gamma_g: int) -> str:
    x = 2.0 * beta * gamma_g
    return LONG_RANGE if x < 1.0 else CRITICAL if x == 1.0 else SHORT_RANGE


# ------------------------------------------------------------ generation

def _write(path: str, obj):
    with open(path, "w") as f:
        json.dump(obj, f)


def _agents(rng, n: int, half_width: float):
    return (rng.uniform(-half_width, half_width, (n, 2)).tolist(),
            rng.normal(0.0, 1.0, (n, 2)).tolist())


def generate(workload: str, size: str, seed: int, inputs: str) -> dict:
    """Write the workload's input files under ``inputs`` and return the
    spec of its operations: label, kind, arguments, expectation, work."""
    os.makedirs(inputs, exist_ok=True)
    cfg = SIZES[size][workload]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops = []
    if workload == "sweep-fig2":
        g = graph_constants(4, FIG2_ARCS)
        _write(os.path.join(inputs, "fig2.json"), {
            "graph": {"n": 4, "arcs": FIG2_ARCS},
            "weight": {"type": "cucker-smale", "kappa": 1.0, "beta": 0.25},
            "delay": {"type": "constant", "tau": 1.0},
            "positions": FIG2_POSITIONS, "velocities": FIG2_VELOCITIES,
            "velocity_scale": FIG2_SCALE, "t_end": cfg["t_end"], "dt": cfg["dt"]})
        calls, n_b, n_s = cfg["calls"], cfg["betas"], cfg["scales"]
        # betas from the strata of [0.05, 0.8] and velocity scales from the
        # strata of log10 in [-3, 3], one jittered value per stratum,
        # shuffled over the calls
        edges = np.linspace(0.05, 0.8, calls * n_b + 1)
        betas = rng.permutation(rng.uniform(edges[:-1], edges[1:])).reshape(calls, n_b)
        edges = np.linspace(-3.0, 3.0, calls * n_s + 1)
        scales = rng.permutation(10.0 ** rng.uniform(edges[:-1], edges[1:])).reshape(calls, n_s)
        n_steps = math.ceil(cfg["t_end"] / cfg["dt"] - 1e-12)
        points = n_b * n_s
        for k in range(calls):
            axes = {"beta": [float(b) for b in betas[k]],
                    "scale": [float(v) for v in scales[k]]}
            ops.append({"label": f"sweep{k}", "kind": "sweep", "axes": axes,
                        # sweep order: beta-major over the grid
                        "expect": {"regimes": [regime(b, g["gamma_g"])
                                               for b in axes["beta"] for _ in range(n_s)],
                                   "gamma_g": g["gamma_g"],
                                   "n_infinity": g["n_infinity"], "points": points},
                        "work": {"points": points, "agent_steps": points * 4 * n_steps}})
    elif workload in ("flock200-random", "discrete200"):
        n, k_in = cfg["n"], cfg["k_in"]
        arcs = rooted_arcs(rng, n, k_in)
        g = graph_constants(n, arcs)
        pos, vel = _agents(rng, n, 10.0)
        scen = {"graph": {"n": n, "arcs": arcs},
                "weight": {"type": "cucker-smale", "kappa": 1.0, "beta": 0.25},
                "positions": pos, "velocities": vel, "t_end": cfg["t_end"]}
        if workload == "flock200-random":
            scen["delay"] = {"type": "piecewise-random", "tau": 1.0,
                             "hold": cfg["hold"], "low": 0.0, "high": 1.0,
                             "seed": int(rng.integers(2**31))}
            scen["dt"] = cfg["dt"]
            n_steps = math.ceil(cfg["t_end"] / cfg["dt"] - 1e-12)
            n_hist = math.ceil(1.0 / cfg["dt"] - 1e-12)
        else:
            # constant integer delay; kappa * h = 0.1 < 1 / n_infinity
            scen["model"] = "discrete"
            scen["delay"] = {"type": "constant", "tau": cfg["tau"],
                             "value": cfg["tau"]}
            scen["h"] = cfg["h"]
            n_steps, n_hist = cfg["t_end"], cfg["tau"]
        name = workload.split("-")[0] + ".json"
        _write(os.path.join(inputs, name), scen)
        ops.append({"label": "simulate", "kind": "simulate", "file": name,
                    "expect": {"exit": 0, "regime": regime(0.25, g["gamma_g"]),
                               "gamma_g": g["gamma_g"],
                               "n_infinity": g["n_infinity"],
                               "rows": (n_hist + n_steps + 1) * n},
                    "work": {"agent_steps": n * n_steps}})
    else:
        for k, (n, k_in, rooted) in enumerate(cfg["graphs"]):
            arcs = (rooted_arcs if rooted else rootless_arcs)(rng, n, k_in)
            g = graph_constants(n, arcs)
            assert g["rooted"] == rooted
            pos, vel = _agents(rng, n, 5.0)
            scen = {"graph": {"n": n, "arcs": arcs},
                    "delay": {"type": "constant", "tau": float(rng.uniform(0.1, 1.0))},
                    "positions": pos, "velocities": vel}
            expect = {"exit": 0 if rooted else 2}
            beta = 0.25
            if rooted:
                # cycle the three regimes over the rooted graphs; graphs
                # 0, 1 (mod 4) get velocities small enough to certify, so
                # that each regime meets both verdicts
                gam = g["gamma_g"]
                beta = [float(rng.uniform(0.2, 0.8)) / (2 * gam),
                        1.0 / (2 * gam),
                        float(rng.uniform(1.2, 3.0)) / (2 * gam)][k % 3]
                expect.update(regime=regime(beta, gam), gamma_g=gam,
                              n_infinity=g["n_infinity"])
                if k % 4 < 2:
                    scen["velocity_scale"] = 1e-20
            scen["weight"] = {"type": "cucker-smale",
                              "kappa": float(rng.uniform(0.05, 0.2)), "beta": beta}
            name = f"graph{k:02d}.json"
            _write(os.path.join(inputs, name), scen)
            ops.append({"label": name, "kind": "check", "file": name,
                        "expect": expect, "work": {"certs": 1}})
    spec = {"workload": workload, "size": size, "seed": seed, "ops": ops}
    _write(os.path.join(inputs, "spec.json"), spec)
    return spec


def prepare(spec: dict, inputs: str, dfl) -> dict:
    """Program-side preparation before the first call: the sweep loads
    its template; the CLI workloads hand files to ``cli.main``."""
    if spec["workload"] == "sweep-fig2":
        return {"template": dfl.harness.load_scenario(os.path.join(inputs, "fig2.json"))}
    return {}


# ------------------------------------------------------------ operations

@dataclass
class Op:
    label: str
    call: Callable[[], object]          # the timed call
    digest: Callable[[object], dict]    # untimed: outcome summary
    expect: dict
    work: dict = field(default_factory=dict)


def _cli(dfl, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dfl.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _data_rows(path: str) -> list:
    with open(path) as f:
        return f.read().splitlines()[2:]       # skip version and column headers


def _kv(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _cert_fields(kv: dict) -> dict:
    return {"verdict": kv["verdict"], "regime": kv["regime"],
            "gamma_g": int(kv["gamma_g"]), "n_infinity": int(kv["n_infinity"]),
            "rho": float(kv["rho"]), "threshold": float(kv["threshold"])}


def _line_status(text: str, prefix: str):
    for line in text.splitlines():
        if line.startswith(prefix):
            return "ok" if line[len(prefix):].strip().startswith("ok") else "VIOLATED"
    return None


def make_ops(spec: dict, ctx: dict, inputs: str, out_dir: str, dfl) -> list:
    ops = []
    for k, o in enumerate(spec["ops"]):
        if o["kind"] == "sweep":
            path = os.path.join(out_dir, f"{o['label']}.csv")

            def call(axes=o["axes"], path=path):
                return dfl.harness.sweep(ctx["template"], axes, out_path=path)

            def digest(reports, path=path):
                pts = []
                for rep in reports:
                    c = rep.certificate
                    pts.append({
                        "verdict": c.verdict, "regime": c.regime,
                        "gamma_g": c.params.gamma_g, "n_infinity": c.params.n_infinity,
                        "rho": c.rho, "threshold": c.threshold,
                        "final_spread": rep.final_spread,
                        "decay": None if rep.decay is None else ("ok" if rep.decay else "VIOLATED"),
                        "position": None if rep.positions_check is None
                        else ("ok" if rep.positions_check else "VIOLATED")})
                return {"exit": 0, "points": pts, "rows": len(_data_rows(path)),
                        "sha256": {"sweep": _sha256(path)}}
        elif o["kind"] == "simulate":
            odir = os.path.join(out_dir, f"op{k}")
            argv = ["simulate", os.path.join(inputs, o["file"]), "--out", odir]
            base = os.path.join(odir, o["file"])

            def call(argv=argv):
                return _cli(dfl, argv)

            def digest(res, base=base):
                rc, out, _ = res
                d = {"exit": rc}
                if rc not in (0, 3):
                    return d
                with open(base + "_certificate.txt") as f:
                    d.update(_cert_fields(_kv(f.read())))
                traj, diam = base + "_trajectory.csv", base + "_diameters.csv"
                d.update(final_spread=float(_data_rows(diam)[-1].split(",")[1]),
                         rows=len(_data_rows(traj)),
                         decay=_line_status(out, "decay bound:"),
                         position=_line_status(out, "position bound:"),
                         sha256={"trajectory": _sha256(traj), "diameters": _sha256(diam)})
                return d
        else:
            argv = ["check-condition", os.path.join(inputs, o["file"])]

            def call(argv=argv):
                return _cli(dfl, argv)

            def digest(res):
                rc, out, _ = res
                d = {"exit": rc}
                if rc == 0:
                    d.update(_cert_fields(_kv(out)))
                return d
        ops.append(Op(o["label"], call, digest, o["expect"], o["work"]))
    return ops


# ---------------------------------------------------------------- checks

def _close(a: float, b: float, rtol: float) -> bool:
    return a == b or abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_cert(d: dict, exp: dict) -> list:
    bad = []
    for key in ("regime", "gamma_g", "n_infinity"):
        if key in exp and d.get(key) != exp[key]:
            bad.append(f"{key} {d.get(key)!r} != expected {exp[key]!r}")
    if d.get("verdict") == "guaranteed" and "decay" in d:     # a simulated run
        for key in ("decay", "position"):
            if d.get(key) != "ok":
                bad.append(f"certified run: {key} bound {d.get(key)}")
    return bad


def check(d: dict, exp: dict) -> list:
    """Problems of one outcome against the oracle expectation."""
    if "points" in d:
        bad = []
        if len(d["points"]) != exp["points"] or d["rows"] != exp["points"]:
            bad.append(f"{len(d['points'])} reports, {d['rows']} csv rows, "
                       f"expected {exp['points']}")
        for p, reg in zip(d["points"], exp["regimes"]):
            bad += _check_cert(p, dict(exp, regime=reg))
        return bad
    if d["exit"] != exp["exit"]:
        return [f"exit {d['exit']} != expected {exp['exit']}"]
    bad = _check_cert(d, exp)
    if "rows" in exp and d.get("rows") != exp["rows"]:
        bad.append(f"{d.get('rows')} trajectory rows != expected {exp['rows']}")
    return bad


def compare(d: dict, ref: dict) -> list:
    """Problems of one outcome against the stored reference outcome."""
    if "points" in d:
        if len(d["points"]) != len(ref["points"]):
            return ["point count differs from reference"]
        return [p for a, b in zip(d["points"], ref["points"]) for p in compare(a, b)]
    bad = []
    for key in ("exit", "verdict", "regime", "gamma_g", "n_infinity"):
        if d.get(key) != ref.get(key):
            bad.append(f"{key} {d.get(key)!r} != reference {ref.get(key)!r}")
    for key, rtol in (("rho", RTOL_CERT), ("threshold", RTOL_CERT),
                      ("final_spread", RTOL_SPREAD)):
        if key in ref and not (key in d and _close(d[key], ref[key], rtol)):
            bad.append(f"{key} {d.get(key)!r} outside rtol {rtol:g} of "
                       f"reference {ref[key]!r}")
    return bad


def sha_matches(d: dict, ref: dict) -> tuple:
    """(matching, compared) CSV sha256 counts; information only."""
    mine, theirs = d.get("sha256", {}), ref.get("sha256", {})
    keys = [k for k in theirs if k in mine]
    return sum(mine[k] == theirs[k] for k in keys), len(theirs)
