#!/usr/bin/env python3
"""delayflock benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload sweep-fig2 --seed 3 --seconds 26 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed``; outputs are checked
against an oracle on every seed and against ``bench/reference.json`` on
the default seed (0).  Working files go to ``.bench_out/<workload>-<size>/``.

``--trace 0`` times the workload's calls against the same calls into
the base program, a frozen copy of ``src/delayflock`` kept in
``bench/base/``: each call runs once in each program, back to back, the
order alternating, for ``--seconds``, and the time metrics are the
program's times relative to the base's.  On a shared host single-thread
speed can drift by tens of percent over minutes; both programs see the
same drift, so their ratio holds where raw times do not.  Raw times are
printed too.  ``--trace 1`` alternates untraced and traced passes of the
program alone for ``--seconds`` and prints the per-layer metrics of the
traced passes (see spans.py).  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
numpy/BLAS threads are pinned to 1 before numpy is imported, and the
process to one CPU.
"""
import os

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _k in PINNED:
    os.environ[_k] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BASE = os.path.join(BENCH, "base")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH, "reference.json")
DEFAULT_SEED = 0
SETUP_PROBES = 7        # fresh processes per run; setup_s is their median

# end-to-end metric -> unit, printed on every workload
E2E_METRICS = {"setup_s": "s", "wall_vs_base": "ratio", "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def import_program():
    sys.path.insert(0, SRC)
    try:
        import delayflock
        import delayflock.cli  # noqa: F401  (not imported by the package)
    except ImportError as e:
        raise ProgramMissing(f"cannot import delayflock from {SRC}: {e}") from e
    if not os.path.abspath(delayflock.__file__).startswith(SRC + os.sep):
        raise ProgramMissing(f"delayflock imported from {delayflock.__file__}, "
                             f"not from {SRC}")
    return delayflock


def import_base():
    """The base program: a frozen copy of the package, the yardstick
    that every timed call is measured against."""
    sys.path.insert(0, BASE)
    import delayflock_base
    import delayflock_base.cli  # noqa: F401
    return delayflock_base


# ------------------------------------------------------------ environment

def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(pkg=os.path.join(SRC, "delayflock")):
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(seed, size):
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "threads": {k: os.environ[k] for k in PINNED},
            "seed": seed, "size": size, "git_commit": _git_commit(),
            "src_sha256": _src_sha256(),
            "base_sha256": _src_sha256(os.path.join(BASE, "delayflock_base")),
            "platform": platform.platform()}


# ------------------------------------------------------------------ setup

def setup_probe(workload, inputs):
    """Child process: import the program and prepare the inputs, then
    report ready.  The parent times it from spawn to that line."""
    dfl = import_program()
    with open(os.path.join(inputs, "spec.json")) as f:
        wl.prepare(json.load(f), inputs, dfl)
    print("ready", flush=True)


def time_setup(workload, inputs):
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", workload, "--inputs", inputs]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {err.strip()}")
    return elapsed


# ---------------------------------------------------------------- passes

def call(op, tracer=None):
    """One timed call: (latency, raw result or the exception raised)."""
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = op.call()
        else:
            with tracer.op(op.label):
                raw = op.call()
    except (Exception, SystemExit) as e:
        raw = e
    return time.perf_counter() - t0, raw


def digest(op, raw):
    """Untimed: the outcome summary of one call, or the error it met."""
    if isinstance(raw, BaseException):
        return {"error": f"{type(raw).__name__}: {raw}"}
    try:
        return op.digest(raw)
    except Exception as e:
        return {"error": f"unreadable output: {type(e).__name__}: {e}"}


def run_pass(ops, tracer=None):
    """One closed-loop pass; returns per-call latencies and outcomes.
    Only the calls are timed; digesting the outputs is not."""
    lats, digests = [], []
    for op in ops:
        lat, raw = call(op, tracer)
        lats.append(lat)
        digests.append(digest(op, raw))
    return lats, digests


class Checker:
    """Counts failed calls.  The stored reference applies on the default
    seed; otherwise each call is compared with its own first pass."""

    def __init__(self, ops, reference):
        self.ops = ops
        self.reference = reference
        self.first = {}
        self.attempted = 0
        self.failures = []
        self.sha = [0, 0]

    def __call__(self, digests, must_equal=None):
        for k, (op, d) in enumerate(zip(self.ops, digests)):
            self.attempted += 1
            self.first.setdefault(k, d)
            if "error" in d:
                problems = [d["error"]]
            else:
                problems = wl.check(d, op.expect)
                ref = self.reference[k] if self.reference else self.first[k]
                problems += wl.compare(d, ref)
                if self.reference:
                    hit, n = wl.sha_matches(d, ref)
                    self.sha[0] += hit
                    self.sha[1] += n
                if must_equal is not None and d != must_equal[k]:
                    problems.append("traced output differs from untraced output")
            if problems:
                self.failures.append({"op": op.label, "problems": problems})


def tail(xs):
    """Highest order statistic with at least 10 samples beyond it, and
    its percentile.  Below 21 samples that statistic would not lie above
    the median, so the maximum is reported instead."""
    s = sorted(xs)
    n = len(s)
    if n > 20:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def warm_up(workload, seed, work, dfl, checker):
    """One untimed pass of the workload at its tiny size, so that lazy
    imports and first-call allocations are not timed; returns its time."""
    inputs = os.path.join(work, "warm-up")
    spec = wl.generate(workload, "tiny", seed, inputs)
    out = os.path.join(inputs, dfl.__name__)
    os.makedirs(out, exist_ok=True)
    ops = wl.make_ops(spec, wl.prepare(spec, inputs, dfl), inputs, out, dfl)
    lats, digests = run_pass(ops)
    warm = Checker(ops, None)
    warm(digests)
    checker.attempted += warm.attempted
    checker.failures += warm.failures
    return sum(lats)


def paired(ops, base_ops, seconds, checker):
    """Closed loop over the workload's calls; each call runs in the
    program and in the base program back to back; which runs first
    alternates from call to call and, for each call, from pass to pass.
    Stops once another pair of median length would
    overrun the run, after at least one whole pass.  Returns the
    latencies per call, [program, base] lists of each."""
    lats = [([], []) for _ in ops]
    durations = []
    t_start = time.perf_counter()
    for n_pass in itertools.count():
        digests = []
        for k, (op, base_op) in enumerate(zip(ops, base_ops)):
            if (n_pass + k) % 2 == 0:
                lat, raw = call(op)
                base_lat, base_raw = call(base_op)
            else:
                base_lat, base_raw = call(base_op)
                lat, raw = call(op)
            digests.append(digest(op, raw))
            if isinstance(base_raw, BaseException):
                digests[-1] = {"error": "base program failed: "
                               f"{type(base_raw).__name__}: {base_raw}"}
            lats[k][0].append(lat)
            lats[k][1].append(base_lat)
            durations.append(lat + base_lat)
            if (len(lats[-1][0]) and time.perf_counter() - t_start
                    + statistics.median(durations) > seconds):
                checker(digests)
                return lats
        checker(digests)


def wall_vs_base(lats):
    """The program's time relative to the base program's on the same
    calls: per call, the median over its pairs of program / base time,
    weighted by the call's median base time."""
    weights = [statistics.median(b) for _, b in lats]
    ratios = [statistics.median(p / q for p, q in zip(mine, base))
              for mine, base in lats]
    return sum(r * w for r, w in zip(ratios, weights)) / sum(weights)


def done(t_start, seconds, passes, minimum):
    """Stop once another pass of median length would overrun the run."""
    return (len(passes) >= minimum and
            time.perf_counter() - t_start + statistics.median(passes) > seconds)


def traced(ops, seconds, checker, dfl):
    tracer = spans.Tracer()
    untraced, traced_walls, layers, pairs = [], [], [], []
    t_start = time.perf_counter()
    while True:
        pl, plain = run_pass(ops)
        checker(plain)
        untraced.append(sum(pl))
        first_span = len(tracer.spans)
        with spans.instrumented(tracer, dfl):
            pl, digests = run_pass(ops, tracer)
        checker(digests, must_equal=plain)
        traced_walls.append(sum(pl))
        pairs.append(untraced[-1] + traced_walls[-1])
        layers.append(spans.layer_metrics(tracer.spans[first_span:]))
        if done(t_start, seconds, pairs, 1):
            break
    per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for k, v in layers[0].items():
        if isinstance(v, int):
            per_layer[k] = v          # counts repeat exactly from pass to pass
    per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                     - statistics.median(untraced))
    return per_layer, tracer, untraced, traced_walls


# ------------------------------------------------------------------- main

def load_reference(path, size, workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f).get(size, {}).get(workload)


def update_reference(path, size, workload, digests):
    data = {}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data.setdefault(size, {})[workload] = digests
    with open(path, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")


def workload_aliases(workload, ops, lats):
    """The issue-level names of the throughput and latency figures, from
    the program's raw times (information: they drift with the host)."""
    seconds = sum(sum(mine) for mine, _ in lats)

    def per_s(key):
        return sum(len(mine) * op.work.get(key, 0)
                   for op, (mine, _) in zip(ops, lats)) / seconds
    out = {}
    if workload == "sweep-fig2":
        out["points_per_s"] = (per_s("points"), "1/s")
    if workload in ("sweep-fig2", "flock200-random", "discrete200"):
        out["agent_steps_per_s"] = (per_s("agent_steps"), "1/s")
    if workload == "certify-graphs":
        mine = [x for m, _ in lats for x in m]
        out["certs_per_s"] = (per_s("certs"), "1/s")
        out["cert_p50_ms"] = (statistics.median(mine) * 1e3, "ms")
        out["cert_tail_ms"] = (tail(mine)[0] * 1e3, "ms")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=26.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(wl.SIZES), default="full")
    p.add_argument("--reference", default=REFERENCE,
                   help="reference outcomes for the default seed")
    p.add_argument("--update-reference", action="store_true",
                   help="run one pass on the default seed and store its outcomes")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--inputs", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    try:
        if args.setup_probe:
            setup_probe(args.workload, args.inputs)
            return 0
        dfl = import_program()
    except ProgramMissing as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    # one CPU for the whole run: on a shared host each CPU's speed varies
    # on its own, and a move between CPUs inside a pair of calls would
    # weigh the program against the base program at different speeds
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = os.path.join(OUT, f"{args.workload}-{args.size}")
    shutil.rmtree(work, ignore_errors=True)
    inputs, outputs = os.path.join(work, "inputs"), os.path.join(work, "out")
    os.makedirs(outputs)
    spec = wl.generate(args.workload, args.size, args.seed, inputs)
    ctx = wl.prepare(spec, inputs, dfl)
    ops = wl.make_ops(spec, ctx, inputs, outputs, dfl)

    if args.update_reference:
        if args.seed != DEFAULT_SEED:
            print(f"error: the reference is for seed {DEFAULT_SEED}", file=sys.stderr)
            return 2
        _, digests = run_pass(ops)
        checker = Checker(ops, None)
        checker(digests)
        if checker.failures:
            print(f"error: not storing failing outcomes: {checker.failures}",
                  file=sys.stderr)
            return 1
        update_reference(args.reference, args.size, args.workload, digests)
        print(f"stored {len(digests)} reference outcomes in {args.reference}")
        return 0

    setups = [time_setup(args.workload, inputs) for _ in range(SETUP_PROBES)]
    reference = load_reference(args.reference, args.size, args.workload, args.seed)
    checker = Checker(ops, reference)
    env = environment(args.seed, args.size)
    print(f"# delayflock benchmark workload={args.workload} seed={args.seed} "
          f"size={args.size} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env))

    warm_s = warm_up(args.workload, args.seed, work, dfl, checker)
    if args.trace:
        metrics, tracer, untraced, traced_walls = traced(ops, args.seconds, checker, dfl)
        units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
        tracer.dump(os.path.join(work, "spans.jsonl"))
        print(f"traced passes: {len(traced_walls)}, untraced pass median "
              f"{statistics.median(untraced):.6g} s, traced "
              f"{statistics.median(traced_walls):.6g} s; "
              f"{len(tracer.spans)} spans in {os.path.join(work, 'spans.jsonl')}")
    else:
        # one whole pass of the program alone: full-size warm-up, and the
        # peak memory of the program before the base program runs
        first, digests = run_pass(ops)
        checker(digests)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        base = import_base()
        base_out = os.path.join(work, "base")
        os.makedirs(base_out)
        base_ops = wl.make_ops(spec, wl.prepare(spec, inputs, base), inputs,
                               base_out, base)
        warm_up(args.workload, args.seed, work, base, checker)
        lats = paired(ops, base_ops, args.seconds, checker)
        metrics = {"setup_s": statistics.median(setups),
                   "wall_vs_base": wall_vs_base(lats), "peak_rss_mb": rss_mb}
        units = dict(E2E_METRICS)
        print(f"pairs: {sum(len(m) for m, _ in lats)} over {len(ops)} calls "
              f"(program and base program, alternating order); warm-up pass "
              f"{warm_s:.4g} s; first full pass {sum(first):.4g} s; setup "
              "probes: " + ", ".join(f"{s:.4g}" for s in setups) + " s")
        print("information, not gated: raw times drift with the host's speed, "
              "and latency quantiles of unpaired calls spread widely")
        tails = []
        for who, k in (("", 0), ("base_", 1)):
            xs = [x for pair in lats for x in pair[k]]
            t_tail, pct = tail(xs)
            tails.append((statistics.median(xs), t_tail))
            wall = sum(statistics.median(pair[k]) for pair in lats)
            print(f"metric {who}wall_s = {wall:.6g} s")
            print(f"metric {who}op_p50_ms = {tails[-1][0] * 1e3:.6g} ms")
            print(f"metric {who}op_tail_ms = {t_tail * 1e3:.6g} ms "
                  f"(p{pct:.4g} of {len(xs)} calls)")
        print(f"metric op_p50_vs_base = {tails[0][0] / tails[1][0]:.6g} ratio")
        print(f"metric op_tail_vs_base = {tails[0][1] / tails[1][1]:.6g} ratio")
        for name, (v, u) in workload_aliases(args.workload, ops, lats).items():
            print(f"metric {name} = {v:.6g} {u}")

    ratio = len(checker.failures) / checker.attempted
    for name, v in metrics.items():
        print(f"metric {name} = {v:.6g} {units[name]}")
    print(f"metric failed_ratio = {ratio:.6g} ratio ({len(checker.failures)} "
          f"of {checker.attempted} calls failed)")
    if reference is None:
        print(f"reference: none for seed {args.seed} at size {args.size}; "
              "outputs compared with the first pass")
    else:
        print(f"reference: compared; csv sha256 matching the reference: "
              f"{checker.sha[0]} of {checker.sha[1]} (information only)")
    for f in checker.failures[:10]:
        print(f"FAILED {f['op']}: {'; '.join(f['problems'])}")

    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump({"env": env, "metrics": metrics, "failures": checker.failures,
                   "attempted": checker.attempted, "setup_probes_s": setups,
                   "pairs_s": None if args.trace else
                   {op.label: {"program": m, "base": b} for op, (m, b) in zip(ops, lats)}},
                  f, indent=1)
    print(json.dumps({
        "correct": not checker.failures, "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
