#!/usr/bin/env python3
"""Smoke check of the benchmark at its tiny size (about a minute).

    python3 bench/smoke.py

For every workload, traced and untraced, it checks that the result line
carries every metric of BENCHMARK.json with its unit, that the summary
names the workload's own figures (points_per_s, agent_steps_per_s,
certs_per_s, cert_p50_ms, cert_tail_ms, failed_ratio) with units, and
that no call failed.  It then checks that a corrupted reference makes
failed_ratio nonzero, and that the benchmark refuses to run without the
program's sources.  Exits 1 on the first problem.
"""
import json
import os
import re
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_out", "smoke")

ALIASES = {
    "sweep-fig2": ("points_per_s", "agent_steps_per_s"),
    "flock200-random": ("agent_steps_per_s",),
    "discrete200": ("agent_steps_per_s",),
    "certify-graphs": ("certs_per_s", "cert_p50_ms", "cert_tail_ms"),
}


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run([sys.executable, script, "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def result(proc, what):
    if proc.returncode != 0:
        fail(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{what}: result keys {sorted(res)}")
    return res, lines[:-1]


def printed(lines, name):
    """(value, unit) of a 'metric name = value unit' summary line."""
    for line in lines:
        m = re.match(rf"metric {re.escape(name)} = (\S+) (\S+)", line)
        if m:
            return float(m.group(1)), m.group(2)
    return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{w} trace {trace}"
            res, lines = result(bench("--workload", w, "--size", "tiny",
                                      "--trace", str(trace)), what)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{what}: {res['failed']} of {res['attempted']} calls failed")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    fail(f"{what}: metric {m['name']} missing or unit differs: {got}")
                if printed(lines, m["name"]) is None:
                    fail(f"{what}: no summary line for {m['name']}")
            if printed(lines, "failed_ratio") != (0.0, "ratio"):
                fail(f"{what}: failed_ratio line {printed(lines, 'failed_ratio')}")
            if trace == 0:
                for name in ALIASES[w]:
                    if printed(lines, name) is None:
                        fail(f"{what}: no summary line for {name}")
            print(f"smoke: {what}: ok ({res['attempted']} calls)")

    # a corrupted reference must count as failed calls
    with open(os.path.join(BENCH, "reference.json")) as f:
        ref = json.load(f)
    first = ref["tiny"]["certify-graphs"][0]
    first["regime"] = "no-such-regime"
    first["rho"] *= 1.001
    bad = os.path.join(SCRATCH, "reference-corrupt.json")
    with open(bad, "w") as f:
        json.dump(ref, f)
    res, lines = result(bench("--workload", "certify-graphs", "--size", "tiny",
                              "--reference", bad), "corrupted reference")
    ratio = printed(lines, "failed_ratio")
    if res["correct"] or not res["failed"] or not ratio or ratio[0] <= 0:
        fail(f"corrupted reference not detected: {res}, failed_ratio {ratio}")
    print(f"smoke: corrupted reference: ok (failed_ratio {ratio[0]:g})")

    # without the program's sources the benchmark must fail, printing no result
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(BENCH, os.path.join(bare, os.path.basename(BENCH)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "certify-graphs", cwd=bare,
                 script=os.path.join(bare, os.path.basename(BENCH), "run.py"))
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"ran without sources: exit {proc.returncode}, output {proc.stdout[-200:]!r}")
    print("smoke: without sources: ok (exit "
          f"{proc.returncode}: {proc.stderr.strip().splitlines()[-1]})")
    print("smoke: ok")


if __name__ == "__main__":
    main()
