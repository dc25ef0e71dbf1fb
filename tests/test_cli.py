import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import delayflock
from delayflock import analysis
from delayflock.cli import EXIT_DEFECT, EXIT_OK, EXIT_VALIDATION, build_parser, main
from delayflock.digraph import Digraph
from delayflock.interaction import WeightFunction

SCENARIO = {
    "graph": {"n": 4, "arcs": [[1, 2], [2, 3], [3, 1], [3, 4]]},
    "weight": {"type": "cucker-smale", "kappa": 1.0, "beta": 0.25},
    "delay": {"type": "constant", "tau": 1.0},
    "positions": [[1, 0], [0, 1], [-1, 0], [0, -1]],
    "velocities": [[1, -2], [3, -4], [5, 6], [-7, -8]],
    "velocity_scale": 1e-9,
    "t_end": 3.0,
    "dt": 0.05,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    return str(path)


def test_analyze_graph(scenario_file, capsys):
    assert main(["analyze-graph", scenario_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "gamma_g=2" in out
    assert "n_infinity=1" in out
    assert "roots=[1, 2, 3]" in out


def test_analyze_graph_missing_file(capsys):
    assert main(["analyze-graph", "/nonexistent.json"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_check_condition(scenario_file, capsys):
    assert main(["check-condition", scenario_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict=guaranteed" in out
    assert "regime=critical" in out


def test_simulate(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["simulate", scenario_file, "--t-end", "2",
                 "--out", str(out_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final velocity spread" in out
    assert (out_dir / "scenario.json_trajectory.csv").exists()
    assert (out_dir / "scenario.json_diameters.csv").exists()
    assert (out_dir / "scenario.json_certificate.txt").exists()


def test_simulate_invalid_scenario(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"graph": {"n": 2, "arcs": [[1, 2]]}}))
    assert main(["simulate", str(path)]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_reproduce(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DELAYFLOCK_OUT", str(tmp_path))
    assert main(["reproduce", "fig5-digraph"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verdict=not-guaranteed" in out
    assert (tmp_path / "fig5-digraph_trajectory.csv").exists()


def test_sweep(scenario_file, tmp_path, capsys):
    assert main(["sweep", scenario_file, "--axis", "scale=0.5:2:2",
                 "--out", str(tmp_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 points" in out
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_bad_axis(scenario_file, capsys):
    assert main(["sweep", scenario_file, "--axis", "scale=oops"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["verify_decay", "position_bound"])
@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--axis", "scale=1:1:1"]],
                         ids=["simulate", "sweep"])
def test_broken_certified_bound_exits_3(bound, command, scenario_file, monkeypatch, capsys):
    checked = getattr(analysis, bound)

    def broken(*args):
        return dataclasses.replace(checked(*args), passed=False)
    monkeypatch.setattr(analysis, bound, broken)
    assert main([command[0], scenario_file, *command[1:]]) == EXIT_DEFECT
    out = capsys.readouterr().out
    if command[0] == "sweep":
        assert "1 certified, 1 bound violations" in out
    else:
        assert "VIOLATED" in out


def test_analyze_graph_bare_graph(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(SCENARIO["graph"]))
    assert main(["analyze-graph", str(path)]) == EXIT_OK
    assert "gamma_g=2" in capsys.readouterr().out


def _file(tmp_path, raw):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return str(path)


GATE_FAILS = dict(SCENARIO, model="discrete", h=5.0)          # kappa*h >= 1/n_infinity
NAN_POSITION = dict(SCENARIO, positions=[[math.nan, 0], [0, 1], [-1, 0], [0, -1]])
# RK4 at kappa*dt = 500 grows the velocities past the 1e6 guard in one step
BLOWS_UP = dict(SCENARIO, weight={"type": "cucker-smale", "kappa": 1000.0, "beta": 0.0},
                velocity_scale=1.0, dt=0.5)
NO_ARCS = dict(SCENARIO, graph={"n": 4})
BAD_BETA = dict(SCENARIO, weight={"type": "cucker-smale", "kappa": 1.0, "beta": "x"})
SHORT_ARC = dict(SCENARIO, graph={"n": 4, "arcs": [[1]]})
DISCRETE = dict(SCENARIO, model="discrete", h=0.1)
ZERO_PERIOD = dict(SCENARIO, delay={"type": "sinusoidal", "tau": 1.0, "period": 0})
# past the Euler gate on purpose: the velocity gap gains a factor 1 - 2*kappa*h = -5
# a step, so the largest speed (1 + 5^k) / 2 passes the 1e6 guard at step 10
UNSAFE_DIVERGES = {"graph": {"n": 2, "complete": True}, "model": "discrete",
                   "weight": {"type": "constant", "kappa": 1.0}, "delay": {"type": "zero"},
                   "positions": [[0.0], [1.0]], "velocities": [[0.0], [1.0]],
                   "h": 3, "t_end": 20, "unsafe_h": True}
RANDOM_DELAY = dict(DISCRETE, delay={"type": "piecewise-random", "tau": 1.0, "seed": 3,
                                     "hold": 0.5})
# agents 1e200 apart: ||x_1 - x_2|| overflows, so X(0) is inf
FAR_APART = {"graph": {"n": 2, "complete": True}, "weight": {"type": "constant", "kappa": 1.0},
             "delay": {"type": "constant", "tau": 1.0}, "positions": [[0.0], [1e200]],
             "velocities": [[0.0], [1.0]], "t_end": 1.0, "dt": 0.1}
FAST_APART = dict(FAR_APART, positions=[[0.0], [1.0]], velocities=[[-1e308], [1e308]])
ZERO_WIDTH = dict(SCENARIO, positions=[[]] * 4, velocities=[[]] * 4)
# psi(X0 + 1e300) = (1 + 1e600)^(-1/4) underflows to 0, so no contraction rate exists
HUGE_RHO = dict(FAR_APART, weight={"type": "cucker-smale", "kappa": 1.0, "beta": 0.25},
                positions=[[0.0], [1.0]], rho=1e300)


@pytest.mark.parametrize("command, raw, flags, message", [
    ("check-condition", GATE_FAILS, [], "kappa*h = 5 must be below"),
    ("simulate", GATE_FAILS, [], "kappa*h = 5 must be below"),
    ("simulate", NAN_POSITION, [], "'positions' must be a table of finite numbers"),
    ("simulate", BLOWS_UP, [], "scenario.json: solution blew up at t = 0.5"),
    ("simulate", SCENARIO, ["--dt", "-1"], "step size must be positive"),
    ("simulate", SCENARIO, ["--t-end", "0"], "horizon must be positive"),
    ("analyze-graph", NO_ARCS, [], "'arcs'"),
    ("analyze-graph", "bad.json", [], "bad.json:2: Expecting value"),
    ("check-condition", ".", [], "Is a directory"),
    ("check-condition", BAD_BETA, [], "'weight.beta' must be a finite number"),
    ("check-condition", SHORT_ARC, [], "'graph.arcs' must be a list of"),
    ("simulate", dict(SCENARIO, t_end=10 ** 400), [], "'t_end' must be a finite number"),
    ("simulate", dict(DISCRETE, t_end=-2), [], "horizon must be nonnegative, got -2"),
    ("simulate", DISCRETE, ["--t-end", "-3"], "horizon must be nonnegative, got -3"),
    ("simulate", DISCRETE, ["--t-end", "nan"], "'t_end' must be a finite number, got nan"),
    ("simulate", DISCRETE, ["--t-end", "inf"], "'t_end' must be a finite number, got inf"),
    ("simulate", DISCRETE, ["--t-end", "2.5"],
     "discrete horizon must be a whole number of steps, got 2.5"),
    ("simulate", ZERO_PERIOD, [], "sinusoid period 0 not positive and finite"),
    ("check-condition", ZERO_PERIOD, [], "sinusoid period 0 not positive and finite"),
    ("sweep", DISCRETE, ["--axis", "h=nan:nan:1"], "axis 'h' needs finite bounds"),
    ("sweep", SCENARIO, ["--axis", "beta=nan:nan:1"], "axis 'beta' needs finite bounds"),
    ("sweep", SCENARIO, ["--axis", "kappa=nan:nan:1"], "axis 'kappa' needs finite bounds"),
    ("sweep", SCENARIO, ["--axis", "scale=nan:nan:1"], "axis 'scale' needs finite bounds"),
    ("sweep", SCENARIO, ["--axis", "kappa=inf:inf:1"], "axis 'kappa' needs finite bounds"),
    ("check-condition", UNSAFE_DIVERGES, [], "kappa*h = 3 must be below 1/n_infinity = 1"),
    ("simulate", UNSAFE_DIVERGES, [], "error: scenario.json: solution blew up at t = 10\n"),
    ("sweep", UNSAFE_DIVERGES, ["--axis", "h=3:3:1"],
     "error: scenario.json@h=3: solution blew up at t = 10\n"),
    ("sweep", dict(DISCRETE, velocity_scale=1.0), ["--axis", "scale=1e308:1e308:1"],
     "error: velocity scale 1e+308 overflows the velocities\n"),
    ("simulate", dict(SCENARIO, velocity_scale=1e308), [],
     "error: velocity scale 1e+308 overflows the velocities\n"),
    ("sweep", RANDOM_DELAY, ["--axis", "tau=1:1:1"],
     "error: sweep axis 'tau' needs a constant delay, not piecewise-random\n"),
    ("check-condition", FAR_APART, [], "error: initial spreads overflow: D(0) = 1, X(0) = inf"),
    ("simulate", FAR_APART, [], "error: initial spreads overflow: D(0) = 1, X(0) = inf"),
    ("sweep", FAR_APART, ["--axis", "kappa=1:2:2"],
     "error: initial spreads overflow: D(0) = 1, X(0) = inf"),
    ("simulate", dict(FAR_APART, model="discrete", h=0.1), [],
     "error: initial spreads overflow: D(0) = 1, X(0) = inf"),
    ("simulate", FAST_APART, [], "error: initial spreads overflow: D(0) = inf, X(0) = 1"),
    ("analyze-graph", dict(SCENARIO, graph={"n": 4, "arcs": [[1, 2], [1, 2 ** 70], [3, 3]]}),
     [], "error: arc (1, 1180591620717411303424) out of range for n=4\n"),
    # grids numpy cannot index are refused before any array is allocated
    ("simulate", SCENARIO, ["--dt", "5e-324"],
     "error: a grid of inf time steps is too large for an array\n"),
    ("simulate", SCENARIO, ["--dt", "1e-300"],
     "error: a grid of 4e+300 time steps is too large for an array\n"),
    ("simulate", dict(DISCRETE, t_end=1e300), [],
     "error: a grid of 1e+300 time steps is too large for an array\n"),
    ("sweep", SCENARIO, ["--axis", "tau=1e300:1e300:1"],
     "error: a grid of 2e+301 time steps is too large for an array\n"),
    ("simulate", ZERO_WIDTH, [],
     "error: positions table must be 4 x d with d >= 1, got shape (4, 0)\n"),
    ("check-condition", ZERO_WIDTH, [],
     "error: positions table must be 4 x d with d >= 1, got shape (4, 0)\n"),
    ("sweep", SCENARIO, ["--axis", "beta=0:1:2", "--axis", "beta=0:1:2"],
     "error: sweep axis 'beta' is given more than once\n"),
    # a discrete delay is a whole number of steps; only the discrete model reads h
    ("sweep", DISCRETE, ["--axis", "tau=0.5:0.5:1"],
     "error: sweep axis 'tau' needs whole steps on the discrete model, got 0.5\n"),
    ("sweep", DISCRETE, ["--axis", "tau=1:2.5:4"],
     "error: sweep axis 'tau' needs whole steps on the discrete model, got 1.5\n"),
    ("sweep", SCENARIO, ["--axis", "h=0.1:0.2:2"],
     "error: sweep axis 'h' needs the discrete model; a continuous run steps by dt\n"),
    # a threshold needs rho > 0: -1 printed a certificate, -5 a misleading weight error
    ("check-condition", dict(SCENARIO, rho=-1), [], "error: rho must be positive, got -1\n"),
    ("check-condition", dict(SCENARIO, rho=-5), [], "error: rho must be positive, got -5\n"),
    ("check-condition", dict(SCENARIO, rho=0), [], "error: rho must be positive, got 0\n"),
    ("simulate", dict(SCENARIO, rho=-1), [], "error: rho must be positive, got -1\n"),
    ("check-condition", HUGE_RHO, [],
     "error: psi(X0 + rho) underflows to 0 at rho = 1e+300; no contraction rate exists there\n"),
    ("check-condition", dict(HUGE_RHO, model="discrete", h=0.1, delay={"type": "constant",
                                                                       "tau": 1}), [],
     "error: psi(X0 + rho) underflows to 0 at rho = 1e+300; no contraction rate exists there\n"),
    # a spread is never below a tolerance of 0 or less, so no time to tolerance could be found
    ("simulate", dict(SCENARIO, flock_tol=-1), [], "error: flock_tol must be positive, got -1\n"),
    ("simulate", dict(SCENARIO, flock_tol=0), [], "error: flock_tol must be positive, got 0\n"),
    ("sweep", dict(DISCRETE, flock_tol=-1e-6), ["--axis", "beta=0.1:0.2:2"],
     "error: flock_tol must be positive, got -1e-06\n"),
    # 0 ran unnormalized, and 1e-320 certified with kappa = inf
    ("check-condition", dict(SCENARIO, weight=dict(SCENARIO["weight"], normalize_by=0)), [],
     "error: normalize_by must be positive and leave kappa / normalize_by positive and "
     "finite, got 0\n"),
    ("check-condition", dict(SCENARIO, weight=dict(SCENARIO["weight"], normalize_by=1e-320)),
     [], "error: normalize_by must be positive and leave kappa / normalize_by positive and "
     "finite, got 1e-320\n"),
], ids=["gate-check", "gate-simulate", "nan-position", "blow-up", "negative-dt",
        "zero-horizon", "missing-arcs", "malformed-json", "directory", "string-beta",
        "one-vertex-arc", "huge-integer", "discrete-negative-horizon",
        "discrete-negative-t-end-flag", "discrete-nan-t-end-flag",
        "discrete-inf-t-end-flag", "discrete-fractional-t-end-flag",
        "zero-period-simulate", "zero-period-check", "sweep-nan-h", "sweep-nan-beta",
        "sweep-nan-kappa", "sweep-nan-scale", "sweep-inf-kappa", "unsafe-check",
        "unsafe-blow-up-simulate", "unsafe-blow-up-sweep", "sweep-scale-overflow",
        "velocity-scale-overflow", "sweep-tau-random", "far-apart-check",
        "far-apart-simulate", "far-apart-sweep", "far-apart-discrete", "velocity-gap-overflow",
        "arc-label-past-int64", "subnormal-dt", "tiny-dt", "discrete-huge-horizon",
        "sweep-huge-tau", "zero-width-simulate", "zero-width-check", "sweep-repeated-axis",
        "sweep-fractional-tau-discrete", "sweep-tau-steps-discrete", "sweep-h-continuous",
        "negative-rho-check", "very-negative-rho-check", "zero-rho-check",
        "negative-rho-simulate", "underflowing-psi-check", "underflowing-psi-discrete",
        "negative-flock-tol", "zero-flock-tol", "negative-flock-tol-sweep",
        "zero-normalize-by", "subnormal-normalize-by"])
def test_bad_input_exits_2_with_one_line(command, raw, flags, message, tmp_path, capsys):
    # raw is a scenario object, or the name of a file under tmp_path
    (tmp_path / "bad.json").write_text('{"graph": \n !')
    path = str(tmp_path / raw) if isinstance(raw, str) else _file(tmp_path, raw)
    assert main([command, path] + flags) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err


def test_signed_zero_velocities_pin_the_diameter_bytes(tmp_path, capsys):
    # every agent starts at velocity (-0.0, 0.0): the window at t = 0 holds only the
    # history's zeros, from t = dt every velocity is +0.0 (-0.0 + 0.0), and a zero
    # window extreme is +0, so every extreme prints as 0
    raw = dict(SCENARIO, velocities=[[-0.0, 0.0]] * 4, t_end=2.0)
    assert main(["simulate", _file(tmp_path, raw), "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    rows = "".join("%.17g,0,0,0,0,0,0,0\n" % (k * 0.05) for k in range(1, 41))
    assert (tmp_path / "out" / "scenario.json_diameters.csv").read_bytes() == (
        "# delayflock-csv v1\nt,D,D1,D2,vbar1,vbar2,vund1,vund2\n"
        "0,0,0,0,0,0,0,0\n" + rows).encode()


def test_graph_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array too large to allocate; a
    # stand-in raises it here without the allocation
    def refuse(cls, n, arcs, one_based=False):
        raise MemoryError(f"Unable to allocate an array with shape ({n}, {n})")
    monkeypatch.setattr(Digraph, "from_arc_list", classmethod(refuse))
    raw = dict(SCENARIO, graph={"n": 1000000, "arcs": [[1, 2]]})
    assert main(["analyze-graph", _file(tmp_path, raw)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: Unable to allocate an array with shape (1000000, 1000000)\n")


def test_underflowing_psi_runs_uncertified_with_its_reason(tmp_path, capsys):
    assert main(["simulate", _file(tmp_path, HUGE_RHO)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == (
        "certificate: n/a (psi(X0 + rho) underflows to 0 at rho = 1e+300; "
        "no contraction rate exists there)")


def test_weight_is_sampled_once_per_command(scenario_file, capsys, monkeypatch):
    # validate_scenario and the certificate both need the weight admissible;
    # its 1000-sample check runs once, kept on the WeightFunction
    sampled = []
    call = WeightFunction.__call__

    def counted(self, r):
        if np.size(r) == 1000:
            sampled.append(self)
        return call(self, r)
    monkeypatch.setattr(WeightFunction, "__call__", counted)
    for command in ("check-condition", "simulate"):
        sampled.clear()
        assert main([command, scenario_file]) == EXIT_OK
        assert len(sampled) == 1, command
    capsys.readouterr()


def test_unsafe_step_runs_uncertified(tmp_path, capsys):
    # three agents, all-to-all: kappa*h = 0.6 is past the gate 1/n_infinity = 0.5,
    # yet the velocity gap contracts by 1 - 3*kappa*h = -0.8 a step
    raw = dict(UNSAFE_DIVERGES, graph={"n": 3, "complete": True}, h=0.6,
               positions=[[0.0], [1.0], [2.0]], velocities=[[0.0], [1.0], [2.0]])
    assert main(["simulate", _file(tmp_path, raw)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == (
        "certificate: n/a (kappa*h past the stability gate, run with unsafe_h)")


def test_gate_with_unsafe_h_set_says_no_certificate_exists(tmp_path, capsys):
    # the scenario already sets unsafe_h, so the line gives no advice to set it
    assert main(["check-condition", _file(tmp_path, UNSAFE_DIVERGES)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: kappa*h = 3 must be below 1/n_infinity = 1; no certificate exists past "
        "the gate, and a run with unsafe_h=True goes on uncertified\n")


def test_misspelt_key_names_the_closest_valid_one(tmp_path, capsys):
    raw = {k: v for k, v in SCENARIO.items() if k != "t_end"}
    raw["t_ned"] = 2.0
    assert main(["simulate", _file(tmp_path, raw)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: unknown scenario key 't_ned'; did you mean 't_end'?\n")


CONTINUOUS_RANDOM = dict(SCENARIO, delay={"type": "piecewise-random", "tau": 1.0, "seed": 3,
                                          "hold": 0.5})
DISCONTINUOUS = ("warning: discontinuous delay profile used with the continuous integrator; "
                 "accuracy near jumps is degraded\n")


def _cli(tmp_path, *argv):
    """Exit code and the real stderr of the command-line tool in its own process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delayflock.__file__)))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                           "delayflock.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


def test_library_warning_prints_as_one_line(tmp_path):
    code, err = _cli(tmp_path, "simulate", _file(tmp_path, CONTINUOUS_RANDOM),
                     "--t-end", "1")
    assert (code, err) == (EXIT_OK, DISCONTINUOUS)


def test_refused_input_prints_only_its_error_line(tmp_path):
    code, err = _cli(tmp_path, "sweep", _file(tmp_path, CONTINUOUS_RANDOM),
                     "--axis", "tau=1:1:1")
    assert (code, err) == (
        EXIT_VALIDATION, "error: sweep axis 'tau' needs a constant delay, not piecewise-random\n")


def test_parser_is_built_once_on_first_use(tmp_path):
    # in a fresh process: importing the module builds no parser, and two calls share one
    script = (
        "import argparse, sys\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **k: made.append(1) or init(*a, **k)\n"
        "from delayflock import cli\n"
        "assert not made, 'import built a parser'\n"
        "for _ in range(2):\n"
        "    assert cli.main(['analyze-graph', sys.argv[1]]) == 0\n"
        "    print(f'built {len(made)}')\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(delayflock.__file__)))
    done = subprocess.run([sys.executable, "-c", script, _file(tmp_path, SCENARIO)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    built = [int(line.split()[1]) for line in done.stdout.splitlines() if line.startswith("built")]
    assert len(built) == 2 and built[0] > 0 and built[1] == built[0]


def test_bad_argv_leaves_the_parser_as_it_was(scenario_file, capsys):
    assert main(["check-condition", scenario_file]) == EXIT_OK
    want = capsys.readouterr()
    for argv in (["check-condition"], ["simulate", scenario_file, "--dt", "x"], ["nope"]):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == EXIT_VALIDATION
        capsys.readouterr()
    assert main(["check-condition", scenario_file]) == EXIT_OK
    assert capsys.readouterr() == want


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"], ["sweep", "--help"]])
def test_help_text_is_that_of_a_fresh_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for parse in (main, build_parser().parse_args, main):
        with pytest.raises(SystemExit) as e:
            parse(argv)
        assert e.value.code == EXIT_OK
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2] and texts[0].startswith("usage: delayflock")
