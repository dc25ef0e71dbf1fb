"""Simulation and certification of velocity alignment under
per-edge communication delays on directed networks."""

from .analysis import (
    FlockingCertificate,
    ModelParams,
    c_bar_infinity,
    c_infinity,
    check_continuous,
    check_discrete,
    classify_regime,
    condition_rhs,
    condition_supremum,
    position_bound,
    rho_plus,
    verify_decay,
)
from .dde import (
    DiameterSeries,
    InitialHistory,
    Trajectory,
    check_monotone_diameter,
    diameters,
    integrate,
)
from .digraph import Digraph, GraphMetrics, compute_metrics
from .discrete import discrete_diameters, simulate_discrete
from .harness import RunReport, Scenario, load_scenario, preset, run, sweep
from .interaction import DelayProfile, WeightFunction, verify_admissible

__all__ = [
    "Digraph", "GraphMetrics", "compute_metrics",
    "WeightFunction", "DelayProfile", "verify_admissible",
    "InitialHistory", "Trajectory", "DiameterSeries",
    "integrate", "diameters", "check_monotone_diameter",
    "simulate_discrete", "discrete_diameters",
    "ModelParams", "FlockingCertificate", "c_infinity", "c_bar_infinity",
    "rho_plus", "classify_regime",
    "condition_rhs", "condition_supremum",
    "check_continuous", "check_discrete", "verify_decay", "position_bound",
    "Scenario", "RunReport", "load_scenario", "preset", "run", "sweep",
]

__version__ = "0.1.0"
