"""Communication weights and per-edge delay profiles.

Weights are positive, non-increasing functions bounded by kappa; the
algebraically decaying family kappa * (1 + r^2)^(-beta) is the default.
Delay profiles give tau_ij(t) in [0, tau_max] with tau_ii identically
zero; an integer-valued view serves the discrete recursion.  Both are
immutable and pure in (i, j, t), so instances can be shared freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class AdmissibilityError(ValueError):
    """Weight or delay violates a required bound."""


@dataclass(frozen=True)
class WeightFunction:
    """Bounded non-increasing communication weight psi.

    kinds:
      - "cucker-smale": psi(r) = kappa * (1 + r^2)^(-beta)
      - "constant":     psi(r) = kappa
      - "tabulated":    linear interpolation of (r, value) samples,
        clamped at the ends; admissibility is checked by sampling,
        not assumed.

    ``normalize_by`` optionally divides kappa by the agent count, for
    the historically normalized variant of the model; the default is
    the unnormalized form.
    """

    kind: str = "cucker-smale"
    kappa: float = 1.0
    beta: float = 0.0
    table_r: np.ndarray | None = None
    table_v: np.ndarray | None = None
    normalize_by: int | None = None

    def __post_init__(self):
        if not 0 < self.kappa < np.inf:
            raise AdmissibilityError(f"kappa must be positive and finite, got {self.kappa}")
        if self.kind == "cucker-smale":
            if not 0 <= self.beta < np.inf:
                raise AdmissibilityError(
                    f"beta must be nonnegative and finite, got {self.beta}")
        elif self.kind == "tabulated":
            if self.table_r is None or self.table_v is None:
                raise AdmissibilityError("tabulated weight needs table_r and table_v")
            r = np.asarray(self.table_r, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise AdmissibilityError("tabulated weight needs matching 1-d tables")
            if np.any(np.diff(r) <= 0):
                raise AdmissibilityError("table_r must be strictly increasing")
            r.setflags(write=False)
            v.setflags(write=False)
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_v", v)
        elif self.kind != "constant":
            raise AdmissibilityError(f"unknown weight kind {self.kind!r}")

    @property
    def effective_kappa(self) -> float:
        if self.normalize_by:
            return self.kappa / self.normalize_by
        return self.kappa

    def __call__(self, r):
        """Evaluate psi(r); r may be a scalar or an array, all >= 0."""
        r = np.asarray(r, dtype=float)
        if (r < 0).any():
            raise AdmissibilityError("weight argument must be nonnegative")
        k = self.effective_kappa
        if self.kind == "cucker-smale":
            out = k * (1.0 + r * r) ** (-self.beta)
        elif self.kind == "constant":
            out = np.full_like(r, k)
        else:
            out = np.interp(r, self.table_r, self.table_v)
            if self.normalize_by:
                out = out / self.normalize_by
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    violations: tuple = ()

    def __bool__(self):
        return self.passed


def verify_admissible(w: WeightFunction, r_max: float = 100.0,
                      n_samples: int = 1000) -> AdmissibilityReport:
    """Sample psi on [0, r_max] and report positivity / bound /
    monotonicity violations.  Gates tabulated weights before use."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    rs = np.linspace(0.0, r_max, n_samples)
    vals = np.asarray(w(rs), dtype=float)
    k = w.effective_kappa
    violations = []
    bad = np.flatnonzero(vals <= 0)
    for i in bad[:5]:
        violations.append(("non-positive", float(rs[i]), float(vals[i])))
    bad = np.flatnonzero(vals > k * (1 + 1e-12))
    for i in bad[:5]:
        violations.append(("exceeds-kappa", float(rs[i]), float(vals[i])))
    inc = np.flatnonzero(np.diff(vals) > 1e-15 * k)
    for i in inc[:5]:
        violations.append(("increasing", (float(rs[i]), float(rs[i + 1])),
                           (float(vals[i]), float(vals[i + 1]))))
    return AdmissibilityReport(passed=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class DelayProfile:
    """Per-edge communication delays tau_ij(t), bounded by tau_max.

    kinds:
      - "zero":             tau_ij = 0 everywhere
      - "constant":         tau_ij = value (0 on the diagonal)
      - "sinusoidal":       mean + amplitude * sin(2*pi*t / period),
                            clipped to [0, tau_max]
      - "piecewise-random": constant on [k*hold, (k+1)*hold) intervals,
                            drawn uniformly from [low, high] by a seeded
                            generator keyed on (i, j, k); reproducible.

    ``integer_valued=True`` restricts outputs to whole numbers so the
    profile can serve the discrete recursion.
    """

    kind: str = "zero"
    tau_max: float = 0.0
    value: float = 0.0
    mean: float = 0.0
    amplitude: float = 0.0
    period: float = 1.0
    seed: int = 0
    hold: float = 1.0
    low: float = 0.0
    high: float = 0.0
    integer_valued: bool = False

    def __post_init__(self):
        if self.tau_max < 0:
            raise AdmissibilityError("tau_max must be nonnegative")
        if self.kind == "constant":
            if not (0 <= self.value <= self.tau_max):
                raise AdmissibilityError(
                    f"constant delay {self.value} outside [0, {self.tau_max}]")
            if self.integer_valued and self.value != int(self.value):
                raise AdmissibilityError("integer-valued profile with fractional value")
        elif self.kind == "sinusoidal":
            if not 0 < self.period < np.inf:
                raise AdmissibilityError(f"sinusoid period {self.period} not positive and finite")
            if self.mean - abs(self.amplitude) < -1e-12:
                raise AdmissibilityError("sinusoidal delay dips below zero")
            if self.mean + abs(self.amplitude) > self.tau_max + 1e-12:
                raise AdmissibilityError("sinusoidal delay exceeds tau_max")
        elif self.kind == "piecewise-random":
            if not (0 <= self.low <= self.high <= self.tau_max):
                raise AdmissibilityError("random delay range outside [0, tau_max]")
            if self.hold <= 0:
                raise AdmissibilityError("hold interval must be positive")
            if self.integer_valued and math.ceil(self.low) > math.floor(self.high):
                raise AdmissibilityError(
                    f"random delay range [{self.low}, {self.high}] holds no whole number")
        elif self.kind != "zero":
            raise AdmissibilityError(f"unknown delay kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "DelayProfile":
        return cls(kind="zero", tau_max=0.0, integer_valued=True)

    @classmethod
    def constant(cls, value: float, tau_max: float | None = None) -> "DelayProfile":
        tm = value if tau_max is None else tau_max
        return cls(kind="constant", value=value, tau_max=tm,
                   integer_valued=float(value).is_integer())

    def __call__(self, i: int, j: int, t: float) -> float:
        """Delay on the arc j -> i at time t.  Zero on the diagonal."""
        if i == j or self.kind == "zero":
            return 0.0
        if self.kind == "constant":
            return self.value
        if self.kind == "sinusoidal":
            return self._sinusoid(t)
        # piecewise-random: one draw per (edge, hold-interval), seeded
        k = int(np.floor(t / self.hold))
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, i, j, k & 0x7FFFFFFF]))
        if self.integer_valued:
            return float(rng.integers(math.ceil(self.low), math.floor(self.high) + 1))
        return float(self.low + (self.high - self.low) * rng.random())

    def _sinusoid(self, t: float) -> float:
        v = self.mean + self.amplitude * np.sin(2 * np.pi * t / self.period)
        return float(min(max(v, 0.0), self.tau_max))

    def on_edges(self, ei, ej):
        """Delays of the arcs ej -> ei (i != j) as a function of t, bit for
        bit as ``self(ei[e], ej[e], t)``: the one float every arc shares
        for zero, constant and sinusoidal delays, else the (E,) array of
        per-arc draws, drawn once per hold interval and reused while t
        stays in that interval."""
        if self.kind == "sinusoidal":
            return self._sinusoid
        if self.kind != "piecewise-random":
            fixed = float(self.value) if self.kind == "constant" else 0.0
            return lambda t: fixed
        ei, ej = np.asarray(ei, dtype=int).tolist(), np.asarray(ej, dtype=int).tolist()
        held = {}

        def at(t):
            k = int(np.floor(t / self.hold))
            if k not in held:
                held.clear()
                held[k] = np.array([self(i, j, t) for i, j in zip(ei, ej)], dtype=float)
            return held[k]
        return at

    @property
    def integer_tau_max(self) -> int:
        if not self.integer_valued:
            raise AdmissibilityError("profile is not integer-valued")
        return int(np.ceil(self.tau_max))

    @property
    def continuous_in_t(self) -> bool:
        """Whether tau_ij(t) is continuous; discontinuous profiles get a
        warning when used with the continuous integrator."""
        return self.kind in ("zero", "constant", "sinusoidal")
