"""Communication weights and per-edge delay profiles.

Weights are positive, non-increasing functions bounded by kappa; the
algebraically decaying family kappa * (1 + r^2)^(-beta) is the default.
Delay profiles give tau_ij(t) in [0, tau_max] with tau_ii identically
zero; an integer-valued view serves the discrete recursion.  Both are
immutable and pure in (i, j, t), so instances can be shared freely.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np


class AdmissibilityError(ValueError):
    """Weight or delay violates a required bound."""


_M32 = 2 ** 32 - 1
_PCG_M = 0x2360ED051FC65DA44385DF649FCCF645        # PCG64's 128-bit multiplier M


def _first_outputs(entropy):
    """First outputs of ``default_rng(SeedSequence(entropy))``, lane by lane, for
    four or more 32-bit words held in Python ints or uint64 arrays of lanes."""
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    def mul128(hi, lo, c):    # (hi, lo) * c mod 2**128; lo * c0 in full from 32-bit limbs
        c1, c0 = divmod(c % 2 ** 128, 2 ** 64)
        a0, a1, b0, b1 = lo & _M32, lo >> 32, c0 & _M32, c0 >> 32
        mid = (a0 * b0 >> 32) + (a0 * b1 & _M32) + (a1 * b0 & _M32)
        high = a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
        return high + hi * c0 + lo * c1, lo * c0
    pool = [hashmix(w) for w in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(w))
    const, mult = 0x8B51F9DD, 0x58F38DED           # generate_state(4, np.uint64)
    w32 = [hashmix(pool[d % 4]) for d in range(8)]
    s = [w32[2 * d] | w32[2 * d + 1] << 32 for d in range(4)]
    # seeding and the first step leave state = initstate * M**2 + inc * (M**2 + M + 1)
    a_hi, a_lo = mul128(s[0], s[1], _PCG_M ** 2)
    b_hi, b_lo = mul128(s[2] << 1 | s[3] >> 63, s[3] << 1 | 1, _PCG_M ** 2 + _PCG_M + 1)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << ((64 - rot) & 63)


def _refuse_past_float(obj, names, finite=()):
    """Refuse by name a field of obj past the float range (an int, which would pass
    the bounds and overflow the first float operation), or one in finite that is not finite."""
    for name in names:
        try:
            value = np.asarray(getattr(obj, name), dtype=float)
        except OverflowError:
            raise AdmissibilityError(f"{name} is past the float range") from None
        if name in finite and not np.isfinite(value):
            raise AdmissibilityError(f"{name} must be finite, got {getattr(obj, name)}")


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
    the unnormalized form.  It must be positive and leave kappa /
    normalize_by positive and finite.
    """

    kind: str = "cucker-smale"
    kappa: float = 1.0
    beta: float = 0.0
    table_r: np.ndarray | None = None
    table_v: np.ndarray | None = None
    normalize_by: int | None = None

    def __post_init__(self):
        _refuse_past_float(self, ("kappa", "beta", "normalize_by", "table_r", "table_v"))
        if not 0 < self.kappa < np.inf:
            raise AdmissibilityError(f"kappa must be positive and finite, got {self.kappa}")
        if (nb := self.normalize_by) is not None and not (nb > 0 and 0 < self.kappa / nb < np.inf):
            raise AdmissibilityError(f"normalize_by must be positive and leave kappa / "
                                     f"normalize_by positive and finite, got {nb}")
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

    @functools.cached_property
    def admissibility(self) -> "AdmissibilityReport":
        """verify_admissible's report at its defaults, sampled once per instance."""
        return verify_admissible(self)

    @property
    def effective_kappa(self) -> float:
        return self.kappa if self.normalize_by is None else self.kappa / self.normalize_by

    def __call__(self, r):
        """Evaluate psi(r); r may be a scalar or an array, all >= 0."""
        if type(r) is float and r >= 0 and self.kind == "cucker-smale":   # libm pow, as on
            return self.effective_kappa * (1.0 + r * r) ** (-self.beta)   # a numpy scalar
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
            if self.normalize_by is not None:
                out = out / self.normalize_by
        return out if out.ndim else float(out)


def batch_weight(ws, n_arcs: int):
    """One psi on the arcs of the members ws, member b's on lanes b*n_arcs onward, bit for
    bit as its own call on norms, whose sign it does not check: kappa_e * (1 + r^2)^-beta,
    a constant weight with exponent -0.0.  numpy takes a scalar exponent -1 as a reciprocal,
    which an array exponent misses by an ulp, so lanes at beta = 1 divide."""
    if ws[0].kind == "tabulated" and all(m is ws[0] for m in ws):
        return ws[0]   # one interpolation for the batch, not a wasted power
    params = [(m.effective_kappa, -0.0 if m.kind == "constant" else -m.beta) for m in ws]
    tabs = [(b * n_arcs, m) for b, m in enumerate(ws) if m.kind == "tabulated"]
    kappa, e = params[0] if len(set(params)) == 1 else np.repeat(np.array(params).T, n_arcs, 1)
    recip = e == -1.0 if np.ndim(e) and (e == -1.0).any() else None
    unit, one = bool(np.all(kappa == 1.0)), np.array(1.0)   # 1.0 * x is x; a 0-d 1.0 adds faster

    def psi(r):
        base = one + r * r
        out = base ** e
        if recip is not None:
            np.divide(1.0, base, out=out, where=recip)
        out = out if unit else kappa * out
        for lo, m in tabs:   # tabulated members interpolate their own lanes
            out[lo:lo + n_arcs] = m(r[lo:lo + n_arcs])
        return out
    return psi


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

    ``integer_valued=True`` serves the discrete recursion: a constant delay
    must be and a random draw is a whole number; a sinusoid stays fractional,
    and the recursion rounds each step's delay half to even (np.rint).
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
        _refuse_past_float(self, ("tau_max", "value", "mean", "amplitude", "period", "hold",
                                  "low", "high"), finite=("tau_max", "mean", "amplitude"))
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
            if not self.hold > 0:
                raise AdmissibilityError(f"hold interval must be positive, got {self.hold}")
            if self.seed < 0:
                raise AdmissibilityError(f"random delay seed {self.seed} is negative")
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
        k = self._hold_index(t)
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
        ei, ej = np.asarray(ei, dtype=np.uint64), np.asarray(ej, dtype=np.uint64)
        held = {}

        def at(t):
            k = self._hold_index(t)
            if k not in held:
                held.clear()
                held[k] = self._held_draws(ei, ej, t, k)
            return held[k]
        return at

    def _hold_index(self, t) -> int:   # the k of the hold interval [k hold, (k + 1) hold) of t
        try:
            return math.floor(float(t) / float(self.hold))
        except OverflowError:
            raise AdmissibilityError(f"hold interval {self.hold:g} is too short: t / hold "
                                     f"overflows at t = {t:g}") from None

    def _held_draws(self, ei, ej, t, k):
        """``self(i, j, t)`` on all arcs at once, k the hold index of t; diagonal lanes,
        Lemire's rejections and ranges of over 2**32 integers take the per-arc call."""
        seed = int(self.seed)
        words = [(seed >> s) & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        x = _first_outputs(words + [ei, ej, k & 0x7FFFFFFF])
        redo = ei == ej
        if self.integer_valued:
            low = math.ceil(self.low)
            excl = math.floor(self.high) + 1 - low
            m = (x & _M32) * min(excl, 2 ** 32)     # Lemire on the low 32 bits
            draws = (low + (m >> 32)).astype(float)
            redo |= excl > 2 ** 32 or (m & _M32) < (2 ** 32 - excl) % excl
        else:
            draws = self.low + (self.high - self.low) * ((x >> 11) * 2.0 ** -53)
        for e in np.flatnonzero(redo):
            draws[e] = self(int(ei[e]), int(ej[e]), t)
        return draws

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
