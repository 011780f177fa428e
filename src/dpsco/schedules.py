"""Batch-size, step-size, noise, and averaging-weight schedule constructors.

Every constructor here is a pure function returning immutable data; the
optimizers consume schedules without modifying them.
"""

from __future__ import annotations

import array
import json
import math
from dataclasses import dataclass

import numpy as np

# Batch-size multipliers for the two growing-batch regimes: the constant-step
# regime uses 2, the piecewise-geometric step regime uses 4 * sqrt(3).
MULTIPLIER_SZ = 2.0
MULTIPLIER_JNN = 4.0 * math.sqrt(3.0)


class InvalidScheduleError(ValueError):
    """A schedule violates its structural invariants."""


# Batch sizes are stored as int64; this is the largest one, and the largest total.
_INT64_MAX = 2**63 - 1


def _float_vector(values, name: str) -> tuple[np.ndarray, float]:
    """A fresh, finite float64 vector holding ``values`` (any sequence or
    array), with its smallest entry (0.0 when empty)."""
    try:
        if isinstance(values, np.ndarray):
            arr = values.astype(np.float64)
        else:
            arr = np.fromiter(values, dtype=np.float64, count=len(values))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidScheduleError(f"{name} must be a sequence of numbers: {exc}") from exc
    if arr.ndim != 1:
        raise InvalidScheduleError(f"{name} must be one-dimensional")
    if arr.size == 0:
        return arr, 0.0
    lo, hi = arr.min(), arr.max()  # NaN propagates through both
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidScheduleError(f"{name} must be finite")
    return arr, float(lo)


def _batch_vector(values) -> np.ndarray:
    """A fresh one-dimensional int64 vector of integral batch sizes.

    Integers (Python or numpy, in a list, tuple, range or integer array)
    convert exactly; a sequence with a float entry, or a float array, goes
    through float64 and must hold integral values. Entries int64 cannot hold
    are refused.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "biu":
        if values.dtype.kind == "u" and values.size and values.max() > _INT64_MAX:
            raise InvalidScheduleError("batch sizes must fit in int64")
        arr = values.astype(np.int64)
        if arr.ndim != 1:
            raise InvalidScheduleError("batch sizes must be one-dimensional")
        return arr
    if isinstance(values, (list, tuple, range)):
        try:
            return np.array(array.array("q", values))
        except (TypeError, OverflowError):
            pass  # a float, non-numeric or out-of-range entry: float64 decides
    arr, lo = _float_vector(values, "batch sizes")
    if np.any(arr != np.floor(arr)):
        raise InvalidScheduleError("batch sizes must be integers")
    if lo < 1:
        raise InvalidScheduleError("batch sizes must be >= 1")
    hi = arr.max() if arr.size else 0.0
    if hi >= 2.0**63:
        raise InvalidScheduleError("batch sizes must fit in int64")
    if hi >= 2.0**53 and not isinstance(values, np.ndarray):
        # float64 rounds integers above 2^53: take the integer entries exactly
        return np.array(array.array("q", map(int, values)))
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-step batch sizes, step sizes, and noise scales for T steps.

    Any sequences (or arrays) are accepted; they are copied once into
    read-only arrays that own their memory: ``batch_sizes`` as int64 (exact
    for integer input), ``step_sizes`` and ``noise_scales`` as float64.
    Invariants: equal lengths, finite entries, integral batch sizes >= 1 whose
    total fits in int64, step sizes >= 0, noise scales >= 0. (Zero step sizes
    are permitted so that ablation runs that freeze the iterate remain
    expressible.) Equality compares the arrays; schedules are unhashable.
    """

    batch_sizes: np.ndarray
    step_sizes: np.ndarray
    noise_scales: np.ndarray

    def __post_init__(self):
        batches = _batch_vector(self.batch_sizes)
        eta, eta_lo = _float_vector(self.step_sizes, "step sizes")
        sigma, sigma_lo = _float_vector(self.noise_scales, "noise scales")
        T = batches.shape[0]
        if T == 0:
            raise InvalidScheduleError("schedule must have at least one step")
        if eta.shape[0] != T or sigma.shape[0] != T:
            raise InvalidScheduleError("schedule lists must have equal length")
        if batches.min() < 1:
            raise InvalidScheduleError("batch sizes must be >= 1")
        if eta_lo < 0:
            raise InvalidScheduleError("step sizes must be nonnegative")
        if sigma_lo < 0:
            raise InvalidScheduleError("noise scales must be nonnegative")
        # T * max bounds the total; only a bound past int64 needs the exact sum
        if int(batches.max()) * T > _INT64_MAX and sum(batches.tolist()) > _INT64_MAX:
            raise InvalidScheduleError("total batch size must fit in int64")
        for name, arr in (("batch_sizes", batches), ("step_sizes", eta),
                          ("noise_scales", sigma)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, Schedule):
            return NotImplemented
        return (np.array_equal(self.batch_sizes, other.batch_sizes)
                and np.array_equal(self.step_sizes, other.step_sizes)
                and np.array_equal(self.noise_scales, other.noise_scales))

    @property
    def num_steps(self) -> int:
        return self.batch_sizes.shape[0]

    def total_samples(self) -> int:
        return int(self.batch_sizes.sum())

    @classmethod
    def constant(cls, T: int, batch_size: int, eta: float, sigma: float) -> "Schedule":
        return cls(np.full(T, batch_size), np.full(T, eta), np.full(T, sigma))

    def to_json(self) -> str:
        return json.dumps(
            {"B": self.batch_sizes.tolist(), "eta": self.step_sizes.tolist(),
             "sigma": self.noise_scales.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise InvalidScheduleError("schedule JSON must be an object")
        try:
            return cls(obj["B"], obj["eta"], obj["sigma"])
        except KeyError as exc:
            raise InvalidScheduleError(f"schedule JSON missing key {exc}") from exc


@dataclass(frozen=True)
class AveragingWeights:
    """Strictly positive per-iterate weights with their normalization."""

    weights: tuple[float, ...]

    def __post_init__(self):
        if len(self.weights) == 0:
            raise InvalidScheduleError("weights must be nonempty")
        if any(w <= 0 or not math.isfinite(w) for w in self.weights):
            raise InvalidScheduleError("weights must be positive and finite")

    @property
    def normalization(self) -> float:
        return float(sum(self.weights))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=np.float64)


def snowball_batches(T: int, d: int, rho: float, multiplier: float = MULTIPLIER_SZ) -> list[int]:
    """Growing batch sizes B_t = ceil(multiplier * sqrt(d / (T - t + 1)) / rho).

    The schedule equalizes per-example privacy under amplification by
    iteration; the total satisfies sum B_t <= T + 2 * multiplier * sqrt(dT) / rho.
    """
    if T < 1 or d < 1:
        raise ValueError("T and d must be >= 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    remaining = np.arange(T, 0, -1, dtype=np.float64)  # T - t + 1 for t = 1..T
    raw = multiplier * np.sqrt(d / remaining) / rho
    return np.ceil(raw).astype(np.int64).tolist()


def constant_step(T: int, D: float, L_G: float) -> list[float]:
    """Fixed step size D / (L_G * sqrt(T)) for all T steps."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if D <= 0 or L_G <= 0:
        raise ValueError("D and L_G must be positive")
    return [D / (L_G * math.sqrt(T))] * T


def jnn_steps(T: int, c: float) -> list[float]:
    """Piecewise-geometric decaying step sizes that remove the log factor
    from the last iterate's excess loss.

    With ell = ceil(log2 T) and band boundaries T_i = T - ceil(T * 2^-i)
    (T_{ell+1} = T), steps in band i equal c * 2^-i / sqrt(T). The sequence is
    nonincreasing; the first step is c / sqrt(T) and the last c * 2^-ell / sqrt(T).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    ell = max(0, math.ceil(math.log2(T)))
    bounds = [T - math.ceil(T * 2.0 ** (-i)) for i in range(ell + 1)] + [T]
    band_steps = (c * 2.0 ** -np.arange(ell + 1) / math.sqrt(T)).tolist()
    steps: list[float] = []
    for step, start, stop in zip(band_steps, bounds, bounds[1:]):
        steps += [step] * (stop - start)
    return steps


def sc_weights(T: int, eta: float, lam: float) -> AveragingWeights:
    """Geometric averaging weights (1 - eta * lam)^-t for strongly convex SGD.

    Requires eta * lam < 1 so the weights are positive and finite; the
    consuming optimizer additionally enforces eta <= 1 / (2 * lam).
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if eta <= 0 or lam <= 0:
        raise ValueError("eta and lam must be positive")
    if eta * lam >= 1:
        raise InvalidScheduleError(f"eta * lam = {eta * lam} >= 1: weights diverge")
    base = 1.0 - eta * lam
    return AveragingWeights(tuple(base ** (-t) for t in range(1, T + 1)))


def phase_plan(
    n: int,
    eta0: float,
    mode: str = "geometric",
    k_override: int | None = None,
) -> list[tuple[int, float]]:
    """Per-phase (sample count, step size) plan for localization algorithms.

    geometric:
        k = ceil(log2 n) phases with n_i = floor(2^-i * n) and
        eta_i = 4^-i * eta0. Sample counts are floored so they are integers;
        the leftover samples are discarded, which only strengthens privacy.
    doubly_exponential:
        k = ceil(ln ln n) (at least 1, overridable) phases with n_i =
        floor(n / k) and eta_i = 2^(-2^i) * eta0.

    Phases with zero samples are dropped (the plan is truncated at the last
    phase with n_i >= 1). In both modes sum n_i <= n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if eta0 <= 0:
        raise ValueError("eta0 must be positive")
    if mode == "geometric":
        k = math.ceil(math.log2(n))
        plan = [(n >> i, eta0 * 4.0 ** (-i)) for i in range(1, k + 1)]
    elif mode == "doubly_exponential":
        if k_override is not None:
            k = int(k_override)
            if k < 1:
                raise ValueError("k_override must be >= 1")
        else:
            k = max(1, math.ceil(math.log(max(math.log(n), 1.0 + 1e-12))))
        plan = [(n // k, eta0 * 2.0 ** (-(2.0 ** i))) for i in range(1, k + 1)]
    else:
        raise ValueError(f"unknown phase mode {mode!r}")
    plan = [(ni, ei) for ni, ei in plan if ni >= 1]
    if not plan:
        raise InvalidScheduleError(f"phase plan for n = {n} has no nonempty phase")
    assert sum(ni for ni, _ in plan) <= n
    return plan
