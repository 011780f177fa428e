"""Batch-size, step-size, noise, and averaging-weight schedule constructors.

Every constructor here is a pure function returning immutable data; the
optimizers consume schedules without modifying them.
"""

from __future__ import annotations

import array
import json
import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

# Batch-size multipliers for the two growing-batch regimes: the constant-step
# regime uses 2, the piecewise-geometric step regime uses 4 * sqrt(3).
MULTIPLIER_SZ = 2.0
MULTIPLIER_JNN = 4.0 * math.sqrt(3.0)


class InvalidScheduleError(ValueError):
    """A schedule violates its structural invariants."""


def _whole(value, least: int, name: str) -> int:
    """``value`` as an int, refused with ValueError unless it is an integer
    (not a bool) of at least ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


# The intervals a real can lie in, named as refusals word them: (low, high, low in, high in)
_INTERVALS = {
    "positive and finite": (0.0, math.inf, False, False),
    "nonnegative and finite": (0.0, math.inf, True, False),
    "finite": (-math.inf, math.inf, False, False),
    "positive": (0.0, math.inf, False, True),
    "nonnegative": (0.0, math.inf, True, True),
    "in (0, 1)": (0.0, 1.0, False, False),
    "> 1": (1.0, math.inf, False, False),
    ">= 1": (1.0, math.inf, True, False),
}


def _real(value, name: str, interval: str = "positive and finite") -> float:
    """``value`` as a float, refused with ValueError unless it is a real
    number (Python or numpy; not a bool, a string or None) in ``interval``,
    one of the names in :data:`_INTERVALS`. NaN lies in none of them."""
    low, high, with_low, with_high = _INTERVALS[interval]
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:  # an integer past float64
            real = math.inf if value > 0 else -math.inf
        if low < real < high or with_low and real == low or with_high and real == high:
            return real
    raise ValueError(f"{name} must be {interval}, got {value!r}")


class DimensionMismatchError(ValueError):
    """A point's dimension does not match the domain it is used with."""


def _vector(values, name: str, interval: str = "finite", dim: int | None = None) -> np.ndarray:
    """``values`` as a one-dimensional float64 array: a real number (a vector
    of length 1), or a nonempty 1-D list, tuple or array of real numbers, each
    as :func:`_real` takes it and in ``interval``. Anything else is refused
    with ValueError, a length other than ``dim`` with
    :class:`DimensionMismatchError`. A 1-D float64 array comes back uncopied."""
    listed = type(values) in (list, tuple)
    if listed or isinstance(values, numbers.Real):
        entries = values if listed else (values,)
        kinds = set(map(type, entries))  # one test per type, not per entry
        if bool in kinds or not all(issubclass(kind, numbers.Real) for kind in kinds):
            bad = next(x for x in entries
                       if isinstance(x, bool) or not isinstance(x, numbers.Real))
            raise ValueError(f"{name} must hold real numbers, got {bad!r}")
        try:
            values = np.array(entries, dtype=np.float64)
        except OverflowError:  # an integer past float64
            values = np.array([_real(x, name, interval) for x in entries])
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got {values!r}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or not arr.size:
        raise ValueError(f"{name} must be a nonempty vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    for end in (arr.min(), arr.max()):  # NaN is both
        _real(float(end), name, interval)
    return arr


def _frozen(values) -> np.ndarray:
    """A read-only float64 copy of ``values`` that shares no memory with them."""
    kept = np.array(values, dtype=np.float64)
    kept.flags.writeable = False
    return kept


# Batch sizes are stored as int64; this is the largest one, and the largest total.
_INT64_MAX = 2**63 - 1


def _packed(values, code: str) -> np.ndarray | None:
    """A read-only float64 (``code`` "d") or int64 ("q") view of the bytes
    one ``struct`` call packs a list or tuple of real numbers (of integers in
    int64 for "q") into, their only copy; None when the general conversion
    must decide."""
    if type(values) not in (list, tuple):
        return None
    try:
        packed = struct.Struct(f"{len(values)}{code}").pack(*values)
    except (struct.error, TypeError, ValueError, OverflowError):
        return None
    return np.frombuffer(packed, np.float64 if code == "d" else np.int64)


def _float_vector(values, name: str) -> tuple[np.ndarray, float]:
    """A fresh, finite float64 vector holding ``values`` (any sequence or array),
    and its smallest entry (inf when empty); a list or tuple via :func:`_packed`."""
    arr = _packed(values, "d")
    if arr is None:
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
        return arr, math.inf
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
    arr = _packed(values, "q")
    if arr is not None:
        return arr
    arr, lo = _float_vector(values, "batch sizes")
    if np.any(arr != np.floor(arr)):
        raise InvalidScheduleError("batch sizes must be integers")
    if lo < 1:
        raise InvalidScheduleError("batch sizes must be >= 1")
    if arr.max(initial=0.0) < 2.0**53:
        return arr.astype(np.int64)
    try:  # float64 rounds integers above 2^53: take the entries exactly
        return np.array(array.array("q", map(int, values)))
    except OverflowError:
        raise InvalidScheduleError("batch sizes must fit in int64") from None


@dataclass(frozen=True, eq=False)
class Schedule:
    """Per-step batch sizes, step sizes, and noise scales for T steps.

    Any sequences (or arrays) are accepted; they are copied once into
    read-only arrays that share no memory with them: ``batch_sizes`` as int64
    (exact for integer input), ``step_sizes`` and ``noise_scales`` as float64,
    a list or tuple by :func:`_packed` and whatever it leaves through numpy.
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

    def __reduce__(self):
        # copies and unpickled schedules are rebuilt by __post_init__: read-only
        return Schedule, (self.batch_sizes, self.step_sizes, self.noise_scales)

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
        T = _whole(T, 1, "T")
        # broadcast views: __post_init__ makes the one owned copy of each field
        return cls(np.broadcast_to(batch_size, T), np.broadcast_to(eta, T),
                   np.broadcast_to(sigma, T))

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
        fields = []
        for key in ("B", "eta", "sigma"):
            if key not in obj:
                raise InvalidScheduleError(f"schedule JSON missing key {key!r}")
            field = obj[key]
            # numpy would parse "3" and array.array would take true as 1
            if not (isinstance(field, list) and set(map(type, field)) <= {int, float}):
                raise InvalidScheduleError(f"schedule JSON {key!r} must be a list of numbers")
            fields.append(field)
        return cls(*fields)


# snowball_sizes computes every c_r while n is at most _DIRECT_MAX, and past
# it every c_r before the runs of equal values reach _RUN_MIN steps.
_DIRECT_MAX = 16384
_RUN_MIN = 64


def snowball_sizes(n: int, d: int, rho: float, multiplier: float) -> np.ndarray:
    """c_r = ceil(multiplier * sqrt(d / r) / rho) for r = 1..n as an int64
    array: the batch size of a snowball step with r steps left. c_r is at
    least 1, also where the expression underflows to 0.

    Every float operation in c_r is monotone, so c_r is non-increasing in r.
    The head, r <= h = (_RUN_MIN * c_1 / 2)^(2/3), is where c_r falls fast;
    there every c_r is computed. Past it each run of equal values ends where a
    vectorized bisection on the same expression puts it, and the runs are
    repeated out, so the float work is O(h + runs * log n) rather than O(n).
    ``n`` and ``d`` must be >= 1, ``rho`` and ``multiplier`` positive and
    finite, and c_1 must fit in int64.
    """
    n, d = _whole(n, 1, "n"), _whole(d, 1, "d")
    rho, multiplier = _real(rho, "rho"), _real(multiplier, "multiplier")
    if not multiplier * math.sqrt(d) / rho < 2.0**63:  # c_1 as computed below
        raise ValueError("batch sizes must fit in int64")

    def raw(r):
        return multiplier * np.sqrt(d / r) / rho

    def size(r):  # the ceiling of a positive number, even where raw underflows to 0
        return np.maximum(np.ceil(raw(r)), 1.0)

    h = n
    if n > _DIRECT_MAX:
        h = min(n, math.ceil((_RUN_MIN * float(size(1.0)) / 2.0) ** (2.0 / 3.0)))
    head = size(np.arange(1, h + 1, dtype=np.float64)).astype(np.int64)
    if h == n:
        return head
    top, low = size(np.array([h + 1.0, float(n)]))
    # for each value k in (c_n, c_{h+1}], the last r > h with c_r >= k,
    # that is with raw(r) > k - 1
    below = np.arange(top - 1.0, low - 1.0, -1.0)
    last = np.full(below.shape, h + 1.0)
    past = np.full(below.shape, n + 1.0)  # c_past < k
    for _ in range(int(n - h).bit_length() if below.size else 0):
        mid = np.floor((last + past) / 2.0)
        above = raw(mid) > below
        last = np.where(above, mid, last)
        past = np.where(above, past, mid)
    # value k covers the r past the last of k + 1 up to its own last (none
    # if c_r skips k), and c_n the rest up to n
    counts = np.diff(last.astype(np.int64), prepend=h, append=n)
    return np.concatenate(
        (head, np.repeat(np.arange(int(top), int(low) - 1, -1, dtype=np.int64), counts)))


def snowball_batches(T: int, d: int, rho: float,
                     multiplier: float = MULTIPLIER_SZ) -> tuple[int, ...]:
    """Growing batch sizes B_t = ceil(multiplier * sqrt(d / (T - t + 1)) / rho).

    The schedule equalizes per-example privacy under amplification by
    iteration; the total satisfies sum B_t <= T + 2 * multiplier * sqrt(dT) / rho.
    B_t is c_r of :func:`snowball_sizes` at r = T - t + 1.
    """
    T = _whole(T, 1, "T")
    # faster than tuple(tolist()); the array is freed before the tuple is built
    return struct.Struct(f"{T}q").unpack(
        snowball_sizes(T, d, rho, multiplier)[::-1].tobytes())


def constant_step(T: int, D: float, L_G: float) -> tuple[float, ...]:
    """Fixed step size D / (L_G * sqrt(T)) for all T steps; T >= 1, and D
    and L_G positive and finite."""
    T, D, L_G = _whole(T, 1, "T"), _real(D, "D"), _real(L_G, "L_G")
    return (D / (L_G * math.sqrt(T)),) * T


def jnn_steps(T: int, c: float) -> tuple[float, ...]:
    """Piecewise-geometric decaying step sizes that remove the log factor
    from the last iterate's excess loss.

    With ell = ceil(log2 T) and band boundaries T_i = T - ceil(T * 2^-i)
    (T_{ell+1} = T), steps in band i equal c * 2^-i / sqrt(T). The sequence is
    nonincreasing; the first step is c / sqrt(T) and the last c * 2^-ell / sqrt(T).
    T >= 1, and c positive and finite.
    """
    T, c = _whole(T, 1, "T"), _real(c, "c")
    ell = max(0, math.ceil(math.log2(T)))
    bounds = [T - math.ceil(T * 2.0 ** (-i)) for i in range(ell + 1)] + [T]
    band_steps = (c * 2.0 ** -np.arange(ell + 1) / math.sqrt(T)).tolist()
    steps: list[float] = []
    for step, start, stop in zip(band_steps, bounds, bounds[1:]):
        steps += [step] * (stop - start)
    return tuple(steps)


def sc_weights(T: int, eta: float, lam: float) -> np.ndarray:
    """Geometric averaging weights (1 - eta * lam)^-t, t = 1..T, for strongly
    convex SGD, as a read-only array.

    Requires eta and lam positive and finite with eta * lam < 1, so the
    weights are positive, and a finite sum; the consuming optimizer
    additionally enforces eta <= 1 / (2 * lam).
    """
    T, eta, lam = _whole(T, 1, "T"), _real(eta, "eta"), _real(lam, "lam")
    if eta * lam >= 1:
        raise InvalidScheduleError(f"eta * lam = {eta * lam} >= 1: weights diverge")
    base = 1.0 - eta * lam
    with np.errstate(over="ignore"):
        try:
            weights = np.array([base ** (-t) for t in range(1, T + 1)])
            finite = math.isfinite(weights.sum())
        except OverflowError:  # a weight past float64
            finite = False
    if not finite:
        raise InvalidScheduleError(f"weights (1 - eta * lam)^-t overflow float64 by T = {T}")
    weights.flags.writeable = False
    return weights


def phase_plan(n: int, eta0: float) -> list[tuple[int, float]]:
    """Per-phase (sample count, step size) plan for localization algorithms:
    k = ceil(log2 n) phases with n_i = floor(2^-i * n) and
    eta_i = 4^-i * eta0. Sample counts are floored so they are integers; the
    leftover samples are discarded, which only strengthens privacy. Phases
    with zero samples are dropped (n = 5 gives an empty third phase), so
    sum n_i <= n. n >= 2, and eta0 positive and finite.
    """
    n, eta0 = _whole(n, 2, "n"), _real(eta0, "eta0")
    plan = [(n >> i, eta0 * 4.0 ** (-i)) for i in range(1, math.ceil(math.log2(n)) + 1)]
    return [(ni, ei) for ni, ei in plan if ni >= 1]
