"""Analytic Renyi-DP accounting.

All mechanisms in this package produce RDP curves of the exact form
``alpha -> alpha * rho^2 / 2`` (for every order alpha >= 1), so a budget is
stored as the single scalar ``rho``; this is the same scalar as in
``rho^2/2``-zCDP. Infinite budgets (for zero-noise ablations) are a
first-class value, not an exception, so parameter sweeps never crash.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .schedules import Schedule

# z_T = 0 is checked against accumulated float error of the shift sums.
_SLACK_TOL = 1e-12


class InvalidAllocationError(ValueError):
    """A shift allocation front-loads more shift than has occurred."""


@dataclass(frozen=True)
class PrivacyBudget:
    """The RDP curve alpha -> alpha * rho^2 / 2 for all alpha >= 1."""

    rho: float

    def __post_init__(self):
        if math.isnan(self.rho) or self.rho < 0:
            raise ValueError(f"rho must be nonnegative, got {self.rho}")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.rho)

    def epsilon_at(self, alpha: float) -> float:
        if alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {alpha}")
        return alpha * self.rho * self.rho / 2.0


@dataclass(frozen=True)
class ApproxDP:
    """A plain (epsilon, delta)-DP guarantee, for mechanisms with a failure
    probability that have no clean RDP curve."""

    epsilon: float
    delta: float


@dataclass(frozen=True)
class ShiftSequence:
    """Per-step map-divergence suprema ``shifts`` and their allocation.

    The running slack z_t = sum_{i<=t} shifts_i - sum_{i<=t} allocation_i must
    stay nonnegative for the allocation to be admissible; an exact allocation
    drives z_T to 0.
    """

    shifts: tuple[float, ...]
    allocation: tuple[float, ...]

    def __post_init__(self):
        if len(self.shifts) != len(self.allocation):
            raise InvalidAllocationError("shifts and allocation must have equal length")
        if any(s < 0 for s in self.shifts):
            raise InvalidAllocationError("shifts must be nonnegative")

    def slack(self) -> np.ndarray:
        return np.cumsum(self.shifts) - np.cumsum(self.allocation)

    def validate(self) -> None:
        z = self.slack()
        scale = max(1.0, float(np.max(np.abs(np.cumsum(self.shifts))))) if self.shifts else 1.0
        if np.any(z < -_SLACK_TOL * scale):
            raise InvalidAllocationError(
                f"allocation front-loads shift: min slack {float(np.min(z))}"
            )


def gaussian_renyi(shift: float, sigma: float, alpha: float) -> float:
    """Renyi divergence of order alpha between N(0, sigma^2 I) and its copy
    shifted by a vector of length ``shift``: alpha * shift^2 / (2 sigma^2).

    Returns ``math.inf`` (not an exception) when sigma = 0 with a nonzero
    shift; a zero shift has divergence 0 for any sigma.
    """
    if shift < 0:
        raise ValueError(f"shift must be nonnegative, got {shift}")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    if shift == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return alpha * shift * shift / (2.0 * sigma * sigma)


def pai_rho(schedule: Schedule, lipschitz: float) -> PrivacyBudget:
    """Privacy of projected noisy SGD under amplification by iteration.

    For batch sizes B_t, step sizes eta_t and noise scales sigma_t the last
    iterate satisfies (alpha, alpha rho^2 / 2)-RDP for every alpha >= 1 with

        rho = 2 L * max_t { eta_t / (B_t * sqrt(sum_{s >= t} eta_s^2 sigma_s^2)) },

    provided every eta_t <= 2 / beta (the optimizer's responsibility, checked
    there). One pass: the suffix sums are accumulated back-to-front, and each
    step's term is taken in place. A zero step contributes nothing, whatever
    the later noise; a zero noise suffix under a nonzero step makes the budget
    infinite.
    """
    if lipschitz < 0:
        raise ValueError("lipschitz must be nonnegative")
    eta, sigma, batches = schedule.step_sizes, schedule.noise_scales, schedule.batch_sizes
    terms = np.cumsum(((eta * sigma) ** 2)[::-1])[::-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        np.sqrt(terms, out=terms)
        terms *= batches
        # eta_t > 0 over a zero suffix gives inf; a zero step gives 0, or NaN
        # (0 / 0), which fmax skips
        np.divide(eta, terms, out=terms)
    worst = float(np.fmax.reduce(terms, initial=0.0))
    if worst == 0.0 or worst == math.inf:  # L does not enter; abs turns -0.0 into 0.0
        return PrivacyBudget(abs(worst))
    return PrivacyBudget(2.0 * lipschitz * worst)


def pai_divergence_general(
    shifts: ShiftSequence, noise_sigmas, alpha: float
) -> float:
    """Renyi divergence bound for a contractive noisy iteration whose step
    maps differ by ``shifts``, under the supplied allocation: the sum of the
    per-step Gaussian divergences at the allocated shifts."""
    sigmas = [float(s) for s in noise_sigmas]
    if len(sigmas) != len(shifts.shifts):
        raise InvalidAllocationError("noise_sigmas length must match the shift sequence")
    shifts.validate()
    return sum(gaussian_renyi(a, s, alpha) for a, s in zip(shifts.allocation, sigmas))


def optimal_single_shift_allocation(shift: float, step_index: int, noise_sigmas) -> ShiftSequence:
    """Spread a single step's shift over all subsequent noise, proportionally
    to each step's noise variance.

    ``step_index`` is 0-based. The allocation a_i = shift * sigma_i^2 /
    sum_{v >= step_index} sigma_v^2 (zero before the shift) is admissible and
    exact, and minimizes the summed Gaussian divergence.
    """
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    sigmas = np.asarray([float(s) for s in noise_sigmas], dtype=np.float64)
    T = sigmas.shape[0]
    if not 0 <= step_index < T:
        raise IndexError(f"step_index {step_index} out of range for {T} steps")
    shift_list = [0.0] * T
    shift_list[step_index] = float(shift)
    tail = sigmas[step_index:] ** 2
    total = float(np.sum(tail))
    alloc = [0.0] * T
    if shift > 0:
        if total == 0.0:
            raise InvalidAllocationError("no noise after the shifted step")
        for i in range(step_index, T):
            alloc[i] = shift * float(sigmas[i] ** 2) / total
    return ShiftSequence(tuple(shift_list), tuple(alloc))


def gaussian_mechanism_budget(sensitivity: float, sigma: float) -> PrivacyBudget:
    """Output perturbation: releasing A(S) + N(0, sigma^2 I) for an algorithm
    with L2-sensitivity ``sensitivity`` satisfies the curve with
    rho = sensitivity / sigma."""
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return PrivacyBudget(sensitivity / sigma)


def compose(budgets) -> PrivacyBudget:
    """Sequential composition: the curves alpha * rho_i^2 / 2 add, so the
    composed budget is rho = sqrt(sum rho_i^2)."""
    total = 0.0
    for b in budgets:
        if b.is_infinite:
            return PrivacyBudget(math.inf)
        total += b.rho * b.rho
    return PrivacyBudget(math.sqrt(total))


def rdp_to_dp(budget: PrivacyBudget, delta: float) -> float:
    """Convert the curve to (epsilon, delta)-DP: rho^2/2 + rho sqrt(2 ln(1/delta)).

    This closed form equals the minimum over alpha > 1 of
    alpha rho^2 / 2 + ln(1/delta) / (alpha - 1). It is standard (and tight
    relative to this conversion) in the regime rho <= sqrt(ln(1/delta));
    outside that regime a warning is emitted but the value, which remains a
    valid conversion, is still returned.
    """
    _check_delta(delta)
    rho = budget.rho
    if math.isinf(rho):
        return math.inf
    if rho > math.sqrt(math.log(1.0 / delta)):
        warnings.warn(
            f"rho = {rho} exceeds sqrt(ln(1/delta)) = {math.sqrt(math.log(1.0 / delta))}; "
            "the conversion is valid but loose in this regime",
            stacklevel=2,
        )
    return rho * rho / 2.0 + rho * math.sqrt(2.0 * math.log(1.0 / delta))


def rdp_to_dp_general(budget: PrivacyBudget, delta: float, alpha: float | None = None) -> float:
    """The order-wise conversion alpha rho^2 / 2 + ln(1/delta) / (alpha - 1).

    With ``alpha`` None the optimal order 1 + sqrt(2 ln(1/delta)) / rho is
    used, at which the value coincides with :func:`rdp_to_dp`.
    """
    _check_delta(delta)
    rho = budget.rho
    if math.isinf(rho):
        return math.inf
    if rho == 0.0:
        return 0.0  # infimum over alpha -> infinity of ln(1/delta) / (alpha - 1)
    if alpha is None:
        alpha = 1.0 + math.sqrt(2.0 * math.log(1.0 / delta)) / rho
    if alpha <= 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    return alpha * rho * rho / 2.0 + math.log(1.0 / delta) / (alpha - 1.0)


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
