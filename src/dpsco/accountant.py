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

from .schedules import Schedule, _real

# The smallest normal float64: a square below it is rounded on the subnormal grid.
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class PrivacyBudget:
    """The RDP curve alpha -> alpha * rho^2 / 2 for all alpha >= 1."""

    rho: float

    def __post_init__(self):
        _real(self.rho, "rho", "nonnegative")

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.rho)


@dataclass(frozen=True)
class ApproxDP:
    """A plain (epsilon, delta)-DP guarantee, for mechanisms with a failure
    probability that have no clean RDP curve."""

    epsilon: float
    delta: float


def gaussian_renyi(shift: float, sigma: float, alpha: float) -> float:
    """Renyi divergence of order alpha between N(0, sigma^2 I) and its copy
    shifted by a vector of length ``shift``: alpha * shift^2 / (2 sigma^2).

    ``shift`` and ``sigma`` must be nonnegative and finite, and ``alpha``
    finite and >= 1. Returns ``math.inf`` (not an exception) when sigma = 0
    with a nonzero shift; a zero shift has divergence 0 for any sigma.
    """
    shift = _real(shift, "shift", "nonnegative and finite")
    sigma = _real(sigma, "sigma", "nonnegative and finite")
    alpha = _real(alpha, "alpha", ">= 1")
    if shift == 0.0:
        return 0.0
    if sigma == 0.0:
        return math.inf
    return alpha * shift * shift / (2.0 * sigma * sigma)


def _worst_term(eta: np.ndarray, products: np.ndarray, batches: np.ndarray) -> float | None:
    """max_t eta_t / (B_t * sqrt(sum_{s >= t} products_s^2)), in the buffer
    ``products``: the suffix sums are accumulated back-to-front in place, then
    each step's term is taken in place. None if the sums overflow, or if a
    positive one is subnormal, where a square's rounding can lift it by half."""
    np.square(products, out=products)
    backward = products[::-1]
    np.cumsum(backward, out=backward)
    if not math.isfinite(products[0]):  # the largest suffix sum
        return None
    # backward is non-decreasing: the sums in (0, tiny) lie between these
    if (np.searchsorted(backward, 0.0, side="right")
            != np.searchsorted(backward, _TINY, side="left")):
        return None
    np.sqrt(products, out=products)
    products *= batches
    # eta_t > 0 over a zero suffix gives inf; a zero step gives 0, or NaN
    # (0 / 0), which fmax skips
    np.divide(eta, products, out=products)
    return float(np.fmax.reduce(products, initial=0.0))


def pai_rho(schedule: Schedule, lipschitz: float) -> PrivacyBudget:
    """Privacy of projected noisy SGD under amplification by iteration.

    For batch sizes B_t, step sizes eta_t and noise scales sigma_t the last
    iterate satisfies (alpha, alpha rho^2 / 2)-RDP for every alpha >= 1 with

        rho = 2 L * max_t { eta_t / (B_t * sqrt(sum_{s >= t} eta_s^2 sigma_s^2)) },

    provided every eta_t <= 2 / beta (the optimizer's responsibility, checked
    there). A zero step contributes nothing, whatever the later noise; a zero
    noise suffix under a nonzero step makes the budget infinite.

    If the sums overflow float64, underflow to 0 under a nonzero step, or a
    positive one is subnormal (its squares rounded by up to half their size,
    either way), they are taken again over eta_t sigma_t / (max eta * m),
    where m makes the largest 1, and the terms are divided back. Where that
    pass still has a positive subnormal sum, or a step over a sum that
    underflowed to 0, the budget is infinite: it is never below the exact one.
    """
    lipschitz = _real(lipschitz, "lipschitz", "nonnegative")
    eta, sigma, batches = schedule.step_sizes, schedule.noise_scales, schedule.batch_sizes
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        worst = _worst_term(eta, np.multiply(eta, sigma), batches)
        if worst is None or worst == math.inf:
            eta_max = float(eta.max())
            products = eta / eta_max
            products *= sigma
            top = float(products.max())
            products /= top
            worst = _worst_term(eta, products, batches)
            worst = math.inf if worst is None else worst / eta_max / top
    if worst == 0.0 or worst == math.inf:  # L does not enter; abs turns -0.0 into 0.0
        return PrivacyBudget(abs(worst))
    return PrivacyBudget(2.0 * lipschitz * worst)


# Below this argument log Phi comes from its asymptotic series, whose first
# _TAIL_TERMS terms leave a relative error below 2e-19 there; above it Phi is
# at least 5.7e-300, a normal float, and erfc gives it to a few ulps.
_TAIL = -37.0
_TAIL_TERMS = 8


def _log_phi(x: float) -> tuple[float, float]:
    """log Phi(x) and a bound on the relative error of Phi that its formula
    leaves out. Below ``_TAIL`` it is the asymptotic series
    Phi(x) = e^(-x^2/2) / (-x sqrt(2 pi)) * sum_k (-1)^k (2k - 1)!! / x^(2k),
    whose remainder after K terms is smaller than the first term left out
    (Abramowitz and Stegun 7.1.24)."""
    if x >= _TAIL:
        return math.log(0.5 * math.erfc(-x / math.sqrt(2.0))), 0.0
    q = 1.0 / (x * x)
    term = total = 1.0
    for k in range(1, _TAIL_TERMS):
        term *= -(2 * k - 1) * q
        total += term
    left_out = abs(term) * (2 * _TAIL_TERMS - 1) * q
    log_phi = -0.5 * x * x - math.log(-x) - 0.5 * math.log(2.0 * math.pi) + math.log(total)
    return log_phi, left_out / (total - left_out)


def _gaussian_delta(mu: float, epsilon: float) -> float:
    """The exact delta(epsilon) of a Gaussian mechanism with mu = sensitivity /
    sigma, Phi(-epsilon/mu + mu/2) - e^epsilon Phi(-epsilon/mu - mu/2)
    (Balle and Wang, arXiv 1805.06530), overstated by a bound on its rounding
    and on the truncation of :func:`_log_phi`. The second term is taken in
    logs, so e^epsilon never overflows and Phi never underflows."""
    if mu == 0.0:
        return 0.0
    b = -epsilon / mu - mu / 2.0
    first = 0.5 * math.erfc(-(b + mu) / math.sqrt(2.0))
    if first == 0.0:  # delta is below the first term
        return 0.0
    log_tail, truncation = _log_phi(b)
    # erfc, log and exp each err by a few ulps, the exponent by ulps of its
    # terms, and Phi(x) by about |x| ulps of x from its rounded argument; the
    # two terms nearly cancel where delta is far below them
    slack = ((16.0 + epsilon - log_tail + 4.0 * b * (b - 1.0)) * 2.0**-52
             + 2.0 * truncation) * first
    return first - math.exp(epsilon + log_tail) + slack


def gaussian_sigma(sensitivity: float, epsilon: float, delta: float) -> float:
    """The smallest sigma (to float precision) for which releasing a value of
    L2-sensitivity ``sensitivity`` plus N(0, sigma^2 I) is (epsilon,
    delta)-DP, found by bisection on mu = sensitivity / sigma in the exact
    curve of :func:`_gaussian_delta`, which grows with mu. Any release is
    (epsilon, 1)-DP, so delta >= 1 needs no noise."""
    sensitivity = _real(sensitivity, "sensitivity", "nonnegative and finite")
    epsilon, delta = _real(epsilon, "epsilon", "positive"), _real(delta, "delta", "positive")
    if sensitivity == 0.0 or epsilon == math.inf or delta >= 1.0:
        return 0.0
    lo, hi = 0.0, 1.0  # delta(lo) <= delta < delta(hi)
    while _gaussian_delta(hi, epsilon) <= delta:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if _gaussian_delta(mid, epsilon) <= delta:
            lo = mid
        else:
            hi = mid
    sigma = sensitivity / lo
    while _gaussian_delta(sensitivity / sigma, epsilon) > delta:  # the division rounded
        sigma = math.nextafter(sigma, math.inf)
    return sigma


def rdp_to_dp(budget: PrivacyBudget, delta: float) -> float:
    """Convert the curve to (epsilon, delta)-DP: rho^2/2 + rho sqrt(2 ln(1/delta)).

    This closed form is :func:`rdp_to_dp_general` with no order: the minimum
    over alpha > 1 of alpha rho^2 / 2 + ln(1/delta) / (alpha - 1). It is
    standard (and tight relative to this conversion) in the regime
    rho <= sqrt(ln(1/delta)); outside that regime a warning is emitted but
    the value, which remains a valid conversion, is still returned.
    """
    epsilon, rho = rdp_to_dp_general(budget, delta), budget.rho
    if math.isfinite(rho) and rho > math.sqrt(math.log(1.0 / delta)):
        warnings.warn(
            f"rho = {rho} exceeds sqrt(ln(1/delta)) = {math.sqrt(math.log(1.0 / delta))}; "
            "the conversion is valid but loose in this regime",
            stacklevel=2,
        )
    return epsilon


def rdp_to_dp_general(budget: PrivacyBudget, delta: float, alpha: float | None = None) -> float:
    """The order-wise conversion alpha rho^2 / 2 + ln(1/delta) / (alpha - 1).

    With ``alpha`` None it is the minimum over alpha in the closed form of
    :func:`rdp_to_dp`, finite where the optimal order overflows (subnormal rho).
    """
    delta, rho = _real(delta, "delta", "in (0, 1)"), budget.rho
    if alpha is not None:
        alpha = _real(alpha, "alpha", "> 1")
    if math.isinf(rho):
        return math.inf
    if rho == 0.0:
        return 0.0  # infimum over alpha -> infinity of ln(1/delta) / (alpha - 1)
    if alpha is None:
        return rho * rho / 2.0 + rho * math.sqrt(2.0 * math.log(1.0 / delta))
    return alpha * rho * rho / 2.0 + math.log(1.0 / delta) / (alpha - 1.0)
