"""Empirical verification: excess-loss sweeps against the analytic bounds,
L2-sensitivity probes, and the exact/empirical study of why averaging the
iterates forfeits the last-iterate privacy guarantee.

Every sweep is fully seeded; identical seeds produce bit-identical results
and CSV artifacts regardless of execution order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import ConvexDomain
from .losses import Dataset, SyntheticDistribution
from .optimizers import NoiseStream, RunRecord, pnsgd, psgd, sc_snowball, phased_sgd
from .schedules import (
    MULTIPLIER_JNN,
    MULTIPLIER_SZ,
    Schedule,
    _real,
    _whole,
    constant_step,
    jnn_steps,
    snowball_sizes,
)

SWEEP_CSV_COLUMNS = ("n", "d", "rho", "algorithm", "trials", "mean", "std_err", "bound", "ratio",
                     "declared_rho")
COUNTEREXAMPLE_CSV_COLUMNS = (
    "T", "k", "sigma", "shift", "variance", "rdp_avg_alpha2", "rdp_last_alpha2", "accuracy",
)


@dataclass(frozen=True)
class SweepResult:
    n: int
    d: int
    rho: float
    algorithm: str
    trials: int
    mean_excess: float
    std_err: float
    theory_bound: float
    bound_ratio: float
    declared_rho: float | None  # the largest over the trials; None if any declared none


def default_start(domain: ConvexDomain) -> np.ndarray:
    """Deterministic boundary starting point (distance ~D/2 from the center)."""
    if domain.kind == "ball":
        w = domain.center.copy()
        w[0] += domain.radius
        return w
    return domain.upper.copy()


def _derive_seeds(master: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _snowball_plan(n: int, d: int, rho: float, multiplier: float) -> np.ndarray:
    """Batch sizes of the longest growing-batch schedule that consumes at most
    n samples, equal to ``snowball_batches(T, d, rho, multiplier)`` for that T.

    B_t depends only on r = T - t + 1, so a schedule's total is a prefix sum of
    the sizes c_r of :func:`snowball_sizes`, and T is where that sum passes n.
    c_r is non-increasing, so with c_1 <= n every prefix sum is at most n^2
    and int64 holds it.
    """
    c = snowball_sizes(n, d, rho, multiplier)
    T = int(np.searchsorted(np.cumsum(c), n, side="right")) if c.size and c[0] <= n else 0
    if T == 0:
        raise ValueError(f"n = {n} cannot fund even one step at d = {d}, rho = {rho}")
    return c[T - 1::-1]


@dataclass(frozen=True)
class SweepAlgorithm:
    """A runnable algorithm plus the analytic excess-loss bound it must meet."""

    name: str
    run: Callable[[SyntheticDistribution, int, int, float, int, int, float], RunRecord]
    bound: Callable[[SyntheticDistribution, int, int, float], float]


def _trial_noise(noise_seed: int, d: int, T: int, sigma_scale: float) -> NoiseStream:
    """The noise stream of a growing-batch trial of T steps. A noisy trial
    draws its first draws on a second CPU while its caller samples the data
    (:meth:`NoiseStream.prefetch`); the draws are the same either way."""
    noise = NoiseStream(noise_seed)
    if sigma_scale > 0:
        noise.prefetch(d, T)
    return noise


def _run_snowball(multiplier: float, steps_builder):
    def run(dist, n, d, rho, data_seed, noise_seed, sigma_scale):
        D = dist.domain.diameter
        L = dist.loss.lipschitz
        batches = _snowball_plan(n, d, rho, multiplier)
        T = len(batches)
        noise = _trial_noise(noise_seed, d, T, sigma_scale)
        schedule = Schedule(batches, steps_builder(T, D, L),
                            np.full(T, sigma_scale * L / math.sqrt(d)))
        data = dist.sample_dataset(schedule.total_samples(), data_seed)
        return pnsgd(data, dist.loss, dist.domain, default_start(dist.domain),
                     schedule, noise)

    return run


def _bound_snowball_sz(dist, n, d, rho):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    return math.sqrt(32.0) * D * L * math.log(10.0 * n) * (
        1.0 / math.sqrt(n) + 2.0 * math.sqrt(d) / (rho * n)
    )


def _bound_snowball_jnn(dist, n, d, rho):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    return 30.0 * math.sqrt(2.0) * D * L * (
        1.0 / math.sqrt(n) + 4.0 * math.sqrt(3.0 * d) / (rho * n)
    )


def _run_phased_sgd(dist, n, d, rho, data_seed, noise_seed, sigma_scale):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    eta = (D / L) * min(4.0 / math.sqrt(n), rho / math.sqrt(d))
    data = dist.sample_dataset(n, data_seed)
    return phased_sgd(data, dist.loss, dist.domain, default_start(dist.domain),
                      eta, rho, NoiseStream(noise_seed), sigma_scale=sigma_scale)


def _bound_phased_sgd(dist, n, d, rho):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    return 10.0 * L * D * (1.0 / math.sqrt(n) + math.sqrt(d) / (rho * n))


def _run_sc_snowball(dist, n, d, rho, data_seed, noise_seed, sigma_scale):
    L = dist.loss.lipschitz
    batches = _snowball_plan(n, d, rho, MULTIPLIER_SZ)
    noise = _trial_noise(noise_seed, d, len(batches), sigma_scale)
    data = dist.sample_dataset(int(batches.sum()), data_seed)
    return sc_snowball(data, dist.loss, dist.domain, default_start(dist.domain),
                       len(batches), d, rho, noise,
                       sigma=sigma_scale * L / math.sqrt(d))


def _bound_sc_snowball(dist, n, d, rho):
    L = dist.loss.lipschitz
    lam = dist.loss.strong_convexity
    logn = math.log(n)
    return 40.0 * L * L * logn * logn / lam * (1.0 / n + 16.0 * d / (rho * rho * n * n))


def _run_psgd_baseline(dist, n, d, rho, data_seed, noise_seed, sigma_scale):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    data = dist.sample_dataset(n, data_seed)
    return psgd(data, dist.loss, dist.domain, default_start(dist.domain),
                constant_step(n, D, L))


def _bound_psgd_baseline(dist, n, d, rho):
    D, L = dist.domain.diameter, dist.loss.lipschitz
    return D * L * (2.0 + math.log(n)) / math.sqrt(n)


ALGORITHMS: dict[str, SweepAlgorithm] = {
    "snowball_sz": SweepAlgorithm(
        "snowball_sz",
        _run_snowball(MULTIPLIER_SZ, lambda T, D, L: constant_step(T, D, math.sqrt(2.0) * L)),
        _bound_snowball_sz,
    ),
    "snowball_jnn": SweepAlgorithm(
        "snowball_jnn",
        _run_snowball(MULTIPLIER_JNN, lambda T, D, L: jnn_steps(T, D / (math.sqrt(2.0) * L))),
        _bound_snowball_jnn,
    ),
    "phased_sgd": SweepAlgorithm("phased_sgd", _run_phased_sgd, _bound_phased_sgd),
    "sc_snowball": SweepAlgorithm("sc_snowball", _run_sc_snowball, _bound_sc_snowball),
    "psgd": SweepAlgorithm("psgd", _run_psgd_baseline, _bound_psgd_baseline),
}


def excess_loss_sweep(
    dist: SyntheticDistribution,
    algorithm: str | SweepAlgorithm,
    grid,
    trials: int,
    seed: int,
    sigma_scale: float = 1.0,
    grid_index_base: int = 0,
) -> list[SweepResult]:
    """Run ``trials`` independent runs per (n, d, rho) grid point and compare
    the mean excess population loss to the algorithm's analytic bound.

    Each grid point is refused up front as :func:`sweepable` refuses it.
    Per-trial seeds derive from (seed, grid index, trial), so results are
    deterministic in (grid order, seed); ``grid_index_base`` lets a caller
    that dispatches points one at a time keep the indices of the full grid.
    """
    algo = ALGORITHMS[algorithm] if isinstance(algorithm, str) else algorithm
    results = []
    for gi, (n, d, rho) in enumerate(grid, start=grid_index_base):
        sweepable(dist, n, d, trials)
        excesses, declared = np.empty(trials), []
        for trial in range(trials):
            data_seed = _derive_seeds(seed, gi, trial, 0)
            noise_seed = _derive_seeds(seed, gi, trial, 1)
            record = algo.run(dist, n, d, rho, data_seed, noise_seed, sigma_scale)
            excesses[trial] = dist.excess_loss(record.final_iterate)
            declared.append(getattr(record.declared_budget, "rho", None))
        mean = float(np.mean(excesses))
        std_err = float(np.std(excesses, ddof=1) / math.sqrt(trials))
        bound = float(algo.bound(dist, n, d, rho))
        results.append(SweepResult(n, d, rho, algo.name, trials, mean, std_err, bound,
                                   mean / bound, None if None in declared else max(declared)))
    return results


def sweepable(dist: SyntheticDistribution, n: int, d: int, trials: int) -> SyntheticDistribution:
    """``dist``, refused with ValueError where no sweep trial of ``n``
    examples at dimension ``d`` can run on it: fewer than 2 trials, an (n, d)
    float64 dataset numpy cannot address, no closed-form optimum (excess loss
    is exact, never Monte Carlo), an L that is not finite (every step size
    and bound scales by it), or a dimension other than d."""
    _whole(trials, 2, "trials")
    # the most rows of an (n, d) float64 dataset that numpy can address
    rows = np.iinfo(np.intp).max // (8 * _whole(d, 1, "d"))
    if _whole(n, 1, "n") > rows:
        raise ValueError(f"n must be <= {rows} at d = {d}, the most rows numpy can address, "
                         f"got {n}")
    if not dist.has_closed_form:
        raise ValueError(f"{dist.name} has no closed-form optimum; sweeps refuse it")
    _real(dist.loss.lipschitz, f"{dist.name}'s declared L")
    if d != dist.dimension:
        raise ValueError(f"grid point d = {d} != distribution dimension {dist.dimension}")
    return dist


def sweep_to_csv(results, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in results:
            writer.writerow(
                [r.n, r.d, repr(r.rho), r.algorithm, r.trials, repr(r.mean_excess),
                 repr(r.std_err), repr(r.theory_bound), repr(r.bound_ratio),
                 "" if r.declared_rho is None else repr(r.declared_rho)]
            )


@dataclass(frozen=True)
class ProbeReport:
    max_observed: float
    bound: float
    pairs: int


def sensitivity_probe(
    dist: SyntheticDistribution,
    n: int,
    eta: float,
    num_pairs: int,
    seed: int,
) -> ProbeReport:
    """Empirical L2-sensitivity of a noiseless one-pass SGD run.

    Generates ``num_pairs`` neighboring dataset pairs (one uniformly chosen
    example replaced by a fresh draw), runs :func:`psgd` at step ``eta`` from
    :func:`default_start` on both, and reports the largest final-iterate or
    average-iterate distance next to the analytic bound 2 L eta. Raises
    :class:`ValueError`, where that bound does not hold, for any defect
    :meth:`LossFamily.support_defect` finds at eta: the loss's and the step's
    before sampling, the data's in each pair; and for ``num_pairs < 1`` or an
    eta that is not positive and finite (at eta = 0 both sides read 0).
    """
    eta = _real(eta, "eta")
    def refuse(sample):
        defect = dist.loss.support_defect(sample, dist.domain, eta)
        if defect is not None:
            raise ValueError(f"{defect}: bound inapplicable")

    refuse(Dataset(np.empty((0, dist.dimension))))
    _whole(num_pairs, 1, "num_pairs")  # a max over no pair, 0, would pass vacuously
    start = default_start(dist.domain)
    worst = 0.0
    for pair in range(num_pairs):
        data_seed = _derive_seeds(seed, pair, 0)
        swap_seed = _derive_seeds(seed, pair, 1)
        data = dist.sample_dataset(n, data_seed)
        rng = np.random.default_rng(swap_seed)
        j = int(rng.integers(0, n))
        fresh = dist.sample_dataset(1, _derive_seeds(seed, pair, 2)).example(0)
        neighbor = data.replace(j, fresh)
        refuse(data)
        refuse(neighbor)
        rec_a = psgd(data, dist.loss, dist.domain, start, [eta] * n)
        rec_b = psgd(neighbor, dist.loss, dist.domain, start, [eta] * n)
        worst = max(worst, float(np.linalg.norm(rec_a.final_iterate - rec_b.final_iterate)),
                    float(np.linalg.norm(rec_a.weighted_average - rec_b.weighted_average)))
    return ProbeReport(max_observed=worst, bound=2.0 * dist.loss.lipschitz * eta,
                       pairs=num_pairs)


@dataclass(frozen=True)
class CounterexampleReport:
    """Exact distributional analysis of the identity-then-reset noise process.

    For T steps of which the first k accumulate (X_t = X_{t-1} + noise) and
    the rest reset (X_t = noise), the average iterate is Gaussian with mean
    (k/T) X_0 and variance sigma^2 (k(k+1)(2k+1)/6 + T - k) / T^2, so its
    Renyi divergence across two starts is exact; the last iterate carries no
    X_0 dependence at all unless k = T.
    """

    T: int
    k: int
    sigma: float
    x0_offset: float
    mean_shift: float
    variance: float

    def rdp_average(self, alpha: float) -> float:
        if self.variance == 0.0:
            return math.inf if self.mean_shift != 0.0 else 0.0
        return alpha * self.mean_shift ** 2 / (2.0 * self.variance)

    def rdp_last(self, alpha: float) -> float:
        if self.k < self.T:
            return 0.0
        # k = T: the last iterate is X_0 plus T accumulated noise terms
        return alpha * self.x0_offset ** 2 / (2.0 * self.sigma ** 2 * self.T)


def _average_moments(T: int, k: int, sigma: float, x0_offset: float) -> tuple[float, float]:
    """Mean shift and variance of the average iterate (the cubic term is the
    exact triangular-square sum, not an O(k^3) stand-in). The Renyi divergences
    divide by sigma^2 and square the offset: both squares must be positive and finite."""
    if not 1 <= k <= T:
        raise ValueError(f"k must be in [1, T], got k = {k}, T = {T}")
    sigma, x0_offset = _real(sigma, "sigma"), _real(x0_offset, "offset", "finite")
    if not (0.0 < sigma * sigma < math.inf and 0.0 < x0_offset * x0_offset < math.inf):
        raise ValueError(f"sigma = {sigma} and offset = {x0_offset} must square to "
                         "positive finite numbers")
    return k * x0_offset / T, sigma * sigma * (k * (k + 1) * (2 * k + 1) / 6.0 + (T - k)) / (T * T)


def counterexample_exact(T: int, k: int, sigma: float, x0_offset: float) -> CounterexampleReport:
    """Exact mean shift and variance of the average iterate."""
    shift, variance = _average_moments(T, k, sigma, x0_offset)
    return CounterexampleReport(
        T=T, k=k, sigma=sigma, x0_offset=x0_offset, mean_shift=shift, variance=variance
    )


@dataclass(frozen=True)
class DistinguishingReport:
    accuracy: float
    predicted_accuracy: float
    trials: int


def counterexample_empirical(
    T: int, k: int, sigma: float, trials: int, seed: int, x0_magnitude: float = 1.0
) -> DistinguishingReport:
    """Simulate the process for X_0 = +-x0_magnitude and classify the average
    iterate by its sign (the likelihood-ratio test for equal variances).

    The accuracy must track Phi(mean shift / std of the average); both are
    reported. Requires trials >= 100 per sign.
    """
    shift, variance = _average_moments(T, k, sigma, x0_magnitude)
    trials = _whole(trials, 100, "trials")
    rng = np.random.default_rng(seed)
    correct = 0
    for sign in (1.0, -1.0):
        x = np.full(trials, sign * x0_magnitude)
        avg = np.zeros(trials)
        for t in range(1, T + 1):
            noise = sigma * rng.standard_normal(trials)
            x = x + noise if t <= k else noise
            avg += x
        avg /= T
        correct += int(np.count_nonzero(np.sign(avg) == sign))
    if variance == 0.0:
        predicted = 1.0 if shift > 0 else 0.5
    else:
        predicted = 0.5 * (1.0 + math.erf(shift / math.sqrt(2.0 * variance)))
    return DistinguishingReport(
        accuracy=correct / (2.0 * trials), predicted_accuracy=predicted, trials=trials
    )


def counterexample_to_csv(rows, path) -> None:
    """Rows are (CounterexampleReport, accuracy-or-None) pairs."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTEREXAMPLE_CSV_COLUMNS)
        for report, accuracy in rows:
            writer.writerow(
                [report.T, report.k, repr(report.sigma), repr(report.mean_shift),
                 repr(report.variance), repr(report.rdp_average(2.0)),
                 repr(report.rdp_last(2.0)),
                 "" if accuracy is None else repr(accuracy)]
            )


def default_k_grid(T: int) -> list[int]:
    """k in {1, ceil(T^(1/3)), ceil(sqrt(T)), ceil(T^(2/3)), T}, deduplicated."""
    if T < 1:
        raise ValueError(f"k must be in [1, T], and T = {T} has none")
    ks = [1, math.ceil(T ** (1.0 / 3.0)), math.ceil(math.sqrt(T)),
          math.ceil(T ** (2.0 / 3.0)), T]
    return sorted({min(max(k, 1), T) for k in ks})
