"""Optimization algorithms: projected (noisy) SGD, growing-batch one-pass
noisy SGD, phase-localized SGD and ERM, and the strongly convex variants.

Data-to-batch assignment is always by fixed consecutive order, never
shuffled: the privacy accounting assigns each index to a specific step, so
reordering inside an algorithm would change the analysis. Shuffling, if
wanted, happens once at dataset creation, outside the privacy boundary.

Noise is drawn from counter-based streams so that two runs with the same
stream seed see bit-identical noise regardless of their data; this is what
makes coupled neighboring-dataset executions (used heavily by the sensitivity
tests) exact.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accountant import ApproxDP, PrivacyBudget, pai_rho
from .geometry import ConvexDomain, project
from .losses import ABSOLUTE_DEVIATION, QUADRATIC, Dataset, LossFamily
from .schedules import Schedule, phase_plan, sc_weights, snowball_batches

_NOISE_BLOCK = 256

# Iterates are elided from serialized run records above this dimension.
_SERIALIZE_DIM_LIMIT = 64


class DataSizeError(ValueError):
    """Dataset size does not match what the schedule will consume."""


class StepSizeError(ValueError):
    """A step size violates the algorithm's stability preconditions."""


class InnerSolveBudgetError(RuntimeError):
    """The inner solver exhausted its gradient budget without certifying."""


class NoiseStream:
    """Counter-based Gaussian noise: draw k is a pure function of (seed, k).

    Draws are produced in blocks of 256; block b for dimension d comes from a
    generator keyed by (seed, d, b), so streams with equal seeds yield
    identical draws independent of when or by whom they are consumed.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.index = 0
        self._block_id: tuple[int, int] | None = None
        self._block: np.ndarray | None = None

    def _load_block(self, dim: int, block: int) -> np.ndarray:
        if self._block_id != (dim, block):
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(dim, block))
            gen = np.random.Generator(np.random.Philox(seed=ss))
            self._block = gen.standard_normal((_NOISE_BLOCK, dim))
            self._block.flags.writeable = False  # draws are views; callers must not edit the cache
            self._block_id = (dim, block)
        return self._block

    def gaussian(self, dim: int) -> np.ndarray:
        """Next standard-normal vector of the given dimension (a read-only view)."""
        block, offset = divmod(self.index, _NOISE_BLOCK)
        self.index += 1
        return self._load_block(dim, block)[offset]

    def skip(self, count: int) -> None:
        self.index += int(count)

    def fork(self, tag: int) -> "NoiseStream":
        """Independent stream derived deterministically from this one's seed."""
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(0x5EED, tag))
        return NoiseStream(int(child.generate_state(1, dtype=np.uint64)[0]))


@dataclass(frozen=True)
class PhaseRecord:
    index: int
    samples: int
    noise_scale: float
    iterate: np.ndarray


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one optimization run.

    ``final_iterate`` always lies in the domain (within projection tolerance).
    ``gradient_evaluations`` counts per-example gradient-oracle calls; for the
    one-pass algorithms it equals the dataset size exactly. One-pass runs log
    a single phase entry; localization algorithms log one entry per phase
    (after perturbation), which together with the stream seed reproduces every
    noise draw.
    """

    final_iterate: np.ndarray
    weighted_average: np.ndarray | None
    gradient_evaluations: int
    phase_log: tuple[PhaseRecord, ...]
    rng_seed: int | None
    declared_budget: PrivacyBudget | ApproxDP | None


def _start_point(domain: ConvexDomain, w0) -> np.ndarray:
    w = np.asarray(w0, dtype=np.float64).reshape(-1)
    if w.shape[0] != domain.dimension:
        raise ValueError(f"w0 dimension {w.shape[0]} != domain dimension {domain.dimension}")
    if not domain.contains(w):
        warnings.warn("starting point outside the domain; projecting", stacklevel=3)
        w = project(domain, w)
    return w


def pnsgd(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    schedule: Schedule,
    noise: NoiseStream,
) -> RunRecord:
    """Projected noisy SGD over consecutive batches; returns the last iterate.

    Step t consumes batch t (sizes from the schedule, consecutive order) and
    performs w <- proj(w - eta_t * (batch_grad + xi_t)) with
    xi_t ~ N(0, sigma_t^2 I). The dataset size must equal the schedule's total
    exactly: silent truncation or padding would invalidate the declared
    budget, which is the amplification-by-iteration value for this schedule.
    """
    total = schedule.total_samples()
    if len(data) != total:
        raise DataSizeError(f"dataset has {len(data)} examples, schedule consumes {total}")
    beta = loss.smoothness
    if math.isfinite(beta) and schedule.step_sizes.max() > 2.0 / beta + 1e-12:
        warnings.warn(
            "a step size exceeds 2/beta; the declared privacy budget relies on "
            "per-step contractivity and does not apply",
            stacklevel=2,
        )
    w = _start_point(domain, w0)
    d = domain.dimension
    offset = 0
    for b, eta, sigma in zip(schedule.batch_sizes.tolist(), schedule.step_sizes.tolist(),
                             schedule.noise_scales.tolist()):
        g = loss.batch_grad(w, data.subset(offset, offset + b))
        offset += b
        if sigma > 0.0:
            g = g + sigma * noise.gaussian(d)
        else:
            noise.skip(1)
        w = project(domain, w - eta * g)
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=total,
        phase_log=(PhaseRecord(1, total, float(schedule.noise_scales.max()), w),),
        rng_seed=noise.seed,
        declared_budget=pai_rho(schedule, loss.lipschitz),
    )


def psgd(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    step_sizes,
) -> RunRecord:
    """Noiseless projected SGD, one example per step; returns the last iterate
    and the uniform average of iterates w_1..w_T (the start excluded)."""
    steps = [float(e) for e in step_sizes]
    if len(data) != len(steps):
        raise DataSizeError(f"dataset has {len(data)} examples, need {len(steps)}")
    w = _start_point(domain, w0)
    total = np.zeros_like(w)
    for t, eta in enumerate(steps):
        w = project(domain, w - eta * loss.grad(w, data.example(t)))
        total += w
    avg = total / len(steps)
    return RunRecord(
        final_iterate=w,
        weighted_average=avg,
        gradient_evaluations=len(steps),
        phase_log=(PhaseRecord(1, len(steps), 0.0, w),),
        rng_seed=None,
        declared_budget=None,
    )


def _psgd_average(loss, domain, data, w, eta):
    """One-pass constant-step PSGD from w; returns (average iterate, last iterate)."""
    total = np.zeros_like(w)
    for t in range(len(data)):
        w = project(domain, w - eta * loss.grad(w, data.example(t)))
        total += w
    return total / len(data), w


def phased_sgd(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    eta: float,
    rho: float,
    noise: NoiseStream,
    sigma_scale: float = 1.0,
) -> RunRecord:
    """Iterative localization with a one-pass SGD phase plus output perturbation.

    Phase i runs constant-step PSGD for n_i steps (disjoint consecutive data)
    from the previous output with step eta_i = 4^-i * eta, takes the uniform
    average iterate, and releases it perturbed by N(0, sigma_i^2 I) with
    sigma_i = 4 L eta_i / rho. The average iterate of a one-pass SGD phase has
    L2-sensitivity at most 2 L eta_i when eta_i <= 2/beta, so each phase is a
    Gaussian mechanism at rho_i = rho / 2 on its own data block and the whole
    run satisfies the declared curve at rho.

    ``sigma_scale`` scales every sigma_i (0 disables noise) for ablations;
    the declared budget is only meaningful at scale 1.
    """
    n = len(data)
    if n < 2:
        raise DataSizeError(f"need at least 2 examples, got {n}")
    if eta <= 0 or rho <= 0:
        raise ValueError("eta and rho must be positive")
    beta = loss.smoothness
    if math.isfinite(beta) and eta > 2.0 / beta:
        raise StepSizeError(f"eta = {eta} > 2/beta = {2.0 / beta}: sensitivity bound inapplicable")
    L = loss.lipschitz
    w = _start_point(domain, w0)
    d = domain.dimension
    plan = phase_plan(n, eta, mode="geometric")
    log = []
    offset = 0
    evals = 0
    for i, (ni, eta_i) in enumerate(plan, start=1):
        avg, _ = _psgd_average(loss, domain, data.subset(offset, offset + ni), w, eta_i)
        offset += ni
        evals += ni
        sigma_i = sigma_scale * 4.0 * L * eta_i / rho
        if sigma_i > 0.0:
            avg = avg + sigma_i * noise.gaussian(d)
        else:
            noise.skip(1)
        # Projection is privacy-free post-processing and only moves the
        # iterate closer to any feasible comparator.
        w = project(domain, avg)
        log.append(PhaseRecord(i, ni, sigma_i, w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=evals,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=PrivacyBudget(rho),
    )


def phased_erm(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    eta: float,
    epsilon: float,
    delta: float,
    noise: NoiseStream,
    inner: str = "sgd",
    sigma_scale: float = 1.0,
    budget_constant: float = 8.0,
) -> RunRecord:
    """Localization for possibly non-smooth losses via regularized ERM phases.

    Phase i approximately minimizes over the domain

        F_i(w) = mean of f(w, x) over the phase block
                 + (1 / (eta_i n_i)) |w - w_{i-1}|^2,

    which is lam_i-strongly convex for lam_i = 2 / (eta_i n_i), to
    suboptimality L^2 eta_i / n_i, then releases the result perturbed by
    N(0, sigma_i^2 I) with sigma_i = 4 L (eta_i / epsilon) sqrt(ln(1/delta)).
    Consecutive disjoint blocks follow the same geometric plan as
    :func:`phased_sgd`. The declared guarantee is (epsilon, 2 delta)-DP.

    inner:
        "sgd" runs strongly convex SGD (step 1/(lam_i s), suffix averaging)
        and repeats with fresh randomness until the certificate
        |subgrad F_i(w)|^2 / (2 lam_i) <= L^2 eta_i / n_i passes, within a
        per-phase budget of ``budget_constant * n_i^2 * max(1, ln(1/delta))``
        oracle calls (certificate evaluations included). "exact" solves the
        phase objective in closed form (quadratic family, or 1-D absolute
        deviation) and makes no oracle calls.
    """
    n = len(data)
    if n < 2:
        raise DataSizeError(f"need at least 2 examples, got {n}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if eta <= 0 or epsilon <= 0:
        raise ValueError("eta and epsilon must be positive")
    if inner not in ("sgd", "exact"):
        raise ValueError(f"unknown inner solver {inner!r}")
    L = loss.lipschitz
    w = _start_point(domain, w0)
    d = domain.dimension
    plan = phase_plan(n, eta, mode="geometric")
    log = []
    offset = 0
    evals = 0
    for i, (ni, eta_i) in enumerate(plan, start=1):
        block = data.subset(offset, offset + ni)
        offset += ni
        lam_i = 2.0 / (eta_i * ni)
        gap = L * L * eta_i / ni
        if inner == "exact":
            cand = _exact_regularized_erm(loss, domain, block, w, lam_i)
        else:
            budget = math.ceil(budget_constant * ni * ni * max(1.0, math.log(1.0 / delta)))
            cand, used = _certified_sgd_erm(
                loss, domain, block, w, lam_i, gap, budget, noise.fork(i)
            )
            evals += used
        sigma_i = sigma_scale * 4.0 * L * (eta_i / epsilon) * math.sqrt(math.log(1.0 / delta))
        if sigma_i > 0.0:
            cand = cand + sigma_i * noise.gaussian(d)
        else:
            noise.skip(1)
        w = project(domain, cand)
        log.append(PhaseRecord(i, ni, sigma_i, w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=evals,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=ApproxDP(epsilon, 2.0 * delta),
    )


def _regularized_subgrad(loss, block, w, w_prev, lam):
    return loss.batch_grad(w, block) + lam * (w - w_prev)


def _exact_regularized_erm(loss, domain, block, w_prev, lam):
    """Closed-form minimizer of the phase objective over the domain."""
    if loss.kind == QUADRATIC:
        # isotropic quadratic plus isotropic proximal term: the constrained
        # minimizer is the projection of the unconstrained one
        center = (block.features.mean(axis=0) + lam * w_prev) / (1.0 + lam)
        return project(domain, center)
    if loss.kind == ABSOLUTE_DEVIATION and block.dimension == 1:
        return _exact_absdev_1d(domain, block, w_prev, lam)
    raise ValueError(f"no exact inner solver for family {loss.kind!r} in d={block.dimension}")


def _exact_absdev_1d(domain, block, w_prev, lam):
    """Minimize mean |a w - b| + (lam/2)(w - c)^2 over a 1-D domain.

    The subgradient is a nondecreasing step function of w with jumps at the
    kinks b_j / a_j; scan segments for its zero crossing, then clamp.
    """
    a = block.features[:, 0]
    b = block.targets
    c = float(w_prev[0])
    n = len(block)
    live = np.abs(a) > 0.0
    roots = b[live] / a[live]
    order = np.argsort(roots)
    kinks = roots[order]
    weights = (np.abs(a[live]) / n)[order]
    # G(w) = sum_j weights_j * sign(w - kink_j) + lam (w - c), on each open
    # segment G is linear with slope lam
    base = -float(np.sum(weights))  # sign sum left of every kink
    best_w = None
    prev_kink = -math.inf
    sign_sum = base
    for j in range(len(kinks) + 1):
        right = kinks[j] if j < len(kinks) else math.inf
        cand = c - sign_sum / lam  # zero of the segment's linear G
        if prev_kink < cand < right:
            best_w = cand
            break
        if j < len(kinks):
            g_left = sign_sum + lam * (kinks[j] - c)
            g_right = sign_sum + 2.0 * weights[j] + lam * (kinks[j] - c)
            if g_left <= 0.0 <= g_right:
                best_w = float(kinks[j])
                break
            sign_sum += 2.0 * weights[j]
            prev_kink = kinks[j]
    if best_w is None:  # all sign mass on one side; G monotone crosses anyway
        best_w = c - sign_sum / lam
    return project(domain, np.array([best_w]))


def _certified_sgd_erm(loss, domain, block, w_prev, lam, gap, budget, rng_stream):
    """Strongly convex SGD on the phase objective, repeated with fresh
    randomness until the strong-convexity gap certificate passes.

    Returns (candidate, oracle calls used). Each stochastic step costs one
    f-gradient; each certificate evaluation costs len(block).
    """
    ni = len(block)
    attempt_steps = max(2 * ni * ni, 16)
    used = 0
    attempt = 0
    best_gap = math.inf
    threshold = math.sqrt(2.0 * lam * gap)
    while used + attempt_steps + ni <= budget:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_stream.seed, spawn_key=(attempt,))
        )
        cand = _sgd_attempt(loss, domain, block, w_prev, lam, attempt_steps, rng)
        used += attempt_steps
        g = _regularized_subgrad(loss, block, cand, w_prev, lam)
        used += ni
        gnorm = float(np.linalg.norm(g))
        if gnorm <= threshold:
            return cand, used
        best_gap = min(best_gap, gnorm)
        attempt += 1
    raise InnerSolveBudgetError(
        f"certificate |grad| <= {threshold:.3g} not met within {budget} oracle calls "
        f"(best {best_gap:.3g} after {attempt} attempts)"
    )


def _sgd_attempt(loss, domain, block, w_prev, lam, steps, rng):
    ni = len(block)
    half = steps // 2
    if block.dimension == 1 and loss.kind == ABSOLUTE_DEVIATION:
        return _sgd_attempt_absdev_1d(domain, block, w_prev, lam, steps, rng)
    idx = rng.integers(0, ni, size=steps)
    w = w_prev.copy()
    acc = np.zeros_like(w)
    for s in range(steps):
        g = loss.grad(w, block.example(int(idx[s]))) + lam * (w - w_prev)
        w = project(domain, w - g / (lam * (s + 1)))
        if s >= half:
            acc += w
    return acc / (steps - half)


_INDEX_CHUNK = 1 << 16


def _sgd_attempt_absdev_1d(domain, block, w_prev, lam, steps, rng):
    # scalar fast path: the certified solve needs ~n_i^2 steps per phase
    a = block.features[:, 0].tolist()
    b = block.targets.tolist()
    ni = len(block)
    # in 1-D the bounding box is the domain itself, so clamping projects
    lo_v, hi_v = domain.bounding_box()
    lo, hi = float(lo_v[0]), float(hi_v[0])
    c = float(w_prev[0])
    w = c
    acc = 0.0
    half = steps // 2
    s = 0
    while s < steps:
        chunk = rng.integers(0, ni, size=min(_INDEX_CHUNK, steps - s)).tolist()
        for j in chunk:
            aj = a[j]
            m = aj * w - b[j]
            g = (aj if m > 0.0 else (-aj if m < 0.0 else 0.0)) + lam * (w - c)
            w -= g / (lam * (s + 1))
            if w < lo:
                w = lo
            elif w > hi:
                w = hi
            if s >= half:
                acc += w
            s += 1
    return np.array([acc / (steps - half)])


def sc_reduction(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    inner: Callable[[Dataset, LossFamily, ConvexDomain, np.ndarray, NoiseStream], RunRecord],
    noise: NoiseStream,
) -> RunRecord:
    """Strongly convex optimization by repeated restarts of a convex solver.

    Runs ``inner`` k = ceil(log2 log2 n) times on disjoint consecutive blocks
    of sizes n_i = floor(2^(i-2) n / log2 n), each initialized at the previous
    output. Blocks are disjoint, so the overall budget equals the worst phase
    budget. Phases whose block would be empty are dropped with a warning.
    """
    n = len(data)
    if n < 4:
        raise DataSizeError(f"need at least 4 examples, got {n}")
    log2n = math.log2(n)
    k = max(1, math.ceil(math.log2(log2n)))
    sizes = [math.floor(2.0 ** (i - 2) * n / log2n) for i in range(1, k + 1)]
    if any(s < 1 for s in sizes):
        warnings.warn("dropping empty localization phases", stacklevel=2)
        sizes = [s for s in sizes if s >= 1]
    if not sizes:
        raise DataSizeError(f"n = {n} too small for any localization phase")
    assert sum(sizes) <= n
    w = _start_point(domain, w0)
    log = []
    offset = 0
    evals = 0
    budgets = []
    for i, ni in enumerate(sizes, start=1):
        record = inner(data.subset(offset, offset + ni), loss, domain, w, noise.fork(i))
        offset += ni
        evals += record.gradient_evaluations
        budgets.append(record.declared_budget)
        w = record.final_iterate
        log.append(PhaseRecord(i, ni, float("nan"), w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=evals,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=_parallel_budget(budgets),
    )


def _parallel_budget(budgets):
    """Budget of a composition over disjoint data blocks: the worst block."""
    if any(b is None for b in budgets):
        return None
    if all(isinstance(b, PrivacyBudget) for b in budgets):
        return PrivacyBudget(max(b.rho for b in budgets))
    if all(isinstance(b, ApproxDP) for b in budgets):
        return ApproxDP(max(b.epsilon for b in budgets), max(b.delta for b in budgets))
    return None


def sc_weighted_sgd(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    T: int,
    noise_scale: float,
    noise: NoiseStream | None = None,
    eta: float | None = None,
) -> RunRecord:
    """Fixed-step noisy SGD for strongly convex losses, one example per step.

    With the default eta = 2 ln(T) / (lam T) the geometrically weighted
    average (weights (1 - eta lam)^-t) achieves the optimal rate up to the
    logarithmic factor; the last iterate is also returned for the
    growing-batch variant's analysis. Requires eta <= 1/(2 lam) and
    eta <= 2/beta.
    """
    lam = loss.strong_convexity
    if lam <= 0:
        raise ValueError("sc_weighted_sgd requires a strongly convex family")
    if len(data) != T:
        raise DataSizeError(f"dataset has {len(data)} examples, need T = {T}")
    if eta is None:
        if T < 2:
            raise ValueError("default step size needs T >= 2; pass eta explicitly")
        eta = 2.0 * math.log(T) / (lam * T)
    if eta > 1.0 / (2.0 * lam) + 1e-15:
        raise StepSizeError(f"eta = {eta} > 1/(2 lam) = {1.0 / (2.0 * lam)}")
    beta = loss.smoothness
    if math.isfinite(beta) and eta > 2.0 / beta:
        raise StepSizeError(f"eta = {eta} > 2/beta = {2.0 / beta}")
    if noise_scale > 0 and noise is None:
        raise ValueError("noisy run requires a NoiseStream")
    w = _start_point(domain, w0)
    d = domain.dimension
    gamma = sc_weights(T, eta, lam).as_array()
    weighted = np.zeros_like(w)
    for t in range(T):
        g = loss.grad(w, data.example(t))
        if noise_scale > 0.0:
            g = g + noise_scale * noise.gaussian(d)
        w = project(domain, w - eta * g)
        weighted += gamma[t] * w
    weighted /= float(np.sum(gamma))
    schedule = Schedule.constant(T, 1, eta, noise_scale)
    return RunRecord(
        final_iterate=w,
        weighted_average=weighted,
        gradient_evaluations=T,
        phase_log=(PhaseRecord(1, T, noise_scale, w),),
        rng_seed=None if noise is None else noise.seed,
        declared_budget=pai_rho(schedule, loss.lipschitz),
    )


def sc_snowball(
    data: Dataset,
    loss: LossFamily,
    domain: ConvexDomain,
    w0,
    T: int,
    d: int,
    rho: float,
    noise: NoiseStream,
    eta: float | None = None,
    sigma: float | None = None,
) -> RunRecord:
    """Growing-batch noisy SGD for strongly convex losses; returns the last
    iterate with budget equal to the amplification-by-iteration value.

    Defaults: batch sizes ceil(2 sqrt(d/(T-t+1)) / rho), eta = 2 ln(T)/(lam T)
    (T >= 2; pass eta for the degenerate single-step case), sigma = L/sqrt(d)
    (overridable for ablations).
    """
    lam = loss.strong_convexity
    if lam <= 0:
        raise ValueError("sc_snowball requires a strongly convex family")
    if d != domain.dimension:
        raise ValueError(f"d = {d} != domain dimension {domain.dimension}")
    if eta is None:
        if T < 2:
            raise ValueError("default step size needs T >= 2; pass eta explicitly")
        eta = 2.0 * math.log(T) / (lam * T)
    if sigma is None:
        sigma = loss.lipschitz / math.sqrt(d)
    beta = loss.smoothness
    if math.isfinite(beta) and eta > 2.0 / beta:
        raise StepSizeError(f"eta = {eta} > 2/beta = {2.0 / beta}")
    schedule = Schedule(snowball_batches(T, d, rho), np.full(T, eta), np.full(T, sigma))
    return pnsgd(data, loss, domain, w0, schedule, noise)


def run_record_to_json(record: RunRecord) -> str:
    """Serialize a run record; iterates above dimension 64 are elided to
    norms to bound file size."""

    def vec(v):
        if v is None:
            return None
        if v.shape[0] > _SERIALIZE_DIM_LIMIT:
            return {"dimension": int(v.shape[0]), "norm": float(np.linalg.norm(v))}
        return [float(x) for x in v]

    budget = record.declared_budget
    if isinstance(budget, PrivacyBudget):
        budget_obj = {"kind": "rdp", "rho": budget.rho}
    elif isinstance(budget, ApproxDP):
        budget_obj = {"kind": "approx_dp", "epsilon": budget.epsilon, "delta": budget.delta}
    else:
        budget_obj = None
    return json.dumps(
        {
            "final_iterate": vec(record.final_iterate),
            "weighted_average": vec(record.weighted_average),
            "gradient_evaluations": record.gradient_evaluations,
            "phases": [
                {
                    "index": p.index,
                    "samples": p.samples,
                    "noise_scale": None if math.isnan(p.noise_scale) else p.noise_scale,
                    "iterate": vec(p.iterate),
                }
                for p in record.phase_log
            ],
            "rng_seed": record.rng_seed,
            "declared_budget": budget_obj,
        }
    )
