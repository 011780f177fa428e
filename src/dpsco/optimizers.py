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
from .geometry import ConvexDomain, DimensionMismatchError, project
from .losses import ABSOLUTE_DEVIATION, LINEAR_REGRESSION, QUADRATIC, Dataset, LossFamily
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

    def gaussians(self, dim: int, count: int) -> np.ndarray:
        """The next ``count`` draws as the rows of a read-only (count, dim)
        array, equal to ``count`` successive :meth:`gaussian` calls; a view of
        the cached block when they all fall in one block."""
        block, offset = divmod(self.index, _NOISE_BLOCK)
        self.index += int(count)
        rows = []
        while count > 0:
            take = min(count, _NOISE_BLOCK - offset)
            rows.append(self._load_block(dim, block)[offset:offset + take])
            block, offset, count = block + 1, 0, count - take
        if len(rows) == 1:
            return rows[0]
        out = np.concatenate(rows) if rows else np.empty((0, dim))
        out.flags.writeable = False
        return out

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


# Lower bound on P_j = prod_{i<=j} (1 - eta_i) within one chunk for the closed
# form (log P_j >= -600), so that P_j and pull_i / P_i stay normal floats.
_PRODUCT_FLOOR = math.exp(-600.0)


def _inside(rows, domain, center):
    """Whether each row lies in the domain (NaN rows do not); ``center`` is
    None for a ball centred at the origin."""
    if domain.kind == "ball":
        off = rows if center is None else rows - center
        return np.sqrt(np.einsum("ij,ij->i", off, off)) <= domain.radius
    return ((rows >= domain.lower) & (rows <= domain.upper)).all(axis=1)


def _quadratic_chunk(w, eta, pull, domain, center):
    """The unprojected iterates of w_j = (1 - eta_j) w_{j-1} + pull_j (w_0 = w)
    in closed form, w_j = P_j (w + sum_{i<=j} pull_i / P_i) with
    P_j = prod_{i<=j} (1 - eta_i), as rows cut before the first iterate
    outside the domain: up to there projection is the identity. P is the
    cumulative product of the loop's own factors 1 - eta_i (relative error
    below k ulp however small P gets). Empty when some eta_j lies outside
    (0, 1), when P_k falls below ``_PRODUCT_FLOOR``, or when the first step
    already leaves the domain (checked alone first: from an iterate on the
    boundary it often does)."""
    if not (eta.min() > 0.0 and eta.max() < 1.0):
        return pull[:0]
    if not _inside(((1.0 - eta[0]) * w + pull[0])[None], domain, center)[0]:
        return pull[:0]
    p = np.cumprod(1.0 - eta)[:, None]
    if p[-1, 0] < _PRODUCT_FLOOR:
        return pull[:0]
    rows = pull / p
    rows[0] += w
    np.cumsum(rows, axis=0, out=rows)
    rows *= p
    inside = _inside(rows, domain, center)
    return rows if inside.all() else rows[:inside.argmin()]


# Steps per closed-form least-squares sub-chunk. Each sub-chunk pays one
# k x k solve, and a cut hands the rest of its sub-chunk to the loop. Of
# 32, 48, 64, 80, 96 and 128, 64 was fastest or within 5 % of the fastest for
# phased SGD at n = 2^14 with d = 16 and 64, with projection idle and with it
# firing. The lower-triangular mask of every shorter sub-chunk is a corner of
# this one.
_LINEAR_SPAN = 64
_LOWER = np.tri(_LINEAR_SPAN)


def _linear_chunk(w, eta, A, b, kick, domain, center):
    """The unprojected iterates of the least-squares steps
    w_j = w_{j-1} - eta_j (a_j.w_{j-1} - b_j) a_j - kick_j (w_0 = w; ``kick``
    None for none) in closed form, as rows cut before the first iterate
    outside the domain. The residuals r_j = a_j.w_{j-1} - b_j solve the unit
    lower-triangular system (I + tril(A A^T, -1) diag(eta)) r = c with
    c_j = a_j.(w - sum_{i<j} kick_i) - b_j, and w_j = w - sum_{i<=j}
    (eta_i r_i a_i + kick_i). A residual that is not finite makes its
    iterate not finite, which counts as outside. Empty when the first step
    already leaves the domain (checked alone first) or when some
    eta_j |a_j|^2 lies outside [0, 2], where a step stops being
    contractive."""
    first = w - (eta[0] * (A[0].dot(w) - b[0])) * A[0]
    if kick is not None:
        first -= kick[0]
    if not _inside(first[None], domain, center)[0]:
        return A[:0]
    k = len(eta)
    gram = A @ A.T
    contraction = eta * gram.diagonal()
    if not (contraction.min() >= 0.0 and contraction.max() <= 2.0):
        return A[:0]
    lower = _LOWER[:k, :k]
    system = gram * lower
    system *= eta
    system.flat[::k + 1] = 1.0
    c = A @ w - b
    if kick is not None:
        kicks = np.cumsum(kick, axis=0)
        c[1:] -= np.einsum("ij,ij->i", A[1:], kicks[:-1])
    r = np.linalg.solve(system, c)
    rows = (lower * (eta * r)) @ A  # the prefix sums of eta_i r_i a_i
    if kick is not None:
        rows += kicks
    np.subtract(w, rows, out=rows)
    inside = _inside(rows, domain, center)
    return rows if inside.all() else rows[:inside.argmin()]


def _sgd_pass(data, loss, domain, w, steps, batches=None, sigmas=None, noise=None,
              weights=None):
    """The one-pass loop of pnsgd, psgd, phased_sgd and sc_weighted_sgd: step t
    takes the next ``batches[t]`` examples (default 1) and sets
    w <- proj(w - eta_t * (mean gradient + sigma_t * xi_t)). Each step consumes
    one draw of ``noise``, also at sigma_t = 0. Chunks end on the stream's block
    boundaries, so a chunk's noise is one view of a cached block.

    Two families have affine gradients, and their steps are taken in closed
    form up to the first iterate outside the domain; from there the per-step
    loop, which projects, finishes the (sub-)chunk:

    - quadratic: a step is w <- proj((1 - eta_t) w + pull_t), and a whole
      chunk goes to :func:`_quadratic_chunk`, which declines when some eta_t
      lies outside (0, 1) or the product of the 1 - eta_t underflows;
    - linear regression: each sub-chunk of ``_LINEAR_SPAN`` steps goes to
      :func:`_linear_chunk`, which declines when some eta_t |a_t|^2 lies
      outside [0, 2]; a sub-chunk with a batch of more than one example is
      not offered.

    Both decline when the first step already leaves the domain. The loop
    runs what they decline and every step of the logistic and
    absolute-deviation families. Returns the last iterate and
    sum_t weights_t * w_t (None without weights)."""
    X, Y = data.features, data.targets
    if X.shape[1] != w.shape[0]:
        raise DimensionMismatchError(f"data dimension {X.shape[1]} != iterate {w.shape[0]}")
    T, quadratic, slope = len(steps), loss.kind == QUADRATIC, loss.margin_slope
    linear = loss.kind == LINEAR_REGRESSION
    batches = np.ones(T, dtype=np.int64) if batches is None else batches
    ball = domain.kind == "ball"
    center = domain.center if ball and domain.center.any() else None
    total = None if weights is None else np.zeros_like(w)
    t = start = 0
    while t < T:
        k = min(T - t, _NOISE_BLOCK - (0 if noise is None else noise.index % _NOISE_BLOCK))
        sizes, eta, kick = batches[t:t + k], steps[t:t + k], None  # rows eta sigma xi
        if noise is not None and sigmas[t:t + k].any():
            kick = (eta * sigmas[t:t + k])[:, None] * noise.gaussians(w.shape[0], k)
        elif noise is not None:
            noise.skip(k)
        iterates = None if total is None else np.empty((k, w.shape[0]))
        if quadratic:  # w - eta (w - mean + sigma xi) = (1 - eta) w + pull
            ends = np.cumsum(sizes)
            if ends[-1] == k:  # one example per step: the means are the rows
                means = X[start:start + k]
            else:
                means = np.add.reduceat(X[start:start + ends[-1]], ends - sizes, axis=0)
                means /= sizes[:, None]
            pull = eta[:, None] * means - (0.0 if kick is None else kick)
        span = _LINEAR_SPAN if linear else k
        for lo in range(0, k, span):
            hi = min(lo + span, k)
            rows = ()
            if quadratic:
                rows = _quadratic_chunk(w, eta, pull, domain, center)
            elif linear and sizes[lo:hi].max() == 1:
                m = hi - lo
                rows = _linear_chunk(w, eta[lo:hi], X[start:start + m], Y[start:start + m],
                                     None if kick is None else kick[lo:hi], domain, center)
            done = lo + len(rows)
            if len(rows):
                w = rows[-1].copy()
                start += int(ends[done - 1]) if quadratic else len(rows)
                if iterates is not None:
                    iterates[lo:done] = rows
            for j, (b, e) in enumerate(zip(sizes[done:hi].tolist(), eta[done:hi].tolist()), done):
                if quadratic:
                    w = (1.0 - e) * w + pull[j]
                elif b == 1:
                    a = X[start]
                    w = w - (e * slope(a.dot(w), Y[start])) * a
                else:
                    A = X[start:start + b]
                    w = w - (e / b) * (slope(A @ w, Y[start:start + b]) @ A)
                if kick is not None and not quadratic:
                    w = w - kick[j]
                start += b
                if ball:  # geometry.project, inline
                    off = w if center is None else w - center
                    dist = math.sqrt(off.dot(off))
                    if dist > domain.radius:
                        off = off * (domain.radius / dist)
                        w = off if center is None else center + off
                else:
                    w = np.clip(w, domain.lower, domain.upper)
                if iterates is not None:
                    iterates[j] = w
        if iterates is not None:
            total += weights[t:t + k] @ iterates
        t += k
    return w, total


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
    A step size above 2/beta, a loss that is not smooth (beta not finite), or
    data on which the declared beta does not hold
    (:meth:`LossFamily.smoothness_defect`) voids that value: the run warns and
    declares none.
    """
    total = schedule.total_samples()
    if len(data) != total:
        raise DataSizeError(f"dataset has {len(data)} examples, schedule consumes {total}")
    beta = loss.smoothness
    if not math.isfinite(beta):
        reason = "the loss is not smooth"
    elif schedule.step_sizes.max() > 2.0 / beta + 1e-12:
        reason = "a step size exceeds 2/beta"
    else:
        reason = loss.smoothness_defect(data)
    if reason is not None:
        warnings.warn(f"{reason}; the privacy budget relies on per-step contractivity, "
                      "so none is declared", stacklevel=2)
    w, _ = _sgd_pass(data, loss, domain, _start_point(domain, w0), schedule.step_sizes,
                     schedule.batch_sizes, schedule.noise_scales, noise)
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=total,
        phase_log=(PhaseRecord(1, total, float(schedule.noise_scales.max()), w),),
        rng_seed=noise.seed,
        declared_budget=pai_rho(schedule, loss.lipschitz) if reason is None else None,
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
    steps = np.array([float(e) for e in step_sizes], dtype=np.float64)
    if len(data) != len(steps):
        raise DataSizeError(f"dataset has {len(data)} examples, need {len(steps)}")
    w, total = _sgd_pass(data, loss, domain, _start_point(domain, w0), steps,
                         weights=np.ones(len(steps)))
    return RunRecord(
        final_iterate=w,
        weighted_average=total / len(steps),
        gradient_evaluations=len(steps),
        phase_log=(PhaseRecord(1, len(steps), 0.0, w),),
        rng_seed=None,
        declared_budget=None,
    )


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
    below 1 the noise no longer covers the sensitivity and no budget is
    declared (``declared_budget`` is None). The 2 L eta_i bound needs a smooth
    loss: for one whose beta is not finite the run warns and declares none,
    and data on which the declared beta does not hold raise
    :class:`StepSizeError`, as eta > 2/beta does.
    """
    n = len(data)
    if n < 2:
        raise DataSizeError(f"need at least 2 examples, got {n}")
    if eta <= 0 or rho <= 0:
        raise ValueError("eta and rho must be positive")
    beta = loss.smoothness
    smooth = math.isfinite(beta)
    if not smooth:
        warnings.warn("the loss is not smooth; the 2 L eta sensitivity bound does not hold, "
                      "so no privacy budget is declared", stacklevel=2)
    elif eta > 2.0 / beta:
        raise StepSizeError(f"eta = {eta} > 2/beta = {2.0 / beta}: sensitivity bound inapplicable")
    elif (defect := loss.smoothness_defect(data)) is not None:
        raise StepSizeError(f"{defect}: sensitivity bound inapplicable")
    L = loss.lipschitz
    w = _start_point(domain, w0)
    plan = phase_plan(n, eta, mode="geometric")
    log = []
    offset = 0
    for i, (ni, eta_i) in enumerate(plan, start=1):
        avg = _sgd_pass(data.subset(offset, offset + ni), loss, domain, w, np.full(ni, eta_i),
                        weights=np.ones(ni))[1] / ni
        offset += ni
        sigma_i = sigma_scale * 4.0 * L * eta_i / rho
        xi = noise.gaussian(domain.dimension)  # drawn also at sigma_i = 0
        # Projection is privacy-free post-processing and only moves the
        # iterate closer to any feasible comparator.
        w = project(domain, avg + sigma_i * xi if sigma_i > 0.0 else avg)
        log.append(PhaseRecord(i, ni, sigma_i, w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=offset,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=PrivacyBudget(rho) if smooth and sigma_scale >= 1.0 else None,
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
    :func:`phased_sgd`. The declared guarantee is (epsilon, 2 delta)-DP; with
    ``sigma_scale`` below 1 (a reduced-noise ablation) none is declared.

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
        xi = noise.gaussian(domain.dimension)  # drawn also at sigma_i = 0
        w = project(domain, cand + sigma_i * xi if sigma_i > 0.0 else cand)
        log.append(PhaseRecord(i, ni, sigma_i, w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=evals,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=ApproxDP(epsilon, 2.0 * delta) if sigma_scale >= 1.0 else None,
    )


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
        g = loss.batch_grad(cand, block) + lam * (cand - w_prev)
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
    gamma = sc_weights(T, eta, lam).as_array()
    w, weighted = _sgd_pass(data, loss, domain, _start_point(domain, w0), np.full(T, eta),
                            sigmas=np.full(T, noise_scale), noise=noise, weights=gamma)
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
