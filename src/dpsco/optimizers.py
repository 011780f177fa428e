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

import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .accountant import ApproxDP, PrivacyBudget, gaussian_sigma, pai_rho
from .geometry import ConvexDomain, DimensionMismatchError, project
from .losses import ABSOLUTE_DEVIATION, LINEAR_REGRESSION, QUADRATIC, Dataset, LossFamily
from .schedules import Schedule, _real, _vector, _whole, phase_plan, sc_weights, snowball_batches

_NOISE_BLOCK = 256
# Most float64 values a prefetch holds (4 MiB), which bounds the memory a run
# keeps beside its data; draws past them are made on demand.
_PREFETCH_ENTRIES = 2**19


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draw_blocks(seed: int, dim: int, block: int, out: np.ndarray) -> None:
    """Fill ``out`` with blocks ``block``, ``block + 1``, ... of dimension
    ``dim`` of the stream ``seed``, 256 rows each."""
    for start in range(0, len(out), _NOISE_BLOCK):
        key = np.random.SeedSequence(entropy=seed, spawn_key=(dim, block + start // _NOISE_BLOCK))
        np.random.Generator(np.random.Philox(seed=key)).standard_normal(
            out=out[start:start + _NOISE_BLOCK])


def _derive_seeds(master: int, *key: int) -> int:
    """The 64-bit seed that ``SeedSequence(master, spawn_key=key)`` derives."""
    ss = np.random.SeedSequence(entropy=int(master), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


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
    identical draws independent of when or by whom they are consumed, and of
    which thread drew them: :meth:`prefetch` draws the same blocks on a worker
    thread.
    """

    def __init__(self, seed: int):
        self.seed = _whole(seed, 0, "seed")
        self.index = 0
        # the blocks drawn last, as (dim, first block, read-only rows), and
        # while a prefetch fills them, its thread and what it raised
        self._held: tuple[int, int, np.ndarray] | None = None
        self._worker: tuple[threading.Thread, list] | None = None

    def gaussian(self, dim: int) -> np.ndarray:
        """Next standard-normal vector of the given dimension (a read-only view)."""
        return self.gaussians(dim, 1)[0]

    def gaussians(self, dim: int, count: int) -> np.ndarray:
        """The next ``count`` draws as the rows of a read-only (count, dim)
        view of the blocks that hold them: the blocks drawn last where they
        cover the request, else the request's blocks drawn now."""
        dim, count = _whole(dim, 1, "dim"), _whole(count, 0, "count")
        first = self.index // _NOISE_BLOCK
        end = max(-(-(self.index + count) // _NOISE_BLOCK), first + 1)
        held, raised = self._held, self._wait()
        covered = held is not None and held[0] == dim and (
            held[1] <= first and end <= held[1] + len(held[2]) // _NOISE_BLOCK)
        if not covered:  # what a prefetch raised goes with its draws, not needed here
            held = (dim, first, np.empty(((end - first) * _NOISE_BLOCK, dim)))
            _draw_blocks(self.seed, dim, first, held[2])
            self._held = held
        elif raised is not None:
            self._held = None
            raise raised
        rows = held[2]
        rows.flags.writeable = False  # draws are views; callers must not edit them
        lo = self.index - held[1] * _NOISE_BLOCK
        self.index += count
        return rows[lo:lo + count]

    def prefetch(self, dim: int, count: int) -> None:
        """Start drawing the blocks of the next ``count`` draws of dimension
        ``dim`` on a worker thread, as many whole blocks as fit in
        ``_PREFETCH_ENTRIES`` values, where this process may use two CPUs or
        more (on one the worker would only delay its caller). numpy fills the
        blocks with the interpreter lock released, so the caller's own numpy
        work, such as sampling the data, runs meanwhile. The first
        :meth:`gaussians` request inside these blocks waits for the worker and
        raises what it raised."""
        dim, count = _whole(dim, 1, "dim"), _whole(count, 0, "count")
        first = self.index // _NOISE_BLOCK
        end = min(-(-(self.index + count) // _NOISE_BLOCK),
                  first + _PREFETCH_ENTRIES // (_NOISE_BLOCK * dim))
        if end <= first or _usable_cpus() < 2:
            return
        self._wait()
        rows, raised = np.empty(((end - first) * _NOISE_BLOCK, dim)), []

        def work():
            try:
                _draw_blocks(self.seed, dim, first, rows)
            except Exception as exc:  # raised again by the request that needs these draws
                raised.append(exc)

        thread = threading.Thread(target=work, name="dpsco-noise-prefetch")
        thread.start()
        self._held, self._worker = (dim, first, rows), (thread, raised)

    def _wait(self) -> Exception | None:
        """Wait for the prefetch worker, if one runs; what it raised."""
        if self._worker is None:
            return None
        thread, raised = self._worker
        self._worker = None
        thread.join()
        return raised[0] if raised else None

    def skip(self, count: int) -> None:
        self.index += _whole(count, 0, "count")

    def fork(self, tag: int) -> "NoiseStream":
        """Independent stream derived deterministically from this one's seed."""
        return NoiseStream(_derive_seeds(self.seed, 0x5EED, tag))


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


def _warn(message: str) -> None:
    """Warn at the line that called into this module, however deep the
    helper that warns."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals is globals():
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _start_point(domain: ConvexDomain, w0) -> np.ndarray:
    w = _vector(w0, "w0", dim=domain.dimension)
    if not domain.contains(w):
        _warn("starting point outside the domain; projecting")
        w = project(domain, w)
    return w


# Lower bound on P_j = prod_{i<=j} (1 - eta_i) between restarts of the closed
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
    P_j = prod_{i<=j} (1 - eta_i), as the longest prefix of rows that ends
    before the first eta_j outside (0, 1) and before the first iterate outside
    the domain: up to there projection is the identity. P is the cumulative
    product of the loop's own factors 1 - eta_i (relative error below k ulp
    however small P gets); before the first P_j below ``_PRODUCT_FLOOR`` the
    form restarts from the last iterate, with nothing cut."""
    valid = (eta > 0.0) & (eta < 1.0)
    m = len(eta) if valid.all() else int(valid.argmin())
    parts, lo = [], 0
    while True:
        p = np.cumprod(1.0 - eta[lo:m])[:, None]
        if len(p) and p[-1, 0] < _PRODUCT_FLOOR:  # P_1 >= 2^-53 never is
            p = p[:int(np.argmax(p[:, 0] < _PRODUCT_FLOOR))]
        hi = lo + len(p)
        rows = pull[lo:hi] / p
        rows[:1] += w
        np.cumsum(rows, axis=0, out=rows)
        rows *= p
        inside = _inside(rows, domain, center)
        parts.append(rows if inside.all() else rows[:inside.argmin()])
        if hi == m or len(parts[-1]) < len(rows):
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        w, lo = rows[-1], hi


# The least-squares closed form takes its steps in blocks of _BLOCK and
# inverts each block's system as two halves.
_BLOCK, _HALF = 16, 8
_TRI = np.tri(_BLOCK)
_STRICT = np.tri(_HALF, k=-1)


def _unit_lower_inverse(D):
    """(I + D)^-1 for a stack of strictly lower-triangular 8 x 8 D, as the
    Neumann product (I - D)(I + D^2)(I + D^4), since D^8 = 0. Over 16 rows
    the powers of D grow too large for such a product to stay accurate."""
    D2 = D @ D
    Y = np.eye(_HALF) - D
    Y += Y @ D2
    Y += Y @ (D2 @ D2)
    return Y


def _linear_chunk(w, eta, A, b, kick, domain, center):
    """The unprojected iterates of the least-squares steps
    w_j = w_{j-1} - eta_j (a_j.w_{j-1} - b_j) a_j - kick_j (w_0 = w; ``kick``
    None for none) in closed form, as rows cut before the first
    eta_j |a_j|^2 outside [0, 2], where a step stops being contractive, and
    before the first iterate outside the domain. From the iterate v at the start
    of a block B of 16 steps, the residuals r_j = a_j.w_{j-1} - b_j are
    r_B = X_B (A_B v - b'_B), where b'_j adds a_j.(the block's kicks before
    j) to b_j and X_B = (I + tril(A_B A_B^T, -1) diag(eta_B))^-1; the block
    ends at v - A_B^T (eta_B r_B) - (its kicks). Every X_B comes from one
    batched gram, as two 8-row Neumann inverses joined by one block product.
    A ragged last block is padded with zero rows: the leading block of a
    lower-triangular inverse is the inverse of the leading block. A residual
    that is not finite makes its iterate not finite, which counts as
    outside."""
    valid = eta * np.einsum("ij,ij->i", A, A)
    valid = (valid >= 0.0) & (valid <= 2.0)
    n, d = len(eta) if valid.all() else int(valid.argmin()), A.shape[1]
    if n == 0:
        return A[:0]
    eta, A, b, kick = eta[:n], A[:n], b[:n], None if kick is None else kick[:n]
    m = -(-n // _BLOCK)
    if n % _BLOCK:  # pad the last block with zero rows
        A = np.concatenate((A, np.zeros((m * _BLOCK - n, d))))
    a = A.reshape(m, _BLOCK, d)
    gram = a @ a.transpose(0, 2, 1)
    target = np.zeros((m, _BLOCK))
    target.reshape(-1)[:n] = b
    if kick is not None:
        kicks = np.zeros((m, _BLOCK, d))
        kicks.reshape(-1, d)[:n] = kick
        kicks = _TRI @ kicks  # the prefix sums within each block
        target[:, 1:] += np.einsum("bij,bij->bi", a[:, 1:], kicks[:, :-1])
    halves = np.empty((m, 2, _HALF, _HALF))
    halves[:, 0], halves[:, 1] = gram[:, :_HALF, :_HALF], gram[:, _HALF:, _HALF:]
    halves = halves.reshape(2 * m, _HALF, _HALF)
    steps = np.zeros((2 * m, _HALF, 1))
    steps.reshape(-1)[:n] = eta
    halves *= _STRICT
    halves *= steps.transpose(0, 2, 1)
    Y = _unit_lower_inverse(halves)
    Y *= steps
    # M = diag(eta_B) X_B A_B and q = diag(eta_B) X_B b'_B: the lower-left
    # quarter of X_B is -Y_2 G_21 diag(eta_1) Y_1, and diag(eta_1) Y_1 [A_1 b'_1]
    # is the upper half of [M q]
    M = Y @ a.reshape(2 * m, _HALF, d)
    q = Y @ target.reshape(2 * m, _HALF, 1)
    join = Y[1::2] @ gram[:, _HALF:, :_HALF]
    M[1::2] -= join @ M[0::2]
    q[1::2] -= join @ q[0::2]
    M, q = M.reshape(m, _BLOCK, d), q.reshape(m, _BLOCK)
    u, starts, v = [], [], w
    for B, (MB, qB, aB) in enumerate(zip(M, q, a)):
        starts.append(v)
        u.append(MB.dot(v) - qB)  # eta_B r_B
        v = v - u[-1].dot(aB)
        if kick is not None:
            v = v - kicks[B, -1]
    rows = (_TRI * np.array(u)[:, None, :]) @ a  # the prefix sums of u_j a_j
    if kick is not None:
        rows += kicks
    np.subtract(np.array(starts)[:, None, :], rows, out=rows)
    rows = rows.reshape(-1, d)[:n]
    inside = _inside(rows, domain, center)
    return rows if inside.all() else rows[:inside.argmin()]


# A chunk spans at most _CHUNK steps and ends on a noise-block boundary; its
# means, noise kicks and pulls are built at once. After a cut or an empty take
# the closed form is next offered _SPAN steps.
_CHUNK, _SPAN = 2048, 64


def _sgd_pass(data, loss, domain, w, steps, batches=None, sigmas=None, noise=None,
              weights=None, prox=None):
    """The one-pass loop of pnsgd, psgd, phased_sgd, sc_weighted_sgd and
    phased_erm's inner SGD: step t takes the next ``batches[t]`` examples
    (default 1) and sets w <- proj(w - eta_t * (mean gradient + sigma_t * xi_t)),
    with eta_t * lam (w - w_prev) added inside the projection when a proximal
    anchor ``prox = (w_prev, lam)`` is given. Each step consumes one draw of
    ``noise``, also at sigma_t = 0. The pass walks the schedule in chunks of up
    to ``_CHUNK`` steps that end on the stream's 256-draw block boundaries
    (counted from step 0 without a stream).

    Where projection is the identity, two families take their steps in closed
    form: the quadratic family, whose step is w <- proj((1 - eta_t) w + pull_t)
    (with an anchor, eta_t (1 + lam) stands for eta_t and the means plus
    lam w_prev for the means), in :func:`_quadratic_chunk`, and least squares
    without an anchor, in :func:`_linear_chunk`, offered up to the first batch
    of more than one example. Both follow one rule: an offer holds
    min(rest of the chunk, span) steps; span starts at the family's longest
    offer, the whole chunk or, for least squares, one noise block (at d = 64
    its closed form measured 790-950 ns per step at 256-step offers and no
    less at 512 to 2048); each offer taken whole doubles span, up to that
    longest. After a cut or an empty take the per-step loop, which projects,
    runs to the next multiple of ``_SPAN`` steps from the offer's start, and
    span restarts at ``_SPAN``. The loop runs every step of the logistic and
    absolute-deviation families. Returns the last iterate and
    sum_t weights_t * w_t (None without weights)."""
    X, Y = data.features, data.targets
    if X.shape[1] != w.shape[0]:
        raise DimensionMismatchError(f"data dimension {X.shape[1]} != iterate {w.shape[0]}")
    T, quadratic, slope = len(steps), loss.kind == QUADRATIC, loss.margin_slope
    linear = loss.kind == LINEAR_REGRESSION and prox is None
    anchor, lam = (None, 0.0) if prox is None else prox
    drag = None if quadratic else anchor  # the anchor the loop steps on
    batches = np.ones(T, dtype=np.int64) if batches is None else batches
    ball = domain.kind == "ball"
    center = domain.center if ball and domain.center.any() else None
    total = None if weights is None else np.zeros_like(w)
    phase = 0 if noise is None else noise.index % _NOISE_BLOCK  # step t is draw t + phase
    t = start = 0
    longest = _CHUNK if quadratic else _NOISE_BLOCK
    span = longest
    while t < T:
        k = min(T - t, _CHUNK - (t + phase) % _NOISE_BLOCK)
        sizes, eta, kick = batches[t:t + k], steps[t:t + k], None  # rows eta sigma xi
        if noise is not None and sigmas[t:t + k].any():
            kick = (eta * sigmas[t:t + k])[:, None] * noise.gaussians(w.shape[0], k)
        elif noise is not None:
            noise.skip(k)
        base = start
        if quadratic:  # w - eta (w - mean + sigma xi) = (1 - eta) w + pull
            ends = np.cumsum(sizes)
            # one example per step: the means are the rows, a view (8 us
            # against 220 us for reduceat and the division, 2048 x 16 rows)
            if ends[-1] == k:
                means = X[base:base + k]
            else:
                means = np.add.reduceat(X[base:base + ends[-1]], ends - sizes, axis=0)
                means /= sizes[:, None]
            if anchor is not None:  # lam (w - w_prev) is affine in w too
                means = means + lam * anchor
            pull = eta[:, None] * means
            if kick is not None:
                pull -= kick
                kick = None  # the loop steps on pull alone
            if anchor is not None:
                eta = eta * (1.0 + lam)
        lo = 0
        while lo < k:
            rows, hi = (), k
            if quadratic or linear:
                m = full = min(k - lo, span)
                if quadratic:
                    rows = _quadratic_chunk(w, eta[lo:lo + m], pull[lo:lo + m], domain, center)
                else:  # offered up to the first batch of more than one
                    wide = sizes[lo:lo + full] > 1
                    m = int(wide.argmax()) if wide.any() else full
                    rows = _linear_chunk(w, eta[lo:lo + m], X[start:start + m], Y[start:start + m],
                                         None if kick is None else kick[lo:lo + m], domain, center)
                span = min(2 * span, longest) if len(rows) == m else _SPAN
                hi = (lo + full if len(rows) == full else
                      min(k, lo + (len(rows) // _SPAN + 1) * _SPAN))
            done = lo + len(rows)
            if len(rows):
                w = rows[-1].copy()
                start = base + int(ends[done - 1]) if quadratic else start + len(rows)
                if total is not None:
                    total += weights[t + lo:t + done] @ rows
            for j, (b, e) in enumerate(zip(sizes[done:hi].tolist(), eta[done:hi].tolist()), done):
                v = w
                if quadratic:
                    w = (1.0 - e) * w + pull[j]
                elif b == 1:
                    a = X[start]
                    w = w - (e * slope(a.dot(w), Y[start])) * a
                else:
                    A = X[start:start + b]
                    w = w - (e / b) * (slope(A @ w, Y[start:start + b]) @ A)
                if kick is not None:
                    w = w - kick[j]
                if drag is not None:
                    w = w - (e * lam) * (v - drag)
                start += b
                if ball:  # geometry.project, inline
                    off = w if center is None else w - center
                    dist = math.sqrt(off.dot(off))
                    if dist > domain.radius:
                        if dist < math.inf:
                            off = off * (domain.radius / dist)
                            w = off if center is None else center + off
                        else:  # the squares overflowed: project scales first
                            w = project(domain, w)
                else:
                    w = np.clip(w, domain.lower, domain.upper)
                if total is not None:
                    total += weights[t + j] * w
            lo = hi
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
    Any defect that :meth:`LossFamily.support_defect` finds at the largest
    step (a loss that is not smooth, a step above 2/beta, data above the
    declared beta or L) voids that value: the run warns and declares none.
    """
    return _claimed_pass(data, loss, domain, w0, schedule, noise)


def _claimed_pass(data, loss, domain, w0, schedule, noise, weights=None):
    """The body of :func:`pnsgd`, :func:`sc_weighted_sgd` and
    :func:`sc_snowball`: one pass over ``schedule`` that declares
    ``pai_rho(schedule, L)``, or warns and declares none on a defect at the
    largest step. With ``weights`` it also returns the weighted average of
    the iterates."""
    total = schedule.total_samples()
    if len(data) != total:
        raise DataSizeError(f"dataset has {len(data)} examples, schedule consumes {total}")
    reason = loss.support_defect(data, domain, float(schedule.step_sizes.max()))
    if reason is not None:
        _warn(f"{reason}; the privacy budget relies on the declared constants, "
              "so none is declared")
    w, weighted = _sgd_pass(data, loss, domain, _start_point(domain, w0), schedule.step_sizes,
                            schedule.batch_sizes, schedule.noise_scales, noise, weights)
    return RunRecord(
        final_iterate=w,
        weighted_average=None if weights is None else weighted / float(np.sum(weights)),
        gradient_evaluations=total,
        phase_log=(PhaseRecord(1, total, float(schedule.noise_scales.max()), w),),
        rng_seed=None if noise is None else noise.seed,
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
    and the uniform average of iterates w_1..w_T (the start excluded). Step
    sizes must be finite, nonnegative numbers."""
    steps = _vector(step_sizes, "step sizes", "nonnegative and finite")
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
    declared (``declared_budget`` is None). The 2 L eta_i bound needs the
    declared constants (:meth:`LossFamily.support_defect` at eta): for a loss
    that is not smooth the run warns and declares none; eta > 2/beta, or data
    above the declared beta or L, raise :class:`StepSizeError`. ``eta`` and
    ``sigma_scale`` must be finite, eta and ``rho`` (inf: no noise) positive.
    """
    eta, rho = _real(eta, "eta"), _real(rho, "rho", "positive")
    sigma_scale = _real(sigma_scale, "sigma_scale", "nonnegative and finite")
    defect = loss.support_defect(data, domain, eta)
    if defect is not None and math.isfinite(loss.smoothness):
        raise StepSizeError(f"{defect}: sensitivity bound inapplicable")
    if defect is not None:
        _warn(f"{defect}; the 2 L eta sensitivity bound does not hold, "
              "so no privacy budget is declared")
    L = loss.lipschitz

    def solve(i, block, w, eta_i):
        ni = len(block)
        avg = _sgd_pass(block, loss, domain, w, np.full(ni, eta_i), weights=np.ones(ni))[1] / ni
        return avg, ni

    return _localize(data, domain, w0, eta, noise, solve,
                     lambda eta_i: sigma_scale * 4.0 * L * eta_i / rho,
                     PrivacyBudget(rho) if defect is None and sigma_scale >= 1.0 else None)


def _localize(data, domain, w0, eta, noise, solve, sigma, budget):
    """The phase loop of :func:`phased_sgd` and :func:`phased_erm`. Phase i of
    ``phase_plan(n, eta)`` hands the next n_i examples (disjoint, in order)
    and the previous output w to ``solve(i, block, w, eta_i)``, which returns
    a candidate and its oracle calls, and releases the candidate perturbed by
    ``sigma(eta_i)`` times one draw of ``noise`` (drawn also at sigma_i = 0).
    Projection is privacy-free post-processing and only moves the iterate
    closer to any feasible comparator."""
    n = len(data)
    if n < 2:
        raise DataSizeError(f"need at least 2 examples, got {n}")
    w = _start_point(domain, w0)
    log = []
    offset = evals = 0
    for i, (ni, eta_i) in enumerate(phase_plan(n, eta), start=1):
        cand, used = solve(i, data.subset(offset, offset + ni), w, eta_i)
        offset += ni
        evals += used
        sigma_i = sigma(eta_i)
        xi = noise.gaussian(domain.dimension)
        w = project(domain, cand + sigma_i * xi if sigma_i > 0.0 else cand)
        log.append(PhaseRecord(i, ni, sigma_i, w))
    return RunRecord(
        final_iterate=w,
        weighted_average=None,
        gradient_evaluations=evals,
        phase_log=tuple(log),
        rng_seed=noise.seed,
        declared_budget=budget,
    )


# phased_erm's inner SGD gives up after this many times n_i^2 max(1, ln(1/delta))
# oracle calls in a phase.
_INNER_BUDGET = 8.0


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
) -> RunRecord:
    """Localization for possibly non-smooth losses via regularized ERM phases.

    Phase i approximately minimizes over the domain

        F_i(w) = mean of f(w, x) over the phase block
                 + (1 / (eta_i n_i)) |w - w_{i-1}|^2,

    which is lam_i-strongly convex for lam_i = 2 / (eta_i n_i), to
    suboptimality L^2 eta_i / n_i, then releases the result perturbed by
    N(0, sigma_i^2 I), with sigma_i the smallest scale for which the Gaussian
    mechanism is (epsilon, 2 delta)-DP at sensitivity 3 L eta_i (L eta_i for
    the exact inner solver; :func:`dpsco.accountant.gaussian_sigma`).
    Consecutive disjoint blocks follow the same geometric plan as
    :func:`phased_sgd`. The declared guarantee is (epsilon, 2 delta)-DP; with
    ``sigma_scale`` below 1 (a reduced-noise ablation), or on data whose
    gradients exceed the declared L over the domain
    (:meth:`LossFamily.support_defect`, which warns), none is declared.

    inner:
        "sgd" runs strongly convex SGD (step 1/(lam_i s), suffix averaging)
        and repeats with fresh randomness until the certificate
        <g, w - u> - (lam_i / 2) |w - u|^2 <= L^2 eta_i / n_i passes (g a
        subgradient of F_i at w, u = proj(w - g / lam_i); the left side bounds
        F_i(w) - min F_i over the domain), within a per-phase budget of
        8 n_i^2 max(1, ln(1/delta)) oracle calls (certificate evaluations
        included). "exact" solves the phase objective in closed form
        (quadratic family, or 1-D absolute deviation) and makes no oracle calls.
    """
    eta, epsilon = _real(eta, "eta"), _real(epsilon, "epsilon", "positive")
    delta = _real(delta, "delta", "in (0, 1)")
    sigma_scale = _real(sigma_scale, "sigma_scale", "nonnegative and finite")
    if inner not in ("sgd", "exact"):
        raise ValueError(f"unknown inner solver {inner!r}")
    defect = loss.support_defect(data, domain)
    if defect is not None:
        _warn(f"{defect}; the noise is calibrated to the declared L, "
              "so no privacy budget is declared")
    L = loss.lipschitz

    def solve(i, block, w, eta_i):
        ni = len(block)
        lam_i = 2.0 / (eta_i * ni)
        if inner == "exact":
            return _exact_regularized_erm(loss, domain, block, w, lam_i), 0
        budget = math.ceil(_INNER_BUDGET * ni * ni * max(1.0, math.log(1.0 / delta)))
        return _certified_sgd_erm(loss, domain, block, w, lam_i, L * L * eta_i / ni, budget,
                                  noise.fork(i))

    # the exact minimizer moves by at most L eta_i when one example changes,
    # and a certified candidate lies within L eta_i of it: 3 L eta_i in all
    sensitivity = 3.0 * L if inner == "sgd" else L
    return _localize(
        data, domain, w0, eta, noise, solve,
        lambda eta_i: sigma_scale * gaussian_sigma(sensitivity * eta_i, epsilon, 2.0 * delta),
        ApproxDP(epsilon, 2.0 * delta) if defect is None and sigma_scale >= 1.0 else None)


def _exact_regularized_erm(loss, domain, block, w_prev, lam):
    """Closed-form minimizer of the phase objective over the domain."""
    if loss.kind == QUADRATIC:
        # isotropic quadratic plus isotropic proximal term: the constrained
        # minimizer is the projection of the unconstrained one
        center = (block.features.mean(axis=0) + lam * w_prev) / (1.0 + lam)
        return project(domain, center)
    if loss.kind != ABSOLUTE_DEVIATION or block.dimension != 1:
        raise ValueError(f"no exact inner solver for family {loss.kind!r} in d={block.dimension}")
    # mean |a w - b| + (lam/2)(w - c)^2 in 1-D has the nondecreasing subgradient
    # G(w) = sum_j weights_j sign(w - kink_j) + lam (w - c), of slope lam between
    # the sorted kinks b_j / a_j; sign_sums[j] is its sign sum left of kink j
    a, c = block.features[:, 0], float(w_prev[0])
    live = np.abs(a) > 0.0
    roots = block.targets[live] / a[live]
    order = np.argsort(roots)
    kinks = roots[order]
    weights = (np.abs(a[live]) / len(block))[order]
    sign_sums = np.cumsum(np.concatenate(([-np.sum(weights)], 2.0 * weights)))
    # G's zero lies on the segment right of every kink where G is still
    # negative; the segment's linear zero, clamped to its right end (G < 0 at
    # its left end), is the minimizer
    j = int(np.count_nonzero(sign_sums[1:] + lam * (kinks - c) < 0.0))
    right = kinks[j] if j < len(kinks) else math.inf
    return project(domain, np.array([min(c - sign_sums[j] / lam, right)]))


def _gap_bound(loss, domain, block, w, w_prev, lam):
    """<g, w - u> - (lam / 2) |w - u|^2 for g a subgradient at w of the phase
    objective F = mean f + (lam / 2) |. - w_prev|^2 and u = proj_K(w - g / lam):
    the largest F(w) - F(v) over v in K that lam-strong convexity allows, so a
    bound on F(w) - min_K F; |g|^2 / (2 lam) where u = w - g / lam."""
    g = loss.batch_grad(w, block) + lam * (w - w_prev)
    step = w - project(domain, w - g / lam)
    return float(g.dot(step)) - 0.5 * lam * float(step.dot(step))


def _certified_sgd_erm(loss, domain, block, w_prev, lam, gap, budget, rng_stream):
    """Strongly convex SGD on the phase objective, repeated with fresh
    randomness until :func:`_gap_bound` is at most ``gap``.

    Returns (candidate, oracle calls used). Each stochastic step costs one
    f-gradient; each certificate evaluation costs len(block).
    """
    ni = len(block)
    attempt_steps = max(2 * ni * ni, 16)
    used = attempt = 0
    best = math.inf
    while used + attempt_steps + ni <= budget:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=rng_stream.seed, spawn_key=(attempt,))
        )
        cand = _sgd_attempt(loss, domain, block, w_prev, lam, attempt_steps, rng)
        used += attempt_steps + ni
        bound = _gap_bound(loss, domain, block, cand, w_prev, lam)
        if bound <= gap:
            return cand, used
        best = min(best, bound)
        attempt += 1
    raise InnerSolveBudgetError(f"certificate gap <= {gap:.3g} not met within {budget} oracle "
                                f"calls (best {best:.3g} after {attempt} attempts)")


_INDEX_CHUNK = 1 << 16


def _sgd_attempt(loss, domain, block, w_prev, lam, steps, rng):
    """SGD with step 1/(lam (s + 1)) on the phase objective
    mean f + (lam / 2) |w - w_prev|^2 over examples drawn with replacement;
    returns the average of the last steps - steps // 2 iterates. The drawn
    rows are gathered ``_INDEX_CHUNK`` at a time, one kernel pass each."""
    if block.dimension == 1 and loss.kind == ABSOLUTE_DEVIATION:
        return _sgd_attempt_absdev_1d(domain, block, w_prev, lam, steps, rng)
    idx = rng.integers(0, len(block), size=steps)
    half = steps // 2
    eta = 1.0 / (lam * np.arange(1, steps + 1))
    suffix = (np.arange(steps) >= half).astype(np.float64)
    w, acc = w_prev, np.zeros_like(w_prev)
    for s in range(0, steps, _INDEX_CHUNK):
        rows = idx[s:s + _INDEX_CHUNK]
        part = Dataset(block.features[rows], None if block.targets is None else block.targets[rows])
        w, total = _sgd_pass(part, loss, domain, w, eta[s:s + _INDEX_CHUNK],
                             weights=suffix[s:s + _INDEX_CHUNK], prox=(w_prev, lam))
        acc += total
    return acc / (steps - half)


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
    budget.
    """
    n = len(data)
    if n < 4:
        raise DataSizeError(f"need at least 4 examples, got {n}")
    log2n = math.log2(n)
    k = max(1, math.ceil(math.log2(log2n)))
    sizes = [math.floor(2.0 ** (i - 2) * n / log2n) for i in range(1, k + 1)]
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
    growing-batch variant's analysis. Requires eta <= 1/(2 lam); any defect
    that :meth:`LossFamily.support_defect` finds at eta (such as eta > 2/beta)
    makes the run warn and declare no budget.
    """
    lam, eta = _strongly_convex_step(loss, T, eta)
    if eta > 1.0 / (2.0 * lam) + 1e-15:
        raise StepSizeError(f"eta = {eta} > 1/(2 lam) = {1.0 / (2.0 * lam)}")
    if _real(noise_scale, "noise_scale", "nonnegative and finite") > 0 and noise is None:
        raise ValueError("noisy run requires a NoiseStream")
    return _claimed_pass(data, loss, domain, w0, Schedule.constant(T, 1, eta, noise_scale),
                         noise, weights=sc_weights(T, eta, lam))


def _strongly_convex_step(loss, T, eta):
    """The family's lam and eta, positive and finite; eta by default 2 ln(T) / (lam T)."""
    lam = _real(loss.strong_convexity, "the family's strong convexity")
    if eta is None:  # ln 1 = 0: a single step needs an explicit eta
        T = _whole(T, 2, "T (for the default eta)")
        eta = 2.0 * math.log(T) / (lam * T)
    return lam, _real(eta, "eta")


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
    (overridable for ablations). Where :func:`pnsgd` finds a defect (such as
    eta > 2/beta) the run warns and declares no budget.
    """
    _, eta = _strongly_convex_step(loss, T, eta)
    if d != domain.dimension:
        raise ValueError(f"d = {d} != domain dimension {domain.dimension}")
    if sigma is None:
        sigma = loss.lipschitz / math.sqrt(d)
    schedule = Schedule(snowball_batches(T, d, rho), np.full(T, eta), np.full(T, sigma))
    return _claimed_pass(data, loss, domain, w0, schedule, noise)

