"""Test oracles for the loss geometry: a sampled falsifier of contractivity
for gradient-step maps, and the mean loss of a batch.

The privacy argument needs every gradient step w -> w - eta grad f(w) to be
contractive, which holds for convex beta-smooth losses whenever
eta <= 2 / beta; ``LossFamily.support_defect`` refuses larger steps before
any claim. The falsifier here samples the map's Lipschitz constant, so the
tests can check that threshold from outside the code under test."""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from dpsco.geometry import ConvexDomain
from dpsco.losses import LINEAR_REGRESSION, LOGISTIC, QUADRATIC, Dataset, LossFamily

# Contraction ratios are checked to 1e-9. Double precision throughout.
RATIO_TOL = 1e-9

# Pairs closer than this are skipped in ratio estimates (0/0 guard).
_MIN_PAIR_SEPARATION = 1e-9

PointMap = Callable[[np.ndarray], np.ndarray]


def gradient_step_map(grad_fn: Callable[[np.ndarray], np.ndarray], eta: float) -> PointMap:
    """Return the map ``w -> w - eta * grad_fn(w)`` as a composable function.

    Contractivity (which holds for convex beta-smooth objectives whenever
    ``eta <= 2 / beta``) is not enforced here; use :func:`check_contraction`
    to falsify it for a concrete map.
    """
    if eta < 0:
        raise ValueError(f"step size must be nonnegative, got {eta}")

    def step(w: np.ndarray) -> np.ndarray:
        return w - eta * grad_fn(w)

    return step


@dataclass(frozen=True)
class ContractionReport:
    max_ratio: float
    witness_pair: tuple[np.ndarray, np.ndarray]


def check_contraction(
    point_map: PointMap,
    domain: ConvexDomain,
    num_pairs: int,
    rng_seed: int,
) -> ContractionReport:
    """Estimate the Lipschitz constant of ``point_map`` by random sampling.

    Samples ``num_pairs`` pairs uniformly from the domain's bounding box and
    returns the maximum of ``|map(x) - map(y)| / |x - y|`` together with the
    maximizing pair. This is a falsifier, not a prover: a ratio above 1 + 1e-9
    disproves contractivity, a ratio below it does not certify it.
    """
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
    lo, hi = domain.bounding_box()
    rng = np.random.default_rng(rng_seed)
    best_ratio = -np.inf
    witness = None
    for _ in range(num_pairs):
        x = rng.uniform(lo, hi)
        y = rng.uniform(lo, hi)
        gap = float(np.linalg.norm(x - y))
        if gap <= _MIN_PAIR_SEPARATION:
            continue
        ratio = float(np.linalg.norm(point_map(x) - point_map(y))) / gap
        if ratio > best_ratio:
            best_ratio = ratio
            witness = (x, y)
    if witness is None:
        raise RuntimeError("all sampled pairs were degenerate; increase num_pairs")
    return ContractionReport(max_ratio=best_ratio, witness_pair=witness)


def batch_value(loss: LossFamily, w: np.ndarray, batch: Dataset) -> float:
    """Arithmetic mean of the loss over a nonempty batch (vectorized)."""
    if len(batch) == 0:
        raise ValueError("batch must be nonempty")
    w = np.asarray(w, dtype=np.float64)
    feats = batch.features
    if loss.kind == QUADRATIC:
        diffs = w[None, :] - feats
        return 0.5 * float(np.mean(np.sum(diffs * diffs, axis=1)))
    margins = feats @ w
    if loss.kind == LINEAR_REGRESSION:
        return 0.5 * float(np.mean((margins - batch.targets) ** 2))
    if loss.kind == LOGISTIC:
        return float(np.mean(np.logaddexp(0.0, -batch.targets * margins)))
    return float(np.mean(np.abs(margins - batch.targets)))
