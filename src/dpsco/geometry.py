"""Convex feasible sets, exact Euclidean projections, and contraction checks.

Only Euclidean balls and axis-aligned boxes are supported: both admit exact
closed-form projections, which keeps every downstream privacy argument free of
projection error. All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Membership is checked to 1e-12 (absolute per coordinate for boxes, relative
# in norm for balls); contraction ratios to 1e-9. Double precision throughout.
MEMBERSHIP_TOL = 1e-12
RATIO_TOL = 1e-9

# Pairs closer than this are skipped in ratio estimates (0/0 guard).
_MIN_PAIR_SEPARATION = 1e-9

PointMap = Callable[[np.ndarray], np.ndarray]


class DimensionMismatchError(ValueError):
    """A point's dimension does not match the domain it is used with."""


def _as_vector(x, dim: int | None = None) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class ConvexDomain:
    """A Euclidean ball or an axis-aligned box in R^d.

    Construct via :meth:`ball` or :meth:`box`. ``diameter`` is the Euclidean
    diameter: ``2 * radius`` for balls, ``norm(upper - lower)`` for boxes.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexDomain":
        c = _as_vector(center)
        r = float(radius)
        if r <= 0:
            raise ValueError(f"ball radius must be positive, got {r}")
        return cls(kind="ball", center=c, radius=r)

    @classmethod
    def box(cls, lower, upper) -> "ConvexDomain":
        lo = _as_vector(lower)
        up = _as_vector(upper, dim=lo.shape[0])
        if np.any(lo > up):
            raise ValueError("box requires lower <= upper coordinatewise")
        return cls(kind="box", lower=lo, upper=up)

    @property
    def dimension(self) -> int:
        if self.kind == "ball":
            return int(self.center.shape[0])
        return int(self.lower.shape[0])

    @property
    def diameter(self) -> float:
        if self.kind == "ball":
            return 2.0 * self.radius
        return float(np.linalg.norm(self.upper - self.lower))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Smallest axis-aligned box containing the domain."""
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        return self.lower, self.upper

    def contains(self, point) -> bool:
        p = _as_vector(point, dim=self.dimension)
        if self.kind == "ball":
            return float(np.linalg.norm(p - self.center)) <= self.radius * (1.0 + MEMBERSHIP_TOL)
        return bool(np.all(p >= self.lower - MEMBERSHIP_TOL)
                    and np.all(p <= self.upper + MEMBERSHIP_TOL))


def project(domain: ConvexDomain, point) -> np.ndarray:
    """Exact Euclidean projection of ``point`` onto ``domain``.

    Interior points are returned unchanged (bitwise), so projection is exactly
    idempotent there; boundary round-off stays within the membership tolerance.
    """
    p = _as_vector(point, dim=domain.dimension)
    if domain.kind == "ball":
        offset = p - domain.center
        dist = float(np.linalg.norm(offset))
        if dist <= domain.radius:
            return p
        return domain.center + offset * (domain.radius / dist)
    return np.clip(p, domain.lower, domain.upper)


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
