"""Convex feasible sets and their exact Euclidean projections.

Only Euclidean balls and axis-aligned boxes are supported: both admit exact
closed-form projections, which keeps every downstream privacy argument free of
projection error. All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import DimensionMismatchError, _frozen, _real, _vector

# Membership is checked to 1e-12 (absolute per coordinate for boxes, relative
# in norm for balls). Double precision throughout.
MEMBERSHIP_TOL = 1e-12


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.shape != (dim,):
        raise DimensionMismatchError(f"expected dimension {dim}, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class ConvexDomain:
    """A Euclidean ball or an axis-aligned box in R^d.

    Construct via :meth:`ball` or :meth:`box`; both take their vectors through
    :func:`dpsco.schedules._vector`, so they refuse a NaN, infinite or empty
    bound. The domain keeps read-only copies of its vectors. ``diameter`` is
    the Euclidean diameter: ``2 * radius`` for balls, ``norm(upper - lower)``
    for boxes.
    """

    kind: str
    center: np.ndarray | None = None
    radius: float | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        for name in ("center", "lower", "upper"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __reduce__(self):
        # copies and unpickled domains are rebuilt by __post_init__: read-only
        return ConvexDomain, (self.kind, self.center, self.radius, self.lower, self.upper)

    @classmethod
    def ball(cls, center, radius: float) -> "ConvexDomain":
        c, r = _vector(center, "ball center"), _real(radius, "ball radius")
        # a norm squares its entries, so the radius must square to a finite number
        if not r * r < math.inf:
            raise ValueError(f"ball radius must have a finite square, got {r}")
        return cls(kind="ball", center=c, radius=r)

    @classmethod
    def box(cls, lower, upper) -> "ConvexDomain":
        lo = _vector(lower, "box lower")
        up = _vector(upper, "box upper", dim=lo.shape[0])
        if not np.all(lo <= up):
            raise ValueError("box lower must be <= upper coordinatewise")
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
    A float64 vector inside a ball comes back as the same array, not a copy.
    A point that is not finite is refused on a ball, and a NaN one on a box.
    """
    p = _as_vector(point, dim=domain.dimension)
    if domain.kind == "ball":
        offset = p - domain.center
        # the norm's own dot product, without its overflow warning
        dist = math.sqrt(np.vdot(offset, offset))
        if dist <= domain.radius:
            return p
        if not dist < math.inf:  # the squares overflowed, or NaN: scale first
            top = float(np.abs(offset).max())
            if not top < math.inf:
                raise ValueError("cannot project a point that is not finite onto a ball")
            dist = top * float(np.linalg.norm(offset / top))
        return domain.center + offset * (domain.radius / dist)
    clipped = np.clip(p, domain.lower, domain.upper)
    if np.isnan(clipped).any():
        raise ValueError("cannot project a point that is not finite onto a box")
    return clipped
