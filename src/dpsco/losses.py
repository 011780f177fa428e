"""Per-example convex loss families and synthetic data distributions.

Families carry declared constants (Lipschitz ``L``, smoothness ``beta``,
strong convexity ``lam``) that are valid over a stated domain; the constants
are never enforced by clipping, so the optimized function is exactly the
declared one. Synthetic distributions pair a family with a sampler whose
population minimizer and optimum are closed-form wherever possible, which
makes excess-loss measurements exact.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

import numpy as np

from .geometry import ConvexDomain, DimensionMismatchError, project
from .schedules import _frozen, _real, _vector, _whole

QUADRATIC = "quadratic"
LINEAR_REGRESSION = "linear_regression"
LOGISTIC = "logistic"
ABSOLUTE_DEVIATION = "absolute_deviation"

_PAIR_FAMILIES = (LINEAR_REGRESSION, LOGISTIC, ABSOLUTE_DEVIATION)


@dataclass(frozen=True)
class LossFamily:
    """A family f(w, x) of convex per-example losses with declared constants.

    kind:
        one of ``quadratic`` (f = 0.5 |w - x|^2), ``linear_regression``
        (f = 0.5 (a.w - b)^2), ``logistic`` (f = log(1 + exp(-b a.w))), or
        ``absolute_deviation`` (f = |a.w - b|, non-smooth).
    lipschitz, smoothness, strong_convexity:
        constants valid over the declared domain: L positive and finite,
        beta positive, lambda nonnegative and finite, and lambda <= beta.
        ``smoothness`` is ``math.inf`` for the non-smooth family.
    """

    kind: str
    lipschitz: float
    smoothness: float
    strong_convexity: float

    def __post_init__(self):
        if self.kind not in (QUADRATIC,) + _PAIR_FAMILIES:
            raise ValueError(f"unknown loss family {self.kind!r}")
        _real(self.lipschitz, "lipschitz constant")
        _real(self.smoothness, "smoothness", "positive")
        _real(self.strong_convexity, "strong convexity", "nonnegative and finite")
        if self.strong_convexity > self.smoothness:
            raise ValueError("strong convexity cannot exceed smoothness")

    def grad(self, w: np.ndarray, x) -> np.ndarray:
        """Gradient of one example's loss (subgradient with sign(0) = 0 for
        the non-smooth family); for an (a, b) family ``x`` is the pair (a, b)."""
        w = np.asarray(w, dtype=np.float64)
        if self.kind == QUADRATIC:
            return w - np.asarray(x, dtype=np.float64)
        a = np.asarray(x[0], dtype=np.float64)
        return self.margin_slope(a.dot(w), x[1]) * a

    def batch_grad(self, w: np.ndarray, batch: "Dataset") -> np.ndarray:
        """Arithmetic mean of ``grad`` over a nonempty batch (vectorized)."""
        if len(batch) == 0:
            raise ValueError("batch must be nonempty")
        w = np.asarray(w, dtype=np.float64)
        feats = batch.features
        if feats.shape[1] != w.shape[0]:
            raise DimensionMismatchError(
                f"batch dimension {feats.shape[1]} != iterate dimension {w.shape[0]}"
            )
        if self.kind == QUADRATIC:
            return w - feats.mean(axis=0)
        return feats.T @ self.margin_slope(feats @ w, batch.targets) / len(batch)

    def margin_slope(self, margins, targets):
        """Derivative of an (a, b) family's loss in the margin a.w, so one
        example's gradient is ``margin_slope(a.w, b) * a`` (sign(0) = 0 for the
        non-smooth family). Takes scalars or arrays."""
        if self.kind == LINEAR_REGRESSION:
            return margins - targets
        if self.kind == LOGISTIC:
            z = -targets * margins
            e = np.exp(-np.abs(z))
            return -targets * np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return np.sign(margins - targets)

    def support_defect(self, data: "Dataset", domain: ConvexDomain,
                       eta: float | None = None) -> str | None:
        """Why the declared constants that a privacy claim relies on do not
        hold for a run on ``data`` over ``domain``, or None when they do.
        L must be at least what the data give: the largest per-example
        gradient norm over the domain (|a| for logistic, which it bounds).
        With ``eta``, the largest step the claim needs to be contractive, the
        loss must also be smooth, eta at most 2/beta, and beta at least what
        the features give (max |a|^2 for linear regression, max |a|^2 / 4 for
        logistic; the other families' beta does not depend on the data).
        Each comparison allows a relative 1e-12; a NaN is a defect."""
        beta, slack = self.smoothness, 1.0 + 1e-12
        if eta is not None and not math.isfinite(beta):
            return "the loss is not smooth"
        if eta is not None and eta > 2.0 / beta * slack:
            return f"a step size {eta:.6g} exceeds 2/beta = {2.0 / beta:.6g}"
        if len(data) == 0:
            return None
        X = data.features
        norms = None if self.kind == QUADRATIC else np.einsum("ij,ij->i", X, X)
        if eta is not None and self.kind in (LINEAR_REGRESSION, LOGISTIC):
            got = float(norms.max()) / (4.0 if self.kind == LOGISTIC else 1.0)
            if not got <= beta * slack:
                return f"the data give beta = {got:.6g} > declared beta = {beta:.6g}"
        ball = domain.kind == "ball"  # sup |w - m| = r, or |w_j - m_j| <= h_j
        m, h = (domain.center, domain.radius) if ball else (
            (domain.lower + domain.upper) / 2.0, (domain.upper - domain.lower) / 2.0)
        if self.kind == QUADRATIC and ball:  # |x_i - m| + r; skip the (n, d) temporary at a
            far = X - m if m.any() else X  # zero centre: it slowed a d = 16 sweep round ~15 %
            got = math.sqrt(np.einsum("ij,ij->i", far, far).max()) + h
        elif self.kind == QUADRATIC:  # the farthest corner of each row
            far = np.abs(X - m) + h
            got = math.sqrt(np.einsum("ij,ij->i", far, far).max())
        elif self.kind == LINEAR_REGRESSION:  # |a| (|a.m - b| + sup |a.(w - m)|)
            lengths = np.sqrt(norms)
            gap = np.abs(X @ m - data.targets)
            got = float((lengths * (gap + (h * lengths if ball else np.abs(X) @ h))).max())
        else:  # logistic and absolute deviation: |a|
            got = math.sqrt(norms.max())
        if not got <= self.lipschitz * slack:
            return f"the data give L = {got:.6g} > declared L = {self.lipschitz:.6g}"
        return None


@dataclass(frozen=True)
class Dataset:
    """Immutable list of examples backed by arrays.

    ``features`` is (n, d): the points themselves for the quadratic family,
    the feature vectors ``a`` otherwise. ``targets`` is (n,) for (a, b)
    families and ``None`` for the quadratic one.
    """

    features: np.ndarray
    targets: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.features.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.features.shape[1])

    def subset(self, start: int, stop: int) -> "Dataset":
        t = None if self.targets is None else self.targets[start:stop]
        return Dataset(self.features[start:stop], t)

    def example(self, i: int):
        if self.targets is None:
            return self.features[i]
        return (self.features[i], float(self.targets[i]))

    def replace(self, i: int, example) -> "Dataset":
        feats = self.features.copy()
        if self.targets is None:
            feats[i] = np.asarray(example, dtype=np.float64)
            return Dataset(feats)
        targs = self.targets.copy()
        feats[i] = np.asarray(example[0], dtype=np.float64)
        targs[i] = float(example[1])
        return Dataset(feats, targs)


def _on_sphere(rng, n: int, d: int, radius: float, center=None) -> np.ndarray:
    """n points uniform on the sphere of ``radius`` about ``center`` (0 when
    None) in R^d, scaled and shifted in place: no (n, d) temporary."""
    raw = rng.standard_normal((n, d))
    raw /= np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
    raw *= radius
    if center is not None:
        raw += center
    return raw


@dataclass(frozen=True)
class SyntheticDistribution:
    """A loss family plus a data sampler with known population structure.

    ``sampler`` keys a data family's record in :data:`FAMILIES` (an unknown
    one is refused), and ``params``, a read-only mapping, holds that family's
    fields by name. ``minimizer`` is the closed-form population minimizer over
    the domain; it and the arrays in ``params`` are kept as read-only copies.
    When ``has_closed_form`` is true (every sampler but ``sphere_logistic``),
    ``population_loss`` is exact and ``optimum`` is its value at the
    minimizer; otherwise it is ``None``.
    """

    name: str
    loss: LossFamily
    domain: ConvexDomain
    sampler: str
    params: Mapping[str, Any] = field(default_factory=dict)
    minimizer: np.ndarray | None = None

    def __post_init__(self):
        if self.sampler not in _SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        object.__setattr__(self, "params", MappingProxyType({
            key: _frozen(value) if isinstance(value, np.ndarray) else value
            for key, value in self.params.items()}))
        if self.minimizer is not None:
            object.__setattr__(self, "minimizer", _frozen(self.minimizer))

    def __reduce__(self):
        # copies and unpickled distributions are rebuilt by __post_init__: read-only
        return SyntheticDistribution, (self.name, self.loss, self.domain, self.sampler,
                                       dict(self.params), self.minimizer)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def has_closed_form(self) -> bool:
        return _SAMPLERS[self.sampler].closed_form is not None

    @property
    def optimum(self) -> float | None:
        return self.population_loss(self.minimizer) if self.has_closed_form else None

    def sample_dataset(self, n: int, rng_seed: int) -> Dataset:
        """Draw ``n`` i.i.d. examples; deterministic given the seed."""
        n = _whole(n, 1, "n")
        return _SAMPLERS[self.sampler].draw(np.random.default_rng(rng_seed), n, self.dimension,
                                            *self._values)

    def population_loss(self, w) -> float:
        """Exact population loss F(w); only for closed-form distributions."""
        return sum(self._closed_form(w, self.params[_SAMPLERS[self.sampler].center]))

    def excess_loss(self, w) -> float:
        """F(w) - F*, as g(w) - g(minimizer) of F's w-dependent part g, in difference
        form: F's constant part, or a far centre's square, would swamp it, or overflow."""
        return self._closed_form(w, self.minimizer)[0]

    def _closed_form(self, w, v) -> tuple[float, float]:
        closed_form = _SAMPLERS[self.sampler].closed_form
        if closed_form is None:
            raise ValueError(f"no closed-form population loss for sampler {self.sampler!r}")
        return closed_form(np.asarray(w, np.float64).ravel(), np.ravel(v), self.dimension,
                           *self._values)

    @property
    def _values(self) -> list:
        return [self.params[f.name] for f in _SAMPLERS[self.sampler].fields]


def _sup_distance(domain: ConvexDomain, point: np.ndarray) -> float:
    """max over w in the domain of |w - point|, inf where it overflows (unwarned)."""
    with np.errstate(over="ignore"):
        if domain.kind == "ball":
            return float(np.linalg.norm(domain.center - point)) + domain.radius
        corner = np.maximum(np.abs(domain.lower - point), np.abs(domain.upper - point))
        return float(np.linalg.norm(corner))


# A family's field: its name (in the constructor, ``params`` and a run config),
# whether it is a d-vector, its run-config default (for each coordinate of a
# vector) and the interval of the input rules that its numbers lie in.
_Field = collections.namedtuple("_Field", "name vector default interval",
                                defaults=("positive and finite",))


@dataclass(frozen=True)
class _Family:
    """One synthetic data family: its ``name`` (its constructor's and a run
    config's ``family``), its ``sampler`` key, its fields, the field whose
    projection onto the domain is the population minimizer, and three rules
    that take the family's field values, in order, after their own arguments:
    ``declare(domain, ...)`` is the declared :class:`LossFamily`'s (kind, L,
    beta, lambda), ``draw(rng, n, d, ...)`` gives n i.i.d. examples, and
    ``closed_form(w, v, d, ...)`` is (g(w) - g(v), c) for the exact population
    loss F(w) = g(w) + c, with g = 0 at ``center``'s value, or None where F
    has no closed form. A family with a ``dimension`` has no other."""

    name: str
    sampler: str
    fields: tuple[_Field, ...]
    center: str
    declare: Callable[..., LossFamily]
    draw: Callable[..., Dataset]
    closed_form: Callable[..., tuple[float, float]] | None
    dimension: int | None = None

    def build(self, domain: ConvexDomain, *values) -> SyntheticDistribution:
        """This family over ``domain``, from a value for each field in order,
        taken by ``_vector`` at the domain's dimension or by ``_real``; the
        declared L must have a finite square, as the accountant squares L."""
        if self.dimension not in (None, domain.dimension):
            raise ValueError(f"{self.name} is {self.dimension}-D")
        params = {f.name: _vector(v, f.name, f.interval, domain.dimension) if f.vector
                  else _real(v, f.name, f.interval) for f, v in zip(self.fields, values)}
        kind, L, beta, lam = self.declare(domain, *params.values())
        if not L * L < math.inf:
            raise ValueError(f"{self.name}'s declared L must have a finite square, got {L} "
                             f"from {', '.join(params)}")
        return SyntheticDistribution(self.name, LossFamily(kind, L, beta, lam), domain,
                                     self.sampler, params, project(domain, params[self.center]))


def _half_square_gap(w: np.ndarray, v: np.ndarray, c: np.ndarray) -> float:
    """0.5 |w - c|^2 - 0.5 |v - c|^2, with no square of a far c to cancel."""
    return 0.5 * float(np.sum((w - v) * ((w - c) + (v - c))))


def _deviation_loss(w, v, d: int, m: float, h: float) -> tuple[float, float]:
    # E|w - b| for b ~ U[m - h, m + h] (1-D, unit feature) is phi(|w - m|) + h / 2, where
    # phi(t) = t^2 / (2h) for t <= h and t - h / 2 beyond. phi(t) - phi(s) is (t^2 - s^2)
    # over 2h or t + s where t and s = |v - m| lie on one side of h, else phi(t) - phi(h)
    # less phi(s) - phi(h): terms of opposite signs, which do not cancel
    w, v = float(w[0]), float(v[0])
    t, s = abs(w - m), abs(v - m)
    if (t <= h) != (s <= h):
        past = [(x - h) * ((x + h) / (2.0 * h)) if x <= h else x - h for x in (t, s)]
        return past[0] - past[1], h / 2.0
    return (w - v) * (((w - m) + (v - m)) / (2.0 * h if t <= h else t + s)), h / 2.0


def _draw_regression(rng, n: int, d: int, r: float, w_true, s: float) -> Dataset:
    a = _on_sphere(rng, n, d, r)
    return Dataset(a, a @ w_true + rng.uniform(-s, s, size=n))


def _draw_logistic(rng, n: int, d: int, r: float, w_ref) -> Dataset:
    a = _on_sphere(rng, n, d, r)
    prob = 1.0 / (1.0 + np.exp(-(a @ w_ref)))
    return Dataset(a, np.where(rng.uniform(size=n) < prob, 1.0, -1.0))


# Each data family's record, by name. Linear regression's closed form uses
# E[a a^T] = (r^2 / d) I on the sphere and the noise's variance s^2 / 3.
FAMILIES = {family.name: family for family in (
    _Family("quadratic_point_mass", "point_mass",
            (_Field("center", True, 0.0, "finite"),), "center",
            lambda domain, c: (QUADRATIC, max(_sup_distance(domain, c), 1e-12), 1.0, 1.0),
            lambda rng, n, d, c: Dataset(np.tile(c, (n, 1))),
            lambda w, v, d, c: (_half_square_gap(w, v, c), 0.0)),
    _Family("quadratic_sphere", "sphere",
            (_Field("center", True, 0.0, "finite"), _Field("data_radius", False, 1.0)), "center",
            lambda domain, c, r: (QUADRATIC, _sup_distance(domain, c) + r, 1.0, 1.0),
            lambda rng, n, d, c, r: Dataset(_on_sphere(rng, n, d, r, c)),
            lambda w, v, d, c, r: (_half_square_gap(w, v, c), 0.5 * r * r)),
    _Family("absolute_deviation_uniform", "uniform_targets",
            (_Field("median", False, 0.0, "finite"), _Field("half_width", False, 1.0)), "median",
            lambda domain, m, h: (ABSOLUTE_DEVIATION, 1.0, math.inf, 0.0),
            lambda rng, n, d, m, h: Dataset(np.ones((n, 1)), rng.uniform(m - h, m + h, size=n)),
            _deviation_loss, dimension=1),
    _Family("linear_regression_sphere", "sphere_regression",
            (_Field("feature_radius", False, 1.0), _Field("w_true", True, 0.0, "finite"),
             _Field("noise_half_width", False, 0.0, "nonnegative and finite")), "w_true",
            lambda domain, r, w_true, s: (
                LINEAR_REGRESSION, r * (r * _sup_distance(domain, w_true) + s), r * r, 0.0),
            _draw_regression,
            lambda w, v, d, r, c, s: (r * r / d * _half_square_gap(w, v, c), s * s / 6.0)),
    _Family("logistic_sphere", "sphere_logistic",
            (_Field("feature_radius", False, 1.0), _Field("w_ref", True, 0.0, "finite")), "w_ref",
            lambda domain, r, w_ref: (LOGISTIC, r, r * r / 4.0, 0.0),
            _draw_logistic, None),
)}
_SAMPLERS = {family.sampler: family for family in FAMILIES.values()}


def quadratic_point_mass(domain: ConvexDomain, center) -> SyntheticDistribution:
    """Quadratic loss with all mass at one point; F* = 0 when the point is feasible."""
    return FAMILIES["quadratic_point_mass"].build(domain, center)


def quadratic_sphere(domain: ConvexDomain, center, data_radius: float) -> SyntheticDistribution:
    """Quadratic loss, data uniform on a sphere: F(w) = 0.5 |w - mu|^2 + r^2 / 2.

    The canonical closed-form test family: L = sup |w - mu| + r over the
    domain, beta = lam = 1.
    """
    return FAMILIES["quadratic_sphere"].build(domain, center, data_radius)


def absolute_deviation_uniform(
    domain: ConvexDomain, median: float, half_width: float
) -> SyntheticDistribution:
    """1-D absolute deviation |w - b| with b ~ U[median +- half_width].

    F(w) = ((w - m)^2 + h^2) / (2h) inside the data range, |w - m| outside;
    F* = h / 2 at the population median. Exercises the non-smooth path.
    """
    return FAMILIES["absolute_deviation_uniform"].build(domain, median, half_width)


def linear_regression_sphere(
    domain: ConvexDomain, feature_radius: float, w_true, noise_half_width: float
) -> SyntheticDistribution:
    """Least squares with spherical features and uniform label noise."""
    return FAMILIES["linear_regression_sphere"].build(domain, feature_radius, w_true,
                                                      noise_half_width)


def logistic_sphere(domain: ConvexDomain, feature_radius: float, w_ref) -> SyntheticDistribution:
    """Logistic loss with spherical features and labels from the logistic model.

    The population minimizer is ``w_ref`` (when feasible); the optimum has no
    closed form, so this family is for probes rather than exact sweeps.
    """
    return FAMILIES["logistic_sphere"].build(domain, feature_radius, w_ref)
