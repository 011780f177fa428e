"""Per-example convex loss families and synthetic data distributions.

Families carry declared constants (Lipschitz ``L``, smoothness ``beta``,
strong convexity ``lam``) that are valid over a stated domain; the constants
are never enforced by clipping, so the optimized function is exactly the
declared one. Synthetic distributions pair a family with a sampler whose
population minimizer and optimum are closed-form wherever possible, which
makes excess-loss measurements exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

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
        constants valid over the declared domain: L and beta positive,
        lambda nonnegative and finite, and lambda <= beta. ``smoothness`` is
        ``math.inf`` for the non-smooth family; ``lipschitz`` may be
        ``math.inf`` for unbounded-data samplers.
    """

    kind: str
    lipschitz: float
    smoothness: float
    strong_convexity: float

    def __post_init__(self):
        if self.kind not in (QUADRATIC,) + _PAIR_FAMILIES:
            raise ValueError(f"unknown loss family {self.kind!r}")
        _real(self.lipschitz, "lipschitz constant", "positive")
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


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """Scale each row of ``raw`` to unit norm in place, without an (n, d)
    temporary."""
    raw /= np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
    return raw


@dataclass(frozen=True)
class SyntheticDistribution:
    """A loss family plus a data sampler with known population structure.

    ``minimizer`` is the closed-form population minimizer over the domain.
    The distribution keeps read-only copies of it and of the arrays in
    ``params``. When ``has_closed_form`` is true (every sampler but the
    logistic one), ``population_loss`` evaluates the exact population loss
    and ``optimum`` is its value at the minimizer; otherwise it is ``None``.
    """

    name: str
    loss: LossFamily
    domain: ConvexDomain
    sampler: str
    params: dict[str, Any] = field(default_factory=dict)
    minimizer: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "params", {key: _frozen(value) if isinstance(value, np.ndarray)
                                            else value for key, value in self.params.items()})
        if self.minimizer is not None:
            object.__setattr__(self, "minimizer", _frozen(self.minimizer))

    def __reduce__(self):
        # copies and unpickled distributions are rebuilt by __post_init__: read-only
        return SyntheticDistribution, (self.name, self.loss, self.domain, self.sampler,
                                       self.params, self.minimizer)

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def has_closed_form(self) -> bool:
        return self.sampler != "sphere_logistic"

    @property
    def optimum(self) -> float | None:
        return self.population_loss(self.minimizer) if self.has_closed_form else None

    def sample_dataset(self, n: int, rng_seed: int) -> Dataset:
        """Draw ``n`` i.i.d. examples; deterministic given the seed."""
        n = _whole(n, 1, "n")
        rng = np.random.default_rng(rng_seed)
        d = self.dimension
        p = self.params
        if self.sampler == "point_mass":
            return Dataset(np.tile(p["center"], (n, 1)))
        if self.sampler == "sphere":
            raw = _unit_rows(rng.standard_normal((n, d)))
            raw *= p["radius"]
            raw += p["center"]
            return Dataset(raw)
        if self.sampler == "gaussian":
            return Dataset(p["mean"] + p["sigma"] * rng.standard_normal((n, d)))
        if self.sampler == "uniform_targets":
            # fixed feature a = e1-scaled, b uniform around the median
            feats = np.tile(p["feature"], (n, 1))
            b = rng.uniform(p["median"] - p["half_width"], p["median"] + p["half_width"], size=n)
            return Dataset(feats, b)
        if self.sampler == "sphere_regression":
            a = _unit_rows(rng.standard_normal((n, d)))
            a *= p["feature_radius"]
            noise = rng.uniform(-p["noise_half_width"], p["noise_half_width"], size=n)
            return Dataset(a, a @ p["w_true"] + noise)
        if self.sampler == "sphere_logistic":
            a = _unit_rows(rng.standard_normal((n, d)))
            a *= p["feature_radius"]
            prob = 1.0 / (1.0 + np.exp(-(a @ p["w_ref"])))
            b = np.where(rng.uniform(size=n) < prob, 1.0, -1.0)
            return Dataset(a, b)
        raise ValueError(f"unknown sampler {self.sampler!r}")

    def population_loss(self, w) -> float:
        """Exact population loss F(w); only for closed-form distributions."""
        w = np.asarray(w, dtype=np.float64).reshape(-1)
        p = self.params
        if self.sampler == "point_mass":
            return 0.5 * float(np.sum((w - p["center"]) ** 2))
        if self.sampler == "sphere":
            return 0.5 * float(np.sum((w - p["center"]) ** 2)) + 0.5 * p["radius"] ** 2
        if self.sampler == "gaussian":
            return 0.5 * float(np.sum((w - p["mean"]) ** 2)) + 0.5 * self.dimension * p["sigma"] ** 2
        if self.sampler == "uniform_targets":
            # E|w - b| for b ~ U[m - h, m + h] (1-D, unit feature)
            m, h = p["median"], p["half_width"]
            t = float(w[0]) - m
            if abs(t) <= h:
                return (t * t + h * h) / (2.0 * h)
            return abs(t)
        if self.sampler == "sphere_regression":
            # E[a a^T] = (r^2 / d) I on the sphere
            r, s = p["feature_radius"], p["noise_half_width"]
            diff = w - p["w_true"]
            return (r * r / (2.0 * self.dimension)) * float(np.dot(diff, diff)) + s * s / 6.0
        raise ValueError(f"no closed-form population loss for sampler {self.sampler!r}")

    def excess_loss(self, w) -> float:
        return self.population_loss(w) - self.optimum  # population_loss refuses logistic


def _sup_distance(domain: ConvexDomain, point: np.ndarray) -> float:
    """max over w in the domain of |w - point|."""
    if domain.kind == "ball":
        return float(np.linalg.norm(domain.center - point)) + domain.radius
    corner = np.maximum(np.abs(domain.lower - point), np.abs(domain.upper - point))
    return float(np.linalg.norm(corner))


def quadratic_point_mass(domain: ConvexDomain, center) -> SyntheticDistribution:
    """Quadratic loss with all mass at one point; F* = 0 when the point is feasible."""
    c = _vector(center, "center", dim=domain.dimension)
    loss = LossFamily(QUADRATIC, lipschitz=max(_sup_distance(domain, c), 1e-12),
                      smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_point_mass", loss=loss, domain=domain, sampler="point_mass",
        params={"center": c}, minimizer=project(domain, c),
    )


def quadratic_sphere(domain: ConvexDomain, center, data_radius: float) -> SyntheticDistribution:
    """Quadratic loss, data uniform on a sphere: F(w) = 0.5 |w - mu|^2 + r^2 / 2.

    The canonical closed-form test family: L = sup |w - mu| + r over the
    domain, beta = lam = 1.
    """
    mu = _vector(center, "center", dim=domain.dimension)
    r = _real(data_radius, "data_radius")
    loss = LossFamily(QUADRATIC, lipschitz=_sup_distance(domain, mu) + r,
                      smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_sphere", loss=loss, domain=domain, sampler="sphere",
        params={"center": mu, "radius": r}, minimizer=project(domain, mu),
    )


def quadratic_gaussian(domain: ConvexDomain, mean, sigma: float) -> SyntheticDistribution:
    """Quadratic loss with Gaussian data; gradients are unbounded, so L = inf."""
    mu, s = _vector(mean, "mean", dim=domain.dimension), _real(sigma, "sigma")
    loss = LossFamily(QUADRATIC, lipschitz=math.inf, smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_gaussian", loss=loss, domain=domain, sampler="gaussian",
        params={"mean": mu, "sigma": s}, minimizer=project(domain, mu),
    )


def absolute_deviation_uniform(
    domain: ConvexDomain, median: float, half_width: float
) -> SyntheticDistribution:
    """1-D absolute deviation |w - b| with b ~ U[median +- half_width].

    F(w) = ((w - m)^2 + h^2) / (2h) inside the data range, |w - m| outside;
    F* = h / 2 at the population median. Exercises the non-smooth path.
    """
    if domain.dimension != 1:
        raise ValueError("absolute_deviation_uniform is 1-D")
    h, m = _real(half_width, "half_width"), _real(median, "median", "finite")
    loss = LossFamily(ABSOLUTE_DEVIATION, lipschitz=1.0, smoothness=math.inf,
                      strong_convexity=0.0)
    return SyntheticDistribution(
        name="absolute_deviation_uniform", loss=loss, domain=domain,
        sampler="uniform_targets",
        params={"feature": np.array([1.0]), "median": m, "half_width": h},
        minimizer=project(domain, np.array([m])),
    )


def linear_regression_sphere(
    domain: ConvexDomain, feature_radius: float, w_true, noise_half_width: float
) -> SyntheticDistribution:
    """Least squares with spherical features and uniform label noise."""
    wt = _vector(w_true, "w_true", dim=domain.dimension)
    r = _real(feature_radius, "feature_radius")
    s = _real(noise_half_width, "noise_half_width", "nonnegative and finite")
    sup_w = _sup_distance(domain, wt)
    loss = LossFamily(LINEAR_REGRESSION, lipschitz=r * (r * sup_w + s),
                      smoothness=r * r, strong_convexity=0.0)
    return SyntheticDistribution(
        name="linear_regression_sphere", loss=loss, domain=domain,
        sampler="sphere_regression",
        params={"feature_radius": r, "w_true": wt, "noise_half_width": s},
        minimizer=project(domain, wt),
    )


def logistic_sphere(domain: ConvexDomain, feature_radius: float, w_ref) -> SyntheticDistribution:
    """Logistic loss with spherical features and labels from the logistic model.

    The population minimizer is ``w_ref`` (when feasible); the optimum has no
    closed form, so this family is for probes rather than exact sweeps.
    """
    wr = _vector(w_ref, "w_ref", dim=domain.dimension)
    r = _real(feature_radius, "feature_radius")
    loss = LossFamily(LOGISTIC, lipschitz=r, smoothness=r * r / 4.0, strong_convexity=0.0)
    return SyntheticDistribution(
        name="logistic_sphere", loss=loss, domain=domain, sampler="sphere_logistic",
        params={"feature_radius": r, "w_ref": wr},
        minimizer=project(domain, wr),
    )
