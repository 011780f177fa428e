"""Per-example convex loss families and synthetic data distributions.

Families carry declared constants (Lipschitz ``L``, smoothness ``beta``,
strong convexity ``lam``) that are valid over a stated domain; the constants
are never enforced by clipping, so the optimized function is exactly the
declared one. Synthetic distributions pair a family with a sampler whose
population minimizer and optimum are closed-form wherever possible, which
makes excess-loss measurements exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .geometry import ConvexDomain, DimensionMismatchError, project

QUADRATIC = "quadratic"
LINEAR_REGRESSION = "linear_regression"
LOGISTIC = "logistic"
ABSOLUTE_DEVIATION = "absolute_deviation"

_PAIR_FAMILIES = (LINEAR_REGRESSION, LOGISTIC, ABSOLUTE_DEVIATION)


def _sigmoid(z: float) -> float:
    # Stable on both tails.
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


@dataclass(frozen=True)
class LossFamily:
    """A family f(w, x) of convex per-example losses with declared constants.

    kind:
        one of ``quadratic`` (f = 0.5 |w - x|^2), ``linear_regression``
        (f = 0.5 (a.w - b)^2), ``logistic`` (f = log(1 + exp(-b a.w))), or
        ``absolute_deviation`` (f = |a.w - b|, non-smooth).
    lipschitz, smoothness, strong_convexity:
        constants valid over the declared domain; ``smoothness`` is
        ``math.inf`` for the non-smooth family. ``lipschitz`` may be
        ``math.inf`` for unbounded-data samplers.
    """

    kind: str
    lipschitz: float
    smoothness: float
    strong_convexity: float

    def __post_init__(self):
        if self.kind not in (QUADRATIC,) + _PAIR_FAMILIES:
            raise ValueError(f"unknown loss family {self.kind!r}")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz constant must be positive")
        if self.smoothness < 0 or self.strong_convexity < 0:
            raise ValueError("smoothness and strong convexity must be nonnegative")
        if math.isfinite(self.smoothness) and self.strong_convexity > self.smoothness:
            raise ValueError("strong convexity cannot exceed smoothness")

    # Single-example oracle. For pair families ``x`` is a tuple (a, b).
    def value(self, w: np.ndarray, x) -> float:
        w = np.asarray(w, dtype=np.float64)
        if self.kind == QUADRATIC:
            p = self._check_point(w, x)
            return 0.5 * float(np.dot(w - p, w - p))
        a, b = self._check_pair(w, x)
        margin = float(np.dot(a, w))
        if self.kind == LINEAR_REGRESSION:
            return 0.5 * (margin - b) ** 2
        if self.kind == LOGISTIC:
            # log(1 + exp(-b * margin)), stable
            z = -b * margin
            return float(np.logaddexp(0.0, z))
        return abs(margin - b)

    def grad(self, w: np.ndarray, x) -> np.ndarray:
        """Gradient (subgradient for the non-smooth family, with sign(0) = 0)."""
        w = np.asarray(w, dtype=np.float64)
        if self.kind == QUADRATIC:
            p = self._check_point(w, x)
            return w - p
        a, b = self._check_pair(w, x)
        margin = float(np.dot(a, w))
        if self.kind == LINEAR_REGRESSION:
            return (margin - b) * a
        if self.kind == LOGISTIC:
            return -b * _sigmoid(-b * margin) * a
        return math.copysign(1.0, margin - b) * a if margin != b else 0.0 * a

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

    def smoothness_defect(self, data: "Dataset") -> str | None:
        """Why the declared ``smoothness`` does not hold on ``data``, or None
        when it does. An (a, b) family's beta depends on the features: the
        data give max |a|^2 for linear regression and max |a|^2 / 4 for
        logistic, and one above the declared beta by more than a relative
        1e-12 (or NaN) is a defect. The other families' beta does not depend
        on the data."""
        if self.kind not in (LINEAR_REGRESSION, LOGISTIC) or len(data) == 0:
            return None
        feats = data.features
        beta = float(np.einsum("ij,ij->i", feats, feats).max())
        if self.kind == LOGISTIC:
            beta /= 4.0
        if beta <= self.smoothness * (1.0 + 1e-12):
            return None
        return f"the data give beta = {beta:.6g} > declared beta = {self.smoothness:.6g}"

    def batch_value(self, w: np.ndarray, batch: "Dataset") -> float:
        if len(batch) == 0:
            raise ValueError("batch must be nonempty")
        w = np.asarray(w, dtype=np.float64)
        feats = batch.features
        if self.kind == QUADRATIC:
            diffs = w[None, :] - feats
            return 0.5 * float(np.mean(np.sum(diffs * diffs, axis=1)))
        margins = feats @ w
        if self.kind == LINEAR_REGRESSION:
            return 0.5 * float(np.mean((margins - batch.targets) ** 2))
        if self.kind == LOGISTIC:
            return float(np.mean(np.logaddexp(0.0, -batch.targets * margins)))
        return float(np.mean(np.abs(margins - batch.targets)))

    def _check_point(self, w, x) -> np.ndarray:
        p = np.asarray(x, dtype=np.float64).reshape(-1)
        if p.shape != w.shape:
            raise DimensionMismatchError(f"example shape {p.shape} != iterate {w.shape}")
        return p

    def _check_pair(self, w, x):
        a = np.asarray(x[0], dtype=np.float64).reshape(-1)
        if a.shape != w.shape:
            raise DimensionMismatchError(f"feature shape {a.shape} != iterate {w.shape}")
        return a, float(x[1])


def grad(loss: LossFamily, w, x) -> np.ndarray:
    return loss.grad(np.asarray(w, dtype=np.float64), x)


def batch_grad(loss: LossFamily, w, batch: "Dataset") -> np.ndarray:
    return loss.batch_grad(np.asarray(w, dtype=np.float64), batch)


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


def dataset_to_csv(dataset: Dataset, path) -> None:
    """One example per row: x1..xd, or a1..ad,b for (a, b) families."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        d = dataset.dimension
        if dataset.targets is None:
            writer.writerow([f"x{j + 1}" for j in range(d)])
            for row in dataset.features:
                writer.writerow([repr(float(v)) for v in row])
        else:
            writer.writerow([f"a{j + 1}" for j in range(d)] + ["b"])
            for row, b in zip(dataset.features, dataset.targets):
                writer.writerow([repr(float(v)) for v in row] + [repr(float(b))])


def dataset_from_csv(path) -> Dataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    arr = np.asarray(rows, dtype=np.float64)
    if header[-1] == "b":
        return Dataset(arr[:, :-1], arr[:, -1])
    return Dataset(arr)


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """Scale each row of ``raw`` to unit norm in place, without an (n, d)
    temporary."""
    raw /= np.sqrt(np.einsum("ij,ij->i", raw, raw))[:, None]
    return raw


@dataclass(frozen=True)
class SyntheticDistribution:
    """A loss family plus a data sampler with known population structure.

    ``minimizer`` / ``optimum`` are the closed-form population minimizer over
    the domain and its loss value, or ``None`` when only numeric estimation is
    available. ``population_loss`` evaluates the exact population loss when
    ``has_closed_form`` is true.
    """

    name: str
    loss: LossFamily
    domain: ConvexDomain
    sampler: str
    params: dict[str, Any] = field(default_factory=dict)
    minimizer: np.ndarray | None = None
    optimum: float | None = None

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def has_closed_form(self) -> bool:
        return self.optimum is not None

    def sample_dataset(self, n: int, rng_seed: int) -> Dataset:
        """Draw ``n`` i.i.d. examples; deterministic given the seed."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
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
        if not self.has_closed_form:
            raise ValueError(f"{self.name} has no closed-form optimum")
        return self.population_loss(w) - self.optimum


def population_loss_estimate(
    dist: SyntheticDistribution, w, num_mc: int, rng_seed: int
) -> dict[str, float]:
    """Monte-Carlo estimate of F(w) with its standard error.

    The quadratic family under a Gaussian sampler admits the exact value
    0.5 |w - mu|^2 + 0.5 trace(Sigma); that closed form is returned with
    ``std_err`` 0 instead of sampling.
    """
    if num_mc < 2:
        raise ValueError(f"num_mc must be >= 2, got {num_mc}")
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if dist.loss.kind == QUADRATIC and dist.sampler == "gaussian":
        return {"mean": dist.population_loss(w), "std_err": 0.0}
    data = dist.sample_dataset(num_mc, rng_seed)
    if dist.loss.kind == QUADRATIC:
        diffs = w[None, :] - data.features
        values = 0.5 * np.sum(diffs * diffs, axis=1)
    else:
        margins = data.features @ w
        if dist.loss.kind == LINEAR_REGRESSION:
            values = 0.5 * (margins - data.targets) ** 2
        elif dist.loss.kind == LOGISTIC:
            values = np.logaddexp(0.0, -data.targets * margins)
        else:
            values = np.abs(margins - data.targets)
    return {
        "mean": float(np.mean(values)),
        "std_err": float(np.std(values, ddof=1) / math.sqrt(num_mc)),
    }


def sample_dataset(dist: SyntheticDistribution, n: int, rng_seed: int) -> Dataset:
    return dist.sample_dataset(n, rng_seed)


def _sup_distance(domain: ConvexDomain, point: np.ndarray) -> float:
    """max over w in the domain of |w - point|."""
    if domain.kind == "ball":
        return float(np.linalg.norm(domain.center - point)) + domain.radius
    corner = np.maximum(np.abs(domain.lower - point), np.abs(domain.upper - point))
    return float(np.linalg.norm(corner))


def quadratic_point_mass(domain: ConvexDomain, center) -> SyntheticDistribution:
    """Quadratic loss with all mass at one point; F* = 0 when the point is feasible."""
    c = np.asarray(center, dtype=np.float64).reshape(-1)
    w_star = project(domain, c)
    loss = LossFamily(QUADRATIC, lipschitz=max(_sup_distance(domain, c), 1e-12),
                      smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_point_mass", loss=loss, domain=domain, sampler="point_mass",
        params={"center": c}, minimizer=w_star,
        optimum=0.5 * float(np.sum((w_star - c) ** 2)),
    )


def quadratic_sphere(domain: ConvexDomain, center, data_radius: float) -> SyntheticDistribution:
    """Quadratic loss, data uniform on a sphere: F(w) = 0.5 |w - mu|^2 + r^2 / 2.

    The canonical closed-form test family: L = sup |w - mu| + r over the
    domain, beta = lam = 1.
    """
    mu = np.asarray(center, dtype=np.float64).reshape(-1)
    r = float(data_radius)
    if r <= 0:
        raise ValueError("data_radius must be positive")
    w_star = project(domain, mu)
    loss = LossFamily(QUADRATIC, lipschitz=_sup_distance(domain, mu) + r,
                      smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_sphere", loss=loss, domain=domain, sampler="sphere",
        params={"center": mu, "radius": r}, minimizer=w_star,
        optimum=0.5 * float(np.sum((w_star - mu) ** 2)) + 0.5 * r * r,
    )


def quadratic_gaussian(domain: ConvexDomain, mean, sigma: float) -> SyntheticDistribution:
    """Quadratic loss with Gaussian data; gradients are unbounded, so L = inf."""
    mu = np.asarray(mean, dtype=np.float64).reshape(-1)
    s = float(sigma)
    if s <= 0:
        raise ValueError("sigma must be positive")
    w_star = project(domain, mu)
    loss = LossFamily(QUADRATIC, lipschitz=math.inf, smoothness=1.0, strong_convexity=1.0)
    return SyntheticDistribution(
        name="quadratic_gaussian", loss=loss, domain=domain, sampler="gaussian",
        params={"mean": mu, "sigma": s}, minimizer=w_star,
        optimum=0.5 * float(np.sum((w_star - mu) ** 2)) + 0.5 * domain.dimension * s * s,
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
    h = float(half_width)
    if h <= 0:
        raise ValueError("half_width must be positive")
    m = float(median)
    w_star = project(domain, np.array([m]))
    loss = LossFamily(ABSOLUTE_DEVIATION, lipschitz=1.0, smoothness=math.inf,
                      strong_convexity=0.0)
    # F* = h / 2 exactly when the population median is feasible
    t = abs(float(w_star[0]) - m)
    optimum = h / 2.0 if t == 0.0 else ((t * t + h * h) / (2.0 * h) if t <= h else t)
    return SyntheticDistribution(
        name="absolute_deviation_uniform", loss=loss, domain=domain,
        sampler="uniform_targets",
        params={"feature": np.array([1.0]), "median": m, "half_width": h},
        minimizer=w_star, optimum=optimum,
    )


def linear_regression_sphere(
    domain: ConvexDomain, feature_radius: float, w_true, noise_half_width: float
) -> SyntheticDistribution:
    """Least squares with spherical features and uniform label noise."""
    wt = np.asarray(w_true, dtype=np.float64).reshape(-1)
    r, s = float(feature_radius), float(noise_half_width)
    if r <= 0 or s < 0:
        raise ValueError("feature_radius must be positive, noise_half_width nonnegative")
    sup_w = _sup_distance(domain, wt)
    loss = LossFamily(LINEAR_REGRESSION, lipschitz=r * (r * sup_w + s),
                      smoothness=r * r, strong_convexity=0.0)
    w_star = project(domain, wt)
    d = domain.dimension
    return SyntheticDistribution(
        name="linear_regression_sphere", loss=loss, domain=domain,
        sampler="sphere_regression",
        params={"feature_radius": r, "w_true": wt, "noise_half_width": s},
        minimizer=w_star,
        optimum=(r * r / (2.0 * d)) * float(np.sum((w_star - wt) ** 2)) + s * s / 6.0,
    )


def logistic_sphere(domain: ConvexDomain, feature_radius: float, w_ref) -> SyntheticDistribution:
    """Logistic loss with spherical features and labels from the logistic model.

    The population minimizer is ``w_ref`` (when feasible); the optimum has no
    closed form, so this family is for probes rather than exact sweeps.
    """
    wr = np.asarray(w_ref, dtype=np.float64).reshape(-1)
    r = float(feature_radius)
    if r <= 0:
        raise ValueError("feature_radius must be positive")
    loss = LossFamily(LOGISTIC, lipschitz=r, smoothness=r * r / 4.0, strong_convexity=0.0)
    return SyntheticDistribution(
        name="logistic_sphere", loss=loss, domain=domain, sampler="sphere_logistic",
        params={"feature_radius": r, "w_ref": wr},
        minimizer=project(domain, wr), optimum=None,
    )
