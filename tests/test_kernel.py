"""The one-pass SGD kernel against the per-step loops it replaced.

The four oracle loops below are the loops of dpsco 0.1.0's ``pnsgd``,
``psgd``, ``_psgd_average`` (the inner pass of ``phased_sgd``) and
``sc_weighted_sgd``, kept verbatim. Every public algorithm must match them to
1e-12 per coordinate for all four loss families, ball and box domains, mixed
sigma = 0 steps, noise streams that start off a block boundary, and schedules
whose steps and batches straddle the kernel's 256-step chunks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco.geometry import ConvexDomain, project
from dpsco.losses import (
    ABSOLUTE_DEVIATION,
    Dataset,
    LossFamily,
    linear_regression_sphere,
    logistic_sphere,
    quadratic_sphere,
)
from dpsco.optimizers import NoiseStream, phased_sgd, pnsgd, psgd, sc_weighted_sgd
from dpsco.schedules import Schedule, phase_plan, sc_weights

TOL = 1e-12


def oracle_pnsgd(data, loss, domain, w, schedule, noise):
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
    return w


def oracle_psgd(data, loss, domain, w, steps):
    total = np.zeros_like(w)
    for t, eta in enumerate(steps):
        w = project(domain, w - eta * loss.grad(w, data.example(t)))
        total += w
    avg = total / len(steps)
    return w, avg


def oracle_psgd_average(loss, domain, data, w, eta):
    total = np.zeros_like(w)
    for t in range(len(data)):
        w = project(domain, w - eta * loss.grad(w, data.example(t)))
        total += w
    return total / len(data), w


def oracle_sc_weighted(data, loss, domain, w, T, eta, noise_scale, noise, gamma):
    d = domain.dimension
    weighted = np.zeros_like(w)
    for t in range(T):
        g = loss.grad(w, data.example(t))
        if noise_scale > 0.0:
            g = g + noise_scale * noise.gaussian(d)
        w = project(domain, w - eta * g)
        weighted += gamma[t] * w
    weighted /= float(np.sum(gamma))
    return w, weighted


def oracle_phased_sgd(data, loss, domain, w, eta, rho, noise):
    """phased_sgd's phase loop around the verbatim inner pass."""
    d, L = domain.dimension, loss.lipschitz
    offset = 0
    for ni, eta_i in phase_plan(len(data), eta, mode="geometric"):
        avg, _ = oracle_psgd_average(loss, domain, data.subset(offset, offset + ni), w, eta_i)
        offset += ni
        w = project(domain, avg + 4.0 * L * eta_i / rho * noise.gaussian(d))
    return w


D = 5


def _domains():
    return {
        "ball": ConvexDomain.ball(np.zeros(D), 1.0),
        "shifted_ball": ConvexDomain.ball(np.full(D, 0.2), 0.7),
        "box": ConvexDomain.box(np.full(D, -0.3), np.full(D, 0.4)),
    }


def _family(name, domain):
    """(loss, dataset sampler) for one of the four families over ``domain``."""
    if name == "quadratic":
        dist = quadratic_sphere(domain, np.full(D, 0.5), 1.5)
    elif name == "linear_regression":
        dist = linear_regression_sphere(domain, 1.0, np.full(D, 0.3), 0.2)
    elif name == "logistic":
        dist = logistic_sphere(domain, 2.0, np.full(D, 0.5))
    else:
        loss = LossFamily(ABSOLUTE_DEVIATION, lipschitz=1.0, smoothness=math.inf,
                          strong_convexity=0.0)

        def sample(n, seed):
            rng = np.random.default_rng(seed)
            return Dataset(rng.standard_normal((n, D)), rng.standard_normal(n))

        return loss, sample
    return dist.loss, dist.sample_dataset


FAMILIES = ("quadratic", "linear_regression", "logistic", "absolute_deviation")
DOMAINS = ("ball", "shifted_ball", "box")
W0 = np.array([0.1, -0.2, 0.05, 0.3, -0.1])


def _mixed_schedule(T, beta, seed):
    """Batches of 1..6, steps below 2/beta, and every fourth step noiseless."""
    rng = np.random.default_rng(seed)
    cap = 0.5 if not math.isfinite(beta) else min(0.5, 1.9 / beta)
    sigma = rng.uniform(0.1, 1.0, T)
    sigma[::4] = 0.0
    return Schedule(rng.integers(1, 7, T), rng.uniform(0.0, cap, T), sigma)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain_name", DOMAINS)
def test_pnsgd_matches_oracle(family, domain_name):
    domain = _domains()[domain_name]
    loss, sample = _family(family, domain)
    sched = _mixed_schedule(700, loss.smoothness, seed=3)
    data = sample(sched.total_samples(), 11)
    for skipped in (0, 100):  # a stream that starts mid-block
        fast, slow = NoiseStream(9), NoiseStream(9)
        fast.skip(skipped)
        slow.skip(skipped)
        rec = pnsgd(data, loss, domain, W0, sched, fast)
        want = oracle_pnsgd(data, loss, domain, W0.copy(), sched, slow)
        np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
        assert fast.index == slow.index == skipped + 700


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain_name", DOMAINS)
def test_psgd_matches_oracle(family, domain_name):
    domain = _domains()[domain_name]
    loss, sample = _family(family, domain)
    rng = np.random.default_rng(5)
    cap = 0.5 if not math.isfinite(loss.smoothness) else min(0.5, 1.9 / loss.smoothness)
    steps = rng.uniform(0.0, cap, 600).tolist()
    data = sample(600, 12)
    rec = psgd(data, loss, domain, W0, steps)
    last, avg = oracle_psgd(data, loss, domain, W0.copy(), steps)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain_name", DOMAINS)
def test_phased_sgd_matches_oracle(family, domain_name):
    domain = _domains()[domain_name]
    loss, sample = _family(family, domain)
    eta = 0.5 if not math.isfinite(loss.smoothness) else min(0.5, 1.9 / loss.smoothness)
    data = sample(1000, 13)  # phases of 500, 250, ...: the first crosses two chunks
    rec = phased_sgd(data, loss, domain, W0, eta, 1.0, NoiseStream(4))
    want = oracle_phased_sgd(data, loss, domain, W0.copy(), eta, 1.0, NoiseStream(4))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("domain_name", DOMAINS)
@pytest.mark.parametrize("noise_scale", (0.0, 0.4))
def test_sc_weighted_sgd_matches_oracle(domain_name, noise_scale):
    domain = _domains()[domain_name]
    loss, sample = _family("quadratic", domain)
    T = 600
    eta = 2.0 * math.log(T) / (loss.strong_convexity * T)
    data = sample(T, 14)
    fast, slow = NoiseStream(6), NoiseStream(6)
    fast.skip(37)
    slow.skip(37)
    rec = sc_weighted_sgd(data, loss, domain, W0, T, noise_scale, fast)
    gamma = sc_weights(T, eta, loss.strong_convexity).as_array()
    last, weighted = oracle_sc_weighted(data, loss, domain, W0.copy(), T, eta, noise_scale,
                                        slow, gamma)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, weighted, rtol=0, atol=TOL)
    assert fast.index == 37 + T


def test_pnsgd_large_batches_cross_chunks():
    # snowball-shaped batches: a chunk's rows span far more than 256 examples
    domain = _domains()["ball"]
    for family in ("quadratic", "linear_regression"):
        loss, sample = _family(family, domain)
        T = 300
        batches = 1 + np.arange(T) // 10
        sched = Schedule(batches, np.full(T, 0.3), np.full(T, 0.5))
        data = sample(sched.total_samples(), 15)
        rec = pnsgd(data, loss, domain, W0, sched, NoiseStream(2))
        want = oracle_pnsgd(data, loss, domain, W0.copy(), sched, NoiseStream(2))
        np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)


def test_noiseless_pass_advances_the_stream_by_T():
    domain = _domains()["ball"]
    loss, sample = _family("quadratic", domain)
    sched = Schedule(np.ones(300, dtype=int), np.full(300, 0.1), np.zeros(300))
    noise = NoiseStream(1)
    noise.skip(5)
    pnsgd(sample(300, 1), loss, domain, W0, sched, noise)
    assert noise.index == 305


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6),
       start=st.integers(0, 700), count=st.integers(0, 700))
def test_bulk_draw_equals_successive_draws(seed, dim, start, count):
    bulk, single = NoiseStream(seed), NoiseStream(seed)
    bulk.skip(start)
    single.skip(start)
    rows = bulk.gaussians(dim, count)
    assert rows.shape == (count, dim)
    assert not rows.flags.writeable
    assert bulk.index == start + count
    for row in rows:
        np.testing.assert_array_equal(row, single.gaussian(dim))
    # the stream goes on exactly where k single draws leave it
    np.testing.assert_array_equal(bulk.gaussian(dim), single.gaussian(dim))
