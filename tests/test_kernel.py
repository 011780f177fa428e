"""The one-pass SGD kernel against the per-step loops it replaced.

The four oracle loops below are the loops of dpsco 0.1.0's ``pnsgd``,
``psgd``, ``_psgd_average`` (the inner pass of ``phased_sgd``) and
``sc_weighted_sgd``, kept verbatim. Every public algorithm must match them to
1e-12 per coordinate for all four loss families, ball and box domains, mixed
sigma = 0 steps, noise streams that start off a block boundary, and schedules
whose steps and batches straddle the kernel's 256-step chunks. The quadratic
cases below also drive the closed-form chunk: projection firing mid-chunk,
box domains, chunks with eta = 0 and eta >= 1 steps, products of (1 - eta)
below the floor exp(-600), and the weighted passes. The linear-regression
cases drive the closed-form least-squares sub-chunks the same way: projection
firing mid-sub-chunk, a start on the boundary, noise kicks, the weighted
passes, the declines (eta |a|^2 outside [0, 2], a batch of two), and a
non-finite residual.
"""

import contextlib
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
import dpsco.optimizers
from dpsco.optimizers import (
    NoiseStream,
    _linear_chunk,
    _quadratic_chunk,
    phased_sgd,
    pnsgd,
    psgd,
    sc_weighted_sgd,
)
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


def _nonsmooth_warning(family):
    """Runs on the absolute-deviation loss warn that they declare no budget."""
    if family == "absolute_deviation":
        return pytest.warns(UserWarning, match="not smooth")
    return contextlib.nullcontext()


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
        with _nonsmooth_warning(family):
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
    with _nonsmooth_warning(family):
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


# Quadratic data well inside each domain, so that with small steps and noise
# the closed form carries whole chunks; "outside" puts the data centre outside
# the domain, so projection starts firing partway through a chunk.
INSIDE = {"ball": (0.0, 0.3), "shifted_ball": (0.2, 0.3), "box": (0.05, 0.1),
          "outside": (0.6, 0.1)}


def _quadratic_case(domain_name):
    domain = _domains()["ball" if domain_name == "outside" else domain_name]
    centre, radius = INSIDE[domain_name]
    dist = quadratic_sphere(domain, np.full(D, centre), radius)
    start = project(domain, np.full(D, 0.05))
    return domain, dist.loss, dist.sample_dataset, start


def _chunk_reference(w, eta, pull):
    rows = []
    for e, p in zip(eta, pull):
        w = (1.0 - e) * w + p
        rows.append(w)
    return np.array(rows)


@pytest.mark.parametrize("domain_name", ("ball", "shifted_ball", "box", "outside"))
@pytest.mark.parametrize("skipped", (0, 100))
def test_pnsgd_quadratic_closed_form_matches_oracle(domain_name, skipped):
    domain, loss, sample, start = _quadratic_case(domain_name)
    rng = np.random.default_rng(21)
    T = 900
    sched = Schedule(rng.integers(1, 4, T), rng.uniform(0.005, 0.05, T),
                     rng.uniform(0.0, 0.2, T))
    data = sample(sched.total_samples(), 22)
    fast, slow = NoiseStream(8), NoiseStream(8)
    fast.skip(skipped)
    slow.skip(skipped)
    rec = pnsgd(data, loss, domain, start, sched, fast)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert fast.index == slow.index == skipped + T
    if domain_name == "outside":  # the run ends on the boundary, projected
        assert np.linalg.norm(rec.final_iterate) == pytest.approx(1.0, abs=1e-12)


def test_projection_fires_mid_chunk():
    # the data centre lies outside the ball: the iterates walk out of it
    # partway through the first chunk, and the loop takes over from there
    domain, loss, sample, start = _quadratic_case("outside")
    T = 256
    sched = Schedule(np.ones(T, dtype=int), np.full(T, 0.02), np.full(T, 0.05))
    data = sample(T, 23)
    noise = NoiseStream(3)
    pull = 0.02 * (data.features - 0.05 * noise.gaussians(D, T))
    rows = _quadratic_chunk(start, sched.step_sizes, pull, domain, None)
    assert 0 < len(rows) < T
    np.testing.assert_allclose(rows, _chunk_reference(start, sched.step_sizes, pull)[:len(rows)],
                               rtol=0, atol=TOL)
    assert np.all(np.linalg.norm(rows, axis=1) <= 1.0)
    rec = pnsgd(data, loss, domain, start, sched, NoiseStream(3))
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, NoiseStream(3))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)


def test_closed_form_takes_whole_chunks_inside_the_domain():
    domain, loss, sample, start = _quadratic_case("box")
    eta = np.full(256, 0.03)
    pull = eta[:, None] * sample(256, 24).features
    rows = _quadratic_chunk(start, eta, pull, domain, None)
    np.testing.assert_allclose(rows, _chunk_reference(start, eta, pull), rtol=0, atol=TOL)


def test_closed_form_declines_steps_outside_the_unit_interval_and_tiny_products():
    domain, _, sample, start = _quadratic_case("ball")
    pull = 0.01 * sample(256, 25).features
    for bad in (0.0, 1.0, 1.5):
        eta = np.full(256, 0.01)
        eta[100] = bad
        assert len(_quadratic_chunk(start, eta, pull, domain, None)) == 0
    # (1 - 0.95)^256 = exp(-767) is below the floor exp(-600); 0.1^256 = exp(-589) is not
    assert len(_quadratic_chunk(start, np.full(256, 0.95), pull, domain, None)) == 0
    assert len(_quadratic_chunk(start, np.full(256, 0.9), 0.9 * pull / 0.01, domain, None)) == 256


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 256), dim=st.integers(1, 8),
       eta_exponent=st.floats(-8.0, -0.01), scale_exponent=st.floats(-3.0, 2.0))
def test_closed_form_equals_the_recurrence(seed, k, dim, eta_exponent, scale_exponent):
    # inside a ball too large to bind, the closed form is the whole recurrence
    rng = np.random.default_rng(seed)
    if seed % 2:  # steps anywhere in (0, 1), or log-uniform small ones
        eta = rng.uniform(10.0 ** eta_exponent, 1.0 - 1e-9, k)
    else:
        eta = 10.0 ** rng.uniform(eta_exponent, -0.01, k)
    scale = 10.0 ** scale_exponent
    pull = eta[:, None] * scale * rng.standard_normal((k, dim))
    w = scale * rng.standard_normal(dim)
    domain = ConvexDomain.ball(np.zeros(dim), 1e9)
    rows = _quadratic_chunk(w, eta, pull, domain, None)
    want = _chunk_reference(w, eta, pull)
    if np.cumprod(1.0 - eta)[-1] < math.exp(-600.0):
        assert len(rows) == 0
    else:
        np.testing.assert_allclose(rows, want, rtol=0, atol=TOL * max(1.0, scale))


def test_closed_form_counts_nan_as_outside():
    domain, _, _, start = _quadratic_case("ball")
    pull = np.zeros((8, D))
    pull[3] = np.nan
    assert len(_quadratic_chunk(start, np.full(8, 0.1), pull, domain, None)) == 3


def test_pnsgd_quadratic_one_wider_batch_in_a_chunk():
    # snowball-shaped: single-example steps, then one batch of two at the end
    # of the first chunk and one inside the second, so a chunk holds k + 1 rows
    domain, loss, sample, start = _quadratic_case("ball")
    T = 600
    batches = np.ones(T, dtype=int)
    batches[[255, 300]] = 2
    sched = Schedule(batches, np.full(T, 0.02), np.full(T, 0.1))
    data = sample(sched.total_samples(), 30)
    rec = pnsgd(data, loss, domain, start, sched, NoiseStream(7))
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, NoiseStream(7))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("domain_name", ("ball", "box"))
def test_pnsgd_quadratic_chunks_with_extreme_steps(domain_name):
    # eta = 0 and eta >= 1 steps (beta = 1 allows up to 2) inside chunks the
    # closed form would otherwise take, and a stretch of eta = 0.95 steps
    # whose product falls below the floor exp(-600)
    domain, loss, sample, start = _quadratic_case(domain_name)
    rng = np.random.default_rng(26)
    T = 1200
    eta = rng.uniform(0.005, 0.05, T)
    eta[[10, 300, 301]] = 0.0
    eta[[50, 520]] = 1.0
    eta[[700, 710]] = (1.5, 1.99)
    eta[768:1024] = 0.95
    sched = Schedule(np.ones(T, dtype=int), eta, np.full(T, 0.1))
    data = sample(T, 27)
    noise = NoiseStream(5)
    noise.skip(3)
    rec = pnsgd(data, loss, domain, start, sched, noise)
    slow = NoiseStream(5)
    slow.skip(3)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert noise.index == 3 + T


@pytest.mark.parametrize("domain_name", ("ball", "shifted_ball", "box", "outside"))
def test_weighted_quadratic_passes_match_oracles(domain_name):
    domain, loss, sample, start = _quadratic_case(domain_name)
    data = sample(1000, 28)
    steps = np.random.default_rng(29).uniform(0.001, 0.05, 1000).tolist()
    rec = psgd(data, loss, domain, start, steps)
    last, avg = oracle_psgd(data, loss, domain, start.copy(), steps)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)

    rec = phased_sgd(data, loss, domain, start, 0.05, 1.0, NoiseStream(4))
    want = oracle_phased_sgd(data, loss, domain, start.copy(), 0.05, 1.0, NoiseStream(4))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)

    T = 1000
    eta = 2.0 * math.log(T) / (loss.strong_convexity * T)
    gamma = sc_weights(T, eta, loss.strong_convexity).as_array()
    fast, slow = NoiseStream(6), NoiseStream(6)
    fast.skip(37)
    slow.skip(37)
    rec = sc_weighted_sgd(data, loss, domain, start, T, 0.05, fast)
    last, weighted = oracle_sc_weighted(data, loss, domain, start.copy(), T, eta, 0.05, slow,
                                        gamma)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, weighted, rtol=0, atol=TOL)
    assert fast.index == slow.index == 37 + T


# Least-squares data with the labels' centre w_true inside each domain, or
# outside the ball or the shifted ball, so that the iterates walk out of it
# partway through a sub-chunk and projection takes over.
W_TRUE = {"ball": 0.1, "shifted_ball": 0.2, "box": 0.05, "outside": 0.6,
          "shifted_outside": -0.3}
LINEAR_CASES = tuple(W_TRUE)


def _linear_case(domain_name):
    domain = _domains()[{"outside": "ball", "shifted_outside": "shifted_ball"}.get(
        domain_name, domain_name)]
    dist = linear_regression_sphere(domain, 1.0, np.full(D, W_TRUE[domain_name]), 0.1)
    start = project(domain, np.full(D, 0.05))
    return domain, dist.loss, dist.sample_dataset, start


def _linear_reference(w, eta, A, b, kick):
    rows = []
    for j, (e, a) in enumerate(zip(eta, A)):
        w = w - e * (a.dot(w) - b[j]) * a
        if kick is not None:
            w = w - kick[j]
        rows.append(w)
    return np.array(rows)


@pytest.fixture
def taken(monkeypatch):
    """The row counts the closed-form least-squares sub-chunks returned."""
    counts = []

    def spy(*args):
        rows = _linear_chunk(*args)
        counts.append(len(rows))
        return rows

    monkeypatch.setattr(dpsco.optimizers, "_linear_chunk", spy)
    return counts


@pytest.mark.parametrize("domain_name", LINEAR_CASES)
@pytest.mark.parametrize("skipped", (0, 100))
def test_pnsgd_linear_closed_form_matches_oracle(domain_name, skipped, taken):
    domain, loss, sample, start = _linear_case(domain_name)
    T = 900
    sched = Schedule.constant(T, 1, 0.1, 0.05)
    data = sample(T, 31)
    fast, slow = NoiseStream(8), NoiseStream(8)
    fast.skip(skipped)
    slow.skip(skipped)
    rec = pnsgd(data, loss, domain, start, sched, fast)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert fast.index == slow.index == skipped + T
    if domain_name.endswith("outside"):  # the iterates reach the boundary and ride it
        assert sum(taken) > 0 and 0 in taken
        assert np.linalg.norm(rec.final_iterate - domain.center) == pytest.approx(
            domain.radius, abs=1e-12)
    else:
        assert sum(taken) > T // 2


def test_linear_projection_fires_mid_subchunk():
    domain, loss, sample, start = _linear_case("outside")
    T = 64
    sched = Schedule.constant(T, 1, 0.1, 0.05)
    data = sample(T, 20)
    kick = 0.1 * 0.05 * NoiseStream(3).gaussians(D, T)
    eta = sched.step_sizes
    rows = _linear_chunk(start, eta, data.features, data.targets, kick, domain, None)
    assert 0 < len(rows) < T
    want = _linear_reference(start, eta, data.features, data.targets, kick)
    np.testing.assert_allclose(rows, want[:len(rows)], rtol=0, atol=TOL)
    assert np.all(np.linalg.norm(rows, axis=1) <= 1.0)
    assert np.linalg.norm(want[len(rows)]) > 1.0  # the cut is at the first one outside
    rec = pnsgd(data, loss, domain, start, sched, NoiseStream(3))
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, NoiseStream(3))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)


@pytest.mark.parametrize("domain_name", ("outside", "box"))
def test_linear_start_on_the_boundary(domain_name, taken):
    # from a boundary point whose first step leaves the domain the closed form
    # declines at once; the loop projects and later sub-chunks try again
    domain, loss, sample, _ = _linear_case(domain_name)
    start = project(domain, np.full(D, 5.0))
    data = sample(300, 32)
    eta = np.full(300, 0.2)
    assert len(_linear_chunk(start, eta[:64], data.features[:64], data.targets[:64], None,
                             domain, None)) == 0
    rec = psgd(data, loss, domain, start, eta.tolist())
    last, avg = oracle_psgd(data, loss, domain, start.copy(), eta)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)
    assert taken[0] == 0 and sum(taken) > 0


@pytest.mark.parametrize("domain_name", LINEAR_CASES)
def test_weighted_linear_passes_match_oracles(domain_name, taken):
    domain, loss, sample, start = _linear_case(domain_name)
    data = sample(1000, 33)
    steps = np.random.default_rng(34).uniform(0.001, 0.3, 1000).tolist()
    rec = psgd(data, loss, domain, start, steps)
    last, avg = oracle_psgd(data, loss, domain, start.copy(), steps)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)

    rec = phased_sgd(data, loss, domain, start, 0.5, 1.0, NoiseStream(4))
    want = oracle_phased_sgd(data, loss, domain, start.copy(), 0.5, 1.0, NoiseStream(4))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert sum(taken) > (0 if domain_name.endswith("outside") else 1000)


def test_linear_closed_form_declines_non_contractive_steps():
    # |a| = 1: eta |a|^2 = 1.99 is still contractive, 2.5 is not
    domain, _, sample, start = _linear_case("ball")
    data = sample(64, 35)
    A, b = data.features, data.targets
    eta = np.full(64, 0.05)
    eta[30] = 1.99
    rows = _linear_chunk(start, eta, A, b, None, domain, None)
    np.testing.assert_allclose(rows, _linear_reference(start, eta, A, b, None)[:len(rows)],
                               rtol=0, atol=TOL)
    assert len(rows) > 30
    eta[30] = 2.5
    assert len(_linear_chunk(start, eta, A, b, None, domain, None)) == 0
    b = b.copy()
    b[3] = np.nan  # a residual that is not finite ends the rows before it
    eta[30] = 0.05
    rows = _linear_chunk(start, eta, A, b, None, domain, None)
    assert len(rows) <= 3 and np.isfinite(rows).all()


@pytest.mark.parametrize("domain_name", ("ball", "box"))
def test_linear_passes_with_declined_steps_match_oracles(domain_name):
    domain, loss, sample, start = _linear_case(domain_name)
    T = 600
    steps = np.random.default_rng(36).uniform(0.005, 0.2, T)
    steps[[10, 200]] = 1.99
    steps[[70, 400]] = 2.5
    steps[[130, 131]] = 0.0
    data = sample(T, 37)
    rec = psgd(data, loss, domain, start, steps.tolist())
    last, avg = oracle_psgd(data, loss, domain, start.copy(), steps)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)


def test_pnsgd_linear_one_wider_batch_among_single_steps(taken):
    # a sub-chunk holding a batch of two is left to the loop; the others are not
    domain, loss, sample, start = _linear_case("ball")
    T = 600
    batches = np.ones(T, dtype=int)
    batches[[40, 300]] = 2
    sched = Schedule(batches, np.full(T, 0.1), np.full(T, 0.05))
    data = sample(sched.total_samples(), 38)
    noise = NoiseStream(7)
    noise.skip(20)
    rec = pnsgd(data, loss, domain, start, sched, noise)
    slow = NoiseStream(7)
    slow.skip(20)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert noise.index == 20 + T
    assert 0 < sum(taken) <= T - 2 * 64


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 64), dim=st.integers(1, 8),
       scale_exponent=st.floats(-3.0, 2.0), feature_exponent=st.floats(-2.0, 1.0),
       kicked=st.booleans())
def test_linear_closed_form_equals_the_recurrence(seed, k, dim, scale_exponent,
                                                  feature_exponent, kicked):
    # inside a ball too large to bind, the closed form is the whole recurrence
    # for any contractive steps, eta_j |a_j|^2 in [0, 1.99]
    rng = np.random.default_rng(seed)
    scale = 10.0 ** scale_exponent
    A = 10.0 ** feature_exponent * rng.standard_normal((k, dim))
    eta = rng.uniform(0.0, 1.99, k) / np.maximum(np.einsum("ij,ij->i", A, A), 1e-300)
    b = scale * rng.standard_normal(k) * 10.0 ** feature_exponent
    kick = scale * rng.standard_normal((k, dim)) if kicked else None
    w = scale * rng.standard_normal(dim)
    domain = ConvexDomain.ball(np.zeros(dim), 1e9)
    rows = _linear_chunk(w, eta, A, b, kick, domain, None)
    want = _linear_reference(w, eta, A, b, kick)
    assert len(rows) == k
    # a short feature with a long step moves the iterate by about b / |a|
    np.testing.assert_allclose(rows, want, rtol=0, atol=TOL * max(1.0, np.abs(want).max()))


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
