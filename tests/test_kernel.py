"""The one-pass SGD kernel against the per-step loops it replaced.

The oracle loops below are the loops of dpsco 0.1.0's ``pnsgd``, ``psgd``,
``_psgd_average`` (the inner pass of ``phased_sgd``), ``sc_weighted_sgd`` and
``_sgd_attempt`` (the inner SGD of ``phased_erm``), kept verbatim. Every public
algorithm must match them to 1e-12 per coordinate for all four loss
families, ball and box domains, mixed
sigma = 0 steps, noise streams that start off a block boundary, and schedules
whose steps and batches straddle the 256-draw noise blocks and the kernel's
chunks of up to 2048 steps. The quadratic cases below also drive the
closed-form chunk: projection firing mid-chunk, box domains, the cuts before
eta = 0 and eta >= 1 steps, the restarts before products of (1 - eta) below
the floor exp(-600), and the weighted passes over several chunks. A spy
checks that the closed form takes at least as many steps as it did with
256-step chunks that declined instead of cutting, and one protocol test
checks the offer rule that both closed forms share. The linear-regression
cases drive the closed-form least-squares offers, taken in 16-step blocks,
the same way:
projection firing mid-offer, a start on the boundary, noise kicks, offers
that cross noise blocks and end in a ragged block, the weighted passes, the cuts before
eta |a|^2 outside [0, 2] and before a batch of two, and a non-finite
residual. They are checked against the recurrence and against the LU solve
of the earlier 64-step sub-chunks, kept below as an oracle; a spy checks that
per noise block the loop runs no more steps than after those sub-chunks.
"""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    InnerSolveBudgetError,
    NoiseStream,
    _inside,
    _linear_chunk,
    _quadratic_chunk,
    _sgd_attempt,
    _sgd_attempt_absdev_1d,
    phased_erm,
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
    for ni, eta_i in phase_plan(len(data), eta):
        avg, _ = oracle_psgd_average(loss, domain, data.subset(offset, offset + ni), w, eta_i)
        offset += ni
        w = project(domain, avg + 4.0 * L * eta_i / rho * noise.gaussian(d))
    return w


def oracle_sgd_attempt(loss, domain, block, w_prev, lam, steps, rng):
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
    gamma = sc_weights(T, eta, loss.strong_convexity)
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


def test_closed_form_cuts_before_steps_outside_the_unit_interval_and_tiny_products():
    domain, _, sample, start = _quadratic_case("ball")
    pull = 0.01 * sample(256, 25).features
    for bad in (0.0, 1.0, 1.5):
        eta = np.full(256, 0.01)
        eta[100] = bad
        rows = _quadratic_chunk(start, eta, pull, domain, None)
        assert len(rows) == 100
        np.testing.assert_allclose(rows, _chunk_reference(start, eta, pull)[:100],
                                   rtol=0, atol=TOL)
        eta[0] = bad
        assert len(_quadratic_chunk(start, eta, pull, domain, None)) == 0
    # (1 - 0.95)^j falls below the floor exp(-600) at j = 201, where the form
    # restarts from the 200th iterate instead of cutting; 0.1^256 = exp(-589) does not
    eta = np.full(256, 0.95)
    rows = _quadratic_chunk(start, eta, pull, domain, None)
    np.testing.assert_allclose(rows, _chunk_reference(start, eta, pull), rtol=0, atol=TOL)
    assert len(_quadratic_chunk(start, np.full(256, 0.9), 0.9 * pull / 0.01, domain, None)) == 256


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 2048), dim=st.integers(1, 8),
       eta_exponent=st.floats(-8.0, -0.01), scale_exponent=st.floats(-3.0, 2.0))
def test_closed_form_equals_the_recurrence(seed, k, dim, eta_exponent, scale_exponent):
    # inside a ball too large to bind, the closed form is the recurrence,
    # also past products of (1 - eta) below the floor
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
    np.testing.assert_allclose(rows, _chunk_reference(w, eta, pull), rtol=0,
                               atol=TOL * max(1.0, scale))


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
    gamma = sc_weights(T, eta, loss.strong_convexity)
    fast, slow = NoiseStream(6), NoiseStream(6)
    fast.skip(37)
    slow.skip(37)
    rec = sc_weighted_sgd(data, loss, domain, start, T, 0.05, fast)
    last, weighted = oracle_sc_weighted(data, loss, domain, start.copy(), T, eta, 0.05, slow,
                                        gamma)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, weighted, rtol=0, atol=TOL)
    assert fast.index == slow.index == 37 + T


def _declining_quadratic_chunk(w, eta, pull, domain, center):
    """The closed form of 256-step chunks, kept verbatim: it declines the whole
    chunk when some eta_j lies outside (0, 1) or when P_k falls below the
    floor, and otherwise cuts before the first iterate outside the domain."""
    if not (eta.min() > 0.0 and eta.max() < 1.0):
        return pull[:0]
    if not _inside(((1.0 - eta[0]) * w + pull[0])[None], domain, center)[0]:
        return pull[:0]
    p = np.cumprod(1.0 - eta)[:, None]
    if p[-1, 0] < math.exp(-600.0):
        return pull[:0]
    rows = pull / p
    rows[0] += w
    np.cumsum(rows, axis=0, out=rows)
    rows *= p
    inside = _inside(rows, domain, center)
    return rows if inside.all() else rows[:inside.argmin()]


def _closed_form_calls(monkeypatch, rule, chunk):
    """Run with ``rule`` as the closed form and chunks of up to ``chunk``
    steps; (offered, taken) for each call lands in the returned list."""
    calls = []

    def spy(w, eta, pull, domain, center):
        rows = rule(w, eta, pull, domain, center)
        calls.append((len(eta), len(rows)))
        return rows

    monkeypatch.setattr(dpsco.optimizers, "_quadratic_chunk", spy)
    monkeypatch.setattr(dpsco.optimizers, "_CHUNK", chunk)
    return calls


@pytest.mark.parametrize("case", ("projection", "eta=0.95", "eta=0.9", "eta=0"))
def test_closed_form_takes_no_fewer_steps_than_256_step_chunks(case, monkeypatch):
    # the per-step loop runs at most the steps it ran when 256-step chunks
    # declined on a bad eta or a tiny product instead of cutting
    domain, loss, sample, start = _quadratic_case("outside" if case == "projection" else "ball")
    T = 3000
    rng = np.random.default_rng(40)
    eta = rng.uniform(0.005, 0.05, T)
    if case == "eta=0":
        eta[rng.choice(T, 30, replace=False)] = 0.0
    elif case != "projection":
        eta[:] = float(case[4:])
    sched = Schedule(np.ones(T, dtype=int), eta, np.full(T, 0.1))
    data = sample(T, 41)
    taken = {}
    for name, rule, chunk in (("now", _quadratic_chunk, dpsco.optimizers._CHUNK),
                              ("before", _declining_quadratic_chunk, 256)):
        calls = _closed_form_calls(monkeypatch, rule, chunk)
        fast, slow = NoiseStream(9), NoiseStream(9)
        fast.skip(70)
        slow.skip(70)
        rec = pnsgd(data, loss, domain, start, sched, fast)
        want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
        np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
        taken[name] = sum(rows for _, rows in calls)
        if name == "now":
            cuts = sum(rows < offered for offered, rows in calls)
    if case == "eta=0.9":
        # (0.1)^256 = exp(-589) stays above the floor, so 256-step chunks
        # took every step; longer offers restart their product about every
        # 260 steps and cut nothing
        assert taken["before"] == taken["now"] == T and cuts == 0
        return
    assert taken["now"] >= taken["before"]
    if case != "projection":  # the declined chunks are now cut
        assert taken["now"] > taken["before"]
    else:  # the iterates reach the boundary and ride it
        assert 0 < taken["now"] < T // 2


@pytest.mark.parametrize("dim", (5, 64, 200))
def test_chunks_end_on_block_boundaries_and_hold_at_most_2048_steps(dim, monkeypatch):
    chunks = []
    bulk = NoiseStream.gaussians

    def spy(self, d, count):
        chunks.append((self.index, count))
        return bulk(self, d, count)

    monkeypatch.setattr(NoiseStream, "gaussians", spy)
    domain = ConvexDomain.ball(np.zeros(dim), 1.0)
    dist = quadratic_sphere(domain, np.zeros(dim), 0.3)
    T = 5000
    noise = NoiseStream(3)
    noise.skip(70)
    pnsgd(dist.sample_dataset(T, 44), dist.loss, domain, np.zeros(dim),
          Schedule.constant(T, 1, 0.02, 0.1), noise)
    assert chunks[0][0] == 70 and noise.index == 70 + T
    assert all(a + k == b for (a, k), (b, _) in zip(chunks, chunks[1:]))
    assert all((a + k) % 256 == 0 for a, k in chunks[:-1])
    assert max(k for _, k in chunks) == 2048


@pytest.mark.parametrize("domain_name", ("ball", "box", "outside"))
def test_weighted_passes_over_several_chunks_match_oracles(domain_name, monkeypatch):
    # psgd, the phased inner pass (first phase 2500 steps) and sc_weighted_sgd
    # over chunks of 2048 steps, cut by eta = 0 and eta >= 1 steps and, on
    # "outside", by projection
    domain, loss, sample, start = _quadratic_case(domain_name)
    calls = _closed_form_calls(monkeypatch, _quadratic_chunk, dpsco.optimizers._CHUNK)
    T = 5000
    data = sample(T, 42)
    steps = np.random.default_rng(43).uniform(0.001, 0.05, T)
    steps[[300, 2100, 2101, 4000]] = 0.0
    steps[[1000, 3000]] = (1.0, 1.5)
    rec = psgd(data, loss, domain, start, steps.tolist())
    last, avg = oracle_psgd(data, loss, domain, start.copy(), steps)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)
    assert any(0 < rows < offered for offered, rows in calls)
    if domain_name != "outside":
        assert max(rows for _, rows in calls) > 256  # past one noise block

    rec = phased_sgd(data, loss, domain, start, 0.05, 1.0, NoiseStream(4))
    want = oracle_phased_sgd(data, loss, domain, start.copy(), 0.05, 1.0, NoiseStream(4))
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)

    eta = 2.0 * math.log(T) / (loss.strong_convexity * T)
    gamma = sc_weights(T, eta, loss.strong_convexity)
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


def _lu_linear_chunk(w, eta, A, b, kick, domain, center):
    """The closed form of 64-step sub-chunks, kept verbatim but for the mask,
    which is built for any k, and a refinement step of the residuals: one LU
    solve of the k x k unit lower-triangular system for the residuals,
    declined whole when some eta_j |a_j|^2 lies outside [0, 2], and cut
    before the first iterate outside the domain."""
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
    lower = np.tri(k)
    system = gram * lower
    system *= eta
    system.flat[::k + 1] = 1.0
    c = A @ w - b
    if kick is not None:
        kicks = np.cumsum(kick, axis=0)
        c[1:] -= np.einsum("ij,ij->i", A[1:], kicks[:-1])
    r = np.linalg.solve(system, c)
    r += np.linalg.solve(system, c - system @ r)  # one refinement step
    rows = (lower * (eta * r)) @ A  # the prefix sums of eta_i r_i a_i
    if kick is not None:
        rows += kicks
    np.subtract(w, rows, out=rows)
    inside = _inside(rows, domain, center)
    return rows if inside.all() else rows[:inside.argmin()]


def _sub_chunks(w, eta, A, b, kick, domain, center):
    """What 64-step sub-chunks took of an offer: each sub-chunk from the
    offer's start goes to the LU closed form, until one is cut or declined.
    In place of _linear_chunk the pass then runs the loop as they did: to the
    end of that sub-chunk, with the next offer at the sub-chunk after it."""
    rows = []
    for s in range(0, len(eta), 64):
        part = _lu_linear_chunk(w, eta[s:s + 64], A[s:s + 64], b[s:s + 64],
                                None if kick is None else kick[s:s + 64], domain, center)
        rows.append(part)
        if len(part) < len(eta[s:s + 64]):
            break
        w = part[-1]
    return np.concatenate(rows)


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


def test_linear_closed_form_cuts_before_non_contractive_steps():
    # |a| = 1: eta |a|^2 = 1.99 is still contractive; 2.5, a negative step
    # and NaN are not, and the rows end before the first of them
    domain, _, sample, start = _linear_case("ball")
    data = sample(64, 35)
    A, b = data.features, data.targets
    eta = np.full(64, 0.05)
    eta[30] = 1.99
    rows = _linear_chunk(start, eta, A, b, None, domain, None)
    want = _linear_reference(start, eta, A, b, None)
    np.testing.assert_allclose(rows, want[:len(rows)], rtol=0, atol=TOL)
    assert len(rows) > 30
    for bad in (2.5, -0.01, np.nan):
        eta[30] = bad
        rows = _linear_chunk(start, eta, A, b, None, domain, None)
        assert len(rows) == 30
        np.testing.assert_allclose(rows, want[:30], rtol=0, atol=TOL)
        eta[0] = bad
        assert len(_linear_chunk(start, eta, A, b, None, domain, None)) == 0
        eta[0] = 0.05
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


def test_pnsgd_linear_ragged_blocks_match_oracle(taken):
    # a stream 37 draws into its block: offers of 256 steps cross the noise
    # blocks, and the last offer, 232 steps, ends in a ragged block of 8
    domain, loss, sample, start = _linear_case("ball")
    T = 1000
    sched = Schedule.constant(T, 1, 0.1, 0.05)
    data = sample(T, 39)
    fast, slow = NoiseStream(10), NoiseStream(10)
    fast.skip(37)
    slow.skip(37)
    rec = pnsgd(data, loss, domain, start, sched, fast)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    assert taken == [256, 256, 256, 232]


def _offers(monkeypatch, rule, data):
    """Run with ``rule`` as the least-squares closed form; (first step, steps
    offered, rows taken) of each offer lands in the returned list."""
    offers = []

    def spy(w, eta, A, b, kick, domain, center):
        rows = rule(w, eta, A, b, kick, domain, center)
        first = (A.ctypes.data - data.features.ctypes.data) // data.features.strides[0]
        offers.append((first, len(eta), len(rows)))
        return rows

    monkeypatch.setattr(dpsco.optimizers, "_linear_chunk", spy)
    return offers


def _loop_steps_per_block(offers, T, phase):
    """The steps the per-step loop ran in each noise block of a pass of T
    single-example steps; an offer may cross a block."""
    looped = np.ones(T, dtype=bool)
    for first, _, rows in offers:
        looped[first:first + rows] = False
    return np.bincount((np.flatnonzero(looped) + phase) // 256,
                       minlength=(T - 1 + phase) // 256 + 1)


@pytest.mark.parametrize("case", ("outside", "shifted_outside", "box", "eta=2.5"))
def test_closed_form_runs_no_more_loop_steps_than_64_step_sub_chunks(case, monkeypatch):
    # per noise block, the loop runs at most the steps it ran when 64-step
    # sub-chunks each took an LU solve and declined a non-contractive step
    domain, loss, sample, start = _linear_case("ball" if case == "eta=2.5" else case)
    T = 3000
    rng = np.random.default_rng(45)
    eta = rng.uniform(0.02, 0.2, T)
    if case == "eta=2.5":  # |a| = 1: not contractive, and left to the loop
        eta[rng.choice(T, 12, replace=False)] = 2.5
    sched = Schedule(np.ones(T, dtype=int), eta, np.full(T, 0.05))
    data = sample(T, 46)
    loop = {}
    for name, rule in (("now", _linear_chunk), ("before", _sub_chunks)):
        offers = _offers(monkeypatch, rule, data)
        fast, slow = NoiseStream(11), NoiseStream(11)
        fast.skip(70)
        slow.skip(70)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # eta = 2.5 > 2/beta
            rec = pnsgd(data, loss, domain, start, sched, fast)
        want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
        np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
        loop[name] = _loop_steps_per_block(offers, T, 70)
    assert (loop["now"] <= loop["before"]).all()
    if case == "eta=2.5":  # the declined sub-chunks are now cut
        assert loop["now"].sum() < loop["before"].sum()
    elif case != "box":  # the iterates reach the boundary and ride it
        assert loop["now"].sum() > T // 2


def test_pnsgd_linear_one_wider_batch_among_single_steps(taken):
    # the closed form takes the steps before a batch of two, and the loop runs
    # from it to the next 64-step mark of the offer: offers start at steps 0,
    # 64, 320 and 576, and the loop runs steps 40-63 and 300-319
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
    assert taken == [40, 236, 256, 24]


def _offer_log(monkeypatch, steps):
    """Spy on both closed forms: (first step, steps offered, rows taken) of
    each offer, the first step read off where its step sizes sit in ``steps``."""
    offers = []
    for name in ("_quadratic_chunk", "_linear_chunk"):
        def spy(w, eta, *args, rule=getattr(dpsco.optimizers, name)):
            rows = rule(w, eta, *args)
            offers.append(((eta.ctypes.data - steps.ctypes.data) // steps.itemsize, len(eta),
                           len(rows)))
            return rows
        monkeypatch.setattr(dpsco.optimizers, name, spy)
    return offers


@pytest.mark.parametrize("family", ("quadratic", "linear_regression"))
@pytest.mark.parametrize("case", ("ball", "box", "boundary"))
def test_offer_rule(family, case, monkeypatch):
    # both closed forms follow one rule: an offer holds min(rest of the
    # chunk, span); an offer taken whole doubles span up to the family's
    # longest; after a cut or an empty take the loop runs to the offer's next
    # 64-step mark and span restarts at 64. Steps the closed form declines cut
    # offers on the ball and the box; from a boundary start, with the data's
    # centre outside, the iterates ride the boundary
    quadratic = family == "quadratic"
    name = {"ball": "ball", "box": "box", "boundary": "outside"}[case]
    domain, loss, sample, start = (_quadratic_case if quadratic else _linear_case)(name)
    if case == "boundary":
        start = project(domain, np.full(D, 5.0))
    T, phase, longest = 5000, 70, 2048 if quadratic else 256
    rng = np.random.default_rng(47)
    eta = rng.uniform(0.005, 0.05, T) if quadratic else rng.uniform(0.02, 0.2, T)
    eta[[300, 1100, 2500, 4100]] = 1.5 if quadratic else 2.5
    sched = Schedule(np.ones(T, dtype=int), eta, np.full(T, 0.05))
    data = sample(T, 48)
    offers = _offer_log(monkeypatch, sched.step_sizes)
    fast, slow = NoiseStream(12), NoiseStream(12)
    fast.skip(phase)
    slow.skip(phase)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # eta = 2.5 > 2/beta
        rec = pnsgd(data, loss, domain, start, sched, fast)
    want = oracle_pnsgd(data, loss, domain, start.copy(), sched, slow)
    np.testing.assert_allclose(rec.final_iterate, want, rtol=0, atol=TOL)
    bounds = [0, *range(2048 - phase, T, 2048), T]  # the chunks

    def rest(step):  # the steps from ``step`` to the end of its chunk
        return next(b for b in bounds if b > step) - step

    assert offers[0][:2] == (0, min(longest, rest(0)))
    cut = doubled = 0
    for (first, offered, rows), (after, size, _) in zip(offers, offers[1:]):
        if rows < offered:  # the loop ran to the next 64-step mark
            cut += 1
            assert after == min(first + rest(first), first + (rows // 64 + 1) * 64)
            assert size == min(64, rest(after))
        else:  # the offer taken whole doubled span
            assert after == first + offered
            assert min(2 * offered, longest, rest(after)) <= size <= min(longest, rest(after))
            if offered < rest(first):  # span was the offer
                assert size <= 2 * offered
            doubled += size == 2 * offered
    assert cut >= 4 and (doubled >= 3 or case == "boundary")

    seen = len(offers)
    rec = psgd(data, loss, domain, start, eta.tolist())
    assert len(offers) > seen
    last, avg = oracle_psgd(data, loss, domain, start.copy(), eta)
    np.testing.assert_allclose(rec.final_iterate, last, rtol=0, atol=TOL)
    np.testing.assert_allclose(rec.weighted_average, avg, rtol=0, atol=TOL)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 300), dim=st.integers(1, 8),
       scale_exponent=st.floats(-3.0, 2.0), feature_exponent=st.floats(-2.0, 1.0),
       spread=st.sampled_from((0.0, 1.0)), kicked=st.booleans())
@example(seed=24396, k=110, dim=1, scale_exponent=1.0, feature_exponent=0.0, spread=1.0,
         kicked=False)
def test_linear_closed_form_equals_the_recurrence(seed, k, dim, scale_exponent,
                                                  feature_exponent, spread, kicked):
    # inside a ball too large to bind, the closed form is the whole recurrence
    # for any contractive steps, eta_j |a_j|^2 in [0, 1.99]: over several
    # 16-step blocks, a ragged last block, and features whose lengths spread
    # over two decades; the LU solve of the 64-step sub-chunks agrees (one LU
    # solve of all k steps does not: with spread features its error reaches
    # 1.4e-12 of the largest iterate, at seed 1, k 256, dim 1). The LU
    # oracle needs its refinement step: without it, the example above is
    # 1.3e-7 from the recurrence against a tolerance of 9.0e-8, while the
    # kernel is 4.4e-10 from it (8.2e-11 for the refined oracle)
    rng = np.random.default_rng(seed)
    scale = 10.0 ** scale_exponent
    A = 10.0 ** (feature_exponent + spread * rng.uniform(-1.0, 1.0, (k, 1)))
    A = A * rng.standard_normal((k, dim))
    eta = rng.uniform(0.0, 1.99, k) / np.maximum(np.einsum("ij,ij->i", A, A), 1e-300)
    b = scale * rng.standard_normal(k) * 10.0 ** feature_exponent
    kick = scale * rng.standard_normal((k, dim)) if kicked else None
    w = scale * rng.standard_normal(dim)
    domain = ConvexDomain.ball(np.zeros(dim), 1e9)
    rows = _linear_chunk(w, eta, A, b, kick, domain, None)
    want = _linear_reference(w, eta, A, b, kick)
    lu = _sub_chunks(w, eta, A, b, kick, domain, None)
    assert len(rows) == len(lu) == k
    # a short feature with a long step moves the iterate by about b / |a|
    tol = TOL * max(1.0, np.abs(want).max())
    np.testing.assert_allclose(rows, want, rtol=0, atol=tol)
    np.testing.assert_allclose(rows, lu, rtol=0, atol=tol)


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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain_name", DOMAINS)
def test_inner_sgd_attempt_matches_oracle(family, domain_name):
    # the first steps, 1/lam and 1/(2 lam), are long: the quadratic closed
    # form declines them (eta (1 + lam) >= 1) and the loop projects
    domain = _domains()[domain_name]
    loss, sample = _family(family, domain)
    block = sample(20, 50)
    for lam in (0.01, 0.3, 10.0):
        want = oracle_sgd_attempt(loss, domain, block, W0, lam, 800, np.random.default_rng(51))
        got = _sgd_attempt(loss, domain, block, W0, lam, 800, np.random.default_rng(51))
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


def _attempts(monkeypatch, attempt):
    """Run phased_erm's attempts through ``attempt``; the returned list
    receives each attempt's candidate."""
    candidates = []

    def spy(*args):
        candidates.append(attempt(*args))
        return candidates[-1]

    monkeypatch.setattr(dpsco.optimizers, "_sgd_attempt", spy)
    return candidates


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain_name", ("ball", "box"))
def test_phased_erm_inner_sgd_matches_oracle(family, domain_name, monkeypatch):
    # equal candidates in every attempt, and equal oracle calls. The
    # absolute-deviation sample has Gaussian features, |a| about sqrt(5),
    # under a declared L = 1: the run warns that the data exceed the declared
    # L, and never meets its certificate: both runs stop on the same
    # exhausted budget
    domain = _domains()[domain_name]
    loss, sample = _family(family, domain)
    data = sample(32, 52)
    runs = {}
    for name, attempt in (("kernel", _sgd_attempt), ("oracle", oracle_sgd_attempt)):
        candidates = _attempts(monkeypatch, attempt)
        beyond_l = (pytest.warns(UserWarning, match="declared L") if family == "absolute_deviation"
                    else contextlib.nullcontext())
        try:
            with beyond_l:
                outcome = phased_erm(data, loss, domain, W0, 0.5, 1.0, 1e-5, NoiseStream(53))
        except InnerSolveBudgetError as exc:
            outcome = str(exc)
        runs[name] = outcome, candidates
    (got, got_candidates), (want, want_candidates) = runs["kernel"], runs["oracle"]
    assert len(got_candidates) == len(want_candidates) > 1
    for a, b in zip(got_candidates, want_candidates):
        np.testing.assert_allclose(a, b, rtol=0, atol=TOL)
    if family == "absolute_deviation":
        assert got == want and "not met" in got
    else:
        np.testing.assert_allclose(got.final_iterate, want.final_iterate, rtol=0, atol=TOL)
        assert got.gradient_evaluations == want.gradient_evaluations


@pytest.mark.parametrize("family", ("quadratic", "linear_regression"))
def test_inner_sgd_attempt_longer_than_index_chunk(family):
    # 2 * 182^2 = 66248 steps: two slices of gathered rows, one kernel pass each
    domain = _domains()["ball"]
    loss, sample = _family(family, domain)
    block = sample(182, 54)
    steps = 2 * 182 * 182
    assert steps > dpsco.optimizers._INDEX_CHUNK
    want = oracle_sgd_attempt(loss, domain, block, W0, 0.05, steps, np.random.default_rng(55))
    got = _sgd_attempt(loss, domain, block, W0, 0.05, steps, np.random.default_rng(55))
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
