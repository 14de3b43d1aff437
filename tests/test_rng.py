"""Seeding and inversion-draw helper tests."""

import math

from argsim.rng import (
    GOLDEN,
    MASK64,
    SALTS,
    SimRng,
    child_seed,
    mix64,
    replicate_rng,
)


def test_mix64_known_vectors():
    # finalizer applied to k * GOLDEN reproduces the reference splitmix64
    # stream for seed 0
    assert mix64(GOLDEN) == 0xE220A8397B1DCDAF
    assert mix64((2 * GOLDEN) & MASK64) == 0x6E789E6AA1B965F4


def test_mix64_range_and_injectivity_sample():
    seen = set()
    for k in range(2000):
        v = mix64(k)
        assert 0 <= v <= MASK64
        seen.add(v)
    assert len(seen) == 2000


def test_child_seed_determinism_and_distinctness():
    assert child_seed(7, 0) == child_seed(7, 0)
    seeds = {child_seed(7, r) for r in range(500)}
    assert len(seeds) == 500
    assert child_seed(7, 0, SALTS["backintime"]) != child_seed(7, 0, SALTS["spatial"])
    assert child_seed(7, 0) != child_seed(8, 0)


def test_uniform_is_open_interval():
    rng = SimRng(123)
    draws = [rng.uniform() for _ in range(20000)]
    assert all(0.0 < u < 1.0 for u in draws)
    mean = sum(draws) / len(draws)
    assert abs(mean - 0.5) < 0.01


def test_exponential_mean_and_positivity():
    rng = SimRng(42)
    n = 100000
    draws = [rng.exponential(2.0) for _ in range(n)]
    assert all(w > 0.0 for w in draws)
    mean = math.fsum(draws) / n
    # mean 1/2, sd of the mean = 0.5/sqrt(n); 4 sigma band
    assert abs(mean - 0.5) < 4 * 0.5 / math.sqrt(n)


def test_index_uniformity():
    rng = SimRng(99)
    counts = [0] * 5
    n = 50000
    for _ in range(n):
        counts[rng.index(5)] += 1
    for c in counts:
        assert abs(c - n / 5) < 5 * math.sqrt(n / 5)


def test_same_seed_same_stream():
    a = SimRng(1000)
    b = SimRng(1000)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_replicate_rng_matches_child_seed():
    rng = replicate_rng(5, 3, SALTS["spatial"])
    assert rng.seed == child_seed(5, 3, SALTS["spatial"])
    direct = SimRng(rng.seed)
    assert [rng.uniform() for _ in range(10)] == [direct.uniform() for _ in range(10)]
