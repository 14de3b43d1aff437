"""Seeding and inversion-draw helper tests."""

import itertools
import math
import random

from argsim.rng import (
    GOLDEN,
    MASK64,
    SALTS,
    SimRng,
    child_seed,
    mix64,
    replicate_rng,
    unrank_pair,
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
    assert child_seed(7, 0, 0) == child_seed(7, 0, 0)
    seeds = {child_seed(7, r, 0) for r in range(500)}
    assert len(seeds) == 500
    assert child_seed(7, 0, SALTS["backintime"]) != child_seed(7, 0, SALTS["spatial"])
    assert child_seed(7, 0, 0) != child_seed(8, 0, 0)


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
    direct = SimRng(child_seed(5, 3, SALTS["spatial"]))
    assert [rng.uniform() for _ in range(10)] == [direct.uniform() for _ in range(10)]


def unrank_pair_by_rows(index, k):
    """Oracle: walk the rows of the lexicographic pair order."""
    i = 0
    row = k - 1
    while index >= row:
        index -= row
        i += 1
        row -= 1
    return i, i + 1 + index


def test_unrank_pair_is_the_lexicographic_pair_order():
    # every index up to k = 199; past it, the first and last index of every
    # row, where a square root one off would first show (the row is
    # monotone in the index and j is linear in it within a row)
    for k in range(2, 200):
        pairs = list(map(unrank_pair, range(k * (k - 1) // 2), itertools.repeat(k)))
        assert pairs == list(itertools.combinations(range(k), 2)), k
    for k in range(200, 400):
        first = 0
        for i in range(k - 1):
            last = first + k - 2 - i
            assert unrank_pair(first, k) == (i, i + 1) and unrank_pair(last, k) == (i, k - 1), (k, i)
            first = last + 1


def test_unrank_pair_matches_the_row_walk_at_large_k():
    # the walk costs O(k) a call, so 2000 draws take about a second
    rng = random.Random(24)
    for _ in range(2000):
        k = rng.randint(2, 20000)
        index = rng.randrange(k * (k - 1) // 2)
        assert unrank_pair(index, k) == unrank_pair_by_rows(index, k), (index, k)
