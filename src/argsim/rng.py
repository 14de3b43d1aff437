"""Seeding and draw helpers.

All randomness flows from a single 64-bit root seed. Replicate r of an
engine run uses the child seed

    child = mix64(engine_salt ^ root) -> mix64(base + (r + 1) * GOLDEN)

where mix64 is the splitmix64 finalizer (Steele, Lea & Flood 2014) and
GOLDEN is the 64-bit golden-ratio increment. Children of distinct
replicates (and of the two engines) are independent for all practical
purposes and order-independent, so replicates can run in parallel.

Draws come from CPython's Mersenne Twister via random.Random seeded with
the child seed. Only .random() is consumed — its output sequence is
guaranteed stable across CPython versions — and every non-uniform draw is
derived from it by explicit inversion.
"""

from __future__ import annotations

import math
import random

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

# engine salts keep the two engines' replicate streams disjoint even for
# equal root seeds
SALTS = {
    "backintime": 0xB1C7_15E5_0000_0001,
    "spatial": 0x5EA7_1A1E_0000_0002,
}


def mix64(z):
    """splitmix64 finalizer: a bijective 64-bit mixing function."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def child_seed(root, replicate, salt=0):
    """Deterministic 64-bit seed for one replicate of one engine stream."""
    base = mix64((root ^ salt) & MASK64)
    return mix64(base + (replicate + 1) * GOLDEN)


class SimRng:
    """Inversion-based draw helpers over a seeded uniform stream."""

    __slots__ = ("seed", "_random")

    def __init__(self, seed):
        self.seed = seed
        self._random = random.Random(seed).random

    def uniform(self):
        """Uniform on the open interval (0, 1)."""
        u = self._random()
        while u <= 0.0:
            u = self._random()
        return u

    def exponential(self, rate):
        assert rate > 0.0
        return -math.log(self.uniform()) / rate

    def index(self, k):
        """Uniform integer in [0, k)."""
        i = int(self._random() * k)
        return i if i < k else k - 1  # guards the measure-zero edge


def replicate_rng(root, replicate, salt=0):
    return SimRng(child_seed(root, replicate, salt))
