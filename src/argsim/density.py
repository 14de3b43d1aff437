"""Breakpoint-locus densities on (0, 1).

A density provides pdf/cdf/inverse-cdf (scipy's betainc and betaincinv for
Beta, through scipy.special.cython_special: the Boost kernels of the
scipy.special ufuncs, called as scalars on doubles and returning Python
floats equal to the ufuncs' bit for bit, without the ufunc's array
dispatch). Truncated sampling is one function, draw_between: the inversion
ppf(F(lo) + U * (F(hi) - F(lo))), kept strictly inside (lo, hi), from CDF
values its caller holds; where ppf gives NaN, a bisection on the CDF over
(lo, hi) inverts it instead. An engine that already read F at both ends passes
them in; sample_truncated reads them first. Densities must be strictly
positive almost everywhere on (0, 1) so the inverse CDF is well defined;
Uniform and Beta(a, b) both qualify.

Densities are specified on the command line as tagged strings
("uniform", "beta:2,2").

scipy is loaded only when a Beta law is parsed (its atoms are checked with
betainc) or a p-value is computed (stats.py); a uniform run never loads
it. Each scipy function is a module global that starts as a stub: its
first call imports the kernel, rebinds the global to its double
specialization and forwards, so later calls pay only the global lookup.
"""

from __future__ import annotations

import math


# cython_special's functions are fused over float and double and dispatch
# on their arguments' types per call, refusing int shapes; the "double"
# entry is the kernel itself and converts what it is given
def _betainc(a, b, x):
    global _betainc
    from scipy.special.cython_special import betainc

    _betainc = betainc["double"]
    return _betainc(a, b, x)


def _betaincinv(a, b, y):
    global _betaincinv
    from scipy.special.cython_special import betaincinv

    _betaincinv = betaincinv["double"]
    return _betaincinv(a, b, y)


def strictly_inside(x, lo, hi):
    """x moved onto the nearest float strictly inside (lo, hi); hi if none is."""
    return max(min(x, math.nextafter(hi, lo)), math.nextafter(lo, hi))


def draw_between(density, rng, lo, hi, f_lo, f_hi):
    """Inverse-CDF draw from ``density`` restricted to (lo, hi), given f_lo = F(lo) and f_hi = F(hi).

    One uniform and one ppf; the CDF is not read again unless ppf gives
    NaN (scipy's betaincinv does for tiny q: beta:3,3 below about 1e-108),
    and then _bisect_ppf finds the locus from the CDF.
    """
    assert f_hi > f_lo
    q = min(1.0, f_lo + rng.uniform() * (f_hi - f_lo))
    x = density.ppf(q)
    if x != x:
        x = _bisect_ppf(density, q, lo, hi)
    return strictly_inside(x, lo, hi)


def _bisect_ppf(density, q, lo, hi):
    """The least float x above lo, up to hi, with F(x) >= q: bisection on density.cdf.

    With F(lo) < q <= F(hi), the float before x has F below q. Each step
    halves the gap, so it ends once no float lies between the two ends.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if density.cdf(mid) < q:
            lo = mid
        else:
            hi = mid


class UniformDensity:
    """The uniform density on (0, 1)."""

    spec = "uniform"

    def pdf(self, s):
        return 1.0 if 0.0 < s < 1.0 else 0.0

    def cdf(self, s):
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        return s

    def ppf(self, q):
        assert 0.0 <= q <= 1.0
        return q

    def mass(self, lo, hi):
        """Integral of the pdf over (lo, hi)."""
        return max(0.0, self.cdf(hi) - self.cdf(lo))

    def sample_truncated(self, rng, lo, hi):
        """Inverse-CDF draw from the density restricted to (lo, hi)."""
        return draw_between(self, rng, lo, hi, self.cdf(lo), self.cdf(hi))

    def __eq__(self, other):
        return isinstance(other, UniformDensity)

    def __repr__(self):
        return "UniformDensity()"


def _exact(x):
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


class BetaDensity:
    """Beta(a, b) density; cdf via the regularized incomplete beta function."""

    def __init__(self, a, b):
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError("beta shapes must be positive and finite, got %r, %r" % (a, b))
        self.a = a
        self.b = b
        try:
            self._log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        except OverflowError:
            raise ValueError("beta shapes too large, got %r, %r" % (a, b)) from None

    @property
    def spec(self):
        """Shapes in the shortest form that parses back exactly: beta:2,2."""
        return "beta:%s,%s" % (_exact(self.a), _exact(self.b))

    def pdf(self, s):
        if not 0.0 < s < 1.0:
            return 0.0
        return math.exp(
            (self.a - 1.0) * math.log(s) + (self.b - 1.0) * math.log1p(-s) - self._log_norm
        )

    def cdf(self, s):
        if s <= 0.0:
            return 0.0
        if s >= 1.0:
            return 1.0
        return _betainc(self.a, self.b, s)

    def ppf(self, q):
        assert 0.0 <= q <= 1.0
        return _betaincinv(self.a, self.b, q)

    def mass(self, lo, hi):
        return max(0.0, self.cdf(hi) - self.cdf(lo))

    def sample_truncated(self, rng, lo, hi):
        return draw_between(self, rng, lo, hi, self.cdf(lo), self.cdf(hi))

    def __eq__(self, other):
        return isinstance(other, BetaDensity) and self.a == other.a and self.b == other.b

    def __repr__(self):
        return "BetaDensity(%g, %g)" % (self.a, self.b)


# the most mass a parsed Beta law may put on one float
MAX_ATOM = 1e-6


def _parse_beta(args):
    """Parse "a,b"; refuse a law that piles mass on one float.

    Draws are ppf values, so a law with a visible share of its mass on the
    float next to 0, the float next to 1 or the float at its mode repeats
    a locus or leaves no float inside an active interval. The share of a
    float is the mass between it and its neighbour.
    """
    parts = args.split(",")
    if len(parts) != 2:
        raise ValueError("beta density takes two shapes, e.g. beta:2,2")
    d = BetaDensity(float(parts[0]), float(parts[1]))
    shares = [d.cdf(5e-324), 1.0 - d.cdf(math.nextafter(1.0, 0.0))]
    if d.a > 1.0 and d.b > 1.0:
        mode = (d.a - 1.0) / (d.a + d.b - 2.0)
        at = d.cdf(mode)
        shares += [d.cdf(math.nextafter(mode, 1.0)) - at, at - d.cdf(math.nextafter(mode, 0.0))]
    if max(shares) > MAX_ATOM:
        raise ValueError(
            "beta:%s puts %.2g of its mass on one float (at most %g)" % (args, max(shares), MAX_ATOM)
        )
    return d


def parse_density(spec):
    """Parse a tagged density spec string like "uniform" or "beta:2,2"."""
    tag, _, args = spec.partition(":")
    tag = tag.strip().lower()
    if tag == "beta":
        return _parse_beta(args)
    if tag != "uniform":
        raise ValueError("unknown density %r (known: beta, uniform)" % spec)
    if args:
        raise ValueError("uniform density takes no parameters, got uniform:%s" % args)
    return UniformDensity()
