"""Breakpoint density tests: uniform and beta families, parsing, sampling,
and both engines' coupling of a Beta path to the uniform one."""

import itertools
import math

import pytest
from scipy.integrate import quad
from scipy.special import betaincinv

from argsim.config import SimConfig
from argsim.density import BetaDensity, UniformDensity, parse_density
from argsim.rng import SimRng
from argsim.state import Recombine
from argsim.stats import ENGINES, ks_one_sample
from conftest import run_fresh


def test_uniform_basic_values():
    d = UniformDensity()
    assert d.pdf(0.5) == 1.0
    assert d.pdf(-0.1) == 0.0 and d.pdf(1.5) == 0.0
    assert d.cdf(0.3) == 0.3
    assert d.ppf(0.7) == 0.7
    assert d.mass(0.2, 0.6) == pytest.approx(0.4)
    assert d.spec == "uniform"


def test_beta22_closed_form():
    d = BetaDensity(2.0, 2.0)
    # density 6 s (1-s); distribution s^2 (3 - 2 s)
    assert d.pdf(0.5) == pytest.approx(1.5)
    assert d.cdf(0.3) == pytest.approx(0.216, abs=1e-12)
    assert d.cdf(0.7) == pytest.approx(0.784, abs=1e-12)
    assert d.mass(0.3, 1.0) == pytest.approx(0.784, abs=1e-12)
    assert d.spec == "beta:2,2"


@pytest.mark.parametrize("a,b", [(2.0, 2.0), (0.5, 0.5), (1.0, 3.0), (5.0, 1.5)])
def test_beta_pdf_integrates_to_one(a, b):
    d = BetaDensity(a, b)
    total, err = quad(d.pdf, 0.0, 1.0, limit=200)
    assert abs(total - 1.0) < 1e-9


@pytest.mark.parametrize("a,b", [(2.0, 2.0), (0.5, 0.5), (1.0, 3.0), (5.0, 1.5)])
def test_beta_cdf_matches_quadrature(a, b):
    d = BetaDensity(a, b)
    for s in (0.1, 0.25, 0.5, 0.9):
        val, err = quad(d.pdf, 0.0, s, limit=200)
        assert d.cdf(s) == pytest.approx(val, abs=1e-9)


def test_beta_ppf_inverts_cdf():
    d = BetaDensity(2.0, 3.0)
    for q in (0.01, 0.2, 0.5, 0.8, 0.99):
        s = d.ppf(q)
        assert d.cdf(s) == pytest.approx(q, abs=1e-10)
        assert s == pytest.approx(betaincinv(2.0, 3.0, q), abs=1e-9)


# BetaDensity's cdf and ppf in call order, the first call being the one
# that binds scipy, each next to scipy's own value at the same arguments
FIRST_AND_LATER_BETA_CALLS = """
import json
from argsim.density import BetaDensity

laws = [(5.0, 1.0), (0.5, 0.5), (2.0, 2.0)]  # asymmetric first: a swap of a and b shows
points = [1e-300, 1e-9, 0.01, 0.25, 0.5, 0.7, 0.99, 1.0 - 1e-12]
calls = [(method, a, b, x, getattr(BetaDensity(a, b), method)(x))
         for a, b in laws for x in points for method in ("cdf", "ppf")]

import scipy.special
from argsim import density

scipy_fn = {"cdf": scipy.special.betainc, "ppf": scipy.special.betaincinv}
assert density._betainc is scipy.special.betainc
assert density._betaincinv is scipy.special.betaincinv
print(json.dumps([call + (float(scipy_fn[call[0]](*call[1:4])),) for call in calls]))
"""


def test_beta_first_call_binds_scipy_and_returns_its_floats():
    calls = run_fresh(FIRST_AND_LATER_BETA_CALLS)
    assert len(calls) == 48
    assert [call for call in calls if call[4] != call[5]] == []


def bisect_ppf(density, q):
    """Oracle inverse CDF: bisect (0, 1) until no float lies between the ends."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        if density.cdf(mid) < q:
            lo = mid
        else:
            hi = mid


SHAPES = (0.01, 0.5, 1.0, 2.0, 30.0, 1000.0)


@pytest.mark.parametrize("a,b", list(itertools.product(SHAPES, SHAPES)))
def test_beta_ppf_matches_a_bisection_oracle(a, b):
    d = BetaDensity(a, b)
    for q in (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999):
        assert abs(d.ppf(q) - bisect_ppf(d, q)) <= 1e-12, q
    assert d.ppf(0.0) == 0.0 and d.ppf(1.0) == 1.0


class FixedRng:
    def __init__(self, u):
        self.u = u

    def uniform(self):
        return self.u


@pytest.mark.parametrize("density", [UniformDensity(), BetaDensity(2.0, 2.0), BetaDensity(0.5, 0.5)])
@pytest.mark.parametrize("lo", [0.25, 0.75])
def test_truncated_draw_on_one_inner_float_returns_it(density, lo):
    inner = math.nextafter(lo, 1.0)
    hi = math.nextafter(inner, 1.0)
    for u in (1e-12, 0.5, 1.0 - 2.0 ** -53):
        assert density.sample_truncated(FixedRng(u), lo, hi) == inner


@pytest.mark.parametrize("density", [UniformDensity(), BetaDensity(2.0, 2.0)])
def test_truncated_draw_never_lands_on_an_end(density):
    lo, hi = 0.5, math.nextafter(math.nextafter(math.nextafter(0.5, 1.0), 1.0), 1.0)
    for u in (1e-300, 1e-12, 0.5, 1.0 - 2.0 ** -53):
        assert lo < density.sample_truncated(FixedRng(u), lo, hi) < hi


def test_uniform_truncated_sampling_is_uniform():
    d = UniformDensity()
    rng = SimRng(7)
    draws = [d.sample_truncated(rng, 0.3, 1.0) for _ in range(20000)]
    assert all(0.3 < s < 1.0 for s in draws)
    _, p = ks_one_sample(draws, lambda s: (s - 0.3) / 0.7)
    assert p > 1e-6


def test_beta_truncated_sampling_matches_conditional_law():
    d = BetaDensity(2.0, 2.0)
    rng = SimRng(11)
    lo, hi = 0.2, 0.7
    draws = [d.sample_truncated(rng, lo, hi) for _ in range(20000)]
    assert all(lo < s < hi for s in draws)
    denom = d.mass(lo, hi)
    _, p = ks_one_sample(draws, lambda s: d.mass(lo, min(s, hi)) / denom)
    assert p > 1e-6


# (engine, n, rho, most interior CDF reads per recombination), at the n
# and rho of perfbench's two log workloads. Backintime reads F once at
# each locus it draws and draws from the values it holds, so it reads
# exactly one; spatial reads F(s_cur) once per stage, F(s_new) once per
# trace and the gap's lower end once per ride step, about 2.5 here.
CDF_WORK = (("backintime", 20, 15.0, 1.0), ("spatial", 20, 10.0, 2.6))


@pytest.mark.parametrize("engine, n, rho, most", CDF_WORK)
def test_each_beta_cdf_value_is_read_once(monkeypatch, engine, n, rho, most):
    config = SimConfig(n, rho, "beta:2,2", 11)  # the law's parse reads F; it does not count
    reads = {"cdf": 0, "ppf": 0}
    cdf, ppf = BetaDensity.cdf, BetaDensity.ppf

    def counted_cdf(self, s):
        reads["cdf"] += 0.0 < s < 1.0
        return cdf(self, s)

    def counted_ppf(self, q):
        reads["ppf"] += 1
        return ppf(self, q)

    monkeypatch.setattr(BetaDensity, "cdf", counted_cdf)
    monkeypatch.setattr(BetaDensity, "ppf", counted_ppf)
    recombinations = sum(
        isinstance(event, Recombine)
        for r in range(30) for event in ENGINES[engine](config.with_replicate(r)).events
    )
    assert recombinations > 1000
    assert reads["ppf"] == recombinations  # one inversion per locus drawn
    assert recombinations <= reads["cdf"] <= most * recombinations


def test_parse_density():
    assert parse_density("uniform") == UniformDensity()
    assert parse_density("beta:2,2") == BetaDensity(2.0, 2.0)
    assert parse_density("beta:0.5,3") == BetaDensity(0.5, 3.0)
    # laws whose largest share on one end float or the mode float is at
    # most 1e-6 parse: 0, 9.5e-9 and 1.3e-40 here
    for spec in ("beta:2,2", "beta:0.5,0.5", "beta:0.1234567,2"):
        assert parse_density(spec).spec == spec
    # 9.1e-6 and 0.013 next to 1, all of it next to 0, all of it at the mode
    for spec in ("beta:0.3,0.3", "beta:0.1,0.1", "beta:1e-320,1", "beta:1e300,1e300"):
        with pytest.raises(ValueError, match="on one float"):
            parse_density(spec)
    with pytest.raises(ValueError):
        parse_density("beta:0,1")
    with pytest.raises(ValueError):
        parse_density("beta:2,-1")
    with pytest.raises(ValueError):
        parse_density("gauss")
    with pytest.raises(ValueError):
        parse_density("beta:1")
    with pytest.raises(ValueError):
        parse_density("uniform:junk")


def test_parse_density_messages():
    for spec, message in (
        ("gauss", "unknown density 'gauss' (known: beta, uniform)"),
        ("uniform:junk", "uniform density takes no parameters, got uniform:junk"),
        ("beta:1", "beta density takes two shapes, e.g. beta:2,2"),
    ):
        with pytest.raises(ValueError) as exc:
            parse_density(spec)
        assert str(exc.value) == message


def test_beta_pdf_is_zero_outside_the_open_unit_interval():
    d = BetaDensity(0.5, 0.5)
    assert [d.pdf(s) for s in (-0.5, 0.0, 1.0, 1.5)] == [0.0] * 4


def test_spec_roundtrip():
    for d in (UniformDensity(), BetaDensity(2.0, 2.0), BetaDensity(0.5, 4.0)):
        assert parse_density(d.spec) == d


def test_density_equality():
    assert BetaDensity(2, 2) == BetaDensity(2.0, 2.0)
    assert BetaDensity(2, 2) != BetaDensity(2, 3)
    assert UniformDensity() != BetaDensity(1, 1)


# The density is a coordinate. Loci enter the law only through their order
# and the mass between them, so the law under a density p is the uniform
# law with every locus moved through F^-1. Both engines draw every locus
# by inverting F and every waiting time from masses, so the coupling holds
# path by path: at one seed, a path under p has the uniform path's event
# kinds, ranks and count, each locus maps through F onto the uniform one,
# and each time is the uniform one. The gaps are float slack, measured at
# about 1e-13; the tolerance is 1e-9. (n, rho, paths) per shape, seeds from 17.
COUPLING_SHAPES = ((3, 1.0, 60), (6, 4.0, 40), (12, 10.0, 20))
BETA_LAWS = ("beta:2,2", "beta:0.5,0.5", "beta:5,1")


def _ranks(arg):
    return [(type(e), e.i, getattr(e, "j", None)) for e in arg.events]


def decoupled_paths(engine, spec):
    """Paths under ``spec`` that are not the uniform path moved through F.

    Returns the (n, rho, seed) of each such path and the number of uniform
    paths that recombine at least once.
    """
    density = parse_density(spec)
    simulate = ENGINES[engine]
    broken, recombining = [], 0
    for n, rho, paths in COUPLING_SHAPES:
        for seed in range(17, 17 + paths):
            flat = simulate(SimConfig(n, rho, "uniform", seed))
            path = simulate(SimConfig(n, rho, density, seed))
            recombining += any(isinstance(e, Recombine) for e in flat.events)
            if (
                _ranks(path) != _ranks(flat)
                or any(abs(density.cdf(e.locus) - f.locus) > 1e-9
                       for e, f in zip(path.events, flat.events) if isinstance(e, Recombine))
                or any(abs(t - s) > 1e-9 * s for t, s in zip(path.times, flat.times))
            ):
                broken.append((n, rho, seed))
    return broken, recombining


@pytest.mark.parametrize("engine", ["backintime", "spatial"])
def test_a_beta_path_is_the_uniform_path_through_the_cdf(engine):
    for spec in BETA_LAWS:
        broken, recombining = decoupled_paths(engine, spec)
        assert broken == [] and recombining > 100, spec


def test_a_density_blind_locus_breaks_the_coupling(density_blind_mutant):
    # every path that recombines draws some locus off the coupling
    for spec in BETA_LAWS:
        broken, recombining = decoupled_paths("backintime", spec)
        assert len(broken) == recombining > 100, spec


def test_a_density_blind_breakpoint_breaks_the_coupling(density_blind_spatial_mutant):
    for spec in BETA_LAWS:
        broken, recombining = decoupled_paths("spatial", spec)
        assert len(broken) == recombining > 100, spec
