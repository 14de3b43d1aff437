"""Statistics harness tests.

The KS machinery is checked against scipy (scipy.special.kolmogorov and
scipy.stats.ks_2samp serve as independent oracles) and against its own
advertised operating characteristics via meta-trials.
"""

import math
import random
import statistics
from fractions import Fraction

import pytest
import scipy.special
import scipy.stats

from argsim import stats
from argsim.arg import SummaryStats
from argsim.config import SimConfig
from argsim.stats import (
    CSV_HEADER,
    TestReport,
    chi_square,
    chi_square_two_sample,
    equivalence_report,
    kingman_expectations,
    ks_one_sample,
    ks_one_sample_with_atom,
    ks_two_sample,
    mean_difference_z,
    render_report_table,
    run_replicates,
)
from conftest import run_fresh, two_locus_moments


def test_ks_two_sample_extremes():
    a = [0.1, 0.2, 0.3, 0.4]
    d, p = ks_two_sample(a, list(a))
    assert d == 0.0 and p == 1.0
    lo = [random.Random(1).random() for _ in range(300)]
    hi = [x + 10.0 for x in lo]
    d, p = ks_two_sample(lo, hi)
    assert d == 1.0
    assert p < 1e-6
    # sqrt(50) * D = 7.07: the Kolmogorov tail is about 2 exp(-100), small
    # but not zero
    d, p = ks_two_sample(list(range(100)), [x + 1000 for x in range(100)])
    assert d == 1.0
    assert p > 0.0
    assert p == float(scipy.special.kolmogorov(math.sqrt(50.0)))


# the two-sample p-values in call order, the first call of each being the
# one that binds scipy, each next to scipy's own value at the same argument
FIRST_AND_LATER_P_VALUES = """
import json, math, random
from argsim.stats import chi_square_two_sample, ks_two_sample

rng = random.Random(3)
samples = [([rng.random() for _ in range(na)], [rng.random() ** 1.3 for _ in range(nb)])
           for na, nb in ((30, 40), (100, 100), (7, 250))]
ks = [ks_two_sample(a, b) + (len(a) * len(b) / (len(a) + len(b)),) for a, b in samples]
counts = [([rng.randrange(k) for _ in range(200)], [rng.randrange(k) for _ in range(150)])
          for k in (3, 6, 10)]
chi = [chi_square_two_sample(a, b) for a, b in counts]

import scipy.special
from argsim import stats

assert stats._kolmogorov is scipy.special.kolmogorov
assert stats._gammaincc is scipy.special.gammaincc
print(json.dumps(
    [[p, float(scipy.special.kolmogorov(math.sqrt(ne) * d))] for d, p, ne in ks]
    + [[p, float(scipy.special.gammaincc(dof / 2.0, stat / 2.0))] for stat, p, dof in chi]))
"""


def test_first_p_value_binds_scipy_and_returns_its_floats():
    pairs = run_fresh(FIRST_AND_LATER_P_VALUES)
    assert len(pairs) == 6
    assert all(0.0 < p < 1.0 for p, _ in pairs)  # no pair is a trivial 0 or 1
    assert [pair for pair in pairs if pair[0] != pair[1]] == []


def test_ks_two_sample_statistic_matches_scipy():
    rng = random.Random(8)
    for trial in range(20):
        a = [rng.gauss(0.0, 1.0) for _ in range(40 + trial)]
        b = [rng.gauss(0.2, 1.3) for _ in range(55)]
        d, p = ks_two_sample(a, b)
        ref = scipy.stats.ks_2samp(a, b, method="asymp")
        assert d == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_two_sample_handles_ties():
    a = [0.0, 0.0, 1.0, 1.0]
    b = [0.0, 1.0, 1.0, 1.0]
    d, p = ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert d == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_null_rejection_rate():
    rng = random.Random(314)
    worst = 1.0
    failures_mild = 0
    failures_strict = 0
    trials = 600
    for _ in range(trials):
        a = [rng.expovariate(1.0) for _ in range(300)]
        b = [rng.expovariate(1.0) for _ in range(300)]
        d, p = ks_two_sample(a, b)
        worst = min(worst, p)
        failures_mild += p < 0.05
        failures_strict += p < 0.001
    # a level-alpha test on null data: mild failures near 5%, strict near 0
    assert 0.01 <= failures_mild / trials <= 0.10
    assert failures_strict <= 3
    assert worst > 1e-6


def test_ks_detects_a_real_shift():
    rng = random.Random(99)
    a = [rng.expovariate(1.0) for _ in range(2000)]
    b = [rng.expovariate(1.3) for _ in range(2000)]
    d, p = ks_two_sample(a, b)
    assert p < 1e-6


def test_ks_one_sample_against_known_law():
    rng = random.Random(21)
    sample = [rng.expovariate(2.0) for _ in range(3000)]
    d, p = ks_one_sample(sample, lambda x: -math.expm1(-2.0 * x))
    assert p > 1e-4
    d, p = ks_one_sample(sample, lambda x: -math.expm1(-1.0 * x))
    assert p < 1e-9


def test_ks_one_sample_degenerate_step():
    # a constant sample against its own step law is a perfect fit
    d, p = ks_one_sample([2.0] * 50, lambda x: 1.0 if x >= 2.0 else 0.0)
    assert d == 0.0 and p == 1.0


def test_ks_one_sample_with_atom():
    rng = random.Random(4)
    atom = math.exp(-2.0)
    sample = []
    for _ in range(20000):
        u = rng.random()
        sample.append(1.0 if u <= atom else -math.log(u) / 2.0)
    d, p, z = ks_one_sample_with_atom(sample, lambda s: -math.expm1(-2.0 * s), atom)
    assert p > 1e-4 and abs(z) < 3.5
    with pytest.raises(ValueError):
        ks_one_sample_with_atom(sample, lambda s: s, 0.0)
    with pytest.raises(ValueError):
        ks_one_sample_with_atom([1.0, 1.0], lambda s: s, 0.5)


def test_chi_square_exact_values():
    stat, p, dof = chi_square([50, 50], [1.0, 1.0])
    assert stat == 0.0 and p == 1.0 and dof == 1
    stat, p, dof = chi_square([60, 40], [0.5, 0.5])
    assert stat == pytest.approx(4.0)
    assert p == pytest.approx(0.04550026, abs=1e-6)
    stat, p, dof = chi_square([5098, 4902], [1.0, 1.0])
    assert stat == pytest.approx(3.8416)
    assert abs(p - 0.05) < 1e-3
    stat, p, dof = chi_square([10, 20, 30], [1.0, 2.0, 3.0])
    assert stat == 0.0 and dof == 2


def test_chi_square_guards():
    with pytest.raises(ValueError):
        chi_square([100], [1.0])
    with pytest.raises(ValueError):
        chi_square([1, 2], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        chi_square([100, 2], [0.99, 0.01])  # expected cell below 5


def test_chi_square_two_sample_basics():
    a = [0] * 40 + [1] * 35 + [2] * 25
    stat, p, dof = chi_square_two_sample(a, list(a))
    assert stat == 0.0 and p == 1.0 and dof == 2
    stat, p, dof = chi_square_two_sample([0] * 100, [0] * 90)
    assert (stat, p, dof) == (0.0, 1.0, 0)


def test_chi_square_two_sample_merges_sparse_tail():
    rng = random.Random(3)
    a = [min(int(rng.expovariate(0.7)), 12) for _ in range(400)]
    b = [min(int(rng.expovariate(0.7)), 12) for _ in range(400)]
    stat, p, dof = chi_square_two_sample(a, b)
    assert dof >= 1
    assert p > 1e-6  # same law: should not blow up even with sparse tails
    shifted = [x + 2 for x in a]
    stat, p, dof = chi_square_two_sample(a, shifted)
    assert p < 1e-9


@pytest.mark.parametrize("a, b, want", [
    # the low bin 0 is too sparse and joins bin 1, the leftmost merged bin
    ([0] * 3 + [1] * 20 + [2] * 40, [0] + [1] * 30 + [2] * 30, (2.582170289690456, 0.10807339279504619, 1)),
    # sparse at both ends: 3 and 4 merge into 2, and 0 joins 1
    ([0] * 3 + [1] * 20 + [2] * 40 + [3] * 2, [0] + [1] * 30 + [2] * 30 + [4],
     (2.77340085079811, 0.09584233625879877, 1)),
    # every bin too sparse: one cell
    ([0, 1, 2], [1, 2, 3], (0.0, 1.0, 0)),
    # the leftover joins the only merged bin: one cell
    ([5] * 10 + [0, 1], [5] * 10 + [2], (0.0, 1.0, 0)),
])
def test_chi_square_two_sample_merges_sparse_low_bins_leftward(a, b, want):
    assert chi_square_two_sample(a, b) == want


def test_chi_square_two_sample_detects_rate_change():
    rng = random.Random(12)
    a = [int(rng.expovariate(1.0)) for _ in range(2000)]
    b = [int(rng.expovariate(0.7)) for _ in range(2000)]
    stat, p, dof = chi_square_two_sample(a, b)
    assert p < 1e-6


def test_mean_difference_z():
    z, p, se = mean_difference_z([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert z == 0.0 and p == 1.0
    rng = random.Random(6)
    a = [rng.gauss(0.0, 1.0) for _ in range(4000)]
    b = [rng.gauss(0.3, 1.0) for _ in range(4000)]
    z, p, se = mean_difference_z(a, b)
    assert p < 1e-9 and z < 0.0
    assert se == pytest.approx(math.sqrt(2.0 / 4000.0), rel=0.1)
    z, p, se = mean_difference_z([5.0, 5.0], [5.0, 5.0])
    assert (z, p) == (0.0, 1.0)


def test_kingman_expectations_closed_form():
    assert kingman_expectations(2) == (1.0, 2.0)
    t6, l6 = kingman_expectations(6)
    assert t6 == pytest.approx(5.0 / 3.0)
    assert l6 == pytest.approx(2.0 * (1 + 0.5 + 1 / 3 + 0.25 + 0.2))
    with pytest.raises(ValueError):
        kingman_expectations(1)


def test_run_replicates_deterministic_and_thread_invariant():
    kwargs = dict(config=SimConfig(n_samples=3, rho=0.5, density="uniform", seed=40), reps=64, sites=(0.0,))
    serial = run_replicates("backintime", threads=1, **kwargs)
    again = run_replicates("backintime", threads=1, **kwargs)
    assert serial == again
    pooled = run_replicates("backintime", threads=2, **kwargs)
    assert pooled == serial
    assert [s.replicate for s in serial] == list(range(64))
    with pytest.raises(ValueError):
        run_replicates("sideways", SimConfig(n_samples=3, rho=0.5, density="uniform", seed=40), 4)


@pytest.mark.parametrize("threads, cpus, workers", [
    (100000, 4, 4),  # bounded by the CPU count
    (100000, 1000, 64),  # bounded by the replicate count
    (3, 4, 3),
    (None, 8, 8),
])
def test_run_replicates_starts_at_most_one_worker_per_cpu_and_replicate(monkeypatch, threads, cpus, workers):
    # a stand-in Pool records what it is asked for and maps serially, so
    # no process starts whatever the thread count
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            started.append(chunksize)
            return [fn(t) for t in tasks]

    config = SimConfig(n_samples=3, rho=0.5, seed=40)
    serial = run_replicates("backintime", config, 64, threads=1)
    monkeypatch.setattr("multiprocessing.Pool", SerialPool)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: cpus)
    assert run_replicates("backintime", config, 64, threads=threads) == serial
    assert started == [workers, max(1, 64 // (workers * 8))]


@pytest.mark.parametrize("engine", ["backintime", "spatial"])
def test_two_site_tmrca_correlation_matches_hudson(engine):
    # The joint law along the sequence, anchored in closed form: for n=2,
    # corr(T_0, T_s) = (R + 18) / (R^2 + 13 R + 18) with R = rho * mass(0, s)
    # (Hudson 1983, Theor Pop Biol 23:183); 0.3612 at rho=5, s=0.5. Over
    # 30 seeds (11-40) of 4000 replicates, the estimate had sd 0.020 for
    # backintime and 0.019 for spatial, and its largest distance from
    # 0.3612 was 0.038; the band is 3 sd. Independent sites (corr 0) or a
    # doubled recombination rate (0.213) fall far outside it.
    rho, s = 5.0, 0.5
    r = rho * s
    want = (r + 18.0) / (r * r + 13.0 * r + 18.0)
    batch = run_replicates(engine, SimConfig(n_samples=2, rho=rho, density="uniform", seed=11), 4000,
                           sites=(0.0, s), threads=1)
    got = statistics.correlation([x.tmrca_at[0.0] for x in batch], [x.tmrca_at[s] for x in batch])
    assert abs(got - want) < 0.06, (engine, got, want)


@pytest.mark.parametrize("engine", ["backintime", "spatial"])
def test_two_site_shared_mrca_matches_exact_law(engine):
    # For n=2 the two sites coalesce in the same event (T_0 == T_s exactly)
    # with probability (R + 18) / (R^2 + 13 R + 18), R = rho * mass(0, s),
    # from the two-locus chain with three transient states: two doubles;
    # one double and two singles; four singles (Griffiths 1981, Theor Pop
    # Biol 19:169; Simonsen & Churchill 1997, Theor Pop Biol 52:43). At
    # rho=2, s=0.5 that is 19/32; the binomial z-test has sd 0.0049 at
    # 10^4 replicates, so a doubled rate (0.42) is far outside it.
    rho, s, reps = 2.0, 0.5, 10000
    r = rho * s
    want = (r + 18.0) / (r * r + 13.0 * r + 18.0)
    batch = run_replicates(engine, SimConfig(n_samples=2, rho=rho, density="uniform", seed=77), reps,
                           sites=(0.0, s), threads=1)
    hits = sum(x.tmrca_at[0.0] == x.tmrca_at[s] for x in batch)
    z = (hits - reps * want) / math.sqrt(reps * want * (1.0 - want))
    assert abs(z) < 4.0, (engine, hits / reps, want, z)


@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_two_locus_chain_gives_griffiths_law_at_two_samples(r):
    # at n=2, Var(T) = E[T] = 1, so E[T_a T_b] - 1 is the correlation; it
    # and P(T_a = T_b) both equal (R + 18) / (R^2 + 13 R + 18)
    ett, p_same, _ = two_locus_moments(2, r)
    want = Fraction(r + 18, r * r + 13 * r + 18)
    assert (ett - 1, p_same) == (want, want)


def test_two_locus_chain_without_recombination_is_one_kingman_tree():
    # T = sum of Exp(C(k, 2)) and L = sum of k Exp(C(k, 2)), k = 2 .. 4:
    # E[T^2] = 41/36 + (3/2)^2 and E[L^2] = 4 (1 + 1/4 + 1/9) + (11/3)^2
    assert two_locus_moments(4, 0) == (Fraction(61, 18), 1, Fraction(170, 9))


def test_equivalence_report_null_battery():
    reports, samples = equivalence_report(
        SimConfig(n_samples=3, rho=0.5, density="uniform", seed=2718), reps=400, threads=1
    )
    names = [r.name for r in reports]
    assert names == [
        "tmrca_ks_site_0",
        "tmrca_ks_site_0.5",
        "length_ks_site_0",
        "length_ks_site_0.5",
        "grand_mrca_ks",
        "breakpoints_chi2",
        "max_lineages_chi2",
        "breakpoints_mean_z",
    ]
    for r in reports:
        assert r.passed, render_report_table(reports)
    assert len(samples["backintime"]) == len(samples["spatial"]) == 400
    reports2, _ = equivalence_report(
        SimConfig(n_samples=3, rho=0.5, density="uniform", seed=2718), reps=400, threads=1
    )
    assert [(r.name, r.statistic, r.p_value) for r in reports] == [
        (r.name, r.statistic, r.p_value) for r in reports2
    ]


def test_breakpoints_mean_z_uses_alpha(monkeypatch):
    # hand-made summaries whose breakpoint means differ by z = 3.1: the row
    # must follow --alpha like every other row, with no fixed |z| cut
    counts = {"backintime": [0, 2] * 100, "spatial": [1, 3] * 33 + [0, 2] * 67}

    def fake(engine, config, reps, sites=(0.0,), threads=None):
        return [
            SummaryStats(replicate=r, breakpoint_count=bp, grand_mrca=1.0 + r, max_lineages=3,
                         tmrca_at={s: 1.0 + r for s in sites}, length_at={s: 2.0 + r for s in sites})
            for r, bp in enumerate(counts[engine])
        ]

    monkeypatch.setattr(stats, "run_replicates", fake)
    rows = {}
    for alpha in (1e-6, 0.01):
        reports, _ = equivalence_report(SimConfig(n_samples=3, rho=1.0, density="uniform", seed=0), 200,
                                        sites=(0.0,), alpha=alpha)
        (rows[alpha],) = [r for r in reports if r.name == "breakpoints_mean_z"]
    assert -3.15 < rows[0.01].statistic < -3.05
    assert 1e-6 < rows[0.01].p_value < 0.01
    assert rows[1e-6].passed and not rows[0.01].passed


def test_report_csv_row_and_table():
    r = TestReport("tmrca_ks_site_0", 100, 200, 0.123456789, 0.000123456789, False)
    assert r.csv_row() == "tmrca_ks_site_0,100,200,0.123457,0.000123457,FAIL"
    ok = TestReport("grand_mrca_ks", 10, 10, 0.0, 1.0, True)
    assert ok.csv_row().endswith(",pass")
    assert CSV_HEADER.split(",") == ["statistic", "engineA_n", "engineB_n", "stat", "p", "pass"]
    table = render_report_table([r, ok])
    assert "FAIL" in table and "pass" in table and table.splitlines()[0].startswith("statistic")
