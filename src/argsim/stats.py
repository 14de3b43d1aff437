"""Statistical harness: summary batches and the test battery.

The two engines must agree in distribution on every functional of the
event path; this module turns that claim into concrete tests. One function
computes the Kolmogorov-Smirnov distance of a sample from a CDF; the
two-sample D is that of one sample from the other's empirical CDF, so the
battery runs the code the closed-form tests check. P-values come from
scipy.special: kolmogorov, the Kolmogorov survival function, for KS, and
gammaincc, the regularized upper incomplete gamma function, for chi-square.

Test p-values are meant for pinned-seed CI runs: at alpha = 0.001 a
correct implementation fails a given test about once per thousand seeds,
while a known-broken engine fails immediately. That broken engine (the
shared-prefix rule switched off) lives in the tests, as a fixture that
patches state.active_interval; nothing here knows about it.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from .arg import summary
from .backintime import simulate_backintime
from .spatial import simulate_spatial


# scipy is bound on first use, as in density.py, so importing the package
# does not load it
def _kolmogorov(x):
    global _kolmogorov
    from scipy.special import kolmogorov as _kolmogorov

    return _kolmogorov(x)


def _gammaincc(a, x):
    global _gammaincc
    from scipy.special import gammaincc as _gammaincc

    return _gammaincc(a, x)


def _ks_distance(sample, cdf):
    """sup |F_n - cdf| for a nonempty sample's empirical CDF F_n.

    Tied sample values are grouped, and the lower comparison uses the CDF's
    left limit (evaluated one ulp below), so a step CDF sitting exactly on
    a degenerate sample scores D = 0 as it should.
    """
    xs = sorted(sample)
    n = len(xs)
    d = 0.0
    i = 0
    while i < n:
        x = xs[i]
        j = i
        while j < n and xs[j] == x:
            j += 1
        d = max(d, j / n - cdf(x), cdf(math.nextafter(x, -math.inf)) - i / n)
        i = j
    return max(0.0, d)


def ks_two_sample(a, b):
    """Two-sample KS: (D, asymptotic p-value).

    D is the distance of a from b's empirical CDF. a's CDF is flat between
    a's points, so the sup of the gap sits at one of them or just below
    it, with the counts and divisions of a merge of the pooled samples.
    """
    if not a or not b:
        raise ValueError("KS needs nonempty samples")
    ys = sorted(b)
    na, nb = len(a), len(ys)
    d = _ks_distance(a, lambda x: bisect_right(ys, x) / nb)
    return d, float(_kolmogorov(math.sqrt(na * nb / (na + nb)) * d))


def ks_one_sample(sample, cdf):
    """One-sample KS against an analytic CDF callable: (D, p-value)."""
    if not sample:
        raise ValueError("KS needs a nonempty sample")
    d = _ks_distance(sample, cdf)
    return d, float(_kolmogorov(math.sqrt(len(sample)) * d))


def ks_one_sample_with_atom(sample, cont_cdf, atom_mass):
    """KS for a law with a continuous part below 1 plus an atom at 1.

    cont_cdf is the unconditional sub-CDF of the continuous part (so it
    tends to 1 - atom_mass as x -> 1). Returns (D, p) for the continuous
    draws conditioned below 1, plus the z-score of the observed atom
    frequency against atom_mass.
    """
    cont = [x for x in sample if x < 1.0]
    n = len(sample)
    if not (0.0 < atom_mass < 1.0):
        raise ValueError("atom mass must lie in (0,1)")
    if not cont:
        raise ValueError("no continuous draws below the atom")
    scale = 1.0 - atom_mass
    d, p = ks_one_sample(cont, lambda x: cont_cdf(x) / scale)
    freq = (n - len(cont)) / n
    z = (freq - atom_mass) / math.sqrt(atom_mass * scale / n)
    return d, p, z


# the smallest expected cell count a chi-square test lets stand
MIN_EXPECTED = 5.0


def chi_square(observed, expected_weights):
    """Pearson goodness of fit: (stat, p, dof).

    expected_weights are scaled to the observed total; every expected
    count must be at least 5.
    """
    if len(observed) != len(expected_weights) or len(observed) < 2:
        raise ValueError("need matching bins, at least two")
    total = sum(observed)
    wsum = math.fsum(expected_weights)
    if not all(w > 0 for w in expected_weights):
        raise ValueError("expected weights must be positive")
    expected = [w / wsum * total for w in expected_weights]
    if min(expected) < MIN_EXPECTED:
        raise ValueError("expected count below 5; merge bins first")
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    return stat, float(_gammaincc(dof / 2.0, stat / 2.0)), dof


def chi_square_two_sample(a, b):
    """Homogeneity chi-square for two integer-valued samples.

    Values are binned by exact value; sparse adjacent bins are merged from
    the right until every expected cell count reaches MIN_EXPECTED.
    """
    ca, cb = Counter(a), Counter(b)
    na, nb = len(a), len(b)
    # merge right-to-left into the neighbor until all expected counts clear
    merged = []
    acc_a = acc_b = 0
    for v in sorted(ca.keys() | cb.keys(), reverse=True):
        acc_a += ca[v]
        acc_b += cb[v]
        tot = acc_a + acc_b
        if tot * na / (na + nb) >= MIN_EXPECTED and tot * nb / (na + nb) >= MIN_EXPECTED:
            merged.append((acc_a, acc_b))
            acc_a = acc_b = 0
    # leftover low bins join the leftmost merged bin (none merged: one cell)
    if merged:
        la, lb = merged[-1]
        merged[-1] = (la + acc_a, lb + acc_b)
    merged.reverse()
    if len(merged) < 2:
        # distributions are concentrated on one cell: identical by construction
        return 0.0, 1.0, 0
    stat = 0.0
    for oa, ob in merged:
        tot = oa + ob
        ea = tot * na / (na + nb)
        eb = tot * nb / (na + nb)
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    dof = len(merged) - 1
    return stat, float(_gammaincc(dof / 2.0, stat / 2.0)), dof


def mean_difference_z(a, b):
    """Two-sample z statistic for the mean difference: (z, p, se)."""
    na, nb = len(a), len(b)
    if min(na, nb) < 2:
        raise ValueError("mean difference needs at least 2 values per sample, got %d and %d" % (na, nb))
    ma = math.fsum(a) / na
    mb = math.fsum(b) / nb
    va = math.fsum((x - ma) ** 2 for x in a) / (na - 1)
    vb = math.fsum((x - mb) ** 2 for x in b) / (nb - 1)
    se = math.sqrt(va / na + vb / nb)
    if se == 0.0:
        return 0.0, 1.0, 0.0
    z = (ma - mb) / se
    return z, math.erfc(abs(z) / math.sqrt(2.0)), se


def kingman_expectations(n):
    """Closed-form mean tree height and mean total length for n leaves."""
    if n < 2:
        raise ValueError("need n >= 2")
    height = 2.0 * (1.0 - 1.0 / n)
    length = 2.0 * math.fsum(1.0 / k for k in range(1, n))
    return height, length


@dataclass
class TestReport:
    __test__ = False  # not a pytest class despite the name

    name: str
    n_a: int
    n_b: int
    statistic: float
    p_value: float
    passed: bool

    def csv_row(self):
        return "%s,%d,%d,%.6g,%.6g,%s" % (
            self.name, self.n_a, self.n_b, self.statistic, self.p_value,
            "pass" if self.passed else "FAIL",
        )


CSV_HEADER = "statistic,engineA_n,engineB_n,stat,p,pass"


# The one engine registry (cli imports it). Values stay bare functions:
# perfbench's tracer rebinds functions held in module-global dicts.
ENGINES = {
    "backintime": simulate_backintime,
    "spatial": simulate_spatial,
}


def _one_replicate(task):
    engine, config, sites = task
    return summary(ENGINES[engine](config), sites=sites)


def run_replicates(engine, config, reps, sites=(0.0,), threads=None):
    """Simulate replicates 0 .. reps - 1 of config and collect their summaries.

    Child seeds are derived per replicate, so the batch gives the same
    result at any thread count. threads defaults to the CPU count; at most
    min(threads, reps, CPU count) worker processes start.
    """
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % engine)
    cpus = os.cpu_count() or 1
    workers = min(cpus if threads is None else threads, reps, cpus)
    tasks = [(engine, config.with_replicate(r), tuple(sites)) for r in range(reps)]
    if workers <= 1 or reps < 64:
        return [_one_replicate(t) for t in tasks]
    from multiprocessing import Pool

    with Pool(processes=workers) as pool:
        return pool.map(_one_replicate, tasks, chunksize=max(1, reps // (workers * 8)))


def equivalence_report(config, reps, sites=(0.0, 0.5), alpha=0.001, threads=None):
    """Run both engines and test every summary statistic for agreement.

    Each engine runs replicates 0 .. reps - 1 of config. Returns (reports,
    samples), samples mapping engine name to its summary list. The rows
    are the table below, in CSV order: a name, a two-sample test (statistic
    and p-value first) and the SummaryStats getter it reads. A new row is
    one table line, a re-recorded COMPARE_PINNED and a change to
    perfbench's fixed row count (ROADMAP item 1). The event count gets no
    row: it is n - 1 + 2 * breakpoints, so its chi-square would repeat the
    breakpoint row. alpha is per test; the chance of a stray failure stays
    near len(reports) * alpha (union bound).
    """
    a = run_replicates("backintime", config, reps, sites, threads)
    b = run_replicates("spatial", config, reps, sites, threads)
    # built per call, not at import: perfbench's tracer rebinds module globals, not list items
    battery = [
        *[("tmrca_ks_site_%g" % s, ks_two_sample, lambda x, s=s: x.tmrca_at[s]) for s in sites],
        *[("length_ks_site_%g" % s, ks_two_sample, lambda x, s=s: x.length_at[s]) for s in sites],
        ("grand_mrca_ks", ks_two_sample, attrgetter("grand_mrca")),
        ("breakpoints_chi2", chi_square_two_sample, attrgetter("breakpoint_count")),
        ("max_lineages_chi2", chi_square_two_sample, attrgetter("max_lineages")),
        ("breakpoints_mean_z", mean_difference_z, attrgetter("breakpoint_count")),
    ]
    reports = []
    for name, test, statistic in battery:
        xs, ys = [statistic(x) for x in a], [statistic(y) for y in b]
        stat, p = test(xs, ys)[:2]
        reports.append(TestReport(name, len(xs), len(ys), stat, p, p > alpha))
    return reports, {"backintime": a, "spatial": b}


def render_report_table(reports):
    width = max(len(r.name) for r in reports)
    lines = ["%-*s  %10s  %10s  %s" % (width, "statistic", "stat", "p", "result")]
    for r in reports:
        lines.append(
            "%-*s  %10.4g  %10.4g  %s" % (width, r.name, r.statistic, r.p_value, "pass" if r.passed else "FAIL")
        )
    return "\n".join(lines)
