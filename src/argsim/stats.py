"""Statistical harness: summary batches and the test battery.

The two engines must agree in distribution on every functional of the
event path; this module turns that claim into concrete tests. The
Kolmogorov-Smirnov statistics are computed here; their asymptotic p-values
come from scipy.special.kolmogorov, the survival function of the
Kolmogorov distribution. Chi-square p-values go through the regularized
upper incomplete gamma function.

Test p-values are meant for pinned-seed CI runs: at alpha = 0.001 a
correct implementation fails a given test about once per thousand seeds,
while a known-broken engine fails immediately. That broken engine (the
shared-prefix rule switched off) lives in the tests, as a fixture that
patches State.active_intervals; nothing here knows about it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from scipy.special import gammaincc, kolmogorov

from .arg import summary
from .backintime import simulate_backintime
from .config import SimConfig
from .spatial import simulate_spatial


def ks_two_sample(a, b):
    """Two-sample KS: (D, asymptotic p-value)."""
    if not a or not b:
        raise ValueError("KS needs nonempty samples")
    xs = sorted(a)
    ys = sorted(b)
    na, nb = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < na or j < nb:
        if j >= nb or (i < na and xs[i] <= ys[j]):
            x = xs[i]
        else:
            x = ys[j]
        # pass every copy of x in both samples before comparing: the sup of
        # the step-function gap sits just after the tied block
        while i < na and xs[i] == x:
            i += 1
        while j < nb and ys[j] == x:
            j += 1
        diff = abs(i / na - j / nb)
        if diff > d:
            d = diff
    ne = na * nb / (na + nb)
    return d, float(kolmogorov(math.sqrt(ne) * d))


def ks_one_sample(sample, cdf):
    """One-sample KS against an analytic CDF callable: (D, p-value).

    Tied sample values are grouped, and the lower comparison uses the CDF's
    left limit (evaluated one ulp below), so a step CDF sitting exactly on
    a degenerate sample scores D = 0 as it should.
    """
    if not sample:
        raise ValueError("KS needs a nonempty sample")
    xs = sorted(sample)
    n = len(xs)
    d = 0.0
    i = 0
    while i < n:
        j = i
        while j < n and xs[j] == xs[i]:
            j += 1
        x = xs[i]
        fx = cdf(x)
        f_left = cdf(math.nextafter(x, -math.inf))
        d = max(d, j / n - fx, f_left - i / n)
        i = j
    d = max(0.0, d)
    return d, float(kolmogorov(math.sqrt(n) * d))


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
    if min(expected) < 5.0:
        raise ValueError("expected count below 5; merge bins first")
    stat = math.fsum((o - e) ** 2 / e for o, e in zip(observed, expected))
    dof = len(observed) - 1
    return stat, float(gammaincc(dof / 2.0, stat / 2.0)), dof


def chi_square_two_sample(a, b, min_expected=5.0):
    """Homogeneity chi-square for two integer-valued samples.

    Values are binned by exact value; sparse adjacent bins are merged from
    the right until every expected cell count reaches min_expected.
    """
    values = sorted(set(a) | set(b))
    ca = {v: 0 for v in values}
    cb = {v: 0 for v in values}
    for x in a:
        ca[x] += 1
    for x in b:
        cb[x] += 1
    na, nb = len(a), len(b)
    bins = [(ca[v], cb[v]) for v in values]
    # merge right-to-left into the neighbor until all expected counts clear
    merged = []
    acc_a = acc_b = 0
    for oa, ob in reversed(bins):
        acc_a += oa
        acc_b += ob
        tot = acc_a + acc_b
        if tot * na / (na + nb) >= min_expected and tot * nb / (na + nb) >= min_expected:
            merged.append((acc_a, acc_b))
            acc_a = acc_b = 0
    if acc_a or acc_b:
        if merged:
            la, lb = merged[-1]
            merged[-1] = (la + acc_a, lb + acc_b)
        else:
            merged.append((acc_a, acc_b))
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
    return stat, float(gammaincc(dof / 2.0, stat / 2.0)), dof


def mean_difference_z(a, b):
    """Two-sample z statistic for the mean difference: (z, p, se)."""
    na, nb = len(a), len(b)
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
    engine, n, rho, density_spec, seed, r, sites = task
    cfg = SimConfig(n_samples=n, rho=rho, density=density_spec, seed=seed, replicate_index=r)
    return summary(ENGINES[engine](cfg), sites=sites)


def run_replicates(engine, n, rho, density_spec, seed, reps, sites=(0.0,), threads=None):
    """Simulate a replicate batch and collect its summaries.

    Child seeds are derived per replicate, so the batch gives the same
    result at any thread count; threads defaults to the CPU count.
    """
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % engine)
    if threads is None:
        threads = os.cpu_count() or 1
    tasks = [(engine, n, rho, density_spec, seed, r, tuple(sites)) for r in range(reps)]
    if threads <= 1 or reps < 64:
        return [_one_replicate(t) for t in tasks]
    from multiprocessing import Pool

    with Pool(processes=threads) as pool:
        return pool.map(_one_replicate, tasks, chunksize=max(1, reps // (threads * 8)))


def equivalence_report(n, rho, density_spec, seed, reps, sites=(0.0, 0.5), alpha=0.001, threads=None):
    """Run both engines and test every summary statistic for agreement.

    Returns (reports, samples) where samples maps engine name to its
    summary list; the battery is two-sample KS for the continuous
    statistics, homogeneity chi-square for the breakpoint count and the
    maximum lineage count, and a z-test on the mean breakpoint count. The
    event count gets no row: it is n - 1 + 2 * breakpoints, so its
    chi-square would repeat the breakpoint row exactly. With several tests
    at level alpha, the chance of a stray failure stays near
    len(reports) * alpha (union bound); the alpha here is per-test.
    """
    a = run_replicates("backintime", n, rho, density_spec, seed, reps, sites, threads)
    b = run_replicates("spatial", n, rho, density_spec, seed, reps, sites, threads)
    reports = []

    def add_ks(name, xs, ys):
        d, p = ks_two_sample(xs, ys)
        reports.append(TestReport(name, len(xs), len(ys), d, p, p > alpha))

    for s in sites:
        add_ks("tmrca_ks_site_%g" % s, [x.tmrca_at[s] for x in a], [y.tmrca_at[s] for y in b])
    for s in sites:
        add_ks("length_ks_site_%g" % s, [x.length_at[s] for x in a], [y.length_at[s] for y in b])
    add_ks("grand_mrca_ks", [x.grand_mrca for x in a], [y.grand_mrca for y in b])
    bp_a = [x.breakpoint_count for x in a]
    bp_b = [y.breakpoint_count for y in b]
    stat, p, _ = chi_square_two_sample(bp_a, bp_b)
    reports.append(TestReport("breakpoints_chi2", reps, reps, stat, p, p > alpha))
    stat, p, _ = chi_square_two_sample([x.max_lineages for x in a], [y.max_lineages for y in b])
    reports.append(TestReport("max_lineages_chi2", reps, reps, stat, p, p > alpha))
    z, p, _ = mean_difference_z(bp_a, bp_b)
    reports.append(TestReport("breakpoints_mean_z", reps, reps, z, p, p > alpha))
    return reports, {"backintime": a, "spatial": b}


def render_report_table(reports):
    width = max(len(r.name) for r in reports)
    lines = ["%-*s  %10s  %10s  %s" % (width, "statistic", "stat", "p", "result")]
    for r in reports:
        lines.append(
            "%-*s  %10.4g  %10.4g  %s" % (width, r.name, r.statistic, r.p_value, "pass" if r.passed else "FAIL")
        )
    return "\n".join(lines)
