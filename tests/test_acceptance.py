"""Acceptance battery: ten numbered end-to-end criteria.

Each test prints one ``ACCEPTANCE <k>: PASS/FAIL`` line through the
capture-disabled channel (so the lines land in plain test logs) and then
asserts. All batteries run at frozen seeds, so a rerun reproduces every
statistic bit for bit. Elapsed times are printed for reference; the
assertions themselves are the statistical and exact bounds.
"""

import math
import time
from fractions import Fraction

import pytest
from scipy.integrate import quad

from argsim.arg import summary, validate_arg
from argsim.backintime import simulate_backintime, total_rate
from argsim.cli import main
from argsim.config import SimConfig
from argsim.density import BetaDensity, UniformDensity
from argsim.rng import SALTS, SimRng, replicate_rng
from argsim.spatial import (
    accept_breakpoint,
    free_rise,
    kingman_tree,
    live_intervals,
    sample_next_breakpoint,
    sample_recomb_location,
    simulate_spatial,
    trace_lineage,
)
from argsim.state import State
from argsim.stats import (
    chi_square,
    chi_square_two_sample,
    equivalence_report,
    kingman_expectations,
    ks_one_sample,
    ks_one_sample_with_atom,
    render_report_table,
    run_replicates,
)
from conftest import check_invariants, lin, two_locus_moments
from test_backintime import three_lineage_fixture

INF = float("inf")
UNIFORM = UniformDensity()
BIG = 100_000


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print("ACCEPTANCE %d: %s -- %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


@pytest.fixture(scope="module")
def big_battery():
    """The N=4, rho=1 equivalence run shared by criteria 2, 9 and 10."""
    start = time.perf_counter()
    reports, samples = equivalence_report(
        SimConfig(n_samples=4, rho=1.0, density="uniform", seed=2002), reps=BIG, sites=(0.0, 0.5),
        alpha=0.001, threads=1,
    )
    return reports, samples, time.perf_counter() - start


def test_criterion_1_kingman_means(capsys):
    start = time.perf_counter()
    want_t, want_l = kingman_expectations(6)
    rows = []
    for engine in ("backintime", "spatial"):
        batch = run_replicates(engine, SimConfig(n_samples=6, rho=0.0, density="uniform", seed=1001), BIG,
                               sites=(0.0,), threads=1)
        mt = math.fsum(s.tmrca_at[0.0] for s in batch) / BIG
        ml = math.fsum(s.length_at[0.0] for s in batch) / BIG
        rows.append((engine, abs(mt - want_t) / want_t, abs(ml - want_l) / want_l))
    elapsed = time.perf_counter() - start
    ok = all(et < 0.02 and el < 0.02 for _, et, el in rows)
    detail = "; ".join(
        "%s height err %.3f%%, length err %.3f%%" % (e, 100 * et, 100 * el)
        for e, et, el in rows
    )
    announce(
        capsys, 1, ok,
        "N=6 rho=0, %d reps/engine: %s (%.0f s, target 60)" % (BIG, detail, elapsed),
    )


def test_criterion_2_engine_equivalence(big_battery, capsys):
    reports, samples, elapsed = big_battery
    assert len(samples["backintime"]) == len(samples["spatial"]) == BIG
    ok = all(r.passed for r in reports)
    min_p = min(r.p_value for r in reports)
    detail = "N=4 rho=1, %d reps/engine, %d tests all clear alpha=0.001, min p %.3g (%.0f s, target 600)" % (
        BIG, len(reports), min_p, elapsed,
    )
    if not ok:
        detail += "\n" + render_report_table(reports)
    announce(capsys, 2, ok, detail)


def test_criterion_3_next_breakpoint_law(capsys):
    g = kingman_tree(4, replicate_rng(3003, 0, SALTS["spatial"]))
    rho = 2.0
    hr = 0.5 * rho * g.tree_length
    rng = SimRng(30031)
    start = time.perf_counter()
    draws = [sample_next_breakpoint(g, rho, UNIFORM, rng) for _ in range(1_000_000)]
    atom = math.exp(-hr)
    d, p, z = ks_one_sample_with_atom(draws, lambda s: -math.expm1(-hr * s), atom)
    elapsed = time.perf_counter() - start
    ok = p > 0.001 and abs(z) <= 3.0
    announce(
        capsys, 3, ok,
        "1e6 draws on a frozen N=4 tree: continuous KS p %.3g, atom z %+.2f (%.0f s)" % (p, z, elapsed),
    )


def test_criterion_4_recomb_location_law(capsys):
    g = kingman_tree(4, replicate_rng(3003, 0, SALTS["spatial"]))
    starts, live_counts = live_intervals(g)
    finite = [b for b in g.branches if b.hi != INF]
    rng = SimRng(40041)
    counts = {b.id: 0 for b in finite}
    lats = []
    for _ in range(BIG):
        bid, t = sample_recomb_location(g, rng)
        counts[bid] += 1
        lats.append(t)
    stat, p_branch, dof = chi_square(
        [counts[b.id] for b in finite], [b.hi - b.lo for b in finite]
    )
    total = g.tree_length

    def lat_cdf(t):
        acc = 0.0
        for k in range(len(starts) - 1):
            lo, hi = starts[k], starts[k + 1]
            if t <= lo:
                break
            acc += (min(t, hi) - lo) * live_counts[k]
        return acc / total

    d, p_lat = ks_one_sample(lats, lat_cdf)
    ok = p_branch > 0.001 and p_lat > 0.001
    announce(
        capsys, 4, ok,
        "1e5 locations on the frozen tree: branch chi2 p %.3g (dof %d), latitude KS p %.3g" % (
            p_branch, dof, p_lat,
        ),
    )


def test_criterion_5_free_rise_law(capsys):
    rng = replicate_rng(5005, 0, SALTS["spatial"])
    g = kingman_tree(4, rng)
    while True:
        s_new = sample_next_breakpoint(g, 2.0, UNIFORM, rng)
        if s_new >= 1.0:
            break
        fid, t0 = sample_recomb_location(g, rng)
        accept_breakpoint(g, s_new, trace_lineage(g, fid, t0, s_new, 2.0, UNIFORM, rng))
    assert len(g.breakpoints) >= 1
    check_invariants(g)
    starts, counts = live_intervals(g)
    t_from = 0.1

    def cdf(t):
        acc = 0.0
        for k, lo in enumerate(starts):
            hi = starts[k + 1] if k + 1 < len(starts) else INF
            if hi <= t_from:
                continue
            seg_lo = max(lo, t_from)
            if t <= seg_lo:
                break
            acc += (min(t, hi) - seg_lo) * counts[k]
        return -math.expm1(-acc)

    rng2 = SimRng(50051)
    draws = [free_rise(g, t_from, rng2)[0] for _ in range(BIG)]
    d, p = ks_one_sample(draws, cdf)
    ok = p > 0.001
    announce(
        capsys, 5, ok,
        "1e5 free rises from t=%.1f on a stage-%d graph: KS p %.3g" % (t_from, len(g.breakpoints), p),
    )


def test_criterion_6_fuzz_validation(capsys):
    start = time.perf_counter()
    failures = []
    for seed in range(10_000):
        n = 2 + seed % 5
        rho = (0.0, 0.5, 2.0)[(seed // 5) % 3]
        cfg = SimConfig(n_samples=n, rho=rho, seed=seed)
        for engine, run in (("backintime", simulate_backintime), ("spatial", simulate_spatial)):
            if not validate_arg(run(cfg)).passed:
                failures.append((engine, seed))
    elapsed = time.perf_counter() - start
    ok = not failures
    announce(
        capsys, 6, ok,
        "10000 seeds x 2 engines, N in 2..6, rho in {0, 0.5, 2}: %d invalid paths (%.0f s)" % (
            len(failures), elapsed,
        ),
    )


def test_criterion_7_exact_rates(capsys):
    checks = []
    r = total_rate(State.initial(2), 1.0, UNIFORM)
    checks.append(("initial pair", r.total, 2.0))
    gap = State(2, [lin((0.0, 0.4, {1, 2})), lin((0.4, 1.0, {1, 2}))])
    r = total_rate(gap, 2.0, UNIFORM)
    checks.append(("empty-interval state", r.total, 1.6))
    x = three_lineage_fixture()
    r = total_rate(x, 2.0, UNIFORM)
    checks.append(("three-lineage uniform", r.total, 4.8))
    beta = BetaDensity(2.0, 2.0)
    r = total_rate(x, 2.0, beta)
    expected = 3.0 + math.fsum(quad(beta.pdf, b, e)[0] for b, e in x.active_intervals())
    checks.append(("three-lineage beta vs quadrature", r.total, expected))
    worst = max(abs(got - want) / want for _, got, want in checks)
    ok = worst <= 1e-12
    announce(
        capsys, 7, ok,
        "%d hand-built states: worst relative rate error %.2e (tolerance 1e-12)" % (
            len(checks), worst,
        ),
    )


def test_criterion_8_manifest_rerun(tmp_path, capsys):
    results = []
    for engine in ("backintime", "spatial"):
        first = tmp_path / ("%s.log" % engine)
        rc1 = main([
            "simulate", "--engine", engine, "--samples", "4", "--rho", "1",
            "--density", "beta:2,2", "--seed", "81", "--reps", "5", "--out", str(first),
        ])
        second = tmp_path / ("%s_again.log" % engine)
        rc2 = main([
            "simulate", "--from-manifest", str(first) + ".manifest.json",
            "--out", str(second),
        ])
        results.append(rc1 == 0 and rc2 == 0 and first.read_bytes() == second.read_bytes())
    ok = all(results)
    announce(
        capsys, 8, ok,
        "manifest reruns byte-identical: backintime %s, spatial %s" % tuple(results),
    )


def test_criterion_9_r1_mutant_is_caught(big_battery, r1_mutant, capsys):
    _, samples, _ = big_battery
    start = time.perf_counter()
    mutant_bp = []
    for r in range(BIG):
        cfg = SimConfig(n_samples=4, rho=1.0, seed=2002, replicate_index=r)
        mutant_bp.append(summary(simulate_backintime(cfg)).breakpoint_count)
    spatial_bp = [s.breakpoint_count for s in samples["spatial"]]
    stat, p, dof = chi_square_two_sample(mutant_bp, spatial_bp)
    elapsed = time.perf_counter() - start
    ok = p <= 0.001
    announce(
        capsys, 9, ok,
        "shared-prefix rule disabled: breakpoint chi2 stat %.1f, p %.3g <= 0.001, the broken engine is caught (%.0f s)" % (
            stat, p, elapsed,
        ),
    )


def one_sample_z(xs, mean):
    """z of the sample mean of xs against a known mean."""
    n = len(xs)
    m = math.fsum(xs) / n
    var = math.fsum((x - m) ** 2 for x in xs) / (n - 1)
    return (m - mean) / math.sqrt(var / n)


def test_criterion_10_two_locus_joint_law(big_battery, capsys):
    # criterion 2's paths against the exact two-locus chain: each engine
    # on its own, with no replicate run here
    _, samples, _ = big_battery
    start = time.perf_counter()
    rho, s = 1.0, 0.5
    want = two_locus_moments(4, Fraction(rho * UNIFORM.mass(0.0, s)))
    rows = []
    for engine, batch in samples.items():
        draws = (
            [x.tmrca_at[0.0] * x.tmrca_at[s] for x in batch],
            [float(x.tmrca_at[0.0] == x.tmrca_at[s]) for x in batch],
            [x.length_at[0.0] * x.length_at[s] for x in batch],
        )
        rows.append((engine, [one_sample_z(xs, float(w)) for xs, w in zip(draws, want)]))
    elapsed = time.perf_counter() - start
    ok = all(abs(z) <= 4.0 for _, zs in rows for z in zs)
    detail = "N=4 rho=1 sites 0, 0.5, exact E[T0 T0.5] %.6g, P(T0 = T0.5) %.6g, E[L0 L0.5] %.6g; z %s (%.1f s)" % (
        *map(float, want),
        "; ".join("%s %s" % (e, " ".join("%+.2f" % z for z in zs)) for e, zs in rows),
        elapsed,
    )
    announce(capsys, 10, ok, detail)
