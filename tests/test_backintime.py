"""Back-in-time engine tests: rates, embedded chain, waiting times, paths."""

import math

import pytest
from scipy.integrate import quad

from argsim import backintime, config
from argsim.backintime import (
    sample_event,
    sample_waiting_time,
    simulate_backintime,
    total_rate,
)
from argsim.config import EventCapExceeded, SimConfig
from argsim.density import BetaDensity, UniformDensity
from argsim.rng import SimRng
from argsim.state import Coalesce, Recombine, State, full_set
from argsim.stats import ks_one_sample
from conftest import UniformCdf, lin, path_states

UNIFORM = UniformDensity()
UNIFORM_CDF = UniformCdf()  # sample_event's CDF mapping under UNIFORM


def three_lineage_fixture():
    """N=3 state with ranked active spans (0.3,1), (0.3,1), (0.6,1)."""
    x = State(
        3,
        [
            lin((0.0, 0.3, {1, 2, 3}), (0.3, 0.6, {1, 3}), (0.6, 1.0, {1})),
            lin((0.3, 1.0, {2}),),
            lin((0.6, 1.0, {3}),),
        ],
    )
    x.check()
    assert x.active_intervals() == ((0.3, 1.0), (0.3, 1.0), (0.6, 1.0))
    return x


def test_rate_initial_pair():
    rates = total_rate(State.initial(2), 1.0, UNIFORM)
    assert rates.coal_rate == 1.0
    assert rates.recomb_rates == (0.5, 0.5)
    assert rates.total == 2.0


def test_rate_absorbing_is_zero():
    rates = total_rate(State.absorbing(5), 3.0, UNIFORM)
    assert rates.total == 0.0
    assert rates.coal_rate == 0.0


def test_rate_three_lineage_uniform():
    rates = total_rate(three_lineage_fixture(), 2.0, UNIFORM)
    assert rates.coal_rate == 3.0
    assert rates.recomb_rates == pytest.approx((0.7, 0.7, 0.4), rel=1e-12)
    assert rates.total == pytest.approx(4.8, rel=1e-12)


def test_rate_three_lineage_beta_vs_quadrature():
    density = BetaDensity(2.0, 2.0)
    x = three_lineage_fixture()
    rates = total_rate(x, 2.0, density)
    assert rates.recomb_rates == pytest.approx((0.784, 0.784, 0.352), rel=1e-12)
    assert rates.total == pytest.approx(4.92, rel=1e-12)
    for (b, e), r in zip(x.active_intervals(), rates.recomb_rates):
        integral, _ = quad(density.pdf, b, e, limit=200)
        assert r == pytest.approx(1.0 * integral, rel=1e-9)


def test_rate_r1_disabled_unfreezes_prefix(request):
    # the deliberate mutant treats the first-ranked lineage like the rest,
    # so its whole support (0, 1) regains recombination weight; the fixture
    # checks its real intervals before the patch
    x = three_lineage_fixture()
    request.getfixturevalue("r1_mutant")
    rates = total_rate(x, 2.0, UNIFORM)
    assert rates.recomb_rates == pytest.approx((1.0, 0.7, 0.4), rel=1e-12)
    assert rates.total == pytest.approx(5.1, rel=1e-12)


def test_total_rate_follows_the_density_and_the_interval(request):
    # one state weighed under one density, then another, then the first
    # again: each weighing reads its own density; rank 0's interval
    # follows the shared-prefix rule in force when the state is weighed
    x = three_lineage_fixture()
    beta = BetaDensity(2.0, 2.0)
    assert total_rate(x, 2.0, UNIFORM).recomb_rates == pytest.approx((0.7, 0.7, 0.4), rel=1e-12)
    assert total_rate(x, 2.0, beta).recomb_rates == pytest.approx((0.784, 0.784, 0.352), rel=1e-12)
    assert total_rate(x, 2.0, UNIFORM).recomb_rates == pytest.approx((0.7, 0.7, 0.4), rel=1e-12)
    request.getfixturevalue("r1_mutant")  # rank 0's interval becomes (0, 1)
    assert total_rate(x, 2.0, UNIFORM).recomb_rates == pytest.approx((1.0, 0.7, 0.4), rel=1e-12)


def record_rates(monkeypatch):
    """Record the (state, rates) of every event sample_event draws.

    simulate_backintime looks sample_event up as a module global, so the
    recorder sees exactly what the engine passes it. The engine advances
    one list in place, so each state is a snapshot of it, in its order.
    """
    seen = []
    draw = backintime.sample_event

    def recording(lineages, full, rates, density, cdf, rng):
        seen.append((State._ranked(full.bit_length(), lineages), rates))
        return draw(lineages, full, rates, density, cdf, rng)

    monkeypatch.setattr(backintime, "sample_event", recording)
    return seen


RATE_GRID = [
    (n, rho, density, seed)
    for n in (2, 3, 5, 20, 60)
    for rho in (0.0, 0.5, 4.0, 15.0)
    for density in ("uniform", "beta:2,2", "beta:0.5,0.5")
    for seed in range(3)
]


def assert_kept_rates_are_total_rate(seen, rho, density):
    for state, rates in seen:
        want = total_rate(state, rho, density)
        assert rates.coal_rate == want.coal_rate
        assert rates.recomb_rates == want.recomb_rates
        assert rates.total == want.total


def test_kept_rates_equal_total_rate_at_every_event(monkeypatch):
    # the engine weighs the start state with total_rate and then only the
    # ranks an event touches; every event's rates must still be exactly
    # (==, not approx) total_rate's of the state it draws from
    seen = record_rates(monkeypatch)
    events = recombinations = 0
    for n, rho, density, seed in RATE_GRID:
        seen.clear()
        cfg = SimConfig(n_samples=n, rho=rho, density=density, seed=seed)
        arg = simulate_backintime(cfg)
        assert len(seen) == arg.event_count
        assert_kept_rates_are_total_rate(seen, cfg.rho, cfg.density)
        events += arg.event_count
        recombinations += sum(isinstance(ev, Recombine) for ev in arg.events)
    assert recombinations > 1000 and events > 3000, (recombinations, events)


def test_kept_rates_equal_total_rate_under_the_r1_mutant(monkeypatch, r1_mutant):
    # the mutant moves rank 0's interval in both the kept weights and
    # total_rate, through the one rank-0 rule
    seen = record_rates(monkeypatch)
    moved = 0
    for n, rho, density, seed in [(n, 2.0, d, s) for n in (2, 3, 5, 20) for d in ("uniform", "beta:2,2") for s in range(3)]:
        seen.clear()
        cfg = SimConfig(n_samples=n, rho=rho, density=density, seed=seed)
        simulate_backintime(cfg)
        assert_kept_rates_are_total_rate(seen, cfg.rho, cfg.density)
        # where rank 0 holds a shared prefix, the mutant's weight differs
        moved += sum(state.lineages[0].vals[0] == full_set(n) for state, _ in seen)
    assert moved > 50


def test_mass_is_weighed_once_per_lineage(monkeypatch):
    calls = []
    mass = BetaDensity.mass
    monkeypatch.setattr(BetaDensity, "mass", lambda self, lo, hi: calls.append((lo, hi)) or mass(self, lo, hi))
    for seed in range(4):
        calls.clear()
        arg = simulate_backintime(SimConfig(n_samples=10, rho=8.0, density="beta:2,2", seed=seed))
        held = {id(l) for state in [State.initial(10)] + path_states(arg) for l in state.lineages}
        assert arg.event_count > 20
        assert len(calls) <= len(held) <= arg.n_samples + 2 * arg.event_count


def test_a_path_reads_each_cdf_value_once_and_builds_few_interval_tuples(monkeypatch):
    # work guards: weighing only the touched ranks must not quietly go back
    # to weighing every rank per event. The start state costs 2 CDF reads
    # per lineage, the per-path CDF dict one per end (0 and 1) and per
    # locus, and a draw none: it reads the dict. The all-rank interval
    # tuple is built for the start state only
    calls = [0]
    cdf = BetaDensity.cdf
    monkeypatch.setattr(BetaDensity, "cdf", lambda self, s: calls.__setitem__(0, calls[0] + 1) or cdf(self, s))
    built = [0]
    intervals = State.active_intervals
    monkeypatch.setattr(State, "active_intervals", lambda self: built.__setitem__(0, built[0] + 1) or intervals(self))
    recombinations = 0
    for seed in range(3):
        base = SimConfig(n_samples=20, rho=15.0, density="beta:2,2", seed=seed)
        for r in range(30):
            calls[0] = built[0] = 0
            arg = simulate_backintime(base.with_replicate(r))
            loci = [ev.locus for ev in arg.events if isinstance(ev, Recombine)]
            assert calls[0] == 2 * arg.n_samples + 2 + len(loci)
            assert built[0] == 1
            recombinations += len(loci)
    assert recombinations > 5000


def test_rate_only_prefix_is_frozen():
    # the first-ranked lineage loses only its coalesced *prefix*; a fully
    # coalesced suffix inside its support still carries weight
    x = State(
        2,
        [
            lin((0.0, 0.2, {1, 2}), (0.2, 0.7, {1}), (0.7, 1.0, {1, 2})),
            lin((0.2, 0.7, {2}),),
        ],
    )
    assert x.active_intervals() == ((0.2, 1.0), (0.2, 0.7))
    rates = total_rate(x, 2.0, UNIFORM)
    assert rates.recomb_rates == pytest.approx((0.8, 0.5), rel=1e-12)


def test_rate_empty_interval_contributes_zero():
    # a first-ranked lineage equal to the full set on all of its support
    # has b >= e: no legal split, zero weight
    x = State(
        2,
        [
            lin((0.0, 0.4, {1, 2})),
            lin((0.4, 1.0, {1, 2})),
        ],
    )
    x.check()
    b, e = x.active_intervals()[0]
    assert b >= e
    rates = total_rate(x, 2.0, UNIFORM)
    assert rates.recomb_rates == pytest.approx((0.0, 0.6), abs=1e-15)
    assert rates.total == pytest.approx(1.6, rel=1e-12)


def test_sample_event_pure_coalescence_when_rho_zero():
    x = State.initial(2)
    rng = SimRng(3)
    for _ in range(50):
        assert sample_event(x.lineages, full_set(2), total_rate(x, 0.0, UNIFORM), UNIFORM, UNIFORM_CDF, rng) == Coalesce(0, 1)


def test_sample_event_frequencies():
    x = State.initial(2)
    rates = total_rate(x, 1.0, UNIFORM)
    rng = SimRng(20240917)
    n = 10 ** 6
    n_coal = 0
    n_rec0 = 0
    for _ in range(n):
        ev = sample_event(x.lineages, full_set(2), rates, UNIFORM, UNIFORM_CDF, rng)
        if isinstance(ev, Coalesce):
            n_coal += 1
        elif ev.i == 0:
            n_rec0 += 1
    sd_coal = math.sqrt(0.5 * 0.5 / n)
    sd_rec = math.sqrt(0.25 * 0.75 / n)
    assert abs(n_coal / n - 0.5) < 3 * sd_coal
    assert abs(n_rec0 / n - 0.25) < 3 * sd_rec


def test_recombination_locus_is_truncated_uniform():
    x = State(
        2,
        [
            lin((0.0, 0.3, {1, 2}), (0.3, 1.0, {1})),
            lin((0.3, 1.0, {2}),),
        ],
    )
    assert x.active_intervals()[0] == (0.3, 1.0)
    rates = total_rate(x, 1.0, UNIFORM)
    rng = SimRng(55)
    loci = []
    while len(loci) < 10 ** 5:
        ev = sample_event(x.lineages, full_set(2), rates, UNIFORM, UNIFORM_CDF, rng)
        if isinstance(ev, Recombine) and ev.i == 0:
            loci.append(ev.locus)
    assert all(0.3 < u < 1.0 for u in loci)
    _, p = ks_one_sample(loci, lambda u: (u - 0.3) / 0.7)
    assert p > 0.001


def test_waiting_time_moments():
    rates = total_rate(State.initial(2), 1.0, UNIFORM)
    assert rates.total == 2.0
    rng = SimRng(314159)
    n = 10 ** 6
    draws = [sample_waiting_time(rates, rng) for _ in range(n)]
    assert all(w > 0.0 for w in draws)
    mean = math.fsum(draws) / n
    assert 0.497 < mean < 0.503
    tail = sum(1 for w in draws if w > 1.0) / n
    p_true = math.exp(-2.0)
    assert abs(tail - p_true) < 3 * math.sqrt(p_true * (1 - p_true) / n)


def test_waiting_time_rejects_absorbing():
    rates = total_rate(State.absorbing(3), 1.0, UNIFORM)
    with pytest.raises(ValueError):
        sample_waiting_time(rates, SimRng(0))


def test_sample_event_rejects_absorbing():
    state = State.absorbing(3)
    with pytest.raises(ValueError) as exc:
        sample_event(state.lineages, full_set(3), total_rate(state, 1.0, UNIFORM), UNIFORM, UNIFORM_CDF, SimRng(0))
    assert str(exc.value) == "cannot sample an event in an absorbing state"


def test_kingman_path_shape():
    cfg = SimConfig(n_samples=5, rho=0.0, seed=21)
    arg = simulate_backintime(cfg)
    assert arg.event_count == 4
    assert all(isinstance(ev, Coalesce) for ev in arg.events)
    assert arg.final_state.is_absorbed

    cfg2 = SimConfig(n_samples=2, rho=0.0, seed=4)
    assert simulate_backintime(cfg2).event_count == 1


def test_kingman_mean_height():
    total = 0.0
    reps = 2000
    for r in range(reps):
        cfg = SimConfig(n_samples=5, rho=0.0, seed=77, replicate_index=r)
        total += simulate_backintime(cfg).grand_mrca
    # mean 2(1 - 1/5) = 1.6, sd of one path ~ 1.07
    assert abs(total / reps - 1.6) < 0.08


def test_simulation_is_deterministic():
    cfg = SimConfig(n_samples=4, rho=1.5, seed=909, replicate_index=2)
    a = simulate_backintime(cfg)
    b = simulate_backintime(cfg)
    assert a.times == b.times
    assert a.events == b.events
    c = simulate_backintime(cfg.with_replicate(3))
    assert (c.times, c.events) != (a.times, a.events)


def test_event_cap_raises(monkeypatch):
    monkeypatch.setattr(config, "DEFAULT_EVENT_CAP", 2)
    cfg = SimConfig(n_samples=4, rho=0.0, seed=1)
    with pytest.raises(EventCapExceeded, match=r"^exceeded 2 events \(n=4 rho=0\)$"):
        simulate_backintime(cfg)


def test_distinct_breakpoints_along_paths():
    for r in range(100):
        cfg = SimConfig(n_samples=4, rho=2.0, seed=5, replicate_index=r)
        arg = simulate_backintime(cfg)
        loci = [ev.locus for ev in arg.events if isinstance(ev, Recombine)]
        assert len(loci) == len(set(loci))


def test_recombination_respects_active_intervals():
    for r in range(60):
        cfg = SimConfig(n_samples=4, rho=2.0, seed=31, replicate_index=r)
        arg = simulate_backintime(cfg)
        state = State.initial(4)
        for ev, after in zip(arg.events, path_states(arg)):
            if isinstance(ev, Recombine):
                b, e = state.active_intervals()[ev.i]
                assert b < ev.locus < e
            state = after
