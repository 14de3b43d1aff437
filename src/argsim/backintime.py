"""Back-in-time engine: the global jump process from singletons to absorption.

From k lineages, the total jump rate is

    q(x) = k(k-1)/2  +  (rho/2) * sum_i integral of p over (b_i, e_i)

with (b_i, e_i) the active interval of the rank-i lineage. Waiting times
are exponential with rate q(x) (inversion); the embedded chain picks a
uniformly weighted coalescing pair or a lineage with weight proportional
to its recombination mass, with the split locus drawn from p restricted
to the active interval. Each event is checked by SimConfig.check_event_cap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .arg import Arg
from .rng import SALTS, replicate_rng, unrank_pair
from .state import Coalesce, Recombine, State


@dataclass(slots=True)  # not frozen: a frozen one is costly to build, once per event
class RateBreakdown:
    coal_rate: float
    recomb_rates: tuple
    total: float


def total_rate(state, rho, density):
    """Exact rate components for the current state, every rank weighed from scratch.

    Rank r weighs rho/2 times density.mass over its active interval, read
    through State.active_intervals; an empty interval weighs 0. The engine
    weighs only its start state this way and then keeps the weights itself
    (see simulate_backintime).
    """
    k = len(state.lineages)
    if k <= 1:
        return RateBreakdown(0.0, (), 0.0)
    coal = k * (k - 1) / 2.0
    half_rho = 0.5 * rho
    recomb = tuple(half_rho * density.mass(b, e) if b < e else 0.0 for b, e in state.active_intervals())
    return RateBreakdown(coal, recomb, coal + math.fsum(recomb))


def sample_waiting_time(rates, rng):
    """Exponential holding time with rate rates.total, by inversion."""
    if not rates.total > 0.0:
        raise ValueError("no waiting time in an absorbing state")
    return rng.exponential(rates.total)


def sample_event(state, rates, density, rng):
    """One step of the embedded chain: a Coalesce or Recombine event.

    ``rates`` is total_rate of ``state``.
    """
    k = len(state.lineages)
    if k < 2:
        raise ValueError("cannot sample an event in an absorbing state")
    threshold = rng.uniform() * rates.total
    # coalescing pairs in lexicographic order, each with weight exactly 1
    if threshold < rates.coal_rate:
        return Coalesce(*unrank_pair(min(int(threshold), k * (k - 1) // 2 - 1), k))
    # otherwise a recombination on the lineage whose weight covers the rest
    acc = rates.coal_rate
    pick = k - 1
    for i, w in enumerate(rates.recomb_rates):
        acc += w
        if threshold < acc:
            pick = i
            break
    while rates.recomb_rates[pick] == 0.0:  # float-slack fallback
        pick -= 1
    b, e = state.active_intervals()[pick]
    locus = density.sample_truncated(rng, b, e)
    return Recombine(pick, locus)


def simulate_backintime(config):
    """Run one full simulation from singletons to the absorbing state.

    The start state is weighed once with total_rate. By the rank lemma (see
    State.successor) an event changes at most two ranks' weights, so only
    those are weighed again, through a per-path dict of density.cdf at 0, 1
    and each locus drawn. Each weight is the float total_rate gives, so
    sample_event gets total_rate's rates. The Arg keeps the events and the
    last state of the State.apply chain; no other state outlives its step.
    """
    rng = replicate_rng(config.seed, config.replicate_index, SALTS["backintime"])
    state = State.initial(config.n_samples)
    rho, density = config.rho, config.density
    rates = total_rate(state, rho, density)
    weights = list(rates.recomb_rates)
    # every active interval ends at 0, 1 or a locus drawn on this path
    cdf = {0.0: density.cdf(0.0), 1.0: density.cdf(1.0)}
    half_rho = 0.5 * rho

    def weight(r):
        b, e = state.active_interval(r)
        return half_rho * max(0.0, cdf[e] - cdf[b])

    t = 0.0
    times = []
    events = []
    while True:
        t += sample_waiting_time(rates, rng)
        event = sample_event(state, rates, density, rng)
        prev, state = state, state.apply(event)
        times.append(t)
        events.append(event)
        config.check_event_cap(len(events))
        if state.is_absorbed:
            return Arg(config, times, events, state)
        i = event.i
        if isinstance(event, Coalesce):
            del weights[event.j]
        else:
            cdf[event.locus] = density.cdf(event.locus)
            # the upper part's rank p: new[q] is old[q] exactly for i < q < p
            p = i + 1 + sum(map(operator.is_, state.lineages[i + 1:], prev.lineages[i + 1:]))
            weights.insert(p, weight(p))
        weights[i] = weight(i)
        k = len(weights)
        coal = k * (k - 1) / 2.0
        rates = RateBreakdown(coal, tuple(weights), coal + math.fsum(weights))
