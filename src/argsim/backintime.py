"""Back-in-time engine: the global jump process from singletons to absorption.

From k lineages, the total jump rate is

    q(x) = k(k-1)/2  +  (rho/2) * sum_i integral of p over (b_i, e_i)

with (b_i, e_i) the active interval of the rank-i lineage. Waiting times
are exponential with rate q(x) (inversion); the embedded chain picks a
uniformly weighted coalescing pair or a lineage with weight proportional
to its recombination mass, with the split locus drawn from p restricted
to the active interval. A path reads p's CDF once at 0, at 1 and at each
locus it draws, and every weight and draw reads those values. Each event
is checked by SimConfig.check_event_cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import state as _state
from .arg import Arg
from .density import draw_between
from .rng import SALTS, replicate_rng, unrank_pair
from .state import Coalesce, Recombine, State, advance, full_set


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


def sample_event(lineages, full, rates, density, cdf, rng):
    """One step of the embedded chain: a Coalesce or Recombine event.

    ``lineages`` are a state's ranked lineages over the labels ``full``,
    and ``rates`` is total_rate of that state. ``cdf`` maps each end of
    every active interval to density.cdf there (simulate_backintime's
    per-path dict), so a locus is drawn with draw_between from the two
    values it holds, and the CDF is not read again.
    """
    k = len(lineages)
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
    b, e = _state.active_interval(lineages, pick, full)
    return Recombine(pick, draw_between(density, rng, b, e, cdf[b], cdf[e]))


def simulate_backintime(config):
    """Run one full simulation from singletons to the absorbing state.

    The start state is weighed once with total_rate; the chain then
    advances one list of its lineages in place. By the rank lemma (see
    state.advance) an event changes at most two ranks' weights, so only
    those are weighed again, through a per-path dict of density.cdf at 0, 1
    and each locus drawn. Each weight is the float total_rate gives, so
    sample_event gets total_rate's rates; it draws each locus from the same
    dict, so the CDF is read once per locus. The Arg keeps the events and
    the state the list ends in.
    """
    rng = replicate_rng(config.seed, config.replicate_index, SALTS["backintime"])
    n, rho, density = config.n_samples, config.rho, config.density
    start = State.initial(n)
    rates = total_rate(start, rho, density)
    weights = list(rates.recomb_rates)
    lineages, full = list(start.lineages), full_set(n)
    # every active interval ends at 0, 1 or a locus drawn on this path
    cdf = {0.0: density.cdf(0.0), 1.0: density.cdf(1.0)}
    half_rho = 0.5 * rho

    def weight(r):
        b, e = _state.active_interval(lineages, r, full)
        return half_rho * max(0.0, cdf[e] - cdf[b])

    t = 0.0
    times = []
    events = []
    while True:
        t += sample_waiting_time(rates, rng)
        event = sample_event(lineages, full, rates, density, cdf, rng)
        p = advance(lineages, full, event)
        times.append(t)
        events.append(event)
        config.check_event_cap(len(events))
        if len(lineages) == 1:
            return Arg(config, times, events, State._ranked(n, lineages))
        i = event.i
        if p is None:
            del weights[event.j]
        else:
            cdf[event.locus] = density.cdf(event.locus)
            weights.insert(p, weight(p))
        weights[i] = weight(i)
        k = len(weights)
        coal = k * (k - 1) / 2.0
        rates = RateBreakdown(coal, tuple(weights), coal + math.fsum(weights))
