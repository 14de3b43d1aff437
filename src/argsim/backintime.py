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
from dataclasses import dataclass

from .arg import Arg
from .rng import SALTS, replicate_rng, unrank_pair
from .state import Coalesce, Recombine, State


@dataclass(frozen=True)
class RateBreakdown:
    coal_rate: float
    recomb_rates: tuple
    total: float


def total_rate(state, rho, density):
    """Exact rate components for the current state.

    Lineages are shared between consecutive states, so each keeps the mass
    of the last active interval it was weighed on (``Lineage.mass``, with
    the density and interval it belongs to). density.mass runs only for a
    new interval: a created lineage, or rank 0 when its interval moves.
    The intervals are read through State.active_intervals, and the sum
    runs over the same floats in the same order as without the cache.
    """
    k = len(state.lineages)
    if k <= 1:
        return RateBreakdown(0.0, (), 0.0)
    coal = k * (k - 1) / 2.0
    if rho > 0.0:
        half_rho = 0.5 * rho
        recomb = []
        for lin, (b, e) in zip(state.lineages, state.active_intervals()):
            if b < e:
                kept = lin.mass
                if kept is None or kept[0] is not density or kept[1] != b or kept[2] != e:
                    kept = lin.mass = (density, b, e, density.mass(b, e))
                recomb.append(half_rho * kept[3])
            else:
                recomb.append(0.0)
        recomb = tuple(recomb)
    else:
        recomb = (0.0,) * k
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
    """Run one full simulation from singletons to the absorbing state."""
    rng = replicate_rng(config.seed, config.replicate_index, SALTS["backintime"])
    initial = state = State.initial(config.n_samples)
    rho, density = config.rho, config.density
    t = 0.0
    times = []
    events = []
    states = []
    while not state.is_absorbed:
        rates = total_rate(state, rho, density)
        t += sample_waiting_time(rates, rng)
        event = sample_event(state, rates, density, rng)
        state = state.apply(event)
        times.append(t)
        events.append(event)
        states.append(state)
        config.check_event_cap(len(events))
    return Arg(config, times, events, states, initial)
