"""Back-in-time engine: the global jump process from singletons to absorption.

From k lineages, the total jump rate is

    q(x) = k(k-1)/2  +  (rho/2) * sum_i integral of p over (b_i, e_i)

with (b_i, e_i) the active interval of the rank-i lineage. Waiting times
are exponential with rate q(x) (inversion); the embedded chain picks a
uniformly weighted coalescing pair or a lineage with weight proportional
to its recombination mass, with the split locus drawn from p restricted
to the active interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arg import Arg
from .rng import SALTS, replicate_rng
from .state import Coalesce, Recombine, State

DEFAULT_EVENT_CAP = 10_000_000


class EventCapExceeded(RuntimeError):
    """A simulation ran past the configured hard event cap."""


@dataclass(frozen=True)
class RateBreakdown:
    coal_rate: float
    recomb_rates: tuple
    total: float


def total_rate(state, rho, density):
    """Exact rate components for the current state."""
    k = len(state.lineages)
    if k <= 1:
        return RateBreakdown(0.0, (), 0.0)
    coal = k * (k - 1) / 2.0
    if rho > 0.0:
        half_rho = 0.5 * rho
        recomb = tuple(
            half_rho * density.mass(b, e) if b < e else 0.0
            for b, e in state.active_intervals()
        )
    else:
        recomb = (0.0,) * k
    return RateBreakdown(coal, recomb, coal + math.fsum(recomb))


def sample_waiting_time(rates, rng):
    """Exponential holding time with rate rates.total, by inversion."""
    if not rates.total > 0.0:
        raise ValueError("no waiting time in an absorbing state")
    return -math.log(rng.uniform()) / rates.total


def sample_event(state, rho, density, rng, rates=None):
    """One step of the embedded chain: a Coalesce or Recombine event."""
    k = len(state.lineages)
    if k < 2:
        raise ValueError("cannot sample an event in an absorbing state")
    if rates is None:
        rates = total_rate(state, rho, density)
    threshold = rng.uniform() * rates.total
    # coalescing pairs in lexicographic order, each with weight 1
    if threshold < rates.coal_rate:
        pair = int(threshold)  # weights are exactly 1
        if pair >= k * (k - 1) // 2:
            pair = k * (k - 1) // 2 - 1
        i = 0
        row = k - 1
        while pair >= row:
            pair -= row
            i += 1
            row -= 1
        return Coalesce(i, i + 1 + pair)
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


def simulate_backintime(config, rng=None, max_events=DEFAULT_EVENT_CAP):
    """Run one full simulation from singletons to the absorbing state."""
    if rng is None:
        rng = replicate_rng(config.seed, config.replicate_index, SALTS["backintime"])
    state = State.initial(config.n_samples)
    rho, density = config.rho, config.density
    t = 0.0
    times = []
    events = []
    states = []
    while not state.is_absorbed:
        if len(events) >= max_events:
            raise EventCapExceeded(
                "exceeded %d events (n=%d rho=%g)" % (max_events, config.n_samples, rho)
            )
        rates = total_rate(state, rho, density)
        t += sample_waiting_time(rates, rng)
        event = sample_event(state, rho, density, rng, rates)
        state = state.apply(event)
        times.append(t)
        events.append(event)
        states.append(state)
    return Arg(config, times, events, states)
