"""Shared test helpers: fixture states, random legal event walks and the
known-broken engine."""

import random

import pytest

from argsim.state import Lineage, State


@pytest.fixture
def r1_mutant(monkeypatch):
    """Switch off the shared-prefix rule: the known-broken engine.

    Every rank's active interval becomes its whole support, so the
    first-ranked lineage can split inside material all samples already
    share. total_rate, sample_event and State.recombine all read
    State.active_intervals, so patching it turns simulate_backintime into
    the mutant whose wrong breakpoint law the statistical battery must
    catch. The patch is undone when the test ends.
    """
    monkeypatch.setattr(
        State, "active_intervals",
        lambda self: tuple((lin.start, lin.end) for lin in self.lineages),
    )


def lin(*segments):
    """Build a Lineage from (lo, hi, labels) triples; labels iterable or None.

    Gaps between the given segments (and before/after them) are filled
    with empty material so the function always covers [0, 1).
    """
    segs = sorted(
        (lo, hi, frozenset(labels or ())) for lo, hi, labels in segments
    )
    filled = []
    cursor = 0.0
    for lo, hi, val in segs:
        assert lo >= cursor, "overlapping fixture segments"
        if lo > cursor:
            filled.append((cursor, lo, frozenset()))
        filled.append((lo, hi, val))
        cursor = hi
    if cursor < 1.0:
        filled.append((cursor, 1.0, frozenset()))
    return Lineage.from_segments(filled)


def random_walk(n, seed, steps, p_recomb=0.45):
    """Yield (state, event, next_state) along a random legal event path.

    Drives the operators directly with a plain python RNG, independent of
    the engines, so operator tests do not depend on engine correctness.
    """
    r = random.Random(seed)
    state = State.initial(n)
    for _ in range(steps):
        if state.is_absorbed:
            return
        k = len(state.lineages)
        candidates = [
            (i, b, e) for i, (b, e) in enumerate(state.active_intervals()) if b < e
        ]
        if candidates and r.random() < p_recomb:
            i, b, e = candidates[r.randrange(len(candidates))]
            u = b + (e - b) * r.uniform(0.1, 0.9)
            from argsim.state import Recombine

            event = Recombine(i, u)
        else:
            from argsim.state import Coalesce

            i = r.randrange(k - 1)
            j = r.randrange(i + 1, k)
            event = Coalesce(i, j)
        nxt = state.apply(event)
        yield state, event, nxt
        state = nxt


def walk_states(n, seed, steps, **kw):
    """The distinct states visited by random_walk, including the start."""
    out = [State.initial(n)]
    for _, _, nxt in random_walk(n, seed, steps, **kw):
        out.append(nxt)
    return out
