"""Shared test helpers: fixture states, random legal event walks, the
known-broken engine, and oracles that recheck what the package asserts
incrementally: the replay validator, the partial-graph invariants and the
projection of a path at a site."""

import math
import random
from bisect import bisect_right

import pytest

from argsim.arg import ValidationReport
from argsim.state import Coalesce, IllegalEventError, Lineage, Recombine, State, fmt_locus, full_set


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
            event = Recombine(i, u)
        else:
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


def replay_validate(arg):
    """The replay validator: the test oracle for validate_arg.

    Replays every event, compares the replayed state with the recorded one
    (State.__eq__), then checks the replay with State.check_step, or with
    the full State.check after a resynchronization or a failed step check.
    validate_arg must reach the same violations without the replay.
    """
    violations = []
    if arg.initial != State.initial(arg.n_samples):
        violations.append((None, "a", "initial state is not the singleton state"))
    state = arg.initial
    try:
        state.check()
        checked = True
    except AssertionError:
        checked = False
    seen_loci = {}
    prev_t = 0.0
    for idx, (t, event, recorded) in enumerate(zip(arg.times, arg.events, arg.states)):
        if not t > prev_t:
            violations.append((idx, "e", "time %r does not increase past %r" % (t, prev_t)))
        prev_t = t
        if isinstance(event, Recombine):
            if event.locus in seen_loci:
                violations.append(
                    (idx, "c", "locus %s repeats event %d" % (fmt_locus(event.locus), seen_loci[event.locus]))
                )
            seen_loci[event.locus] = idx
        prev = state
        try:
            state = state.apply(event)
        except IllegalEventError as err:
            violations.append((idx, "b", str(err)))
            state, checked = recorded, False
            continue
        if state != recorded:
            violations.append((idx, "b", "recorded state diverges from replay"))
            state, checked = recorded, False
            continue
        if checked:
            try:
                state.check_step(prev, event)
                continue
            except AssertionError:
                pass
        try:
            state.check()
            checked = True
        except AssertionError as err:
            violations.append((idx, "b", "invariant broken: %s" % err))
            checked = False
    if not arg.states or not arg.final_state.is_absorbed:
        violations.append((None, "d", "path does not end in the absorbing state"))
    elif arg.final_state != State.absorbing(arg.n_samples):
        violations.append((None, "d", "final state is not the full-label lineage"))
    return ValidationReport(not violations, violations)


def check_invariants(graph):
    """Assert a spatial PartialGraph's structure; returns the graph.

    Checks column conservation at every node, labels, and that the live
    columns partition the samples.
    """
    n_cols = graph.stage + 1
    full = full_set(graph.n)
    for b in graph.branches.values():
        assert len(b.cols) == n_cols, "branch %d has %d columns, want %d" % (b.id, len(b.cols), n_cols)
        nonempty = [l for l, c in enumerate(b.cols) if c]
        assert nonempty, "branch %d carries no material" % b.id
        assert b.label == nonempty[-1], (
            "branch %d label %d != last material column %d" % (b.id, b.label, nonempty[-1])
        )
    for nd in graph.nodes.values():
        for col in range(n_cols):
            below = [graph.branches[c].cols[col] for c in nd.children]
            above = [graph.branches[p].cols[col] for p in nd.parents]
            joined = frozenset().union(*below)
            assert sum(len(c) for c in below) == len(joined), "overlap below node %d" % nd.id
            assert joined == frozenset().union(*above), "column %d not conserved at node %d" % (col, nd.id)
    for leaf in graph.leaves:
        b = graph.branches[leaf]
        assert b.lo == 0.0 and b.cols[-1] == frozenset({leaf + 1})
        assert b.label == graph.stage
    # live columns partition the samples at a few probe latitudes
    times = sorted({nd.time for nd in graph.nodes.values()})
    for t in [0.0] + times[:-1]:
        live = [b for b in graph.branches.values() if b.lo <= t < b.hi]
        for col in range(n_cols):
            vals = [b.cols[col] for b in live if b.cols[col]]
            assert sum(len(v) for v in vals) == graph.n
            assert frozenset().union(*vals) == full
    top = graph.branches[graph.top_id]
    assert top.hi == math.inf and top.label == graph.stage
    return graph


def project_state(state, s):
    """Keep only material on [0, s), holding each lineage's value at s onward.

    Lineages whose support lies entirely at or beyond s drop out.
    """
    kept = []
    for lin in state.lineages:
        segs = [(lo, min(hi, s), val) for lo, hi, val in lin.segments() if lo < s]
        segs.append((s, 1.0, lin.value_at(s)))
        frozen = Lineage.from_segments(segs)
        if not frozen.is_null:
            kept.append(frozen)
    return State(state.n, kept)


def project_path(arg, s):
    """The path seen through the material left of site s, as (time, state) steps.

    Every state is projected at s and repeats are dropped, so each step is
    a jump; the projected start is project_state(arg.initial, s).
    """
    prev = project_state(arg.initial, s)
    steps = []
    for t, state in zip(arg.times, arg.states):
        projected = project_state(state, s)
        if projected != prev:
            steps.append((t, projected))
            prev = projected
    return steps


def state_at(initial, steps, t):
    """The state at time t of the right-continuous path with these (time, state) steps."""
    idx = bisect_right([time for time, _ in steps], t)
    return steps[idx - 1][1] if idx else initial
