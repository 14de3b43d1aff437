"""State-space operator tests: ranking, recombination, coalescence,
the projection oracle, rendering, and the partition invariant."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from argsim.arg import validate_arg
from argsim.backintime import simulate_backintime
from argsim.config import SimConfig
from argsim.spatial import simulate_spatial
from argsim.state import (
    Coalesce,
    IllegalEventError,
    Lineage,
    Recombine,
    State,
    advance,
    full_set,
    render_state,
    render_typeset,
)
from conftest import (
    canonical,
    labels_of,
    lin,
    lineage_fields,
    mask_of,
    path_states,
    project_state,
    random_walk,
    site_partition,
    sorted_start_state,
    split_oracle,
    union_oracle,
    walk_states,
)


def test_initial_state_is_ranked_singletons():
    x = State.initial(3)
    assert len(x.lineages) == 3
    assert [l.value_at(0.0) for l in x.lineages] == [
        mask_of({1}),
        mask_of({2}),
        mask_of({3}),
    ]
    x.check()


def test_initial_state_equals_the_sorted_build():
    # State.initial builds its singletons in rank order with their fields
    # given; the oracle reads them off and sorts, past 64 labels too
    for n in range(2, 131):
        got, want = State.initial(n).lineages, sorted_start_state(n).lineages
        assert list(map(lineage_fields, got)) == list(map(lineage_fields, want)), n


def test_rank_orders_by_material_start_then_label():
    f = lin((0.0, 0.4, None), (0.4, 1.0, {2}))
    h = lin((0.0, 1.0, {1, 3}))
    x = State(3, [f, h])
    assert x.lineages == (h, f)
    # permutation of the input does not matter
    assert State(3, [h, f]).lineages == (h, f)


def test_single_lineage_ranks_as_itself():
    x = State.absorbing(4)
    assert len(x.lineages) == 1
    x.check()


def test_active_interval_of_initial_lineage():
    x = State.initial(2)
    assert x.active_intervals()[0] == (0.0, 1.0)
    assert x.active_intervals()[1] == (0.0, 1.0)


def test_active_interval_excludes_coalesced_prefix():
    # first-ranked lineage carries everyone below 0.3: that span is frozen
    x = State(
        2,
        [
            lin((0.0, 0.3, {1, 2}), (0.3, 1.0, {1})),
            lin((0.0, 0.3, None), (0.3, 1.0, {2})),
        ],
    )
    x.check()
    assert x.active_intervals()[0] == (0.3, 1.0)


def test_active_interval_is_material_support():
    x = State(
        2,
        [
            lin((0.0, 0.2, {1, 2}), (0.2, 0.7, {1}), (0.7, 1.0, {1, 2})),
            lin((0.2, 0.7, {2}),),
        ],
    )
    x.check()
    assert x.active_intervals()[1] == (0.2, 0.7)


def test_recombine_initial_pair():
    x = State.initial(2).apply(Recombine(0, 0.5))
    x.check()
    assert len(x.lineages) == 3
    below = lin((0.0, 0.5, {1}))
    above = lin((0.5, 1.0, {1}))
    const2 = lin((0.0, 1.0, {2}))
    assert x.lineages == (below, const2, above)


def test_recombine_rejects_coalesced_prefix():
    x = State(
        2,
        [
            lin((0.0, 0.3, {1, 2}), (0.3, 1.0, {1})),
            lin((0.3, 1.0, {2}),),
        ],
    )
    with pytest.raises(IllegalEventError):
        x.apply(Recombine(0, 0.2))


def test_recombine_rejects_outside_support():
    x = State(
        2,
        [
            lin((0.0, 0.2, {1, 2}), (0.2, 0.7, {1}), (0.7, 1.0, {1, 2})),
            lin((0.2, 0.7, {2}),),
        ],
    )
    with pytest.raises(IllegalEventError):
        x.apply(Recombine(1, 0.8))
    with pytest.raises(IllegalEventError):
        x.apply(Recombine(1, 0.1))


def test_recombine_then_coalesce_is_identity():
    for seed in range(20):
        for state, _, _ in random_walk(4, seed, 12):
            pairs = [
                (i, b, e) for i, (b, e) in enumerate(state.active_intervals()) if b < e
            ]
            if not pairs:
                continue
            i, b, e = pairs[seed % len(pairs)]
            u = 0.5 * (b + e)
            split = state.apply(Recombine(i, u))
            lo, hi = state.lineages[i].split(u)
            ri = split.lineages.index(lo)
            rj = split.lineages.index(hi)
            back = split.apply(Coalesce(min(ri, rj), max(ri, rj)))
            assert back == state
            break


def test_coalesce_to_absorbing():
    x = State.initial(2).apply(Coalesce(0, 1))
    assert x.is_absorbed
    assert x == State.absorbing(2)


def test_coalesce_disjoint_blocks():
    x = State.initial(3).apply(Coalesce(1, 2))
    assert [l.value_at(0.0) for l in x.lineages] == [mask_of({1}), mask_of({2, 3})]


def test_coalesce_complementary_supports():
    x = State.initial(2).apply(Recombine(0, 0.5))
    below = x.lineages.index(lin((0.0, 0.5, {1})))
    above = x.lineages.index(lin((0.5, 1.0, {1})))
    merged = x.apply(Coalesce(min(below, above), max(below, above)))
    assert merged == State.initial(2)


def test_coalesce_rejects_bad_ranks():
    x = State.initial(3)
    with pytest.raises(IllegalEventError):
        x.apply(Coalesce(1, 1))
    with pytest.raises(IllegalEventError):
        x.apply(Coalesce(0, 3))
    with pytest.raises(IllegalEventError):
        State.absorbing(3).apply(Coalesce(0, 1))


def test_site_partition_basics():
    assert site_partition(State.initial(3), 0.7) == (
        mask_of({1}),
        mask_of({2}),
        mask_of({3}),
    )
    assert site_partition(State.absorbing(4), 0.1) == (mask_of({1, 2, 3, 4}),)
    x = State.initial(2).apply(Recombine(0, 0.5))
    assert site_partition(x, 0.6) == (mask_of({1}), mask_of({2}))


def test_partition_invariant_along_random_walks():
    for seed in range(25):
        for _, _, nxt in random_walk(5, seed, 25):
            nxt.check()


def test_lineage_count_changes_by_one():
    for seed in range(10):
        for state, event, nxt in random_walk(4, seed, 20):
            delta = len(nxt.lineages) - len(state.lineages)
            assert delta == (1 if isinstance(event, Recombine) else -1)


@pytest.mark.parametrize("engine", [simulate_backintime, simulate_spatial])
@pytest.mark.parametrize("density", ["uniform", "beta:2,2"])
def test_advance_matches_the_sort_built_state(engine, density):
    # the sort under rank_key is the reference: at every step of engine
    # paths the kernel's list must be State(n, ...) of the kept lineages
    # and the new ones, holding the kept lineages themselves, and a valid
    # state; a recombination returns the rank of its upper part
    steps = 0
    for n in (2, 3, 5, 8, 13, 20):
        for seed in range(4):
            arg = engine(SimConfig(n_samples=n, rho=4.0, density=density, seed=seed))
            lineages, full = list(State.initial(n).lineages), full_set(n)
            for event in arg.events:
                old = list(lineages)
                if isinstance(event, Coalesce):
                    gone, created = (event.i, event.j), [old[event.i].union(old[event.j])]
                else:
                    gone, created = (event.i,), list(old[event.i].split(event.locus))
                kept = [lin for r, lin in enumerate(old) if r not in gone]
                p = advance(lineages, full, event)
                want = State(n, kept + created)
                assert State._ranked(n, lineages) == want
                assert [id(lin) for lin in lineages if lin in kept] == [id(lin) for lin in kept]
                assert (p is None) == isinstance(event, Coalesce)
                if p is not None:
                    assert p > event.i and lineages[p] == created[1]
                want.check()
                steps += 1
            assert State._ranked(n, lineages) == arg.final_state
    assert steps > 500


def test_advance_refuses_before_it_changes_the_list():
    # each illegal kind raises its one message and leaves the list as it was
    prefix = State(
        2,
        [
            lin((0.0, 0.3, {1, 2}), (0.3, 1.0, {1})),
            lin((0.3, 0.8, {2}),),
        ],
    )
    assert prefix.active_intervals() == ((0.3, 1.0), (0.3, 0.8))
    x, absorbed = State.initial(3), State.absorbing(3)
    cases = [
        (x, Coalesce(1, 1), "coalesce ranks out of range: (1, 1) with 3 lineages"),
        (x, Coalesce(0, 3), "coalesce ranks out of range: (0, 3) with 3 lineages"),
        (x, Coalesce(-1, 1), "coalesce ranks out of range: (-1, 1) with 3 lineages"),
        (absorbed, Coalesce(0, 1), "coalesce ranks out of range: (0, 1) with 1 lineages"),
        (x, Recombine(3, 0.5), "recombine rank out of range: 3 with 3 lineages"),
        (x, Recombine(-1, 0.5), "recombine rank out of range: -1 with 3 lineages"),
        (absorbed, Recombine(0, 0.5), "cannot recombine the absorbing state"),
        (prefix, Recombine(0, 0.3), "locus 0.3 outside the active interval (0.3, 1.0) of rank 0"),
        (prefix, Recombine(0, 1.0), "locus 1.0 outside the active interval (0.3, 1.0) of rank 0"),
        (prefix, Recombine(0, 0.2), "locus 0.2 outside the active interval (0.3, 1.0) of rank 0"),
        (prefix, Recombine(1, 0.8), "locus 0.8 outside the active interval (0.3, 0.8) of rank 1"),
        (prefix, Recombine(1, 0.9), "locus 0.9 outside the active interval (0.3, 0.8) of rank 1"),
    ]
    for state, event, message in cases:
        lineages = list(state.lineages)
        with pytest.raises(IllegalEventError) as err:
            advance(lineages, full_set(state.n), event)
        assert str(err.value) == message
        assert [id(l) for l in lineages] == [id(l) for l in state.lineages]
        with pytest.raises(IllegalEventError) as err:
            state.apply(event)
        assert str(err.value) == message


def test_advance_reads_no_attribute_of_a_non_event():
    read = []

    class NotAnEvent:
        i, j, locus = 0, 1, 0.5

        def __getattribute__(self, name):
            if not name.startswith("__"):
                read.append(name)
            return object.__getattribute__(self, name)

    x = State.initial(3)
    lineages = list(x.lineages)
    with pytest.raises(TypeError, match="^not an event: "):
        advance(lineages, full_set(3), NotAnEvent())
    with pytest.raises(TypeError, match="^not an event: "):
        x.apply(NotAnEvent())
    assert read == []
    assert lineages == list(x.lineages)


def test_project_at_zero_freezes_blocks():
    for seed in range(10):
        states = walk_states(4, seed, 15)
        x = states[-1]
        p = project_state(x, 0.0)
        p.check()
        assert len(p.lineages) == len(site_partition(x, 0.0))
        for l in p.lineages:
            assert l.breaks == ()  # constant lineages only


def test_project_without_later_breaks_is_identity():
    x = State.initial(3)
    assert project_state(x, 0.9) == x
    y = x.apply(Recombine(0, 0.2))
    # freezing right of every discontinuity changes nothing
    assert project_state(y, 0.9) == y


def test_project_drops_null_lineage():
    x = State(
        2,
        [
            lin((0.0, 0.5, {1, 2}), (0.5, 1.0, {1})),
            lin((0.5, 1.0, {2}),),
        ],
    )
    p = project_state(x, 0.3)
    assert p == State.absorbing(2)


def test_project_idempotent_and_monotone():
    for seed in range(8):
        x = walk_states(4, seed, 18)[-1]
        for s in (0.0, 0.25, 0.6):
            once = project_state(x, s)
            assert project_state(once, s) == once
        assert project_state(project_state(x, 0.7), 0.2) == project_state(x, 0.2)
        assert project_state(project_state(x, 0.2), 0.7) == project_state(x, 0.2)


def test_projection_keeps_site_partition():
    for seed in range(8):
        x = walk_states(5, seed, 20)[-1]
        for s in (0.0, 0.3, 0.8):
            assert site_partition(project_state(x, s), s) == site_partition(x, s)


def test_render_initial_and_split():
    assert render_state(State.initial(2)) == "[0,{1}] [0,{2}]"
    x = State.initial(2).apply(Recombine(0, 0.5))
    assert render_state(x) == "[0,{1} | 0.5,{}] [0,{2}] [0,{} | 0.5,{1}]"


def test_render_roundtrip_precision():
    u = 1.0 / 3.0
    x = State.initial(2).apply(Recombine(0, u))
    text = render_state(x)
    assert "%.17g" % u in text
    assert float("%.17g" % u) == u


def test_split_preserves_union():
    for seed in range(10):
        x = walk_states(4, seed, 15)[-1]
        for l in x.lineages:
            b, e = l.start, l.end
            if b is None or e - b < 1e-9:
                continue
            u = 0.5 * (b + e)
            lo, hi = l.split(u)
            if lo.is_null or hi.is_null:
                continue
            assert lo.union(hi) == l


def test_value_at_is_right_continuous():
    l = lin((0.0, 0.5, {1}), (0.5, 1.0, {1, 2}))
    assert l.value_at(0.5) == mask_of({1, 2})
    assert l.value_at(math.nextafter(0.5, 0.0)) == mask_of({1})


def test_canonical_merges_adjacent_equal_segments():
    l = Lineage(*canonical(
        [(0.0, 0.3, mask_of({1})), (0.3, 1.0, mask_of({1}))]
    ))
    assert l.breaks == ()
    assert l == lin((0.0, 1.0, {1}))


# Every drawn lineage breaks on this grid, so two of them often share a
# break; the interior points lie strictly between grid points.
GRID = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
INTERIOR = tuple(g + 0.0625 for g in (0.0,) + GRID)


@st.composite
def canonical_lineages(draw):
    """Random canonical lineages, empty runs and null lineages included."""
    los = [0.0] + sorted(draw(st.lists(st.sampled_from(GRID), unique=True, max_size=6)))
    vals = draw(st.lists(
        st.frozensets(st.integers(1, 4), max_size=3).map(mask_of), min_size=len(los), max_size=len(los)
    ))
    return Lineage(*canonical(zip(los, los[1:] + [1.0], vals)))


def _fields(l):
    return l.breaks, l.vals, l.start, l.start_min, l.end


@given(canonical_lineages(), canonical_lineages(), st.booleans(), st.data())
@settings(max_examples=500, deadline=None)
def test_merges_match_the_segment_oracles(x, y, on_break, data):
    assert _fields(x.union(y)) == _fields(union_oracle(x, y))
    u = data.draw(st.sampled_from(x.breaks if on_break and x.breaks else INTERIOR))
    got, want = x.split(u), split_oracle(x, u)
    assert [_fields(part) for part in got] == [_fields(part) for part in want]


def _nonzero_run(draw, lo, hi):
    """Segments covering [lo, hi) with nonzero values, breaking on the grid."""
    inner = [g for g in GRID if lo < g < hi]
    cuts = sorted(draw(st.lists(st.sampled_from(inner), unique=True, max_size=3))) if inner else []
    bounds = [lo] + cuts + [hi]
    vals = draw(st.lists(st.integers(1, 0b1111), min_size=len(bounds) - 1, max_size=len(bounds) - 1))
    return list(zip(bounds, bounds[1:], vals))


@st.composite
def disjoint_pairs(draw):
    """Two lineages whose supports do not overlap, in either argument order.

    The first is nonzero on [a, b) and the second on [c, d), b <= c: a gap
    between them, or touching at b == c with equal or different values at
    the join (equal where the two parts of a split merge again).
    """
    join = draw(st.sampled_from(["gap", "touch", "touch-equal"]))
    points = sorted(draw(st.lists(st.sampled_from((0.0,) + GRID + (1.0,)), unique=True,
                                  min_size=3 if join != "gap" else 4,
                                  max_size=3 if join != "gap" else 4)))
    a, b, c, d = points if join == "gap" else (points[0], points[1], points[1], points[2])
    first, second = _nonzero_run(draw, a, b), _nonzero_run(draw, c, d)
    if join == "touch-equal":
        second[0] = second[0][:2] + (first[-1][2],)
    elif join == "touch":
        assume(second[0][2] != first[-1][2])
    x = Lineage(*canonical([(0.0, a, 0)] + first + [(b, 1.0, 0)]))
    y = Lineage(*canonical([(0.0, c, 0)] + second + [(d, 1.0, 0)]))
    return (y, x) if draw(st.booleans()) else (x, y)


@given(disjoint_pairs())
@settings(max_examples=300, deadline=None)
def test_disjoint_unions_match_the_segment_oracle(pair):
    x, y = pair
    assert x.end <= y.start or y.end <= x.start  # Lineage.union joins these without a merge
    assert _fields(x.union(y)) == _fields(union_oracle(x, y))


def _support_oracle(l):
    """(start, start_min, end) by definition: the first and last nonzero segments."""
    nonzero = [(lo, hi, val) for lo, hi, val in l.segments() if val]
    if not nonzero:
        return None, None, None
    lo, _, val = nonzero[0]
    return lo, min(labels_of(val)), nonzero[-1][1]


def assert_derived_fields(state):
    """Check every rank key and active interval against its definition; return the largest start_min."""
    supports = [_support_oracle(l) for l in state.lineages]
    assert [(l.start, l.start_min, l.end) for l in state.lineages] == supports
    full = full_set(state.n)
    b = next((lo for lo, _, val in state.lineages[0].segments() if val != full), 1.0)
    want = ((b, supports[0][2]),) + tuple((start, end) for start, _, end in supports[1:])
    assert state.active_intervals() == want
    return max(start_min for _, start_min, _ in supports)


@given(canonical_lineages())
@settings(max_examples=300, deadline=None)
def test_derived_fields_match_their_definitions(l):
    assert (l.start, l.start_min, l.end) == _support_oracle(l)
    if not l.is_null:
        # active_intervals reads only rank 0 and n; at n=3 a drawn value
        # can be the full label set, before or after other values
        assert_derived_fields(raw_state(3, [l]))


def test_derived_fields_match_their_definitions_on_paths():
    for n in (2, 3, 5, 8):
        for seed in range(6):
            for prev, _, nxt in random_walk(n, seed, 60):
                assert_derived_fields(prev)
                assert_derived_fields(nxt)
    configs = [SimConfig(n_samples=5, rho=4.0, density="beta:2,2", seed=seed) for seed in range(3)]
    configs.append(SimConfig(n_samples=70, rho=2.0, seed=1))
    for engine in (simulate_backintime, simulate_spatial):
        top = 0
        for cfg in configs:
            arg = engine(cfg)
            for state in (State.initial(cfg.n_samples), *path_states(arg)):
                top = max(top, assert_derived_fields(state))
        assert top > 64  # labels past 64 bits were read


@pytest.mark.parametrize("breaks,vals,val", [
    ((), (0b011,), 0),  # nonzero -> 0: the material ends at u
    ((0.25,), (0b001, 0b000), 0b100),  # 0 -> nonzero: it reaches 1.0 again
    ((0.25,), (0, 0b110), 0b011),  # nonzero -> nonzero, with the start past 0
    ((0.25, 0.5), (0b100, 0, 0b001), 0),
])
def test_extended_is_the_constructor_with_one_more_value(breaks, vals, val):
    lineage = Lineage(breaks, vals)
    got = lineage.extended(0.75, val)
    assert _fields(got) == _fields(Lineage(breaks + (0.75,), vals + (val,)))
    assert _fields(lineage) == _fields(Lineage(breaks, vals))  # the original is untouched


def test_operators_walk_no_segments(monkeypatch):
    cfg = SimConfig(n_samples=6, rho=4.0, density="beta:2,2", seed=5)
    spatial = simulate_spatial(cfg)
    calls = []
    walk = Lineage.segments

    def counted(self):
        calls.append(self)
        return walk(self)

    monkeypatch.setattr(Lineage, "segments", counted)
    backintime = simulate_backintime(cfg)
    assert validate_arg(backintime).passed and validate_arg(spatial).passed
    assert len(backintime.events) > 20 and len(spatial.events) > 20
    assert calls == []


def test_full_set():
    assert full_set(4) == mask_of({1, 2, 3, 4}) == 0b1111


@given(st.frozensets(st.integers(1, 130)), st.integers(1, 130))
@settings(max_examples=300, deadline=None)
def test_mask_helpers_match_the_label_sets(labels, n):
    # masks past 64 bits, and labels of two and three digits, whose text
    # order is not their numeric order
    mask = mask_of(labels)
    assert render_typeset(mask) == "{%s}" % ",".join(str(j) for j in sorted(labels))
    if labels:
        assert Lineage.constant(mask).start_min == min(labels)
    assert labels_of(full_set(n)) == list(range(1, n + 1))


def test_apply_dispatch():
    x = State.initial(3)
    a, b, c = x.lineages
    assert x.apply(Coalesce(0, 1)) == State(3, [a.union(b), c])
    assert x.apply(Recombine(2, 0.25)) == State(3, [a, b, *c.split(0.25)])
    with pytest.raises(TypeError):
        x.apply("coal")


def raw_state(n, lineages):
    """A State holding exactly these lineages, in this order (no sorting)."""
    return State._ranked(n, lineages)


def _created(prev, nxt):
    return [l for l in nxt.lineages if not any(l is k for k in prev.lineages)]


def _with_value(lineage, k, value):
    vals = list(lineage.vals)
    vals[k] = value
    return Lineage(lineage.breaks, tuple(vals))


def _add_label(n, prev, event, nxt, draw):
    choices = [(c, k) for c in _created(prev, nxt) for k, v in enumerate(c.vals) if v != full_set(n)]
    assume(choices)
    c, k = draw(st.sampled_from(choices))
    label = draw(st.sampled_from(labels_of(full_set(n) & ~c.vals[k])))
    bad = _with_value(c, k, c.vals[k] | mask_of({label}))
    return [bad if l is c else l for l in nxt.lineages]


def _add_sibling_label(n, prev, event, nxt, draw):
    # the label comes from the other split part, so the union is unchanged;
    # the new value differs from its neighbours, so the lineage stays canonical
    below, above = _created(prev, nxt) if isinstance(event, Recombine) else (None, None)
    choices = [
        (c, k, label)
        for c, other in ((below, above), (above, below)) if c is not None
        for k, v in enumerate(c.vals)
        for label in labels_of(other.value_at(c.breaks[k - 1] if k else 0.0) & ~v)
        if v | mask_of({label}) not in c.vals[max(k - 1, 0):k + 2]
    ]
    assume(choices)
    c, k, label = draw(st.sampled_from(choices))
    bad = _with_value(c, k, c.vals[k] | mask_of({label}))
    return [bad if l is c else l for l in nxt.lineages]


def _drop_label(n, prev, event, nxt, draw):
    choices = [(c, k) for c in _created(prev, nxt) for k, v in enumerate(c.vals) if v]
    c, k = draw(st.sampled_from(choices))
    label = draw(st.sampled_from(labels_of(c.vals[k])))
    bad = _with_value(c, k, c.vals[k] & ~mask_of({label}))
    return [bad if l is c else l for l in nxt.lineages]


def _equal_adjacent(n, prev, event, nxt, draw):
    # split one segment in two with the same value: same material, uncanonical
    c = draw(st.sampled_from(_created(prev, nxt)))
    k = draw(st.integers(0, len(c.vals) - 1))
    lo = c.breaks[k - 1] if k else 0.0
    hi = c.breaks[k] if k < len(c.breaks) else 1.0
    breaks = c.breaks[:k] + (0.5 * (lo + hi),) + c.breaks[k:]
    bad = Lineage(breaks, c.vals[: k + 1] + c.vals[k:])
    return [bad if l is c else l for l in nxt.lineages]


def _null_split_part(n, prev, event, nxt, draw):
    # one part carries all of the split lineage's material, the other none
    assume(isinstance(event, Recombine))
    kept = [l for l in nxt.lineages if any(l is k for k in prev.lineages)]
    whole = prev.lineages[event.i]
    return sorted(kept + [whole], key=Lineage.rank_key) + [Lineage.constant(0)]


def _unsorted(n, prev, event, nxt, draw):
    assume(len(nxt.lineages) >= 2)
    r = draw(st.integers(0, len(nxt.lineages) - 2))
    out = list(nxt.lineages)
    out[r], out[r + 1] = out[r + 1], out[r]
    return out


def _swap_kept(n, prev, event, nxt, draw):
    kept = [r for r, l in enumerate(nxt.lineages) if any(l is k for k in prev.lineages)]
    assume(kept)
    r = draw(st.sampled_from(kept))
    other = draw(st.sampled_from([l for q, l in enumerate(nxt.lineages) if q != r]))
    out = list(nxt.lineages)
    out[r] = other
    return out


CORRUPTIONS = [_add_label, _add_sibling_label, _drop_label, _equal_adjacent, _null_split_part, _unsorted, _swap_kept]


@given(
    st.sampled_from(CORRUPTIONS),
    st.integers(3, 6),
    st.integers(0, 10 ** 6),
    st.integers(0, 30),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_check_rejects_each_corruption(corrupt, n, seed, at, data):
    # State.check is the invariant oracle the replay validator runs on every
    # replayed state: each corruption of a step's result must fail it
    steps = list(random_walk(n, seed, 40))
    prev, event, nxt = steps[at % len(steps)]
    nxt.check()
    bad = raw_state(n, corrupt(n, prev, event, nxt, data.draw))
    with pytest.raises(AssertionError):
        bad.check()


@given(st.integers(2, 12), st.integers(0, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_rank_lemma_on_random_walks(n, seed):
    # what state.advance and graph_to_arg lean on: the
    # lineage left at rank i is the union, or the part below the locus, and
    # the upper part sits at the first rank past i whose lineage is not prev's
    for prev, event, nxt in random_walk(n, seed, 40):
        old, new, i = prev.lineages, nxt.lineages, event.i
        if isinstance(event, Coalesce):
            assert new[i] == old[i].union(old[event.j])
        else:
            below, above = old[i].split(event.locus)
            assert new[i] == below
            p = next(q for q in range(i + 1, len(new)) if q == len(old) or new[q] is not old[q])
            assert new[p] == above
