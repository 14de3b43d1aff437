"""State-space operator tests: ranking, recombination, coalescence,
the projection oracle, rendering, and the partition invariant."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from argsim.backintime import simulate_backintime
from argsim.config import SimConfig
from argsim.spatial import simulate_spatial
from argsim.state import (
    Coalesce,
    IllegalEventError,
    Lineage,
    Recombine,
    State,
    full_set,
    render_state,
)
from conftest import lin, project_state, random_walk, walk_states


def test_initial_state_is_ranked_singletons():
    x = State.initial(3)
    assert len(x.lineages) == 3
    assert [l.value_at(0.0) for l in x.lineages] == [
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    ]
    x.check()


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
    x = State.initial(2).recombine(0, 0.5)
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
        x.recombine(0, 0.2)


def test_recombine_rejects_outside_support():
    x = State(
        2,
        [
            lin((0.0, 0.2, {1, 2}), (0.2, 0.7, {1}), (0.7, 1.0, {1, 2})),
            lin((0.2, 0.7, {2}),),
        ],
    )
    with pytest.raises(IllegalEventError):
        x.recombine(1, 0.8)
    with pytest.raises(IllegalEventError):
        x.recombine(1, 0.1)


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
            split = state.recombine(i, u)
            lo, hi = state.lineages[i].split(u)
            ri = split.lineages.index(lo)
            rj = split.lineages.index(hi)
            back = split.coalesce(min(ri, rj), max(ri, rj))
            assert back == state
            break


def test_coalesce_to_absorbing():
    x = State.initial(2).coalesce(0, 1)
    assert x.is_absorbed
    assert x == State.absorbing(2)


def test_coalesce_disjoint_blocks():
    x = State.initial(3).coalesce(1, 2)
    assert [l.value_at(0.0) for l in x.lineages] == [frozenset({1}), frozenset({2, 3})]


def test_coalesce_complementary_supports():
    x = State.initial(2).recombine(0, 0.5)
    below = x.lineages.index(lin((0.0, 0.5, {1})))
    above = x.lineages.index(lin((0.5, 1.0, {1})))
    merged = x.coalesce(min(below, above), max(below, above))
    assert merged == State.initial(2)


def test_coalesce_rejects_bad_ranks():
    x = State.initial(3)
    with pytest.raises(IllegalEventError):
        x.coalesce(1, 1)
    with pytest.raises(IllegalEventError):
        x.coalesce(0, 3)
    with pytest.raises(IllegalEventError):
        State.absorbing(3).coalesce(0, 1)


def test_site_partition_basics():
    assert State.initial(3).site_partition(0.7) == (
        frozenset({1}),
        frozenset({2}),
        frozenset({3}),
    )
    assert State.absorbing(4).site_partition(0.1) == (frozenset({1, 2, 3, 4}),)
    x = State.initial(2).recombine(0, 0.5)
    assert x.site_partition(0.6) == (frozenset({1}), frozenset({2}))


def test_partition_invariant_along_random_walks():
    for seed in range(25):
        for _, _, nxt in random_walk(5, seed, 25):
            nxt.check()


def test_lineage_count_changes_by_one():
    for seed in range(10):
        for state, event, nxt in random_walk(4, seed, 20):
            delta = len(nxt.lineages) - len(state.lineages)
            assert delta == (1 if isinstance(event, Recombine) else -1)


def test_project_at_zero_freezes_blocks():
    for seed in range(10):
        states = walk_states(4, seed, 15)
        x = states[-1]
        p = project_state(x, 0.0)
        p.check()
        assert len(p.lineages) == len(x.site_partition(0.0))
        for l in p.lineages:
            assert l.breaks == ()  # constant lineages only


def test_project_without_later_breaks_is_identity():
    x = State.initial(3)
    assert project_state(x, 0.9) == x
    y = x.recombine(0, 0.2)
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
            assert project_state(x, s).site_partition(s) == x.site_partition(s)


def test_render_initial_and_split():
    assert render_state(State.initial(2)) == "[0,{1}] [0,{2}]"
    x = State.initial(2).recombine(0, 0.5)
    assert render_state(x) == "[0,{1} | 0.5,{}] [0,{2}] [0,{} | 0.5,{1}]"


def test_render_roundtrip_precision():
    u = 1.0 / 3.0
    x = State.initial(2).recombine(0, u)
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
    assert l.value_at(0.5) == frozenset({1, 2})
    assert l.value_at(math.nextafter(0.5, 0.0)) == frozenset({1})


def test_canonical_merges_adjacent_equal_segments():
    l = Lineage.from_segments(
        [(0.0, 0.3, frozenset({1})), (0.3, 1.0, frozenset({1}))]
    )
    assert l.breaks == ()
    assert l == lin((0.0, 1.0, {1}))


def test_full_set():
    assert full_set(4) == frozenset({1, 2, 3, 4})


def test_apply_dispatch():
    x = State.initial(3)
    assert x.apply(Coalesce(0, 1)) == x.coalesce(0, 1)
    assert x.apply(Recombine(2, 0.25)) == x.recombine(2, 0.25)
    with pytest.raises(TypeError):
        x.apply("coal")


def raw_state(n, lineages):
    """A State holding exactly these lineages, in this order (no sorting)."""
    return State._ranked(n, lineages)


@pytest.mark.parametrize("engine", [simulate_backintime, simulate_spatial])
@pytest.mark.parametrize("density", ["uniform", "beta:2,2"])
def test_check_step_agrees_with_check_on_engine_paths(engine, density):
    steps = 0
    for n in (4, 6):
        for rho in (1.0, 3.0):
            for seed in range(5):
                arg = engine(SimConfig(n_samples=n, rho=rho, density=density, seed=seed))
                prev = arg.initial.check()
                for event in arg.events:
                    nxt = prev.apply(event)
                    nxt.check_step(prev, event)
                    nxt.check()
                    prev = nxt
                    steps += 1
    assert steps > 100


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
    label = draw(st.sampled_from(sorted(full_set(n) - c.vals[k])))
    bad = _with_value(c, k, c.vals[k] | {label})
    return [bad if l is c else l for l in nxt.lineages]


def _add_sibling_label(n, prev, event, nxt, draw):
    # the label comes from the other split part, so the union is unchanged;
    # the new value differs from its neighbours, so the lineage stays canonical
    below, above = _created(prev, nxt) if isinstance(event, Recombine) else (None, None)
    choices = [
        (c, k, label)
        for c, other in ((below, above), (above, below)) if c is not None
        for k, v in enumerate(c.vals)
        for label in other.value_at(c.breaks[k - 1] if k else 0.0) - v
        if v | {label} not in c.vals[max(k - 1, 0):k + 2]
    ]
    assume(choices)
    c, k, label = draw(st.sampled_from(choices))
    bad = _with_value(c, k, c.vals[k] | {label})
    return [bad if l is c else l for l in nxt.lineages]


def _drop_label(n, prev, event, nxt, draw):
    choices = [(c, k) for c in _created(prev, nxt) for k, v in enumerate(c.vals) if v]
    c, k = draw(st.sampled_from(choices))
    label = draw(st.sampled_from(sorted(c.vals[k])))
    bad = _with_value(c, k, c.vals[k] - {label})
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
    return sorted(kept + [whole], key=Lineage.rank_key) + [Lineage.constant(())]


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
def test_check_step_rejects_what_check_rejects(corrupt, n, seed, at, data):
    steps = list(random_walk(n, seed, 40))
    prev, event, nxt = steps[at % len(steps)]
    prev.check()
    nxt.check_step(prev, event)
    bad = raw_state(n, corrupt(n, prev, event, nxt, data.draw))
    with pytest.raises(AssertionError):
        bad.check()
    with pytest.raises(AssertionError):
        bad.check_step(prev, event)
