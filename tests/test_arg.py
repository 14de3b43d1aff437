"""Arg path tests: validation, breakpoints, trees, the projection oracle,
summary statistics, and the event-log serialization."""

import bisect
import collections
import contextlib
import gc
import io
import itertools
import json
import math
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import argsim.state
from argsim import arg as arg_module
from argsim import config
from argsim.arg import (
    Arg,
    ArgParseError,
    breakpoints,
    local_tree,
    read_arg,
    read_args,
    summary,
    validate_arg,
    write_arg,
)
from argsim.backintime import simulate_backintime
from argsim.config import SimConfig
from argsim.spatial import simulate_spatial
from argsim.state import Coalesce, Lineage, Recombine, State, fmt_locus
from conftest import (
    build_arg,
    count_advance,
    mask_of,
    newick_from_levels,
    path_states,
    project_path,
    project_state,
    random_walk,
    replay_validate,
    site_partition,
    state_at,
    walk_site_tree,
)


def two_leaf_arg(t_coal=1.3):
    cfg = SimConfig(n_samples=2, rho=0.0, seed=0)
    return build_arg(cfg, [(t_coal, Coalesce(0, 1))])


def test_validate_engine_output():
    for seed in (0, 1, 2):
        cfg = SimConfig(n_samples=4, rho=1.0, seed=seed)
        assert validate_arg(simulate_backintime(cfg)).passed
        assert validate_arg(simulate_spatial(cfg)).passed


def test_passing_report_renders_one_line():
    report = validate_arg(two_leaf_arg())
    assert report.passed
    assert report.render() == "valid: all clauses hold"


def test_validate_repeated_locus_fails_clause_c():
    cfg = SimConfig(n_samples=2, rho=1.0, seed=0)
    arg = build_arg(
        cfg,
        [
            (0.2, Recombine(0, 0.5)),
            (0.4, Recombine(1, 0.5)),  # same locus on the other lineage
            (0.6, Coalesce(0, 1)),
            (0.8, Coalesce(1, 2)),
            (1.0, Coalesce(0, 1)),
        ],
    )
    report = validate_arg(arg)
    assert not report.passed
    assert [v[1] for v in report.violations] == ["c"]
    assert "0.5" in report.render()


def test_validate_illegal_event_fails_clause_b():
    cfg = SimConfig(n_samples=2, rho=0.0, seed=0)
    arg = Arg(cfg, [1.0], [Coalesce(0, 5)], State.absorbing(2))
    report = validate_arg(arg)
    assert not report.passed
    assert any(v[1] == "b" for v in report.violations)


def test_validate_diverging_recorded_state_fails_clause_b():
    # the events are legal, but they do not reach the recorded final state
    cfg = SimConfig(n_samples=3, rho=0.0, seed=0)
    good = State.initial(3).apply(Coalesce(0, 1))
    wrong = State.initial(3).apply(Coalesce(0, 2))
    arg = Arg(cfg, [0.5], [Coalesce(0, 1)], wrong)
    report = validate_arg(arg)
    assert not report.passed
    assert any(v[1] == "b" for v in report.violations)
    assert report.violations[-1] == (None, "b", "final state diverges from replay")
    assert good != wrong


def test_validate_unfinished_path_fails_clause_d():
    cfg = SimConfig(n_samples=3, rho=0.0, seed=0)
    arg = build_arg(cfg, [(0.5, Coalesce(0, 1))])
    report = validate_arg(arg)
    assert not report.passed
    assert [v[1] for v in report.violations] == ["d"]


def test_validate_nonincreasing_times_fail_clause_e():
    cfg = SimConfig(n_samples=3, rho=0.0, seed=0)
    arg = build_arg(cfg, [(0.7, Coalesce(0, 1)), (0.7, Coalesce(0, 1))])
    report = validate_arg(arg)
    assert not report.passed
    assert any(v[1] == "e" for v in report.violations)


# Each tampering picks a step of a random legal walk where it applies and
# returns (step index, recorded event) for that step.


def _pick(walk, draw, applies):
    steps = [m for m, step in enumerate(walk) if applies(*step)]
    assume(steps)
    m = draw(st.sampled_from(steps))
    return (m,) + walk[m]


def _wrong_pair(walk, draw):
    m, prev, event, nxt = _pick(
        walk, draw, lambda prev, event, nxt: isinstance(event, Coalesce) and len(prev.lineages) >= 3)
    k = len(prev.lineages)
    i = draw(st.integers(0, k - 2))
    j = draw(st.integers(i + 1, k - 1))
    assume((i, j) != (event.i, event.j))
    return m, Coalesce(i, j)


def _ranks_out_of_range(walk, draw):
    # the swapped pair names the right lineages, but not as i < j
    m, prev, event, nxt = _pick(walk, draw, lambda *step: True)
    k = len(prev.lineages)
    bad = draw(st.sampled_from([k, k + 1, -1]))
    choices = [Coalesce(0, bad), Recombine(bad, 0.5)]
    if isinstance(event, Coalesce):
        choices.append(Coalesce(event.j, event.i))
    return m, draw(st.sampled_from(choices))


def _has_prefix(prev, event, nxt):
    b0, e0 = prev.active_intervals()[0]
    return 0.0 < b0 < e0


def _edge_locus(walk, draw):
    # a split exactly at an end of the active interval; at the end of rank
    # 0's shared prefix both parts are non-null and partition the material,
    # so only the interval tells it from a legal split
    if draw(st.booleans()):
        m, prev, event, nxt = _pick(walk, draw, _has_prefix)
        i, u = 0, prev.active_intervals()[0][0]
    else:
        m, prev, event, nxt = _pick(walk, draw, lambda *step: True)
        ends = [(r, u) for r, (b, e) in enumerate(prev.active_intervals()) if b < e for u in (b, e)]
        assume(ends)
        i, u = draw(st.sampled_from(ends))
    return m, Recombine(i, u)


TAMPERS = [_wrong_pair, _ranks_out_of_range, _edge_locus]


@given(
    st.sampled_from(TAMPERS),
    st.integers(2, 5),
    st.integers(0, 10 ** 6),
    st.integers(1, 30),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_validate_arg_agrees_with_the_replay_oracle(tamper, n, seed, steps, data):
    # the recorded final state is the untampered walk's end
    walk = list(random_walk(n, seed, steps))
    events = [event for _, event, _ in walk]
    m, events[m] = tamper(walk, data.draw)
    times = [float(t) for t in range(1, len(walk) + 1)]
    arg = Arg(SimConfig(n_samples=n, rho=1.0, seed=0), times, events, walk[-1][2])
    assert validate_arg(arg).violations == replay_validate(arg).violations


def test_recombining_the_absorbing_state_is_clause_b(r1_mutant):
    # with the shared-prefix rule off, the absorbed lineage's interval is
    # (0, 1): only the lineage count forbids splitting it
    cfg = SimConfig(n_samples=2, rho=1.0, seed=0)
    arg = Arg(cfg, [1.0, 2.0, 3.0], [Coalesce(0, 1), Recombine(0, 0.5), Coalesce(0, 1)],
              State.absorbing(2))
    report = validate_arg(arg)
    assert report.violations == replay_validate(arg).violations
    assert report.violations == [(1, "b", "cannot recombine the absorbing state")]


def test_validate_replays_each_event_once(monkeypatch):
    # engine output and a read log are checked the same way: one kernel step
    # per event, no full check and no comparison but the end's
    arg = simulate_backintime(SimConfig(n_samples=8, rho=5.0, density="beta:2,2", seed=11))
    buf = io.StringIO()
    write_arg(arg, buf)
    parsed = read_arg(io.StringIO(buf.getvalue()))  # the read replays once
    compared, checked = [], []
    applied = count_advance(monkeypatch)
    eq, check = State.__eq__, State.check
    monkeypatch.setattr(State, "__eq__", lambda self, other: compared.append(self) or eq(self, other))
    monkeypatch.setattr(State, "check", lambda self: checked.append(self) or check(self))
    assert arg.event_count > 10
    for path in (arg, parsed):
        applied.clear()
        compared.clear()
        assert validate_arg(path).passed
        assert applied == list(arg.events)
        assert len(compared) == 2  # the replay's end against the recorded one, and clause (d)
    assert checked == []
    # the first illegal event ends the replay
    events = list(arg.events)
    events[3] = Coalesce(0, 10 ** 6)
    applied.clear()
    report = validate_arg(Arg(arg.config, arg.times, events, arg.final_state))
    assert [v[:2] for v in report.violations] == [(3, "b"), (None, "d")]  # (d) reads where it ended
    assert applied == events[:4]


def test_an_arg_holds_no_state_but_its_end():
    assert not {"states", "initial"} & set(Arg.__slots__)


@pytest.mark.parametrize("engine", [simulate_backintime, simulate_spatial])
def test_an_arg_is_small_at_large_n(engine):
    # an Arg is its times, events and final state: at n=800, rho=0 that is
    # 799 events, about 0.1 MB; one state per event would be about 3 MB
    cfg = SimConfig(n_samples=800, rho=0.0, seed=2)
    engine(cfg.with_replicate(1))  # warm: what a first call loads is not the Arg's
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        arg = engine(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert arg.event_count == 799
    assert held <= 0.5e6, "an n=800 Arg holds %d bytes" % held


def test_breakpoints_empty_without_recombination():
    cfg = SimConfig(n_samples=4, rho=0.0, seed=3)
    assert breakpoints(simulate_backintime(cfg)) == ((), ())


def test_breakpoints_are_order_statistics_with_appearance_times():
    cfg = SimConfig(n_samples=2, rho=1.0, seed=0)
    arg = build_arg(
        cfg,
        [
            (0.4, Recombine(0, 0.7)),
            (0.9, Recombine(0, 0.2)),
            (1.1, Coalesce(0, 1)),
            (1.5, Coalesce(1, 2)),
            (1.8, Coalesce(0, 1)),
        ],
    )
    assert validate_arg(arg).passed
    loci, times = breakpoints(arg)
    assert loci == (0.2, 0.7)
    assert times == (0.9, 0.4)


def test_breakpoint_count_equals_recombination_events():
    for seed in range(30):
        cfg = SimConfig(n_samples=4, rho=1.5, seed=seed)
        arg = simulate_backintime(cfg)
        loci, _ = breakpoints(arg)
        n_rec = sum(1 for ev in arg.events if isinstance(ev, Recombine))
        assert len(loci) == n_rec


def test_local_tree_two_leaves():
    arg = two_leaf_arg(1.3)
    tree = local_tree(arg, 0.5)
    assert tree.levels == (
        (0.0, (mask_of({1}), mask_of({2}))),
        (1.3, (mask_of({1, 2}),)),
    )
    assert tree.levels[-1][0] == 1.3
    assert summary(arg, sites=(0.5,)).length_at[0.5] == pytest.approx(2.6)
    assert tree.newick() == "(1:1.3,2:1.3);"


def test_local_tree_newick_nesting_order():
    cfg = SimConfig(n_samples=3, rho=0.0, seed=0)
    arg = build_arg(cfg, [(0.5, Coalesce(1, 2)), (1.0, Coalesce(0, 1))])
    assert local_tree(arg, 0.0).newick() == "(1:1.0,(2:0.5,3:0.5):0.5);"


def test_local_tree_constant_left_of_first_breakpoint():
    done = 0
    for seed in range(40):
        cfg = SimConfig(n_samples=4, rho=1.0, seed=7, replicate_index=seed)
        arg = simulate_backintime(cfg)
        loci, _ = breakpoints(arg)
        if not loci:
            continue
        a = local_tree(arg, 0.0)
        b = local_tree(arg, loci[0] / 2.0)
        assert a.levels == b.levels
        stats = summary(arg, sites=(0.0, loci[0] / 2.0))
        assert stats.tmrca_at[0.0] == stats.tmrca_at[loci[0] / 2.0]
        assert stats.length_at[0.0] == stats.length_at[loci[0] / 2.0]
        done += 1
    assert done > 5


def test_local_tree_height_bounded_by_grand_mrca():
    for seed in range(25):
        cfg = SimConfig(n_samples=5, rho=1.0, seed=13, replicate_index=seed)
        arg = simulate_backintime(cfg)
        for s in (0.0, 0.33, 0.8):
            tree = local_tree(arg, s)
            assert tree.levels[-1][0] <= arg.grand_mrca + 1e-15
            # partitions coarsen one merge at a time
            sizes = [len(p) for _, p in tree.levels]
            assert sizes == list(range(5, 0, -1))


def test_project_arg_at_zero_is_site_tree():
    cfg = SimConfig(n_samples=4, rho=1.5, seed=29)
    arg = simulate_backintime(cfg)
    steps = project_path(arg, 0.0)
    assert project_state(State.initial(4), 0.0) == State.initial(4)
    assert steps[-1][1].is_absorbed
    # a projection can only drop detail: its jumps are a subset of events
    assert len(steps) <= arg.event_count


def test_project_arg_right_of_last_breakpoint_is_identity():
    for seed in range(30):
        cfg = SimConfig(n_samples=4, rho=1.0, seed=41, replicate_index=seed)
        arg = simulate_backintime(cfg)
        loci, _ = breakpoints(arg)
        s = (max(loci) + 1.0) / 2.0 if loci else 0.5
        steps = project_path(arg, s)
        assert len(steps) == arg.event_count
        assert [state for _, state in steps] == path_states(arg)


def test_projection_jump_count_monotone_in_site():
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 0.999]
    for seed in range(25):
        cfg = SimConfig(n_samples=4, rho=2.0, seed=53, replicate_index=seed)
        arg = simulate_backintime(cfg)
        counts = [len(project_path(arg, s)) for s in grid]
        assert counts == sorted(counts)


def test_projection_preserves_site_partition():
    cfg = SimConfig(n_samples=4, rho=1.5, seed=61)
    arg = simulate_backintime(cfg)
    path = list(zip(arg.times, path_states(arg)))
    for s in (0.0, 0.3, 0.7):
        steps = project_path(arg, s)
        start = project_state(State.initial(4), s)
        for t in arg.times:
            want = site_partition(state_at(State.initial(4), path, t), s)
            assert site_partition(state_at(start, steps, t), s) == want


def test_summary_kingman():
    cfg = SimConfig(n_samples=4, rho=0.0, seed=5)
    arg = simulate_backintime(cfg)
    stats = summary(arg)
    assert stats.breakpoint_count == 0
    assert arg.event_count == 3
    assert stats.max_lineages == 4
    assert stats.tmrca_at[0.0] == arg.grand_mrca


def test_summary_two_leaf_lengths():
    stats = summary(two_leaf_arg(1.3), sites=(0.0,))
    assert stats.length_at[0.0] == pytest.approx(2.6)
    assert stats.grand_mrca == 1.3


def test_summary_matches_local_tree():
    sites = (0.0, 0.25, 0.5, 0.75)
    for simulate, density, seed in itertools.product(
        (simulate_backintime, simulate_spatial), ("uniform", "beta:2,2"), range(40),
    ):
        cfg = SimConfig(n_samples=4, rho=1.5, density=density, seed=71, replicate_index=seed)
        arg = simulate(cfg)
        stats = summary(arg, sites=sites)
        for s in sites:
            levels, height, length = walk_site_tree(arg, s)
            assert local_tree(arg, s).levels == levels
            assert stats.tmrca_at[s] == height
            assert stats.length_at[s] == pytest.approx(length, rel=1e-9)
            assert stats.tmrca_at[s] <= stats.grand_mrca + 1e-15


def test_local_tree_newick_and_levels_match_the_partition_walk():
    # newick() and levels read the merges a path records; the oracle
    # rediscovers each merge from the partitions of every state
    grid = itertools.product(
        (simulate_backintime, simulate_spatial), range(2, 15), range(10),
        ("uniform", "beta:2,2", "beta:0.5,0.5"),
    )
    for simulate, n, rho, density in grid:
        cfg = SimConfig(n_samples=n, rho=rho, density=density, seed=97)
        arg = simulate(cfg)
        for s in (0.0, 0.13, 0.5, 0.91):
            tree = local_tree(arg, s)
            levels = walk_site_tree(arg, s)[0]
            assert tree.levels == levels
            assert tree.newick() == newick_from_levels(levels)


def walked_counts(arg):
    """(recombinations, most lineages at once), counted event by event."""
    k = most = arg.n_samples
    recombinations = 0
    for event in arg.events:
        if isinstance(event, Recombine):
            recombinations += 1
            k += 1
            most = max(most, k)
        else:
            k -= 1
    return recombinations, most


def test_summary_counts_match_an_event_walk():
    for simulate, n, rho, rep in itertools.product(
        (simulate_backintime, simulate_spatial), (2, 4, 7), (0.0, 1.5, 6.0), range(5),
    ):
        arg = simulate(SimConfig(n_samples=n, rho=rho, seed=101, replicate_index=rep))
        stats = summary(arg)
        assert (stats.breakpoint_count, stats.max_lineages) == walked_counts(arg)


def test_summary_counts_on_a_path_that_is_not_absorbed():
    # three lineages after the recombination, two at the end: counting the
    # end as one lineage would find no breakpoint
    cfg = SimConfig(n_samples=2, rho=1.0, seed=0)
    arg = build_arg(cfg, [(0.1, Recombine(0, 0.5)), (0.3, Coalesce(0, 1))])
    assert not arg.final_state.is_absorbed
    stats = summary(arg)
    assert (stats.breakpoint_count, stats.max_lineages) == walked_counts(arg) == (1, 3)


def test_summary_event_identity():
    # every recombination must later re-coalesce: gamma = (N-1) + 2 |Bp|
    for seed in range(40):
        cfg = SimConfig(n_samples=5, rho=1.0, seed=83, replicate_index=seed)
        arg = simulate_backintime(cfg)
        assert arg.event_count == 4 + 2 * summary(arg).breakpoint_count


def test_serialization_roundtrip():
    cfg = SimConfig(n_samples=4, rho=1.5, density="beta:2,2", seed=12345, replicate_index=6)
    arg = simulate_backintime(cfg)
    buf = io.StringIO()
    write_arg(arg, buf)
    text = buf.getvalue()
    loaded = read_arg(io.StringIO(text))
    assert loaded.config == cfg
    assert loaded.times == arg.times
    assert loaded.events == arg.events
    assert loaded.final_state == arg.final_state
    buf2 = io.StringIO()
    write_arg(loaded, buf2)
    assert buf2.getvalue() == text


def test_serialization_multiple_replicates():
    cfg = SimConfig(n_samples=3, rho=1.0, seed=9)
    buf = io.StringIO()
    args = []
    for r in range(3):
        arg = simulate_backintime(cfg.with_replicate(r))
        args.append(arg)
        write_arg(arg, buf)
    loaded = list(read_args(io.StringIO(buf.getvalue())))
    assert len(loaded) == 3
    for got, want in zip(loaded, args):
        assert got.config.replicate_index == want.config.replicate_index
        assert got.events == want.events
    with pytest.raises(ArgParseError):
        read_arg(io.StringIO(buf.getvalue()))  # expects exactly one log


def test_parse_error_reports_line_numbers():
    cfg = SimConfig(n_samples=2, rho=0.0, seed=2)
    buf = io.StringIO()
    write_arg(simulate_backintime(cfg), buf)
    lines = buf.getvalue().splitlines()

    # truncated: no trailer
    with pytest.raises(ArgParseError):
        list(read_args(io.StringIO("\n".join(lines[:-1]) + "\n")))

    # corrupted checksum
    bad = "\n".join(lines[:-1] + [lines[-1].replace(lines[-1][-5], "0", 1)]) + "\n"
    if bad != "\n".join(lines) + "\n":
        with pytest.raises(ArgParseError):
            list(read_args(io.StringIO(bad)))

    # malformed json mentions its line number
    broken = "\n".join([lines[0], "{not json", *lines[1:]]) + "\n"
    with pytest.raises(ArgParseError) as exc:
        list(read_args(io.StringIO(broken)))
    assert "line 2" in str(exc.value)


@pytest.mark.parametrize("line, old, new, message", [
    (0, '"format_version":1', '"format_version":2', "line 1: unsupported format_version 2"),
    (-1, '"events":1', '"events":2', "line 3: trailer count 2 != 1 events read"),
])
def test_parse_rejects_a_version_or_trailer_count_it_does_not_know(line, old, new, message):
    buf = io.StringIO()
    write_arg(simulate_backintime(SimConfig(n_samples=2, rho=0.0, seed=2)), buf)
    lines = buf.getvalue().splitlines()
    assert old in lines[line]
    lines[line] = lines[line].replace(old, new)
    with pytest.raises(ArgParseError) as exc:
        read_arg(io.StringIO("\n".join(lines) + "\n"))
    assert str(exc.value) == message


def test_parse_rejects_unknown_event_type():
    cfg = SimConfig(n_samples=2, rho=0.0, seed=2)
    buf = io.StringIO()
    write_arg(simulate_backintime(cfg), buf)
    text = buf.getvalue().replace('"type":"coal"', '"type":"merge"')
    with pytest.raises(ArgParseError):
        list(read_args(io.StringIO(text)))


def test_loaded_floats_are_exact():
    cfg = SimConfig(n_samples=3, rho=1.0 / 3.0, seed=77)
    arg = simulate_backintime(cfg)
    buf = io.StringIO()
    write_arg(arg, buf)
    loaded = read_arg(io.StringIO(buf.getvalue()))
    assert loaded.config.rho == cfg.rho
    assert loaded.times == arg.times


def _rec_log_lines():
    """The lines of a one-log stream that holds a recombination."""
    cfg = SimConfig(n_samples=2, rho=2.0, seed=1)
    for r in itertools.count():
        arg = simulate_backintime(cfg.with_replicate(r))
        if any(isinstance(ev, Recombine) for ev in arg.events):
            buf = io.StringIO()
            write_arg(arg, buf)
            return buf.getvalue().splitlines()


@pytest.mark.parametrize("number", ["1e400", "-1e400", "NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", ["rho", "u", "t"])
def test_non_finite_numbers_are_parse_errors(number, key):
    # 1e400 is valid JSON that reads as inf; an infinite last time would
    # pass validation and be written back as "inf", which no reader takes
    lines = _rec_log_lines()
    lineno = max(k for k, line in enumerate(lines, 1) if '"%s":' % key in line)
    lines[lineno - 1] = re.sub(r'"%s":[^,}]+' % key, '"%s":%s' % (key, number), lines[lineno - 1])
    with pytest.raises(ArgParseError) as exc:
        list(read_args(io.StringIO("\n".join(lines) + "\n")))
    assert str(exc.value) == "line %d: non-finite number %s" % (lineno, number)


@pytest.mark.parametrize("key", ["rho", "u", "t"])
def test_integers_past_the_float_range_are_parse_errors(key):
    # JSON integers are unbounded: such a time would validate, then
    # overflow in the tree's length sum and in fmt_locus
    lines = _rec_log_lines()
    lineno = max(k for k, line in enumerate(lines, 1) if '"%s":' % key in line)
    lines[lineno - 1] = re.sub(r'"%s":[^,}]+' % key, '"%s":1%s' % (key, "0" * 400), lines[lineno - 1])
    with pytest.raises(ArgParseError) as exc:
        list(read_args(io.StringIO("\n".join(lines) + "\n")))
    assert str(exc.value) == "line %d: %r is an integer too large for a float" % (lineno, key)


def test_integer_fields_that_may_be_floats_read_as_floats():
    lines = _rec_log_lines()
    lines[0] = re.sub(r'"rho":[^,}]+', '"rho":2', lines[0])
    arg = read_arg(io.StringIO("\n".join(lines) + "\n"))
    assert type(arg.config.rho) is float and arg.config.rho == 2.0
    assert all(type(t) is float for t in arg.times)


def test_config_refuses_an_integer_rho_past_the_float_range():
    with pytest.raises(ValueError, match="too large for a float"):
        SimConfig(n_samples=2, rho=10 ** 400)
    assert type(SimConfig(n_samples=2, rho=3).rho) is float


def test_config_refuses_a_negative_replicate_index():
    with pytest.raises(ValueError) as exc:
        SimConfig(n_samples=2, rho=1.0, replicate_index=-1)
    assert str(exc.value) == "replicate_index must be nonnegative"


def test_header_past_the_event_cap_is_a_parse_error(monkeypatch):
    # a path takes at least n - 1 events, so a header whose n asks for more
    # than the cap is refused before the n-lineage initial state is built
    monkeypatch.setattr(config, "DEFAULT_EVENT_CAP", 3)
    text = {}
    for n in (4, 5):
        buf = io.StringIO()
        write_arg(build_arg(SimConfig(n_samples=n), [(k + 1.0, Coalesce(0, 1)) for k in range(n - 1)]), buf)
        text[n] = buf.getvalue()
    assert read_arg(io.StringIO(text[4])).event_count == 3
    with pytest.raises(ArgParseError) as exc:
        read_arg(io.StringIO(text[5]))
    assert str(exc.value) == "line 1: n_samples 5 needs more events than the cap of 3"


def _log_lines():
    cfg = SimConfig(n_samples=3, rho=1.0, density="beta:2,2", seed=4)
    buf = io.StringIO()
    for r in range(2):
        write_arg(simulate_backintime(cfg.with_replicate(r)), buf)
    return buf.getvalue().splitlines()


LOG_LINES = _log_lines()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_line(draw):
    """A line of a real log with one field, or one event field, replaced or dropped."""
    obj = json.loads(draw(st.sampled_from(LOG_LINES)))
    target = obj["ev"] if "ev" in obj and draw(st.booleans()) else obj
    key = draw(st.sampled_from(sorted(target)))
    if draw(st.booleans()):
        del target[key]
    else:
        target[key] = draw(JSON_VALUES)
    return json.dumps(obj)


@given(st.lists(
    st.sampled_from(LOG_LINES) | mutated_line() | JSON_VALUES.map(json.dumps) | st.text(max_size=20),
    max_size=14,
))
@settings(max_examples=300, deadline=None)
def test_any_line_sequence_parses_or_raises_parse_error(lines):
    try:
        list(read_args(io.StringIO("\n".join(lines) + "\n")))
    except ArgParseError:
        pass



# --- the reader's single match, held to the JSON route ----------------------


def _diff_log_lines():
    """A one-log stream at n=4 that keeps at least 3 lineages over its first 3 events."""
    cfg = SimConfig(n_samples=4, rho=2.0, seed=3)
    for r in itertools.count():
        arg = simulate_backintime(cfg.with_replicate(r))
        if min(len(state.lineages) for state in path_states(arg)[:3]) >= 3:
            buf = io.StringIO()
            write_arg(arg, buf)
            return buf.getvalue().splitlines()


DIFF_LOG_LINES = _diff_log_lines()
EDGE_NUMBERS = [
    "-0", "0", "3", "-0.0", "-0e0", "0E-0", "25E-2", "2.5e+0", "1" + "0" * 400, "1" + "0" * 400 + ".0",
    "1e400", "-1e400", "1e-400", "-1e-400", "5e-324", "00.5", ".5", "1.", "NaN", "inf",
]
EDGE_RANKS = ["-1", "-0", "00", "4", "1" + "0" * 400, "true", "1.0", "1e0"]


@st.composite
def event_line(draw):
    """(m, line): an event line after m events, as arg_to_lines writes one or near that form.

    The event is legal in most states the prefix reaches. One change is
    drawn: an edge number or rank in one field, or a layout the match does
    not read. So a line the match reads with an edge number in it is drawn
    often.
    """
    m = draw(st.integers(0, 3))
    change = draw(st.sampled_from(["none", "t", "t", "u", "i", "j", "n", "spaces", "order", "key"]))

    def field(name, plain, edges):
        return draw(st.sampled_from(edges)) if change == name else plain

    if draw(st.booleans()):
        i, j = sorted(draw(st.sets(st.integers(0, 2), min_size=2, max_size=2)))
        ev = [("type", '"coal"'), ("i", field("i", str(i), EDGE_RANKS)), ("j", field("j", str(j), EDGE_RANKS))]
    else:
        u = fmt_locus(draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
        i = str(draw(st.integers(0, 2)))
        ev = [("type", '"rec"'), ("i", field("i", i, EDGE_RANKS)), ("u", field("u", u, EDGE_NUMBERS))]
    # an integral float prints as a JSON integer, which EDGE_NUMBERS covers
    t = fmt_locus(draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())))
    index = field("n", str(m), [str(m + 1), "-0", "%d.0" % m, "1" + "0" * 400])
    outer = [("n", index), ("t", field("t", t, EDGE_NUMBERS))]
    comma = colon = ""
    if change == "spaces":
        comma, colon = draw(st.sampled_from([(" ", ""), ("", " "), (" ", " ")]))
    elif change == "order":
        ev, outer = draw(st.permutations(ev)), draw(st.permutations(outer))
    elif change == "key":
        extra = (draw(st.sampled_from(["x", "n", "i", "t"])), draw(st.sampled_from(["1", "0.5", '"coal"'])))
        ev, outer = (ev + [extra], outer) if draw(st.booleans()) else (ev, outer + [extra])

    def render(pairs):
        return "{%s}" % ("," + comma).join('"%s":%s%s' % (key, colon, text) for key, text in pairs)

    return m, render(outer + [("ev", render(ev))])


def _exact(x):
    """A number as its type, value and sign: -0.0 and 0.0 differ here, as bits do."""
    return (type(x), x, math.copysign(1.0, x)) if isinstance(x, float) else (type(x), x)


def _read_exactly(lines, route):
    """Each (time, event) read_args gives, field by field, or its ArgParseError text.

    The trailer is not checked, so a log whose events parse is always given
    back. ``route`` "json" reads every line by the JSON route.
    """
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(arg_module, "_check_trailer", lambda *args: None))
        if route == "json":
            stack.enter_context(mock.patch.object(arg_module, "_canonical_event", lambda raw, count: None))
        try:
            (log,) = read_args(io.StringIO("\n".join(lines) + "\n"))
        except ArgParseError as err:
            return str(err)
    return [
        (_exact(t), type(ev), _exact(ev.i), _exact(ev.j if isinstance(ev, Coalesce) else ev.locus))
        for t, ev in zip(log.times, log.events)
    ]


@given(event_line())
@example((0, '{"n":0,"t":-0,"ev":{"type":"coal","i":0,"j":1}}'))
@example((0, '{"n":0,"t":-0.0,"ev":{"type":"rec","i":2,"u":-0.0}}'))
@example((0, '{"n":0,"t":-0e0,"ev":{"type":"rec","i":0,"u":5e-1}}'))
@example((1, '{"n":1,"t":7,"ev":{"type":"coal","i":0,"j":1}}'))
@example((0, '{"n":0,"t":1e400,"ev":{"type":"coal","i":0,"j":1}}'))
@example((0, '{"n":0,"t":0.25,"ev":{"type":"rec","i":-1,"u":0.5}}'))
@example((0, '{"n":0,"t":0.25,"ev":{"type":"coal","i":0,"j":%s}}' % ("1" + "0" * 400)))
@settings(max_examples=400, deadline=None)
def test_the_single_match_reads_an_event_line_as_the_json_route_does(case):
    m, line = case
    lines = DIFF_LOG_LINES[:1 + m] + [line, '{"events":0,"checksum":""}']
    assert _read_exactly(lines, "match") == _read_exactly(lines, "json")


def test_reading_a_log_checks_fields_only_on_header_and_trailer_lines(monkeypatch):
    # work guards: an event line is read by one match and replayed by the
    # rank lemma. Reading must not go back to the JSON route's per-field
    # checks, build an all-rank interval tuple, or sort a state by insort:
    # the rank keys read are the start state's sort plus, per
    # recombination, one comparison and one bisection
    base = SimConfig(n_samples=20, rho=15.0, density="beta:2,2", seed=1)
    buf = io.StringIO()
    for r in range(30):
        write_arg(simulate_backintime(base.with_replicate(r)), buf)
    fields = collections.Counter()
    field = arg_module._field
    monkeypatch.setattr(arg_module, "_field", lambda obj, key, kinds: fields.update([key]) or field(obj, key, kinds))
    built = [0]
    intervals = State.active_intervals
    monkeypatch.setattr(State, "active_intervals", lambda self: built.__setitem__(0, built[0] + 1) or intervals(self))
    keyed = [0]
    rank_key = Lineage.rank_key
    monkeypatch.setattr(Lineage, "rank_key", lambda self: keyed.__setitem__(0, keyed[0] + 1) or rank_key(self))

    def no_insort(*args, **kwargs):
        raise AssertionError("insort called")

    monkeypatch.setattr(bisect, "insort", no_insort)
    monkeypatch.setattr(argsim.state, "insort", no_insort, raising=False)
    logs = list(read_args(io.StringIO(buf.getvalue())))
    assert fields == {key: 30 for key in ("format_version", "n_samples", "rho", "density", "seed", "replicate", "events")}
    assert built[0] == 0
    budget = 0
    for log in logs:
        k = log.n_samples
        budget += k
        for event in log.events:
            if isinstance(event, Recombine):
                budget += 2 + k.bit_length()
            k += 1 if isinstance(event, Recombine) else -1
    assert keyed[0] <= budget
    assert sum(isinstance(ev, Recombine) for log in logs for ev in log.events) > 1000
