"""Spatial engine tests.

The scripted-rng fixtures walk the staged construction deterministically:
a two-leaf tree gains one breakpoint (stage 1), then a second trace that
rides an old edge, detaches, and re-coalesces (stage 2). Every latitude
and material column of those graphs is hand-checked.
"""

import copy
import math
from bisect import bisect_right

import pytest

from argsim import spatial
from argsim.arg import breakpoints, local_tree, summary, validate_arg
from argsim.config import SimConfig
from argsim.density import BetaDensity, UniformDensity
from argsim.rng import SALTS, SimRng, replicate_rng
from argsim.spatial import (
    PartialGraph,
    accept_breakpoint,
    free_rise,
    graph_to_arg,
    kingman_tree,
    live_branches,
    live_intervals,
    sample_next_breakpoint,
    sample_recomb_location,
    simulate_spatial,
    trace_lineage,
)
from argsim.state import Coalesce, Lineage, Recombine, State
from argsim.stats import ENGINES, chi_square, kingman_expectations, ks_one_sample, ks_one_sample_with_atom
from conftest import check_invariants, column, count_advance, labels_of, mask_of, path_states, project_path, top_id

INF = float("inf")
UNIFORM = UniformDensity()


class ScriptedRng:
    """Replays fixed draws; records the rate of every exponential call."""

    def __init__(self, uniforms=(), exponentials=(), indices=()):
        self.uniforms = list(uniforms)
        self.exponentials = list(exponentials)
        self.indices = list(indices)
        self.exp_rates = []

    def uniform(self):
        return self.uniforms.pop(0)

    def exponential(self, rate):
        self.exp_rates.append(rate)
        return self.exponentials.pop(0)

    def index(self, k):
        i = self.indices.pop(0)
        assert 0 <= i < k
        return i

    def exhausted(self):
        return not (self.uniforms or self.exponentials or self.indices)


def transitions(trace):
    """The carried material's (time, mode, detail) sequence of one Trace."""
    out = [{"t": trace.t0, "kind": "fork", "branch": trace.fork_id}]
    for step in trace.steps:
        kind, t = step[0], step[1]
        entry = {"t": t, "kind": kind}
        if kind == "coal":
            entry["branch"] = step[2]
        elif kind == "detach":
            entry["locus"] = step[2]
        out.append(entry)
    return out


def record_stages(monkeypatch, keep_graphs=False):
    """Log every stage simulate_spatial accepts, by wrapping accept_breakpoint.

    With keep_graphs, each entry also holds a deep copy of the graph the
    stage left behind.
    """
    log = []
    accept = spatial.accept_breakpoint

    def recording(graph, s_new, trace):
        # read before the splice: the fork branch's value from the newest breakpoint on
        fork_value = labels_of(graph.branches[trace.fork_id].material.vals[-1])
        accept(graph, s_new, trace)
        log.append({
            "stage": len(graph.breakpoints),
            "locus": s_new,
            "xi": labels_of(trace.xi),
            "fork_value": fork_value,
            "transitions": transitions(trace),
        })
        if keep_graphs:
            log[-1]["graph"] = copy.deepcopy(graph)

    monkeypatch.setattr(spatial, "accept_breakpoint", recording)
    return log


def top_time(graph):
    """Latitude of the graph's highest node: the root of its oldest tree."""
    return max(nd.time for nd in graph.nodes)


def columns(graph):
    """Every branch's material columns, one per stage, by branch id."""
    return {
        b.id: tuple(column(graph, b, l) for l in range(len(graph.breakpoints) + 1))
        for b in graph.branches
    }


def two_leaf_graph(height=1.0):
    """Stage-0 graph: leaves 1 and 2 coalescing at the given height."""
    g = PartialGraph(2)
    a = g.add_branch(0.0, height, None, Lineage.constant(mask_of({1})))
    b = g.add_branch(0.0, height, None, Lineage.constant(mask_of({2})))
    top = g.add_branch(height, INF, None, Lineage.constant(mask_of({1, 2})))
    node = g.add_node(height, None, [a.id, b.id], [top.id])
    a.upper_node = b.upper_node = node.id
    g.set_tree((a, b))
    g.starts, g.counts = live_intervals(g)
    return g


def stage1_graph():
    """Accept breakpoint 0.5: fork on branch 0 at 0.3, coalesce with 1 at 0.6.

    Branch layout afterwards (id: span, material columns):
      0: [0, 0.3)    [{1}, {1}]      3: [0.3, 1)   [{1}, {}]
      1: [0, 0.6)    [{2}, {2}]      4: [0.3, 0.6) [{}, {1}]
      2: [1, inf)    [{1,2}, {1,2}]  5: [0.6, 1)   [{2}, {1,2}]
    """
    g = two_leaf_graph(1.0)
    rng = ScriptedRng(exponentials=[0.6], indices=[1])
    trace = trace_lineage(g, fork_id=0, t0=0.3, s_new=0.5, rho=2.0, density=UNIFORM, rng=rng)
    assert rng.exhausted()
    assert trace.steps[-1][1] == pytest.approx(0.6)
    accept_breakpoint(g, 0.5, trace)
    check_invariants(g)
    return g


def test_two_leaf_graph_basics():
    g = two_leaf_graph(1.0)
    check_invariants(g)
    assert g.breakpoints == []
    assert g.tree_length == 2.0 and top_time(g) == 1.0
    starts, counts = live_intervals(g)
    assert starts == [0.0, 1.0]
    assert counts == [2, 1]
    assert [live_branches(g, t) for t in starts] == [(0, 1), (2,)]


def test_kingman_tree_structure():
    rng = replicate_rng(7, 0, SALTS["spatial"])
    g = kingman_tree(5, rng)
    check_invariants(g)
    assert len(g.nodes) == 4
    assert {column(g, b, 0) for b in g.branches if b.lo == 0.0 and b.hi < INF} >= {
        mask_of({j}) for j in range(1, 6)
    }
    starts, counts = live_intervals(g)
    assert counts == [5, 4, 3, 2, 1]
    assert [len(live_branches(g, t)) for t in starts] == [5, 4, 3, 2, 1]
    assert top_time(g) == starts[-1]
    assert g.tree_length == pytest.approx(
        math.fsum(k * (starts[5 - k + 1] - starts[5 - k]) for k in range(2, 6))
    )


def scan_intervals(graph):
    """Reference for live_intervals: a sweep over the sorted branch ends.

    Returns (starts, live) with live[k] the set of ids of the branches
    spanning starts[k] (b.lo <= starts[k] < b.hi). A branch joins the live
    set at the first start at or past its lo and leaves it at the first
    start at or past its hi, so one pass over the sorted ends serves every
    start; the cost grows with the ends and the output, not nodes x
    branches.
    """
    starts = [0.0] + sorted({nd.time for nd in graph.nodes})
    spanning = [b for b in graph.branches if b.lo < b.hi]
    opens = sorted((b.lo, b.id) for b in spanning)
    closes = sorted((b.hi, b.id) for b in spanning)
    live, out, o, c = set(), [], 0, 0
    for lo in starts:
        while o < len(opens) and opens[o][0] <= lo:
            live.add(opens[o][1])
            o += 1
        while c < len(closes) and closes[c][0] <= lo:
            live.remove(closes[c][1])
            c += 1
        out.append(frozenset(live))
    assert out[-1] == {top_id(graph)}
    return starts, out


def assert_sweep_matches_scan(graph, first_node=0):
    """The kept intervals, the sweep and the scan agree.

    live_branches costs O(branches) a call, so it is checked at latitude 0
    and at each node from ``first_node`` on: the nodes a stage added, or
    every node by default.
    """
    starts, counts = live_intervals(graph)
    assert (graph.starts, graph.counts) == (starts, counts), "kept intervals differ from the sweep"
    want_starts, want_live = scan_intervals(graph)
    assert starts == want_starts
    assert counts == [len(ids) for ids in want_live]
    for t in {0.0} | {nd.time for nd in graph.nodes[first_node:]}:
        assert live_branches(graph, t) == tuple(sorted(want_live[bisect_right(starts, t) - 1]))


def walk_local_tree(graph):
    """Reference for the stored local tree: walk up from every leaf.

    At a fork the walk takes the parent whose material ends last. Returns
    the set of branch ids visited, the top branch included.
    """
    visited = set()
    for leaf in range(graph.n):
        cur = graph.branches[leaf]
        while cur.id not in visited:
            visited.add(cur.id)
            if cur.upper_node is None:
                assert cur.id == top_id(graph)
                break
            cur = graph.branch_above(cur.upper_node)
    return visited


def assert_tree_matches_walk(graph):
    walked = walk_local_tree(graph)
    assert walked == {b.id for b in graph.branches if b.material.end == 1.0}
    newest = len(graph.breakpoints)
    assert walked == {b.id for b in graph.branches if column(graph, b, newest)}
    finite = [graph.branches[bid] for bid in sorted(walked) if graph.branches[bid].hi < INF]
    assert tuple(graph.tree) == tuple(finite)
    assert graph.spans == [b.hi - b.lo for b in finite]
    assert graph.tree_length == math.fsum(graph.spans)


@pytest.mark.parametrize("n", [3, 6, 12])
@pytest.mark.parametrize("rho", [1.0, 5.0])
def test_live_intervals_match_the_scan_at_every_stage(n, rho):
    # each stage also checks the stored local tree against the leaf walk
    stages = 0
    for seed in range(6):
        rng = replicate_rng(500 + seed, 0, SALTS["spatial"])
        g = kingman_tree(n, rng)
        assert_sweep_matches_scan(g)
        assert_tree_matches_walk(g)
        while True:
            s_new = sample_next_breakpoint(g, rho, UNIFORM, rng)
            if s_new >= 1.0:
                break
            fork_id, t0 = sample_recomb_location(g, rng)
            accept_breakpoint(g, s_new, trace_lineage(g, fork_id, t0, s_new, rho, UNIFORM, rng))
            assert_sweep_matches_scan(g)
            assert_tree_matches_walk(g)
            stages += 1
    assert stages >= 3


def zero_length_graph():
    """Two-leaf graph cut into zero-length pieces, for the interval sweep only.

    Branch 0 is cut at latitude 0 and branch 4 (the upper part of 1) at 0.5,
    so 0 spans [0, 0) and 4 spans [0.5, 0.5); the node at latitude 0 makes
    starts repeat 0.0. The cut nodes have one parent each, so this is no
    ARG: only live_intervals and live_branches read it, and the kept
    intervals are rebuilt by live_intervals after the cuts.
    """
    g = two_leaf_graph(1.0)
    for bid, t in ((0, 0.0), (1, 0.5), (4, 0.5)):
        piece = g.branches[bid]
        above = g.split_branch(piece, t)
        node = g.add_node(t, None, [piece.id], [above.id])
        piece.upper_node = node.id
    g.starts, g.counts = live_intervals(g)
    return g


def test_live_intervals_match_the_scan_on_fixtures():
    for g in (two_leaf_graph(1.0), stage1_graph()):
        assert_sweep_matches_scan(g)
        assert_tree_matches_walk(g)
    g, trace = detached_trace()
    accept_breakpoint(g, 0.75, trace)
    assert_sweep_matches_scan(g)
    assert_tree_matches_walk(g)
    g = zero_length_graph()
    assert_sweep_matches_scan(g)
    assert live_intervals(g) == ([0.0, 0.0, 0.5, 1.0], [2, 2, 2, 1])
    assert [live_branches(g, t) for t in (0.0, 0.5)] == [(1, 3), (3, 5)]
    # a fork at latitude 0 on a leaf: the splice repeats starts[0], as the
    # sweep does for the node at 0 above
    g = kingman_tree(2, SimRng(5))
    accept_breakpoint(g, 0.5, trace_lineage(g, 0, 0.0, 0.5, 1.0, UNIFORM, SimRng(9)))
    assert_sweep_matches_scan(g)
    assert_tree_matches_walk(g)
    assert g.starts[:2] == [0.0, 0.0] and g.counts[0] == g.counts[1] == 3


def assert_newest_conserved(graph):
    """The newest column is conserved at every node; O(nodes).

    A node's children carry disjoint newest values whose union is the
    union of its parents' (disjoint) newest values, and the top carries
    every label.
    """
    full = (1 << graph.n) - 1
    assert graph.branches[top_id(graph)].material.vals[-1] == full
    for nd in graph.nodes:
        unions = []
        for side in (nd.children, nd.parents):
            union = 0
            for bid in side:
                value = graph.branches[bid].material.vals[-1]
                assert not union & value, "overlap at node %d" % nd.id
                union |= value
            unions.append(union)
        assert unions[0] == unions[1], "newest column not conserved at node %d" % nd.id


def meeting_piece(graph, trace):
    """Ids of a trace's (absorption piece, meeting piece), read before its splice.

    The absorption piece is the local-tree piece the trace ends on; the
    meeting piece is the first piece up from it whose newest value holds
    the detached labels, where the path rejoins the fork's line.
    """
    ride = None
    for step in trace.steps:
        if step[0] == "coal":
            ride = graph.branches[step[2]]
        elif step[0] == "climb":
            ride = graph.branch_above(ride.upper_node)
    absorbed = cur = ride
    assert absorbed.material.end == 1.0
    while trace.xi & ~cur.material.vals[-1]:
        cur = graph.branch_above(cur.upper_node)
    return absorbed.id, cur.id


def material_before(bid, before, made_by):
    """The Lineage a branch held before a stage; None for a new carried segment.

    ``before`` maps the ids the stage found to their material, and
    ``made_by`` each id the stage made to the node below it. A piece made
    by a split shares the material of the piece it was cut from (the
    node's first child); a new segment of carried material is a
    recombination node's second parent.
    """
    while bid not in before:
        node = made_by[bid]
        if node.parents.index(bid) == 1:
            return None
        bid = node.children[0]
    return before[bid]


def stages_of(n, rho, seed):
    """Yield (graph, s_new, trace) for each stage of a spatial path.

    The caller splices each trace with accept_breakpoint before asking
    for the next stage.
    """
    rng = replicate_rng(seed, 0, SALTS["spatial"])
    g = kingman_tree(n, rng)
    while True:
        s_new = sample_next_breakpoint(g, rho, UNIFORM, rng)
        if s_new >= 1.0:
            return
        fork_id, t0 = sample_recomb_location(g, rng)
        yield g, s_new, trace_lineage(g, fork_id, t0, s_new, rho, UNIFORM, rng)


@pytest.mark.parametrize("n", [3, 6, 20])
@pytest.mark.parametrize("rho", [1.0, 5.0, 30.0])
def test_each_stage_revalues_only_what_changes(n, rho):
    # at every stage: the newest column is conserved, the local tree and
    # the live intervals match their references, and a branch gets a new
    # material object iff its newest value changed, with every older
    # column kept
    for seed in range(900, 904):
        for g, s_new, trace in stages_of(n, rho, seed):
            before = {b.id: b.material for b in g.branches}
            first_node = len(g.nodes)
            accept_breakpoint(g, s_new, trace)
            made_by = {p: nd for nd in g.nodes[first_node:] for p in nd.parents}
            assert_newest_conserved(g)
            assert_tree_matches_walk(g)
            assert_sweep_matches_scan(g, first_node)
            for b in g.branches:
                old = material_before(b.id, before, made_by)
                if old is None:
                    assert b.material.breaks == (s_new,) and b.material.vals == (0, trace.xi)
                elif b.material.vals[-1] == old.vals[-1]:
                    assert b.material is old, "branch %d: unchanged value, new material" % b.id
                else:
                    assert b.material is not old
                    assert b.material.breaks == old.breaks + (s_new,) and b.material.vals[:-1] == old.vals


def test_seeds_meet_the_forks_line_at_both_ends():
    # the stages of test_each_stage_revalues_only_what_changes rejoin the
    # fork's line right where they are absorbed, and at the top
    seen = {"at absorption": 0, "at the top": 0, "between": 0}
    for n, rho in ((3, 1.0), (6, 5.0), (20, 5.0)):
        for seed in range(900, 904):
            for g, s_new, trace in stages_of(n, rho, seed):
                absorbed, meet = meeting_piece(g, trace)
                seen["at absorption"] += meet == absorbed
                seen["at the top"] += meet == top_id(g)
                seen["between"] += meet not in (absorbed, top_id(g))
                accept_breakpoint(g, s_new, trace)
    assert min(seen.values()) >= 3, seen


def four_leaf_graph():
    """Stage-0 graph ((((1,2) at 1, 3) at 2, 4) at 3).

    Branch ids: leaves 0-3, then 4 = {1,2} on [1, 2), 5 = {1,2,3} on
    [2, 3) and the top 6 = {1,2,3,4} on [3, inf).
    """
    g = PartialGraph(4)
    leaves = [g.add_branch(0.0, INF, None, Lineage.constant(mask_of({j + 1}))) for j in range(4)]
    below = leaves[0]
    for k, t in enumerate((1.0, 2.0, 3.0), 1):
        other = leaves[k]
        merged = g.add_branch(t, INF, None, Lineage.constant(below.material.vals[0] | other.material.vals[0]))
        node = g.add_node(t, None, [below.id, other.id], [merged.id])
        below.hi = other.hi = t
        below.upper_node = other.upper_node = node.id
        below = merged
    g.set_tree(b for b in g.branches if b.hi < INF)
    g.starts, g.counts = live_intervals(g)
    check_invariants(g)
    return g


def test_splice_stops_at_the_meeting_piece(monkeypatch):
    # leaf 1 forks at 0.3 and its material coalesces with leaf 2 at 0.6:
    # the path rejoins the fork's line at branch 4 = {1,2}, so neither
    # walk climbs past it to branch 5 or the top
    g = four_leaf_graph()
    rng = ScriptedRng(exponentials=[1.2], indices=[1])  # rate 4 on [0, 1)
    trace = trace_lineage(g, fork_id=0, t0=0.3, s_new=0.5, rho=1.0, density=UNIFORM, rng=rng)
    assert rng.exhausted() and trace.steps == [("coal", pytest.approx(0.6), 1)]
    assert meeting_piece(g, trace) == (1, 4)
    climbed = []
    step_up = PartialGraph.branch_above

    def recording(graph, node_id):
        above = step_up(graph, node_id)
        climbed.append(above.id)
        return above

    monkeypatch.setattr(PartialGraph, "branch_above", recording)
    accept_breakpoint(g, 0.5, trace)
    monkeypatch.undo()
    assert climbed == [4, 4]  # once up the tail, once up the fork's line
    check_invariants(g)
    assert_tree_matches_walk(g)
    # the upper parts of the fork branch (7) and of leaf 2 (9) swap label 1;
    # the carried segment 8 holds it from 0.3 to 0.6
    assert [column(g, g.branches[bid], 1) for bid in (7, 8, 9, 4, 5, 6)] == [
        0, mask_of({1}), mask_of({1, 2}), mask_of({1, 2}), mask_of({1, 2, 3}), mask_of({1, 2, 3, 4})]
    assert tuple(g.tree) == tuple(g.branches[bid] for bid in (0, 1, 2, 3, 4, 5, 8, 9))


def test_simulate_spatial_sweeps_once_per_replicate(monkeypatch):
    # the stage-0 tree is swept once; every later stage updates the kept
    # intervals in place
    sweep = spatial.live_intervals
    calls = []

    def counting(graph):
        calls.append(graph.breakpoints[:])
        return sweep(graph)

    monkeypatch.setattr(spatial, "live_intervals", counting)
    log = record_stages(monkeypatch)
    reps = 5
    for r in range(reps):
        simulate_spatial(SimConfig(n_samples=6, rho=5.0, seed=3, replicate_index=r))
    assert len(log) > 2 * reps  # several stages a replicate
    assert calls == [[]] * reps


def test_each_stage_edits_the_one_tree_list(monkeypatch):
    # the local tree is built in full once per path, by kingman_tree; every
    # stage edits that same list (and its spans) in place
    build = PartialGraph.set_tree
    builds = []

    def counting(graph, branches):
        builds.append(len(graph.breakpoints))
        build(graph, branches)

    monkeypatch.setattr(PartialGraph, "set_tree", counting)
    paths = stages = 0
    for seed in range(3):
        for g, s_new, trace in stages_of(20, 10.0, seed):
            tree, spans = g.tree, g.spans
            accept_breakpoint(g, s_new, trace)
            assert g.tree is tree and g.spans is spans
            stages += 1
        paths += 1
    assert builds == [0] * paths
    assert stages > 10 * paths


def test_kingman_tree_moments():
    rng = SimRng(424242)
    reps = 30000
    h2 = math.fsum(top_time(kingman_tree(2, rng)) for _ in range(reps)) / reps
    assert abs(h2 - 1.0) < 0.03
    mean_t, mean_l = kingman_expectations(6)
    tot_t = tot_l = 0.0
    for _ in range(reps):
        g = kingman_tree(6, rng)
        tot_t += top_time(g)
        tot_l += g.tree_length
    assert abs(tot_t / reps - mean_t) < 0.03
    assert abs(tot_l / reps - mean_l) < 0.06


def test_free_rise_above_the_root_is_unit_exponential():
    g = two_leaf_graph(1.0)
    rng = SimRng(99)
    draws = []
    for _ in range(5000):
        t, target = free_rise(g, 5.0, rng)
        assert target == top_id(g)
        draws.append(t - 5.0)
    d, p = ks_one_sample(draws, lambda x: -math.expm1(-x))
    assert p > 1e-4


def test_free_rise_piecewise_exponential_law():
    rng = replicate_rng(11, 0, SALTS["spatial"])
    g = kingman_tree(4, rng)
    starts, counts = live_intervals(g)

    def hazard(t):
        total = 0.0
        for k, lo in enumerate(starts):
            hi = starts[k + 1] if k + 1 < len(starts) else INF
            if t <= lo:
                break
            total += (min(t, hi) - lo) * counts[k]
        return total

    draws = []
    first_targets = []
    for _ in range(10000):
        t, target = free_rise(g, t0=0.0, rng=rng)
        k = 0
        while k + 1 < len(starts) and starts[k + 1] <= t:
            k += 1
        assert target in live_branches(g, starts[k])
        draws.append(t)
        if k == 0:
            first_targets.append(target)
    d, p = ks_one_sample(draws, lambda t: -math.expm1(-hazard(t)))
    assert p > 1e-3
    first_live = live_branches(g, starts[0])
    hits = [first_targets.count(b) for b in first_live]
    stat, p_t, dof = chi_square(hits, [1.0] * len(first_live))
    assert p_t > 1e-3 and dof == 3


def test_sample_next_breakpoint_without_rate_stops():
    g = two_leaf_graph(1.0)
    starved = ScriptedRng()  # would raise if consulted
    assert sample_next_breakpoint(g, 0.0, UNIFORM, starved) == 1.0


def test_sample_next_breakpoint_law_uniform():
    g = two_leaf_graph(1.0)  # tree length 2, so rho=2 gives hazard rate 2
    rng = SimRng(2024)
    draws = [sample_next_breakpoint(g, 2.0, UNIFORM, rng) for _ in range(100000)]
    assert all(0.0 < s <= 1.0 for s in draws)
    atom = math.exp(-2.0)
    d, p, z = ks_one_sample_with_atom(draws, lambda s: -math.expm1(-2.0 * s), atom)
    assert p > 1e-4
    assert abs(z) < 3.5


def test_sample_next_breakpoint_after_prior_breakpoint():
    g = two_leaf_graph(1.0)
    g.breakpoints.append(0.4)  # pretend stage 1; only the locus matters here
    density = BetaDensity(2.0, 2.0)
    rng = SimRng(5)
    hr = 0.5 * 2.0 * g.tree_length
    atom = math.exp(-hr * density.mass(0.4, 1.0))
    draws = [sample_next_breakpoint(g, 2.0, density, rng) for _ in range(20000)]
    assert all(0.4 < s <= 1.0 for s in draws)
    d, p, z = ks_one_sample_with_atom(
        draws, lambda s: -math.expm1(-hr * density.mass(0.4, s)), atom
    )
    assert p > 1e-4 and abs(z) < 3.5


@pytest.mark.parametrize("density", [UNIFORM, BetaDensity(2.0, 2.0)])
def test_sample_next_breakpoint_two_ulps_below_one(density):
    between = math.nextafter(1.0, 0.0)
    s_cur = math.nextafter(between, 0.0)
    for rho in (1.0, 1e17, 1e300):
        for u in (1e-300, 1e-9, 0.5, 1.0 - 2.0 ** -53):
            g = two_leaf_graph(1.0)
            g.breakpoints.append(s_cur)
            assert sample_next_breakpoint(g, rho, density, ScriptedRng(uniforms=[u])) in (between, 1.0)
    if density is UNIFORM:  # Beta(2,2) has no float-sized mass up there: always the atom
        g = two_leaf_graph(1.0)
        g.breakpoints.append(s_cur)
        assert sample_next_breakpoint(g, 1e17, density, ScriptedRng(uniforms=[0.5])) == between


@pytest.mark.parametrize("density", [UNIFORM, BetaDensity(2.0, 2.0)])
def test_sample_next_breakpoint_one_ulp_below_one_stops(density):
    for rho in (1.0, 1e17, 1e300):
        for u in (1e-300, 1e-9, 0.5, 1.0 - 2.0 ** -53):
            g = two_leaf_graph(1.0)
            g.breakpoints.append(math.nextafter(1.0, 0.0))
            assert sample_next_breakpoint(g, rho, density, ScriptedRng(uniforms=[u])) == 1.0


def test_sample_recomb_location_walks_in_id_order():
    g = two_leaf_graph(1.0)
    assert sample_recomb_location(g, ScriptedRng(uniforms=[0.25])) == (0, 0.5)
    assert sample_recomb_location(g, ScriptedRng(uniforms=[0.75])) == (1, 0.5)


def test_sample_recomb_location_is_uniform_on_the_tree():
    g = stage1_graph()  # stage-1 tree: spans 0.3, 0.6, 0.3, 0.4 over ids 0,1,4,5
    rng = SimRng(31)
    counts = {0: 0, 1: 0, 4: 0, 5: 0}
    for _ in range(20000):
        bid, t = sample_recomb_location(g, rng)
        b = g.branches[bid]
        assert b.lo <= t < b.hi
        assert b.material.end == 1.0
        counts[bid] += 1
    stat, p, dof = chi_square(
        [counts[0], counts[1], counts[4], counts[5]], [0.3, 0.6, 0.3, 0.4]
    )
    assert p > 1e-3


def test_stage1_graph_layout():
    g = stage1_graph()
    assert g.breakpoints == [0.5]
    spans = {b.id: (b.lo, b.hi) for b in g.branches}
    assert spans[0] == (0.0, 0.3)
    assert spans[3][0] == 0.3 and spans[3][1] == pytest.approx(1.0)
    assert spans[4][0] == 0.3 and spans[4][1] == pytest.approx(0.6)
    cols = columns(g)
    e = 0
    s1, s2, s12 = mask_of({1}), mask_of({2}), mask_of({1, 2})
    assert cols[0] == (s1, s1)
    assert cols[3] == (s1, e)
    assert cols[4] == (e, s1)
    assert cols[5] == (s2, s12)
    assert cols[2] == (s12, s12)
    ends = {b.id: b.material.end for b in g.branches}
    assert ends == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.5, 4: 1.0, 5: 1.0}
    assert g.tree_length == pytest.approx(1.6)


def test_trace_rides_an_old_edge_and_climbs():
    g = stage1_graph()
    rng = ScriptedRng(exponentials=[0.7, 1e9], indices=[1])
    trace = trace_lineage(g, fork_id=0, t0=0.1, s_new=0.75, rho=2.0, density=UNIFORM, rng=rng)
    assert rng.exhausted()
    # detach clock rate: half of rho times the ridden edge's material gap
    assert rng.exp_rates == [1.0, pytest.approx(0.5 * 2.0 * UNIFORM.mass(0.5, 0.75))]
    kinds = [s[0] for s in trace.steps]
    assert kinds == ["coal", "climb"]
    assert trace.steps[0][1] == pytest.approx(0.4)
    assert trace.steps[0][2] == 3
    assert trace.steps[-1][1] == pytest.approx(1.0)
    assert trace.xi == mask_of({1})
    trans = transitions(trace)
    assert [e["kind"] for e in trans] == ["fork", "coal", "climb"]
    assert trans[0] == {"t": 0.1, "kind": "fork", "branch": 0}


def detached_trace():
    """Stage-1 graph plus a scripted ride/detach/re-coalesce trace."""
    g = stage1_graph()
    rng = ScriptedRng(
        uniforms=[0.5],
        exponentials=[0.7, 0.05, 0.15],
        indices=[1, 2],
    )
    trace = trace_lineage(g, fork_id=0, t0=0.1, s_new=0.75, rho=2.0, density=UNIFORM, rng=rng)
    assert rng.exhausted()
    assert rng.exp_rates == [1.0, pytest.approx(0.25), 1.0]
    return g, trace


def test_trace_detaches_and_recoalesces():
    g, trace = detached_trace()
    kinds = [s[0] for s in trace.steps]
    assert kinds == ["coal", "detach", "coal"]
    t_coal, t_detach, t_final = (s[1] for s in trace.steps)
    assert t_coal == pytest.approx(0.4)
    assert t_detach == pytest.approx(0.45)
    assert trace.steps[1][2] == pytest.approx(0.625)  # midpoint of the (0.5, 0.75) gap
    assert t_final == pytest.approx(0.5)
    assert trace.steps[2][2] == 4
    assert trace.steps[-1][1] == pytest.approx(0.5)
    # free-rise stretches: from the fork or a detach up to the next coalescence
    stretches = []
    t_in = trace.t0
    for step in trace.steps:
        if step[0] == "detach":
            t_in = step[1]
        elif step[0] == "coal":
            stretches.append((t_in, step[1]))
    assert [tuple(round(x, 9) for x in seg) for seg in stretches] == [
        (0.1, 0.4),
        (0.45, 0.5),
    ]


def test_stage2_accept_after_detach():
    g, trace = detached_trace()
    accept_breakpoint(g, 0.75, trace)
    check_invariants(g)
    assert g.breakpoints == [0.5, 0.75]
    assert g.tree_length == pytest.approx(1.6)
    cols = columns(g)
    e = 0
    s1, s2, s12 = mask_of({1}), mask_of({2}), mask_of({1, 2})
    assert cols[0] == (s1, s1, s1)
    assert cols[6] == (s1, s1, e)  # fork remainder lost the tail material
    assert cols[7] == (e, e, s1)
    assert cols[3] == (s1, e, e)
    assert cols[8] == (s1, e, s1)  # ridden stretch carries the detached tail
    assert cols[9] == (s1, e, e)
    assert cols[10] == (e, e, s1)
    assert cols[11] == (e, s1, s1)
    assert cols[5] == (s2, s12, s12)
    arg = graph_to_arg(g, SimConfig(n_samples=2, rho=2.0, seed=0))
    assert validate_arg(arg).passed
    assert [type(ev) for ev in arg.events] == [
        Recombine,
        Recombine,
        Coalesce,
        Recombine,
        Coalesce,
        Coalesce,
        Coalesce,
    ]
    loci, _ = breakpoints(arg)
    assert loci == (0.5, 0.625, 0.75)
    assert local_tree(arg, 0.3).levels[-1][0] == pytest.approx(1.0)
    assert local_tree(arg, 0.55).levels[-1][0] == pytest.approx(0.6)
    assert local_tree(arg, 0.9).levels[-1][0] == pytest.approx(0.6)
    assert arg.grand_mrca == pytest.approx(1.0)


def test_recoalescing_onto_the_ridden_branch_cuts_the_piece_above_the_detach():
    # the trace rides branch 3, detaches from it at 0.45 and coalesces onto
    # it again at 0.5: by then branch 3 has been split twice in this stage
    # (at 0.4 and 0.45), and the coalescence must cut the upper piece
    g = stage1_graph()
    rng = ScriptedRng(
        uniforms=[0.5],
        exponentials=[0.7, 0.05, 0.15, 1e9],
        indices=[1, 1],
    )
    trace = trace_lineage(g, fork_id=0, t0=0.1, s_new=0.75, rho=2.0, density=UNIFORM, rng=rng)
    assert rng.exhausted()
    assert [step[0] for step in trace.steps] == ["coal", "detach", "coal", "climb"]
    assert trace.steps[0][2] == trace.steps[2][2] == 3
    assert len(g.branches) == 6
    accept_breakpoint(g, 0.75, trace)
    check_invariants(g)
    assert_tree_matches_walk(g)
    # new ids: 6 the fork's upper part, 7 the first carried segment, 8 the
    # piece of 3 above 0.4, 9 the piece above the detach, 10 the second
    # carried segment and 11 the piece above the re-coalescence
    ends = [t for bid in (3, 8, 9, 11) for t in (g.branches[bid].lo, g.branches[bid].hi)]
    assert ends == pytest.approx([0.3, 0.4, 0.4, 0.45, 0.45, 0.5, 0.5, 1.0])
    (node,) = [nd for nd in g.nodes if nd.parents == [11]]
    assert node.locus is None and node.children == [9, 10]
    e, s1, s2, s12 = 0, mask_of({1}), mask_of({2}), mask_of({1, 2})
    cols = columns(g)
    assert cols[9] == (s1, e, e)  # between the detach and the re-coalescence
    assert cols[11] == (s1, e, s1)  # the material climbs on to the top
    assert cols[5] == (s2, s12, s2)  # the fork's old line lost label 1


def material_states(graph):
    """The state after each node, read off the branch material.

    Nodes sorted by latitude; each state is the sort-built State of the one
    before, with the node's children's material out (found by identity)
    and its parents' in: a derivation of the states from the graph alone,
    the oracle that graph_to_arg's events must meet.
    """
    material = [b.material for b in graph.branches]
    state = State(graph.n, material[:graph.n])
    out = []
    for node in sorted(graph.nodes, key=lambda nd: nd.time):
        gone = {id(material[c]) for c in node.children}
        kept = [lin for lin in state.lineages if id(lin) not in gone]
        state = State(graph.n, kept + [material[p] for p in node.parents])
        out.append(state)
    return out


def assert_material_meets_replay(graph):
    """Assert each state read off the material is the replay of graph_to_arg's events."""
    arg = graph_to_arg(graph, SimConfig(n_samples=graph.n))
    held = material_states(graph)
    assert len(held) == arg.event_count
    for idx, (state, replayed) in enumerate(zip(held, path_states(arg))):
        assert state == replayed, "event %d: the material state is not the replay" % idx
    assert held[-1] == arg.final_state


@pytest.mark.parametrize("n, rho", [(3, 2.0), (6, 5.0), (10, 10.0)])
def test_material_meets_the_replay_at_every_event_of_every_stage(n, rho):
    stages = 0
    for seed in range(6):
        for g, s_new, trace in stages_of(n, rho, seed):
            spatial.accept_breakpoint(g, s_new, trace)
            assert_material_meets_replay(g)
            stages += 1
    assert stages > 10


def test_the_material_check_catches_a_moved_label(moved_label_mutant):
    # the mutant keeps every rank key, so the events and the final state
    # are the unbroken graph's and validate_arg passes; only the material
    # check sees the move
    caught = 0
    for seed in range(10):
        for g, s_new, trace in stages_of(6, 5.0, seed):
            moves = len(moved_label_mutant)
            spatial.accept_breakpoint(g, s_new, trace)
            if len(moved_label_mutant) > moves:
                assert validate_arg(graph_to_arg(g, SimConfig(n_samples=6))).passed
                with pytest.raises(AssertionError, match="the material state is not the replay"):
                    assert_material_meets_replay(g)
                caught += 1
                break  # the graph is broken from here on
    assert caught >= 5


def test_material_that_disagrees_with_the_nodes_is_clause_b():
    # swap the material of the stage-2 fork's two upper branches: the
    # node structure stays, but the ranks read off the material no longer
    # give events the replay can apply
    g, trace = detached_trace()
    accept_breakpoint(g, 0.75, trace)
    (fork,) = [nd for nd in g.nodes if nd.locus == 0.75]
    a, b = (g.branches[p] for p in fork.parents)
    a.material, b.material = b.material, a.material
    report = validate_arg(graph_to_arg(g, SimConfig(n_samples=2, rho=2.0, seed=0)))
    assert not report.passed
    assert report.violations[0] == (1, "b", "locus 0.5 outside the active interval (0.75, 1.0) of rank 2")


def test_graph_to_arg_replays_no_event(monkeypatch):
    calls = count_advance(monkeypatch)
    g, trace = detached_trace()
    accept_breakpoint(g, 0.75, trace)
    graph_to_arg(g, SimConfig(n_samples=2, rho=2.0, seed=0))
    arg = simulate_spatial(SimConfig(n_samples=4, rho=2.0, seed=1))
    assert calls == []
    assert validate_arg(arg).passed
    assert calls == list(arg.events) and arg.event_count > 3  # validation is the one replay


def test_graph_to_arg_builds_no_lineage(monkeypatch):
    # each branch's material already is the Lineage a state holds
    g, trace = detached_trace()
    accept_breakpoint(g, 0.75, trace)
    log = record_stages(monkeypatch, keep_graphs=True)
    simulate_spatial(SimConfig(n_samples=6, rho=5.0, seed=3))
    big = log[-1]["graph"]
    assert len(big.breakpoints) >= 3
    built = []
    init = Lineage.__init__
    monkeypatch.setattr(Lineage, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    args = [graph_to_arg(graph, SimConfig(n_samples=graph.n, rho=5.0, seed=0)) for graph in (g, big)]
    assert built == []
    Lineage.constant(mask_of({1}))
    assert len(built) == 1  # the patch is live
    monkeypatch.undo()
    assert all(validate_arg(arg).passed for arg in args)


def test_graph_to_arg_finds_ranks_by_identity(monkeypatch):
    # a child's rank is found by its branch id, so no two lineages are
    # compared by value
    log = record_stages(monkeypatch, keep_graphs=True)
    want, finished = [], []
    for n in (3, 8):
        stages = len(log)
        want.append(simulate_spatial(SimConfig(n_samples=n, rho=5.0, seed=3)))
        assert len(log) > stages + 2
        finished.append(log[-1]["graph"])

    def refuse(self, other):
        raise AssertionError("Lineage.__eq__ called")

    monkeypatch.setattr(Lineage, "__eq__", refuse)
    args = [graph_to_arg(graph, arg.config) for graph, arg in zip(finished, want)]
    monkeypatch.undo()
    assert [(a.times, a.events) for a in args] == [(a.times, a.events) for a in want]
    assert all(validate_arg(arg).passed for arg in args)


def test_graph_to_arg_sorts_one_state_per_path(monkeypatch):
    # the final state, the root's material, is the one State built: the
    # ranks live on a list of branch ids, with no state per node
    built = []
    init = State.__init__
    monkeypatch.setattr(State, "__init__", lambda self, *a: built.append(a) or init(self, *a))
    args = [simulate_spatial(SimConfig(n_samples=n, rho=5.0, seed=3)) for n in (2, 6)]
    assert len(built) == 2
    assert all(arg.event_count > 5 for arg in args)
    monkeypatch.undo()
    assert all(validate_arg(arg).passed for arg in args)


def test_accept_fork_at_the_lower_end_of_its_branch():
    # a fork at latitude 0 leaves split_branch a zero-length lower piece;
    # it lies below the fork, so it keeps the detached material
    g = kingman_tree(2, SimRng(5))
    trace = trace_lineage(g, 0, 0.0, 0.5, 1.0, UniformDensity(), SimRng(9))
    accept_breakpoint(g, 0.5, trace)
    check_invariants(g)
    stub = g.branches[0]
    assert stub.lo == stub.hi == 0.0
    assert columns(g)[0] == (mask_of({1}), mask_of({1}))
    assert_tree_matches_walk(g)
    assert g.tree[0] is stub  # in the tree, with span 0


def test_staged_loop_keeps_invariants():
    for seed in range(60):
        rng = replicate_rng(seed, 0, SALTS["spatial"])
        g = kingman_tree(3, rng)
        check_invariants(g)
        while True:
            s_new = sample_next_breakpoint(g, 2.0, UNIFORM, rng)
            assert s_new > (g.breakpoints[-1] if g.breakpoints else 0.0)
            if s_new >= 1.0:
                break
            fork_id, t0 = sample_recomb_location(g, rng)
            trace = trace_lineage(g, fork_id, t0, s_new, 2.0, UNIFORM, rng)
            assert trace.steps[-1][1] >= t0
            accept_breakpoint(g, s_new, trace)
            check_invariants(g)
            assert g.breakpoints[-1] == s_new


def test_simulate_spatial_validates():
    for seed in range(40):
        cfg = SimConfig(n_samples=2 + seed % 4, rho=1.5, seed=seed)
        arg = simulate_spatial(cfg)
        report = validate_arg(arg)
        assert report.passed, report.render()


def test_simulate_spatial_deterministic():
    cfg = SimConfig(n_samples=4, rho=2.0, seed=77, replicate_index=3)
    a = simulate_spatial(cfg)
    b = simulate_spatial(cfg)
    assert a.times == b.times and a.events == b.events
    c = simulate_spatial(cfg.with_replicate(4))
    assert c.times != a.times


def test_simulate_spatial_rho_zero_is_plain_kingman():
    cfg = SimConfig(n_samples=5, rho=0.0, seed=13)
    arg = simulate_spatial(cfg)
    assert arg.event_count == 4
    assert all(isinstance(ev, Coalesce) for ev in arg.events)
    tree = kingman_tree(5, replicate_rng(13, 0, SALTS["spatial"]))
    assert arg.grand_mrca == top_time(tree)
    stats = summary(arg)
    assert stats.breakpoint_count == 0
    assert stats.tmrca_at[0.0] == arg.grand_mrca


def test_trace_log_records_every_stage(monkeypatch):
    cfg = SimConfig(n_samples=4, rho=2.0, seed=1)
    log = record_stages(monkeypatch)
    arg = simulate_spatial(cfg)
    loci, _ = breakpoints(arg)
    logged = [entry["locus"] for entry in log]
    assert len(log) >= 1  # seed chosen to recombine
    assert logged == sorted(logged)
    assert [entry["stage"] for entry in log] == list(range(1, len(log) + 1))
    for entry in log:
        trans = entry["transitions"]
        assert trans[0]["kind"] == "fork"
        assert all(e["kind"] in ("fork", "coal", "detach", "climb") for e in trans)
        times = [e["t"] for e in trans]
        assert times == sorted(times)
        # the detached labels are all the fork branch carried past the newest breakpoint
        assert entry["xi"] == entry["fork_value"] and 0 < len(entry["xi"]) <= 4


def test_diamond_recoalescence_keeps_the_local_tree(monkeypatch):
    found = 0
    log = record_stages(monkeypatch)
    for seed in range(200):
        cfg = SimConfig(n_samples=3, rho=1.0, seed=1000 + seed)
        log.clear()
        arg = simulate_spatial(cfg)
        loci, _ = breakpoints(arg)
        for entry in log:
            trans = entry["transitions"]
            if len(trans) != 2 or trans[1]["kind"] != "coal":
                continue
            if trans[1]["branch"] != trans[0]["branch"]:
                continue
            # the detached piece rejoined the branch it forked from
            s = entry["locus"]
            k = loci.index(s)
            left = 0.5 * (s + (loci[k - 1] if k else 0.0))
            right = 0.5 * (s + (loci[k + 1] if k + 1 < len(loci) else 1.0))
            assert local_tree(arg, left).levels == local_tree(arg, right).levels
            found += 1
    assert found >= 5


def test_each_stage_graph_is_the_final_path_projected_on_its_interval(monkeypatch):
    # The sequence-wise form of the engines' shared law: the partial graph
    # after stage k, read as a path, is the final path projected at any site
    # of stage k's locus interval, jump for jump. Stage 0 is the Kingman
    # tree, the first draws of the replicate's stream.
    log = record_stages(monkeypatch, keep_graphs=True)
    checked = 0
    for n in (3, 6):
        for rho in (1.0, 5.0):
            for r in range(10):
                cfg = SimConfig(n_samples=n, rho=rho, seed=7, replicate_index=r)
                log.clear()
                arg = simulate_spatial(cfg)
                graphs = [kingman_tree(n, replicate_rng(7, r, SALTS["spatial"]))]
                graphs += [entry["graph"] for entry in log]
                bounds = [0.0] + [entry["locus"] for entry in log] + [1.0]
                for k, graph in enumerate(graphs):
                    s = 0.5 * (bounds[k] + bounds[k + 1])
                    partial = graph_to_arg(graph, cfg)
                    assert list(zip(partial.times, path_states(partial))) == project_path(arg, s)
                checked += len(graphs)
    assert checked > 200  # 40 stage-0 graphs, and rho=5 takes several stages a replicate


def test_spatial_respects_event_cap(monkeypatch):
    # the cap lives in config; spatial must read it there at call time
    from argsim import config
    from argsim.config import EventCapExceeded

    monkeypatch.setattr(config, "DEFAULT_EVENT_CAP", 5)
    cfg = SimConfig(n_samples=4, rho=30.0, seed=2)
    with pytest.raises(EventCapExceeded, match=r"^exceeded 5 events \(n=4 rho=30\)$"):
        simulate_spatial(cfg)


@pytest.mark.parametrize("rho", [0.0, 0.01])
@pytest.mark.parametrize("engine", ["backintime", "spatial"])
def test_both_engines_apply_one_cap_rule(monkeypatch, engine, rho):
    # n=10 takes 9 coalescences, past a cap of 5. At these rates the first
    # spatial breakpoint draw stops, so the cap must also hold for the
    # stage-0 tree, not only after a stage
    from argsim import config
    from argsim.config import EventCapExceeded

    monkeypatch.setattr(config, "DEFAULT_EVENT_CAP", 5)
    with pytest.raises(EventCapExceeded, match=r"^exceeded 5 events \(n=10 rho=%g\)$" % rho):
        ENGINES[engine](SimConfig(n_samples=10, rho=rho, seed=1))
