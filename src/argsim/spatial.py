"""Sequence-wise engine: build the graph breakpoint by breakpoint.

Step 1 draws a plain Kingman tree for the leftmost locus. Each later stage
takes the current partial graph (every branch carries its material as a
Lineage, and the branches whose material reaches 1.0 form the local tree
of the current locus), then:

  2. draws the next breakpoint locus from its exact conditional law
     (exponential in the integrated density, atom at 1 -> stop) by
     inverting the density's CDF directly;
  3. picks the recombination location uniformly on the current local tree;
  4. detaches the material right of the new locus and traces it upward:
     in free mode it coalesces at rate 1 with each live branch; landing on
     a local-tree branch absorbs it; landing on an older branch makes it
     ride that edge, where it either detaches again (rate = remaining
     recombination mass of the edge's material gap) and returns to free
     mode, or follows the edge through its upper node onto the edge whose
     material ends last;
  5. once absorbed, splices the new branch segments into the graph and
     gives every branch its value from the new locus on, reading the new
     local tree off those values in the same pass.

Branch and node ids are indices into the graph's lists. A node with a
locus is a recombination, one without a coalescence. A split links a
branch's pieces bottom to top through the node's first parent, so the
splice finds the piece of a pre-stage id at a latitude by walking up.

The finished graph converts into the same Arg event-log form the
back-in-time engine emits: nodes sorted by latitude become events, their
ranks read off one list of branch ids kept in rank order, and the final
state is the root's material. validate_arg replays the events and asks
the replay to end at that material, so the two derivations meet there.
The event cap is SimConfig.check_event_cap, applied after step 1 and each
stage.

Cost per stage, for a graph of N nodes and B branches: the free-mode rates
are the live intervals the graph keeps across stages. live_intervals builds
them once, for the stage-0 tree, and each splice updates them in place: one
bisection and one list insert per new node time, O(N), and +1 on the
intervals each new segment spans. Each free rise resolves branch ids only
on the interval it lands in, O(B). The splice (accept_breakpoint) costs
what the stage changes: its tail walk stops at the meeting piece, where the
path rejoins the fork's line, and it revalues only the path, the fork's
line up to that piece and the pieces made in this stage, building a
Lineage only where a value changes. Its walks enter each piece they cut
or revalue once in one dict, with the piece's value from the new locus on,
and one loop then sets those values. The local tree is kept as one
id-ordered list with the spans of its pieces beside it, and the splice
edits both in place: one bisection per old piece it revalues or cuts, then
an append per piece made in this stage. Every other local-tree piece keeps
its slot and span, so a stage touches only the pieces it visits, plus one
fsum of the spans for the tree's length.

Cost per path outside the stages: kingman_tree takes its leaves from
State.initial and gives each merge its material from the fields it knows,
with no sort and no reading of fields; graph_to_arg sorts the nodes once
and finds each rank on one list of ids, building no Lineage and one State.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from operator import attrgetter

from .arg import Arg
from .density import draw_between, strictly_inside
from .rng import SALTS, replicate_rng, unrank_pair
from .state import Coalesce, Lineage, Recombine, State, _lineage

INF = math.inf
_BY_ID = attrgetter("id")
_BY_TIME = attrgetter("time")
_MATERIAL = attrgetter("material")
_ONE_MORE = (1).__add__


class Branch:
    """One graph edge spanning latitudes [lo, hi); hi is +inf for the top.

    ``material`` is the edge's Lineage; its last value holds from the newest
    breakpoint on. It is never mutated, so the pieces of a split share it.
    """

    __slots__ = ("id", "lo", "hi", "upper_node", "material")

    def __init__(self, bid, lo, hi, upper_node, material):
        self.id = bid
        self.lo = lo
        self.hi = hi
        self.upper_node = upper_node
        self.material = material

    def __repr__(self):
        return "Branch(%d, [%g,%g), %r)" % (self.id, self.lo, self.hi, self.material)


class GraphNode:
    """An internal vertex: a recombination at ``locus``, or a coalescence (locus None)."""

    __slots__ = ("id", "time", "locus", "children", "parents")

    def __init__(self, nid, time, locus, children, parents):
        self.id = nid
        self.time = time
        self.locus = locus
        self.children = children  # branch ids below
        self.parents = parents  # branch ids above


class PartialGraph:
    """The mutable graph a spatial simulation grows stage by stage.

    ``branches`` and ``nodes`` are lists indexed by id: an id is the list's
    length when the item is added, and nothing is removed. A node with a
    locus is a recombination (one child, two parents); one without is a
    coalescence (two children, one parent). A split links the pieces of a
    branch bottom to top through the node's first parent.

    ``tree`` is the current local tree's finite pieces as one list in id
    order, and ``spans[k] == tree[k].hi - tree[k].lo``; set_tree builds
    both once, and accept_breakpoint edits them in place.
    """

    __slots__ = (
        "n", "branches", "nodes", "breakpoints",
        "tree", "spans", "tree_length", "starts", "counts",
    )

    def __init__(self, n):
        self.n = n
        self.branches = []
        self.nodes = []
        self.breakpoints = []
        self.tree = []  # finite local-tree branches, in id order
        self.spans = []  # their hi - lo, slot by slot
        self.tree_length = 0.0
        # the live intervals: starts[k] opens interval k, counts[k] branches
        # span it (see live_intervals); accept_breakpoint keeps them current
        self.starts = []
        self.counts = []

    def add_branch(self, lo, hi, upper_node, material):
        b = Branch(len(self.branches), lo, hi, upper_node, material)
        self.branches.append(b)
        return b

    def add_node(self, time, locus, children, parents):
        nd = GraphNode(len(self.nodes), time, locus, children, parents)
        self.nodes.append(nd)
        return nd

    def set_tree(self, branches):
        """Build the local tree from its finite branches (in id order): the list, its spans, its length.

        The one full build, for kingman_tree and hand-built graphs; each
        stage's splice edits the lists in place instead.
        """
        self.tree = list(branches)
        self.spans = [b.hi - b.lo for b in self.tree]
        self.tree_length = math.fsum(self.spans)

    def branch_above(self, node_id):
        """The branch leaving a node upward; at a fork, the one whose material ends last.

        A node has one parent or two; at a tie the first wins, as max does.
        """
        parents = self.nodes[node_id].parents
        above = self.branches[parents[0]]
        if len(parents) > 1:
            other = self.branches[parents[1]]
            if other.material.end > above.material.end:
                return other
        return above

    def split_branch(self, piece, t):
        """Cut a branch at latitude t; the lower part keeps the id.

        Returns the new upper part. Node links of the upper end move to the
        new piece; the caller wires both cut ends to the event node it is
        creating, and must list the upper part first among that node's
        parents, so the pieces of a branch chain bottom to top.
        """
        assert piece.lo <= t < piece.hi
        above = self.add_branch(t, piece.hi, piece.upper_node, piece.material)
        if piece.upper_node is not None:
            upper = self.nodes[piece.upper_node]
            upper.children[upper.children.index(piece.id)] = above.id
        piece.hi = t
        piece.upper_node = None
        return above


def kingman_tree(n, rng):
    """Step 1: the locus-0 coalescent tree as a stage-0 graph.

    Leaf j carries State.initial(n)'s singleton j. The live branches stay
    in label order, so a merge keeps the start and smallest label of its
    lower-ranked child and every merged material is built from those
    known fields. Every branch but the last, the top, is finite.
    """
    graph = PartialGraph(n)
    branches, nodes = graph.branches, graph.nodes
    live = [Branch(j, 0.0, INF, None, leaf) for j, leaf in enumerate(State.initial(n).lineages)]
    branches += live
    t = 0.0
    while len(live) > 1:
        k = len(live)
        t += rng.exponential(k * (k - 1) / 2.0)
        i, j = unrank_pair(rng.index(k * (k - 1) // 2), k)
        a, b = live[i], live.pop(j)
        merged = Branch(len(branches), t, INF, None,
                        _lineage((), (a.material.vals[0] | b.material.vals[0],), 0.0, a.material.start_min, 1.0))
        node = GraphNode(len(nodes), t, None, [a.id, b.id], [merged.id])
        branches.append(merged)
        nodes.append(node)
        a.hi = b.hi = t
        a.upper_node = b.upper_node = node.id
        live[i] = merged
    graph.set_tree(branches[:-1])
    graph.starts, graph.counts = live_intervals(graph)
    return graph


def live_intervals(graph):
    """Latitude intervals with constant live-branch sets, bottom to top.

    Returns (starts, counts): starts[k] opens interval k, and counts[k] is
    the number of branches spanning it (b.lo <= starts[k] < b.hi). The last
    interval is unbounded and holds only the top branch.

    One sort of the node times plus one pass over the branches, O(nodes
    log nodes + branches): each branch adds +1 where it opens and -1 where
    it closes, and a prefix sum gives the counts. kingman_tree calls it once
    to seed graph.starts and graph.counts; accept_breakpoint then keeps
    those in place, so no stage rebuilds them. Branch ids are resolved
    later, by live_branches, on the one interval a free rise lands in.
    """
    times = sorted({nd.time for nd in graph.nodes})
    starts = [0.0] + times
    first = {t: k for k, t in enumerate(times, 1)}
    first[0.0] = 0  # a node at latitude 0 repeats starts[0]
    first[INF] = len(starts)  # the top branch never closes
    delta = [0] * (len(starts) + 1)
    for b in graph.branches:
        if b.lo < b.hi:  # a zero-length branch spans no interval
            delta[first[b.lo]] += 1
            delta[first[b.hi]] -= 1
    counts = list(accumulate(delta[:-1]))
    assert counts[-1] == 1  # only the top branch spans the unbounded interval
    return starts, counts


def live_branches(graph, t):
    """Id-sorted tuple of the branches spanning latitude t; O(branches)."""
    return tuple([b.id for b in graph.branches if b.lo <= t < b.hi])


def free_rise(graph, t0, rng):
    """Free mode: rise from latitude t0 until coalescing with a live branch.

    Coalescence happens at rate equal to the live-branch count; the target
    is uniform among the branches live at the coalescence latitude. Exact
    piecewise-exponential inversion over the graph's latitude intervals.

    Cost per call: one step per interval crossed, using the live intervals
    the graph keeps (graph.starts, graph.counts), plus one live_branches
    pass over the branches on the interval where the rise lands.
    """
    starts, counts = graph.starts, graph.counts
    budget = rng.exponential(1.0)  # integrated hazard to spend
    k = bisect_right(starts, t0) - 1
    t = t0
    while True:
        rate = counts[k]
        end = starts[k + 1] if k + 1 < len(starts) else INF
        span = (end - t) * rate
        if budget <= span:
            t_coal = t + budget / rate
            targets = live_branches(graph, starts[k])
            assert len(targets) == rate
            return t_coal, targets[rng.index(rate)]
        budget -= span
        t = end
        k += 1


def sample_next_breakpoint(graph, rho, density, rng):
    """Step 2: the next breakpoint locus, or 1.0 to stop.

    Survival past s is exp(-rho * L * m(s) / 2) with m the density mass
    between the current locus and s; the mass the survival never spends is
    the atom at 1. Below it, F(s) = F(s_cur) - log(U) / (rho * L / 2) is
    inverted directly, strictly above s_cur (1.0 when no float is). F(s_cur)
    is read once: the mass up to 1 is 1 - F(s_cur), as density.mass gives it.
    """
    s_cur = graph.breakpoints[-1] if graph.breakpoints else 0.0
    half_rate = 0.5 * rho * graph.tree_length
    if half_rate <= 0.0:
        return 1.0
    u = rng.uniform()
    f_cur = density.cdf(s_cur)
    atom = math.exp(-half_rate * max(0.0, 1.0 - f_cur))
    if u <= atom:
        return 1.0
    q = min(1.0, f_cur - math.log(u) / half_rate)
    return strictly_inside(density.ppf(q), s_cur, 1.0)


def sample_recomb_location(graph, rng):
    """Step 3: a uniform point on the current local tree.

    Walks graph.tree with its kept spans (the finite branches of the
    newest column, in id order), spending a single U * L draw; returns
    (branch id, latitude).
    """
    assert graph.tree_length > 0.0
    u = rng.uniform() * graph.tree_length
    for b, span in zip(graph.tree, graph.spans):
        if u < span:
            return b.id, b.lo + u
        u -= span
    # float slack past the final branch: clamp into it
    last = graph.tree[-1]
    assert u < 1e-9
    return last.id, last.hi - (last.hi - last.lo) * 1e-12


class Trace:
    """Record of one detached lineage's climb (Steps 4-5)."""

    __slots__ = ("fork_id", "t0", "xi", "steps")

    def __init__(self, fork_id, t0, xi):
        self.fork_id = fork_id
        self.t0 = t0
        self.xi = xi  # the detached labels, as a bitmask
        self.steps = []  # ordered (kind, time, payload...)

    def __repr__(self):
        return "Trace(fork_id=%r, t0=%r, xi=%r, steps=%r)" % (self.fork_id, self.t0, self.xi, self.steps)


def trace_lineage(graph, fork_id, t0, s_new, rho, density, rng):
    """Steps 4-5: carry the material right of s_new until it rejoins the tree.

    The graph is read-only here; the returned Trace is replayed against it
    by accept_breakpoint. Step times never decrease, so the replay is a
    straight left-to-right pass. The density's CDF is read once at s_new
    and once at the gap's lower end per ride step; the detach rate (the
    gap's mass, as density.mass gives it) and the detach locus both use
    those two values.
    """
    trace = Trace(fork_id, t0, graph.branches[fork_id].material.vals[-1])
    f_new = density.cdf(s_new)
    ride = None  # branch being ridden; None in free mode
    t = t0
    while True:
        if ride is None:
            t, target_id = free_rise(graph, t, rng)
            trace.steps.append(("coal", t, target_id))
            ride = graph.branches[target_id]
        else:
            # riding an older edge: its material gap spans from the end of
            # its material to the new locus
            gap_lo = ride.material.end
            f_gap = density.cdf(gap_lo)
            detach_rate = 0.5 * rho * max(0.0, f_new - f_gap)
            t_detach = t + rng.exponential(detach_rate) if detach_rate > 0.0 else INF
            if t_detach < ride.hi:
                locus = draw_between(density, rng, gap_lo, s_new, f_gap, f_new)
                trace.steps.append(("detach", t_detach, locus))
                t = t_detach
                ride = None
                continue
            trace.steps.append(("climb", ride.hi))
            t = ride.hi
            ride = graph.branch_above(ride.upper_node)
        if ride.material.end == 1.0:
            return trace


def accept_breakpoint(graph, s_new, trace):
    """Step 6 plus the material update: splice the trace into the graph.

    The new segments share one Lineage: xi from s_new on. The live
    intervals are updated in place. From s_new on, the path gains xi and
    the fork's old line loses it, up to the meeting piece: the first piece
    up the tail from the absorption point whose newest value already holds
    xi. Local-tree values are the leaf sets of their edges, a laminar
    family, and only edges below the fork's hold a strict part of xi; those
    end at or below t0. So a piece above t0 holds all of xi or none of it,
    the ones that hold it form the fork's line, and the tail meets that
    line at the meeting piece (at the latest the top, which holds every
    label). Above it the path and the line coincide: xi leaves and returns,
    so no value changes there.

    So one pass revalues only the path, the fork's line from the fork up to
    the meeting piece and the pieces made in this stage; every other
    local-tree piece stays in the tree as it is. The tree is the branches
    left nonempty from s_new on, kept in place: each old piece revalued, or
    cut by the splice (whose hi it lowers), is found by bisection on id and
    deleted, inserted or given its new span; then the pieces made in this
    stage, whose ids are all larger, are appended in id order.
    """
    xi = trace.xi
    carried = Lineage((s_new,), (0, xi))
    branches = graph.branches
    first_branch, first_node = len(branches), len(graph.nodes)
    # the fork: a recombination node at t0 on the fork branch
    fork = branches[trace.fork_id]
    fork_above = graph.split_branch(fork, trace.t0)
    cur = graph.add_branch(trace.t0, None, None, carried)  # the piece the path is on
    segs = [cur]  # the new segments of carried material
    node = graph.add_node(trace.t0, s_new, [fork.id], [fork_above.id, cur.id])
    fork.upper_node = node.id
    # every piece the stage revalues or cuts (lowers the hi of), with its
    # value from s_new on: a cut piece keeps its value, a path piece gains
    # xi and a piece of the fork's line loses it. The walks read materials,
    # so the new values are set only once they are done.
    col = {fork.id: xi, cur.id: xi}
    for step in trace.steps:
        kind, t = step[0], step[1]
        if kind == "coal":
            # the target's id is from before this stage: walk up its pieces
            # (upper part first among a split's parents) to the one at t
            target = branches[step[2]]
            while target.hi <= t:
                target = branches[graph.nodes[target.upper_node].parents[0]]
            col.setdefault(target.id, target.material.vals[-1])
            above = graph.split_branch(target, t)
            node = graph.add_node(t, None, [target.id, cur.id], [above.id])
            target.upper_node = cur.upper_node = node.id
            cur.hi = t
            cur = above
        elif kind == "detach":
            col[cur.id] = cur.material.vals[-1] | xi
            above = graph.split_branch(cur, t)
            seg = graph.add_branch(t, None, None, carried)
            node = graph.add_node(t, step[2], [cur.id], [above.id, seg.id])
            cur.upper_node = node.id
            col[seg.id] = xi
            segs.append(seg)
            cur = seg
        else:  # climb through the ridden piece's upper node
            col[cur.id] = cur.material.vals[-1] | xi
            cur = graph.branch_above(cur.upper_node)
    assert cur.hi is not None and cur.material.end == 1.0, "trace must end absorbed"
    # the tail: up the old tree from the absorption point to the meeting
    # piece, the first whose newest value already holds xi (the top does)
    while xi & ~cur.material.vals[-1]:
        assert cur.material.end == 1.0, "tail left the local tree"
        col[cur.id] = cur.material.vals[-1] | xi
        cur = graph.branch_above(cur.upper_node)
    meet = cur
    # the fork's line from the fork up to the meeting piece loses xi
    cur = fork_above
    while cur is not meet:
        col[cur.id] = cur.material.vals[-1] & ~xi
        cur = graph.branch_above(cur.upper_node)
    # the live intervals: each new node time opens an interval with the
    # count of the one it splits (starts[0] is no node time, so the first
    # node at latitude 0 repeats it); splits keep their span covered, so
    # only the new segments add to the counts
    starts, counts = graph.starts, graph.counts
    for nd in graph.nodes[first_node:]:
        t = nd.time
        k = bisect_right(starts, t)
        if k == 1 or starts[k - 1] != t:
            starts.insert(k, t)
            counts.insert(k, counts[k - 1])
    # each new segment adds one to the intervals from the one its lo opens
    # up to the one its hi opens; a zero-length segment spans none
    for seg in segs:
        k = bisect_left(starts, seg.lo)
        end = bisect_left(starts, seg.hi, k)
        counts[k:end] = map(_ONE_MORE, counts[k:end])
    # the value from s_new on: only the path, the fork's line and the
    # pieces made in this stage can change it, and only the cut pieces
    # change span, so every other old-tree piece keeps its slot. The tree
    # stays in id order, so sample_recomb_location and the fsum of its
    # length see the same sequence as a pass over every branch would give
    tree, spans = graph.tree, graph.spans
    for bid, val in col.items():
        if bid >= first_branch:
            continue  # made in this stage: appended below, in id order
        b = branches[bid]
        if val != b.material.vals[-1]:
            b.material = b.material.extended(s_new, val)
        k = bisect_left(tree, bid, key=_BY_ID)
        held = k < len(tree) and tree[k] is b
        if val and b.hi < INF:
            if held:
                spans[k] = b.hi - b.lo
            else:
                tree.insert(k, b)
                spans.insert(k, b.hi - b.lo)
        elif held:
            del tree[k], spans[k]
    for b in branches[first_branch:]:
        last = b.material.vals[-1]
        val = col.get(b.id, last)
        if val != last:
            b.material = b.material.extended(s_new, val)
        if val and b.hi < INF:
            tree.append(b)
            spans.append(b.hi - b.lo)
    graph.breakpoints.append(s_new)
    graph.tree_length = math.fsum(spans)


def graph_to_arg(graph, config):
    """Convert the finished graph to the event-log form.

    Nodes sorted by latitude become events. ``ranked`` holds the ids of
    the live branches in rank order, as state.advance would rank their
    material (the rank lemma): a coalescence leaves its parent at the
    lower child's rank i and drops rank j; a recombination leaves the part
    of lower rank key at rank i and inserts the other past it by one
    bisection over the material's rank keys. No State is built until the
    end, where the root's material is the final state.
    """
    branches = graph.branches
    keys = list(map(Lineage.rank_key, map(_MATERIAL, branches)))
    assert all(branches[j].material.vals == (1 << j,) for j in range(graph.n)), "leaves are not singletons"
    ranked = list(range(graph.n))  # leaf j has rank j: its key is (0.0, j + 1)
    nodes = sorted(graph.nodes, key=_BY_TIME)  # stable: ties stay in id order
    events = []
    for node in nodes:
        if node.locus is None:
            a, b = node.children
            i, j = ranked.index(a), ranked.index(b)
            if j < i:
                i, j = j, i
            del ranked[j]
            ranked[i] = node.parents[0]
            events.append(Coalesce(i, j))
        else:
            i = ranked.index(node.children[0])
            lower, upper = node.parents
            if keys[upper] < keys[lower]:
                lower, upper = upper, lower
            ranked[i] = lower
            ranked.insert(bisect_left(ranked, keys[upper], i + 1, key=keys.__getitem__), upper)
            events.append(Recombine(i, node.locus))
    (root,) = ranked
    return Arg(config, map(_BY_TIME, nodes), events, State(graph.n, [branches[root].material]))


def simulate_spatial(config):
    """Run one spatial simulation and return its Arg."""
    rng = replicate_rng(config.seed, config.replicate_index, SALTS["spatial"])
    rho, density = config.rho, config.density
    graph = kingman_tree(config.n_samples, rng)
    config.check_event_cap(len(graph.nodes))
    while True:
        s_new = sample_next_breakpoint(graph, rho, density, rng)
        if s_new >= 1.0:
            break
        fork_id, t0 = sample_recomb_location(graph, rng)
        trace = trace_lineage(graph, fork_id, t0, s_new, rho, density, rng)
        accept_breakpoint(graph, s_new, trace)
        config.check_event_cap(len(graph.nodes))
    return graph_to_arg(graph, config)
