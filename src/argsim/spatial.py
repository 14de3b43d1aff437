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
back-in-time engine emits: nodes sorted by latitude become events, and
State.successor takes each node's children's material out of the state
and its parents' in, as the branches hold it. validate_arg checks each
event against those states, so the two derivations meet there. The event
cap is SimConfig.check_event_cap, applied after step 1 and each stage.

Cost per stage, for a graph of N nodes and B branches: the free-mode rates
are the live intervals the graph keeps across stages. live_intervals builds
them once, for the stage-0 tree, and each splice updates them in place: one
bisection and one list insert per new node time, O(N), and +1 on the
intervals each new segment spans. Each free rise resolves branch ids only
on the interval it lands in, O(B). The splice (accept_breakpoint) costs
what the stage changes: its tail walk stops at the meeting piece, where the
path rejoins the fork's line, and it revalues only the path, the fork's
line up to that piece and the pieces made in this stage, building a
Lineage only where a value changes. Every other local-tree piece keeps its
value, so the new tree is one filter of the old one plus the revalued
pieces left in it, sorted by id.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import attrgetter

from .arg import Arg
from .density import strictly_inside
from .rng import SALTS, replicate_rng, unrank_pair
from .state import Coalesce, Lineage, Recombine, State

INF = math.inf


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
    """

    __slots__ = (
        "n", "branches", "nodes", "breakpoints",
        "tree", "tree_length", "starts", "counts",
    )

    def __init__(self, n):
        self.n = n
        self.branches = []
        self.nodes = []
        self.breakpoints = []
        self.tree = ()  # finite local-tree branches, in id order
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
        """Store the local tree's finite branches (in id order) and their length."""
        self.tree = tuple(branches)
        self.tree_length = math.fsum(b.hi - b.lo for b in self.tree)

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
    """Step 1: the locus-0 coalescent tree as a stage-0 graph."""
    graph = PartialGraph(n)
    for j in range(n):
        graph.add_branch(0.0, INF, None, Lineage.constant(1 << j))
    live = list(range(n))
    t = 0.0
    while len(live) > 1:
        k = len(live)
        t += rng.exponential(k * (k - 1) / 2.0)
        i, j = unrank_pair(rng.index(k * (k - 1) // 2), k)
        a, b = graph.branches[live[i]], graph.branches[live[j]]
        merged = graph.add_branch(t, INF, None, Lineage.constant(a.material.vals[0] | b.material.vals[0]))
        node = graph.add_node(t, None, [a.id, b.id], [merged.id])
        a.hi = b.hi = t
        a.upper_node = b.upper_node = node.id
        live[i] = merged.id
        live.pop(j)
    graph.set_tree(b for b in graph.branches if b.hi < INF)
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
    return tuple(b.id for b in graph.branches if b.lo <= t < b.hi)


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
    inverted directly, strictly above s_cur (1.0 when no float is).
    """
    s_cur = graph.breakpoints[-1] if graph.breakpoints else 0.0
    half_rate = 0.5 * rho * graph.tree_length
    if half_rate <= 0.0:
        return 1.0
    u = rng.uniform()
    atom = math.exp(-half_rate * density.mass(s_cur, 1.0))
    if u <= atom:
        return 1.0
    q = min(1.0, density.cdf(s_cur) - math.log(u) / half_rate)
    return strictly_inside(density.ppf(q), s_cur, 1.0)


def sample_recomb_location(graph, rng):
    """Step 3: a uniform point on the current local tree.

    Walks graph.tree (the finite branches accept_breakpoint read off the
    newest column, in id order), spending a single U * L draw; returns
    (branch id, latitude).
    """
    assert graph.tree_length > 0.0
    u = rng.uniform() * graph.tree_length
    for b in graph.tree:
        span = b.hi - b.lo
        if u < span:
            return b.id, b.lo + u
        u -= span
    # float slack past the final branch: clamp into it
    last = graph.tree[-1]
    assert u < 1e-9
    return last.id, last.hi - (last.hi - last.lo) * 1e-12


@dataclass
class Trace:
    """Record of one detached lineage's climb (Steps 4-5)."""

    fork_id: int
    t0: float
    xi: int  # the detached labels, as a bitmask
    steps: list = field(default_factory=list)  # ordered (kind, time, payload...)


def trace_lineage(graph, fork_id, t0, s_new, rho, density, rng):
    """Steps 4-5: carry the material right of s_new until it rejoins the tree.

    The graph is read-only here; the returned Trace is replayed against it
    by accept_breakpoint. Step times never decrease, so the replay is a
    straight left-to-right pass.
    """
    trace = Trace(fork_id=fork_id, t0=t0, xi=graph.branches[fork_id].material.vals[-1])
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
            detach_rate = 0.5 * rho * density.mass(gap_lo, s_new)
            t_detach = t + rng.exponential(detach_rate) if detach_rate > 0.0 else INF
            if t_detach < ride.hi:
                locus = density.sample_truncated(rng, gap_lo, s_new)
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
    left nonempty from s_new on.
    """
    xi = trace.xi
    carried = Lineage((s_new,), (0, xi))
    first_branch, first_node = len(graph.branches), len(graph.nodes)
    # the fork: a recombination node at t0 on the fork branch
    fork = graph.branches[trace.fork_id]
    fork_above = graph.split_branch(fork, trace.t0)
    cur = graph.add_branch(trace.t0, None, None, carried)  # the piece the path is on
    segs = [cur]  # the new segments of carried material
    node = graph.add_node(trace.t0, s_new, [fork.id], [fork_above.id, cur.id])
    fork.upper_node = node.id
    on_path = {cur.id}
    for step in trace.steps:
        kind, t = step[0], step[1]
        if kind == "coal":
            # the target's id is from before this stage: walk up its pieces
            # (upper part first among a split's parents) to the one at t
            target = graph.branches[step[2]]
            while target.hi <= t:
                target = graph.branches[graph.nodes[target.upper_node].parents[0]]
            above = graph.split_branch(target, t)
            node = graph.add_node(t, None, [target.id, cur.id], [above.id])
            target.upper_node = cur.upper_node = node.id
            cur.hi = t
            cur = above
        elif kind == "detach":
            above = graph.split_branch(cur, t)
            seg = graph.add_branch(t, None, None, carried)
            node = graph.add_node(t, step[2], [cur.id], [above.id, seg.id])
            cur.upper_node = node.id
            on_path.update((cur.id, seg.id))
            segs.append(seg)
            cur = seg
        else:  # climb through the ridden piece's upper node
            on_path.add(cur.id)
            cur = graph.branch_above(cur.upper_node)
    assert cur.hi is not None and cur.material.end == 1.0, "trace must end absorbed"
    # the tail: up the old tree from the absorption point to the meeting
    # piece, the first whose newest value already holds xi (the top does)
    while xi & ~cur.material.vals[-1]:
        assert cur.material.end == 1.0, "tail left the local tree"
        on_path.add(cur.id)
        cur = graph.branch_above(cur.upper_node)
    meet = cur
    # the fork's line from the fork up to the meeting piece loses xi
    lost = set()
    cur = fork_above
    while cur is not meet:
        lost.add(cur.id)
        cur = graph.branch_above(cur.upper_node)
    # the live intervals: each new node time opens an interval with the
    # count of the one it splits (starts[0] is no node time, so the first
    # node at latitude 0 repeats it); splits keep their span covered, so
    # only the new segments add to the counts
    starts, counts = graph.starts, graph.counts
    for nid in range(first_node, len(graph.nodes)):
        t = graph.nodes[nid].time
        k = bisect_right(starts, t)
        if k == 1 or starts[k - 1] != t:
            starts.insert(k, t)
            counts.insert(k, counts[k - 1])
    for seg in segs:
        if seg.lo < seg.hi:  # a zero-length segment spans no interval
            k = bisect_left(starts, seg.lo)
            while starts[k] < seg.hi:
                counts[k] += 1
                k += 1
    # the value from s_new on: only the path, the fork's line and the
    # pieces made in this stage can change it, so every other old-tree piece
    # stays in the tree as it is. The tree goes in id order, so
    # sample_recomb_location and the fsum of its length see the same
    # sequence as a pass over every branch would give them
    visited = on_path.union(lost, range(first_branch, len(graph.branches)))
    tree = [b for b in graph.tree if b.id not in visited]
    for bid in visited:
        b = graph.branches[bid]
        last = col = b.material.vals[-1]
        if bid in on_path:
            col = last | xi
        elif bid in lost:
            col = last & ~xi
        if col != last:
            b.material = Lineage(b.material.breaks + (s_new,), b.material.vals + (col,))
        if col and b.hi < INF:
            tree.append(b)
    tree.sort(key=attrgetter("id"))
    graph.breakpoints.append(s_new)
    graph.set_tree(tree)


def graph_to_arg(graph, config):
    """Convert the finished graph to the event-log form.

    Nodes sorted by latitude become events. Each state is State.successor
    of the one before: the node's children's material out, its parents'
    in, as the branches hold it. No Lineage is built and no event is
    replayed here. A branch keeps one Lineage object across the states it
    lives in, so validate_arg's step check matches the untouched lineages
    by identity; a state the material disagrees with fails that check, and
    the replay of that step reports it as clause (b).
    """
    material = [b.material for b in graph.branches]
    initial = state = State(graph.n, material[:graph.n])
    assert all(material[j].vals == (1 << j,) for j in range(graph.n)), "leaves are not singletons"
    times, events, states = [], [], []
    for node in sorted(graph.nodes, key=attrgetter("time")):  # stable: ties stay in id order
        ids = list(map(id, state.lineages))  # ranks by identity: no Lineage.__eq__ call
        if node.locus is None:
            a, b = node.children
            i, j = ids.index(id(material[a])), ids.index(id(material[b]))
            gone = (i, j) if i < j else (j, i)
            event = Coalesce(*gone)
        else:
            gone = (ids.index(id(material[node.children[0]])),)
            event = Recombine(gone[0], node.locus)
        state = state.successor(gone, [material[p] for p in node.parents])
        times.append(node.time)
        events.append(event)
        states.append(state)
    assert state.is_absorbed
    return Arg(config, times, events, states, initial)


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
