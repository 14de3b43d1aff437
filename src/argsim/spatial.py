"""Sequence-wise engine: build the graph breakpoint by breakpoint.

Step 1 draws a plain Kingman tree for the leftmost locus. Each later stage
takes the current partial graph (every branch carries one material column
per breakpoint so far, and the branches whose newest column is nonempty
form the local tree of the current locus), then:

  2. draws the next breakpoint locus from its exact conditional law
     (exponential in the integrated density, atom at 1 -> stop) by
     inverting the density's CDF directly;
  3. picks the recombination location uniformly on the current local tree;
  4. detaches the material right of the new locus and traces it upward:
     in free mode it coalesces at rate 1 with each live branch; landing on
     a local-tree branch absorbs it; landing on an older branch makes it
     ride that edge, where it either detaches again (rate = remaining
     recombination mass of the edge's material gap) and returns to free
     mode, or follows the edge through its upper node onto the
     larger-label edge;
  5. once absorbed, splices the new branch segments into the graph and
     extends every material vector by one column, reading the new local
     tree off that column in the same pass, with no walk from the leaves.

The finished graph converts into the same Arg event-log form the
back-in-time engine emits: nodes sorted by latitude become events, and
the states are read off the material columns alone. validate_arg checks
each event against those states, so the two derivations meet there.

Cost per stage, for a graph of N nodes and B branches: the free-mode rates
(live_intervals) take one sort of the node times and one sweep over the
branches, O(N log N + B); each free rise resolves branch ids only on the
interval it lands in, O(B); the splice (accept_breakpoint) appends one
material column to every branch and reads the local tree off it, O(B).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate

from .arg import Arg
from .backintime import DEFAULT_EVENT_CAP, EventCapExceeded, unrank_pair
from .density import strictly_inside
from .rng import SALTS, replicate_rng
from .state import Coalesce, Lineage, Recombine, State

INF = math.inf


class Branch:
    """One graph edge spanning latitudes [lo, hi); hi is +inf for the top."""

    __slots__ = ("id", "lo", "hi", "upper_node", "label", "cols")

    def __init__(self, bid, lo, hi, upper_node, label, cols):
        self.id = bid
        self.lo = lo
        self.hi = hi
        self.upper_node = upper_node
        self.label = label
        self.cols = cols  # list of frozensets, one per breakpoint column

    def __repr__(self):
        return "Branch(%d, [%g,%g), label=%d, cols=%r)" % (
            self.id, self.lo, self.hi, self.label,
            [sorted(c) for c in self.cols],
        )


class GraphNode:
    """An internal vertex: a coalescence ('c') or recombination ('r')."""

    __slots__ = ("id", "time", "kind", "locus", "children", "parents")

    def __init__(self, nid, time, kind, locus, children, parents):
        self.id = nid
        self.time = time
        self.kind = kind
        self.locus = locus
        self.children = children  # branch ids below
        self.parents = parents  # branch ids above


class PartialGraph:
    """The mutable graph a spatial simulation grows stage by stage."""

    __slots__ = (
        "n", "branches", "nodes", "leaves", "top_id", "breakpoints",
        "tree", "tree_length", "_next_branch", "_next_node",
    )

    def __init__(self, n):
        self.n = n
        self.branches = {}
        self.nodes = {}
        self.leaves = tuple(range(n))
        self.top_id = None
        self.breakpoints = []
        self.tree = ()  # finite local-tree branches, in id order
        self.tree_length = 0.0
        self._next_branch = 0
        self._next_node = 0

    @property
    def stage(self):
        return len(self.breakpoints)

    def add_branch(self, lo, hi, upper_node, label, cols):
        bid = self._next_branch
        self._next_branch += 1
        b = Branch(bid, lo, hi, upper_node, label, cols)
        self.branches[bid] = b
        return b

    def add_node(self, time, kind, locus, children, parents):
        nid = self._next_node
        self._next_node += 1
        nd = GraphNode(nid, time, kind, locus, children, parents)
        self.nodes[nid] = nd
        return nd

    def set_tree(self, branches):
        """Store the local tree's finite branches (in id order) and their length."""
        self.tree = tuple(branches)
        self.tree_length = math.fsum(b.hi - b.lo for b in self.tree)

    def branch_above(self, node_id):
        """The branch leaving a node upward; the larger-label one at a fork."""
        return max((self.branches[p] for p in self.nodes[node_id].parents), key=lambda b: b.label)

    def split_branch(self, piece, t):
        """Cut a branch at latitude t; the lower part keeps the id.

        Returns the new upper part. Node links of the upper end move to the
        new piece; the caller wires both cut ends to the event node it is
        creating.
        """
        assert piece.lo <= t < piece.hi
        above = self.add_branch(t, piece.hi, piece.upper_node, piece.label, list(piece.cols))
        if piece.upper_node is not None:
            upper = self.nodes[piece.upper_node]
            upper.children[upper.children.index(piece.id)] = above.id
        if self.top_id == piece.id:
            self.top_id = above.id
        piece.hi = t
        piece.upper_node = None
        return above


def kingman_tree(n, rng):
    """Step 1: the locus-0 coalescent tree as a stage-0 graph."""
    graph = PartialGraph(n)
    for j in range(n):
        graph.add_branch(0.0, INF, None, 0, [frozenset({j + 1})])
    live = list(range(n))
    t = 0.0
    while len(live) > 1:
        k = len(live)
        t += rng.exponential(k * (k - 1) / 2.0)
        i, j = unrank_pair(rng.index(k * (k - 1) // 2), k)
        a, b = graph.branches[live[i]], graph.branches[live[j]]
        merged = graph.add_branch(t, INF, None, 0, [a.cols[0] | b.cols[0]])
        node = graph.add_node(t, "c", None, [a.id, b.id], [merged.id])
        a.hi = b.hi = t
        a.upper_node = b.upper_node = node.id
        live[i] = merged.id
        live.pop(j)
    graph.top_id = live[0]
    graph.set_tree(b for b in graph.branches.values() if b.hi < INF)
    return graph


def live_intervals(graph):
    """Latitude intervals with constant live-branch sets, bottom to top.

    Returns (starts, counts): starts[k] opens interval k, and counts[k] is
    the number of branches spanning it (b.lo <= starts[k] < b.hi). The last
    interval is unbounded and holds only the top branch.

    Cost per stage: one sort of the node times plus one pass over the
    branches, O(nodes log nodes + branches). Each branch adds +1 where it
    opens and -1 where it closes; a prefix sum gives the counts. Branch ids
    are resolved later, by live_branches, on the one interval a free rise
    lands in.
    """
    times = sorted({nd.time for nd in graph.nodes.values()})
    starts = [0.0] + times
    first = {t: k for k, t in enumerate(times, 1)}
    first[0.0] = 0  # a node at latitude 0 repeats starts[0]
    first[INF] = len(starts)  # the top branch never closes
    delta = [0] * (len(starts) + 1)
    for b in graph.branches.values():
        if b.lo < b.hi:  # a zero-length branch spans no interval
            delta[first[b.lo]] += 1
            delta[first[b.hi]] -= 1
    counts = list(accumulate(delta[:-1]))
    top = graph.branches[graph.top_id]
    assert counts[-1] == 1 and top.lo <= starts[-1] < top.hi
    return starts, counts


def live_branches(graph, t):
    """Id-sorted tuple of the branches spanning latitude t; O(branches)."""
    return tuple(sorted(b.id for b in graph.branches.values() if b.lo <= t < b.hi))


def free_rise(graph, intervals, t0, rng):
    """Free mode: rise from latitude t0 until coalescing with a live branch.

    Coalescence happens at rate equal to the live-branch count; the target
    is uniform among the branches live at the coalescence latitude. Exact
    piecewise-exponential inversion over the graph's latitude intervals.

    Cost per call: one step per interval crossed, using the counts of
    live_intervals, plus one live_branches pass over the branches on the
    interval where the rise lands.
    """
    starts, counts = intervals
    budget = -math.log(rng.uniform())  # integrated hazard to spend
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
    xi: frozenset
    steps: list = field(default_factory=list)  # ordered (kind, time, payload...)


def trace_lineage(graph, fork_id, t0, s_new, rho, density, rng):
    """Steps 4-5: carry the material right of s_new until it rejoins the tree.

    The graph is read-only here; the returned Trace is replayed against it
    by accept_breakpoint. Step times never decrease, so the replay is a
    straight left-to-right pass.
    """
    stage = graph.stage
    bps = graph.breakpoints
    trace = Trace(fork_id=fork_id, t0=t0, xi=graph.branches[fork_id].cols[stage])
    intervals = live_intervals(graph)
    mode_free = True
    ride = None  # branch being ridden
    t = t0
    while True:
        if mode_free:
            t_coal, target_id = free_rise(graph, intervals, t, rng)
            trace.steps.append(("coal", t_coal, target_id))
            target = graph.branches[target_id]
            t = t_coal
            if target.label == stage:
                return trace
            mode_free = False
            ride = target
        else:
            # riding an older edge: its material gap spans from the locus
            # after its label's breakpoint to the new locus
            gap_lo = bps[ride.label]
            detach_rate = 0.5 * rho * density.mass(gap_lo, s_new)
            t_detach = t + rng.exponential(detach_rate) if detach_rate > 0.0 else INF
            if t_detach < ride.hi:
                locus = density.sample_truncated(rng, gap_lo, s_new)
                trace.steps.append(("detach", t_detach, locus))
                t = t_detach
                mode_free = True
                ride = None
            else:
                trace.steps.append(("climb", ride.hi))
                t = ride.hi
                ride = graph.branch_above(ride.upper_node)
                if ride.label == stage:
                    return trace


def accept_breakpoint(graph, s_new, trace):
    """Step 6 plus the material update: splice the trace into the graph.

    The one pass that appends the new column also reads the local tree off
    it: the branches it leaves nonempty take the new label.
    """
    stage = graph.stage
    new_label = stage + 1
    xi = trace.xi
    alias = {}  # pre-split piece id -> its upper part, chained per split

    def current_piece(bid):
        while bid in alias:
            bid = alias[bid]
        return graph.branches[bid]

    def split_at(piece, t):
        above = graph.split_branch(piece, t)
        alias[piece.id] = above.id
        return above

    on_path = set()
    # the fork: a recombination node at t0 on the fork branch
    fork_piece = current_piece(trace.fork_id)
    fork_above = split_at(fork_piece, trace.t0)
    seg = graph.add_branch(trace.t0, None, None, new_label, [frozenset()] * (stage + 1))
    fork_node = graph.add_node(trace.t0, "r", s_new, [fork_piece.id], [fork_above.id, seg.id])
    fork_piece.upper_node = fork_node.id
    on_path.add(seg.id)
    ride_piece = None
    tail_start = None
    for step in trace.steps:
        kind, t = step[0], step[1]
        if kind == "coal":
            target = current_piece(step[2])
            above = split_at(target, t)
            node = graph.add_node(t, "c", None, [target.id, seg.id], [above.id])
            target.upper_node = node.id
            seg.hi = t
            seg.upper_node = node.id
            seg = None
            if target.label == stage:
                tail_start = above
                break
            ride_piece = above
        elif kind == "detach":
            locus = step[2]
            above = split_at(ride_piece, t)
            seg = graph.add_branch(t, None, None, new_label, [frozenset()] * (stage + 1))
            node = graph.add_node(t, "r", locus, [ride_piece.id], [above.id, seg.id])
            on_path.add(ride_piece.id)
            ride_piece.upper_node = node.id
            on_path.add(seg.id)
            ride_piece = None
        else:  # climb through the ridden piece's upper node
            on_path.add(ride_piece.id)
            ride_piece = graph.branch_above(ride_piece.upper_node)
            if ride_piece.label == stage:
                tail_start = ride_piece
                break
    assert tail_start is not None and seg is None, "trace must end absorbed"
    # the tail: the old tree from the absorption point up to the top
    cur = tail_start
    while True:
        assert cur.label == stage, "tail left the local tree"
        on_path.add(cur.id)
        if cur.upper_node is None:
            break
        cur = graph.branch_above(cur.upper_node)
    # extend every material vector by the new column
    tree = []
    for b in graph.branches.values():
        if b.id in on_path:
            col = b.cols[stage] | xi
        elif b.hi > trace.t0:
            col = b.cols[stage] - xi
        else:
            col = b.cols[stage]
        b.cols.append(col)
        if col:
            b.label = new_label
            if b.hi < INF:
                tree.append(b)
    graph.breakpoints.append(s_new)
    graph.set_tree(tree)


def graph_to_arg(graph, config):
    """Convert the finished graph to the event-log form.

    Nodes sorted by latitude become events. Each state holds the lineage
    functions of the live branches, read off their material columns; no
    event is replayed here. A branch keeps one Lineage object across the
    states it lives in, so validate_arg's step check matches the untouched
    lineages by identity; a state the material disagrees with fails that
    check, and the replay of that step reports it as clause (b).
    """
    bounds = [0.0] + list(graph.breakpoints) + [1.0]
    funcs = {}
    for b in graph.branches.values():
        funcs[b.id] = Lineage.from_segments(
            (bounds[l], bounds[l + 1], col) for l, col in enumerate(b.cols)
        )
    live = set(graph.leaves)
    initial = state = State(graph.n, [funcs[i] for i in live])
    assert state == State.initial(graph.n)
    times, events, states = [], [], []
    for node in sorted(graph.nodes.values(), key=lambda nd: (nd.time, nd.id)):
        ranked = state.lineages
        if node.kind == "c":
            c1, c2 = node.children
            i, j = sorted((ranked.index(funcs[c1]), ranked.index(funcs[c2])))
            event = Coalesce(i, j)
        else:
            (child,) = node.children
            event = Recombine(ranked.index(funcs[child]), node.locus)
        live.difference_update(node.children)
        live.update(node.parents)
        state = State(graph.n, [funcs[i] for i in live])
        times.append(node.time)
        events.append(event)
        states.append(state)
    assert state.is_absorbed
    return Arg(config, times, events, states, initial)


def simulate_spatial(config, rng=None, max_events=DEFAULT_EVENT_CAP):
    """Run one spatial simulation and return its Arg."""
    if rng is None:
        rng = replicate_rng(config.seed, config.replicate_index, SALTS["spatial"])
    rho, density = config.rho, config.density
    graph = kingman_tree(config.n_samples, rng)
    while True:
        s_new = sample_next_breakpoint(graph, rho, density, rng)
        if s_new >= 1.0:
            break
        fork_id, t0 = sample_recomb_location(graph, rng)
        trace = trace_lineage(graph, fork_id, t0, s_new, rho, density, rng)
        accept_breakpoint(graph, s_new, trace)
        if len(graph.nodes) > max_events:
            raise EventCapExceeded(
                "exceeded %d events (n=%d rho=%g)" % (max_events, config.n_samples, rho)
            )
    return graph_to_arg(graph, config)
