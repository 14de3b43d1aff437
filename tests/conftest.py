"""Shared test helpers: fixture states, hand-built paths and the states
replayed along a path, random legal event walks, the known-broken engines,
and oracles that recheck what the package asserts incrementally: the
replay validator, the partial-graph invariants, the projection of a path
at a site, the site tree read off every state, the segment-wise lineage
operators, the label bitmasks built from label sets, a fresh interpreter
to run a script in, the exact two-locus chain and the size law of the
clade of labels 1 and 2."""

import json
import math
import os
import random
import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from operator import or_
from pathlib import Path

import pytest

import argsim
from argsim.arg import Arg, ValidationReport
from argsim.density import UniformDensity
from argsim.spatial import live_intervals
from argsim.state import Coalesce, IllegalEventError, Lineage, Recombine, State, fmt_locus, full_set


def run_fresh(script, *args):
    """Run ``script`` in a new interpreter that imports the argsim under test.

    What the package has loaded, and whether a function was called before,
    depends on the process; a fresh one starts with neither. The script
    prints one JSON value as its last line, which is returned.
    """
    path = [str(Path(argsim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture
def r1_mutant(monkeypatch):
    """Switch off the shared-prefix rule: the known-broken engine.

    Every rank's active interval becomes its whole support, so the
    first-ranked lineage can split inside material all samples already
    share. state.active_interval is the one place the shared-prefix rule
    lives, and every reader looks it up as that module's global: the
    kernel state.advance, State.active_intervals (read by total_rate), and
    the engine's kept weights and sample_event.
    So patching it turns simulate_backintime into the mutant whose wrong
    breakpoint law the statistical battery must catch. The patch is undone
    when the test ends.
    """
    monkeypatch.setattr(
        argsim.state, "active_interval",
        lambda lineages, i, full: (lineages[i].start, lineages[i].end),
    )


@pytest.fixture
def density_blind_mutant(monkeypatch):
    """A back-in-time engine that draws each locus uniformly on its active interval.

    Its rates still weigh each rank by the density's mass, so criterion 7
    holds, and under the uniform law it is the engine itself, so no battery
    row of criterion 2 sees it. simulate_backintime looks sample_event up
    as a module global; patching it to draw under the uniform law and its
    CDF, whatever the config's density, turns the engine into the mutant.
    The patch is undone when the test ends.
    """
    draw = argsim.backintime.sample_event
    uniform = UniformDensity()
    monkeypatch.setattr(
        argsim.backintime, "sample_event",
        lambda lineages, full, rates, density, cdf, rng: draw(
            lineages, full, rates, uniform, UniformCdf(), rng),
    )


class UniformCdf(dict):
    """The uniform law's CDF on [0, 1] as a mapping: every locus maps to itself."""

    def __missing__(self, s):
        return s


@pytest.fixture
def density_blind_spatial_mutant(monkeypatch):
    """A spatial engine whose next breakpoint ignores the density.

    It draws each stage's locus under the uniform law, whatever the
    config's density, while its detaches still draw under p. Every path
    stays legal. simulate_spatial looks sample_next_breakpoint up as a
    module global, so patching it turns the engine into the mutant. The
    patch is undone when the test ends.
    """
    draw = argsim.spatial.sample_next_breakpoint
    uniform = UniformDensity()
    monkeypatch.setattr(
        argsim.spatial, "sample_next_breakpoint",
        lambda graph, rho, density, rng: draw(graph, rho, uniform, rng),
    )


@pytest.fixture
def smc_prime_mutant(monkeypatch):
    """The SMC' spatial engine: a free rise sees only the current local tree.

    The detached lineage coalesces at rate 1 with each branch whose material
    reaches 1.0 (the top branch included) and with nothing older, so its
    target is absorbed at once and it never rides. Each site's tree stays
    Kingman and every path is legal, but the joint law along the sequence
    is SMC' (McVean & Cardin 2005), not the coalescent with recombination.
    trace_lineage looks free_rise up as a module global, so patching it
    turns simulate_spatial into the mutant. The patch is undone when the
    test ends.
    """
    def rise(graph, t0, rng):
        tree = [b for b in graph.branches if b.material.end == 1.0]  # in id order
        cuts = sorted({t0, *(x for b in tree for x in (b.lo, b.hi) if x > t0)})
        budget = rng.exponential(1.0)
        for lo, hi in zip(cuts, cuts[1:]):
            live = [b.id for b in tree if b.lo <= lo < b.hi]
            if budget <= (hi - lo) * len(live):
                return lo + budget / len(live), live[rng.index(len(live))]
            budget -= (hi - lo) * len(live)

    monkeypatch.setattr(argsim.spatial, "free_rise", rise)


@pytest.fixture
def pair_bias_mutant(monkeypatch):
    """A spatial engine whose locus-0 tree joins labels 1 and 2 first too often.

    The first merge of kingman_tree (k == n) takes ranks (0, 1), labels 1
    and 2, whenever its index lies in the lower half of its range, so that
    pair merges first in about half the paths, not in 1 of C(n, 2). The
    first merge joins two leaves whatever pair it takes, so every tree keeps
    its times and shape and every path stays legal: only labels are biased.
    kingman_tree looks unrank_pair up as a spatial module global, and
    backintime binds its own, so only spatial changes. The patch is undone
    when the test ends.
    """
    unrank_pair = argsim.spatial.unrank_pair
    last = [0]  # the previous call's k: one tree's merges call with k = n, n - 1, ..., 2

    def biased(index, k):
        first, last[0] = k >= last[0], k
        if first and 2 * index < k * (k - 1) // 2:
            return 0, 1
        return unrank_pair(index, k)

    monkeypatch.setattr(argsim.spatial, "unrank_pair", biased)


@pytest.fixture
def moved_label_mutant(monkeypatch):
    """A splice that moves one label between two local-tree branches past the new locus.

    After each real accept_breakpoint, the highest label of the first
    non-leaf branch of the local tree holding two labels or more moves, from
    the new locus on, to the first non-leaf branch that started before it
    and lacks that label. Both keep their rank keys, so graph_to_arg gives
    the events of the unbroken graph and validate_arg passes: only the
    branch material disagrees with the events. simulate_spatial and the
    tests look accept_breakpoint up as a spatial module global. Returns the
    list of (source, target) branch ids moved, one entry per stage where a
    move was found. The patch is undone when the test ends.
    """
    accept = argsim.spatial.accept_breakpoint
    moves = []

    def with_newest(material, s_new, value):
        breaks, vals = material.breaks, material.vals
        if breaks and breaks[-1] == s_new:
            breaks, vals = breaks[:-1], vals[:-1]
        if vals[-1] != value:
            breaks, vals = breaks + (s_new,), vals + (value,)
        return Lineage(breaks, vals)

    def moving(graph, s_new, trace):
        accept(graph, s_new, trace)
        inner = [b for b in graph.tree if b.id >= graph.n]
        src = next((b for b in inner if b.material.vals[-1].bit_count() >= 2), None)
        if src is None:
            return
        label = 1 << (src.material.vals[-1].bit_length() - 1)
        dst = next((b for b in inner if b is not src and b.material.start < s_new
                    and not b.material.vals[-1] & label), None)
        if dst is None:
            return
        src.material = with_newest(src.material, s_new, src.material.vals[-1] & ~label)
        dst.material = with_newest(dst.material, s_new, dst.material.vals[-1] | label)
        moves.append((src.id, dst.id))

    monkeypatch.setattr(argsim.spatial, "accept_breakpoint", moving)
    return moves


def mask_of(labels):
    """The bitmask of a label set: bit j - 1 for label j."""
    return sum(1 << (j - 1) for j in set(labels))


def labels_of(mask):
    """The labels a bitmask holds, ascending."""
    return [j for j in range(1, mask.bit_length() + 1) if mask >> (j - 1) & 1]


def union_of(masks):
    """The union of label bitmasks."""
    return reduce(or_, masks, 0)


def lin(*segments):
    """Build a Lineage from (lo, hi, labels) triples; labels iterable or None.

    Gaps between the given segments (and before/after them) are filled
    with empty material so the function always covers [0, 1).
    """
    segs = sorted(
        (lo, hi, mask_of(labels or ())) for lo, hi, labels in segments
    )
    filled = []
    cursor = 0.0
    for lo, hi, val in segs:
        assert lo >= cursor, "overlapping fixture segments"
        if lo > cursor:
            filled.append((cursor, lo, 0))
        filled.append((lo, hi, val))
        cursor = hi
    if cursor < 1.0:
        filled.append((cursor, 1.0, 0))
    return Lineage(*canonical(filled))


def canonical(segments):
    """Merge adjacent equal-valued segments; return (breaks, vals) tuples.

    ``segments`` is an iterable of (lo, hi, value) covering [0, 1) in order,
    possibly with zero-length or mergeable entries.
    """
    breaks = []
    vals = []
    for lo, hi, val in segments:
        if hi <= lo:
            continue
        if vals and vals[-1] == val:
            continue  # extend the previous run; no new break
        if vals:
            breaks.append(lo)
        vals.append(val)
    if not vals:
        vals = [0]
    return tuple(breaks), tuple(vals)


def split_oracle(lineage, u):
    """Lineage.split segment by segment: the oracle for the merge."""
    empty = 0
    below_segs = []
    above_segs = []
    for lo, hi, val in lineage.segments():
        if hi <= u:
            below_segs.append((lo, hi, val))
            above_segs.append((lo, hi, empty))
        elif lo >= u:
            below_segs.append((lo, hi, empty))
            above_segs.append((lo, hi, val))
        else:
            below_segs += [(lo, u, val), (u, hi, empty)]
            above_segs += [(lo, u, empty), (u, hi, val)]
    return Lineage(*canonical(below_segs)), Lineage(*canonical(above_segs))


def union_oracle(x, y):
    """Lineage.union on the sorted grid of both lineages' breaks: the oracle for the merge."""
    grid = sorted({*x.breaks, *y.breaks})
    segs = []
    lo = 0.0
    for hi in grid + [1.0]:
        segs.append((lo, hi, x.value_at(lo) | y.value_at(lo)))
        lo = hi
    return Lineage(*canonical(segs))


def ks_two_sample_oracle(a, b):
    """Two-sample KS by a two-pointer merge of the pooled samples: (D, p).

    The oracle for stats.ks_two_sample, which takes D as the one-sample
    distance of a from b's empirical CDF.
    """
    from scipy.special import kolmogorov

    xs = sorted(a)
    ys = sorted(b)
    na, nb = len(xs), len(ys)
    i = j = 0
    d = 0.0
    while i < na or j < nb:
        if j >= nb or (i < na and xs[i] <= ys[j]):
            x = xs[i]
        else:
            x = ys[j]
        # pass every copy of x in both samples before comparing: the sup of
        # the step-function gap sits just after the tied block
        while i < na and xs[i] == x:
            i += 1
        while j < nb and ys[j] == x:
            j += 1
        diff = abs(i / na - j / nb)
        if diff > d:
            d = diff
    ne = na * nb / (na + nb)
    return d, float(kolmogorov(math.sqrt(ne) * d))


def count_advance(monkeypatch):
    """Record the event of every call of the kernel, state.advance, in the returned list.

    Every argsim module that binds the kernel gets the counting one, so the
    count holds however a caller reaches it.
    """
    calls = []
    kernel = argsim.state.advance

    def counted(lineages, full, event):
        calls.append(event)
        return kernel(lineages, full, event)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "argsim" and getattr(mod, "advance", None) is kernel:
            monkeypatch.setattr(mod, "advance", counted)
    return calls


def build_arg(config, timed_events):
    """Hand-assemble an Arg by applying (time, event) pairs in order."""
    state = State.initial(config.n_samples)
    times, events = [], []
    for t, ev in timed_events:
        state = state.apply(ev)
        times.append(t)
        events.append(ev)
    return Arg(config, times, events, state)


def path_states(arg):
    """The state after each event of a legal path: its State.apply replay from the singleton state."""
    state = State.initial(arg.n_samples)
    out = []
    for event in arg.events:
        state = state.apply(event)
        out.append(state)
    return out


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

    Replays every event from the singleton state and gives every replayed
    state the full State.check(), so an operator that breaks an invariant
    shows up as a violation validate_arg does not report. The first
    illegal event ends the replay; (d) reads where it ended, and a
    complete replay must end at the recorded final state.
    """
    violations = []
    state = State.initial(arg.n_samples)
    replaying = True
    seen_loci = {}
    prev_t = 0.0
    for idx, (t, event) in enumerate(zip(arg.times, arg.events)):
        if not t > prev_t:
            violations.append((idx, "e", "time %r does not increase past %r" % (t, prev_t)))
        prev_t = t
        if isinstance(event, Recombine):
            if event.locus in seen_loci:
                violations.append(
                    (idx, "c", "locus %s repeats event %d" % (fmt_locus(event.locus), seen_loci[event.locus]))
                )
            seen_loci[event.locus] = idx
        if not replaying:
            continue
        try:
            state = state.apply(event)
        except IllegalEventError as err:
            violations.append((idx, "b", str(err)))
            replaying = False
            continue
        try:
            state.check()
        except AssertionError as err:
            violations.append((idx, "b", "invariant broken: %s" % err))
    if not state.is_absorbed:
        violations.append((None, "d", "path does not end in the absorbing state"))
    elif state != State.absorbing(arg.n_samples):
        violations.append((None, "d", "final state is not the full-label lineage"))
    if replaying and state != arg.final_state:
        violations.append((None, "b", "final state diverges from replay"))
    return ValidationReport(violations)


def column(graph, branch, l):
    """A spatial branch's material on stage l's locus interval.

    Stage 0 covers [0, first breakpoint); stage l starts at the l-th
    breakpoint.
    """
    return branch.material.value_at(([0.0] + graph.breakpoints)[l])


def top_id(graph):
    """Id of a spatial graph's top branch: the one branch with hi == inf."""
    (top,) = [b.id for b in graph.branches if b.hi == math.inf]
    return top


def lineage_fields(lineage):
    """A lineage's tuples and the fields read off them, for comparing lineages field by field."""
    return lineage.breaks, lineage.vals, lineage.start, lineage.start_min, lineage.end


def sorted_start_state(n):
    """The oracle start state: Lineage.__init__ reads each singleton's fields, and State sorts them."""
    return State(n, [Lineage((), (1 << j,)) for j in reversed(range(n))])


def check_invariants(graph):
    """Assert a spatial PartialGraph's structure; returns the graph.

    Checks that ids are list indices, the links the engine walks (a node
    with a locus has one child and two parents, one without two and one;
    each child ends and each parent starts at the node's time; each
    branch's upper node lists it among its children), that each branch's
    material is canonical and changes only at the graph's breakpoints,
    column conservation at every node and every column, that the live
    columns partition the samples, that the live intervals the graph keeps
    equal a fresh live_intervals sweep, that each material's start, start_min
    and end are those the Lineage constructor derives, and the two facts the
    engine reads off the material: a branch is in the current local tree iff
    its material ends at 1.0, and otherwise its material ends at the
    breakpoint after its last nonempty column.
    """
    n_cols = len(graph.breakpoints) + 1
    full = full_set(graph.n)
    assert [b.id for b in graph.branches] == list(range(len(graph.branches))), "branch ids out of order"
    assert [nd.id for nd in graph.nodes] == list(range(len(graph.nodes))), "node ids out of order"
    for nd in graph.nodes:
        shape = (1, 2) if nd.locus is not None else (2, 1)
        assert (len(nd.children), len(nd.parents)) == shape, "node %d has the wrong degree" % nd.id
        assert all(graph.branches[c].hi == nd.time for c in nd.children), "a child of node %d ends off it" % nd.id
        assert all(graph.branches[p].lo == nd.time for p in nd.parents), "a parent of node %d starts off it" % nd.id
    for b in graph.branches:
        assert b.upper_node is None or b.id in graph.nodes[b.upper_node].children, (
            "branch %d is not a child of its upper node" % b.id
        )
        m = b.material
        assert set(m.breaks) <= set(graph.breakpoints), "branch %d breaks off the breakpoints" % b.id
        assert all(x < y for x, y in zip(m.breaks, m.breaks[1:]))
        assert all(x != y for x, y in zip(m.vals, m.vals[1:])), "branch %d uncanonical" % b.id
        fresh = Lineage(m.breaks, m.vals)
        assert (m.start, m.start_min, m.end) == (fresh.start, fresh.start_min, fresh.end), (
            "branch %d: derived fields differ from the constructor's" % b.id
        )
        nonempty = [l for l in range(n_cols) if column(graph, b, l)]
        assert nonempty, "branch %d carries no material" % b.id
        in_tree = nonempty[-1] == n_cols - 1
        assert in_tree == (m.end == 1.0), "branch %d: tree membership %s, end %r" % (b.id, in_tree, m.end)
        if not in_tree:
            assert m.breaks[-1] == m.end == graph.breakpoints[nonempty[-1]], (
                "branch %d material ends at %r, last nonempty column %d" % (b.id, m.end, nonempty[-1])
            )
    for nd in graph.nodes:
        for col in range(n_cols):
            below = [column(graph, graph.branches[c], col) for c in nd.children]
            above = [column(graph, graph.branches[p], col) for p in nd.parents]
            joined = union_of(below)
            assert sum(c.bit_count() for c in below) == joined.bit_count(), "overlap below node %d" % nd.id
            assert joined == union_of(above), "column %d not conserved at node %d" % (col, nd.id)
    for leaf in range(graph.n):
        b = graph.branches[leaf]
        assert b.lo == 0.0 and b.material == Lineage.constant(mask_of({leaf + 1}))
    # live columns partition the samples at a few probe latitudes
    times = sorted({nd.time for nd in graph.nodes})
    for t in [0.0] + times[:-1]:
        live = [b for b in graph.branches if b.lo <= t < b.hi]
        for col in range(n_cols):
            vals = [column(graph, b, col) for b in live]
            assert sum(v.bit_count() for v in vals) == graph.n
            assert union_of(vals) == full
    assert graph.branches[top_id(graph)].material.end == 1.0
    assert (graph.starts, graph.counts) == live_intervals(graph), "kept intervals differ from the sweep"
    return graph


def project_state(state, s):
    """Keep only material on [0, s), holding each lineage's value at s onward.

    Lineages whose support lies entirely at or beyond s drop out.
    """
    kept = []
    for lin in state.lineages:
        segs = [(lo, min(hi, s), val) for lo, hi, val in lin.segments() if lo < s]
        segs.append((s, 1.0, lin.value_at(s)))
        frozen = Lineage(*canonical(segs))
        if not frozen.is_null:
            kept.append(frozen)
    return State(state.n, kept)


def project_path(arg, s):
    """The path seen through the material left of site s, as (time, state) steps.

    Every state is projected at s and repeats are dropped, so each step is
    a jump; the projected start is project_state(State.initial(n), s).
    """
    prev = project_state(State.initial(arg.n_samples), s)
    steps = []
    for t, state in zip(arg.times, path_states(arg)):
        projected = project_state(state, s)
        if projected != prev:
            steps.append((t, projected))
            prev = projected
    return steps


def state_at(initial, steps, t):
    """The state at time t of the right-continuous path with these (time, state) steps."""
    idx = bisect_right([time for time, _ in steps], t)
    return steps[idx - 1][1] if idx else initial


def site_partition(state, s):
    """Blocks of the label partition at locus s, sorted by smallest label."""
    blocks = [lin.value_at(s) for lin in state.lineages]
    return tuple(sorted((b for b in blocks if b), key=lambda b: labels_of(b)[0]))


def walk_site_tree(arg, s):
    """The site-s tree read off every state: (levels, height, total length).

    Each state's partition at s is diffed against the one before, up to
    the first full merge. The package reads the same tree off the
    coalescence events alone.
    """
    part = site_partition(State.initial(arg.n_samples), s)
    levels = [(0.0, part)]
    total_length = 0.0
    prev_t = 0.0
    for t, after in zip(arg.times, path_states(arg)):
        new_part = site_partition(after, s)
        if new_part != part:
            assert len(new_part) == len(part) - 1, "site partitions merge one pair at a time"
            total_length += len(part) * (t - prev_t)
            prev_t = t
            part = new_part
            levels.append((t, part))
            if len(part) == 1:
                return tuple(levels), t, total_length
    raise AssertionError("a complete path always merges every site")


def newick_from_levels(levels):
    """Newick of a tree given as its partition jump chain, children smallest leaf label first.

    Rediscovers each merge from the partitions alone: the one block new at
    a level, and the two blocks of the level before that it covers. The
    package reads the same string off the merges it recorded.
    """
    nodes = {}
    for block in levels[0][1]:
        assert block & (block - 1) == 0, "the first level holds singletons"
        nodes[block] = (0.0, str(block.bit_length()))
    for time, partition in levels[1:]:
        merged = [b for b in partition if b not in nodes]
        assert len(merged) == 1, "levels must merge exactly one pair"
        target = merged[0]
        children = sorted((b for b in nodes if b & ~target == 0), key=lambda b: b & -b)
        assert len(children) == 2, "binary merges only"
        parts = []
        for child in children:
            h, text = nodes.pop(child)
            parts.append("%s:%r" % (text, time - h))
        nodes[target] = (time, "(%s)" % ",".join(parts))
    assert len(nodes) == 1
    return nodes.popitem()[1][1] + ";"


def kingman_tail(m):
    """(E[T_MRCA], E[L]) of a Kingman tree on m lineages, as Fractions; zero at m = 1."""
    return 2 - Fraction(2, m), 2 * sum(Fraction(1, k) for k in range(1, m))


def solve_exact(matrix, columns):
    """The solutions of matrix · x = column, one per column, by Gauss-Jordan elimination."""
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(col[r]) for col in columns] for r, row in enumerate(matrix)]
    for c in range(size):
        pivot = next(r for r in range(c, size) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(size):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [[row[size + m] for row in rows] for m in range(len(columns))]


def two_locus_moments(n, R):
    """E[T_a T_b], P(T_a = T_b) and E[L_a L_b] for two sites of an n-sample path, exactly.

    T and L are a site's tree height and total length; R is the
    recombination rate between the sites, rho times the density's mass
    between them. The chain's state (i, j, k) counts the lineages carrying
    both sites, only site a and only site b. Each pair coalesces at rate 1,
    and a both-site lineage splits at rate R/2 (Griffiths 1981, Theor Pop
    Biol 19:169). Each site alone is a Kingman tree on its i + j or i + k
    lineages, so E[T_a] and E[L_a] from any state are closed forms, and
    once a site has one lineage the other finishes alone. The moments then
    solve linear equations over the states where both sites have two
    lineages or more: for additive functionals A and B with rewards a and
    b, E[AB] = (a E[B] + b E[A]) / q + E[A'B'] after the state's first
    jump, q being its total rate.
    """
    R = Fraction(R)
    states = [(i, j, k) for i in range(n + 1) for j in range(n + 1 - i) for k in range(n + 1 - i)
              if i + j >= 2 and i + k >= 2]
    index = {x: r for r, x in enumerate(states)}
    matrix = [[0] * len(states) for _ in states]
    tt, same, ll = [], [], []
    for r, (i, j, k) in enumerate(states):
        moves = [
            (i * R / 2, (i - 1, j + 1, k + 1)),  # a both-site lineage splits
            (i * (i - 1) // 2, (i - 1, j, k)),
            (i * j + j * (j - 1) // 2, (i, j - 1, k)),  # site a loses a lineage
            (i * k + k * (k - 1) // 2, (i, j, k - 1)),  # site b loses a lineage
            (j * k, (i + 1, j - 1, k - 1)),  # a site-a and a site-b lineage join
        ]
        hit = 0  # the rate of reaching both sites' last lineage at once
        for rate, y in moves:
            if not rate:
                continue
            matrix[r][r] += rate
            if y in index:
                matrix[r][index[y]] -= rate
            elif y[0] + y[1] == y[0] + y[2] == 1:
                hit += rate
        (ta, la), (tb, lb) = kingman_tail(i + j), kingman_tail(i + k)
        tt.append(ta + tb)
        same.append(hit)
        ll.append((i + j) * lb + (i + k) * la)
    ett, p_same, ell = solve_exact(matrix, [tt, same, ll])
    start = index[(n, 0, 0)]
    return ett[start], p_same[start], ell[start]


def pair_clade_size(merges):
    """|c|, c the smallest clade holding labels 1 and 2: the first merge whose union holds both."""
    return next((vi | vj).bit_count() for _, vi, vj in merges if (vi | vj) & 3 == 3)


def pair_clade_law(n):
    """{k: P(|c| = k)} for k = 2 .. n on a Kingman tree of n leaves, exactly.

    2/(3(n-1)) for 2 <= k <= n-1 and (n+1)/(3(n-1)) at k = n. The k = 2
    term is the chance that labels 1 and 2 form a cherry, from
    E[#cherries] = n/3 (McKenzie & Steel 2000, Math Biosci 164:81).
    """
    law = {k: Fraction(2, 3 * (n - 1)) for k in range(2, n)}
    law[n] = Fraction(n + 1, 3 * (n - 1))
    return law
