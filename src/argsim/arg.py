"""The shared ancestral-recombination-graph data model.

An Arg is the full event-log path of one simulation: the initial
singleton state, then a strictly increasing sequence of event times with
the event applied at each and the state reached after it. Both engines
produce this shape; everything downstream (validation, local trees,
summary statistics, serialization) consumes it.

Post-event states are stored alongside events so validation and tree
extraction are single passes. The serialized form is events-only; loading
replays the events and verifies a checksum of the final state.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import dataclass, field

from .state import (
    Coalesce,
    IllegalEventError,
    Recombine,
    State,
    Lineage,
    fmt_locus,
    full_set,
    render_state,
)

FORMAT_VERSION = 1


class ArgParseError(ValueError):
    """A serialized event log could not be parsed or replayed."""


class Arg:
    """One complete simulated path, from singletons to full coalescence."""

    __slots__ = ("config", "times", "events", "states", "initial")

    def __init__(self, config, times, events, states):
        self.config = config
        self.times = tuple(times)
        self.events = tuple(events)
        self.states = tuple(states)
        self.initial = State.initial(config.n_samples)
        assert len(self.times) == len(self.events) == len(self.states)

    @property
    def n_samples(self):
        return self.config.n_samples

    @property
    def event_count(self):
        return len(self.events)

    @property
    def final_state(self):
        return self.states[-1] if self.states else self.initial

    @property
    def grand_mrca(self):
        """Time the whole path is absorbed (the last event time)."""
        return self.times[-1]

    def state_at(self, t):
        """State of the right-continuous path at time t."""
        idx = bisect_right(self.times, t)
        return self.states[idx - 1] if idx else self.initial

    def state_before(self, index):
        return self.states[index - 1] if index else self.initial


@dataclass
class ValidationReport:
    passed: bool
    violations: list

    def render(self):
        if self.passed:
            return "valid: all clauses hold"
        lines = ["INVALID (%d violation%s):" % (len(self.violations), "s" if len(self.violations) != 1 else "")]
        for index, clause, message in self.violations:
            where = "event %d" % index if index is not None else "path"
            lines.append("  clause (%s) at %s: %s" % (clause, where, message))
        return "\n".join(lines)


def validate_arg(arg):
    """Replay the event log and check every path-membership clause.

    (a) starts from the singleton state; (b) each transition is a legal
    coalescence/recombination reaching the recorded state, with the label
    partition holding at every locus; (c) recombination loci are pairwise
    distinct; (d) the path ends absorbed; (e) times strictly increase.

    Once per path, the start state gets the full State.check(). Per event,
    the replayed state is compared with the recorded one and gets
    State.check_step(), which walks only the lineages the event removed and
    created: by induction from the checked start it asserts what check()
    asserts. check() runs again on the first state replayed after a
    resynchronization to a recorded state (whose invariants were never
    established), and on any state whose step check fails, so every
    invariant message comes from check().
    """
    violations = []
    if arg.initial != State.initial(arg.n_samples):
        violations.append((None, "a", "initial state is not the singleton state"))
    state = arg.initial
    try:
        state.check()
        checked = True  # whether `state` is known to satisfy check()
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
            state, checked = recorded, False  # resynchronize to keep reporting useful
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


def breakpoints(arg):
    """Sorted recombination loci with their (unique) appearance times."""
    pairs = sorted(
        (ev.locus, t) for t, ev in zip(arg.times, arg.events) if isinstance(ev, Recombine)
    )
    loci = tuple(locus for locus, _ in pairs)
    times = tuple(t for _, t in pairs)
    return loci, times


def material_vectors(arg, t):
    """Per-lineage tuples of values at the breakpoint order statistics.

    Columns sit at locus 0 and at every breakpoint of the whole path; the
    state at time t maps each lineage to its column values. Together with
    the column loci this loses no information (see state_from_material).
    """
    loci, _ = breakpoints(arg)
    columns = (0.0,) + loci
    state = arg.state_at(t)
    vectors = [tuple(lin.value_at(s) for s in columns) for lin in state.lineages]
    return columns, vectors


def state_from_material(n, columns, vectors):
    """Rebuild a State from column loci and per-lineage column values."""
    bounds = list(columns) + [1.0]
    lineages = []
    for vec in vectors:
        segs = [(bounds[l], bounds[l + 1], vec[l]) for l in range(len(vec))]
        lin = Lineage.from_segments(segs)
        if not lin.is_null:
            lineages.append(lin)
    return State(n, lineages)


@dataclass
class LocalTree:
    """The coalescent tree at one site, as its partition jump chain."""

    site: float
    levels: tuple  # ((time, partition-as-tuple-of-blocks), ...)
    height: float
    total_length: float

    def newick(self):
        """Newick string; children ordered smallest leaf label first."""
        nodes = {}
        for block in self.levels[0][1]:
            (leaf,) = block
            nodes[block] = (0.0, str(leaf))
        root = None
        for time, partition in self.levels[1:]:
            merged = [b for b in partition if b not in nodes]
            assert len(merged) == 1, "levels must merge exactly one pair"
            target = merged[0]
            children = sorted((b for b in nodes if b <= target), key=min)
            assert len(children) == 2, "binary merges only"
            parts = []
            for child in children:
                h, text = nodes.pop(child)
                parts.append("%s:%r" % (text, time - h))
            nodes[target] = (time, "(%s)" % ",".join(parts))
            root = target
        assert len(nodes) == 1 and root is not None
        return nodes[root][1] + ";"


def local_tree(arg, s):
    """Extract the site-s tree: partition levels up to its first full merge."""
    state = arg.initial
    part = state.site_partition(s)
    levels = [(0.0, part)]
    height = None
    total_length = 0.0
    prev_t = 0.0
    for t, event, after in zip(arg.times, arg.events, arg.states):
        new_part = after.site_partition(s)
        if new_part != part:
            assert len(new_part) == len(part) - 1, "site partitions merge one pair at a time"
            total_length += len(part) * (t - prev_t)
            prev_t = t
            part = new_part
            levels.append((t, part))
            if len(part) == 1:
                height = t
                break
    assert height is not None, "a complete path always merges every site"
    return LocalTree(site=s, levels=tuple(levels), height=height, total_length=total_length)


@dataclass
class ProjectedPath:
    """The path seen through material left of a site (frozen from it on)."""

    site: float
    initial: State
    steps: tuple  # ((time, state), ...)

    @property
    def jump_count(self):
        return len(self.steps)

    def state_at(self, t):
        times = [time for time, _ in self.steps]
        idx = bisect_right(times, t)
        return self.steps[idx - 1][1] if idx else self.initial


def project_arg(arg, s):
    """Project every state at site s and compress repeated values."""
    prev = arg.initial.project(s)
    steps = []
    for t, state in zip(arg.times, arg.states):
        projected = state.project(s)
        if projected != prev:
            steps.append((t, projected))
            prev = projected
    return ProjectedPath(site=s, initial=arg.initial.project(s), steps=tuple(steps))


@dataclass
class SummaryStats:
    """Per-replicate scalars consumed by the statistical harness."""

    replicate: int
    breakpoint_count: int
    event_count: int
    grand_mrca: float
    max_lineages: int
    tmrca_at: dict = field(default_factory=dict)
    length_at: dict = field(default_factory=dict)


def summary(arg, sites=(0.0,)):
    """Extract the scalar statistics of one path at the requested sites."""
    n = arg.n_samples
    bp = 0
    max_lineages = len(arg.initial)
    # site-tree height and length via the block count at each site
    live = {s: n for s in sites}
    height = {s: None for s in sites}
    length = {s: 0.0 for s in sites}
    prev_t = 0.0
    state = arg.initial
    for t, event, after in zip(arg.times, arg.events, arg.states):
        dt = t - prev_t
        for s, k in live.items():
            if k > 1:
                length[s] += k * dt
        if isinstance(event, Recombine):
            bp += 1
        else:
            for s in sites:
                if live[s] > 1:
                    vi = state.lineages[event.i].value_at(s)
                    vj = state.lineages[event.j].value_at(s)
                    if vi and vj:
                        live[s] -= 1
                        if live[s] == 1:
                            height[s] = t
        prev_t = t
        state = after
        if len(state.lineages) > max_lineages:
            max_lineages = len(state.lineages)
    assert all(h is not None for h in height.values())
    return SummaryStats(
        replicate=arg.config.replicate_index,
        breakpoint_count=bp,
        event_count=arg.event_count,
        grand_mrca=arg.grand_mrca,
        max_lineages=max_lineages,
        tmrca_at={s: height[s] for s in sites},
        length_at={s: length[s] for s in sites},
    )


# --- serialization -----------------------------------------------------------
#
# One JSON object per line: a header, then events, then a trailer carrying
# the event count and a checksum of the canonical final-state rendering.
# Floats are printed with 17 significant digits so parsing is exact and
# re-serialization is byte-identical.


def _fmt_event(event):
    if isinstance(event, Coalesce):
        return '{"type":"coal","i":%d,"j":%d}' % (event.i, event.j)
    return '{"type":"rec","i":%d,"u":%s}' % (event.i, fmt_locus(event.locus))


def arg_to_lines(arg):
    cfg = arg.config
    yield (
        '{"format_version":%d,"n_samples":%d,"rho":%s,"density":"%s","seed":%d,"replicate":%d}'
        % (FORMAT_VERSION, cfg.n_samples, fmt_locus(cfg.rho), cfg.density.spec, cfg.seed, cfg.replicate_index)
    )
    for idx, (t, event) in enumerate(zip(arg.times, arg.events)):
        yield '{"n":%d,"t":%s,"ev":%s}' % (idx, fmt_locus(t), _fmt_event(event))
    digest = hashlib.sha256(render_state(arg.final_state).encode()).hexdigest()[:16]
    yield '{"events":%d,"checksum":"%s"}' % (arg.event_count, digest)


def write_arg(arg, fp):
    for line in arg_to_lines(arg):
        fp.write(line)
        fp.write("\n")


def _field(obj, key, kinds, lineno):
    """obj[key] when obj is a dict holding a value of one of ``kinds``.

    JSON booleans never count as numbers. Anything else is an
    ArgParseError naming the line.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise ArgParseError("line %d: missing %r" % (lineno, key))
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ArgParseError("line %d: %r must be %s, got %r" % (
            lineno, key, " or ".join(k.__name__ for k in kinds), value))
    return value


_HEADER_FIELDS = (
    ("n_samples", (int,)),
    ("rho", (int, float)),
    ("density", (str,)),
    ("seed", (int,)),
    ("replicate", (int,)),
)


def _header_config(header, lineno):
    from .config import SimConfig  # deferred: config pulls in the density registry

    n_samples, rho, density, seed, replicate = (
        _field(header, key, kinds, lineno) for key, kinds in _HEADER_FIELDS
    )
    try:
        return SimConfig(
            n_samples=n_samples, rho=rho, density=density, seed=seed, replicate_index=replicate
        )
    except ValueError as err:
        raise ArgParseError("line %d: bad header: %s" % (lineno, err)) from None


def _parse_event(obj, lineno):
    ev = obj["ev"]
    kind = _field(ev, "type", (str,), lineno)
    if kind == "coal":
        return Coalesce(_field(ev, "i", (int,), lineno), _field(ev, "j", (int,), lineno))
    if kind == "rec":
        return Recombine(_field(ev, "i", (int,), lineno), _field(ev, "u", (int, float), lineno))
    raise ArgParseError("line %d: unknown event type %r" % (lineno, kind))


def read_args(fp):
    """Parse a stream of one or more event logs (concatenated replicates).

    Any malformed or unreplayable content raises ArgParseError.
    """
    args = []
    config = None
    header_line = 0
    events = []
    times = []
    for lineno, raw in enumerate(fp, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            obj = json.loads(raw)
        except (ValueError, RecursionError) as err:
            raise ArgParseError("line %d: %s" % (lineno, err))
        if not isinstance(obj, dict):
            raise ArgParseError("line %d: not a JSON object" % lineno)
        if "format_version" in obj:
            if config is not None:
                raise ArgParseError(
                    "line %d: new header before the trailer of the log at line %d" % (lineno, header_line)
                )
            if obj["format_version"] != FORMAT_VERSION:
                raise ArgParseError(
                    "line %d: unsupported format_version %r" % (lineno, obj["format_version"])
                )
            config, header_line = _header_config(obj, lineno), lineno
            events, times = [], []
        elif config is None:
            raise ArgParseError("line %d: content before any header" % lineno)
        elif "ev" in obj:
            event = _parse_event(obj, lineno)
            if _field(obj, "n", (int,), lineno) != len(events):
                raise ArgParseError("line %d: event index %r out of order" % (lineno, obj["n"]))
            times.append(_field(obj, "t", (int, float), lineno))
            events.append(event)
        else:
            args.append(_finish_log(lineno, obj, config, times, events))
            config = None
    if config is not None:
        raise ArgParseError("truncated log: header at line %d has no trailer" % header_line)
    if not args:
        raise ArgParseError("empty stream: no event logs found")
    return args


def _finish_log(lineno, trailer, config, times, events):
    if trailer.get("events") != len(events):
        raise ArgParseError(
            "line %d: trailer count %r != %d events read" % (lineno, trailer.get("events"), len(events))
        )
    state = State.initial(config.n_samples)
    states = []
    for idx, event in enumerate(events):
        try:
            state = state.apply(event)
        except IllegalEventError as err:
            raise ArgParseError("event %d cannot be replayed: %s" % (idx, err))
        states.append(state)
    final = states[-1] if states else state
    digest = hashlib.sha256(render_state(final).encode()).hexdigest()[:16]
    if trailer.get("checksum") != digest:
        raise ArgParseError(
            "line %d: checksum mismatch (log %r, replay %r)" % (lineno, trailer.get("checksum"), digest)
        )
    return Arg(config, times, events, states)


def read_arg(fp):
    """Parse a stream expected to hold exactly one event log."""
    args = read_args(fp)
    if len(args) != 1:
        raise ArgParseError("expected one event log, found %d" % len(args))
    return args[0]
