"""The shared ancestral-recombination-graph data model.

An Arg is the full event-log path of one simulation: the initial
singleton state, then a strictly increasing sequence of event times with
the event applied at each and the state reached after it. Both engines
produce this shape; everything downstream (validation, local trees,
summary statistics, serialization) consumes it.

Post-event states are stored alongside events so validation and tree
extraction are single passes. Validation checks each recorded step
against its event without redoing it (State.check_step). The serialized
form is events-only; loading replays the events once and verifies a
checksum of the final state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .state import (
    Coalesce,
    IllegalEventError,
    Recombine,
    State,
    fmt_locus,
    render_state,
)

FORMAT_VERSION = 1


class ArgParseError(ValueError):
    """A serialized event log could not be parsed or replayed."""


class Arg:
    """One complete simulated path, from singletons to full coalescence."""

    __slots__ = ("config", "times", "events", "states", "initial")

    def __init__(self, config, times, events, states, initial=None):
        self.config = config
        self.times = tuple(times)
        self.events = tuple(events)
        self.states = tuple(states)
        # the state the first event applies to; its producer passes the
        # very object, so validation can match untouched lineages by identity
        self.initial = State.initial(config.n_samples) if initial is None else initial
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
    """Check every path-membership clause of the event log.

    (a) starts from the singleton state; (b) each transition is a legal
    coalescence/recombination reaching the recorded state, with the label
    partition holding at every locus; (c) recombination loci are pairwise
    distinct; (d) the path ends absorbed; (e) times strictly increase.

    Once per path, the start state gets the full State.check(). Per event,
    the recorded state gets State.check_step() against the recorded state
    before it: the event is legal there, and only the lineages it removed
    and created are walked. By induction from the checked start this
    proves the recorded state is the replay and satisfies check(), so a
    good step is never redone. A step whose check fails is diagnosed by
    replaying it: the replay names an illegal event or a diverging state,
    and otherwise the full check() names the broken invariant. check()
    also runs on the first state replayed after a resynchronization to a
    recorded state (whose invariants were never established), so every
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
        if checked:
            try:
                state = recorded.check_step(prev, event)
                continue
            except AssertionError:
                pass
        state = recorded  # resynchronize to keep reporting useful
        try:
            replay = prev.apply(event)
        except IllegalEventError as err:
            violations.append((idx, "b", str(err)))
            checked = False
            continue
        if replay != recorded:
            violations.append((idx, "b", "recorded state diverges from replay"))
            checked = False
            continue
        if checked:
            try:
                replay.check_step(prev, event)
                continue  # the recorded state equals the checked replay
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
class SummaryStats:
    """Per-replicate scalars consumed by the statistical harness.

    There is no event count: every path has n - 1 + 2 * breakpoint_count
    events (Arg.event_count), so it carries nothing the breakpoints do not.
    """

    replicate: int
    breakpoint_count: int
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


def _field(obj, key, kinds, where):
    """obj[key] when obj is a dict holding a value of one of ``kinds``.

    JSON booleans never count as numbers. Anything else is an
    ArgParseError whose message starts with ``where`` (say, "line 3").
    """
    if not isinstance(obj, dict) or key not in obj:
        raise ArgParseError("%s: missing %r" % (where, key))
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ArgParseError("%s: %r must be %s, got %r" % (
            where, key, " or ".join(k.__name__ for k in kinds), value))
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
        _field(header, key, kinds, "line %d" % lineno) for key, kinds in _HEADER_FIELDS
    )
    try:
        return SimConfig(
            n_samples=n_samples, rho=rho, density=density, seed=seed, replicate_index=replicate
        )
    except ValueError as err:
        raise ArgParseError("line %d: bad header: %s" % (lineno, err)) from None


def _parse_event(obj, where):
    ev = obj["ev"]
    kind = _field(ev, "type", (str,), where)
    if kind == "coal":
        return Coalesce(_field(ev, "i", (int,), where), _field(ev, "j", (int,), where))
    if kind == "rec":
        return Recombine(_field(ev, "i", (int,), where), _field(ev, "u", (int, float), where))
    raise ArgParseError("%s: unknown event type %r" % (where, kind))


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
            where = "line %d" % lineno
            event = _parse_event(obj, where)
            if _field(obj, "n", (int,), where) != len(events):
                raise ArgParseError("%s: event index %r out of order" % (where, obj["n"]))
            times.append(_field(obj, "t", (int, float), where))
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
    initial = state = State.initial(config.n_samples)
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
    return Arg(config, times, events, states, initial)


def read_arg(fp):
    """Parse a stream expected to hold exactly one event log."""
    args = read_args(fp)
    if len(args) != 1:
        raise ArgParseError("expected one event log, found %d" % len(args))
    return args[0]
