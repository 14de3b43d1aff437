"""The shared ancestral-recombination-graph data model.

An Arg is the full event-log path of one simulation: a strictly
increasing sequence of event times, the event applied at each, and the
state its producer reached at the end. The events name the path: every
state along it is derived by replaying them from the singleton state on
one list of lineages with state.advance, the one legality rule. Both
engines produce this shape; everything downstream (validation, local
trees, summary statistics, serialization) consumes it.

validate_arg checks engine output by one such replay, and its end must be
the producer's final state. The serialized form is events-only, and the
trailer's checksum reads the final state. Reading a stream is lazy: each
event is replayed as its line is parsed, the replay's end is checked
against the trailer's checksum and becomes the log's final state, and the
logs are yielded one at a time, so a reader that drops each log holds one
replicate. An event line in the form arg_to_lines writes is read by one
compiled match (_canonical_event). Headers, trailers, any other line and
any event whose replay fails go through the JSON route (_decode and
_field), the one place a line is diagnosed.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import re
from dataclasses import dataclass, field
from itertools import accumulate

from . import config
from .state import (
    Coalesce,
    IllegalEventError,
    Recombine,
    State,
    advance,
    fmt_locus,
    full_set,
    render_state,
)

FORMAT_VERSION = 1


class ArgParseError(ValueError):
    """A serialized event log could not be parsed or replayed."""


class Arg:
    """One complete simulated path, from singletons to full coalescence.

    ``final_state`` is the state its producer reached: backintime's last
    state, the spatial root's material, or the reader's replay.
    """

    # __weakref__ lets a caller see which replicates are still alive
    __slots__ = ("config", "times", "events", "final_state", "__weakref__")

    def __init__(self, config, times, events, final_state):
        self.config = config
        self.times = tuple(times)
        self.events = tuple(events)
        self.final_state = final_state

    @property
    def n_samples(self):
        return self.config.n_samples

    @property
    def event_count(self):
        return len(self.events)

    @property
    def grand_mrca(self):
        """Time the whole path is absorbed (the last event time)."""
        return self.times[-1]


@dataclass
class ValidationReport:
    violations: list

    @property
    def passed(self):
        return not self.violations

    def render(self):
        if self.passed:
            return "valid: all clauses hold"
        lines = ["INVALID (%d violation%s):" % (len(self.violations), "s" if len(self.violations) != 1 else "")]
        for index, clause, message in self.violations:
            where = "event %d" % index if index is not None else "path"
            lines.append("  clause (%s) at %s: %s" % (clause, where, message))
        return "\n".join(lines)


def validate_replayed(arg):
    """validate_arg's clauses (c), (d) and (e), which read only times, loci and the end.

    They are the whole check of a path whose final state is the replay of
    its events, as read_args builds it.
    """
    violations = []
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
    if not arg.final_state.is_absorbed:
        violations.append((None, "d", "path does not end in the absorbing state"))
    elif arg.final_state != State.absorbing(arg.n_samples):
        violations.append((None, "d", "final state is not the full-label lineage"))
    return ValidationReport(violations)


def validate_arg(arg):
    """Check every path-membership clause of the event log.

    (a) starts from the singleton state; (b) each transition is a legal
    coalescence/recombination, and the events reach the recorded final
    state; (c) recombination loci are pairwise distinct; (d) the path ends
    absorbed; (e) times strictly increase. (a) holds by construction: no
    Arg holds a start state. Violations come in path order: per event (e),
    (c), (b), then (d), then a final state the replay does not reach.

    One replay of the events from State.initial(n), advancing one list of
    lineages, checks (b): the first illegal event is the violation, and the
    replay ends there. Clauses (c) to (e) are validate_replayed's, with (d)
    read at the replay's end. A complete replay must end at arg.final_state;
    at the end of a spatial path that is where the branch material meets
    the events.
    """
    n = arg.n_samples
    lineages, full = list(State.initial(n).lineages), full_set(n)
    steps = []  # clause (b)
    for idx, event in enumerate(arg.events):
        try:
            advance(lineages, full, event)
        except IllegalEventError as err:
            steps.append((idx, "b", str(err)))
            break
    state = State._ranked(n, lineages)
    if not steps and state != arg.final_state:
        steps.append((None, "b", "final state diverges from replay"))
    replayed = validate_replayed(Arg(arg.config, arg.times, arg.events, state))
    return ValidationReport(list(heapq.merge(replayed.violations, steps,
                                             key=lambda v: math.inf if v[0] is None else v[0])))


def breakpoints(arg):
    """Sorted recombination loci with their (unique) appearance times."""
    pairs = sorted(
        (ev.locus, t) for t, ev in zip(arg.times, arg.events) if isinstance(ev, Recombine)
    )
    loci = tuple(locus for locus, _ in pairs)
    times = tuple(t for _, t in pairs)
    return loci, times


def _site_trees(arg, sites):
    """Replay the path once for the trees at the given sites.

    Returns ({s: merges}, {s: length}): the merges ((t, vi, vj), ...) of
    the two blocks at s (label bitmasks) of each coalescence whose
    lineages both carry material there, up to the one that leaves a
    single block, and the tree's total length: the sum over the walk of
    the block count times each inter-event time, added per event. The
    replay advances one list of lineages (see state.advance), and a
    coalescence's blocks are read at ranks i and j before it. It stops
    once every site is down to one block.
    """
    n = arg.n_samples
    lineages, full = list(State.initial(n).lineages), full_set(n)
    merges = {s: [] for s in sites}
    lengths = dict.fromkeys(sites, 0.0)
    blocks = dict.fromkeys(sites, n)  # the block count of each site not yet merged
    prev_t = 0.0
    for t, event in zip(arg.times, arg.events):
        for s, k in blocks.items():
            lengths[s] += k * (t - prev_t)
        prev_t = t
        if isinstance(event, Coalesce):
            a, b = lineages[event.i], lineages[event.j]
            for s in list(blocks):
                vi, vj = a.value_at(s), b.value_at(s)
                if vi and vj:
                    merges[s].append((t, vi, vj))
                    blocks[s] -= 1
                    if blocks[s] == 1:
                        del blocks[s]
            if not blocks:
                break
        advance(lineages, full, event)
    assert not blocks, "a complete path always merges every site"
    return merges, lengths


@dataclass
class LocalTree:
    """The coalescent tree at one site, as its merges in time order."""

    merges: tuple  # ((time, block, block), ...): the label bitmasks each coalescence joins

    @property
    def levels(self):
        """The partition after each merge: ((time, blocks sorted by smallest label), ...)."""
        part = tuple(1 << j for j in range(len(self.merges) + 1))
        levels = [(0.0, part)]
        for t, vi, vj in self.merges:
            part = tuple(sorted([b for b in part if b != vi and b != vj] + [vi | vj], key=_lowest_bit))
            levels.append((t, part))
        return tuple(levels)

    def newick(self):
        """Newick string; children ordered smallest leaf label first."""
        nodes = {1 << j: (0.0, str(j + 1)) for j in range(len(self.merges) + 1)}
        for t, vi, vj in self.merges:
            children = (nodes.pop(b) for b in sorted((vi, vj), key=_lowest_bit))
            text = "(%s)" % ",".join("%s:%r" % (label, t - h) for h, label in children)
            nodes[vi | vj] = (t, text)
        return text + ";"


def _lowest_bit(mask):
    """Sort key of a label bitmask: disjoint masks sort by their smallest label."""
    return mask & -mask


def local_tree(arg, s):
    """The tree at site s."""
    return LocalTree(tuple(_site_trees(arg, (s,))[0][s]))


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
    merges, lengths = _site_trees(arg, sites)
    # a recombination adds a lineage and a coalescence removes one
    counts = accumulate((1 if isinstance(event, Recombine) else -1 for event in arg.events), initial=n)
    return SummaryStats(
        replicate=arg.config.replicate_index,
        breakpoint_count=(arg.event_count - n + len(arg.final_state.lineages)) // 2,
        grand_mrca=arg.grand_mrca,
        max_lineages=max(counts),
        tmrca_at={s: merged[-1][0] for s, merged in merges.items()},
        length_at=lengths,
    )


# --- serialization -----------------------------------------------------------
#
# One JSON object per line: a header, then events, then a trailer carrying
# the event count and a checksum of the canonical final-state rendering.
# Floats are printed with 17 significant digits so parsing is exact and
# re-serialization is byte-identical.


def _checksum(state):
    """The trailer's checksum of a log's final state."""
    return hashlib.sha256(render_state(state).encode()).hexdigest()[:16]


def arg_to_lines(arg):
    """The lines of one log, each ending in a newline.

    Each event line is one format, its floats printed as fmt_locus prints
    them (%.17g).
    """
    cfg = arg.config
    yield (
        '{"format_version":%d,"n_samples":%d,"rho":%.17g,"density":"%s","seed":%d,"replicate":%d}\n'
        % (FORMAT_VERSION, cfg.n_samples, cfg.rho, cfg.density.spec, cfg.seed, cfg.replicate_index)
    )
    for idx, (t, event) in enumerate(zip(arg.times, arg.events)):
        if isinstance(event, Coalesce):
            yield '{"n":%d,"t":%.17g,"ev":{"type":"coal","i":%d,"j":%d}}\n' % (idx, t, event.i, event.j)
        else:
            yield '{"n":%d,"t":%.17g,"ev":{"type":"rec","i":%d,"u":%.17g}}\n' % (idx, t, event.i, event.locus)
    yield '{"events":%d,"checksum":"%s"}\n' % (arg.event_count, _checksum(arg.final_state))


def write_arg(arg, fp):
    """Write one log to ``fp`` line by line: a log is never one string in memory."""
    fp.writelines(arg_to_lines(arg))


def _field(obj, key, kinds):
    """obj[key] when obj is a dict holding a value of one of ``kinds``.

    JSON booleans never count as numbers. A field that may be a float is
    returned as one: JSON integers are unbounded, and one past the float
    range is refused here, not left to overflow in later arithmetic.
    Anything else is an ArgParseError; the caller prefixes where it was
    (say, "line 3: ").
    """
    if not isinstance(obj, dict) or key not in obj:
        raise ArgParseError("missing %r" % key)
    value = obj[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ArgParseError("%r must be %s, got %r" % (key, " or ".join(k.__name__ for k in kinds), value))
    if float in kinds:
        try:
            return float(value)
        except OverflowError:
            raise ArgParseError("%r is an integer too large for a float" % key) from None
    return value


_HEADER_FIELDS = (
    ("n_samples", (int,)),
    ("rho", (int, float)),
    ("density", (str,)),
    ("seed", (int,)),
    ("replicate", (int,)),
)


def _header_config(header):
    n_samples, rho, density, seed, replicate = (_field(header, key, kinds) for key, kinds in _HEADER_FIELDS)
    # a path takes at least n - 1 events; refuse before State.initial(n) is built
    cap = config.DEFAULT_EVENT_CAP
    if n_samples - 1 > cap:
        raise ArgParseError("n_samples %d needs more events than the cap of %d" % (n_samples, cap))
    try:
        return config.SimConfig(
            n_samples=n_samples, rho=rho, density=density, seed=seed, replicate_index=replicate
        )
    except ValueError as err:
        raise ArgParseError("bad header: %s" % err) from None


def _parse_event(obj):
    ev = obj["ev"]
    kind = _field(ev, "type", (str,))
    if kind == "coal":
        return Coalesce(_field(ev, "i", (int,)), _field(ev, "j", (int,)))
    if kind == "rec":
        return Recombine(_field(ev, "i", (int,)), _field(ev, "u", (int, float)))
    raise ArgParseError("unknown event type %r" % kind)


def read_args(fp):
    """Iterate over the event logs of a stream (concatenated replicates).

    Lazy: each Arg is built when its trailer is read and is yielded before
    the next log is parsed, so memory holds the logs the caller keeps, not
    the whole stream. Any malformed or unreplayable content raises
    ArgParseError when the iteration reaches it, after the logs before it
    have been yielded; a caller that must not act on part of a stream
    buffers its output until the iteration ends.
    """
    return _iter_logs(fp)


def _iter_logs(fp):
    found = False
    cfg = None
    header_line = 0
    for lineno, raw in enumerate(fp, start=1):
        raw = raw.strip()
        if not raw:
            continue
        step = cfg is not None and _canonical_event(raw, len(events))
        if step:
            try:
                advance(lineages, full, step[1])
            except IllegalEventError:
                pass  # the list is untouched: the JSON route below names the error
            else:
                times.append(step[0])
                events.append(step[1])
                continue
        try:
            obj = _decode(raw)
            if "format_version" in obj:
                if cfg is not None:
                    raise ArgParseError("new header before the trailer of the log at line %d" % header_line)
                version = _field(obj, "format_version", (int,))
                if version != FORMAT_VERSION:
                    raise ArgParseError("unsupported format_version %r" % version)
                cfg, header_line = _header_config(obj), lineno
                lineages, full = list(State.initial(cfg.n_samples).lineages), full_set(cfg.n_samples)
                times, events = [], []
                continue
            if cfg is None:
                raise ArgParseError("content before any header")
            if "ev" in obj:
                event = _parse_event(obj)
                if _field(obj, "n", (int,)) != len(events):
                    raise ArgParseError("event index %r out of order" % obj["n"])
                times.append(_field(obj, "t", (int, float)))
                try:
                    advance(lineages, full, event)
                except IllegalEventError as err:
                    raise ArgParseError("event %d cannot be replayed: %s" % (len(events), err)) from None
                events.append(event)
                continue
            state = State._ranked(cfg.n_samples, lineages)
            _check_trailer(obj, len(events), state)
        except ArgParseError as err:
            raise ArgParseError("line %d: %s" % (lineno, err)) from None
        found = True
        yield Arg(cfg, times, events, state)
        cfg = None
    if cfg is not None:
        raise ArgParseError("truncated log: header at line %d has no trailer" % header_line)
    if not found:
        raise ArgParseError("empty stream: no event logs found")


def _canonical_event(raw, count):
    """(t, event) of an event line as arg_to_lines writes it, else None.

    One match reads the line. None is every line the match cannot vouch
    for: another layout, a JSON integer (the JSON route reads -0 as 0.0),
    an index other than ``count`` or a non-finite time. The JSON route
    then reads or refuses it, as it does an event whose replay fails (a
    non-finite locus among them), so it stays the one place a line is
    diagnosed.
    """
    match = _event_match(raw)
    if match is None:
        return None
    n, t, i, j, r, u = match.groups()
    t = float(t)
    if int(n) != count or not math.isfinite(t):
        return None
    if i is not None:
        return t, Coalesce(int(i), int(j))
    return t, Recombine(int(r), float(u))


def _event_match(raw):
    """The full match of ``raw`` against the event line arg_to_lines writes.

    The pattern is compiled on the first call, which rebinds this global
    to its fullmatch, as density binds scipy: start-up does not pay for it.
    A number must be a JSON float (a fraction or an exponent); digits are
    ASCII only, as in JSON.
    """
    global _event_match
    index = r"(0|[1-9][0-9]{0,17})"
    number = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
    _event_match = re.compile(
        r'\{"n":%s,"t":%s,"ev":\{"type":"(?:coal","i":%s,"j":%s|rec","i":%s,"u":%s)\}\}'
        % (index, number, index, index, index, number)
    ).fullmatch
    return _event_match(raw)


def _finite(text):
    """A JSON number or constant (NaN, Infinity) as a float, if finite.

    1e400 is valid JSON that reads as inf, and a log holding it would be
    written back as text no reader takes.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite number %s" % text)
    return value


# one decoder for every line: json.loads with hooks would build one per call
_DECODER = json.JSONDecoder(parse_float=_finite, parse_constant=_finite)


def _decode(raw):
    """One line as a JSON object, else an ArgParseError."""
    try:
        obj = _DECODER.decode(raw)
    except (ValueError, RecursionError) as err:
        raise ArgParseError(str(err)) from None
    if not isinstance(obj, dict):
        raise ArgParseError("not a JSON object")
    return obj


def _check_trailer(trailer, count, final):
    events = _field(trailer, "events", (int,))
    if events != count:
        raise ArgParseError("trailer count %d != %d events read" % (events, count))
    digest = _checksum(final)
    if trailer.get("checksum") != digest:
        raise ArgParseError("checksum mismatch (log %r, replay %r)" % (trailer.get("checksum"), digest))


def read_arg(fp):
    """Parse a stream expected to hold exactly one event log."""
    args = list(read_args(fp))
    if len(args) != 1:
        raise ArgParseError("expected one event log, found %d" % len(args))
    return args[0]
