"""Ancestral-material states for the coalescent with recombination.

A state is a finite collection of lineages. Each lineage records, along the
unit sequence [0, 1), which sample labels it is ancestral to: a
right-continuous step function whose value at a locus is a (possibly empty)
set of labels. At every locus the nonempty values across the lineages of a
state partition the full label set {1, ..., n}, and no lineage is empty
everywhere. The process ends in the absorbing state: a single lineage
carrying {1, ..., n} at every locus.

Lineages within a state are kept in a canonical order: by the first locus
with nonempty value, ties broken by the smallest label carried there. Events
address lineages by their 0-based rank in that order.

Two events act on states:

* ``Coalesce(i, j)`` replaces lineages i and j by their pointwise union.
* ``Recombine(i, u)`` splits lineage i at locus u into its part below u and
  its part from u on. The locus must lie strictly inside the lineage's
  active interval; for the first-ranked lineage the interval only starts
  where its value stops being the full label set, so splits that would
  separate already-common ancestral material are illegal.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass


class IllegalEventError(ValueError):
    """Raised when an event violates the state-space rules."""


def full_set(n):
    return frozenset(range(1, n + 1))


def _canonical(segments):
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
        vals = [frozenset()]
    return tuple(breaks), tuple(vals)


class Lineage:
    """One lineage: a right-continuous step function on [0, 1).

    ``breaks`` are the interior jump loci (strictly increasing) and ``vals``
    the values on the successive segments, ``len(vals) == len(breaks) + 1``,
    with no two adjacent values equal. Values are frozensets of int labels.

    ``mass`` is left to the back-in-time engine: the recombination mass of
    the last active interval it weighed the lineage on (see total_rate).
    """

    __slots__ = ("breaks", "vals", "start", "start_min", "end", "mass")

    def __init__(self, breaks, vals):
        self.breaks = breaks
        self.vals = vals
        # first locus with nonempty value, and the smallest label there
        start = None
        for k, v in enumerate(vals):
            if v:
                start = breaks[k - 1] if k else 0.0
                self.start_min = min(v)
                break
        if start is None:
            self.start = None  # empty everywhere; never stored in a State
            self.start_min = None
        else:
            self.start = start
        # end of the support: past the last nonempty segment
        end = None
        for k in range(len(vals) - 1, -1, -1):
            if vals[k]:
                end = breaks[k] if k < len(breaks) else 1.0
                break
        self.end = end
        self.mass = None

    @classmethod
    def from_segments(cls, segments):
        breaks, vals = _canonical(segments)
        return cls(breaks, vals)

    @classmethod
    def constant(cls, labels):
        return cls((), (frozenset(labels),))

    @property
    def is_null(self):
        return self.start is None

    def value_at(self, u):
        return self.vals[bisect_right(self.breaks, u)]

    def segments(self):
        """Yield (lo, hi, value) over the canonical segments."""
        lo = 0.0
        for k, val in enumerate(self.vals):
            hi = self.breaks[k] if k < len(self.breaks) else 1.0
            yield lo, hi, val
            lo = hi

    def rank_key(self):
        return (self.start, self.start_min)

    def split(self, u):
        """Return the (below-u, from-u-on) parts as two Lineages.

        Either part may be null when u misses the support on that side.
        """
        empty = frozenset()
        below_segs = []
        above_segs = []
        for lo, hi, val in self.segments():
            if hi <= u:
                below_segs.append((lo, hi, val))
                above_segs.append((lo, hi, empty))
            elif lo >= u:
                below_segs.append((lo, hi, empty))
                above_segs.append((lo, hi, val))
            else:
                below_segs += [(lo, u, val), (u, hi, empty)]
                above_segs += [(lo, u, empty), (u, hi, val)]
        return Lineage.from_segments(below_segs), Lineage.from_segments(above_segs)

    def union(self, other):
        """Pointwise union with another lineage."""
        grid = sorted({*self.breaks, *other.breaks})
        segs = []
        lo = 0.0
        for hi in grid + [1.0]:
            segs.append((lo, hi, self.value_at(lo) | other.value_at(lo)))
            lo = hi
        return Lineage.from_segments(segs)

    def __eq__(self, other):
        return (
            isinstance(other, Lineage)
            and self.breaks == other.breaks
            and self.vals == other.vals
        )

    def __repr__(self):
        return "Lineage(%s)" % ", ".join(
            "[%g,%g)->{%s}" % (lo, hi, ",".join(map(str, sorted(val))))
            for lo, hi, val in self.segments()
        )


@dataclass(frozen=True)
class Coalesce:
    """Merge the lineages of ranks i < j (0-based)."""

    i: int
    j: int


@dataclass(frozen=True)
class Recombine:
    """Split the lineage of rank i (0-based) at locus u."""

    i: int
    locus: float


class State:
    """A ranked tuple of lineages over n sample labels; compared by value, never hashed."""

    __slots__ = ("n", "lineages", "_intervals")

    def __init__(self, n, lineages):
        self.n = n
        self.lineages = tuple(sorted(lineages, key=Lineage.rank_key))
        self._intervals = None

    @classmethod
    def _ranked(cls, n, lineages):
        """A state holding ``lineages``, already in rank order."""
        state = cls.__new__(cls)
        state.n = n
        state.lineages = tuple(lineages)
        state._intervals = None
        return state

    @classmethod
    def initial(cls, n):
        """The starting state: one constant singleton lineage per sample."""
        assert n >= 2
        return cls(n, [Lineage.constant((j,)) for j in range(1, n + 1)])

    @classmethod
    def absorbing(cls, n):
        return cls(n, [Lineage.constant(full_set(n))])

    def __len__(self):
        return len(self.lineages)

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self.n == other.n
            and self.lineages == other.lineages
        )

    @property
    def is_absorbed(self):
        return len(self.lineages) == 1

    def active_intervals(self):
        """Per-rank (b, e): the open interval where splitting is legal.

        For ranks >= 1 this is (support start, support end). The first rank
        is special: its interval only begins once its value differs from the
        full label set, so the shared ancestral prefix cannot be split off.
        Intervals with b >= e are empty and carry no recombination weight.
        """
        if self._intervals is None:
            full = full_set(self.n)
            out = []
            for rank, lin in enumerate(self.lineages):
                if rank == 0:
                    b = None
                    for lo, hi, val in lin.segments():
                        if val != full:
                            b = lo
                            break
                    if b is None:
                        b = 1.0
                else:
                    b = lin.start
                out.append((b, lin.end))
            self._intervals = tuple(out)
        return self._intervals

    def coalesce(self, i, j):
        k = len(self.lineages)
        if not (0 <= i < j < k):
            raise IllegalEventError("coalesce ranks out of range: (%r, %r) with %d lineages" % (i, j, k))
        merged = self.lineages[i].union(self.lineages[j])
        rest = list(self.lineages)
        del rest[j], rest[i]
        insort(rest, merged, key=Lineage.rank_key)
        return State._ranked(self.n, rest)

    def recombine(self, i, u):
        k = len(self.lineages)
        if not 0 <= i < k:
            raise IllegalEventError("recombine rank out of range: %r with %d lineages" % (i, k))
        if k == 1:
            raise IllegalEventError("cannot recombine the absorbing state")
        b, e = self.active_intervals()[i]
        if not (b < u < e):
            raise IllegalEventError(
                "locus %r outside the active interval (%r, %r) of rank %d" % (u, b, e, i)
            )
        below, above = self.lineages[i].split(u)
        assert not below.is_null and not above.is_null
        rest = list(self.lineages)
        del rest[i]
        insort(rest, below, key=Lineage.rank_key)
        insort(rest, above, key=Lineage.rank_key)
        return State._ranked(self.n, rest)

    def apply(self, event):
        if isinstance(event, Coalesce):
            return self.coalesce(event.i, event.j)
        if isinstance(event, Recombine):
            return self.recombine(event.i, event.locus)
        raise TypeError("not an event: %r" % (event,))

    def site_partition(self, s):
        """Blocks of the label partition at locus s, sorted by smallest label."""
        blocks = [lin.value_at(s) for lin in self.lineages]
        blocks = [b for b in blocks if b]
        blocks.sort(key=min)
        return tuple(blocks)

    def check(self):
        """Assert the structural invariants; returns self for chaining."""
        assert self.lineages, "state has no lineages"
        grid = sorted({b for lin in self.lineages for b in lin.breaks})
        for lo in [0.0] + grid:
            seen = set()
            for lin in self.lineages:
                val = lin.value_at(lo)
                assert not (val & seen), "overlapping labels at locus %r" % lo
                seen |= val
            assert seen == full_set(self.n), "labels at locus %r: %r" % (lo, seen)
        for lin in self.lineages:
            _check_lineage(lin)
        assert list(self.lineages) == sorted(self.lineages, key=Lineage.rank_key)
        if len(self.lineages) == 1:
            assert self.lineages[0] == Lineage.constant(full_set(self.n))
        return self

    def check_step(self, prev, event):
        """Assert that this state is ``prev.apply(event)`` and satisfies check().

        ``prev`` must already satisfy check(). The event must be legal in
        prev: its ranks in range and, for a recombination, its locus
        strictly inside the active interval, with one created part ending
        at or below the locus and the other starting at or above it. The
        lineages the event did not touch must be prev's own objects; they
        are valid by induction, so only the removed and created lineages
        are walked. The created ones must be canonical and carry exactly
        the removed material, and the ranks must be in order. Canonical
        forms and rank order are unique, so together these prove the state
        equals the replay without building it. This costs O(k + breaks of
        the removed and created lineages), where check() costs
        O(breaks of the whole state * k). Returns self for chaining.
        """
        assert self.n == prev.n, "sample count changed"
        k = len(prev.lineages)
        if isinstance(event, Coalesce):
            assert 0 <= event.i < event.j < k, "coalesce ranks out of range"
            gone, n_created = (event.i, event.j), 1
        else:
            assert 0 <= event.i < k, "recombine rank out of range"
            assert k > 1, "recombination of the absorbing state"
            b, e = prev.active_intervals()[event.i]
            assert b < event.locus < e, "locus outside the active interval"
            gone, n_created = (event.i,), 2
        kept = [lin for r, lin in enumerate(prev.lineages) if r not in gone]
        places = []  # ranks of the created lineages
        pos = 0
        for q, lin in enumerate(self.lineages):
            if pos < len(kept) and lin is kept[pos]:
                pos += 1
            else:
                places.append(q)
        assert pos == len(kept), "a lineage the event did not touch changed"
        created = [self.lineages[q] for q in places]
        assert len(created) == n_created, "event created %d lineages" % len(created)
        for lin in created:
            _check_lineage(lin)
        if n_created == 2:
            below, above = created
            assert below.end <= event.locus <= above.start, "split parts cross the locus"
        # Kept and removed lineages partition the labels at every locus
        # (prev is valid), so the new state does iff the created lineages
        # carry exactly the removed material, disjointly. Both sides are
        # constant between their breaks.
        removed = [prev.lineages[r] for r in gone]
        grid = {0.0}
        for lin in removed + created:
            grid.update(lin.breaks)
        for lo in sorted(grid):
            want = frozenset().union(*[lin.vals[bisect_right(lin.breaks, lo)] for lin in removed])
            seen = frozenset()
            for lin in created:
                val = lin.vals[bisect_right(lin.breaks, lo)]
                assert not (val & seen), "overlapping labels at locus %r" % lo
                seen |= val
            assert seen == want, "labels at locus %r: %r, expected %r" % (lo, seen, want)
        # the kept lineages are in prev's rank order, so the whole state is
        # in rank order iff each created lineage sits between its neighbours
        lins = self.lineages
        for q in places:
            key = lins[q].rank_key()
            assert (q == 0 or lins[q - 1].rank_key() <= key) and (
                q + 1 == len(lins) or key <= lins[q + 1].rank_key()
            ), "lineages out of rank order"
        if len(self.lineages) == 1:
            assert self.lineages[0] == Lineage.constant(full_set(self.n))
        return self


def _check_lineage(lin):
    """Assert that a stored lineage is non-null and canonical."""
    assert not lin.is_null, "null lineage stored"
    for a, b in zip(lin.vals, lin.vals[1:]):
        assert a != b, "uncanonical lineage: equal adjacent values"
    assert all(x < y for x, y in zip(lin.breaks, lin.breaks[1:]))


def render_typeset(val):
    return "{%s}" % ",".join(str(x) for x in sorted(val))


def render_lineage(lin):
    return "[%s]" % " | ".join(
        "%s,%s" % (fmt_locus(lo), render_typeset(val)) for lo, hi, val in lin.segments()
    )


def render_state(state):
    """Canonical text form: bracketed lineages in rank order, start locus per segment."""
    return " ".join(render_lineage(lin) for lin in state.lineages)


def fmt_locus(x):
    return "%.17g" % x

