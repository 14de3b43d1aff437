"""Ancestral-material states for the coalescent with recombination.

A state is a finite collection of lineages. Each lineage records, along the
unit sequence [0, 1), which sample labels it is ancestral to: a
right-continuous step function whose value at a locus is a label set, held
as an int bitmask (bit j - 1 for label j; 0 is empty). At every locus the
nonzero values across the lineages of a state partition {1, ..., n}, and
no lineage is empty everywhere. The process ends in the absorbing state: a
single lineage carrying {1, ..., n} at every locus.

Lineages within a state are kept in a canonical order: by the first locus
with nonempty value, ties broken by the smallest label carried there. Events
address lineages by their 0-based rank in that order. Every constructor in
the package builds only canonical lineages (see Lineage), whose rank keys
and active intervals are read off their ends; check asserts a lineage
canonical before it reads any derived field of it.

Two events act on states:

* ``Coalesce(i, j)`` replaces lineages i and j by their pointwise union.
* ``Recombine(i, u)`` splits lineage i at locus u into its part below u and
  its part from u on. The locus must lie strictly inside the lineage's
  active interval; for the first-ranked lineage the interval only starts
  where its value stops being the full label set, so splits that would
  separate already-common ancestral material are illegal.

advance applies an event in place to a rank-ordered list of lineages. It
holds the legality rule and the rank lemma, and every replay takes each
event through it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass


class IllegalEventError(ValueError):
    """Raised when an event violates the state-space rules."""


def full_set(n):
    return (1 << n) - 1


class Lineage:
    """One lineage: a right-continuous step function on [0, 1).

    ``breaks`` are the interior jump loci (strictly increasing) and ``vals``
    the values on the successive segments, ``len(vals) == len(breaks) + 1``.
    Values are label bitmasks (ints). Canonical: no two adjacent values are
    equal, and the one null form is ``vals == (0,)``. ``start``, ``start_min``
    and ``end`` are read off the two values at each end, so they are defined
    only for canonical lineages. union, split, constant, extended (the
    spatial splice's revalued material) and the splice's carried material
    build only canonical lineages.

    A lineage carries no engine field: the back-in-time engine keeps its
    recombination weights per rank, beside the state (see
    simulate_backintime).
    """

    __slots__ = ("breaks", "vals", "start", "start_min", "end")

    def __init__(self, breaks, vals):
        self.breaks = breaks
        self.vals = vals
        if vals == (0,):  # empty everywhere; never stored in a State
            self.start = self.start_min = self.end = None
            return
        first = vals[0] or vals[1]
        self.start = 0.0 if vals[0] else breaks[0]
        self.start_min = (first & -first).bit_length()
        self.end = 1.0 if vals[-1] else breaks[-1]

    @classmethod
    def constant(cls, mask):
        return cls((), (mask,))

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

    def extended(self, u, val):
        """This lineage with value ``val`` from u on: u lies past its last break, val != vals[-1].

        The start and its smallest label stay as they are, so only the end
        is read off the new last value.
        """
        lin = Lineage.__new__(Lineage)
        lin.breaks = self.breaks + (u,)
        lin.vals = self.vals + (val,)
        lin.start = self.start
        lin.start_min = self.start_min
        lin.end = 1.0 if val else u
        return lin

    def split(self, u):
        """Return the (below-u, from-u-on) parts as two Lineages, 0 < u < 1.

        Either part may be null when u misses the support on that side. A
        part gets a break at u only where its cut side is nonempty there.
        """
        breaks, vals = self.breaks, self.vals
        k = bisect_right(breaks, u)  # vals[k] holds at u
        j = k - 1 if k and breaks[k - 1] == u else k  # vals[j] holds just below u
        if vals[j]:
            below = Lineage(breaks[:j] + (u,), vals[:j + 1] + (0,))
        else:
            below = Lineage(breaks[:j], vals[:j + 1])
        if vals[k]:
            above = Lineage((u,) + breaks[k:], (0,) + vals[k:])
        else:
            above = Lineage(breaks[k:], vals[k:])
        return below, above

    def union(self, other):
        """Pointwise union with another lineage.

        When the support of one, x, ends where or before that of the
        other, y, starts, the union is their tuples joined, with no merge:
        across a gap, x's breaks then y's, and x's values then y's past
        its leading 0. Where they touch, the break they share is kept
        once, and dropped with y's first value when that equals x's last
        nonzero value (the two parts of a split, merging again). Every
        other pair, a null lineage included, takes one merge of the two
        break tuples.
        """
        x, y = self, other
        if x.start is not None and y.start is not None:
            if y.end <= x.start:
                x, y = y, x
            if x.end <= y.start:
                xb, xv, yb, yv = x.breaks, x.vals, y.breaks, y.vals
                if x.end < y.start:
                    breaks, vals = xb + yb, xv + yv[1:]
                elif xv[-2] != yv[1]:
                    breaks, vals = xb + yb[1:], xv[:-1] + yv[1:]
                else:
                    breaks, vals = xb[:-1] + yb[1:], xv[:-1] + yv[2:]
                lin = Lineage.__new__(Lineage)
                lin.breaks = breaks
                lin.vals = vals
                lin.start = x.start
                lin.start_min = x.start_min
                lin.end = y.end
                return lin
        xb, xv = self.breaks + (1.0,), self.vals
        yb, yv = other.breaks + (1.0,), other.vals
        i = j = 0
        cur = xv[0] | yv[0]
        breaks, vals = [], [cur]
        while True:
            lo = xb[i]
            if lo < yb[j]:
                i += 1
            elif yb[j] < lo:
                lo = yb[j]
                j += 1
            elif lo == 1.0:
                return Lineage(tuple(breaks), tuple(vals))
            else:  # a break both lineages share
                i += 1
                j += 1
            val = xv[i] | yv[j]
            if val != cur:
                breaks.append(lo)
                vals.append(val)
                cur = val

    def __eq__(self, other):
        return (
            isinstance(other, Lineage)
            and self.breaks == other.breaks
            and self.vals == other.vals
        )

    def __repr__(self):
        return "Lineage(%s)" % ", ".join(
            "[%g,%g)->%s" % (lo, hi, render_typeset(val))
            for lo, hi, val in self.segments()
        )


# not frozen: a frozen one is costly to build, once per event and per read line
@dataclass(slots=True, unsafe_hash=True)
class Coalesce:
    """Merge the lineages of ranks i < j (0-based)."""

    i: int
    j: int


@dataclass(slots=True, unsafe_hash=True)
class Recombine:
    """Split the lineage of rank i (0-based) at locus u."""

    i: int
    locus: float


def active_interval(lineages, i, full):
    """(b, e) of rank i of a ranked ``lineages``: the open interval where splitting is legal.

    For ranks >= 1 this is (support start, support end). The first rank
    is special: its interval only begins once its value differs from
    ``full``, the full label set, so the shared ancestral prefix cannot be
    split off. This is the one place that rule lives; advance,
    State.active_intervals and the back-in-time engine read it as this
    module's global. An interval with b >= e is empty and carries no
    recombination weight.
    """
    lin = lineages[i]
    if i:
        return lin.start, lin.end
    # a canonical value that is the full set changes at the first break
    return (0.0 if lin.vals[0] != full else (lin.breaks or (1.0,))[0]), lin.end


def advance(lineages, full, event):
    """Apply ``event`` in place to the rank-ordered list ``lineages`` over the labels ``full``.

    The one legality rule and the one step of every replay. An illegal
    event raises IllegalEventError before the list changes, and a
    non-event raises TypeError before any of its attributes is read.
    Returns the rank p of a recombination's upper part, None for a
    coalescence.

    Rank lemma. Lineages rank by (start, smallest label at start).
    ``Coalesce(i, j)``: lineage i starts no later than j and at a tie
    carries the smaller label, so the union keeps i's rank key and rank,
    and j leaves the list. ``Recombine(i, u)``: u lies past i's start, so
    the part below u keeps i's rank key and rank i. The part from u on
    sits at some rank p > i, which one bisection over the rank keys past
    i finds, and every other lineage keeps its order. Rank keys are
    unique in a valid state, so this is a sort's order.
    """
    k = len(lineages)
    if isinstance(event, Coalesce):
        i, j = event.i, event.j
        if not (0 <= i < j < k):
            raise IllegalEventError("coalesce ranks out of range: (%r, %r) with %d lineages" % (i, j, k))
        lineages[i] = lineages[i].union(lineages.pop(j))
        return None
    if not isinstance(event, Recombine):
        raise TypeError("not an event: %r" % (event,))
    i, u = event.i, event.locus
    if not 0 <= i < k:
        raise IllegalEventError("recombine rank out of range: %r with %d lineages" % (i, k))
    if k == 1:
        raise IllegalEventError("cannot recombine the absorbing state")
    b, e = active_interval(lineages, i, full)
    if not (b < u < e):
        raise IllegalEventError("locus %r outside the active interval (%r, %r) of rank %d" % (u, b, e, i))
    below, above = lineages[i].split(u)
    assert not below.is_null and not above.is_null
    lineages[i] = below
    p = bisect_left(lineages, above.rank_key(), i + 1, key=Lineage.rank_key)
    lineages.insert(p, above)
    return p


class State:
    """A ranked tuple of lineages over n sample labels; compared by value, never hashed."""

    __slots__ = ("n", "lineages")

    def __init__(self, n, lineages):
        self.n = n
        self.lineages = tuple(sorted(lineages, key=Lineage.rank_key))

    @classmethod
    def _ranked(cls, n, lineages):
        """A state holding ``lineages``, already in rank order."""
        state = cls.__new__(cls)
        state.n = n
        state.lineages = tuple(lineages)
        return state

    @classmethod
    def initial(cls, n):
        """The starting state: one constant singleton lineage per sample."""
        assert n >= 2
        return cls(n, [Lineage.constant(1 << j) for j in range(n)])

    @classmethod
    def absorbing(cls, n):
        return cls(n, [Lineage.constant(full_set(n))])

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
        """Every rank's (b, e) by the module's active_interval, in rank order."""
        full = full_set(self.n)
        return tuple(active_interval(self.lineages, i, full) for i in range(len(self.lineages)))

    def apply(self, event):
        """The state ``event`` leads to: advance on a copy of the lineages."""
        lineages = list(self.lineages)
        advance(lineages, full_set(self.n), event)
        return State._ranked(self.n, lineages)

    def check(self):
        """Assert the structural invariants; returns self for chaining."""
        assert self.lineages, "state has no lineages"
        grid = sorted({b for lin in self.lineages for b in lin.breaks})
        for lo in [0.0] + grid:
            seen = 0
            for lin in self.lineages:
                val = lin.value_at(lo)
                assert not val & seen, "overlapping labels at locus %r" % lo
                seen |= val
            assert seen == full_set(self.n), "labels at locus %r: %s" % (lo, render_typeset(seen))
        for lin in self.lineages:
            _check_lineage(lin)
        assert list(self.lineages) == sorted(self.lineages, key=Lineage.rank_key)
        if len(self.lineages) == 1:
            assert self.lineages[0] == Lineage.constant(full_set(self.n))
        return self


def _check_lineage(lin):
    """Assert that a stored lineage is non-null and canonical."""
    assert lin.start is not None, "null lineage stored"
    vals, breaks = lin.vals, lin.breaks
    assert all(map(operator.ne, vals, vals[1:])), "uncanonical lineage: equal adjacent values"
    assert all(map(operator.lt, breaks, breaks[1:]))


def render_typeset(mask):
    """The labels of a bitmask, ascending: "{1,3}" for 0b101."""
    return "{%s}" % ",".join(str(j) for j, bit in enumerate(reversed(bin(mask)), 1) if bit == "1")


def render_lineage(lin):
    return "[%s]" % " | ".join(
        "%s,%s" % (fmt_locus(lo), render_typeset(val)) for lo, hi, val in lin.segments()
    )


def render_state(state):
    """Canonical text form: bracketed lineages in rank order, start locus per segment."""
    return " ".join(render_lineage(lin) for lin in state.lineages)


def fmt_locus(x):
    return "%.17g" % x

