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
and active intervals are read off their ends; check and check_step assert a
recorded lineage canonical before they read any derived field of it.

Two events act on states:

* ``Coalesce(i, j)`` replaces lineages i and j by their pointwise union.
* ``Recombine(i, u)`` splits lineage i at locus u into its part below u and
  its part from u on. The locus must lie strictly inside the lineage's
  active interval; for the first-ranked lineage the interval only starts
  where its value stops being the full label set, so splits that would
  separate already-common ancestral material are illegal.
"""

from __future__ import annotations

import math
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
    only for canonical lineages. union, split, constant and the spatial
    splice's revalued and carried material build only canonical lineages.

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
        """Pointwise union with another lineage: one merge of the two break tuples."""
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

    def active_interval(self, i):
        """(b, e) of rank i: the open interval where splitting is legal.

        For ranks >= 1 this is (support start, support end). The first rank
        is special: its interval only begins once its value differs from the
        full label set, so the shared ancestral prefix cannot be split off.
        This is the one place that rule lives. An interval with b >= e is
        empty and carries no recombination weight.
        """
        lin = self.lineages[i]
        if i:
            return lin.start, lin.end
        # a canonical value that is the full set changes at the first break
        return (0.0 if lin.vals[0] != full_set(self.n) else (lin.breaks or (1.0,))[0]), lin.end

    def active_intervals(self):
        """Every rank's active_interval, in rank order; built once per state."""
        if self._intervals is None:
            out = [self.active_interval(0)]
            out += [(lin.start, lin.end) for lin in self.lineages[1:]]
            self._intervals = tuple(out)
        return self._intervals

    def coalesce(self, i, j):
        k = len(self.lineages)
        if not (0 <= i < j < k):
            raise IllegalEventError("coalesce ranks out of range: (%r, %r) with %d lineages" % (i, j, k))
        merged = self.lineages[i].union(self.lineages[j])
        return self.successor((i, j), (merged,))

    def recombine(self, i, u):
        k = len(self.lineages)
        if not 0 <= i < k:
            raise IllegalEventError("recombine rank out of range: %r with %d lineages" % (i, k))
        if k == 1:
            raise IllegalEventError("cannot recombine the absorbing state")
        b, e = self.active_interval(i)
        if not (b < u < e):
            raise IllegalEventError(
                "locus %r outside the active interval (%r, %r) of rank %d" % (u, b, e, i)
            )
        below, above = self.lineages[i].split(u)
        assert not below.is_null and not above.is_null
        return self.successor((i,), (below, above))

    def successor(self, gone, created):
        """This state without its lineages at the ascending ranks ``gone``, plus ``created``.

        The one rule for a path's next state, with no legality check. By
        the rank lemma (see check_step) the first created lineage, by rank
        key, takes rank gone[0]: it keeps the rank key of the lineage there.
        A second one goes past that rank, where one bisection over the rank
        keys puts it. The created lineages may come in either order. Rank
        keys are unique in a valid state, so this is a sort's order.
        """
        old, i = self.lineages, gone[0]
        rest = old[i + 1:]
        for r in reversed(gone[1:]):
            r -= i + 1
            rest = rest[:r] + rest[r + 1:]
        if len(created) == 1:
            return State._ranked(self.n, old[:i] + tuple(created) + rest)
        first, second = created
        if second.rank_key() < first.rank_key():
            first, second = second, first
        p = bisect_left(rest, second.rank_key(), key=Lineage.rank_key)
        return State._ranked(self.n, old[:i] + (first,) + rest[:p] + (second,) + rest[p:])

    def apply(self, event):
        if isinstance(event, Coalesce):
            return self.coalesce(event.i, event.j)
        if isinstance(event, Recombine):
            return self.recombine(event.i, event.locus)
        raise TypeError("not an event: %r" % (event,))

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

    def check_step(self, prev, event):
        """Assert that this state is ``prev.apply(event)`` and satisfies check().

        ``prev`` must satisfy check(), so its rank keys (start, smallest
        label at start) are unique and ascend. The event must be legal in
        prev: ranks in range and, for a recombination, the locus u strictly
        inside the active interval, one created part ending at or below u
        and the other starting at or above it.

        Rank lemma. ``Coalesce(i, j)``: lineage i starts no later than j and
        at a tie carries the smaller label, so the union keeps i's rank key
        and rank: the state is old[:i] + (union,) + old[i+1:j] + old[j+1:].
        ``Recombine(i, u)``: u lies past i's start, so the part below u
        keeps i's rank key and rank i. The part from u on sits at some rank
        p > i, and new[q] is old[q] exactly for i < q < p, so bisection
        finds p as the first rank past i where new[p] is not old[p].

        The untouched runs must be prev's own objects (valid by induction;
        an equal copy is refused), compared as slices in C. The created
        lineages must be canonical and carry exactly the removed material:
        one merge over the breaks of the three lineages involved, with no
        operator call. The upper split part is checked against its two
        neighbours. Canonical forms and rank order are unique, so this
        proves the state is the replay without building it, in O(log k)
        Python steps plus slice comparisons and those three lineages'
        breaks, where check() costs O(breaks of the whole state * k).
        Returns self for chaining.
        """
        assert self.n == prev.n, "sample count changed"
        old, new, i = prev.lineages, self.lineages, event.i
        k = len(old)
        if isinstance(event, Coalesce):
            j = event.j
            assert 0 <= i < j < k, "coalesce ranks out of range"
            assert len(new) == k - 1, "a coalescence left %d of %d lineages" % (len(new), k)
            kept, untouched = new[:i] + new[i + 1:], old[:i] + old[i + 1:j] + old[j + 1:]
        else:
            assert 0 <= i < k, "recombine rank out of range"
            assert k > 1, "recombination of the absorbing state"
            b, e = prev.active_intervals()[i]
            assert b < event.locus < e, "locus outside the active interval"
            assert len(new) == k + 1, "a recombination left %d of %d lineages" % (len(new), k)
            p = bisect_left(range(k), True, i + 1, key=lambda q: new[q] is not old[q])
            kept, untouched = new[:i] + new[i + 1:p] + new[p + 1:], old[:i] + old[i + 1:]
        assert all(map(operator.is_, kept, untouched)), "a lineage the event did not touch changed"
        _check_lineage(new[i])
        # Kept and removed lineages partition the labels at every locus
        # (prev is valid), so the new state does iff the created lineages
        # carry exactly the removed material, disjointly.
        if isinstance(event, Coalesce):
            _check_parts(old[i], old[j], new[i])
        else:
            below, above = new[i], new[p]
            _check_lineage(above)
            assert below.end <= event.locus <= above.start, "split parts cross the locus"
            _check_parts(below, above, old[i])
            keys = [lin.rank_key() for lin in new[p - 1:p + 2]]
            assert keys == sorted(keys), "lineages out of rank order"
        if len(new) == 1:
            assert new[0] == Lineage.constant(full_set(self.n))
        return self


def _check_parts(x, y, whole):
    """Assert x, y disjoint with union ``whole``: one merge, a pointer per lineage."""
    xb, yb, wb = x.breaks + (math.inf,), y.breaks + (math.inf,), whole.breaks + (math.inf,)
    i = j = l = 0
    lo = 0.0
    while lo < math.inf:
        a, b, w = x.vals[i], y.vals[j], whole.vals[l]
        assert not a & b, "overlapping labels at locus %r" % lo
        assert a | b == w, "labels at locus %r: %s, expected %s" % (lo, render_typeset(a | b), render_typeset(w))
        lo = min(xb[i], yb[j], wb[l])
        i += xb[i] == lo
        j += yb[j] == lo
        l += wb[l] == lo


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

