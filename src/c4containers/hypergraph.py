"""Uniform constraint multi-hypergraphs over a finite integer ground set.

A (k0, k1)-uniform hypergraph H collects constraints (A0, A1): disjoint
vertex tuples with |A0| = k0 and |A1| = k1, carried with positive integer
multiplicities.  A 0/1 assignment h on the ground set {0, ..., n-1} violates
(A0, A1) when h is 0 everywhere on A0 and 1 everywhere on A1, so a constraint
reads "h must not vanish on all of A0 while being 1 on all of A1".  F(H) is
the set of assignments violating no constraint, and F_m(H) its slice with
exactly m ones.

Degrees count multiplicities: deg(T0, T1) is the total multiplicity of
constraints with T0 inside A0 and T1 inside A1, and Delta_{(l0,l1)}(H) is the
maximum over pairs of sizes (l0, l1).  ``degree_table`` gives every
Delta_{(l0,l1)}.  For s <= ``_SUBSET_ROUTE_SUPPORT`` distinct constraints it
is the largest multiplicity of a set S of them whose common A0 and A1 hold at
least l0 and l1 vertices, over all 2^s - 1 nonempty S.  A larger H packs each
sub-tuple of its constraints into one int64 key (its shape id, then one digit
per position, a relabeled vertex + 1 or 0 for a padded position), and one
sort per bounded pass of whole shapes groups equal keys.  When a key could
reach 2^63, or the multiplicities could sum past 2^53 (the sums run in
float64), one Python pass accumulates all shapes together instead.  H's memo
(below) keeps the table, and every degree query of the package reads it.

The container engine requires, for every (l0, l1) != (0, 0) with l0 <= k0
and l1 <= k1,

    Delta_{(l0,l1)}(H) <= K * b^(l0+l1-1) / (m^l0 * v^l1) * e(H) * (m/r)^[l0>0]

with v = v(H); check_container_hypothesis evaluates all of these in exact
rational arithmetic and reports the minimal K that would pass.

A stored constraint is the pair (A0, A1) itself, the key the container
engine's rounds use.  ``_index_round`` numbers a round's constraints with an
incidence bitmask per vertex and side; ``round_index``, H's own index, is
the engine's round 0 and what membership tests read.  Each hypergraph keeps
one private memo, which no other module reads, of what depends only on its
constraint multiset: the degree table and that index.  An entry is filled on
first use, and ``add`` and ``add_rows``, its bulk form and the only other
mutator, clear the memo, so nothing in it outlives a change to H;
``degree_table`` hands out a copy.

Serialization is a line-oriented text format: a header line "k0 k1 n"
followed by one constraint per line, "mult | a0 vertices | a1 vertices".
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "Constraint",
    "UniformHypergraph",
    "Assignment",
    "HypothesisReport",
    "check_container_hypothesis",
]

# Sub-tuple keys per degree-table pass: H_2 of K_13 (135,135 keys) took
# 12-13 ms at a 1.9 MB tracemalloc peak in such passes, against 16-19 ms at
# 7.7 MB in one.
_DEGREE_PASS_KEYS = 1 << 14
# Star-shaped (2,4)-uniform H: subsets took 33 us against numpy's 64 at 6 constraints, 84 against 71 at 8.
_SUBSET_ROUTE_SUPPORT = 6


Key = tuple[tuple[int, ...], tuple[int, ...]]
# (c, keys, multiplicities, multiplicity classes, incidence masks): see _index_round
RoundIndex = tuple[int, tuple[Key, ...], tuple[int, ...], tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]]


class Constraint(NamedTuple):
    """One constraint (A0, A1), stored as sorted disjoint vertex tuples; it
    equals and hashes as the plain pair (a0, a1), its key."""

    a0: tuple[int, ...]
    a1: tuple[int, ...]

    @staticmethod
    def make(a0: Iterable[int], a1: Iterable[int]) -> "Constraint":
        t0, t1 = tuple(sorted(a0)), tuple(sorted(a1))
        if len(set(t0)) != len(t0) or len(set(t1)) != len(t1):
            raise ValueError("repeated vertex inside a constraint side")
        if set(t0) & set(t1):
            raise ValueError("constraint sides must be disjoint")
        return Constraint(t0, t1)

    def key(self) -> Key:
        return (self.a0, self.a1)


class UniformHypergraph:
    """A (k0, k1)-uniform constraint multi-hypergraph on vertices 0..n-1.

    The degenerate (0, 0)-uniform shape, whose only possible constraint is
    (empty, empty), is rejected.
    """

    def __init__(
        self,
        k0: int,
        k1: int,
        n_vertices: int,
        constraints: Iterable[tuple[Iterable[int], Iterable[int]] | tuple[Iterable[int], Iterable[int], int]] = (),
    ):
        if k0 < 0 or k1 < 0:
            raise ValueError("uniformities must be nonnegative")
        if (k0, k1) == (0, 0):
            raise ValueError("(0, 0)-uniform hypergraphs are degenerate")
        if n_vertices < 0:
            raise ValueError("n_vertices must be nonnegative")
        self.k0 = k0
        self.k1 = k1
        self.n_vertices = n_vertices
        self._edges: Counter[Constraint] = Counter()
        self._memo: dict[str, object] = {}
        for item in constraints:
            if len(item) == 3:
                a0, a1, mult = item
            else:
                a0, a1 = item
                mult = 1
            self.add(Constraint.make(a0, a1), mult)

    def add(self, c: Constraint, mult: int = 1) -> None:
        """Add c with multiplicity mult, a positive integer stored as a Python int."""
        mult = _multiplicity(mult)
        if len(c.a0) != self.k0 or len(c.a1) != self.k1:
            raise ValueError(
                f"constraint sizes {(len(c.a0), len(c.a1))} do not match uniformity {(self.k0, self.k1)}"
            )
        for u in itertools.chain(c.a0, c.a1):
            if not 0 <= u < self.n_vertices:
                raise ValueError(f"vertex {u} outside ground set of size {self.n_vertices}")
        self._edges[c] += mult
        self._memo.clear()

    def add_rows(self, a0: np.ndarray, a1: np.ndarray) -> None:
        """Add the constraint (a0[r], a1[r]) of each row r of two integer
        arrays, with multiplicity 1, in row order: ``add`` row by row, with
        the sizes and the vertex range checked once for the whole batch.
        Like the sides of a Constraint, each row side must be sorted and the
        two sides disjoint.  Every stored vertex is a Python int.
        """
        a0, a1 = np.asarray(a0), np.asarray(a1)
        if a0.dtype.kind not in "iu" or a1.dtype.kind not in "iu":
            raise ValueError("constraint rows must hold integers")
        if a0.shape[1:] != (self.k0,) or a1.shape[1:] != (self.k1,) or len(a0) != len(a1):
            raise ValueError(
                f"constraint rows of shapes {a0.shape} and {a1.shape} do not match uniformity {(self.k0, self.k1)}"
            )
        rows = np.concatenate((a0, a1), axis=1, dtype=np.int64, casting="same_kind")
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_vertices):
            raise ValueError(f"vertex outside ground set of size {self.n_vertices}")
        # one Python int per vertex the batch uses, shared by all its constraints
        slot = np.zeros(self.n_vertices, dtype=np.intp)
        slot[rows] = 1
        used = np.flatnonzero(slot)
        slot[used] = np.arange(len(used))
        rows = used.astype(object)[slot[rows]]
        sides = [_row_tuples(rows[:, :self.k0], len(rows)), _row_tuples(rows[:, self.k0:], len(rows))]
        edges = self._edges
        for c in map(Constraint, *sides):
            edges[c] = edges.get(c, 0) + 1
        self._memo.clear()

    def _derived(self, name: str, build: Callable[[], Any]) -> Any:
        """``build()``, computed once per constraint multiset and kept in the
        memo under ``name``; the caller must not change what it returns."""
        if name not in self._memo:
            self._memo[name] = build()
        return self._memo[name]

    # -- basic accessors ---------------------------------------------------

    def e(self) -> int:
        """Number of constraints, counted with multiplicity."""
        return sum(self._edges.values())

    def is_empty(self) -> bool:
        return not self._edges

    def support_size(self) -> int:
        """Number of distinct constraints, ignoring multiplicity."""
        return len(self._edges)

    def constraints(self) -> Iterator[tuple[Constraint, int]]:
        yield from self._edges.items()

    def round_index(self) -> RoundIndex:
        """H's constraint index (``_index_round``) in insertion order, kept in
        H's memo for container round 0 and membership tests."""
        return self._derived("round_index", lambda: _index_round(self._edges, self.k1, self.n_vertices))

    def multiplicity(self, c: Constraint) -> int:
        return self._edges.get(c, 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, UniformHypergraph)
            and (self.k0, self.k1, self.n_vertices) == (other.k0, other.k1, other.n_vertices)
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return f"UniformHypergraph(k0={self.k0}, k1={self.k1}, n={self.n_vertices}, e={self.e()})"

    # -- degrees -----------------------------------------------------------

    def degree_table(self) -> dict[tuple[int, int], int]:
        """Delta_{(l0,l1)} for every (l0, l1) != (0, 0) with l0 <= k0, l1 <= k1.

        Computed once per constraint multiset: the first call fills H's memo,
        ``add`` or ``add_rows`` clears it, and every call returns a fresh copy
        of the table.
        """
        return dict(self._derived("degree_table", self._degree_table))

    def _degree_table(self) -> dict[tuple[int, int], int]:
        """Degrees from the constraints, never from all vertex tuples: an
        empty hypergraph reports 0 for every pair.  Up to
        ``_SUBSET_ROUTE_SUPPORT`` constraints the 2^s - 1 sets of them give
        the table; beyond, each pass takes whole shapes of sub-tuple keys up
        to ``_DEGREE_PASS_KEYS`` (a larger shape alone) and runs one
        ``unique``, ``bincount`` and ``maximum.at`` on them.  Past the
        packing bound a single Python pass gives the same table.
        """
        shapes, plan, shape_ids, ends = _subtuple_plan(self.k0, self.k1)
        if len(self._edges) <= _SUBSET_ROUTE_SUPPORT:
            return self._degree_table_by_subsets(shapes)
        width, n_edges = self.k0 + self.k1, len(self._edges)
        # position-major: row j holds position j (A0, then A1) of every constraint
        verts = np.array([c.a0 + c.a1 for c in self._edges], dtype=np.int64).T
        used, relabeled = np.unique(verts, return_inverse=True)
        base = len(used) + 1
        if len(shapes) * base**width >= 2**63 or self.e() >= 2**53:
            return self._degree_table_by_counter(shapes)
        # row `width` stays 0: the plan points padded positions at it
        digits = np.zeros((width + 1, n_edges), dtype=np.int64)
        digits[:width] = relabeled.reshape(verts.shape) + 1
        mults = np.fromiter(self._edges.values(), dtype=np.int64, count=n_edges)
        best = np.zeros(len(shapes))
        start = 0
        for i, end in enumerate(ends):
            # a pass takes whole shapes while the next one fits in the key budget
            if i + 1 < len(ends) and (ends[i + 1] - start) * n_edges <= _DEGREE_PASS_KEYS:
                continue
            # one key per (sub-tuple, constraint), built one position at a time
            # so the (sub-tuple, constraint, position) gather is never materialised
            keys = np.empty((end - start, n_edges), dtype=np.int64)
            keys[:] = shape_ids[start:end, None]
            for rows in plan[start:end].T:
                keys *= base
                keys += digits[rows]
            uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
            # float64 sums are exact below 2^53, which e(H) bounds
            degrees = np.bincount(inverse, weights=np.tile(mults, end - start))
            np.maximum.at(best, uniq // base**width, degrees)
            start = end
        return {shape: int(d) for shape, d in zip(shapes, best)}

    def _degree_table_by_subsets(self, shapes: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
        """``degree_table`` from the 2^s - 1 nonempty sets S of the s
        constraints, grown one constraint at a time with both intersections
        as vertex bitmasks; a set whose two are empty is dropped, and so is
        every set grown from it."""
        states: list[tuple[int, int, int]] = []  # (common A0, common A1, weight) of each S so far
        for c, mult in self._edges.items():
            a0, a1 = sum(1 << u for u in c.a0), sum(1 << u for u in c.a1)
            states += [(in0 & a0, in1 & a1, w + mult) for in0, in1, w in states if in0 & a0 or in1 & a1]
            states.append((a0, a1, mult))
        # (|common A0|, |common A1|) -> the largest weight: in ascending weight, the last one written
        best = {(in0.bit_count(), in1.bit_count()): w for in0, in1, w in sorted(states, key=operator.itemgetter(2))}
        return {(l0, l1): max((w for (c0, c1), w in best.items() if c0 >= l0 and c1 >= l1), default=0)
                for l0, l1 in shapes}

    def _degree_table_by_counter(self, shapes: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
        """``degree_table`` past the packing bound: one Counter over the
        sub-tuples of every shape, keyed by the sub-tuple pair itself."""
        counts: Counter[tuple[tuple[int, ...], tuple[int, ...]]] = Counter()
        for c, mult in self._edges.items():
            for l0, l1 in shapes:
                for s0 in itertools.combinations(c.a0, l0):
                    for s1 in itertools.combinations(c.a1, l1):
                        counts[(s0, s1)] += mult
        table = dict.fromkeys(shapes, 0)
        for (s0, s1), deg in counts.items():
            shape = (len(s0), len(s1))
            table[shape] = max(table[shape], deg)
        return table

    def max_degree(self, l0: int, l1: int) -> int:
        """Delta_{(l0,l1)}: the largest degree over pairs of sizes (l0, l1).

        A validated lookup into ``degree_table``, which computes every size
        pair at once; callers needing several pairs should read the table.
        """
        if not (0 <= l0 <= self.k0 and 0 <= l1 <= self.k1):
            raise ValueError(f"sizes {(l0, l1)} out of range for uniformity {(self.k0, self.k1)}")
        if (l0, l1) == (0, 0):
            raise ValueError("(0, 0) degree is just e(H); ask for a nontrivial pair")
        return self.degree_table()[(l0, l1)]

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.k0} {self.k1} {self.n_vertices}"]
        for c in sorted(self._edges, key=Constraint.key):
            mult = self._edges[c]
            lines.append(f"{mult} | {' '.join(map(str, c.a0))} | {' '.join(map(str, c.a1))}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "UniformHypergraph":
        lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError("empty hypergraph text")
        head = lines[0].split()
        if len(head) != 3:
            raise ValueError(f"bad header {lines[0]!r}, expected 'k0 k1 n'")
        k0, k1, n = map(int, head)
        h = UniformHypergraph(k0, k1, n)
        for ln in lines[1:]:
            parts = ln.split("|")
            if len(parts) != 3:
                raise ValueError(f"bad constraint line {ln!r}")
            mult = int(parts[0])
            a0 = tuple(map(int, parts[1].split()))
            a1 = tuple(map(int, parts[2].split()))
            h.add(Constraint.make(a0, a1), mult)
        return h


def _multiplicity(mult: int) -> int:
    """mult as a Python int, which must be a positive integer."""
    try:
        mult = operator.index(mult)
    except TypeError:
        raise ValueError(f"multiplicity must be an integer, got {mult!r}") from None
    if mult <= 0:
        raise ValueError("multiplicity must be positive")
    return mult


def _row_tuples(rows: np.ndarray, count: int) -> Iterator[tuple[int, ...]]:
    """The rows of a (count, k) object array, each as a tuple."""
    return zip(*rows.T.tolist()) if rows.shape[1] else itertools.repeat((), count)


@lru_cache(maxsize=None)
def _subtuple_plan(
    k0: int, k1: int
) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray, tuple[int, ...]]:
    """(shapes, plan, shape ids, shape ends) gathering every sub-tuple of a
    (k0, k1) constraint.

    The digit matrix holds A0 in rows 0..k0-1, A1 in rows k0..k0+k1-1 and
    zeros in row k0+k1, one column per constraint.  Each plan row lists, for
    one sub-tuple of one shape (l0, l1), the rows of its l0 A0 vertices, k0-l0
    zero rows, its l1 A1 vertices and k1-l1 zero rows; the matching shape id
    is the index of (l0, l1) in shapes.  The rows of shape s end at ends[s].
    """
    width = k0 + k1
    shapes = tuple((l0, l1) for l0 in range(k0 + 1) for l1 in range(k1 + 1) if (l0, l1) != (0, 0))
    rows, ids, ends = [], [], []
    for sid, (l0, l1) in enumerate(shapes):
        for s0 in itertools.combinations(range(k0), l0):
            for s1 in itertools.combinations(range(k0, width), l1):
                rows.append(s0 + (width,) * (k0 - l0) + s1 + (width,) * (k1 - l1))
                ids.append(sid)
        ends.append(len(rows))
    plan = np.array(rows, dtype=np.intp).reshape(len(rows), width)
    shape_ids = np.array(ids, dtype=np.int64)
    plan.setflags(write=False)
    shape_ids.setflags(write=False)
    return shapes, plan, shape_ids, tuple(ends)


def _index_round(edges: dict[Key, int], i1: int, n: int) -> RoundIndex:
    """The index of a round on the (i0, i1)-uniform constraints ``edges``.

    The round asks about side c = 1 while i1 > 0, else c = 0.  Constraint i
    of ``edges`` (in its order) sets bit i of ``incidence[side][u]`` for each
    vertex u on each side, and of the class (2^j, mask) of each set bit j of
    its multiplicity.
    """
    keys = tuple(edges)
    mults = tuple(edges.values())
    inc0, inc1 = [0] * n, [0] * n
    by_mult: dict[int, int] = {}  # multiplicity -> mask of the constraints that have it
    for i, ((a0, a1), mult) in enumerate(edges.items()):
        bit = 1 << i
        for u in a0:
            inc0[u] |= bit
        for u in a1:
            inc1[u] |= bit
        by_mult[mult] = by_mult.get(mult, 0) | bit
    # the masks of by_mult are disjoint, so a sum is their union
    weighted = tuple(
        (1 << j, mask)
        for j in range(max(mults).bit_length())
        if (mask := sum(part for mult, part in by_mult.items() if mult >> j & 1))
    )
    return 1 if i1 > 0 else 0, keys, mults, weighted, (tuple(inc0), tuple(inc1))


# -- assignments -----------------------------------------------------------


@dataclass(frozen=True)
class Assignment:
    """A 0/1 assignment on the ground set, held as a bit tuple."""

    bits: tuple[int, ...]

    @staticmethod
    def from_bits(bits: Sequence[int]) -> "Assignment":
        t = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in t):
            raise ValueError("assignment bits must be 0 or 1")
        return Assignment(t)

    @staticmethod
    def from_ones(n: int, ones: Iterable[int]) -> "Assignment":
        s = set(ones)
        if any(not 0 <= u < n for u in s):
            raise ValueError("one-positions outside ground set")
        return Assignment(tuple(1 if i in s else 0 for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def ones_count(self) -> int:
        return sum(self.bits)

    def ones(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.bits) if b)

    def violates(self, c: Constraint) -> bool:
        return all(self.bits[u] == 0 for u in c.a0) and all(self.bits[u] == 1 for u in c.a1)

    def in_solution_set(self, h: UniformHypergraph) -> bool:
        """True when this assignment violates no constraint of h: the OR of
        h's incidence masks inc0[u] over its ones and inc1[u] over its zeros
        holds every constraint's bit.  An empty h builds no index."""
        if self.n != h.n_vertices:
            raise ValueError(f"assignment length {self.n} does not match ground set {h.n_vertices}")
        if h.is_empty():
            return True
        _, keys, _, _, (inc0, inc1) = h.round_index()
        held = 0
        for u, bit in enumerate(self.bits):
            held |= inc0[u] if bit else inc1[u]
        return held == (1 << len(keys)) - 1


# -- container hypothesis ----------------------------------------------------


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the degree-condition check, one entry per (l0, l1) pair.

    entries maps (l0, l1) to (observed max degree, exact bound, passed);
    min_k is the smallest K under which every pair would pass.
    """

    entries: dict[tuple[int, int], tuple[int, Fraction, bool]]
    min_k: Fraction
    k: Fraction
    b: int
    m: int
    r: int

    @property
    def all_passed(self) -> bool:
        return all(ok for (_, _, ok) in self.entries.values())

    def failing_pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, (_, _, ok) in self.entries.items() if not ok)


def check_container_hypothesis(h: UniformHypergraph, k: Fraction | int | float, b: int, m: int, r: int) -> HypothesisReport:
    """Evaluate the degree condition for every admissible (l0, l1), exactly.

    The bound for sizes (l0, l1) is K * b^(l0+l1-1) / (m^l0 * v^l1) * e(H),
    with an extra factor m/r when l0 > 0.  The observed degrees come from one
    ``degree_table`` of H.  All arithmetic is exact, in Fractions and integer
    cross-multiplication; a float K, which must be finite, is converted exactly.
    """
    if h.is_empty():
        raise ValueError("hypothesis check needs a non-empty hypergraph")
    if min(b, m, r) < 1:
        raise ValueError("b, m, r must be positive integers")
    if not 0 < k < math.inf:  # false for NaN
        raise ValueError("K must be positive and finite")
    kf = Fraction(k)
    v = h.n_vertices
    e = h.e()
    entries: dict[tuple[int, int], tuple[int, Fraction, bool]] = {}
    min_k = Fraction(0)
    for (l0, l1), delta in h.degree_table().items():
        # the bound over K is num/den; each pair builds one Fraction (and
        # min_k one more when it grows), comparing the rest as integers
        num = b ** (l0 + l1 - 1) * e * (m if l0 > 0 else 1)
        den = m**l0 * v**l1 * (r if l0 > 0 else 1)
        bound = Fraction(kf.numerator * num, kf.denominator * den)
        entries[(l0, l1)] = (delta, bound, delta * kf.denominator * den <= kf.numerator * num)
        if delta * den * min_k.denominator > min_k.numerator * num:
            min_k = Fraction(delta * den, num)
    return HypothesisReport(entries=entries, min_k=min_k, k=kf, b=b, m=m, r=r)
