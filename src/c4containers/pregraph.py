"""Pregraphs and the constraint hypergraphs of good 4-cycles.

A pregraph is a partial two-colouring of the edge set of K_n: a set E of
edges already fixed to be present, a set M of mixed (undecided) edges, and
an auxiliary set N of mixed edges that preprocessing has neutralized (they
can no longer serve as cycle edges but may still appear as induced extras).
Each of M, E and N is an int over pair indices, the layout of the oracle's
graph masks: bit ``graph6.pair_index(u, v)`` is the pair (u, v).
A good copy of C4 is a 4-cycle all of whose edges are mixed and whose four
vertices span no fixed edge.  Each good copy, together with the i in
{0, 1, 2} remaining induced mixed edges (its diagonals that lie in M or N),
yields one constraint of the (i, 4)-uniform hypergraph H_i: the copy is
"alive" in a completion exactly when the four cycle edges are all present
and the diagonals all absent, which is the induced-C4 event.

Two routes meet the good copies, in one order.  ``good_c4_enumerate`` and
``build_constraint_hypergraphs`` need all of them: one numpy pass over the
C(n, 4) quads, in bounded blocks, reads each quad's six pairs in the
unpacked bits of E, M and M|N and maps them to ground positions, and each
block goes into H_0, H_1, H_2 through ``UniformHypergraph.add_rows``.  The
permissible greedy usually stops after a few copies, so it reads a lazy
cursor instead, which yields one copy at a time as cycle and diagonal pair
masks and ground positions.  A greedy reading the numpy blocks one at a
time gave the same containers, but its tree and stability jobs ran 18-22%
longer (10 of 10 benchmark pairs each).

The greedy builder assembles permissible subhypergraphs one constraint at a
time, with the degree caps l^2, floor(l^3/n) and l of the (1,0), (0,1) and
(0,2) patterns from ``_saturation_caps``.  It neutralizes saturated single
edges by ``_saturated``, the two-phase rule ``preprocess_saturation`` also
applies, and skips copies that contain a saturated cycle-edge pair, until
one of H_0, H_1, H_2 reaches beta*l^4 constraints or no insertable copy
remains.

Also here: the almost-split and leaf classifications that drive the
container tree.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .graph6 import pair_from_index, pair_index
from .hypergraph import Constraint, UniformHypergraph

__all__ = [
    "Pair",
    "Pregraph",
    "complete_pregraph",
    "GoodC4",
    "good_c4_enumerate",
    "ConstraintSystem",
    "build_constraint_hypergraphs",
    "preprocess_saturation",
    "PermissibleResult",
    "build_permissible",
    "AlmostSplitResult",
    "is_almost_split_pregraph",
    "LeafClassification",
    "m_underflow_threshold",
    "is_leaf_pregraph",
    "CliqueCost",
    "close_to_clique_cost",
]

Pair = tuple[int, int]

# Up to this n, every vertex subset is tested at once; the subset counts'
# time and memory double per vertex.
EXACT_SUBSET_LIMIT = 16


def _pair_mask(pairs: Iterable[Sequence[int]], n: int) -> int:
    """The pairs as a mask over pair indices, each checked to be an edge of K_n."""
    mask = 0
    for u, v in pairs:
        if u == v:
            raise ValueError(f"loop ({u}, {v}) is not an edge")
        if not 0 <= min(u, v) < max(u, v) < n:
            raise ValueError(f"pair {(min(u, v), max(u, v))} outside vertex range 0..{n - 1}")
        mask |= 1 << pair_index(int(u), int(v))
    return mask


@dataclass(frozen=True, init=False, slots=True)
class Pregraph:
    """Partial two-colouring (M, E, N) of the pairs of 0..n-1.

    M, E and N are pair masks (bit ``pair_index(u, v)`` for the pair (u, v)),
    and equality and hashing read (n, M, E, N).  The constructor takes the
    three sets of pairs; ``mixed``, ``fixed`` and ``neutral`` give them back
    as frozensets of sorted pairs, built on access (the last 16 are kept).
    """

    n: int
    M: int
    E: int
    N: int

    def __init__(self, n: int, mixed: Iterable[Pair], fixed: Iterable[Pair], neutral: Iterable[Pair] = ()):
        if n < 0:
            raise ValueError(f"need n >= 0, got n={n}")
        m, e, nn = (_pair_mask(pairs, n) for pairs in (mixed, fixed, neutral))
        if m & e or m & nn or e & nn:
            raise ValueError("mixed, fixed, and neutral edge sets must be disjoint")
        _fill(self, n, m, e, nn)

    mixed = property(lambda self: _pair_set(self.M))
    fixed = property(lambda self: _pair_set(self.E))
    neutral = property(lambda self: _pair_set(self.N))

    def e_m(self) -> int:
        return self.M.bit_count()

    def e_e(self) -> int:
        return self.E.bit_count()

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for tag, pairs in (("M", self.mixed), ("E", self.fixed), ("N", self.neutral)):
            lines.extend(f"{tag} {u} {v}" for u, v in sorted(pairs))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Pregraph":
        n = None
        sets: dict[str, list[Pair]] = {"M": [], "E": [], "N": []}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "n" and len(parts) == 2:
                if n is not None:
                    raise ValueError(f"pregraph text repeats its 'n' line: {raw!r}")
                n = int(parts[1])
            elif parts[0] in sets and len(parts) == 3:
                sets[parts[0]].append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"unparseable pregraph line: {raw!r}")
        if n is None:
            raise ValueError("pregraph text lacks an 'n <count>' line")
        return Pregraph(n, frozenset(sets["M"]), frozenset(sets["E"]), frozenset(sets["N"]))


@functools.lru_cache(maxsize=16)  # a caller that reads one view in a loop builds it once
def _pair_set(mask: int) -> frozenset[Pair]:
    return frozenset(pair_from_index(k) for k, bit in enumerate(f"{mask:b}"[::-1]) if bit == "1")


def _fill(p: Pregraph, *values: int) -> Pregraph:
    for name, value in zip(("n", "M", "E", "N"), values):
        object.__setattr__(p, name, value)
    return p


def _from_masks(n: int, m: int, e: int, nn: int = 0) -> Pregraph:
    """Pregraph (n, m, e, nn) of pair masks, unchecked: callers derive them from a valid one."""
    return _fill(object.__new__(Pregraph), n, m, e, nn)


def complete_pregraph(n: int) -> Pregraph:
    """All pairs mixed, nothing fixed: the root of the container tree."""
    return _from_masks(n, (1 << math.comb(n, 2)) - 1, 0)


def _ground(p: Pregraph) -> tuple[tuple[Pair, ...], list[int]]:
    """The mixed and neutral pairs in lexicographic (u, v) order, which is
    not pair-index order, and the pair index of each."""
    undecided = p.M | p.N
    ground = tuple(e for e in itertools.combinations(range(p.n), 2) if undecided >> pair_index(*e) & 1)
    return ground, [pair_index(*e) for e in ground]


# the two diagonals of each 4-cycle on a sorted quad a < b < c < d, as
# positions in its pair list (ab, ac, ad, bc, bd, cd): ab+cd, ac+bd, ad+bc
_DIAGONAL_SPLITS = ((0, 5), (1, 4), (2, 3))
# the four cycle edges of each split, as positions in the same list
_SPLIT_CYCLES = tuple(tuple(k for k in range(6) if k not in split) for split in _DIAGONAL_SPLITS)
# Quads per block of the numpy pass.  On K_30 (27,405 quads) blocks of 2^10
# quads left the build's tracemalloc peak 0.7 MB above what it keeps, and
# blocks of 2^12 2.5 MB, at equal time (0.18-0.19 s).
_QUAD_BLOCK = 1 << 10


@dataclass(frozen=True)
class GoodC4:
    """One embedded 4-cycle of mixed edges with E-independent vertex set."""

    cycle_edges: tuple[Pair, Pair, Pair, Pair]
    extra_mixed: tuple[Pair, ...]  # the diagonals that lie in M or N

    @property
    def i(self) -> int:
        return len(self.extra_mixed)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for e in self.cycle_edges for v in e}))


def _mask_bits(mask: int, size: int) -> np.ndarray:
    """Bits 0..size-1 of the pair mask as a bool array (a view of the unpacked bytes)."""
    raw = np.frombuffer(mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:size].view(bool)


def _good_c4_blocks(p: Pregraph, bits: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The good copies of C4 in good_c4_enumerate's order, one block of at
    most 3 * _QUAD_BLOCK copies at a time, given the pair index bits[k] of
    each ground position k: the ground positions of each copy's four cycle
    edges (ascending) and of its two diagonals (ascending; -1 for a pair
    outside the ground), and whether each diagonal lies in M or N."""
    size = math.comb(p.n, 2)
    fixed, mixed, undecided = (_mask_bits(mask, size) for mask in (p.E, p.M, p.M | p.N))
    position = np.full(size, -1, dtype=np.int64)
    position[np.array(bits, dtype=np.int64)] = np.arange(len(bits))
    quads = itertools.combinations(range(p.n), 4)
    while (quad := np.fromiter(itertools.chain.from_iterable(itertools.islice(quads, _QUAD_BLOCK)),
                               dtype=np.int64).reshape(-1, 4)).size:
        a, b, c, d = quad.T
        # pair index of (u, v), u < v, is C(v, 2) + u; columns ab, ac, ad, bc, bd, cd
        b2, c2, d2 = b * (b - 1) // 2, c * (c - 1) // 2, d * (d - 1) // 2
        pairs = np.stack([b2 + a, c2 + a, d2 + a, c2 + b, d2 + b, d2 + c], axis=1)
        pairs = pairs[~fixed[pairs].any(axis=1)]
        cycles = pairs[:, _SPLIT_CYCLES]
        good = mixed[cycles].all(axis=2)
        diagonals = pairs[:, _DIAGONAL_SPLITS][good]
        yield position[cycles[good]], position[diagonals], undecided[diagonals]


def good_c4_enumerate(p: Pregraph) -> list[GoodC4]:
    """All good copies of C4, one per embedding, in a fixed lexicographic
    order (by vertex 4-tuple, then by the diagonal split chosen)."""
    ground, bits = _ground(p)
    copies = []
    for cycles, diagonals, counted in _good_c4_blocks(p, bits):
        for cycle, pair, extra in zip(cycles.tolist(), diagonals.tolist(), counted.tolist()):
            copies.append(GoodC4(tuple(ground[k] for k in cycle),
                                 tuple(ground[k] for k, x in zip(pair, extra) if x)))
    return copies


def _good_c4_stream(p: Pregraph, bits: Sequence[int]) -> Iterator[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """The good copies of C4 one at a time, in good_c4_enumerate's order,
    given the pair index bits[k] of each ground position k: the pair masks
    of each copy's cycle and of its counted diagonals, then its constraint's
    sides A0 and A1 as ground positions.  A quad whose ab, ac or bc pair is
    fixed is skipped before any d is tried."""
    position = dict(zip(bits, range(len(bits))))
    fixed, mixed, undecided = p.E, p.M, p.M | p.N
    for a, b, c in itertools.combinations(range(p.n), 3):
        # pair index of (u, v), u < v, is C(v, 2) + u
        ab, ac, bc = b * (b - 1) // 2 + a, c * (c - 1) // 2 + a, c * (c - 1) // 2 + b
        if (1 << ab | 1 << ac | 1 << bc) & fixed:
            continue
        for d in range(c + 1, p.n):
            d2 = d * (d - 1) // 2
            pairs = (ab, ac, d2 + a, bc, d2 + b, d2 + c)
            masks = [1 << k for k in pairs]
            span = sum(masks)
            if span & fixed:
                continue
            for (i, j), cycle_at in zip(_DIAGONAL_SPLITS, _SPLIT_CYCLES):
                cycle = span ^ masks[i] ^ masks[j]
                if cycle & mixed != cycle:
                    continue
                extra = [k for k in (i, j) if masks[k] & undecided]
                yield (cycle, sum(masks[k] for k in extra), tuple(position[pairs[k]] for k in extra),
                       tuple(position[pairs[k]] for k in cycle_at))


@dataclass(frozen=True)
class ConstraintSystem:
    """The hypergraphs H_0, H_1, H_2 of a pregraph, over an indexed ground
    set (the mixed and neutral edges in sorted order)."""

    ground: tuple[Pair, ...]
    h0: UniformHypergraph
    h1: UniformHypergraph
    h2: UniformHypergraph

    def __iter__(self):
        return iter((self.h0, self.h1, self.h2))


def build_constraint_hypergraphs(p: Pregraph) -> ConstraintSystem:
    """H_i collects the good copies with exactly i extra induced mixed edges,
    added in good_c4_enumerate's order, one block of the numpy pass at a
    time; the ground set is all of M and N, so v(H_i) = e(M) + |N|."""
    ground, bits = _ground(p)
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    for cycles, diagonals, counted in _good_c4_blocks(p, bits):
        i = counted.sum(axis=1)
        # uncounted diagonals sort first as -1, so a copy's last i columns are A0
        a0 = np.sort(np.where(counted, diagonals, -1), axis=1)
        for k, h in enumerate(hs):
            rows = i == k
            h.add_rows(a0[rows, 2 - k:], cycles[rows])
    return ConstraintSystem(ground, *hs)


# -- saturation and the permissible greedy ------------------------------------


def _saturation_caps(ell: int, n: int) -> tuple[int, int, int]:
    """The (1,0), (0,1) and (0,2) degree caps l^2, floor(l^3/n) and l, with
    n = 0 (no pairs) read as 1.  A pair must actually appear to be saturated,
    so each cap is at least 1, which only moves floor(l^3/n) < 1."""
    return max(ell * ell, 1), max(ell**3 // max(n, 1), 1), max(ell, 1)


def _saturated(
    p: Pregraph, bits: Sequence[int], ks: Iterable[int],
    a_deg: Sequence[Counter[int]], b_deg: Sequence[Counter[int]], t10: int, t01: int,
) -> tuple[int, int]:
    """The neutralization rule on the mixed edges of p among the ground
    indices ks, with pair index bits[k] and A-side and B-side degrees
    a_deg[i][k] and b_deg[i][k] in H_i: the pair masks (moved, to_fixed) of
    the edges at the (1,0) cap in H_1 or H_2, which go to E, together with
    those at the (0,1) cap in some H_i, which go to N."""
    moved = to_fixed = 0
    for k in ks:
        bit = 1 << bits[k]
        if not p.M & bit:
            continue
        if a_deg[1][k] >= t10 or a_deg[2][k] >= t10:
            moved, to_fixed = moved | bit, to_fixed | bit
        elif any(d[k] >= t01 for d in b_deg):
            moved |= bit
    return moved, to_fixed


def _moved_pregraph(p: Pregraph, moved: int, to_fixed: int) -> Pregraph:
    """p with the mixed pairs of the mask moved taken to E when they are in
    to_fixed, and to N otherwise."""
    return _from_masks(p.n, p.M & ~moved, p.E | to_fixed, p.N | moved & ~to_fixed)


def preprocess_saturation(
    p: Pregraph, h0: UniformHypergraph, h1: UniformHypergraph, h2: UniformHypergraph, ell: int
) -> Pregraph:
    """Two-phase neutralization of saturated single edges.

    Phase 1 moves every mixed edge f with deg({f}, empty) at the l^2 cap in
    H_1 or H_2 into E (its copies stop being good at all); phase 2 moves
    every remaining f with deg(empty, {f}) at the floor(l^3/n) cap in any
    H_i into N (it stops serving as a cycle edge but still counts as an
    induced extra).  Degrees are taken against the ground indexing of p.
    """
    a_deg, b_deg = [Counter(), Counter(), Counter()], [Counter(), Counter(), Counter()]
    for a, b, h in zip(a_deg, b_deg, (h0, h1, h2)):
        for c, mult in h.constraints():
            a.update(dict.fromkeys(c.a0, mult))
            b.update(dict.fromkeys(c.a1, mult))
    t10, t01, _ = _saturation_caps(ell, p.n)
    bits = _ground(p)[1]
    return _moved_pregraph(p, *_saturated(p, bits, range(len(bits)), a_deg, b_deg, t10, t01))


@dataclass(frozen=True)
class PermissibleResult:
    status: str  # "success" or "exhausted"
    i: Optional[int]
    hypergraph: Optional[UniformHypergraph]
    system: ConstraintSystem  # all three hypergraphs as built
    preprocessed: Pregraph  # the final neutralized pregraph
    insertions: int

    @property
    def succeeded(self) -> bool:
        return self.status == "success"


def _permissible_target(beta: float, ell: int) -> float:
    """The float beta*l^4 that the greedy stops at and the tree re-checks."""
    return beta * ell**4


def build_permissible(p: Pregraph, ell: int, beta: float) -> PermissibleResult:
    """Greedy construction of a permissible H_i with at least beta*l^4 edges.

    The next copy inserted is always the first good copy of the current
    neutralized pregraph (in enumeration order) whose cycle contains no
    (0,2)-saturated pair of any H_i, where the neutralized pregraph is p
    after the rule ``_saturated`` at the current degrees; all three caps
    come from one ``_saturation_caps`` call.
    Insertion order makes the result deterministic; the saturation rules
    make every intermediate hypergraph permissible by construction.

    One pass over a lazy stream of the good copies of p finds every such
    copy, and the pass stops as soon as the target is met.  Degrees only
    rise, so neutralization only moves mixed edges out of M and into E or N;
    a copy's diagonal count i never changes; and saturated pairs stay
    blocked.  A good copy of p is good in the neutralized pregraph exactly
    while its cycle edges are mixed and no diagonal it counts is fixed, so a
    copy that fails once fails for good, and a cursor that never moves back
    meets the copies in the same order as a full rescan would.  Each copy is
    inserted at most once, since its cycle fixes its vertex set and diagonals.
    An insertion changes the degrees of its own ground indices only, so
    ``_saturated`` is re-applied to those alone, and the neutralized
    pregraph itself is built once, for the result.
    """
    if ell < 1:
        raise PreconditionError(f"scale parameter must be at least 1, got {ell}")
    if not 0 < beta < math.inf:  # false for NaN
        raise PreconditionError(f"target density beta must be positive and finite, got {beta}")
    ground, bits = _ground(p)
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    # incremental degree state, equivalent to querying the growing h_i
    deg10 = [Counter(), Counter(), Counter()]  # A-side singletons (only i = 1, 2 used)
    deg01 = [Counter(), Counter(), Counter()]  # B-side singletons
    pair_deg = [Counter(), Counter(), Counter()]  # B-side pairs
    blocked: set[tuple[int, int]] = set()
    moved = to_fixed = 0  # pair masks of the mixed edges of p neutralized so far, and of those in E
    t10, t01, t02 = _saturation_caps(ell, p.n)
    target = _permissible_target(beta, ell)
    sizes = [0, 0, 0]  # e(H_i): each insertion adds one constraint

    copies = _good_c4_stream(p, bits)  # one cursor for the whole run
    while max(sizes) < target:
        c = None
        for cycle, extra, a0, a1 in copies:
            if cycle & moved or extra & to_fixed:
                continue
            if not any(t in blocked for t in itertools.combinations(a1, 2)):
                c = Constraint(a0, a1)
                break
        if c is None:
            return PermissibleResult(
                "exhausted", None, None, ConstraintSystem(ground, *hs),
                _moved_pregraph(p, moved, to_fixed), sum(sizes),
            )
        i = len(c.a0)
        hs[i].add(c)
        sizes[i] += 1
        deg10[i].update(c.a0)
        deg01[i].update(c.a1)
        for t in itertools.combinations(c.a1, 2):
            pair_deg[i][t] += 1
            if pair_deg[i][t] >= t02:
                blocked.add(t)
        new_moved, new_fixed = _saturated(p, bits, (*c.a0, *c.a1), deg10, deg01, t10, t01)
        moved, to_fixed = moved | new_moved, to_fixed | new_fixed
    winner = max(range(3), key=lambda i: (sizes[i] >= target, sizes[i]))
    return PermissibleResult(
        "success", winner, hs[winner], ConstraintSystem(ground, *hs),
        _moved_pregraph(p, moved, to_fixed), sum(sizes),
    )


# -- structural classification --------------------------------------------------


def _adjacency(n: int, mask: int) -> list[int]:
    """Per-vertex neighbour bitmasks of the graph on 0..n-1 with pair mask
    mask: the pairs (u, v), u < v, are the v bits from C(v, 2) on."""
    adj = [0] * n
    for v in range(1, n):
        below = (mask >> (v * (v - 1) // 2)) & ((1 << v) - 1)
        adj[v] |= below
        while below:
            low = below & -below
            adj[low.bit_length() - 1] |= 1 << v
            below ^= low
    return adj


def _base_pairs(b: int) -> np.ndarray:
    """The pair mask of the pairs within S, for every vertex subset S of
    0..b-1 (a bitmask): S + v adds the pairs (u, v), u in S, at bit C(v, 2) + u."""
    pairs = np.zeros(1 << b, dtype=np.uint64)
    for v in range(1, b):
        pairs[1 << v : 2 << v] = pairs[: 1 << v] | np.arange(1 << v, dtype=np.uint64) << np.uint64(v * (v - 1) // 2)
    return pairs


_BASE_VERTICES = 8  # the base block of _subset_pair_counts: C(8, 2) = 28 pair bits fit a uint64
_BASE_PAIRS = _base_pairs(_BASE_VERTICES)


def _subset_pair_counts(adj: Sequence[int]) -> np.ndarray:
    """count[S] = edges with both endpoints in the vertex subset S (a
    bitmask), for every S, given the neighbour bitmasks adj of the graph.

    The S within the base block, vertices 0..b-1 for b = min(n, 8), take one
    popcount of ``_BASE_PAIRS[S]`` & the graph's pair mask on the block.  A
    doubling pass adds each further vertex v: count[S + v] = count[S] +
    |adj[v] & S| for the subsets S of 0..v-1.
    """
    n = len(adj)
    b = min(n, _BASE_VERTICES)
    # row v of the pair mask, the pairs (u, v) with u < v, starts at bit C(v, 2)
    low = sum((adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2) for v in range(1, b))
    count = np.zeros(1 << n, dtype=np.int64)
    count[: 1 << b] = np.bitwise_count(_BASE_PAIRS[: 1 << b] & np.uint64(low))
    masks = np.arange(1 << n, dtype=np.int64)
    for v in range(b, n):
        count[1 << v : 2 << v] = count[: 1 << v] + np.bitwise_count(masks[: 1 << v] & adj[v])
    return count


@functools.lru_cache(maxsize=None)
def _subset_sizes(n: int) -> np.ndarray:
    """|S| for every vertex subset S of 0..n-1 (a bitmask)."""
    return np.bitwise_count(np.arange(1 << n))


def _by_subset_size(n: int, f) -> np.ndarray:
    """f(|S|) for every vertex subset S of 0..n-1 (a bitmask), calling f
    once per size, so each value is the Python float or bool f returns."""
    return np.array([f(size) for size in range(n + 1)])[_subset_sizes(n)]


def _pairs_within(adj: Sequence[int], mask: int) -> int:
    """Edges with both endpoints in the vertex bitmask."""
    return sum((adj[v] & mask).bit_count() for v in range(len(adj)) if (mask >> v) & 1) // 2


def _degree_order(adj: Sequence[int]) -> list[int]:
    """The vertices by degree, highest first, ties ascending (the sort is stable)."""
    deg = [a.bit_count() for a in adj]
    return sorted(range(len(adj)), key=deg.__getitem__, reverse=True)


def _vertices(mask: int, n: int) -> tuple[int, ...]:
    """The vertices in the bitmask, ascending."""
    return tuple(v for v in range(n) if (mask >> v) & 1)


@dataclass(frozen=True)
class AlmostSplitResult:
    found: bool
    exact: bool
    u: Optional[tuple[int, ...]] = None
    w: Optional[tuple[int, ...]] = None


@functools.lru_cache(maxsize=1)
def _near_clique_scan(p: Pregraph, eps: float) -> tuple[Optional[int], frozenset[int]]:
    """Test all 2^n vertex subsets U at once, from the E and M subset counts.
    U is dense when e(E) <= C(|U|,2) and e_E(U) >= (1-eps) C(|U|,2).  Returns
    the smallest dense U (a bitmask) with e_M(U^c) <= 7*sqrt(eps)*|U|*n, or
    None, for the almost-split test; and the sizes of the dense U with
    e_M(U^c) > 7*sqrt(eps)*n*|U|, for case 2 of the hypergraph selection.
    A tree node asks both of one frozen p, so the last answers are kept."""
    n = p.n
    e_e, fixed_in = p.e_e(), _subset_pair_counts(_adjacency(n, p.E))
    dense = fixed_in >= _by_subset_size(  # the floor is inf where C(|U|,2) < e(E)
        n, lambda size: (1 - eps) * math.comb(size, 2) if e_e <= math.comb(size, 2) else math.inf)
    if not dense.any():
        return None, frozenset()
    mixed_out = _subset_pair_counts(_adjacency(n, p.M))[::-1]  # full ^ S runs backwards
    split = dense & (mixed_out <= _by_subset_size(n, lambda size: 7 * math.sqrt(eps) * size * n))
    heavy = dense & (mixed_out > _by_subset_size(n, lambda size: 7 * math.sqrt(eps) * n * size))
    sizes = frozenset(_subset_sizes(n)[heavy].tolist())
    return (int(np.argmax(split)) if split.any() else None), sizes


def _swap_climb(adj_u: Sequence[int], adj_w: Sequence[int], uset: set[int], outsiders: Sequence[int],
                rounds: int, floor: float, budget: float) -> tuple[int, int, bool]:
    """Single-vertex swaps from the vertex set uset, with e(U) counted in
    the graph of neighbour bitmasks adj_u and e(W), W the rest, in adj_w.

    A set passes when e(U) >= floor and e(W) <= budget.  U itself is tested
    first; then each round trades a member (in the iteration order of the
    Python set U) for an outsider (in the given order), each trial counted
    from the neighbour bitmasks of the two swapped vertices.  The first
    trial that passes is returned at once; the first one that raises e(U)
    is taken, U becomes (U - {out}) | {in} and a new round starts.  The
    climb ends after a round with no swap taken, or after the given number
    of rounds.  Returns (U as a bitmask, e(U), whether that U passed).
    """
    full = (1 << len(adj_u)) - 1
    umask = sum(1 << v for v in uset)
    inside, outside = _pairs_within(adj_u, umask), _pairs_within(adj_w, full ^ umask)
    if inside >= floor and outside <= budget:
        return umask, inside, True
    for _ in range(rounds):
        candidates = [v for v in outsiders if not (umask >> v) & 1]
        for v_out in list(uset):
            kept = umask ^ (1 << v_out)
            rest = full ^ kept  # W and v_out
            u_kept = inside - (adj_u[v_out] & kept).bit_count()
            w_kept = outside + (adj_w[v_out] & rest).bit_count()
            for v_in in candidates:
                t_u = u_kept + (adj_u[v_in] & kept).bit_count()
                if t_u >= floor and w_kept - (adj_w[v_in] & rest).bit_count() <= budget:
                    return kept | 1 << v_in, t_u, True
                if t_u > inside:
                    uset = (uset - {v_out}) | {v_in}
                    umask, inside, outside = kept | 1 << v_in, t_u, w_kept - (adj_w[v_in] & rest).bit_count()
                    break
            else:
                continue
            break  # a swap was taken: next round
        else:
            break  # no swap raised e(U)
    return umask, inside, False


def is_almost_split_pregraph(p: Pregraph, eps: float) -> AlmostSplitResult:
    """Search for a vertex split (U, W) with E concentrated on a near-clique
    U and few mixed edges inside W: e(E) <= C(|U|,2), e_E(U) >= (1-eps) of
    that clique, and e_M(W) <= 7*sqrt(eps)*|U|*n.

    Up to n = 16 every one of the 2^n subsets U is tested at once by the
    near-clique scan, and the smallest U as a bitmask is returned.
    Beyond that, for each size ``_swap_climb`` starts from the top of the
    E-degree order, with outsiders in that order, e(U) in E and e(W) in M,
    at most n rounds and the almost-split test above on each trial.  The
    greedy result is flagged non-exact.
    """
    if not 0 < eps < math.inf:  # false for NaN
        raise PreconditionError(f"eps must be positive and finite, got {eps}")
    n = p.n
    full = (1 << n) - 1

    def split(umask: int, exact: bool) -> AlmostSplitResult:
        return AlmostSplitResult(True, exact, _vertices(umask, n), _vertices(full ^ umask, n))

    if n <= EXACT_SUBSET_LIMIT:
        umask = _near_clique_scan(p, eps)[0]
        return AlmostSplitResult(False, True) if umask is None else split(umask, True)
    adj_e, adj_m = _adjacency(n, p.E), _adjacency(n, p.M)
    order = _degree_order(adj_e)
    for size in range(n + 1):
        # no U of this size passes when e(E) > C(size, 2), whatever the swaps
        if p.e_e() > math.comb(size, 2):
            continue
        floor = (1 - eps) * math.comb(size, 2)
        budget = 7 * math.sqrt(eps) * size * n
        umask, _, found = _swap_climb(adj_e, adj_m, set(order[:size]), order, n, floor, budget)
        if found:
            return split(umask, False)
    return AlmostSplitResult(False, False)


def _concentrated_ell(p: Pregraph, eps: float, r: int) -> Optional[int]:
    """Case 2 of the selection: the largest ell with ell^2 >= r and a size-ell
    U that is dense (see the near-clique scan) with e_M(U^c) above
    7*sqrt(eps)*n*ell; None if none.  Exact up to n = 16; beyond it only the
    ``_densest_subset`` of each size in E is examined, from the E rows and
    E-degree order built once per call."""
    n = p.n
    if n <= EXACT_SUBSET_LIMIT:
        return max((ell for ell in _near_clique_scan(p, eps)[1] if ell * ell >= r), default=None)
    adj_e, adj_m = _adjacency(n, p.E), _adjacency(n, p.M)
    order = _degree_order(adj_e)
    full = (1 << n) - 1
    for ell in range(n, 0, -1):
        if ell * ell < r or p.e_e() > math.comb(ell, 2):
            continue
        umask, inside, _ = _densest_subset(adj_e, order, ell)
        if inside < (1 - eps) * math.comb(ell, 2):
            continue
        if _pairs_within(adj_m, full ^ umask) > 7 * math.sqrt(eps) * n * ell:
            return ell
    return None


@dataclass(frozen=True)
class LeafClassification:
    kind: str  # almost_split | ratio_leaf | e_overflow | m_underflow | not_leaf
    ell: Optional[int] = None

    @property
    def is_leaf(self) -> bool:
        return self.kind != "not_leaf"


def m_underflow_threshold(n: int, m: int) -> float:
    """Mixed-edge floor sqrt(n^2 m / (2^8 ln(n^2/m))) below which a pregraph
    can describe only a negligible share of m-edge graphs."""
    if n < 0:
        raise PreconditionError(f"need n >= 0, got n={n}")
    if m < 1:
        raise PreconditionError(f"edge budget m must be at least 1, got {m}")
    if m >= n * n:
        raise PreconditionError(f"need m < n^2 for the log to be positive, got n={n}, m={m}")
    return math.sqrt(n * n * m / (2**8 * math.log(n * n / m)))


def is_leaf_pregraph(p: Pregraph, m: int, eps: float, delta: float) -> LeafClassification:
    """Ordered leaf test: eps-almost split, then the ratio condition
    (some l with e(E) >= C(l,2) and e(M) <= (1-delta)*l*n), then edge
    overflow e(E) > m, then the mixed-edge underflow floor."""
    if m < 1:
        raise PreconditionError(f"edge budget m must be at least 1, got {m}")
    if not 0 < delta <= 1:
        raise PreconditionError(f"delta must lie in (0, 1], got {delta}")
    if m >= p.n * p.n:
        raise PreconditionError(f"need m < n^2, got n={p.n}, m={m}")
    if is_almost_split_pregraph(p, eps).found:
        return LeafClassification("almost_split")
    ell = 1
    while math.comb(ell, 2) <= p.e_e():
        if p.e_m() <= (1 - delta) * ell * p.n:
            return LeafClassification("ratio_leaf", ell=ell)
        ell += 1
    if p.e_e() > m:
        return LeafClassification("e_overflow")
    if p.e_m() < m_underflow_threshold(p.n, m):
        return LeafClassification("m_underflow")
    return LeafClassification("not_leaf")


@dataclass(frozen=True)
class CliqueCost:
    cost: int
    exact: bool
    subset: tuple[int, ...]


def close_to_clique_cost(n: int, edges: Iterable[Pair], ell: int) -> CliqueCost:
    """Fewest edge additions plus deletions turning the graph into K_ell:
    min over ell-subsets U of (C(ell,2) - e(U)) + (e(G) - e(U)), with U the
    ``_densest_subset`` of size ell, from the rows built from the edges.
    Exact for n <= 16; the swap climb's result beyond is flagged non-exact.
    """
    mask = _pair_mask(edges, n)
    if not 0 <= ell <= n:
        raise PreconditionError(f"clique size {ell} outside 0..{n}")
    adj = _adjacency(n, mask)
    umask, inside, exact = _densest_subset(adj, _degree_order(adj), ell)
    total = mask.bit_count()
    return CliqueCost(math.comb(ell, 2) - inside + total - inside, exact, _vertices(umask, n))


def _densest_subset(adj: Sequence[int], order: Sequence[int], ell: int) -> tuple[int, int, bool]:
    """(U as a bitmask, e(U), exact) for an ell-subset U with the most edges
    in the graph of neighbour bitmasks adj.  Up to n = 16, U is the first of
    the densest as a bitmask, from all 2^n subset counts.  Beyond, U is where
    ``_swap_climb`` ends from the first ell vertices of order, with outsiders
    ascending, an empty second graph, and the floor and round cap
    C(ell,2) + 1: no U reaches that floor, and each swap taken raises e(U),
    so it climbs until no swap does."""
    n = len(adj)
    if n <= EXACT_SUBSET_LIMIT:
        candidates = np.flatnonzero(_subset_sizes(n) == ell)
        counts = _subset_pair_counts(adj)[candidates]
        best = int(np.argmax(counts))  # the first of the densest
        return int(candidates[best]), int(counts[best]), True
    target = math.comb(ell, 2)
    umask, inside, _ = _swap_climb(adj, [0] * n, set(order[:ell]), range(n), target + 1, target + 1, 0)
    return umask, inside, False
