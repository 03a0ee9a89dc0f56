"""Brute-force ground truth for small graphs.

Everything here is exhaustive or near-exhaustive and exists to pin down the
behaviour of the probabilistic and container machinery on desk-scale inputs:
induced-C4 detection, exhaustive counts of induced-C4-free graphs by edge
count, split-graph recognition with a witness partition, quasirandomness and
closeness-to-split checked over all vertex subsets, a rejection sampler that
deletes one edge per 4-cycle, and a branch-and-bound C4-free subgraph
maximizer.  Counting is over labeled graphs throughout.  The sampler's work
grows with its draw, not with C(n, 2): it counts 4-cycles over the wedges of
the drawn edges, and, since deleting edges only lowers codegrees, its sweep
visits only the pairs with at least two common neighbours in the draw.

The exhaustive F(n, m) tables and member lists come from vertex extension
(the generation scheme of McKay, "Isomorph-free exhaustive generation",
without its canonicity step, which labeled graphs do not need).  Every
induced-C4-free graph on n vertices is one on the first n-1 vertices plus a
last vertex x with some neighbourhood S, and only the induced 4-cycles
through x need checking: x-a-c-b-x with a, b in S, c outside S, ac and bc
edges and ab a non-edge.  So each S comes with a fixed list of (subset,
pattern) tests over the old pairs, applied vectorized to the F_{n-1} layer
with m - |S| edges.  Below n = 8 each layer is built on first demand, from
only the layers it reaches in turn, and kept, so one (n, m) builds only what
it needs.  A second, structurally different implementation (depth-first
over pair decisions with pruning) recomputes the same tables so the two can
be cross-validated; n is capped at 8 and 7 respectively, with a scale
refusal beyond.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from . import graph6
from .errors import PreconditionError, ScaleError
from .pregraph import (EXACT_SUBSET_LIMIT, _adjacency, _by_subset_size, _degree_order, _mask_bits,
                       _pair_mask, _pairs_within, _subset_pair_counts, _vertices)

__all__ = [
    "LabeledGraph",
    "is_induced_c4_free",
    "induced_c4_patterns",
    "fnm_table",
    "count_Fnm_c4",
    "fnm_table_backtracking",
    "enumerate_fnm_masks",
    "SplitPartition",
    "is_split",
    "QuasirandomCheck",
    "is_eps_quasirandom",
    "CloseSplitCheck",
    "is_eps_close_to_split",
    "DeletionSample",
    "sample_c4free_by_deletion",
    "ex_c4",
]

EXACT_COUNT_LIMIT = 8
BACKTRACK_LIMIT = 7
EX_C4_LIMIT = 14
QUASIRANDOM_SEED = 0
QUASIRANDOM_SAMPLES = 20000


@dataclass(frozen=True)
class LabeledGraph:
    """Graph on vertices 0..n-1 with edges as a bitmask over pair indices."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0:  # C(n, 2) is positive again at n = -1 and -2
            raise ValueError(f"need n >= 0, got n={self.n}")
        npairs = self.n * (self.n - 1) // 2
        if self.mask < 0 or self.mask >> npairs:
            raise ValueError("edge mask outside the pair range")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        return LabeledGraph(n, _pair_mask(edges, n))

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"pair ({u}, {v}) outside vertex range 0..{self.n - 1}")
        return bool((self.mask >> graph6.pair_index(u, v)) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in pair-index order."""
        u, v = graph6.pairs_from_indices(np.flatnonzero(_mask_bits(self.mask, math.comb(self.n, 2))))
        return list(zip(u.tolist(), v.tolist()))

    def degree(self, v: int) -> int:
        """The popcount of v's row in ``adjacency_masks``."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return _adjacency(self.n, self.mask)[v].bit_count()

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks over vertices (not pairs)."""
        return _adjacency(self.n, self.mask)

    def to_graph6(self) -> str:
        return graph6.encode(self.n, self.mask)

    @staticmethod
    def from_graph6(text: str) -> "LabeledGraph":
        n, mask = graph6.decode(text)
        return LabeledGraph(n, mask)


def is_induced_c4_free(g: LabeledGraph) -> bool:
    """Scan non-adjacent pairs u, v with early exit; they are opposite corners
    of an induced C4 exactly when two of their common neighbours are
    non-adjacent."""
    adj = g.adjacency_masks()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (adj[u] >> v) & 1:
                continue
            common = adj[u] & adj[v]
            while common:
                w = (common & -common).bit_length() - 1
                common &= common - 1
                if common & ~adj[w]:
                    return False
    return True


@lru_cache(maxsize=None)
def induced_c4_patterns(n: int) -> tuple[tuple[int, int], ...]:
    """(subset mask, exact pattern) pairs over pair-index bitmasks.

    A graph mask g induces a C4 with a given cyclic structure iff
    (g & subset) == pattern; each 4-subset yields three structures, one per
    way of pairing up the two diagonals.
    """
    pats = []
    for quad in itertools.combinations(range(n), 4):
        full = 0
        for u, v in itertools.combinations(quad, 2):
            full |= 1 << graph6.pair_index(u, v)
        a, b, c, d = quad
        for d1, d2 in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            diag = (1 << graph6.pair_index(*d1)) | (1 << graph6.pair_index(*d2))
            pats.append((full, full & ~diag))
    return tuple(pats)


def _check_exact_range(n: int, m: int) -> None:
    if n > EXACT_COUNT_LIMIT:
        raise ScaleError(f"exhaustive enumeration supports n <= {EXACT_COUNT_LIMIT}, got n = {n}")
    if n < 0:
        raise PreconditionError("n must be nonnegative")
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"m = {m} outside 0..{n * (n - 1) // 2}")


@lru_cache(maxsize=None)
def _extension_patterns(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per neighbourhood S of the last vertex x = n-1 (indexed by S as a
    bitmask over 0..n-2), the (subset, pattern) pairs over the pairs of
    0..n-2 that a graph g on those vertices must avoid for g + (x, S) to stay
    induced-C4-free.

    There is one pair per a < b in S and c outside S: subset {ac, bc, ab},
    pattern {ac, bc}, the 4-cycle x-a-c-b-x with diagonals xc and ab absent.
    """
    x = n - 1
    out = []
    for s in range(1 << x):
        inside = [v for v in range(x) if (s >> v) & 1]
        outside = [v for v in range(x) if not (s >> v) & 1]
        pats = []
        for a, b in itertools.combinations(inside, 2):
            ab = 1 << graph6.pair_index(a, b)
            for c in outside:
                pat = (1 << graph6.pair_index(a, c)) | (1 << graph6.pair_index(b, c))
                pats.append((pat | ab, pat))
        out.append(tuple(pats))
    return tuple(out)


def _extension(n: int, m: int):
    """Yield (s, g, keep) for each neighbourhood S = s of the last vertex,
    ascending: g is the layer F_{n-1, m-|S|} and keep marks the g for which
    g + (x, S) is induced-C4-free.

    The pairs (u, x) come after all pairs of 0..n-2 in pair-index order, so
    the extended masks are g | s << C(n-1, 2), ascending over the whole run.
    """
    if n == 0:
        if m == 0:
            yield 0, np.zeros(1, dtype=np.uint32), np.ones(1, dtype=bool)
        return
    for s, pats in enumerate(_extension_patterns(n)):
        k = m - s.bit_count()
        if not 0 <= k <= (n - 1) * (n - 2) // 2:
            continue
        g = _layer(n - 1, k)
        bad = np.zeros(g.shape, dtype=bool)
        for subset, pat in pats:
            bad |= (g & np.uint32(subset)) == np.uint32(pat)
        yield s, g, ~bad


def _fnm_masks(n: int, m: int) -> np.ndarray:
    shift = (n - 1) * (n - 2) // 2
    parts = [g[keep] | np.uint32(s << shift) for s, g, keep in _extension(n, m)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint32)


@lru_cache(maxsize=None)
def _layer(n: int, m: int) -> np.ndarray:
    """F_{n,m}, built on first demand from the F_{n-1} layers it reaches and
    kept for the process.

    Only n < EXACT_COUNT_LIMIT is ever stored: all of F_7 is 711,359 masks,
    under 3 MB.  The top level is extended from F_7 on every call and never
    kept.
    """
    return _fnm_masks(n, m)


@lru_cache(maxsize=None)
def fnm_table(n: int) -> tuple[int, ...]:
    """Counts of labeled induced-C4-free graphs on n vertices, by edge count:
    count_Fnm_c4 at every m; refuses n above 8.  Cached per n, which is at
    most nine small tuples.
    """
    return tuple(count_Fnm_c4(n, m) for m in range(n * (n - 1) // 2 + 1))


def count_Fnm_c4(n: int, m: int) -> int:
    """|F_{n,m}|: labeled induced-C4-free graphs with exactly m edges, n <= 8.

    Exact, by extending the F_{n-1} layers that m reaches one vertex and
    counting the survivors without storing them.
    """
    _check_exact_range(n, m)
    return sum(int(np.count_nonzero(keep)) for _, _, keep in _extension(n, m))


def fnm_table_backtracking(n: int) -> tuple[int, ...]:
    """Same table as fnm_table by an independent route: depth-first over pair
    decisions, pruning as soon as a fully decided 4-subset induces a C4."""
    if n > BACKTRACK_LIMIT:
        raise ScaleError(f"backtracking scan supports n <= {BACKTRACK_LIMIT}, got n = {n}")
    npairs = n * (n - 1) // 2
    finishing: list[list[tuple[int, int]]] = [[] for _ in range(max(npairs, 1))]
    for mask, pat in induced_c4_patterns(n):
        finishing[mask.bit_length() - 1].append((mask, pat))
    counts = [0] * (npairs + 1)
    if npairs == 0:
        counts[0] = 1
        return tuple(counts)

    def walk(k: int, g: int, edges: int) -> None:
        if k == npairs:
            counts[edges] += 1
            return
        for bit in (0, 1):
            g2 = g | (bit << k)
            ok = True
            for mask, pat in finishing[k]:
                if (g2 & mask) == pat:
                    ok = False
                    break
            if ok:
                walk(k + 1, g2, edges + bit)

    walk(0, 0, 0)
    return tuple(counts)


def enumerate_fnm_masks(n: int, m: int) -> np.ndarray:
    """All edge masks of graphs in F_{n,m}, ascending, as a fresh uint32
    array; n <= 8.

    Built by extending each F_{n-1, m-|S|} layer by a last vertex with
    neighbourhood S, over all S in ascending order.
    """
    _check_exact_range(n, m)
    return _fnm_masks(n, m)


# -- split graphs -------------------------------------------------------------


@dataclass(frozen=True)
class SplitPartition:
    clique: tuple[int, ...]
    independent: tuple[int, ...]


def is_split(g: LabeledGraph) -> Optional[SplitPartition]:
    """Degree-sequence split test; returns a verified partition or None.

    With degrees sorted nonincreasingly and h the largest i with d_i >= i-1,
    the graph is split iff sum of the top h degrees equals h(h-1) plus the
    sum of the rest, in which case the top h vertices form the clique side.
    Degrees are the popcounts of the adjacency rows, and the same rows check
    the partition.  Nothing is kept after the call.
    """
    adj = g.adjacency_masks()
    deg = [a.bit_count() for a in adj]
    order = sorted(range(g.n), key=deg.__getitem__, reverse=True)  # stable: ties ascending
    degs = [deg[v] for v in order]
    h = 0
    for i in range(1, g.n + 1):
        if degs[i - 1] >= i - 1:
            h = i
    if sum(degs[:h]) != h * (h - 1) + sum(degs[h:]):
        return None
    clique = tuple(sorted(order[:h]))
    independent = tuple(sorted(order[h:]))
    cmask = sum(1 << v for v in clique)
    complete = all((adj[v] | 1 << v) & cmask == cmask for v in clique)
    if not complete or any(adj[v] & ~cmask for v in independent):  # pragma: no cover
        raise AssertionError("degree test accepted a partition that is not split")
    return SplitPartition(clique, independent)


# -- subset scans --------------------------------------------------------------


@dataclass(frozen=True)
class QuasirandomCheck:
    ok: bool
    exact: bool
    witness: Optional[tuple[int, ...]]  # a violating subset when not ok


def is_eps_quasirandom(g: LabeledGraph, eps: float) -> QuasirandomCheck:
    """Every subset on more than eps*n vertices must induce density within
    (1 +- eps) of the global one.  Exhaustive for n <= 16; beyond, it tests
    QUASIRANDOM_SAMPLES random subsets drawn from QUASIRANDOM_SEED."""
    if g.n < 2:
        raise ValueError("density needs at least two vertices")
    if not 0 <= eps < math.inf:  # false for NaN
        raise PreconditionError(f"eps must be finite and at least 0, got {eps}")
    p = g.m / math.comb(g.n, 2)
    lo, hi = (1 - eps) * p, (1 + eps) * p
    if g.n <= EXACT_SUBSET_LIMIT:
        e = _subset_pair_counts(g.adjacency_masks())
        skip = _by_subset_size(g.n, lambda size: size <= eps * g.n or size < 2)
        dens = e / _by_subset_size(g.n, lambda size: max(math.comb(size, 2), 1))
        bad = ~skip & ~((lo <= dens) & (dens <= hi))
        if bad.any():
            s = int(np.argmax(bad))  # the first violating subset
            return QuasirandomCheck(False, True, _vertices(s, g.n))
        return QuasirandomCheck(True, True, None)
    rng = random.Random(QUASIRANDOM_SEED)
    adj = g.adjacency_masks()
    for _ in range(QUASIRANDOM_SAMPLES):
        size = rng.randint(max(2, int(eps * g.n) + 1), g.n)
        subset = rng.sample(range(g.n), size)
        count = _pairs_within(adj, sum(1 << v for v in subset))
        if not lo <= count / math.comb(size, 2) <= hi:  # size >= 2 and above eps*n
            return QuasirandomCheck(False, False, tuple(sorted(subset)))
    return QuasirandomCheck(True, False, None)


@dataclass(frozen=True)
class CloseSplitCheck:
    ok: bool
    exact: bool
    partition: Optional[tuple[tuple[int, ...], tuple[int, ...]]]


def is_eps_close_to_split(g: LabeledGraph, eps: float) -> CloseSplitCheck:
    """Is there a partition A, B with A nearly complete (missing at most an
    eps fraction of its pairs) and B carrying at most eps*e(G) edges?
    Exhaustive over all 2^n partitions for n <= 16, greedy beyond."""
    if not 0 <= eps < math.inf:  # false for NaN
        raise PreconditionError(f"eps must be finite and at least 0, got {eps}")
    adj = g.adjacency_masks()
    full = (1 << g.n) - 1
    if g.n <= EXACT_SUBSET_LIMIT:
        e = _subset_pair_counts(adj)
        floor = _by_subset_size(g.n, lambda size: (1 - eps) * math.comb(size, 2))
        ok = (e >= floor) & (e[::-1] <= eps * g.m)  # e[::-1][S] = e[full ^ S]
        if ok.any():
            a = int(np.argmax(ok))  # the first passing subset
            return CloseSplitCheck(True, True, (_vertices(a, g.n), _vertices(full ^ a, g.n)))
        return CloseSplitCheck(False, True, None)
    # greedy: grow A from the top of the degree order while it stays nearly complete
    order = _degree_order(adj)
    best = None
    amask = 0
    count = 0
    for size, v in enumerate(order, start=1):
        count += (adj[v] & amask).bit_count()
        amask |= 1 << v
        if count >= (1 - eps) * math.comb(size, 2) and _pairs_within(adj, full ^ amask) <= eps * g.m:
            best = (_vertices(amask, g.n), _vertices(full ^ amask, g.n))
    return CloseSplitCheck(best is not None, False, best)


# -- deletion sampler ----------------------------------------------------------


@dataclass(frozen=True)
class DeletionSample:
    graph: Optional[LabeledGraph]
    attempts: int
    accepted: bool
    m_prime: int
    copies: int  # 4-cycle count of the last draw
    surplus_removed: int


def _derived_seed(seed: int, attempt: int) -> int:
    import hashlib

    digest = hashlib.blake2b(f"{seed}:{attempt}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _draw(npairs: int, m_prime: int, seed: int, attempt: int) -> list[int]:
    """The first m_prime pair indices of a partial Fisher-Yates shuffle of
    range(npairs), in draw order, storing only displaced positions.  Step i
    reads ``getrandbits`` with the rejection loop that ``randrange(i,
    npairs)`` runs, so it consumes the same stream and draws the same j."""
    getrandbits = random.Random(_derived_seed(seed, attempt)).getrandbits
    moved: dict[int, int] = {}
    drawn: list[int] = []
    for i in range(m_prime):
        width = npairs - i
        nbits = width.bit_length()
        r = getrandbits(nbits)
        while r >= width:
            r = getrandbits(nbits)
        j = i + r
        drawn.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return drawn


def _codegrees(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The codegree of every pair u < v with a common neighbour in the graph
    with edges (us[i], vs[i]), as keys u * n + v ascending and their counts.

    The 2m half-edges, sorted by (end, other end), are the neighbour lists of
    a CSR layout; each half-edge is paired with those after it in its list,
    so every wedge u-w-v gives the key u * n + v exactly once."""
    ends = np.concatenate((us, vs))
    others = np.concatenate((vs, us))
    order = np.argsort(ends * n + others)
    ends, others = ends[order], others[order]
    deg = np.bincount(ends, minlength=n)
    start = np.cumsum(deg) - deg
    later = start[ends] + deg[ends] - 1 - np.arange(ends.size)  # entries after it in its list
    first = np.repeat(np.arange(ends.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    return np.unique(others[first] * n + others[second], return_counts=True)


def sample_c4free_by_deletion(
    n: int, m: int, delta: float, seed: int, max_attempts: int = 1
) -> DeletionSample:
    """Draw a uniform graph with floor((1+delta)m) edges; if its 4-cycle count
    X fits into the surplus, delete one edge per cycle plus enough further
    edges (lowest pair index first) to land on exactly m, which leaves a
    C4-free and hence induced-C4-free graph.  Otherwise redraw.

    The work grows with the draw, not with C(n,2).  The draw (``_draw``) is
    a partial Fisher-Yates shuffle that stores only displaced positions and
    reads ``getrandbits`` as ``randrange`` would.  Codegrees come from wedges
    in a few numpy calls (``_codegrees``), Sum_w C(d_w, 2) keys in all, and
    X = (1/2) Sum C(codegree, 2), since each 4-cycle has two diagonals.
    Only an accepted draw builds neighbour sets.  Deleting edges only
    lowers codegrees, so the sweep that destroys the 4-cycles visits just the
    pairs with codegree at least 2 in the draw, in ascending (u, v) order,
    and deletes the lowest-index edge of each 4-cycle it still finds.
    """
    npairs = n * (n - 1) // 2
    if max_attempts < 1:
        raise PreconditionError(f"max_attempts must be at least 1, got {max_attempts}")
    if n < 0:  # C(n, 2) is positive again at n = -1 and -2
        raise PreconditionError(f"need n >= 0, got n={n}")
    if not math.isfinite((1 + delta) * m):  # also an overflow of a finite delta
        raise PreconditionError(f"(1+delta)m must be finite, got delta={delta}, m={m}")
    m_prime = int((1 + delta) * m)
    if not 0 < m <= m_prime <= npairs:
        raise PreconditionError(f"need 0 < m <= (1+delta)m <= C(n,2); got m={m}, m'={m_prime}")
    last_copies = -1
    for attempt in range(1, max_attempts + 1):
        drawn = _draw(npairs, m_prime, seed, attempt)
        us, vs = graph6.pairs_from_indices(drawn)
        keys, counts = _codegrees(n, us, vs)
        twice = int((counts * (counts - 1) // 2).sum())
        assert twice % 2 == 0
        copies = last_copies = twice // 2
        if copies > m_prime - m:
            continue
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in zip(us.tolist(), vs.tolist()):
            nbrs[u].add(v)
            nbrs[v].add(u)
        deleted: set[int] = set()
        for key in keys[counts >= 2].tolist():
            u, v = divmod(key, n)
            common = nbrs[u] & nbrs[v]
            if len(common) < 2:
                continue
            for w, x in itertools.combinations(sorted(common), 2):
                cycle = ((u, w), (w, v), (v, x), (x, u))
                if all(b in nbrs[a] for a, b in cycle):
                    k = min(graph6.pair_index(a, b) for a, b in cycle)
                    a, b = graph6.pair_from_index(k)
                    nbrs[a].discard(b)
                    nbrs[b].discard(a)
                    deleted.add(k)
        kept = sorted(k for k in drawn if k not in deleted)
        surplus = len(kept) - m
        bits = bytearray((npairs + 7) // 8)
        for k in kept[surplus:]:
            bits[k >> 3] |= 1 << (k & 7)
        out = LabeledGraph(n, int.from_bytes(bits, "little"))
        return DeletionSample(out, attempt, True, m_prime, copies, surplus)
    return DeletionSample(None, max_attempts, False, m_prime, last_copies, 0)


# -- extremal subgraphs ---------------------------------------------------------


def _find_c4(n: int, adj: list[int]) -> Optional[tuple[int, int, int, int]]:
    for u, v in itertools.combinations(range(n), 2):
        common = adj[u] & adj[v]
        if common.bit_count() >= 2:
            w, x = _vertices(common, n)[:2]
            return (u, w, v, x)
    return None


def ex_c4(g: LabeledGraph) -> int:
    """Most edges of a subgraph of g with no 4-cycle, by branch and bound."""
    if g.n > EX_C4_LIMIT:
        raise ScaleError(f"ex_c4 supports n <= {EX_C4_LIMIT}, got n = {g.n}")
    best = 0
    seen: set[int] = set()

    def walk(mask: int) -> None:
        nonlocal best
        if mask in seen:
            return
        seen.add(mask)
        count = mask.bit_count()
        if count <= best:
            return
        cyc = _find_c4(g.n, _adjacency(g.n, mask))
        if cyc is None:
            best = max(best, count)
            return
        u, w, v, x = cyc
        for a, b in ((u, w), (w, v), (v, x), (x, u)):
            walk(mask & ~(1 << graph6.pair_index(a, b)))

    walk(g.mask)
    return best
