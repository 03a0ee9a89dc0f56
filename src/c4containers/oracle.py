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
pattern) tests over the old pairs, applied vectorized to the stored F_{n-1}
layers.  A second, structurally different implementation (depth-first over
pair decisions with pruning) recomputes the same tables so the two can be
cross-validated; n is capped at 8 and 7 respectively, with a scale refusal
beyond.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from . import graph6
from .errors import ScaleError
from .pregraph import _by_subset_size, _subset_pair_counts, _vertices

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
SUBSET_SCAN_LIMIT = 16
EX_C4_LIMIT = 14


def _bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


@dataclass(frozen=True)
class LabeledGraph:
    """Graph on vertices 0..n-1 with edges as a bitmask over pair indices."""

    n: int
    mask: int

    def __post_init__(self):
        npairs = self.n * (self.n - 1) // 2
        if self.mask < 0 or self.mask >> npairs:
            raise ValueError("edge mask outside the pair range")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "LabeledGraph":
        mask = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            mask |= 1 << graph6.pair_index(u, v)
        return LabeledGraph(n, mask)

    @property
    def m(self) -> int:
        return self.mask.bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.mask >> graph6.pair_index(u, v)) & 1)

    def _pair_bits(self) -> np.ndarray:
        """Bit k of the mask at position k, unpacked from its bytes once."""
        npairs = self.n * (self.n - 1) // 2
        raw = np.frombuffer(self.mask.to_bytes((npairs + 7) // 8, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[:npairs]

    def edges(self) -> list[tuple[int, int]]:
        """The edges (u, v), u < v, in pair-index order."""
        ks = np.flatnonzero(self._pair_bits())
        # pair index k = C(v, 2) + u, so v is the last vertex with C(v, 2) <= k
        starts = np.arange(self.n) * (np.arange(self.n) - 1) // 2
        v = np.searchsorted(starts, ks, side="right") - 1
        return list(zip((ks - starts[v]).tolist(), v.tolist()))

    def degree(self, v: int) -> int:
        """The popcount of v's adjacency row: pairs (u, v) with u < v are
        the v consecutive bits from C(v, 2), and (v, w) with w > v is bit
        C(w, 2) + v."""
        bits = self._pair_bits()
        below = bits[v * (v - 1) // 2 : v * (v + 1) // 2]
        w = np.arange(v + 1, self.n)
        return int(below.sum()) + int(bits[w * (w - 1) // 2 + v].sum())

    def adjacency_masks(self) -> list[int]:
        """Per-vertex neighbor bitmasks over vertices (not pairs)."""
        adj = [0] * self.n
        for v in range(1, self.n):
            below = (self.mask >> (v * (v - 1) // 2)) & ((1 << v) - 1)
            adj[v] |= below
            while below:
                low = below & -below
                adj[low.bit_length() - 1] |= 1 << v
                below ^= low
        return adj

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


def _check_exact_range(n: int) -> None:
    if n > EXACT_COUNT_LIMIT:
        raise ScaleError(f"exhaustive enumeration supports n <= {EXACT_COUNT_LIMIT}, got n = {n}")
    if n < 0:
        raise ValueError("n must be nonnegative")


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
    layers = _layers(n - 1)
    for s, pats in enumerate(_extension_patterns(n)):
        k = m - s.bit_count()
        if not 0 <= k < len(layers):
            continue
        g = layers[k]
        bad = np.zeros(g.shape, dtype=bool)
        for subset, pat in pats:
            bad |= (g & np.uint32(subset)) == np.uint32(pat)
        yield s, g, ~bad


def _fnm_masks(n: int, m: int) -> np.ndarray:
    shift = (n - 1) * (n - 2) // 2
    parts = [g[keep] | np.uint32(s << shift) for s, g, keep in _extension(n, m)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint32)


@lru_cache(maxsize=None)
def _layers(n: int) -> tuple[np.ndarray, ...]:
    """F_n split by edge count, built from F_{n-1} and kept for the process.

    Only n < EXACT_COUNT_LIMIT is ever stored (F_7 is 711,359 masks, under
    3 MB); the top level is extended from it on demand.
    """
    return tuple(_fnm_masks(n, m) for m in range(n * (n - 1) // 2 + 1))


@lru_cache(maxsize=None)
def fnm_table(n: int) -> tuple[int, ...]:
    """Counts of labeled induced-C4-free graphs on n vertices, by edge count.

    Exact, by extending the stored F_{n-1} layers one vertex and counting the
    survivors without storing them; refuses n above 8.  Cached per n, which
    is at most nine small tuples.
    """
    _check_exact_range(n)
    return tuple(
        sum(int(np.count_nonzero(keep)) for _, _, keep in _extension(n, m))
        for m in range(n * (n - 1) // 2 + 1)
    )


def count_Fnm_c4(n: int, m: int) -> int:
    """|F_{n,m}|: labeled induced-C4-free graphs with exactly m edges, n <= 8."""
    table = fnm_table(n)
    if not 0 <= m < len(table):
        raise ValueError(f"m = {m} outside 0..{len(table) - 1}")
    return table[m]


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
    _check_exact_range(n)
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
    """
    adj = g.adjacency_masks()
    deg = [a.bit_count() for a in adj]
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
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
    for v in clique:
        if (adj[v] | 1 << v) & cmask != cmask:  # pragma: no cover - split theorem guarantees this
            raise AssertionError("degree test accepted but clique side is not complete")
    for v in independent:
        if adj[v] & ~cmask:  # pragma: no cover
            raise AssertionError("degree test accepted but independent side has an edge")
    return SplitPartition(clique, independent)


# -- subset scans --------------------------------------------------------------


@dataclass(frozen=True)
class QuasirandomCheck:
    ok: bool
    exact: bool
    witness: Optional[tuple[int, ...]]  # a violating subset when not ok


def is_eps_quasirandom(
    g: LabeledGraph, eps: float, *, seed: int = 0, samples: int = 20000
) -> QuasirandomCheck:
    """Every subset on more than eps*n vertices must induce density within
    (1 +- eps) of the global one.  Exhaustive for n <= 16, sampled beyond."""
    if g.n < 2:
        raise ValueError("density needs at least two vertices")
    p = g.m / math.comb(g.n, 2)
    lo, hi = (1 - eps) * p, (1 + eps) * p

    def bad(size: int, count: int) -> bool:
        if size <= max(1, int(eps * g.n)) or (size > g.n):
            return False
        if size * (size - 1) == 0:
            return False
        dens = count / math.comb(size, 2)
        return not (lo <= dens <= hi)

    if g.n <= SUBSET_SCAN_LIMIT:
        e = _subset_pair_counts(g.adjacency_masks())
        skip = _by_subset_size(g.n, lambda size: size <= eps * g.n or size < 2)
        dens = e / _by_subset_size(g.n, lambda size: max(math.comb(size, 2), 1))
        bad = ~skip & ~((lo <= dens) & (dens <= hi))
        if bad.any():
            s = int(np.argmax(bad))  # the first violating subset
            return QuasirandomCheck(False, True, _vertices(s, g.n))
        return QuasirandomCheck(True, True, None)
    rng = random.Random(seed)
    adj = g.adjacency_masks()
    for _ in range(samples):
        size = rng.randint(max(2, int(eps * g.n) + 1), g.n)
        subset = rng.sample(range(g.n), size)
        smask = 0
        count = 0
        for v in subset:
            count += (adj[v] & smask).bit_count()
            smask |= 1 << v
        if bad(size, count):
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
    adj = g.adjacency_masks()
    if g.n <= SUBSET_SCAN_LIMIT:
        e = _subset_pair_counts(adj)
        full = (1 << g.n) - 1
        floor = _by_subset_size(g.n, lambda size: (1 - eps) * math.comb(size, 2))
        ok = (e >= floor) & (e[::-1] <= eps * g.m)  # e[::-1][S] = e[full ^ S]
        if ok.any():
            a = int(np.argmax(ok))  # the first passing subset
            return CloseSplitCheck(True, True, (_vertices(a, g.n), _vertices(full ^ a, g.n)))
        return CloseSplitCheck(False, True, None)
    # greedy: grow A from the top of the degree order while it stays nearly complete
    order = sorted(range(g.n), key=lambda v: (-adj[v].bit_count(), v))
    best = None
    amask = 0
    count = 0
    for size, v in enumerate(order, start=1):
        count += (adj[v] & amask).bit_count()
        amask |= 1 << v
        if count >= (1 - eps) * math.comb(size, 2):
            rest = [u for u in range(g.n) if not (amask >> u) & 1]
            eb = sum(1 for x, y in itertools.combinations(rest, 2) if g.has_edge(x, y))
            if eb <= eps * g.m:
                best = (
                    tuple(v for v in range(g.n) if (amask >> v) & 1),
                    tuple(rest),
                )
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


def sample_c4free_by_deletion(
    n: int, m: int, delta: float, seed: int, max_attempts: int = 1
) -> DeletionSample:
    """Draw a uniform graph with floor((1+delta)m) edges; if its 4-cycle count
    X fits into the surplus, delete one edge per cycle plus enough further
    edges (lowest pair index first) to land on exactly m, which leaves a
    C4-free and hence induced-C4-free graph.  Otherwise redraw.

    The work grows with the draw, not with C(n,2).  The partial Fisher-Yates
    shuffle stores only displaced positions.  Codegrees come from wedges:
    each pair of neighbours of a vertex gains one, Sum_w C(d_w, 2) steps, and
    X = (1/2) Sum C(codegree, 2), since each 4-cycle has two diagonals.
    Deleting edges only lowers codegrees, so the sweep that destroys the
    4-cycles visits just the pairs with codegree at least 2 in the draw, in
    ascending (u, v) order, and deletes the lowest-index edge of each 4-cycle
    it still finds.
    """
    npairs = n * (n - 1) // 2
    m_prime = int((1 + delta) * m)
    if not 0 < m <= m_prime <= npairs:
        raise ValueError(f"need 0 < m <= (1+delta)m <= C(n,2); got m={m}, m'={m_prime}")
    last_copies = -1
    for attempt in range(1, max_attempts + 1):
        rng = random.Random(_derived_seed(seed, attempt))
        moved: dict[int, int] = {}
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i in range(m_prime):
            j = rng.randrange(i, npairs)
            u, v = graph6.pair_from_index(moved.get(j, j))
            moved[j] = moved.get(i, i)
            nbrs[u].append(v)
            nbrs[v].append(u)
        wedges = (itertools.combinations(sorted(ws), 2) for ws in nbrs)
        codeg = Counter(itertools.chain.from_iterable(wedges))
        twice = sum(c * (c - 1) // 2 * k for c, k in Counter(codeg.values()).items())
        assert twice % 2 == 0
        copies = last_copies = twice // 2
        if copies > m_prime - m:
            continue
        adj = [sum(1 << w for w in ws) for ws in nbrs]
        for u, v in sorted(pair for pair, c in codeg.items() if c >= 2):
            common = adj[u] & adj[v]
            if common.bit_count() < 2:
                continue
            for w, x in itertools.combinations(_bits(common), 2):
                cycle = ((u, w), (w, v), (v, x), (x, u))
                if all((adj[a] >> b) & 1 for a, b in cycle):
                    a, b = min(cycle, key=lambda e: graph6.pair_index(*e))
                    adj[a] &= ~(1 << b)
                    adj[b] &= ~(1 << a)
        kept = sorted(graph6.pair_index(u, v) for u in range(n) for v in _bits(adj[u]) if u < v)
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
            w, x = _bits(common)[:2]
            return (u, w, v, x)
    return None


def ex_c4(g: LabeledGraph) -> int:
    """Most edges of a subgraph of g with no 4-cycle, by branch and bound."""
    if g.n > EX_C4_LIMIT:
        raise ScaleError(f"ex_c4 supports n <= {EX_C4_LIMIT}, got n = {g.n}")
    best = 0
    seen: set[int] = set()

    def adj_of(mask: int) -> list[int]:
        return LabeledGraph(g.n, mask).adjacency_masks()

    def walk(mask: int) -> None:
        nonlocal best
        if mask in seen:
            return
        seen.add(mask)
        count = mask.bit_count()
        if count <= best:
            return
        cyc = _find_c4(g.n, adj_of(mask))
        if cyc is None:
            best = max(best, count)
            return
        u, w, v, x = cyc
        for a, b in ((u, w), (w, v), (v, x), (x, u)):
            walk(mask & ~(1 << graph6.pair_index(a, b)))

    walk(g.mask)
    return best
