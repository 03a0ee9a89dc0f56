"""Pregraphs and the constraint hypergraphs of good 4-cycles.

A pregraph is a partial two-colouring of the edge set of K_n: a set E of
edges already fixed to be present, a set M of mixed (undecided) edges, and
an auxiliary set N of mixed edges that preprocessing has neutralized (they
can no longer serve as cycle edges but may still appear as induced extras).
A good copy of C4 is a 4-cycle all of whose edges are mixed and whose four
vertices span no fixed edge.  Each good copy, together with the i in
{0, 1, 2} remaining induced mixed edges (its diagonals that lie in M or N),
yields one constraint of the (i, 4)-uniform hypergraph H_i: the copy is
"alive" in a completion exactly when the four cycle edges are all present
and the diagonals all absent, which is the induced-C4 event.

The greedy builder assembles permissible subhypergraphs (degree-capped by
floor(l^3/n), l^2, and l for the (0,1), (1,0), and (0,2) patterns) one
constraint at a time, neutralizing saturated single edges by a two-phase
preprocessing move and skipping copies that contain a saturated cycle-edge
pair, until one of H_0, H_1, H_2 reaches beta*l^4 constraints or no
insertable copy remains.

Also here: the Caro-Wei independence bound, the retained-vertex random
independent set used by the supersaturation arguments, and the almost-split
and leaf classifications that drive the container tree.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import PreconditionError
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
    "caro_wei_bound",
    "random_order_independent_set",
    "AlmostSplitResult",
    "is_almost_split_pregraph",
    "LeafClassification",
    "m_underflow_threshold",
    "is_leaf_pregraph",
    "CliqueCost",
    "close_to_clique_cost",
]

Pair = tuple[int, int]

EXACT_PARTITION_LIMIT = 12
EXACT_SUBSET_LIMIT = 16


def _norm_pair(p: Sequence[int]) -> Pair:
    u, v = p
    if u == v:
        raise ValueError(f"loop ({u}, {v}) is not an edge")
    return (u, v) if u < v else (v, u)


def _norm_pairs(pairs: Iterable[Sequence[int]], n: int) -> frozenset[Pair]:
    out = set()
    for p in pairs:
        q = _norm_pair(p)
        if not 0 <= q[0] < q[1] < n:
            raise ValueError(f"pair {q} outside vertex range 0..{n - 1}")
        out.add(q)
    return frozenset(out)


@dataclass(frozen=True)
class Pregraph:
    """Partial two-colouring (M, E, N) of the pairs of 0..n-1."""

    n: int
    mixed: frozenset[Pair]
    fixed: frozenset[Pair]
    neutral: frozenset[Pair] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "mixed", _norm_pairs(self.mixed, self.n))
        object.__setattr__(self, "fixed", _norm_pairs(self.fixed, self.n))
        object.__setattr__(self, "neutral", _norm_pairs(self.neutral, self.n))
        if (
            self.mixed & self.fixed
            or self.mixed & self.neutral
            or self.fixed & self.neutral
        ):
            raise ValueError("mixed, fixed, and neutral edge sets must be disjoint")

    def e_m(self) -> int:
        return len(self.mixed)

    def e_e(self) -> int:
        return len(self.fixed)

    def to_text(self) -> str:
        lines = [f"n {self.n}"]
        for tag, pairs in (("M", self.mixed), ("E", self.fixed), ("N", self.neutral)):
            for u, v in sorted(pairs):
                lines.append(f"{tag} {u} {v}")
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
                n = int(parts[1])
            elif parts[0] in sets and len(parts) == 3:
                sets[parts[0]].append((int(parts[1]), int(parts[2])))
            else:
                raise ValueError(f"unparseable pregraph line: {raw!r}")
        if n is None:
            raise ValueError("pregraph text lacks an 'n <count>' line")
        return Pregraph(n, frozenset(sets["M"]), frozenset(sets["E"]), frozenset(sets["N"]))


def complete_pregraph(n: int) -> Pregraph:
    """All pairs mixed, nothing fixed: the root of the container tree."""
    return Pregraph(n, frozenset(itertools.combinations(range(n), 2)), frozenset())


# the two diagonals of each 4-cycle on a sorted quad a < b < c < d, as
# positions in its pair list (ab, ac, ad, bc, bd, cd): ab+cd, ac+bd, ad+bc
_DIAGONAL_SPLITS = ((0, 5), (1, 4), (2, 3))


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


def _good_c4_stream(p: Pregraph) -> Iterator[GoodC4]:
    """The good copies of C4 one at a time, in good_c4_enumerate's order."""
    undecided = p.mixed | p.neutral
    for quad in itertools.combinations(range(p.n), 4):
        pairs = tuple(itertools.combinations(quad, 2))  # sorted pairs, in sorted order
        if any(e in p.fixed for e in pairs):
            continue
        for i, j in _DIAGONAL_SPLITS:
            cycle = tuple(e for k, e in enumerate(pairs) if k != i and k != j)
            if any(e not in p.mixed for e in cycle):
                continue
            extra = tuple(pairs[k] for k in (i, j) if pairs[k] in undecided)
            yield GoodC4(cycle, extra)


def good_c4_enumerate(p: Pregraph) -> list[GoodC4]:
    """All good copies of C4, one per embedding, in a fixed lexicographic
    order (by vertex 4-tuple, then by the diagonal split chosen)."""
    return list(_good_c4_stream(p))


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


def _encode_copy(copy: GoodC4, index: dict[Pair, int]) -> Constraint:
    return Constraint.make(
        (index[e] for e in copy.extra_mixed), (index[e] for e in copy.cycle_edges)
    )


def build_constraint_hypergraphs(p: Pregraph) -> ConstraintSystem:
    """H_i collects the good copies with exactly i extra induced mixed edges;
    the ground set is all of M and N, so v(H_i) = e(M) + |N|."""
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    for copy in good_c4_enumerate(p):
        hs[copy.i].add(_encode_copy(copy, index))
    return ConstraintSystem(ground, *hs)


# -- saturation and the permissible greedy ------------------------------------


def _saturation_threshold(shape: tuple[int, int], ell: int, n: int) -> int:
    if shape == (0, 1):
        raw = ell**3 // n
    elif shape == (1, 0):
        raw = ell * ell
    elif shape == (0, 2):
        raw = ell
    else:
        raise PreconditionError(f"no saturation threshold for degree shape {shape}")
    # a pair must actually appear to be saturated, so an empty hypergraph
    # never has any; this only differs from the raw floor when l^3 < n
    return max(raw, 1)


def _saturation_move(
    k: int, a_deg: Sequence[dict[int, int]], b_deg: Sequence[dict[int, int]], t10: int, t01: int
) -> Optional[str]:
    """The neutralization rule for the mixed edge with ground index k, given
    a_deg[i] and b_deg[i], the A-side and B-side degrees in H_i of each
    ground index (absent keys count as 0): "E" when it is (1,0)-saturated in
    H_1 or H_2, else "N" when it is (0,1)-saturated in some H_i, else None.
    """
    if a_deg[1].get(k, 0) >= t10 or a_deg[2].get(k, 0) >= t10:
        return "E"
    if any(d.get(k, 0) >= t01 for d in b_deg):
        return "N"
    return None


def _moved_pregraph(p: Pregraph, moved: dict[Pair, str]) -> Pregraph:
    """p with each mixed edge f of moved taken to E or N, as moved[f] says."""
    to_fixed = {f for f, tag in moved.items() if tag == "E"}
    return Pregraph(
        p.n, p.mixed - moved.keys(), p.fixed | to_fixed, p.neutral | (moved.keys() - to_fixed)
    )


def preprocess_saturation(
    p: Pregraph,
    h0: UniformHypergraph,
    h1: UniformHypergraph,
    h2: UniformHypergraph,
    ell: int,
    n: int,
) -> Pregraph:
    """Two-phase neutralization of saturated single edges.

    Phase 1 moves every mixed edge f with deg({f}, empty) at the l^2 cap in
    H_1 or H_2 into E (its copies stop being good at all); phase 2 moves
    every remaining f with deg(empty, {f}) at the floor(l^3/n) cap in any
    H_i into N (it stops serving as a cycle edge but still counts as an
    induced extra).  Degrees are taken against the ground indexing of p.
    """
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    a_deg: list[Counter[int]] = []
    b_deg: list[Counter[int]] = []
    for h in (h0, h1, h2):
        a, b = Counter(), Counter()
        for c, mult in h.constraints():
            for k in c.a0:
                a[k] += mult
            for k in c.a1:
                b[k] += mult
        a_deg.append(a)
        b_deg.append(b)
    t10 = _saturation_threshold((1, 0), ell, n)
    t01 = _saturation_threshold((0, 1), ell, n)
    moved = {}
    for f in p.mixed:
        tag = _saturation_move(index[f], a_deg, b_deg, t10, t01)
        if tag is not None:
            moved[f] = tag
    return _moved_pregraph(p, moved)


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
    after the rule of ``preprocess_saturation`` at the current degrees.
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
    An insertion changes the degrees of its own ground indices only, so the
    rule is re-applied to those alone, and the neutralized pregraph itself is
    built once, for the result.
    """
    if ell < 1:
        raise PreconditionError(f"scale parameter must be at least 1, got {ell}")
    if beta <= 0:
        raise PreconditionError(f"target density beta must be positive, got {beta}")
    n = p.n
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    # incremental degree state, equivalent to querying the growing h_i
    deg10 = [dict(), dict(), dict()]  # A-side singletons (only i = 1, 2 used)
    deg01 = [dict(), dict(), dict()]  # B-side singletons
    pair_deg = [dict(), dict(), dict()]  # B-side pairs
    blocked: set[tuple[int, int]] = set()
    moved: dict[Pair, str] = {}  # mixed edges of p neutralized so far, to "E" or "N"
    t10 = _saturation_threshold((1, 0), ell, n)
    t01 = _saturation_threshold((0, 1), ell, n)
    t02 = _saturation_threshold((0, 2), ell, n)
    target = _permissible_target(beta, ell)
    insertions = 0

    copies = _good_c4_stream(p)  # one cursor for the whole run
    while not any(h.e() >= target for h in hs):
        found = None
        for copy in copies:
            if any(e in moved for e in copy.cycle_edges):
                continue
            if any(moved.get(e) == "E" for e in copy.extra_mixed):
                continue
            c = _encode_copy(copy, index)
            if any(t in blocked for t in itertools.combinations(c.a1, 2)):
                continue
            found = (copy.i, c)
            break
        if found is None:
            return PermissibleResult(
                "exhausted", None, None, ConstraintSystem(ground, *hs),
                _moved_pregraph(p, moved), insertions,
            )
        i, c = found
        hs[i].add(c)
        insertions += 1
        for k in c.a0:
            deg10[i][k] = deg10[i].get(k, 0) + 1
        for k in c.a1:
            deg01[i][k] = deg01[i].get(k, 0) + 1
        for t in itertools.combinations(c.a1, 2):
            pair_deg[i][t] = pair_deg[i].get(t, 0) + 1
            if pair_deg[i][t] >= t02:
                blocked.add(t)
        for k in (*c.a0, *c.a1):
            if ground[k] in p.mixed:
                tag = _saturation_move(k, deg10, deg01, t10, t01)
                if tag is not None:
                    moved[ground[k]] = tag
    winner = max(range(3), key=lambda i: (hs[i].e() >= target, hs[i].e()))
    return PermissibleResult(
        "success", winner, hs[winner], ConstraintSystem(ground, *hs),
        _moved_pregraph(p, moved), insertions,
    )


# -- independence utilities ----------------------------------------------------


def caro_wei_bound(n: int, edges: Iterable[Pair]) -> Fraction:
    """Sum of 1/(1 + deg(v)): the classical independence-number lower bound."""
    deg = [0] * n
    for p in edges:
        u, v = _norm_pair(p)
        deg[u] += 1
        deg[v] += 1
    return sum((Fraction(1, 1 + d) for d in deg), Fraction(0))


def random_order_independent_set(
    n: int,
    edges: Iterable[Pair],
    keep_probabilities: Sequence[float],
    ordering: Sequence[int],
    seed: int = 0,
) -> tuple[int, ...]:
    """Retain each vertex independently, then keep the retained vertices none
    of whose later-ordered neighbours were retained.

    The output is independent in the given graph for every retention
    outcome; with all probabilities 1 its expected size over a uniformly
    random ordering is exactly the Caro-Wei bound.
    """
    if sorted(ordering) != list(range(n)):
        raise ValueError("ordering must be a permutation of 0..n-1")
    if len(keep_probabilities) != n:
        raise ValueError("need one retention probability per vertex")
    if any(not 0 <= q <= 1 for q in keep_probabilities):
        raise ValueError("retention probabilities must lie in [0, 1]")
    adj: list[set[int]] = [set() for _ in range(n)]
    for p in edges:
        u, v = _norm_pair(p)
        adj[u].add(v)
        adj[v].add(u)
    rng = random.Random(seed)
    retained = {v for v in range(n) if rng.random() < keep_probabilities[v]}
    position = {v: k for k, v in enumerate(ordering)}
    out = []
    for v in retained:
        if all(u not in retained or position[u] < position[v] for u in adj[v]):
            out.append(v)
    result = tuple(sorted(out))
    for u, v in itertools.combinations(result, 2):
        assert v not in adj[u], "selection rule produced a dependent pair"
    return result


# -- structural classification --------------------------------------------------


def _adjacency(n: int, pairs: Iterable[Pair]) -> list[int]:
    """Per-vertex neighbour bitmasks of the graph (0..n-1, pairs)."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _subset_pair_counts(adj: Sequence[int]) -> np.ndarray:
    """count[S] = edges with both endpoints in the vertex subset S (a
    bitmask), for every S, given the neighbour bitmasks adj of the graph.

    One doubling pass: the subsets with top vertex v are S + v for the
    subsets S of 0..v-1, and count[S + v] = count[S] + |adj[v] & S|.
    """
    n = len(adj)
    masks = np.arange(1 << n, dtype=np.int64)
    count = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        low = slice(0, 1 << v)
        count[1 << v : 2 << v] = count[low] + np.bitwise_count(masks[low] & adj[v])
    return count


def _by_subset_size(n: int, f) -> np.ndarray:
    """f(|S|) for every vertex subset S of 0..n-1 (a bitmask), calling f
    once per size, so each value is the Python float or bool f returns."""
    return np.array([f(size) for size in range(n + 1)])[np.bitwise_count(np.arange(1 << n))]


def _pairs_within(adj: Sequence[int], mask: int) -> int:
    """Edges with both endpoints in the vertex bitmask."""
    return sum((adj[v] & mask).bit_count() for v in range(len(adj)) if (mask >> v) & 1) // 2


def _vertices(mask: int, n: int) -> tuple[int, ...]:
    """The vertices in the bitmask, ascending."""
    return tuple(v for v in range(n) if (mask >> v) & 1)


@dataclass(frozen=True)
class AlmostSplitResult:
    found: bool
    exact: bool
    u: Optional[tuple[int, ...]] = None
    w: Optional[tuple[int, ...]] = None


def is_almost_split_pregraph(p: Pregraph, eps: float) -> AlmostSplitResult:
    """Search for a vertex split (U, W) with E concentrated on a near-clique
    U and few mixed edges inside W: e(E) <= C(|U|,2), e_E(U) >= (1-eps) of
    that clique, and e_M(W) <= 7*sqrt(eps)*|U|*n.

    Up to n = 12 every one of the 2^n subsets U is tested at once, from the
    E and M subset counts, and the smallest U as a bitmask is returned.
    Beyond that, for each size the top of the E-degree order is tried,
    then improved by single-vertex swaps: a member leaves (in the iteration
    order of the current set) for the first outsider in degree order that
    either passes the test or raises e_E(U), until no swap helps.  Each
    trial reads its counts from the neighbour bitmasks of the two swapped
    vertices.  The greedy result is flagged non-exact.
    """
    if eps <= 0:
        raise PreconditionError(f"eps must be positive, got {eps}")
    n = p.n
    adj_e, adj_m = _adjacency(n, p.fixed), _adjacency(n, p.mixed)
    full = (1 << n) - 1

    def split(umask: int, exact: bool) -> AlmostSplitResult:
        return AlmostSplitResult(True, exact, _vertices(umask, n), _vertices(full ^ umask, n))

    if n <= EXACT_PARTITION_LIMIT:
        e_e = _subset_pair_counts(adj_e)
        e_m_outside = _subset_pair_counts(adj_m)[::-1]  # full ^ S runs backwards
        fits = _by_subset_size(n, lambda size: p.e_e() <= math.comb(size, 2))
        floor = _by_subset_size(n, lambda size: (1 - eps) * math.comb(size, 2))
        budget = _by_subset_size(n, lambda size: 7 * math.sqrt(eps) * size * p.n)
        ok = fits & (e_e >= floor) & (e_m_outside <= budget)
        return split(int(np.argmax(ok)), True) if ok.any() else AlmostSplitResult(False, True)
    deg_e = [a.bit_count() for a in adj_e]
    order = sorted(range(n), key=lambda v: (-deg_e[v], v))

    for size in range(n + 1):
        # no U of this size passes when e(E) > C(size, 2), whatever the swaps
        if p.e_e() > math.comb(size, 2):
            continue
        floor = (1 - eps) * math.comb(size, 2)
        budget = 7 * math.sqrt(eps) * size * p.n
        uset = set(order[:size])
        umask = sum(1 << v for v in uset)
        inside_e = _pairs_within(adj_e, umask)
        outside_m = _pairs_within(adj_m, full ^ umask)
        if inside_e >= floor and outside_m <= budget:
            return split(umask, False)
        # single swaps: trade the least-connected member for the best outsider
        for _ in range(n):
            improved = False
            wmask = full ^ umask
            for v_out in list(uset):
                kept = umask ^ (1 << v_out)
                e_kept = inside_e - (adj_e[v_out] & umask).bit_count()
                for v_in in order:
                    if (umask >> v_in) & 1:
                        continue
                    t_e = e_kept + (adj_e[v_in] & kept).bit_count()
                    t_m = (
                        outside_m - (adj_m[v_in] & wmask).bit_count()
                        + (adj_m[v_out] & wmask & ~(1 << v_in)).bit_count()
                    )
                    if t_e >= floor and t_m <= budget:
                        return split(kept | 1 << v_in, False)
                    if t_e > inside_e:
                        uset = (uset - {v_out}) | {v_in}
                        umask, inside_e, outside_m = kept | 1 << v_in, t_e, t_m
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
    return AlmostSplitResult(False, False)


@dataclass(frozen=True)
class LeafClassification:
    kind: str  # almost_split | ratio_leaf | e_overflow | m_underflow | not_leaf
    ell: Optional[int] = None
    split: Optional[AlmostSplitResult] = None

    @property
    def is_leaf(self) -> bool:
        return self.kind != "not_leaf"


def m_underflow_threshold(n: int, m: int) -> float:
    """Mixed-edge floor sqrt(n^2 m / (2^8 ln(n^2/m))) below which a pregraph
    can describe only a negligible share of m-edge graphs."""
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
    split = is_almost_split_pregraph(p, eps)
    if split.found:
        return LeafClassification("almost_split", split=split)
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
    min over ell-subsets U of (C(ell,2) - e(U)) + (e(G) - e(U)).

    Exact for n <= 16, from the edge counts of all 2^n subsets at once; the
    witness is the densest ell-subset that is smallest as a bitmask.  Larger
    n start from the top-degree subset and take single swaps (a member, in
    the iteration order of the current set, for the first outsider that
    raises e(U)) until none helps, each trial counted from the neighbour
    bitmasks of the two swapped vertices; that result is flagged non-exact.
    """
    pairs = _norm_pairs(edges, n)
    if not 0 <= ell <= n:
        raise PreconditionError(f"clique size {ell} outside 0..{n}")
    total = len(pairs)
    target = math.comb(ell, 2)
    adj = _adjacency(n, pairs)
    if n <= EXACT_SUBSET_LIMIT:
        candidates = np.flatnonzero(_by_subset_size(n, lambda size: size == ell))
        counts = _subset_pair_counts(adj)[candidates]
        best = int(np.argmax(counts))  # the first of the densest
        best_inside = int(counts[best])
        subset = _vertices(int(candidates[best]), n)
        return CliqueCost(target - best_inside + total - best_inside, True, subset)
    deg = [a.bit_count() for a in adj]
    uset = set(sorted(range(n), key=lambda v: (-deg[v], v))[:ell])
    umask = sum(1 << v for v in uset)
    current = _pairs_within(adj, umask)
    improved = True
    while improved:
        improved = False
        for v_out in list(uset):
            kept = umask ^ (1 << v_out)
            e_kept = current - (adj[v_out] & umask).bit_count()
            for v_in in range(n):
                if (umask >> v_in) & 1:
                    continue
                t = e_kept + (adj[v_in] & kept).bit_count()
                if t > current:
                    uset = (uset - {v_out}) | {v_in}
                    umask, current = kept | 1 << v_in, t
                    improved = True
                    break
            if improved:
                break
    return CliqueCost(target - current + total - current, False, tuple(sorted(uset)))
