"""Slow reference implementations used as independent oracles by the tests.

Everything here prefers transparent nested loops and full scans over
cleverness, so that a disagreement with the library points at the library.
None of these functions share code with src/.
"""

import itertools
import math

import numpy as np


def pair_key(u, v):
    """Edge (u, v) as an unordered sorted tuple."""
    return (u, v) if u < v else (v, u)


def constraint_degree(h, t0, t1):
    """Number of constraints of h (with multiplicity) containing t0 in A0
    and t1 in A1, by direct iteration."""
    t0, t1 = set(t0), set(t1)
    total = 0
    for c, mult in h.constraints():
        if t0 <= set(c.a0) and t1 <= set(c.a1):
            total += mult
    return total


def max_constraint_degree(h, l0, l1):
    """Max of constraint_degree over all disjoint (T0, T1) with the given
    sizes, scanning every vertex tuple."""
    verts = range(h.n_vertices)
    best = 0
    for t0 in itertools.combinations(verts, l0):
        rest = [v for v in verts if v not in t0]
        for t1 in itertools.combinations(rest, l1):
            best = max(best, constraint_degree(h, t0, t1))
    return best


def four_cycles(n, has_edge):
    """Canonical vertex tuples (a, b, c, d) of every 4-cycle a-b-c-d-a.

    has_edge is a predicate on vertex pairs.  Canonical form: a is the
    smallest vertex and b < d, so each cycle appears exactly once.
    """
    out = []
    for a, b, c, d in itertools.permutations(range(n), 4):
        if a != min(a, b, c, d) or b > d:
            continue
        if has_edge(a, b) and has_edge(b, c) and has_edge(c, d) and has_edge(d, a):
            out.append((a, b, c, d))
    return out


def good_c4_cycles(p):
    """Good copies of C4 in a pregraph: cycles of mixed edges on four
    vertices spanning no fixed edge.  Returns canonical vertex tuples."""
    mixed = set(p.mixed)
    fixed = set(p.fixed)
    cycles = four_cycles(p.n, lambda u, v: pair_key(u, v) in mixed)
    good = []
    for cyc in cycles:
        if any(pair_key(u, v) in fixed for u, v in itertools.combinations(cyc, 2)):
            continue
        good.append(cyc)
    return good


def has_induced_c4(n, has_edge):
    """Whether some 4 vertices induce exactly a 4-cycle (cycle edges present,
    both diagonals absent)."""
    for quad in itertools.combinations(range(n), 4):
        count = sum(1 for u, v in itertools.combinations(quad, 2) if has_edge(u, v))
        if count != 4:
            continue
        degs = [sum(1 for u in quad if u != v and has_edge(u, v)) for v in quad]
        if all(d == 2 for d in degs):
            return True
    return False


def induced_c4_free_by_scan(n, masks):
    """Which of the given n-vertex edge masks (a uint32 array over graph6
    pair indices, (u, v) with u < v at v(v-1)/2 + u) are induced-C4-free.

    Every 4-subset is tested in each of its three cyclic orders: the four
    cycle pairs present and both diagonals absent.  Scanning
    np.arange(2 ** C(n, 2)) gives the exhaustive family.
    """
    def bit(u, v):
        u, v = min(u, v), max(u, v)
        return 1 << (v * (v - 1) // 2 + u)

    bad = np.zeros(masks.shape, dtype=bool)
    for a, b, c, d in itertools.combinations(range(n), 4):
        for w, x, y, z in ((a, b, c, d), (a, b, d, c), (a, c, b, d)):
            cycle = bit(w, x) | bit(x, y) | bit(y, z) | bit(z, w)
            subset = cycle | bit(w, y) | bit(x, z)
            bad |= (masks & np.uint32(subset)) == np.uint32(cycle)
    return ~bad


def count_c4_subgraphs(n, adj_masks):
    """Number of (not necessarily induced) 4-cycles, via common neighbours."""
    twice = 0
    for u, v in itertools.combinations(range(n), 2):
        common = (adj_masks[u] & adj_masks[v]).bit_count()
        twice += common * (common - 1) // 2
    return twice // 2


def is_split_partition(g):
    """Brute-force split test: some vertex subset is a clique and its
    complement is independent.  Returns the clique mask or None."""
    n = g.n
    for cmask in range(1 << n):
        clique = [v for v in range(n) if (cmask >> v) & 1]
        indep = [v for v in range(n) if not (cmask >> v) & 1]
        if any(not g.has_edge(u, v) for u, v in itertools.combinations(clique, 2)):
            continue
        if any(g.has_edge(u, v) for u, v in itertools.combinations(indep, 2)):
            continue
        return cmask
    return None


def clique_edit_cost(n, edges, ell):
    """Fewest additions plus deletions turning (n, edges) into a clique on
    some ell vertices with nothing else, by scanning all ell-subsets."""
    edges = set(edges)
    best = None
    for subset in itertools.combinations(range(n), ell):
        s = set(subset)
        inside = sum(1 for e in edges if e[0] in s and e[1] in s)
        cost = (math.comb(ell, 2) - inside) + (len(edges) - inside)
        if best is None or cost < best:
            best = cost
    return best
