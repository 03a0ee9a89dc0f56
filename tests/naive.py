"""Slow reference implementations used as independent oracles by the tests.

Everything here prefers transparent nested loops and full scans over
cleverness, so that a disagreement with the library points at the library.
None of these functions share code with src/ beyond its data types.
"""

import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np

from c4containers import Constraint, LabeledGraph, Pregraph, UniformHypergraph
from c4containers.oracle import DeletionSample
from c4containers.pregraph import ConstraintSystem, PermissibleResult


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


def max_degree_by_subtuples(h, l0, l1):
    """Delta_(l0,l1) of h by one Counter pass over the (l0, l1) sub-tuples of
    its constraints, one size pair at a time."""
    counts = Counter()
    for c, mult in h.constraints():
        for s0 in itertools.combinations(c.a0, l0):
            for s1 in itertools.combinations(c.a1, l1):
                counts[(s0, s1)] += mult
    return max(counts.values(), default=0)


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


def good_c4_copies_in_order(p):
    """(cycle pairs, diagonals in M or N) of every good C4 of a pregraph:
    four mixed cycle edges on a quad that spans no fixed edge.  Quads come in
    lexicographic order and, within one, the diagonal pairs ab+cd, ac+bd,
    ad+bc in that order."""
    undecided = p.mixed | p.neutral
    for quad in itertools.combinations(range(p.n), 4):
        pairs = list(itertools.combinations(quad, 2))
        if any(e in p.fixed for e in pairs):
            continue
        a, b, c, d = quad
        for diagonals in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            cycle = [e for e in pairs if e not in diagonals]
            if all(e in p.mixed for e in cycle):
                yield cycle, [e for e in diagonals if e in undecided]


def build_permissible_by_rescan(p, ell, beta):
    """The permissible greedy, recomputed from scratch before every insertion.

    Each step recounts every degree of H_0, H_1, H_2, neutralizes the
    original pregraph by them (a mixed edge with A-side degree >= l^2 in H_1
    or H_2 goes to E, else one with B-side degree >= max(1, floor(l^3/n)) in
    some H_i goes to N), stops once some H_i has beta*l^4 constraints, and
    otherwise inserts the first good copy of the neutralized pregraph that is
    not inserted yet and whose cycle holds no pair of B-side degree >= l in
    one H_i.  Returns a PermissibleResult.
    """
    n = p.n
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    t10, t01, t02 = ell * ell, max(ell**3 // n, 1), ell
    target = beta * ell**4
    inserted = set()  # cycles inserted so far
    while True:
        a_deg = [Counter() for _ in hs]
        b_deg = [Counter() for _ in hs]
        pair_deg = [Counter() for _ in hs]
        for i, h in enumerate(hs):
            for c, mult in h.constraints():
                for k in c.a0:
                    a_deg[i][k] += mult
                for k in c.a1:
                    b_deg[i][k] += mult
                for t in itertools.combinations(c.a1, 2):
                    pair_deg[i][t] += mult
        to_fixed = {f for f in p.mixed if a_deg[1][index[f]] >= t10 or a_deg[2][index[f]] >= t10}
        to_neutral = {
            f for f in p.mixed - to_fixed if any(d[index[f]] >= t01 for d in b_deg)
        }
        pp = Pregraph(n, p.mixed - to_fixed - to_neutral, p.fixed | to_fixed,
                      p.neutral | to_neutral)
        if any(h.e() >= target for h in hs):
            break
        blocked = {t for d in pair_deg for t, deg in d.items() if deg >= t02}
        found = None
        for cycle, extra in good_c4_copies_in_order(pp):
            if tuple(cycle) in inserted:
                continue
            c = Constraint.make([index[e] for e in extra], [index[e] for e in cycle])
            if any(t in blocked for t in itertools.combinations(c.a1, 2)):
                continue
            found = (cycle, len(extra), c)
            break
        if found is None:
            return PermissibleResult(
                "exhausted", None, None, ConstraintSystem(ground, *hs), pp, len(inserted)
            )
        cycle, i, c = found
        hs[i].add(c)
        inserted.add(tuple(cycle))
    winner = max(range(3), key=lambda i: (hs[i].e() >= target, hs[i].e()))
    return PermissibleResult(
        "success", winner, hs[winner], ConstraintSystem(ground, *hs), pp, len(inserted)
    )


def doomed_by_subset_test(proc, fresh):
    """The active constraints of a ContainerProcess that contain a pair of
    fresh, by testing each constraint against each pair as sets."""
    return [
        key
        for key in proc.active
        if any(set(t0) <= set(key[0]) and set(t1) <= set(key[1]) for t0, t1 in fresh)
    ]


def _pair_index(u, v):
    u, v = min(u, v), max(u, v)
    return v * (v - 1) // 2 + u


def _pair_from_index(k):
    v = 1
    while v * (v + 1) // 2 <= k:
        v += 1
    return (k - v * (v - 1) // 2, v)


def graph6_encode_by_bits(n, mask):
    """graph6 text of an n-vertex edge mask, packing one bit at a time: pair
    index k is bit 5 - k % 6 of group k // 6, offset by 63, after the size
    header (one character up to n = 62, else '~' and three characters)."""
    npairs = n * (n - 1) // 2
    if n < 0 or n > 258047 or mask < 0 or mask >> npairs:
        raise ValueError("out of range")
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    for start in range(0, npairs, 6):
        group = 0
        for i in range(6):
            k = start + i
            bit = (mask >> k) & 1 if k < npairs else 0
            group = (group << 1) | bit
        out.append(chr(group + 63))
    return "".join(out)


def graph6_decode_by_bits(text):
    """(n, mask) of a graph6 string, unpacking one bit at a time; raises
    ValueError with the library's messages, in the library's order."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValueError("unsupported graph6 size header")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n < 0:
        raise ValueError("bad graph6 size header")
    npairs = n * (n - 1) // 2
    need = (npairs + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} groups, expected {need}")
    mask = 0
    for gi, ch in enumerate(body):
        group = ord(ch) - 63
        if not 0 <= group < 64:
            raise ValueError(f"bad graph6 character {ch!r}")
        for i in range(6):
            k = gi * 6 + i
            bit = (group >> (5 - i)) & 1
            if k < npairs:
                mask |= bit << k
            elif bit:
                raise ValueError("nonzero padding bits")
    return n, mask


def sample_by_full_scan(n, m, delta, seed, max_attempts=1):
    """The edge-deletion sampler with two scans over all C(n,2) pairs per
    draw.  Each attempt shuffles list(range(C(n,2))) by a partial
    Fisher-Yates seeded with blake2b("seed:attempt"), counts 4-cycles from
    the codegree of every pair, and, when X <= m' - m, walks every pair
    (u, v) in order, deleting the lowest-index edge of each 4-cycle
    u-w-v-x through two of its current common neighbours, then the
    lowest-index edges until m remain.  Returns a DeletionSample."""
    npairs = n * (n - 1) // 2
    m_prime = int((1 + delta) * m)
    if not 0 < m <= m_prime <= npairs:
        raise ValueError("bad budget")
    last_copies = -1
    for attempt in range(1, max_attempts + 1):
        digest = hashlib.blake2b(f"{seed}:{attempt}".encode(), digest_size=8).digest()
        rng = random.Random(int.from_bytes(digest, "big"))
        arr = list(range(npairs))
        for i in range(m_prime):
            j = rng.randrange(i, npairs)
            arr[i], arr[j] = arr[j], arr[i]
        mask = 0
        for k in arr[:m_prime]:
            mask |= 1 << k
        adj = [0] * n
        for k in arr[:m_prime]:
            u, v = _pair_from_index(k)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        copies = last_copies = count_c4_subgraphs(n, adj)
        if copies > m_prime - m:
            continue
        for u, v in itertools.combinations(range(n), 2):
            common = adj[u] & adj[v]
            if common.bit_count() < 2:
                continue
            ws = [w for w in range(n) if (common >> w) & 1]
            for w, x in itertools.combinations(ws, 2):
                cycle = [_pair_index(u, w), _pair_index(w, v), _pair_index(v, x), _pair_index(x, u)]
                if all((mask >> k) & 1 for k in cycle):
                    k = min(cycle)
                    mask ^= 1 << k
                    a, b = _pair_from_index(k)
                    adj[a] &= ~(1 << b)
                    adj[b] &= ~(1 << a)
        surplus = 0
        while mask.bit_count() > m:
            mask ^= mask & -mask
            surplus += 1
        return DeletionSample(LabeledGraph(n, mask), attempt, True, m_prime, copies, surplus)
    return DeletionSample(None, max_attempts, False, m_prime, last_copies, 0)


# -- graph methods, one bit at a time ------------------------------------------


def edges_by_bit_peeling(g):
    """The edges of a LabeledGraph in pair-index order, peeling the lowest
    set bit off the whole mask once per edge."""
    out = []
    mask = g.mask
    while mask:
        low = mask & -mask
        out.append(_pair_from_index(low.bit_length() - 1))
        mask ^= low
    return out


def degree_by_shifts(g, v):
    """deg(v) in a LabeledGraph, shifting the whole mask once per other vertex."""
    return sum((g.mask >> _pair_index(u, v)) & 1 for u in range(g.n) if u != v)


# -- subset scans and swap searches --------------------------------------------


def subset_pair_counts_by_peeling(n, pairs):
    """count[S] = pairs with both endpoints in the subset S (a bitmask), for
    every S, by peeling off the lowest vertex: count[S] = count[S - low] plus
    the pairs from low into S - low."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    count = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        count[s] = count[rest] + (adj[low] & rest).bit_count()
    return count


def _count_within(pairs, vertices):
    return sum(1 for u, v in pairs if u in vertices and v in vertices)


def _vertex_tuple(mask, n):
    return tuple(v for v in range(n) if (mask >> v) & 1)


def almost_split_by_subset_scan(p, eps):
    """The first subset U, ascending as a bitmask, with e(E) <= C(|U|,2),
    e_E(U) >= (1-eps) C(|U|,2) and e_M(W) <= 7 sqrt(eps) |U| n for W the
    rest, testing each of the 2^n subsets in a Python loop.  Returns
    (U, W), or None when no subset passes."""
    e_e = subset_pair_counts_by_peeling(p.n, p.fixed)
    e_m = subset_pair_counts_by_peeling(p.n, p.mixed)
    full = (1 << p.n) - 1
    for umask in range(1 << p.n):
        size = umask.bit_count()
        if (
            len(p.fixed) <= math.comb(size, 2)
            and e_e[umask] >= (1 - eps) * math.comb(size, 2)
            and e_m[full ^ umask] <= 7 * math.sqrt(eps) * size * p.n
        ):
            return _vertex_tuple(umask, p.n), _vertex_tuple(full ^ umask, p.n)
    return None


def almost_split_by_recounting_swaps(p, eps):
    """The greedy almost-split search, recounting every fixed and mixed pair
    for each trial.  For each size, U starts as the top of the order by
    (-E-degree, vertex); each member of U, in the iteration order of the
    Python set U, is traded for each outsider in that order; the first
    trial that passes the almost-split test is returned, and the first one
    with more E-pairs inside replaces U (rebuilt as (U - {out}) | {in}),
    at most n times per size.  Returns (U, W), or None."""
    deg_e = [0] * p.n
    for u, v in p.fixed:
        deg_e[u] += 1
        deg_e[v] += 1
    order = sorted(range(p.n), key=lambda v: (-deg_e[v], v))

    def passes(uset):
        size = len(uset)
        inside_e = _count_within(p.fixed, uset)
        inside_m = sum(1 for a, b in p.mixed if a not in uset and b not in uset)
        return (
            len(p.fixed) <= math.comb(size, 2)
            and inside_e >= (1 - eps) * math.comb(size, 2)
            and inside_m <= 7 * math.sqrt(eps) * size * p.n
        )

    def split(uset):
        return tuple(sorted(uset)), tuple(v for v in range(p.n) if v not in uset)

    for size in range(p.n + 1):
        uset = set(order[:size])
        if passes(uset):
            return split(uset)
        for _ in range(p.n):
            improved = False
            for v_out in list(uset):
                for v_in in order:
                    if v_in in uset:
                        continue
                    trial = (uset - {v_out}) | {v_in}
                    if passes(trial):
                        return split(trial)
                    if _count_within(p.fixed, trial) > _count_within(p.fixed, uset):
                        uset = trial
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
    return None


def clique_cost_by_subset_scan(n, edges, ell):
    """(cost, U) with U the first densest ell-subset, ascending as a
    bitmask, and cost (C(ell,2) - e(U)) + (e(G) - e(U)), testing each of
    the 2^n subsets in a Python loop."""
    pairs = {pair_key(u, v) for u, v in edges}
    counts = subset_pair_counts_by_peeling(n, pairs)
    best_mask, best_inside = None, -1
    for s in range(1 << n):
        if s.bit_count() == ell and counts[s] > best_inside:
            best_mask, best_inside = s, counts[s]
    cost = math.comb(ell, 2) - best_inside + len(pairs) - best_inside
    return cost, _vertex_tuple(best_mask, n)


def clique_cost_by_recounting_swaps(n, edges, ell):
    """The greedy clique-edit search, recounting e(U) for each trial: U
    starts as the ell top vertices by (-degree, vertex); the first trade of
    a member (in the iteration order of the Python set U) for an outsider
    (ascending) that raises e(U) replaces U by (U - {out}) | {in}, until no
    trade helps.  Returns (cost, sorted U)."""
    pairs = {pair_key(u, v) for u, v in edges}
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    uset = set(sorted(range(n), key=lambda v: (-deg[v], v))[:ell])
    current = _count_within(pairs, uset)
    improved = True
    while improved:
        improved = False
        for v_out in list(uset):
            for v_in in range(n):
                if v_in in uset:
                    continue
                trial = (uset - {v_out}) | {v_in}
                t = _count_within(pairs, trial)
                if t > current:
                    uset, current = trial, t
                    improved = True
                    break
            if improved:
                break
    return math.comb(ell, 2) - current + len(pairs) - current, tuple(sorted(uset))


def concentrated_ell_by_subset_scan(p, eps, r):
    """Largest size ell of a vertex subset U with ell^2 >= r,
    e(E) <= C(ell,2), e_E(U) >= (1-eps) C(ell,2) and e_M(rest) above
    7 sqrt(eps) n ell, testing each of the 2^n subsets; None if none."""
    fixed_in = subset_pair_counts_by_peeling(p.n, p.fixed)
    mixed_in = subset_pair_counts_by_peeling(p.n, p.mixed)
    budget = 7 * math.sqrt(eps) * p.n
    full = (1 << p.n) - 1
    best = None
    for s in range(1 << p.n):
        ell = s.bit_count()
        if ell * ell < r or len(p.fixed) > math.comb(ell, 2):
            continue
        if fixed_in[s] < (1 - eps) * math.comb(ell, 2):
            continue
        if mixed_in[full ^ s] > budget * ell and (best is None or ell > best):
            best = ell
    return best


def concentrated_ell_by_recounting_swaps(p, eps, r):
    """Largest ell with ell^2 >= r and e(E) <= C(ell,2) whose swap-search
    clique witness U (clique_cost_by_recounting_swaps on E) has
    e_E(U) >= (1-eps) C(ell,2) and e_M(rest) above 7 sqrt(eps) n ell,
    counting pairs one by one; None if no ell qualifies."""
    budget = 7 * math.sqrt(eps) * p.n
    for ell in range(p.n, 0, -1):
        if ell * ell < r or len(p.fixed) > math.comb(ell, 2):
            continue
        u = set(clique_cost_by_recounting_swaps(p.n, p.fixed, ell)[1])
        if _count_within(p.fixed, u) < (1 - eps) * math.comb(ell, 2):
            continue
        if sum(1 for a, b in p.mixed if a not in u and b not in u) > budget * ell:
            return ell
    return None


# -- the permissible greedy over a list of copies ----------------------------------


def neutralize_from_scratch(p, index, a_deg, b_deg, ell):
    """A new Pregraph from p: every mixed edge with A-side degree >= l^2 in
    H_1 or H_2 moves to E, then every other one with B-side degree
    >= max(1, floor(l^3/n)) in some H_i moves to N; a_deg[i] and b_deg[i]
    map ground indices to degrees in H_i."""
    t10, t01 = ell * ell, max(ell**3 // p.n, 1)
    to_fixed = {
        f for f in p.mixed
        if a_deg[1].get(index[f], 0) >= t10 or a_deg[2].get(index[f], 0) >= t10
    }
    to_neutral = {
        f for f in p.mixed - to_fixed if any(d.get(index[f], 0) >= t01 for d in b_deg)
    }
    return Pregraph(p.n, p.mixed - to_fixed - to_neutral, p.fixed | to_fixed,
                    p.neutral | to_neutral)


def build_permissible_by_cursor(p, ell, beta):
    """The permissible greedy with a cursor over the full list of good
    copies of p, rebuilding the neutralized pregraph from scratch before
    every insertion: a copy is skipped when a cycle edge is no longer mixed,
    a diagonal it counts is fixed, or its cycle holds a pair of B-side
    degree >= l in one H_i; the run stops once some H_i has beta*l^4
    constraints.  Returns a PermissibleResult."""
    n = p.n
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    deg10 = [dict(), dict(), dict()]
    deg01 = [dict(), dict(), dict()]
    pair_deg = [dict(), dict(), dict()]
    blocked = set()
    target = beta * ell**4
    insertions = 0
    copies = iter(list(good_c4_copies_in_order(p)))
    while True:
        pp = neutralize_from_scratch(p, index, deg10, deg01, ell)
        if any(h.e() >= target for h in hs):
            break
        found = None
        for cycle, extra in copies:
            if any(e not in pp.mixed for e in cycle):
                continue
            if any(e in pp.fixed for e in extra):
                continue
            c = Constraint.make([index[e] for e in extra], [index[e] for e in cycle])
            if any(t in blocked for t in itertools.combinations(c.a1, 2)):
                continue
            found = (len(extra), c)
            break
        if found is None:
            return PermissibleResult(
                "exhausted", None, None, ConstraintSystem(ground, *hs), pp, insertions
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
            if pair_deg[i][t] >= ell:
                blocked.add(t)
    winner = max(range(3), key=lambda i: (hs[i].e() >= target, hs[i].e()))
    return PermissibleResult(
        "success", winner, hs[winner], ConstraintSystem(ground, *hs), pp, insertions
    )


def quasirandom_by_subset_scan(g, eps):
    """The first subset S, ascending as a bitmask, with |S| > eps*n and
    |S| >= 2 whose edge density e(S)/C(|S|,2) leaves [(1-eps)p, (1+eps)p],
    p the density of g, as a vertex tuple; None when every subset fits."""
    counts = subset_pair_counts_by_peeling(g.n, edges_by_bit_peeling(g))
    p = g.m / math.comb(g.n, 2)
    lo, hi = (1 - eps) * p, (1 + eps) * p
    for s in range(1 << g.n):
        size = s.bit_count()
        if size <= eps * g.n or size < 2:
            continue
        if not lo <= counts[s] / math.comb(size, 2) <= hi:
            return _vertex_tuple(s, g.n)
    return None


def close_to_split_by_subset_scan(g, eps):
    """The first subset A, ascending as a bitmask, with
    e(A) >= (1-eps) C(|A|,2) and e(rest) <= eps*e(G), as (A, rest); None
    when no subset passes."""
    counts = subset_pair_counts_by_peeling(g.n, edges_by_bit_peeling(g))
    full = (1 << g.n) - 1
    for a in range(1 << g.n):
        size = a.bit_count()
        if counts[a] >= (1 - eps) * math.comb(size, 2) and counts[full ^ a] <= eps * g.m:
            return _vertex_tuple(a, g.n), _vertex_tuple(full ^ a, g.n)
    return None
