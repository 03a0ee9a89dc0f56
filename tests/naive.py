"""Slow reference implementations used as independent oracles by the tests.

Everything here prefers transparent nested loops and full scans over
cleverness, so that a disagreement with the library points at the library.
None of these functions share code with src/ beyond its data types, with
two exceptions: the full-vector split-count references take ln j! from the
package's `_log_factorial` by default, so that they check the feasible band
and the bounds bit for bit (`gammaln_log_factorial`, with scipy, is the
independent reference for ln j! itself), and `DictContainerProcess` reads
H's degree table from `UniformHypergraph.degree_table`.
"""

import functools
import hashlib
import itertools
import math
import random
import types
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from c4containers import (
    Constraint,
    LabeledGraph,
    PreconditionError,
    Pregraph,
    UniformHypergraph,
)
from c4containers.engine import ContainerResult, Cylinder, Fingerprint
from c4containers.oracle import DeletionSample
from c4containers.pregraph import ConstraintSystem, GoodC4, PermissibleResult
from c4containers.splitcounts import _log_factorial


def pair_key(u, v):
    """Edge (u, v) as an unordered sorted tuple."""
    return (u, v) if u < v else (v, u)


# -- pregraphs as three frozensets of pairs ---------------------------------------


def _norm_pairs(pairs, n):
    out = set()
    for p in pairs:
        u, v = p
        if u == v:
            raise ValueError(f"loop ({u}, {v}) is not an edge")
        q = (u, v) if u < v else (v, u)
        if not 0 <= q[0] < q[1] < n:
            raise ValueError(f"pair {q} outside vertex range 0..{n - 1}")
        out.add(q)
    return frozenset(out)


@dataclass(frozen=True)
class FrozensetPregraph:
    """A pregraph stored as the frozensets of sorted pairs of M, E and N,
    compared and hashed by them, with the library constructor's checks.
    The naive functions that read p.mixed, p.fixed and p.neutral take it
    in place of a Pregraph."""

    n: int
    mixed: frozenset
    fixed: frozenset
    neutral: frozenset = frozenset()

    def __post_init__(self):
        for name in ("mixed", "fixed", "neutral"):
            object.__setattr__(self, name, _norm_pairs(getattr(self, name), self.n))
        if self.mixed & self.fixed or self.mixed & self.neutral or self.fixed & self.neutral:
            raise ValueError("mixed, fixed, and neutral edge sets must be disjoint")

    def e_m(self):
        return len(self.mixed)

    def e_e(self):
        return len(self.fixed)

    def to_text(self):
        lines = [f"n {self.n}"]
        for tag, pairs in (("M", self.mixed), ("E", self.fixed), ("N", self.neutral)):
            lines.extend(f"{tag} {u} {v}" for u, v in sorted(pairs))
        return "\n".join(lines) + "\n"


def near_clique_scan_by_subsets(p, eps):
    """(U, sizes): U the first subset, as a bitmask, that almost_split_by_subset_scan
    accepts, or None; sizes the set of |U| over the subsets U with
    e(E) <= C(|U|,2), e_E(U) >= (1-eps) C(|U|,2) and e_M(rest) above
    7 sqrt(eps) n |U|, testing each of the 2^n subsets in a Python loop."""
    e_e = subset_pair_counts_by_peeling(p.n, p.fixed)
    e_m = subset_pair_counts_by_peeling(p.n, p.mixed)
    full = (1 << p.n) - 1
    first, sizes = None, set()
    for umask in range(1 << p.n):
        size = umask.bit_count()
        pairs = math.comb(size, 2)
        if len(p.fixed) > pairs or e_e[umask] < (1 - eps) * pairs:
            continue
        if first is None and e_m[full ^ umask] <= 7 * math.sqrt(eps) * size * p.n:
            first = umask
        if e_m[full ^ umask] > 7 * math.sqrt(eps) * p.n * size:
            sizes.add(size)
    return first, frozenset(sizes)


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


def good_c4_stream(p):
    """The good copies of C4 of a Pregraph on pair masks, one GoodC4 at a
    time: quads in lexicographic order and, within one, the diagonal pairs
    ab+cd, ac+bd, ad+bc in that order, with each quad's six pair bits
    rebuilt from its pair indices."""
    undecided = p.M | p.N
    for quad in itertools.combinations(range(p.n), 4):
        pairs = tuple(itertools.combinations(quad, 2))  # sorted pairs, in sorted order
        bits = [1 << _pair_index(u, v) for u, v in pairs]
        span = sum(bits)
        if span & p.E:
            continue
        for i, j in ((0, 5), (1, 4), (2, 3)):
            cycle = span ^ bits[i] ^ bits[j]
            if cycle & p.M != cycle:
                continue
            yield GoodC4(tuple(e for k, e in enumerate(pairs) if k != i and k != j),
                         tuple(pairs[k] for k in (i, j) if bits[k] & undecided))


def build_constraint_hypergraphs_by_stream(p):
    """H_0, H_1, H_2 of a Pregraph on pair masks, one validated add per copy
    of good_c4_stream, encoded by Constraint.make over the sorted ground of
    the mixed and neutral pairs.  Returns a ConstraintSystem."""
    ground = tuple(sorted(p.mixed | p.neutral))
    index = {e: k for k, e in enumerate(ground)}
    hs = [UniformHypergraph(i, 4, len(ground)) for i in range(3)]
    for copy in good_c4_stream(p):
        hs[copy.i].add(Constraint.make((index[e] for e in copy.extra_mixed),
                                       (index[e] for e in copy.cycle_edges)))
    return ConstraintSystem(ground, *hs)


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


def add_to_gstar_all_classes(proc, key, mult):
    """ContainerProcess._add_to_gstar counting every size class: the degree
    of each of the 2^(k0+k1) - 1 sub-pairs of key against the full
    saturation table of the round's k*.  Returns the newly saturated pairs."""
    proc.gstar[key] += mult
    fresh = []
    for (l0, l1), thr in proc.sched.saturation_thresholds(*proc.k_star).items():
        for s0 in itertools.combinations(key[0], l0):
            for s1 in itertools.combinations(key[1], l1):
                pair = (s0, s1)
                proc.pair_deg[pair] += mult
                if proc.pair_deg[pair] >= thr and pair not in proc.saturated:
                    proc.saturated.add(pair)
                    fresh.append(pair)
    return fresh


class DictContainerProcess:
    """The container round game on dicts, Counters and sets, the layout the
    engine kept before its rounds moved to bitmasks: the reference the
    bitmask ContainerProcess is compared with, answer by answer.

    ``active`` maps each live constraint key to its multiplicity, ``cdeg``
    counts the live c-side degrees, and ``incidence[side][u]`` is the set of
    the round's keys with u on that side.  The thresholds are the half-cap
    ceilings of ``delta_by_fraction_products`` on the undominated size
    classes, a round closes on a cylinder when e(G*) < beta_s e(H) by
    ``beta_by_fractions``, and a fresh pair whose sub-pair one element
    smaller is saturated dooms nothing new (its keys left with the sub-pair).
    The base row of the caps is ``h.degree_table()``.  K is not read: only
    parameters with b <= m <= v(H) whose degree condition holds are
    supported, so the result reports ``hypothesis_ok``.
    """

    def __init__(self, h, b, m, r):
        self.n, self.e_h, self.h_k0, self.h_k1 = h.n_vertices, h.e(), h.k0, h.k1
        assert 1 <= b <= m <= self.n
        self.b, self.m, self.r = b, m, r
        self.sched = types.SimpleNamespace(k0=h.k0, k1=h.k1, b=b, m=m, v=self.n, base=h.degree_table())
        self.s, self.s0, self.s1 = 0, set(), set()
        self.done, self.cylinder, self.question = False, None, None
        self._open_round({c.key(): mult for c, mult in h.constraints()}, h.k0, h.k1)

    def _open_round(self, edges, i0, i1):
        self.c = 1 if i1 > 0 else 0
        self.k_star = (i0 - 1, i1) if self.c == 0 else (i0, i1 - 1)
        full = {
            (l0, l1): math.ceil(delta_by_fraction_products(self.sched, *self.k_star, l0, l1) / 2)
            for l0 in range(self.k_star[0] + 1)
            for l1 in range(self.k_star[1] + 1)
            if (l0, l1) != (0, 0)
        }
        self.thresholds = {
            (l0, l1): t
            for (l0, l1), t in full.items()
            if full.get((l0 - 1, l1), t + 1) > t and full.get((l0, l1 - 1), t + 1) > t
        }
        self.active = dict(edges)
        self.cdeg = Counter()
        self.incidence = ([set() for _ in range(self.n)], [set() for _ in range(self.n)])
        for key, mult in edges.items():
            for u in key[self.c]:
                self.cdeg[u] += mult
            for side, part in zip(self.incidence, key):
                for u in part:
                    side[u].add(key)
        self.gstar, self.pair_deg, self.saturated = Counter(), Counter(), set()
        self.yes, self.no = [], []

    def pending(self):
        if self.done:
            return None
        if self.question is None:
            best_v, best_d = -1, 0
            for v, d in self.cdeg.items():
                if d > best_d or (d == best_d and v < best_v):
                    best_v, best_d = v, d
            self.question = (best_v, self.c)
        return self.question

    def _remove_key(self, key):
        mult = self.active.pop(key)
        for u in key[self.c]:
            self.cdeg[u] -= mult
            if self.cdeg[u] == 0:
                del self.cdeg[u]
        return mult

    def _add_to_gstar(self, key, mult):
        self.gstar[key] += mult
        fresh = []
        for (l0, l1), thr in self.thresholds.items():
            for s0 in itertools.combinations(key[0], l0):
                for s1 in itertools.combinations(key[1], l1):
                    pair = (s0, s1)
                    self.pair_deg[pair] += mult
                    if self.pair_deg[pair] >= thr and pair not in self.saturated:
                        self.saturated.add(pair)
                        fresh.append(pair)
        return fresh

    def _doomed(self, fresh):
        hits = set()
        inc0, inc1 = self.incidence
        for t0, t1 in fresh:
            if t0 and any((s, t1) in self.saturated for s in itertools.combinations(t0, len(t0) - 1)):
                continue
            if t1 and any((t0, s) in self.saturated for s in itertools.combinations(t1, len(t1) - 1)):
                continue
            sets = sorted([inc0[u] for u in t0] + [inc1[u] for u in t1], key=len)
            hits.update(sets[0].intersection(*sets[1:]))
        return [key for key in self.active if key in hits]

    def answer(self, yes):
        v, c = self.pending()
        self.question = None
        fresh = []
        hit = [key for key in self.incidence[c][v] if key in self.active]
        (self.yes if yes else self.no).append(v)
        for key in hit:
            mult = self._remove_key(key)
            if yes:
                a0, a1 = key
                if c == 0:
                    reduced = (tuple(x for x in a0 if x != v), a1)
                else:
                    reduced = (a0, tuple(x for x in a1 if x != v))
                fresh.extend(self._add_to_gstar(reduced, mult))
        for key in self._doomed(fresh):
            self._remove_key(key)
        if len(self.yes) == self.b or not self.active:
            self._close_round()

    def _close_round(self):
        (self.s1 if self.c == 1 else self.s0).update(self.yes)
        beta = beta_by_fractions(self.h_k0, self.h_k1, self.b, self.m, self.n, self.s + 1)
        if sum(self.gstar.values()) < beta * self.e_h:
            labels = [None] * self.n
            for v in self.no:
                labels[v] = 1 - self.c
            self.cylinder = Cylinder(tuple(labels))
            self.done = True
            return
        if self.s + 1 >= self.h_k0 + self.h_k1:
            raise PreconditionError("no round budget left with a non-empty reduced hypergraph")
        self.s += 1
        self._open_round(self.gstar, *self.k_star)

    def result(self):
        assert self.done
        return ContainerResult(
            Fingerprint.make(self.s0, self.s1), self.cylinder, True, self.b, self.m, self.r, self.s + 1
        )


def beta_by_fractions(k0, k1, b, m, v, s):
    """The share beta_s of e(H) below which round s - 1 of the container
    game closes on a cylinder: 2^(-s(k0+k1+1)) (b/v)^min(k1,s)
    (b/m)^max(0,s-k1), as a product of Fraction powers."""
    alpha = Fraction(1, 2 ** (s * (k0 + k1 + 1)))
    return alpha * Fraction(b, v) ** min(k1, s) * Fraction(b, m) ** max(0, s - k1)


def delta_by_fraction_products(sched, i0, i1, l0, l1):
    """The closed-form cap Delta^(i0,i1)_(l0,l1) of a DeltaSchedule as a max
    of Fraction products, one power of 2, b/v and b/m per term."""
    bv = Fraction(sched.b, sched.v)
    bm = Fraction(sched.b, sched.m)
    best = Fraction(0)
    for d0 in range(sched.k0 - i0 + 1):
        for d1 in range(sched.k1 - i1 + 1):
            val = (
                Fraction(2) ** (d0 + d1)
                * bv ** (sched.k1 - i1 - d1)
                * bm ** (sched.k0 - i0 - d0)
                * Fraction(sched.base[(l0 + d0, l1 + d1)])
            )
            if val > best:
                best = val
    return best


def delta_by_recursion(sched, i0, i1, l0, l1):
    """The cap Delta^(i0,i1)_(l0,l1) of a DeltaSchedule by the literal
    max-of-two recursion over its base, b, m and v: the base row at
    (k0, k1); max(2 Delta_(l0,l1+1), (b/v) Delta_(l0,l1)) of index
    (k0, i1 + 1) along the k1 leg; max(2 Delta_(l0+1,l1), (b/m) Delta_(l0,l1))
    of index (i0 + 1, 0) along the k0 leg."""

    @functools.cache
    def rec(i0, i1, l0, l1):
        if (i0, i1) == (sched.k0, sched.k1):
            return Fraction(sched.base[(l0, l1)])
        if i0 == sched.k0:
            return max(2 * rec(i0, i1 + 1, l0, l1 + 1),
                       Fraction(sched.b, sched.v) * rec(i0, i1 + 1, l0, l1))
        return max(2 * rec(i0 + 1, 0, l0 + 1, l1),
                   Fraction(sched.b, sched.m) * rec(i0 + 1, 0, l0, l1))

    return rec(i0, i1, l0, l1)


def drive_checking_degree_caps(proc, bits):
    """Answer every question of a ContainerProcess from bits and check the
    lemma's degree caps on each round's reduced hypergraph G*.

    G* of a round is (k*)-uniform, with k* read before the answer that closes
    the round: ``gstar`` once the process is done, ``active`` once the next
    round has opened.  Each Delta_(l0,l1)(G*) must be at most
    Delta^(k*)_(l0,l1) of the schedule.  Returns the number of rounds checked.
    """
    rounds = 0
    while (q := proc.pending()) is not None:
        v, c = q
        s, (i0, i1) = proc.s, proc.k_star
        proc.answer(bits[v] == c)
        if proc.done:
            gstar = proc.gstar
        elif proc.s != s:
            gstar = proc.active
        else:
            continue
        rounds += 1
        if (i0, i1) == (0, 0):
            continue
        g = UniformHypergraph(i0, i1, proc.n)
        for (a0, a1), mult in gstar.items():
            g.add(Constraint(a0, a1), mult)
        for l0 in range(i0 + 1):
            for l1 in range(i1 + 1):
                if (l0, l1) == (0, 0):
                    continue
                got = max_degree_by_subtuples(g, l0, l1)
                cap = proc.sched.delta(i0, i1, l0, l1)
                assert got <= cap, f"round {s}: Delta_({l0},{l1}) = {got} > {cap}"
    return rounds


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
    header (one character up to n = 62, else '~' and three characters).
    The bits are read from the mask's binary digits, reversed, so the time
    stays linear in C(n, 2)."""
    npairs = n * (n - 1) // 2
    if n < 0 or n > 258047 or mask < 0 or mask >> npairs:
        raise ValueError("out of range")
    digits = format(mask, "b")[::-1]
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~"] + [chr(((n >> s) & 63) + 63) for s in (12, 6, 0)]
    for start in range(0, npairs, 6):
        group = 0
        for i in range(6):
            k = start + i
            bit = int(digits[k]) if k < len(digits) else 0
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


def draw_by_full_shuffle(n, m_prime, seed, attempt):
    """The pair indices of one draw of the deletion sampler: the first
    m_prime entries of list(range(C(n,2))) after a partial Fisher-Yates
    shuffle seeded with blake2b("seed:attempt")."""
    npairs = n * (n - 1) // 2
    digest = hashlib.blake2b(f"{seed}:{attempt}".encode(), digest_size=8).digest()
    rng = random.Random(int.from_bytes(digest, "big"))
    arr = list(range(npairs))
    for i in range(m_prime):
        j = rng.randrange(i, npairs)
        arr[i], arr[j] = arr[j], arr[i]
    return arr[:m_prime]


def codegrees_by_wedge_counter(n, nbrs):
    """The codegree of every pair u < v with a common neighbour, keyed by
    u * n + v: a Counter over each vertex's pairs of neighbours, given the
    neighbour lists nbrs."""
    return Counter(u * n + v for ws in nbrs for u, v in itertools.combinations(sorted(ws), 2))


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
        drawn = draw_by_full_shuffle(n, m_prime, seed, attempt)
        mask = 0
        for k in drawn:
            mask |= 1 << k
        adj = [0] * n
        for k in drawn:
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


def adjacency_masks_by_pair_tests(g):
    """Per-vertex neighbor bitmasks of a LabeledGraph, testing the mask bit
    of every ordered pair (v, w) on its own."""
    return [
        sum(1 << w for w in range(g.n) if w != v and (g.mask >> _pair_index(v, w)) & 1)
        for v in range(g.n)
    ]


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


# -- split counts over every clique side -----------------------------------------


def gammaln_log_factorial(j):
    """ln j! as scipy's log-gamma of j + 1, for scalars or arrays."""
    return gammaln(np.asarray(j, dtype=np.float64) + 1)


def log_n_nm_full_vector(n, m, log_factorial=_log_factorial):
    """log N_{n,m}(ell) by log-factorials for every ell = 0..n, -inf where
    the float test C(ell,2) <= m <= ell(n-ell) + C(ell,2) fails."""
    ells = np.arange(0, n + 1, dtype=np.float64)
    cross = ells * (n - ells)
    k = m - ells * (ells - 1) / 2
    ok = (k >= 0) & (k <= cross)
    logs = np.full(n + 1, -np.inf)
    a = cross[ok]
    kk = k[ok]
    logs[ok] = log_factorial(a) - log_factorial(kk) - log_factorial(a - kk)
    return logs


def snm_bounds_by_full_vector(n, m):
    """(lower, upper) floats of snm_bounds from the full masked vector."""
    logs = log_n_nm_full_vector(n, m)
    lower = float(np.max(logs))
    if lower == -math.inf:
        return lower, lower
    ells = np.arange(0, n + 1, dtype=np.float64)
    choose = _log_factorial(n) - _log_factorial(ells) - _log_factorial(n - ells)
    terms = logs + choose
    top = float(np.max(terms))
    return lower, top + math.log(float(np.sum(np.exp(terms - top))))


def argmax_n_nm_by_full_scan(n, m, lam, log_factorial=_log_factorial):
    """argmax_ell N_{n,m}(ell), smallest on ties, from a log-factorial vector
    over every ell = 0..n with -inf at the infeasible ones."""
    if m <= n:
        raise PreconditionError(f"fixed-point regime needs m > n, got n={n}, m={m}")
    if m > lam * n * n:
        raise PreconditionError(
            f"fixed-point regime needs m <= lambda*n^2 = {lam * n * n:.6g}, got m={m}"
        )
    logs = log_n_nm_full_vector(n, m, log_factorial)
    best = int(np.argmax(logs))
    if logs[best] == -np.inf:
        raise PreconditionError(f"no feasible clique side for n={n}, m={m}")
    return best


def ratio_a_by_perms(n, m, ell):
    """(A)_k / (B)_k with A = (ell+1)(n-ell-1), B = ell(n-ell) and
    k = m - C(ell+1,2), as two falling factorials of length k."""
    k = m - math.comb(ell + 1, 2)
    return Fraction(math.perm((ell + 1) * (n - ell - 1), k), math.perm(ell * (n - ell), k))


def verify_coverage_by_leaf_scan(tree, members):
    """(covered, total) for a container tree: how many of the given member
    edge masks lie in at least one leaf pregraph (E <= g <= E | M), testing
    every member against every leaf.  Unlike a top-down filter it never
    looks at internal nodes."""
    members = np.asarray(members, dtype=np.int64)
    covered = np.zeros(len(members), dtype=bool)
    for leaf in tree.leaves():
        p = leaf.pregraph
        e_mask = 0
        for u, v in p.fixed:
            e_mask |= 1 << _pair_index(u, v)
        me_mask = e_mask
        for u, v in p.mixed:
            me_mask |= 1 << _pair_index(u, v)
        covered |= ((members & e_mask) == e_mask) & ((members & ~me_mask) == 0)
    return int(covered.sum()), len(members)


_DISCARD_CASE = {"e_overflow": "case_1", "m_underflow": "case_1", "ratio_leaf": "case_2"}


def classify_leaves_by_retest(tree):
    """Leaf buckets as {almost_split, discarded, fallback} -> list of
    (node_id, kind, case, members, log_count) tuples, re-running the
    almost-split test on every leaf by the full subset scan, whatever the
    build recorded."""
    eps, m = tree.params.eps, tree.params.m
    out = {"almost_split": [], "discarded": [], "fallback": []}
    for leaf in tree.leaves():
        p = leaf.pregraph
        free = m - len(p.fixed)
        feasible = 0 <= free <= len(p.mixed)
        log_count = math.log(math.comb(len(p.mixed), free)) if feasible else float("-inf")
        if almost_split_by_subset_scan(p, eps) is not None:
            bucket, case = "almost_split", "almost_split"
        elif leaf.status == "leaf" and leaf.classification in _DISCARD_CASE:
            bucket, case = "discarded", _DISCARD_CASE[leaf.classification]
        else:
            bucket, case = "fallback", "fallback"
        out[bucket].append((leaf.node_id, leaf.classification, case, leaf.members, log_count))
    return out
