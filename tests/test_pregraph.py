"""Pregraphs: good 4-cycles, the constraint system they generate,
saturation preprocessing, the permissible greedy, and leaf classification."""

import itertools
import json
import math
import random
import tracemalloc
import warnings
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from c4containers import (
    Assignment,
    Constraint,
    PreconditionError,
    Pregraph,
    build_constraint_hypergraphs,
    build_permissible,
    close_to_clique_cost,
    complete_pregraph,
    good_c4_enumerate,
    is_almost_split_pregraph,
    is_leaf_pregraph,
    m_underflow_threshold,
    preprocess_saturation,
)
from c4containers import pregraph
from c4containers.graph6 import pair_index
from c4containers.hypergraph import UniformHypergraph
from c4containers.pregraph import (
    EXACT_SUBSET_LIMIT,
    _adjacency,
    _concentrated_ell,
    _near_clique_scan,
    _saturation_caps,
    _subset_pair_counts,
)
from c4containers.tree import TreeParams


def random_pregraph(rng, n, n_mixed, n_fixed):
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    return Pregraph(n, frozenset(pairs[:n_mixed]), frozenset(pairs[n_mixed : n_mixed + n_fixed]))


def test_pregraph_normalizes_and_rejects_overlap():
    p = Pregraph(4, [(1, 0)], [(3, 2)])
    assert p.mixed == frozenset({(0, 1)})
    assert p.fixed == frozenset({(2, 3)})
    with pytest.raises(ValueError):
        Pregraph(4, [(0, 1)], [(1, 0)])
    with pytest.raises(ValueError):
        Pregraph(3, [(0, 3)], [])


def test_pregraph_text_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        p = random_pregraph(rng, 6, 5, 3)
        assert Pregraph.from_text(p.to_text()) == p


def test_complete_pregraph_shape():
    p = complete_pregraph(5)
    assert p.e_m() == 10
    assert p.e_e() == 0


def test_k4_pregraph_has_three_good_copies():
    copies = good_c4_enumerate(complete_pregraph(4))
    assert len(copies) == 3
    for copy in copies:
        assert copy.i == 2  # both diagonals of the cycle stay mixed
        assert len(copy.extra_mixed) == 2
        assert copy.vertices() == (0, 1, 2, 3)


def test_good_copies_match_naive_cycle_scan():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(4, 8)
        p = random_pregraph(rng, n, rng.randint(0, 12), rng.randint(0, 4))
        got = sorted(c.cycle_edges for c in good_c4_enumerate(p))
        expected = []
        for a, b, c, d in naive.good_c4_cycles(p):
            edges = [naive.pair_key(*e) for e in [(a, b), (b, c), (c, d), (d, a)]]
            expected.append(tuple(sorted(edges)))
        assert got == sorted(expected)


def test_fixed_edge_inside_quad_disqualifies():
    p = Pregraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 2)])
    assert good_c4_enumerate(p) == []


def test_constraint_system_shapes():
    p = complete_pregraph(5)
    sys = build_constraint_hypergraphs(p)
    assert sys.ground == tuple(sorted(p.mixed))
    for i, h in enumerate(sys):
        assert (h.k0, h.k1) == (i, 4)
        assert h.n_vertices == p.e_m()
    # every good copy lands in exactly one bucket
    copies = good_c4_enumerate(p)
    assert sum(h.e() for h in sys) == len(copies)
    assert sys.h2.e() == len([c for c in copies if c.i == 2])


def test_constraint_system_inserts_the_good_copies_in_list_order():
    """H_i holds the good copies of good_c4_enumerate's list with i extra
    mixed edges, added in the list's order, so each H_i iterates its
    constraints (and numbers them in the engine's round-0 index) in that
    order."""
    rng = random.Random(24)
    pregraphs = [complete_pregraph(n) for n in (4, 7, 9)]
    pregraphs += [random_three_part_pregraph(rng, rng.randint(5, 9), 6, 6) for _ in range(20)]
    for p in pregraphs:
        system = build_constraint_hypergraphs(p)
        index = {e: k for k, e in enumerate(system.ground)}
        want = [[] for _ in range(3)]
        for copy in good_c4_enumerate(p):
            want[copy.i].append(
                Constraint.make((index[e] for e in copy.extra_mixed), (index[e] for e in copy.cycle_edges))
            )
        for h, constraints in zip(system, want):
            assert [(c, mult) for c, mult in h.constraints()] == [(c, 1) for c in constraints]


def stream_build_pregraphs(n, rng):
    """Pregraphs on n vertices: complete, all fixed, all neutral, and four
    seeded mixes of M, E, N and pairs in none of them."""
    pairs = list(itertools.combinations(range(n), 2))
    out = [complete_pregraph(n), Pregraph(n, (), pairs), Pregraph(n, (), (), pairs)]
    for weights in ((8, 1, 1, 1), (6, 0, 3, 1), (4, 2, 1, 2), (1, 1, 1, 1)):
        tags = rng.choices("MEN.", weights, k=len(pairs))
        out.append(Pregraph(n, *([e for e, t in zip(pairs, tags) if t == tag] for tag in "MEN")))
    return out


@pytest.mark.parametrize("block", [None, 7])
def test_numpy_pass_matches_the_stream_build(monkeypatch, block):
    """The blocked numpy pass against the copy-at-a-time stream build of
    naive.build_constraint_hypergraphs_by_stream, n = 0..16: the same
    ground, the same (constraint, multiplicity) items of each H_i in the
    same insertion order, every stored vertex and multiplicity a Python
    int, and the same good_c4_enumerate list.  The greedy's cursor, read
    unfiltered, meets the copies in the list's order with their masks and
    ground positions.  7-quad blocks put block ends inside the quads of
    every n from 6 on."""
    if block is not None:
        monkeypatch.setattr(pregraph, "_QUAD_BLOCK", block)
    rng = random.Random(27)
    for n in range(17 if block is None else 11):
        for p in stream_build_pregraphs(n, rng):
            system = build_constraint_hypergraphs(p)
            want = naive.build_constraint_hypergraphs_by_stream(p)
            assert system.ground == want.ground
            for h, h_want in zip(system, want):
                items = list(h.constraints())
                assert items == list(h_want.constraints())
                for c, mult in items:
                    assert type(mult) is int and all(type(v) is int for v in c.a0 + c.a1)
            copies = good_c4_enumerate(p)
            assert copies == list(naive.good_c4_stream(p))
            index = {e: k for k, e in enumerate(system.ground)}
            bits = [pair_index(*e) for e in system.ground]
            assert list(pregraph._good_c4_stream(p, bits)) == [
                (sum(1 << pair_index(*e) for e in copy.cycle_edges),
                 sum(1 << pair_index(*e) for e in copy.extra_mixed),
                 tuple(index[e] for e in copy.extra_mixed),
                 tuple(index[e] for e in copy.cycle_edges))
                for copy in copies
            ]


def test_permissible_cursor_stops_without_materialising_the_copies():
    """K_200 has 64.7 million quads; the greedy meets beta*l^4 = 0.5 at its
    first insertion, and its cursor holds no copy it has not reached."""
    p = complete_pregraph(200)
    tracemalloc.start()
    try:
        result = build_permissible(p, 1, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.succeeded and result.insertions == 1
    assert peak < 10 * 2**20


def realized_good_copy(p, chosen):
    """Reference semantics: some 4-cycle of chosen mixed edges spans no
    fixed edge and has neither diagonal chosen."""
    chosen = set(chosen)
    for a, b, c, d in naive.four_cycles(p.n, lambda u, v: naive.pair_key(u, v) in chosen):
        quad = (a, b, c, d)
        if any(naive.pair_key(u, v) in p.fixed for u, v in itertools.combinations(quad, 2)):
            continue
        if naive.pair_key(a, c) in chosen or naive.pair_key(b, d) in chosen:
            continue
        return True
    return False


def test_constraint_violation_equals_realized_copy():
    """An edge selection violates the constraint system exactly when it
    realizes a good copy as an induced 4-cycle."""
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(4, 6)
        p = random_pregraph(rng, n, rng.randint(4, 9), rng.randint(0, 3))
        sys = build_constraint_hypergraphs(p)
        ground = sys.ground
        for mask in range(1 << len(ground)):
            bits = [(mask >> i) & 1 for i in range(len(ground))]
            chosen = [e for e, b in zip(ground, bits) if b]
            a = Assignment.from_bits(bits)
            violated = not all(a.in_solution_set(h) for h in sys)
            assert violated == realized_good_copy(p, chosen)


def test_saturation_thresholds():
    c = ((), (0, 1, 2, 3))
    h = UniformHypergraph(0, 4, 10, [c, c, c, c, c])
    deg_01, deg_02 = naive.constraint_degree(h, (), (0,)), naive.constraint_degree(h, (), (0, 1))
    assert deg_01 == deg_02 == 5
    # shape (0,1): threshold max(l^3 // n, 1)
    assert _saturation_caps(ell=3, n=10)[1] == 2 <= deg_01  # 27//10
    assert _saturation_caps(ell=6, n=10)[1] == 21 > deg_01  # 216//10
    assert _saturation_caps(ell=2, n=10)[1] == 1  # 8//10 = 0, clamped
    # shape (0,2): threshold l
    assert _saturation_caps(ell=5, n=10)[2] == 5 <= deg_02
    assert _saturation_caps(ell=6, n=10)[2] == 6 > deg_02
    h1 = UniformHypergraph(1, 4, 10, [((0,), (1, 2, 3, 4)), ((0,), (1, 2, 3, 5))])
    deg_10 = naive.constraint_degree(h1, (0,), ())
    assert deg_10 == 2
    # shape (1,0): threshold l^2
    assert _saturation_caps(ell=1, n=10)[0] == 1 <= deg_10
    assert _saturation_caps(ell=2, n=10)[0] == 4 > deg_10


def test_preprocess_saturation_moves_edges():
    p = Pregraph(4, list(itertools.combinations(range(4), 2)), [])
    ground = tuple(sorted(p.mixed))
    h0 = UniformHypergraph(0, 4, 6, [((), (2, 3, 4, 5))])
    h1 = UniformHypergraph(1, 4, 6, [((0,), (1, 2, 3, 4))])
    h2 = UniformHypergraph(2, 4, 6)
    out = preprocess_saturation(p, h0, h1, h2, ell=1)
    # ell=1: ground[0] is A-side saturated in h1 and becomes fixed; the
    # B-side vertices of h0 and h1 go neutral, fixed winning on overlap
    assert out.fixed == p.fixed | {ground[0]}
    assert out.neutral == {ground[k] for k in (1, 2, 3, 4, 5)}
    assert out.mixed == frozenset()


def random_three_part_pregraph(rng, n, max_fixed, max_neutral):
    """At least four mixed pairs, then up to max_fixed fixed and up to
    max_neutral neutral ones, the rest of the pairs absent."""
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    k_m = rng.randint(4, len(pairs))
    k_e = rng.randint(0, min(max_fixed, len(pairs) - k_m))
    k_n = rng.randint(0, min(max_neutral, len(pairs) - k_m - k_e))
    return Pregraph(n, pairs[:k_m], pairs[k_m : k_m + k_e], pairs[k_m + k_e : k_m + k_e + k_n])


def test_preprocess_saturation_agrees_with_the_greedy():
    """Both callers of the neutralization rule, the one-pass adaptor and the
    greedy's incremental degrees, give the same pregraph."""
    rng = random.Random(31)
    to_fixed = to_neutral = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        p = random_three_part_pregraph(rng, n, 2, 3)
        ell = rng.randint(1, n)
        res = build_permissible(p, ell, beta=rng.choice([0.01, 0.05, 0.5]))
        assert preprocess_saturation(p, *res.system, ell) == res.preprocessed
        to_fixed += res.preprocessed.fixed != p.fixed
        to_neutral += res.preprocessed.neutral != p.neutral
    # both branches of the rule fire on this seed
    assert to_fixed >= 3 and to_neutral >= 10


def test_permissible_on_the_complete_pregraph():
    res = build_permissible(complete_pregraph(7), ell=4, beta=0.01)
    assert res.succeeded
    h = res.hypergraph
    n = 7
    assert h.e() >= 0.01 * 4**4
    assert Fraction(h.max_degree(0, 1)) <= Fraction(4**3, n)
    assert h.max_degree(0, 2) <= 4
    if res.i > 0:
        assert h.max_degree(1, 0) <= 4**2
    # the greedy is deterministic
    again = build_permissible(complete_pregraph(7), ell=4, beta=0.01)
    assert again.i == res.i and again.hypergraph == h
    assert again.insertions == res.insertions


def test_permissible_caps_on_random_instances():
    rng = random.Random(23)
    successes = 0
    for _ in range(40):
        n = rng.randint(5, 8)
        p = random_pregraph(rng, n, rng.randint(6, n * (n - 1) // 2), rng.randint(0, 2))
        ell = rng.randint(max(2, math.ceil(n ** (1 / 3))), n)
        res = build_permissible(p, ell, beta=0.02)
        if not res.succeeded:
            continue
        successes += 1
        h = res.hypergraph
        assert h.e() >= 0.02 * ell**4
        assert Fraction(h.max_degree(0, 1)) <= Fraction(ell**3, n)
        assert h.max_degree(0, 2) <= ell
        if res.i > 0:
            assert h.max_degree(1, 0) <= ell**2
    assert successes >= 10


def assert_same_permissible(got, want):
    assert (got.status, got.i, got.insertions) == (want.status, want.i, want.insertions)
    assert got.preprocessed.to_text() == want.preprocessed.to_text()
    assert got.system.ground == want.system.ground
    for h, ref in zip(got.system, want.system):
        assert h.to_text() == ref.to_text()
        assert list(h.constraints()) == list(ref.constraints())  # insertion order
    assert got.hypergraph == want.hypergraph


def test_permissible_matches_the_rescan_on_random_pregraphs():
    rng = random.Random(47)
    outcomes = Counter()
    for _ in range(60):
        p = random_three_part_pregraph(rng, rng.randint(4, 10), 3, 4)
        ell = rng.randint(1, p.n)
        beta = rng.choice([0.01, 0.05, 0.5])
        got = build_permissible(p, ell, beta)
        assert_same_permissible(got, naive.build_permissible_by_rescan(p, ell, beta))
        assert_same_permissible(got, naive.build_permissible_by_cursor(p, ell, beta))
        outcomes[got.status] += 1
        outcomes["to E"] += got.preprocessed.fixed != p.fixed
        outcomes["to N"] += got.preprocessed.neutral != p.neutral
    assert all(outcomes[kind] >= 5 for kind in ("success", "exhausted", "to E", "to N")), outcomes


def test_permissible_matches_the_rescan_on_complete_pregraphs():
    # the rescan is quadratic in the insertions: above n = 8 a run that
    # exhausts all C(n,4)*3 copies takes it seconds, so there only targets
    # of at most 100 constraints are compared
    for n in range(4, 13):
        p = complete_pregraph(n)
        for ell in range(1, n + 1):
            for beta in (0.01, 0.1, 1):
                if n > 8 and beta * ell**4 > 100:
                    continue
                got = build_permissible(p, ell, beta)
                assert_same_permissible(got, naive.build_permissible_by_rescan(p, ell, beta))


def test_permissible_exhausts_without_cycles():
    star = Pregraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [])
    res = build_permissible(star, ell=2, beta=0.5)
    assert res.status == "exhausted"
    assert res.insertions == 0
    assert res.hypergraph is None


@pytest.mark.parametrize("n", [0, 1])
def test_pregraphs_without_pairs_exhaust_and_stay_unchanged(n):
    """n = 0 has no pairs, as n = 1 has none: the greedy exhausts after no
    insertion, and neutralization moves nothing."""
    p = complete_pregraph(n)
    res = build_permissible(p, ell=1, beta=0.5)
    assert (res.status, res.insertions, res.hypergraph) == ("exhausted", 0, None)
    assert res.preprocessed == p
    assert preprocess_saturation(p, *build_constraint_hypergraphs(p), ell=1) == p
    assert _saturation_caps(3, n) == _saturation_caps(3, 1) == (9, 27, 3)


def test_permissible_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        build_permissible(complete_pregraph(5), ell=0, beta=0.1)
    for beta in (0.0, math.nan, math.inf):  # NaN or inf would run the greedy to exhaustion
        with pytest.raises(PreconditionError):
            build_permissible(complete_pregraph(5), ell=2, beta=beta)


def test_almost_split_fixtures():
    # E a 4-clique, two mixed edges outside: the (U, W) split exists
    p = Pregraph(
        7,
        [(4, 5), (4, 6)],
        list(itertools.combinations(range(4), 2)),
    )
    res = is_almost_split_pregraph(p, 0.01)
    assert res.found and res.exact
    assert set(res.u) >= {0, 1, 2, 3}
    # the complete pregraph has all its mass in M and never splits this way
    assert not is_almost_split_pregraph(complete_pregraph(6), 0.01).found


@pytest.mark.parametrize("n", [7, EXACT_SUBSET_LIMIT + 1])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5, 0.0])
def test_almost_split_rejects_eps_outside_the_positive_reals(eps, n):
    with pytest.raises(PreconditionError):
        is_almost_split_pregraph(complete_pregraph(n), eps)


def test_almost_split_witness_satisfies_the_budget():
    rng = random.Random(97)
    for _ in range(40):
        p = random_pregraph(rng, 6, rng.randint(0, 6), rng.randint(0, 7))
        eps = rng.choice([0.01, 0.05, 0.2])
        res = is_almost_split_pregraph(p, eps)
        assert res.exact
        if not res.found:
            continue
        u, w = set(res.u), set(res.w)
        assert u | w == set(range(6)) and not u & w
        e_u = sum(1 for a, b in p.fixed if a in u and b in u)
        m_w = sum(1 for a, b in p.mixed if a in w and b in w)
        assert p.e_e() <= math.comb(len(u), 2)
        assert e_u >= (1 - eps) * math.comb(len(u), 2)
        assert m_w <= 7 * math.sqrt(eps) * len(u) * p.n


def test_leaf_classification_kinds():
    almost = Pregraph(7, [(4, 5), (4, 6)], list(itertools.combinations(range(4), 2)))
    assert is_leaf_pregraph(almost, 10, 0.01, 0.01).kind == "almost_split"

    matching = [(0, 1), (2, 3), (4, 5), (6, 7)]
    sparse_m = [(0, 2), (1, 3), (0, 4), (1, 5), (2, 4), (3, 5), (0, 6)]
    ratio = Pregraph(8, sparse_m, matching)
    cls = is_leaf_pregraph(ratio, 10, 0.01, 0.01)
    assert cls.kind == "ratio_leaf" and cls.ell == 1

    all_pairs = set(itertools.combinations(range(8), 2))
    overflow = Pregraph(8, sorted(all_pairs - set(matching)), matching)
    assert is_leaf_pregraph(overflow, 3, 0.01, 0.01).kind == "e_overflow"

    pairs = sorted(all_pairs)
    underflow = Pregraph(8, pairs[:20], [])
    assert is_leaf_pregraph(underflow, 63, 0.01, 0.01).kind == "m_underflow"

    assert not is_leaf_pregraph(complete_pregraph(7), 10, 0.01, 0.01).is_leaf


def test_m_underflow_threshold_formula():
    assert m_underflow_threshold(8, 3) == pytest.approx(
        math.sqrt(64 * 3 / (2**8 * math.log(64 / 3)))
    )
    with pytest.raises(PreconditionError):
        m_underflow_threshold(4, 16)
    for m in (0, -3):  # ln(n^2/m) is undefined for m <= 0
        with pytest.raises(PreconditionError):
            m_underflow_threshold(8, m)
    for n in (-3, -1):  # only n^2 enters, so a negative n read as -n
        with pytest.raises(PreconditionError):
            m_underflow_threshold(n, 1)


def test_leaf_classifier_rejects_bad_parameters():
    p = complete_pregraph(5)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 0, 0.01, 0.01)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 5, 0.01, 1.5)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 25, 0.01, 0.01)
    for eps in (math.nan, math.inf):
        with pytest.raises(PreconditionError):
            is_leaf_pregraph(p, 5, eps, 0.01)


def test_clique_cost_matches_naive():
    rng = random.Random(55)
    for _ in range(40):
        n = rng.randint(3, 7)
        edges = frozenset(
            e for e in itertools.combinations(range(n), 2) if rng.random() < 0.45
        )
        ell = rng.randint(1, n)
        res = close_to_clique_cost(n, edges, ell)
        assert res.exact
        assert res.cost == naive.clique_edit_cost(n, edges, ell)
        # the reported subset achieves the reported cost
        s = set(res.subset)
        inside = sum(1 for a, b in edges if a in s and b in s)
        assert res.cost == math.comb(ell, 2) - inside + len(edges) - inside


# -- the fast paths against the slow references --------------------------------


@st.composite
def three_part_pregraphs(draw, min_n, max_n):
    """Pregraphs on min_n..max_n vertices with nonempty M, E and N.  With
    planted set, E lies mostly on a random vertex set U (each pair inside
    with one drawn probability, pairs outside rarely), which makes
    almost-split and near-clique answers common; a hub outside U may add E
    edges to other outsiders, so that the top of the E-degree order is not
    U and the swap searches have work to do.  Otherwise E, M and N are
    spread over random pairs."""
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    planted = draw(st.booleans())
    u = sorted(rng.sample(range(n), draw(st.integers(2, n))))
    p_in = draw(st.sampled_from([0.3, 0.8, 0.95, 1.0]))
    p_out = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    p_m = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    p_n = draw(st.sampled_from([0.0, 0.05, 0.2]))
    outsiders = [v for v in range(n) if v not in u]
    hub_edges = set()
    if planted and outsiders and draw(st.booleans()):
        hub, *rest = outsiders
        hub_edges = {(min(hub, v), max(hub, v)) for v in rest if rng.random() < 0.8}
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    first_e = (u[0], u[1]) if planted else pairs[0]
    pairs.remove(first_e)
    sets = {"E": [first_e], "M": [pairs[0]], "N": [pairs[1]]}
    for a, b in pairs[2:]:
        inside = a in u and b in u
        if (a, b) in hub_edges or rng.random() < ((p_in if inside else p_out) if planted else p_out):
            sets["E"].append((a, b))
        elif rng.random() < p_n:
            sets["N"].append((a, b))
        elif rng.random() < p_m:
            sets["M"].append((a, b))
    return Pregraph(n, sets["M"], sets["E"], sets["N"])


# 0.0625 and 0.25 make 7*sqrt(eps) exact (1.75 and 3.5), so the M budget
# can be met with equality
EPSILONS = st.sampled_from([0.001, 0.01, 0.05, 0.0625, 0.2, 0.25, 0.6])


@settings(max_examples=40, deadline=None)
@given(three_part_pregraphs(3, EXACT_SUBSET_LIMIT))
def test_subset_pair_counts_match_the_peeling_dp(p):
    for pairs, mask in ((p.fixed, p.E), (p.mixed, p.M), (p.neutral, p.N)):
        want = naive.subset_pair_counts_by_peeling(p.n, pairs)
        assert _subset_pair_counts(_adjacency(p.n, mask)).tolist() == want


@pytest.mark.parametrize("n", range(13))
def test_subset_pair_counts_on_both_sides_of_the_base_block(n):
    """The counts of every subset, for n below, at and above the 8-vertex
    base block, on the empty graph, the complete one and random ones."""
    rng = random.Random(n)
    every = list(itertools.combinations(range(n), 2))
    graphs = [[], every] + [[e for e in every if rng.random() < density] for density in (0.2, 0.5, 0.8)]
    for pairs in graphs:
        want = naive.subset_pair_counts_by_peeling(n, pairs)
        got = _subset_pair_counts(_adjacency(n, sum(1 << pair_index(u, v) for u, v in pairs)))
        assert got.dtype == np.int64 and got.tolist() == want
        assert want[-1] == len(pairs)


@settings(max_examples=60, deadline=None)
@given(three_part_pregraphs(3, EXACT_SUBSET_LIMIT), EPSILONS)
def test_exact_almost_split_matches_the_subset_scan(p, eps):
    got = is_almost_split_pregraph(p, eps)
    want = naive.almost_split_by_subset_scan(p, eps)
    assert got.exact
    assert (got.u, got.w) == (want if got.found else (None, None))
    assert got.found == (want is not None)


@settings(max_examples=40, deadline=None)
@given(three_part_pregraphs(3, EXACT_SUBSET_LIMIT), st.data())
def test_exact_clique_cost_matches_the_subset_scan(p, data):
    edges = p.fixed | p.mixed
    ell = data.draw(st.integers(0, p.n))
    got = close_to_clique_cost(p.n, edges, ell)
    assert got.exact
    assert (got.cost, got.subset) == naive.clique_cost_by_subset_scan(p.n, edges, ell)


@settings(max_examples=40, deadline=None)
@given(three_part_pregraphs(6, EXACT_SUBSET_LIMIT), st.sampled_from([0.001, 0.01, 0.05, 0.2]))
def test_exact_concentrated_ell_matches_the_subset_scan(p, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = TreeParams(p.n, 1, eps=eps)
    want = naive.concentrated_ell_by_subset_scan(p, eps, params.r)
    assert _concentrated_ell(p, eps, params.r) == want


def test_exact_concentrated_ell_matches_the_subset_scan_on_planted_cliques():
    """E a clique on k random vertices, one pair short a quarter of the time, and M
    at least half of the other pairs, so that both answers, an ell and None,
    come up often."""
    rng = random.Random(61)
    seen = Counter()
    for _ in range(30):
        n = rng.randint(9, 14)
        u = sorted(rng.sample(range(n), rng.randint(3, n // 3)))
        fixed = list(itertools.combinations(u, 2))[rng.random() < 0.25 :]
        rest = [q for q in itertools.combinations(range(n), 2) if q not in fixed]
        rng.shuffle(rest)
        p = Pregraph(n, rest[1 : rng.randint(len(rest) // 2, len(rest))], fixed, rest[:1])
        eps = rng.choice([0.0001, 0.001, 0.01])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = TreeParams(n, 1, eps=eps)
        got = _concentrated_ell(p, eps, params.r)
        assert got == naive.concentrated_ell_by_subset_scan(p, eps, params.r)
        seen[got is None] += 1
    assert seen[True] >= 5 and seen[False] >= 5, seen


@settings(max_examples=25, deadline=None)
@given(three_part_pregraphs(EXACT_SUBSET_LIMIT + 1, 40), EPSILONS)
def test_almost_split_swaps_match_the_recounting_search(p, eps):
    got = is_almost_split_pregraph(p, eps)
    want = naive.almost_split_by_recounting_swaps(p, eps)
    assert not got.exact
    assert (got.u, got.w) == (want if got.found else (None, None))
    assert got.found == (want is not None)


@settings(max_examples=30, deadline=None)
@given(
    three_part_pregraphs(3, EXACT_SUBSET_LIMIT),
    st.sampled_from([0.001, 0.01, 0.0625]),
    st.sampled_from([0.05, 0.25, 0.6]),
    st.integers(1, 16),
    st.booleans(),
)
def test_leaf_test_and_case_2_read_the_scan_of_their_own_eps(p, eps_a, eps_b, r, leaf_first):
    """The almost-split test and case 2 of the selection share one kept
    near-clique scan.  Called in either order, with two eps taking turns on
    one pregraph, both match the subset-scan references, so an answer kept
    for one eps is never read for the other."""
    want = {
        eps: (naive.almost_split_by_subset_scan(p, eps),
              naive.concentrated_ell_by_subset_scan(p, eps, r))
        for eps in (eps_a, eps_b)
    }
    for eps in (eps_a, eps_b, eps_a, eps_b):
        if leaf_first:
            split = is_almost_split_pregraph(p, eps)
            ell = _concentrated_ell(p, eps, r)
        else:
            ell = _concentrated_ell(p, eps, r)
            split = is_almost_split_pregraph(p, eps)
        assert split.exact and (split.u, split.w) == (want[eps][0] or (None, None))
        assert ell == want[eps][1]


def swap_regime_pregraph(rng, max_n, min_n=EXACT_SUBSET_LIMIT + 1):
    """(pregraph, eps) on min_n..max_n vertices, by default past the exact
    range: E on a random vertex set plus noise outside it, M and N random,
    and a large eps."""
    n = rng.randint(min_n, max_n)
    u = set(rng.sample(range(n), rng.randint(2, n)))
    p_in, p_out = rng.choice([0.3, 0.5, 0.7, 0.9]), rng.choice([0.03, 0.1, 0.2])
    p_m = rng.choice([0.05, 0.2, 0.5, 0.8, 1.0])
    sets = {"E": [], "M": [], "N": []}
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < (p_in if a in u and b in u else p_out):
            sets["E"].append((a, b))
        elif rng.random() < 0.05:
            sets["N"].append((a, b))
        elif rng.random() < p_m:
            sets["M"].append((a, b))
    return Pregraph(n, sets["M"], sets["E"], sets["N"]), rng.choice([0.4, 0.6, 0.8])


def test_almost_split_swaps_match_the_recounting_search_where_swaps_decide():
    """Seeded pregraphs past the exact range, in the regime where a split
    is often found only after swaps (large eps, E on a random vertex set
    plus noise outside it).  The first six whose split is not a prefix of
    the E-degree order, and the first six others, match the recounting
    search."""
    rng = random.Random(83)
    seen = Counter()
    for _ in range(3000):
        if min(seen["swaps"], seen["other"]) >= 6:
            break
        p, eps = swap_regime_pregraph(rng, 28)
        n = p.n
        got = is_almost_split_pregraph(p, eps)
        degree = Counter(v for e in p.fixed for v in e)
        prefix = sorted(range(n), key=lambda v: (-degree[v], v))[: len(got.u or ())]
        kind = "swaps" if got.found and set(got.u) != set(prefix) else "other"
        if seen[kind] < 6:
            seen[kind] += 1
            want = naive.almost_split_by_recounting_swaps(p, eps)
            assert (got.u, got.w) == (want if got.found else (None, None))
    assert seen["swaps"] == seen["other"] == 6, seen


def test_almost_split_swaps_follow_set_iteration_order():
    """The members of U are tried in the iteration order of the Python set,
    which is not sorted order once vertex numbers wrap its hash table.  On
    this instance trying them in sorted order finds (1, 4, 10, 11) instead.
    It was first drawn with sizes from 13, and is kept as drawn."""
    p, eps = swap_regime_pregraph(random.Random(352), 24, min_n=13)
    got = is_almost_split_pregraph(p, eps)
    assert (p.n, eps, got.u) == (17, 0.8, (1, 2, 4, 9))
    assert (got.u, got.w) == naive.almost_split_by_recounting_swaps(p, eps)


def test_almost_split_swaps_try_outsiders_in_e_degree_order():
    """Draws 60, 85 and 178 of the swap-regime pregraphs at seed 83 (n = 21,
    17 and 24) give another split, or for draw 178 a split where there is
    none, when outsiders are tried in index order instead of E-degree order.
    All three match the recounting search."""
    rng = random.Random(83)
    draws = [swap_regime_pregraph(rng, 28) for _ in range(179)]
    for k, n in ((60, 21), (85, 17), (178, 24)):
        p, eps = draws[k]
        got = is_almost_split_pregraph(p, eps)
        want = naive.almost_split_by_recounting_swaps(p, eps)
        assert p.n == n and got.found == (k != 178)
        assert (got.u, got.w) == (want if got.found else (None, None))
        assert got.found == (want is not None)


def test_clique_swaps_try_outsiders_in_ascending_order():
    """The first six swap-regime pregraphs at seed 83 (n = 24, 28, 24, 27,
    25 and 21) give another witness for 1 to 9 sizes ell each when the
    clique climb tries outsiders in degree order instead of ascending.
    Every size matches the recounting search."""
    rng = random.Random(83)
    for n in (24, 28, 24, 27, 25, 21):
        p, _ = swap_regime_pregraph(rng, 28)
        assert p.n == n
        for ell in range(n + 1):
            got = close_to_clique_cost(n, p.fixed, ell)
            assert (got.cost, got.subset) == naive.clique_cost_by_recounting_swaps(n, p.fixed, ell)


def test_pregraph_rejects_a_negative_vertex_count():
    """C(n, 2) is positive again at n = -1 and -2, and a negative n used to
    pass until a later shift failed."""
    for n in (-1, -2, -3):
        with pytest.raises(ValueError, match="need n >= 0"):
            Pregraph(n, [], [])
        with pytest.raises(ValueError, match="need n >= 0"):
            Pregraph.from_text(f"n {n}\n")


def test_pregraph_text_rejects_a_repeated_n_line():
    """The last n line used to win, wherever it stood."""
    for text in ("n 3\nE 0 1\nn 12\n", "n 5\nn 5\n", "n 12\nE 0 1\nn 3\n"):
        with pytest.raises(ValueError, match="repeats its 'n' line"):
            Pregraph.from_text(text)


@pytest.mark.parametrize("n", [12, EXACT_SUBSET_LIMIT, EXACT_SUBSET_LIMIT + 1])
def test_almost_split_meets_the_mixed_budget_with_equality(n):
    """E empty, M a star at vertex 5 plus 1.75n pairs avoiding 0 and 5,
    eps = 1/16: only U = {5} leaves e_M(W) = 1.75n = 7*sqrt(eps)*1*n,
    which the scan finds and the greedy reaches by swapping 5 in for 0."""
    star = [(min(5, v), max(5, v)) for v in range(n) if v != 5]
    rest = [q for q in itertools.combinations(range(n), 2) if 0 not in q and 5 not in q]
    p = Pregraph(n, star + rest[: int(1.75 * n)], [])
    got = is_almost_split_pregraph(p, 0.0625)
    assert (got.found, got.exact, got.u) == (True, n <= EXACT_SUBSET_LIMIT, (5,))
    reference = (naive.almost_split_by_subset_scan if got.exact
                 else naive.almost_split_by_recounting_swaps)
    assert (got.u, got.w) == reference(p, 0.0625)


@pytest.mark.parametrize("n", [16, 20])
def test_concentrated_ell_needs_mixed_mass_strictly_above_the_budget(n):
    """E = {01} and eps = 1/16, so ell = 2 with U = {0, 1} is the only
    candidate and its budget 7*sqrt(eps)*n*2 = 3.5n is exact: M with 3.5n
    pairs outside U gives None, one pair more gives 2."""
    outside = list(itertools.combinations(range(2, n), 2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = TreeParams(n, 1, eps=0.0625)
    exact = n <= EXACT_SUBSET_LIMIT
    reference = (naive.concentrated_ell_by_subset_scan if exact
                 else naive.concentrated_ell_by_recounting_swaps)
    for extra, want in ((0, None), (1, 2)):
        p = Pregraph(n, outside[: int(3.5 * n) + extra], [(0, 1)])
        assert _concentrated_ell(p, 0.0625, params.r) == want
        assert reference(p, 0.0625, params.r) == want


@settings(max_examples=25, deadline=None)
@given(three_part_pregraphs(EXACT_SUBSET_LIMIT + 1, 30), st.sampled_from([0.001, 0.01, 0.05]))
def test_concentrated_ell_beyond_the_scan_matches_the_recounting_search(p, eps):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = TreeParams(p.n, 1, eps=eps)
    want = naive.concentrated_ell_by_recounting_swaps(p, eps, params.r)
    assert _concentrated_ell(p, eps, params.r) == want


@settings(max_examples=25, deadline=None)
@given(three_part_pregraphs(EXACT_SUBSET_LIMIT + 1, 40), st.data())
def test_clique_swaps_match_the_recounting_search(p, data):
    edges = p.fixed | p.mixed
    ell = data.draw(st.integers(0, p.n))
    got = close_to_clique_cost(p.n, edges, ell)
    assert not got.exact
    assert (got.cost, got.subset) == naive.clique_cost_by_recounting_swaps(p.n, edges, ell)


@settings(max_examples=60, deadline=None)
@given(three_part_pregraphs(4, 11), st.integers(1, 4), st.sampled_from([0.01, 0.05, 0.5, 2.0]))
def test_permissible_matches_the_list_cursor(p, ell, beta):
    ell = min(ell, p.n)
    got = build_permissible(p, ell, beta)
    assert_same_permissible(got, naive.build_permissible_by_cursor(p, ell, beta))
    ground = got.system.ground
    index = {e: k for k, e in enumerate(ground)}
    degrees = [[Counter(), Counter()] for _ in range(3)]
    for (a_deg, b_deg), h in zip(degrees, got.system):
        for c, mult in h.constraints():
            a_deg.update({k: mult for k in c.a0})
            b_deg.update({k: mult for k in c.a1})
    a_deg, b_deg = zip(*degrees)
    want = naive.neutralize_from_scratch(p, index, a_deg, b_deg, ell)
    assert got.preprocessed == want
    assert preprocess_saturation(p, *got.system, ell) == want


def _plain(value):
    """Whether value is built from Python ints, bools and None, and tuples of them."""
    if isinstance(value, tuple):
        return all(_plain(x) for x in value)
    return value is None or type(value) in (int, bool)


@pytest.mark.parametrize("n", [16, 20, 30])
def test_scan_results_are_plain_python_values(n):
    """No numpy scalar leaks out of the exact scans or the swap searches:
    every field is a Python int or bool, or a tuple of them, and json.dumps
    takes it.  E is a 4-clique and M every other pair."""
    clique = list(itertools.combinations(range(4), 2))
    p = Pregraph(n, set(itertools.combinations(range(n), 2)) - set(clique), clique)
    cost = close_to_clique_cost(n, p.mixed, 4)
    split = is_almost_split_pregraph(p, 0.6)
    assert split.found and cost.cost > 0
    for result in (cost, split):
        assert all(_plain(v) for v in vars(result).values()), result
        json.dumps(asdict(result))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = TreeParams(n, 1)
    ell = _concentrated_ell(p, 0.01, params.r)
    assert ell == 4 and type(ell) is int


def random_pair_sets(rng, n):
    """Seeded (M, E, N) pair lists on n vertices, none of them empty: E
    dense on a random vertex set U, often of at most four vertices, and
    sparse or empty outside it; N and M random; each pair in a random
    orientation and some listed twice."""
    u = rng.sample(range(n), rng.randint(2, rng.choice([4, n])))
    p_in, p_out = rng.choice([0.5, 0.9, 1.0]), rng.choice([0.0, 0.0, 0.05, 0.2])
    p_m = rng.choice([0.2, 0.6, 1.0])
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    pairs.remove(naive.pair_key(*u[:2]))
    sets = {"M": [pairs[0]], "E": [naive.pair_key(*u[:2])], "N": [pairs[1]]}
    for a, b in pairs[2:]:
        if rng.random() < (p_in if a in u and b in u else p_out):
            sets["E"].append((a, b))
        elif rng.random() < 0.1:
            sets["N"].append((a, b))
        elif rng.random() < p_m:
            sets["M"].append((a, b))
    out = []
    for tag in "MEN":
        listed = [e if rng.random() < 0.5 else e[::-1] for e in sets[tag]]
        out.append(listed + rng.sample(listed, len(listed) // 4))
    return out


def _raised(fn, *args):
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_mask_pregraph_matches_the_frozenset_reference():
    """Pregraphs on pair masks against naive.FrozensetPregraph, the layout
    they replace, on seeded pregraphs with M, E and N non-empty: n = 4..16
    for the exact subset scans and a few n up to 40 for the swap searches."""
    for bad in (([(1, 1)], []), ([(0, 4)], []), ([(0, 1)], [(1, 0)]), ([], [(2, 3)], [(3, 2)])):
        assert _raised(Pregraph, 4, *bad) == _raised(naive.FrozensetPregraph, 4, *bad) is not None
    rng = random.Random(2021)
    cases = [n for n in range(4, EXACT_SUBSET_LIMIT + 1) for _ in range(3)] + [17, 17, 24, 31, 40]
    for n in cases:
        sets = random_pair_sets(rng, n)
        p, ref = Pregraph(n, *sets), naive.FrozensetPregraph(n, *sets)
        assert all((p.M, p.E, p.N))
        assert (p.mixed, p.fixed, p.neutral) == (ref.mixed, ref.fixed, ref.neutral)
        assert (p.e_m(), p.e_e()) == (ref.e_m(), ref.e_e())
        assert p.to_text() == ref.to_text()
        assert Pregraph.from_text(p.to_text()) == p
        twin = Pregraph(n, *(sorted({naive.pair_key(u, v) for u, v in pairs}) for pairs in sets))
        assert twin == p and hash(twin) == hash(p)
        e = min(ref.mixed)  # one pair moved from M to E, and one more vertex
        moved = (ref.mixed - {e}, ref.fixed | {e}, ref.neutral)
        assert len({p, twin, Pregraph(n, *moved), Pregraph(n + 1, *sets)}) == 3
        assert naive.FrozensetPregraph(n, *moved) != ref != naive.FrozensetPregraph(n + 1, *sets)

        eps = rng.choice([0.001, 0.01, 0.0625, 0.25, 0.6])
        r = rng.choice([1, 4, 9])
        ell = rng.randint(1, min(n, 4))
        if n <= EXACT_SUBSET_LIMIT:
            assert _near_clique_scan(p, eps) == naive.near_clique_scan_by_subsets(ref, eps)
            split = naive.almost_split_by_subset_scan(ref, eps)
            assert _concentrated_ell(p, eps, r) == naive.concentrated_ell_by_subset_scan(ref, eps, r)
            cost = naive.clique_cost_by_subset_scan(n, ref.fixed, ell)
        else:
            split = naive.almost_split_by_recounting_swaps(ref, eps)
            assert _concentrated_ell(p, eps, r) == naive.concentrated_ell_by_recounting_swaps(ref, eps, r)
            cost = naive.clique_cost_by_recounting_swaps(n, ref.fixed, ell)
        got = is_almost_split_pregraph(p, eps)
        assert (got.u, got.w) == (split or (None, None))
        got = close_to_clique_cost(n, p.fixed, ell)
        assert (got.cost, got.subset) == cost
        if n > EXACT_SUBSET_LIMIT:
            continue

        system = build_constraint_hypergraphs(p)
        assert system.ground == tuple(sorted(ref.mixed | ref.neutral))
        copies = [(c.cycle_edges, c.extra_mixed) for c in good_c4_enumerate(p)]
        assert copies == [(tuple(c), tuple(x)) for c, x in naive.good_c4_copies_in_order(ref)]
        index = {e: k for k, e in enumerate(system.ground)}
        a_deg = [Counter(), Counter(), Counter()]
        b_deg = [Counter(), Counter(), Counter()]
        for i, h in enumerate(system):
            for c, mult in h.constraints():
                a_deg[i].update({k: mult for k in c.a0})
                b_deg[i].update({k: mult for k in c.a1})
        want = naive.neutralize_from_scratch(ref, index, a_deg, b_deg, ell)
        assert preprocess_saturation(p, *system, ell) == want
        beta = rng.choice([0.01, 0.05, 0.5])
        assert_same_permissible(build_permissible(p, ell, beta),
                                naive.build_permissible_by_cursor(ref, ell, beta))
