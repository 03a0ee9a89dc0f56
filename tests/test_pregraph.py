"""Pregraphs: good 4-cycles, the constraint system they generate,
saturation preprocessing, the permissible greedy, and leaf classification."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import naive
from c4containers import (
    Assignment,
    PreconditionError,
    Pregraph,
    build_constraint_hypergraphs,
    build_permissible,
    caro_wei_bound,
    close_to_clique_cost,
    complete_pregraph,
    good_c4_enumerate,
    is_almost_split_pregraph,
    is_leaf_pregraph,
    m_underflow_threshold,
    preprocess_saturation,
    random_order_independent_set,
)
from c4containers.hypergraph import UniformHypergraph
from c4containers.pregraph import _saturation_threshold


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
    deg_01, deg_02 = h.degree((), (0,)), h.degree((), (0, 1))
    assert deg_01 == deg_02 == 5
    # shape (0,1): threshold max(l^3 // n, 1)
    assert _saturation_threshold((0, 1), ell=3, n=10) == 2 <= deg_01  # 27//10
    assert _saturation_threshold((0, 1), ell=6, n=10) == 21 > deg_01  # 216//10
    assert _saturation_threshold((0, 1), ell=2, n=10) == 1  # 8//10 = 0, clamped
    # shape (0,2): threshold l
    assert _saturation_threshold((0, 2), ell=5, n=10) == 5 <= deg_02
    assert _saturation_threshold((0, 2), ell=6, n=10) == 6 > deg_02
    h1 = UniformHypergraph(1, 4, 10, [((0,), (1, 2, 3, 4)), ((0,), (1, 2, 3, 5))])
    deg_10 = h1.degree((0,), ())
    assert deg_10 == 2
    # shape (1,0): threshold l^2
    assert _saturation_threshold((1, 0), ell=1, n=10) == 1 <= deg_10
    assert _saturation_threshold((1, 0), ell=2, n=10) == 4 > deg_10
    with pytest.raises(PreconditionError):
        _saturation_threshold((1, 1), ell=2, n=10)


def test_preprocess_saturation_moves_edges():
    p = Pregraph(4, list(itertools.combinations(range(4), 2)), [])
    ground = tuple(sorted(p.mixed))
    h0 = UniformHypergraph(0, 4, 6, [((), (2, 3, 4, 5))])
    h1 = UniformHypergraph(1, 4, 6, [((0,), (1, 2, 3, 4))])
    h2 = UniformHypergraph(2, 4, 6)
    out = preprocess_saturation(p, h0, h1, h2, ell=1, n=4)
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
        assert preprocess_saturation(p, *res.system, ell, p.n) == res.preprocessed
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


def test_permissible_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        build_permissible(complete_pregraph(5), ell=0, beta=0.1)
    with pytest.raises(PreconditionError):
        build_permissible(complete_pregraph(5), ell=2, beta=0.0)


def test_caro_wei_values():
    assert caro_wei_bound(4, itertools.combinations(range(4), 2)) == 1
    assert caro_wei_bound(3, [(0, 1), (1, 2)]) == Fraction(4, 3)
    assert caro_wei_bound(5, []) == 5


def test_random_order_independent_set_rule():
    edges = [(0, 1), (1, 2)]
    out = random_order_independent_set(3, edges, [1.0, 1.0, 1.0], [0, 1, 2])
    assert out == (2,)
    out = random_order_independent_set(3, edges, [1.0, 1.0, 1.0], [2, 1, 0])
    assert out == (0,)
    with pytest.raises(ValueError):
        random_order_independent_set(3, edges, [1.0, 1.0], [0, 1, 2])
    with pytest.raises(ValueError):
        random_order_independent_set(3, edges, [1.0, 1.0, 2.0], [0, 1, 2])
    with pytest.raises(ValueError):
        random_order_independent_set(3, edges, [1.0, 1.0, 1.0], [0, 1, 1])


def test_random_order_independent_sets_are_independent():
    rng = random.Random(8)
    for trial in range(30):
        n = rng.randint(3, 9)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        order = list(range(n))
        rng.shuffle(order)
        probs = [rng.random() for _ in range(n)]
        out = random_order_independent_set(n, edges, probs, order, seed=trial)
        eset = set(edges)
        assert not any((u, v) in eset for u, v in itertools.combinations(out, 2))


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


def test_leaf_classifier_rejects_bad_parameters():
    p = complete_pregraph(5)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 0, 0.01, 0.01)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 5, 0.01, 1.5)
    with pytest.raises(PreconditionError):
        is_leaf_pregraph(p, 25, 0.01, 0.01)


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
