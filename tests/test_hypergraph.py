"""Constraint multi-hypergraphs: construction, degrees, and the degree
condition underlying container construction."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from c4containers import (
    Assignment,
    Constraint,
    UniformHypergraph,
    build_constraint_hypergraphs,
    build_container,
    check_container_hypothesis,
    complete_pregraph,
)
from c4containers import hypergraph


def random_hypergraph(rng, k0, k1, n, n_constraints):
    h = UniformHypergraph(k0, k1, n)
    verts = list(range(n))
    for _ in range(n_constraints):
        picked = rng.sample(verts, k0 + k1)
        h.add(Constraint.make(picked[:k0], picked[k0:]), mult=rng.randint(1, 3))
    return h


def test_constraint_normalization():
    c = Constraint.make((3, 1), (2, 0))
    assert c.a0 == (1, 3)
    assert c.a1 == (0, 2)
    assert c.key() == ((1, 3), (0, 2))


def test_constraint_equals_and_hashes_as_its_pair():
    """A stored constraint is the engine's key: the plain (a0, a1) tuple
    finds it in H's counter, and the round-0 index holds H's own objects."""
    c = Constraint.make((4,), (0, 2))
    pair = ((4,), (0, 2))
    assert c == pair and pair == c and hash(c) == hash(pair)
    assert c.key() == pair and tuple(c) == pair
    assert {c: 1} == {pair: 1}
    assert c != ((4,), (0, 3))
    h = UniformHypergraph(1, 2, 5, [((4,), (2, 0), 3)])
    assert h.multiplicity(pair) == 3
    [stored] = h.round_index()[1]
    assert stored == pair and stored is next(iter(h._edges))


def test_constraint_rejects_overlap_and_repeats():
    with pytest.raises(ValueError):
        Constraint.make((1, 2), (2, 3))
    with pytest.raises(ValueError):
        Constraint.make((1, 1), (2,))


def test_uniformity_enforced_on_add():
    h = UniformHypergraph(1, 2, 5)
    with pytest.raises(ValueError):
        h.add(Constraint.make((0,), (1,)))
    with pytest.raises(ValueError):
        h.add(Constraint.make((0,), (1, 5)))


def test_degenerate_shape_needs_flag():
    for constraints in ((), [((), ())]):
        with pytest.raises(ValueError):
            UniformHypergraph(0, 0, 4, constraints)
    with pytest.raises(ValueError):
        UniformHypergraph.from_text("0 0 4\n")


def test_multiplicity_counted():
    h = UniformHypergraph(0, 2, 4)
    c = Constraint.make((), (0, 1))
    h.add(c)
    h.add(c, mult=2)
    assert h.e() == 3
    assert h.support_size() == 1
    assert h.multiplicity(c) == 3
    assert h.multiplicity(Constraint.make((), (2, 3))) == 0


def test_multiplicities_are_stored_as_python_ints():
    """A numpy integer multiplicity is stored as a Python int, so the round
    index's bit_length and the engine work on it; a non-integer one is
    refused before it can reach e(H) or the degree table."""
    c, d = Constraint.make((), (0, 1)), Constraint.make((), (1, 2))
    h = UniformHypergraph(0, 2, 4, [((), (1, 2))])
    h.add(c, np.int64(3))
    assert h.multiplicity(c) == 3 and type(h.multiplicity(c)) is int
    assert type(h.e()) is int
    want = UniformHypergraph(0, 2, 4, [((), (1, 2)), ((), (0, 1), 3)])
    k = check_container_hypothesis(want, 1, 1, 2, 1).min_k
    got = build_container(h, k, 1, 2, 1, (1, 0, 0, 1))
    assert got == build_container(want, k, 1, 2, 1, (1, 0, 0, 1))
    for bad in (1.5, 3.0, "3", Fraction(3, 2)):
        with pytest.raises(ValueError):
            h.add(d, bad)
    assert h.multiplicity(d) == 1 and h.e() == 4
    assert check_container_hypothesis(h, 1, 1, 2, 1).entries[(0, 1)][0] == 4


@pytest.mark.parametrize("k0,k1", [(0, 4), (1, 4), (2, 4), (1, 2), (3, 0), (0, 1)])
def test_add_rows_matches_add_one_constraint_at_a_time(k0, k1):
    """add_rows, in two batches, stores what add(Constraint.make(...)) row
    by row stores, in the same order, from rows with repeats; every stored
    vertex and multiplicity is a Python int."""
    rng = random.Random(k0 * 10 + k1)
    n = 9
    for count in (0, 1, 7, 40):
        picked = [rng.sample(range(n), k0 + k1) for _ in range(count)]
        rows = [sorted(row[:k0]) + sorted(row[k0:]) for row in picked]
        rows += rows[: count // 3]
        block = np.array(rows, dtype=np.int64).reshape(len(rows), k0 + k1)
        want, got = UniformHypergraph(k0, k1, n), UniformHypergraph(k0, k1, n)
        for row in rows:
            want.add(Constraint.make(row[:k0], row[k0:]))
        for part in (slice(0, count // 2), slice(count // 2, None)):
            got.add_rows(block[part, :k0], block[part, k0:])
        assert list(got.constraints()) == list(want.constraints())
        for c, mult in got.constraints():
            assert all(type(v) is int for v in c.a0 + c.a1) and type(mult) is int


def test_add_rows_shares_one_int_per_vertex():
    """A batch stores one int object per vertex, however many constraints
    hold it.  Built from one int per stored vertex instead, the H_0, H_1,
    H_2 of K_30 kept 23.7 MB under tracemalloc, against 17.7 MB."""
    h = UniformHypergraph(1, 2, 1000)
    h.add_rows(np.array([[700], [800]]), np.array([[800, 900], [700, 900]]))
    (c, _), (d, _) = h.constraints()
    assert c.a0[0] is d.a1[0] and d.a0[0] is c.a1[0] and c.a1[1] is d.a1[1]


def test_add_rows_refuses_what_add_refuses():
    h = UniformHypergraph(1, 2, 5, [((0,), (1, 2))])
    bad = [
        (np.array([[0]]), np.array([[1]])),  # sizes
        (np.array([[0], [1]]), np.array([[1, 2]])),  # row counts
        (np.array([[0]]), np.array([[1, 5]])),  # vertex range
        (np.array([[-1]]), np.array([[1, 2]])),
        (np.array([[0.0]]), np.array([[1.0, 2.0]])),  # not integers
        (np.array([0]), np.array([1, 2])),  # not rows
    ]
    for a0, a1 in bad:
        with pytest.raises(ValueError):
            h.add_rows(a0, a1)
    assert list(h.constraints()) == [(((0,), (1, 2)), 1)]


def test_text_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        h = random_hypergraph(rng, rng.randint(0, 2), rng.randint(1, 2), 8, 6)
        again = UniformHypergraph.from_text(h.to_text())
        assert again == h


@pytest.mark.parametrize(
    "k0,k1", [(0, 2), (1, 1), (1, 2), (2, 2), (0, 4), (2, 4), (3, 2), (0, 1), (3, 0), (1, 0)]
)
def test_degrees_match_naive_scan(k0, k1):
    rng = random.Random(100 * k0 + k1)
    for _ in range(10):
        n = rng.randint(k0 + k1, 8)
        h = random_hypergraph(rng, k0, k1, n, rng.randint(1, 12))
        expected = {
            (l0, l1): naive.max_constraint_degree(h, l0, l1)
            for l0 in range(k0 + 1)
            for l1 in range(k1 + 1)
            if (l0, l1) != (0, 0)
        }
        assert h.degree_table() == expected
        for (l0, l1), delta in expected.items():
            assert h.max_degree(l0, l1) == delta
        t0 = tuple(rng.sample(range(n), k0))
        rest = [v for v in range(n) if v not in t0]
        t1 = tuple(rng.sample(rest, min(k1, len(rest))))
        assert naive.constraint_degree(h, t0, t1) <= h.degree_table()[(k0, k1)]


def packing_edge_hypergraph(used):
    """A (2,4)-uniform hypergraph whose constraints use exactly `used`
    vertices, with overlapping constraints and multiplicities."""
    rng = random.Random(used)
    verts = list(range(used))
    rng.shuffle(verts)
    h = UniformHypergraph(2, 4, used)
    for start in range(0, used, 6):
        picked = [verts[(start + j) % used] for j in range(6)]
        h.add(Constraint.make(picked[:2], picked[2:]), rng.randint(1, 3))
    hub = verts[:3]
    for _ in range(40):
        picked = hub + rng.sample(verts[3:], 3)
        h.add(Constraint.make(picked[:2], picked[2:]), rng.randint(1, 3))
    return h


@pytest.mark.parametrize("packed", [True, False], ids=["inside", "outside"])
def test_degree_table_on_both_sides_of_the_packing_bound(monkeypatch, packed):
    # keys pack 14 shapes of 6 digits in base (used vertices + 1)
    base = 2
    while 14 * (base + 1) ** 6 < 2**63:
        base += 1
    h = packing_edge_hypergraph(base - 1 if packed else base)
    fallbacks = []
    by_counter = UniformHypergraph._degree_table_by_counter
    monkeypatch.setattr(
        UniformHypergraph,
        "_degree_table_by_counter",
        lambda self, shapes: fallbacks.append(shapes) or by_counter(self, shapes),
    )
    table = h.degree_table()
    assert bool(fallbacks) is not packed
    assert table == {
        (l0, l1): naive.max_degree_by_subtuples(h, l0, l1)
        for l0 in range(3)
        for l1 in range(5)
        if (l0, l1) != (0, 0)
    }
    assert table[(1, 0)] > table[(2, 4)] >= 1


def test_degree_table_is_exact_past_float_multiplicities():
    h = UniformHypergraph(1, 1, 3, [((0,), (1,), 2**60 + 1), ((0,), (2,), 1)])
    assert h.degree_table() == {(0, 1): 2**60 + 1, (1, 0): 2**60 + 2, (1, 1): 2**60 + 1}


def test_degree_table_edge_cases():
    assert UniformHypergraph(2, 4, 9).degree_table() == {
        (l0, l1): 0 for l0 in range(3) for l1 in range(5) if (l0, l1) != (0, 0)
    }


def subtuple_table(h):
    return {
        (l0, l1): naive.max_degree_by_subtuples(h, l0, l1)
        for l0 in range(h.k0 + 1)
        for l1 in range(h.k1 + 1)
        if (l0, l1) != (0, 0)
    }


@pytest.mark.parametrize("k0,k1", [(0, 2), (1, 2), (2, 4)])
def test_add_after_degree_table_gives_the_table_of_a_fresh_hypergraph(k0, k1):
    rng = random.Random(31 * k0 + k1)
    for _ in range(10):
        n = rng.randint(k0 + k1, 9)
        h = random_hypergraph(rng, k0, k1, n, rng.randint(1, 6))
        for _ in range(rng.randint(1, 4)):
            assert h.degree_table() == subtuple_table(h)
            # new constraints, and more copies of an old one, both count
            picked = rng.sample(range(n), k0 + k1)
            h.add(Constraint.make(picked[:k0], picked[k0:]), rng.randint(1, 3))
            old, _ = next(iter(h.constraints()))
            h.add(old, rng.randint(1, 2))
            fresh = UniformHypergraph(k0, k1, n, [(c.a0, c.a1, mult) for c, mult in h.constraints()])
            assert h.degree_table() == fresh.degree_table() == subtuple_table(h)


def test_degree_table_hands_out_a_copy():
    h = random_hypergraph(random.Random(5), 1, 2, 7, 8)
    table = h.degree_table()
    expected = dict(table)
    table[(1, 2)] += 100
    del table[(0, 1)]
    assert h.degree_table() == expected == subtuple_table(h)
    assert h.degree_table() is not h.degree_table()


def record_passes(monkeypatch):
    """The key count of each pass of the degree table, filled as tables are
    built: a table's first np.unique call relabels its vertices, and each
    pass then calls it once on its keys."""
    calls = []
    unique = np.unique

    def counted(values, **kwargs):
        calls.append(values.size)
        return unique(values, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    return calls


PASS_KEYS = hypergraph._DEGREE_PASS_KEYS


@pytest.mark.parametrize("pass_keys", [1, 40, 120, PASS_KEYS])
def test_pass_wise_degree_table_matches_the_subtuple_reference(monkeypatch, pass_keys):
    """Every pass holds whole shapes within the key budget, or one larger
    shape alone; the passes cover every key once, a table within one budget
    takes one pass, and the table is the Counter reference's.  An H of at
    most _SUBSET_ROUTE_SUPPORT constraints runs no pass at all."""
    monkeypatch.setattr(hypergraph, "_DEGREE_PASS_KEYS", pass_keys)
    calls = record_passes(monkeypatch)
    rng = random.Random(pass_keys)
    alone = multipass = 0
    for k0, k1 in [(0, 2), (1, 2), (2, 4), (3, 2), (1, 0)]:
        shape_rows = np.diff(hypergraph._subtuple_plan(k0, k1)[3], prepend=0).tolist()
        for _ in range(8):
            n = rng.randint(k0 + k1, 9)
            h = random_hypergraph(rng, k0, k1, n, rng.randint(1, 30))
            repeated, _ = next(iter(h.constraints()))
            h.add(repeated, rng.randint(1, 3))  # multiplicities above 1
            del calls[:]
            assert h.degree_table() == subtuple_table(h)
            if h.support_size() <= hypergraph._SUBSET_ROUTE_SUPPORT:
                assert calls == []
                continue
            e, passes = h.support_size(), calls[1:]
            assert sum(passes) == sum(shape_rows) * e
            for keys in passes:
                assert keys <= pass_keys or keys // e in shape_rows
            alone += any(keys > pass_keys for keys in passes)
            multipass += len(passes) > 1
            if sum(shape_rows) * e <= pass_keys:
                assert len(passes) == 1
    small = pass_keys < PASS_KEYS
    assert bool(multipass) is small and bool(alone) is small
    # both sides of the packing bound (see the test above): packed keys in
    # passes inside it, the Counter route and no pass outside
    base = 2
    while 14 * (base + 1) ** 6 < 2**63:
        base += 1
    for used in (base - 1, base):
        h = packing_edge_hypergraph(used)
        del calls[:]
        assert h.degree_table() == subtuple_table(h)
        assert bool(calls[1:]) is (used < base)


def hypergraph_of_support(rng, k0, k1, s, star):
    """s distinct (k0, k1) constraints on 12 vertices, multiplicities 1..3.
    A star's constraints all share A0 and all but two A1 vertices (or, with
    k1 < 2, all but one A0 vertex and all of A1), so that their common sides
    stay large across many constraints."""
    free0, free1 = (0, 2) if k1 >= 2 else (1, 0)
    hub, rest = list(range(k0 + k1)), list(range(k0 + k1, 12))
    h = UniformHypergraph(k0, k1, 12)
    while h.support_size() < s:
        if star:
            extra = rng.sample(rest, free0 + free1)
            a0, a1 = hub[: k0 - free0] + extra[:free0], hub[k0 : k0 + k1 - free1] + extra[free0:]
        else:
            picked = rng.sample(range(12), k0 + k1)
            a0, a1 = picked[:k0], picked[k0:]
        h.add(Constraint.make(a0, a1), mult=rng.randint(1, 3))
    return h


@pytest.mark.parametrize("k0,k1", [(2, 4), (1, 4), (0, 4), (1, 2), (3, 0), (1, 1)])
def test_degree_table_routes_match_the_subtuple_reference(monkeypatch, k0, k1):
    """For supports 0..8, on random and star-shaped H with multiplicities
    above 1: the table is the Counter reference's, H of at most
    _SUBSET_ROUTE_SUPPORT constraints take the constraint-subset route and
    run no numpy pass, and larger ones take the numpy passes."""
    served = []
    by_subsets = UniformHypergraph._degree_table_by_subsets
    monkeypatch.setattr(UniformHypergraph, "_degree_table_by_subsets",
                        lambda self, shapes: served.append(self.support_size()) or by_subsets(self, shapes))
    calls = record_passes(monkeypatch)
    rng = random.Random(10 * k0 + k1)
    shared = (k0, k1 - 2) if k1 >= 2 else (k0 - 1, k1)  # the sides a star's constraints share
    for s in range(9):
        for star in (False, True):
            for _ in range(3):
                h = hypergraph_of_support(rng, k0, k1, s, star)
                repeated = next(iter(h.constraints()), None)
                if repeated:
                    h.add(repeated[0], 2)
                del served[:], calls[:]
                table = h.degree_table()
                assert table == subtuple_table(h)
                assert not star or table[shared] == h.e()
                small = s <= hypergraph._SUBSET_ROUTE_SUPPORT
                assert served == ([s] if small else [])
                assert bool(calls) is not small


def test_pass_wise_degree_table_on_h2_of_k13(monkeypatch):
    """H_2 of K_13: 2,145 constraints, 135,135 keys in 14 shapes, so passes
    at the real budget and one shape per pass at a budget of 1."""
    h = build_constraint_hypergraphs(complete_pregraph(13)).h2
    want = subtuple_table(h)
    calls = record_passes(monkeypatch)
    assert h._degree_table() == want
    assert 1 < len(calls) - 1 < 14
    monkeypatch.setattr(hypergraph, "_DEGREE_PASS_KEYS", 1)
    del calls[:]
    assert h._degree_table() == want
    assert len(calls) - 1 == 14


def test_degree_table_memory_is_bounded_by_one_pass():
    """H_2 of K_13's 135,135 sub-tuple keys in one pass peaked at 7.7 MB
    under tracemalloc; passes of whole shapes stay below 3 MB."""
    h = build_constraint_hypergraphs(complete_pregraph(13)).h2
    tracemalloc.start()
    try:
        table = h.degree_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table == subtuple_table(h)
    assert peak < 3e6


def test_degree_of_full_constraint_is_multiplicity():
    h = UniformHypergraph(1, 2, 6)
    c = Constraint.make((0,), (1, 2))
    h.add(c, mult=4)
    assert naive.constraint_degree(h, c.a0, c.a1) == 4
    assert h.max_degree(1, 2) == 4


@given(st.lists(st.integers(0, 1), min_size=1, max_size=10))
def test_assignment_bits_round_trip(bits):
    a = Assignment.from_bits(bits)
    assert a.n == len(bits)
    assert a.ones_count == sum(bits)
    assert Assignment.from_ones(a.n, a.ones()) == a


def test_violation_semantics():
    a = Assignment.from_bits((0, 1, 0, 1))
    assert a.violates(Constraint.make((0, 2), (1, 3)))
    assert not a.violates(Constraint.make((1,), (3,)))  # a[1] = 1, not 0
    assert not a.violates(Constraint.make((0,), (2,)))  # a[2] = 0, not 1


def test_solution_set_membership():
    h = UniformHypergraph(1, 1, 3, [((0,), (1,))])
    assert Assignment.from_bits((1, 1, 0)).in_solution_set(h)
    assert Assignment.from_bits((0, 0, 0)).in_solution_set(h)
    assert not Assignment.from_bits((0, 1, 0)).in_solution_set(h)


@pytest.mark.parametrize("k0,k1", [(0, 2), (1, 2), (2, 4)])
def test_membership_by_masks_matches_violates(k0, k1):
    """in_solution_set reads H's memoized incidence masks; it must agree
    with a constraint-by-constraint ``violates`` scan on random assignments,
    also after ``add`` gives H a constraint that some assignment violates."""
    rng = random.Random(100 * k0 + k1)
    outcomes = set()
    for _ in range(30):
        n = rng.randint(k0 + k1, 12)
        h = random_hypergraph(rng, k0, k1, n, rng.randint(1, 6))
        assignments = [Assignment.from_bits([rng.randint(0, 1) for _ in range(n)]) for _ in range(20)]
        for round_ in range(2):
            for a in assignments:
                want = not any(a.violates(c) for c, _ in h.constraints())
                assert a.in_solution_set(h) == want
                outcomes.add(want)
            # a constraint that the first assignment violates, if its bits allow one
            zeros = [u for u, bit in enumerate(assignments[0].bits) if not bit]
            ones = [u for u, bit in enumerate(assignments[0].bits) if bit]
            if round_ == 0 and len(zeros) >= k0 and len(ones) >= k1:
                h.add(Constraint.make(rng.sample(zeros, k0), rng.sample(ones, k1)))
                assert not assignments[0].in_solution_set(h)
    assert outcomes == {True, False}


def test_membership_needs_an_assignment_of_the_ground_set_size():
    h = UniformHypergraph(1, 1, 3, [((0,), (1,))])
    for bits in [(1, 1), (1, 1, 0, 0)]:
        with pytest.raises(ValueError, match="does not match ground set"):
            Assignment.from_bits(bits).in_solution_set(h)
    assert Assignment.from_bits((0, 1)).in_solution_set(UniformHypergraph(0, 1, 2)) is True


def test_hypothesis_check_hand_example():
    # one (0,2) constraint with multiplicity 2 on 4 vertices
    h = UniformHypergraph(0, 2, 4, [((), (0, 1), 2)])
    rep = check_container_hypothesis(h, k=Fraction(8), b=2, m=3, r=2)
    # bound for (0,1): K * b^0 / v * e = 8 * 2/4 = 4 >= observed 2
    d01, bound01, ok01 = rep.entries[(0, 1)]
    assert (d01, bound01, ok01) == (2, Fraction(4), True)
    # bound for (0,2): K * b / v^2 * e = 8 * 2 * 2 / 16 = 2 >= observed 2
    d02, bound02, ok02 = rep.entries[(0, 2)]
    assert (d02, bound02, ok02) == (2, Fraction(2), True)
    assert rep.all_passed


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_min_k_is_the_threshold(data):
    """min_k is the exact boundary: the check passes at K = min_k and fails
    for any smaller K."""
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    k0 = rng.randint(0, 2)
    k1 = rng.randint(0 if k0 else 1, 2)
    n = rng.randint(max(2, k0 + k1), 8)
    h = random_hypergraph(rng, k0, k1, n, rng.randint(1, 10))
    b, m, r = rng.randint(1, 3), rng.randint(1, n), rng.randint(1, 4)
    b = min(b, m)
    rep = check_container_hypothesis(h, 1, b, m, r)
    assert rep.min_k > 0
    at = check_container_hypothesis(h, rep.min_k, b, m, r)
    assert at.all_passed
    below = check_container_hypothesis(h, rep.min_k * Fraction(999, 1000), b, m, r)
    assert not below.all_passed
    assert below.failing_pairs()


def test_hypothesis_check_rejects_bad_arguments():
    h = UniformHypergraph(0, 2, 4, [((), (0, 1))])
    # inf used to raise OverflowError from Fraction, and NaN Fraction's own ValueError
    for k in (0, -1, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="K must be positive and finite"):
            check_container_hypothesis(h, k, 1, 1, 1)
    with pytest.raises(ValueError, match="b, m, r"):
        check_container_hypothesis(h, math.inf, 0, 1, 1)
    empty = UniformHypergraph(0, 2, 4)
    with pytest.raises(ValueError, match="non-empty"):
        check_container_hypothesis(empty, math.nan, 1, 1, 1)
