"""Container construction: the round game, degree-cap schedule, cylinders,
fingerprints, and the monotone wrapper."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

import naive
from c4containers import (
    Assignment,
    Constraint,
    ContainerProcess,
    Cylinder,
    DeltaSchedule,
    HypothesisError,
    PreconditionError,
    UniformHypergraph,
    build_container,
    check_container_hypothesis,
    container_delta,
    fingerprint_family_bound,
    monotone_containers,
    normalize_parameters,
    replay_container,
)


def members_up_to(h, m):
    """Every assignment with at most m ones violating no constraint of h."""
    out = []
    for mask in range(1 << h.n_vertices):
        bits = [(mask >> i) & 1 for i in range(h.n_vertices)]
        a = Assignment.from_bits(bits)
        if a.ones_count <= m and a.in_solution_set(h):
            out.append(a)
    return out


def passing_parameters(h, b, m, r):
    """The smallest K making the degree condition hold for (b, m, r)."""
    b2, m2 = normalize_parameters(b, m, h.n_vertices)
    return check_container_hypothesis(h, 1, b2, m2, r).min_k


def test_normalize_parameters_clamps_and_is_idempotent():
    assert normalize_parameters(2, 5, 10) == (2, 5)
    assert normalize_parameters(4, 20, 6) == (4, 6)
    assert normalize_parameters(9, 20, 6) == (6, 6)
    assert normalize_parameters(5, 2, 10) == (5, 5)
    for b, m, v in [(3, 7, 4), (8, 2, 5), (1, 1, 1)]:
        once = normalize_parameters(b, m, v)
        assert normalize_parameters(*once, v) == once
    with pytest.raises(ValueError):
        normalize_parameters(0, 1, 1)


def test_container_delta_value():
    assert container_delta(1, 1, 4) == Fraction(1, 2**6 * 4)
    assert container_delta(2, 2, Fraction(1, 2)) == Fraction(2, 2**20)


def test_fingerprint_family_bound_small():
    # v=4, k0=1, k1=1, b=2: (C(4,0)+..+C(4,2))^2 = 11^2
    assert fingerprint_family_bound(4, 1, 1, 2) == 121
    # limits above v truncate at v
    assert fingerprint_family_bound(3, 0, 2, 5) == 1 * 8


def random_base_table(rng, k0, k1):
    return {
        (l0, l1): Fraction(rng.randint(0, 50), rng.randint(1, 4))
        for l0 in range(k0 + 1)
        for l1 in range(k1 + 1)
        if (l0, l1) != (0, 0)
    }


def test_schedule_recursion_matches_closed_form():
    rng = random.Random(2024)
    shapes = [(k0, k1) for k0 in range(5) for k1 in range(5) if 0 < k0 + k1 <= 4]
    for k0, k1 in shapes:
        for _ in range(5):
            b = rng.randint(1, 4)
            m = rng.randint(b, 12)
            v = rng.randint(m, 16)
            sched = DeltaSchedule(k0, k1, b, m, v, random_base_table(rng, k0, k1))
            for i0, i1 in sched.index_set():
                for l0 in range(i0 + 1):
                    for l1 in range(i1 + 1):
                        if (l0, l1) == (0, 0):
                            continue
                        assert sched.delta_recursive(i0, i1, l0, l1) == sched.delta(
                            i0, i1, l0, l1
                        )


def test_schedule_rejects_inadmissible_indices():
    sched = DeltaSchedule(2, 2, 1, 2, 4, {(l0, l1): 1 for l0 in range(3) for l1 in range(3) if (l0, l1) != (0, 0)})
    with pytest.raises(ValueError):
        sched.delta(1, 1, 0, 1)  # (1,1) not on the index path for (2,2)
    with pytest.raises(ValueError):
        sched.delta(2, 1, 0, 0)


def test_saturation_thresholds_are_half_cap_ceilings():
    rng = random.Random(5)
    sched = DeltaSchedule(1, 2, 2, 4, 8, random_base_table(rng, 1, 2))
    for (i0, i1) in sched.index_set():
        th = sched.saturation_thresholds(i0, i1)
        for (l0, l1), t in th.items():
            cap = sched.delta(i0, i1, l0, l1)
            assert t - 1 < cap / 2 <= t


def triangle_lift():
    """(0,2)-uniform hypergraph of the triangle: independent sets of K3."""
    h = UniformHypergraph(0, 2, 3)
    for u, v in itertools.combinations(range(3), 2):
        h.add(Constraint.make((), (u, v)))
    return h


def drive(proc, bits):
    """Answer every question of proc from bits; returns the YES vertices
    per round index and per question value c."""
    yes_per_round, yes_by_c = Counter(), (set(), set())
    while (q := proc.pending()) is not None:
        v, c = q
        if bits[v] == c:
            yes_per_round[proc.s] += 1
            yes_by_c[c].add(v)
        proc.answer(bits[v] == c)
    return yes_per_round, yes_by_c


def test_round_requires_solution_set_member():
    h = triangle_lift()
    k = passing_parameters(h, 1, 2, 1)
    violating = (1, 1, 0)
    with pytest.raises(PreconditionError):
        build_container(h, k, 1, 2, 1, violating)
    # driven directly, the process runs out of rounds with G* still non-empty
    with pytest.raises(PreconditionError):
        drive(ContainerProcess(h, k, 1, 2, 1), violating)


def h3():
    """A (1,2)-uniform hypergraph on five vertices."""
    h = UniformHypergraph(1, 2, 5)
    h.add(Constraint.make((0,), (1, 2)))
    h.add(Constraint.make((2,), (3, 4)))
    h.add(Constraint.make((1,), (0, 4)))
    return h


def saturating():
    """A (1,2)-uniform hypergraph on six vertices whose rounds saturate
    pairs of G* and so run the doomed-constraint sweep."""
    h = UniformHypergraph(1, 2, 6)
    for a0, a1 in [(3, (1, 2)), (4, (1, 2)), (4, (1, 3)), (5, (0, 3)), (5, (0, 4)), (5, (2, 4))]:
        h.add(Constraint.make((a0,), a1))
    return h


def small_instances():
    """(h, b, m, r) for the hand-built instances."""
    return [(triangle_lift(), 2, 3, 1), (h3(), 2, 5, 2), (saturating(), 2, 4, 2)]


def test_round_yes_vertices_come_from_the_assignment():
    for h, b, m, r in small_instances():
        k = passing_parameters(h, b, m, r)
        for a in members_up_to(h, m):
            proc = ContainerProcess(h, k, b, m, r)
            yes_per_round, yes_by_c = drive(proc, a.bits)
            assert max(yes_per_round.values(), default=0) <= proc.b  # at most b per round
            fp = proc.result().fingerprint
            assert set(fp.s1) == yes_by_c[1] <= a.ones()
            assert set(fp.s0) == yes_by_c[0] and not yes_by_c[0] & a.ones()


def test_clone_at_every_question_runs_on_alone():
    for h, b, m, r in small_instances():
        k = passing_parameters(h, b, m, r)
        for a in members_up_to(h, m):
            expected = build_container(h, k, b, m, r, a)
            questions = 0
            while True:
                proc = ContainerProcess(h, k, b, m, r)
                for _ in range(questions):
                    v, c = proc.pending()
                    proc.answer(a.bits[v] == c)
                if proc.pending() is None:
                    break
                twin = proc.clone()
                # the original takes the other branch here and runs on from there
                v, c = proc.pending()
                try:
                    proc.answer(a.bits[v] != c)
                    drive(proc, a.bits)
                except PreconditionError:
                    pass
                drive(twin, a.bits)
                assert twin.result() == expected
                questions += 1
            assert questions > 0


@pytest.mark.parametrize("k0,k1", [(0, 2), (1, 1), (1, 2), (2, 2)])
def test_schedule_base_is_the_degree_table(k0, k1):
    rng = random.Random(10 * k0 + k1)
    for _ in range(8):
        n = rng.randint(k0 + k1, 7)
        h = UniformHypergraph(k0, k1, n)
        for _ in range(rng.randint(1, 10)):
            picked = rng.sample(range(n), k0 + k1)
            h.add(Constraint.make(picked[:k0], picked[k0:]), rng.randint(1, 3))
        proc = ContainerProcess(h, 1, rng.randint(1, n), rng.randint(1, n), 1, force=True)
        assert proc.sched.base == {
            (l0, l1): naive.max_constraint_degree(h, l0, l1)
            for l0 in range(k0 + 1)
            for l1 in range(k1 + 1)
            if (l0, l1) != (0, 0)
        }


def test_cylinder_string_round_trip_and_membership():
    cyl = Cylinder((None, 0, 1, None))
    assert cyl.to_string() == "*01*"
    assert Cylinder.from_string("*01*") == cyl
    assert cyl.contains((1, 0, 1, 0))
    assert not cyl.contains((1, 1, 1, 0))


def exhaustive_soundness(h, b, m, r):
    """Properties of every container built over F_{<=m}(H); returns the
    set of fingerprints seen."""
    k = passing_parameters(h, b, m, r)
    delta = container_delta(h.k0, h.k1, k)
    fingerprints = {}
    for a in members_up_to(h, m):
        res = build_container(h, k, b, m, r, a)
        # (a) the assignment lies in its own container
        assert res.cylinder.contains(a)
        # (c) fingerprint sides sit inside the respective level sets
        assert set(res.fingerprint.s0) <= {i for i, x in enumerate(a.bits) if x == 0}
        assert set(res.fingerprint.s1) <= {i for i, x in enumerate(a.bits) if x == 1}
        fingerprints.setdefault(res.fingerprint, res)
    for res in fingerprints.values():
        # (b) the forced dichotomy with delta = 2^(-(k0+k1)(k0+k1+1))/K
        forced0 = len(res.cylinder.forced(0))
        forced1 = len(res.cylinder.forced(1))
        ok0 = h.k1 > 0 and Fraction(forced0) >= delta * h.n_vertices
        ok1 = h.k0 > 0 and Fraction(forced1) >= delta * res.r
        assert ok0 or ok1
    return fingerprints


def test_soundness_on_fixed_instances():
    cases = []
    h = triangle_lift()
    cases.append((h, 1, 3, 1))
    h2 = UniformHypergraph(1, 1, 4, [((0,), (1,)), ((1,), (2,)), ((2,), (3,))])
    cases.append((h2, 1, 4, 2))
    h3 = UniformHypergraph(1, 2, 5)
    h3.add(Constraint.make((0,), (1, 2)))
    h3.add(Constraint.make((2,), (3, 4)))
    h3.add(Constraint.make((1,), (0, 4)))
    cases.append((h3, 2, 5, 2))
    for h, b, m, r in cases:
        fps = exhaustive_soundness(h, b, m, r)
        b_eff, _ = normalize_parameters(b, m, h.n_vertices)
        assert len(fps) <= fingerprint_family_bound(h.n_vertices, h.k0, h.k1, b_eff)


def test_replay_reproduces_the_container():
    """f(g(h)): rebuilding from the fingerprint alone gives the same cylinder."""
    h = UniformHypergraph(1, 1, 5)
    rng = random.Random(11)
    for _ in range(8):
        picked = rng.sample(range(5), 2)
        h.add(Constraint.make(picked[:1], picked[1:]))
    k = passing_parameters(h, 2, 5, 2)
    for a in members_up_to(h, 5):
        direct = build_container(h, k, 2, 5, 2, a)
        again = replay_container(h, k, 2, 5, 2, direct.fingerprint)
        assert again.cylinder == direct.cylinder
        assert again.fingerprint == direct.fingerprint


def test_build_container_rejects_bad_assignments():
    h = triangle_lift()
    k = passing_parameters(h, 1, 2, 1)
    with pytest.raises(PreconditionError):
        build_container(h, k, 1, 2, 1, (1, 1, 0))  # violates a constraint
    with pytest.raises(PreconditionError):
        build_container(h, k, 1, 1, 1, (0, 0, 1, 0))  # wrong length


def test_budget_overflow_rejected():
    h = UniformHypergraph(0, 2, 4, [((), (0, 1))])
    k = passing_parameters(h, 1, 1, 1)
    with pytest.raises(PreconditionError):
        build_container(h, k, 1, 1, 1, (0, 0, 1, 1))


def test_hypothesis_error_carries_threshold():
    h = triangle_lift()
    k = passing_parameters(h, 1, 3, 1)
    starved = k / 2
    with pytest.raises(HypothesisError) as exc:
        build_container(h, starved, 1, 3, 1, (0, 0, 0))
    assert exc.value.min_k == k
    forced = build_container(h, starved, 1, 3, 1, (0, 0, 0), force=True)
    assert not forced.hypothesis_ok
    assert forced.cylinder.contains((0, 0, 0))


def test_invariant_checking_mode_runs_clean():
    h = triangle_lift()
    k = passing_parameters(h, 2, 3, 1)
    for a in members_up_to(h, 3):
        build_container(h, k, 2, 3, 1, a, check_invariants=True)


def random_uniform_instance(rng, k):
    n = rng.randint(k + 2, 12)
    edges = set()
    for _ in range(rng.randint(1, 3 * n)):
        edges.add(tuple(sorted(rng.sample(range(n), k))))
    edges = sorted(edges)
    independent = set(range(n))
    for e in sorted(edges, key=lambda e: rng.random()):
        if set(e) <= independent:
            independent.discard(e[rng.randrange(k)])
    return n, k, edges, independent


def test_monotone_wrapper_basics():
    rng = random.Random(99)
    for _ in range(25):
        k = rng.randint(2, 4)
        n, k, edges, ind = random_uniform_instance(rng, k)
        b = rng.randint(1, 3)
        r = rng.randint(1, max(1, n // 3))
        try:
            res = monotone_containers(n, k, edges, b, r, ind)
        except HypothesisError:
            res = monotone_containers(n, k, edges, b, r, ind, force=True)
        assert set(res.kernel) <= ind
        assert ind <= set(res.container)
        assert res.delta == Fraction(1, 2 ** (k * (k + 1)))
        if res.inner.hypothesis_ok:
            excluded = n - len(res.container)
            assert excluded >= res.delta * r


def test_monotone_wrapper_needs_edges():
    with pytest.raises(PreconditionError):
        monotone_containers(4, 2, [], 1, 1, set())
