"""Container construction: the round game, degree-cap schedule, cylinders,
fingerprints, and the monotone wrapper."""

import hashlib
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
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
    build_constraint_hypergraphs,
    build_container,
    check_container_hypothesis,
    complete_pregraph,
    container_delta,
    fingerprint_family_bound,
    monotone_containers,
    normalize_parameters,
    replay_container,
    sample_c4free_by_deletion,
)
from c4containers import engine, hypergraph
from c4containers.engine import _below_beta


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


@pytest.mark.parametrize("k", [-2, 0, math.inf, math.nan])
def test_container_delta_rejects_k_as_the_hypothesis_check_does(k):
    """-2 used to give -1/128, and 0, inf and NaN three different exceptions."""
    h = UniformHypergraph(0, 2, 4, [((), (0, 1))])
    for call in (lambda: container_delta(1, 1, k), lambda: check_container_hypothesis(h, k, 1, 1, 1)):
        with pytest.raises(ValueError, match="K must be positive and finite"):
            call()


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
                        assert naive.delta_by_recursion(sched, i0, i1, l0, l1) == sched.delta(
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


def test_memoized_thresholds_match_fresh_ones():
    """engine._round_thresholds, cached by value, against the undominated
    half-cap ceilings of the Fraction-product caps computed afresh, on 1,024
    seeded int and Fraction base rows for every shape up to (3, 3): asked
    through an equal schedule built apart it is a cache hit, the mapping it
    returns cannot be assigned to, and after more distinct keys than its
    bound the cache holds at most the bound.  DeltaSchedule's
    saturation_thresholds returns a fresh, equal dict on every call."""
    cached = engine._round_thresholds
    cached.cache_clear()
    bound = cached.cache_info().maxsize
    rng = random.Random(22)
    shapes = [(k0, k1) for k0 in range(4) for k1 in range(4) if (k0, k1) != (0, 0)]
    keys = set()
    for trial in range(1024):
        k0, k1 = shapes[trial % len(shapes)]
        v = rng.randint(max(1, k0 + k1), 40)
        m = rng.randint(1, v)
        b = rng.randint(1, m)
        pairs = [(l0, l1) for l0 in range(k0 + 1) for l1 in range(k1 + 1) if (l0, l1) != (0, 0)]
        if trial % 2:
            base = random_base_table(rng, k0, k1)
        else:
            base = {pair: rng.randint(0, 200) for pair in pairs}
        sched = DeltaSchedule(k0, k1, b, m, v, base)
        for i0, i1 in sched.index_set() + [(0, 0)]:
            fresh = {
                (l0, l1): math.ceil(naive.delta_by_fraction_products(sched, i0, i1, l0, l1) / 2)
                for l0 in range(i0 + 1)
                for l1 in range(i1 + 1)
                if (l0, l1) != (0, 0)
            }
            undominated = {
                (l0, l1): t
                for (l0, l1), t in fresh.items()
                if all(fresh.get(smaller, math.inf) > t for smaller in ((l0 - 1, l1), (l0, l1 - 1)))
            }
            key = (k0, k1, b, m, v, tuple(sched.base.items()), i0, i1)
            got = cached(*key)
            assert dict(got) == undominated
            with pytest.raises(TypeError):
                got[(i0, i1)] = -1
            hits = cached.cache_info().hits
            twin = DeltaSchedule(k0, k1, b, m, v, dict(base))
            assert cached(k0, k1, b, m, v, tuple(twin.base.items()), i0, i1) is got
            assert cached.cache_info().hits == hits + 1
            first, again = sched.saturation_thresholds(i0, i1), sched.saturation_thresholds(i0, i1)
            assert first == again == fresh and first is not again
            keys.add(key)
            assert cached.cache_info().currsize <= bound
    # the trials ask for more distinct tables than the cache holds
    assert len(keys) > bound, len(keys)


def test_closed_form_matches_fraction_products():
    """The integer-numerator closed form against the Fraction-product loop,
    exactly, on int and Fraction base rows with zero entries, for every
    shape up to (4, 4); on int rows the thresholds are the half-cap
    ceilings of the reference."""
    rng = random.Random(4242)
    shapes = [(k0, k1) for k0 in range(5) for k1 in range(5) if (k0, k1) != (0, 0)]
    comparisons = 0
    for k0, k1 in shapes:
        for trial in range(12):
            v = rng.randint(max(1, k0 + k1), 16)
            m = v if trial < 3 else rng.randint(1, v)
            b = m if trial < 3 else rng.randint(1, m)
            pairs = [(l0, l1) for l0 in range(k0 + 1) for l1 in range(k1 + 1) if (l0, l1) != (0, 0)]
            ints = {pair: rng.choice((0, rng.randint(0, 60))) for pair in pairs}
            fracs = random_base_table(rng, k0, k1)
            fracs[rng.choice(pairs)] = Fraction(0)
            for base in (ints, fracs):
                sched = DeltaSchedule(k0, k1, b, m, v, base)
                for i0, i1 in sched.index_set():
                    for l0 in range(i0 + 1):
                        for l1 in range(i1 + 1):
                            if (l0, l1) == (0, 0):
                                continue
                            want = naive.delta_by_fraction_products(sched, i0, i1, l0, l1)
                            got = sched.delta(i0, i1, l0, l1)
                            assert type(got) is Fraction and got == want
                            if base is ints:
                                thr = sched.saturation_thresholds(i0, i1)[(l0, l1)]
                                assert thr == math.ceil(want / 2)
                            comparisons += 1
    assert comparisons > 5000


def test_round_close_test_matches_fraction_beta():
    """e(G*) < beta_s e(H), decided in integers, against the Fraction product
    of tests/naive.py on a grid of (k0, k1, b, m, v, s, e(G*)) that puts
    e(G*) on both sides of beta_s e(H) and, where it is an integer, on it."""
    on_boundary = 0
    for k0, k1 in [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (1, 2), (2, 4), (3, 1)]:
        for b, m, v in [(1, 1, 1), (1, 3, 5), (2, 2, 7), (2, 5, 5), (3, 4, 9), (4, 10, 28)]:
            for s in range(1, k0 + k1 + 1):
                beta = naive.beta_by_fractions(k0, k1, b, m, v, s)
                for e_h in (1, 15, beta.denominator, 3 * beta.denominator + 1, 7 * beta.denominator):
                    edge = beta * e_h
                    near = {math.floor(edge) + d for d in (-1, 0, 1, 2)}
                    for e in sorted(x for x in near | {0, 1, e_h} if x >= 0):
                        assert _below_beta(e, e_h, k0, k1, b, m, v, s) == (e < edge), (k0, k1, b, m, v, s, e_h, e)
                        on_boundary += e == edge
    assert on_boundary > 100, on_boundary


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


def clone_instances():
    """The hand-built instances and H_2 of two complete pregraphs, whose
    constraints have vertices on both sides."""
    return small_instances() + [
        (build_constraint_hypergraphs(complete_pregraph(n)).h2, 2, m, 1) for n, m in ((5, 3), (6, 2))
    ]


def test_clone_at_every_question_runs_on_alone():
    for h, b, m, r in clone_instances():
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


def live_state(proc):
    return list(proc.active.items()), dict(proc.cdeg), proc.pending()


def test_driving_a_clone_leaves_the_original_alone():
    """At every question, a clone driven to the end leaves the original's
    active constraints, degrees and pending question as they were, and so
    does the original driven to the end for a clone.  Both read one shared
    incidence index."""
    checked = 0
    for h, b, m, r in clone_instances():
        k = passing_parameters(h, b, m, r)
        for a in members_up_to(h, m):
            proc = ContainerProcess(h, k, b, m, r)
            while (q := proc.pending()) is not None:
                state = live_state(proc)
                for flip in (False, True):
                    twin = proc.clone()
                    assert twin.incidence is proc.incidence
                    v, c = q
                    try:
                        twin.answer((a.bits[v] == c) != flip)
                        drive(twin, a.bits)
                    except PreconditionError:
                        pass
                    assert live_state(proc) == state
                twin = proc.clone()
                drive(proc, a.bits)
                assert live_state(twin) == state
                proc = twin
                proc.answer(a.bits[q[0]] == q[1])
                checked += 1
    assert checked > 1000, checked


def containers_of_every_member(h, b, m, r):
    k = passing_parameters(h, b, m, r)
    return [build_container(h, k, b, m, r, a) for a in members_up_to(h, m)]


def test_add_after_a_build_gives_the_containers_of_a_fresh_hypergraph():
    """A build fills H's memo (degree table and round-0 index); ``add``
    clears it, so the grown H gives the table and the containers of a
    hypergraph built from scratch with the same constraints."""
    rng = random.Random(3)
    h = UniformHypergraph(1, 2, 7)
    for _ in range(4):
        picked = rng.sample(range(7), 3)
        h.add(Constraint.make(picked[:1], picked[1:]))
    for step in range(4):
        containers_of_every_member(h, 2, 4, 1)
        picked = rng.sample(range(7), 3)
        h.add(Constraint.make(picked[:1], picked[1:]), 1 + step % 2)
        fresh = UniformHypergraph(1, 2, 7, [(c.a0, c.a1, mult) for c, mult in h.constraints()])
        table = h.degree_table()
        assert table == fresh.degree_table()
        assert table == {pair: naive.max_degree_by_subtuples(h, *pair) for pair in table}
        assert containers_of_every_member(h, 2, 4, 1) == containers_of_every_member(fresh, 2, 4, 1)


def test_multiplexed_driver_matches_one_drive_per_member():
    """``engine._drive_members`` on a pool of member masks gives every member
    the result of one ``_drive`` per member on a clone, on H_2 of K_6, on a
    seeded (1,2)-uniform H and on that H at half its min_K with force=True.
    Each vertex is read at a shuffled bit position, every member lands in
    exactly one leaf, and a pool of one member gives that member's result."""
    rng = random.Random(16)
    seeded = UniformHypergraph(1, 2, 12)
    while seeded.support_size() < 24:
        a0, *a1 = rng.sample(range(12), 3)
        seeded.add(Constraint.make((a0,), a1))
    h2 = build_constraint_hypergraphs(complete_pregraph(6)).h2
    for h, b, m, starved in [(h2, 2, 4, False), (seeded, 2, 4, False), (seeded, 2, 4, True)]:
        k = passing_parameters(h, b, m, 1) / (2 if starved else 1)
        members = members_up_to(h, m)
        position = list(range(h.n_vertices))
        rng.shuffle(position)
        masks = np.array([sum(x << position[v] for v, x in enumerate(a.bits)) for a in members], dtype=np.int64)
        proc = ContainerProcess(h, k, b, m, 1, force=starved)
        assert proc.hypothesis_ok is not starved
        expected = {
            int(mask): engine._drive(proc.clone(), lambda v, c, a=a: a.bits[v] == c)
            for mask, a in zip(masks, members)
        }
        leaves = engine._drive_members(proc, masks, position)
        got = [(int(mask), res) for res, pool in leaves for mask in pool]
        assert len(got) == len(members) > 100
        assert dict(got) == expected
        assert len(leaves) > 40
        for mask in masks[::17]:
            one = ContainerProcess(h, k, b, m, 1, force=starved)
            [(res, pool)] = engine._drive_members(one, masks[masks == mask], position)
            assert res == expected[int(mask)] and pool.tolist() == [mask]


def round_index_snapshot(h):
    c, keys, mults, classes, incidence = h._memo["round_index"]
    return c, list(keys), list(mults), list(classes), [list(side) for side in incidence]


def test_interleaved_processes_on_one_h_match_sequential_runs():
    """A build of one member and a replay of another, answered in turn on
    one H, give the containers of running each alone, share H's round-0
    incidence, and leave H's round-0 index as it was."""
    system = build_constraint_hypergraphs(complete_pregraph(6))
    h = system.h2
    k = passing_parameters(h, 2, 4, 1)
    members = members_up_to(h, 4)
    pairs = 0
    for a, other in zip(members[::7], members[3::7]):
        expected = build_container(h, k, 2, 4, 1, a)
        target = build_container(h, k, 2, 4, 1, other)
        snapshot = round_index_snapshot(h)
        build = ContainerProcess(h, k, 2, 4, 1)
        replay = ContainerProcess(h, k, 2, 4, 1)
        assert build.incidence is replay.incidence is h._memo["round_index"][4]
        s0, s1 = set(target.fingerprint.s0), set(target.fingerprint.s1)
        while build.pending() is not None or replay.pending() is not None:
            if (q := build.pending()) is not None:
                build.answer(a.bits[q[0]] == q[1])
            if (q := replay.pending()) is not None:
                replay.answer(q[0] in (s1 if q[1] == 1 else s0))
        assert build.result() == expected
        assert replay.result() == target
        assert round_index_snapshot(h) == snapshot
        pairs += 1
    assert pairs >= 10, pairs


def test_build_and_replay_share_one_table_and_one_round_0_index(monkeypatch):
    """Build then replay on a fresh H make one degree table (one sub-tuple
    plan asked for) and one round-0 index; later rounds index their G*."""
    # K from a twin of H, so that H's own memo starts empty
    k = passing_parameters(build_constraint_hypergraphs(complete_pregraph(10)).h2, 2, 10, 1)
    system = build_constraint_hypergraphs(complete_pregraph(10))
    sample = sample_c4free_by_deletion(10, 10, 0.1, 0, max_attempts=50)
    bits = [int(sample.graph.has_edge(u, v)) for u, v in system.ground]
    h = system.h2
    tables, round_0 = [], []
    plan, index_round = hypergraph._subtuple_plan, hypergraph._index_round

    def counting_plan(k0, k1):
        tables.append((k0, k1))
        return plan(k0, k1)

    def counting_index(edges, i1, n):
        round_0.append(sum(map(len, next(iter(edges)))) == h.k0 + h.k1)
        return index_round(edges, i1, n)

    monkeypatch.setattr(hypergraph, "_subtuple_plan", counting_plan)
    monkeypatch.setattr(hypergraph, "_index_round", counting_index)
    built = build_container(h, k, 2, 10, 1, bits)
    assert replay_container(h, k, 2, 10, 1, built.fingerprint) == built
    assert len(tables) == 1
    assert round_0.count(True) == 1
    assert built.n_rounds > 1
    assert round_0.count(False) == 2 * (built.n_rounds - 1)


def doomed_keys(proc, mask):
    """The constraints of proc's round whose bits are set in mask, by index."""
    return [key for i, key in enumerate(proc.keys) if mask >> i & 1]


def test_doomed_sweep_matches_the_subset_test(monkeypatch):
    """The incidence sweep against the pairwise set-inclusion sweep, on
    every member of the small instances and of H_2 of small complete
    pregraphs and on sampled members of H_2 of K_8, call by call and
    container by container."""
    cases = small_instances() + [
        (build_constraint_hypergraphs(complete_pregraph(n)).h2, 2, m, 1)
        for n, m in ((4, 6), (5, 4), (6, 3))
    ]
    runs = []
    for h, b, m, r in cases:
        proc = ContainerProcess(h, passing_parameters(h, b, m, r), b, m, r)
        runs += [(proc, a.bits) for a in members_up_to(h, m)]
    # H_2 of K_8 at m = 8, where some round-0 thresholds are 1: one YES
    # saturates a pair and its sub-pairs together, so one sweep meets nested pairs
    system = build_constraint_hypergraphs(complete_pregraph(8))
    h = system.h2
    proc = ContainerProcess(h, passing_parameters(h, 2, 8, 1), 2, 8, 1)
    assert min(proc.thresholds.values()) == 1
    for seed in range(4):
        sample = sample_c4free_by_deletion(8, 8, 0.1, seed, max_attempts=50)
        assert sample.accepted
        runs.append((proc, [int(sample.graph.has_edge(u, v)) for u, v in system.ground]))

    def containers():
        out = []
        for proc, bits in runs:
            twin = proc.clone()
            drive(twin, bits)
            out.append(twin.result())
        return out

    fast = containers()
    lookup = ContainerProcess._doomed
    shapes_per_sweep = Counter()

    def reference(proc, fresh):
        doomed = naive.doomed_by_subset_test(proc, fresh)
        assert doomed_keys(proc, lookup(proc, fresh)) == doomed
        shapes_per_sweep[len({(len(t0), len(t1)) for t0, t1 in fresh})] += 1
        return sum(1 << proc.keys.index(key) for key in doomed)

    monkeypatch.setattr(ContainerProcess, "_doomed", reference)
    assert containers() == fast
    # some answers saturate pairs of two shapes at once
    assert shapes_per_sweep[1] > 0 and shapes_per_sweep[2] > 0, shapes_per_sweep


def test_undominated_classes_doom_what_every_class_dooms(monkeypatch):
    """G* degrees counted on the undominated size classes only, against
    every class (naive.add_to_gstar_all_classes): answer by answer the same
    doomed constraints and live constraints, and the same containers, on
    every member of the small instances and of H_2 of K_4..K_6 and on
    sampled members of H_2 of K_8 and K_10."""
    cases = small_instances() + [
        (build_constraint_hypergraphs(complete_pregraph(n)).h2, 2, m, 1)
        for n, m in ((4, 6), (5, 4), (6, 3))
    ]
    runs = []
    for h, b, m, r in cases:
        proc = ContainerProcess(h, passing_parameters(h, b, m, r), b, m, r)
        runs += [(proc, a.bits) for a in members_up_to(h, m)]
    for n, m in ((8, 8), (10, 10)):
        system = build_constraint_hypergraphs(complete_pregraph(n))
        h = system.h2
        proc = ContainerProcess(h, passing_parameters(h, 2, m, 1), 2, m, 1)
        assert len(proc.thresholds) < len(proc.sched.saturation_thresholds(*proc.k_star))
        for seed in range(6):
            sample = sample_c4free_by_deletion(n, m, 0.1, seed, max_attempts=50)
            assert sample.accepted
            runs.append((proc, [int(sample.graph.has_edge(u, v)) for u, v in system.ground]))

    lookup = ContainerProcess._doomed
    doomed_now = []

    def recording(proc, fresh):
        doomed = lookup(proc, fresh)
        doomed_now.extend(doomed_keys(proc, doomed))
        return doomed

    monkeypatch.setattr(ContainerProcess, "_doomed", recording)

    def steps():
        out = []
        for proc, bits in runs:
            twin = proc.clone()
            while (q := twin.pending()) is not None:
                doomed_now.clear()
                twin.answer(bits[q[0]] == q[1])
                out.append((q, list(doomed_now), list(twin.active)))
            out.append(twin.result())
        return out

    pruned = steps()
    outside = Counter()

    def every_class(proc, key, mult):
        fresh = naive.add_to_gstar_all_classes(proc, key, mult)
        outside[any((len(t0), len(t1)) not in proc.thresholds for t0, t1 in fresh)] += 1
        return fresh

    monkeypatch.setattr(ContainerProcess, "_add_to_gstar", every_class)
    assert steps() == pruned
    # some answers saturate pairs of classes that the engine does not count
    assert outside[True] > 0, outside
    assert any(step[1] for step in pruned if isinstance(step, tuple))


def test_an_add_that_jumps_a_threshold_reports_its_pair_once():
    """One weighted ``_add_to_gstar`` that carries a pair's G* degree from
    below its threshold (thr - 1) to above it (thr + 1 or more) reports the
    pair fresh exactly once, and later adds of keys holding it never again:
    seeded keys and multiplicities in every undominated class of round 0 on
    H_2 of K_6, where the thresholds are 1 and 3."""
    h = build_constraint_hypergraphs(complete_pregraph(6)).h2
    k = passing_parameters(h, 2, 3, 1)
    rng = random.Random(31)
    thresholds = ContainerProcess(h, k, 2, 3, 1).thresholds
    assert sorted(set(thresholds.values())) == [1, 3]
    for (l0, l1), thr in thresholds.items():
        for _ in range(4):
            proc = ContainerProcess(h, k, 2, 3, 1)
            k0, k1 = proc.k_star
            picked = rng.sample(range(h.n_vertices), k0 + k1)
            pair = (tuple(sorted(picked[:l0])), tuple(sorted(picked[k0 : k0 + l1])))

            def key_holding_pair():
                rest = rng.sample([u for u in range(h.n_vertices) if u not in pair[0] + pair[1]], k0 + k1 - l0 - l1)
                return (tuple(sorted(pair[0] + tuple(rest[: k0 - l0]))), tuple(sorted(pair[1] + tuple(rest[k0 - l0 :]))))

            if thr > 1:
                assert pair not in proc._add_to_gstar(key_holding_pair(), thr - 1)
            jump = rng.randint(2, 4)
            assert proc._add_to_gstar(key_holding_pair(), jump).count(pair) == 1
            assert proc.pair_deg[pair] == thr - 1 + jump > thr
            for _ in range(3):
                assert pair not in proc._add_to_gstar(key_holding_pair(), rng.randint(1, 3))
            assert pair in proc.saturated


def benchmark_members(n, m, count, seed):
    """The members of the benchmark's containers jobs on H_2 of K_n: the
    first ``count`` graphs the deletion sampler (delta = 0.1) accepts at the
    seeds blake2b("perfbench/{seed}/member/{n}/{try}"), as bits over the ground."""
    system = build_constraint_hypergraphs(complete_pregraph(n))
    members, tries = [], 0
    while len(members) < count:
        tries += 1
        digest = hashlib.blake2b(f"perfbench/{seed}/member/{n}/{tries}".encode(), digest_size=8).digest()
        sample = sample_c4free_by_deletion(n, m, 0.1, int.from_bytes(digest, "big"), max_attempts=50)
        if sample.accepted:
            members.append([int(sample.graph.has_edge(u, v)) for u, v in system.ground])
    return system.h2, members


def test_bitmask_rounds_match_the_dict_reference():
    """The bitmask round game against naive.DictContainerProcess, the dict,
    Counter and set rounds it replaced: after every answer the same pending
    question, live constraints, degrees, G*, saturated pairs and round, and
    the same result, on every member of the small instances and of H_2 of
    K_4..K_6, and on the benchmark's n = 10 (seed 1) and n = 13 members."""
    runs = []
    cases = small_instances() + [
        (build_constraint_hypergraphs(complete_pregraph(n)).h2, 2, m, 1)
        for n, m in ((4, 6), (5, 4), (6, 3))
    ]
    for h, b, m, r in cases:
        runs += [(h, b, m, r, a.bits) for a in members_up_to(h, m)]
    for n, m, count, seed in ((10, 10, 8, 1), (13, 15, 2, 0)):
        h, members = benchmark_members(n, m, count, seed)
        runs += [(h, 2, m, 1, bits) for bits in members]
    answers = weighted_rounds = 0
    for h, b, m, r, bits in runs:
        fast = ContainerProcess(h, passing_parameters(h, b, m, r), b, m, r)
        ref = naive.DictContainerProcess(h, b, m, r)
        while (q := ref.pending()) is not None:
            assert fast.pending() == q
            fast.answer(bits[q[0]] == q[1])
            ref.answer(bits[q[0]] == q[1])
            answers += 1
            assert (fast.s, fast.done) == (ref.s, ref.done)
            if not ref.done:
                assert fast.active == ref.active
                assert fast.cdeg == ref.cdeg
            assert fast.gstar == ref.gstar
            assert fast.saturated == ref.saturated
            weighted_rounds += fast.s > 0 and max(fast.mults) > 1
        assert fast.pending() is None
        assert fast.result() == ref.result()
    assert len(runs) > 1000 and answers > 8000, (len(runs), answers)
    # some G* round carries keys of multiplicity > 1, so its degrees are weighted
    assert weighted_rounds > 0


@pytest.mark.parametrize("k0,k1", [(0, 2), (1, 1), (1, 2), (2, 2), (2, 4)])
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


# sha256 of the build and replay fingerprints and cylinders ("s0 s1 cylinder",
# one line each) for the seed-0 deletion-sampler member on H_2 of K_n, with
# b = 2, r = 1 and K the exact min_K.  Recorded with the per-key sweep that
# the incidence index replaced; the rounds there saturate thousands of pairs.
ENGINE_PINS = {
    (13, 15): "96a7d5a3f033707028fda4a9e1ea03670ed1b07552b1821c863a18bfa28b0d99",
    (16, 18): "935eb446a39f517ab6fd4efc66111fe34960635698e64ecf3baa200db8e1a1b8",
}


@pytest.mark.parametrize("n,m", sorted(ENGINE_PINS))
def test_engine_output_is_pinned_on_large_h2(n, m):
    system = build_constraint_hypergraphs(complete_pregraph(n))
    h = system.h2
    b, m2 = normalize_parameters(2, m, h.n_vertices)
    k = check_container_hypothesis(h, 1, b, m2, 1).min_k
    sample = sample_c4free_by_deletion(n, m, 0.1, 0, max_attempts=50)
    assert sample.accepted
    bits = [int(sample.graph.has_edge(u, v)) for u, v in system.ground]
    built = build_container(h, k, 2, m, 1, bits)
    again = replay_container(h, k, 2, m, 1, built.fingerprint)
    assert again == built
    text = "".join(f"{r.fingerprint.s0} {r.fingerprint.s1} {r.cylinder.to_string()}\n" for r in (built, again))
    assert hashlib.sha256(text.encode()).hexdigest() == ENGINE_PINS[(n, m)]


def test_cylinder_string_round_trip_and_membership():
    cyl = Cylinder((None, 0, 1, None))
    assert cyl.to_string() == "*01*"
    assert cyl.contains((1, 0, 1, 0))
    assert not cyl.contains((1, 1, 1, 0))


def test_cylinder_refuses_an_input_of_another_length():
    cyl = Cylinder((None, 1))
    for bits in ((0, 1, 1), (1,)):
        for h in (bits, Assignment.from_bits(bits)):
            with pytest.raises(ValueError, match="does not match"):
                cyl.contains(h)


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


def test_container_entry_points_reject_a_non_finite_k():
    h = triangle_lift()
    k = passing_parameters(h, 1, 2, 1)
    fingerprint = build_container(h, k, 1, 2, 1, (0, 0, 1)).fingerprint
    for bad in (math.inf, math.nan):
        for call in (
            lambda: ContainerProcess(h, bad, 1, 2, 1),
            lambda: build_container(h, bad, 1, 2, 1, (0, 0, 1)),
            lambda: replay_container(h, bad, 1, 2, 1, fingerprint),
        ):
            with pytest.raises(ValueError, match="K must be positive and finite"):
                call()


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


def test_build_container_errors_keep_their_order():
    """Wrong length, then over budget, then an empty H, then a violated
    constraint, then the degree condition: each case also breaks the rules
    checked after it.  The membership test reads H's round-0 index, which an
    empty H never builds."""
    empty, h = UniformHypergraph(0, 2, 3), triangle_lift()
    starved = passing_parameters(h, 1, 3, 1) / 2

    def refusal(h, m, bits):
        with pytest.raises(PreconditionError) as exc:
            build_container(h, starved, 1, m, 1, bits)
        return str(exc.value)

    assert "does not match ground set" in refusal(empty, 2, (1, 1, 1, 1))
    assert "above the budget" in refusal(empty, 2, (1, 1, 1))
    assert "above the budget" in refusal(h, 2, (1, 1, 1))
    assert "non-empty hypergraph" in refusal(empty, 3, (1, 1, 1))
    assert "violates a constraint" in refusal(h, 3, (1, 1, 0))
    assert "round_index" not in empty._memo
    with pytest.raises(HypothesisError):
        build_container(h, starved, 1, 3, 1, (1, 0, 0))


def test_build_replay_and_membership_leave_two_memo_entries():
    """Build, replay and ``in_solution_set`` on one H fill its memo with the
    degree table and the round-0 index, and nothing else."""
    h = build_constraint_hypergraphs(complete_pregraph(6)).h2
    k = passing_parameters(h, 2, 4, 1)
    a = members_up_to(h, 4)[5]
    built = build_container(h, k, 2, 4, 1, a)
    assert replay_container(h, k, 2, 4, 1, built.fingerprint) == built
    assert a.in_solution_set(h)
    assert sorted(h._memo) == ["degree_table", "round_index"]


@pytest.mark.parametrize("k0,k1", [(0, 2), (1, 1), (1, 2), (2, 0), (2, 3)])
def test_membership_from_the_round_0_index_matches_in_solution_set(k0, k1):
    """``Assignment.in_solution_set``, which build_container calls, reads H's
    round-0 incidence masks; it must agree with a constraint-by-constraint
    ``violates`` scan on every assignment of small random hypergraphs with
    multiplicities, also after ``add``."""
    rng = random.Random(10 * k0 + k1)
    outcomes = Counter()
    for _ in range(12):
        n = rng.randint(k0 + k1, 7)
        h = UniformHypergraph(k0, k1, n)
        for _ in range(2):
            for _ in range(rng.randint(1, 4)):
                picked = rng.sample(range(n), k0 + k1)
                h.add(Constraint.make(picked[:k0], picked[k0:]), rng.randint(1, 3))
            for mask in range(1 << n):
                bits = [mask >> u & 1 for u in range(n)]
                a = Assignment.from_bits(bits)
                want = not any(a.violates(c) for c, _ in h.constraints())
                assert a.in_solution_set(h) == want
                outcomes[want] += 1
    assert outcomes[True] and outcomes[False]


def test_degree_caps_hold_after_every_round():
    h = triangle_lift()
    k = passing_parameters(h, 2, 3, 1)
    rounds = 0
    for a in members_up_to(h, 3):
        proc = ContainerProcess(h, k, 2, 3, 1)
        rounds += naive.drive_checking_degree_caps(proc, a.bits)
        assert proc.result() == build_container(h, k, 2, 3, 1, a)
    assert rounds > 0


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


def test_monotone_wrapper_needs_a_positive_r():
    for r in (0, -1):
        with pytest.raises(ValueError, match="r must be positive"):
            monotone_containers(4, 2, [(0, 1), (2, 3)], 1, r, {0, 2})
