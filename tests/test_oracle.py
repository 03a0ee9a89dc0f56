"""Brute-force ground truth: graph encoding, induced-C4 detection,
exhaustive edge-count tables, split recognition, and the deletion sampler."""

import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from c4containers import (
    LabeledGraph,
    ScaleError,
    count_Fnm_c4,
    enumerate_fnm_masks,
    ex_c4,
    fnm_table,
    fnm_table_backtracking,
    is_eps_close_to_split,
    is_eps_quasirandom,
    is_induced_c4_free,
    is_split,
    sample_c4free_by_deletion,
)
from c4containers import graph6


def test_pair_index_is_a_bijection():
    n = 9
    seen = {}
    for v in range(n):
        for u in range(v):
            k = graph6.pair_index(u, v)
            assert k not in seen
            seen[k] = (u, v)
            assert graph6.pair_from_index(k) == (u, v)
    assert sorted(seen) == list(range(n * (n - 1) // 2))


@given(st.integers(2, 12), st.data())
def test_graph6_round_trip(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = LabeledGraph(n, mask)
    assert LabeledGraph.from_graph6(g.to_graph6()) == g


@pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 200, 2000])
def test_graph6_round_trip_across_size_headers(n):
    npairs = n * (n - 1) // 2
    rng = random.Random(n)
    masks = {0, (1 << npairs) - 1, rng.getrandbits(npairs) if npairs else 0}
    for mask in masks:
        text = graph6.encode(n, mask)
        assert text[0] == ("~" if n > 62 else chr(n + 63))
        assert len(text) == (4 if n > 62 else 1) + (npairs + 5) // 6
        assert graph6.decode(text) == (n, mask)
        if n <= 200:
            assert text == naive.graph6_encode_by_bits(n, mask)
            assert naive.graph6_decode_by_bits(text) == (n, mask)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


GRAPH6_CHARS = st.characters(min_codepoint=0, max_codepoint=300)


@given(st.integers(-3, 70), st.integers(-4, 1 << 80))
def test_graph6_encode_matches_bitwise_reference(n, mask):
    lib = _outcome(graph6.encode, n, mask)
    ref = _outcome(naive.graph6_encode_by_bits, n, mask)
    assert (lib[0] == "ValueError") == (ref[0] == "ValueError")
    if lib[0] != "ValueError":
        assert lib == ref


@given(st.integers(0, 70), st.data())
def test_graph6_decode_matches_bitwise_reference_on_malformed_text(n, data):
    """One edit of a valid string: a character replaced, inserted or deleted,
    the padding bits set, or the header swapped; the library and the
    bit-by-bit reference return the same graph or raise the same error."""
    npairs = n * (n - 1) // 2
    text = graph6.encode(n, data.draw(st.integers(0, (1 << npairs) - 1)))
    edit = data.draw(st.sampled_from(["replace", "insert", "delete", "padding", "header"]))
    pos = data.draw(st.integers(0, len(text)))
    if edit == "replace" and pos < len(text):
        text = text[:pos] + data.draw(GRAPH6_CHARS) + text[pos + 1:]
    elif edit == "insert":
        text = text[:pos] + data.draw(GRAPH6_CHARS) + text[pos:]
    elif edit == "delete":
        text = text[:pos] + text[pos + 1:]
    elif edit == "padding" and npairs % 6:
        pad = data.draw(st.integers(1, (1 << (6 - npairs % 6)) - 1))
        text = text[:-1] + chr(ord(text[-1]) | pad)
    elif edit == "header":
        text = data.draw(st.text(GRAPH6_CHARS, max_size=4)) + text[1 if n <= 62 else 4:]
    assert _outcome(graph6.decode, text) == _outcome(naive.graph6_decode_by_bits, text)


@given(st.text(GRAPH6_CHARS, max_size=12))
def test_graph6_decode_matches_bitwise_reference_on_arbitrary_text(text):
    assert _outcome(graph6.decode, text) == _outcome(naive.graph6_decode_by_bits, text)


def test_graph6_decode_errors():
    for text, message in [
        ("", "empty graph6 string"),
        ("~~??", "unsupported graph6 size header"),
        ("~?", "unsupported graph6 size header"),
        (">", "bad graph6 size header"),
        ("D", "graph6 body has 0 groups, expected 2"),
        ("D h", "bad graph6 character ' '"),
        ("D>c", "bad graph6 character '>'"),
        ("Dh\x7f", "bad graph6 character '\\x7f'"),
        ("Dhd", "nonzero padding bits"),  # the last of the two padding bits
        ("Dhe", "nonzero padding bits"),  # the first
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph6.decode(text)


def test_graph6_known_string():
    """The 5-cycle, packed by hand from the format definition: header D,
    column-order bits 1010011001 padded to 101001 100100, offset 63."""
    c5 = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert c5.to_graph6() == "Dhc"
    assert LabeledGraph.from_graph6("Dhc") == c5


def test_labeled_graph_accessors():
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2)])
    assert g.m == 2
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.degree(1) == 2 and g.degree(3) == 0
    adj = g.adjacency_masks()
    assert adj[1] == (1 << 0) | (1 << 2)
    with pytest.raises(ValueError):
        LabeledGraph(3, 1 << 3)


@settings(max_examples=200, deadline=None)
@given(st.integers(4, 8), st.data())
def test_induced_c4_detection_matches_naive(n, data):
    mask = data.draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    g = LabeledGraph(n, mask)
    expected = not naive.has_induced_c4(n, g.has_edge)
    assert is_induced_c4_free(g) == expected


def test_induced_c4_fixtures():
    c4 = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not is_induced_c4_free(c4)
    # adding one diagonal kills the induced copy
    diag = LabeledGraph(4, c4.mask | (1 << graph6.pair_index(0, 2)))
    assert is_induced_c4_free(diag)
    k4 = LabeledGraph(4, (1 << 6) - 1)
    assert is_induced_c4_free(k4)


def test_fnm_table_edges_of_the_range():
    for n in range(2, 7):
        table = fnm_table(n)
        npairs = n * (n - 1) // 2
        assert len(table) == npairs + 1
        assert table[0] == 1  # the empty graph
        if npairs >= 1:
            assert table[1] == npairs  # any single edge works
        assert table[npairs] == 1  # complete graphs have no induced C4


def test_count_fixture_4_4():
    assert count_Fnm_c4(4, 4) == 12


def test_two_scan_implementations_agree():
    for n in range(2, 7):
        assert fnm_table(n) == fnm_table_backtracking(n)


def test_table_counts_against_direct_filter():
    n = 5
    table = fnm_table(n)
    direct = [0] * len(table)
    for mask in range(1 << 10):
        g = LabeledGraph(n, mask)
        if not naive.has_induced_c4(n, g.has_edge):
            direct[g.m] += 1
    assert list(table) == direct


def test_enumerate_masks_consistent_with_table():
    for n, m in [(4, 4), (5, 6), (6, 9)]:
        masks = enumerate_fnm_masks(n, m)
        assert len(masks) == count_Fnm_c4(n, m)
        assert len(set(int(x) for x in masks)) == len(masks)
        for x in masks[:: max(1, len(masks) // 40)]:
            g = LabeledGraph(n, int(x))
            assert g.m == m
            assert is_induced_c4_free(g)


def test_enumerate_masks_cache_gives_fresh_arrays():
    a = enumerate_fnm_masks(5, 4)
    b = enumerate_fnm_masks(5, 4)
    assert (a == b).all()
    a[0] = a[0] ^ 1
    assert (enumerate_fnm_masks(5, 4) == b).all()


def test_enumerate_refuses_large_n():
    with pytest.raises(ScaleError):
        fnm_table(9)
    with pytest.raises(ScaleError):
        enumerate_fnm_masks(9, 3)


# fnm_table(8) as the exhaustive scan of all 2^28 masks computed it
FNM_TABLE_8 = (
    1, 28, 378, 3276, 20265, 93660, 329350, 887520, 1853250, 3091340, 4317152,
    5186664, 5444607, 5066180, 4305780, 3389148, 2490740, 1638336, 980560,
    533540, 268548, 123544, 46046, 15540, 4690, 1176, 168, 28, 1,
)


def test_enumeration_equals_the_mask_scan():
    for n in range(8):
        npairs = n * (n - 1) // 2
        masks = np.arange(1 << npairs, dtype=np.uint32)
        good = masks[naive.induced_c4_free_by_scan(n, masks)]
        edges = np.bitwise_count(good)
        for m in range(npairs + 1):
            got = enumerate_fnm_masks(n, m)
            assert got.dtype == np.uint32
            np.testing.assert_array_equal(got, good[edges == m])
        assert fnm_table(n) == tuple(int(x) for x in np.bincount(edges, minlength=npairs + 1))


def test_fnm_table_8_is_pinned():
    assert fnm_table(8) == FNM_TABLE_8
    assert sum(FNM_TABLE_8) == 40_091_516


def test_top_extension_matches_the_scan_for_fixed_neighbourhoods():
    """For a fixed neighbourhood S of vertex 7, scan all 2^21 graphs on the
    other seven vertices with every 8-vertex pattern and compare with the
    members of F_8 whose top 7 bits are S."""
    hoods = [0, 127] + random.Random(8).sample(range(1, 127), 3)
    low = np.arange(1 << 21, dtype=np.uint32)
    got = {s: [] for s in hoods}
    for m in range(29):
        masks = enumerate_fnm_masks(8, m)
        assert len(masks) == fnm_table(8)[m]
        assert (masks[1:] > masks[:-1]).all()
        top = masks >> 21
        for s in hoods:
            got[s].append(masks[top == s])
    for s in hoods:
        full = low | np.uint32(s << 21)
        expected = full[naive.induced_c4_free_by_scan(8, full)]
        np.testing.assert_array_equal(np.sort(np.concatenate(got[s])), expected)


def _random_graphs(seed, count, max_n=12):
    """Seeded graphs on 1..max_n vertices, in three equal shares: uniform at a
    random density; planted split graphs, a third of them with one pair
    flipped; uniform with an induced C4 planted on four random vertices."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_n)
        pairs = list(itertools.combinations(range(n), 2))
        p = rng.random()
        kind = i % 3
        if kind == 1:
            clique = {v for v in range(n) if rng.random() < 0.5}
            edges = {
                (u, v) for u, v in pairs
                if (u in clique and v in clique)
                or ((u in clique) != (v in clique) and rng.random() < p)
            }
            if pairs and rng.random() < 1 / 3:
                edges ^= {rng.choice(pairs)}
        else:
            edges = {e for e in pairs if rng.random() < p}
            if kind == 2 and n >= 4:
                a, b, c, d = rng.sample(range(n), 4)
                quad = {tuple(sorted(e)) for e in itertools.combinations((a, b, c, d), 2)}
                cycle = {tuple(sorted(e)) for e in ((a, b), (b, c), (c, d), (d, a))}
                edges = (edges - quad) | cycle
        yield LabeledGraph.from_edges(n, sorted(edges))


def test_graph_predicates_match_naive_on_random_graphs():
    split_seen = 0
    c4_seen = 0
    for g in _random_graphs(12, 600):
        adj = g.adjacency_masks()
        for v in range(g.n):
            nbrs = sum(1 << u for u in range(g.n) if u != v and g.has_edge(u, v))
            assert adj[v] == nbrs
            assert g.degree(v) == nbrs.bit_count()
        expected = naive.is_split_partition(g)
        got = is_split(g)
        assert (got is not None) == (expected is not None), g
        if got is not None:
            split_seen += 1
            clique, indep = got.clique, got.independent
            assert sorted(clique + indep) == list(range(g.n))
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
            assert not any(g.has_edge(u, v) for u, v in itertools.combinations(indep, 2))
        has_c4 = naive.has_induced_c4(g.n, g.has_edge)
        assert is_induced_c4_free(g) == (not has_c4), g
        c4_seen += has_c4
    assert split_seen >= 150 and c4_seen >= 150


def test_induced_c4_detection_matches_networkx():
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    c4 = nx.cycle_graph(4)
    for g in _random_graphs(13, 300):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        # subgraph_is_isomorphic matches node-induced subgraphs
        assert is_induced_c4_free(g) == (not GraphMatcher(h, c4).subgraph_is_isomorphic()), g


def test_split_recognition_exhaustive():
    n = 5
    for mask in range(1 << 10):
        g = LabeledGraph(n, mask)
        expected = naive.is_split_partition(g)
        got = is_split(g)
        assert (got is not None) == (expected is not None)
        if got is not None:
            clique, indep = got.clique, got.independent
            assert set(clique) | set(indep) == set(range(n))
            assert not set(clique) & set(indep)
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
            assert not any(g.has_edge(u, v) for u, v in itertools.combinations(indep, 2))


def test_quasirandom_accepts_complete_graph():
    g = LabeledGraph(6, (1 << 15) - 1)
    chk = is_eps_quasirandom(g, 0.3)
    assert chk.ok and chk.exact


def test_quasirandom_rejects_clique_plus_isolated():
    g = LabeledGraph.from_edges(8, list(itertools.combinations(range(4), 2)))
    chk = is_eps_quasirandom(g, 0.2)
    assert not chk.ok
    # the witness subset really does violate the density window
    s = chk.witness
    p = g.m / math.comb(g.n, 2)
    count = sum(1 for u, v in itertools.combinations(s, 2) if g.has_edge(u, v))
    dens = count / math.comb(len(s), 2)
    assert not ((1 - 0.2) * p <= dens <= (1 + 0.2) * p)


def test_close_to_split_accepts_true_split_graph():
    edges = list(itertools.combinations(range(3), 2)) + [(0, 3), (1, 4)]
    g = LabeledGraph.from_edges(5, edges)
    assert naive.is_split_partition(g) is not None
    chk = is_eps_close_to_split(g, 0.05)
    assert chk.ok and chk.exact
    a, b = chk.partition
    assert sorted(a + b) == list(range(5))


def test_close_to_split_rejects_matching():
    # a perfect matching on 12 vertices is far from split for small eps
    g = LabeledGraph.from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
    assert not is_eps_close_to_split(g, 0.05).ok


def test_sampler_is_deterministic_and_valid():
    runs = [sample_c4free_by_deletion(30, 40, 0.1, seed=5, max_attempts=8) for _ in range(2)]
    assert runs[0] == runs[1]
    s = runs[0]
    if s.accepted:
        g = s.graph
        assert g.m == 40
        assert naive.count_c4_subgraphs(g.n, g.adjacency_masks()) == 0


def test_sampler_accepted_graphs_are_c4_free():
    hits = 0
    for seed in range(12):
        s = sample_c4free_by_deletion(25, 30, 0.15, seed=seed, max_attempts=6)
        if not s.accepted:
            continue
        hits += 1
        g = s.graph
        assert g.m == 30
        assert naive.count_c4_subgraphs(g.n, g.adjacency_masks()) == 0
        assert s.m_prime == int(1.15 * 30)
    assert hits >= 6  # sparse regime, acceptance should be routine


SAMPLER_GRID_N = [*range(4, 14), 25, 30, 60, 200]


@pytest.mark.parametrize("n", SAMPLER_GRID_N)
def test_sampler_matches_full_scan_reference(n):
    """Every DeletionSample field, copies and attempts of rejected draws
    included, equals the sampler that scans all C(n,2) pairs, over four
    deltas, 30 seeds and 1 to 10 attempts.  Below n = 25, m spreads over the
    whole range; from n = 25 on it sits in the sparse regime, 0.1 to 0.4
    times n^(4/3)."""
    npairs = n * (n - 1) // 2
    rejected = deleted = 0
    for delta in (0.1, 0.15, 0.3, 0.5):
        for seed in range(30):
            if n < 25:
                m = max(1, int(npairs / (1 + delta) * random.Random(seed).random()))
            else:
                m = int((0.1, 0.2, 0.4)[seed % 3] * n ** (4 / 3))
            attempts = 1 + seed % 10
            got = sample_c4free_by_deletion(n, m, delta, seed, max_attempts=attempts)
            assert got == naive.sample_by_full_scan(n, m, delta, seed, max_attempts=attempts)
            rejected += not got.accepted
            deleted += got.accepted and got.surplus_removed < got.m_prime - m
    assert rejected and deleted  # both paths of the sampler ran


def test_sampler_rejects_bad_budget():
    with pytest.raises(ValueError):
        sample_c4free_by_deletion(5, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        sample_c4free_by_deletion(5, 10, 0.5, seed=0)


def test_ex_c4_matches_exhaustive_maximum():
    for n in (4, 5):
        npairs = n * (n - 1) // 2
        best = 0
        for mask in range(1 << npairs):
            g = LabeledGraph(n, mask)
            if naive.count_c4_subgraphs(n, g.adjacency_masks()) == 0:
                best = max(best, g.m)
        complete = LabeledGraph(n, (1 << npairs) - 1)
        assert ex_c4(complete) == best


def test_ex_c4_on_subgraph_instance():
    # the 5-cycle itself has no 4-cycle, so nothing needs deleting
    c5 = LabeledGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert ex_c4(c5) == 5


@st.composite
def subset_scan_graphs(draw, min_n, max_n):
    """Graphs on min_n..max_n vertices: uniform at a drawn density, or a
    clique on a random vertex set plus sparse noise, which is close to
    split for a moderate eps."""
    n = draw(st.integers(min_n, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    clique = set(rng.sample(range(n), rng.randint(0, n))) if draw(st.booleans()) else None
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2)
        if (clique is not None and u in clique and v in clique)
        or rng.random() < (density / 10 if clique is not None else density)
    ]
    return LabeledGraph.from_edges(n, edges)


@settings(max_examples=60, deadline=None)
@given(subset_scan_graphs(2, 16), st.sampled_from([0.05, 0.1, 0.3, 0.6]))
def test_exact_quasirandom_matches_the_subset_scan(g, eps):
    got = is_eps_quasirandom(g, eps)
    want = naive.quasirandom_by_subset_scan(g, eps)
    assert got.exact
    assert (got.ok, got.witness) == (want is None, want)


@settings(max_examples=60, deadline=None)
@given(subset_scan_graphs(4, 16), st.sampled_from([0.01, 0.05, 0.2, 0.5]))
def test_exact_close_to_split_matches_the_subset_scan(g, eps):
    got = is_eps_close_to_split(g, eps)
    want = naive.close_to_split_by_subset_scan(g, eps)
    assert got.exact
    assert (got.ok, got.partition) == (want is not None, want)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 90), st.data())
def test_edges_and_degree_match_the_bit_by_bit_versions(n, data):
    npairs = n * (n - 1) // 2
    density = data.draw(st.sampled_from([0.0, 0.01, 0.2, 0.9, 1.0]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = LabeledGraph(n, sum(1 << k for k in range(npairs) if rng.random() < density))
    assert g.edges() == naive.edges_by_bit_peeling(g)
    assert all(type(u) is int and type(v) is int for u, v in g.edges())
    assert [g.degree(v) for v in range(n)] == [naive.degree_by_shifts(g, v) for v in range(n)]
