"""Brute-force ground truth: graph encoding, induced-C4 detection,
exhaustive edge-count tables, split recognition, and the deletion sampler."""

import hashlib
import itertools
import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from c4containers import (
    LabeledGraph,
    PreconditionError,
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
from c4containers import graph6, oracle


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


@pytest.mark.parametrize("n", [5, 7, 887, 888, 1001, 1302])
def test_graph6_encode_matches_bitwise_reference_across_chunks(n):
    """C(n, 2) mod 6 is 4, 3, 0, 4 and 3 at n = 5, 7, 888, 1001 and 1302;
    n = 887 fills most of one 65,536-group chunk, 888 and 1001 spill into a
    second and 1302 into a third.  The round trip above covers n <= 200."""
    npairs = n * (n - 1) // 2
    rng = random.Random(n)
    for mask in (0, (1 << npairs) - 1, rng.getrandbits(npairs)):
        assert graph6.encode(n, mask) == naive.graph6_encode_by_bits(n, mask)


# graph6 text of 20,000 pairs drawn with random.Random(0).sample at n = 10,000,
# as the encoder that unpacked every pair bit at once wrote it
G6_N10000_SHA256 = "fe061ee77328f795ae59142abfb72e9002dba4c421367c63a28951d717a73276"


def _n10000_mask() -> int:
    """The mask of 20,000 pairs drawn with random.Random(0).sample at n = 10,000."""
    npairs = 10_000 * 9_999 // 2
    raw = bytearray((npairs + 7) // 8)
    for k in random.Random(0).sample(range(npairs), 20_000):
        raw[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(raw, "little")


def _traced_peak(fn, *args):
    """(fn(*args), the peak of tracemalloc's traced memory during the call)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph6_encode_memory_is_bounded_by_the_text():
    """8.3 MB of text from a 6.2 MB mask: unpacking every pair bit at once
    peaked at 91.7 MB under tracemalloc, chunks of groups stay below 40 MB."""
    n = 10_000
    text, peak = _traced_peak(graph6.encode, n, _n10000_mask())
    assert len(text) == 4 + (n * (n - 1) // 2 + 5) // 6
    assert hashlib.sha256(text.encode()).hexdigest() == G6_N10000_SHA256
    assert peak < 40e6


def test_graph6_decode_memory_is_bounded_by_the_text():
    """Decoding the text of the encoder's memory test: a '0'/'1' string of
    every pair bit peaked at 657 MB under tracemalloc, chunks of groups
    packed into the mask's bytes stay below 40 MB."""
    mask = _n10000_mask()
    text = graph6.encode(10_000, mask)
    got, peak = _traced_peak(graph6.decode, text)
    assert got == (10_000, mask)
    assert peak < 40e6


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


def test_enumerate_refuses_m_outside_the_pair_range_as_the_count_does():
    for m in (-1, 7, 99):
        for f in (enumerate_fnm_masks, count_Fnm_c4):
            with pytest.raises(ValueError, match="outside 0..6"):
                f(4, m)


def test_exact_range_refusals_are_precondition_errors():
    for f, n, m in ((count_Fnm_c4, 5, 11), (enumerate_fnm_masks, 4, -1), (count_Fnm_c4, 3, -2)):
        with pytest.raises(ValueError, match=f"m = {m} outside") as caught:
            f(n, m)
        assert caught.type is PreconditionError


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


def test_one_m_builds_only_the_layers_it_reaches(monkeypatch):
    """The new vertex of a member of F_{8,26} has at most 7 neighbours, so
    the other seven vertices carry 19 to 21 edges: F_7's layers 19-21, and
    below them only what those reach.  No layer of F_8 is stored."""
    oracle._layer.cache_clear()
    layer, built = oracle._layer, []
    monkeypatch.setattr(oracle, "_layer", lambda n, m: built.append((n, m)) or layer(n, m))
    assert len(enumerate_fnm_masks(8, 26)) == FNM_TABLE_8[26]
    assert sorted({m for n, m in built if n == 7}) == [19, 20, 21]
    assert max(n for n, _ in built) == 7
    assert layer.cache_info().currsize == len(set(built))


def test_layers_built_top_first_give_the_pinned_table():
    """On a cleared cache the members at m = 26 build F_7's top layers
    first; the whole table, built after them, still matches the pin."""
    oracle._layer.cache_clear()
    oracle.fnm_table.cache_clear()
    top = enumerate_fnm_masks(8, 26)
    assert len(top) == FNM_TABLE_8[26]
    assert fnm_table(8) == FNM_TABLE_8
    np.testing.assert_array_equal(enumerate_fnm_masks(8, 26), top)


def test_count_matches_the_table_from_a_cleared_cache():
    tables = [fnm_table(n) for n in range(9)]
    for n, table in enumerate(tables):
        for m, count in enumerate(table):
            oracle._layer.cache_clear()
            assert count_Fnm_c4(n, m) == count
    oracle._layer.cache_clear()
    with pytest.raises(ValueError):
        count_Fnm_c4(8, 29)
    with pytest.raises(ScaleError):
        count_Fnm_c4(9, 0)
    assert oracle._layer.cache_info().currsize == 0


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


def test_is_split_keeps_nothing_after_it_returns():
    """The degrees come from adjacency rows built for the call; a per-n
    table of pair rows used to hold 66.7 MB after a call at n = 1000."""
    n = 1000
    star = LabeledGraph.from_edges(n, [(0, v) for v in range(1, n)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = is_split(star)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert got == oracle.SplitPartition((0, 1), tuple(range(2, n)))
    assert kept <= 1 << 20, kept


def test_labeled_graph_rejects_a_negative_vertex_count():
    """C(n, 2) is 1 at n = -1 and 3 at n = -2, so mask 1 used to fit their pair range."""
    for n, mask in ((-1, 0), (-1, 1), (-2, 1), (-5, 0)):
        with pytest.raises(ValueError, match="need n >= 0"):
            LabeledGraph(n, mask)


def test_vertex_queries_reject_vertices_outside_the_range():
    """On the path 0-1-2-3, degree(-1) used to read 4, has_edge(-1, 2) the
    pair (0, 1) and degree(4) 0."""
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]
    assert g.has_edge(2, 1) and not g.has_edge(0, 3)
    for v in (-1, 4, 10):
        with pytest.raises(ValueError, match=f"vertex {v} outside 0..3"):
            g.degree(v)
        for u, w in ((v, 2), (2, v), (0, v)):
            with pytest.raises(ValueError, match=r"pair \(.*\) outside vertex range 0..3"):
                g.has_edge(u, w)
    with pytest.raises(ValueError, match="loop"):
        g.has_edge(1, 1)
    with pytest.raises(ValueError, match="vertex 0 outside 0..-1"):
        LabeledGraph(0, 0).degree(0)


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


PATH_0123 = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5])
def test_quasirandom_rejects_eps_outside_the_finite_nonnegatives(eps):
    with pytest.raises(PreconditionError):
        is_eps_quasirandom(PATH_0123, eps)


@pytest.mark.parametrize("eps", [math.nan, math.inf, -0.5])
def test_close_to_split_rejects_eps_outside_the_finite_nonnegatives(eps):
    with pytest.raises(PreconditionError):
        is_eps_close_to_split(PATH_0123, eps)


def test_oracle_eps_zero_stays_an_exact_test():
    got = is_eps_quasirandom(PATH_0123, 0.0)
    want = naive.quasirandom_by_subset_scan(PATH_0123, 0.0)
    assert got.exact and (got.ok, got.witness) == (want is None, want)
    got = is_eps_close_to_split(PATH_0123, 0.0)
    want = naive.close_to_split_by_subset_scan(PATH_0123, 0.0)
    assert got.exact and (got.ok, got.partition) == (want is not None, want)


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


def test_sampler_copies_count_the_4_cycles_of_the_last_draw():
    """``copies`` against a brute-force count over every vertex 4-tuple of
    the last draw, rebuilt by naive.draw_by_full_shuffle, for n = 4..12 over
    accepted and rejected draws."""
    seen = Counter()
    for n in range(4, 13):
        npairs = n * (n - 1) // 2
        for seed in range(12):
            delta = (0.1, 0.3, 0.6)[seed % 3]
            m = max(1, int(npairs / (1 + delta) * random.Random(seed).uniform(0.2, 0.8)))
            got = sample_c4free_by_deletion(n, m, delta, seed, max_attempts=1 + seed % 3)
            drawn = set(naive.draw_by_full_shuffle(n, got.m_prime, seed, got.attempts))
            cycles = naive.four_cycles(n, lambda u, v: graph6.pair_index(u, v) in drawn)
            assert got.copies == len(cycles), (n, seed)
            seen[got.accepted, got.copies > 0] += 1
    assert seen[True, True] and seen[False, True] and seen[True, False], seen


def test_draw_matches_the_randrange_shuffle():
    """The getrandbits draw against the randrange reference, index for index
    and in draw order, whole shuffles included.  At n = 12 the 66 widths
    cross 64, 32, 16, 8, 4 and 2, where the number of bits read changes."""
    for n, m_prime in [(12, 66), (12, 65), (12, 1), (2, 1), (3, 3), (9, 36), (17, 128),
                       (17, 136), (200, 440), (1000, 1200)]:
        for seed in range(4):
            for attempt in (1, 2):
                got = oracle._draw(n * (n - 1) // 2, m_prime, seed, attempt)
                assert got == naive.draw_by_full_shuffle(n, m_prime, seed, attempt), (n, m_prime)


def _draw_edges(n, m_prime, seed):
    drawn = naive.draw_by_full_shuffle(n, m_prime, seed, 1)
    nbrs = [[] for _ in range(n)]
    for k in drawn:
        u, v = graph6.pair_from_index(k)
        nbrs[u].append(v)
        nbrs[v].append(u)
    us, vs = graph6.pairs_from_indices(drawn)
    return nbrs, us, vs


def test_codegrees_match_the_wedge_counter():
    """The numpy codegrees, keys and counts, against a Counter over every
    vertex's pairs of neighbours, on seeded draws with n = 4..60: one edge
    (no wedge), sparse draws with isolated vertices, and the complete graph."""
    seen = Counter()
    for n in range(4, 61):
        npairs = n * (n - 1) // 2
        rnd = random.Random(n)
        for m_prime in sorted({1, 2, n // 2, rnd.randint(1, npairs), npairs - 1, npairs}):
            nbrs, us, vs = _draw_edges(n, m_prime, n + m_prime)
            keys, counts = oracle._codegrees(n, us, vs)
            want = sorted(naive.codegrees_by_wedge_counter(n, nbrs).items())
            assert keys.tolist() == [k for k, _ in want], (n, m_prime)
            assert counts.tolist() == [c for _, c in want], (n, m_prime)
            seen["no wedge"] += not want
            seen["isolated"] += any(not ws for ws in nbrs)
            seen["complete"] += m_prime == npairs and counts.tolist() == [n - 2] * npairs
    assert seen["no wedge"] and seen["isolated"] and seen["complete"] == 57, seen


def test_pairs_from_indices_matches_pair_from_index():
    """The vectorised decode against graph6.pair_from_index: every k below
    C(300, 2), then C(v,2) - 1, C(v,2) and C(v,2) + 1 for every v up to the
    graph6 limit 258047 and a few v above it, up to k = 2**60 - 1.  From
    about v = 10**8 on, the float square root overshoots at C(v,2) - 1."""
    ks = list(range(300 * 299 // 2))
    for v in [*range(2, 258048), 258048, 10**6, 10**7, 10**8, 3 * 10**8, 10**9, 1_518_500_000]:
        c = v * (v - 1) // 2
        ks += [c - 1, c, c + 1]
    ks.append(2**60 - 1)
    us, vs = graph6.pairs_from_indices(ks)
    assert list(zip(us.tolist(), vs.tolist())) == [graph6.pair_from_index(k) for k in ks]
    assert graph6.pairs_from_indices([])[0].size == 0


def test_sampler_rejects_bad_budget():
    with pytest.raises(ValueError):
        sample_c4free_by_deletion(5, 0, 0.1, seed=0)
    with pytest.raises(ValueError):
        sample_c4free_by_deletion(5, 10, 0.5, seed=0)
    with pytest.raises(PreconditionError):
        sample_c4free_by_deletion(5, 3, 0.1, seed=0, max_attempts=0)


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


@settings(max_examples=20, deadline=None)
@given(subset_scan_graphs(17, 24), st.sampled_from([0.05, 0.2, 0.5]))
def test_checks_past_the_exact_range_return_valid_witnesses(g, eps):
    """Past n = 16 the quasirandom check samples subsets and the close-to-split
    check is greedy: a reported witness must still be one."""
    q, c = is_eps_quasirandom(g, eps), is_eps_close_to_split(g, eps)
    assert not q.exact and not c.exact
    inside = lambda vs: sum(1 for u, v in itertools.combinations(vs, 2) if g.has_edge(u, v))
    if not q.ok:
        s, p = q.witness, g.m / math.comb(g.n, 2)
        assert len(s) > eps * g.n
        assert not (1 - eps) * p <= inside(s) / math.comb(len(s), 2) <= (1 + eps) * p
    if c.ok:
        a, b = c.partition
        assert sorted(a + b) == list(range(g.n))
        assert inside(a) >= (1 - eps) * math.comb(len(a), 2) and inside(b) <= eps * g.m


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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100), st.data())
def test_adjacency_masks_match_the_pair_by_pair_version(n, data):
    npairs = n * (n - 1) // 2
    density = data.draw(st.sampled_from([0.0, 0.01, 0.2, 0.9, 1.0]))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = LabeledGraph(n, sum(1 << k for k in range(npairs) if rng.random() < density))
    got = g.adjacency_masks()
    assert got == naive.adjacency_masks_by_pair_tests(g)
    assert all(type(row) is int for row in got)


def test_adjacency_masks_of_every_graph_on_at_most_four_vertices():
    for n in range(0, 5):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = LabeledGraph(n, mask)
            assert g.adjacency_masks() == naive.adjacency_masks_by_pair_tests(g)
