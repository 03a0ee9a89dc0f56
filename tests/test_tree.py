"""The container tree over F_{n,m}(C4): parameter derivation, per-node
hypergraph selection, tree growth with exhaustive member tracking, leaf
classification, and the edge-count weight phi."""

import dataclasses
import json
import math

import naive
import numpy as np
import pytest

from c4containers import (
    PHI_FITTED_CONSTANTS,
    ContainerTree,
    PreconditionError,
    ScaleError,
    TreeNode,
    TreeParams,
    UniformHypergraph,
    build_tree,
    choose_hypergraph,
    classify_leaves,
    complete_pregraph,
    count_Fnm_c4,
    enumerate_fnm_masks,
    fnm_table_backtracking,
    is_almost_split_pregraph,
    phi_log,
    tree_json,
    tree_lines,
    tree_summary,
    verify_coverage,
)
from c4containers import hypergraph, replay_container
from c4containers.cli import main
from c4containers.graph6 import pair_index
from c4containers.pregraph import Pregraph, _from_masks
from c4containers.tree import _apply_cylinder, _choose_unchecked, _makes_progress

pytestmark = pytest.mark.filterwarnings("ignore:parameter floor binds")


def test_derived_parameters_at_7_10():
    with pytest.warns(UserWarning, match="parameter floor binds"):
        params = TreeParams(7, 10)
    assert params.K == 500.0
    log_n = math.log(7)
    xi = 1 / math.log(log_n)
    assert params.b == math.floor(xi * 10 / log_n**2) == 3
    assert params.r == 1  # raw value floors to zero at desk scale
    assert params.shrink == 2.0**-42 / 500.0
    expected_cap = math.ceil(2 * log_n / params.shrink + 10 / params.shrink)
    assert params.depth_cap == expected_cap


def test_floor_warning_names_the_code_that_built_the_params():
    with pytest.warns(UserWarning, match="parameter floor binds") as caught:
        TreeParams(7, 10)
    assert [w.filename for w in caught] == [__file__]


def test_parameter_validation():
    with pytest.raises(PreconditionError):
        TreeParams(2, 1)
    with pytest.raises(PreconditionError):
        TreeParams(7, 0)
    with pytest.raises(PreconditionError):
        TreeParams(7, 22)
    with pytest.raises(PreconditionError):
        TreeParams(7, 5, eps=1.0)
    with pytest.raises(PreconditionError):
        TreeParams(7, 5, beta=-1.0)
    for name in ("beta", "lam"):
        for value in (math.nan, math.inf, 0.0):
            with pytest.raises(PreconditionError):
                TreeParams(7, 5, **{name: value})
    # K = 5/beta and c = 2^-42/K: at 1e-300 c is subnormal and the height
    # bound overflows, at 1e-320 K = inf and c = 0
    for beta in (1e-300, 1e-320):
        with pytest.raises(PreconditionError, match="beta"):
            TreeParams(7, 18, beta=beta)


def test_selection_on_the_complete_root():
    params = TreeParams(7, 10)
    sel = choose_hypergraph(complete_pregraph(7), params)
    assert sel.selected
    assert sel.case == 3
    assert sel.ell == 4
    assert sel.i == 2
    h = sel.hypergraph
    assert h.e() >= params.beta * sel.ell**4
    assert h.max_degree(0, 1) * 7 <= sel.ell**3
    assert h.max_degree(0, 2) <= sel.ell
    assert h.max_degree(1, 0) <= sel.ell**2


def test_selection_refuses_leaf_pregraphs():
    params = TreeParams(7, 10)
    leafy = Pregraph(7, [(4, 5)], [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(PreconditionError):
        choose_hypergraph(leafy, params)


def test_tree_scale_guard():
    with pytest.raises(ScaleError):
        build_tree(TreeParams(9, 5))


def walk_structure(tree):
    """Shared structural invariants of any built tree."""
    params = tree.params
    ids = [nd.node_id for nd in tree.nodes]
    assert ids == sorted(set(ids))
    by_id = {nd.node_id: nd for nd in tree.nodes}
    assert tree.root.parent_id == -1
    for nd in tree.nodes:
        if nd.node_id != tree.root.node_id:
            parent = by_id[nd.parent_id]
            assert nd in parent.children
            assert nd.depth == parent.depth + 1
        assert nd.depth <= min(params.depth_cap, math.comb(params.n, 2))
        if nd.is_leaf:
            assert nd.classification
            assert not nd.children
        else:
            assert nd.children
            # members partition across the children
            assert sum(c.members for c in nd.children) == nd.members
            # canonical child order by fingerprint
            keys = [(c.fingerprint.s0, c.fingerprint.s1) for c in nd.children]
            assert keys == sorted(keys)
            for c in nd.children:
                shrunk = c.pregraph.e_m() <= (1 - params.shrink) * nd.pregraph.e_m()
                grew = c.pregraph.e_e() >= nd.pregraph.e_e() + params.shrink * params.r
                if c.status != "fallback_leaf":
                    assert shrunk or grew
                    assert c.pregraph.e_m() < nd.pregraph.e_m()
    assert tree.root.members == tree.total_members


@pytest.mark.parametrize("m", [3, 13, 15])
def test_forced_trees_cover_every_member(m):
    tree = build_tree(TreeParams(7, m), force=True)
    assert tree.total_members == count_Fnm_c4(7, m)
    covered, total = verify_coverage(tree)
    assert (covered, total) == (tree.total_members, tree.total_members)
    walk_structure(tree)
    buckets = classify_leaves(tree)
    assert sum(len(v) for v in buckets.values()) == len(tree.leaves())


def test_progress_is_exact_so_a_child_equal_to_its_parent_never_passes():
    """c*r = 4.5e-16 is below half an ulp of e(E) >= 8, so a float rule lets
    an unchanged child through there; in integers it never does, while one
    dropped or one fixed mixed pair always makes progress."""
    params = TreeParams(8, 20)
    assert params.r == 1
    full = (1 << 28) - 1
    for e in range(28):
        fixed = (1 << e) - 1
        parent = _from_masks(8, full & ~fixed, fixed)
        top = 1 << 27  # a mixed pair for every e < 28
        dropped = _from_masks(8, parent.M & ~top, fixed)
        moved = _from_masks(8, parent.M & ~top, fixed | top)
        assert not _makes_progress(parent, parent, params), e
        assert _makes_progress(parent, dropped, params), e
        assert _makes_progress(parent, moved, params), e


def test_fingerprints_replay_to_their_children():
    """Every child of the forced n = 8, m = 24 tree comes back from its
    fingerprint alone: replayed on the H its parent selects, with the
    cylinder applied to the parent's pregraph.  No two siblings share a
    fingerprint."""
    params = TreeParams(8, 24)
    tree = build_tree(params, force=True)
    children = 0
    for node in tree.nodes:
        if not node.children:
            continue
        sel = _choose_unchecked(node.pregraph, params)
        bits = np.array([pair_index(*e) for e in sel.permissible.system.ground], dtype=np.int64)
        fps = [child.fingerprint for child in node.children]
        assert len(set(fps)) == len(fps)
        for child in node.children:
            res = replay_container(
                sel.hypergraph, params.K, params.b, params.m, params.r, child.fingerprint, force=True
            )
            assert _apply_cylinder(node.pregraph, bits, res.cylinder) == child.pregraph
            children += 1
    assert children == len(tree.nodes) - 1 > 1000


def count_degree_tables(monkeypatch):
    """(hypergraphs asked for a degree table, by id; tables built).  Every
    table build asks for the sub-tuple plan once."""
    asked, built = {}, []
    table, plan = UniformHypergraph.degree_table, hypergraph._subtuple_plan

    def asking(h):
        asked[id(h)] = h  # held, so no id is reused
        return table(h)

    def planning(k0, k1):
        built.append((k0, k1))
        return plan(k0, k1)

    monkeypatch.setattr(UniformHypergraph, "degree_table", asking)
    monkeypatch.setattr(hypergraph, "_subtuple_plan", planning)
    return asked, built


def test_tree_builds_one_degree_table_per_candidate_hypergraph(monkeypatch):
    """The selection re-check and the node's container process read one
    table of each candidate H."""
    asked, built = count_degree_tables(monkeypatch)
    tree = build_tree(TreeParams(8, 26))
    assert any(not nd.is_leaf for nd in tree.nodes)
    assert len(built) == len(asked) > 1


def test_forced_tree_builds_one_near_clique_scan_per_node(monkeypatch):
    """The leaf test and case 2 of the selection read one kept pass of E and
    M subset counts per node, in pregraph; with case 3's clique costs, the
    forced n = 8, m = 24 tree builds subset counts at most 3,946 times, where
    one build per reader took 5,576."""
    from c4containers import pregraph, tree

    assert not hasattr(tree, "_subset_pair_counts")
    calls = []
    inner = pregraph._subset_pair_counts
    monkeypatch.setattr(pregraph, "_subset_pair_counts",
                        lambda adj: calls.append(len(adj)) or inner(adj))
    pregraph._near_clique_scan.cache_clear()
    build_tree(TreeParams(8, 24), force=True)
    assert 0 < len(calls) <= 3946


def test_stability_probe_builds_one_degree_table(monkeypatch, capsys):
    """The re-check of the selected H and the hypothesis report share its table."""
    asked, built = count_degree_tables(monkeypatch)
    assert main(["stability-probe", "--n", "16", "--m", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["selection"]["status"] == "selected"
    assert len(built) == len(asked) == 1


def test_default_tree_small_m_is_an_honest_fallback():
    """Below the scale where the degree condition can hold, the default
    build refuses to pretend: the root is a single fallback leaf recording
    the minimal feasible K."""
    tree = build_tree(TreeParams(7, 10))
    assert len(tree.nodes) == 1
    root = tree.root
    assert root.status == "fallback_leaf"
    assert root.classification.startswith("container_hypothesis(min_k=")
    covered, total = verify_coverage(tree)
    assert covered == total == count_Fnm_c4(7, 10)


def test_default_tree_expands_when_the_condition_holds():
    tree = build_tree(TreeParams(7, 18))
    assert len(tree.nodes) > 1
    assert any(not nd.is_leaf for nd in tree.nodes)
    covered, total = verify_coverage(tree)
    assert covered == total == count_Fnm_c4(7, 18)
    walk_structure(tree)


def test_summary_and_lines_shape():
    tree = build_tree(TreeParams(7, 18))
    coverage = verify_coverage(tree)
    summary = tree_summary(tree, coverage)
    assert summary["covered"] == summary["total_members"]
    assert summary["n_nodes"] == len(tree.nodes)
    assert summary["n_leaves"] == len(tree.leaves())
    assert set(summary["leaf_counts"]) == {"almost_split", "discarded", "fallback"}
    assert sum(summary["leaf_counts"].values()) == summary["n_leaves"]
    # a leaf can hold at most C(e(M), m - e(E)) members, the mass it reports
    for bucket in summary["leaves"].values():
        for info in bucket:
            if info["members"]:
                assert math.log(info["members"]) <= info["log_count"] + 1e-9

    parsed = json.loads(tree_json(tree, coverage))
    assert parsed["params"]["n"] == 7 and parsed["params"]["m"] == 18

    lines = tree_lines(tree)
    assert lines[0].startswith("# node_id parent_id status")
    assert len(lines) == 1 + len(tree.nodes)
    first = lines[1].split()
    assert int(first[0]) == tree.root.node_id
    assert first[2] in ("internal", "leaf", "fallback_leaf")


@pytest.mark.parametrize(
    "n,m,force", [(7, 3, True), (7, 13, True), (7, 15, True), (7, 18, False), (8, 26, False)]
)
def test_report_passes_match_the_leaf_scan_and_the_retest(n, m, force):
    tree = build_tree(TreeParams(n, m), force=force)
    members = enumerate_fnm_masks(n, m)
    assert verify_coverage(tree) == naive.verify_coverage_by_leaf_scan(tree, members)
    buckets = classify_leaves(tree)
    got = {k: [dataclasses.astuple(info) for info in v] for k, v in buckets.items()}
    assert got == naive.classify_leaves_by_retest(tree)


def test_coverage_drops_members_that_escape_an_ancestor():
    """Fixing one more edge at an internal node puts the members of its
    leaves that lack the edge outside an ancestor.  The top-down count then
    equals a leaf scan in which every leaf below the node fixes the edge too
    (or is dropped, if it discards it), and falls below the plain leaf scan,
    which never looks at internal nodes."""
    tree = build_tree(TreeParams(7, 18))
    members = enumerate_fnm_masks(7, 18)
    total = len(members)

    def fixing(p, edge):
        return Pregraph(p.n, p.mixed - {edge}, p.fixed | {edge})

    def leaf_scan_fixing(node, edge):
        below, stack = set(), [node]
        while stack:
            nd = stack.pop()
            below.add(nd.node_id)
            stack.extend(nd.children)
        leaves = []
        for nd in tree.leaves():
            if nd.node_id not in below:
                leaves.append(nd)
            elif edge in nd.pregraph.mixed | nd.pregraph.fixed:
                leaves.append(dataclasses.replace(nd, pregraph=fixing(nd.pregraph, edge)))
        return naive.verify_coverage_by_leaf_scan(dataclasses.replace(tree, nodes=leaves), members)

    # the first node below the root, and edge, that leave some member uncovered
    candidates = (
        (nd, e) for nd in tree.nodes if nd.depth and not nd.is_leaf
        for e in sorted(nd.pregraph.mixed)
    )
    for node, edge in candidates:
        want = leaf_scan_fixing(node, edge)
        if want[0] < total:
            break
    else:
        pytest.fail("no fixed edge below the root leaves a member uncovered")
    node.pregraph = fixing(node.pregraph, edge)
    assert verify_coverage(tree) == want
    assert naive.verify_coverage_by_leaf_scan(tree, members) == (total, total)


def test_untested_fallback_leaves_are_retested_for_almost_split():
    """no_progress and depth_cap leaves never met the build's leaf test, so
    an almost-split one lands in the almost_split bucket under its own
    kind."""
    params = TreeParams(7, 10)
    split = Pregraph(7, [(4, 5)], [(0, 1), (0, 2), (1, 2)])
    assert is_almost_split_pregraph(split, params.eps).found
    assert not is_almost_split_pregraph(complete_pregraph(7), params.eps).found
    root = TreeNode(0, -1, complete_pregraph(7), 0, members=3)
    root.children = [
        TreeNode(1, 0, split, 1, "fallback_leaf", "no_progress", members=1),
        TreeNode(2, 0, split, 1, "fallback_leaf", "depth_cap", members=1),
        TreeNode(3, 0, complete_pregraph(7), 1, "fallback_leaf", "no_progress", members=1),
    ]
    tree = ContainerTree(params, False, root, [root, *root.children], 3)
    buckets = classify_leaves(tree)
    assert [(i.node_id, i.kind, i.case) for i in buckets["almost_split"]] == [
        (1, "no_progress", "almost_split"), (2, "depth_cap", "almost_split"),
    ]
    assert [(i.node_id, i.kind, i.case) for i in buckets["fallback"]] == [
        (3, "no_progress", "fallback"),
    ]
    got = {k: [dataclasses.astuple(info) for info in v] for k, v in buckets.items()}
    assert got == naive.classify_leaves_by_retest(tree)


def test_summary_json_is_strict_and_writes_a_zero_count_as_null():
    """A leaf that can hold no graph has log count -inf: the summary keeps
    the float, and the JSON text says null, as RFC 8259 has no infinity."""
    params = TreeParams(7, 10)
    split = Pregraph(7, [(4, 5)], [(0, 1), (0, 2), (1, 2)])  # m - e(E) = 7 > e(M)
    root = TreeNode(0, -1, split, 0, "leaf", "ratio_leaf")
    tree = ContainerTree(params, False, root, [root], 0)
    summary = tree_summary(tree, (0, 0))
    assert summary["observed_discarded_log_mass"] == -math.inf
    assert summary["leaves"]["discarded"][0]["log_count"] == -math.inf

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    parsed = json.loads(tree_json(tree, (0, 0)), parse_constant=refuse)
    assert parsed["observed_discarded_log_mass"] is None
    assert parsed["leaves"]["discarded"][0]["log_count"] is None


def test_phi_exact_matches_direct_recomputation():
    table = fnm_table_backtracking(5)
    for m in range(1, 11):
        for p in (0.2, 0.5, 0.8):
            expected = math.log(table[m]) + m * math.log(p / (1 - p))
            got = phi_log(5, m, p, "exact")
            assert got.value == pytest.approx(expected, abs=1e-12)
    assert phi_log(5, 0, 0.3, "exact").value == 0.0


def test_phi_bounds_bracket_exact_counts():
    for n in range(3, 9):
        for m in range(1, math.comb(n, 2) + 1):
            for p in (0.2, 0.5):
                exact = phi_log(n, m, p, "exact").value
                lo = phi_log(n, m, p, "lower_bound").value
                hi = phi_log(n, m, p, "upper_bound").value
                assert lo <= exact + 1e-9, (n, m, p)
                assert exact <= hi + 1e-9, (n, m, p)


def test_phi_deletion_branch_activates_in_the_sparse_regime():
    c = PHI_FITTED_CONSTANTS
    n, p = 8, 0.3

    def split(m):
        return m * (math.log(c["c_lower"] * n * p) - 0.5 * math.log(m * math.log(n * n / m)))

    def deletion(m):
        return m * math.log((math.e - c["gamma"]) * n * n * p / (2 * m * (1 - p)))

    # m = 1 sits inside m <= deletion_regime * n^(4/3) = 1.6, where the
    # deletion bound beats the split-graph bound
    assert 1 <= c["deletion_regime"] * n ** (4 / 3) < 20
    assert deletion(1) == pytest.approx(2.43, abs=0.01)
    assert split(1) == pytest.approx(-0.38, abs=0.01)
    assert phi_log(n, 1, p, "lower_bound").value == pytest.approx(deletion(1), abs=1e-12)
    # m = 20 lies outside the regime: the deletion expression would be larger
    # there, but only the split-graph bound counts
    assert deletion(20) > split(20)
    assert phi_log(n, 20, p, "lower_bound").value == pytest.approx(split(20), abs=1e-12)


def test_phi_argument_errors():
    with pytest.raises(PreconditionError):
        phi_log(6, 3, 0.0, "exact")
    with pytest.raises(PreconditionError):
        phi_log(6, 99, 0.3, "exact")
    with pytest.raises(PreconditionError):
        phi_log(6, 3, 0.3, "bogus_mode")
    with pytest.raises(ScaleError):
        phi_log(9, 3, 0.3, "exact")


def test_phi_of_the_empty_graph_and_a_negative_n():
    for mode in ("exact", "lower_bound", "upper_bound"):
        assert phi_log(0, 0, 0.3, mode).value == 0.0
    for n in (-1, -5):
        with pytest.raises(PreconditionError, match=f"n >= 0, got n={n}"):
            phi_log(n, 0, 0.3, "exact")


def test_phi_mode_is_checked_before_the_m0_shortcut():
    with pytest.raises(PreconditionError, match="count_mode"):
        phi_log(6, 0, 0.3, "bogus")
    assert phi_log(6, 0, 0.3, "lower_bound").value == 0.0


def test_phi_constants_documented():
    assert set(PHI_FITTED_CONSTANTS) == {
        "c_lower",
        "c_container",
        "gamma",
        "deletion_regime",
        "provenance",
    }
    assert "fitted" in PHI_FITTED_CONSTANTS["provenance"]
