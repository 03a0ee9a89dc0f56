"""Container trees for induced-C4-free graphs.

This module assembles the pieces from ``pregraph`` and ``engine`` into the
recursive structure that covers F_{n,m}(C4), the induced-C4-free graphs with
n vertices and m edges.  The tree is rooted at the complete pregraph (every
pair of K_n mixed, nothing fixed).  At an internal node we

  1. pick a permissible constraint hypergraph H_i via ``choose_hypergraph``,
     following the three-branch case analysis of the stability machinery
     (lots of mixed edges; fixed edges concentrated on a near-clique;
     the minimal-scale branch),
  2. run the asymmetric container construction on H_i once per tracked
     member graph, sharing query prefixes so that the whole family costs
     little more than a single run, and
  3. translate each resulting cylinder back into a pregraph move: mixed
     edges forced to 0 are discarded, mixed edges forced to 1 become fixed.

Every member lands in the child built from its own container, so the leaves
jointly cover all of F_{n,m}(C4).  Recursion stops at leaf pregraphs (almost
split, ratio, overflow, or underflow, see ``is_leaf_pregraph``) and at nodes
where the asymptotic machinery has no desk-scale counterpart: when the
selection case analysis fails, when the container hypothesis check fails at
the advertised K = 5/beta, or when a child makes no progress.  Those nodes
become fallback leaves with a recorded reason; they still cover their
members, so the tree remains a genuine cover, just a less informative one.

The derived parameters follow the tree construction exactly:

    K = 5/beta,   b = floor(xi(n) m / (ln n)^2),   xi(n) = 1/ln(ln(n)),
    r = floor(m / (2^13 ln n)),   shrink c = 2^(-42)/K,

with b and r floored at 1 (a warning notes when the floor binds, which it
always does at the scales a table can reach).  Each child of an internal
node loses a c-fraction of its mixed edges or gains c*r fixed edges; the
tree height is capped at ceil(2 ln(n)/c + m/(c r)), though strict progress
bounds the depth far sooner in practice.

``phi_log`` evaluates the edge-weight phi(m) = |F_{n,m}(C4)| (p/(1-p))^m
that governs the edge count of a uniform random graph conditioned on
induced-C4-freeness: exactly from the brute-force tables for n <= 8, or via
the standard bounds (counting upper bound, split-graph lower bound, deletion
lower bound, container upper bound) whose absolute constants are fitted on
the exhaustive small-n data.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .engine import ContainerProcess, Cylinder, Fingerprint
from .errors import HypothesisError, PreconditionError, ScaleError
from .graph6 import pair_index
from .hypergraph import UniformHypergraph
from .oracle import EXACT_COUNT_LIMIT, enumerate_fnm_masks
from .pregraph import (
    EXACT_SUBSET_LIMIT,
    PermissibleResult,
    Pregraph,
    _adjacency,
    _by_subset_size,
    _pairs_within,
    _permissible_target,
    _subset_pair_counts,
    build_permissible,
    close_to_clique_cost,
    complete_pregraph,
    is_leaf_pregraph,
)
from .splitcounts import LogCount, log_sum

__all__ = [
    "TreeParams",
    "SelectionResult",
    "TreeNode",
    "ContainerTree",
    "LeafInfo",
    "choose_hypergraph",
    "build_tree",
    "verify_coverage",
    "classify_leaves",
    "tree_lines",
    "tree_summary",
    "tree_json",
    "phi_log",
    "PHI_FITTED_CONSTANTS",
]


# -- parameters ----------------------------------------------------------------


@dataclass(frozen=True)
class TreeParams:
    """Build parameters plus the derived engine knobs.

    eps and delta shape the leaf test, beta the permissibility target
    e(H) >= beta*ell^4, and lam records the density regime m <= lam*n^2
    that the asymptotic statements assume (it is not enforced; desk-scale
    instances sit far outside every asymptotic regime anyway).

    depth_cap is the paper's height bound ceil(2 ln(n)/c + m/(c r)), c the
    shrink factor; it is kept and serialized as stated.  Strict progress
    pre-empts it: a node is expanded only with fewer mixed edges than its
    parent, so depth never exceeds C(n,2), while the cap exceeds 10^16 for
    n <= 8.
    """

    n: int
    m: int
    eps: float = 0.01
    delta: float = 0.01
    beta: float = 0.01
    lam: float = 1 / 64
    K: float = field(init=False)
    b: int = field(init=False)
    r: int = field(init=False)
    shrink: float = field(init=False)
    depth_cap: int = field(init=False)

    def __post_init__(self):
        if self.n < 3:
            raise PreconditionError(f"need n >= 3 (ln ln n must be positive), got {self.n}")
        if not 1 <= self.m <= math.comb(self.n, 2):
            raise PreconditionError(f"need 1 <= m <= C(n,2), got n={self.n}, m={self.m}")
        for name in ("eps", "delta"):
            val = getattr(self, name)
            if not 0 < val < 1:
                raise PreconditionError(f"{name} must lie in (0,1), got {val}")
        if self.beta <= 0:
            raise PreconditionError(f"beta must be positive, got {self.beta}")
        if self.lam <= 0:
            raise PreconditionError(f"lam must be positive, got {self.lam}")
        log_n = math.log(self.n)
        xi = 1 / math.log(log_n)
        raw_b = math.floor(xi * self.m / log_n**2)
        raw_r = math.floor(self.m / (2**13 * log_n))
        if raw_b < 1 or raw_r < 1:
            warnings.warn(
                f"parameter floor binds at n={self.n}, m={self.m}: "
                f"raw b={raw_b}, raw r={raw_r}; clamping to 1",
                stacklevel=2,
            )
        object.__setattr__(self, "K", 5.0 / self.beta)
        object.__setattr__(self, "b", max(raw_b, 1))
        object.__setattr__(self, "r", max(raw_r, 1))
        object.__setattr__(self, "shrink", 2.0**-42 / self.K)
        cap = math.ceil(2 * log_n / self.shrink + self.m / (self.shrink * self.r))
        object.__setattr__(self, "depth_cap", cap)


# -- hypergraph selection --------------------------------------------------------


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the per-node case analysis.

    ``case`` records which branch produced the hypergraph: 1 for the
    mixed-edge-rich branch, 2 for the concentrated-fixed-edges branch,
    3 for the minimal-ell branch.
    """

    status: str  # "selected" | "not_applicable"
    reason: str = ""
    case: int = 0
    ell: int = 0
    i: int = -1
    hypergraph: Optional[UniformHypergraph] = None
    permissible: Optional[PermissibleResult] = None

    @property
    def selected(self) -> bool:
        return self.status == "selected"


def _concentrated_ell(p: Pregraph, params: TreeParams) -> Optional[int]:
    """Largest ell admitting a size-ell set U with e(E) <= C(ell,2),
    e_E(U) >= (1-eps) C(ell,2), and mixed mass e_M(U^c) above the
    7 sqrt(eps) ell n budget; None when no such pair exists.

    Exact within the subset-DP range, where every subset is tested at once
    from the E and M subset counts; beyond it only the densest fixed-edge
    subset per size is examined.
    """
    n, r = p.n, params.r
    e_e = p.e_e()
    budget = 7 * math.sqrt(params.eps) * n
    adj_e, adj_m = _adjacency(n, p.fixed), _adjacency(n, p.mixed)
    if n <= EXACT_SUBSET_LIMIT:
        fixed_in = _subset_pair_counts(adj_e)
        mixed_out = _subset_pair_counts(adj_m)[::-1]  # full ^ S runs backwards
        fits = _by_subset_size(n, lambda ell: ell * ell >= r and e_e <= math.comb(ell, 2))
        floor = _by_subset_size(n, lambda ell: (1 - params.eps) * math.comb(ell, 2))
        heavy = _by_subset_size(n, lambda ell: budget * ell)
        ok = fits & (fixed_in >= floor) & (mixed_out > heavy)
        return int(_by_subset_size(n, lambda ell: ell)[ok].max()) if ok.any() else None
    full = (1 << n) - 1
    for ell in range(n, 0, -1):
        if ell * ell < r or e_e > math.comb(ell, 2):
            continue
        umask = sum(1 << v for v in close_to_clique_cost(n, p.fixed, ell).subset)
        if _pairs_within(adj_e, umask) < (1 - params.eps) * math.comb(ell, 2):
            continue
        if _pairs_within(adj_m, full ^ umask) > budget * ell:
            return ell
    return None


def _selection_candidates(p: Pregraph, params: TreeParams):
    """Yield (case, ell, skip_reason) for the three branches, in proof order.

    A None skip_reason marks a live candidate; the caller still has to build
    the hypergraph and re-check its degree caps exactly.
    """
    n, r = p.n, params.r
    e_m, e_e = p.e_m(), p.e_e()

    ell1 = e_m // (4 * n)
    if ell1 < 1:
        yield 1, 0, "e(M) < 4n"
    elif e_e > math.comb(ell1, 2):
        yield 1, ell1, f"e(E) > C({ell1},2)"
    elif ell1 * ell1 < r:
        yield 1, ell1, f"ell^2 = {ell1 * ell1} < r = {r}"
    else:
        yield 1, ell1, None

    ell2 = _concentrated_ell(p, params)
    if ell2 is None:
        yield 2, 0, "no near-clique concentration of E with heavy mixed remainder"
    else:
        yield 2, ell2, None

    ell3 = max(1, math.ceil(e_m / ((1 - params.delta) * n)))
    if ell3 * ell3 < r:
        yield 3, ell3, f"ell^2 = {ell3 * ell3} < r = {r}"
    elif e_e > math.comb(ell3, 2):
        yield 3, ell3, f"e(E) > C({ell3},2)"
    else:
        cost = close_to_clique_cost(n, p.fixed, ell3)
        if cost.cost <= params.eps * math.comb(ell3, 2):
            yield 3, ell3, f"E is eps-close to K_{ell3}"
        else:
            yield 3, ell3, None


def _recheck_caps(h: UniformHypergraph, i: int, ell: int, n: int, beta: float) -> Optional[str]:
    """Verification of the selection caps; None when all hold.  The degree
    caps are exact integer tests, and e(H) meets the greedy's own target."""
    if h.n_vertices > 5 * ell * n:
        return f"v(H) = {h.n_vertices} > 5*ell*n = {5 * ell * n}"
    if h.e() < _permissible_target(beta, ell):
        return f"e(H) = {h.e()} < beta*ell^4"
    deg = h.degree_table()
    if deg[(0, 1)] * n > ell**3:
        return f"Delta_(0,1) = {deg[(0, 1)]} > ell^3/n"
    if deg[(0, 2)] > ell:
        return f"Delta_(0,2) = {deg[(0, 2)]} > ell"
    if i > 0 and deg[(1, 0)] > ell * ell:
        return f"Delta_(1,0) = {deg[(1, 0)]} > ell^2"
    return None


def choose_hypergraph(p: Pregraph, params: TreeParams) -> SelectionResult:
    """Pick (ell, i, H) for a non-leaf pregraph, or report not_applicable.

    The branches are tried in proof order and the first one whose greedy
    construction meets every cap exactly wins.  The caps are re-checked
    without the integer clamping that the greedy construction applies, so a
    returned hypergraph always satisfies the real inequalities
    v(H) <= 5*ell*n, e(H) >= beta*ell^4, Delta_(0,1) <= ell^3/n,
    Delta_(0,2) <= ell, and Delta_(1,0) <= ell^2 when i > 0.
    """
    cls = is_leaf_pregraph(p, params.m, params.eps, params.delta)
    if cls.is_leaf:
        raise PreconditionError(f"leaf pregraph ({cls.kind}) has no hypergraph to select")
    return _choose_unchecked(p, params)


def _choose_unchecked(p: Pregraph, params: TreeParams) -> SelectionResult:
    failures = []
    for case, ell, skip in _selection_candidates(p, params):
        if skip is not None:
            failures.append(f"case {case}: {skip}")
            continue
        result = build_permissible(p, ell, params.beta)
        if not result.succeeded:
            failures.append(
                f"case {case} (ell={ell}): greedy exhausted after {result.insertions} insertions"
            )
            continue
        bad = _recheck_caps(result.hypergraph, result.i, ell, p.n, params.beta)
        if bad is not None:
            failures.append(f"case {case} (ell={ell}): {bad}")
            continue
        return SelectionResult(
            "selected",
            case=case,
            ell=ell,
            i=result.i,
            hypergraph=result.hypergraph,
            permissible=result,
        )
    return SelectionResult("not_applicable", reason="; ".join(failures))


# -- the tree ------------------------------------------------------------------


@dataclass
class TreeNode:
    node_id: int
    parent_id: int
    pregraph: Pregraph
    depth: int
    status: str = "internal"  # internal | leaf | fallback_leaf
    classification: str = ""
    children: list["TreeNode"] = field(default_factory=list)
    fingerprint: Optional[Fingerprint] = None
    members: int = 0
    selection: Optional[SelectionResult] = None
    normalized: Optional[tuple[int, int]] = None  # (b, m) the engine ran with
    renormalized: bool = False

    @property
    def is_leaf(self) -> bool:
        return self.status != "internal"


@dataclass
class ContainerTree:
    params: TreeParams
    force: bool
    root: TreeNode
    nodes: list[TreeNode]
    total_members: int

    def leaves(self) -> list[TreeNode]:
        return [nd for nd in self.nodes if nd.is_leaf]


def _drive_members(proc: ContainerProcess, pool: np.ndarray, bits: np.ndarray) -> dict:
    """Run the container construction for every mask in the pool at once.

    Members that agree on every answer so far share one engine state; each
    pending query (vertex, c) splits the pool by the queried edge bit.  The
    result maps cylinder strings to [cylinder, smallest fingerprint, pools].
    """
    out: dict[str, list] = {}
    stack: list[tuple[ContainerProcess, np.ndarray]] = [(proc, pool)]
    while stack:
        cur, mem = stack.pop()
        q = cur.pending()
        if q is None:
            res = cur.result()
            key = res.cylinder.to_string()
            fp = res.fingerprint
            entry = out.get(key)
            if entry is None:
                out[key] = [res.cylinder, fp, [mem]]
            else:
                entry[2].append(mem)
                if (fp.s0, fp.s1) < (entry[1].s0, entry[1].s1):
                    entry[1] = fp
            continue
        v, c = q
        has = (mem >> int(bits[v])) & 1
        yes_mem = mem[has == c]
        no_mem = mem[has != c]
        if len(no_mem):
            branch = cur.clone() if len(yes_mem) else cur
            branch.answer(False)
            stack.append((branch, no_mem))
        if len(yes_mem):
            cur.answer(True)
            stack.append((cur, yes_mem))
    return out


def _apply_cylinder(p: Pregraph, ground: tuple, cyl: Cylinder) -> Pregraph:
    drop = {ground[k] for k in cyl.forced(0)}
    fix = {ground[k] for k in cyl.forced(1)}
    return Pregraph(p.n, p.mixed - drop - fix, p.fixed | fix)


def _makes_progress(parent: Pregraph, child: Pregraph, params: TreeParams) -> bool:
    c = params.shrink
    return (
        child.e_m() <= (1 - c) * parent.e_m()
        or child.e_e() >= parent.e_e() + c * params.r
    )


def _expand(node: TreeNode, members: np.ndarray, params: TreeParams, force: bool, nodes: list) -> None:
    p = node.pregraph
    if node.depth >= params.depth_cap:
        node.status, node.classification = "fallback_leaf", "depth_cap"
        return
    cls = is_leaf_pregraph(p, params.m, params.eps, params.delta)
    if cls.is_leaf:
        node.status, node.classification = "leaf", cls.kind
        return
    sel = _choose_unchecked(p, params)
    node.selection = sel
    if not sel.selected:
        node.status, node.classification = "fallback_leaf", "selection_not_applicable"
        return
    ground = sel.permissible.system.ground
    bits = np.array([pair_index(u, v) for u, v in ground], dtype=np.int64)
    try:
        proc = ContainerProcess(
            sel.hypergraph, params.K, params.b, params.m, params.r, force=force
        )
    except HypothesisError as exc:
        node.status = "fallback_leaf"
        node.classification = f"container_hypothesis(min_k={float(exc.min_k):.6g})"
        return
    node.normalized = (proc.b, proc.m)
    node.renormalized = (proc.b, proc.m) != (params.b, params.m)
    groups = _drive_members(proc, members, bits)
    ordered = sorted(
        groups.values(), key=lambda e: (e[1].s0, e[1].s1, e[0].to_string())
    )
    for cyl, fp, pools in ordered:
        sub = np.sort(np.concatenate(pools))
        child_pg = _apply_cylinder(p, ground, cyl)
        child = TreeNode(
            len(nodes), node.node_id, child_pg, node.depth + 1,
            fingerprint=fp, members=len(sub),
        )
        nodes.append(child)
        node.children.append(child)
        if not _makes_progress(p, child_pg, params):
            child.status, child.classification = "fallback_leaf", "no_progress"
            continue
        _expand(child, sub, params, force, nodes)


def build_tree(params: TreeParams, force: bool = False) -> ContainerTree:
    """Grow the container tree for F_{n,m}(C4), tracking every member.

    Members come from the exact enumeration of F_{n,m}(C4), which extends
    the stored induced-C4-free graphs on n-1 vertices by one vertex, so n is
    limited to its range, n <= 8.  With force=False a node whose hypergraph fails the
    container hypothesis check at K = 5/beta becomes a fallback leaf; with
    force=True the construction proceeds anyway (the produced cylinders are
    still genuine containers for their members, only the fingerprint-size
    guarantee is lost).
    """
    if params.n > EXACT_COUNT_LIMIT:
        raise ScaleError(
            f"tree construction tracks members exhaustively and needs n <= "
            f"{EXACT_COUNT_LIMIT}, got n = {params.n}"
        )
    members = enumerate_fnm_masks(params.n, params.m).astype(np.int64)
    root = TreeNode(0, -1, complete_pregraph(params.n), 0, members=len(members))
    nodes = [root]
    _expand(root, members, params, force, nodes)
    return ContainerTree(params, force, root, nodes, len(members))


def verify_coverage(tree: ContainerTree) -> tuple[int, int]:
    """(covered, total) over the exhaustive member list; covered counts the
    members contained in at least one leaf pregraph."""
    n, m = tree.params.n, tree.params.m
    members = enumerate_fnm_masks(n, m).astype(np.int64)
    covered = np.zeros(len(members), dtype=bool)
    for leaf in tree.leaves():
        p = leaf.pregraph
        e_mask = 0
        for u, v in p.fixed:
            e_mask |= 1 << pair_index(u, v)
        me_mask = e_mask
        for u, v in p.mixed:
            me_mask |= 1 << pair_index(u, v)
        covered |= ((members & e_mask) == e_mask) & ((members & ~me_mask) == 0)
    return int(covered.sum()), len(members)


# -- leaf classification ---------------------------------------------------------


@dataclass(frozen=True)
class LeafInfo:
    node_id: int
    kind: str
    case: str  # almost_split | case_1 | case_2 | fallback
    members: int
    log_count: float  # ln C(e(M), m - e(E)); -inf when the node holds nothing


_DISCARD_CASE = {"e_overflow": "case_1", "m_underflow": "case_1", "ratio_leaf": "case_2"}


def _leaf_log_count(p: Pregraph, m: int) -> float:
    free = m - p.e_e()
    if free < 0 or free > p.e_m():
        return float("-inf")
    return math.log(math.comb(p.e_m(), free))


def classify_leaves(tree: ContainerTree, eps: Optional[float] = None) -> dict[str, list[LeafInfo]]:
    """Bucket the leaves into almost_split / discarded / fallback.

    The almost-split test is re-run at the given eps (defaulting to the
    build eps); discarded leaves carry the case tag of the counting argument
    that dismisses them (case_1: edge overflow or mixed underflow, case_2:
    the ratio condition).
    """
    from .pregraph import is_almost_split_pregraph

    if eps is None:
        eps = tree.params.eps
    out: dict[str, list[LeafInfo]] = {"almost_split": [], "discarded": [], "fallback": []}
    m = tree.params.m
    for leaf in tree.leaves():
        p = leaf.pregraph
        log_count = _leaf_log_count(p, m)
        if is_almost_split_pregraph(p, eps).found:
            bucket, case = "almost_split", "almost_split"
            kind = leaf.classification or "almost_split"
        elif leaf.status == "leaf" and leaf.classification in _DISCARD_CASE:
            bucket, case = "discarded", _DISCARD_CASE[leaf.classification]
            kind = leaf.classification
        else:
            bucket, case = "fallback", "fallback"
            kind = leaf.classification
        out[bucket].append(LeafInfo(leaf.node_id, kind, case, leaf.members, log_count))
    return out


# -- serialization ---------------------------------------------------------------


def tree_lines(tree: ContainerTree) -> list[str]:
    """Line-oriented dump: `node_id parent_id status |M| |E| classification`."""
    lines = ["# node_id parent_id status e_M e_E classification"]
    for nd in tree.nodes:
        tag = nd.classification if nd.classification else "-"
        lines.append(
            f"{nd.node_id} {nd.parent_id} {nd.status} "
            f"{nd.pregraph.e_m()} {nd.pregraph.e_e()} {tag}"
        )
    return lines


def tree_summary(tree: ContainerTree, eps: Optional[float] = None) -> dict:
    """JSON-ready summary: parameters, leaf buckets, coverage, and the
    observed log-mass of graphs sitting in discarded leaves."""
    buckets = classify_leaves(tree, eps)
    covered, total = verify_coverage(tree)
    discarded_mass = log_sum(
        LogCount(info.log_count) for info in buckets["discarded"]
    )
    pr = tree.params
    return {
        "params": {
            "n": pr.n, "m": pr.m, "eps": pr.eps, "delta": pr.delta,
            "beta": pr.beta, "lam": pr.lam, "K": pr.K, "b": pr.b, "r": pr.r,
            "shrink": pr.shrink, "depth_cap": pr.depth_cap,
        },
        "force": tree.force,
        "n_nodes": len(tree.nodes),
        "n_leaves": len(tree.leaves()),
        "renormalized_nodes": [nd.node_id for nd in tree.nodes if nd.renormalized],
        "leaf_counts": {k: len(v) for k, v in buckets.items()},
        "leaves": {k: [asdict(info) for info in v] for k, v in buckets.items()},
        "observed_discarded_log_mass": discarded_mass.value,
        "covered": covered,
        "total_members": total,
    }


def tree_json(tree: ContainerTree, eps: Optional[float] = None) -> str:
    return json.dumps(tree_summary(tree, eps), indent=2, sort_keys=True)


# -- the edge-count weight phi ----------------------------------------------------

# Absolute constants in the phi bounds, fitted on the exhaustive tables for
# n <= 8 (the statements assert their existence without numeric values).
# c_lower is the largest value keeping the split-graph lower bound below every
# exact point; c_container the smallest value keeping the container-shaped
# expression above every exact point; gamma keeps the deletion lower bound
# honest on the few small grid points inside its regime m <= 0.1 * n^(4/3).
PHI_FITTED_CONSTANTS = {
    "c_lower": 0.58,
    "c_container": 7.2,
    "gamma": 1.89,
    "deletion_regime": 0.1,
    "provenance": "fitted on exhaustive F_{n,m}(C4) tables, n <= 8",
}


def phi_log(
    n: int,
    m: int,
    p: float,
    count_mode: str,
    *,
    c_lower: float = PHI_FITTED_CONSTANTS["c_lower"],
    c_container: float = PHI_FITTED_CONSTANTS["c_container"],
    gamma: float = PHI_FITTED_CONSTANTS["gamma"],
    deletion_regime: float = PHI_FITTED_CONSTANTS["deletion_regime"],
) -> LogCount:
    """ln phi(m) where phi(m) = |F_{n,m}(C4)| * (p/(1-p))^m.

    count_mode "exact" reads the brute-force table (n <= 8).  "lower_bound"
    takes the best of the split-graph bound (c*n*p/sqrt(m ln(n^2/m)))^m and,
    inside its sparse regime m <= deletion_regime * n^(4/3), the deletion
    bound ((e-gamma) n^2 p / (2m(1-p)))^m.  "upper_bound" takes the tighter
    (smaller) of the counting bound (e n^2 p / (2m(1-p)))^m and, inside the
    dense regime m >= n^(4/3) (ln n)^4, the container bound with constant
    c_container.
    """
    if not 0 < p < 1:
        raise PreconditionError(f"need 0 < p < 1, got {p}")
    if n < 1 or m < 0 or m > math.comb(n, 2):
        raise PreconditionError(f"need 0 <= m <= C(n,2), got n={n}, m={m}")
    if m == 0:
        return LogCount(0.0)
    if count_mode == "exact":
        if n > EXACT_COUNT_LIMIT:
            raise ScaleError(f"exact mode needs n <= {EXACT_COUNT_LIMIT}, got {n}")
        from .oracle import fnm_table

        count = fnm_table(n)[m]
        if count == 0:
            return LogCount(float("-inf"))
        return LogCount(math.log(count) + m * math.log(p / (1 - p)))
    tail = math.log(n * n / m)
    if count_mode == "lower_bound":
        if not 0 < c_lower:
            raise PreconditionError("c_lower must be positive")
        vals = [m * (math.log(c_lower * n * p) - 0.5 * math.log(m * tail))]
        if m <= deletion_regime * n ** (4 / 3):
            if not 0 < gamma < math.e:
                raise PreconditionError("gamma must lie in (0, e)")
            vals.append(m * math.log((math.e - gamma) * n * n * p / (2 * m * (1 - p))))
        return LogCount(max(vals))
    if count_mode == "upper_bound":
        vals = [m * math.log(math.e * n * n * p / (2 * m * (1 - p)))]
        if m >= n ** (4 / 3) * math.log(n) ** 4:
            vals.append(m * (math.log(c_container * n * p) - 0.5 * math.log(m * tail)))
        return LogCount(min(vals))
    raise PreconditionError(f"count_mode must be exact/lower_bound/upper_bound, got {count_mode!r}")
