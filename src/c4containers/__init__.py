"""Asymmetric hypergraph containers for induced-C4-free graphs.

The package splits into layers:

``hypergraph`` / ``engine``
    the generic machinery: (k0,k1)-uniform constraint hypergraphs, the
    degree-cap hypothesis check, and the round-based container construction
    with fingerprints and replay.
``pregraph``
    pregraphs (partial two-colourings of K_n's edges), good copies of C4,
    the constraint hypergraphs H_0, H_1, H_2, saturation preprocessing, and
    the greedy permissible-hypergraph builder.
``splitcounts``
    exact and asymptotic counting of split graphs with a given clique side,
    the fixed point ell_{n,m}, and the ratio identities used to locate the
    maximum.
``tree``
    the container tree over pregraphs, leaf classification, and the
    edge-weight phi(m) for the conditioned random graph.
``oracle``
    brute-force ground truth: exhaustive F_{n,m}(C4) tables, split-graph
    recognition, quasirandomness and closeness-to-split checks, a deletion
    sampler, and an exact ex(n, C4) solver at toy sizes.
``cli``
    the ``c4containers`` command line front end.
"""

from .engine import (
    ContainerProcess,
    ContainerResult,
    Cylinder,
    DeltaSchedule,
    Fingerprint,
    MonotoneResult,
    build_container,
    container_delta,
    fingerprint_family_bound,
    monotone_containers,
    normalize_parameters,
    replay_container,
)
from .errors import HypothesisError, NumericError, PreconditionError, ScaleError
from .hypergraph import (
    Assignment,
    Constraint,
    HypothesisReport,
    UniformHypergraph,
    check_container_hypothesis,
)
from .oracle import (
    LabeledGraph,
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
from .pregraph import (
    GoodC4,
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
from .splitcounts import (
    LogCount,
    argmax_n_nm,
    close_to_split_log_bound,
    ell_nm,
    grid_csv_lines,
    log_n_nm,
    log_spaced_m,
    log_sum,
    n_nm,
    ratio_a,
    ratio_b,
    snm_bounds,
    split_grid,
)
from .tree import (
    PHI_FITTED_CONSTANTS,
    ContainerTree,
    TreeNode,
    TreeParams,
    build_tree,
    choose_hypergraph,
    classify_leaves,
    phi_log,
    tree_json,
    tree_lines,
    tree_summary,
    verify_coverage,
)

__version__ = "0.1.0"
