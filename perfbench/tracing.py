"""Spans around the calls one layer of c4containers makes into another.

The tracer replaces module-level names (and a few methods) with wrappers
that record a span per call: name, start, end, parent span and job id.
Spans stay in memory; the worker writes them out when the round ends and
``layer_metrics`` turns them into per-layer times, counts, self times and
ratios.  Nothing under ``src/`` is modified: the wrappers are installed on
the imported modules of one worker process only.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = ("cli", "tree", "pregraph", "hypergraph", "engine", "oracle", "splitcounts")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, job)
        self.counts: Counter = Counter()
        self.enumerated: set[tuple[int, int]] = set()  # distinct (n, m) scanned
        self.job = ""
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None):
        """Replace owner.attr by a spanning wrapper.  on_result(tracer, args,
        kwargs, result) and on_error(tracer, exc) record counts."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = (span_id, name, start, end, parent, self.job)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def count(self, key: str, amount=1) -> None:
        self.counts[key] += amount


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the four workloads cross."""
    from c4containers import cli, engine, hypergraph, pregraph, splitcounts, tree

    w = tracer.wrap
    w(cli, "main", "cli.main")

    w(cli, "build_tree", "tree.build_tree", on_result=_tree_shape)
    w(cli, "verify_coverage", "tree.verify_coverage")
    w(tree, "verify_coverage", "tree.verify_coverage")
    w(cli, "tree_json", "tree.summary")
    w(cli, "phi_log", "tree.phi_log")
    # stability-probe calls cli.choose_hypergraph; build_tree's expansion
    # calls tree._choose_unchecked directly, which choose_hypergraph wraps
    w(cli, "choose_hypergraph", "tree.choose_hypergraph")
    w(tree, "_choose_unchecked", "tree.choose_hypergraph")

    w(tree, "enumerate_fnm_masks", "oracle.enumerate", on_result=_enumerated)
    w(cli, "sample_c4free_by_deletion", "oracle.sampler", on_result=_sampled)

    w(tree, "build_permissible", "pregraph.build_permissible", on_result=_permissible)
    w(pregraph, "good_c4_enumerate", "pregraph.good_c4_enumerate",
      on_result=lambda t, a, k, r: t.count("pregraph.good_c4_copies", len(r)))
    for mod in (tree, cli):
        w(mod, "is_leaf_pregraph", "pregraph.is_leaf")
    w(tree, "close_to_clique_cost", "pregraph.close_to_clique")

    for mod in (engine, cli):
        w(mod, "check_container_hypothesis", "hypergraph.check_hypothesis")
    w(hypergraph.UniformHypergraph, "max_degree", "hypergraph.max_degree")

    w(engine, "build_container", "engine.build_container")
    w(engine, "replay_container", "engine.replay_container")
    proc = engine.ContainerProcess
    w(proc, "__init__", "engine.process_init", on_error=_refused)
    w(proc, "answer", "engine.answer")
    w(proc, "clone", "engine.clone")
    w(proc, "result", "engine.result", on_result=_finished)

    w(cli, "split_grid", "splitcounts.split_grid")
    w(cli, "n_nm", "splitcounts.n_nm")
    w(splitcounts, "argmax_n_nm", "splitcounts.argmax")


def _tree_shape(t: Tracer, args, kwargs, tr) -> None:
    t.count("tree.nodes", len(tr.nodes))
    leaves = tr.leaves()
    t.count("tree.leaves", len(leaves))
    t.count("tree.fallback_leaves", sum(nd.status == "fallback_leaf" for nd in leaves))


def _enumerated(t: Tracer, args, kwargs, masks) -> None:
    # build_tree and verify_coverage each ask for F_{n,m}; count it once
    key = tuple(args[:2])
    if key not in t.enumerated:
        t.count("oracle.members", len(masks))
        t.enumerated.add(key)


def _sampled(t: Tracer, args, kwargs, sample) -> None:
    t.count("oracle.sampler_attempts", sample.attempts)
    t.count("oracle.sampler_accepted", int(sample.accepted))


def _refused(t: Tracer, exc: Exception) -> None:
    from c4containers.errors import HypothesisError

    if isinstance(exc, HypothesisError):
        t.count("engine.hypothesis_fallbacks")


def _finished(t: Tracer, args, kwargs, res) -> None:
    t.count("engine.containers")
    t.count("engine.rounds", res.n_rounds)


def _permissible(t: Tracer, args, kwargs, res) -> None:
    t.count("pregraph.insertions", res.insertions)
    t.count("pregraph.permissible_successes", int(res.succeeded))


# -- aggregation -----------------------------------------------------------------


def layer_metrics(spans: list, counts: dict, enumerated: list) -> dict[str, float]:
    """Per-layer metrics of one traced round from its spans, its counts and
    the distinct (n, m) pairs handed to the exhaustive scan.

    A name's time sums its outermost spans, so nested calls of the same name
    are not counted twice; a layer's self time sums, over its spans, the
    span minus the child spans it covers.
    """
    child_time: Counter = Counter()
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] += s[3] - s[2]
    total: Counter = Counter()
    calls: Counter = Counter()
    self_time: Counter = Counter()
    for s in spans:
        span_id, name, start, end, parent = s[:5]
        calls[name] += 1
        self_time[name.split(".")[0]] += (end - start) - child_time[span_id]
        while parent >= 0 and spans[parent][1] != name:
            parent = spans[parent][4]
        if parent < 0:
            total[name] += end - start

    def ratio(a, b):
        return a / b if b else 0.0

    c = Counter(counts)
    scanned = sum(2 ** (n * (n - 1) // 2) for n, _ in enumerated)
    out = {
        "oracle.enumerate_s": total["oracle.enumerate"],
        "oracle.enumerate_calls": calls["oracle.enumerate"],
        "oracle.members": c["oracle.members"],
        "oracle.masks_per_s": ratio(scanned, total["oracle.enumerate"]),
        "oracle.sampler_s": total["oracle.sampler"],
        "oracle.sampler_attempts": c["oracle.sampler_attempts"],
        "oracle.sampler_accept_ratio": ratio(c["oracle.sampler_accepted"],
                                             c["oracle.sampler_attempts"]),
        "pregraph.build_permissible_s": total["pregraph.build_permissible"],
        "pregraph.build_permissible_calls": calls["pregraph.build_permissible"],
        "pregraph.permissible_success_ratio": ratio(c["pregraph.permissible_successes"],
                                                    calls["pregraph.build_permissible"]),
        "pregraph.insertions": c["pregraph.insertions"],
        "pregraph.good_c4_enumerate_s": total["pregraph.good_c4_enumerate"],
        "pregraph.good_c4_enumerate_calls": calls["pregraph.good_c4_enumerate"],
        "pregraph.good_c4_copies": c["pregraph.good_c4_copies"],
        "pregraph.insertions_per_copy": ratio(c["pregraph.insertions"],
                                              c["pregraph.good_c4_copies"]),
        "pregraph.is_leaf_s": total["pregraph.is_leaf"],
        "pregraph.is_leaf_calls": calls["pregraph.is_leaf"],
        "pregraph.close_to_clique_s": total["pregraph.close_to_clique"],
        "hypergraph.check_hypothesis_s": total["hypergraph.check_hypothesis"],
        "hypergraph.check_hypothesis_calls": calls["hypergraph.check_hypothesis"],
        "hypergraph.max_degree_s": total["hypergraph.max_degree"],
        "hypergraph.max_degree_calls": calls["hypergraph.max_degree"],
        "engine.build_container_s": total["engine.build_container"],
        "engine.replay_container_s": total["engine.replay_container"],
        "engine.containers": c["engine.containers"],
        "engine.process_init_s": total["engine.process_init"],
        "engine.process_inits": calls["engine.process_init"],
        "engine.hypothesis_fallbacks": c["engine.hypothesis_fallbacks"],
        "engine.answers": calls["engine.answer"],
        "engine.answer_s": total["engine.answer"],
        "engine.clones": calls["engine.clone"],
        "engine.clone_s": total["engine.clone"],
        "engine.rounds": c["engine.rounds"],
        "tree.build_tree_s": total["tree.build_tree"],
        "tree.choose_hypergraph_s": total["tree.choose_hypergraph"],
        "tree.nodes": c["tree.nodes"],
        "tree.leaves": c["tree.leaves"],
        "tree.fallback_leaves": c["tree.fallback_leaves"],
        "tree.verify_coverage_s": total["tree.verify_coverage"],
        "tree.summary_s": total["tree.summary"],
        "tree.phi_log_s": total["tree.phi_log"],
        "splitcounts.split_grid_s": total["splitcounts.split_grid"],
        "splitcounts.n_nm_s": total["splitcounts.n_nm"],
        "splitcounts.argmax_s": total["splitcounts.argmax"],
        "cli.main_s": total["cli.main"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_time[layer]
    return out
