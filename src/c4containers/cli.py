"""Command line front end for the container machinery.

Subcommands:

  containers       fingerprints and cylinders for members of F_{<=m}(H)
  tree             container tree for F_{n,m}(C4) with a coverage report
  count-split      split-graph counts N_{n,m}(ell) and their location grid
  enumerate        exhaustive |F_{n,m}(C4)| counts as CSV
  sampler          seeded runs of the edge-deletion sampler
  phi              ln phi(m), exactly or via the fitted bounds
  stability-probe  leaf test and hypergraph selection diagnostics

Configuration is resolved per flag as CLI value, then config-file value, then
the built-in default.  Config files are flat ``key = value`` text, one pair
per line, `#` comments allowed.  Every run that writes results via --out also
writes ``<out>.manifest`` beside them, a config file that reproduces the run:

    c4containers --config results.csv.manifest

All randomness flows from --seed; batch items derive their own streams by
hashing the task index into the seed, so reruns are byte-identical no matter
how work is scheduled.  Logarithms in outputs are natural (ln).  Exit codes:
0 success, 2 usage error, 3 precondition violated, 4 scale refusal,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from . import tree as _tree
from .engine import ContainerProcess, _drive
from .errors import NumericError, PreconditionError, ScaleError
from .hypergraph import Assignment, UniformHypergraph, check_container_hypothesis
from .oracle import EXACT_COUNT_LIMIT, fnm_table, sample_c4free_by_deletion
from .pregraph import Pregraph, complete_pregraph, is_leaf_pregraph
from .splitcounts import (
    DEFAULT_LAMBDA,
    grid_csv_lines,
    n_nm,
    split_grid,
)
from .tree import (
    PHI_FITTED_CONSTANTS,
    TreeParams,
    build_tree,
    choose_hypergraph,  # not called here, but perfbench/tracing.py wraps it by this name
    phi_log,
    tree_json,
    tree_lines,
    verify_coverage,
)

__all__ = ["main"]


# -- configuration plumbing ------------------------------------------------------


def _parse_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise PreconditionError(f"cannot read config file {path}: {exc}") from exc
    cfg: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PreconditionError(f"config line without '=': {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _as_bool(text: str) -> bool:
    low = text.lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise PreconditionError(f"not a boolean: {text!r}")


class _Resolver:
    """Flag resolution (CLI beats config beats default) plus manifest capture."""

    def __init__(self, ns: argparse.Namespace, cfg: dict[str, str]):
        self.ns = ns
        self.cfg = cfg
        self.resolved: dict[str, object] = {}

    def get(self, name: str, typ, default=None, required: bool = False):
        value = getattr(self.ns, name.replace("-", "_"), None)
        if value is None and name in self.cfg:
            raw = self.cfg[name]
            try:
                value = _as_bool(raw) if typ is bool else typ(raw)
            except ValueError as exc:
                raise PreconditionError(f"bad config value {name} = {raw!r}") from exc
        if value is None:
            value = default
        if value is None and required:
            raise PreconditionError(f"missing required parameter --{name}")
        if value is not None:
            self.resolved[name] = value
        return value


def _read_input(path: str, parse):
    """Parse the --input file; unreadable or malformed input fails a precondition."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise PreconditionError(f"cannot read input file {path}: {exc}") from exc


def _task_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}/task:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _write_output(lines: list[str], out: Optional[str], command: str, resolved: dict) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    manifest = [f"command = {command}"]
    for key, value in sorted(resolved.items()):
        if key == "config":
            continue
        manifest.append(f"{key} = {value}")
    manifest.append(f"version = {__version__}")
    Path(f"{out}.manifest").write_text("\n".join(manifest) + "\n")


# -- subcommands -----------------------------------------------------------------


def _cmd_enumerate(res: _Resolver) -> int:
    n = res.get("n", int, required=True)
    m = res.get("m", int)
    out = res.get("out", str)
    if n > EXACT_COUNT_LIMIT:
        raise ScaleError(f"exhaustive enumeration needs n <= {EXACT_COUNT_LIMIT}, got {n}")
    table = fnm_table(n)
    lines = ["# exact labeled counts of induced-C4-free graphs", "n,m,count"]
    targets = range(len(table)) if m is None else [m]
    for mm in targets:
        if not 0 <= mm < len(table):
            raise PreconditionError(f"m={mm} outside 0..C({n},2)")
        lines.append(f"{n},{mm},{table[mm]}")
    _write_output(lines, out, "enumerate", res.resolved)
    return 0


def _cmd_count_split(res: _Resolver) -> int:
    n = res.get("n", int, required=True)
    m = res.get("m", int, required=True)
    ell = res.get("ell", int)
    lam = res.get("lambda", float, DEFAULT_LAMBDA)
    out = res.get("out", str)
    if ell is not None:
        # str(int) refuses more than 4300 digits from Python 3.10.7 on; Decimal prints them all
        lines = [str(decimal.Decimal(n_nm(n, m, ell)))]
    else:
        lines = grid_csv_lines(split_grid(n, [m], lam))
    _write_output(lines, out, "count-split", res.resolved)
    return 0


def _cmd_sampler(res: _Resolver) -> int:
    n = res.get("n", int, required=True)
    m = res.get("m", int, required=True)
    delta = res.get("delta", float, 0.1)
    seed = res.get("seed", int, 0)
    runs = res.get("runs", int, 1)
    attempts = res.get("max-attempts", int, 1)
    out = res.get("out", str)
    lines = [
        "# edge-deletion sampler; each row is one independent seeded run",
        "run,seed,accepted,attempts,m_prime,surplus_removed,graph6",
    ]
    for i in range(runs):
        run_seed = _task_seed(seed, i) if runs > 1 else seed
        s = sample_c4free_by_deletion(n, m, delta, run_seed, max_attempts=attempts)
        g6 = s.graph.to_graph6() if s.graph is not None else "-"
        lines.append(
            f"{i},{run_seed},{int(s.accepted)},{s.attempts},{s.m_prime},"
            f"{s.surplus_removed},{g6}"
        )
    _write_output(lines, out, "sampler", res.resolved)
    return 0


def _cmd_phi(res: _Resolver) -> int:
    n = res.get("n", int, required=True)
    m = res.get("m", int, required=True)
    p = res.get("p", float, required=True)
    mode = res.get("mode", str, "exact" if res.get("exact", bool, False) else None)
    out = res.get("out", str)
    if mode is None:
        raise PreconditionError("phi needs --mode exact|lower_bound|upper_bound (or --exact)")
    value = phi_log(n, m, p, mode)
    consts = PHI_FITTED_CONSTANTS
    lines = [
        "# log_phi is the natural logarithm (ln) of |F_{n,m}(C4)| (p/(1-p))^m",
        f"# bound constants (fitted): c_lower={consts['c_lower']} "
        f"c_container={consts['c_container']} gamma={consts['gamma']} "
        f"deletion_regime={consts['deletion_regime']}",
        "n,m,p,mode,log_phi",
        f"{n},{m},{p},{mode},{value.value:.9g}",
    ]
    _write_output(lines, out, "phi", res.resolved)
    return 0


def _tree_params(res: _Resolver) -> TreeParams:
    return TreeParams(
        n=res.get("n", int, required=True),
        m=res.get("m", int, required=True),
        eps=res.get("eps", float, 0.01),
        delta=res.get("delta", float, 0.01),
        beta=res.get("beta", float, 0.01),
        lam=res.get("lambda", float, DEFAULT_LAMBDA),
    )


def _cmd_tree(res: _Resolver) -> int:
    params = _tree_params(res)
    force = res.get("force", bool, False)
    out = res.get("out", str)
    tree = build_tree(params, force=force)
    covered, total = verify_coverage(tree)
    lines = tree_lines(tree)
    lines.append(f"# covered={covered} total={total}")
    _write_output(lines, out, "tree", res.resolved)
    if out is not None:
        Path(f"{out}.summary.json").write_text(tree_json(tree) + "\n")
    print(f"covered={covered} total={total}")
    return 0 if covered == total else 1


def _cmd_containers(res: _Resolver) -> int:
    path = res.get("input", str, required=True)
    k = res.get("K", float, required=True)
    b = res.get("b", int, required=True)
    m = res.get("m", int, required=True)
    r = res.get("r", int, required=True)
    force = res.get("force", bool, False)
    out = res.get("out", str)
    h = _read_input(path, UniformHypergraph.from_text)
    if h.n_vertices > 20:
        raise ScaleError(f"exhaustive member scan needs v(H) <= 20, got {h.n_vertices}")
    lines = [
        "# containers for every member of F_{<=m}(H); sets are index lists joined by '+'",
        "assignment,s0,s1,cylinder",
    ]
    # one process checks the hypothesis; every member runs on a clone of it.
    # It is built at the first member, so an empty member set raises nothing.
    proc: Optional[ContainerProcess] = None
    for mask in range(1 << h.n_vertices):
        bits = [(mask >> i) & 1 for i in range(h.n_vertices)]
        a = Assignment.from_bits(bits)
        if a.ones_count > m or not a.in_solution_set(h):
            continue
        if proc is None:
            proc = ContainerProcess(h, k, b, m, r, force=force)
        result = _drive(proc.clone(), lambda v, c: bits[v] == c)
        fp = result.fingerprint
        lines.append(
            "{},{},{},{}".format(
                "".join(str(x) for x in bits),
                "+".join(str(v) for v in fp.s0),
                "+".join(str(v) for v in fp.s1),
                result.cylinder.to_string(),
            )
        )
    _write_output(lines, out, "containers", res.resolved)
    return 0


def _cmd_stability_probe(res: _Resolver) -> int:
    path = res.get("input", str)
    params = _tree_params(res)
    out = res.get("out", str)
    if path is not None:
        p = _read_input(path, Pregraph.from_text)
        if p.n != params.n:
            raise PreconditionError(f"pregraph has n={p.n}, flags say n={params.n}")
    else:
        p = complete_pregraph(params.n)
    cls = is_leaf_pregraph(p, params.m, params.eps, params.delta)
    report: dict = {
        "n": p.n,
        "e_M": p.e_m(),
        "e_E": p.e_e(),
        "params": {"m": params.m, "eps": params.eps, "delta": params.delta,
                   "beta": params.beta, "K": params.K, "b": params.b, "r": params.r},
        "leaf": {"is_leaf": cls.is_leaf, "kind": cls.kind, "ell": cls.ell},
    }
    if not cls.is_leaf:
        sel = _tree._choose_unchecked(p, params)  # choose_hypergraph would redo the leaf test
        entry: dict = {"status": sel.status}
        if sel.selected:
            h = sel.hypergraph
            hyp = check_container_hypothesis(h, params.K, params.b,
                                             min(params.m, h.n_vertices), params.r)
            deg = {pair: delta for pair, (delta, _, _) in hyp.entries.items()}
            entry.update(
                case=sel.case, ell=sel.ell, i=sel.i, e_H=h.e(), v_H=h.n_vertices,
                delta_01=deg[(0, 1)], delta_02=deg[(0, 2)],
                delta_10=deg[(1, 0)] if sel.i > 0 else None,
                insertions=sel.permissible.insertions,
            )
            entry["hypothesis_ok"] = hyp.all_passed
            entry["min_K"] = float(hyp.min_k)
        else:
            entry["reason"] = sel.reason
        report["selection"] = entry
    lines = [json.dumps(report, indent=2, sort_keys=True)]
    _write_output(lines, out, "stability-probe", res.resolved)
    return 0


# -- parser and dispatch -----------------------------------------------------------


_COMMANDS = {
    "containers": _cmd_containers,
    "tree": _cmd_tree,
    "count-split": _cmd_count_split,
    "enumerate": _cmd_enumerate,
    "sampler": _cmd_sampler,
    "phi": _cmd_phi,
    "stability-probe": _cmd_stability_probe,
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="c4containers",
        description="containers, counts, and trees for induced-C4-free graphs",
        epilog="`--config FILE` (flat key=value text, CLI flags win) may appear "
        "anywhere; with a `command =` entry the subcommand itself can be omitted, "
        "which makes every generated .manifest re-runnable as-is.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command")
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--n", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--lambda", type=float, dest="lambda_")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--exact", action="store_const", const=True, default=None)
        sp.add_argument("--force", action="store_const", const=True, default=None)
        if name == "count-split":
            sp.add_argument("--ell", type=int)
        if name == "phi":
            sp.add_argument("--p", type=float)
            sp.add_argument("--mode", choices=["exact", "lower_bound", "upper_bound"])
        if name == "sampler":
            sp.add_argument("--runs", type=int)
            sp.add_argument("--max-attempts", type=int)
        if name in ("containers", "stability-probe"):
            sp.add_argument("--input")
        if name == "containers":
            sp.add_argument("--K", type=float)
            sp.add_argument("--b", type=int)
            sp.add_argument("--r", type=int)
    return top


def _split_config(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    """Strip `--config FILE` (or --config=FILE) from argv and load it."""
    for i, arg in enumerate(argv):
        if arg == "--config":
            if i + 1 >= len(argv):
                raise PreconditionError("--config needs a file path")
            return argv[:i] + argv[i + 2 :], _parse_config(argv[i + 1])
        if arg.startswith("--config="):
            return argv[:i] + argv[i + 1 :], _parse_config(arg.split("=", 1)[1])
    return argv, {}


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv, cfg = _split_config(argv)
        if "command" in cfg and (not argv or argv[0].startswith("-")):
            argv.insert(0, cfg["command"])
        ns = parser.parse_args(argv)
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 2
        # --lambda lands in ns.lambda_; expose it under its config name
        if getattr(ns, "lambda_", None) is not None:
            setattr(ns, "lambda", ns.lambda_)
        res = _Resolver(ns, cfg)
        res.resolved["seed"] = res.get("seed", int, 0)
        return _COMMANDS[ns.command](res)
    except PreconditionError as exc:
        print(f"error (precondition): {exc}", file=sys.stderr)
        return 3
    except ScaleError as exc:
        print(f"error (scale): {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error (numeric): {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
