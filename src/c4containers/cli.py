"""Command line front end for the container machinery.

Subcommands:

  containers       fingerprints and cylinders for members of F_{<=m}(H)
  tree             container tree for F_{n,m}(C4) with a coverage report
  count-split      split-graph counts N_{n,m}(ell) and their location grid
  enumerate        exhaustive |F_{n,m}(C4)| counts as CSV
  sampler          seeded runs of the edge-deletion sampler
  phi              ln phi(m), exactly or via the fitted bounds
  stability-probe  leaf test and hypergraph selection diagnostics

Each subcommand declares only the flags its run reads, plus --seed and
--out; an undeclared flag is a usage error (exit 2).  Configuration is
resolved per flag as CLI value, then config-file value, then the built-in
default; config-file keys the subcommand does not read are ignored.  Config
files are flat ``key = value`` text, one pair per line, `#` comments allowed.
Every run that writes results via --out also writes ``<out>.manifest`` beside
them, a config file that reproduces the run:

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
import functools
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import tree as _tree
from .engine import ContainerProcess, _drive_members, normalize_parameters
from .errors import NumericError, PreconditionError, ScaleError
from .hypergraph import UniformHypergraph, check_container_hypothesis
from .oracle import EXACT_COUNT_LIMIT, count_Fnm_c4, fnm_table, sample_c4free_by_deletion
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
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8
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
    if m is not None and not 0 <= m <= n * (n - 1) // 2:
        raise PreconditionError(f"m={m} outside 0..C({n},2)")
    counts = enumerate(fnm_table(n)) if m is None else [(m, count_Fnm_c4(n, m))]
    lines = ["# exact labeled counts of induced-C4-free graphs", "n,m,count"]
    lines += [f"{n},{mm},{count}" for mm, count in counts]
    _write_output(lines, out, "enumerate", res.resolved)
    return 0


def _decimal_str(x: int) -> str:
    """str(x) for x >= 0 without its 4300-digit limit: x is rebuilt from its
    binary halves, low + high * 2^w, in exact decimal arithmetic, whose big
    products are subquadratic; decimal.Decimal(x) alone is quadratic."""
    two_to = functools.cache(lambda w: decimal.Decimal(2) ** w)

    def rebuild(y: int, w: int) -> decimal.Decimal:  # y < 2^w
        if w <= 256:
            return decimal.Decimal(y)
        half = w // 2
        return rebuild(y & ((1 << half) - 1), half) + rebuild(y >> half, w - half) * two_to(half)

    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    with decimal.localcontext(exact):
        return str(rebuild(x, x.bit_length()))


def _cmd_count_split(res: _Resolver) -> int:
    n = res.get("n", int, required=True)
    m = res.get("m", int, required=True)
    ell = res.get("ell", int)
    lam = res.get("lambda", float, DEFAULT_LAMBDA)
    out = res.get("out", str)
    if ell is not None:
        lines = [_decimal_str(n_nm(n, m, ell))]
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
    if runs < 1:
        raise PreconditionError(f"--runs must be at least 1, got {runs}")
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
    exact = res.get("exact", bool, False)
    mode = res.get("mode", str, "exact" if exact else None)
    out = res.get("out", str)
    if mode is None:
        raise PreconditionError("phi needs --mode exact|lower_bound|upper_bound (or --exact)")
    if exact and mode != "exact":
        raise PreconditionError(f"--exact contradicts --mode {mode}")
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
        Path(f"{out}.summary.json").write_text(tree_json(tree, (covered, total)) + "\n")
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
    if min(b, m, r) < 1 or not 0 < k < math.inf:
        raise PreconditionError(f"need b, m, r >= 1 and a finite K > 0, got b={b}, m={m}, r={r}, K={k}")
    h = _read_input(path, UniformHypergraph.from_text)
    v = h.n_vertices
    if v > 20:
        raise ScaleError(f"exhaustive member scan needs v(H) <= 20, got {v}")
    lines = [
        "# containers for every member of F_{<=m}(H); sets are index lists joined by '+'",
        "assignment,s0,s1,cylinder",
    ]
    # bit u of a mask is vertex u: keep the masks with at most m ones, then
    # drop each one that violates a constraint, h = 0 on A0 and h = 1 on A1
    masks = np.flatnonzero(np.bitwise_count(np.arange(1 << v, dtype=np.uint32)) <= m)
    for c, _ in h.constraints():
        a0, a1 = sum(1 << u for u in c.a0), sum(1 << u for u in c.a1)
        masks = masks[(masks & a0 != 0) | (masks & a1 != a1)]
    # one process checks the hypothesis and runs every member; an empty
    # member set builds none, so it raises nothing
    rows: list[tuple[int, str]] = []
    if len(masks):
        proc = ContainerProcess(h, k, b, m, r, force=force)
        for result, pool in _drive_members(proc, masks, range(v)):
            fp = result.fingerprint
            tail = "{},{},{}".format(
                "+".join(map(str, fp.s0)), "+".join(map(str, fp.s1)), result.cylinder.to_string()
            )
            rows.extend((x, tail) for x in pool.tolist())
    lines += [f"{format(x, f'0{v}b')[::-1]},{tail}" for x, tail in sorted(rows)]
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
            hyp = check_container_hypothesis(
                h, params.K, *normalize_parameters(params.b, params.m, h.n_vertices), params.r
            )
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


# each subcommand's handler and the flags it resolves; every run also resolves
# --seed and --out, so the parser gives those to every subcommand
_COMMANDS = {
    "containers": (_cmd_containers, ("input", "K", "b", "m", "r", "force")),
    "tree": (_cmd_tree, ("n", "m", "eps", "delta", "beta", "lambda", "force")),
    "count-split": (_cmd_count_split, ("n", "m", "ell", "lambda")),
    "enumerate": (_cmd_enumerate, ("n", "m")),
    "sampler": (_cmd_sampler, ("n", "m", "delta", "runs", "max-attempts")),
    "phi": (_cmd_phi, ("n", "m", "p", "mode", "exact")),
    "stability-probe": (_cmd_stability_probe, ("input", "n", "m", "eps", "delta", "beta", "lambda")),
}

_FLAG_SPECS = {
    **{f: {"type": int} for f in ("n", "m", "seed", "ell", "runs", "max-attempts", "b", "r")},
    **{f: {"type": float} for f in ("eps", "delta", "beta", "lambda", "p", "K")},
    **{f: {} for f in ("out", "input")},
    **{f: {"action": "store_const", "const": True} for f in ("exact", "force")},
    "mode": {"choices": ["exact", "lower_bound", "upper_bound"]},
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="c4containers",
        description="containers, counts, and trees for induced-C4-free graphs",
        epilog="`--config FILE` (flat key=value text, CLI flags win) may appear "
        "anywhere; with a `command =` entry the subcommand itself can be omitted, "
        "which makes every generated .manifest re-runnable as-is.",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command")
    for name, (_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in (*flags, "seed", "out"):
            sp.add_argument(f"--{flag}", **_FLAG_SPECS[flag])
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
        res = _Resolver(ns, cfg)
        res.resolved["seed"] = res.get("seed", int, 0)
        return _COMMANDS[ns.command][0](res)
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
