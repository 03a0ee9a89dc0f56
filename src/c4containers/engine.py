"""Asymmetric container construction for uniform constraint hypergraphs.

Given a (k0, k1)-uniform hypergraph H whose degrees satisfy the condition
checked by ``check_container_hypothesis``, every assignment h in F(H) with at
most m ones is summarized by a small fingerprint (S0, S1) from which a
cylinder (a partial 0/1/* labelling of the ground set containing h) can be
rebuilt without further access to h.  The construction runs k0 + k1 rounds of
a question game: each round repeatedly picks the vertex of largest c-side
degree in the surviving constraint set, asks whether h equals c there, moves
the answers into a reduced hypergraph G*, and discards constraints that meet
a saturated (high-degree) vertex pair of G*.  YES vertices accumulate into
the fingerprint; when G* comes out smaller than a fixed fraction of e(H) the
round's NO vertices are frozen to 1-c and form the cylinder.

Degree caps for the saturation thresholds follow a two-parameter schedule:
the base row is the degree table of H itself and each earlier index pair
takes a max of a doubled finer entry and a (b/v or b/m)-scaled same-size
entry.  ``DeltaSchedule`` evaluates both that recursion and its closed form
in exact rational arithmetic.

The engine is driven either by an assignment (``build_container``), by a
previously produced fingerprint (``replay_container``, which realizes the
fingerprint-to-container function and makes determinism testable), or
step by step through ``ContainerProcess`` for callers that multiplex many
assignments over one shared execution prefix.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import HypothesisError, PreconditionError
from .hypergraph import (
    Assignment,
    Constraint,
    HypothesisReport,
    UniformHypergraph,
    check_container_hypothesis,
)

__all__ = [
    "normalize_parameters",
    "DeltaSchedule",
    "Cylinder",
    "Fingerprint",
    "ContainerResult",
    "ContainerProcess",
    "build_container",
    "replay_container",
    "container_delta",
    "fingerprint_family_bound",
    "MonotoneResult",
    "monotone_containers",
]

Key = tuple[tuple[int, ...], tuple[int, ...]]


def normalize_parameters(b: int, m: int, v: int) -> tuple[int, int]:
    """Clamp (b, m) so that b <= m <= v, preserving the container guarantees.

    Oversized m or b are cut to v (larger values never help on a ground set
    of v vertices), and m is raised to b when b lands above it.  The map is
    idempotent.
    """
    if min(b, m, v) < 1:
        raise ValueError("b, m, v must be positive")
    if m > v:
        m = v
    if b > v:
        b = v
    if b > m:
        m = b
    return b, m


def container_delta(k0: int, k1: int, k) -> Fraction:
    """The forcing constant delta = 2^(-(k0+k1)(k0+k1+1)) / K."""
    s = k0 + k1
    return Fraction(1, 2 ** (s * (s + 1))) / Fraction(k)


def fingerprint_family_bound(v: int, k0: int, k1: int, b: int) -> int:
    """Upper bound on the number of distinct fingerprints: C(v,<=k0*b)*C(v,<=k1*b)."""

    def at_most(limit: int) -> int:
        return sum(math.comb(v, i) for i in range(0, min(limit, v) + 1))

    return at_most(k0 * b) * at_most(k1 * b)


# -- degree-cap schedule -----------------------------------------------------


class DeltaSchedule:
    """Degree caps Delta^(i0,i1)_(l0,l1) in exact rationals.

    The admissible index pairs are U = {(1,0),...,(k0,0),(k0,1),...,(k0,k1)};
    the base pair (k0, k1) reads the degree table of H directly and the rest
    follow the max-of-two recursion.  ``delta`` uses the closed form

        max over 0<=dj<=kj-ij of
            2^(d0+d1) (b/v)^(k1-i1-d1) (b/m)^(k0-i0-d0) Delta_(l0+d0,l1+d1)(H)

    and ``delta_recursive`` evaluates the recursion literally; the two agree
    and tests compare them.
    """

    def __init__(self, k0: int, k1: int, b: int, m: int, v: int, base: dict[tuple[int, int], int | Fraction]):
        if (k0, k1) == (0, 0):
            raise ValueError("schedule needs a nondegenerate uniformity")
        if min(b, m, v) < 1:
            raise ValueError("b, m, v must be positive")
        self.k0, self.k1 = k0, k1
        self.b, self.m, self.v = b, m, v
        self.base: dict[tuple[int, int], Fraction] = {}
        for l0 in range(k0 + 1):
            for l1 in range(k1 + 1):
                if (l0, l1) == (0, 0):
                    continue
                if (l0, l1) not in base:
                    raise ValueError(f"base table is missing pair {(l0, l1)}")
                self.base[(l0, l1)] = Fraction(base[(l0, l1)])
        self._memo: dict[tuple[int, int, int, int], Fraction] = {}

    def index_set(self) -> list[tuple[int, int]]:
        u = [(i, 0) for i in range(1, self.k0 + 1)]
        u += [(self.k0, j) for j in range(1, self.k1 + 1)]
        return u

    def _check_args(self, i0: int, i1: int, l0: int, l1: int) -> None:
        if (i0, i1) not in self.index_set() and (i0, i1) != (self.k0, self.k1):
            raise ValueError(f"index pair {(i0, i1)} is not admissible")
        if not (0 <= l0 <= i0 and 0 <= l1 <= i1) or (l0, l1) == (0, 0):
            raise ValueError(f"size pair {(l0, l1)} out of range for index {(i0, i1)}")

    def delta(self, i0: int, i1: int, l0: int, l1: int) -> Fraction:
        self._check_args(i0, i1, l0, l1)
        bv = Fraction(self.b, self.v)
        bm = Fraction(self.b, self.m)
        best = Fraction(0)
        for d0 in range(self.k0 - i0 + 1):
            for d1 in range(self.k1 - i1 + 1):
                val = (
                    Fraction(2) ** (d0 + d1)
                    * bv ** (self.k1 - i1 - d1)
                    * bm ** (self.k0 - i0 - d0)
                    * self.base[(l0 + d0, l1 + d1)]
                )
                if val > best:
                    best = val
        return best

    def delta_recursive(self, i0: int, i1: int, l0: int, l1: int) -> Fraction:
        self._check_args(i0, i1, l0, l1)
        key = (i0, i1, l0, l1)
        if key in self._memo:
            return self._memo[key]
        if (i0, i1) == (self.k0, self.k1):
            val = self.base[(l0, l1)]
        elif i0 == self.k0 and i1 < self.k1:
            val = max(
                2 * self.delta_recursive(i0, i1 + 1, l0, l1 + 1),
                Fraction(self.b, self.v) * self.delta_recursive(i0, i1 + 1, l0, l1),
            )
        elif i1 == 0 and i0 < self.k0:
            val = max(
                2 * self.delta_recursive(i0 + 1, 0, l0 + 1, l1),
                Fraction(self.b, self.m) * self.delta_recursive(i0 + 1, 0, l0, l1),
            )
        else:  # pragma: no cover - excluded by _check_args
            raise ValueError(f"index pair {(i0, i1)} is not admissible")
        self._memo[key] = val
        return val

    def saturation_thresholds(self, i0: int, i1: int) -> dict[tuple[int, int], int]:
        """Integer thresholds t with deg >= t iff deg >= Delta^(i0,i1)/2.

        Degrees are integers, so the half-cap comparison collapses to a
        ceiling.  Index (0, 0) has no admissible size pairs and gets {}.
        """
        if (i0, i1) == (0, 0):
            return {}
        out: dict[tuple[int, int], int] = {}
        for l0 in range(i0 + 1):
            for l1 in range(i1 + 1):
                if (l0, l1) == (0, 0):
                    continue
                out[(l0, l1)] = math.ceil(self.delta(i0, i1, l0, l1) / 2)
        return out


def _as_assignment(h, n: int) -> Assignment:
    a = h if isinstance(h, Assignment) else Assignment.from_bits(h)
    if a.n != n:
        raise PreconditionError(f"assignment length {a.n} does not match ground set {n}")
    return a


# -- cylinders, fingerprints, full construction ------------------------------


@dataclass(frozen=True)
class Cylinder:
    """A partial 0/1 labelling of the ground set; None positions are free."""

    labels: tuple[Optional[int], ...]

    def to_string(self) -> str:
        return "".join("*" if x is None else str(x) for x in self.labels)

    @staticmethod
    def from_string(s: str) -> "Cylinder":
        table = {"0": 0, "1": 1, "*": None}
        try:
            return Cylinder(tuple(table[ch] for ch in s))
        except KeyError as exc:
            raise ValueError(f"bad cylinder character {exc.args[0]!r}") from exc

    def forced(self, value: int) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.labels) if x == value)

    def contains(self, h: Assignment | Sequence[int]) -> bool:
        bits = h.bits if isinstance(h, Assignment) else tuple(h)
        return all(x is None or x == bits[i] for i, x in enumerate(self.labels))


@dataclass(frozen=True)
class Fingerprint:
    s0: tuple[int, ...]
    s1: tuple[int, ...]

    @staticmethod
    def make(s0: Iterable[int], s1: Iterable[int]) -> "Fingerprint":
        return Fingerprint(tuple(sorted(set(s0))), tuple(sorted(set(s1))))


@dataclass(frozen=True)
class ContainerResult:
    fingerprint: Fingerprint
    cylinder: Cylinder
    report: HypothesisReport
    hypothesis_ok: bool
    b: int
    m: int
    r: int
    final_c: int
    n_rounds: int


class ContainerProcess:
    """Round-by-round container construction driven by an external oracle.

    Callers loop: while pending() gives (vertex, c), call answer(yes).  Once
    done, result() packages the fingerprint and cylinder.  clone() copies the
    whole execution state, which lets one prefix serve many assignments.

    Round s (counted from 0) runs on the constraints in ``active``, keyed by
    their sorted tuple pair, and asks about the c-side (c = 1 while the round's
    hypergraph has a nonempty 1-side).  ``cdeg`` and ``incidence`` hold each
    vertex's c-side degree and constraints, so the next question is a
    dictionary scan.  YES answers move constraints, with the asked vertex
    removed, into the counter ``gstar`` of uniformity ``k_star``; ``pair_deg``
    counts its sub-pair degrees against ``thresholds``, ``saturated`` collects
    the pairs that reached theirs, and active constraints containing a newly
    saturated pair are dropped.  ``yes`` and ``no`` list the vertices answered
    each way in this round; ``s0`` and ``s1`` accumulate the YES vertices of
    all rounds.  A round ends after b YES answers or when no constraint is
    left; G* then either yields the cylinder or opens the next round.
    """

    def __init__(
        self,
        h: UniformHypergraph,
        k,
        b: int,
        m: int,
        r: int,
        *,
        force: bool = False,
        check_invariants: bool = False,
    ):
        if h.is_empty():
            raise PreconditionError("container construction needs a non-empty hypergraph")
        if (h.k0, h.k1) == (0, 0):
            raise ValueError("degenerate uniformity")
        if r < 1:
            raise ValueError("r must be positive")
        self.h_k0, self.h_k1 = h.k0, h.k1
        self.n = h.n_vertices
        self.e_h = h.e()
        b2, m2 = normalize_parameters(b, m, h.n_vertices)
        self.report = check_container_hypothesis(h, k, b2, m2, r)
        self.hypothesis_ok = self.report.all_passed
        if not self.hypothesis_ok and not force:
            raise HypothesisError(
                f"degree condition fails at {self.report.failing_pairs()}; "
                f"minimal feasible K is {self.report.min_k}",
                min_k=self.report.min_k,
            )
        self.b, self.m, self.r = b2, m2, r
        # the hypothesis check already holds H's degree table: reuse it as the base row
        base = {pair: entry[0] for pair, entry in self.report.entries.items()}
        self.sched = DeltaSchedule(h.k0, h.k1, b2, m2, h.n_vertices, base)
        self.check_invariants = check_invariants
        self.s = 0
        self.s0: set[int] = set()
        self.s1: set[int] = set()
        self.done = False
        self.cylinder: Optional[Cylinder] = None
        self.final_c = -1
        self._open_round({c.key(): mult for c, mult in h.constraints()}, h.k0, h.k1)

    def _beta(self, s: int) -> Fraction:
        k0, k1 = self.h_k0, self.h_k1
        alpha = Fraction(1, 2 ** (s * (k0 + k1 + 1)))
        return (
            alpha
            * Fraction(self.b, self.n) ** min(k1, s)
            * Fraction(self.b, self.m) ** max(0, s - k1)
        )

    def _open_round(self, edges: dict[Key, int], i0: int, i1: int) -> None:
        """Start a round on the (i0, i1)-uniform constraints ``edges``."""
        self.c = c = 1 if i1 > 0 else 0
        self.k_star = (i0 - 1, i1) if c == 0 else (i0, i1 - 1)
        self.thresholds = self.sched.saturation_thresholds(*self.k_star)
        self.active = edges
        self.cdeg: Counter[int] = Counter()
        self.incidence: dict[int, set[Key]] = {}
        for key, mult in edges.items():
            for u in key[c]:
                self.cdeg[u] += mult
                self.incidence.setdefault(u, set()).add(key)
        self.gstar: Counter[Key] = Counter()
        self.pair_deg: Counter[Key] = Counter()
        self.saturated: set[Key] = set()
        self.yes: list[int] = []
        self.no: list[int] = []

    def pending(self) -> Optional[tuple[int, int]]:
        """The next (vertex, c) question, or None when the container is set.

        The vertex is the c-maximum one: largest c-side degree, smallest
        index on ties.
        """
        if self.done:
            return None
        best_v, best_d = -1, 0
        for v, d in self.cdeg.items():
            if d > best_d or (d == best_d and v < best_v):
                best_v, best_d = v, d
        return best_v, self.c

    def _remove_key(self, key: Key) -> int:
        mult = self.active.pop(key)
        for u in key[self.c]:
            self.cdeg[u] -= mult
            if self.cdeg[u] == 0:
                del self.cdeg[u]
            self.incidence[u].discard(key)
        return mult

    def _add_to_gstar(self, key: Key, mult: int) -> list[Key]:
        self.gstar[key] += mult
        fresh: list[Key] = []
        a0, a1 = key
        for (l0, l1), thr in self.thresholds.items():
            if l0 > len(a0) or l1 > len(a1):
                continue
            for s0 in itertools.combinations(a0, l0):
                for s1 in itertools.combinations(a1, l1):
                    pair = (s0, s1)
                    self.pair_deg[pair] += mult
                    if self.pair_deg[pair] >= thr and pair not in self.saturated:
                        self.saturated.add(pair)
                        fresh.append(pair)
        return fresh

    def answer(self, yes: bool) -> None:
        """Record the answer for the pending vertex and run the cleanup step."""
        q = self.pending()
        if q is None:
            raise RuntimeError("construction already finished")
        v, c = q
        fresh: list[Key] = []
        hit = list(self.incidence.get(v, ()))
        if yes:
            self.yes.append(v)
            for key in hit:
                mult = self._remove_key(key)
                a0, a1 = key
                if c == 0:
                    reduced = (tuple(x for x in a0 if x != v), a1)
                else:
                    reduced = (a0, tuple(x for x in a1 if x != v))
                fresh.extend(self._add_to_gstar(reduced, mult))
        else:
            self.no.append(v)
            for key in hit:
                self._remove_key(key)
        if fresh:
            doomed = [
                key
                for key in self.active
                if any(set(t0) <= set(key[0]) and set(t1) <= set(key[1]) for (t0, t1) in fresh)
            ]
            for key in doomed:
                self._remove_key(key)
        if len(self.yes) == self.b or not self.active:
            self._close_round()

    def _close_round(self) -> None:
        (self.s1 if self.c == 1 else self.s0).update(self.yes)
        if self.check_invariants:
            self._assert_degree_caps()
        if sum(self.gstar.values()) < self._beta(self.s + 1) * self.e_h:
            labels: list[Optional[int]] = [None] * self.n
            for v in self.no:
                labels[v] = 1 - self.c
            self.cylinder = Cylinder(tuple(labels))
            self.final_c = self.c
            self.done = True
            return
        if self.s + 1 >= self.h_k0 + self.h_k1:
            raise PreconditionError(
                "no round budget left with a non-empty reduced hypergraph; "
                "the driving assignment cannot lie in F(H)"
            )
        self.s += 1
        self._open_round(dict(self.gstar), *self.k_star)

    def _assert_degree_caps(self) -> None:
        i0, i1 = self.k_star
        g = UniformHypergraph(i0, i1, self.n, allow_degenerate=True)
        for (a0, a1), mult in self.gstar.items():
            g.add(Constraint(a0, a1), mult)
        for l0 in range(i0 + 1):
            for l1 in range(i1 + 1):
                if (l0, l1) == (0, 0):
                    continue
                cap = self.sched.delta(i0, i1, l0, l1)
                got = g.max_degree(l0, l1)
                if got > cap:
                    raise AssertionError(
                        f"degree cap violated after round {self.s}: "
                        f"Delta_({l0},{l1}) = {got} > {cap}"
                    )

    def clone(self) -> "ContainerProcess":
        """An independent copy; the report, schedule and thresholds stay shared."""
        other = copy.copy(self)
        other.s0, other.s1 = set(self.s0), set(self.s1)
        other.active = dict(self.active)
        other.cdeg = Counter(self.cdeg)
        other.incidence = {u: set(ks) for u, ks in self.incidence.items()}
        other.gstar = Counter(self.gstar)
        other.pair_deg = Counter(self.pair_deg)
        other.saturated = set(self.saturated)
        other.yes, other.no = list(self.yes), list(self.no)
        return other

    def fingerprint(self) -> Fingerprint:
        return Fingerprint.make(self.s0, self.s1)

    def result(self) -> ContainerResult:
        if not self.done or self.cylinder is None:
            raise RuntimeError("construction has not finished")
        return ContainerResult(
            fingerprint=self.fingerprint(),
            cylinder=self.cylinder,
            report=self.report,
            hypothesis_ok=self.hypothesis_ok,
            b=self.b,
            m=self.m,
            r=self.r,
            final_c=self.final_c,
            n_rounds=self.s + 1,
        )


def _drive(proc: ContainerProcess, oracle: Callable[[int, int], bool]) -> ContainerResult:
    while (q := proc.pending()) is not None:
        proc.answer(oracle(*q))
    return proc.result()


def build_container(
    h: UniformHypergraph,
    k,
    b: int,
    m: int,
    r: int,
    assignment,
    *,
    force: bool = False,
    check_invariants: bool = False,
) -> ContainerResult:
    """Fingerprint and cylinder for one assignment with at most m ones.

    Raises PreconditionError when the assignment has more than m ones or
    violates a constraint, and HypothesisError (carrying the minimal feasible
    K) when the degree condition fails and force is not set.
    """
    a = _as_assignment(assignment, h.n_vertices)
    if a.ones_count > m:
        raise PreconditionError(f"assignment has {a.ones_count} ones, above the budget m={m}")
    if not a.in_solution_set(h):
        raise PreconditionError("assignment violates a constraint of H")
    proc = ContainerProcess(h, k, b, m, r, force=force, check_invariants=check_invariants)
    return _drive(proc, lambda v, c: a.bits[v] == c)


def replay_container(
    h: UniformHypergraph,
    k,
    b: int,
    m: int,
    r: int,
    fingerprint: Fingerprint,
    *,
    force: bool = False,
) -> ContainerResult:
    """Rebuild the container from a fingerprint alone (the function f).

    Questions are answered YES exactly when the vertex sits in the
    fingerprint side matching the round's value, which reproduces the
    recorded execution for any fingerprint this engine produced.
    """
    s0, s1 = set(fingerprint.s0), set(fingerprint.s1)
    proc = ContainerProcess(h, k, b, m, r, force=force)
    return _drive(proc, lambda v, c: v in (s1 if c == 1 else s0))


# -- monotone wrapper --------------------------------------------------------


@dataclass(frozen=True)
class MonotoneResult:
    kernel: tuple[int, ...]
    container: tuple[int, ...]
    delta: Fraction
    inner: ContainerResult


def monotone_containers(
    n: int,
    k: int,
    edges: Iterable[Iterable[int]],
    b: int,
    r: int,
    independent_set: Iterable[int],
    *,
    force: bool = False,
) -> MonotoneResult:
    """Containers for independent sets of a k-uniform hypergraph.

    Lifts the edge set to (0, k) constraints (an independent set is exactly
    an assignment violating no lifted constraint), runs the asymmetric engine
    with m = v(H) and K = v(H)/r, and reads off kernel = S1 and container =
    everything not forced to 0.  Guarantees: kernel within the input set,
    input set within the container, and the container misses at least
    2^(-k(k+1)) * r vertices.
    """
    lift = UniformHypergraph(0, k, n)
    for e in edges:
        lift.add(Constraint.make((), e))
    if lift.is_empty():
        raise PreconditionError("monotone containers need at least one edge")
    i_set = frozenset(independent_set)
    h = Assignment.from_ones(n, i_set)
    res = build_container(lift, Fraction(n, r), b, n, r, h, force=force)
    kernel = res.fingerprint.s1
    forced_zero = set(res.cylinder.forced(0))
    container = tuple(v for v in range(n) if v not in forced_zero)
    return MonotoneResult(
        kernel=kernel,
        container=container,
        delta=Fraction(1, 2 ** (k * (k + 1))),
        inner=res,
    )
