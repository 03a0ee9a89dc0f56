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
entry.  ``DeltaSchedule`` evaluates the closed form as a max of integer
numerators over one common denominator; a threshold is the ceiling of that
ratio halved, cached per round by ``_round_thresholds``.  The literal
recursion is the test reference ``delta_by_recursion`` in ``tests/naive.py``.

The engine is driven either by an assignment (``build_container``), by a
previously produced fingerprint (``replay_container``, which realizes the
fingerprint-to-container function and makes determinism testable), or by a
pool of member bitmasks (``_drive_members``, the multiplexed driver that the
container tree and the ``containers`` command share): members that give the
same answers share one execution prefix, so one run serves them all.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import hypergraph
from .errors import HypothesisError, PreconditionError
from .hypergraph import (
    Assignment,
    Constraint,
    Key,
    RoundIndex,
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
    """The forcing constant delta = 2^(-(k0+k1)(k0+k1+1)) / K, for a K that
    ``check_container_hypothesis`` accepts (positive and finite)."""
    if not 0 < k < math.inf:  # false for NaN
        raise ValueError("K must be positive and finite")
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
    the base pair (k0, k1) reads the base row (the degree table of H, ints,
    though Fractions are accepted) directly and the rest follow the
    max-of-two recursion.  With e0 = k0 - i0 and e1 = k1 - i1, ``delta`` uses
    the closed form

        max over 0<=dj<=ej of
            2^(d0+d1) (b/v)^(e1-d1) (b/m)^(e0-d0) Delta_(l0+d0,l1+d1)(H)

    taken as the max of the numerators 2^(d0+d1) b^(e0-d0+e1-d1) m^d0 v^d1
    Delta_(l0+d0,l1+d1)(H) over the common denominator m^e0 v^e1 (``_ratio``).
    ``delta`` builds one ``Fraction`` from them, and ``saturation_thresholds``
    halves them and rounds up in integers.
    """

    def __init__(self, k0: int, k1: int, b: int, m: int, v: int, base: dict[tuple[int, int], int | Fraction]):
        if (k0, k1) == (0, 0):
            raise ValueError("schedule needs a nondegenerate uniformity")
        if min(b, m, v) < 1:
            raise ValueError("b, m, v must be positive")
        self.k0, self.k1 = k0, k1
        self.b, self.m, self.v = b, m, v
        pairs = [(l0, l1) for l0 in range(k0 + 1) for l1 in range(k1 + 1) if (l0, l1) != (0, 0)]
        if missing := [pair for pair in pairs if pair not in base]:
            raise ValueError(f"base table is missing pair {missing[0]}")
        self.base: dict[tuple[int, int], int | Fraction] = {pair: base[pair] for pair in pairs}

    def index_set(self) -> list[tuple[int, int]]:
        u = [(i, 0) for i in range(1, self.k0 + 1)]
        u += [(self.k0, j) for j in range(1, self.k1 + 1)]
        return u

    def _check_args(self, i0: int, i1: int, l0: int, l1: int) -> None:
        if (i0, i1) not in self.index_set() and (i0, i1) != (self.k0, self.k1):
            raise ValueError(f"index pair {(i0, i1)} is not admissible")
        if not (0 <= l0 <= i0 and 0 <= l1 <= i1) or (l0, l1) == (0, 0):
            raise ValueError(f"size pair {(l0, l1)} out of range for index {(i0, i1)}")

    def _ratio(self, i0: int, i1: int, l0: int, l1: int) -> tuple[int | Fraction, int]:
        """(top, den) with Delta^(i0,i1)_(l0,l1) = top / den: the closed form's
        max numerator over its common denominator m^e0 v^e1."""
        self._check_args(i0, i1, l0, l1)
        b, m, v = self.b, self.m, self.v
        e0, e1 = self.k0 - i0, self.k1 - i1
        top = max(
            2 ** (d0 + d1) * b ** (e0 - d0 + e1 - d1) * m**d0 * v**d1 * self.base[(l0 + d0, l1 + d1)]
            for d0 in range(e0 + 1)
            for d1 in range(e1 + 1)
        )
        return top, m**e0 * v**e1

    def delta(self, i0: int, i1: int, l0: int, l1: int) -> Fraction:
        return Fraction(*self._ratio(i0, i1, l0, l1))

    def saturation_thresholds(self, i0: int, i1: int) -> dict[tuple[int, int], int]:
        """Integer thresholds t with deg >= t iff deg >= Delta^(i0,i1)/2.

        Degrees are integers, so the half-cap comparison collapses to the
        ceiling of top / (2 den) for the cap's ``_ratio`` (top, den), taken in
        integers.  Index (0, 0) has no admissible size pairs and gets {}.
        A new dict each call; rounds read theirs from ``_round_thresholds``.
        """
        return {
            (l0, l1): -(-top // (2 * den))
            for l0 in range(i0 + 1)
            for l1 in range(i1 + 1)
            if (l0, l1) != (0, 0)
            for top, den in [self._ratio(i0, i1, l0, l1)]
        }


@functools.lru_cache(maxsize=4096)
def _round_thresholds(k0: int, k1: int, b: int, m: int, v: int, base: tuple, i0: int, i1: int) -> MappingProxyType:
    """A round's read-only saturation thresholds, cached by value: those of
    index (i0, i1) of the schedule whose base row has the items ``base``, on
    the classes (l0, l1) that (l0 - 1, l1) and (l0, l1 - 1) do not dominate
    with a threshold no larger.  A dominated pair saturates no earlier than
    its sub-pair there, which lies in every constraint the pair lies in, so
    dropping those classes dooms the same constraints at the same answers."""
    full = DeltaSchedule(k0, k1, b, m, v, dict(base)).saturation_thresholds(i0, i1)
    return MappingProxyType({
        (l0, l1): t for (l0, l1), t in full.items()
        if full.get((l0 - 1, l1), t + 1) > t and full.get((l0, l1 - 1), t + 1) > t
    })


# -- cylinders, fingerprints, full construction ------------------------------


@dataclass(frozen=True)
class Cylinder:
    """A partial 0/1 labelling of the ground set; None positions are free."""

    labels: tuple[Optional[int], ...]

    def to_string(self) -> str:
        return "".join("*" if x is None else str(x) for x in self.labels)

    def forced(self, value: int) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.labels) if x == value)

    def contains(self, h: Assignment | Sequence[int]) -> bool:
        bits = h.bits if isinstance(h, Assignment) else tuple(h)
        if len(bits) != len(self.labels):
            raise ValueError(f"assignment length {len(bits)} does not match cylinder length {len(self.labels)}")
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
    hypothesis_ok: bool
    b: int
    m: int
    r: int
    n_rounds: int


def _below_beta(e: int, e_h: int, k0: int, k1: int, b: int, m: int, v: int, s: int) -> bool:
    """e < beta_s e(H) with beta_s = 2^(-s(k0+k1+1)) (b/v)^min(k1,s) (b/m)^max(0,s-k1),
    compared in integers: e 2^(s(k0+k1+1)) v^min(k1,s) m^max(0,s-k1) < b^s e(H)."""
    return e * 2 ** (s * (k0 + k1 + 1)) * v ** min(k1, s) * m ** max(0, s - k1) < b**s * e_h


def _bit_indices(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, ascending."""
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class ContainerProcess:
    """Round-by-round container construction driven by an external oracle.

    Callers loop: while pending() gives (vertex, c), call answer(yes).  Once
    done, result() packages the fingerprint and cylinder.  clone() copies the
    whole execution state, which lets one prefix serve many assignments.

    Round s (counted from 0) numbers its constraints 0..E-1 in a round index
    (``hypergraph._index_round``) and asks about the c-side (c = 1 while the
    round's hypergraph has a nonempty 1-side).  ``live`` is the only record
    of which constraints are live, one bit each.  The index is never
    changed, so clones share it, and round 0's is H's own ``round_index``.
    A vertex's live c-side degree is a weighted popcount of its incidence
    mask and ``live``.  Degrees only fall within a round, so a vertex at
    degree 0 leaves ``_askable``, the vertices and masks that pending()
    scans.  ``active``, ``cdeg`` and ``saturated`` are read-only views,
    built on access.  YES answers move the asked vertex's live constraints,
    with the vertex removed, into the counter ``gstar`` of uniformity
    ``k_star``.  ``pair_deg`` counts the degrees of their sub-pairs in the
    undominated size classes, the keys of ``thresholds`` (read-only, shared
    through ``_round_thresholds``).  Degrees only grow, so a pair is newly
    saturated when an add carries its degree d across its threshold t
    (d < t <= d + mult), and the live constraints holding it (the AND of
    its vertices' incidence masks) are dropped.  ``yes`` and ``no`` list
    the vertices answered each way in this round; ``s0`` and ``s1``
    accumulate the YES vertices of all rounds.  A round ends after b YES
    answers or when no constraint is left; G* then either yields the
    cylinder or opens the next round.
    """

    def __init__(self, h: UniformHypergraph, k, b: int, m: int, r: int, *, force: bool = False):
        if h.is_empty():
            raise PreconditionError("container construction needs a non-empty hypergraph")
        if r < 1:
            raise ValueError("r must be positive")
        self.n = h.n_vertices
        self.e_h = h.e()
        b2, m2 = normalize_parameters(b, m, h.n_vertices)
        report = check_container_hypothesis(h, k, b2, m2, r)
        self.hypothesis_ok = report.all_passed
        if not self.hypothesis_ok and not force:
            raise HypothesisError(
                f"degree condition fails at {report.failing_pairs()}; "
                f"minimal feasible K is {report.min_k}",
                min_k=report.min_k,
            )
        self.b, self.m, self.r = b2, m2, r
        self.sched = DeltaSchedule(h.k0, h.k1, b2, m2, h.n_vertices, h.degree_table())
        self.s = 0
        self.s0: set[int] = set()
        self.s1: set[int] = set()
        self.done = False
        self.cylinder: Optional[Cylinder] = None
        self._question: Optional[tuple[int, int]] = None
        self._open_round(h.round_index(), h.k0, h.k1)

    def _open_round(self, index: RoundIndex, i0: int, i1: int) -> None:
        """Start a round with every constraint of ``index`` live."""
        self.c, self.keys, self.mults, self.classes, self.incidence = index
        self.live = (1 << len(self.keys)) - 1
        self._askable = (range(self.n), self.incidence[self.c])
        self.k_star = (i0 - 1, i1) if self.c == 0 else (i0, i1 - 1)
        sc = self.sched
        self.thresholds = _round_thresholds(sc.k0, sc.k1, sc.b, sc.m, sc.v, tuple(sc.base.items()), *self.k_star)
        self.gstar: Counter[Key] = Counter()
        self.pair_deg: Counter[Key] = Counter()
        self.yes: list[int] = []
        self.no: list[int] = []

    @property
    def saturated(self) -> set[Key]:
        """The pairs at or above their class's threshold: exactly those an add carried
        across it, as every Delta of a non-empty H, so every threshold, is at least 1."""
        return {pair for pair, d in self.pair_deg.items() if d >= self.thresholds[len(pair[0]), len(pair[1])]}

    @property
    def active(self) -> dict[Key, int]:
        """The live constraints and their multiplicities, in index order."""
        return {self.keys[i]: self.mults[i] for i in _bit_indices(self.live)}

    @property
    def cdeg(self) -> Counter[int]:
        """The live c-side degree of every vertex that has one."""
        return Counter({v: d for v, d in zip(self._askable[0], self._degrees()) if d})

    def _degrees(self) -> list[int]:
        """The live c-side degree of each vertex in ``_askable``, in its order."""
        incidence = self._askable[1]
        deg: list[int] = []
        for weight, members in self.classes:
            live = self.live & members
            part = [weight * (inc & live).bit_count() for inc in incidence]
            deg = list(map(operator.add, deg, part)) if deg else part
        return deg

    def pending(self) -> Optional[tuple[int, int]]:
        """The next (vertex, c) question, or None when the container is set.

        The vertex is the c-maximum one: largest c-side degree, smallest
        index on ties.  It is kept until answered, so asking again is free.
        """
        if self.done:
            return None
        if self._question is None:
            deg = self._degrees()
            vertices, incidence = self._askable
            self._question = (vertices[deg.index(max(deg))], self.c)
            if 0 in deg:
                self._askable = (tuple(itertools.compress(vertices, deg)), tuple(itertools.compress(incidence, deg)))
        return self._question

    def _add_to_gstar(self, key: Key, mult: int) -> list[Key]:
        self.gstar[key] = self.gstar.get(key, 0) + mult
        pair_deg, get = self.pair_deg, self.pair_deg.get
        fresh: list[Key] = []
        a0, a1 = key
        for (l0, l1), thr in self.thresholds.items():
            for s0 in itertools.combinations(a0, l0):
                for s1 in itertools.combinations(a1, l1):
                    pair = (s0, s1)
                    d = get(pair, 0)
                    pair_deg[pair] = d + mult
                    if d < thr <= d + mult:
                        fresh.append(pair)
        return fresh

    def _doomed(self, fresh: list[Key]) -> int:
        """The mask of the live constraints that contain a pair of ``fresh``:
        the OR over the pairs of the AND of their vertices' incidence masks."""
        inc0, inc1 = self.incidence
        doomed = 0
        for t0, t1 in fresh:
            common = self.live
            for u in t0:
                common &= inc0[u]
            for u in t1:
                common &= inc1[u]
            doomed |= common
        return doomed

    def answer(self, yes: bool) -> None:
        """Record the answer for the pending vertex and run the cleanup step."""
        q = self.pending()
        if q is None:
            raise RuntimeError("construction already finished")
        v, c = q
        self._question = None
        hit = self.incidence[c][v] & self.live
        self.live ^= hit
        if yes:
            self.yes.append(v)
            fresh: list[Key] = []
            for i in _bit_indices(hit):
                a0, a1 = self.keys[i]
                j = (a0, a1)[c].index(v)
                reduced = (a0, a1[:j] + a1[j + 1 :]) if c else (a0[:j] + a0[j + 1 :], a1)
                fresh += self._add_to_gstar(reduced, self.mults[i])
            if fresh:
                self.live ^= self._doomed(fresh)
        else:
            self.no.append(v)
        if len(self.yes) == self.b or not self.live:
            self._close_round()

    def _close_round(self) -> None:
        (self.s1 if self.c == 1 else self.s0).update(self.yes)
        e, k0, k1 = sum(self.gstar.values()), self.sched.k0, self.sched.k1
        if _below_beta(e, self.e_h, k0, k1, self.b, self.m, self.n, self.s + 1):
            labels: list[Optional[int]] = [None] * self.n
            for v in self.no:
                labels[v] = 1 - self.c
            self.cylinder = Cylinder(tuple(labels))
            self.done = True
            return
        if self.s + 1 >= k0 + k1:
            raise PreconditionError(
                "no round budget left with a non-empty reduced hypergraph; "
                "the driving assignment cannot lie in F(H)"
            )
        self.s += 1
        self._open_round(hypergraph._index_round(self.gstar, self.k_star[1], self.n), *self.k_star)

    def clone(self) -> "ContainerProcess":
        """An independent copy.  The schedule, the read-only thresholds and
        the round index stay shared; ``live`` is an int."""
        other = copy.copy(self)
        other.s0, other.s1 = set(self.s0), set(self.s1)
        other.gstar = Counter(self.gstar)
        other.pair_deg = Counter(self.pair_deg)
        other.yes, other.no = list(self.yes), list(self.no)
        return other

    def result(self) -> ContainerResult:
        if not self.done or self.cylinder is None:
            raise RuntimeError("construction has not finished")
        return ContainerResult(
            fingerprint=Fingerprint.make(self.s0, self.s1),
            cylinder=self.cylinder,
            hypothesis_ok=self.hypothesis_ok,
            b=self.b,
            m=self.m,
            r=self.r,
            n_rounds=self.s + 1,
        )


def _drive(proc: ContainerProcess, oracle: Callable[[int, int], bool]) -> ContainerResult:
    while (q := proc.pending()) is not None:
        proc.answer(oracle(*q))
    return proc.result()


def _drive_members(
    proc: ContainerProcess, pool: np.ndarray, bits: Sequence[int]
) -> list[tuple[ContainerResult, np.ndarray]]:
    """Run the construction for every member mask of ``pool`` at once.

    A member answers the question (v, c) YES when its bit ``bits[v]`` equals
    c.  Members that agree on every answer so far share one engine state, and
    each pending question splits the pool; ``proc`` itself carries one of the
    branches.  Returns one (result, members) pair per leaf of the execution.
    """
    out: list[tuple[ContainerResult, np.ndarray]] = []
    stack: list[tuple[ContainerProcess, np.ndarray]] = [(proc, pool)]
    while stack:
        cur, mem = stack.pop()
        q = cur.pending()
        if q is None:
            out.append((cur.result(), mem))
            continue
        v, c = q
        yes = ((mem >> int(bits[v])) & 1) == c
        n_yes = int(np.count_nonzero(yes))
        # most questions split nothing: every member answers the same way
        if n_yes < len(mem):
            branch = cur.clone() if n_yes else cur
            branch.answer(False)
            stack.append((branch, mem[~yes] if n_yes else mem))
        if n_yes:
            cur.answer(True)
            stack.append((cur, mem[yes] if n_yes < len(mem) else mem))
    return out


def build_container(
    h: UniformHypergraph, k, b: int, m: int, r: int, assignment, *, force: bool = False
) -> ContainerResult:
    """Fingerprint and cylinder for one assignment with at most m ones.

    Raises PreconditionError when the assignment has more than m ones, when
    H is empty or when the assignment is not in F(H) (``in_solution_set``),
    and HypothesisError (carrying the minimal feasible K) when the
    degree condition fails and force is not set; in that order.
    """
    a = assignment if isinstance(assignment, Assignment) else Assignment.from_bits(assignment)
    if a.n != h.n_vertices:
        raise PreconditionError(f"assignment length {a.n} does not match ground set {h.n_vertices}")
    if a.ones_count > m:
        raise PreconditionError(f"assignment has {a.ones_count} ones, above the budget m={m}")
    if not a.in_solution_set(h):
        raise PreconditionError("assignment violates a constraint of H")
    proc = ContainerProcess(h, k, b, m, r, force=force)
    return _drive(proc, lambda v, c: a.bits[v] == c)


def replay_container(
    h: UniformHypergraph, k, b: int, m: int, r: int, fingerprint: Fingerprint, *, force: bool = False
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
    n: int, k: int, edges: Iterable[Iterable[int]], b: int, r: int, independent_set: Iterable[int], *,
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
    if r < 1:
        raise ValueError("r must be positive")
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
