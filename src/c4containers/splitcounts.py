"""Counting split graphs with a given clique side, in log space.

A split graph on n labeled vertices whose clique side has ell vertices and
whose edge count is m is determined by choosing which k = m - C(ell,2) of
its a = ell*(n-ell) cross pairs are edges, so

    N_{n,m}(ell) = C(a, k),

and ell is feasible (N > 0) exactly when 0 <= k <= a.  The feasible ell
form one band lo..hi, found in integer arithmetic.  This module evaluates N
exactly and in natural-log space (ln j! from a math.lgamma table below 2048,
Stirling's series beyond, error under 3e-17 of ln j!), locates its maximizing
ell by a log-space scan of the band alone, computes the real fixed point

    ell_{n,m} = sqrt(m / ln(ell_{n,m} * n / m))

that pins down the maximum's location in the regime n << m <= lambda*n^2,
and evaluates the consecutive-ratio decomposition N(ell+1)/N(ell) =
a(ell) * b(ell) with exact rational falling factorials.  An exact N is a
big binomial C(a, k): small ones come from math.comb, large ones from a
product of prime powers (Legendre's formula), which needs no big-integer
division.  The bounds

    max_ell N(ell)  <=  |S_{n,m}|  <=  sum_ell C(n,ell) * N(ell)

sandwich the number of labeled split graphs with m edges, and multiplying
the upper bound by C(m, floor(eps*m)) * C(C(n,2), floor(eps*m)) bounds the
number of graphs within eps*m edge edits of that family.

All logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NumericError, PreconditionError

__all__ = [
    "LogCount",
    "log_sum",
    "DEFAULT_LAMBDA",
    "EXACT_LOG_LIMIT",
    "n_nm",
    "log_n_nm",
    "ell_nm",
    "argmax_n_nm",
    "ratio_a",
    "ratio_b",
    "snm_bounds",
    "close_to_split_log_bound",
    "GridRow",
    "split_grid",
    "log_spaced_m",
    "grid_csv_lines",
]

DEFAULT_LAMBDA = 1 / 64
EXACT_LOG_LIMIT = 400  # below this n, logs come from exact big integers


@dataclass(frozen=True)
class LogCount:
    """Natural log of a nonnegative count; -inf encodes zero."""

    value: float

    @property
    def is_zero(self) -> bool:
        return self.value == -math.inf

    def __float__(self) -> float:
        return self.value


def log_sum(counts: Iterable[LogCount]) -> LogCount:
    """Log of a sum of counts, via a max-shifted log-sum-exp."""
    values = [c.value for c in counts if c.value != -math.inf]
    if not values:
        return LogCount(-math.inf)
    top = max(values)
    return LogCount(top + math.log(sum(math.exp(v - top) for v in values)))


def _cross(n: int, m: int, ell):
    """(a, k) with N_{n,m}(ell) = C(a, k): the a = ell(n-ell) cross pairs and
    the k = m - C(ell,2) of them that are edges.  ell is an int or an int64
    array; ell is feasible exactly when 0 <= k <= a."""
    return ell * (n - ell), m - ell * (ell - 1) // 2


def _feasible_band(n: int, m: int) -> tuple[int, int]:
    """(lo, hi) such that the feasible clique sides are exactly lo..hi; the
    band is empty when lo > hi.

    hi is the largest ell <= n with C(ell,2) <= m, that is k >= 0.  lo is the
    least ell with k <= a, found by bisection: a - k = a + C(ell,2) - m grows
    by n - ell - 1 >= 0 from ell to ell + 1, so it is nondecreasing on 0..n.
    lo is n + 1 when even ell = n falls short."""
    if m < 0:
        return 1, 0
    hi = min(n, (1 + math.isqrt(1 + 8 * m)) // 2)
    lo, top = 0, n + 1
    while lo < top:
        mid = (lo + top) // 2
        a, k = _cross(n, m, mid)
        if k <= a:
            top = mid
        else:
            lo = mid + 1
    return lo, hi


# With j = min(k, a - k), math.comb(a, k) is faster while j < 1000 or
# j < 10 sqrt(a); beyond both, the prime-power product is (the timing sweep,
# run on CPython 3.11 only, is in CHANGES.md).  Its sieve holds a + 1
# bytes, which caps a.
_PRIME_PRODUCT_MIN_J = 1000
_PRIME_PRODUCT_SQRT_SLOPE = 10
_PRIME_PRODUCT_MAX_A = 1 << 25


def _binomial(a: int, k: int) -> int:
    """C(a, k) for 0 <= k <= a, by whichever exact route is faster."""
    j = min(k, a - k)
    if (
        j < _PRIME_PRODUCT_MIN_J
        or j * j < _PRIME_PRODUCT_SQRT_SLOPE**2 * a
        or a > _PRIME_PRODUCT_MAX_A
    ):
        return math.comb(a, k)
    return _prime_power_binomial(a, k)


def _primes_upto(a: int) -> np.ndarray:
    sieve = np.ones(a + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(a) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _prime_power_binomial(a: int, k: int) -> int:
    """C(a, k) as the product of p^e over the primes p <= a, where Legendre's
    formula gives e = sum_i (a // p^i - k // p^i - (a - k) // p^i); the
    factors are multiplied in a balanced tree, with no division."""
    primes = _primes_upto(a)
    exps = np.zeros(len(primes), dtype=np.int64)
    powers = primes.copy()
    live = np.arange(len(primes))  # the primes whose current power is <= a
    while len(live):
        q = powers[live]
        exps[live] += a // q - k // q - (a - k) // q
        powers[live] = q * primes[live]
        live = live[powers[live] <= a]
    keep = exps > 0
    factors = [p if e == 1 else p**e for p, e in zip(primes[keep].tolist(), exps[keep].tolist())]
    while len(factors) > 1:
        if len(factors) % 2:
            factors.append(1)
        factors = [x * y for x, y in zip(factors[::2], factors[1::2])]
    return factors[0] if factors else 1


def n_nm(n: int, m: int, ell: int) -> int:
    """Split graphs with clique side [ell], m edges total: the exact count
    C(a, k) of `_cross`, from `_binomial`."""
    if not 0 <= ell <= n:
        raise PreconditionError(f"clique side {ell} outside 0..{n}")
    a, k = _cross(n, m, ell)
    return _binomial(a, k) if 0 <= k <= a else 0


_STIRLING_CUTOFF = 2048  # below it, ln j! is read from a table of math.lgamma
_LOG_FACTORIALS = np.array([math.lgamma(j + 1) for j in range(_STIRLING_CUTOFF)])
# Entries per pass of ln j! and of the argmax scan: at n = 10^7 (a 1.6M-entry
# band) the argmax took 42-44 ms at a 1.2 MB tracemalloc peak in such blocks,
# against 85 ms at 79 MB in one.
_BLOCK = 1 << 14


def _log_factorial(j):
    """ln j! for integer-valued j >= 0, a float for a scalar j and else an
    array of j's shape: Stirling's series (A&S 6.1.41) to 1/(12 j) from the cutoff."""
    flat = np.array(j, dtype=np.float64, copy=None).reshape(-1)
    out = np.empty(flat.size)
    for s in range(0, flat.size, _BLOCK):
        x = np.maximum(flat[s : s + _BLOCK], _STIRLING_CUTOFF)
        block = np.log(x, out=out[s : s + _BLOCK])
        tmp = x + 0.5
        block *= tmp
        block -= x
        block += np.divide(1 / 12, x, out=tmp)
        block += 0.5 * math.log(2 * math.pi)  # (j + 1/2) ln j - j + ln(2 pi)/2 + 1/(12 j)
    small = flat < _STIRLING_CUTOFF
    out[small] = _LOG_FACTORIALS[flat[small].astype(np.intp)]
    return out.reshape(np.shape(j)) if np.ndim(j) else float(out[0])


def _log_comb(a, k):
    """ln C(a, k) for 0 <= k <= a, ints or arrays: a float or an array."""
    return _log_factorial(a) - _log_factorial(k) - _log_factorial(a - k)


def log_n_nm(n: int, m: int, ell: int) -> LogCount:
    """log N_{n,m}(ell); exact-integer route for small n, log-factorials beyond."""
    if not 0 <= ell <= n:
        raise PreconditionError(f"clique side {ell} outside 0..{n}")
    a, k = _cross(n, m, ell)
    if not 0 <= k <= a:
        return LogCount(-math.inf)
    return LogCount(_log_of_int(_binomial(a, k)) if n <= EXACT_LOG_LIMIT else _log_comb(a, k))


def _log_of_int(x: int) -> float:
    if x == 0:
        return -math.inf
    if x.bit_length() <= 1000:
        return math.log(x)
    shift = x.bit_length() - 500
    return math.log(x >> shift) + shift * math.log(2)


def _check_regime(n: int, m: int, lam: float) -> None:
    if not 0 < lam < math.inf:  # false for NaN
        raise PreconditionError(f"lambda must lie in (0,inf), got {lam}")
    if m <= n:
        raise PreconditionError(f"fixed-point regime needs m > n, got n={n}, m={m}")
    if m > lam * n * n:
        raise PreconditionError(
            f"fixed-point regime needs m <= lambda*n^2 = {lam * n * n:.6g}, got m={m}"
        )


def ell_nm(n: int, m: int, lam: float = DEFAULT_LAMBDA) -> float:
    """The real fixed point ell = sqrt(m / ln(ell*n/m)), by damped iteration.

    Starts from sqrt(m / ln(n^2/m)), averages each iterate with the map's
    value, stops when successive iterates agree to 1e-9 relative, and
    verifies |ell^2 * ln(ell*n/m) - m| <= 1e-6 * m on the result.
    """
    _check_regime(n, m, lam)
    ell = math.sqrt(m / math.log(n * n / m))
    for _ in range(10_000):
        if ell * n <= m:
            raise NumericError(f"iterate fell out of range: ell={ell}, m/n={m / n}")
        nxt = 0.5 * (ell + math.sqrt(m / math.log(ell * n / m)))
        if abs(nxt - ell) <= 1e-9 * ell:
            ell = nxt
            break
        ell = nxt
    else:
        raise NumericError(f"fixed-point iteration did not converge for n={n}, m={m}")
    residual = abs(ell * ell * math.log(ell * n / m) - m)
    if residual > 1e-6 * m:
        raise NumericError(
            f"fixed point failed verification: residual {residual:.3g} at n={n}, m={m}"
        )
    return ell


def _log_n_nm_band(n: int, m: int, lo: int, hi: int) -> np.ndarray:
    """log N_{n,m}(ell) by log-factorials for ell = lo..hi, all feasible.  ell
    and k are int64; n is passed as a float, so a = ell(n-ell) is a float,
    which rounds past 2^53 where int64 would wrap past 2^63.  While n^2 <
    2^53 each entry is the scalar `_log_comb(*_cross(n, m, ell))`."""
    return _log_comb(*_cross(float(n), m, np.arange(lo, hi + 1, dtype=np.int64)))


def argmax_n_nm(n: int, m: int, lam: float = DEFAULT_LAMBDA) -> int:
    """The ell maximizing N_{n,m} over its whole feasible range (smallest on
    ties), located by an exact log-space scan of the feasible band lo..hi
    (see `_feasible_band`) in blocks of `_BLOCK` entries; no float is
    computed outside the band, and the temporaries hold one block."""
    _check_regime(n, m, lam)
    lo, hi = _feasible_band(n, m)
    if lo > hi:
        raise PreconditionError(f"no feasible clique side for n={n}, m={m}")
    best, best_log = lo, -math.inf
    for start in range(lo, hi + 1, _BLOCK):
        logs = _log_n_nm_band(n, m, start, min(start + _BLOCK - 1, hi))
        i = int(np.argmax(logs))  # the block's first maximum; strict > keeps ties earlier
        if logs[i] > best_log:
            best, best_log = start + i, logs[i]
    return best


def ratio_a(n: int, m: int, ell: int) -> Fraction:
    """First factor of N(ell+1)/N(ell): the falling-factorial ratio
    (A)_k / (B)_k with A = (ell+1)(n-ell-1), B = ell(n-ell) and
    k = m - C(ell+1,2).

    It telescopes: for A >= B it is (A)_d / (A-k)_d with d = A - B, the
    products over B < i <= A and B-k < i <= A-k, and for A < B it is
    (B-k)_d / (B)_d with d = B - A.  Either way both sides have
    |A - B| = |n - 2ell - 1| factors, not k; feasibility of ell and ell+1
    gives k <= A and k <= B, so every factor is positive."""
    _require_consecutive(n, m, ell)
    (b, _), (a, k) = _cross(n, m, ell), _cross(n, m, ell + 1)
    if a >= b:
        return Fraction(math.perm(a, a - b), math.perm(a - k, a - b))
    return Fraction(math.perm(b - k, b - a), math.perm(b, b - a))


def ratio_b(n: int, m: int, ell: int) -> Fraction:
    """Second factor of N(ell+1)/N(ell):
    (m-C(ell,2))_ell / (ell(n-ell)-m+C(ell+1,2))_ell."""
    _require_consecutive(n, m, ell)
    (b, k0), (_, k1) = _cross(n, m, ell), _cross(n, m, ell + 1)
    num, den = math.perm(k0, ell), math.perm(b - k1, ell)
    if den == 0:
        raise PreconditionError(f"zero denominator in ratio_b at n={n}, m={m}, ell={ell}")
    return Fraction(num, den)


def _require_consecutive(n: int, m: int, ell: int) -> None:
    """Raise unless N(ell) and N(ell+1) are both nonzero, without computing
    them: N(side) = C(a, k) is nonzero exactly when 0 <= k <= a.  The checks
    run in the order n_nm would raise them."""
    for side in (ell, ell + 1):
        if not 0 <= side <= n:
            raise PreconditionError(f"clique side {side} outside 0..{n}")
        a, k = _cross(n, m, side)
        if not 0 <= k <= a:
            raise PreconditionError(
                f"ratios need N(ell) and N(ell+1) nonzero; n={n}, m={m}, ell={ell}"
            )


def snm_bounds(n: int, m: int) -> tuple[LogCount, LogCount]:
    """Lower and upper bounds on log |S_{n,m}| (labeled split graphs with m
    edges): the largest single term and the binomial-weighted sum."""
    if m < 0 or m > math.comb(n, 2):
        raise PreconditionError(f"edge count {m} infeasible for n={n}")
    lo, hi = _feasible_band(n, m)
    logs = np.full(n + 1, -np.inf)
    logs[lo : hi + 1] = _log_n_nm_band(n, m, lo, hi)
    lower = float(np.max(logs))
    if lower == -math.inf:
        return LogCount(-math.inf), LogCount(-math.inf)
    terms = logs + _log_comb(n, np.arange(n + 1, dtype=np.int64))
    top = float(np.max(terms))
    upper = top + math.log(float(np.sum(np.exp(terms - top))))
    return LogCount(lower), LogCount(upper)


def close_to_split_log_bound(n: int, m: int, eps: float) -> LogCount:
    """Upper bound on log of the number of n-vertex m-edge graphs reachable
    from a split graph by at most eps*m edge edits of each kind."""
    if not 0 < eps < 1:
        raise PreconditionError(f"eps must lie in (0, 1), got {eps}")
    _, upper = snm_bounds(n, m)
    t = int(eps * m)
    extra = _log_comb(m, t) + _log_comb(math.comb(n, 2), t)
    return LogCount(upper.value + extra)


# -- grid evaluation -------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    n: int
    m: int
    ell_nm: float
    ell_star: int
    logn_star: float
    logn_lower_tail: float
    logn_upper_tail: float


def split_grid(
    n: int, m_values: Iterable[int], lam: float = DEFAULT_LAMBDA
) -> list[GridRow]:
    rows = []
    for m in m_values:
        ell = ell_nm(n, m, lam)
        star = argmax_n_nm(n, m, lam)
        rows.append(
            GridRow(
                n,
                m,
                ell,
                star,
                log_n_nm(n, m, star).value,
                log_n_nm(n, m, max(round(ell / 2), 0)).value,
                log_n_nm(n, m, min(round(2 * ell), n)).value,
            )
        )
    return rows


def log_spaced_m(n: int, points: int, lam: float = DEFAULT_LAMBDA) -> list[int]:
    """points edge counts from ceil(n^1.2) to floor(lam*n^2), log-spaced."""
    lo = math.ceil(n**1.2)
    hi = math.floor(lam * n * n)
    if lo > hi:
        raise PreconditionError(f"empty m-range for n={n}")
    if points == 1:
        return [lo]
    vals = []
    for i in range(points):
        x = lo * (hi / lo) ** (i / (points - 1))
        vals.append(min(max(int(round(x)), lo), hi))
    return sorted(set(vals))


def grid_csv_lines(rows: Iterable[GridRow]) -> list[str]:
    out = [
        "# logN columns are natural logarithms (ln) of split-graph counts N_{n,m}(ell)",
        "n,m,ell_nm,ell_star,logN_star,logN_lower_tail,logN_upper_tail",
    ]
    for r in rows:
        out.append(
            f"{r.n},{r.m},{r.ell_nm:.9g},{r.ell_star},"
            f"{r.logn_star:.9g},{r.logn_lower_tail:.9g},{r.logn_upper_tail:.9g}"
        )
    return out
