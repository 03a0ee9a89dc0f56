"""Split-graph counting: the exact per-clique-side counts, the consecutive
ratio identity, the fixed-point scale, and the grid evaluation used to
study where the counts concentrate."""

import itertools
import math
import random
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive
from c4containers import splitcounts
from c4containers import (
    LabeledGraph,
    LogCount,
    NumericError,
    PreconditionError,
    argmax_n_nm,
    close_to_split_log_bound,
    ell_nm,
    grid_csv_lines,
    is_split,
    log_n_nm,
    log_spaced_m,
    log_sum,
    n_nm,
    ratio_a,
    ratio_b,
    snm_bounds,
    split_grid,
)
from c4containers.splitcounts import (
    EXACT_LOG_LIMIT,
    _binomial,
    _cross,
    _feasible_band,
    _log_comb,
    _prime_power_binomial,
)


def brute_count_clique_side(n, m, ell):
    """Graphs on [n] with m edges where 0..ell-1 is complete and the rest
    is empty inside, counted by full mask scan."""
    npairs = n * (n - 1) // 2
    count = 0
    for mask in range(1 << npairs):
        g = LabeledGraph(n, mask)
        if g.m != m:
            continue
        if not all(g.has_edge(u, v) for u, v in itertools.combinations(range(ell), 2)):
            continue
        if any(g.has_edge(u, v) for u, v in itertools.combinations(range(ell, n), 2)):
            continue
        count += 1
    return count


def test_n_nm_matches_brute_force():
    for n in (4, 5):
        for ell in range(n + 1):
            for m in range(n * (n - 1) // 2 + 1):
                assert n_nm(n, m, ell) == brute_count_clique_side(n, m, ell)


def test_n_nm_rejects_bad_clique_side():
    with pytest.raises(PreconditionError):
        n_nm(5, 3, 6)
    assert n_nm(5, -1, 2) == 0
    assert n_nm(5, 11, 5) == 0  # above the feasible window


def test_log_n_nm_consistent_with_exact():
    # (400, 2500, 39) counts past 2^1000, whose log is taken in two parts
    for n, m, ell in [(6, 7, 3), (9, 20, 5), (12, 30, 6), (400, 2500, 39)]:
        exact = n_nm(n, m, ell)
        got = log_n_nm(n, m, ell)
        if exact == 0:
            assert got.is_zero
        else:
            assert got.value == pytest.approx(math.log(exact), rel=1e-12)


def test_log_n_nm_gamma_route_agrees_with_integers():
    # n above the exact-integer cutoff, spot-checked against big integers
    n, m = 500, 4000
    for ell in (40, 60, 90):
        expected = math.log(n_nm(n, m, ell)) if n_nm(n, m, ell) else -math.inf
        got = log_n_nm(n, m, ell).value
        assert got == pytest.approx(expected, rel=1e-9)


def test_log_count_sum():
    assert log_sum([]).is_zero
    assert log_sum([LogCount(-math.inf)]).is_zero
    two = log_sum([LogCount(math.log(3)), LogCount(math.log(5))])
    assert two.value == pytest.approx(math.log(8), rel=1e-12)
    assert float(LogCount(1.5)) == 1.5


def test_ell_nm_solves_the_fixed_point():
    for n, m in [(10**4, 10**5), (10**5, 3 * 10**6), (10**6, 10**8)]:
        ell = ell_nm(n, m)
        assert ell * ell * math.log(ell * n / m) == pytest.approx(m, rel=1e-6)


def test_ell_nm_regime_errors():
    with pytest.raises(PreconditionError):
        ell_nm(100, 50)  # m <= n
    with pytest.raises(PreconditionError):
        ell_nm(100, 9000)  # m > n^2/64


def test_argmax_matches_exact_scan():
    n = 150
    rng = random.Random(1)
    for _ in range(6):
        m = rng.randint(n + 1, n * n // 64)
        star = argmax_n_nm(n, m)
        counts = [n_nm(n, m, ell) for ell in range(n + 1)]
        assert counts[star] == max(counts)
        assert star == counts.index(max(counts))  # smallest maximizer


def test_ratio_identity_exact():
    rng = random.Random(2)
    for n in (20, 60, 120):
        for _ in range(8):
            m = rng.randint(1, n * n // 8)
            for ell in range(n):
                lo, hi = n_nm(n, m, ell), n_nm(n, m, ell + 1)
                if lo == 0 or hi == 0:
                    continue
                assert Fraction(hi, lo) == ratio_a(n, m, ell) * ratio_b(n, m, ell)


def test_ratio_requires_consecutive_feasibility():
    with pytest.raises(PreconditionError):
        ratio_a(10, 1, 3)  # N(4) = 0 at a single edge
    with pytest.raises(PreconditionError):
        ratio_b(10, 45, 0)
    for m in (44, 45):  # ell = n: N(n + 1) is outside the range at every m
        with pytest.raises(PreconditionError):
            ratio_a(10, m, 10)
        with pytest.raises(PreconditionError):
            ratio_b(10, m, 10)


def brute_count_split_graphs(n, m):
    npairs = n * (n - 1) // 2
    return sum(
        1
        for mask in range(1 << npairs)
        if LabeledGraph(n, mask).m == m and is_split(LabeledGraph(n, mask)) is not None
    )


def test_snm_bounds_bracket_the_true_count():
    n = 5
    for m in range(11):
        total = brute_count_split_graphs(n, m)
        lower, upper = snm_bounds(n, m)
        if total == 0:
            assert lower.is_zero
            continue
        assert lower.value <= math.log(total) + 1e-12
        assert math.log(total) <= upper.value + 1e-12


def test_close_to_split_bound_dominates_split_count():
    for m in (40, 80):
        base = snm_bounds(30, m)[1]
        padded = close_to_split_log_bound(30, m, 0.1)
        assert padded.value >= base.value
    with pytest.raises(PreconditionError):
        close_to_split_log_bound(30, 40, 0.0)


def test_log_spaced_m_range_and_order():
    ms = log_spaced_m(10**4, 8)
    assert len(ms) == 8
    assert ms == sorted(ms)
    assert ms[0] == math.ceil((10**4) ** 1.2)
    assert ms[-1] == (10**4) ** 2 // 64


def test_split_grid_rows_and_csv():
    n = 10**4
    rows = split_grid(n, log_spaced_m(n, 3))
    assert len(rows) == 3
    for row in rows:
        assert row.n == n
        assert row.logn_star >= row.logn_lower_tail
        assert row.logn_star >= row.logn_upper_tail
    lines = grid_csv_lines(rows)
    assert lines[0].startswith("#")
    assert "natural logarithms" in lines[0]
    assert lines[1].split(",")[0] == "n"
    assert len(lines) == 2 + len(rows)
    first = lines[2].split(",")
    assert int(first[0]) == n and int(first[1]) == rows[0].m


# -- the feasible band and the prime-power binomial -------------------------------


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


def test_feasible_band_is_exactly_the_feasible_clique_sides():
    for n in range(0, 41):
        for m in range(-2, n * (n - 1) // 2 + 3):
            lo, hi = _feasible_band(n, m)
            assert [ell for ell in range(n + 1) if lo <= ell <= hi] == [
                ell for ell in range(n + 1) if m >= 0 and naive.is_feasible_clique_side(n, m, ell)
            ]


def test_log_comb_over_a_band_equals_the_scalar_calls():
    # above the exact-integer cutoff, so log_n_nm takes the log-factorial route
    n = 1000
    assert n > EXACT_LOG_LIMIT
    for m in (n + 1, 10000, n * n // 64, 200000, math.comb(n, 2)):
        lo, hi = _feasible_band(n, m)
        ells = np.arange(lo, hi + 1, dtype=np.int64)
        band = _log_comb(*_cross(n, m, ells))
        assert band.dtype == np.float64 and len(band) == hi - lo + 1 > 0
        assert band.tolist() == [_log_comb(*_cross(n, m, ell)) for ell in range(lo, hi + 1)]
        assert band.tolist() == [log_n_nm(n, m, ell).value for ell in range(lo, hi + 1)]
        assert splitcounts._log_n_nm_band(n, m, lo, hi).tolist() == band.tolist()


def test_band_argmax_past_the_int64_range():
    """At n = 4 * 10^12, m = n + 1, ell(n - ell) passes 2^63 inside the band
    (hi is about 2.8 million), where int64 entries would wrap.  The band's
    floats round instead: the answer is a local maximum of the scalar logs,
    whose (a, k) are Python ints, and those agree with the band's to 1e-9."""
    n = 4 * 10**12
    m = n + 1
    lo, hi = _feasible_band(n, m)
    assert hi * (n - hi) >= 2**63
    star = argmax_n_nm(n, m)
    assert lo < star < hi
    exact = [log_n_nm(n, m, ell).value for ell in (star - 1, star, star + 1)]
    assert exact[1] >= max(exact[0], exact[2])
    band = splitcounts._log_n_nm_band(n, m, star - 1, star + 1).tolist()
    assert band == pytest.approx(exact, rel=1e-9)


# the 24 points of acceptance criterion 8, then the 18 grid rows and the
# three `count-split --ell` jobs of the benchmark's counts workload
CRITERION_8_POINTS = [(n, m) for n in (10**4, 10**5, 10**6) for m in log_spaced_m(n, 8)]
BENCHMARK_POINTS = [(n, m) for n in (10**4, 10**5, 10**6) for m in log_spaced_m(n, 6)] + [
    (500, 2500),
    (1000, 10000),
    (2000, 50000),
]


@pytest.mark.parametrize(
    "points", [CRITERION_8_POINTS, BENCHMARK_POINTS], ids=["criterion8", "benchmark"]
)
def test_band_argmax_matches_the_full_scan_on_fixed_points(points):
    assert len(points) in (24, 21)
    for n, m in points:
        assert argmax_n_nm(n, m) == naive.argmax_n_nm_by_full_scan(n, m, 1 / 64)


def test_blocked_argmax_matches_the_full_scan_across_blocks(monkeypatch):
    """The benchmark's n = 10^6 grid points at the real block size, some of
    whose bands span several blocks, then seeded instances with blocks of 1,
    7 and 64 entries and bands of up to about 100 blocks."""
    million = [(n, m) for n, m in BENCHMARK_POINTS if n == 10**6]
    spans = [(hi - lo) // splitcounts._BLOCK + 1 for lo, hi in (_feasible_band(n, m) for n, m in million)]
    assert len(million) == 6 and max(spans) >= 10
    for n, m in million:
        assert argmax_n_nm(n, m) == naive.argmax_n_nm_by_full_scan(n, m, 1 / 64)
    rng = random.Random(24)
    for block in (1, 7, 64):
        monkeypatch.setattr(splitcounts, "_BLOCK", block)
        for _ in range(40):
            n = rng.randint(20, 100 * block)
            m = rng.randint(n + 1, n * n // 4)
            assert _outcome(argmax_n_nm, n, m, 1.0) == _outcome(naive.argmax_n_nm_by_full_scan, n, m, 1.0)


def test_blocked_argmax_keeps_the_first_of_tied_maxima(monkeypatch):
    """A tie across blocks goes to the smallest ell, as one argmax over the
    whole band gives it."""
    n, m = 1000, 10000
    lo, hi = _feasible_band(n, m)
    logs = np.zeros(hi - lo + 1)
    monkeypatch.setattr(splitcounts, "_BLOCK", 4)
    monkeypatch.setattr(splitcounts, "_log_n_nm_band", lambda n, m, a, b: logs[a - lo : b - lo + 1])
    assert argmax_n_nm(n, m) == lo
    logs[[6, 7, 9, 13]] = 1.0
    assert argmax_n_nm(n, m) == lo + 6 == lo + int(np.argmax(logs))


def test_argmax_memory_is_bounded_by_one_block():
    """The band of argmax_n_nm(10^6, 15,625,000,000) has 161,028 entries:
    scanned at once it peaked at 8.1 MB under tracemalloc, in blocks of
    _BLOCK entries below 3 MB."""
    tracemalloc.start()
    try:
        ell = argmax_n_nm(10**6, 15_625_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ell == naive.argmax_n_nm_by_full_scan(10**6, 15_625_000_000, 1 / 64)
    assert peak < 3e6


def test_band_argmax_raises_what_the_full_scan_raises():
    # m > C(n, 2): the regime admits it at lambda = 1, but no clique side is feasible
    cases = [(10, 50, 1.0), (3, 4, 1.0), (2, 3, 1.0), (100, 50, 1 / 64), (100, 9000, 1 / 64)]
    for n, m, lam in cases:
        want = _outcome(naive.argmax_n_nm_by_full_scan, n, m, lam)
        assert isinstance(want, tuple)
        assert _outcome(argmax_n_nm, n, m, lam) == want


@st.composite
def band_edge_instances(draw):
    """(n, m, lam) with m often at a band edge of some ell: C(ell,2) or
    ell(n-ell) + C(ell,2), give or take one."""
    n = draw(st.integers(1, 3000))
    ell = draw(st.integers(0, n))
    edge = draw(st.sampled_from([math.comb(ell, 2), ell * (n - ell) + math.comb(ell, 2), None]))
    if edge is None:
        m = draw(st.integers(n + 1, max(n + 1, n * n)))
    else:
        m = edge + draw(st.integers(-1, 1))
    lam = draw(st.sampled_from([1 / 64, 1 / 8, 0.5, 1.0, 4.0]))
    return n, m, lam


@settings(max_examples=300, deadline=None)
@given(band_edge_instances())
def test_band_argmax_matches_the_full_scan(instance):
    n, m, lam = instance
    assert _outcome(argmax_n_nm, n, m, lam) == _outcome(naive.argmax_n_nm_by_full_scan, n, m, lam)


@settings(max_examples=100, deadline=None)
@given(band_edge_instances())
def test_snm_bounds_match_the_full_vector(instance):
    n, m, _ = instance
    if not 0 <= m <= math.comb(n, 2):
        return
    lower, upper = snm_bounds(n, m)
    assert (lower.value, upper.value) == naive.snm_bounds_by_full_vector(n, m)


# -- ln j! ------------------------------------------------------------------------

# every j below 300 and around the table cutoff (2048), 2^e - 1, 2^e and
# 2^e + 1 up to 2^50, and seeded draws up to 10^6 and up to 2^50
LOG_FACTORIAL_POINTS = (
    list(range(300))
    + list(range(2030, 2070))
    + [2**e + d for e in range(7, 51) for d in (-1, 0, 1)]
    + random.Random(11).sample(range(10**6), 200)
    + random.Random(12).sample(range(2**50), 200)
)


def test_log_factorial_matches_mpmath_loggamma():
    import mpmath  # the test extra's reference; only this test needs it

    assert splitcounts._STIRLING_CUTOFF in LOG_FACTORIAL_POINTS
    got = splitcounts._log_factorial(np.array(LOG_FACTORIAL_POINTS, dtype=np.float64))
    with mpmath.workdps(60):
        for j, value in zip(LOG_FACTORIAL_POINTS, got.tolist()):
            want = mpmath.loggamma(j + 1)
            assert abs(mpmath.mpf(value) - want) <= 1e-14 * abs(want), j


def test_log_factorial_gives_one_value_for_every_input_form():
    js = [0, 1, 2, 2047, 2048, 2049, 10**6, 2**40]
    array = splitcounts._log_factorial(np.array(js, dtype=np.float64))
    assert array.shape == (len(js),)
    grid = splitcounts._log_factorial(np.array(js, dtype=np.float64).reshape(2, 4))
    assert grid.shape == (2, 4) and grid.ravel().tolist() == array.tolist()
    assert splitcounts._log_factorial(js).tolist() == array.tolist()
    for j, want in zip(js, array.tolist()):
        for form in (j, float(j), np.float64(j), np.array(j), np.array(float(j))):
            value = splitcounts._log_factorial(form)
            assert type(value) is float and value == want, (j, form)
    assert splitcounts._log_factorial(np.array([], dtype=np.float64)).shape == (0,)


def test_log_factorial_is_the_same_in_every_block():
    # an array three blocks long, small and large j mixed, against each
    # entry alone
    block = splitcounts._BLOCK
    js = np.arange(3 * block + 5, dtype=np.float64)
    js[1::2] *= 7919
    values = splitcounts._log_factorial(js)
    for i in [0, 1, 2, block - 1, block, block + 1, 2 * block, 3 * block - 1, 3 * block + 4]:
        assert values[i] == splitcounts._log_factorial(js[i]), i
    assert values[::997].tolist() == [splitcounts._log_factorial(j) for j in js[::997].tolist()]


def _criterion_7_points():
    """The (n, m) pairs acceptance criterion 7 samples: 20 distinct m per n."""
    rng = random.Random(707)
    points = []
    for n in range(20, 201, 20):
        seen = set()
        while len(seen) < 20:
            m = rng.randint(1, n * (n - 1) // 2)
            if m not in seen:
                seen.add(m)
                points.append((n, m, 1.0))
    return points


# criterion 7's pairs at lambda = 1 (those with m <= n raise), criterion 8's
# and the benchmark's points, and 60 log-spaced m at each of five n
SCIPY_ARGMAX_POINTS = (
    _criterion_7_points()
    + [(n, m, 1 / 64) for n, m in CRITERION_8_POINTS + BENCHMARK_POINTS]
    + [(n, m, 1 / 64) for n in (500, 2000, 8000, 30000, 300000) for m in log_spaced_m(n, 60)]
)


def test_argmax_matches_a_scipy_gammaln_argmax():
    assert len(SCIPY_ARGMAX_POINTS) == 545
    for n, m, lam in SCIPY_ARGMAX_POINTS:
        want = _outcome(naive.argmax_n_nm_by_full_scan, n, m, lam, naive.gammaln_log_factorial)
        assert _outcome(argmax_n_nm, n, m, lam) == want, (n, m, lam)


# a prime (97, 10007) and prime powers (3^9, 2^14), each with k at 0, 1,
# a - 1 and a, and around and above a / 2
BINOMIAL_EDGE_CASES = (
    [(97, k) for k in (0, 1, 2, 48, 49, 50, 96, 97)]
    + [(3**9, k) for k in (0, 1, 3**8, 3**9 // 2 + 1, 3**9 - 1, 3**9)]
    + [(2**14, k) for k in (0, 1, 2**13, 2**13 + 5, 2**14 - 1, 2**14)]
    + [(10007, k) for k in (0, 1, 1000, 5003, 9000, 10006, 10007)]
)


def test_prime_power_binomial_matches_math_comb_on_edge_cases():
    for a in range(0, 60):
        for k in range(a + 1):
            assert _prime_power_binomial(a, k) == math.comb(a, k)
    for a, k in BINOMIAL_EDGE_CASES:
        assert _prime_power_binomial(a, k) == math.comb(a, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 60000), st.data())
def test_prime_power_binomial_matches_math_comb(a, data):
    k = data.draw(st.integers(0, a))
    assert _prime_power_binomial(a, k) == math.comb(a, k)
    assert _binomial(a, k) == math.comb(a, k)


def test_binomial_routes_by_the_cutoff(monkeypatch):
    # j = min(k, a - k) must reach 1000 and 10 sqrt(a), and a must stay <= 2^25
    cases = {
        (5000, 999): "comb",
        (5000, 1000): "primes",
        (5000, 4001): "comb",
        (5000, 4000): "primes",
        (40000, 1999): "comb",
        (40000, 2000): "primes",
        (40000, 38000): "primes",
        (2**25, 2**24): "primes",
        (2**25 + 1, 2**24): "comb",
        (1000, 500): "comb",
        (10**6, 0): "comb",
    }
    # the spies stand in for both routes, so no big binomial is computed here
    monkeypatch.setattr(splitcounts, "_prime_power_binomial", lambda a, k: "primes")
    monkeypatch.setattr(splitcounts, "math", types.SimpleNamespace(comb=lambda a, k: "comb"))
    assert {case: _binomial(*case) for case in cases} == cases


def test_n_nm_takes_the_prime_power_route_at_scale(monkeypatch):
    routed = []

    def spy(a, k):
        routed.append((a, k))
        return _prime_power_binomial(a, k)

    monkeypatch.setattr(splitcounts, "_prime_power_binomial", spy)
    a, k = 148 * 1852, 50000 - math.comb(148, 2)
    assert n_nm(2000, 50000, 148) == math.comb(a, k)
    assert routed == [(a, k)]


def test_ratio_a_matches_the_two_falling_factorials():
    for n in range(1, 31):
        for m in range(n * (n - 1) // 2 + 1):
            for ell in range(n):
                if naive.is_feasible_clique_side(n, m, ell) and naive.is_feasible_clique_side(n, m, ell + 1):
                    assert ratio_a(n, m, ell) == naive.ratio_a_by_perms(n, m, ell)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 400), st.data())
def test_ratio_a_matches_the_two_falling_factorials_at_larger_n(n, data):
    ell = data.draw(st.integers(0, n - 1))
    lo = max(math.comb(ell + 1, 2), math.comb(ell, 2))
    hi = min(ell * (n - ell) + math.comb(ell, 2), (ell + 1) * (n - ell - 1) + math.comb(ell + 1, 2))
    if lo > hi:
        return
    m = data.draw(st.sampled_from([lo, hi]) | st.integers(lo, hi))
    assert ratio_a(n, m, ell) == naive.ratio_a_by_perms(n, m, ell)
