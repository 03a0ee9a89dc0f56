"""Split-graph counting: the exact per-clique-side counts, the consecutive
ratio identity, the fixed-point scale, and the grid evaluation used to
study where the counts concentrate."""

import itertools
import math
import random
from fractions import Fraction

import pytest

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
    for n, m, ell in [(6, 7, 3), (9, 20, 5), (12, 30, 6)]:
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
