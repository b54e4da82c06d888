"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The heavyweight uniqueness sweep (criterion 4) spreads
its five recurrences over two worker processes.
"""

import ast
import math
import pathlib
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest

import zeckvec
from zeckvec import (RecurrenceVector, ball_coverage, borrow, carry,
                     check_minimality, classify, coefficient_sum, decompose,
                     enumerate_representations, evaluate, gaussian_diagnostics,
                     increment, is_satisfying, iter_representations,
                     legal_decompose, probe_termination, scalar_bridge,
                     scalar_term, summand_distribution, vector_term)
from zeckvec.analytics import FIBONACCI_MEAN_SLOPE
from zeckvec.bridge import regions_csv_text, regions_svg_text
from zeckvec.normalize import NormalizationTrace

STRICT_VECTORS = [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]
COUNT_LIMIT = 10 ** 6


def grammar_histogram(coeffs, n):
    """Exact summand-count histogram over [X_n, X_{n+1}) by a grammar DP.

    An integer in the window has n greedy digits, leading digit >= 1, read
    over the scanner automaton whose state j is the matched prefix length of
    c: a digit below c_{j+1} returns to state 0, a digit equal to c_{j+1}
    advances to j+1, and reaching k (a full copy of c) rejects.  The count
    is the digit sum, with multiplicity.  No code of the package is used.
    """
    k = len(coeffs)
    states = {0: Counter({0: 1})}   # state -> {digit sum so far: strings}
    for pos in range(n):
        nxt = {}
        for j, sums in states.items():
            for d in range(1 if pos == 0 else 0, coeffs[j] + 1):
                to = j + 1 if d == coeffs[j] else 0
                if to == k:
                    continue
                bucket = nxt.setdefault(to, Counter())
                for s, f in sums.items():
                    bucket[s + d] += f
        states = nxt
    histogram = Counter()
    for sums in states.values():
        histogram.update(sums)
    return dict(sorted(histogram.items()))


def exact_moments(histogram):
    """Mean, variance, third central moment and excess kurtosis as Fractions."""
    size = sum(histogram.values())
    mean = Fraction(sum(s * f for s, f in histogram.items()), size)
    m2, m3, m4 = (sum(f * (s - mean) ** p for s, f in histogram.items()) / size
                  for p in (2, 3, 4))
    return mean, m2, m3, m4 / (m2 * m2) - 3


def _report(num, label, elapsed, bound):
    status = "PASS" if elapsed <= bound else "SLOW"
    print("criterion %2d: %s (%.3f s) %s" % (num, status, elapsed, label))
    assert elapsed <= bound, "criterion %d exceeded its %gs budget" % (num, bound)


def test_criterion_01_sequence_fidelity():
    start = time.perf_counter()
    tri = RecurrenceVector((1, 1, 1))
    custom = RecurrenceVector((2, 1, 1))
    assert [scalar_term(tri, n) for n in range(1, 8)] == [1, 2, 4, 7, 13, 24, 44]
    assert [scalar_term(custom, n) for n in range(1, 7)] == [1, 3, 8, 20, 51, 130]
    _report(1, "sequence fidelity", time.perf_counter() - start, 0.001)


def test_criterion_02_vector_fidelity():
    c = RecurrenceVector((2, 1, 1))
    vector_term(c, -1)  # warm the shared cache outside the timed region
    start = time.perf_counter()
    expected = [(1, 0), (0, 1), (-2, -1), (3, -1), (1, 4),
                (-9, -3), (10, -6), (9, 16), (-38, -7)]
    got = [vector_term(c, -i) for i in range(1, 10)]
    elapsed = time.perf_counter() - start
    assert got == expected
    _report(2, "vector fidelity", elapsed, 0.001)


def test_criterion_03_conversion_trace():
    start = time.perf_counter()
    c = RecurrenceVector((2, 1, 1))
    base = decompose(c, (-2, 1))
    assert base == (0, 2, 1)
    trace = NormalizationTrace()
    final = increment(c, base, 3, trace=trace)
    steps = [(s.op, s.pos, s.string) for s in trace.steps]
    assert steps == [("borrow", 3, (0, 2, 1, 2, 1, 1)),
                     ("carry", 1, (1, 0, 0, 1, 1, 1))]
    assert final == (1, 0, 0, 1, 1, 1)
    assert evaluate(c, final) == (-4, 0)
    _report(3, "conversion trace", time.perf_counter() - start, 0.010)


def _uniqueness_sweep(coeffs):
    c = RecurrenceVector(coeffs)
    seq = c.scalar()
    n_max = 1
    while seq.term(n_max + 2) <= COUNT_LIMIT:
        n_max += 1
    # exercise the list API directly on the small levels
    n = 0
    while seq.term(n + 1) <= 10_000:
        if len(enumerate_representations(c, n)) != seq.term(n + 1):
            return coeffs, False, "count mismatch at n=%d" % n
        n += 1
    support_counts = [0] * (n_max + 1)
    values = set()
    for a, v in iter_representations(c, n_max, with_values=True):
        support_counts[len(a)] += 1
        values.add(v)
        if decompose(c, v) != a:
            return coeffs, False, "decompose mismatch for %r" % (v,)
    cumulative = 0
    for n in range(n_max + 1):
        cumulative += support_counts[n]
        if cumulative != seq.term(n + 1):
            return coeffs, False, "cumulative count mismatch at n=%d" % n
    if len(values) != seq.term(n_max + 1):
        return coeffs, False, "evaluation not injective"
    return coeffs, True, "n_max=%d, %d strings" % (n_max, cumulative)


def test_criterion_04_uniqueness_and_counting():
    start = time.perf_counter()
    order = [(4, 2, 1), (1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1)]
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_uniqueness_sweep, order))
    for coeffs, ok, detail in results:
        assert ok, "%r: %s" % (coeffs, detail)
    _report(4, "uniqueness and counting", time.perf_counter() - start, 60.0)


def test_criterion_05_round_trip():
    start = time.perf_counter()
    for coeffs in STRICT_VECTORS:
        c = RecurrenceVector(coeffs)
        rng = random.Random(7)
        dim = c.k - 1
        for _ in range(1000):
            v = tuple(rng.randint(-200, 200) for _ in range(dim))
            a = decompose(c, v)
            assert is_satisfying(c, a)
            assert evaluate(c, a) == v
    _report(5, "round trip", time.perf_counter() - start, 30.0)


def test_criterion_06_scalar_bridge_bijection():
    start = time.perf_counter()
    c = RecurrenceVector((2, 1, 1))
    seq = c.scalar()
    for n in range(3, 13):
        lo = seq.term(n)
        hi = seq.term(n + 1)
        images = set()
        upper = set()
        shell_images = set()
        for a, v in iter_representations(c, n, with_values=True):
            z = scalar_bridge(c, n + 1, v)
            assert z not in images, "bridge image collided at n=%d" % n
            images.add(z)
            # summand transport: string mass equals scalar summand count
            assert coefficient_sum(a) == sum(legal_decompose(c, z))
            leading = bool(a) and a[0] >= 1
            assert leading == (z >= lo)
            if leading:
                upper.add(z)
            if len(a) == n:
                shell_images.add(z)
        assert images == set(range(hi))
        assert upper == set(range(lo, hi))
        assert len(shell_images) == hi - lo  # injective on the fresh shell
    _report(6, "scalar bridge bijection", time.perf_counter() - start, 30.0)


def test_criterion_07_minimality():
    start = time.perf_counter()
    c = RecurrenceVector((2, 1, 1))
    members = list(iter_representations(c, 5, with_values=True))
    assert len(members) == scalar_term(c, 6) == 130
    for a, v in members:
        res = check_minimality(c, v, support_bound=5 + c.k)
        assert res.minimal, (v, res)
        assert res.sr_count == coefficient_sum(a)
    _report(7, "summand minimality", time.perf_counter() - start, 60.0)


def test_grammar_dp_matches_exact_sweep():
    # the oracle criterion 8 relies on, checked against the package's exact mode
    for coeffs in STRICT_VECTORS:
        c = RecurrenceVector(coeffs)
        for n in range(1, 9):
            hist = grammar_histogram(coeffs, n)
            assert sum(hist.values()) == scalar_term(c, n + 1) - scalar_term(c, n)
            assert hist == summand_distribution(c, n, mode="exact").histogram, \
                (coeffs, n)


def test_grammar_dp_matches_exact_mode_on_large_windows():
    # windows far past any sweep, of 82 and 63 digits: exact mode must
    # count them without the oracle, which stays in this module
    for coeffs, n in (((2, 1, 1), 200), ((1, 1), 300)):
        c = RecurrenceVector(coeffs)
        stats = summand_distribution(c, n, mode="exact", cap=10 ** 200)
        assert stats.histogram == grammar_histogram(coeffs, n), (coeffs, n)
        assert stats.size == scalar_term(c, n + 1) - scalar_term(c, n)
    for path in pathlib.Path(zeckvec.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in ("tests", "test_acceptance",
                                                  "benchmarks", "oracles"), \
                    (path.name, name)


def test_exact_mode_matches_the_grammar_dp_at_window_300():
    # windows of 80 to 196 digits, counted by the chunk recurrence of the cut
    # walk: the grammar DP shares no code with it
    for coeffs in ((1, 1, 1), (3, 2, 1), (4, 2, 1), (3, 3, 2, 1)):
        c = RecurrenceVector(coeffs)
        stats = summand_distribution(c, 300, mode="exact", cap=10 ** 300)
        assert stats.histogram == grammar_histogram(coeffs, 300), coeffs
        assert stats.size == scalar_term(c, 301) - scalar_term(c, 300)


def test_criterion_08_gaussian_moments():
    start = time.perf_counter()
    c = RecurrenceVector((2, 1, 1))
    stats = [summand_distribution(c, n, mode="sampled", size=100_000, seed=42)
             for n in (12, 16, 20, 24)]
    report = gaussian_diagnostics(c, stats)
    assert report.mean_fit.r_squared >= 0.999, report.mean_fit
    # Gaussian behaviour is a limit in n, not a bound at a fixed window: the
    # sampled moments must match the exact ones of the grammar DP within 5
    # standard errors, and the exact shape moments must shrink as n grows.
    exact = [exact_moments(grammar_histogram(c.coefficients, s.n)) for s in stats]
    exact_skew = [float(m3) / float(var) ** 1.5 for _, var, m3, _ in exact]
    for s, (mean, var, _, kurt), skew in zip(stats, exact, exact_skew):
        bands = [("mean", s.mean, float(mean), math.sqrt(var / s.size)),
                 ("variance", s.variance, float(var),
                  float(var) * math.sqrt((kurt + 2) / s.size)),
                 ("skewness", s.skewness, skew, math.sqrt(6 / s.size))]
        for name, sampled, want, se in bands:
            assert abs(sampled - want) <= 5 * se, (s.n, name, sampled, want, se)
    skew_sq = [m3 * m3 / var ** 3 for _, var, m3, _ in exact]
    kurt_abs = [abs(kurt) for _, _, _, kurt in exact]
    assert all(a > b for a, b in zip(skew_sq, skew_sq[1:])), skew_sq
    assert all(a > b for a, b in zip(kurt_abs, kurt_abs[1:])), kurt_abs
    elapsed = time.perf_counter() - start
    _report(8, "gaussian moments - skewness at n=24 sampled %.4f, exact %.4f"
            % (stats[-1].skewness, exact_skew[-1]), elapsed, 120.0)


def test_criterion_09_fibonacci_mean_slope():
    start = time.perf_counter()
    c = RecurrenceVector((1, 1))
    stats = [summand_distribution(c, n, mode="sampled", size=100_000, seed=42)
             for n in range(20, 41)]
    report = gaussian_diagnostics(c, stats)
    slope = report.mean_fit.slope
    assert abs(slope - 0.276393) <= 0.005, slope
    assert report.lekkerkerker["target"] == pytest.approx(FIBONACCI_MEAN_SLOPE)
    _report(9, "fibonacci mean slope", time.perf_counter() - start, 120.0)


def test_criterion_10_divergence_reproduction():
    start = time.perf_counter()
    c = RecurrenceVector((1, 3, 1), relaxed=True)
    report = probe_termination(c, (2,), budget=10_000)
    assert not report.terminated
    strings = report.trace.strings()
    assert strings[0] == (1, 1, 3, 1)
    assert strings[1] == (1, 1, 1, 3, 6, 2)
    assert strings[2] == (1, 2, 0, 0, 5, 2)
    _report(10, "divergence reproduction", time.perf_counter() - start, 5.0)


def test_criterion_11_region_identities(tmp_path):
    start = time.perf_counter()
    c = RecurrenceVector((2, 1, 1))
    n_top = 10
    by_support = {n: set() for n in range(n_top + 1)}
    for a, v in iter_representations(c, n_top, with_values=True):
        by_support[len(a)].add(v)
    region = set()
    for n in range(n_top + 1):
        fresh = by_support[n]
        assert not (fresh & region)
        region |= fresh
        assert len(region) == scalar_term(c, n + 1)
    d1 = by_support[0] | by_support[1]
    assert d1 == {(0, 0), (1, 0), (2, 0)}
    csv_a = regions_csv_text(c, n_top)
    csv_b = regions_csv_text(c, n_top)
    svg_a = regions_svg_text(c, n_top)
    svg_b = regions_svg_text(c, n_top)
    assert csv_a == csv_b and svg_a == svg_b
    (tmp_path / "d10.csv").write_text(csv_a)
    (tmp_path / "d10.svg").write_text(svg_a)
    _report(11, "region identities", time.perf_counter() - start, 30.0)


def test_criterion_12_mass_accounting():
    start = time.perf_counter()
    rng = random.Random(11)
    systems = [RecurrenceVector(v) for v in STRICT_VECTORS]
    for trial in range(10_000):
        c = systems[trial % len(systems)]
        total = c.coefficient_total
        if trial % 2 == 0:
            # plant a legal carry window on top of a random string
            base = [rng.randint(0, 3) for _ in range(rng.randint(1, 6))]
            pos = rng.randint(1, len(base) + 2)
            arr = base + [0] * (pos + c.k - len(base))
            for l, cl in enumerate(c.coefficients, start=1):
                arr[pos + l - 1] += cl
            a = tuple(arr)
            before = evaluate(c, a)
            out = carry(c, a, pos)
            assert evaluate(c, out) == before
            assert coefficient_sum(out) - coefficient_sum(a) == 1 - total
        else:
            arr = [rng.randint(0, 3) for _ in range(rng.randint(1, 8))]
            positions = [i for i, x in enumerate(arr, start=1) if x >= 1]
            if not positions:
                arr[0] = 1
                positions = [1]
            pos = rng.choice(positions)
            a = tuple(arr)
            before = evaluate(c, a)
            out = borrow(c, a, pos)
            assert evaluate(c, out) == before
            assert coefficient_sum(out) - coefficient_sum(a) == total - 1
    _report(12, "mass accounting", time.perf_counter() - start, 5.0)
