import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from operator import add

import pytest

from zeckvec import (CapExceededError, MinimalityResult, OracleExhaustedError,
                     RecurrenceVector, SpanningReport, check_minimality, coefficient_sum, decompose,
                     enumerate_representations, gaussian_diagnostics, legal_decompose,
                     scalar_bridge, scalar_term, spanning_probe, summand_distribution,
                     support_region, support_shell, vector_term)
from zeckvec import analytics
from zeckvec.analytics import (FIBONACCI_MEAN_SLOPE, SummandStats, _moments,
                               exact_series, stats_json_text)
from zeckvec.recurrence import greedy_count, greedy_digits, legal_digits

FIB = RecurrenceVector((1, 1))
C211 = RecurrenceVector((2, 1, 1))


def test_exact_window_fibonacci():
    # window [X_3, X_4) = [3, 5): 3 = X_3 (one summand), 4 = X_3 + X_1 (two)
    stats = summand_distribution(FIB, 3, mode="exact")
    assert stats.histogram == {1: 1, 2: 1}
    assert stats.mean == pytest.approx(1.5)
    assert stats.size == 2


def test_exact_window_custom():
    # window [3, 8): 3 -> 1 summand; 4, 6 -> 2; 5, 7 -> 3
    stats = summand_distribution(C211, 2, mode="exact")
    assert stats.histogram == {1: 1, 2: 2, 3: 2}
    assert stats.mean == pytest.approx(2.2)


def test_exact_totals_match_window_width():
    for n in range(1, 9):
        stats = summand_distribution(C211, n, mode="exact")
        assert stats.size == scalar_term(C211, n + 1) - scalar_term(C211, n)


def test_exact_cap():
    with pytest.raises(CapExceededError):
        summand_distribution(C211, 20, mode="exact", cap=1000)


def test_exact_cap_message_names_the_term_and_the_cap():
    # the window [X_34, X_35) is 5702887 wide, but X_35 is what the cap bounds
    with pytest.raises(CapExceededError) as info:
        summand_distribution(FIB, 34)
    assert str(info.value) == "exact window 34 needs X_35 = 14930352, which exceeds cap 10000000"
    assert info.value.exit_code == 2


@pytest.mark.parametrize("coeffs,n_min,n_max", [((1, 1), 1, 30), ((2, 1, 1), 4, 18),
                                                ((3, 3, 2, 1), 2, 9)])
def test_exact_series_builds_each_prefix_histogram_once(monkeypatch, coeffs, n_min, n_max):
    c = RecurrenceVector(coeffs)
    want = [summand_distribution(c, n, cap=10 ** 30) for n in range(n_min, n_max + 1)]
    series, built = [], []
    prefix_histograms = analytics._prefix_histograms

    def counted(c):
        series.append(c)
        for hist in prefix_histograms(c):
            built.append(hist)
            yield hist
    monkeypatch.setattr(analytics, "_prefix_histograms", counted)
    got = list(exact_series(c, n_min, n_max, cap=10 ** 30))
    assert got == want and repr(got) == repr(want)
    # one generator for the series, which builds hists[0] .. hists[n_max] once each
    assert series == [c] and len(built) == n_max + 1
    assert c._bridge is None and c._vector is None


def test_exact_series_stops_at_the_first_window_beyond_the_cap():
    series = exact_series(FIB, 30, 40)
    assert [s.n for s in itertools.islice(series, 4)] == [30, 31, 32, 33]
    with pytest.raises(CapExceededError, match="exact window 34 needs X_35"):
        next(series)


def test_sampled_mode_is_reproducible():
    a = summand_distribution(C211, 15, mode="sampled", size=2000, seed=42)
    b = summand_distribution(C211, 15, mode="sampled", size=2000, seed=42)
    assert a.histogram == b.histogram
    assert a.size == 2000
    c = summand_distribution(C211, 15, mode="sampled", size=2000, seed=43)
    assert c.histogram != a.histogram


def test_sampled_mode_requires_seed_and_size():
    with pytest.raises(ValueError):
        summand_distribution(C211, 10, mode="sampled", size=100)
    with pytest.raises(ValueError):
        summand_distribution(C211, 10, mode="sampled", seed=1)


def test_summand_transport_exhaustive_small():
    # mass of the vector string equals the scalar summand count of its image
    for n in range(3, 9):
        region = support_region(C211, n)
        for v, (_first, a) in region.members.items():
            z = scalar_bridge(C211, n + 1, v)
            assert coefficient_sum(a) == sum(legal_decompose(C211, z))


def test_gaussian_diagnostics_shape():
    stats = [summand_distribution(C211, n, mode="exact") for n in range(4, 10)]
    report = gaussian_diagnostics(C211, stats)
    assert report.mean_fit.slope > 0
    assert report.variance_fit.slope > 0
    assert report.mean_fit.r_squared > 0.99
    assert report.lekkerkerker is None
    with pytest.raises(ValueError):
        gaussian_diagnostics(C211, stats[:2])


def test_gaussian_diagnostics_refuses_windows_at_one_n():
    # a line through windows that all sit at one n has no slope
    with pytest.raises(ValueError, match="two or more n"):
        gaussian_diagnostics(FIB, [summand_distribution(FIB, 5)] * 3)
    report = gaussian_diagnostics(FIB, [summand_distribution(FIB, n) for n in (5, 5, 6)])
    assert report.mean_fit.slope > 0


def test_fibonacci_slope_constant():
    assert FIBONACCI_MEAN_SLOPE == pytest.approx(0.2763932, abs=1e-6)
    stats = [summand_distribution(FIB, n, mode="exact") for n in range(8, 18)]
    report = gaussian_diagnostics(FIB, stats)
    assert report.lekkerkerker is not None
    assert report.lekkerkerker["slope"] == pytest.approx(FIBONACCI_MEAN_SLOPE, abs=0.01)


def test_minimality_examples():
    res = check_minimality(C211, (-4, 0), support_bound=9)
    assert res.sr_count == 4
    assert res.oracle_min == 4
    assert res.minimal
    res = check_minimality(C211, (0, 0))
    assert res.sr_count == 0 and res.oracle_min == 0 and res.minimal


def test_minimality_exhaustive_small_region():
    c = RecurrenceVector((3, 2, 1))
    for v in support_region(c, 4).vectors():
        res = check_minimality(c, v, support_bound=7)
        assert res.minimal, v


def bfs_explored(c, v, support_bound, radius=None, node_cap=1_000_000):
    """Nodes the breadth-first oracles count, with vectors added index by index.

    With a target v it stops in the middle of the level that reaches v, as
    check_minimality does; with a radius it runs until the ball is covered,
    the frontier empties or the node cap is passed, as spanning_probe does.
    """
    dim = c.k - 1
    gens = [vector_term(c, -i) for i in range(1, support_bound + 1)]
    remaining = set()
    if radius is not None:
        remaining = set(product(range(-radius, radius + 1), repeat=dim))
    zero = (0,) * dim
    remaining.discard(zero)
    frontier = {zero}
    seen = {zero}
    explored = 1
    while frontier and explored <= node_cap and (radius is None or remaining):
        nxt = set()
        for w in frontier:
            for g in gens:
                u = tuple(w[d] + g[d] for d in range(dim))
                if u == v:
                    return explored + len(nxt)
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
                    remaining.discard(u)
        explored += len(nxt)
        frontier = nxt
    return explored


@pytest.mark.parametrize("coeffs", [(2, 1, 1), (1, 1, 1), (4, 2, 1), (3, 2, 1), (1, 1, 1, 1)],
                         ids=lambda coeffs: ",".join(map(str, coeffs)))
def test_bfs_explored_counts_match_the_indexed_loop(coeffs):
    c = RecurrenceVector(coeffs)
    bound = 3 + c.k
    for v in support_region(c, 3).vectors():
        res = check_minimality(c, v, support_bound=bound)
        if res.sr_count:
            assert res.explored == bfs_explored(c, v, bound), v
    for radius in range(3):
        assert (spanning_probe(c, radius, bound).explored
                == bfs_explored(c, None, bound, radius=radius))
    assert spanning_probe(c, 5, bound, node_cap=40).explored == bfs_explored(
        c, None, bound, radius=5, node_cap=40)


def _per_vector_minima(c, vectors, bound, node_cap):
    # a new recurrence per vector, so each call grows a search of its own
    out = []
    for v in vectors:
        try:
            res = check_minimality(RecurrenceVector(c.coefficients), v,
                                   support_bound=bound, node_cap=node_cap)
        except OracleExhaustedError as exc:
            return out, str(exc)
        out.append((res.sr_count, res.oracle_min))
    return out, None


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1, 1), (1, 1, 1), (4, 2, 1), (3, 2, 1),
                                    (1, 1, 1, 1)], ids=lambda cs: ",".join(map(str, cs)))
def test_shared_search_matches_one_search_per_vector(coeffs):
    # same minima, and the same error at the same vector, for support bounds
    # that miss vectors and node caps that cut the search at every level
    c = RecurrenceVector(coeffs)
    rng = random.Random(len(coeffs))
    n = 0
    while scalar_term(c, n + 1) <= 150:
        vectors = list(support_region(c, n).vectors())
        rng.shuffle(vectors)
        for bound in sorted({1, 2, n + 1, n + c.k}):
            for node_cap in (0, 1, 5, 20, 60, 300, 1_000_000):
                want, error = _per_vector_minima(c, vectors, bound, node_cap)
                got = []
                try:
                    for v in vectors:
                        res = check_minimality(c, v, bound, node_cap)
                        got.append((res.sr_count, res.oracle_min))
                except OracleExhaustedError as exc:
                    assert str(exc) == error, (n, bound, node_cap)
                else:
                    assert error is None, (n, bound, node_cap)
                assert got == want, (n, bound, node_cap)
        n += 1


def per_call_minimality(c, v, support_bound, node_cap):
    """check_minimality as one breadth-first search per call, from the origin."""
    v = tuple(v)
    sr_count = coefficient_sum(decompose(c, v))
    if sr_count == 0:
        return MinimalityResult(0, 0, True, 1)
    gens = [vector_term(c, -i) for i in range(1, support_bound + 1)]
    zero = (0,) * (c.k - 1)
    frontier = {zero}
    seen = {zero}
    explored = 1
    for depth in range(1, sr_count + 1):
        nxt = set()
        for w in frontier:
            for g in gens:
                u = tuple(x + y for x, y in zip(w, g))
                if u == v:
                    return MinimalityResult(sr_count, depth, depth == sr_count,
                                            explored + len(nxt))
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
        explored += len(nxt)
        if explored > node_cap:
            raise OracleExhaustedError("minimality search exceeded %d nodes" % node_cap)
        frontier = nxt
    raise OracleExhaustedError(
        "no representation with support <= %d found within %d summands"
        % (support_bound, sr_count))


def per_call_spanning(c, radius, support_bound, node_cap):
    """spanning_probe as one breadth-first search per call, from the origin."""
    dim = c.k - 1
    gens = [vector_term(c, -i) for i in range(1, support_bound + 1)]
    remaining = set(product(range(-radius, radius + 1), repeat=dim))
    zero = (0,) * dim
    remaining.discard(zero)
    frontier = {zero}
    seen = {zero}
    explored = 1
    while remaining and frontier and explored <= node_cap:
        nxt = set()
        for w in frontier:
            for g in gens:
                u = tuple(x + y for x, y in zip(w, g))
                if u not in seen:
                    seen.add(u)
                    nxt.add(u)
                    remaining.discard(u)
        explored += len(nxt)
        frontier = nxt
    return SpanningReport(not remaining, tuple(sorted(remaining)), radius, support_bound,
                          explored)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except OracleExhaustedError as exc:
        return "error: " + str(exc)


NODE_CAPS = (0, 1, 5, 20, 60, 300, 1_000_000)


@pytest.mark.parametrize("coeffs, relaxed", [((1, 1), (1, 2, 1)), ((2, 1, 1), (1, 3, 1)),
                                             ((3, 2, 1), (2, 0, 1, 1)),
                                             ((1, 1, 1, 1), (1, 2, 2, 1))],
                         ids=lambda cs: ",".join(map(str, cs)))
def test_held_search_matches_the_per_call_search_when_calls_interleave(coeffs, relaxed):
    # check_minimality, alone or over a batch, and spanning_probe take turns
    # on one c (spanning also on a relaxed c), with bounds that change back and forth
    # and every node cap, so each call finds the search some other call grew.
    # A call that searches leaves c with no search or one for its bound
    # within its cap.
    c = RecurrenceVector(coeffs)
    r = RecurrenceVector(relaxed, relaxed=True)
    rng = random.Random(sum(coeffs) + len(relaxed))
    n = 0
    while scalar_term(c, n + 2) <= 150:
        n += 1
    vectors = [v for v in support_region(c, n).vectors() if any(v)]
    k = c.k
    bounds = [n + k, k, n + k, n + 1, k + 1, n + k, 2, n + k]
    spans = [r.k + 2, r.k + 1, r.k + 2, r.k + 3]
    for turn, bound in enumerate(bounds):
        for _ in range(40):
            node_cap = rng.choice(NODE_CAPS)
            op = rng.randrange(4)
            if op == 0:
                v = rng.choice(vectors)
                got = _outcome(check_minimality, c, v, bound, node_cap)
                want = _outcome(per_call_minimality, c, v, bound, node_cap)
            elif op == 1:
                batch = rng.sample(vectors, 5)
                got, want = [], []
                try:
                    for v in batch:
                        res = check_minimality(c, v, bound, node_cap)
                        got.append((res.sr_count, res.oracle_min))
                except OracleExhaustedError as exc:
                    got.append("error: " + str(exc))
                for v in batch:
                    res = _outcome(per_call_minimality, c, v, bound, node_cap)
                    want.append(res if isinstance(res, str) else (res.sr_count, res.oracle_min))
                    if isinstance(res, str):
                        break
            elif op == 2 and bound >= k:
                radius = rng.randint(0, 3)
                got = spanning_probe(c, radius, bound, node_cap)
                want = per_call_spanning(c, radius, bound, node_cap)
            else:
                radius, span = rng.randint(0, 3), spans[turn % len(spans)]
                got = spanning_probe(r, radius, span, node_cap)
                want = per_call_spanning(r, radius, span, node_cap)
                assert got == want, (relaxed, radius, span, node_cap)
                held = r._search
                if radius and node_cap:
                    assert held is None or held.bound == span and len(held.index) <= node_cap
                continue
            assert got == want, (bound, node_cap, op)
            held = c._search
            if op == 2 and not (radius and node_cap):
                continue
            if "exceeded" in str(got):
                assert held is None, (bound, node_cap, op)
            elif held is not None:
                assert held.bound == bound and len(held.index) <= node_cap


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1, 1), (3, 2, 1), (1, 1, 1, 1)],
                         ids=lambda cs: ",".join(map(str, cs)))
def test_a_fresh_search_holds_the_nodes_up_to_v(coeffs):
    # one call builds the nodes its own search would, v last; a call with
    # another bound replaces the search, which then holds only its own nodes
    c0 = RecurrenceVector(coeffs)
    bound = 3 + c0.k
    for v in list(support_region(c0, 4).vectors())[1:]:
        c = RecurrenceVector(coeffs)
        res = check_minimality(c, v, support_bound=bound)
        assert len(c._search.index) == res.explored + 1 == bfs_explored(c, v, bound) + 1, v
        first = c._search
        res = check_minimality(c, v, support_bound=bound + 1)
        held = c._search
        assert held is not first and held.bound == bound + 1
        assert len(held.index) == res.explored + 1, v


def test_a_search_past_the_node_cap_is_not_kept():
    c = RecurrenceVector((2, 1, 1))
    v = (7, -9)
    search = c.search(9)
    with pytest.raises(OracleExhaustedError, match="exceeded 10 nodes"):
        check_minimality(c, v, support_bound=9, node_cap=10)
    assert c._search is None
    # the failed call built the levels its own search would, and no more
    assert len(search.index) == bfs_explored(c, v, 9, node_cap=10)
    res = check_minimality(c, v, support_bound=9)
    assert res == per_call_minimality(c, v, 9, 10 ** 6)
    assert len(c._search.index) == res.explored + 1
    # the held search now passes a smaller cap: the answer stands, the search goes
    assert check_minimality(c, v, support_bound=9, node_cap=res.explored) == res
    assert c._search is None


def test_a_search_cut_short_by_an_exception_is_not_kept(monkeypatch):
    # an exception raised inside a growth step (here a bad generator; in the
    # benchmark a deadline alarm) ends the step generator, so c forgets it
    c = RecurrenceVector((2, 1, 1))
    good = c.vector().basis(9)
    monkeypatch.setattr(type(c.vector()), "basis", lambda self, depth: good[:2] + [(1, None)])
    with pytest.raises(TypeError):
        check_minimality(c, (7, -9), support_bound=9)
    assert c._search is None
    monkeypatch.undo()
    assert check_minimality(c, (7, -9), support_bound=9) == per_call_minimality(
        c, (7, -9), 9, 10 ** 6)


def test_minimality_node_cap():
    with pytest.raises(OracleExhaustedError):
        check_minimality(C211, (-40, 25), node_cap=10)


@pytest.mark.parametrize("bound", [0, -3])
def test_minimality_rejects_support_bound_below_one(bound):
    with pytest.raises(ValueError, match="support bound must be >= 1"):
        check_minimality(C211, (0, 1), support_bound=bound)


def test_stats_json_is_stable():
    stats = [summand_distribution(C211, n, mode="exact") for n in range(3, 6)]
    assert stats_json_text(C211, stats) == stats_json_text(C211, stats)
    assert '"mode": "exact"' in stats_json_text(C211, stats)


def test_moments_of_big_int_counts_do_not_overflow():
    big = _moments({1: 10 ** 400, 2: 3 * 10 ** 400})
    small = _moments({1: 1, 2: 3})
    assert big[0] == 4 * 10 ** 400
    assert big[1:] == small[1:]
    assert small[1:] == pytest.approx((1.75, 0.1875, -2 / math.sqrt(3), -2 / 3))
    # 10^305 * 100.0^2 is a float inf, not an OverflowError: the float
    # moments come out non-finite and the exact power sums take over
    big = 10 ** 305
    histogram = {0: big, 200: big}
    assert not math.isfinite(big * 100.0 ** 2)
    size, mean, var, skew, kurt = _moments(histogram)
    assert (size, mean, var, skew, kurt) == (2 * big, 100.0, 10000.0, 0.0, -2.0)
    exact_mean = Fraction(sum(k * f for k, f in histogram.items()), size)
    m2, m3, m4 = (Fraction(sum(f * (k - exact_mean) ** r for k, f in histogram.items()), size)
                  for r in (2, 3, 4))
    assert (mean, var, skew, kurt) == (float(exact_mean), float(m2), float(m3) / float(m2) ** 1.5,
                                       float(m4 / m2 ** 2 - 3))


def sweep_stats(c, n):
    """Oracle: sweep the window with one greedy call per integer.

    Returns the SummandStats it built and the histogram's keys in the order
    it handed them to _moments (first occurrence over the window).
    """
    histogram = {}
    for value in range(scalar_term(c, n), scalar_term(c, n + 1)):
        key = sum(legal_decompose(c, value))
        histogram[key] = histogram.get(key, 0) + 1
    total, mean, var, skew, kurt = _moments(histogram)
    stats = SummandStats(n, "exact", total, None, mean, var, skew, kurt,
                         dict(sorted(histogram.items())))
    return stats, list(histogram)


# every weakly decreasing c with k <= 5, c1 <= 4 and ck = 1: 69 vectors
STRICT_SMALL = [cs for k in range(2, 6)
                for cs in product(range(1, 5), *[range(1, 5)] * (k - 2), [1])
                if all(a >= b for a, b in zip(cs, cs[1:]))]
RELAXED_SMALL = [(1, 3, 1), (1, 2, 1), (2, 3, 1), (1, 0, 1), (2, 0, 0, 1),
                 (1, 4, 2, 1), (1, 1, 2, 1)]


@pytest.mark.parametrize("coeffs", STRICT_SMALL + RELAXED_SMALL,
                         ids=lambda cs: ",".join(map(str, cs)))
def test_exact_mode_matches_sweep(monkeypatch, coeffs):
    # relaxed c whose greedy digits break the chunk grammar are included:
    # exact mode counts the digit sums of satisfying strings, as the sweep
    # of `legal_decompose` does, for every c
    c = RecurrenceVector(coeffs, relaxed=coeffs in RELAXED_SMALL)
    fed = []

    def spy(histogram):
        fed.append(list(histogram))
        return _moments(histogram)
    monkeypatch.setattr(analytics, "_moments", spy)
    n = 1
    while scalar_term(c, n + 1) <= 5000:
        want, want_keys = sweep_stats(c, n)
        fed.clear()
        got = summand_distribution(c, n, mode="exact")
        # whole objects, so the floats agree bit for bit
        assert got == want and repr(got) == repr(want), (coeffs, n)
        assert fed == [want_keys], (coeffs, n)
        n += 1


def uncut_prefix_histograms(c):
    """Exact mode's prefix histograms by the uncut walk: step m expands
    X_{m+1} - 1 in full and adds one shifted hists[i - 1] per unit of each
    digit at position i, then one at the digit sum of X_{m+1} - 1."""
    hists = [[1]]
    yield hists[0]
    for m in itertools.count(1):
        g = legal_decompose(c, scalar_term(c, m + 1) - 1)
        out = [0] * (sum(g) + 1)
        out[-1] = 1
        above = 0
        for i, digit in zip(range(m, 0, -1), g):
            lower = hists[i - 1]
            for base in range(above, above + digit):
                end = base + len(lower)
                if end > len(out):
                    out.extend([0] * (end - len(out)))
                out[base:end] = map(add, out[base:end], lower)
            above += digit
        hists.append(out)
        yield out


def _nonzero(hist):
    return {s: f for s, f in enumerate(hist) if f}


# the benchmark's five c and the slowest c of the cubic walk
BENCH_C = [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1), (3, 3, 2, 1)]


@pytest.mark.parametrize("coeffs,m_max",
                         [(cs, 150 if cs in BENCH_C else 60)
                          for cs in STRICT_SMALL + RELAXED_SMALL],
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else "m%d" % x)
def test_cut_walk_matches_the_uncut_walk(coeffs, m_max):
    c = RecurrenceVector(coeffs, relaxed=coeffs in RELAXED_SMALL)
    want = list(itertools.islice(uncut_prefix_histograms(c), m_max + 1))
    got = list(itertools.islice(analytics._prefix_histograms(c), m_max + 1))
    assert [_nonzero(h) for h in got] == [_nonzero(h) for h in want], coeffs
    series = exact_series(c, 1, m_max, cap=scalar_term(c, m_max + 1))
    for n, stats in enumerate(series, 1):
        # whole objects, so the floats agree bit for bit
        assert repr(stats) == repr(analytics._window_stats(n, want[n - 1], want[n])), (coeffs, n)


def digit_sum_sampled(c, n, size, seed):
    """Sampled mode as it was: each draw's summand count is the digit sum of
    its `legal_decompose`, drawn by the same RNG protocol."""
    lo = scalar_term(c, n)
    width = scalar_term(c, n + 1) - lo
    rng = random.Random(seed)
    bits = width.bit_length()
    histogram = {}
    drawn = 0
    while drawn < size:
        r = rng.getrandbits(bits)
        if r >= width:
            continue
        key = sum(legal_decompose(c, lo + r))
        histogram[key] = histogram.get(key, 0) + 1
        drawn += 1
    total, mean, var, skew, kurt = _moments(histogram)
    return SummandStats(n, "sampled", total, seed, mean, var, skew, kurt,
                        dict(sorted(histogram.items())))


@pytest.mark.parametrize("coeffs", STRICT_SMALL + RELAXED_SMALL,
                         ids=lambda cs: ",".join(map(str, cs)))
def test_sampled_counts_equal_the_digit_sums(coeffs):
    c = RecurrenceVector(coeffs, relaxed=coeffs in RELAXED_SMALL)
    for n in [*range(1, 31), 300, 1000]:
        want = digit_sum_sampled(c, n, 6, seed=n)
        got = summand_distribution(c, n, mode="sampled", size=6, seed=n)
        # whole objects, so the floats and the key order agree bit for bit
        assert got == want and repr(got) == repr(want), (coeffs, n)
    rng = random.Random(",".join(map(str, coeffs)))
    for n in (1, 2, 5, 30, 300):
        terms = [scalar_term(c, i) for i in range(n, 0, -1)]
        top = scalar_term(c, n + 1)
        for z in [0, top - 1, *(rng.randrange(top) for _ in range(20))]:
            assert greedy_count(z, terms) == sum(greedy_digits(z, terms)[0]), (coeffs, n, z)


def test_sampled_mode_makes_no_greedy_expansion_per_draw(monkeypatch):
    # each accepted draw is counted by one digit-free greedy walk for weakly
    # decreasing c, by one capped walk (`legal_digits`) for other c, and a
    # rejected draw by none
    calls, capped_calls = [], []

    def counted(z, terms):
        calls.append(z)
        return greedy_count(z, terms)

    def capped(coefficients, z, terms):
        capped_calls.append(z)
        return legal_digits(coefficients, z, terms)
    monkeypatch.setattr(analytics, "greedy_count", counted)
    monkeypatch.setattr(analytics, "legal_digits", capped)
    for c, n, walks in [(FIB, 30, calls), (C211, 200, calls),
                        (RecurrenceVector((1, 3, 1), relaxed=True), 40, capped_calls)]:
        calls.clear()
        capped_calls.clear()
        stats = summand_distribution(c, n, mode="sampled", size=50, seed=7)
        assert stats.size == 50
        assert len(walks) == 50 and len(calls) + len(capped_calls) == 50, (c, n)


# -- one grammar on both sides ---------------------------------------------------

GRAMMAR_RELAXED = RELAXED_SMALL + [(1, 2, 2, 1), (1, 0, 2, 1)]
BENCH_STRICT = [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]


def small_windows(c):
    """n <= 9 with X_{n+1} <= 20,000."""
    return [n for n in range(1, 10) if scalar_term(c, n + 1) <= 20_000]


@pytest.mark.parametrize("coeffs", GRAMMAR_RELAXED + BENCH_STRICT,
                         ids=lambda cs: ",".join(map(str, cs)))
def test_exact_window_is_the_shells_digit_sums(coeffs):
    # the vectors of shell n and the integers of window n are counted by the
    # same satisfying strings, for every c
    c = RecurrenceVector(coeffs, relaxed=coeffs in GRAMMAR_RELAXED)
    windows = small_windows(c)
    assert windows
    for n in windows:
        shell = {}
        for _first, a in support_shell(c, n).members.values():
            shell[sum(a)] = shell.get(sum(a), 0) + 1
        assert summand_distribution(c, n).histogram == dict(sorted(shell.items())), (coeffs, n)


@pytest.mark.parametrize("coeffs", GRAMMAR_RELAXED, ids=lambda cs: ",".join(map(str, cs)))
def test_legal_decompose_follows_the_enumerators_order(coeffs):
    # the z-th satisfying string of support at most n, its positions read
    # from n down to 1 (so the enumerator's trailing zeros lead), is the
    # digit string of z with its leading zeros dropped
    c = RecurrenceVector(coeffs, relaxed=True)
    for n in [0] + small_windows(c):
        strings = enumerate_representations(c, n)
        assert len(strings) == scalar_term(c, n + 1)
        for z, a in enumerate(strings):
            digits = tuple(a) + (0,) * (n - len(a))
            assert legal_decompose(c, z) == digits[next((i for i, d in enumerate(digits) if d),
                                                        n):], (coeffs, n, z)


def test_exact_series_holds_k_histograms():
    c = RecurrenceVector((2, 1, 1))
    cap = scalar_term(c, 401)
    tracemalloc.start()
    try:
        for stats in exact_series(c, 1, 400, cap=cap):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.n == 400
    assert peak < 1_000_000, peak
