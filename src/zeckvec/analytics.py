"""Summand-count statistics over the scalar windows and minimality checking.

For weakly decreasing c the number of summands of a vector in shell n
equals the number of summands of its scalar image, so distributions are
computed on the integer interval [X_n, X_{n+1}) directly: exactly from the
digit-sum histograms of the prefixes [0, X_{m+1}), each built from smaller
ones by a greedy walk that stops where its remainder repeats (O(k n^2) list
additions up to window n, within the enumeration cap), or by seeded uniform
sampling.  Moments use population (biased) estimators.  For other c both
modes count the same greedy digit sums, which need not be the shell's:
greedy digits are not always satisfying strings, and at n = 6 the exact
histogram differs from the digit sums of `support_shell` for (1,3,1) and
(1,2,1), though it agrees for (1,0,1).

The summand count of an integer is the digit sum of its legal decomposition,
with multiplicity, as in `bridge.summand_count`: 5 = X_2 + X_1 + X_1 counts
3, not 2.  Sampled mode counts it by the same greedy walk without building
the digits (`recurrence.greedy_count`).  Its distribution over a window
tends to a Gaussian as n grows.  That is a limit in n, not a bound at a
fixed window: for c = (2,1,1) the skewness is still about -0.22 at n = 24
and shrinks like n^(-1/2).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, zip_longest
from operator import add
from typing import Optional

from .bridge import DEFAULT_ENUMERATION_CAP, _check_cap
from .errors import OracleExhaustedError, _at_least
from .normalize import decompose
from .recurrence import RecurrenceVector, greedy_count

GOLDEN_RATIO = (1 + 5 ** 0.5) / 2
FIBONACCI_MEAN_SLOPE = 1 / (GOLDEN_RATIO ** 2 + 1)   # 0.2763932...


@dataclass
class SummandStats:
    """Moments of the summand count (digit sum, with multiplicity) over one window.

    The shape moments approach those of a Gaussian only in the limit of
    large n; at any fixed window they are those of that window.
    """
    n: int
    mode: str                  # "exact" | "sampled"
    size: int                  # number of outcomes counted
    seed: Optional[int]
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    histogram: dict            # summand count -> frequency


def _moments(histogram: dict):
    """(size, mean, variance, skewness, excess kurtosis) of a histogram.

    Float central moments, as always, unless they would overflow (counts
    beyond the float range): then exact integer power sums give the moments
    as Fractions, rounded to floats at the end.
    """
    size = sum(histogram.values())
    try:
        mean = sum(k * f for k, f in histogram.items()) / size
        m2 = sum(f * (k - mean) ** 2 for k, f in histogram.items()) / size
        m3 = sum(f * (k - mean) ** 3 for k, f in histogram.items()) / size
        m4 = sum(f * (k - mean) ** 4 for k, f in histogram.items()) / size
        if not math.isfinite(m2 + abs(m3) + m4):
            raise OverflowError
    except OverflowError:
        s1, s2, s3, s4 = (Fraction(sum(f * k ** r for k, f in histogram.items()), size)
                          for r in range(1, 5))
        mean = float(s1)
        m2 = float(s2 - s1 ** 2)
        m3 = float(s3 - 3 * s1 * s2 + 2 * s1 ** 3)
        m4 = float(s4 - 4 * s1 * s3 + 6 * s1 ** 2 * s2 - 3 * s1 ** 4)
    if m2 > 0:
        skew = m3 / m2 ** 1.5
        kurt = m4 / (m2 * m2) - 3.0
    else:
        skew = 0.0
        kurt = 0.0
    return size, mean, m2, skew, kurt


def _prefix_histograms(c: RecurrenceVector):
    """Yield hists[0], hists[1], ...: hists[m][s] counts the integers in
    [0, X_{m+1}) with digit sum s.

    A digit string is a greedy expansion exactly when every tail is worth
    less than the next term up, so the greedy digits g of X_{m+1} - 1 (m of
    them, leading first) bound every smaller value: each agrees with g above
    some position i, has a digit d < g_i at i, and below i any greedy string
    of i - 1 digits.  Each such choice adds hists[i - 1] shifted by the
    digit sum above i plus d.

    Step m walks g from X_m down and stops at the first position i whose
    remainder is X_i - 1.  The rest of the walk and the final value are then
    those of X_i - 1 itself, which hists[i - 1] already counts, so the step
    adds hists[i - 1] once more, shifted by the digit sum down to i.  Every
    walk stops by X_1, where the remainder is 0 = X_1 - 1 and hists[0] = [1]
    counts X_{m+1} - 1 at sum(g).  The test is exact for every c.  For
    weakly decreasing c the walk stops after the first chunk (at most k
    digits), which gives the chunk recurrence
    hists[m] = sum_j q^(s_j) [c_{j+1}]_q hists[m - 1 - j] of the generating
    functions, so hists[0..n] take O(k n^2) list additions.  The lists live
    in the generator alone, so nothing is held on c.
    """
    seq = c.scalar()
    terms = [1, 1]   # terms[i] = X_i, from X_0 = X_1 = 1
    hists = [[1]]
    yield hists[0]
    for m in count(1):
        terms.append(seq.term(m + 1))
        z = terms[m + 1] - 1
        out = []
        above = 0
        for i in range(m, 0, -1):
            x = terms[i]
            digit = 0
            while z >= x:
                z -= x
                digit += 1
            # one shifted copy of hists[i - 1] per unit of the digit, and
            # one more at the cut
            stop = z == x - 1
            lower = hists[i - 1]
            for base in range(above, above + digit + stop):
                end = base + len(lower)
                if end > len(out):
                    out.extend([0] * (end - len(out)))
                out[base:end] = map(add, out[base:end], lower)
            if stop:
                break
            above += digit
        hists.append(out)
        yield out


def _window_stats(n: int, below: list, upto: list) -> SummandStats:
    """Exact SummandStats of [X_n, X_{n+1}) from hists[n - 1] and hists[n]."""
    window = zip_longest(upto, below, fillvalue=0)
    # Keys ascend.  That is also the order in which a walk up the window
    # first meets them (the smallest value with digit sum s + 1, its last
    # nonzero digit lowered, is a smaller value with sum s).  _moments adds
    # floats in key order, so this order fixes the last bits of the moments.
    histogram = {s: f - b for s, (f, b) in enumerate(window) if f != b}
    total, mean, var, skew, kurt = _moments(histogram)
    return SummandStats(n, "exact", total, None, mean, var, skew, kurt, histogram)


def exact_series(c: RecurrenceVector, n_min: int, n_max: int,
                 cap: int = DEFAULT_ENUMERATION_CAP):
    """Yield `summand_distribution(c, n, "exact", cap=cap)` for n = n_min ..
    n_max in turn, building the prefix histograms once for the whole series.

    Each window's cap is checked when the window is reached, so the windows
    before the first one beyond the cap are yielded first.
    """
    _at_least(n_min, 1, "window index")
    hists = _prefix_histograms(c)
    below = upto = next(hists)
    built = 0
    for n in range(n_min, n_max + 1):
        _check_cap(c, n, cap, "exact window %d needs X_%d = {x}, which exceeds cap {cap}"
                   % (n, n + 1))
        while built < n:
            below, upto = upto, next(hists)
            built += 1
        yield _window_stats(n, below, upto)


def summand_distribution(c: RecurrenceVector, n: int, mode: str = "exact",
                         size: Optional[int] = None, seed: Optional[int] = None,
                         cap: int = DEFAULT_ENUMERATION_CAP) -> SummandStats:
    """Distribution of the summand count over the window [X_n, X_{n+1}).

    The summand count of a value is the digit sum of `legal_decompose`, with
    multiplicity, as in `bridge.summand_count`.  Exact mode counts every
    integer in the window without visiting them, from the digit-sum
    histograms of [0, X_{m+1}) for m <= n, each built from smaller ones by
    the greedy walk of X_{m+1} - 1 cut where its remainder repeats (see
    `_prefix_histograms`).  It requires X_{n+1} within the cap, which binds
    exact mode only; the cost is O(k n^2) list additions for weakly
    decreasing c, not a power of the width.  Sampled mode never reads the
    cap.  It draws uniformly with an explicit seed; draws come from the bit
    length of the window width with rejection, so runs are exactly
    reproducible.  It counts each draw's summands by the greedy walk of
    `legal_decompose` without building the digits: every draw lies in
    [X_n, X_{n+1}), so every walk runs over the same terms X_n, ..., X_1.
    The distribution is Gaussian only as a limit in n: skewness and excess
    kurtosis shrink toward 0 as the window grows, but need not be small at
    any fixed n.
    """
    _at_least(n, 1, "window index")
    if mode == "exact":
        return next(exact_series(c, n, n, cap))
    if mode != "sampled":
        raise ValueError("mode must be 'exact' or 'sampled'")
    if size is None or size <= 0:
        raise ValueError("sampled mode needs a positive size")
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")
    seq = c.scalar()
    lo = seq.term(n)
    width = seq.term(n + 1) - lo
    terms = seq.descending(n)
    rng = random.Random(seed)
    bits = width.bit_length()
    histogram = {}
    drawn = 0
    while drawn < size:
        r = rng.getrandbits(bits)
        if r >= width:
            continue
        key = greedy_count(lo + r, terms)
        histogram[key] = histogram.get(key, 0) + 1
        drawn += 1
    total, mean, var, skew, kurt = _moments(histogram)
    return SummandStats(n, mode, total, seed, mean, var, skew, kurt,
                        dict(sorted(histogram.items())))


def _least_squares(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


@dataclass
class GaussianReport:
    mean_fit: LinearFit
    variance_fit: LinearFit
    per_n: list                       # (n, mean, variance, skewness, excess_kurtosis)
    lekkerkerker: Optional[dict]      # slope vs 1/(phi^2+1) for the Fibonacci case


def gaussian_diagnostics(c: RecurrenceVector, stats: list) -> GaussianReport:
    """Linear growth fits of mean and variance plus per-window shape moments."""
    if len(stats) < 3:
        raise ValueError("need at least 3 windows to fit")
    xs = [s.n for s in stats]
    if len(set(xs)) < 2:
        raise ValueError("the fit needs windows at two or more n")
    mean_fit = LinearFit(*_least_squares(xs, [s.mean for s in stats]))
    var_fit = LinearFit(*_least_squares(xs, [s.variance for s in stats]))
    per_n = [(s.n, s.mean, s.variance, s.skewness, s.excess_kurtosis) for s in stats]
    lekker = None
    if c.coefficients == (1, 1):
        lekker = {
            "slope": mean_fit.slope,
            "target": FIBONACCI_MEAN_SLOPE,
            "deviation": abs(mean_fit.slope - FIBONACCI_MEAN_SLOPE),
        }
    return GaussianReport(mean_fit, var_fit, per_n, lekker)


@dataclass
class MinimalityResult:
    sr_count: int
    oracle_min: int
    minimal: bool
    explored: int


def check_minimality(c: RecurrenceVector, v, support_bound: Optional[int] = None,
                     node_cap: int = 1_000_000) -> MinimalityResult:
    """Compare the satisfying string's mass with a breadth-first oracle.

    The oracle searches sums of basis terms X_{-i} (i up to the support
    bound), one summand per level, deduplicating visited vectors, and finds
    the true minimum summand count within the bounded support space.  The
    search is c's held one for this support bound (`RecurrenceVector.search`),
    grown only as far as this call needs.  So `explored` is the count at
    which a search from the origin reaches v (v's 0-based discovery index),
    whichever calls built the levels.  OracleExhaustedError is raised when
    a level from the first up to the one before v's ends past node_cap
    nodes, or when no string of sr_count summands reaches v.
    """
    if support_bound is not None:
        _at_least(support_bound, 1, "support bound")
    v = tuple(map(int, v))
    sr = decompose(c, v)
    sr_count = sum(sr)   # decompose returns a canonical string
    if support_bound is None:
        support_bound = len(sr) + c.k
    if sr_count == 0:
        return MinimalityResult(0, 0, True, 1)
    search = c.search(support_bound)
    depth = search.reach(v, sr_count, node_cap)
    if depth is None:
        raise OracleExhaustedError("minimality search exceeded %d nodes" % node_cap)
    if depth > sr_count:
        raise OracleExhaustedError(
            "no representation with support <= %d found within %d summands"
            % (support_bound, sr_count))
    return MinimalityResult(sr_count, depth, depth == sr_count, search.index[v])


# -- reproducible exports -----------------------------------------------------

def stats_json_text(c: RecurrenceVector, stats: list) -> str:
    records = []
    for s in stats:
        records.append({
            "c": list(c.coefficients),
            "n": s.n,
            "mode": s.mode,
            "seed": s.seed,
            "mean": s.mean,
            "variance": s.variance,
            "skewness": s.skewness,
            "excess_kurtosis": s.excess_kurtosis,
            "histogram": {str(k): f for k, f in s.histogram.items()},
        })
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def series_csv_text(stats: list) -> str:
    lines = ["n,mean,variance"]
    for s in stats:
        lines.append("%d,%.6g,%.6g" % (s.n, s.mean, s.variance))
    return "\n".join(lines) + "\n"
