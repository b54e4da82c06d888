"""A certificate that greedy scalar decompositions use the fewest summands.

The paper carries summand minimality over from scalar PLRS, where greedy
decompositions use the fewest summands (Cordwell, Hlavacek, Huynh, Miller,
Peterson and Vu, Res. Number Theory 2018).  For coins X_1 < ... < X_b,
Pearson's test (Oper. Res. Lett. 33, 2005) finds the smallest amount on
which greedy change-making uses more coins than needed, or shows there is
none, from O(b^2) candidates: so greedy is optimal for every amount when no
candidate is a counterexample.  The breadth-first oracle behind `minimality`
stops at supports of 5-8; this test reaches 60 terms.
"""

from itertools import product

import pytest

from zeckvec import RecurrenceVector, legal_decompose
from zeckvec.recurrence import scalar_terms

# every weakly decreasing c with k <= 5 and c1 <= 4 (69 of them)
STRICT = [c for k in range(2, 6) for c in product(range(4, 0, -1), repeat=k)
          if c[-1] == 1 and all(x >= y for x, y in zip(c, c[1:]))]
# relaxed c and the smallest amount on which their greedy is not optimal
RELAXED = {(1, 3, 1): 18, (1, 2, 1): 30, (2, 3, 1): 120, (1, 4, 2, 1): 417,
           (1, 1, 2, 1): 54, (1, 0, 1): 18, (2, 0, 0, 1): 77}
CROSS_CHECKED = [(1, 1), (2, 1), (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (4, 2, 1),
                 (3, 3, 2, 1)] + list(RELAXED)


def coin_terms(coeffs, b):
    """X_b, ..., X_1: the coins, largest first."""
    return scalar_terms(coeffs, b + 1)[b:0:-1]


def greedy_count(w, coins):
    count = 0
    for x in coins:
        q, w = divmod(w, x)
        count += q
    return count


def pearson_counterexample(coins, count):
    """The smallest amount w with count(w) above the fewest coins that make
    w, or None if there is none; count(w) must be greedy's coin count.

    coins run from the largest down to 1.  Pearson's theorem: the smallest
    counterexample's fewest-coin representation agrees with the greedy
    representation G of coins[i-1] - 1 before some position j >= i, holds
    G[j] + 1 at j and nothing after it.  So the O(b^2) candidates (i, j)
    decide every amount.
    """
    best = None
    for i in range(1, len(coins)):
        rest, g = coins[i - 1] - 1, []
        for x in coins:
            q, rest = divmod(rest, x)
            g.append(q)
        w = size = 0             # the value and coin count of G before j
        for j in range(i, len(coins)):
            w_j, size_j = w + (g[j] + 1) * coins[j], size + g[j] + 1
            if (best is None or w_j < best) and count(w_j) > size_j:
                best = w_j
            w, size = w + g[j] * coins[j], size + g[j]
    return best


def fewest_coins(coins, stop):
    """The fewest of coins (ending in 1) that make each amount below stop."""
    best = list(range(stop))
    for x in coins[:-1]:
        for w in range(x, stop):
            if best[w - x] + 1 < best[w]:
                best[w] = best[w - x] + 1
    return best


def dp_counterexample(coins):
    """The smallest amount on which greedy is not optimal, by dynamic
    programming over every amount below the two largest coins' sum, where
    a smallest counterexample lies if there is one (Kozen and Zaks, 1994)."""
    stop = coins[0] + coins[1]
    best = fewest_coins(coins, stop)
    return next((w for w in range(stop) if greedy_count(w, coins) > best[w]), None)


@pytest.mark.parametrize("coeffs", STRICT, ids=str)
def test_legal_decompose_uses_the_fewest_summands_below_x_61(coeffs):
    # Pearson's candidates over X_60..X_1 all lie below X_61, where
    # `legal_decompose` is greedy over these very coins, so no candidate
    # beating it certifies its digit sum minimal for every amount below X_61
    c = RecurrenceVector(coeffs)
    top = scalar_terms(coeffs, 62)[61]

    def count(w):
        assert w < top, w
        return sum(legal_decompose(c, w))

    assert pearson_counterexample(coin_terms(coeffs, 60), count) is None


@pytest.mark.parametrize("coeffs", list(RELAXED), ids=str)
def test_relaxed_greedy_is_beaten_first_at_the_known_amount(coeffs):
    w, xs = RELAXED[coeffs], coin_terms(coeffs, 60)
    assert pearson_counterexample(xs, lambda x: greedy_count(x, xs)) == w
    # the terms up to w are every coin that can make an amount up to w
    usable = [x for x in xs if x <= w]
    best = fewest_coins(usable, w + 1)
    assert greedy_count(w, xs) > best[w]
    assert all(greedy_count(x, xs) == best[x] for x in range(w))


@pytest.mark.parametrize("coeffs", CROSS_CHECKED, ids=str)
def test_pearson_agrees_with_the_dp(coeffs):
    checked = 0
    for b in range(3, 15):
        xs = coin_terms(coeffs, b)
        if xs[0] + xs[1] > 3000:
            break
        assert pearson_counterexample(xs, lambda w: greedy_count(w, xs)) == dp_counterexample(xs), b
        checked += 1
    assert checked >= 4
