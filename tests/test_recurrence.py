import copy
import itertools
import math
import pickle
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from zeckvec import (InvalidRecurrenceError, RecurrenceVector, VectorSequence,
                     check_minimality, legal_decompose, scalar_term, support_region,
                     vector_term)
from zeckvec.bridge import _check_cap
from zeckvec.errors import CapExceededError
from zeckvec.recurrence import (BLOCK, _Blocks, _held_blocks, backward_column, column_weights,
                                extend, scalar_terms, string_value)

from column_oracle import column_value

TRIBONACCI = RecurrenceVector((1, 1, 1))
CUSTOM = RecurrenceVector((2, 1, 1))


def strict_recurrences():
    """Weakly decreasing coefficient tuples ending in 1."""
    def build(draw_head):
        return tuple(sorted(draw_head, reverse=True)) + (1,)
    return st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4).map(build)


def test_known_sequences():
    assert [scalar_term(TRIBONACCI, n) for n in range(1, 8)] == [1, 2, 4, 7, 13, 24, 44]
    assert [scalar_term(CUSTOM, n) for n in range(1, 7)] == [1, 3, 8, 20, 51, 130]


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (2, 1, 1), (4, 2, 1), (3, 3, 2, 1)])
def test_first_term_is_one(coeffs):
    assert scalar_term(RecurrenceVector(coeffs), 1) == 1


def test_backward_extension_forces_one_at_zero():
    for coeffs in [(1, 1), (2, 1, 1), (4, 2, 1), (3, 3, 2, 1)]:
        assert scalar_term(RecurrenceVector(coeffs), 0) == 1


def test_strictly_increasing():
    for coeffs in [(1, 1), (1, 1, 1), (2, 1, 1), (4, 2, 1)]:
        c = RecurrenceVector(coeffs)
        terms = [scalar_term(c, n) for n in range(1, 30)]
        assert all(a < b for a, b in zip(terms, terms[1:]))


def test_negative_index_vectors_match_worked_example():
    expected = [(1, 0), (0, 1), (-2, -1), (3, -1), (1, 4),
                (-9, -3), (10, -6), (9, 16), (-38, -7)]
    assert [vector_term(CUSTOM, -i) for i in range(1, 10)] == expected


def test_vector_bases():
    for coeffs in [(1, 1), (2, 1, 1), (3, 3, 2, 1)]:
        c = RecurrenceVector(coeffs)
        dim = c.k - 1
        assert vector_term(c, 0) == (0,) * dim
        for i in range(1, c.k):
            assert vector_term(c, -i) == tuple(1 if d == i - 1 else 0 for d in range(dim))


def test_first_forward_vector():
    # X_1 = c1*0 + c2*e1 + ... = (c2, ..., ck)
    assert vector_term(CUSTOM, 1) == (1, 1)
    c = RecurrenceVector((3, 3, 2, 1))
    assert vector_term(c, 1) == (3, 2, 1)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (2, 1, 1), (4, 2, 1), (3, 3, 2, 1)])
def test_recurrence_identity_both_directions(coeffs):
    c = RecurrenceVector(coeffs)
    k = c.k
    dim = k - 1
    for n in range(-30, 31):
        lhs = vector_term(c, n)
        rhs = [0] * dim
        for i in range(k):
            term = vector_term(c, n - 1 - i)
            for d in range(dim):
                rhs[d] += c.coefficients[i] * term[d]
        assert lhs == tuple(rhs), (coeffs, n)


def test_backward_equation_matches_forward_values():
    c = CUSTOM
    k = c.k
    for n in range(-25, 20):
        lhs = vector_term(c, n)
        rhs = list(vector_term(c, n + k))
        for i in range(1, k):
            term = vector_term(c, n + k - i)
            for d in range(k - 1):
                rhs[d] -= c.coefficients[i - 1] * term[d]
        assert lhs == tuple(rhs)


def test_scalar_backward_equation():
    for coeffs in [(1, 1), (2, 1, 1), (4, 2, 1)]:
        c = RecurrenceVector(coeffs)
        k = c.k
        for n in range(-20, 20):
            lhs = scalar_term(c, n)
            rhs = scalar_term(c, n + k) - sum(
                c.coefficients[i - 1] * scalar_term(c, n + k - i) for i in range(1, k))
            assert lhs == rhs


@pytest.mark.parametrize("coeffs,relaxed", [
    ((5,), False), ((0, 1), False), ((2, -1, 1), False),
    ((2, 1, 2), False), ((2, 1, 2), True), ((1, 3, 1), False),
])
def test_constructor_rejects_bad_vectors(coeffs, relaxed):
    if coeffs == (1, 3, 1) and not relaxed:
        with pytest.raises(InvalidRecurrenceError):
            RecurrenceVector(coeffs, relaxed=relaxed)
        return
    if coeffs == (2, 1, 2):
        with pytest.raises(InvalidRecurrenceError):
            RecurrenceVector(coeffs, relaxed=relaxed)
        return
    with pytest.raises(InvalidRecurrenceError):
        RecurrenceVector(coeffs, relaxed=relaxed)


def test_relaxed_mode_admits_increasing_vectors():
    c = RecurrenceVector((1, 3, 1), relaxed=True)
    assert not c.weakly_decreasing
    assert scalar_term(c, 1) == 1


@settings(max_examples=40, deadline=None)
@given(strict_recurrences(), st.integers(min_value=-15, max_value=15))
def test_identity_random_strict(coeffs, n):
    c = RecurrenceVector(coeffs)
    k = c.k
    rhs = [0] * (k - 1)
    for i in range(k):
        term = vector_term(c, n - 1 - i)
        for d in range(k - 1):
            rhs[d] += coeffs[i] * term[d]
    assert vector_term(c, n) == tuple(rhs)


# -- independent oracles for the list-backed term code -------------------------

# every strict recurrence with k <= 5 and c1 <= 4 (69 of them), plus two relaxed
STRICT_ALL = [head + (1,) for k in range(2, 6)
              for head in itertools.combinations_with_replacement(range(4, 0, -1), k - 1)]
RELAXED = [(1, 3, 1), (1, 2, 1)]


def tuple_terms(coeffs, seeds, lo, hi):
    """Terms lo..hi of the two-sided tuple recurrence from k consecutive seeds.

    seeds maps k consecutive indices to tuples; the loop steps one index at a
    time in each direction with per-coordinate sums, as a dict of tuples.
    """
    k = len(coeffs)
    cache = dict(seeds)
    top = max(cache)
    bottom = min(cache)
    dim = len(cache[top])
    for m in range(top + 1, hi + 1):
        acc = [0] * dim
        for i in range(k):
            prev = cache[m - 1 - i]
            for j in range(dim):
                acc[j] += coeffs[i] * prev[j]
        cache[m] = tuple(acc)
    for m in range(bottom - 1, lo - 1, -1):
        acc = list(cache[m + k])
        for i in range(k - 1):
            prev = cache[m + k - 1 - i]
            for j in range(dim):
                acc[j] -= coeffs[i] * prev[j]
        cache[m] = tuple(acc)
    return cache


def oracle_vectors(coeffs, lo, hi):
    k = len(coeffs)
    seeds = {-i: tuple(int(d == i - 1) for d in range(k - 1)) for i in range(k)}
    return tuple_terms(coeffs, seeds, lo, hi)


def oracle_scalars(coeffs, lo, hi):
    xs = {1: 1}
    for n in range(2, len(coeffs) + 1):
        xs[n] = sum(coeffs[i] * xs[n - 1 - i] for i in range(n - 1)) + 1
    cache = tuple_terms(coeffs, {n: (x,) for n, x in xs.items()}, lo, hi)
    return {n: x for (n, (x,)) in cache.items()}


@pytest.mark.parametrize("coeffs,relaxed", [(c, False) for c in STRICT_ALL]
                         + [(c, True) for c in RELAXED])
def test_terms_match_tuple_oracle(coeffs, relaxed):
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    vectors = oracle_vectors(coeffs, -40, 40)
    scalars = oracle_scalars(coeffs, -40, 40)
    # alternate directions so both lists grow in several steps
    for n in sorted(range(-40, 41), key=lambda n: (abs(n), n)):
        assert vector_term(c, n) == vectors[n], (coeffs, n)
        assert scalar_term(c, n) == scalars[n], (coeffs, n)
    # a seeded shuffle on a fresh c: both lists grow in interleaved steps
    # of every size through the one lookup
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    order = list(range(-40, 41))
    random.Random(len(coeffs) + 10 * sum(coeffs)).shuffle(order)
    for n in order:
        assert vector_term(c, n) == vectors[n], (coeffs, n)
        assert scalar_term(c, n) == scalars[n], (coeffs, n)


def greedy_oracle(xs, value):
    """(max index, digits) by a linear scan over the term list xs (xs[n] = X_n)."""
    top = 1
    while xs[top + 1] <= value:
        top += 1
    if not value:
        return top, ()
    digits = []
    for idx in range(top, 0, -1):
        q, value = divmod(value, xs[idx])
        digits.append(q)
    return top, tuple(digits)


def capped_oracle(coeffs, xs, value):
    """(max index, digits) by a linear scan over xs that caps each digit by
    the scanner's rule: after j digits of the current chunk equal c1..cj,
    the next one is at most c_{j+1}, and below c_k when j = k - 1, since a
    full copy of c does not satisfy; a digit equal to c_{j+1} extends the
    chunk and a smaller one closes it."""
    top, _ = greedy_oracle(xs, value)
    if not value:
        return top, ()
    digits, j, k = [], 0, len(coeffs)
    for idx in range(top, 0, -1):
        q = min(value // xs[idx], coeffs[j] if j < k - 1 else coeffs[j] - 1)
        value -= q * xs[idx]
        digits.append(q)
        j = j + 1 if q == coeffs[j] else 0
    assert value == 0, (coeffs, digits)
    return top, tuple(digits)


def legal_oracle(coeffs, relaxed, xs, value):
    """The strict rows' greedy scan, the relaxed rows' capped scan."""
    return capped_oracle(coeffs, xs, value) if relaxed else greedy_oracle(xs, value)


def assert_max_index(c, value, top):
    """max_index_at_most(value) is the oracle's top for value >= 1; no term
    is at most 0 (X_0 = X_1 = 1), so value 0 is refused."""
    if value:
        assert c.scalar().max_index_at_most(value) == top, (c, value)
    else:
        with pytest.raises(ValueError):
            c.scalar().max_index_at_most(value)


def test_legal_decompose_matches_linear_scan():
    rng = random.Random(2000)
    cases = [(coeffs, False) for coeffs in STRICT_ALL] + [(coeffs, True) for coeffs in RELAXED]
    tables = {}
    for coeffs, relaxed in cases:
        c = RecurrenceVector(coeffs, relaxed=relaxed)
        scalars = oracle_scalars(coeffs, 0, 62)
        xs = [scalars[n] for n in range(63)]
        tables[coeffs] = c, xs
        values = {0, 1}
        for n in range(1, 61):
            values.update((xs[n], xs[n] - 1, xs[n + 1] - 1))
        for value in sorted(values):
            top, digits = legal_oracle(coeffs, relaxed, xs, value)
            assert legal_decompose(c, value) == digits, (coeffs, value)
            assert_max_index(c, value, top)
    for _ in range(2000):
        c, xs = tables[rng.choice(cases)[0]]
        value = rng.randrange(xs[rng.randint(1, 60)])
        top, digits = legal_oracle(c.coefficients, c.relaxed, xs, value)
        assert legal_decompose(c, value) == digits, (c, value)
        assert_max_index(c, value, top)


# the benchmark's five strict c, and relaxed c whose greedy digits can exceed c1
GREEDY_WIDE = [((1, 1), False), ((1, 1, 1), False), ((2, 1, 1), False), ((3, 2, 1), False),
               ((4, 2, 1), False), ((1, 3, 1), True), ((1, 2, 1), True), ((2, 3, 1), True),
               ((1, 4, 2, 1), True)]


@pytest.mark.parametrize("coeffs,relaxed", GREEDY_WIDE)
def test_legal_decompose_matches_linear_scan_on_wide_windows(coeffs, relaxed):
    # windows n in [200, 1000], the sizes sampled summand statistics draw from
    rng = random.Random(1000 + len(coeffs) + 10 * sum(coeffs))
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    scalars = oracle_scalars(coeffs, 0, 1002)
    xs = [scalars[n] for n in range(1003)]
    for n in [200, 1000] + [rng.randint(200, 1000) for _ in range(10)]:
        for value in (xs[n], xs[n + 1] - 1, rng.randrange(xs[n], xs[n + 1]),
                      rng.randrange(xs[n], xs[n + 1])):
            top, digits = legal_oracle(coeffs, relaxed, xs, value)
            assert legal_decompose(c, value) == digits, (coeffs, n, value)
            assert len(digits) == top


# -- the sequences' own accessors to their held terms --------------------------

HELD_CASES = [(c, False) for c in STRICT_ALL] + [((1, 3, 1), True)]


@pytest.mark.parametrize("coeffs,relaxed", HELD_CASES)
def test_descending_is_the_terms_from_n_down_to_1(coeffs, relaxed):
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    scalars = oracle_scalars(coeffs, 0, 60)
    for n in range(61):
        want = [scalar_term(c, i) for i in range(n, 0, -1)]
        assert want == [scalars[i] for i in range(n, 0, -1)]
        fresh = RecurrenceVector(coeffs, relaxed=relaxed)
        got = fresh.scalar().descending(n)
        assert got == want, (coeffs, n)
        # the held terms reach X_n and no further, and the list is a new one
        assert len(fresh.scalar()._up) == max(n + 1, len(coeffs) + 1)
        got.append(0)
        assert fresh.scalar().descending(n) == want
    # falling n on one recurrence: the first call grows, the rest only read
    held = RecurrenceVector(coeffs, relaxed=relaxed).scalar()
    for n in range(60, -1, -1):
        assert held.descending(n) == [scalars[i] for i in range(n, 0, -1)]
        assert len(held._up) == 61
    with pytest.raises(ValueError):
        held.descending(-1)


def _cap_check_loop(c, n, cap):
    """The bounded loop `_check_cap` ran on c's held scalar list before the
    sequence owned it: True when X_{n+1} <= cap."""
    up = c.scalar()._up
    while len(up) <= n + 1 and up[-1] <= cap:
        extend(up, c.coefficients, len(up) + 1)
    return up[min(n + 1, len(up) - 1)] <= cap


@pytest.mark.parametrize("coeffs,relaxed", HELD_CASES)
def test_term_at_most_grows_the_terms_as_the_cap_check_did(coeffs, relaxed):
    # every call on a fresh c: the verdict, the term and the held length
    # after the call match the loop's, at the edge caps and far above them
    scalars = oracle_scalars(coeffs, 0, 31)
    for n in range(31):
        x = scalars[n + 1]
        for cap in (0, 1, x - 1, x, 2 ** 100000):
            loop, seq, checked = (RecurrenceVector(coeffs, relaxed=relaxed) for _ in range(3))
            admitted = _cap_check_loop(loop, n, cap)
            assert seq.scalar().term_at_most(n + 1, cap) == (x if admitted else None)
            if admitted:
                assert _check_cap(checked, n, cap, "{x} > {cap}") == x
            else:
                with pytest.raises(CapExceededError, match="^%d > %d$" % (x, cap)):
                    _check_cap(checked, n, cap, "{x} > {cap}")
            held = len(loop.scalar()._up)
            assert len(seq.scalar()._up) == held == len(checked.scalar()._up), (n, cap)


REFUSAL_CASES = [((1, 1), False), ((2, 1, 1), False), ((3, 3, 2, 1), False), ((1, 3, 1), True)]


@pytest.mark.parametrize("coeffs,relaxed", REFUSAL_CASES)
def test_term_at_most_refuses_negative_indices(coeffs, relaxed):
    # a negative n once read the held list from its end: for (2,1,1),
    # term_at_most(-1, 10**9) gave 8 where X_{-1} = 0
    seq = RecurrenceVector(coeffs, relaxed=relaxed).scalar()
    held = list(seq._up), list(seq._down)
    for n in (-1, -3, -40):
        with pytest.raises(ValueError):
            seq.term_at_most(n, 10 ** 9)
    assert (seq._up, seq._down) == held
    assert seq.term_at_most(0, 10 ** 9) == 1


@pytest.mark.parametrize("coeffs,relaxed", REFUSAL_CASES)
def test_max_index_at_most_refuses_values_below_one(coeffs, relaxed):
    # X_0 = X_1 = 1, so no term is at most 0; the lookup once answered 1
    seq = RecurrenceVector(coeffs, relaxed=relaxed).scalar()
    held = list(seq._up), list(seq._down)
    for value in (0, -1, -10 ** 9):
        with pytest.raises(ValueError):
            seq.max_index_at_most(value)
    assert (seq._up, seq._down) == held
    assert seq.max_index_at_most(1) == 1


@pytest.mark.parametrize("coeffs,relaxed", HELD_CASES + [((1, 4, 2, 1), True)])
def test_basis_looks_up_each_column_entry_once(monkeypatch, coeffs, relaxed):
    # X_{-1}..X_{-d} read the d + k - 2 entries t_{-1}..t_{2-d-k} of the
    # column, k - 1 each from their own index down: one lookup per entry,
    # where a lookup per term and coordinate took (k - 1) d
    k = len(coeffs)
    calls = []
    at = VectorSequence._at
    monkeypatch.setattr(VectorSequence, "_at", lambda seq, n: calls.append(n) or at(seq, n))
    vectors = oracle_vectors(coeffs, -40, 0)
    for d in (1, 2, k, 12, 40):
        seq = RecurrenceVector(coeffs, relaxed=relaxed).vector()
        calls.clear()
        got = seq.basis(d)
        assert sorted(calls, reverse=True) == list(range(-1, 1 - d - k, -1)), (coeffs, d)
        assert got == [seq.term(-i) for i in range(1, d + 1)]
        assert got == [vectors[-i] for i in range(1, d + 1)]


@pytest.mark.parametrize("coeffs,relaxed", [case for case in HELD_CASES if not case[1]])
def test_vector_value_reads_the_column_grown_to_the_length(coeffs, relaxed):
    # the bridge's held check gives the value of greedy-range digits as the
    # column oracle does, with the column grown to the length, and as
    # `string_value` does; it grows none of c's sequences
    rng = random.Random(sum(coeffs) + 10 * len(coeffs))
    k = len(coeffs)
    alpha = column_weights(coeffs)
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    blocks = _held_blocks(c)
    for length in (0, 1, 2, 7, 40, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1, 2000):
        a = [rng.randint(0, coeffs[0]) for _ in range(length)]
        got = blocks.value(a)
        assert got == column_value(alpha, backward_column(coeffs, length + k - 1), a), length
        assert got == string_value(coeffs, a), length
    assert (c._scalar, c._vector) == (None, None)


@pytest.mark.parametrize("coeffs", [(1, 3, 1), (1, 0, 1)])
def test_blocks_refuse_coefficients_that_are_not_weakly_decreasing(coeffs):
    # the held slot widths and the blocked greedy assume greedy digits in
    # [0, c1], which only weakly decreasing coefficients guarantee
    with pytest.raises(InvalidRecurrenceError, match="weakly decreasing"):
        _Blocks(coeffs)


def _leaf_edge_digits(rng, c1, length, edge):
    """length digits drawn from [0, c1], with edge at the first and last
    position of every leaf."""
    a = [rng.randint(0, c1) for _ in range(length)]
    for i in range(0, length, BLOCK):
        a[i] = a[min(i + BLOCK, length) - 1] = edge
    return a


@pytest.mark.parametrize("coeffs", STRICT_ALL, ids=lambda cs: ",".join(map(str, cs)))
def test_block_value_matches_the_column_oracle(coeffs):
    # one leaf (plain dots with the coordinate rows) and several (dot
    # products with the held packed columns, joined by the tree), each with
    # both ends of the greedy digit range at the leaves' edges
    rng = random.Random(",".join(map(str, coeffs)))
    alpha = column_weights(coeffs)
    blocks = _Blocks(coeffs)
    for length in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1):
        t = backward_column(coeffs, length + len(coeffs) - 1)
        for edge in (0, coeffs[0]):
            a = _leaf_edge_digits(rng, coeffs[0], length, edge)
            assert blocks.value(a) == column_value(alpha, t, a), (length, edge)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STRICT_ALL),
       st.one_of(st.integers(0, 3 * BLOCK + 1),
                 st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])),
       st.data())
def test_block_value_matches_the_column_oracle_on_drawn_strings(coeffs, length, data):
    c1 = coeffs[0]
    a = data.draw(st.lists(st.integers(0, c1), min_size=length, max_size=length))
    for i in range(0, length, BLOCK):
        a[i] = data.draw(st.sampled_from([0, c1]))
        a[min(i + BLOCK, length) - 1] = data.draw(st.sampled_from([0, c1]))
    t = backward_column(coeffs, length + len(coeffs) - 1)
    assert _Blocks(coeffs).value(a) == column_value(column_weights(coeffs), t, a)


@pytest.mark.parametrize("c1", range(1, 7))
def test_blocks_hold_the_closed_form_growth_rate_for_k_2(c1):
    # x^2 - c1 x - 1 has the root (c1 - sqrt(c1^2 + 4)) / 2 inside the unit
    # circle; the backward terms grow like its reciprocal
    want = math.log((c1 + math.sqrt(c1 * c1 + 4)) / 2)
    assert abs(_Blocks((c1, 1)).log_growth - want) <= 1e-12


def test_column_oracle_refuses_a_short_column():
    # a column short of index len(a) + k - 2 once gave a wrong sum silently
    alpha = column_weights((2, 1, 1))
    with pytest.raises(AssertionError):
        column_value(alpha, backward_column((2, 1, 1), 4), [1, 0, 1, 2, 1])
    assert column_value(alpha, backward_column((2, 1, 1), 7), [1, 0, 1, 2, 1]) == (6, 1)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1, 1), (3, 2, 1), (4, 4, 4, 4, 1)])
def test_block_value_leaves_the_constants_unchanged(coeffs):
    # long and short strings interleaved on one set of block constants give
    # the column oracle's value, and leave every slot the same object with
    # the same contents: the one-leaf strings read the coordinate rows, the
    # longer ones the packed columns.  The 17-leaf string joins at 5 tree
    # levels, so every power y^(BLOCK 2^l) mod Q it squares up to l = 4 is
    # checked through it
    rng = random.Random(len(coeffs))
    alpha = column_weights(coeffs)
    blocks = _Blocks(coeffs)
    assert {"columns", "coordinates"} <= set(_Blocks.__slots__)
    slots = [getattr(blocks, name) for name in _Blocks.__slots__]
    copies = [copy.deepcopy(value) for value in slots]
    for length in (BLOCK, 5 * BLOCK, 1, 2 * BLOCK + 1, 17 * BLOCK, 3, 9 * BLOCK, 0):
        a = [rng.randint(0, coeffs[0]) for _ in range(length)]
        t = backward_column(coeffs, length + len(coeffs) - 1)
        assert blocks.value(a) == column_value(alpha, t, a), length
        assert all(getattr(blocks, name) is value
                   for name, value in zip(_Blocks.__slots__, slots)), length
        assert slots == copies, length


def test_threads_share_one_recurrence():
    # Four threads ask one shared (2,1,1), each in its own order, for far
    # scalar and vector terms, greedy decompositions of X_n - 1 and the
    # minimality checks of D_6, with a thread switch due every microsecond.
    # Every answer, and every term held afterwards, must be that of
    # `scalar_terms` or of an object no thread touched.  The checks share
    # one support bound, so one held search serves them all.  Unguarded
    # growth gave wrong terms, hung decompositions and "generator already
    # executing" errors; a hang fails the join's deadline
    coeffs, far = (2, 1, 1), 4000
    xs = scalar_terms(coeffs, far + 1)
    alone = RecurrenceVector(coeffs)
    calls = {"scalar": scalar_term, "vector": vector_term,
             "legal": lambda c, n: legal_decompose(c, xs[n] - 1),
             "minimality": lambda c, v: check_minimality(c, v, 9)}
    tasks = ([("scalar", n) for n in range(far // 2, far + 1, far // 8)]
             + [("vector", n) for n in range(-far, far + 1, far // 4)]
             + [("legal", n) for n in range(500, 1501, 250)]
             + [("minimality", v) for v in sorted(support_region(alone, 6).vectors())])
    want = {task: calls[task[0]](alone, task[1]) for task in tasks}
    assert all(want[task] == xs[task[1]] for task in tasks if task[0] == "scalar")
    shared = RecurrenceVector(coeffs)
    got = [{} for _ in range(4)]

    def work(i):
        order = tasks[:]
        random.Random(i).shuffle(order)
        for task in order:
            try:
                got[i][task] = calls[task[0]](shared, task[1])
            except Exception as exc:
                got[i][task] = exc

    threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(4)]
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 10
        for t in threads:
            t.join(max(0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    wrong = [(task, answers[task]) for answers in got for task in tasks
             if answers[task] != want[task]]
    assert not wrong, wrong[:3]
    assert [scalar_term(shared, n) for n in range(-far, far + 1)] == \
        [scalar_term(alone, n) for n in range(-far, far + 1)]
    assert [vector_term(shared, n) for n in range(-far, far + 1)] == \
        [vector_term(alone, n) for n in range(-far, far + 1)]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda c: pickle.loads(pickle.dumps(c))])
def test_a_recurrence_copies_and_pickles_without_its_lock(clone):
    # the lock cannot be pickled; a copy is built anew from the coefficients
    c = RecurrenceVector((1, 3, 1), relaxed=True)
    scalar_term(c, 50)
    d = clone(c)
    assert d == c and d._lock is not c._lock
    assert [scalar_term(d, n) for n in range(-9, 60)] == [scalar_term(c, n) for n in range(-9, 60)]
