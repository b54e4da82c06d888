import csv
import gc
import io
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zeckvec import (BridgeDomainError, CapExceededError, RecurrenceVector,
                     ball_coverage, bridge, enumerate_representations, evaluate,
                     format_coefficients, is_satisfying, iter_representations, legal_decompose,
                     scalar_bridge, scalar_term, support_region, support_shell)
from zeckvec.analytics import exact_series
from zeckvec.bridge import _batches, regions_csv_text, regions_svg_text
from zeckvec.recurrence import scalar_window

C211 = RecurrenceVector((2, 1, 1))
FIB = RecurrenceVector((1, 1))
STRICT_VECTORS = [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]
RELAXED_VECTORS = [(1, 3, 1), (1, 0, 1), (2, 0, 0, 1)]
# every weakly decreasing c with k <= 5 and c1 <= 4 (69 of them), then relaxed c
WALK_VECTORS = [c for k in range(2, 6) for c in product(range(4, 0, -1), repeat=k)
                if c[-1] == 1 and all(x >= y for x, y in zip(c, c[1:]))]
WALK_RELAXED = [(1, 3, 1), (1, 2, 1), (1, 4, 2, 1), (1, 0, 1), (2, 0, 0, 1), (3, 0, 2, 0, 1)]


def grammar_accepts(coeffs, a):
    """The chunk grammar as a k-state automaton, written without package code.

    The state is the length of the prefix of the coefficients matched so far:
    a digit above the next coefficient is rejected, a digit equal to it
    advances, a smaller one returns to state 0, and state k is rejected.
    """
    j = 0
    for x in a:
        if x > coeffs[j]:
            return False
        j = j + 1 if x == coeffs[j] else 0
        if j == len(coeffs):
            return False
    return True


def brute_force_strings(coeffs, n):
    """Every accepted digit string of length n, trimmed, in lexicographic order."""
    padded = [a for a in product(range(max(coeffs) + 1), repeat=n)
              if grammar_accepts(coeffs, a)]
    padded.sort()
    out = []
    for a in padded:
        m = len(a)
        while m and a[m - 1] == 0:
            m -= 1
        out.append(a[:m])
    return out


def nested_walk(c, n, with_values=False):
    """The enumerator as one recursive walk over all n positions.

    Each string is built from a shared buffer and yielded through one
    generator frame per nonzero digit of its prefix; the split walk in the
    package must yield the same strings, and vectors, in the same order.
    """
    coeffs = c.coefficients
    k = c.k
    basis = c.vector().basis(n) if n >= 1 else []
    zero_run = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        zero_run[j] = zero_run[j + 1] + 1 if coeffs[j] == 0 else 0
    buf = [0] * n
    val = [0] * (k - 1)

    def walk(p, j, last):
        yield (tuple(buf[:last]), tuple(val)) if with_values else tuple(buf[:last])
        for q in range(n, p - 1, -1):
            s = j + q - p if q - p <= zero_run[j] else 0
            top = coeffs[s]
            b = basis[q - 1]
            for d in range(1, top + 1 if s + 1 < k else top):
                buf[q - 1] = d
                for i in range(k - 1):
                    val[i] += d * b[i]
                yield from walk(q + 1, s + 1 if d == top else 0, q)
                for i in range(k - 1):
                    val[i] -= d * b[i]
            buf[q - 1] = 0

    yield from walk(1, 0, 0)


def test_bridge_examples():
    assert scalar_bridge(C211, 5, (0, 1)) == 8
    assert scalar_bridge(C211, 6, (-2, -1)) == 8
    assert scalar_bridge(C211, 5, (0, 0)) == 0


def test_bridge_domain():
    with pytest.raises(BridgeDomainError):
        scalar_bridge(C211, 0, (0, 0))
    assert scalar_bridge(C211, 1, (1, 0)) == 0  # k-2 boundary, reduced mod X_1 = 1


@pytest.mark.parametrize("v", [(1,), (1, 2, 3)])
def test_bridge_rejects_wrong_dimension(v):
    with pytest.raises(ValueError, match="vector dimension must be k-1 = 2"):
        scalar_bridge(C211, 5, v)


def test_bridge_takes_an_iterator_as_decompose_does():
    # the vector is made a tuple before its length is checked
    assert scalar_bridge(C211, 6, iter([3, -4])) == scalar_bridge(C211, 6, (3, -4))
    for v in ([1], [1, 2, 3]):
        with pytest.raises(ValueError, match="vector dimension must be k-1 = 2"):
            scalar_bridge(C211, 6, iter(v))


@pytest.mark.parametrize("n", [5, 45])
def test_bridge_converts_the_vector_before_the_terms(n):
    # the elements are made ints first: a string vector once multiplied
    # 'a' by X_44 = 272,809,183,135 of (1,1,1), a MemoryError at n = 45
    c = RecurrenceVector((1, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="invalid literal for int"):
            scalar_bridge(c, n, "ab")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak
    assert scalar_bridge(c, n, ["1", 0]) == scalar_bridge(c, n, (1, 0))


@pytest.mark.parametrize("coeffs", STRICT_VECTORS, ids=lambda cs: ",".join(map(str, cs)))
def test_bridge_streams_past_the_held_level_cap(coeffs):
    # past HELD_LEVEL_CAP the k terms come from scalar_window and no held
    # list grows: a climb to X_40000 would hold 40,001 terms, 145 MB for (2,1,1)
    c = RecurrenceVector(coeffs)
    k = c.k
    seq = c.scalar()
    seq.term(10)
    held = (len(seq._up), len(seq._down))
    v = tuple(range(3, 3 + k - 1))
    tracemalloc.start()
    try:
        z = scalar_bridge(c, 40000, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert (len(seq._up), len(seq._down)) == held
    xs = scalar_window(coeffs, 40000 - k + 1, k)
    assert z == sum(x * y for x, y in zip(v, xs[-2::-1])) % xs[-1]
    # either side of the cap, against the held terms
    for n in (bridge.HELD_LEVEL_CAP, bridge.HELD_LEVEL_CAP + 1):
        want = sum(x * scalar_term(c, n - i) for i, x in enumerate(v, 1)) % scalar_term(c, n)
        assert scalar_bridge(c, n, v) == want, n


def test_bridge_maps_basis_to_shifted_terms():
    for n in range(3, 10):
        for i in range(1, n):
            v = C211.vector().term(-i)
            assert scalar_bridge(C211, n, v) == scalar_term(C211, n - i) % scalar_term(C211, n)


def test_legal_decompose_examples():
    # Fibonacci convention with X_1 = 1, X_2 = 2: 10 = 8 + 2
    assert legal_decompose(FIB, 10) == (1, 0, 0, 1, 0)
    assert legal_decompose(FIB, 0) == ()
    assert legal_decompose(C211, 51) == (1, 0, 0, 0, 0)


def test_legal_decompose_reconstructs_value():
    for n in range(0, 500):
        digits = legal_decompose(C211, n)
        top = len(digits)
        assert sum(q * scalar_term(C211, top - i) for i, q in enumerate(digits)) == n


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(1, 1), (1, 1, 1), (2, 1, 1), (4, 2, 1)]),
       st.integers(min_value=0, max_value=100_000))
def test_greedy_digits_satisfy_the_grammar(coeffs, n):
    c = RecurrenceVector(coeffs)
    digits = legal_decompose(c, n)
    assert is_satisfying(c, digits)


def test_enumeration_counts_and_order():
    assert enumerate_representations(C211, 1) == [(), (1,), (2,)]
    strings = enumerate_representations(C211, 3)
    assert len(strings) == scalar_term(C211, 4) == 20
    assert strings == sorted(strings, key=lambda a: a + (0,) * (3 - len(a)))
    for a in strings:
        assert is_satisfying(C211, a)


@pytest.mark.parametrize("coeffs", STRICT_VECTORS + RELAXED_VECTORS,
                         ids=lambda coeffs: ",".join(map(str, coeffs)))
def test_enumeration_matches_brute_force(coeffs):
    c = RecurrenceVector(coeffs, relaxed=coeffs in RELAXED_VECTORS)
    for n in range(0, 8):
        expected = brute_force_strings(coeffs, n)
        assert list(iter_representations(c, n)) == expected
        pairs = list(iter_representations(c, n, with_values=True))
        assert [a for a, _ in pairs] == expected
        for a, v in pairs:
            assert evaluate(c, a) == v


@pytest.mark.parametrize("coeffs", WALK_VECTORS + WALK_RELAXED,
                         ids=lambda coeffs: ",".join(map(str, coeffs)))
def test_split_walk_matches_the_nested_walk(coeffs):
    # every n while X_{n+1} <= 2*10^4: both parities, and the split at n = 0, 1, 2
    c = RecurrenceVector(coeffs, relaxed=coeffs in WALK_RELAXED)
    balls = {r: set(product(range(-r, r + 1), repeat=c.k - 1)) for r in range(4)}
    covered = {}
    n = 0
    while scalar_term(c, n + 1) <= 2 * 10 ** 4:
        strings = list(nested_walk(c, n))
        assert list(iter_representations(c, n)) == strings
        assert enumerate_representations(c, n) == strings
        pairs = list(nested_walk(c, n, with_values=True))
        assert list(iter_representations(c, n, with_values=True)) == pairs
        region = {v: (len(a), a) for a, v in pairs}
        assert list(support_region(c, n).members.items()) == list(region.items())
        if n >= 1:
            shell = {v: (len(a), a) for a, v in pairs if len(a) >= n}
            assert list(support_shell(c, n).members.items()) == list(shell.items())
        for r, ball in balls.items():
            if r not in covered and ball <= region.keys():
                covered[r] = n
        n += 1
    assert n >= 3
    # the covering level of each ball the walked regions reach; a ball they
    # do not reach needs a region of more than X_n points
    for r in balls:
        if r in covered:
            assert ball_coverage(c, r) == covered[r]
        else:
            with pytest.raises(CapExceededError):
                ball_coverage(c, r, cap=scalar_term(c, n))


@pytest.mark.parametrize("coeffs", WALK_VECTORS + WALK_RELAXED,
                         ids=lambda coeffs: ",".join(map(str, coeffs)))
def test_shell_walk_builds_only_the_shell(coeffs):
    # the batches behind support_shell hold exactly the X_{n+1} - X_n strings
    # of support n: no shorter string is built and then dropped
    c = RecurrenceVector(coeffs, relaxed=coeffs in WALK_RELAXED)
    n = 1
    while scalar_term(c, n + 1) <= 2 * 10 ** 4:
        strings = []
        for batch, _ in _batches(c, n, True):
            strings += batch
        assert len(strings) == scalar_term(c, n + 1) - scalar_term(c, n)
        assert all(len(a) == n for a in strings)
        n += 1


def _with_brute_force_size(coeffs):
    # lengths whose (c1 + 1)^n padded strings stay few enough to filter
    top = 0
    while (max(coeffs) + 1) ** (top + 1) <= 20_000:
        top += 1
    return st.tuples(st.just(coeffs), st.integers(min_value=0, max_value=top))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(WALK_VECTORS + WALK_RELAXED).flatmap(_with_brute_force_size))
def test_split_walk_matches_brute_force(case):
    coeffs, n = case
    c = RecurrenceVector(coeffs, relaxed=coeffs in WALK_RELAXED)
    expected = brute_force_strings(coeffs, n)
    assert list(iter_representations(c, n)) == expected
    pairs = list(iter_representations(c, n, with_values=True))
    assert [a for a, _ in pairs] == expected
    assert all(evaluate(c, a) == v for a, v in pairs)


def _held_state(c):
    seq, vec = c._scalar, c._vector
    return (c._bridge, len(seq._up), len(seq._down), len(vec._up), len(vec._down))


@pytest.mark.parametrize("coeffs, n, parent_peak, parent_held", [
    ((1, 1), 20, 6_313_096, (None, 22, 2, 2, 21)),
    ((2, 1, 1), 11, 10_217_872, (None, 13, 3, 3, 13)),
], ids=["1,1", "2,1,1"])
def test_region_memory_stays_at_the_nested_walks(coeffs, n, parent_peak, parent_held):
    # parent_peak and parent_held: the tracemalloc peak of the same call on a
    # fresh RecurrenceVector under the nested walk (CPython 3.11.7, 64-bit),
    # and the lengths of the lists it left held; the suffix lists are local
    # to the call, so the region itself sets the peak
    c = RecurrenceVector(coeffs)
    tracemalloc.start()
    try:
        region = support_region(c, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(region) == scalar_term(c, n + 1)
    assert peak <= 1.05 * parent_peak, peak
    # every slot is fixed by __slots__: nothing new is kept, no list grows
    assert _held_state(c) == parent_held
    support_region(c, n)
    assert _held_state(c) == parent_held


@pytest.mark.parametrize("coeffs, n, parent_peak, parent_held", [
    ((1, 1), 20, 2_630_792, (None, 22, 2, 2, 21)),
    ((2, 1, 1), 11, 5_945_424, (None, 13, 3, 3, 13)),
], ids=["1,1", "2,1,1"])
def test_shell_memory_stays_at_the_parents(coeffs, n, parent_peak, parent_held):
    # parent_peak and parent_held: the tracemalloc peak of the same call on a
    # fresh RecurrenceVector when the shell was the region's walk filtered to
    # support n (CPython 3.11.7, 64-bit), and the lengths of the held lists.
    # A full collection first empties the free lists that earlier work left,
    # so the call's objects are all new traced allocations and the peak
    # repeats exactly, whatever ran before in the process
    c = RecurrenceVector(coeffs)
    gc.collect()
    tracemalloc.start()
    try:
        shell = support_shell(c, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shell) == scalar_term(c, n + 1) - scalar_term(c, n)
    assert peak <= 1.05 * parent_peak, peak
    assert _held_state(c) == parent_held


def _fresh_peak(call, coeffs, n):
    # the tracemalloc peak of call on a fresh RecurrenceVector, after a full
    # collection has emptied the free lists that earlier work left
    c = RecurrenceVector(coeffs)
    gc.collect()
    tracemalloc.start()
    try:
        call(c, n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("coeffs, n", [((1, 1), 20), ((2, 1, 1), 11)], ids=["1,1", "2,1,1"])
def test_region_csv_holds_no_region(coeffs, n):
    # the rows come from the walk, so the export holds its text and the
    # suffix lists, not a dict of the region with a row list beside it
    csv_peak = _fresh_peak(regions_csv_text, coeffs, n)
    region_peak = _fresh_peak(support_region, coeffs, n)
    assert csv_peak < region_peak / 2, (csv_peak, region_peak)


@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1, 1), (3, 2, 1)],
                         ids=lambda cs: ",".join(map(str, cs)))
def test_the_walk_leaves_no_cycle_behind(coeffs):
    # the split walk's recursive generator must not hold itself alive: with
    # the collector off, a collection right after each call finds nothing
    c = RecurrenceVector(coeffs)
    calls = [lambda: support_region(c, 9), lambda: support_shell(c, 9),
             lambda: enumerate_representations(c, 9), lambda: ball_coverage(c, 3)]
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
        for with_values in (False, True):
            gc.collect()
            strings = iter_representations(c, 9, with_values=with_values)
            for _ in range(50):
                next(strings)
            del strings
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _one_object_per_value(vectors):
    vectors = list(vectors)
    return len({id(x) for v in vectors for x in v}) == len({x for v in vectors for x in v})


@pytest.mark.parametrize("coeffs, n", [((2, 1, 1), 10), ((3, 2, 1), 7)], ids=["2,1,1", "3,2,1"])
def test_region_and_shell_hold_each_coordinate_value_once(coeffs, n):
    # the coordinates are read from one table of ints per call, so points
    # that share a value, in the same coordinate or another, share its int
    c = RecurrenceVector(coeffs)
    assert _one_object_per_value(support_region(c, n).vectors())
    assert _one_object_per_value(support_shell(c, n).vectors())


@pytest.mark.parametrize("coeffs, n", [((1, 2, 1), 14), ((1, 4, 2, 1), 11)],
                         ids=["1,2,1", "1,4,2,1"])
def test_relaxed_values_hold_each_coordinate_value_once(coeffs, n):
    # relaxed digits reach max(c), above c1, and the table covers them: the
    # values of (1,4,2,1) at n = 11 reach 943.  (1,3,1) takes the sums
    # (test_only_calls_that_keep_vectors_build_a_table)
    c = RecurrenceVector(coeffs, relaxed=True)
    pairs = iter_representations(c, n, with_values=True)
    assert _one_object_per_value(v for _, v in pairs)


def test_only_calls_that_keep_vectors_build_a_table(monkeypatch):
    # one table per walk whose vectors the caller keeps, and only where it
    # holds fewer ints than the walk yields points: never for k = 2, where
    # each point is its own coordinate, nor for (1,3,1) past n = 2, whose
    # region lies near a line and whose points share few values.  Both are
    # refused by the range rule itself
    r131 = RecurrenceVector((1, 3, 1), relaxed=True)
    built = []
    table = bridge._value_table

    def counted(coefficients, basis, count):
        out = table(coefficients, basis, count)
        built.append((coefficients, out is not None))
        return out

    monkeypatch.setattr(bridge, "_value_table", counted)
    enumerate_representations(C211, 10)
    list(iter_representations(C211, 10))
    list(iter_representations(r131, 10))
    regions_csv_text(C211, 6)
    ball_coverage(C211, 3)
    assert built == []
    support_region(C211, 10)
    support_shell(C211, 10)
    list(iter_representations(C211, 6, with_values=True))
    assert built == [((2, 1, 1), True)] * 3
    built.clear()
    support_region(FIB, 20)
    support_shell(FIB, 20)
    support_region(r131, 12)
    support_shell(r131, 12)
    assert built == [((1, 1), False)] * 2 + [((1, 3, 1), False)] * 2


@pytest.mark.parametrize("coeffs, relaxed, n, call", [
    ((2, 1, 1), False, 10, "region"), ((2, 1, 1), False, 10, "shell"),
    ((3, 2, 1), False, 7, "region"), ((3, 2, 1), False, 7, "shell"),
    ((1, 2, 1), True, 14, "values"),
], ids=["2,1,1-region", "2,1,1-shell", "3,2,1-region", "3,2,1-shell", "1,2,1-values"])
def test_table_reads_stay_below_the_points(monkeypatch, coeffs, relaxed, n, call):
    # each (suffix column, prefix offset) list of table ints is built once per
    # call and shared by every batch that meets it, so the table is read
    # fewer times than the call yields points, not once per point and
    # coordinate
    reads = []
    table = bridge._value_table

    class Counted(list):
        def __getitem__(self, i):
            reads.append(i)
            return list.__getitem__(self, i)

    def counted(coefficients, basis, count):
        out = table(coefficients, basis, count)
        return None if out is None else Counted(out)

    monkeypatch.setattr(bridge, "_value_table", counted)
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    if call == "region":
        points = len(support_region(c, n))
    elif call == "shell":
        points = len(support_shell(c, n))
    else:
        points = sum(1 for _ in iter_representations(c, n, with_values=True))
    assert 0 < len(reads) < points, (len(reads), points)


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_representations(C211, 10, cap=100)


@pytest.mark.parametrize("refuse", [
    enumerate_representations, support_region, support_shell,
    lambda c, n: next(exact_series(c, n, n)),
], ids=["enumerate", "region", "shell", "exact_series"])
def test_far_window_beyond_the_cap_builds_no_far_terms(refuse):
    # X_40001 of (1,1,1) has 35167 bits; the refusal builds no term above the
    # cap, and names X_40001 even past the interpreter's int-to-str limit
    c = RecurrenceVector((1, 1, 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError) as err:
            refuse(c, 40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, peak
    assert len(c.scalar()._up) < 100
    x = scalar_window(c.coefficients, 40001, 1)[0]
    try:
        text = str(x)
    except ValueError:
        text = "at least 2^%d" % (x.bit_length() - 1)
    assert text in str(err.value)


def test_cap_admits_x_n_plus_1_equal_to_it():
    for coeffs in STRICT_VECTORS:
        c = RecurrenceVector(coeffs)
        for n in range(6):
            size = scalar_term(c, n + 1)
            assert len(enumerate_representations(c, n, cap=size)) == size
            assert len(support_region(c, n, cap=size)) == size
            with pytest.raises(CapExceededError):
                support_region(c, n, cap=size - 1)
    with pytest.raises(CapExceededError):
        support_region(RecurrenceVector((1, 1)), 0, cap=0)
    # a cap far above the window builds the terms up to X_{n+1} only
    c = RecurrenceVector((1, 1))
    assert len(support_region(c, 3, cap=2 ** 100000)) == 5
    assert len(c.scalar()._up) == 5


def test_bridge_identity_on_low_support_strings():
    # strings supported strictly below the bridge index map digit for digit
    for n in range(4, 10):
        seq = C211.scalar()
        for a in enumerate_representations(C211, n - 1):
            expected = sum(coef * seq.term(n - (i + 1)) for i, coef in enumerate(a))
            assert scalar_bridge(C211, n, evaluate(C211, a)) == expected % seq.term(n)


def test_region_examples():
    d1 = support_region(C211, 1)
    assert sorted(d1.vectors()) == [(0, 0), (1, 0), (2, 0)]
    d0 = support_region(C211, 0)
    assert list(d0.vectors()) == [(0, 0)]


def test_region_counts_and_shells():
    for coeffs in STRICT_VECTORS:
        c = RecurrenceVector(coeffs)
        prev = set()
        for n in range(0, 8):
            dn = support_region(c, n)
            assert len(dn) == scalar_term(c, n + 1)
            if n >= 1:
                shell = support_shell(c, n)
                assert set(shell.vectors()) == set(dn.vectors()) - prev
            prev = set(dn.vectors())


def test_shells_partition_region():
    dn = set(support_region(C211, 6).vectors())
    union = {(0, 0)}
    total = 1
    for i in range(1, 7):
        shell = set(support_shell(C211, i).vectors())
        assert not (shell & union)
        union |= shell
        total += len(shell)
    assert union == dn
    assert total == len(dn)


def test_region_generation_strings_evaluate_back():
    region = support_region(C211, 5)
    for v, (first, a) in region.members.items():
        assert evaluate(C211, a) == v
        assert len(a) == first


def test_ball_coverage():
    assert ball_coverage(C211, 0) == 0
    values = [ball_coverage(C211, r) for r in range(0, 4)]
    assert values == sorted(values)
    assert values[1] == 4  # regression constant for the (2,1,1) system


def test_ball_coverage_refuses_a_ball_of_more_than_cap_points_before_building_it():
    # the (2,1,1) ball of radius 10^6 has about 4*10^12 points
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(CapExceededError, match="^ball not covered below the enumeration cap$"):
            ball_coverage(C211, 10 ** 6)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0, elapsed
    assert peak < 10 ** 6, peak


@pytest.mark.parametrize("coeffs", STRICT_VECTORS + [(1, 1, 1, 1), (3, 3, 2, 1)])
def test_ball_coverage_cap_admits_x_n_plus_1_equal_to_it(coeffs):
    # the ball lies in D_N of X_{N+1} points; the up-front refusal of balls
    # larger than the cap must not refuse what the walk admits
    c = RecurrenceVector(coeffs)
    for r in range(5):
        n = ball_coverage(c, r)
        size = scalar_term(c, n + 1)
        assert ball_coverage(c, r, cap=size) == n
        with pytest.raises(CapExceededError):
            ball_coverage(c, r, cap=size - 1)


@pytest.mark.parametrize("coeffs", STRICT_VECTORS + [(1, 2, 1)],
                         ids=lambda cs: ",".join(map(str, cs)))
def test_ball_coverage_walks_one_shell_per_level(monkeypatch, coeffs):
    # D_n is D_{n-1} together with R_n: level 0 walks the zero vector and
    # each later level its own shell, X_{N+1} vectors up to the covering N
    c = RecurrenceVector(coeffs, relaxed=coeffs == (1, 2, 1))
    levels, vectors = [], []
    walk = bridge._batches

    def counted(c, n, exact=False):
        levels.append((n, exact))
        for strings, batch in walk(c, n, exact):
            batch = list(batch)
            vectors.extend(batch)
            yield strings, batch

    monkeypatch.setattr(bridge, "_batches", counted)
    covering = ball_coverage(c, 2)
    assert levels == [(n, n > 0) for n in range(covering + 1)]
    assert len(vectors) == scalar_term(c, covering + 1)


def test_ball_coverage_of_relaxed_c():
    assert ball_coverage(RecurrenceVector((1, 2, 1), relaxed=True), 3) == 8


def test_csv_and_svg_deterministic():
    a = regions_csv_text(C211, 4)
    b = regions_csv_text(C211, 4)
    assert a == b
    assert a.splitlines()[0] == "x1,x2,n_first,sr_string"
    s1 = regions_svg_text(C211, 4)
    s2 = regions_svg_text(C211, 4)
    assert s1 == s2
    assert s1.startswith("<svg")


def _old_region_csv(c, n):
    # the renderer the CSV had while it was built from support_region's dict
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["x%d" % (d + 1) for d in range(c.k - 1)] + ["n_first", "sr_string"])
    for v, (first, a) in support_region(c, n).members.items():
        writer.writerow(list(v) + [first, format_coefficients(a)])
    return out.getvalue()


@pytest.mark.parametrize("coeffs", WALK_VECTORS + WALK_RELAXED,
                         ids=lambda coeffs: ",".join(map(str, coeffs)))
def test_region_csv_matches_the_csv_writer_over_the_region(coeffs):
    # a row per string equals a row per vector only while no two strings
    # share a vector: a merge in the dict would show here
    c = RecurrenceVector(coeffs, relaxed=coeffs in WALK_RELAXED)
    n = 0
    while scalar_term(c, n + 1) <= 3000:
        assert regions_csv_text(c, n) == _old_region_csv(c, n)
        n += 1


def test_svg_requires_planar():
    with pytest.raises(ValueError):
        regions_svg_text(RecurrenceVector((1, 1)), 3)


@pytest.mark.parametrize("with_values", [False, True])
@pytest.mark.parametrize("coeffs", [(1, 1), (2, 1, 1), (1, 1, 1)],
                         ids=lambda cs: ",".join(map(str, cs)))
def test_iterator_refuses_a_negative_bound(coeffs, with_values):
    # as enumerate_representations and support_region do, at the first next
    strings = iter_representations(RecurrenceVector(coeffs), -1, with_values=with_values)
    with pytest.raises(ValueError, match="support bound must be >= 0"):
        next(strings)


def test_iterator_matches_list_api():
    assert list(iter_representations(C211, 4)) == enumerate_representations(C211, 4)
