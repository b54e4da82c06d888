import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from zeckvec import (BorrowBlockedError, CarryBlockedError, NotEndCompleteError,
                     NotNearlySatisfyingError, RecurrenceVector, borrow, carry,
                     classify, coefficient_sum, decompose, evaluate, increment,
                     is_satisfying, normalize_nsr, prefix_sum,
                     probe_termination, resolve_end_complete, scalar_term,
                     spanning_probe, vector_term)
from zeckvec.normalize import (NormalizationTrace, _bridge_level, _build_level,
                               _decompose_chain)

STRICT = [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)]
C211 = RecurrenceVector((2, 1, 1))
FIB = RecurrenceVector((1, 1))
BAD131 = RecurrenceVector((1, 3, 1), relaxed=True)


def test_carry_examples():
    assert carry(C211, (0, 2, 1, 2, 1, 1), 1) == (1, 0, 0, 1, 1, 1)
    assert carry(C211, (2, 1, 1), 0) == ()
    with pytest.raises(CarryBlockedError):
        carry(C211, (0, 2, 1), 1)


def test_borrow_examples():
    assert borrow(C211, (0, 2, 2), 3) == (0, 2, 1, 2, 1, 1)
    assert borrow(BAD131, (2,), 1) == (1, 1, 3, 1)
    with pytest.raises(BorrowBlockedError):
        borrow(C211, (0, 1), 1)


def test_carry_borrow_preserve_value_and_shift_mass():
    rng = random.Random(11)
    total = C211.coefficient_total
    done = 0
    while done < 500:
        base = [rng.randint(0, 3) for _ in range(rng.randint(1, 8))]
        pos = rng.randint(1, len(base) + 2)
        planted = list(base) + [0] * (pos + C211.k - len(base))
        for l, cl in enumerate(C211.coefficients, start=1):
            planted[pos + l - 1] += cl
        a = tuple(planted)
        before = evaluate(C211, a)
        out = carry(C211, a, pos)
        assert evaluate(C211, out) == before
        assert coefficient_sum(out) - coefficient_sum(a) == 1 - total
        back = borrow(C211, out, pos)
        assert evaluate(C211, back) == before
        assert coefficient_sum(back) - coefficient_sum(out) == total - 1
        done += 1


def test_carry_into_virtual_position_drops_mass():
    out = carry(C211, (2, 1, 1), 0)
    assert out == ()
    assert coefficient_sum((2, 1, 1)) - coefficient_sum(out) == C211.coefficient_total


def test_resolve_end_complete_examples():
    final, trace = resolve_end_complete(C211, (2, 1, 1))
    assert final == ()
    assert trace.terminated
    final, _ = resolve_end_complete(C211, (1, 0, 0, 2, 1, 1))
    assert final == (1, 0, 1)
    final, _ = resolve_end_complete(FIB, (1, 1))
    assert final == ()


def test_resolve_end_complete_rejects_others():
    with pytest.raises(NotEndCompleteError):
        resolve_end_complete(C211, (2, 2))
    with pytest.raises(NotEndCompleteError):
        resolve_end_complete(C211, (0, 2, 1))  # already satisfying


def test_resolve_end_complete_only_carries_and_reduces_mass():
    final, trace = resolve_end_complete(C211, (2, 1, 0, 2, 1, 1))
    assert final == ()
    assert all(step.op == "carry" for step in trace.steps)
    masses = [coefficient_sum((2, 1, 0, 2, 1, 1))] + [s.mass for s in trace.steps]
    assert all(a > b for a, b in zip(masses, masses[1:]))


def test_normalize_reproduces_worked_conversion():
    report = normalize_nsr(C211, (0, 2, 2))
    assert report.terminated
    assert report.result == (1, 0, 0, 1, 1, 1)
    ops = [(s.op, s.pos, s.string) for s in report.trace.steps]
    assert ops == [("borrow", 3, (0, 2, 1, 2, 1, 1)),
                   ("carry", 1, (1, 0, 0, 1, 1, 1))]


def test_normalize_rejects_satisfying_input():
    with pytest.raises(NotNearlySatisfyingError):
        normalize_nsr(C211, (1,))


def test_divergent_probe_matches_worked_steps():
    report = probe_termination(BAD131, (2,), budget=10_000)
    assert not report.terminated
    strings = report.trace.strings()
    assert strings[0] == (1, 1, 3, 1)
    assert strings[1] == (1, 1, 1, 3, 6, 2)
    assert strings[2] == (1, 2, 0, 0, 5, 2)
    # every recorded state still represents the same vector
    target = evaluate(BAD131, (2,))
    for s in report.trace.steps:
        assert evaluate(BAD131, s.string) == target
    assert report.suffix_period is not None


def test_probe_conjectured_terminating_neighbor():
    c = RecurrenceVector((1, 2, 1), relaxed=True)
    report = probe_termination(c, (2,), budget=10_000)
    assert report.terminated
    assert report.result == (1, 2, 0, 0, 1, 1)
    assert evaluate(c, report.result) == (2, 0)


def test_probe_terminating_strict_case():
    report = probe_termination(RecurrenceVector((2, 1, 1), relaxed=True), (0, 2, 2))
    assert report.terminated
    assert report.result == (1, 0, 0, 1, 1, 1)


def test_increment_examples():
    trace = NormalizationTrace()
    assert increment(C211, (0, 2, 1), 3, trace=trace) == (1, 0, 0, 1, 1, 1)
    assert [(s.op, s.pos) for s in trace.steps] == [("borrow", 3), ("carry", 1)]
    assert increment(C211, (), 1) == (1,)
    assert increment(FIB, (1,), 1) == (0, 0, 1)


def test_increment_chain_monotone_progress():
    # across rewriting rounds either total mass drops or the mass left of the
    # tracked chunk start grows (the termination argument's potential)
    report = normalize_nsr(C211, (0, 2, 2))
    records = report.iterations
    for before, after in zip(records, records[1:]):
        assert (after.mass < before.mass
                or after.prefix_mass >= before.prefix_mass + 1)


def test_decompose_examples():
    assert decompose(C211, (-2, 1)) == (0, 2, 1)
    assert decompose(C211, (-4, 0)) == (1, 0, 0, 1, 1, 1)
    assert decompose(C211, (0, 0)) == ()


def test_decompose_round_trip_box():
    for c in [FIB, C211, RecurrenceVector((3, 2, 1))]:
        dim = c.k - 1
        rng = random.Random(5)
        for _ in range(120):
            v = tuple(rng.randint(-40, 40) for _ in range(dim))
            a = decompose(c, v)
            assert is_satisfying(c, a)
            assert evaluate(c, a) == v


def test_decompose_chain_and_bridge_agree():
    rng = random.Random(9)
    for c in [FIB, C211]:
        dim = c.k - 1
        for _ in range(25):
            v = tuple(rng.randint(-15, 15) for _ in range(dim))
            assert _decompose_chain(c, v) == decompose(c, v)


# strict recurrences with k <= 5: weakly decreasing, c_1 <= 4, c_k = 1
strict_coefficients = st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                               max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True)) + (1,))


@settings(max_examples=60, deadline=None)
@given(strict_coefficients, st.data())
def test_bridge_matches_chain_and_enumeration(coeffs, data):
    c = RecurrenceVector(coeffs)
    v = data.draw(st.tuples(*[st.integers(min_value=-60, max_value=60)] * (c.k - 1)))
    assert decompose(c, v) == _decompose_chain(c, v)
    seq = c.scalar()
    n = 1
    while seq.term(n + 2) <= 300:
        n += 1
    from zeckvec import enumerate_representations
    for a in enumerate_representations(c, n):
        assert decompose(c, evaluate(c, a)) == a


def test_bridge_tables_match_the_sequences():
    # the level tables are built from the recurrence, not the memoised
    # sequences; every coordinate of X_{-p} comes from the one backward column
    for k in range(2, 6):
        for head in itertools.combinations_with_replacement(range(4, 0, -1), k - 1):
            c = RecurrenceVector(head + (1,))
            tables = _build_level(c, 4 * k)
            assert tables.xs == [scalar_term(c, m) for m in range(4 * k + 1)]
            for p in range(4 * k):
                coords = tuple(sum(w * tables.t[p + j] for j, w in enumerate(row))
                               for row in tables.alpha)
                assert coords == vector_term(c, -p)


def _digits_vector(rng, dim, digits):
    return tuple(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                 for _ in range(dim))


def test_first_bridge_level_fits_without_retry():
    # the first level exceeds the string length, so the first candidate is
    # accepted, and it overshoots by little
    for coeffs in STRICT:
        c = RecurrenceVector(coeffs)
        rng = random.Random(17)
        for _ in range(200):
            v = _digits_vector(rng, c.k - 1, rng.randint(1, 400))
            length = len(decompose(c, v))
            level = _bridge_level(c, v)
            assert length < level <= 1.1 * length + 2 * c.k, (coeffs, v, length, level)


def test_decompose_round_trips_4000_digit_vectors():
    rng = random.Random(4000)
    for coeffs in STRICT:
        c = RecurrenceVector(coeffs)
        v = _digits_vector(rng, c.k - 1, 4000)
        a = decompose(c, v)
        assert is_satisfying(c, a)
        assert evaluate(c, a) == v


def test_decompose_does_not_depend_on_call_order():
    rng = random.Random(23)
    for coeffs in [(1, 1, 1), (2, 1, 1)]:
        c = RecurrenceVector(coeffs)
        batch = [_digits_vector(rng, c.k - 1, rng.randint(1, 3)) for _ in range(40)]
        before = [decompose(c, v) for v in batch]
        decompose(c, _digits_vector(rng, c.k - 1, 2400))
        assert [decompose(c, v) for v in batch] == before
        # the level held on c is one a small vector asked for, not the large one's
        assert c._bridge.level in {_bridge_level(c, v) for v in batch}


def test_decompose_inverts_evaluate_on_enumerated_strings():
    from zeckvec import enumerate_representations
    for a in enumerate_representations(C211, 6):
        assert decompose(C211, evaluate(C211, a)) == a


def test_strict_normalization_never_raises_mass():
    rng = random.Random(21)
    from zeckvec import enumerate_representations
    pool = enumerate_representations(C211, 6)
    for _ in range(200):
        a = list(rng.choice(pool))
        i = rng.randint(1, 8)
        a += [0] * max(0, i - len(a))
        a[i - 1] += 1
        cls = classify(C211, tuple(a))
        if cls.kind != "nearly_satisfying":
            continue
        report = normalize_nsr(C211, tuple(a))
        assert report.terminated
        assert coefficient_sum(report.result) <= coefficient_sum(a)
        assert evaluate(C211, report.result) == evaluate(C211, a)


def test_spanning_probe_examples():
    rep = spanning_probe(C211, 3, 3)
    assert rep.all_covered
    rep = spanning_probe(C211, 0, 3)
    assert rep.all_covered
    relaxed = RecurrenceVector((2, 0, 1, 1), relaxed=True)
    rep = spanning_probe(relaxed, 2, 5)
    assert rep.all_covered
    with pytest.raises(ValueError):
        spanning_probe(relaxed, 2, 4)  # bound below k + longest zero run


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1, 1), (3, 2, 1)]),
       st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=200))
def test_increment_preserves_value_algebra(coeffs, i, seed):
    c = RecurrenceVector(coeffs)
    rng = random.Random(seed)
    v = tuple(rng.randint(-10, 10) for _ in range(c.k - 1))
    a = decompose(c, v)
    out = increment(c, a, i)
    from zeckvec import vector_term
    expected = tuple(x + y for x, y in zip(v, vector_term(c, -i)))
    assert evaluate(c, out) == expected
    assert is_satisfying(c, out)
