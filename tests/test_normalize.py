import collections
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

import zeckvec
from zeckvec import (BorrowBlockedError, CarryBlockedError, InvalidRecurrenceError,
                     NonTerminationError, NotEndCompleteError, NotNearlySatisfyingError,
                     RecurrenceVector, borrow, carry, classify, coefficient_sum, decompose,
                     evaluate, increment, is_satisfying, normalize_nsr, prefix_sum,
                     probe_termination, resolve_end_complete, scalar_term, scan,
                     spanning_probe, support_shell, vector_term)
from zeckvec import bridge, normalize
from zeckvec.analytics import exact_series
from zeckvec.bridge import HELD_LEVEL_CAP, _bridge_level, _level_digits
from zeckvec.normalize import (TRACE_FULL_STEPS, TRACE_THIN_EVERY, IterationRecord,
                               NormalizationTrace, ProbeReport, TraceStep, _decompose_chain,
                               _reduce)
from zeckvec.recurrence import (BLOCK, _Blocks, _held_blocks, backward_column,
                                column_weights, greedy_digits, scalar_terms,
                                scalar_window, string_value)

from column_oracle import column_value

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


def test_carry_only_rewrite_refuses_a_round_that_is_not_end_complete():
    # (0, 2, 2) fails at its last position with only c1 matched, which no
    # carry resolves; resolve_end_complete refuses such strings first, so
    # only a direct call reaches this check
    with pytest.raises(NotEndCompleteError) as info:
        normalize._rewrite(C211, [0, 2, 2], math.inf, carry_only=True)
    assert str(info.value) == "carry cascade produced a non-end-complete state"


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


@pytest.mark.parametrize("entry, args", [
    (normalize_nsr, (C211, (0, 2, 2, 0))),
    (probe_termination, (BAD131, (2,), 300)),
    (probe_termination, (RecurrenceVector((1, 2, 1), relaxed=True), [2])),
    (resolve_end_complete, (C211, (2, 1, 0, 2, 1, 1))),
    (increment, (C211, (0, 2, 1), 3)),
])
def test_an_entry_validates_its_string_once(monkeypatch, entry, args):
    # the entry's own canonical checks the string; the classification and
    # the rewriting take the canonical tuple with no second check
    from zeckvec import representation
    calls = []
    check = representation.canonical
    counted = lambda a: calls.append(a) or check(a)
    monkeypatch.setattr(representation, "canonical", counted)
    monkeypatch.setattr(normalize, "canonical", counted)
    entry(*args)
    assert len(calls) == 1


@pytest.mark.parametrize("entry, args", [
    (normalize_nsr, (C211, (0, 2, 2, 0))),
    (probe_termination, (BAD131, (0, 2), 300)),
    (probe_termination, (RecurrenceVector((1, 2, 1), relaxed=True), [0, 2])),
    (resolve_end_complete, (C211, (2, 1, 0, 2, 1, 1))),
    (increment, (C211, (0, 2, 1), 3)),
])
def test_an_entry_scans_its_string_from_position_1_once(monkeypatch, entry, args):
    # the classification's scan (or increment's check) finds the chunk
    # starts, and the rewriting resumes it at the last of them.  Each input
    # fails, or ends, in a chunk after the first, so a second scan of the
    # input from position 1 would be a repeated one
    from zeckvec import representation
    a, scans = zeckvec.canonical(args[1]), []
    scan_from = representation._scan_from

    def counted(coeffs, k, b, starts, p, *kept):
        if p == 1 and tuple(b) == a:
            scans.append(p)
        return scan_from(coeffs, k, b, starts, p, *kept)

    monkeypatch.setattr(representation, "_scan_from", counted)
    monkeypatch.setattr(normalize, "_scan_from", counted)
    entry(*args)
    assert len(scans) == 1


def test_iteration_records_keep_their_fields_order_and_repr():
    assert IterationRecord._fields == ("fail_pos", "chunk_start", "matched", "case",
                                       "mass", "prefix_mass")
    record = IterationRecord(fail_pos=4, chunk_start=2, matched=1, case="borrow_carry",
                             mass=9, prefix_mass=3)
    assert tuple(record) == (4, 2, 1, "borrow_carry", 9, 3)
    assert record == IterationRecord(4, 2, 1, "borrow_carry", 9, 3)
    assert repr(record) == ("IterationRecord(fail_pos=4, chunk_start=2, matched=1, "
                            "case='borrow_carry', mass=9, prefix_mass=3)")
    with pytest.raises(AttributeError):
        record.mass = 0
    # the reprs the frozen dataclass gave these runs' records
    assert repr(normalize_nsr(C211, (0, 2, 2)).iterations) == (
        "[IterationRecord(fail_pos=3, chunk_start=2, matched=1, case='borrow_carry', "
        "mass=4, prefix_mass=0)]")
    assert repr(normalize_nsr(C211, (2, 1, 0, 2, 1, 1)).iterations) == (
        "[IterationRecord(fail_pos=6, chunk_start=4, matched=2, case='carry_only', "
        "mass=7, prefix_mass=3), IterationRecord(fail_pos=3, chunk_start=1, matched=2, "
        "case='carry_only', mass=4, prefix_mass=0)]")
    assert repr(probe_termination(BAD131, (2,), budget=6).iterations) == (
        "[IterationRecord(fail_pos=1, chunk_start=1, matched=0, case='borrow_only', "
        "mass=2, prefix_mass=0), IterationRecord(fail_pos=3, chunk_start=3, matched=0, "
        "case='borrow_only', mass=6, prefix_mass=2), IterationRecord(fail_pos=3, "
        "chunk_start=3, matched=0, case='borrow_carry', mass=10, prefix_mass=2), "
        "IterationRecord(fail_pos=5, chunk_start=5, matched=0, case='borrow_carry', "
        "mass=10, prefix_mass=3)]")


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


def block_by_block_search(s):
    """`_repeated_block` as a search that compares whole blocks: every width
    up to 12, every start, each copy after it in turn."""
    m = len(s)
    best = None
    for width in range(1, min(12, m // 2) + 1):
        run_best = 1
        for start in range(0, m - 2 * width + 1):
            block = s[start:start + width]
            reps = 1
            pos = start + width
            while pos + width <= m and s[pos:pos + width] == block:
                reps += 1
                pos += width
            if reps > run_best:
                run_best = reps
                if best is None or reps > best[1]:
                    best = (block, reps)
    if best is not None and best[1] >= 2:
        return best
    return None


def test_repeated_block_matches_the_block_by_block_search():
    # every string of length <= 8 over 0..2, then seeded near-periodic ones
    # of up to 300 digits: a block of width 1..14 with a few digits changed
    for m in range(9):
        for s in itertools.product(range(3), repeat=m):
            assert normalize._repeated_block(s) == block_by_block_search(s), s
    rng = random.Random(300)
    for _ in range(600):
        block = [rng.randrange(3) for _ in range(rng.randint(1, 14))]
        s = [block[i % len(block)] for i in range(rng.randint(1, 300))]
        for _ in range(rng.randint(0, 6)):
            s[rng.randrange(len(s))] = rng.randrange(3)
        s = tuple(s)
        assert normalize._repeated_block(s) == block_by_block_search(s), s


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
    # the held bridge grows the scalar sequence's own list, which matches a
    # fresh list built from the recurrence, and leaves the vector column at
    # its seed; every coordinate of X_{-p} comes from that one column
    for k in range(2, 6):
        for head in itertools.combinations_with_replacement(range(4, 0, -1), k - 1):
            coeffs = head + (1,)
            c = RecurrenceVector(coeffs)
            _level_digits(c, (1,) * (k - 1), 4 * k)
            xs, t, alpha = c.scalar()._up, c.vector()._down, c.vector()._alpha
            assert xs == scalar_terms(coeffs, 4 * k + 1)
            assert t == backward_column(coeffs, 0)
            for p in range(4 * k):
                want = vector_term(c, -p)
                coords = tuple(sum(w * t[p + j] for j, w in enumerate(row))
                               for row in alpha)
                assert coords == want
            assert t == backward_column(coeffs, 5 * k - 2)


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


def test_evaluate_grows_no_memo():
    c = RecurrenceVector((1, 1, 1))
    a = decompose(c, _digits_vector(random.Random(4000), 2, 4000))
    scalar_term(c, -5), vector_term(c, 5)
    sequences = (c.scalar(), c.vector())
    before = [len(seq._up) + len(seq._down) for seq in sequences], c._bridge
    evaluate(c, a)
    assert ([len(seq._up) + len(seq._down) for seq in sequences], c._bridge) == before
    assert (c.scalar(), c.vector()) == sequences


@pytest.mark.parametrize("coeffs", STRICT + [(1, 3, 1)], ids=lambda cs: ",".join(map(str, cs)))
def test_evaluate_holds_nothing_on_a_fresh_recurrence(coeffs):
    # the block constants are the streamed bridge's alone
    rng = random.Random(len(coeffs))
    for length in (1, BLOCK - 1, 3 * BLOCK + 1):
        c = RecurrenceVector(coeffs, relaxed=coeffs == (1, 3, 1))
        evaluate(c, [rng.randint(0, coeffs[0]) for _ in range(length)])
        assert (c._bridge, c._scalar, c._vector, c._search) == (None,) * 4


def test_decompose_does_not_depend_on_call_order():
    rng = random.Random(23)
    for coeffs in [(1, 1, 1), (2, 1, 1)]:
        c = RecurrenceVector(coeffs)
        batch = [_digits_vector(rng, c.k - 1, rng.randint(1, 3)) for _ in range(40)]
        before = [decompose(c, v) for v in batch]
        decompose(c, _digits_vector(rng, c.k - 1, 2400))
        assert [decompose(c, v) for v in batch] == before
        # the level held on c is one a small vector asked for, not the large one's
        assert len(c.scalar()._up) - 1 in {_bridge_level(c, v) for v in batch}


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


def test_negative_budget_is_invalid():
    with pytest.raises(ValueError, match="budget must be >= 0"):
        probe_termination(BAD131, (2,), budget=-5)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        normalize_nsr(C211, (0, 2, 2), budget=-1)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        increment(FIB, (1,), 1, budget=-1)
    # budget 0 stays a real budget: no step is taken
    report = probe_termination(BAD131, (2,), budget=0)
    assert (report.outcome, report.reason, report.steps) == ("budget_exceeded", "step_budget", 0)
    assert normalize_nsr(C211, (0, 2, 2), budget=0).steps == 0
    assert increment(FIB, (), 1, budget=0) == (1,)


def test_no_budget_gives_coefficients_that_are_not_weakly_decreasing_the_default(monkeypatch):
    # (1,3,1) diverges from (2,), a digit per step, and each step of the loop
    # costs time and memory that grow with the string: with no budget named
    # both entries stop after DEFAULT_BUDGET steps, whatever the guard that
    # weakly decreasing c keep.  The guard is lowered so that a loop that
    # runs to it ends in seconds.
    monkeypatch.setattr(normalize, "_HARD_STEP_CAP", 2 * normalize.DEFAULT_BUDGET)
    report = normalize_nsr(BAD131, (2,), budget=None)
    assert (report.outcome, report.reason, report.steps, report.budget) == (
        "budget_exceeded", "step_budget", normalize.DEFAULT_BUDGET, normalize.DEFAULT_BUDGET)
    trace = NormalizationTrace()
    with pytest.raises(NonTerminationError, match="within %d steps" % normalize.DEFAULT_BUDGET):
        increment(BAD131, (1,), 1, budget=None, trace=trace)
    assert trace.step_count == normalize.DEFAULT_BUDGET
    # the probe stops on support growth first, and names the budget it had
    assert probe_termination(BAD131, (2,), budget=None).budget == normalize.DEFAULT_BUDGET
    # weakly decreasing c keep the guard, and their report names it
    assert normalize_nsr(C211, (0, 2, 2), budget=None).budget == 2 * normalize.DEFAULT_BUDGET


# -- differential oracles for the in-place rewriting loop ----------------------

RELAXED = [(1, 3, 1), (1, 4, 2, 1), (1, 2, 1), (2, 3, 1), (1, 2, 2, 1), (2, 2, 3, 1)]


def _oracle_carry_legal(c, a, i):
    coeffs = c.coefficients
    m = len(a)
    for l in range(1, c.k + 1):
        have = a[i + l - 1] if i + l <= m else 0
        if have < coeffs[l - 1]:
            return False
    return True


def full_rescan_reduce(c, a, budget=None, support_cap=None, trace=None):
    """The reduction loop as a full rescan: every round scans from position 1,
    and every step goes through the public carry/borrow, which validate and
    copy the whole string.  With no budget, weakly decreasing c get the
    10^7-step guard and other c the default budget."""
    k = c.k
    total = c.coefficient_total
    if budget is None:
        budget = 10_000_000 if c.weakly_decreasing else normalize.DEFAULT_BUDGET
    if trace is None:
        trace = NormalizationTrace()
    cur = tuple(a)
    g = sum(cur)
    g_history = [g]
    max_support = len(cur)
    steps = 0
    iterations = []
    while True:
        result = scan(c, cur)
        if result.ok:
            trace.terminated = True
            return ProbeReport("terminated", cur, cur, steps, budget, None,
                               max_support, g_history, trace, iterations)
        if support_cap is not None and len(cur) > support_cap:
            return ProbeReport("budget_exceeded", None, cur, steps, budget, "support_growth",
                               max_support, g_history, trace, iterations)
        if steps >= budget:
            return ProbeReport("budget_exceeded", None, cur, steps, budget, "step_budget",
                               max_support, g_history, trace, iterations)
        fail_pos, np_, matched = result.fail_pos, result.chunk_start, result.matched
        prefix_mass = sum(cur[:np_ - 1])
        g_before = g
        if matched == k - 1:
            cur = carry(c, cur, np_ - 1)
            steps += 1
            g += (1 - total) if np_ - 1 >= 1 else -total
            trace.record("carry", np_ - 1, cur, g)
            g_history.append(g)
            case = "carry_only"
        else:
            cur = borrow(c, cur, fail_pos)
            steps += 1
            g += total - 1
            trace.record("borrow", fail_pos, cur, g)
            g_history.append(g)
            max_support = max(max_support, len(cur))
            case = "borrow_only"
            if steps < budget and _oracle_carry_legal(c, cur, np_ - 1):
                cur = carry(c, cur, np_ - 1)
                steps += 1
                g += (1 - total) if np_ - 1 >= 1 else -total
                trace.record("carry", np_ - 1, cur, g)
                g_history.append(g)
                case = "borrow_carry"
        iterations.append(IterationRecord(fail_pos, np_, matched, case, g_before, prefix_mass))


def _report_fields(report):
    fields = dict(vars(report))
    fields["trace"] = vars(fields["trace"])
    return fields


def oracle_increment(c, a, i, trace=None, budget=None):
    """Add X_{-i} to the satisfying tuple a by the full-rescan loop."""
    bumped = list(a) + [0] * (i - len(a))
    bumped[i - 1] += 1
    report = full_rescan_reduce(c, tuple(bumped), budget=budget, trace=trace)
    return report.result if report.terminated else None


@st.composite
def bumped_satisfying(draw):
    """A recurrence, a satisfying string of its chunk grammar and a position
    1..len+k to raise by 1."""
    coeffs, relaxed = draw(st.sampled_from([(c, False) for c in STRICT]
                                           + [(c, True) for c in RELAXED]))
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    a = []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        j = draw(st.sampled_from([j for j in range(c.k) if coeffs[j] > 0]))
        a += list(coeffs[:j]) + [draw(st.integers(min_value=0, max_value=coeffs[j] - 1))]
        a += [0] * draw(st.integers(min_value=0, max_value=3))
    while a and a[-1] == 0:
        a.pop()
    return c, tuple(a), draw(st.integers(min_value=1, max_value=len(a) + c.k))


@st.composite
def nearly_satisfying_inputs(draw):
    """A bumped satisfying string that is nearly satisfying, at most 30 long."""
    c, a, i = draw(bumped_satisfying())
    a = list(a) + [0] * (i - len(a))
    a[i - 1] += 1
    assume(len(a) <= 30 and classify(c, a).kind == "nearly_satisfying")
    return c, tuple(a)


@settings(max_examples=300, deadline=None)
@given(nearly_satisfying_inputs(), st.data())
def test_rewriting_loop_matches_full_rescan(case, data):
    c, a = case
    budget = data.draw(st.sampled_from(([None] if not c.relaxed else []) + [0, 1, 300]))
    support_cap = data.draw(st.sampled_from([None, len(a) + 50 * c.k]))
    got = _reduce(c, a, budget=budget, support_cap=support_cap)
    want = full_rescan_reduce(c, a, budget=budget, support_cap=support_cap)
    assert _report_fields(got) == _report_fields(want)


@settings(max_examples=200, deadline=None)
@given(bumped_satisfying())
def test_increment_matches_full_rescan(case):
    c, a, i = case
    budget = None if c.weakly_decreasing else 300
    got, want = NormalizationTrace(), NormalizationTrace()
    expected = oracle_increment(c, a, i, want, budget)
    if expected is None:
        with pytest.raises(NonTerminationError):
            increment(c, a, i, budget=budget, trace=got)
    else:
        assert increment(c, a, i, budget=budget, trace=got) == expected
    assert vars(got) == vars(want)


def increment_chain(c, v, trace):
    """decompose as a chain of oracle increments, each on a fresh tuple."""
    coeffs, k = c.coefficients, c.k
    shift = 0
    for j in range(k - 1):
        if v[j] < 0:
            shift = max(shift, (-v[j] + coeffs[j] - 1) // coeffs[j])
    a = ()
    for _ in range(shift):
        a = oracle_increment(c, a, k, trace)
    for j in range(1, k):
        for _ in range(v[j - 1] + shift * coeffs[j - 1]):
            a = oracle_increment(c, a, j, trace)
    return a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(STRICT), st.data())
def test_traced_decompose_matches_increment_chain(coeffs, data):
    c = RecurrenceVector(coeffs)
    v = data.draw(st.tuples(*[st.integers(min_value=-300, max_value=300)] * (c.k - 1)))
    got, want = NormalizationTrace(), NormalizationTrace()
    assert decompose(c, v, trace=got) == increment_chain(c, v, want)
    assert vars(got) == vars(want)


def assert_crosses_thinning(trace):
    """The trace holds an entry for every unit step up to TRACE_FULL_STEPS,
    a borrow run collapsed into one entry that may carry the run past it,
    and after that at most one entry per TRACE_THIN_EVERY steps."""
    assert trace.step_count >= TRACE_FULL_STEPS + TRACE_THIN_EVERY
    done = n = 0
    while done < TRACE_FULL_STEPS:
        done += trace.steps[n].count
        n += 1
    assert done == TRACE_FULL_STEPS or trace.steps[n - 1].op == "borrow"
    later = len(trace.steps) - n
    assert 1 <= later <= (trace.step_count - TRACE_FULL_STEPS) // TRACE_THIN_EVERY


@pytest.mark.parametrize("coeffs", STRICT, ids=lambda cs: ",".join(map(str, cs)))
def test_traced_decompose_matches_increment_chain_past_the_thinning(coeffs):
    # |v| of 1000-1600 takes the chain past TRACE_FULL_STEPS unit steps
    c = RecurrenceVector(coeffs)
    rng = random.Random(1600)
    for n in (1000, 1300, 1600):
        v = (n,) + tuple(rng.randint(-n, n) for _ in range(c.k - 2))
        got, want = NormalizationTrace(), NormalizationTrace()
        assert decompose(c, v, trace=got) == increment_chain(c, v, want)
        assert vars(got) == vars(want)
        assert_crosses_thinning(got)


def satisfying_string(coeffs, length, rng):
    """A satisfying string of more than length digits, chunk by chunk:
    c_1..c_j, a digit below c_{j+1}, up to two zeros; a last 1 <= c_1 ends
    it in a live state (strict c only)."""
    out = []
    while len(out) < length:
        j = rng.randrange(len(coeffs))
        out += list(coeffs[:j]) + [rng.randrange(coeffs[j])] + [0] * rng.randrange(3)
    return tuple(out) + (1,)


class _CountedReads:
    """A read-only view of a list that counts the positions read from it."""

    def __init__(self, a, reads):
        self.a, self.reads = a, reads

    def __len__(self):
        return len(self.a)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.a[i]


@pytest.mark.parametrize("coeffs", STRICT, ids=lambda cs: ",".join(map(str, cs)))
def test_a_bump_resumes_the_scan_at_the_last_chunk_start_before_it(monkeypatch, coeffs):
    # a bump at b changes nothing before the last chunk start at or before b,
    # so the first scan after each bump starts there and reads nothing before
    # it.  The loop's scans that pass are the seeded one and one per bump.
    c = RecurrenceVector(coeffs)
    rng = random.Random(41)
    scans = []
    original = normalize._scan_from

    def recorded(coeffs, k, a, starts, p, *kept):
        reads = []
        fail = original(coeffs, k, _CountedReads(a, reads), starts, p, *kept)
        scans.append((p, fail, reads))
        return fail

    monkeypatch.setattr(normalize, "_scan_from", recorded)
    for length in (41, 400):
        for _ in range(50):
            a = satisfying_string(coeffs, length, rng)
            bumps = [rng.randint(1, len(a) + c.k) for _ in range(2)]
            before, expected = a, []
            for b in bumps:
                starts = scan(c, before).starts
                expected.append(max(q for q in starts if q <= b))
                before = normalize.increment(c, before, b)
            del scans[:]
            out = list(a)
            normalize._bump_and_rewrite(c, out, bumps, None, None, scan(c, a).starts)
            assert tuple(out) == before
            after_pass = [n + 1 for n, (_, fail, _) in enumerate(scans) if fail is None]
            assert len(after_pass) == len(bumps) + 1
            for n, q in zip(after_pass, expected):
                p, _, reads = scans[n]
                assert p == q, (a, bumps)
                assert min(reads, default=p - 1) >= p - 1, (a, bumps)


@pytest.mark.parametrize("coeffs", STRICT, ids=lambda cs: ",".join(map(str, cs)))
def test_a_passing_scan_stops_where_it_rejoins_the_last_one(monkeypatch, coeffs):
    # after a bump at b, the rounds write nothing past W, the larger of b
    # and each failing scan's fail_pos + k.  From the first chunk start q
    # past W that the strings before and after the bump share, the passing
    # scan would go on as the last one did, so it reads nothing past q,
    # however long the string
    c = RecurrenceVector(coeffs)
    k = c.k
    rng = random.Random(4000)
    scans = []
    original = normalize._scan_from

    def recorded(coeffs, k, a, starts, p, *kept):
        reads = []
        fail = original(coeffs, k, _CountedReads(a, reads), starts, p, *kept)
        scans.append((fail, reads))
        return fail

    monkeypatch.setattr(normalize, "_scan_from", recorded)
    for length in (400, 4000):
        out = list(satisfying_string(coeffs, length, rng))
        for n in range(30):
            b = 1 + n % k
            before = scan(c, tuple(out)).starts
            del scans[:]
            normalize._bump_and_rewrite(c, out, (b,), None, None, before)
            after = set(scan(c, tuple(out)).starts)
            # the seeded scan of the last chunk, the rounds' failing scans,
            # then the one that passes
            *failing, (fail, reads) = scans[1:]
            assert fail is None
            w = max([b] + [f[0] + k for f, _ in failing])
            q = min(s for s in before if s > w and s in after)
            assert max(reads) <= q - 1, (b, w, q, max(reads))


@pytest.mark.parametrize("coeffs, budget", [(cs, None) for cs in STRICT]
                         + [(cs, 300) for cs in RELAXED[:3]],
                         ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple)
                         else "budget=%s" % x)
def test_rewrites_of_many_chunks_match_full_rescan(coeffs, budget):
    # strings of 40 or more chunks, so a bump's scan can rejoin the last
    # passing one well before the end: bumps at 1..k, where traced decompose
    # makes them, and mid-string, each by `increment` and all of them by one
    # `_bump_and_rewrite`, against the full-rescan loop
    c = RecurrenceVector(coeffs, relaxed=budget is not None)
    rng = random.Random(40)
    for _ in range(6):
        a = satisfying_string(coeffs, 300, rng)
        assert len(scan(c, a).starts) >= 40
        bumps = ([rng.randint(1, c.k) for _ in range(12)]
                 + [rng.randint(len(a) // 4, 3 * len(a) // 4) for _ in range(12)])
        rng.shuffle(bumps)
        want, got = NormalizationTrace(), NormalizationTrace()
        cur, done = a, []
        for b in bumps:
            expected = oracle_increment(c, cur, b, want, budget)
            if expected is None:
                with pytest.raises(NonTerminationError):
                    increment(c, cur, b, budget=budget, trace=got)
                break
            assert increment(c, cur, b, budget=budget, trace=got) == expected
            cur = expected
            done.append(b)
        assert vars(got) == vars(want)
        if not done:
            continue
        one_pass, out = NormalizationTrace(), list(a)
        normalize._bump_and_rewrite(c, out, done, budget, one_pass, scan(c, a).starts)
        assert tuple(out) == cur
        oracle = NormalizationTrace()
        cur = a
        for b in done:
            cur = oracle_increment(c, cur, b, oracle, budget)
        assert vars(one_pass) == vars(oracle)


# -- the loop's own step records against NormalizationTrace.record -----------

@pytest.mark.parametrize("coeffs, a, budget, support_cap, reason", [
    # past TRACE_FULL_STEPS, with borrow runs merged on both sides of it
    ((1, 3, 1), (2,), 1200, None, "step_budget"),
    ((1, 4, 2, 1), (2,), 3000, None, "step_budget"),
    # the budget stops a run inside the unthinned prefix
    ((1, 4, 2, 1), (1, 5), 300, None, "step_budget"),
    # the support outgrows its cap, as the probes set it
    ((1, 3, 1), (2,), 3000, 1 + 50 * 3, "support_growth"),
], ids=["1,3,1-thinned", "1,4,2,1-thinned", "budget", "support-growth"])
def test_the_loop_keeps_the_steps_record_keeps(coeffs, a, budget, support_cap, reason):
    # the full-rescan oracle records every unit step through
    # NormalizationTrace.record; the loop merges and thins in place
    c = RecurrenceVector(coeffs, relaxed=True)
    got = _reduce(c, a, budget=budget, support_cap=support_cap)
    want = full_rescan_reduce(c, a, budget=budget, support_cap=support_cap)
    assert got.reason == reason
    assert any(step.count > 1 for step in got.trace.steps)
    assert _report_fields(got) == _report_fields(want)
    if got.steps > TRACE_FULL_STEPS + TRACE_THIN_EVERY:
        assert_crosses_thinning(got.trace)


def test_two_increments_share_one_trace_across_the_thinning():
    # each increment diverges to its budget of 700 steps, so the second
    # starts from the first's unit-step count and crosses TRACE_FULL_STEPS
    c = RecurrenceVector((1, 4, 2, 1), relaxed=True)
    got, want = NormalizationTrace(), NormalizationTrace()
    for a, i in (((1,), 1), ((1, 0, 0, 1), 4)):
        assert oracle_increment(c, a, i, want, budget=700) is None
        with pytest.raises(NonTerminationError):
            increment(c, a, i, budget=700, trace=got)
        assert got.step_count == want.step_count
    assert got.step_count == 1400
    assert vars(got) == vars(want)
    assert_crosses_thinning(got)


def test_a_carry_only_refusal_leaves_the_trace_counting_its_steps():
    # (2, 1, 4) takes one carry into the virtual position, to (0, 0, 3),
    # which is not end-complete; the trace already holds a resolution
    _, trace = resolve_end_complete(C211, (2, 1, 0, 2, 1, 1))
    want = NormalizationTrace()
    for step in trace.steps:
        want.record(step.op, step.pos, step.string, step.mass)
    want.terminated = True
    history = []
    with pytest.raises(NotEndCompleteError):
        normalize._rewrite(C211, [2, 1, 4], math.inf, trace, history, carry_only=True)
    want.record("carry", 0, (0, 0, 3), 3)
    assert history == [3]
    assert trace.step_count == len(want.steps) == 3
    assert vars(trace) == vars(want)


class _SliceCountedList(list):
    """A list that counts, per round of the loop, the elements its slices
    read: the loop slices a only for a round's prefix mass and for its
    carry check, which reads k elements."""

    def __init__(self, a, reads, iterations):
        super().__init__(a)
        self.reads, self.iterations = reads, iterations

    def __getitem__(self, i):
        out = list.__getitem__(self, i)
        if isinstance(i, slice):
            self.reads[len(self.iterations)] += len(out)
        return out


def prefix_mass_moves(iterations, reads, k):
    """Each round's boundary move, from 0 before the first, after checking
    that the round read at most k + its move."""
    bound, moves = 0, []
    for r, record in enumerate(iterations):
        moves.append(abs(record.chunk_start - 1 - bound))
        bound = record.chunk_start - 1
        assert reads[r] <= k + moves[-1], (r, reads[r], moves[-1])
    return moves


@pytest.mark.parametrize("coeffs", STRICT, ids=lambda cs: ",".join(map(str, cs)))
def test_the_prefix_mass_reads_what_its_boundary_moves_over(coeffs):
    # the strings of the count test above, bumped at 1..k: a round reads
    # at most k plus its boundary's move, and the moves stay within k a
    # round, however long the string
    c = RecurrenceVector(coeffs)
    k = c.k
    rng = random.Random(4000)
    for length in (400, 4000):
        out = list(satisfying_string(coeffs, length, rng))
        for n in range(30):
            starts = scan(c, tuple(out)).starts
            iterations, reads = [], collections.Counter()
            a = _SliceCountedList(out, reads, iterations)
            normalize._rewrite(c, a, math.inf, iterations=iterations, bumps=(1 + n % k,),
                               starts=starts)
            moves = prefix_mass_moves(iterations, reads, k)
            assert sum(moves) <= k * len(iterations), (length, n, moves)
            out = list(a)


def test_round_records_read_a_few_elements_a_round_on_a_long_string():
    # item 17's divergent probe, at 10,000 zeros then 2: the first round
    # moves the boundary over the zeros, and the thousands of rounds after
    # it read a few elements each, not the string's length each
    c = RecurrenceVector((1, 4, 2, 1), relaxed=True)
    iterations, reads = [], collections.Counter()
    a = _SliceCountedList([0] * 10_000 + [2], reads, iterations)
    assert normalize._rewrite(c, a, 10_000, iterations=iterations,
                              support_cap=10_001 + 50 * c.k)[2] == "step_budget"
    moves = prefix_mass_moves(iterations, reads, c.k)
    assert len(iterations) > 5000
    assert moves[0] == 10_000
    assert sum(reads.values()) - moves[0] <= 2 * c.k * len(iterations)


def test_trace_steps_are_named_tuples():
    step = TraceStep("borrow", 3, (0, 2, 1, 2, 1, 1), 7)
    assert TraceStep._fields == ("op", "pos", "string", "mass", "count")
    assert step.count == 1
    assert step == ("borrow", 3, (0, 2, 1, 2, 1, 1), 7, 1)
    assert repr(step) == ("TraceStep(op='borrow', pos=3, string=(0, 2, 1, 2, 1, 1), "
                          "mass=7, count=1)")
    with pytest.raises(AttributeError):
        step.count = 2
    assert "TraceStep" not in zeckvec.__all__


# -- the held and the streamed bridge ------------------------------------------

# every weakly decreasing c with k <= 5, c1 <= 4 and ck = 1: 69 vectors
STRICT_SMALL = [head + (1,) for k in range(2, 6)
                for head in itertools.combinations_with_replacement(range(4, 0, -1), k - 1)]


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
def test_scalar_window_matches_the_terms(coeffs):
    k = len(coeffs)
    xs = scalar_terms(coeffs, 300 + 2 * k)
    for n in range(301):
        assert scalar_window(coeffs, n, k + 1) == xs[n:n + k + 1], (coeffs, n)


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
def test_string_value_matches_the_backward_column(coeffs):
    rng = random.Random(len(coeffs))
    alpha = column_weights(coeffs)
    for _ in range(40):
        a = [rng.randint(0, 5) for _ in range(rng.randint(0, 60))]
        t = backward_column(coeffs, len(a) + len(coeffs) - 1)
        assert string_value(coeffs, a) == column_value(alpha, t, a)


def streamed_digits(c, v, n):
    """`_level_digits` from its streamed source, at a level of any size."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bridge, "HELD_LEVEL_CAP", 0)
        return _level_digits(c, v, n)


def bridge_levels(c, v, length):
    """Levels the bridge tries for v, whose satisfying string has this length:
    a level is accepted exactly when it exceeds the length."""
    levels = [_bridge_level(c, v)]
    while levels[-1] <= length:
        levels.append(2 * levels[-1])
    return levels


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
@settings(max_examples=15, deadline=None)
@given(st.data())
def test_streamed_bridge_matches_tables_and_chain(coeffs, data):
    c = RecurrenceVector(coeffs)
    v = data.draw(st.tuples(*[st.integers(min_value=-60, max_value=60)] * (c.k - 1)))
    assume(any(v))
    want = _decompose_chain(c, v)
    assert decompose(c, v) == want
    # every level tried, rejected ones included, far below the cap
    for n in bridge_levels(c, v, len(want)):
        assert streamed_digits(c, v, n) == _level_digits(c, v, n)
    arr = streamed_digits(c, v, n)
    assert (tuple(arr), _held_blocks(c).value(arr)) == (want, v)


@pytest.mark.parametrize("coeffs", STRICT, ids=lambda cs: ",".join(map(str, cs)))
def test_bridge_retries_a_level_too_low(coeffs, monkeypatch):
    # a first level of k + 1 is rejected for most strings, so the level
    # doubles until one exceeds the string; a 1200-digit vector's doublings
    # pass HELD_LEVEL_CAP into streamed levels
    c = RecurrenceVector(coeffs)
    rng = random.Random(len(coeffs) + 31)
    small = [tuple(rng.randint(-60, 60) for _ in range(c.k - 1)) for _ in range(30)]
    large = _digits_vector(rng, c.k - 1, 1200)
    want = decompose(c, large)
    levels = []

    def level_digits(c, v, n):
        levels.append(n)
        return _level_digits(c, v, n)

    monkeypatch.setattr(bridge, "_bridge_level", lambda c, v: c.k + 1)
    monkeypatch.setattr(bridge, "_level_digits", level_digits)
    for v in small:
        assert decompose(c, v) == _decompose_chain(c, v), v
    assert max(levels) > c.k + 1
    del levels[:]
    assert decompose(c, large) == want
    assert levels == [(c.k + 1) << i for i in range(len(levels))]
    assert levels[0] <= HELD_LEVEL_CAP < levels[-1]


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
def test_streamed_digits_match_held_digits_at_any_level(coeffs):
    # both paths take the greedy digits of the same z at the given level,
    # accepted or not; the levels cross the descent's blocks and reach the cap
    c = RecurrenceVector(coeffs)
    rng = random.Random(len(coeffs))
    k = c.k
    for n in (k + 1, 63 + k, 64 + k, 65 + k, 129 + k, 700, HELD_LEVEL_CAP):
        v = _digits_vector(rng, k - 1, rng.randint(1, max(1, 3 * n // 10)))
        assert streamed_digits(c, v, n) == _level_digits(c, v, n), n


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
def test_block_greedy_matches_the_term_by_term_greedy(coeffs):
    # positions around the block edges; z at 0, 1, both sides of X_N, the
    # top of [0, X_{N+1}) and seeded random values
    k = len(coeffs)
    rng = random.Random(k * 100 + coeffs[0])
    seq = RecurrenceVector(coeffs).scalar()
    blocks = _Blocks(coeffs)
    xs = scalar_terms(coeffs, 20 * BLOCK + k + 2)
    for count in [*range(1, 2 * k + 2), BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + k,
                  2 * BLOCK + 1, 3 * BLOCK + k, 8 * BLOCK + 1, 20 * BLOCK + k]:
        top = [seq.term(i) for i in range(count + 1 - k, count + 1)]
        edges = {0, 1, xs[count] - 1, xs[count], xs[count + 1] - 2, xs[count + 1] - 1}
        for z in sorted(edges) + [rng.randrange(xs[count + 1]) for _ in range(3)]:
            assert (blocks.greedy(z, top, count)
                    == greedy_digits(z, xs[count:0:-1])[0]), (count, z)


@pytest.mark.parametrize("coeffs", [(1, 3, 1), (1, 4, 2, 1)])
def test_decompose_refuses_relaxed_coefficients_before_the_blocks(coeffs):
    # their greedy digits can exceed c1, which the blocked greedy and the
    # leaf columns assume; the refusal comes before the blocks are built
    c = RecurrenceVector(coeffs, relaxed=True)
    for trace in (None, NormalizationTrace()):
        with pytest.raises(InvalidRecurrenceError, match="weakly decreasing"):
            decompose(c, (1,) * (c.k - 1), trace=trace)
    assert c._bridge is None


@pytest.mark.parametrize("count", [5, 3 * BLOCK + 1])
def test_block_greedy_refuses_z_outside_the_range(count):
    blocks = _Blocks((2, 1, 1))
    xs = scalar_terms((2, 1, 1), count + 2)
    for z in (-1, xs[count + 1], 10 * xs[count + 1]):
        with pytest.raises(ValueError):
            blocks.greedy(z, xs[count - 2:count + 1], count)


@pytest.mark.parametrize("coeffs", STRICT_SMALL, ids=lambda cs: ",".join(map(str, cs)))
def test_streamed_digits_match_held_digits_across_blocks(coeffs):
    # the block of the streamed greedy starts at positions 1, BLOCK + 1, ...
    # (level n = position + 1); these levels put the top block at each size
    c = RecurrenceVector(coeffs)
    rng = random.Random(len(coeffs) + 10)
    k = c.k
    for n in (k + 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 3 * BLOCK + k, 1000,
              HELD_LEVEL_CAP):
        v = _digits_vector(rng, k - 1, rng.randint(1, max(1, 3 * n // 10)))
        assert streamed_digits(c, v, n) == _level_digits(c, v, n), n


@pytest.mark.parametrize("coeffs", STRICT)
def test_the_bridge_holds_one_block_object(coeffs):
    # untraced decompose keeps one `_Blocks`, the growth rate with it, on c,
    # and a later call, held level or streamed, reuses it
    c = RecurrenceVector(coeffs)
    rng = random.Random(sum(coeffs))
    decompose(c, _digits_vector(rng, c.k - 1, 5))
    blocks = c._bridge
    assert type(blocks) is _Blocks and blocks.log_growth > 0
    assert _held_blocks(c) is blocks
    decompose(c, _digits_vector(rng, c.k - 1, 2400))
    assert c._bridge is blocks and _held_blocks(c) is blocks


def test_only_the_untraced_bridge_holds_block_constants():
    c = RecurrenceVector((2, 1, 1))
    a = decompose(c, (12, -5), trace=NormalizationTrace())
    assert evaluate(c, a) == (12, -5)
    assert len(list(exact_series(c, 1, 12))) == 12
    assert len(support_shell(c, 6)) > 0
    assert c._bridge is None


def test_bridge_levels_and_strings_are_the_pinned_ones():
    # sha256 of repr((_bridge_level(c, v), decompose(c, v))) for 60 vectors
    # per c of STRICT_SMALL, 4140 in all: 58 of 1-300 digits, then one of
    # 1200 and one of 2400 digits (streamed levels), as the bridge gave them
    # when the growth rate was held apart from the block constants
    digest = hashlib.sha256()
    for coeffs in STRICT_SMALL:
        c = RecurrenceVector(coeffs)
        rng = random.Random(",".join(map(str, coeffs)))
        sizes = [rng.randint(1, 300) for _ in range(58)] + [1200, 2400]
        for digits in sizes:
            v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                      for _ in range(c.k - 1))
            digest.update(repr((_bridge_level(c, v), decompose(c, v))).encode())
    assert digest.hexdigest() == \
        "6a47c87f92b68f1909455c0151187c7d46ed11b443f4aca69f8175fb473d84c9"


@pytest.mark.parametrize("coeffs", STRICT)
def test_decompose_strings_evaluate_back_by_the_public_tree(coeffs):
    # the held check, with the held columns, accepted these strings (a held
    # level at 100 digits, a streamed one at 1200); public `string_value`,
    # with its own per-call columns and slot widths, must give v back from
    # them too
    c = RecurrenceVector(coeffs)
    rng = random.Random(",".join(map(str, coeffs)) + " public")
    for digits in (100, 1200):
        v = tuple(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits)
                  for _ in range(c.k - 1))
        a = decompose(c, v)
        assert len(a) > BLOCK and is_satisfying(c, a), digits
        assert string_value(coeffs, a) == v == _held_blocks(c).value(a), digits


# lengths on both sides of the tree's leaf and node boundaries
_TREE_LENGTHS = st.one_of(st.integers(0, 3 * BLOCK + 1),
                          st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                           2 * BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 1]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(STRICT_SMALL), _TREE_LENGTHS, st.data())
def test_string_value_tree_matches_the_backward_column(coeffs, length, data):
    # digits up to c1 + 2, so strings that are not satisfying come too
    a = data.draw(st.lists(st.integers(0, coeffs[0] + 2), min_size=length, max_size=length))
    t = backward_column(coeffs, length + len(coeffs) - 1)
    assert string_value(coeffs, a) == column_value(column_weights(coeffs), t, a)


@pytest.mark.parametrize("coeffs", STRICT)
def test_string_value_stack_matches_the_backward_column_for_many_leaves(coeffs):
    # 1..17 leaves, so every stack shape of up to five levels is folded at the end
    rng = random.Random(len(coeffs))
    for leaves in range(1, 18):
        for length in (leaves * BLOCK - 1, leaves * BLOCK, leaves * BLOCK + 1):
            a = [rng.randint(0, coeffs[0] + 2) for _ in range(length)]
            t = backward_column(coeffs, length + len(coeffs) - 1)
            assert string_value(coeffs, a) == column_value(column_weights(coeffs), t, a), length


RELAXED = [(1, 3, 1), (1, 0, 1), (2, 0, 0, 1), (1, 4, 2, 1)]


@pytest.mark.parametrize("coeffs", STRICT + RELAXED, ids=lambda cs: ",".join(map(str, cs)))
def test_string_value_takes_digits_of_any_size(coeffs):
    # the leaves' slots must widen with the largest digit: digits up to
    # max(c), as greedy digits are, and far above it
    c = RecurrenceVector(coeffs, relaxed=coeffs in RELAXED)
    rng = random.Random(sum(coeffs) * 31 + len(coeffs))
    alpha = column_weights(coeffs)
    for top in (max(coeffs), coeffs[0] + 2, 10 ** 6, 10 ** 30):
        for length in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 17 * BLOCK + 1):
            a = [rng.randint(0, top) for _ in range(length - 1)] + [top]
            rng.shuffle(a)
            a.append(rng.randint(1, top))
            t = backward_column(coeffs, len(a) + len(coeffs) - 1)
            want = column_value(alpha, t, a)
            assert string_value(coeffs, a) == want, (top, length)
            assert evaluate(c, a) == want, (top, length)


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1, 1)])
def test_string_value_holds_one_remainder_per_tree_level(coeffs):
    # 400,000 digits make 3125 leaves.  Holding every leaf before the first
    # join peaked at 0.88 MB (1,1) and 1.22 MB (1,1,1,1) above the input; a
    # stack of one node per level peaks at 0.46 and 0.41 MB, most of it the
    # top levels' big remainders and powers of y
    rng = random.Random(400)
    a = [rng.randrange(2) for _ in range(400_000)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        string_value(coeffs, a)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 640_000, peak


def test_mixed_replay_grows_the_held_lists_in_place():
    rng = random.Random(8)
    for coeffs in STRICT:
        c = RecurrenceVector(coeffs)
        sizes = [rng.randint(1, 3) for _ in range(40)] + [rng.randint(4, 700) for _ in range(40)]
        sizes += [1200]
        rng.shuffle(sizes)
        decompose(c, _digits_vector(rng, c.k - 1, 1))
        xs, t = c.scalar()._up, c.vector()._down
        level = len(xs) - 1
        for digits in sizes:
            v = _digits_vector(rng, c.k - 1, digits)
            before = len(xs)
            a = decompose(c, v)
            assert evaluate(c, a) == v
            # the same lists, the terms longer only when a call needed a new
            # highest level, the column never
            assert c.scalar()._up is xs and c.vector()._down is t
            need = max([n for n in bridge_levels(c, v, len(a)) if n <= HELD_LEVEL_CAP],
                       default=0)
            if need > level:
                level = need
                assert len(xs) == level + 1
            else:
                assert len(xs) == before
            assert len(xs) - 1 == level <= HELD_LEVEL_CAP
            assert len(t) == c.k
        assert level > 0 and len(xs) <= HELD_LEVEL_CAP + 1


@pytest.mark.parametrize("coeffs", STRICT)
def test_decompose_leaves_the_vector_column_as_it_was(coeffs):
    # the bridge checks every level by the held product tree, so neither the
    # held levels (small and 100-digit vectors) nor a streamed one (2400
    # digits) grow the vector sequence's column
    rng = random.Random(sum(coeffs))
    c = RecurrenceVector(coeffs)
    vector_term(c, -3)
    held = len(c.vector()._down)
    for digits in (1, 2, 100, 2400):
        v = _digits_vector(rng, c.k - 1, digits)
        assert evaluate(c, decompose(c, v)) == v
        assert len(c.vector()._down) == held, digits


def test_4000_digit_round_trip_memory_is_linear():
    c = RecurrenceVector((1, 1, 1))
    v = _digits_vector(random.Random(4000), 2, 4000)
    tracemalloc.start()
    try:
        a = decompose(c, v)
        assert evaluate(c, a) == v
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(a) > 30000
    # level-30234 tables would take 73 MB; the stream keeps a few terms of
    # at most 26000 bits and the string itself
    assert peak < 8 * 10 ** 6, peak
