"""Refusals of the public entry points and the CLI: the exception class and
message each raises today, one row per case, so that a change to the error
contract shows here as a changed row."""

import pytest

from zeckvec import (BorrowBlockedError, CarryBlockedError, InvalidRecurrenceError,
                     NotEndCompleteError, NotNearlySatisfyingError,
                     NotSatisfyingError, RecurrenceVector, ball_coverage, borrow, canonical,
                     carry, chunk_decomposition, decompose, enumerate_representations, increment,
                     legal_decompose, normalize_nsr, probe_termination, resolve_end_complete,
                     spanning_probe, summand_count, summand_distribution, support_shell)
from zeckvec.analytics import exact_series
from zeckvec.cli import main

C211 = RecurrenceVector((2, 1, 1))
R131 = RecurrenceVector((1, 3, 1), relaxed=True)
# 5000 sevens, past CPython's 4300-digit limit on int -> str: a refusal
# names it by its bits, since str() of it would raise
SEVENS = 7 * (10 ** 5000 - 1) // 9

REFUSALS = {
    "legal_decompose(c, -1)": (
        lambda: legal_decompose(C211, -1),
        ValueError, "legal decomposition needs a nonnegative integer"),
    "enumerate_representations(c, -1)": (
        lambda: enumerate_representations(C211, -1),
        ValueError, "support bound must be >= 0"),
    "support_shell(c, 0)": (
        lambda: support_shell(C211, 0),
        ValueError, "shell index must be >= 1"),
    "ball_coverage(c, -1)": (
        lambda: ball_coverage(C211, -1),
        ValueError, "radius must be >= 0"),
    "exact_series(c, 0, 3)": (
        lambda: list(exact_series(C211, 0, 3)),
        ValueError, "window index must be >= 1"),
    "summand_distribution(c, 0)": (
        lambda: summand_distribution(C211, 0),
        ValueError, "window index must be >= 1"),
    "summand_distribution(c, 3, mode='x')": (
        lambda: summand_distribution(C211, 3, mode="x"),
        ValueError, "mode must be 'exact' or 'sampled'"),
    "carry(c, a, -1)": (
        lambda: carry(C211, (2, 1, 1), -1),
        ValueError, "carry position must be >= 0"),
    "borrow(c, a, 0)": (
        lambda: borrow(C211, (2, 1, 1), 0),
        ValueError, "borrow position must be >= 1"),
    "resolve_end_complete(relaxed c, a)": (
        lambda: resolve_end_complete(R131, (1, 1, 2)),
        InvalidRecurrenceError, "end-complete resolution requires weakly decreasing coefficients"),
    "increment(c, not satisfying, 1)": (
        lambda: increment(C211, (3,), 1),
        NotSatisfyingError, "increment requires a satisfying representation: (3,)"),
    "increment(c, a, 0)": (
        lambda: increment(C211, (1,), 0),
        ValueError, "index must be >= 1"),
    "decompose(c, wrong dimension)": (
        lambda: decompose(C211, (1,)),
        ValueError, "vector dimension must be k-1 = 2"),
    "probe_termination(c, not nearly satisfying)": (
        lambda: probe_termination(R131, (9, 9, 9)),
        NotNearlySatisfyingError,
        "probe requires a nearly satisfying representation: (9, 9, 9)"),
    "spanning_probe(c, -1, 5)": (
        lambda: spanning_probe(C211, -1, 5),
        ValueError, "radius must be >= 0"),
    "c.search(0)": (
        lambda: C211.search(0),
        ValueError, "support bound must be >= 1"),
    "probe_termination(c, element past the digit limit)": (
        lambda: probe_termination(R131, (SEVENS,)),
        NotNearlySatisfyingError,
        "probe requires a nearly satisfying representation: (at least 2^16609,)"),
    "normalize_nsr(c, element past the digit limit)": (
        lambda: normalize_nsr(C211, (1, SEVENS)),
        NotNearlySatisfyingError,
        "input is not a nearly satisfying representation: (1, at least 2^16609)"),
    "increment(c, element past the digit limit, 1)": (
        lambda: increment(C211, (SEVENS, 0, 1), 1),
        NotSatisfyingError,
        "increment requires a satisfying representation: (at least 2^16609, 0, 1)"),
    "resolve_end_complete(c, element past the digit limit)": (
        lambda: resolve_end_complete(C211, (SEVENS,)),
        NotEndCompleteError,
        "not an end-complete nearly satisfying string: (at least 2^16609,)"),
    "canonical(element past the digit limit below zero)": (
        lambda: canonical((SEVENS, -SEVENS)),
        ValueError, "coefficient strings are nonnegative: (at least 2^16609, at most -2^16609)"),
    "chunk_decomposition(c, element past the digit limit)": (
        lambda: chunk_decomposition(C211, (0, SEVENS)),
        NotSatisfyingError, "not a satisfying representation: (0, at least 2^16609)"),
    "carry(c, a, 0) blocked": (
        lambda: carry(C211, (2, 1), 0),
        CarryBlockedError, "carry into 0 blocked: a_3 = 0 < c_3 = 1"),
    "borrow(c, a, 7) blocked": (
        lambda: borrow(C211, (2, 1, 1), 7),
        BorrowBlockedError, "borrow from 7 blocked: coefficient is zero"),
    "carry(c, a, position past the digit limit)": (
        lambda: carry(C211, (2, 1, 1), 10 ** 5000),
        CarryBlockedError, "carry into at least 2^16609 blocked: a_at least 2^16609 = 0 < c_1 = 2"),
    "borrow(c, a, position past the digit limit)": (
        lambda: borrow(C211, (2, 1, 1), 10 ** 5000),
        BorrowBlockedError, "borrow from at least 2^16609 blocked: coefficient is zero"),
    "carry(c, a, float position inside the string)": (
        lambda: carry(C211, (2, 1, 1), 1.0),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "carry(c, a, float position past the string)": (
        lambda: carry(C211, (0,), 5.0),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "borrow(c, a, float position inside the string)": (
        lambda: borrow(C211, (2, 1, 1), 1.0),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "borrow(c, a, float position past the string)": (
        lambda: borrow(C211, (0,), 5.0),
        TypeError, "'float' object cannot be interpreted as an integer"),
    "carry(c, a, True) blocked": (
        lambda: carry(C211, (2,), True),
        CarryBlockedError, "carry into 1 blocked: a_2 = 0 < c_1 = 2"),
    "borrow(c, a, True) blocked": (
        lambda: borrow(C211, (0, 1), True),
        BorrowBlockedError, "borrow from 1 blocked: coefficient is zero"),
    "c.scalar().max_index_at_most(-7)": (
        lambda: C211.scalar().max_index_at_most(-7),
        ValueError, "no term is at most -7: X_0 = X_1 = 1"),
    "c.scalar().max_index_at_most(value past the digit limit)": (
        lambda: C211.scalar().max_index_at_most(-10 ** 5000),
        ValueError, "no term is at most the given value, which is at most -2^16609: X_0 = X_1 = 1"),
    "carry(c with a coefficient past the digit limit, a, 1)": (
        lambda: carry(RecurrenceVector((10 ** 5000, 1)), (1,), 1),
        CarryBlockedError, "carry into 1 blocked: a_2 = 0 < c_1 = at least 2^16609"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=list(REFUSALS))
def test_library_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


CLI_REFUSALS = {
    "ZECKVEC_CAP=x": (
        {"ZECKVEC_CAP": "x"}, ("cover", "--c", "2,1,1", "--r", "1"),
        "ZECKVEC_CAP must be an integer, got 'x'"),
    "--c a,b": (
        {}, ("seq", "--c", "a,b", "--from", "1", "--to", "2"),
        "could not parse coefficients: 'a,b'"),
    "vec --from 5 --to 1": (
        {}, ("vec", "--c", "2,1,1", "--from", "5", "--to", "1"),
        "--to must be >= --from"),
    "stats --n-max below --n-min": (
        {}, ("stats", "--c", "2,1,1", "--n-min", "5", "--n-max", "4"),
        "--n-max must be >= --n-min"),
}


@pytest.mark.parametrize("env,argv,message", CLI_REFUSALS.values(), ids=list(CLI_REFUSALS))
def test_cli_refusals(capsys, monkeypatch, env, argv, message):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(list(argv))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", "error: %s\n" % message)


def test_summand_count_is_the_digit_sum():
    assert summand_count(()) == 0
    assert summand_count((2, 0, 1, 1)) == 4
    assert summand_count([10 ** 30, 1]) == 10 ** 30 + 1


def test_recurrence_vector_equality_hash_and_repr():
    same = RecurrenceVector([2, 1, 1])
    assert same == C211 and hash(same) == hash(C211)
    assert C211 != RecurrenceVector((2, 1, 1), relaxed=True)
    assert C211 != RecurrenceVector((3, 1, 1))
    assert C211 != (2, 1, 1)
    assert len({C211, same, R131}) == 2
    assert repr(C211) == "RecurrenceVector([2, 1, 1])"
    assert repr(R131) == "RecurrenceVector([1, 3, 1], relaxed)"
