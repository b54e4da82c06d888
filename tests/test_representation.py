import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zeckvec import (NotSatisfyingError, RecurrenceVector, canonical,
                     chunk_decomposition, classify, coefficient_sum, evaluate,
                     enumerate_representations, format_coefficients,
                     is_satisfying, parse_coefficients, prefix_sum)
from zeckvec import representation
from zeckvec.representation import (KIND_NEARLY_SATISFYING, KIND_OTHER,
                                    KIND_SATISFYING, SrClassification, scan)

G421 = RecurrenceVector((4, 2, 1))
C211 = RecurrenceVector((2, 1, 1))


def test_grammar_worked_examples():
    assert is_satisfying(G421, (2, 4, 2, 0, 1))
    assert not is_satisfying(G421, (2, 4, 2, 1))   # contains a full copy of 4,2,1
    assert not is_satisfying(G421, (2, 4, 3))      # the element 3 is too large


def test_empty_string_is_satisfying():
    assert is_satisfying(C211, ())
    assert is_satisfying(G421, (0, 0))  # trims to empty


def test_evaluate_examples():
    assert evaluate(C211, (0, 2, 1)) == (-2, 1)
    assert evaluate(C211, ()) == (0, 0)
    assert evaluate(C211, (1, 0, 0, 1, 1, 1)) == (-4, 0)


def test_evaluate_is_linear():
    a = (1, 0, 2, 1)
    b = (0, 2, 0, 0, 3)
    combined = tuple(x + y for x, y in zip(a + (0,), b))
    lhs = evaluate(C211, combined)
    ra = evaluate(C211, a)
    rb = evaluate(C211, b)
    assert lhs == tuple(x + y for x, y in zip(ra, rb))


def test_chunks_examples():
    d = chunk_decomposition(C211, (1, 0, 0, 1, 1, 1))
    assert d.count == 4
    assert d.pieces((1, 0, 0, 1, 1, 1)) == [(1, 0, 0), (1,), (1,), (1,)]
    d = chunk_decomposition(G421, (2, 4, 2, 0, 1))
    assert d.count == 3
    assert d.pieces((2, 4, 2, 0, 1)) == [(2,), (4, 2, 0), (1,)]
    assert chunk_decomposition(C211, ()).count == 0


def test_chunks_requires_satisfying():
    with pytest.raises(NotSatisfyingError):
        chunk_decomposition(G421, (2, 4, 3))


def test_chunk_spans_cover_string():
    for a in enumerate_representations(C211, 6):
        if not a:
            continue
        spans = chunk_decomposition(C211, a).spans
        assert spans[0][0] == 1
        for (s1, l1), (s2, _l2) in zip(spans, spans[1:]):
            assert s1 + l1 == s2
        last_start, last_len = spans[-1]
        assert last_start + last_len - 1 == len(a)


def test_chunk_suffixes_are_satisfying():
    for a in enumerate_representations(C211, 6):
        if not a:
            continue
        for start, _length in chunk_decomposition(C211, a).spans:
            assert is_satisfying(C211, a[start - 1:])


def test_classify_examples():
    bad = RecurrenceVector((1, 3, 1), relaxed=True)
    cls = classify(bad, (2,))
    assert cls.kind == KIND_NEARLY_SATISFYING
    assert cls.witness == 1
    assert cls.first_overfilled == 1

    cls = classify(C211, (2, 1, 1))
    assert cls.kind == KIND_NEARLY_SATISFYING
    assert cls.end_complete
    assert cls.first_overfilled == 3

    assert classify(G421, (2, 4, 2, 0, 1)).kind == KIND_SATISFYING


def test_classify_other():
    # no single decrement of (2,1,3) yields a satisfying string
    cls = classify(C211, (2, 1, 3))
    assert cls.kind == KIND_OTHER
    assert cls.witness is None


def test_classify_witness_decrement_restores():
    for a in [(2, 1, 1), (0, 2, 2), (2, 1, 2)]:
        cls = classify(C211, a)
        assert cls.kind == KIND_NEARLY_SATISFYING
        lowered = list(a)
        lowered[cls.witness - 1] -= 1
        assert is_satisfying(C211, lowered)


def classify_unbounded(c, a):
    """classify with the witness searched over every position of the string."""
    a = canonical(a)
    result = scan(c, a)
    if result.ok:
        return SrClassification(KIND_SATISFYING, None, None, False)
    for i in range(1, len(a) + 1):
        lowered = list(a)
        lowered[i - 1] -= 1
        if a[i - 1] >= 1 and is_satisfying(c, lowered):
            end_complete = result.fail_pos == len(a) and result.matched == c.k - 1
            return SrClassification(KIND_NEARLY_SATISFYING, i, result.fail_pos, end_complete)
    return SrClassification(KIND_OTHER, None, None, False)


@pytest.mark.parametrize("coeffs,relaxed", [
    ((1, 1), False), ((2, 1, 1), False), ((4, 2, 1), False), ((3, 3, 2, 1), False),
    ((1, 3, 1), True), ((1, 0, 1), True), ((2, 0, 0, 1), True)])
def test_classify_matches_unbounded_witness_search(coeffs, relaxed):
    # a satisfying string with support <= 7 plus one at a position <= 7: this
    # reaches every nearly satisfying string of length <= 7, whose digits are
    # at most max(c) + 1, and some satisfying ones; a narrower witness search
    # can only turn a nearly satisfying string into other, never the reverse
    c = RecurrenceVector(coeffs, relaxed=relaxed)
    bumped = set()
    for s in enumerate_representations(c, 7):
        for i in range(1, 8):
            a = list(s) + [0] * (i - len(s))
            a[i - 1] += 1
            bumped.add(tuple(a))
    nearly = 0
    for a in sorted(bumped):
        expected = classify_unbounded(c, a)
        assert classify(c, a) == expected, (coeffs, a)
        assert is_satisfying(c, a) == scan(c, a).ok, (coeffs, a)
        nearly += expected.kind == KIND_NEARLY_SATISFYING
    assert nearly > 0


def classify_every_candidate(c, a):
    """Reference witness search: every position from 1 up to the failure,
    with one decremented copy and one full scan per candidate."""
    a = canonical(a)
    result = scan(c, a)
    if result.ok:
        return SrClassification(KIND_SATISFYING, None, None, False)
    for i in range(1, result.fail_pos + 1):
        lowered = list(a)
        lowered[i - 1] -= 1
        if a[i - 1] >= 1 and scan(c, canonical(lowered)).ok:
            end_complete = result.fail_pos == len(a) and result.matched == c.k - 1
            return SrClassification(KIND_NEARLY_SATISFYING, i, result.fail_pos, end_complete)
    return SrClassification(KIND_OTHER, None, None, False)


def random_satisfying(coeffs, length, rng):
    """A satisfying string of exactly `length` digits built chunk by chunk:
    c_1..c_j, then a digit below c_{j+1}, then a short run of zeros."""
    closable = [j for j in range(len(coeffs)) if coeffs[j] > 0]
    while True:
        out = []
        while len(out) < length:
            j = rng.choice(closable)
            out.extend(coeffs[:j])
            out.append(rng.randrange(coeffs[j]))
            out.extend([0] * rng.randrange(3))
        if out[length - 1]:
            break
    out = tuple(out[:length])
    assert is_satisfying(RecurrenceVector(coeffs, relaxed=True), out)
    return out


def random_nearly_satisfying(c, length, rng):
    """A seeded satisfying string of the given length plus one at a random
    position in it; for weakly decreasing c this is nearly satisfying."""
    a = list(random_satisfying(c.coefficients, length, rng))
    a[rng.randrange(length)] += 1
    return tuple(a)


# every weakly decreasing c with k <= 5, c1 <= 4 and ck = 1: 69 vectors
STRICT_C = [c for k in range(2, 6) for c in product(range(4, 0, -1), repeat=k)
            if c[-1] == 1 and all(x >= y for x, y in zip(c, c[1:]))]
RELAXED_C = [(1, 3, 1), (1, 2, 1), (2, 3, 1), (1, 4, 2, 1), (1, 0, 1), (2, 0, 0, 1)]


@pytest.mark.parametrize("coeffs", STRICT_C + RELAXED_C, ids=str)
def test_classify_matches_the_search_from_position_1(coeffs):
    # whole classifications of seeded strings of 20 to 300 digits; relaxed c
    # have witnesses before the failing chunk, e.g. (1,1,2) for (1,3,1)
    c = RecurrenceVector(coeffs, relaxed=True)
    rng = random.Random(str(coeffs))
    nearly = 0
    for _ in range(30):
        a = random_nearly_satisfying(c, rng.randint(20, 300), rng)
        expected = classify_every_candidate(c, a)
        assert classify(c, a) == expected, (coeffs, a)
        assert is_satisfying(c, a) == scan(c, a).ok, (coeffs, a)
        nearly += expected.kind == KIND_NEARLY_SATISFYING
    assert nearly > 0


@pytest.mark.parametrize("coeffs", [(1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1)])
def test_classify_scans_at_most_k_plus_1_times(monkeypatch, coeffs):
    # the first scan from 1, then one per candidate from the failing chunk's
    # start s to the failure, at most k positions, each resumed at s
    c = RecurrenceVector(coeffs)
    rng = random.Random(5000)
    s = random_satisfying(coeffs, 5000, rng)
    i = next(i for i in range(4900, 5000)
             if not is_satisfying(c, s[:i] + (s[i] + 1,) + s[i + 1:]))
    a = s[:i] + (s[i] + 1,) + s[i + 1:]
    start = scan(c, a).chunk_start
    calls = []
    original = representation._scan_from

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(representation, "_scan_from", counted)
    cls = classify(c, a)
    assert cls.kind == KIND_NEARLY_SATISFYING
    assert 2 <= len(calls) <= c.k + 1
    assert calls == [1] + [start] * (len(calls) - 1)


def test_non_end_complete_overfull_tail():
    # (2,2) decremented at its end gives (2,1) whose terminal chunk is too
    # short for a carry, so it must not classify as end complete
    cls = classify(C211, (2, 2))
    assert cls.kind == KIND_NEARLY_SATISFYING
    assert not cls.end_complete


def test_coefficient_sums():
    a = parse_coefficients("2,1,0,1,2,1,0,0")
    assert coefficient_sum(a) == 7
    # definition sums strictly below the index; the worked example's value
    # disagrees with the definition and the definition wins
    assert prefix_sum(a, 4) == 3
    assert coefficient_sum(()) == 0
    with pytest.raises(ValueError):
        prefix_sum(a, 0)


def test_serialization_round_trip():
    for text in ["0,2,1", "1,0,0,1,1,1", ""]:
        assert format_coefficients(parse_coefficients(text)) == text


def test_canonical_trims_and_validates():
    assert canonical((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert canonical(()) == ()
    with pytest.raises(ValueError):
        canonical((1, -1))


def _generator_canonical(a) -> tuple:
    """canonical as a generator pass: the reference for its outcomes."""
    out = tuple(int(x) for x in a)
    if any(x < 0 for x in out):
        raise ValueError("coefficient strings are nonnegative: %r" % (out,))
    m = len(out)
    while m and out[m - 1] == 0:
        m -= 1
    return out[:m]


def _outcome(fn, make):
    try:
        return "value", fn(make())
    except Exception as exc:   # the class and the text are the outcome
        return type(exc), str(exc)


class _Index:
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# factories, so a generator or iterator input is fresh for each side
CANONICAL_INPUTS = [
    lambda: (), lambda: [], lambda: "", lambda: "0", lambda: "000", lambda: "0120",
    lambda: "12a", lambda: "1,2", lambda: " 1", lambda: (1, 0, 2, 0, 0), lambda: (0, 0, 0),
    lambda: (1, -1), lambda: (-1,), lambda: (0, -0), lambda: (-3, 0, 0),
    lambda: (True, False, True, False), lambda: (False,), lambda: (1.9, 2.0, 0.0),
    lambda: (-0.5, 1), lambda: (-1.5, 1), lambda: (float("nan"),), lambda: (1, float("inf")),
    lambda: (float("-inf"),), lambda: ("1", " 2 ", "0"), lambda: ("-1", "0"), lambda: ("x",),
    lambda: (b"3", b"0"), lambda: (1j,), lambda: (None,), lambda: ([1],), lambda: ((),),
    lambda: (10 ** 100, 0, -(10 ** 100)), lambda: (10 ** 100, 0),
    lambda: (_Index(2), _Index(0)), lambda: (_Index(-2),),
    lambda: (x for x in (3, 0, 1, 0)), lambda: (x for x in (3, -1)), lambda: iter([0, 0]),
    lambda: {2: None}, lambda: range(3, -1, -1), lambda: range(-1, 2),
    lambda: 5, lambda: None, lambda: 1.5,
]


@pytest.mark.parametrize("make", CANONICAL_INPUTS)
def test_canonical_matches_the_generator_pass(make):
    assert _outcome(canonical, make) == _outcome(_generator_canonical, make)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(min_value=-3, max_value=10 ** 30), st.booleans(),
                          st.floats(), st.sampled_from(["0", "7", "-2", "", "a", " 4 "])),
                max_size=8))
def test_canonical_matches_the_generator_pass_on_mixed_lists(items):
    assert _outcome(canonical, lambda: items) == _outcome(_generator_canonical, lambda: items)


@pytest.mark.parametrize("text", ["", " ", "0", "0,0", "2,4,2,0,1", " 1 , 2 ,0", "1,,2", "1,x",
                                  "-1,0", "1,-0", "+3,1_0", "\u0663,1", "1.5", "1,", ",1"])
def test_parse_coefficients_matches_the_parse_by_generator(text):
    def by_generator():
        stripped = text.strip()
        if not stripped:
            return ()
        return _generator_canonical(int(part) for part in stripped.split(","))
    assert (_outcome(parse_coefficients, lambda: text)
            == _outcome(lambda t: by_generator(), lambda: text))


@pytest.mark.parametrize("a", [(), (2, 1, 1), (0, 2, 2, 0, 0), (2, 1, 3), (1, 3, 3, 2, 1, 0, 2)])
def test_classify_is_its_core_on_the_canonical_string(a):
    for coeffs, relaxed in (((2, 1, 1), False), ((3, 3, 2, 1), False), ((1, 3, 1), True)):
        c = RecurrenceVector(coeffs, relaxed=relaxed)
        assert classify(c, a) == representation._classify(c, canonical(a))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(enumerate_representations(C211, 5)),
       st.integers(min_value=1, max_value=7))
def test_single_increment_is_satisfying_or_nearly(a, i):
    bumped = list(a) + [0] * max(0, i - len(a))
    bumped[i - 1] += 1
    kind = classify(C211, bumped).kind
    assert kind in (KIND_SATISFYING, KIND_NEARLY_SATISFYING)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(enumerate_representations(RecurrenceVector((3, 2, 1)), 5)))
def test_scanner_matches_chunk_reconstruction(a):
    c = RecurrenceVector((3, 2, 1))
    if not a:
        return
    rebuilt = []
    for start, length in chunk_decomposition(c, a).spans:
        rebuilt.extend(a[start - 1:start - 1 + length])
    assert tuple(rebuilt) == a


def unlimited(fn, arg):
    """fn(arg) with the interpreter's int <-> str digit limit lifted for the
    call, and its refusal's text when it refuses."""
    get = getattr(sys, "get_int_max_str_digits", None)
    saved = get() if get else None
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return fn(arg)
    except ValueError as exc:
        return "refused: %s" % exc
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def limited(fn, arg):
    """fn(arg) under the interpreter's limit as it stands, and its refusal's
    text when it refuses."""
    try:
        return fn(arg)
    except ValueError as exc:
        return "refused: %s" % exc


def spellings(text):
    """Forms `int` reads as the same number as text, a decimal literal."""
    sign, digits = ("-", text[1:]) if text[0] == "-" else ("", text)
    grouped = "_".join(digits[max(0, i - 3):i] for i in range(len(digits), 0, -3)[::-1])
    arabic = digits.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                                          "\u0665\u0666\u0667\u0668\u0669"))
    return [text, sign + "000" + digits, (sign or "+") + digits, sign + grouped,
            " \t%s\n " % text, sign + arabic, "\u2003" + sign + "0_" + grouped + "\u3000"]


@pytest.mark.parametrize("digits", [1, 2, 19, 20, 640, 4299, 4300, 4301, 6000, 20000])
def test_the_limit_free_pair_matches_str_and_int(digits):
    # numbers of the given length, both signs, at and next to powers of 10:
    # `_int_text` must print what `str` prints with no limit, and
    # `_parse_int` read it, and every spelling of a drawn number, as `int`
    # reads it with no limit
    rng = random.Random(digits)
    low = 10 ** (digits - 1)
    drawn = rng.randrange(low, 10 * low)
    for x in (0, low - 1, low, low + 1, 10 * low - 1, drawn):
        for y in {x, -x}:
            text = unlimited(str, y)
            assert representation._int_text(y) == text
            assert representation._parse_int(text) == unlimited(int, text) == y
            for spelled in spellings(text) if abs(y) == drawn else ():
                got = representation._parse_int(spelled)
                assert got == unlimited(int, spelled) == y, spelled[:30]


# each refused literal, then the same refusal at n more characters
REFUSED = {"1e5": lambda n: "1" * n + "1e5", "1.0": lambda n: "1" * n + "1.0",
           "0x10": lambda n: "0x10" + "0" * n, "_1": lambda n: "_1" + "1" * n,
           "1_": lambda n: "1" * n + "1_", "1__0": lambda n: "1" * n + "1__0",
           "": lambda n: " " * n, "+": lambda n: " " * n + "+"}


@pytest.mark.parametrize("n", [0, 4300, 6000])
@pytest.mark.parametrize("literal", list(REFUSED))
def test_the_limit_free_parse_refuses_with_the_text_of_int(literal, n):
    # past the limit `int` refuses some of these by naming the limit; the
    # pair must give the refusal `int` gives with no limit, at every length
    text = REFUSED[literal](n)
    want = unlimited(int, text)
    assert want.startswith("refused: invalid literal for int() with base 10: ")
    assert limited(representation._parse_int, text) == want
    assert limited(representation.parse_vector, text) == unlimited(
        lambda t: tuple(int(part) for part in t.strip().split(",")), text)


def test_the_serializers_convert_past_the_digit_limit():
    big = 7 * 10 ** 4999 + 1
    text = unlimited(str, big)
    assert representation.format_vector((big, -big)) == "%s,-%s" % (text, text)
    assert representation.format_coefficients((0, big, 0)) == "0,%s" % text
    assert representation.parse_vector(" %s,-%s " % (text, text)) == (big, -big)
    assert representation.parse_coefficients("0,%s,0" % text) == (0, big)
