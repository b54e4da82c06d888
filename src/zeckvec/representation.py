"""Coefficient strings over the negative-index vector terms and their grammar.

A coefficient string a1..am (nonnegative integers, 1-based positions, stored
dense as a tuple with trailing zeros trimmed) represents the lattice vector
sum_n a_n * X_{-n}.  The admissible ("satisfying") strings are recognized by a
single left-to-right scanner: reading from position 1, each chunk is a prefix
copy of the defining coefficients c1..c_{j} followed by one element smaller
than c_{j+1}, then zeros, then the next chunk.  A string fails either because
some element is too large or because it contains a full copy of c; the scanner
reports the failure position, which doubles as the "first overfilled element"
used by the rewriting engine.

Every public entry validates its string exactly once, through `canonical`.
The grammar's cores take a string that is already canonical: `_scan_from`,
and `_classify` behind `classify`.  So the rewriting engine and the CLI,
which have just canonicalized a string, pass the tuple on with no second
check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .errors import NotSatisfyingError, _at_least
from .recurrence import RecurrenceVector, string_value

KIND_SATISFYING = "satisfying"
KIND_NEARLY_SATISFYING = "nearly_satisfying"
KIND_OTHER = "other"


def canonical(a) -> tuple:
    """Validate and trim a coefficient string (no trailing zeros, all entries >= 0)."""
    out = tuple(map(int, a))
    if out and min(out) < 0:
        raise ValueError("coefficient strings are nonnegative: %r" % (out,))
    m = len(out)
    while m and out[m - 1] == 0:
        m -= 1
    return out[:m]


@dataclass(frozen=True)
class ScanResult:
    ok: bool
    starts: tuple                 # chunk start positions (1-based)
    fail_pos: Optional[int]       # first overfilled element I(a)
    chunk_start: Optional[int]    # start n_p of the chunk the failure belongs to
    matched: Optional[int]        # j: positions n_p..n_p+j-1 equal c1..cj exactly


def _scan_from(coeffs: tuple, k: int, a, starts: list, p: int, kept=()):
    """Run the chunk grammar over a from chunk start p, appending each chunk
    start to starts.  Returns None when the rest of a satisfies, otherwise
    (fail_pos, matched) for the chunk at starts[-1].  Resuming at a chunk
    start of an earlier scan is exact while no position before it changed.

    kept, when given, is a list of chunk starts, highest first, that a
    passing scan of a found and from which on no position has changed
    since.  The scanner's state at a chunk start is fixed, so a scan that
    lands on one of them would go on as that scan did: it stops there,
    appends the kept starts from there on and returns None.  It pops the
    kept starts it passes over: they lie below its failure, if it fails,
    so the caller's round would drop them anyway.
    """
    m = len(a)
    nxt = kept[-1] if kept else m + 1
    while p <= m:
        if p >= nxt:
            while kept and kept[-1] < p:
                kept.pop()
            if kept and kept[-1] == p:
                starts.extend(reversed(kept))
                return None
            nxt = kept[-1] if kept else m + 1
        starts.append(p)
        j = 0
        while j < k:
            t = p + j
            v = a[t - 1] if t <= m else 0
            cj = coeffs[j]
            if v == cj:
                j += 1
                continue
            if v > cj:
                return t, j
            break
        else:
            # all k positions match: the string contains a full copy of c
            return p + k - 1, k - 1
        # chunk closed by a small element at p+j; skip the zero run
        q = p + j + 1
        while q <= m and a[q - 1] == 0:
            q += 1
        p = q
    return None


def scan(c: RecurrenceVector, a: tuple) -> ScanResult:
    """One pass of the chunk grammar over a trimmed string."""
    starts = []
    fail = _scan_from(c.coefficients, c.k, a, starts, 1)
    if fail is None:
        return ScanResult(True, tuple(starts), None, None, None)
    return ScanResult(False, tuple(starts), fail[0], starts[-1], fail[1])


def is_satisfying(c: RecurrenceVector, a) -> bool:
    """True iff the string is a satisfying representation (empty string included)."""
    return _scan_from(c.coefficients, c.k, canonical(a), [], 1) is None


def evaluate(c: RecurrenceVector, a) -> tuple:
    """Value sum_n a_n X_{-n} of a coefficient string as a lattice vector.

    `string_value` evaluates it by a product tree whose leaves are dot
    products with packed columns, so memory stays linear in the string's
    length and nothing is memoized on c.
    """
    return string_value(c.coefficients, canonical(a))


@dataclass(frozen=True)
class ChunkDecomposition:
    """Chunk spans of a satisfying string: (start, length) pairs covering [1, m]."""
    spans: tuple

    @property
    def count(self) -> int:
        return len(self.spans)

    def pieces(self, a) -> list:
        a = canonical(a)
        return [tuple(a[s - 1:s - 1 + ln]) for s, ln in self.spans]


def chunk_decomposition(c: RecurrenceVector, a) -> ChunkDecomposition:
    """Split a satisfying string into its chunks (trailing zeros belong to the chunk)."""
    a = canonical(a)
    result = scan(c, a)
    if not result.ok:
        raise NotSatisfyingError("not a satisfying representation: %r" % (a,))
    m = len(a)
    starts = result.starts
    spans = []
    for i, s in enumerate(starts):
        nxt = starts[i + 1] if i + 1 < len(starts) else m + 1
        spans.append((s, nxt - s))
    return ChunkDecomposition(tuple(spans))


@dataclass(frozen=True)
class SrClassification:
    kind: str                          # satisfying | nearly_satisfying | other
    witness: Optional[int]             # smallest index whose decrement restores a satisfying string
    first_overfilled: Optional[int]    # I(a), defined for nearly satisfying strings
    end_complete: bool


def classify(c: RecurrenceVector, a) -> SrClassification:
    """Classify a string as satisfying, nearly satisfying (with witness), or other.

    A nearly satisfying string becomes satisfying when one coefficient is
    decremented; the smallest such index is reported.  End-completeness means
    the scanner's failure is terminal with a full k-1 prefix match, i.e. the
    string ends in a (possibly overfull) copy of c that carries alone resolve.
    """
    return _classify(c, canonical(a))


def _classify(c: RecurrenceVector, a: tuple, starts=None) -> SrClassification:
    """`classify` of a string that is already canonical.

    starts, when given, is an empty list that gets the chunk starts of the
    first scan, from position 1 up to the failure if there is one, so a
    caller can resume that scan instead of repeating it.

    The witness lies at or before the failure position I, a nonzero digit:
    a decrement past I leaves the same failure.  For weakly decreasing c it
    lies at or after the failing chunk's start s, also nonzero.  After a
    decrement before s, a chunk starting at s fails again at I; a chunk
    running through s at offset r >= 1 compares s + q with
    c_{r+q+1} <= c_{q+1}, and the digits from s are c_1..c_j, then
    a_I > c_{j+1} (or a full copy), so it fails by I too.  Relaxed c take
    s = 1.  Each candidate's scan resumes at s, before which nothing changed.
    """
    if starts is None:
        starts = []
    fail = _scan_from(c.coefficients, c.k, a, starts, 1)
    if fail is None:
        return SrClassification(KIND_SATISFYING, None, None, False)
    fail_pos, matched = fail
    p = starts[-1] if c.weakly_decreasing else 1
    b = list(a)
    for i in range(p, fail_pos + 1):
        if b[i - 1]:
            b[i - 1] -= 1
            if _scan_from(c.coefficients, c.k, b, [], p) is None:
                end_complete = fail_pos == len(a) and matched == c.k - 1
                return SrClassification(KIND_NEARLY_SATISFYING, i, fail_pos, end_complete)
            b[i - 1] += 1
    return SrClassification(KIND_OTHER, None, None, False)


def coefficient_sum(a) -> int:
    """Total coefficient mass G(a)."""
    return sum(canonical(a))


def prefix_sum(a, n: int) -> int:
    """Mass of the entries with index strictly below n."""
    _at_least(n, 1, "prefix index")
    a = canonical(a)
    return sum(a[:n - 1])


# -- serialization used by every CLI command ---------------------------------
#
# CPython (3.10.7 and later) refuses `str` of an int, and `int` of a string,
# past a process-wide digit limit (4300 digits by default).  `_int_text` and
# `_parse_int` convert at any length without touching it: they try `str` and
# `int` and fall back to `decimal.Decimal`, which has no such limit.  Short
# numbers take the builtins' own path, and a refusal carries the text `int`
# gives when no limit applies.  A refusal's message names a number by
# `errors._int_or_bound`, which costs little at any length.

# what `int` reads at any length: a sign, digits with single underscores
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int_text(x: int) -> str:
    """str(x), at any length."""
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


def _parse_int(text: str) -> int:
    """int(text), at any length."""
    try:
        return int(text)
    except ValueError:
        if _INT_LITERAL.fullmatch(text):
            return int(Decimal(text.replace("_", "")))
        # past the limit `int` names the limit, though no length would help
        raise ValueError("invalid literal for int() with base 10: %.200r" % (text,)) from None


def format_coefficients(a) -> str:
    return ",".join(map(_int_text, canonical(a)))


def parse_coefficients(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return canonical(map(_parse_int, text.split(",")))


def format_vector(v) -> str:
    return ",".join(map(_int_text, v))


def parse_vector(text: str) -> tuple:
    return tuple(map(_parse_int, text.strip().split(",")))
