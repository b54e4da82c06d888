"""Scalar bridge, greedy legal decomposition, and region enumeration.

The bridge maps a lattice vector to a scalar by dotting with a window of
scalar terms (reduced mod X_n); on a string with support below the window it
reproduces the digit-for-digit scalar value, which transports uniqueness and
summand statistics to the scalar side.  Untraced `decompose` is this map
read backwards (`_decompose_bridge`): greedy digits by `legal_decompose`'s
loop, no vector rewriting, held terms up to HELD_LEVEL_CAP and streamed ones
above it; the independent checks are the tests' linear-scan oracle and the
increment chain.

The enumerator behind the regions splits the positions at their midpoint:
suffix lists over the upper half, built once per call, are appended to each
prefix of a recursive walk over the lower half.  Each prefix's strings come
as one batch of parallel iterables: the public iterator flattens them, the
full list, the CSV rows, the shells and the ball covers consume them whole,
and a shell, like each level of a ball cover after the first, builds only
the strings of its own support.  The vectors that a caller keeps, those of
the region, the shell and the iterator, read their coordinates from one
table of ints built per call, wherever it holds fewer ints than the call
yields points: for k >= 3 a region is a patch whose points share each
coordinate value with many others.  Each suffix column, read at a prefix's
offset in the table, becomes one list per call, which every prefix batch
with that column and offset shares.  For k = 2 no two points share a value,
so each coordinate is made as a sum, as it is for relaxed c whose region
lies near a line and for the CSV rows and ball covers, which drop each
batch's vectors.  The tests check it against the single recursive walk
over all positions, string by string and in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product, repeat
from operator import add, mul

from .errors import BridgeDomainError, CapExceededError, _at_least, _int_or_bound
from .fileio import atomic_write_text
from .recurrence import RecurrenceVector, _held_blocks, greedy_digits, scalar_window

DEFAULT_ENUMERATION_CAP = 10_000_000

# The terms a recurrence holds serve every bridge level up to this one, and
# a higher level streams: the bridge never grows a held list past it.  Their
# memory grows with the square of the level, the time they save only
# linearly.  Measured on the five strict c of the benchmark (2 cores,
# Python 3.11, best of 5, a vector as large as the level allows, the digits
# checked by the held product tree either way): a held level took
# 0.18-0.42 ms at 700, 0.28-0.70 ms at 1024 and 0.38-1.05 ms at 2048, a
# streamed one 0.33-0.72, 0.50-1.01 and 0.58-1.49 ms, so the held terms
# still win below the cap.  The scalar terms X_0..X_L take 0.3 to 0.7 MB
# per recurrence at L = 2048, 0.9-2.6 MB at 4096 and 3.4-10 MB at 8192.
HELD_LEVEL_CAP = 2048


def scalar_bridge(c: RecurrenceVector, n: int, v) -> int:
    """Dot v with (X_{n-1}, ..., X_{n-k+1}) and reduce mod X_n (in [0, X_n)),
    from streamed terms past HELD_LEVEL_CAP, as `_level_digits` does."""
    if n < c.k - 2:
        raise BridgeDomainError("bridge index must be >= k-2 = %d" % (c.k - 2))
    v = tuple(map(int, v))
    if len(v) != c.k - 1:
        raise ValueError("vector dimension must be k-1 = %d" % (c.k - 1))
    if n > HELD_LEVEL_CAP:
        xs = scalar_window(c.coefficients, n - c.k + 1, c.k)[::-1]   # X_n .. X_{n-k+1}
    else:
        seq = c.scalar()
        xs = [seq.term(n - i) for i in range(c.k)]
    return sum(map(mul, v, xs[1:])) % xs[0]


def _bridge_level(c: RecurrenceVector, v: tuple) -> int:
    """First bridge level tried for a nonzero v: floor(log|v| / log rho) + 2k.

    |v| is the l1 norm: with the sup norm, vectors whose coordinates nearly
    cancel along the slow mode (tribonacci's (5, -8) has length 12) would
    need a retry.  log rho is held on c (`_held_blocks`).
    """
    return int(math.log(sum(map(abs, v))) / _held_blocks(c).log_growth) + 2 * c.k


def _level_digits(c: RecurrenceVector, v: tuple, n: int) -> list:
    """Level-n greedy digits of v for n > k, by `_decompose_bridge`'s map,
    with trailing zeros trimmed.  Up to HELD_LEVEL_CAP the terms are those
    c's own scalar sequence holds, X_n..X_1 read by one call, which serve
    every level below n too.  Above it a few live terms stream: the top
    window from `scalar_window` and the digits from `_Blocks.greedy`, with
    the block constants held on c (`_held_blocks`)."""
    held = n <= HELD_LEVEL_CAP
    # X_n, X_{n-1}, ...: down to X_1 when held, to X_{n-k} when streamed
    xs = (c.scalar().descending(n) if held
          else scalar_window(c.coefficients, n - c.k, c.k + 1)[::-1])
    # v has k - 1 entries, so the dot reads X_{n-1}, ..., X_{n-k+1}
    z = sum(map(mul, v, xs[1:c.k])) % xs[0]
    if held:
        arr = greedy_digits(z, xs)[0]
        del arr[0]      # X_n's digit, 0 since z < X_n
    else:
        arr = _held_blocks(c).greedy(z, xs[:0:-1], n - 1)   # top X_{n-k} .. X_{n-1}
    while arr and not arr[-1]:
        arr.pop()
    return arr


def _decompose_bridge(c: RecurrenceVector, v: tuple) -> tuple:
    """The satisfying string of v via the scalar bridge, verified exactly.

    Dot v with the level-n window (X_{n-1}, ..., X_{n-k+1}) mod X_n, take
    the greedy digits against X_{n-1}..X_1 and accept them when they
    evaluate back to v.  The first level comes from |v| and rho
    (`_bridge_level`); a rejected level doubles.  That terminates: both
    window maps satisfy the recurrence and agree at i = 0..k-1, so
    z = S(a) mod X_n for the satisfying string a, and S(a) < X_n once
    n > len(a).  `_level_digits` takes a level's digits: up to
    HELD_LEVEL_CAP from the terms of c's own scalar sequence, above it
    streamed, in memory linear in n, a block at a time from one exact
    window of terms (`_Blocks.greedy`).  Every level's digits are
    re-evaluated exactly, every digit of them, and compared with v by
    `_Blocks.value`, with the block constants held on c: plain dots with
    held coordinates for a string of one leaf, else the product tree with
    the held columns, whose slots fit greedy digits, which lie in [0, c1].
    """
    blocks = _held_blocks(c)
    n = _bridge_level(c, v)
    while True:
        arr = _level_digits(c, v, n)
        if blocks.value(arr) == v:
            return tuple(arr)
        n *= 2


def legal_decompose(c: RecurrenceVector, n: int) -> tuple:
    """Greedy legal decomposition of a nonnegative integer over the scalar terms.

    Returns digits (b_1, ..., b_M) with n = sum_i b_i * X_{M-i+1}, leading
    digit first.  For weakly decreasing coefficients the greedy digits read as
    a string satisfy the same chunk grammar as the vector representations.
    """
    if n < 0:
        raise ValueError("legal decomposition needs a nonnegative integer")
    if n == 0:
        return ()
    seq = c.scalar()
    top = seq.max_index_at_most(n)
    return tuple(greedy_digits(n, seq.descending(top))[0])


def summand_count(digits) -> int:
    """Number of summands (with multiplicity) of a digit string."""
    return sum(digits)


def iter_representations(c: RecurrenceVector, n: int, with_values: bool = False):
    """Yield every satisfying string with support at most n, the empty string
    included, lexicographically.

    With values enabled, each yield is (string, vector).  The strings come
    from `_batches`, one batch per prefix of the split walk, and with values
    each batch's strings are listed before they are paired (see `_batches`).
    `support_region` reads its strings from here, so a tracer that wraps
    this generator sees every string of a region.
    """
    _at_least(n, 0, "support bound")
    for strings, vectors in _batches(c, n, keep=with_values):
        if with_values:
            yield from zip(list(strings), vectors)
        else:
            yield from strings


def _value_table(coefficients: tuple, basis: list, count: int):
    """The list of the ints between a lower and an upper bound on every
    coordinate of a string over the basis, or None when it would hold at
    least count ints, one per point of a call that yields count points.

    No digit exceeds max(coefficients), which for relaxed c can be larger
    than c1, so coordinate i lies between the sums of the negative and of
    the positive d * X_{-p}[i] with d that digit.  The value x sits at
    table[x - table[0]].
    """
    top = max(coefficients)
    dim = range(len(coefficients) - 1)
    least = top * min([sum([min(b[i], 0) for b in basis]) for i in dim])
    greatest = top * max([sum([max(b[i], 0) for b in basis]) for i in dim])
    if greatest - least + 1 >= count:
        return None
    return list(range(least, greatest + 1))


def _batches(c: RecurrenceVector, n: int, exact: bool = False, keep: bool = False):
    """Yield the satisfying strings with support at most n, the empty string
    included, in lazy batches.

    Each batch is (strings, vectors), two parallel iterables, and the
    batches in order give the strings lexicographically.  With exact, only
    the strings of support exactly n are built and yielded.  With keep,
    the caller holds the vectors past their batch.

    The walk follows the scanner automaton, whose state is the length of the
    prefix of the coefficients matched so far: a digit below the next
    coefficient returns to state 0, a digit equal to it advances, and a full
    copy of the coefficients is rejected.  It splits the positions at
    m = n // 2.  The suffixes over positions m+1..n are built once per call,
    one list per scanner state at m+1, with one column per coordinate of
    their vectors.  A recursive walk over positions 1..m visits each prefix
    once, about X_{m+1} of them, keeping the prefix's vector along the walk.
    Per prefix it yields the prefix alone (unless exact: its support is at
    most m < n), then one batch of the suffixes its state admits, joined to
    the prefix by `map` and `zip`, not in bytecode.

    Every coordinate a batch yields is either read from one table of ints
    built per call (`_value_table`), through lists shared by the batches, or
    made as the prefix's value plus the suffix's, one new int per point and
    coordinate.  The table serves a caller that keeps the vectors (with
    keep), when it holds fewer ints than the call yields points: properties
    of the call, c and n, not a tuned number.  For k >= 3 the points of a
    region fill a (k-1)-dimensional patch, so X_{n+1} of them take about
    X_{n+1}^(1/(k-1)) values per coordinate, and the table holds each once.
    For k = 2 the coordinate is the point, and by uniqueness no two points
    share it, so the table's range holds at least one int per point and is
    never built; relaxed (1,3,1), whose region lies near a line, has a range
    of about 1.34 X_{n+1} and takes the sums too.  A caller that drops each
    batch's vectors gains nothing from the table and would pay its building
    per call, which in a ball cover is per level.  With the table, the walk
    keeps the prefix's coordinates as offsets in it.  A suffix column read
    at an offset, the table's ints at the offset plus each of its values,
    is built once per call as a list and handed to every batch whose prefix
    has that scanner state and offset, so a point's vector is a `zip` over
    shared lists, with no int made and no table read per point.  Each such
    list is built for a batch that yields its length in points, so the
    lists hold at most one slot per yielded point and coordinate, and only
    the table's ints.  The sums path shares no lists: for k = 2, by
    uniqueness, each (column, offset) pair occurs once, so a shared list
    would only hold memory, and a caller that drops each batch's vectors
    would keep lists that it never reads again.

    A caller that keeps each string inside a new tuple lists the batch's
    strings first.  Otherwise a string's only referrer is that young tuple,
    the cyclic collector moves the string behind the tuple while it sorts
    out unreachable objects, and it then checks the tuple for untracking
    before the string: the tuples stay tracked into the oldest generation
    and set off full collections, each of which traverses the whole growing
    region.
    """
    coeffs = c.coefficients
    k = c.k
    dim = range(k - 1)
    basis = c.vector().basis(n) if n >= 1 else []
    # zero_run[j]: how many zeros from state j keep matching the coefficients
    zero_run = [0] * (k + 1)
    for j in range(k - 1, -1, -1):
        zero_run[j] = zero_run[j + 1] + 1 if coeffs[j] == 0 else 0
    m = n // 2
    # tails[s]: the nonempty strings over positions p..n accepted from state s
    # at p, up to their last nonzero digit and lexicographic, and one column
    # per coordinate of their vectors.  Built from p = n down to m + 1, each
    # from the lists at p + 1: a zero at p comes first, then the nonzero
    # digits at p in increasing order, each first alone (exact: only at n).
    tails = [([], [[]] * (k - 1))] * k
    for p in range(n, m, -1):
        b = basis[p - 1]
        alone = p == n or not exact
        later = tails
        tails = []
        for s, top in enumerate(coeffs):
            strings, columns = later[s + 1 if top == 0 else 0]
            strings = [(0,) + t for t in strings]
            columns = [list(col) for col in columns]
            # a digit equal to c_{s+1} advances the match; a full copy is rejected
            for d in range(1, top + 1 if s + 1 < k else top):
                rest, cols = later[s + 1 if d == top else 0]
                if alone:
                    strings.append((d,))
                strings += map(add, repeat((d,)), rest)
                for column, col, x in zip(columns, cols, b):
                    if alone:
                        column.append(d * x)
                    column += map(add, repeat(d * x), col)
            tails.append((strings, columns))
    buf = [0] * n
    val = [0] * (k - 1)
    table = None
    if keep:
        seq = c.scalar()
        count = seq.term(n + 1) - seq.term(n) if exact else seq.term(n + 1)
        table = _value_table(coeffs, basis, count)
    if table is not None:
        # val holds the prefix's coordinates as offsets in the table
        val = [-table[0]] * (k - 1)

    def prefixes(p, j, last):
        # positions p..m are free and the scanner is in state j at p; yields
        # (last nonzero position, suffixes admitted at m + 1) with buf and val
        # holding the prefix, then the children, a nonzero digit placed late
        # to early, which is lexicographic order
        gap = m + 1 - p
        yield last, tails[j + gap if gap <= zero_run[j] else 0]
        for q in range(m, p - 1, -1):
            s = j + q - p if q - p <= zero_run[j] else 0
            top = coeffs[s]
            b = basis[q - 1]
            for d in range(1, top + 1 if s + 1 < k else top):
                buf[q - 1] = d
                for i in dim:
                    val[i] += d * b[i]
                yield from prefixes(q + 1, s + 1 if d == top else 0, q)
                for i in dim:
                    val[i] -= d * b[i]
            buf[q - 1] = 0

    # shared[id(col), x]: the table's ints at offset x plus col's values; the
    # tails lists live for the whole walk, so a column's id names it
    shared = {}
    # a nonzero digit after m is placed later than any in the prefix's
    # children, so the prefix's suffixes come before its children
    try:
        for last, (strings, columns) in prefixes(1, 0, 0):
            pad = tuple(buf[:m])
            head = tuple(val)
            if table is None:
                columns = [map(add, repeat(x), col) for x, col in zip(val, columns)]
            else:
                head = tuple(map(table.__getitem__, head))
                kept = []
                for x, col in zip(val, columns):
                    key = id(col), x
                    if key not in shared:
                        shared[key] = list(map(table.__getitem__, map(add, repeat(x), col)))
                    kept.append(shared[key])
                columns = kept
            if not exact:
                yield (pad[:last],), (head,)
            yield map(add, repeat(pad), strings), zip(*columns)
    finally:
        # prefixes reaches itself through its closure; without this the
        # cycle would keep the suffix lists until a collection found it
        del prefixes


def _check_cap(c: RecurrenceVector, n: int, cap: int, message: str) -> int:
    """X_{n+1}, or CapExceededError(message) when X_{n+1} > cap.

    The held terms grow only as `ScalarSequence.term_at_most` lets them, so
    a refusal computes X_{n+1} by `scalar_window`, with no memo.  The
    message's {x} and {cap} fields name it and the cap in decimal or, past
    the interpreter's limit on int-to-str conversion, by bit length.
    """
    x = c.scalar().term_at_most(n + 1, cap)
    if x is not None:
        return x
    raise CapExceededError(message.format(
        x=_int_or_bound(scalar_window(c.coefficients, n + 1, 1)[0]), cap=_int_or_bound(cap)))


def enumerate_representations(c: RecurrenceVector, n: int,
                              cap: int = DEFAULT_ENUMERATION_CAP) -> list:
    """All satisfying strings with support at most n, the empty string
    included; count equals X_{n+1}."""
    _at_least(n, 0, "support bound")
    _check_cap(c, n, cap, "enumeration of {x} strings exceeds cap {cap}")
    out = []
    for strings, _ in _batches(c, n):
        out += strings
    return out


@dataclass
class RegionSet:
    """Vectors representable with support <= n (or exactly n for a shell).

    members maps each vector to (first region index, generating string); the
    region index of a vector is the support of its satisfying string.
    """
    n: int
    members: dict

    def __len__(self):
        return len(self.members)

    def vectors(self):
        return self.members.keys()


def region_size(c: RecurrenceVector, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """|D_n| = X_{n+1}, with `support_region`'s refusals and no region built.

    By uniqueness each vector of D_n has one satisfying string, and the
    strings of support at most n, the empty one included, number X_{n+1},
    the term `_check_cap` returns when it lets n through.
    """
    _at_least(n, 0, "support bound")
    return _check_cap(c, n, cap, "region of {x} points exceeds cap")


def support_region(c: RecurrenceVector, n: int,
                   cap: int = DEFAULT_ENUMERATION_CAP) -> RegionSet:
    """D_n: every vector with a satisfying string of support at most n
    (the zero vector's is empty)."""
    region_size(c, n, cap)
    pairs = iter_representations(c, n, with_values=True)
    return RegionSet(n, {v: (len(a), a) for a, v in pairs})


def support_shell(c: RecurrenceVector, n: int,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> RegionSet:
    """R_n = D_n minus D_{n-1}: vectors whose string has support exactly n.

    Only the X_{n+1} - X_n strings of support n are built, in lex order.
    """
    _at_least(n, 1, "shell index")
    _check_cap(c, n, cap, "region of {x} points exceeds cap")
    members = {}
    for strings, vectors in _batches(c, n, exact=True, keep=True):
        members.update(zip(vectors, zip(repeat(n), list(strings))))
    return RegionSet(n, members)


def ball_coverage(c: RecurrenceVector, radius: int,
                  cap: int = DEFAULT_ENUMERATION_CAP) -> int:
    """Minimum n whose region covers the sup-norm ball of the given radius.

    Grows the region one shell at a time, D_n being D_{n-1} together with
    R_n, and discards the covered ball points.  A ball of more than cap
    points is refused before it is built: it lies in D_N, of at most
    X_{N+1} points (one per satisfying string).
    """
    _at_least(radius, 0, "radius")
    if (2 * radius + 1) ** (c.k - 1) > cap:
        raise CapExceededError("ball not covered below the enumeration cap")
    remaining = set(product(range(-radius, radius + 1), repeat=c.k - 1))
    n = 0
    while True:
        _check_cap(c, n, cap, "ball not covered below the enumeration cap")
        for _, vectors in _batches(c, n, exact=n > 0):
            remaining.difference_update(vectors)
        if not remaining:
            return n
        n += 1


# -- reproducible exports -----------------------------------------------------

_SVG_COLORS = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3", "#937860",
    "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd", "#5f9e6e", "#b55d60",
)


def regions_csv_text(c: RecurrenceVector, n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> str:
    """The rows of D_n as CSV, one per satisfying string in walk order.

    By uniqueness each vector has one string, so these are the rows of
    `support_region`'s members, and n_first is the string's length.  Only
    a string of two or more digits holds a comma, and only it is quoted,
    as `csv`'s QUOTE_MINIMAL would.
    """
    region_size(c, n, cap)
    parts = [",".join(["x%d" % (d + 1) for d in range(c.k - 1)] + ["n_first", "sr_string\n"])]
    for strings, vectors in _batches(c, n):
        parts.append("".join([('%s,%d,"%s"\n' if len(a) >= 2 else "%s,%d,%s\n")
                              % (",".join(map(str, v)), len(a), ",".join(map(str, a)))
                              for v, a in zip(vectors, list(strings))]))
    return "".join(parts)


def export_regions_csv(c: RecurrenceVector, n: int, path: str,
                       cap: int = DEFAULT_ENUMERATION_CAP):
    atomic_write_text(path, regions_csv_text(c, n, cap))


def regions_svg_text(c: RecurrenceVector, n: int, cap: int = DEFAULT_ENUMERATION_CAP,
                     size: int = 640) -> str:
    """Scatter of the planar region, one color per shell, origin marked."""
    if c.k != 3:
        raise ValueError("svg rendering is planar only (k = 3)")
    region = support_region(c, n, cap)
    extent = 1
    for v in region.members:
        extent = max(extent, abs(v[0]), abs(v[1]))
    pad = 10
    cell = max(1, (size - 2 * pad) // (2 * extent + 1))
    span = cell * (2 * extent + 1) + 2 * pad
    radius = max(1, cell // 3)

    def px(x):
        return pad + (x + extent) * cell + cell // 2

    def py(y):
        return span - (pad + (y + extent) * cell + cell // 2)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (span, span, span, span),
        '<rect width="%d" height="%d" fill="white"/>' % (span, span),
    ]
    for v, (first, _a) in region.members.items():
        color = _SVG_COLORS[first % len(_SVG_COLORS)] if first else "#000000"
        parts.append('<circle cx="%d" cy="%d" r="%d" fill="%s"/>'
                     % (px(v[0]), py(v[1]), radius, color))
    side = max(2, radius * 2)
    parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="black"/>'
                 % (px(0) - side // 2, py(0) - side // 2, side, side))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_regions_svg(c: RecurrenceVector, n: int, path: str,
                       cap: int = DEFAULT_ENUMERATION_CAP, size: int = 640):
    atomic_write_text(path, regions_svg_text(c, n, cap, size))
