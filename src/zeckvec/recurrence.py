"""Recurrence vectors and the scalar / lattice-vector term sequences they define.

Everything here is exact integer arithmetic.  Both sequences solve one
recurrence, X_n = c1 X_{n-1} + ... + ck X_{n-k}, in both index directions;
only their seeds differ.  `extend` is the one routine that steps it: it
lengthens a plain list upward or downward.  `_TwoSided` holds one solution
in two such lists, one per direction, which only ever grow, and its lookup
`_at` is the one place that grows them.  The scalar sequence is one such
solution; the vector sequence holds one integer column, the last
coordinate of each term, and builds each vector term from k-1 consecutive
entries of it on request.  No other module reads or grows the lists: the
rest of the package asks for what it needs by name (a term, the
descending terms X_n..X_1, a term under a bound).
`scalar_window` and `string_value` reach far terms and long strings without
the terms between: by powers of x modulo the characteristic polynomial, and
by a product tree modulo its reciprocal whose leaves are each one dot product
with packed columns.  `greedy_digits` is the one greedy expansion against
descending terms, and `greedy_count` the same walk counting its summands
only.  `_Blocks`, the bridge's one held object (`_held_blocks`), holds
per recurrence, for weakly decreasing c only, the constants of the
product tree and of its greedy, and the growth rate that picks the first
level.  `_Blocks.value` is the one exact check of every bridge level's
digits: a string of one leaf is k-1 plain dot products with held
coordinates of X_{-1}..X_{-BLOCK}, and a longer one goes through the
tree with the held packed columns.  `_Blocks.greedy` gives the streamed
levels' digits, the same as `greedy_digits` but a block at a time from one
window of k exact terms, summing each block's coefficients in the low bits
of packed terms.
`BasisSearch` is the breadth-first search over sums of X_{-1}, ..., X_{-b}
that the minimality and spanning oracles share, held per recurrence.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from operator import add, lt, mul

from .errors import InvalidRecurrenceError, _at_least, _int_or_bound


class RecurrenceVector:
    """The defining coefficients (c1, ..., ck) of a linear recurrence.

    Both modes require k >= 2, c1 > 0, all ci >= 0 and ck == 1.  The strict
    constructor additionally demands weakly decreasing coefficients
    (c1 >= c2 >= ... >= ck), which is the regime where every integer vector
    has a unique satisfying representation and normalization provably
    terminates.  Relaxed mode lifts the ordering requirement and exists for
    the termination/spanning probes only.

    One object may be shared by threads.  What it holds only grows, and one
    lock on it guards each growth: of a held term list (`_TwoSided._at`)
    and of the held search (`BasisSearch._grow`).  A lookup of a held term
    takes no lock.
    """

    __slots__ = ("coefficients", "k", "relaxed", "weakly_decreasing",
                 "_scalar", "_vector", "_bridge", "_search", "_lock")

    def __init__(self, coefficients, relaxed: bool = False):
        coeffs = tuple(int(x) for x in coefficients)
        k = len(coeffs)
        if k < 2:
            raise InvalidRecurrenceError("k >= 2 required, got k=%d" % k)
        if coeffs[0] <= 0:
            raise InvalidRecurrenceError("c1 must be positive, got %s" % _int_or_bound(coeffs[0]))
        if any(x < 0 for x in coeffs):
            raise InvalidRecurrenceError("all coefficients must be nonnegative: (%s)"
                                         % ", ".join(map(_int_or_bound, coeffs)))
        if coeffs[-1] != 1:
            raise InvalidRecurrenceError("ck must equal 1, got %s" % _int_or_bound(coeffs[-1]))
        weakly = all(coeffs[i] >= coeffs[i + 1] for i in range(k - 1))
        if not relaxed and not weakly:
            raise InvalidRecurrenceError(
                "strict mode requires weakly decreasing coefficients; "
                "construct with relaxed=True for probe use: (%s)"
                % ", ".join(map(_int_or_bound, coeffs)))
        self.coefficients = coeffs
        self.k = k
        self.relaxed = relaxed
        self.weakly_decreasing = weakly
        self._scalar = None
        self._vector = None
        self._bridge = None   # the bridge's block constants, see `_held_blocks`
        self._search = None
        self._lock = threading.Lock()

    @property
    def dimension(self) -> int:
        """Dimension k-1 of the lattice the vector sequence lives in."""
        return self.k - 1

    @property
    def coefficient_total(self) -> int:
        """Sum of the defining coefficients; carries/borrows shift mass by this minus one."""
        return sum(self.coefficients)

    def scalar(self) -> "ScalarSequence":
        if self._scalar is None:
            self._scalar = ScalarSequence(self)
        return self._scalar

    def vector(self) -> "VectorSequence":
        if self._vector is None:
            self._vector = VectorSequence(self)
        return self._vector

    def search(self, bound: int) -> "BasisSearch":
        """The held breadth-first search over sums of X_{-1}, ..., X_{-bound},
        replaced by a new one when the bound changes."""
        if self._search is None or self._search.bound != bound:
            self._search = BasisSearch(self, bound)
        return self._search

    def __reduce__(self):
        # a copy or a pickle is built anew, without the lock or the held terms
        return RecurrenceVector, (self.coefficients, self.relaxed)

    def __eq__(self, other):
        return (isinstance(other, RecurrenceVector)
                and self.coefficients == other.coefficients
                and self.relaxed == other.relaxed)

    def __hash__(self):
        return hash((self.coefficients, self.relaxed))

    def __repr__(self):
        mode = ", relaxed" if self.relaxed else ""
        return "RecurrenceVector(%r%s)" % (list(self.coefficients), mode)


def extend(seq: list, coefficients, stop: int, down: bool = False) -> list:
    """Lengthen seq by the recurrence until len(seq) == stop; return seq.

    Upward, seq[m] = c1 seq[m-1] + ... + ck seq[m-k].  Downward the list
    runs toward lower indices, seq[m] holding the term before seq[m-1], so
    X_m = X_{m+k} - c1 X_{m+k-1} - ... - c_{k-1} X_{m+1} becomes
    seq[m] = seq[m-k] - c1 seq[m-k+1] - ... - c_{k-1} seq[m-1].  Either way
    the tap seq[m-k] has weight 1 (ck = 1), which starts the sum.
    """
    k = len(coefficients)
    taps = [(k - i, -w) if down else (i, w)
            for i, w in enumerate(coefficients[:-1], 1) if w]
    plus = [j for j, w in taps if w == 1]
    minus = [j for j, w in taps if w == -1]
    scaled = [(j, w) for j, w in taps if w not in (1, -1)]
    append = seq.append
    for m in range(len(seq), stop):
        x = seq[m - k]
        for j in plus:
            x += seq[m - j]
        for j in minus:
            x -= seq[m - j]
        for j, w in scaled:
            x += w * seq[m - j]
        append(x)
    return seq


def scalar_terms(coefficients, stop: int) -> list:
    """A new list [X_0, X_1, ...] of at least k+1 and at least stop scalar terms.

    X_0 = X_1 = 1 and X_n = c1 X_{n-1} + ... + c_{n-1} X_1 + 1 for
    2 <= n <= k; the recurrence gives the rest.
    """
    xs = [1, 1]
    for n in range(2, len(coefficients) + 1):
        xs.append(sum(map(mul, coefficients, reversed(xs[1:]))) + 1)
    return extend(xs, coefficients, stop)


def scalar_window(coefficients, m: int, count: int) -> list:
    """A new list [X_m, ..., X_{m+count-1}] for m >= 0, without the terms below m.

    The shift by m acts on solutions of the recurrence as x^m acts modulo
    P(x) = x^k - c1 x^(k-1) - ... - ck.  So with x^m mod P = r_0 + r_1 x +
    ... + r_{k-1} x^(k-1), X_{m+j} = sum_i r_i X_{i+j}.  The remainder takes
    O(log m) squarings modulo P (Fiduccia's method).
    """
    k = len(coefficients)
    low = coefficients[::-1]            # x^k = ck + ... + c1 x^(k-1) mod P
    x = [0, 1] + [0] * (k - 2)
    r = [1] + [0] * (k - 1)
    for bit in bin(m)[2:]:
        r = _times_mod(r, r, low)
        if bit == "1":
            r = _times_mod(r, x, low)
    base = scalar_terms(coefficients, k + count - 1)
    return [sum(map(mul, r, base[j:j + k])) for j in range(count)]


def _times_mod(p, q, low) -> list:
    """p q modulo x^k - (low[0] + low[1] x + ... + low[k-1] x^(k-1)), for
    coefficient lists p and q of length k, lowest degree first."""
    k = len(low)
    pq = [0] * (2 * k - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q, i):
                pq[j] += a * b
    for d in range(2 * k - 2, k - 1, -1):
        h = pq.pop()
        if h:
            for i, w in enumerate(low, d - k):
                if w:
                    pq[i] += w * h
    return pq


def greedy_digits(z: int, terms) -> tuple:
    """Greedy digits of z >= 0 against an iterable of descending terms, one
    digit per term, zeros included, and what is left of z, which is below
    the last term.

    `legal_decompose`, the held bridge and, a block at a time,
    `_Blocks.greedy` expand through this loop.  Greedy digits are
    small (at most c1 for weakly decreasing coefficients), so subtracting
    beats bisect and divmod.
    """
    arr = []
    append = arr.append
    for x in terms:
        if z >= x:
            z -= x
            d = 1
            while z >= x:
                z -= x
                d += 1
            append(d)
        else:
            append(0)
    return arr, z


def greedy_count(z: int, terms) -> int:
    """Digit sum of `greedy_digits(z, terms)[0]`, without the digits.

    Sampled `summand_distribution` counts each draw's summands here.  It
    stays a loop of its own: the other greedy callers need the digits, and
    one shared loop would branch on which caller it serves.  The inner
    `while` counts a digit of any size, so relaxed coefficients need no
    special case.
    """
    count = 0
    for x in terms:
        if z >= x:
            z -= x
            count += 1
            while z >= x:
                z -= x
                count += 1
    return count


# Digits per step of `_Blocks.greedy` and per leaf of `string_value`.
# Measured on 15 vectors of 1200, 2400 and 4000 digits, three per strict c
# of the benchmark, with the block constants held (2 cores, Python 3.11.7,
# sizes interleaved in one process, best of 7-9, three runs): `decompose`
# took 189-213 ms in all with blocks of 64, and 141-181 ms with 128, 192
# or 256, in no steady order; a streamed call at level 2049 took
# 0.5-1.1 ms at every size from 128 up.  The held constants took 22-41 KB
# per recurrence at 128, 38-79 KB at 192 and 57-129 KB at 256; with the
# one-leaf coordinates they take 27-52 KB at 128 for the benchmark's
# recurrences.
BLOCK = 128


class _Blocks:
    """The constants of the blocked greedy and of `_Blocks.value`, and
    log_growth (`_backward_log_growth`), for one weakly decreasing
    recurrence, held on c by the bridge (`_held_blocks`).

    columns[p-1] = y^p mod Q for 1 <= p < BLOCK + k, with Q as in
    `string_value`, packed in k signed width-bit slots, y^0 lowest; read
    backward, they are also the rows that step the greedy's window down.
    The first BLOCK are the tree's leaf columns, with slots wide enough for
    greedy digits, which lie in [0, c1].  coordinates[d-1][p-1] is
    coordinate d of X_{-p}, for p up to BLOCK, as a plain int.  terms packs
    X_j above the unit-seed row A_j, for j = BLOCK down to 1 (see
    `greedy`).  No call changes them once they are built.  The slot widths
    and the greedy assume digits in [0, c1], so coefficients that are not
    weakly decreasing are refused.
    """

    __slots__ = ("coefficients", "log_growth", "xs", "up", "span", "terms", "width",
                 "columns", "coordinates", "step")

    def __init__(self, coefficients):
        k = len(coefficients)
        if any(map(lt, coefficients, coefficients[1:])):
            raise InvalidRecurrenceError(
                "block constants need weakly decreasing coefficients: %r" % (coefficients,))
        self.coefficients = coefficients
        self.log_growth = _backward_log_growth(coefficients)
        self.xs = xs = scalar_terms(coefficients, BLOCK + k + 1)
        # The k unit-seed solutions (e_l at indices 1-k..0) travel in slots
        # of one integer per index, so one `extend` carries them all.  They
        # lie in [0, X_{j+k}], so a block's greedy digits, at most c1 for
        # weakly decreasing c, sum them to below 2^(up-1) in every slot.
        self.up = up = (coefficients[0] * BLOCK * xs[BLOCK + k]).bit_length() + 1
        self.span = span = k * up + 8
        rows = extend([1 << up * l for l in range(k)], coefficients,
                      BLOCK + k)[BLOCK + k - 1:k - 1:-1]     # A_BLOCK .. A_1
        self.terms = [(x << span) + row for x, row in zip(xs[BLOCK:0:-1], rows)]
        # y^p mod Q = t_{1-p} + X_{-p} . (y, ..., y^(k-1)) for the last
        # coordinates t of `backward_column`, and X_{-p} sums at most sum(c)
        # of them per coordinate
        big = sum(coefficients) * max(map(abs, backward_column(coefficients, BLOCK + 2 * k)))
        self.width = width = (coefficients[0] * BLOCK * big).bit_length() + 1
        self.columns = columns = _packed_powers(coefficients, BLOCK + k, width)[1:]
        self.coordinates = [list(row) for row in
                            zip(*[_slots(x, width, k)[1:] for x in columns[:BLOCK]])]
        self.step = self.shift(BLOCK)

    def shift(self, s: int) -> list:
        """The rows taking (X_{u+1-k}, ..., X_u) to (X_{u-s+1-k}, ..., X_{u-s})."""
        k, columns, width = len(self.coefficients), self.columns, self.width
        return [_slots(columns[s + k - 2 - m], width, k)[::-1] for m in range(k)]

    def greedy(self, z: int, top, count: int) -> list:
        """`greedy_digits` of 0 <= z < X_{count+1} against X_count, ..., X_1,
        BLOCK digits per step, from top = [X_{count+1-k}, ..., X_count], for
        weakly decreasing coefficients.

        Blocks are aligned from the bottom: their bases u run down from
        BLOCK * ((count-1) // BLOCK) to 0, and E = (X_{u+1-k}, ..., X_u) is
        the one exact window kept.  Every X_{u+j} is A_j . E for small
        vectors A_j, the unit-seed solutions at j, so a block of s positions
        costs a few big products.  Its digits are the greedy digits of the
        estimate H = z X_s // X_{u+s} against X_s..X_1, and T = their value
        at the block's positions.  H < X_{s+1}, so the top bits of z and
        X_{u+s}, 64 more than X_{BLOCK+1} has, give it to within one.
        Legal strings order like their values, and the z whose greedy
        digits start with the block's fill [T, T + bound_j), for j the
        scanner state after the block and
        bound_j = c_{j+1} X_u + ... + c_k X_{u+j+1-k}.  So
        0 <= z - T < bound_j accepts the block, and otherwise H steps by one
        toward it.

        T = a . E for a = sum_j d_j A_j, which the greedy sums as it goes:
        it runs on H 2^span + 2^(span-1) against the terms X_j 2^span + A_j,
        A_j packed in up-bit slots.  No slot of a reaches 2^(up-1), so the
        low part never borrows from the high one, every comparison goes as
        the plain greedy's on H, and the low part of what is left is
        2^(span-1) - a.  Greedy digits are legal, and from any state a legal
        c1..ct leads to a state of at least t (c is weakly decreasing), so
        j is the longest tail of the block's digits that equals c1..cj.
        """
        coefficients, xs, up, span, terms = (
            self.coefficients, self.xs, self.up, self.span, self.terms)
        k = len(coefficients)
        rev = coefficients[::-1]
        heads = [list(coefficients[:j]) for j in range(k)]
        half, mask = 1 << span - 1, (1 << span) - 1
        keep = xs[BLOCK + 1].bit_length() + 64
        u = BLOCK * ((count - 1) // BLOCK)
        s = count - u
        xtop = top[-1]                              # X_{u+s}
        window = [sum(map(mul, row, top)) for row in self.shift(s)]
        arr = []
        while True:
            cut = max(0, xtop.bit_length() - keep)
            h = min((z >> cut) * xs[s] // (xtop >> cut), xs[s + 1] - 1)
            block = terms[BLOCK - s:]
            moved = 0
            while True:
                digits, rest = greedy_digits((h << span) + half, block)
                j = min(k - 1, s)
                while digits[s - j:] != heads[j]:
                    j -= 1
                a = _slots(half - (rest & mask), up, k)
                r = z - sum(map(mul, a, window))
                if r < 0:
                    move = -1
                elif r >= sum(map(mul, rev, window[j:])):
                    move = 1
                else:
                    break
                # exact inputs move H one way and inside [0, X_{s+1})
                if move == -moved or not 0 <= h + move < xs[s + 1]:
                    raise ValueError("z is not in [0, X_{count+1}) or top is not "
                                     "[X_{count+1-k}, ..., X_count]")
                h, moved = h + move, move
            arr += digits
            if not u:
                return arr
            z, xtop, s, u = r, window[-1], BLOCK, u - BLOCK
            window = [sum(map(mul, row, window)) for row in self.step]

    def value(self, a) -> tuple:
        """`string_value` of a string of greedy digits, which lie in [0, c1].

        A string of at most BLOCK digits is k-1 plain dot products with
        `coordinates`, with no packed column and no slot decode; a longer
        one goes through `_tree_value` with the held columns.
        """
        if len(a) <= BLOCK:
            return tuple([sum(map(mul, a, row)) for row in self.coordinates])
        return _tree_value(self.coefficients, a, self.width, self.columns)


def _held_blocks(c: RecurrenceVector) -> _Blocks:
    """The block constants held on c as c._bridge, built on first use."""
    if c._bridge is None:
        c._bridge = _Blocks(c.coefficients)
    return c._bridge


def _backward_log_growth(coefficients) -> float:
    """log rho, the slowest growth rate among the expanding backward modes.

    The terms X_{-i} are combinations of mu^i over the reciprocals mu of the
    roots of x^k - c1 x^(k-1) - ... - ck.  A string of length m reaches only
    about rho^m along the slowest mode with |mu| > 1, so rho bounds how short
    the representation of v can be.  Roots by Durand-Kerner iteration.
    """
    poly = (1,) + tuple(-x for x in coefficients)
    roots = [(0.4 + 0.9j) ** i for i in range(len(coefficients))]
    for _ in range(500):
        moved = 0.0
        for i, r in enumerate(roots):
            num = 0j
            for a in poly:
                num = num * r + a
            den = 1
            for j, s in enumerate(roots):
                if j != i:
                    den *= r - s
            step = num / den
            roots[i] = r - step
            moved = max(moved, abs(step))
        if moved < 1e-15:
            break
    return -math.log(max(abs(r) for r in roots if abs(r) < 1))


def _packed_powers(coefficients, stop: int, width: int) -> list:
    """[y^0, ..., y^(stop-1)] mod Q (at least k of them), each packed in k
    signed width-bit slots, y^0 lowest.  The coefficients of y^p mod Q solve
    the recurrence downward in p, and so do their packings."""
    k = len(coefficients)
    return extend([1 << width * i for i in range(k)], coefficients, stop, down=True)


def _slots(x: int, width: int, count: int) -> list:
    """The count signed width-bit slots of x, lowest first."""
    half, out = 1 << (width - 1), []
    for _ in range(count):
        v = ((x + half) & ((half << 1) - 1)) - half
        out.append(v)
        x = (x - v) >> width
    return out


def string_value(coefficients, a) -> tuple:
    """sum_p a[p-1] * X_{-p} for any digit sequence a, by a product tree.

    X_{-p} solves the recurrence in p with characteristic polynomial
    Q(y) = y^k + c_{k-1} y^(k-1) + ... + c1 y - 1.  So the sum equals
    sum_i r_i X_{-i} for r = (sum_p a[p-1] y^p) mod Q, which is
    (r_1, ..., r_{k-1}) because X_0 = 0 and X_{-i} = e_i.  The leaves'
    columns are built for this call only, as far as a reaches, with slots
    wide enough for its largest digit, and so are the tree's powers of y
    (see `_tree_value`); nothing is held.
    """
    top = max(max(a), -min(a), 1) if len(a) else 1
    count = min(len(a), BLOCK)
    # Every coefficient of y^p mod Q is at most R^p in size, R = 1 + max(c):
    # the columns start at 1 and step downward by the recurrence, and
    # R^k - 1 >= (R - 1)(R^(k-1) + ... + R) >= c_{k-1} R^(k-1) + ... + c1 R.
    width = (top * count * (1 + max(coefficients)) ** count).bit_length() + 1
    return _tree_value(coefficients, a, width,
                       _packed_powers(coefficients, count + 1, width)[1:])


def _tree_value(coefficients, a, width: int, columns: list) -> tuple:
    """`string_value` of a, from columns[p-1] = y^p mod Q packed in width-bit
    slots, for p up to BLOCK and to len(a), with room for any leaf's sum.

    Each leaf of BLOCK digits takes r as one dot product of its digits with
    the columns; neighbours join as r_lo + (y^h mod Q) r_hi, h the digits
    below, with y^h = y^(BLOCK 2^level) squared once per level and held for
    this call only.  Each leaf is folded into a stack with one node per tree
    level, as in a binary counter, so O(log len(a)) remainders are live at
    once; the remainder mod Q is unique, so the grouping does not change it.
    A string of one leaf is that leaf.
    """
    k = len(coefficients)
    if len(a) <= BLOCK:
        return tuple(_slots(sum(map(mul, a, columns)), width, k)[1:])
    low = [1] + [-w for w in coefficients[:-1]]     # y^k mod Q
    powers = [_slots(columns[BLOCK - 1], width, k)]     # y^(BLOCK 2^level) mod Q
    stack = []      # (level, r): r for 2^level leaves, levels strictly decreasing

    def join(lo, hi, level):
        if len(powers) == level:
            powers.append(_times_mod(powers[-1], powers[-1], low))
        return list(map(add, lo, _times_mod(powers[level], hi, low)))

    for i in range(0, len(a), BLOCK):
        level, r = 0, _slots(sum(map(mul, a[i:i + BLOCK], columns)), width, k)
        while stack and stack[-1][0] == level:
            r = join(stack.pop()[1], r, level)
            level += 1
        stack.append((level, r))
    r = stack.pop()[1]
    while stack:
        level, lo = stack.pop()
        r = join(lo, r, level)
    return tuple(r[1:])


def backward_column(coefficients, stop: int) -> list:
    """A new list t with t[p] = last coordinate of X_{-p}, at least k and
    at least stop entries.

    X_0 = 0 and X_{-i} = e_i for 1 <= i <= k-1, so the column starts with
    k-1 zeros and a one.
    """
    k = len(coefficients)
    return extend([0] * (k - 1) + [1], coefficients, stop, down=True)


def column_weights(coefficients) -> tuple:
    """alpha with X_n[d] = sum_j alpha[d][j] * t_{n-j}, t_m the last coordinate of X_m.

    Coordinates d and d+1 of X_{-p} (1-based) satisfy
    s_d(p) = s_{d+1}(p+1) + c_{d+1} t_{-p}: both sides solve the recurrence
    and agree at p = 0..k-1.  Unrolled, coordinate d is sum_j c_{d+j+1}
    t_{-p-j}, so one column serves every coordinate, for every index n.
    """
    return tuple(coefficients[d + 1:] + (0,) * d for d in range(len(coefficients) - 1))


class _TwoSided:
    """One solution s of the recurrence in two lists that only grow: s_{base+m}
    at _up[m] and s_{base+k-1-m} at _down[m], both starting with the seeds
    s_base..s_{base+k-1}.  `_at` is the one lookup, and the one code that
    grows either list."""

    __slots__ = ("owner", "_base", "_up", "_down")

    def __init__(self, owner: RecurrenceVector, base: int, seeds: list):
        self.owner = owner
        self._base = base
        self._up = seeds
        self._down = seeds[owner.k - 1::-1]

    def _at(self, n: int) -> int:
        m = n - self._base
        if m >= 0:
            seq, down = self._up, False
        else:
            seq, m, down = self._down, self.owner.k - 1 - m, True
        if m >= len(seq):
            # a thread switch inside `extend` would let another thread's
            # `extend` start from the same length: grow under the owner's
            # lock, from the length found there
            with self.owner._lock:
                if m >= len(seq):
                    extend(seq, self.owner.coefficients, m + 1, down)
        return seq[m]


class ScalarSequence(_TwoSided):
    """Two-sided scalar sequence X_n attached to a recurrence vector.

    X_1 = 1; for 2 <= n <= k, X_n = c1*X_{n-1} + ... + c_{n-1}*X_1 + 1; the
    full recurrence holds for n > k.  Indices n <= 0 are defined by running
    the recurrence backwards (well defined because ck = 1), which forces
    X_0 = 1.  Held by `_TwoSided` with base 0 and seeds X_0..X_k.
    """

    __slots__ = ()

    def __init__(self, owner: RecurrenceVector):
        super().__init__(owner, 0, scalar_terms(owner.coefficients, 0))

    term = _TwoSided._at

    def max_index_at_most(self, value: int) -> int:
        """Largest n >= 0 with X_n <= value (value >= 1)."""
        if value < 1:
            # of int(value), so a float reads as %d showed it; past the digit
            # limit the bound is "at most -2^N", which is not repeated
            name = _int_or_bound(int(value))
            if name.startswith("at most"):
                name = "the given value, which is " + name
            raise ValueError("no term is at most %s: X_0 = X_1 = 1" % name)
        # X_m >= m for m >= 1, so X_{value+1} is above value: the held terms
        # grow until the first one above value, and no further
        self.term_at_most(value + 1, value)
        # X_0 = X_1 = 1: searching from index 2 answers 1 for value 1
        return bisect_right(self._up, value, 2) - 1

    def term_at_most(self, n: int, bound: int):
        """X_n for n >= 0 when X_n <= bound, else None.

        X is strictly increasing from X_1, so the held terms grow only until
        they reach index n or pass the bound, whichever comes first: none
        past the first term above the bound, and none past X_n.
        """
        if n < 0:
            raise ValueError("term_at_most needs n >= 0")
        up = self._up
        while len(up) <= n and up[-1] <= bound:
            self._at(len(up))
        x = up[min(n, len(up) - 1)]
        return x if x <= bound else None

    def descending(self, n: int) -> list:
        """A new list [X_n, ..., X_1] for n >= 0, growing the held terms to X_n."""
        if n < 0:
            raise ValueError("descending terms need n >= 0")
        self._at(n)
        return self._up[n:0:-1]


class VectorSequence(_TwoSided):
    """Two-sided lattice-vector sequence seeded by 0 and the standard basis.

    X_0 = 0, X_{-i} = e_i for 1 <= i <= k-1, forward recurrence for n >= 1,
    backward recurrence for n <= -k.  All entries stay integral because
    ck = 1.  Only the last coordinate t_n of each term is held, with base
    1-k and seeds t_{1-k}..t_0 = 1, 0, ..., 0, and a term is built on
    request as X_n[d] = sum_j alpha[d][j] * t_{n-j}.
    """

    __slots__ = ("_alpha",)

    def __init__(self, owner: RecurrenceVector):
        super().__init__(owner, 1 - owner.k, [1] + [0] * (owner.k - 1))
        self._alpha = column_weights(owner.coefficients)

    def term(self, n: int) -> tuple:
        return self._terms(n, 1)[0]

    def basis(self, depth: int) -> list:
        """[X_{-1}, ..., X_{-depth}] as a list indexed by i-1."""
        return self._terms(-1, depth)

    def _terms(self, n: int, count: int) -> list:
        """[X_n, X_{n-1}, ..., X_{n-count+1}], from the count+k-2 column
        entries t_n..t_{n-count-k+3}, each looked up once: X_{n-i} reads the
        k-1 of them from t_{n-i} down."""
        k, alpha = self.owner.k, self._alpha
        column = [self._at(j) for j in range(n, n - count - k + 2, -1)]
        return [tuple([sum(map(mul, row, window)) for row in alpha])
                for window in zip(*[column[j:] for j in range(k - 1)])]


class BasisSearch:
    """Breadth-first search from the origin over sums of X_{-1}, ..., X_{-bound},
    one summand per level, grown node by node on request and shared by calls.

    Nodes are numbered in the order a search from the origin finds them:
    each level is a set filled in that order, and the next level is built
    by iterating it and adding, to each node, the generators in index
    order.  `index` maps every node found to its number and `starts[d]` is
    the number of the first node at level d, so starts[-1] counts the nodes
    of the complete levels.  Only the last complete level and the one being
    built are held as sets, by the generator `_steps`.  X_{-1} = e_1 is a
    generator, so the nodes never run out and no level is empty.

    A search that holds more nodes than the node cap of the call that grew
    it is dropped from its owner, and so is one whose growth an exception
    cut short, since its sets may then lag behind its numbers.
    """

    __slots__ = ("owner", "bound", "index", "starts", "_steps")

    def __init__(self, owner: RecurrenceVector, bound: int):
        _at_least(bound, 1, "support bound")
        zero = (0,) * owner.dimension
        self.owner = owner
        self.bound = bound
        self.index = {zero: 0}
        self.starts = [0, 1]
        self._steps = _search_steps(owner.vector().basis(bound), {zero},
                                    self.index, self.starts)

    def reach(self, v: tuple, most: int, node_cap: int):
        """v's level, as a search for v finds it that stops after level most
        or after the first level from 1 on that ends past node_cap nodes;
        most + 1 if that search ends without v, None if it ends at the cap.

        Grows only as far as that search would: until it finds v or stops.
        """
        self._grow(v, most, node_cap)
        starts = self.starts
        number = self.index.get(v)
        depth = most + 1 if number is None else min(bisect_right(starts, number) - 1, most + 1)
        last = min(depth - 1, len(starts) - 2)   # the last level whose count is checked
        if last and starts[last + 1] > node_cap:
            return None
        return depth

    def count_through(self, depth: int, node_cap: int) -> int:
        """The number of nodes in levels 0..depth, growing level depth to its
        end if need be; the levels before it must end within node_cap."""
        self._grow(None, depth, node_cap)
        return self.starts[depth + 1]

    def _grow(self, v, most: int, node_cap: int) -> None:
        # add nodes until v is found, level most is complete, or a complete
        # level from 1 on ends past node_cap nodes; one thread at a time
        # steps the generator, under the owner's lock
        index, starts, steps = self.index, self.starts, self._steps
        with self.owner._lock:
            try:
                while v not in index:
                    done = len(starts) - 2
                    if done >= most or done and starts[-1] > node_cap:
                        break
                    next(steps)
            except BaseException:
                self._drop()
                raise
            if len(index) > node_cap:
                self._drop()

    def _drop(self) -> None:
        if self.owner._search is self:
            self.owner._search = None


def _search_steps(gens: list, frontier: set, index: dict, starts: list):
    """Grow a breadth-first search level by level from frontier, yielding
    after each node it numbers and after each level it ends."""
    while True:
        level = set()
        for w in frontier:
            for g in gens:
                u = tuple(map(add, w, g))
                if u not in index:
                    index[u] = len(index)
                    level.add(u)
                    yield
        starts.append(len(index))
        frontier = level
        yield


def scalar_term(c: RecurrenceVector, n: int) -> int:
    """n-th scalar term (n may be any integer; memoized)."""
    return c.scalar().term(n)


def vector_term(c: RecurrenceVector, n: int) -> tuple:
    """n-th lattice vector term (n may be any integer; built from the memoized column)."""
    return c.vector().term(n)
