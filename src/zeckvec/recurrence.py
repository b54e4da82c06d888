"""Recurrence vectors and the scalar / lattice-vector term sequences they define.

Everything here is exact integer arithmetic.  Both sequences solve one
recurrence, X_n = c1 X_{n-1} + ... + ck X_{n-k}, in both index directions;
only their seeds differ.  `extend` is the one routine that steps it: it
lengthens a plain list upward or downward.  A sequence keeps its terms in
two such lists, one per direction, which only ever grow.  The vector
sequence stores one integer column, the last coordinate of each term, and
builds each vector term from k-1 consecutive entries of it on request.
`scalar_window` and `string_value` reach far terms and long strings with a
few live integers instead: by powers of x, and by Horner's rule, modulo the
characteristic polynomial.  `greedy_digits` is the one greedy expansion
against descending terms.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import mul

from .errors import InvalidRecurrenceError


class RecurrenceVector:
    """The defining coefficients (c1, ..., ck) of a linear recurrence.

    Both modes require k >= 2, c1 > 0, all ci >= 0 and ck == 1.  The strict
    constructor additionally demands weakly decreasing coefficients
    (c1 >= c2 >= ... >= ck), which is the regime where every integer vector
    has a unique satisfying representation and normalization provably
    terminates.  Relaxed mode lifts the ordering requirement and exists for
    the termination/spanning probes only.
    """

    __slots__ = ("coefficients", "k", "relaxed", "weakly_decreasing",
                 "_scalar", "_vector", "_bridge")

    def __init__(self, coefficients, relaxed: bool = False):
        coeffs = tuple(int(x) for x in coefficients)
        k = len(coeffs)
        if k < 2:
            raise InvalidRecurrenceError("k >= 2 required, got k=%d" % k)
        if coeffs[0] <= 0:
            raise InvalidRecurrenceError("c1 must be positive, got %d" % coeffs[0])
        if any(x < 0 for x in coeffs):
            raise InvalidRecurrenceError("all coefficients must be nonnegative: %r" % (coeffs,))
        if coeffs[-1] != 1:
            raise InvalidRecurrenceError("ck must equal 1, got %d" % coeffs[-1])
        weakly = all(coeffs[i] >= coeffs[i + 1] for i in range(k - 1))
        if not relaxed and not weakly:
            raise InvalidRecurrenceError(
                "strict mode requires weakly decreasing coefficients; "
                "construct with relaxed=True for probe use: %r" % (coeffs,))
        self.coefficients = coeffs
        self.k = k
        self.relaxed = relaxed
        self.weakly_decreasing = weakly
        self._scalar = None
        self._vector = None
        self._bridge = None   # the bridge's log growth rate, kept by normalize

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
    r = [1] + [0] * (k - 1)
    for bit in bin(m)[2:]:
        sq = [0] * (2 * k)
        for i, a in enumerate(r):
            if a:
                for j, b in enumerate(r, i):
                    sq[j] += a * b
        if bit == "1":
            sq.insert(0, sq.pop())       # times x: the top slot is still 0
        for d in range(2 * k - 1, k - 1, -1):
            h = sq[d]
            if h:
                # x^d = x^(d-k) * (c1 x^(k-1) + ... + ck)
                for i, w in enumerate(coefficients, 1):
                    if w:
                        sq[d - i] += w * h
        r = sq[:k]
    base = scalar_terms(coefficients, k + count - 1)
    return [sum(map(mul, r, base[j:j + k])) for j in range(count)]


def greedy_digits(z: int, terms) -> list:
    """Greedy digits of z >= 0 against an iterable of descending terms, one
    digit per term, zeros included; z is left below the last term.

    `legal_decompose` and both bridge paths expand through this loop.
    Greedy digits are small (at most c1 for weakly decreasing
    coefficients), so subtracting beats bisect and divmod.
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
    return arr


def string_value(coefficients, a) -> tuple:
    """sum_p a[p-1] * X_{-p} with k live integers, for any digit sequence a.

    X_{-p} solves the recurrence in p with characteristic polynomial
    Q(y) = y^k + c_{k-1} y^(k-1) + ... + c1 y - 1.  So the sum equals
    sum_i r_i X_{-i} for r = (sum_p a[p-1] y^p) mod Q, which is
    (r_1, ..., r_{k-1}) because X_0 = 0 and X_{-i} = e_i.  Horner's rule
    takes r from the last digit down.
    """
    k = len(coefficients)
    # y^k = 1 - c1 y - ... - c_{k-1} y^(k-1)
    ones = [i for i, w in enumerate(coefficients[:-1], 1) if w == 1]
    scaled = [(i, w) for i, w in enumerate(coefficients[:-1], 1) if w > 1]
    r = [0] * k
    pop, insert = r.pop, r.insert
    for d in chain(reversed(a), (0,)):
        h = pop()
        insert(0, h + d if d else h)
        if h:
            for i in ones:
                r[i] -= h
            for i, w in scaled:
                r[i] -= w * h
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


def column_value(alpha: tuple, t: list, a) -> tuple:
    """sum_p a[p-1] * X_{-p} from the backward column t.

    t must reach index len(a) + k - 2.  Takes the k-1 shifted column sums
    S_j = sum_p a[p-1] t[p+j], then applies the alpha rows to them.
    """
    m = len(a)
    sums = [sum(map(mul, a, t[j:j + m])) for j in range(1, len(alpha) + 1)]
    return tuple([sum(map(mul, row, sums)) for row in alpha])


class ScalarSequence:
    """Two-sided scalar sequence X_n attached to a recurrence vector.

    X_1 = 1; for 2 <= n <= k, X_n = c1*X_{n-1} + ... + c_{n-1}*X_1 + 1; the
    full recurrence holds for n > k.  Indices n <= 0 are defined by running
    the recurrence backwards (well defined because ck = 1), which forces
    X_0 = 1.  Terms live in two lists: X_n at index n, and X_{k-1-m} at
    index m, whose first k entries X_{k-1}, ..., X_0 seed the descent.
    """

    __slots__ = ("owner", "_up", "_down")

    def __init__(self, owner: RecurrenceVector):
        self.owner = owner
        self._up = scalar_terms(owner.coefficients, 0)
        self._down = self._up[owner.k - 1::-1]

    def term(self, n: int) -> int:
        if n >= 0:
            seq, m, down = self._up, n, False
        else:
            seq, m, down = self._down, self.owner.k - 1 - n, True
        if m >= len(seq):
            extend(seq, self.owner.coefficients, m + 1, down)
        return seq[m]

    def max_index_at_most(self, value: int) -> int:
        """Largest n >= 0 with X_n <= value (value >= 1)."""
        up = self._up
        while up[-1] <= value:
            extend(up, self.owner.coefficients, len(up) + 1)
        # X_0 = X_1 = 1: searching from index 2 answers 1 for value 1 (and below)
        return bisect_right(up, value, 2) - 1


class VectorSequence:
    """Two-sided lattice-vector sequence seeded by 0 and the standard basis.

    X_0 = 0, X_{-i} = e_i for 1 <= i <= k-1, forward recurrence for n >= 1,
    backward recurrence for n <= -k.  All entries stay integral because
    ck = 1.  Only the last coordinate t_n of each term is stored: t_{-p} at
    index p of one list, t_{m-k+1} at index m of the other.  A term is
    built on request as X_n[d] = sum_j alpha[d][j] * t_{n-j}.
    """

    __slots__ = ("owner", "_alpha", "_up", "_down")

    def __init__(self, owner: RecurrenceVector):
        self.owner = owner
        self._alpha = column_weights(owner.coefficients)
        self._down = backward_column(owner.coefficients, 0)
        self._up = self._down[::-1]

    def term(self, n: int) -> tuple:
        k = self.owner.k
        if n >= 0:
            seq, m, down = self._up, n + k - 1, False
        else:
            seq, m, down = self._down, k - 2 - n, True
        if m >= len(seq):
            extend(seq, self.owner.coefficients, m + 1, down)
        # t_n, t_{n-1}, ..., t_{n-k+2}
        window = seq[m:m - k + 1:-1] if n >= 0 else seq[m - k + 2:m + 1]
        return tuple([sum(map(mul, row, window)) for row in self._alpha])

    def basis(self, depth: int) -> list:
        """[X_{-1}, ..., X_{-depth}] as a list indexed by i-1."""
        return [self.term(-i) for i in range(1, depth + 1)]


def scalar_term(c: RecurrenceVector, n: int) -> int:
    """n-th scalar term (n may be any integer; memoized)."""
    return c.scalar().term(n)


def vector_term(c: RecurrenceVector, n: int) -> tuple:
    """n-th lattice vector term (n may be any integer; built from the memoized column)."""
    return c.vector().term(n)
