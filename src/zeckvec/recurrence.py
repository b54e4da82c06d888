"""Recurrence vectors and the scalar / lattice-vector term sequences they define.

Everything here is exact integer arithmetic.  Terms grow exponentially in both
directions, so sequences memoize aggressively; caches are append-only and the
values handed out are immutable tuples/ints.
"""

from __future__ import annotations

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
        self._bridge = None   # growth rate and one held level, kept by normalize

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


class ScalarSequence:
    """Two-sided scalar sequence X_n attached to a recurrence vector.

    X_1 = 1; for 2 <= n <= k, X_n = c1*X_{n-1} + ... + c_{n-1}*X_1 + 1; the
    full recurrence holds for n > k.  Indices n <= 0 are defined by running
    the recurrence backwards (well defined because ck = 1), which forces
    X_0 = 1.
    """

    __slots__ = ("owner", "_cache", "_hi", "_lo")

    def __init__(self, owner: RecurrenceVector):
        self.owner = owner
        c = owner.coefficients
        k = owner.k
        cache = {1: 1}
        for n in range(2, k + 1):
            cache[n] = sum(c[i] * cache[n - 1 - i] for i in range(n - 1)) + 1
        self._cache = cache
        self._hi = k
        self._lo = 1

    def term(self, n: int) -> int:
        cache = self._cache
        got = cache.get(n)
        if got is not None:
            return got
        c = self.owner.coefficients
        k = self.owner.k
        if n > self._hi:
            for m in range(self._hi + 1, n + 1):
                cache[m] = sum(c[i] * cache[m - 1 - i] for i in range(k))
            self._hi = n
        else:
            # descend: X_m = X_{m+k} - sum_{i<k} c_i X_{m+k-i}
            for m in range(self._lo - 1, n - 1, -1):
                cache[m] = cache[m + k] - sum(c[i] * cache[m + k - 1 - i] for i in range(k - 1))
            self._lo = n
        return cache[n]

    def max_index_at_most(self, value: int) -> int:
        """Largest n >= 0 with X_n <= value (value >= 1)."""
        n = 1
        while self.term(n + 1) <= value:
            n += 1
        return n


class VectorSequence:
    """Two-sided lattice-vector sequence seeded by 0 and the standard basis.

    X_0 = 0, X_{-i} = e_i for 1 <= i <= k-1, forward recurrence for n >= 1,
    backward recurrence for n <= -k.  All entries stay integral because
    ck = 1.
    """

    __slots__ = ("owner", "_cache", "_hi", "_lo")

    def __init__(self, owner: RecurrenceVector):
        self.owner = owner
        k = owner.k
        dim = k - 1
        cache = {0: (0,) * dim}
        for i in range(1, k):
            cache[-i] = tuple(1 if j == i - 1 else 0 for j in range(dim))
        self._cache = cache
        self._hi = 0
        self._lo = -(k - 1)

    def term(self, n: int) -> tuple:
        cache = self._cache
        got = cache.get(n)
        if got is not None:
            return got
        c = self.owner.coefficients
        k = self.owner.k
        dim = k - 1
        if n > self._hi:
            for m in range(self._hi + 1, n + 1):
                acc = [0] * dim
                for i in range(k):
                    ci = c[i]
                    if ci:
                        prev = cache[m - 1 - i]
                        for j in range(dim):
                            acc[j] += ci * prev[j]
                cache[m] = tuple(acc)
            self._hi = n
        else:
            # descend via X_m = X_{m+k} - sum_{i<k} c_i X_{m+k-i}
            for m in range(self._lo - 1, n - 1, -1):
                acc = list(cache[m + k])
                for i in range(k - 1):
                    ci = c[i]
                    if ci:
                        prev = cache[m + k - 1 - i]
                        for j in range(dim):
                            acc[j] -= ci * prev[j]
                cache[m] = tuple(acc)
            self._lo = n
        return cache[n]

    def basis(self, depth: int) -> list:
        """[X_{-1}, ..., X_{-depth}] as a list indexed by i-1."""
        return [self.term(-i) for i in range(1, depth + 1)]


def scalar_term(c: RecurrenceVector, n: int) -> int:
    """n-th scalar term (n may be any integer; memoized)."""
    return c.scalar().term(n)


def vector_term(c: RecurrenceVector, n: int) -> tuple:
    """n-th lattice vector term (n may be any integer; memoized)."""
    return c.vector().term(n)
