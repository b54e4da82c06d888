"""Reference arithmetic for checking zeckvec results, written from the
definitions and sharing no code with the package.

* ``satisfying`` runs the chunk grammar as a k-state automaton: the state is
  the length j of the prefix of c matched so far; a digit equal to c_{j+1}
  advances, a smaller digit returns to state 0, a larger one (or reaching
  state k, a full copy of c) rejects.
* ``Lattice`` evaluates strings against the vector terms X_{-i}, computed by
  the backward recurrence from X_0 = 0, X_{-i} = e_i (1 <= i < k).
* ``window_histogram`` / ``window_moments_table`` run the same automaton as a
  transfer DP over the digit strings of length n with a nonzero leading
  digit, which are the greedy decompositions of the integers in
  [X_n, X_{n+1}); each digit is weighted by its value (the summand count).
"""

from __future__ import annotations

from fractions import Fraction


def scalar_terms(coeffs, upto: int) -> list:
    """[X_0, X_1, ..., X_upto] with X_0 = X_1 = 1 and X_n = c1 X_{n-1} + ... ."""
    k = len(coeffs)
    xs = [1, 1]
    for n in range(2, upto + 1):
        if n <= k:
            xs.append(sum(coeffs[i] * xs[n - 1 - i] for i in range(n - 1)) + 1)
        else:
            xs.append(sum(coeffs[i] * xs[n - 1 - i] for i in range(k)))
    return xs[:upto + 1]


def satisfying(coeffs, a) -> bool:
    """True iff the digit string (position 1 first) obeys the chunk grammar."""
    k = len(coeffs)
    if a and a[-1] == 0:
        return False
    state = 0
    # trailing virtual zeros can still advance through zero coefficients
    for d in list(a) + [0] * k:
        want = coeffs[state]
        if d > want:
            return False
        if d == want:
            state += 1
            if state == k:
                return False
        else:
            state = 0
    return True


class Lattice:
    """Vector terms X_{-i} of one recurrence, with a cached head.

    Strings longer than the cache are evaluated by streaming the backward
    recurrence, so checking a 16k-digit result holds k terms, not 16k.
    """

    HEAD = 128      # covers all but the longest results; kept small,
                    # since the oracle's memory counts in the process's peak RSS

    def __init__(self, coeffs):
        self.coeffs = tuple(coeffs)
        self.k = len(coeffs)
        self.dim = self.k - 1
        self.head = [t for _, t in zip(range(self.HEAD), self._terms())]

    def _terms(self):
        """Yield X_{-1}, X_{-2}, ... forever."""
        k, dim, c = self.k, self.dim, self.coeffs
        # the k most recent terms, highest index first
        window = [tuple(0 for _ in range(dim))]          # X_0
        for i in range(1, k):
            e = tuple(1 if d == i - 1 else 0 for d in range(dim))
            window.append(e)                             # X_{-i}
            yield e
        # X_m = X_{m+k} - sum_{l=1}^{k-1} c_l X_{m+k-l}   (c_k = 1)
        while True:
            top = window[-k]
            acc = list(top)
            for l in range(1, k):
                cl = c[l - 1]
                if cl:
                    prev = window[-k + l]
                    for d in range(dim):
                        acc[d] -= cl * prev[d]
            term = tuple(acc)
            window.append(term)
            del window[0]
            yield term

    def term(self, i: int) -> tuple:
        """X_{-i} for 1 <= i <= HEAD."""
        return self.head[i - 1]

    def evaluate(self, a) -> tuple:
        dim = self.dim
        acc = [0] * dim
        terms = self.head if len(a) <= self.HEAD else self._terms()
        for coef, t in zip(a, terms):
            if coef:
                for d in range(dim):
                    acc[d] += coef * t[d]
        return tuple(acc)


def _lengths(coeffs, init, step):
    """Run the grammar automaton digit by digit, leading digit >= 1; yield
    the weight summed over accepting states after 1, 2, 3, ... digits."""
    k = len(coeffs)
    states = [None] * k
    states[0] = init
    first = True
    while True:
        nxt = [None] * k
        for j, val in enumerate(states):
            if val is None:
                continue
            want = coeffs[j]
            for d in range(1 if first else 0, want + 1):
                to = j + 1 if d == want else 0
                if to == k:
                    continue
                moved = step(val, d)
                nxt[to] = moved if nxt[to] is None else _add(nxt[to], moved)
        states = nxt
        first = False
        total = None
        for val in states:
            if val is not None:
                total = val if total is None else _add(total, val)
        yield total


def _add(x, y):
    if isinstance(x, dict):
        out = dict(x)
        for key, cnt in y.items():
            out[key] = out.get(key, 0) + cnt
        return out
    return tuple(p + q for p, q in zip(x, y))


def _shift(hist, d):
    return {s + d: cnt for s, cnt in hist.items()}


def _moment_step(m, d):
    cnt, s1, s2 = m
    return (cnt, s1 + d * cnt, s2 + 2 * d * s1 + d * d * cnt)


def window_histogram(coeffs, n: int) -> dict:
    """Exact summand-count histogram over [X_n, X_{n+1})."""
    for length, hist in enumerate(_lengths(coeffs, {0: 1}, _shift), 1):
        if length == n:
            return dict(sorted(hist.items()))


def window_moments_table(coeffs, n_max: int) -> list:
    """table[n] = (mean, variance) of the summand count over [X_n, X_{n+1})
    for 1 <= n <= n_max, carrying (N, sum s, sum s^2) through the automaton
    in exact integers; only the floats are kept."""
    table = [None]
    for cnt, s1, s2 in _lengths(coeffs, (1, 0, 0), _moment_step):
        mean = Fraction(s1, cnt)
        table.append((float(mean), float(Fraction(s2, cnt) - mean * mean)))
        if len(table) > n_max:
            return table


def least_squares(xs, ys):
    """(slope, intercept) of the ordinary least-squares line."""
    n = len(xs)
    mx = Fraction(sum(xs), n)
    my = sum(Fraction(y) for y in ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (Fraction(y) - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return float(slope), float(my - slope * mx)
