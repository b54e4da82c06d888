"""Carry/borrow rewriting: the engine that turns any representation into the
unique satisfying one.

Both elementary ops apply the defining recurrence at one position and preserve
the represented vector.  A carry into position i adds 1 there and removes
c1..ck from the k following positions (position 0 is virtual: its increment
multiplies the zero vector and is discarded); a borrow is the inverse.  Mass
bookkeeping: a carry at i >= 1 shifts the coefficient sum by 1 - sum(c), a
borrow by sum(c) - 1, and a carry into the virtual position 0 by -sum(c).

The reduction loop is scanner-driven.  Each round locates the first overfilled
element I with its chunk start n_p and matched length j, then applies:

  * j == k-1 (the string prefix ends in an overfull copy of c): one carry into
    n_p - 1, which is always legal;
  * j < k-1: one borrow from I, then one carry into n_p - 1 when legal.  For
    weakly decreasing coefficients the carry is provably legal and the loop
    terminates; otherwise the carry may be blocked and the step budget guards
    against divergence.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import mul
from typing import NamedTuple, Optional

from .errors import (BorrowBlockedError, CarryBlockedError, InvalidRecurrenceError,
                     NonTerminationError, NotEndCompleteError,
                     NotNearlySatisfyingError, NotSatisfyingError)
from .recurrence import RecurrenceVector
from .representation import (KIND_NEARLY_SATISFYING, canonical, classify,
                             evaluate, scan)

DEFAULT_BUDGET = 10_000
TRACE_FULL_STEPS = 1_000
TRACE_THIN_EVERY = 100
SUPPORT_SLACK_PER_K = 50
_HARD_STEP_CAP = 10_000_000


@dataclass(frozen=True)
class TraceStep:
    op: str         # "carry" | "borrow"
    pos: int
    string: tuple   # state after the step (after the whole run for count > 1)
    mass: int       # coefficient sum after the step
    count: int = 1  # unit operations represented by this entry


class NormalizationTrace:
    """Ordered record of rewriting steps.

    Consecutive borrows from the same position collapse into one entry with a
    count (that is how worked conversions are usually narrated: borrow until
    the digit fits, then carry), so mass moves by count*(sum(c)-1) per borrow
    entry and by 1-sum(c) per carry entry (-sum(c) for a carry into the
    virtual position 0).  Full retention for the first TRACE_FULL_STEPS unit
    operations, then one in TRACE_THIN_EVERY, so divergent probes stay
    bounded in memory.  step_count always reflects the true number of unit
    operations.
    """

    def __init__(self):
        self.steps = []
        self.step_count = 0
        self.terminated = False
        self._tail_step = 0

    def record(self, op: str, pos: int, string: tuple, mass: int):
        self.step_count += 1
        if op == "borrow" and self.steps and self._tail_step == self.step_count - 1:
            last = self.steps[-1]
            if last.op == "borrow" and last.pos == pos:
                self.steps[-1] = TraceStep(op, pos, string, mass, last.count + 1)
                self._tail_step = self.step_count
                return
        if self.step_count <= TRACE_FULL_STEPS or self.step_count % TRACE_THIN_EVERY == 0:
            self.steps.append(TraceStep(op, pos, string, mass))
            self._tail_step = self.step_count

    def strings(self) -> list:
        return [s.string for s in self.steps]


@dataclass(frozen=True)
class IterationRecord:
    fail_pos: int
    chunk_start: int
    matched: int
    case: str          # "carry_only" | "borrow_carry" | "borrow_only"
    mass: int          # G before this round's operations
    prefix_mass: int   # mass strictly below chunk_start, before the operations


@dataclass
class ProbeReport:
    outcome: str                     # "terminated" | "budget_exceeded"
    result: Optional[tuple]          # final satisfying string when terminated
    last: tuple                      # state when the loop stopped
    steps: int
    budget: Optional[int]
    reason: Optional[str]            # "step_budget" | "support_growth"
    max_support: int
    g_history: list
    trace: NormalizationTrace
    iterations: list = field(default_factory=list)
    suffix_period: Optional[tuple] = None   # (block, repeats) divergence heuristic

    @property
    def terminated(self) -> bool:
        return self.outcome == "terminated"


def carry(c: RecurrenceVector, a, i: int) -> tuple:
    """Carry into position i >= 0; requires a_{i+l} >= c_l for l = 1..k."""
    if i < 0:
        raise ValueError("carry position must be >= 0")
    a = canonical(a)
    coeffs = c.coefficients
    k = c.k
    m = len(a)
    for l in range(1, k + 1):
        have = a[i + l - 1] if i + l <= m else 0
        if have < coeffs[l - 1]:
            raise CarryBlockedError(
                "carry into %d blocked: a_%d = %d < c_%d = %d"
                % (i, i + l, have, l, coeffs[l - 1]))
    out = list(a) + [0] * max(0, i + k - m)
    for l in range(1, k + 1):
        out[i + l - 1] -= coeffs[l - 1]
    if i >= 1:
        out[i - 1] += 1
    return canonical(out)


def borrow(c: RecurrenceVector, a, i: int) -> tuple:
    """Borrow from position i >= 1; requires a_i >= 1."""
    if i < 1:
        raise ValueError("borrow position must be >= 1")
    a = canonical(a)
    coeffs = c.coefficients
    k = c.k
    m = len(a)
    if i > m or a[i - 1] < 1:
        raise BorrowBlockedError("borrow from %d blocked: coefficient is zero" % i)
    out = list(a) + [0] * max(0, i + k - m)
    out[i - 1] -= 1
    for l in range(1, k + 1):
        out[i + l - 1] += coeffs[l - 1]
    return canonical(out)


def _carry_legal(c, a, i) -> bool:
    coeffs = c.coefficients
    m = len(a)
    for l in range(1, c.k + 1):
        have = a[i + l - 1] if i + l <= m else 0
        if have < coeffs[l - 1]:
            return False
    return True


def _reduce(c: RecurrenceVector, a: tuple, budget=None, trace=None, support_cap=None) -> ProbeReport:
    coeffs = c.coefficients
    k = c.k
    total = c.coefficient_total
    limit = _HARD_STEP_CAP if budget is None else budget
    if trace is None:
        trace = NormalizationTrace()
    cur = canonical(a)
    g = sum(cur)
    g_history = [g]
    max_support = len(cur)
    steps = 0
    iterations = []

    def stopped(reason):
        return ProbeReport("budget_exceeded", None, cur, steps, budget, reason,
                           max_support, g_history, trace, iterations)

    while True:
        result = scan(c, cur)
        if result.ok:
            trace.terminated = True
            return ProbeReport("terminated", cur, cur, steps, budget, None,
                               max_support, g_history, trace, iterations)
        if support_cap is not None and len(cur) > support_cap:
            return stopped("support_growth")
        if steps >= limit:
            return stopped("step_budget")
        fail_pos = result.fail_pos
        np_ = result.chunk_start
        matched = result.matched
        prefix_mass = sum(cur[:np_ - 1])
        g_before = g
        if matched == k - 1:
            # prefix ends in an overfull copy of c: a single carry resolves it
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
            if len(cur) > max_support:
                max_support = len(cur)
            case = "borrow_only"
            if steps < limit and _carry_legal(c, cur, np_ - 1):
                cur = carry(c, cur, np_ - 1)
                steps += 1
                g += (1 - total) if np_ - 1 >= 1 else -total
                trace.record("carry", np_ - 1, cur, g)
                g_history.append(g)
                case = "borrow_carry"
        if len(cur) > max_support:
            max_support = len(cur)
        iterations.append(IterationRecord(fail_pos, np_, matched, case,
                                          g_before, prefix_mass))


def resolve_end_complete(c: RecurrenceVector, a):
    """Resolve an end-complete nearly satisfying string by carries alone.

    Repeatedly carries into the position immediately preceding the terminal
    (overfull) copy of c; every round strictly reduces the coefficient sum.
    """
    if not c.weakly_decreasing:
        raise InvalidRecurrenceError("end-complete resolution requires weakly decreasing coefficients")
    a = canonical(a)
    cls = classify(c, a)
    if not cls.end_complete:
        raise NotEndCompleteError("not an end-complete nearly satisfying string: %r" % (a,))
    trace = NormalizationTrace()
    cur = a
    while True:
        result = scan(c, cur)
        if result.ok:
            trace.terminated = True
            return cur, trace
        if result.fail_pos != len(cur) or result.matched != c.k - 1:
            raise NotEndCompleteError("carry cascade produced a non-end-complete state")
        cur = carry(c, cur, result.chunk_start - 1)
        trace.record("carry", result.chunk_start - 1, cur, sum(cur))


def normalize_nsr(c: RecurrenceVector, a, budget: int = DEFAULT_BUDGET) -> ProbeReport:
    """Normalize a nearly satisfying string to the satisfying one (budgeted)."""
    a = canonical(a)
    cls = classify(c, a)
    if cls.kind != KIND_NEARLY_SATISFYING:
        raise NotNearlySatisfyingError("input is not a nearly satisfying representation: %r" % (a,))
    return _reduce(c, a, budget=budget)


def _bumped(a: tuple, i: int) -> tuple:
    out = list(a) + [0] * max(0, i - len(a))
    out[i - 1] += 1
    return tuple(out)


def increment(c: RecurrenceVector, a, i: int, budget=None, trace=None) -> tuple:
    """Add X_{-i} to a satisfying string and renormalize.

    The bumped string is satisfying or nearly satisfying by construction, so
    normalization applies directly.  For weakly decreasing coefficients the
    result is guaranteed; otherwise the default budget bounds the attempt and
    NonTerminationError reports failure.
    """
    a = canonical(a)
    if not scan(c, a).ok:
        raise NotSatisfyingError("increment requires a satisfying representation: %r" % (a,))
    if i < 1:
        raise ValueError("index must be >= 1")
    bumped = _bumped(a, i)
    if budget is None and not c.weakly_decreasing:
        budget = DEFAULT_BUDGET
    report = _reduce(c, bumped, budget=budget, trace=trace)
    if not report.terminated:
        raise NonTerminationError("normalization did not terminate within %r steps" % report.budget)
    return report.result


def _decompose_chain(c: RecurrenceVector, v: tuple, trace=None) -> tuple:
    coeffs = c.coefficients
    k = c.k
    shift = 0
    for j in range(k - 1):
        if v[j] < 0:
            need = (-v[j] + coeffs[j] - 1) // coeffs[j]
            if need > shift:
                shift = need
    a = ()
    for _ in range(shift):
        a = increment(c, a, k, trace=trace)
    for j in range(1, k):
        for _ in range(v[j - 1] + shift * coeffs[j - 1]):
            a = increment(c, a, j, trace=trace)
    return a


def _backward_log_growth(coeffs) -> float:
    """log rho, the slowest growth rate among the expanding backward modes.

    The terms X_{-i} are combinations of mu^i over the reciprocals mu of the
    roots of x^k - c1 x^(k-1) - ... - ck.  A string of length m reaches only
    about rho^m along the slowest mode with |mu| > 1, so rho bounds how short
    the representation of v can be.  Roots by Durand-Kerner iteration.
    """
    poly = (1,) + tuple(-x for x in coeffs)
    roots = [(0.4 + 0.9j) ** i for i in range(len(coeffs))]
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


class _BridgeTables(NamedTuple):
    """What a recurrence vector holds for the bridge: constants and one level."""
    log_growth: float   # log rho, see _backward_log_growth
    alpha: tuple        # X_{-p}[d] = sum_j alpha[d][j] * t[p + j] for every p
    level: int          # 0 until a level is built
    xs: list            # X_0 .. X_level
    t: list             # t[p] = last coordinate of X_{-p}, p = 0 .. level + k - 3


def _held(c: RecurrenceVector) -> _BridgeTables:
    held = c._bridge
    if held is None:
        # Coordinates d and d+1 of X_{-p} (1-based) satisfy
        # s_d(p) = s_{d+1}(p+1) + c_{d+1} t[p]: both sides solve the
        # recurrence and agree at p = 0..k-1.  Unrolled, coordinate d is
        # sum_j c_{d+j+1} t[p+j], so one backward column serves every coordinate.
        coeffs = c.coefficients
        k = c.k
        alpha = tuple(tuple(coeffs[d + j + 1] if d + j + 1 < k else 0 for j in range(k - 1))
                      for d in range(k - 1))
        held = c._bridge = _BridgeTables(_backward_log_growth(coeffs), alpha, 0, [], [])
    return held


def _bridge_level(c: RecurrenceVector, v: tuple) -> int:
    """First bridge level tried for a nonzero v: floor(log|v| / log rho) + 2k.

    |v| is the l1 norm: with the sup norm, vectors whose coordinates nearly
    cancel along the slow mode (tribonacci's (5, -8) has length 12) would
    need a retry.
    """
    return int(math.log(sum(map(abs, v))) / _held(c).log_growth) + 2 * c.k


def _extend(seq: list, taps, stop: int):
    """Append seq[m] = sum(w * seq[m - j] for j, w in taps) until len(seq) == stop.

    Every recurrence here has a tap of weight 1 (c_k = 1), which starts the sum.
    """
    plus = [j for j, w in taps if w == 1]
    minus = [j for j, w in taps if w == -1]
    scaled = [(j, w) for j, w in taps if w not in (1, -1)]
    first = plus.pop()
    append = seq.append
    for m in range(len(seq), stop):
        x = seq[m - first]
        for j in plus:
            x += seq[m - j]
        for j in minus:
            x -= seq[m - j]
        for j, w in scaled:
            x += w * seq[m - j]
        append(x)


def _build_level(c: RecurrenceVector, n: int) -> _BridgeTables:
    """Build the level-n tables straight from the recurrence and hold them on
    c in place of any other level."""
    coeffs = c.coefficients
    k = c.k
    seq = c.scalar()
    # X_0 = 1; the memo holds X_1..X_k from its construction, so it does not grow
    xs = [1] + [seq.term(m) for m in range(1, k + 1)]
    _extend(xs, [(i, coeffs[i - 1]) for i in range(1, k + 1)], n + 1)
    # backward, as a recurrence in p: X_{-p} = X_{k-p} - sum_{i<k} c_i X_{k-i-p}
    t = [0] * (k - 1) + [1]
    _extend(t, [(k, 1)] + [(k - i, -coeffs[i - 1]) for i in range(1, k)], n + k - 2)
    held = c._bridge = _held(c)._replace(level=n, xs=xs, t=t)
    return held


def _decompose_bridge(c: RecurrenceVector, v: tuple) -> tuple:
    """The satisfying string of v via the scalar bridge, verified exactly.

    Dot v with the level-n window (X_{n-1}, ..., X_{n-k+1}) mod X_n, take
    the greedy digits against X_{n-1}..X_1 and accept them when they
    evaluate back to v.  The first level comes from |v|; a rejected level
    doubles.  That terminates: both window maps satisfy the recurrence and
    agree at i = 0..k-1, so z = S(a) mod X_n for the satisfying string a,
    and S(a) < X_n once n > len(a).  The level held on c serves any need
    up to twice below it; otherwise the needed level replaces it.
    """
    k = c.k
    n = _bridge_level(c, v)
    held = c._bridge
    while True:
        if not n <= held.level <= 2 * n:
            held = _build_level(c, n)
        _, alpha, n, xs, t = held
        z = sum(map(mul, v, xs[n - 1:n - k:-1])) % xs[n]
        # greedy digits against X_{n-1}..X_1, written at string position n - index
        arr = [0] * (n - 1)
        top = n
        while z:
            top = bisect_right(xs, z, 1, top) - 1
            arr[n - top - 1], z = divmod(z, xs[top])
        del arr[n - top:]
        # coordinate d of sum_p arr[p-1] X_{-p}, from k-1 shifted sums over t
        sums = [sum(map(mul, arr, islice(t, j, None))) for j in range(1, k)]
        for d in range(k - 1):
            if sum(map(mul, alpha[d], sums)) != v[d]:
                break
        else:
            return tuple(arr)
        n *= 2


def decompose(c: RecurrenceVector, v, trace=None) -> tuple:
    """The unique satisfying representation of an arbitrary integer vector.

    Without a trace the string comes from the scalar bridge (greedy digits
    pulled back through the index map), verified exactly by re-evaluation.
    With a trace it is built by repeated increments: first enough copies of
    X_{-k} to make every coordinate correction nonnegative, then the
    coordinate counts on the basis indices, so the trace shows every carry
    and borrow.  Both paths agree by uniqueness.
    """
    if not c.weakly_decreasing:
        raise InvalidRecurrenceError("decomposition requires weakly decreasing coefficients")
    v = tuple(map(int, v))
    if len(v) != c.k - 1:
        raise ValueError("vector dimension must be k-1 = %d" % (c.k - 1))
    if not any(v):
        return ()
    if trace is None:
        return _decompose_bridge(c, v)
    return _decompose_chain(c, v, trace=trace)


def probe_termination(c: RecurrenceVector, a, budget: int = DEFAULT_BUDGET) -> ProbeReport:
    """Run the reduction loop under a budget and report divergence evidence.

    Divergence heuristics: the loop aborts early once the support outgrows
    len(a) + 50k, and the report carries the mass history plus the most
    repetitive block found in the final string (divergent runs build periodic
    patterns).
    """
    a = canonical(a)
    cls = classify(c, a)
    if cls.kind != KIND_NEARLY_SATISFYING:
        raise NotNearlySatisfyingError("probe requires a nearly satisfying representation: %r" % (a,))
    support_cap = len(a) + SUPPORT_SLACK_PER_K * c.k
    report = _reduce(c, a, budget=budget, support_cap=support_cap)
    if not report.terminated:
        report.suffix_period = _repeated_block(report.last)
    return report


def _repeated_block(s: tuple):
    """Most repeated contiguous block (block, repeats), preferring short blocks."""
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


@dataclass(frozen=True)
class SpanningReport:
    all_covered: bool
    missing: tuple
    radius: int
    support_bound: int
    explored: int


def spanning_probe(c: RecurrenceVector, radius: int, support_bound: int,
                   node_cap: int = 1_000_000) -> SpanningReport:
    """Search nonnegative strings with bounded support for representations of
    every vector in the sup-norm ball of the given radius.

    Breadth-first over partial sums (one X_{-i} added per step, support
    limited to the bound); reports which ball points remain unrepresented
    when the node cap is reached.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    coeffs = c.coefficients
    k = c.k
    # longest run of consecutive zeros among the defining coefficients
    z = run = 0
    for x in coeffs:
        run = run + 1 if x == 0 else 0
        z = max(z, run)
    if support_bound < k + z:
        raise ValueError("support bound must be at least k + z = %d" % (k + z))
    vec = c.vector()
    gens = [vec.term(-i) for i in range(1, support_bound + 1)]
    dim = k - 1
    targets = set()

    def fill(prefix):
        if len(prefix) == dim:
            targets.add(prefix)
            return
        for x in range(-radius, radius + 1):
            fill(prefix + (x,))

    fill(())
    remaining = set(targets)
    zero = (0,) * dim
    remaining.discard(zero)
    frontier = {zero}
    seen = {zero}
    explored = 1
    while remaining and frontier and explored <= node_cap:
        nxt = set()
        for v in frontier:
            for g in gens:
                w = tuple(v[d] + g[d] for d in range(dim))
                if w not in seen:
                    seen.add(w)
                    nxt.add(w)
                    remaining.discard(w)
        explored += len(nxt)
        frontier = nxt
    return SpanningReport(not remaining, tuple(sorted(remaining)), radius,
                          support_bound, explored)
