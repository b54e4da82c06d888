"""Carry/borrow rewriting: the engine that turns a nearly satisfying string,
or a satisfying one with 1 added at a position, into the unique satisfying
one.

Both elementary ops apply the defining recurrence at one position and preserve
the represented vector: they are one signed unit step at a position q, which
adds s at q and removes s*c1..s*ck from the k following positions.  A carry
into q is the step with s = 1 (position 0 is virtual: its increment
multiplies the zero vector and is discarded); a borrow from q is the step
with s = -1, the carry run backwards.  Mass bookkeeping: a step at q >= 1
shifts the coefficient sum by s*(1 - sum(c)), and a carry into the virtual
position 0 by -sum(c).  The public `carry` and `borrow` check that their step
is legal and take it on a tuple (`_shift`); the loop takes it in place.

The reduction loop rewrites one list in place.  Each round locates the first
overfilled element I with its chunk start n_p and matched length j, then
applies:

  * j == k-1 (the string prefix ends in an overfull copy of c): one carry into
    n_p - 1, which is always legal;
  * j < k-1: one borrow from I, then one carry into n_p - 1 when legal.  For
    weakly decreasing coefficients the carry is provably legal and the loop
    terminates; otherwise the carry may be blocked and the step budget guards
    against divergence.

A round touches only positions n_p - 1 .. I + k, so the next round's scan
resumes at the chunk start before n_p and keeps the chunk starts found before
that.  Each round's `IterationRecord`, like each `TraceStep`, is a named
tuple built by `tuple.__new__`.  Its prefix mass is a running sum below a
boundary that moves to the round's n_p - 1, so a round's record reads the
span the boundary moves over, not the prefix.  Every unit step of the loop,
a borrow or a carry, runs through one block, which counts it, moves the mass,
keeps a trace's steps itself by the rules of `NormalizationTrace.record` and
appends to the mass history; the count is written back on every exit.

Every public entry validates its string once, by `canonical`, and scans it
from position 1 once: the probes and `resolve_end_complete` classify it
through `representation._classify`, which checks nothing again and leaves
its scan's chunk starts, and the loop works on a list copy of it, resuming
that scan at the last chunk start it found (`increment` hands on its own
validating scan's starts the same way).

Increments are bumps in the same loop: once the list satisfies, the next bump
adds 1 at its position and the rounds go on, with the mass and chunk starts
kept, so `increment` is one pass with one bump and traced `decompose` one pass
over its whole chain.  A bump at i changes nothing before the last chunk start
at or before i, so the scan after it resumes there.  Nor does it change
anything after i, so the loop also keeps the chunk starts that the last
passing scan found after that resume point, and each round drops those at or
below its I + k.  A scan that lands on a kept start re-syncs with the last
passing scan: the scanner's state at a chunk start is fixed and nothing from
there on has changed, so the string satisfies and the rest of its chunk
starts are the kept ones (`representation._scan_from`).  So a bump and its
rounds cost what they change, not the length of the string.

Untraced `decompose` takes the scalar bridge, `bridge._decompose_bridge`;
only a traced one rewrites, as one chain of bumps.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, product, repeat
from operator import ge, index
from typing import NamedTuple, Optional

from .bridge import _decompose_bridge
from .errors import (BorrowBlockedError, CarryBlockedError, InvalidRecurrenceError,
                     NonTerminationError, NotEndCompleteError,
                     NotNearlySatisfyingError, NotSatisfyingError, _at_least,
                     _int_or_bound, _tuple_or_bounds)
from .recurrence import RecurrenceVector
from .representation import KIND_NEARLY_SATISFYING, _classify, _scan_from, canonical

DEFAULT_BUDGET = 10_000
TRACE_FULL_STEPS = 1_000
TRACE_THIN_EVERY = 100
SUPPORT_SLACK_PER_K = 50
_HARD_STEP_CAP = 10_000_000


class TraceStep(NamedTuple):
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

    def record(self, op: str, pos: int, string, mass: int):
        """Count one unit step and keep it, or merge it into the borrow run
        it extends, as the class docstring says.  string is the state after
        the step, a tuple or a list: it is copied only for a step that is
        kept (`tuple` of a tuple is that tuple).

        This is the reference recorder: the rewriting loop keeps its steps
        by the same rules inline, and the tests check every traced run of
        the loop against traces that this method builds."""
        self.step_count += 1
        if op == "borrow" and self.steps and self._tail_step == self.step_count - 1:
            last = self.steps[-1]
            if last.op == "borrow" and last.pos == pos:
                self.steps[-1] = tuple.__new__(TraceStep, (op, pos, tuple(string), mass,
                                                           last.count + 1))
                self._tail_step = self.step_count
                return
        if self.step_count <= TRACE_FULL_STEPS or self.step_count % TRACE_THIN_EVERY == 0:
            self.steps.append(tuple.__new__(TraceStep, (op, pos, tuple(string), mass, 1)))
            self._tail_step = self.step_count

    def strings(self) -> list:
        return [s.string for s in self.steps]


class IterationRecord(NamedTuple):
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
    budget: int                      # the one applied (`_step_budget`)
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
    """Carry into position i >= 0; requires a_{i+l} >= c_l for l = 1..k.
    A position that is not an int (`operator.index`) raises TypeError."""
    i = index(i)
    _at_least(i, 0, "carry position")
    a = canonical(a)
    coeffs = c.coefficients
    m = len(a)
    for l in range(1, c.k + 1):
        have = a[i + l - 1] if i + l <= m else 0
        if have < coeffs[l - 1]:
            raise CarryBlockedError(
                "carry into %s blocked: a_%s = %s < c_%d = %s"
                % (_int_or_bound(i), _int_or_bound(i + l), _int_or_bound(have), l,
                   _int_or_bound(coeffs[l - 1])))
    return _shift(c, a, i, 1)


def borrow(c: RecurrenceVector, a, i: int) -> tuple:
    """Borrow from position i >= 1; requires a_i >= 1.
    A position that is not an int (`operator.index`) raises TypeError."""
    i = index(i)
    _at_least(i, 1, "borrow position")
    a = canonical(a)
    if i > len(a) or a[i - 1] < 1:
        raise BorrowBlockedError("borrow from %s blocked: coefficient is zero"
                                 % _int_or_bound(i))
    return _shift(c, a, i, -1)


def _shift(c: RecurrenceVector, a: tuple, q: int, s: int) -> tuple:
    """The canonical a after one signed unit step at q: s added at q and
    s*c_l taken from q + l for l = 1..k, with q = 0 the virtual position
    (a carry for s = 1, a borrow for s = -1)."""
    out = list(a) + [0] * max(0, q + c.k - len(a))
    if q:
        out[q - 1] += s
    for l, cl in enumerate(c.coefficients, q):
        out[l] -= s * cl
    return canonical(out)


def _rewrite(c: RecurrenceVector, a: list, limit, trace=None, history=None,
             iterations=None, support_cap=None, carry_only=False, bumps=(), starts=()):
    """The reduction loop on the trimmed list a, in place (module docstring).

    Each position in bumps gets 1 added once a satisfies, in turn; starts
    are the chunk starts that the caller's scan of a from position 1 found,
    up to its failure if there was one, and the first scan resumes at the
    last of them (at 1 when there are none).
    A bump keeps, highest first, the chunk starts that the last passing scan
    found after the one its scan resumes at; each round drops those at or
    below fail_pos + k, the highest position a borrow or carry can write,
    and a scan that lands on one that is left stops there (`_scan_from`).
    limit counts the steps since the last bump.  history and iterations,
    when given, get the mass after each step and one IterationRecord per
    round; carry_only raises NotEndCompleteError on a round that is not
    end-complete.  Returns (steps, max_support, reason): reason is None once
    a satisfies after the last bump, else "support_growth" or "step_budget".

    trace, when given, gets the steps that `NormalizationTrace.record`
    would keep, merged and thinned as it does, from a unit-step count kept
    here and written back to the trace on every exit, a raise included.
    A round's prefix mass is the sum of a below a boundary that moves to
    the round's n_p - 1, so it reads only the span the boundary moves over.
    """
    _at_least(limit, 0, "budget")
    coeffs, k, total = c.coefficients, c.k, c.coefficient_total
    g = sum(a)
    steps = 0
    stop_at = limit
    max_support = len(a)
    bumps = iter(bumps)
    starts = list(starts)
    kept = []
    p = starts.pop() if starts else 1
    bound = below = 0   # below == sum(a[:bound]) while iterations are kept
    lift, drop = 1 - total, -total   # a carry's mass move at q >= 1 (a borrow's: -lift), into 0
    ks, new, full, thin = range(k), tuple.__new__, TRACE_FULL_STEPS, TRACE_THIN_EVERY
    if trace is not None:
        recorded, unit, tail = trace.steps, trace.step_count, trace._tail_step
    try:
        while True:
            fail = _scan_from(coeffs, k, a, starts, p, kept)
            if fail is None:
                b = next(bumps, None)
                if b is None:
                    if trace is not None:
                        trace.terminated = True
                    return steps, max_support, None
                # resume at the last chunk start at or before b: starts[0]
                # is 1, so j >= 0 unless starts is empty
                j = bisect_right(starts, b) - 1
                p = starts[j] if starts else 1
                kept = starts[:j:-1]
                del starts[j:]
                if b > len(a):
                    a.extend([0] * (b - len(a)))
                    max_support = max(max_support, b)
                a[b - 1] += 1
                if b <= bound:
                    below += 1
                g += 1
                stop_at = steps + limit
                continue
            if support_cap is not None and len(a) > support_cap:
                return steps, max_support, "support_growth"
            if steps >= stop_at:
                return steps, max_support, "step_budget"
            fail_pos, matched = fail
            i = starts[-1] - 1
            if carry_only and (fail_pos != len(a) or matched != k - 1):
                raise NotEndCompleteError("carry cascade produced a non-end-complete state")
            if iterations is not None:
                if i >= bound:
                    below += sum(a[bound:i])
                else:
                    below -= sum(a[i:bound])
                bound = i
                g_before, prefix_mass = g, below
            if matched == k - 1:
                case, q, s = "carry_only", i, 1
            else:
                # borrow from I = fail_pos; a_I > c_j >= 0, so it is legal
                case, q, s = "borrow_only", fail_pos, -1
            while True:
                # one unit step: s at q, -s*c_l at q + l (a carry for s = 1,
                # a borrow for s = -1); a carry writes below the boundary
                # only at n_p - 1, and into 0, the virtual position, not at all
                if q + k > len(a):
                    a.extend([0] * (q + k - len(a)))
                    max_support = max(max_support, len(a))
                if q:
                    a[q - 1] += s
                    if q <= bound:
                        below += s
                for l in ks:
                    a[q + l] -= s * coeffs[l]
                while a and a[-1] == 0:
                    a.pop()
                steps += 1
                g += s * lift if q else drop
                if trace is not None:
                    # `record`: a borrow right after a kept borrow from the
                    # same position joins its run
                    unit += 1
                    if (s < 0 and tail == unit - 1 and recorded and recorded[-1].op == "borrow"
                            and recorded[-1].pos == q):
                        recorded[-1] = new(TraceStep, (
                            "borrow", q, tuple(a), g, recorded[-1].count + 1))
                        tail = unit
                    elif unit <= full or unit % thin == 0:
                        recorded.append(new(TraceStep, (
                            "carry" if s > 0 else "borrow", q, tuple(a), g, 1)))
                        tail = unit
                if history is not None:
                    history.append(g)
                # after a borrow, the carry into n_p - 1 when legal
                if s > 0 or not (steps < stop_at and len(a) >= i + k
                                 and all(map(ge, a[i:i + k], coeffs))):
                    break
                case, q, s = "borrow_carry", i, 1
            if iterations is not None:
                iterations.append(new(IterationRecord, (
                    fail_pos, i + 1, matched, case, g_before, prefix_mass)))
            while kept and kept[-1] <= fail_pos + k:
                kept.pop()
            p = starts[-2] if len(starts) > 1 else 1
            del starts[-2:]
    finally:
        if trace is not None:
            trace.step_count, trace._tail_step = unit, tail


def _step_budget(c: RecurrenceVector, budget) -> int:
    """The step budget of a rewriting run: budget when given, else
    _HARD_STEP_CAP, only a guard, for weakly decreasing c, whose loop
    provably terminates, and DEFAULT_BUDGET for other c, whose loop may
    diverge."""
    if budget is not None:
        return budget
    return _HARD_STEP_CAP if c.weakly_decreasing else DEFAULT_BUDGET


def _reduce(c: RecurrenceVector, a: tuple, budget=None, support_cap=None,
            starts=()) -> ProbeReport:
    cur = list(a)
    trace, history, iterations = NormalizationTrace(), [sum(a)], []
    budget = _step_budget(c, budget)
    steps, max_support, reason = _rewrite(c, cur, budget, trace, history, iterations,
                                          support_cap, starts=starts)
    cur = tuple(cur)
    return ProbeReport("budget_exceeded" if reason else "terminated",
                       None if reason else cur, cur, steps, budget, reason,
                       max_support, history, trace, iterations)


def resolve_end_complete(c: RecurrenceVector, a):
    """Resolve an end-complete nearly satisfying string by carries alone.

    Repeatedly carries into the position immediately preceding the terminal
    (overfull) copy of c; every round strictly reduces the coefficient sum.
    """
    if not c.weakly_decreasing:
        raise InvalidRecurrenceError("end-complete resolution requires weakly decreasing coefficients")
    a = canonical(a)
    starts = []
    cls = _classify(c, a, starts)
    if not cls.end_complete:
        raise NotEndCompleteError("not an end-complete nearly satisfying string: %s"
                                  % _tuple_or_bounds(a))
    trace = NormalizationTrace()
    cur = list(a)
    _rewrite(c, cur, math.inf, trace, carry_only=True, starts=starts)
    return tuple(cur), trace


def normalize_nsr(c: RecurrenceVector, a, budget: int = DEFAULT_BUDGET) -> ProbeReport:
    """Normalize a nearly satisfying string to the satisfying one (budgeted)."""
    a = canonical(a)
    starts = []
    cls = _classify(c, a, starts)
    if cls.kind != KIND_NEARLY_SATISFYING:
        raise NotNearlySatisfyingError("input is not a nearly satisfying representation: %s"
                                       % _tuple_or_bounds(a))
    return _reduce(c, a, budget=budget, starts=starts)


def _bump_and_rewrite(c: RecurrenceVector, a: list, bumps, budget, trace,
                      starts=()) -> None:
    """Add 1 at each position of bumps in turn to the satisfying list a,
    whose chunk starts are starts when given, and rewrite it in place after
    each; `_step_budget` bounds the steps after each bump."""
    budget = _step_budget(c, budget)
    if _rewrite(c, a, budget, trace, bumps=bumps, starts=starts)[2] is not None:
        raise NonTerminationError("normalization did not terminate within %r steps" % budget)


def increment(c: RecurrenceVector, a, i: int, budget=None, trace=None) -> tuple:
    """Add X_{-i} to a satisfying string and renormalize.

    The bumped string is satisfying or nearly satisfying by construction, so
    normalization applies directly.  For weakly decreasing coefficients the
    result is guaranteed; otherwise the budget, DEFAULT_BUDGET unless given,
    bounds the attempt and NonTerminationError reports failure.
    """
    a = canonical(a)
    starts = []
    if _scan_from(c.coefficients, c.k, a, starts, 1) is not None:
        raise NotSatisfyingError("increment requires a satisfying representation: %s"
                                 % _tuple_or_bounds(a))
    _at_least(i, 1, "index")
    out = list(a)
    _bump_and_rewrite(c, out, (i,), budget, trace, starts)
    return tuple(out)


def _decompose_chain(c: RecurrenceVector, v: tuple, trace=None) -> tuple:
    """v as a chain of increments from the empty string: shift copies of
    X_{-k}, shift = the least making every count below nonnegative, then
    v_j + shift*c_j copies of X_{-j} for j = 1..k-1."""
    coeffs, k = c.coefficients, c.k
    shift = max(0, *(-(x // cj) for x, cj in zip(v, coeffs)))
    counts = [shift] + [x + shift * cj for x, cj in zip(v, coeffs)]
    a = []
    _bump_and_rewrite(c, a, chain.from_iterable(map(repeat, (k, *range(1, k)), counts)),
                      None, trace)
    return tuple(a)


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
    starts = []
    cls = _classify(c, a, starts)
    if cls.kind != KIND_NEARLY_SATISFYING:
        raise NotNearlySatisfyingError("probe requires a nearly satisfying representation: %s"
                                       % _tuple_or_bounds(a))
    support_cap = len(a) + SUPPORT_SLACK_PER_K * c.k
    report = _reduce(c, a, budget=budget, support_cap=support_cap, starts=starts)
    if not report.terminated:
        report.suffix_period = _repeated_block(report.last)
    return report


def _repeated_block(s: tuple):
    """Most repeated contiguous block (block, repeats), preferring short blocks.

    For each width w up to 12, one backward pass counts run, the positions
    i, i + 1, ... with s[i] == s[i + w] in a row: the block at i then
    repeats 1 + run // w times.  The first width, then the first start, to
    reach a strictly higher count wins; None when no block repeats.
    """
    m = len(s)
    best, most = None, 1
    for width in range(1, min(12, m // 2) + 1):
        # more[i]: the copies of s[i:i + width] that follow it in a row
        run, more = 0, []
        for x, y in zip(s[m - width - 1::-1], s[:width - 1:-1]):
            run = run + 1 if x == y else 0
            more.append(run // width)
        more.reverse()
        top = max(more)
        if top + 1 > most:
            start = more.index(top)
            best, most = (s[start:start + width], top + 1), top + 1
    return best


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
    limited to the bound), a level at a time, on c's held search for this
    bound (`RecurrenceVector.search`); reports which ball points remain
    unrepresented when the node cap is reached.
    """
    _at_least(radius, 0, "radius")
    coeffs = c.coefficients
    k = c.k
    # longest run of consecutive zeros among the defining coefficients
    z = run = 0
    for x in coeffs:
        run = run + 1 if x == 0 else 0
        z = max(z, run)
    if support_bound < k + z:
        raise ValueError("support bound must be at least k + z = %d" % (k + z))
    remaining = set(product(range(-radius, radius + 1), repeat=k - 1))
    remaining.discard((0,) * (k - 1))
    depth, explored = 0, 1
    while remaining and explored <= node_cap:
        if not depth:   # only a probe that searches takes c's search
            search = c.search(support_bound)
            index = search.index
        depth += 1
        explored = search.count_through(depth, node_cap)
        remaining = {w for w in remaining if index.get(w, explored) >= explored}
    return SpanningReport(not remaining, tuple(sorted(remaining)), radius,
                          support_bound, explored)
