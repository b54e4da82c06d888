"""The four benchmark workloads.

Each workload yields rounds: lists of ``Call``s with a fixed composition,
drawn from a generator seeded by (seed, round), so a seed fixes every input
and a run of any length sees the same mix.  Sizes are drawn log-uniformly by
strata (one draw per stratum), which keeps the cost of a round close to its
mean whatever the seed.  A call carries a closure over the public API or
``cli.main``, its unit count, a label for failure listings and an oracle
that runs right after it, outside the call's timed interval.  A run holds
``rounds_per_s`` rounds per second of ``run_seconds``: the rate at which a
workload's rounds ran on the machine the bounds were set on.

The recurrences are the five strict vectors of the acceptance suite; the
rewriting workload adds relaxed ones for the divergence probes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random

import oracles

from worker import RELAXED, STRICT

# criterion 10: the first three intermediate strings of the (1,3,1) probe,
# which stops on support growth; the (1,4,2,1) probe stops on its budget
DIVERGENCE_INPUT = ((1, 3, 1), (2,), 10_000)
DIVERGENCE_STRINGS = ((1, 1, 3, 1), (1, 1, 1, 3, 6, 2), (1, 2, 0, 0, 5, 2))
BUDGET_INPUT = ((1, 4, 2, 1), (2,), 1_000)

# sampled means must lie within this many standard errors of the DP mean
SAMPLED_Z = 6.0
# NormalizationTrace keeps every unit step up to this many, then thins
TRACE_FULL_STEPS = 1000


class Call:
    __slots__ = ("kind", "fn", "units", "check", "label")

    def __init__(self, kind, fn, units, check, label):
        self.kind = kind      # short name of the operation, for per-kind counts
        self.fn = fn          # zero-argument closure: the timed call
        self.units = units    # int, or callable(result) -> int
        self.check = check    # callable(result) -> None or a mismatch message
        self.label = label    # recurrence and input size, for failure listings


def fmt(seq) -> str:
    return ",".join(str(x) for x in seq)


def strata(rng, lo: float, hi: float, count: int) -> list:
    """count log-uniform draws in [lo, hi], one per equal-width stratum."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / count) for i in range(count)]


def vector_with_norm(rng, dim: int, norm: int) -> tuple:
    """Uniform coordinates in [-norm, norm], one of them at +-norm."""
    v = [rng.randint(-norm, norm) for _ in range(dim)]
    v[rng.randrange(dim)] = rng.choice((-norm, norm))
    return tuple(v)


def vector_with_digits(rng, dim: int, digits: int) -> tuple:
    lo = 10 ** (digits - 1)
    return tuple(rng.choice((-1, 1)) * rng.randrange(lo, 10 * lo) for _ in range(dim))


def random_satisfying(rng, coeffs, length: int) -> tuple:
    """A string generated by the grammar automaton, trimmed to end nonzero."""
    k = len(coeffs)
    out = []
    state = 0
    for _ in range(length):
        want = coeffs[state]
        if state + 1 < k and rng.random() < 0.35:
            out.append(want)
            state += 1
        else:
            out.append(rng.randrange(want) if rng.random() < 0.6 else 0)
            state = 0
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def nearly_satisfying(rng, coeffs, length: int) -> tuple:
    """A satisfying string plus one at a position where the sum no longer
    satisfies: decrementing that position restores it, so it is nearly
    satisfying."""
    while True:
        a = random_satisfying(rng, coeffs, length)
        spots = list(range(1, len(a) + 2))
        rng.shuffle(spots)
        for i in spots:
            b = list(a) + [0] * max(0, i - len(a))
            b[i - 1] += 1
            if not oracles.satisfying(coeffs, b):
                return tuple(b)
        length += 1


def run_cli(zk, argv, *paths) -> tuple:
    """cli.main with stdout/stderr captured; returns (exit code, stdout,
    then the text of each named output file, read inside the call)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = zk.cli.main(argv)
    files = []
    for path in paths:
        with open(path, encoding="utf-8", newline="") as fh:
            files.append(fh.read())
    return (code, out.getvalue(), *files)


class Context:
    """What a workload needs: the package, its recurrences and a scratch dir."""

    def __init__(self, zk, rvs, seed: int, work_dir: str):
        self.zk = zk
        self.rv = {(rv.coefficients, rv.relaxed): rv for rv in rvs}
        self.seed = seed
        self.work_dir = work_dir
        self._lattices = {}

    def strict(self, coeffs):
        return self.rv[(coeffs, False)]

    def lattice(self, coeffs) -> oracles.Lattice:
        lat = self._lattices.get(coeffs)
        if lat is None:
            lat = self._lattices[coeffs] = oracles.Lattice(coeffs)
        return lat

    def rng(self, round_no: int) -> random.Random:
        return random.Random("%d/%d" % (self.seed, round_no))

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)


def _check_representation(ctx, coeffs, v, a):
    if not oracles.satisfying(coeffs, a):
        return "result is not satisfying"
    if ctx.lattice(coeffs).evaluate(a) != tuple(v):
        return "result does not evaluate to the input"
    return None


# -- decompose_mix -------------------------------------------------------------

class DecomposeMix:
    """Library ``decompose`` over an interleaved stream of vector sizes.

    Round 0 walks a tail of large coordinates, ascending, each tail vector
    followed by SMALL_BETWEEN small ones, so small calls run after big ones
    and see any state the big ones leave behind.  Later rounds are small
    vectors (sup norm log-uniform in [1, SMALL_MAX]; about 31% have
    norm <= 6) and MID_PER_C vectors of MID_DIGITS digits per recurrence.
    The tail sizes are a fixed grid in digits, not random draws: the size
    where decompose stops returning is sharp in the digit count, so a drawn
    size would move hangs in and out of a run.  The mid-size vectors are
    about 3% of the calls, so the tail percentile falls among them, on a
    cost fixed by their size, and not on the upper edge of the small
    calls, where many calls of one cost sit and only timing noise orders
    them.
    """

    name = "decompose_mix"
    unit = "vectors decomposed"
    deadline_s = 0.5          # the slowest call that returns takes about 0.2 s
    rounds_per_s = 1.8        # round 0 takes about 4.5 s, 3.5 s of it at deadlines; later ones 0.33 s
    TAIL_DIGITS = (10, 40, 150, 1200, 2400, 4000)
    SMALL_BETWEEN = 20
    SMALL_PER_ROUND = 500
    SMALL_MAX = 500
    MID_DIGITS = 100
    MID_PER_C = 3

    def __init__(self, ctx):
        self.ctx = ctx

    def _call(self, coeffs, v, label):
        zk = self.ctx.zk
        rv = self.ctx.strict(coeffs)
        return Call("decompose", lambda: zk.decompose(rv, v), 1,
                    lambda a: _check_representation(self.ctx, coeffs, v, a), label)

    def _small(self, rng, count):
        """count small calls, the same number per recurrence, shuffled."""
        calls = []
        for coeffs in STRICT:
            for norm in strata(rng, 1, self.SMALL_MAX + 1, count // len(STRICT)):
                m = int(norm)
                v = vector_with_norm(rng, len(coeffs) - 1, m)
                calls.append(self._call(coeffs, v, "c=%s |v|=%d" % (fmt(coeffs), m)))
        rng.shuffle(calls)
        return calls

    def round(self, round_no):
        rng = self.ctx.rng(round_no)
        if round_no > 0:
            calls = self._small(rng, self.SMALL_PER_ROUND)
            for coeffs in STRICT:
                for _ in range(self.MID_PER_C):
                    v = vector_with_digits(rng, len(coeffs) - 1, self.MID_DIGITS)
                    calls.append(self._call(coeffs, v, "c=%s digits=%d"
                                            % (fmt(coeffs), self.MID_DIGITS)))
            rng.shuffle(calls)
            return calls
        calls = []
        tail = [(d, c) for d in self.TAIL_DIGITS for c in STRICT]
        small = self._small(rng, len(tail) * self.SMALL_BETWEEN)
        for i, (digits, coeffs) in enumerate(tail):
            v = vector_with_digits(rng, len(coeffs) - 1, digits)
            calls.append(self._call(coeffs, v, "c=%s digits=%d" % (fmt(coeffs), digits)))
            calls.extend(small[i * self.SMALL_BETWEEN:(i + 1) * self.SMALL_BETWEEN])
        return calls


# -- rewrite_trace -------------------------------------------------------------

def _op_delta(op, pos, count, total):
    if op == "carry":
        return -total if pos == 0 else 1 - total
    return count * (total - 1)


def _check_trace_masses(steps, start_mass, total, exact: bool):
    """Each entry's mass is its string's coefficient sum; while the trace
    keeps every step, masses move by 1 - sum(c) per carry (-sum(c) into
    position 0) and count * (sum(c) - 1) per borrow entry.  Inside
    decompose, increments add +1 between entries, so there the move may
    only exceed the op's own shift."""
    prev = start_mass
    done = 0
    for step in steps:
        if step.mass != sum(step.string):
            return "trace mass %d != coefficient sum %d" % (step.mass, sum(step.string))
        done += step.count
        if prev is not None and done <= TRACE_FULL_STEPS:
            delta = step.mass - prev
            want = _op_delta(step.op, step.pos, step.count, total)
            if (delta != want) if exact else (delta < want):
                return "trace mass moved by %d on %s, expected %d" % (delta, step.op, want)
        prev = step.mass
    return None


class RewriteTrace:
    """The step-by-step carry/borrow engine, always with a trace.

    Per round and strict recurrence: traced ``decompose`` (the chain path)
    with sup norm log-uniform in [1, 1000], ``increment`` on satisfying
    strings, ``normalize_nsr`` on nearly satisfying ones; then divergence
    probes on relaxed recurrences (the two fixed inputs above every round)
    and one ``decompose --trace`` and one ``probe --trace`` through the CLI.
    Probe budgets stay below the cost of the largest decompositions, so the
    slowest 1% of calls are the traced decompositions of |v| near 1000.
    """

    name = "rewrite_trace"
    unit = "traced calls completed"
    deadline_s = 10.0
    rounds_per_s = 2.0        # a round takes about 0.5 s
    DECOMPOSE_PER_C = 8
    STRINGS_PER_C = 12
    RANDOM_PROBES = 4
    PROBE_BUDGET = (300, 1000)

    def __init__(self, ctx):
        self.ctx = ctx

    def round(self, round_no):
        ctx = self.ctx
        rng = ctx.rng(round_no)
        calls = []
        for coeffs in STRICT:
            rv = ctx.strict(coeffs)
            total = sum(coeffs)
            dim = len(coeffs) - 1
            for norm in strata(rng, 1, 1000, self.DECOMPOSE_PER_C):
                v = vector_with_norm(rng, dim, int(norm))
                calls.append(self._decompose(rv, coeffs, v, total))
            for length in strata(rng, 4, 64, self.STRINGS_PER_C):
                a = random_satisfying(rng, coeffs, int(length))
                i = rng.randint(1, len(a) + len(coeffs))
                calls.append(self._increment(rv, coeffs, a, i, total))
            for length in strata(rng, 4, 64, self.STRINGS_PER_C):
                b = nearly_satisfying(rng, coeffs, int(length))
                calls.append(self._nsr(rv, coeffs, b, total))
        for coeffs, a, budget in (DIVERGENCE_INPUT, BUDGET_INPUT):
            calls.append(self._probe(coeffs, a, budget))
        for budget in strata(rng, *self.PROBE_BUDGET, self.RANDOM_PROBES):
            coeffs = rng.choice(RELAXED)
            calls.append(self._probe(coeffs, nearly_satisfying(rng, coeffs, rng.randint(1, 8)),
                                     int(budget)))
        coeffs = rng.choice(STRICT)
        v = vector_with_norm(rng, len(coeffs) - 1, int(strata(rng, 1, 200, 1)[0]))
        calls.append(self._cli_decompose(coeffs, v))
        coeffs = rng.choice(RELAXED)
        calls.append(self._cli_probe(coeffs, nearly_satisfying(rng, coeffs, rng.randint(1, 6))))
        rng.shuffle(calls)
        return calls

    def _decompose(self, rv, coeffs, v, total):
        zk = self.ctx.zk

        def call():
            trace = zk.NormalizationTrace()
            return zk.decompose(rv, v, trace=trace), trace

        def check(res):
            a, trace = res
            if a != zk.decompose(rv, v):
                return "traced decompose differs from untraced"
            return (_check_representation(self.ctx, coeffs, v, a)
                    or _check_trace_masses(trace.steps, None, total, exact=False))
        return Call("decompose", call, 1, check, "c=%s |v|=%d" % (fmt(coeffs), max(map(abs, v))))

    def _increment(self, rv, coeffs, a, i, total):
        zk = self.ctx.zk

        def call():
            trace = zk.NormalizationTrace()
            return zk.increment(rv, a, i, trace=trace), trace

        def check(res):
            out, trace = res
            lat = self.ctx.lattice(coeffs)
            want = tuple(x + y for x, y in zip(lat.evaluate(a), lat.term(i)))
            return (_check_representation(self.ctx, coeffs, want, out)
                    or _check_trace_masses(trace.steps, sum(a) + 1, total, exact=True))
        return Call("increment", call, 1, check, "c=%s len=%d" % (fmt(coeffs), len(a)))

    def _nsr(self, rv, coeffs, b, total):
        zk = self.ctx.zk

        def check(report):
            if not report.terminated or report.steps != report.trace.step_count:
                return "normalize_nsr did not terminate cleanly"
            want = self.ctx.lattice(coeffs).evaluate(b)
            return (_check_representation(self.ctx, coeffs, want, report.result)
                    or _check_trace_masses(report.trace.steps, sum(b), total, exact=True))
        return Call("normalize_nsr", lambda: zk.normalize_nsr(rv, b), 1, check,
                    "c=%s len=%d" % (fmt(coeffs), len(b)))

    def _probe_check(self, coeffs, a, budget, terminated, result, strings, steps):
        if (coeffs, a, budget) == DIVERGENCE_INPUT:
            if terminated or tuple(strings[:3]) != DIVERGENCE_STRINGS:
                return "criterion 10 intermediate strings not reproduced"
        if terminated:
            lat = self.ctx.lattice(coeffs)
            if not oracles.satisfying(coeffs, result) or lat.evaluate(result) != lat.evaluate(a):
                return "probe result is not the satisfying representation"
        elif steps > budget:
            return "probe ran past its budget"
        return None

    def _probe(self, coeffs, a, budget):
        zk = self.ctx.zk
        rv = self.ctx.rv[(coeffs, True)]

        def check(report):
            if report.steps != report.trace.step_count:
                return "probe step count disagrees with its trace"
            return self._probe_check(coeffs, a, budget, report.terminated, report.result,
                                     report.trace.strings(), report.steps)
        return Call("probe_termination", lambda: zk.probe_termination(rv, a, budget=budget),
                    1, check, "c=%s a=%s budget=%d" % (fmt(coeffs), fmt(a), budget))

    def _cli_decompose(self, coeffs, v):
        zk = self.ctx.zk
        path = self.ctx.path("decompose.jsonl")
        argv = ["decompose", "--c", fmt(coeffs), "--v", fmt(v), "--trace", path]

        def check(res):
            code, out, trace = res
            if code != 0:
                return "cli decompose exited %d" % code
            a = zk.representation.parse_coefficients(out.strip())
            bad = _check_representation(self.ctx, coeffs, v, a)
            if bad:
                return "cli decompose: " + bad
            for line in trace.splitlines():
                rec = json.loads(line)
                string = [int(x) for x in rec["string"].split(",")] if rec["string"] else []
                if rec["G"] != sum(string):
                    return "cli trace mass disagrees with its string"
            return None
        return Call("cli_decompose", lambda: run_cli(zk, argv, path), 1, check,
                    "c=%s |v|=%d" % (fmt(coeffs), max(map(abs, v))))

    def _cli_probe(self, coeffs, a):
        zk = self.ctx.zk
        path = self.ctx.path("probe.jsonl")
        budget = self.PROBE_BUDGET[1]
        argv = ["probe", "--c", fmt(coeffs), "--a", fmt(a), "--budget", str(budget), "--trace", path]

        def check(res):
            code, out, trace = res
            if code != 0:
                return "cli probe exited %d" % code
            fields = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
            terminated = fields.get("outcome") == "terminated"
            result = zk.representation.parse_coefficients(fields.get("final", ""))
            steps = int(fields.get("steps", "0"))
            if not trace and steps > 0:
                return "cli probe wrote no trace"
            return self._probe_check(coeffs, a, budget, terminated, result, [], steps)
        return Call("cli_probe", lambda: run_cli(zk, argv, path), 1, check,
                    "c=%s a=%s" % (fmt(coeffs), fmt(a)))


# -- region_enum ---------------------------------------------------------------

class RegionEnum:
    """Enumeration and the two search oracles.

    Per round and recurrence: ``support_region`` and ``support_shell`` at
    the first n with X_{n+1} >= BIG, ``ball_coverage``
    at four radii, ``check_minimality`` for every vector of the largest
    region with at most MINIMALITY_REGION points, one ``spanning_probe``,
    and the CLI's regions CSV/SVG export, minimality and cover into the
    scratch dir.  The order is fixed, not shuffled: the big enumerations
    trigger the cyclic garbage collector, and a seed-dependent order would
    move its pauses from call to call.  Units are the satisfying strings a call's answer covers
    (|D_n| or |R_n|; for a search oracle, one per vector checked), never the
    strings enumerated along the way, so avoided re-enumeration shows as a
    higher rate.  The ten enumerations are about 1% of the calls and the
    slowest of them cost within a factor of 1.3 of each other, so the tail
    percentile falls among them and not on the step down to the small calls.
    """

    name = "region_enum"
    unit = "satisfying strings enumerated"
    deadline_s = 10.0
    rounds_per_s = 0.2        # a round takes about 8 s
    BIG = 100_000
    MINIMALITY_REGION = 200
    CSV_REGION = 2_000
    CLI_MINIMALITY_REGION = 30

    def __init__(self, ctx):
        self.ctx = ctx
        self.xs = {c: oracles.scalar_terms(c, 40) for c in STRICT}
        self._covering = {}
        self._verified = {}

    def _level(self, coeffs, bound, below: bool):
        """First n with X_{n+1} >= bound, or (below) last n with X_{n+1} <= bound."""
        xs = self.xs[coeffs]
        n = 0
        if below:
            while xs[n + 2] <= bound:
                n += 1
            return n
        while xs[n + 1] < bound:
            n += 1
        return n

    def _walk(self, coeffs, n, visit):
        """visit(vector, string) for every satisfying string of length <= n,
        trailing zeros trimmed, by a grammar walk separate from the package's."""
        lat = self.ctx.lattice(coeffs)
        k = len(coeffs)
        buf = []

        def walk(state):
            if len(buf) == n:
                s = tuple(buf)
                while s and s[-1] == 0:
                    s = s[:-1]
                visit(lat.evaluate(s), s)
                return
            want = coeffs[state]
            for d in range(want + 1):
                to = state + 1 if d == want else 0
                if to == k:
                    continue
                buf.append(d)
                walk(to)
                buf.pop()
        walk(0)

    def region(self, coeffs, n) -> dict:
        """Reference D_n: vector -> satisfying string.  Rebuilt on each use
        and never kept, so the oracle holds no region between calls."""
        got = {}
        self._walk(coeffs, n, got.__setitem__)
        return got

    def covering_level(self, coeffs, radius) -> int:
        """Minimal n with the ball inside D_n.  The walk keeps only the ball
        vectors it meets, and only the level is cached."""
        key = (coeffs, radius)
        if key not in self._covering:
            ball = set(self._ball(len(coeffs) - 1, radius))
            n = 0
            while True:
                found = set()
                self._walk(coeffs, n, lambda v, s: v in ball and found.add(v))
                if found == ball:
                    break
                n += 1
            self._covering[key] = n
        return self._covering[key]

    @staticmethod
    def _ball(dim, radius):
        pts = [()]
        for _ in range(dim):
            pts = [p + (x,) for p in pts for x in range(-radius, radius + 1)]
        return pts

    def round(self, round_no):
        ctx = self.ctx
        rng = ctx.rng(round_no)
        calls = []
        for coeffs in STRICT:
            n_big = self._level(coeffs, self.BIG, below=False)
            calls.append(self._enumeration(coeffs, n_big, shell=False))
            calls.append(self._enumeration(coeffs, n_big, shell=True))
            for radius in rng.sample(range(1, 7), 4):
                calls.append(self._cover(coeffs, radius))
            m = self._level(coeffs, self.MINIMALITY_REGION, below=True)
            for v, a in self.region(coeffs, m).items():
                calls.append(self._minimality(coeffs, v, a, m + len(coeffs)))
            k = len(coeffs)
            calls.append(self._spanning(coeffs, rng.randint(1, 2), k + rng.randint(0, 2)))
            calls.append(self._cli_regions(coeffs, self._level(coeffs, self.CSV_REGION, below=True)))
            calls.append(self._cli_minimality(
                coeffs, rng.randint(1, self._level(coeffs, self.CLI_MINIMALITY_REGION, below=True))))
            calls.append(self._cli_cover(coeffs, rng.randint(1, 5)))
        return calls

    def _check_region(self, coeffs, n, members, shell: bool):
        """Right size, every member a satisfying string of the right support
        that evaluates to its key; keys are distinct, so that is all of D_n
        (or R_n).  A region already verified is compared by fingerprint."""
        xs = self.xs[coeffs]
        want = xs[n + 1] - xs[n] if shell else xs[n + 1]
        if len(members) != want:
            return "region size %d != %d" % (len(members), want)
        key = (coeffs, n, shell)
        fingerprint = 0             # streamed, so that no copy of the region is built
        for item in members.items():
            fingerprint = hash((fingerprint, item))
        if self._verified.get(key) == fingerprint:
            return None
        lat = self.ctx.lattice(coeffs)
        for v, (first, a) in members.items():
            if (first != len(a) or len(a) > n or (shell and len(a) != n)
                    or not oracles.satisfying(coeffs, a) or lat.evaluate(a) != v):
                return "region member %r is wrong" % (v,)
        self._verified[key] = fingerprint
        return None

    def _enumeration(self, coeffs, n, shell: bool):
        zk = self.ctx.zk
        rv = self.ctx.strict(coeffs)
        xs = self.xs[coeffs]
        fn = zk.support_shell if shell else zk.support_region
        return Call("support_shell" if shell else "support_region",
                    lambda: fn(rv, n).members, xs[n + 1] - (xs[n] if shell else 0),
                    lambda m: self._check_region(coeffs, n, m, shell),
                    "c=%s n=%d" % (fmt(coeffs), n))

    def _cover(self, coeffs, radius):
        zk = self.ctx.zk
        rv = self.ctx.strict(coeffs)

        def check(n):
            want = self.covering_level(coeffs, radius)
            return None if n == want else "ball_coverage gave %d, minimal is %d" % (n, want)
        return Call("ball_coverage", lambda: zk.ball_coverage(rv, radius),
                    lambda n: self.xs[coeffs][n + 1], check, "c=%s r=%d" % (fmt(coeffs), radius))

    def _minimality(self, coeffs, v, a, bound):
        zk = self.ctx.zk
        rv = self.ctx.strict(coeffs)

        def check(res):
            if res.sr_count != sum(a):
                return "sr_count %d != %d" % (res.sr_count, sum(a))
            if res.oracle_min > res.sr_count or res.minimal != (res.oracle_min == res.sr_count):
                return "minimality verdict inconsistent"
            return None
        return Call("check_minimality", lambda: zk.check_minimality(rv, v, support_bound=bound),
                    1, check, "c=%s v=%s" % (fmt(coeffs), fmt(v)))

    def _spanning(self, coeffs, radius, bound):
        zk = self.ctx.zk
        rv = self.ctx.strict(coeffs)
        ball = self._ball(len(coeffs) - 1, radius)

        def check(rep):
            missing = set(rep.missing)
            if rep.all_covered != (not missing) or not missing <= set(ball):
                return "spanning report inconsistent"
            if missing & self.region(coeffs, bound).keys():
                return "spanning probe missed a vector with a short satisfying string"
            return None
        return Call("spanning_probe", lambda: zk.spanning_probe(rv, radius, bound), len(ball),
                    check, "c=%s r=%d bound=%d" % (fmt(coeffs), radius, bound))

    def _cli_regions(self, coeffs, n):
        zk = self.ctx.zk
        csv_path = self.ctx.path("regions.csv")
        svg_path = self.ctx.path("regions.svg")
        argv = ["regions", "--c", fmt(coeffs), "--n", str(n), "--csv", csv_path]
        paths = [csv_path]
        if len(coeffs) == 3:
            argv += ["--svg", svg_path]
            paths.append(svg_path)
        size = self.xs[coeffs][n + 1]

        def check(res):
            code, _, csv_text, *svg = res
            rows = list(csv.reader(io.StringIO(csv_text)))
            if code != 0 or len(rows) != size + 1:
                return "regions csv has %d rows, want %d" % (len(rows) - 1, size)
            ref = self.region(coeffs, n)
            for row in rows[1:]:
                v = tuple(int(x) for x in row[:-2])
                a = tuple(int(x) for x in row[-1].split(",")) if row[-1] else ()
                if ref.get(v) != a:
                    return "regions csv row %r is wrong" % (row,)
            if svg and svg[0].count("<circle") != size:
                return "regions svg has %d points, want %d" % (svg[0].count("<circle"), size)
            return None
        return Call("cli_regions", lambda: run_cli(zk, argv, *paths), size, check,
                    "c=%s n=%d" % (fmt(coeffs), n))

    def _cli_minimality(self, coeffs, n):
        zk = self.ctx.zk
        size = self.xs[coeffs][n + 1]
        argv = ["minimality", "--c", fmt(coeffs), "--n", str(n)]

        def check(res):
            code, out = res
            want = "summary: %d/%d minimal" % (size, size)
            if code != 0 or not out.rstrip().endswith(want):
                return "cli minimality summary is not %r" % want
            return None
        return Call("cli_minimality", lambda: run_cli(zk, argv), size, check,
                    "c=%s n=%d" % (fmt(coeffs), n))

    def _cli_cover(self, coeffs, radius):
        zk = self.ctx.zk
        argv = ["cover", "--c", fmt(coeffs), "--r", str(radius)]

        def units(res):
            code, out = res
            return self.xs[coeffs][int(out) + 1] if code == 0 else 0

        def check(res):
            code, out = res
            want = self.covering_level(coeffs, radius)
            if code != 0 or out.strip() != str(want):
                return "cli cover printed %r, minimal is %d" % (out.strip(), want)
            return None
        return Call("cli_cover", lambda: run_cli(zk, argv), units, check,
                    "c=%s r=%d" % (fmt(coeffs), radius))


# -- summand_stats -------------------------------------------------------------

class SummandStats:
    """Summand-count distributions over scalar windows.

    Per round and recurrence: one sampled series of SERIES windows drawn
    log-uniformly from [20, 1000] (SAMPLE draws each), its
    ``gaussian_diagnostics``, and EXACT exact windows among those whose
    width lies in [300, 3000]; plus one series through ``zeckvec stats``
    with --json and --csv, on the recurrences in turn.  Units are summand
    counts computed: sampled draws plus exact outcomes.
    """

    name = "summand_stats"
    unit = "summand counts computed"
    deadline_s = 10.0
    rounds_per_s = 5.0        # a round takes about 0.2 s
    SERIES = 8
    SAMPLE = 12
    EXACT = 2
    N_MAX = 1000

    def __init__(self, ctx):
        self.ctx = ctx
        self.xs = {c: oracles.scalar_terms(c, 40) for c in STRICT}
        self._moments = {}
        self._exact = {}

    def moments(self, coeffs, n):
        table = self._moments.get(coeffs)
        if table is None:
            table = self._moments[coeffs] = oracles.window_moments_table(coeffs, self.N_MAX)
        return table[n]

    def histogram(self, coeffs, n):
        key = (coeffs, n)
        if key not in self._exact:
            self._exact[key] = oracles.window_histogram(coeffs, n)
        return self._exact[key]

    def _sampled_check(self, coeffs, n, size, mean, hist_total):
        if hist_total != size:
            return "sampled histogram holds %d draws, want %d" % (hist_total, size)
        mu, var = self.moments(coeffs, n)
        if abs(mean - mu) > SAMPLED_Z * math.sqrt(var / size):
            return "sampled mean %.4f is more than %g standard errors from %.4f" % (mean, SAMPLED_Z, mu)
        return None

    def round(self, round_no):
        ctx = self.ctx
        rng = ctx.rng(round_no)
        calls = []
        for coeffs in STRICT:
            rv = ctx.strict(coeffs)
            windows = sorted({int(x) for x in strata(rng, 20, self.N_MAX, self.SERIES)})
            series = []
            for n in windows:
                calls.append(self._sampled(rv, coeffs, n, rng.randrange(1 << 30), series))
            calls.append(self._diagnostics(rv, coeffs, series))
            xs = self.xs[coeffs]
            eligible = [n for n in range(1, 39) if 300 <= xs[n + 1] - xs[n] <= 3000]
            for n in rng.sample(eligible, self.EXACT):
                calls.append(self._exact_call(rv, coeffs, n))
        coeffs = STRICT[round_no % len(STRICT)]
        lo = rng.randint(20, 60)
        calls.append(self._cli_stats(coeffs, lo, lo + 4, rng.randrange(1 << 30)))
        return calls

    def _sampled(self, rv, coeffs, n, seed, series):
        zk = self.ctx.zk

        def call():
            stats = zk.summand_distribution(rv, n, mode="sampled", size=self.SAMPLE, seed=seed)
            series.append(stats)
            return stats

        def check(s):
            return self._sampled_check(coeffs, n, self.SAMPLE, s.mean, sum(s.histogram.values()))
        return Call("sampled", call, self.SAMPLE, check, "c=%s n=%d" % (fmt(coeffs), n))

    def _diagnostics(self, rv, coeffs, series):
        zk = self.ctx.zk

        def check(report):
            xs = [s.n for s in series]
            for fit, ys in ((report.mean_fit, [s.mean for s in series]),
                            (report.variance_fit, [s.variance for s in series])):
                slope, intercept = oracles.least_squares(xs, ys)
                if not (math.isclose(fit.slope, slope, rel_tol=1e-9, abs_tol=1e-9)
                        and math.isclose(fit.intercept, intercept, rel_tol=1e-9, abs_tol=1e-9)):
                    return "growth fit differs from least squares"
            return None
        return Call("gaussian_diagnostics", lambda: zk.gaussian_diagnostics(rv, series), 0, check,
                    "c=%s" % fmt(coeffs))

    def _exact_call(self, rv, coeffs, n):
        zk = self.ctx.zk
        xs = self.xs[coeffs]
        width = xs[n + 1] - xs[n]

        def check(s):
            if s.histogram != self.histogram(coeffs, n):
                return "exact histogram differs from the transfer DP"
            return None
        return Call("exact", lambda: zk.summand_distribution(rv, n, mode="exact"), width, check,
                    "c=%s n=%d" % (fmt(coeffs), n))

    def _cli_stats(self, coeffs, lo, hi, seed):
        zk = self.ctx.zk
        json_path = self.ctx.path("stats.json")
        csv_path = self.ctx.path("stats.csv")
        argv = ["stats", "--c", fmt(coeffs), "--n-min", str(lo), "--n-max", str(hi),
                "--sample", str(self.SAMPLE), "--seed", str(seed),
                "--json", json_path, "--csv", csv_path]

        def check(res):
            code, _, json_text, csv_text = res
            records = json.loads(json_text)
            rows = csv_text.splitlines()
            if code != 0 or len(records) != hi - lo + 1 or len(rows) != hi - lo + 2:
                return "cli stats wrote the wrong number of records"
            for rec in records:
                total = sum(rec["histogram"].values())
                bad = self._sampled_check(coeffs, rec["n"], self.SAMPLE, rec["mean"], total)
                if bad:
                    return "cli stats: " + bad
            return None
        return Call("cli_stats", lambda: run_cli(zk, argv, json_path, csv_path),
                    self.SAMPLE * (hi - lo + 1), check,
                    "c=%s n=%d..%d" % (fmt(coeffs), lo, hi))


WORKLOADS = {w.name: w for w in (DecomposeMix, RewriteTrace, RegionEnum, SummandStats)}
