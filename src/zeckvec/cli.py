"""Command-line front end.

Every command parses --c into a recurrence vector (strict mode unless the
command is a probe or --relaxed is given), computes with exact integers, and
writes files atomically.  Identical argv and seed produce byte-identical
output files.  Exit codes: 0 success (a budget-exceeded probe is a valid
result), 1 invalid input, 2 enumeration cap or search budget exceeded.

The command table holds each command's recurrence mode, and `main`
parses --c by it once, before the handler runs.  A call builds the
argument parser of its own subcommand only; the usage, help and errors of
the top level, which list every subcommand, build all of them.  Nothing
is built at import or kept between calls.  Integers of any length are
read and printed by `representation`'s `_parse_int` and `_int_text`, so
`main` leaves the interpreter's state alone: the int <-> str digit limit
stays what the caller set, during and after every command.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import analytics, bridge, normalize, representation
from .errors import ZeckvecError
from .fileio import atomic_write_text
from .recurrence import RecurrenceVector, scalar_term, string_value, vector_term

_KIND_LABEL = {
    representation.KIND_SATISFYING: "SR",
    representation.KIND_NEARLY_SATISFYING: "NSR",
    representation.KIND_OTHER: "Other",
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let vector literals like -4,0 pass as option values
        self._negative_number_matcher = re.compile(r"^-\d[\d,-]*$")

    def error(self, message):
        raise _CliError(message)


def _enumeration_cap() -> int:
    raw = os.environ.get("ZECKVEC_CAP")
    if raw is None:
        return bridge.DEFAULT_ENUMERATION_CAP
    try:
        return int(raw)
    except ValueError:
        raise _CliError("ZECKVEC_CAP must be an integer, got %r" % raw)


def _recurrence(text: str, relaxed: bool) -> RecurrenceVector:
    try:
        coeffs = representation.parse_vector(text)
    except ValueError:
        raise _CliError("could not parse coefficients: %r" % text)
    return RecurrenceVector(coeffs, relaxed=relaxed)


def _write_trace(path: str, trace: normalize.NormalizationTrace):
    # one JSON object per step, keys in sorted order.  op is carry or borrow
    # and the steps' strings are trimmed tuples of nonnegative ints, written
    # as digits and commas, so nothing needs escaping
    lines = ['{"G": %s, "count": %d, "op": "%s", "pos": %d, "string": "%s"}\n'
             % (representation._int_text(step.mass), step.count, step.op, step.pos,
                ",".join(map(representation._int_text, step.string)))
             for step in trace.steps]
    atomic_write_text(path, "".join(lines))


def _print_range(term):
    """The handler of a command that prints term(c, n), one a line, for n
    from --from to --to.  The table passes lambdas, which look the term
    functions up at each call, so a patched module attribute applies."""
    def handler(c, args) -> int:
        if args.stop < args.start:
            raise _CliError("--to must be >= --from")
        for n in range(args.start, args.stop + 1):
            print(term(c, n))
        return 0
    return handler


def _cmd_decompose(c, args) -> int:
    v = representation.parse_vector(args.v)
    trace = normalize.NormalizationTrace() if args.trace else None
    result = normalize.decompose(c, v, trace=trace)
    print(representation.format_coefficients(result))
    if args.trace:
        _write_trace(args.trace, trace)
    return 0


def _cmd_verify(c, args) -> int:
    # parse_coefficients returns a canonical tuple: classify and evaluate it
    # through the cores that take one, so the string is validated once
    a = representation.parse_coefficients(args.a)
    starts = []
    cls = representation._classify(c, a, starts)
    value = string_value(c.coefficients, a)
    print("kind: %s" % _KIND_LABEL[cls.kind])
    print("value: %s" % representation.format_vector(value))
    if cls.kind != representation.KIND_SATISFYING:
        # the classification's scan failed in its last chunk: resume there
        fail_pos, matched = representation._scan_from(c.coefficients, c.k, a, [], starts[-1])
        have, limit = a[fail_pos - 1], c.coefficients[matched]
        if have > limit:
            print("reason: element %s at position %d is too large (limit %s)"
                  % (representation._int_text(have), fail_pos,
                     representation._int_text(limit)))
        else:
            print("reason: full copy of the coefficients ending at position %d"
                  % fail_pos)
    if cls.kind == representation.KIND_NEARLY_SATISFYING:
        print("witness: %d" % cls.witness)
        print("first_overfilled: %d" % cls.first_overfilled)
        print("end_complete: %s" % ("true" if cls.end_complete else "false"))
    return 0


def _cmd_regions(c, args) -> int:
    if args.csv:
        bridge.export_regions_csv(c, args.n, args.csv, cap=_enumeration_cap())
        print("wrote %s" % args.csv)
    if args.svg:
        if c.k != 3:
            print("svg skipped: rendering is planar only (k = 3); csv has the data",
                  file=sys.stderr)
        else:
            bridge.export_regions_svg(c, args.n, args.svg, cap=_enumeration_cap())
            print("wrote %s" % args.svg)
    if not args.csv and not args.svg:
        print("points: %s" % representation._int_text(
            bridge.region_size(c, args.n, cap=_enumeration_cap())))
    return 0


def _cmd_stats(c, args) -> int:
    cap = _enumeration_cap()
    if args.n_max < args.n_min:
        raise _CliError("--n-max must be >= --n-min")
    if args.sample is not None:
        windows = (analytics.summand_distribution(c, n, mode="sampled", size=args.sample,
                                                  seed=args.seed, cap=cap)
                   for n in range(args.n_min, args.n_max + 1))
    else:
        windows = analytics.exact_series(c, args.n_min, args.n_max, cap)
    stats = []
    for s in windows:
        stats.append(s)
        print("n=%d mean=%.6g variance=%.6g skewness=%.6g excess_kurtosis=%.6g"
              % (s.n, s.mean, s.variance, s.skewness, s.excess_kurtosis))
    if len(stats) >= 3:
        report = analytics.gaussian_diagnostics(c, stats)
        print("mean fit: slope=%.6g intercept=%.6g r2=%.6g"
              % (report.mean_fit.slope, report.mean_fit.intercept,
                 report.mean_fit.r_squared))
        print("variance fit: slope=%.6g intercept=%.6g r2=%.6g"
              % (report.variance_fit.slope, report.variance_fit.intercept,
                 report.variance_fit.r_squared))
        if report.lekkerkerker:
            print("fibonacci mean slope: %.6g target %.6g deviation %.2g"
                  % (report.lekkerkerker["slope"], report.lekkerkerker["target"],
                     report.lekkerkerker["deviation"]))
    if args.json:
        atomic_write_text(args.json, analytics.stats_json_text(c, stats))
        print("wrote %s" % args.json)
    if args.csv:
        atomic_write_text(args.csv, analytics.series_csv_text(stats))
        print("wrote %s" % args.csv)
    return 0


def _cmd_minimality(c, args) -> int:
    cap = _enumeration_cap()
    region = bridge.support_region(c, args.n, cap=cap)
    bound = args.n + c.k if args.bound is None else args.bound
    failures = 0
    for v in region.vectors():
        res = analytics.check_minimality(c, v, bound)
        failures += not res.minimal
        print("v=(%s) sr_count=%d oracle_min=%d minimal=%s"
              % (representation.format_vector(v), res.sr_count, res.oracle_min,
                 "true" if res.minimal else "false"))
    print("summary: %d/%d minimal" % (len(region) - failures, len(region)))
    return 0


def _cmd_probe(c, args) -> int:
    a = representation.parse_coefficients(args.a)
    report = normalize.probe_termination(c, a, budget=args.budget)
    print("outcome: %s" % report.outcome)
    print("steps: %d" % report.steps)
    if report.terminated:
        print("final: %s" % representation.format_coefficients(report.result))
    else:
        print("reason: %s" % report.reason)
        print("last: %s" % representation.format_coefficients(report.last))
    print("max_support: %d" % report.max_support)
    head = [representation.format_coefficients(s) for s in report.trace.strings()[:3]]
    for idx, text in enumerate(head, 1):
        print("intermediate_%d: %s" % (idx, text))
    if report.suffix_period:
        block, reps = report.suffix_period
        print("repeating_block: %s x%d" % (representation.format_coefficients(block), reps))
    if args.trace:
        _write_trace(args.trace, report.trace)
    return 0


def _cmd_cover(c, args) -> int:
    print(bridge.ball_coverage(c, args.r, cap=_enumeration_cap()))
    return 0


_RANGE = (("--from", dict(dest="start", type=int, required=True)),
          ("--to", dict(dest="stop", type=int, required=True)))
_TRACE = ("--trace", dict(help="write the rewriting steps as JSON lines"))

# name: (help, handler, recurrence mode, the arguments after --c); the mode
# is relaxed (True) or strict (False), or None to offer --relaxed and take it
_COMMANDS = {
    "seq": ("scalar terms, one per line",
            _print_range(lambda c, n: representation._int_text(scalar_term(c, n))),
            None, _RANGE),
    "vec": ("vector terms as tuples",
            _print_range(lambda c, n: "(%s)" % representation.format_vector(vector_term(c, n))),
            None, _RANGE),
    "decompose": ("unique satisfying representation of a vector", _cmd_decompose, False, (
        ("--v", dict(required=True, help="target vector, e.g. -4,0")),
        _TRACE)),
    "verify": ("classify a coefficient string", _cmd_verify, None, (
        ("--a", dict(required=True, help="coefficient string, e.g. 2,4,2,0,1")),)),
    "regions": ("export representable regions", _cmd_regions, False, (
        ("--n", dict(type=int, required=True)),
        ("--csv", {}),
        ("--svg", {}))),
    "stats": ("summand count distributions and growth fits", _cmd_stats, False, (
        ("--n-min", dict(dest="n_min", type=int, required=True)),
        ("--n-max", dict(dest="n_max", type=int, required=True)),
        ("--sample", dict(type=int, help="sample size (exact distribution if omitted)")),
        ("--seed", dict(type=int, default=0)),
        ("--json", dict(help="write per-window records")),
        ("--csv", dict(help="write the (n, mean, variance) series")))),
    "minimality": ("compare string mass against the search oracle", _cmd_minimality, False, (
        ("--n", dict(type=int, required=True)),
        ("--bound", dict(type=int)))),
    "probe": ("run the rewriting loop under a budget", _cmd_probe, True, (
        ("--a", dict(required=True)),
        ("--budget", dict(type=int, default=normalize.DEFAULT_BUDGET)),
        _TRACE)),
    "cover": ("minimum region index covering a sup-norm ball", _cmd_cover, False, (
        ("--r", dict(type=int, required=True)),)),
}


def _build_parser(command=None) -> _Parser:
    """The top-level parser with only the subparser of `command`, or with
    every subparser when `command` names none: the usage, help and errors
    of the top level list all the commands, and a named command's own
    parser reads the rest of argv."""
    # --help shows the docstring up to its last paragraph, which is about
    # the parsers themselves (python -OO strips the docstring)
    parser = _Parser(prog="zeckvec", description=__doc__ and __doc__.rpartition("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    named = command in _COMMANDS
    for name, (help_text, _, mode, extra) in _COMMANDS.items():
        if named and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--c", required=True, help="recurrence coefficients, e.g. 2,1,1")
        if mode is None:
            p.add_argument("--relaxed", action="store_true",
                           help="permit non weakly decreasing coefficients")
        for flag, options in extra:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        _, handler, mode, _ = _COMMANDS[args.command]
        c = _recurrence(args.c, args.relaxed if mode is None else mode)
        return handler(c, args)
    except (_CliError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ZeckvecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
