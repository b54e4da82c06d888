"""The timed phase of one workload run, inside the workload process.

Calls run one after another on one thread (a closed loop).  The timed
phase is the sum of the calls' own intervals; between calls the harness
runs the oracle on the result, refreshes the calibration (see
``calibration``) and, between rounds, generates the next round's inputs,
none of which is timed.  Metrics use reference seconds; wall seconds are
recorded beside them.  A run is a fixed number of whole rounds:
``params["rounds"]``, or the workload's ``rounds_per_s`` times ``seconds``,
which makes its calls take about ``seconds`` reference seconds on the
machine the rates were measured on.  So the calls a run attempts, and the
inputs that fail, depend on the seed alone, and a slow spell of the host
lengthens the run instead of shortening its work.  A traced run replays
the first rounds of the untraced run.

Each call runs under a one-shot ``ITIMER_REAL`` alarm of the workload's
deadline; a call that has not returned by then is interrupted, counted as
failed at its deadline, and the run goes on.
"""

from __future__ import annotations

import array
import importlib
import json
import math
import os
import resource
import signal
import time

import workloads
from calibration import Clock
from tracer import Tracer

LAYERS = ("recurrence", "representation", "normalize", "bridge", "analytics", "cli", "fileio")
FAILURE_LIST_CAP = 100


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so library handlers let it pass."""


def _on_alarm(signum, frame):
    raise Deadline()


_MISSING = object()


def timed_call(fn, deadline: float, tracer):
    """(result, error or None, seconds) for one call under the deadline."""
    result = _MISSING
    error = None
    start = end = None
    if tracer is not None:
        tracer.active = True
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            start = time.perf_counter()
            result = fn()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        if result is _MISSING:
            error = "deadline %gs" % deadline
    except Exception as exc:   # the library raised on a valid input: a failed call
        error = "raised %s: %s" % (type(exc).__name__, exc)
    if tracer is not None:
        tracer.active = False
        tracer.reset_stack()
    end = end if end is not None else time.perf_counter()
    return result, error, end - (start if start is not None else end)


def tail_percentile(n: int):
    """Highest whole percentile p <= 99 with at least 10 samples above rank
    ceil(p n / 100); None when there are fewer than 20 samples."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return None


def nearest_rank(sorted_vals, p: int) -> float:
    return sorted_vals[max(0, math.ceil(p * len(sorted_vals) / 100) - 1)]


def _hooks(counters):
    def add(key, value):
        counters[key] = counters.get(key, 0) + value

    def arg(args, kwargs, pos, name):
        return args[pos] if len(args) > pos else kwargs[name]

    def ball(args, kwargs, result):
        c, radius = arg(args, kwargs, 0, "c"), arg(args, kwargs, 1, "radius")
        add("bridge.useful", (2 * radius + 1) ** (c.k - 1))

    return {
        "normalize.spanning_probe": lambda a, k, r: add("normalize.bfs_nodes", r.explored),
        "analytics.check_minimality": lambda a, k, r: add("analytics.bfs_nodes", r.explored),
        "normalize.probe_termination": lambda a, k, r: add("normalize.probe_steps", r.steps),
        "normalize.normalize_nsr": lambda a, k, r: add("normalize.probe_steps", r.steps),
        "bridge.support_region": lambda a, k, r: add("bridge.useful", len(r)),
        "bridge.support_shell": lambda a, k, r: add("bridge.useful", len(r)),
        "bridge.enumerate_representations": lambda a, k, r: add("bridge.useful", len(r)),
        "bridge.ball_coverage": ball,
        "fileio.atomic_write_text": lambda a, k, r: add(
            "fileio.bytes_written", len(arg(a, k, 1, "text").encode("utf-8"))),
    }


def per_layer(tracer, counters) -> dict:
    """Per-layer numbers named in BENCHMARK.json, from spans and return values."""
    out = {}
    totals = tracer.layer_totals()
    for layer in LAYERS:
        agg = totals.get(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
        out[layer + ".calls"] = agg["calls"]
        out[layer + ".self_s"] = agg["self_s"]
        out[layer + ".errors"] = agg["errors"]
    out["recurrence.term_calls"] = tracer.calls("recurrence.ScalarSequence.term",
                                                "recurrence.VectorSequence.term")
    out["representation.scan_calls"] = tracer.calls("representation.scan")
    out["normalize.carry_calls"] = tracer.calls("normalize.carry")
    out["normalize.borrow_calls"] = tracer.calls("normalize.borrow")
    out["normalize.increment_calls"] = tracer.calls("normalize.increment")
    out["normalize.bfs_nodes"] = counters.get("normalize.bfs_nodes", 0)
    out["normalize.probe_steps"] = counters.get("normalize.probe_steps", 0)
    yielded = tracer.yields("bridge.iter_representations")
    out["bridge.strings_yielded"] = yielded
    out["bridge.enum_useful_ratio"] = counters.get("bridge.useful", 0) / yielded if yielded else 0.0
    out["bridge.legal_decompose_calls"] = tracer.calls("bridge.legal_decompose")
    out["analytics.bfs_nodes"] = counters.get("analytics.bfs_nodes", 0)
    out["fileio.bytes_written"] = counters.get("fileio.bytes_written", 0)
    return out


def run(params, zk, rvs) -> int:
    importlib.import_module(zk.__name__ + ".cli")   # the CLI workloads call cli.main
    work_dir = params["work_dir"]
    os.makedirs(work_dir, exist_ok=True)
    ctx = workloads.Context(zk, rvs, params["seed"], work_dir)
    workload = workloads.WORKLOADS[params["workload"]](ctx)
    rounds = params.get("rounds") or max(1, round(params["seconds"] * workload.rounds_per_s))
    tracer = None
    counters = {}
    if params["trace"]:
        tracer = Tracer(zk)
        tracer.hooks = _hooks(counters)
        tracer.install()
        tracer.active = False
    signal.signal(signal.SIGALRM, _on_alarm)

    clock = Clock()
    latencies = array.array("d")    # reference seconds per call
    wall = array.array("d")         # wall seconds per call
    wall_total = ref_total = 0.0
    units = 0
    raised = deadlines = mismatches = 0
    by_kind = {}
    failures = []
    per_round = []                  # [calls, units, reference seconds] per round
    for round_no in range(rounds):
        first = len(latencies)
        units_before = units
        ref_before = ref_total
        for call in workload.round(round_no):
            clock.refresh()
            result, error, dur = timed_call(call.fn, workload.deadline_s, tracer)
            wall.append(dur)
            wall_total += dur
            # a call cut off counts at its deadline, which is wall time
            cut = error is not None and error.startswith("deadline")
            latencies.append(workload.deadline_s if cut else dur * clock.scale_for(dur))
            ref_total += latencies[-1]
            if error is None:
                error = call.check(result)
                if error is None:
                    units += call.units(result) if callable(call.units) else call.units
                else:
                    mismatches += 1
                    error = "oracle: " + error
            elif cut:
                deadlines += 1
            else:
                raised += 1
            kind = by_kind.setdefault(call.kind, {"attempted": 0, "failed": 0, "ref_s": 0.0})
            kind["attempted"] += 1
            kind["ref_s"] += latencies[-1]
            if error is not None:
                kind["failed"] += 1
                if len(failures) < FAILURE_LIST_CAP:
                    failures.append({"kind": call.kind, "input": call.label,
                                     "reason": error, "seconds": dur})
            del result
        per_round.append([len(latencies) - first, units - units_before,
                          ref_total - ref_before])

    if tracer is not None:
        tracer.uninstall()
        if params.get("spans"):
            tracer.dump(params["spans"])
    if params.get("latencies"):
        with open(params["latencies"], "wb") as fh:
            latencies.tofile(fh)

    n = len(latencies)
    ordered = sorted(latencies)
    ordered_wall = sorted(wall)
    tail = tail_percentile(n)
    failed = raised + deadlines + mismatches
    record = {
        "workload": workload.name,
        "unit": workload.unit,
        "deadline_s": workload.deadline_s,
        "rounds": rounds,
        "per_round": per_round,
        "timed_s": ref_total,
        "units": units,
        "calls": {"attempted": n, "failed": failed, "raised": raised,
                  "deadline": deadlines, "oracle_mismatch": mismatches},
        "calls_by_kind": by_kind,
        "failures": failures,
        "latency": {
            "samples": n,
            "p50_ms": nearest_rank(ordered, 50) * 1e3 if n else None,
            "tail_percentile": tail,
            "tail_ms": nearest_rank(ordered, tail) * 1e3 if tail else None,
        },
        "wall": {
            "timed_s": wall_total,
            "p50_ms": nearest_rank(ordered_wall, 50) * 1e3 if n else None,
            "tail_ms": nearest_rank(ordered_wall, tail) * 1e3 if tail else None,
        },
        "calibration": clock.summary(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, counters)
    with open(params["result"], "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)
    return 0
