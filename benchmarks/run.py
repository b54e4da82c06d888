"""zeckvec benchmark runner.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                              [--out FILE] [--append FILE]

Runs each workload in fresh single-threaded interpreters started one at a
time: SETUP_RUNS set-up-only processes, the measured run, SETUP_RUNS more
set-up-only processes; with --trace 1 a second, traced run of the first
half of the same rounds follows.  Prints every
metric with its unit and the oracle verdict, and as its last line one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics, or
with --trace 1 the per-layer ones.  The full record (git sha, nproc,
Python, seed, call and sample counts) goes to --out, or is appended to the
JSON list in --append.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import array
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calibration import REF_CAL_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOAD_NAMES = ("decompose_mix", "rewrite_trace", "region_enum", "summand_stats")
DEFAULT_SEED = 1        # check a claim on seed 20261017 too: no change was tuned on it
SETUP_RUNS = 6           # set-up-only processes before and again after the measured run
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_state():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def _worker_run(params: dict, deadline: float):
    """Run one worker to the end; (set-up wall seconds, set-up reference
    seconds, result record or None).

    Set-up is the time from starting the interpreter until it prints ready.
    It is scaled to reference seconds by the calibration slice timed just
    before the start and just after ready (see calibration.py).  The worker
    is always waited for, and killed if it outlives the deadline.
    """
    cal = calibrate()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-I", WORKER, json.dumps(params)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - start
        ref_setup = setup * REF_CAL_S / ((cal + calibrate()) / 2)
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError("%s worker exited with code %d" % (params["workload"], proc.returncode))
    if params.get("setup_only"):
        return setup, ref_setup, None
    with open(params["result"], encoding="utf-8") as fh:
        return setup, ref_setup, json.load(fh)


def _metric(value, unit, **extra) -> dict:
    out = {"unit": unit, "value": value}
    out.update(extra)
    return out


def end_to_end(setups, rec) -> dict:
    calls = rec["calls"]
    lat = rec["latency"]
    return {
        "setup_s": _metric(statistics.median(setups), "s", samples=len(setups)),
        "units_per_s": _metric(rec["units"] / rec["timed_s"] if rec["timed_s"] else 0.0,
                               "1/s", units=rec["units"], unit_name=rec["unit"],
                               timed_s=rec["timed_s"]),
        "call_p50_ms": _metric(lat["p50_ms"], "ms", samples=lat["samples"], percentile=50),
        "call_p99_ms": _metric(lat["tail_ms"], "ms", samples=lat["samples"],
                               percentile=lat["tail_percentile"]),
        "peak_rss_mb": _metric(rec["peak_rss_mb"], "MB"),
        "failed_ratio": _metric(calls["failed"] / calls["attempted"], "ratio",
                                failed=calls["failed"], attempted=calls["attempted"]),
    }


_LAYER_UNITS = {"self_s": "s", "enum_useful_ratio": "ratio", "bytes_written": "B"}


def layer_metrics(rec, overhead) -> dict:
    out = {name: _metric(value, _LAYER_UNITS.get(name.split(".", 1)[1], "count"))
           for name, value in rec["per_layer"].items()}
    out["tracing.overhead_ratio"] = _metric(overhead, "ratio")
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool, work: str) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = {"workload": name, "seed": seed, "seconds": seconds, "work_dir": work}
    # set-up times swing with the host from second to second: sample them on
    # both sides of the measured run and take the median
    runs = [_worker_run(dict(base, setup_only=True), deadline) for _ in range(SETUP_RUNS)]
    params = dict(base, trace=0, result=os.path.join(work, "plain.json"),
                  latencies=os.path.join(work, "plain.lat") if trace else None)
    runs.append(_worker_run(params, deadline))
    plain = runs[-1][2]
    runs += [_worker_run(dict(base, setup_only=True), deadline) for _ in range(SETUP_RUNS)]
    setups = [ref for _, ref, _ in runs]
    entry = {"record": plain, "setup_samples": setups,
             "setup_wall_samples": [wall for wall, _, _ in runs],
             "metrics": end_to_end(setups, plain)}
    if trace:
        spans = os.path.join(ROOT, ".bench_results", "spans-%s-seed%d.json" % (name, seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        params = dict(base, trace=1, result=os.path.join(work, "traced.json"), spans=spans,
                      rounds=(plain["rounds"] + 1) // 2)
        traced = _worker_run(params, deadline)[2]
        lat = array.array("d")
        with open(os.path.join(work, "plain.lat"), "rb") as fh:
            lat.frombytes(fh.read())
        same_calls = sum(lat[:traced["calls"]["attempted"]])
        overhead = traced["timed_s"] / same_calls if same_calls else 0.0
        entry["traced"] = traced
        entry["spans_file"] = os.path.relpath(spans, ROOT)
        entry["layer_metrics"] = layer_metrics(traced, overhead)
    return entry


def _print_entry(name, entry, trace):
    rec = entry["record"]
    calls = rec["calls"]
    cal = rec["calibration"]
    print("== %s  (unit: %s; %d calls in %d rounds, %.2f s timed wall, %.2f reference s)"
          % (name, rec["unit"], calls["attempted"], rec["rounds"], rec["wall"]["timed_s"],
             rec["timed_s"]))
    print("  times in reference seconds: calibration slice median %.3g s over %d samples, "
          "reference %.3g s; wall p50 %.4g ms, p%s %.4g ms"
          % (cal["median_s"], cal["samples"], cal["ref_s"], rec["wall"]["p50_ms"],
             rec["latency"]["tail_percentile"], rec["wall"]["tail_ms"] or float("nan")))
    for metric, m in entry["metrics"].items():
        extra = ", ".join("%s=%s" % (k, v) for k, v in m.items() if k not in ("value", "unit"))
        value = m["value"] if m["value"] is not None else float("nan")
        print("  %-14s %14.6g %-6s %s" % (metric, value, m["unit"], extra))
    print("  oracle: %d calls checked, %d mismatches, %d raised, %d past the %gs deadline"
          % (calls["attempted"], calls["oracle_mismatch"], calls["raised"], calls["deadline"],
             rec["deadline_s"]))
    for f in rec["failures"][:10]:
        print("    failed %s [%s]: %s (%.3f s)" % (f["kind"], f["input"], f["reason"], f["seconds"]))
    if len(rec["failures"]) > 10 or calls["failed"] > len(rec["failures"]):
        print("    ... %d failures in all; the record lists up to 100" % calls["failed"])
    if trace:
        print("  per-layer (traced run, %d calls):" % entry["traced"]["calls"]["attempted"])
        for metric, m in entry["layer_metrics"].items():
            print("    %-32s %14.6g %s" % (metric, m["value"], m["unit"]))


def _correct(entry) -> bool:
    recs = [entry["record"]] + ([entry["traced"]] if "traced" in entry else [])
    return all(r["calls"]["oracle_mismatch"] == 0 and r["calls"]["raised"] == 0 for r in recs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # the run length is run_seconds in BENCHMARK.json, so that every record
    # is comparable; --seconds exists for the standard calling convention
    # and must repeat that value
    parser.add_argument("--seconds", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the run record here (JSON; default: "
                        ".bench_results/<workload>-seed<N>[-traced].json)")
    parser.add_argument("--append", help="append the run record to this JSON list")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "zeckvec", "__init__.py")):
        print("error: no zeckvec sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    spec = _benchmark_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print("error: --seconds must equal run_seconds in BENCHMARK.json (%d)" % seconds,
              file=sys.stderr)
        return 2
    # byte-compile once so that no run's set-up time or peak memory
    # includes compilation
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    work = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    sha, dirty = _git_state()
    record = {
        "benchmark": "zeckvec",
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "workloads": {},
    }
    try:
        for name in names:
            os.makedirs(work, exist_ok=True)
            entry = run_workload(name, args.seed, seconds, bool(args.trace), work)
            shutil.rmtree(work, ignore_errors=True)
            record["workloads"][name] = entry
            _print_entry(name, entry, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    out = args.out or os.path.join(ROOT, ".bench_results", "%s-seed%d%s.json" % (
        args.workload, args.seed, "-traced" if args.trace else ""))
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.append:
        runs = []
        if os.path.exists(args.append):
            with open(args.append, encoding="utf-8") as fh:
                runs = json.load(fh)
        runs.append(record)
        with open(args.append, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1, sort_keys=True)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    metrics = {}
    for name, entry in record["workloads"].items():
        source = entry["layer_metrics"] if args.trace else entry["metrics"]
        prefix = "" if len(names) == 1 else name + "."
        for metric in wanted:
            m = source[metric]
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    shown = [e.get("traced", e["record"]) for e in record["workloads"].values()]
    print(json.dumps({
        "correct": all(_correct(e) for e in record["workloads"].values()),
        "attempted": sum(r["calls"]["attempted"] for r in shown),
        "failed": sum(r["calls"]["failed"] for r in shown),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
