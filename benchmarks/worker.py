"""One workload run in a fresh interpreter.

Usage: python3 worker.py PARAMS_JSON

Imports zeckvec from the checkout's ``src``, builds the workload's
recurrence vectors, prints ``ready`` (the runner's set-up clock stops
there), then generates inputs and runs the timed phase.  With
``setup_only`` it exits after ``ready``.  Everything after ``ready`` lives
in ``harness`` so that it stays out of the set-up time.
"""

import json
import os
import sys

STRICT = ((1, 1), (1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1))
RELAXED = ((1, 3, 1), (1, 4, 2, 1), (1, 2, 1), (2, 3, 1), (1, 2, 2, 1), (2, 2, 3, 1))
RECURRENCES = {
    "decompose_mix": [(c, False) for c in STRICT],
    "rewrite_trace": [(c, False) for c in STRICT] + [(c, True) for c in RELAXED],
    "region_enum": [(c, False) for c in STRICT],
    "summand_stats": [(c, False) for c in STRICT],
}


def main() -> int:
    params = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path.insert(0, src)
    import zeckvec
    if not os.path.abspath(zeckvec.__file__).startswith(src + os.sep):
        print("zeckvec was not imported from %s" % src, file=sys.stderr)
        return 2
    rvs = [zeckvec.RecurrenceVector(c, relaxed=r) for c, r in RECURRENCES[params["workload"]]]
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if params.get("setup_only"):
        return 0
    sys.path.insert(0, here)
    import harness
    return harness.run(params, zeckvec, rvs)


if __name__ == "__main__":
    sys.exit(main())
