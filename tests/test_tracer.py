"""The benchmark's span tracer still installs on the package and counts calls."""

import os

import zeckvec
from zeckvec import RecurrenceVector, recurrence, scalar_term

BENCHMARKS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "benchmarks")


def test_tracer_wraps_sequence_methods_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracer import Tracer

    originals = {(cls, meth): cls.__dict__[meth]
                 for cls, meth in [(recurrence.ScalarSequence, "term"),
                                   (recurrence.ScalarSequence, "max_index_at_most"),
                                   (recurrence.VectorSequence, "term"),
                                   (recurrence.VectorSequence, "basis")]}
    functions = (zeckvec.scalar_term, zeckvec.vector_term)
    tracer = Tracer(zeckvec)
    tracer.install()   # raises KeyError if a traced method is not defined on its class
    try:
        c = RecurrenceVector((2, 1, 1))
        assert zeckvec.scalar_term(c, 7) == 331
        assert zeckvec.vector_term(c, -9) == (-38, -7)
        assert tracer.calls("recurrence.ScalarSequence.term") == 1
        assert tracer.calls("recurrence.VectorSequence.term") == 1
    finally:
        tracer.uninstall()
    for (cls, meth), original in originals.items():
        assert cls.__dict__[meth] is original
    assert (zeckvec.scalar_term, zeckvec.vector_term) == functions


def test_tracer_counts_enumerator_yields(monkeypatch):
    # the enumerator must stay a generator function: the tracer gives it one
    # span per yield, which the benchmark's bridge.enum_useful_ratio reads
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracer import Tracer

    tracer = Tracer(zeckvec)
    tracer.install()
    try:
        c = RecurrenceVector((2, 1, 1))
        region = zeckvec.support_region(c, 4)
        assert tracer.yields("bridge.iter_representations") == scalar_term(c, 5)
        assert len(region) == scalar_term(c, 5)
    finally:
        tracer.uninstall()


def test_tracer_sees_the_untraced_bridge_in_its_own_layer(monkeypatch):
    # untraced decompose reaches the scalar bridge across modules, so a
    # traced run books the bridge's time to the bridge layer
    monkeypatch.syspath_prepend(BENCHMARKS)
    from tracer import Tracer

    tracer = Tracer(zeckvec)
    tracer.install()
    try:
        c = RecurrenceVector((2, 1, 1))
        assert zeckvec.decompose(c, (0, 0)) == ()
        assert tracer.calls("bridge._decompose_bridge") == 0
        assert zeckvec.decompose(c, (12, -5)) == (2, 1, 0, 0, 0, 0, 1)
        assert tracer.calls("bridge._decompose_bridge") == 1
    finally:
        tracer.uninstall()
