"""Span wrappers installed around zeckvec from outside the package.

``Tracer.install`` replaces, in every zeckvec module that binds them:

* each function that some zeckvec module imports from another one (this
  includes everything the package ``__init__`` re-exports, so every public
  function the workloads call), plus ``cli.main``;
* the ``term``, ``basis`` and ``max_index_at_most`` methods of the two
  sequence classes.

A function is wrapped everywhere it is bound, so calls made through its own
module's globals (``_reduce`` calling ``carry``) are seen too.  Each span
has a name, start, end and parent; a generator is one span whose time is
the sum of its ``next()`` calls.  Aggregates (calls, total, self time,
errors) are exact for every span; the raw spans are kept in memory up to
``SPAN_CAP`` and written out by ``dump``.  Self time is a span's duration
minus the durations of its children, which on one thread never overlap.
``hooks`` maps a span name to a callable(args, kwargs, result) run on each
successful return, to collect counts from return values.  While ``active``
is false the wrappers call straight through, so oracle code is not traced.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

SPAN_CAP = 50_000

_METHODS = {
    "ScalarSequence": ("term", "max_index_at_most"),
    "VectorSequence": ("term", "basis"),
}


def _layer(func) -> str:
    return func.__module__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self.stats = {}       # span name -> [calls, total_s, self_s, errors, yields]
        self.spans = []       # (id, name, start, end, parent id), first SPAN_CAP
        self.dropped = 0
        self._stack = []      # [span id, child time]
        self._next_id = 0
        self._patches = []    # (owner, attribute, original)
        self.hooks = {}
        self.active = True

    # -- recording -----------------------------------------------------------

    def _enter(self):
        self._next_id += 1
        frame = [self._next_id, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, failed, yielded=False, count_call=True):
        end = time.perf_counter()
        dur = end - start
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0, 0, 0]
        st[0] += count_call
        st[1] += dur
        st[2] += dur - frame[1]
        st[3] += failed
        st[4] += yielded
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent[0] if parent else None))
        else:
            self.dropped += 1

    def reset_stack(self):
        """Drop frames left open by an interrupt (the per-call deadline)."""
        self._stack.clear()

    def _wrap_function(self, name, func):
        tracer = self
        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from func(*args, **kwargs)
                    return
                it = func(*args, **kwargs)
                first = True
                while True:
                    frame = tracer._enter()
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._exit(name, frame, start, False, count_call=first)
                        return
                    except BaseException:
                        tracer._exit(name, frame, start, True, count_call=first)
                        raise
                    tracer._exit(name, frame, start, False, yielded=True, count_call=first)
                    first = False
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._exit(name, frame, start, True)
                raise
            tracer._exit(name, frame, start, False)
            hook = tracer.hooks.get(name)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def _targets(self):
        """Functions bound in a zeckvec module other than their own, plus cli.main."""
        prefix = self.package.__name__ + "."
        found = {}
        for mod in self.modules:
            for value in vars(mod).values():
                if (inspect.isfunction(value) and value.__module__.startswith(prefix)
                        and value.__module__ != mod.__name__):
                    found[id(value)] = value
        cli = sys.modules.get(prefix + "cli")
        if cli is not None:
            found[id(cli.main)] = cli.main
        return found

    def install(self):
        targets = self._targets()
        wrapped = {key: self._wrap_function("%s.%s" % (_layer(f), f.__name__), f)
                   for key, f in targets.items()}
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and value is targets[id(value)]:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])
        recurrence = sys.modules[self.package.__name__ + ".recurrence"]
        for cls_name, methods in _METHODS.items():
            cls = getattr(recurrence, cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap_function("recurrence.%s.%s" % (cls_name, meth), original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -----------------------------------------------------------

    def layer_totals(self) -> dict:
        """layer -> {calls, self_s, errors}, summed over that module's spans."""
        out = {}
        for name, (calls, _total, self_s, errors, _y) in self.stats.items():
            layer = name.split(".", 1)[0]
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "errors": 0})
            agg["calls"] += calls
            agg["self_s"] += self_s
            agg["errors"] += errors
        return out

    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def yields(self, name) -> int:
        return self.stats.get(name, (0, 0, 0, 0, 0))[4]

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "stats": {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                                 "errors": s[3], "yields": s[4]}
                          for name, s in sorted(self.stats.items())},
                "spans_dropped": self.dropped,
                "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                          for i, n, s, e, p in self.spans],
            }, fh)
