"""In-memory span recorder with online self-time accounting.

A span is one call into a layer, named ``<layer>.<what>``.  Every span
is folded into per-name and per-layer totals as it closes:

* ``calls`` -- spans closed;
* ``s``     -- inclusive seconds of the spans whose parent belongs to
  another layer (a layer calling itself is not counted twice);
* ``self_s`` -- span duration minus the time its direct child spans
  cover, summed over every span of the layer.

The simulator makes millions of per-access layer calls in one pass, so
those are only aggregated.  Spans whose layer is in ``KEEP`` (run-level
spans: one per simulated run, runner phase, batch or verify command)
are also recorded individually as ``(name, start, end, parent, run_id)``
tuples, where ``parent`` indexes the nearest recorded ancestor (-1 for
none), and are written out with the totals at the end of a run.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


#: Layers whose spans are recorded one by one (a few per run or command).
KEEP = frozenset(("run", "runner", "workloads", "parallel", "verify", "obs"))


class SpanRecorder:
    """Collects spans for one traced pass."""

    def __init__(self) -> None:
        self.spans = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.by_name = {}
        #: layer -> [calls, inclusive seconds, self seconds]
        self.by_layer = {}
        self.run_id = 0
        # Open frames: [name totals, layer totals, layer, start,
        # child seconds, own recorded index or -1, nearest recorded
        # index].
        self._stack = []

    def _totals(self, name: str):
        layer = name.split(".", 1)[0]
        named = self.by_name.setdefault(name, [0, 0.0, 0.0])
        layered = self.by_layer.setdefault(layer, [0, 0.0, 0.0])
        return named, layered, layer

    def open(self, name: str, totals=None) -> None:
        named, layered, layer = totals or self._totals(name)
        stack = self._stack
        ancestor = stack[-1][6] if stack else -1
        index = -1
        if layer in KEEP:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, ancestor, self.run_id])
        stack.append([named, layered, layer, perf_counter(), 0.0, index,
                      index if index >= 0 else ancestor])

    def close(self) -> None:
        end = perf_counter()
        stack = self._stack
        named, layered, layer, start, child, index, _ = stack.pop()
        duration = end - start
        own = duration - child
        named[0] += 1
        named[2] += own
        layered[0] += 1
        layered[2] += own
        if stack:
            parent = stack[-1]
            parent[4] += duration
            outermost = parent[2] != layer
        else:
            outermost = True
        named[1] += duration
        if outermost:
            layered[1] += duration
        if index >= 0:
            self.spans[index][1] = start
            self.spans[index][2] = end

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a ``name`` span; ``after(result, *args)`` runs
        outside the span (it counts outcomes, not time)."""
        totals = self._totals(name)
        recorder = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            recorder.open(name, totals)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapped

    def inside(self, layer: str) -> bool:
        """True while the innermost open span belongs to ``layer``."""
        return bool(self._stack) and self._stack[-1][2] == layer

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        return self.by_name.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.by_name.get(name, (0, 0.0, 0.0))[1]

    def layer(self, layer: str):
        """``(calls, inclusive seconds, self seconds)`` of one layer."""
        return tuple(self.by_layer.get(layer, (0, 0.0, 0.0)))

    def self_seconds(self, name: str) -> float:
        return self.by_name.get(name, (0, 0.0, 0.0))[2]

    def check_nesting(self) -> None:
        """Raise unless every recorded span lies inside its parent and
        every self time is non-negative (up to clock resolution)."""
        if self._stack:
            raise AssertionError(f"{len(self._stack)} spans still open")
        for name, start, end, parent, _run in self.spans:
            if end < start:
                raise AssertionError(f"span {name} ends before it starts")
            if parent >= 0:
                pname, pstart, pend, _, _ = self.spans[parent]
                if start < pstart or end > pend:
                    raise AssertionError(
                        f"span {name} [{start}, {end}] escapes its parent "
                        f"{pname} [{pstart}, {pend}]")
        for table in (self.by_name, self.by_layer):
            for name, (_calls, _incl, own) in table.items():
                if own < -1e-6:
                    raise AssertionError(f"{name}: self time {own} < 0")

    def to_dict(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p,
                       "run_id": r} for n, s, e, p, r in self.spans],
            "by_name": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                        for k, v in sorted(self.by_name.items())},
            "by_layer": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                         for k, v in sorted(self.by_layer.items())},
        }
