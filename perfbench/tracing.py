"""In-memory spans for the traced run, and the self times derived from them.

A span records a name, its start and end (``perf_counter_ns``), the
span open when it began (its parent) and the op it belongs to.  Counts
taken at a layer boundary are attached to that layer's span.  Spans
stay in flat integer arrays while the run measures and are written out
once, when it ends.  A span's self time is its duration minus the
durations of its children; spans of one thread nest, so children never
overlap.
"""

import contextlib
from array import array
from time import perf_counter_ns

import numpy as np

_NULL = contextlib.nullcontext(-1)


class NullTracer:
    """Stand-in for untraced ops: every span is a no-op."""

    enabled = False

    def span(self, name):
        return _NULL

    def note(self, span, name, value):
        pass


class Tracer:
    """Records nested spans; entering a span yields its index."""

    enabled = True

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_id = array("q")
        self.counts = {}
        self.op = -1
        self._open = []

    def span(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return _Span(self, nid)

    def note(self, span, name, value):
        """Attach a count to a span (open or closed)."""
        self.counts.setdefault(span, {})[name] = value

    def table(self):
        """Spans as numpy columns, with duration and self time in ns."""
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        ).astype(np.int64)
        names = np.array(self.names, dtype=object)
        return {
            "name": names[np.frombuffer(self.name_id, dtype=np.int64)],
            "parent": parent,
            "op": np.frombuffer(self.op_id, dtype=np.int64),
            "duration": duration,
            "self": duration - child_time,
        }

    def write_csv(self, path):
        """Write every span, one row each, with its counts as name=value pairs."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_ns,end_ns,parent,op,counts\n")
            for i in range(len(self.start)):
                counts = ";".join(f"{k}={v}" for k, v in self.counts.get(i, {}).items())
                fh.write(
                    f"{i},{self.names[self.name_id[i]]},{self.start[i]},"
                    f"{self.end[i]},{self.parent[i]},{self.op_id[i]},{counts}\n"
                )


class _Span:
    __slots__ = ("_tracer", "_name_id", "_idx")

    def __init__(self, tracer, name_id):
        self._tracer = tracer
        self._name_id = name_id

    def __enter__(self):
        tr = self._tracer
        idx = self._idx = len(tr.start)
        tr.name_id.append(self._name_id)
        tr.parent.append(tr._open[-1] if tr._open else -1)
        tr.op_id.append(tr.op)
        tr.end.append(0)
        tr._open.append(idx)
        tr.start.append(perf_counter_ns())
        return idx

    def __exit__(self, *exc):
        tr = self._tracer
        tr.end[self._idx] = perf_counter_ns()
        tr._open.pop()
        return False
