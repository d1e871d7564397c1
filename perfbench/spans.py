"""Spans around public calls, and a counting proxy for category objects.

Both live in the benchmark, outside the program: a span wraps a call into
a layer's public function, and the proxy wraps a category object before
it is handed to the axiom engine, so every callback the engine makes
through the structural interface is counted and timed.  Callback time is
charged to the innermost open span, which gives each span its self time.

NullTracer has the same surface and does nothing; the untraced run uses
it, so both runs execute the same job code.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

INTERFACE = ("cells", "level_of", "source", "target", "identity", "compose", "normalize", "render")
# the callbacks reported as axioms.calls.*; the engine never calls level_of
AXIOM_CALLS = ("cells", "source", "target", "identity", "compose", "normalize", "render")


class Span:
    __slots__ = ("id", "name", "tag", "parent", "start", "end", "calls", "cb_s")

    def __init__(self, ident, name, tag, parent, start):
        self.id = ident
        self.name = name
        self.tag = tag
        self.parent = parent
        self.start = start
        self.end = None
        self.calls = {}  # (category label, method) -> count
        self.cb_s = {}  # (category label, method) -> seconds inside callbacks

    @property
    def dur(self) -> float:
        return self.end - self.start

    def callback_s(self) -> float:
        return sum(self.cb_s.values())

    def to_dict(self):
        return {
            "id": self.id, "name": self.name, "tag": self.tag, "parent": self.parent,
            "start": self.start, "end": self.end,
            "calls": {f"{c}.{m}": n for (c, m), n in sorted(self.calls.items())},
            "callback_s": {f"{c}.{m}": s for (c, m), s in sorted(self.cb_s.items())},
        }


class Tracer:
    """Keeps spans in memory; the benchmark writes them out at the end."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._ids = itertools.count()

    @contextmanager
    def span(self, name, tag=""):
        parent = self._open[-1].id if self._open else None
        s = Span(next(self._ids), name, tag, parent, time.perf_counter())
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def wrap(self, cat, label):
        return CountingProxy(cat, self, label)

    def _charge(self, key, dt):
        if self._open:
            s = self._open[-1]
            s.calls[key] = s.calls.get(key, 0) + 1
            s.cb_s[key] = s.cb_s.get(key, 0.0) + dt

    def named(self, name, tag=None):
        return [s for s in self.spans if s.name == name and (tag is None or s.tag == tag)]


class NullTracer:
    @contextmanager
    def span(self, name, tag=""):
        yield None

    def wrap(self, cat, label):
        return cat


class CountingProxy:
    """A category object whose interface methods are counted and timed.
    Every other attribute (max_level, fd, ...) reads through."""

    def __init__(self, cat, tracer, label):
        self._cat = cat
        for name in INTERFACE:
            setattr(self, name, _timed(getattr(cat, name), tracer, (label, name)))

    def __getattr__(self, attr):
        return getattr(self._cat, attr)


def _timed(fn, tracer, key):
    clock = time.perf_counter
    charge = tracer._charge

    def call(*args):
        t = clock()
        try:
            return fn(*args)
        finally:
            charge(key, clock() - t)

    return call
