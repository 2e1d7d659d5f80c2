"""In-memory span recording around the public callables of flowlag modules.

The benchmark instruments the program from outside: ``Tracer.instrument``
replaces every public function and method of the given modules with a
wrapper that records one span per call, and puts the originals back on
exit.  A span is ``(name, start, end, parent)`` where ``parent`` is the
index of the enclosing span, or -1 at top level.  Spans stay in a list
until ``write_spans`` dumps them.  Untraced runs never call
``instrument``, so they execute the program untouched.
"""

from __future__ import annotations

import functools
import inspect
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    """Records nested spans while ``recording`` is true."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent); index is the span id
        self.recording = False
        self._stack = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            sid = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[sid] = (name, start, end, parent)

        return traced

    @contextmanager
    def paused(self):
        """Run calls through the wrappers without recording them."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    @contextmanager
    def instrument(self, modules):
        """Wrap the public callables of ``modules`` and record spans.

        A function imported by name into another module is replaced there
        too, so calls that go through the importing module are traced.
        """
        restore = []
        wrappers = {}           # id of an original module-level function -> its wrapper
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[id(obj)] = self.wrap(f"{short}.{obj.__qualname__}", obj)
                elif (inspect.isclass(obj) and obj.__module__ == module.__name__
                      and not issubclass(obj, BaseException)):
                    for attr, raw in list(vars(obj).items()):
                        if attr.startswith("_") and attr != "__call__":
                            continue
                        wrapped = self._wrap_member(short, raw)
                        if wrapped is not None:
                            restore.append((obj, attr, raw))
                            setattr(obj, attr, wrapped)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        self.recording = True
        try:
            yield self
        finally:
            self.recording = False
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap_member(self, short: str, raw):
        if isinstance(raw, (staticmethod, classmethod)) and inspect.isfunction(raw.__func__):
            fn = raw.__func__
            return type(raw)(self.wrap(f"{short}.{fn.__qualname__}", fn))
        if inspect.isfunction(raw):
            return self.wrap(f"{short}.{raw.__qualname__}", raw)
        return None


def self_times(spans) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a parent's children never overlap and
    their summed durations are the part of the parent they cover.
    """
    n = len(spans)
    dur = np.fromiter((s[2] - s[1] for s in spans), dtype=np.float64, count=n)
    parent = np.fromiter((s[3] for s in spans), dtype=np.int64, count=n)
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def write_spans(path, spans, meta: dict) -> Path:
    """One JSON file per traced run: metadata plus [name, start, end, parent] rows."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {**meta, "fields": ["name", "start", "end", "parent"],
           "spans": [list(s) for s in spans]}
    path.write_text(json.dumps(doc) + "\n")
    return path
