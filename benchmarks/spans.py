"""Spans recorded in memory around calls into the library, from outside it.

A span is `[name, start, end, parent]`: times from `CLOCK`, `parent` the
index of the enclosing span or -1. `CLOCK` is the CPU time of the process,
not wall time: on a virtual machine whose host takes back a share of the
CPU ("steal"), wall time per step moved by 20-30% between runs, and CPU
time, which leaves stolen time out, by 3-7% in quiet hours. A span's self
time is its duration minus the durations of its direct children. `Patches`
swaps attributes for wrappers and puts the originals back on exit, so
nothing in `src/` changes.
"""

import time
from contextlib import contextmanager

NAME, START, END, PARENT = range(4)
CLOCK = time.process_time


class Recorder:
    """Collects spans; nested calls record the innermost open span as parent."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _begin(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        self.spans[idx][START] = CLOCK()
        return idx

    def _end(self, idx):
        self.spans[idx][END] = CLOCK()
        self._open.pop()

    @contextmanager
    def span(self, name):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def wrap(self, name, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(idx)
        return traced

    def mark_first_call(self, obj, attr, name):
        """Record a zero-length span called `name` when `obj.attr` is first
        called, then put the attribute back, so later calls cost nothing.
        `attr` must be a method found on the class, not set on `obj`."""
        original = getattr(obj, attr)

        def first(*args, **kwargs):
            delattr(obj, attr)
            now = CLOCK()
            self.spans.append([name, now, now, self._open[-1] if self._open else -1])
            return original(*args, **kwargs)
        setattr(obj, attr, first)

    def wrap_context(self, name, factory):
        """`factory` returns a context manager; record its enter and its exit
        as two spans called `name`, leaving the body of the `with` out."""
        recorder = self

        @contextmanager
        def traced(*args, **kwargs):
            cm = factory(*args, **kwargs)
            with recorder.span(name):
                cm.__enter__()
            try:
                yield
            except BaseException as exc:
                with recorder.span(name):
                    suppress = cm.__exit__(type(exc), exc, exc.__traceback__)
                if not suppress:
                    raise
            else:
                with recorder.span(name):
                    cm.__exit__(None, None, None)
        return traced


def durations(spans):
    return [s[END] - s[START] for s in spans]


def self_times(spans):
    """Duration of each span minus the durations of its direct children."""
    out = durations(spans)
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def children(spans, parent):
    """Indices of the direct children of span `parent`, in start order."""
    return [i for i, s in enumerate(spans) if s[PARENT] == parent]


class Patches:
    """Set attributes for the life of a `with` block, then restore them.

    An attribute that lived on the instance is put back; one that was only
    inherited (a class attribute seen through an instance) is deleted again.
    """

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        had_own = attr in getattr(owner, "__dict__", {})
        self._saved.append((owner, attr, had_own, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, recorder, owner, attr, name):
        self.set(owner, attr, recorder.wrap(name, getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, had_own, original = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
