"""Outside-in span tracer for the polygam benchmark.

Spans are recorded at layer boundaries without touching the package: the
tracer rebinds a public function's name in the module that calls it (or a
method on its class) to a wrapper that records one span per call, and puts
the original back afterwards. Spans live in memory as (name, start, end,
parent) records until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class TracerError(RuntimeError):
    """A name the tracer was asked to wrap does not exist."""


class Tracer:
    def __init__(self):
        # one [name, start, end, parent] list per span, in start order, so a
        # parent's index is always smaller than its children's
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), None, parent]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # inlined span(): this runs once per wrapped call, tens of
            # thousands of times per fit
            rec = [name, clock(), None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()

        return traced

    @contextlib.contextmanager
    def installed(self, targets):
        """Rebind each (owner, attribute, span name) target for the duration.

        A missing attribute raises TracerError before anything is rebound, so
        a rename in the package fails the traced run instead of silently
        reporting zero for a layer.
        """
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _ in targets
            if attr not in vars(owner)
        ]
        if missing:
            raise TracerError("cannot trace missing name(s): " + ", ".join(missing))
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def roots(spans) -> list[int]:
    """Index of the outermost enclosing span of every span."""
    out = []
    for i, (_, _, _, parent) in enumerate(spans):
        out.append(i if parent < 0 else out[parent])
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (_, start, end, _), kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out
