"""In-memory spans and counters for the traced run, and their arithmetic.

A span is one call across a layer boundary: its name ("<layer>.<what>"),
start and end on the perf_counter clock, the index of the span that was
open when it began, and the step or utterance it served.  Spans live in a
list until the run ends.  Wrappers are installed by `Tracer.wrap`, which
replaces a module or class attribute with a timing shim; nothing inside the
program changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, ID = range(5)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, id]
        self.counts = defaultdict(float)
        self.item = None         # step or utterance id stamped on new spans
        self._open = []          # indices of spans still running

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.item])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int):
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def span(self, name: str):
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0):
        self.counts[name] += amount

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Time every call of `owner.attr` as a span called `name`.

        `before(args)` runs inside the span ahead of the call and its return
        value goes to `after(result, token)`, which runs once the call is
        back; both may count work.
        """
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def shim(*args, **kwargs):
            index = self.begin(name)
            try:
                token = before(args) if before else None
                result = inner(*args, **kwargs)
                if after:
                    after(result, token)
                return result
            finally:
                self.end(index)

        setattr(owner, attr, shim)

    def root(self):
        """Name of the outermost open span, or None outside any span."""
        return self.spans[self._open[0]][NAME] if self._open else None

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "id": item}) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of it and their durations can be summed.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def roots(spans) -> list:
    """Index of the outermost enclosing span of every span (itself if none)."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out


def layer_self_times(spans) -> dict:
    """Self time summed per layer, the part of a span name before its dot."""
    totals = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        totals[s[NAME].split(".", 1)[0]] += own
    return dict(totals)


def inclusive_totals(spans) -> dict:
    """Total duration per (span name, outermost span name), counting only
    spans with no enclosing span of the same name, so a name that calls
    itself is not counted twice."""
    top = roots(spans)
    names = []          # names of each span's enclosing spans
    totals = defaultdict(float)
    for i, s in enumerate(spans):
        p = s[PARENT]
        names.append(names[p] | {spans[p][NAME]} if p >= 0 else frozenset())
        if s[NAME] not in names[i]:
            totals[s[NAME], spans[top[i]][NAME]] += s[END] - s[START]
    return dict(totals)


def coverage(spans, prefix: str = "phase.") -> dict:
    """Per outermost-span name: the share of its wall time spent in child
    spans, that is 1 - self time / duration, summed over its occurrences."""
    own = self_times(spans)
    dur, unattributed = defaultdict(float), defaultdict(float)
    for i, s in enumerate(spans):
        if s[PARENT] < 0 and s[NAME].startswith(prefix):
            dur[s[NAME]] += s[END] - s[START]
            unattributed[s[NAME]] += own[i]
    return {name: 1.0 - unattributed[name] / dur[name] for name in dur if dur[name] > 0}
