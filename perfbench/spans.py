"""Spans and counters recorded around the benchmark's calls into bandwalk.

The benchmark times each layer from outside the package: every call it
makes into a bandwalk module goes through ``Recorder.call``.  With
tracing off that is a plain call and nothing is kept.  With tracing on
each call becomes a span (name, start, end, parent, job id) held in
memory, and the job code adds counters, taken from return values, at
the same boundaries.  Spans are written out only when the run ends.
"""

import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self, tracing):
        self.tracing = tracing
        self.spans = []              # (name, start, end, parent index, job)
        self.counters = defaultdict(int)
        self.job = None
        self._open = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span called `name` when tracing."""
        if not self.tracing:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name):
        if not self.tracing:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def count(self, name, value=1):
        if self.tracing:
            self.counters[name] += value


def self_times(spans):
    """Seconds per span name, each span minus the time its children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    totals = defaultdict(float)
    for span, seconds in zip(spans, own):
        totals[span[0]] += seconds
    return totals
