"""In-memory span recorder for the traced benchmark run.

A span records its name, start, end, parent span and op id, plus any counts
computed at that boundary. Spans nest through a stack and stay in memory
until the run ends, when the caller writes them out.
"""

import statistics
import time
from contextlib import contextmanager


@contextmanager
def no_span(name, **counts):
    """Stand-in for :meth:`Tracer.span` on untraced ops: records nothing."""
    yield


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._failure = None

    @contextmanager
    def span(self, name, **counts):
        record = {
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "failed": False,
        }
        record.update(counts)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            # the innermost span an exception leaves owns the failure
            if id(exc) != self._failure:
                record["failed"] = True
                self._failure = id(exc)
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Self time of every span: its duration minus what its children cover
    (children run sequentially on one thread, so their durations add)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return [duration(span) - c for span, c in zip(spans, covered)]


def per_op(spans, ops, select, value=duration):
    """Median over ``ops`` of the per-op sum of ``value`` over the spans
    ``select`` accepts; an op without such spans contributes 0."""
    totals = {op: 0.0 for op in ops}
    for span in spans:
        if span["op"] in totals and select(span):
            totals[span["op"]] += value(span)
    return statistics.median(totals.values()) if totals else 0.0


def coverage(spans, op_span_index):
    """Share of an op span's duration covered by its direct children."""
    children = sum(duration(s) for s in spans if s["parent"] == op_span_index)
    return children / duration(spans[op_span_index])
