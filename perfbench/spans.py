"""In-memory spans and the self-time rule.

A span is a named interval with the span that caused it.  Spans are kept in
compact arrays while the run lasts and written out once, when it ends.
"""

import time
from array import array
from collections import Counter, defaultdict

import numpy as np


class SpanRecorder:
    """Spans and counters of one traced run, in call order."""

    def __init__(self):
        self.names = []                 # name id -> span name
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")        # index of the causing span, -1 at a root
        self.report = array("i")        # index of the root span: one id per report
        self.start = array("q")         # perf_counter_ns
        self.end = array("q")
        self.counts = Counter()
        self._stack = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.report.append(self._stack[0] if self._stack else i)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter_ns()
        if self._stack.pop() != i:
            raise RuntimeError("spans closed out of order")

    def totals(self):
        """Per span name: (number of spans, summed self time in ns)."""
        calls = Counter()
        self_ns = defaultdict(int)
        for nid, t in zip(self.name_id, self_times(self.start, self.end, self.parent)):
            name = self.names[nid]
            calls[name] += 1
            self_ns[name] += t
        return calls, self_ns

    def write(self, path: str):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), report=np.asarray(self.report),
            start_ns=np.asarray(self.start), end_ns=np.asarray(self.end))


def self_times(start, end, parent) -> list:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent, and where two children overlap the
    shared stretch is subtracted once.
    """
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(start, end)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered, run_start, run_end = 0, None, None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[p] -= covered
    return out
