"""In-memory spans recorded around calls into the library, and self time per layer.

A span is (id, name, parent, op, group, start, end, attrs); group is the
operation group the runner was visiting. Spans opened on one
thread nest through that thread's stack; work handed to a pool passes its
parent explicitly. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # dicts, appended when a span closes
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._op = 0
        self.group = None  # set by the runner at each visit

    def new_op(self) -> int:
        """Start a new operation id; spans opened afterwards carry it."""
        with self._lock:
            self._op += 1
            return self._op

    @contextmanager
    def span(self, name: str, parent=None, op=None, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        if parent is None and stack:
            parent = stack[-1][0]
            op = stack[-1][1] if op is None else op
        op = self._op if op is None else op
        stack.append((sid, op))
        t0 = time.perf_counter()
        try:
            yield (sid, op)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            rec = {"id": sid, "name": name, "parent": parent, "op": op, "group": self.group,
                   "start": t0, "end": t1, **attrs}
            with self._lock:
                self.spans.append(rec)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its children."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def self_time_by_layer(spans, visits) -> dict:
    """Layer -> self time per round: each group's share divided by its visits."""
    out = {}
    st = self_times(spans)
    for s in spans:
        layer = layer_of(s["name"])
        out[layer] = out.get(layer, 0.0) + st[s["id"]] / visits[s["group"]]
    return out


def check_nesting(spans) -> list:
    """Problems found: unknown parents, children outside their parent, negative self time."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        p = s["parent"]
        if p is None:
            continue
        if p not in by_id:
            problems.append(f"span {s['id']} {s['name']} has unknown parent {p}")
            continue
        ps = by_id[p]
        if s["start"] < ps["start"] or s["end"] > ps["end"] or s["op"] != ps["op"]:
            problems.append(f"span {s['id']} {s['name']} is not inside parent {ps['name']}")
    for sid, t in self_times(spans).items():
        if t < -1e-9:
            problems.append(f"span {sid} {by_id[sid]['name']} has self time {t}")
    return problems
