"""In-memory span tracing for the benchmark's traced run.

A span is (name, start, end, parent): the time one call of a wrapped
public function took, and the span that was open when it started. The
workload opens an operation span ("frame" or "train_step") around each
operation, so every span can be traced back to the frame or training
step it served. Nothing is written while the run measures; the spans
are analysed and written out when it ends.

Spans come from wrapping the program's public functions in place while
tracing is enabled (`Tracer.enable`): the program's files are never
changed, and the wrappers are gone whenever tracing is off.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Collects spans in memory. Single-threaded, like the workloads."""

    def __init__(self, targets, op_name: str, serving: tuple[str, ...] = ()):
        """targets: (owner module or class, attribute, span name, probe or
        None) of each function to wrap; probe(tracer, args, kwargs) runs
        before each traced call."""
        self.targets = targets
        self.op_name = op_name
        self.serving = serving
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.active_contacts = 0     # root_correct calls whose gate was open

    # -- spans opened by the workload --------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, rename: str | None = None) -> None:
        self.spans[idx][2] = perf_counter()
        if rename is not None:
            self.spans[idx][0] = rename
        self._stack.pop()

    # -- spans around wrapped program calls --------------------------------

    def wrap(self, fn, name: str, probe=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(self, args, kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def enable(self, on: bool) -> None:
        """Wrap the targets (on) or put the originals back (off)."""
        if on and not self._restore:
            for owner, attr, name, probe in self.targets:
                orig = getattr(owner, attr)
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, probe))
        elif not on:
            for owner, attr, orig in reversed(self._restore):
                setattr(owner, attr, orig)
            self._restore.clear()

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, op (the index
        of the frame or training step it served, -1 for none)."""
        a = self.analyse()
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": a.op_of[i]}) + "\n")

    def analyse(self) -> "Analysis":
        return Analysis(self.spans, self.op_name, self.serving)


class Analysis:
    """Per-name call statistics and per-operation self times.

    op_name names the operation spans (frames or training steps); calls
    made under a root span named in `serving` (such as the pose-stream
    writer) are counted towards the operations they serve.
    """

    def __init__(self, spans, op_name: str, serving: tuple[str, ...] = ()):
        self.op_name = op_name
        n = len(spans)
        child = [0.0] * n
        root = list(range(n))
        for i, (_, s, e, p) in enumerate(spans):
            if p >= 0:  # parents are appended before their children
                child[p] += e - s
                root[i] = root[p]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.op_of = [-1] * n
        self.op_self_total: dict[str, float] = defaultdict(float)
        self.op_calls: dict[str, int] = defaultdict(int)
        self.serving_calls: dict[str, int] = defaultdict(int)
        op_index = {}
        for i, (name, s, e, p) in enumerate(spans):
            d = e - s
            self.durations[name].append(d)
            self.self_times[name].append(d - child[i])
            r = root[i]
            rname = spans[r][0]
            if rname == op_name:
                if r not in op_index:
                    op_index[r] = len(op_index)
                self.op_of[i] = op_index[r]
                self.op_self_total[name] += d - child[i]
                self.op_calls[name] += 1
            elif rname in serving:
                self.serving_calls[name] += 1
        self.n_ops = len(op_index)
        self.op_durations = [spans[r][2] - spans[r][1] for r in op_index]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def mean_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def p50_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return 1e3 * statistics.median(d) if d else 0.0

    def mean_self_ms(self, name: str) -> float:
        d = self.self_times.get(name)
        return 1e3 * sum(d) / len(d) if d else 0.0

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.durations.get(name, ()))

    def per_op(self, name: str, served: int = 0) -> float:
        """Calls per operation: calls under operation spans per traced
        operation, plus calls under serving spans per operation served
        (`served` counts them; serving spans also cover untraced ones)."""
        per = self.op_calls.get(name, 0) / self.n_ops if self.n_ops else 0.0
        return per + (self.serving_calls.get(name, 0) / served if served else 0.0)

    def unattributed_share(self) -> float:
        """Share of operation time outside every wrapped call."""
        total = sum(self.op_durations)
        return self.op_self_total.get(self.op_name, 0.0) / total if total else 0.0

    def blocking_path(self) -> list[tuple[str, float]]:
        """(name, mean self ms per operation), largest first; the entries
        sum to the mean traced operation time."""
        if not self.n_ops:
            return []
        rows = [(name, 1e3 * t / self.n_ops) for name, t in self.op_self_total.items()]
        return sorted(rows, key=lambda r: -r[1])

