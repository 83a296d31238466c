"""In-memory tracer for the benchmark's traced run.

The tracer wraps public vmptrace functions at their module attributes, so a
call made through a module global (``stats`` calling ``dc_population``,
``read_trace_file`` calling ``read_trace``) passes through the wrapper too.
Nothing in ``src/`` knows about it. Wrappers come in three kinds:

* ``SPAN``: timed, and every call is kept as a span record
  ``(op, span_id, parent_id, name, start, end)``.
* ``TALLY``: timed like a span but not kept as a record. Used for leaves
  called tens of thousands of times per op, where one record per call would
  cost more memory than the op itself.
* ``COUNT``: calls counted, no clock read. Used for the hottest leaves
  (``SplitMix64.next_u64``, ``as_quantity``), where even a clock read per
  call would distort the layers around them.

Every timed call adds its duration to the enclosing timed call's child time,
so ``self_s`` of a layer is its duration minus what its timed children
cover. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

SPAN = "span"
TALLY = "tally"
COUNT = "count"

# (module, attribute path, layer name, kind). Functions called through more
# than one module's globals are listed once per module under one layer name.
TARGETS = (
    ("vmptrace.rng", "SplitMix64.next_u64", "rng.draws", COUNT),
    ("vmptrace.generator", "derive_stream", "rng.derive_stream", COUNT),
    ("vmptrace.generator", "generate", "generator.generate", SPAN),
    ("vmptrace.generator", "sample_service", "generator.sample_service", SPAN),
    ("vmptrace.generator", "evolve_horizontal", "generator.evolve_horizontal", COUNT),
    ("vmptrace.generator", "evolve_vertical", "generator.evolve_vertical", TALLY),
    ("vmptrace.generator", "evolve_utilization", "generator.evolve_utilization", TALLY),
    ("vmptrace.model", "as_quantity", "model.as_quantity", COUNT),
    ("vmptrace.traceio", "quantity_text", "model.quantity_text", TALLY),
    ("vmptrace.analysis", "quantity_text", "model.quantity_text", TALLY),
    ("vmptrace.analysis", "dc_population", "model.dc_population", SPAN),
    ("vmptrace.traceio", "write_trace_file", "traceio.write_trace_file", SPAN),
    ("vmptrace.traceio", "trace_to_lines", "traceio.trace_to_lines", SPAN),
    ("vmptrace.traceio", "read_trace_file", "traceio.read_trace_file", SPAN),
    ("vmptrace.traceio", "read_trace", "traceio.read_trace", SPAN),
    ("vmptrace.traceio", "canonicalize", "traceio.canonicalize", SPAN),
    ("vmptrace.traceio", "trace_to_csv_text", "traceio.trace_to_csv_text", SPAN),
    ("vmptrace.analysis", "validate", "analysis.validate", SPAN),
    ("vmptrace.analysis", "classify", "analysis.classify", SPAN),
    ("vmptrace.analysis", "stats", "analysis.stats", SPAN),
)


class Tracer:
    """Collects spans and per-layer totals, one table per op id."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.layers: dict[int, dict[str, list]] = {}
        self._stack: list[list] = []
        self._table: dict[str, list] = {}
        self._op = 0
        self._next_span = 0

    def layer(self, op: int, name: str) -> tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of one layer in one op; zeros if never entered."""
        return tuple(self.layers.get(op, {}).get(name, (0, 0.0, 0.0)))

    @contextmanager
    def op(self, op: int):
        """Install the wrappers, run one op under id ``op``, then remove them."""
        self._op = op
        self._table = self.layers.setdefault(op, {})
        restore = []
        try:
            for module_name, path, name, kind in TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr, None)
                if original is None:
                    continue  # a later version may drop a function; its layer then reads zero
                wrapped = self._count(name, original) if kind == COUNT else self._timed(name, original, kind == SPAN)
                setattr(owner, attr, wrapped)
                restore.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)
            self._stack.clear()

    def _entry(self, name: str) -> list:
        entry = self._table.get(name)
        if entry is None:
            entry = self._table[name] = [0, 0.0, 0.0]
        return entry

    def _count(self, name, fn):
        def counted(*args, **kwargs):
            self._entry(name)[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, name, fn, record: bool):
        clock = time.perf_counter
        stack = self._stack

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent else None
            if record:
                self._next_span += 1
                span_id = self._next_span
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                entry = self._entry(name)
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if record:
                    self.spans.append((self._op, span_id, parent_span, name, start, end))

        return timed

    def top_level_s(self, op: int) -> float:
        """Summed duration of the op's spans that have no parent."""
        return sum(end - start for o, _, parent, _, start, end in self.spans if o == op and parent is None)

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as sink:
            for op, span_id, parent, name, start, end in self.spans:
                sink.write(
                    json.dumps({"op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end})
                    + "\n"
                )
