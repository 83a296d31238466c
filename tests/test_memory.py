"""Peak memory of the writer, the reader and the conformance report, measured
with tracemalloc on the benchmark's full-size workloads at seed 1 and held to
bounds relative to what each produces."""

from __future__ import annotations

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from vmptrace.analysis import MODE_STRICT, validate
from vmptrace.environments import env_from_coords
from vmptrace.generator import config_from_dict, generate
from vmptrace.traceio import read_trace, trace_to_bytes, write_trace

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.fixture(scope="module", params=["dense_33", "churn_10"])
def generated(request):
    data = json.loads((WORKLOADS / f"{request.param}.json").read_text(encoding="utf-8"))
    trace = generate(config_from_dict({**data, "seed": 1}))
    return trace, trace_to_bytes(trace)


def _traced(call):
    """``call()``'s result, its peak of traced memory above what was traced
    before it, and the traced memory it leaves held."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - before, current - before


class _CountingSink:
    written = 0

    def write(self, data):
        self.written += len(data)


def test_trace_to_bytes_holds_no_list_of_every_line(generated):
    trace, document = generated
    rendered, peak, _ = _traced(lambda: trace_to_bytes(trace))
    assert rendered == document
    assert peak <= 2.5 * len(document)


def test_read_trace_holds_one_line_at_a_time(generated):
    trace, document = generated
    read, peak, _ = _traced(lambda: read_trace(document))
    assert read == trace
    assert peak <= 4.0 * len(document)


def test_write_trace_writes_its_lines_as_they_are_rendered(generated):
    trace, document = generated
    sink = _CountingSink()
    written, peak, _ = _traced(lambda: write_trace(trace, sink))
    assert written == sink.written == len(document)
    assert peak <= 1.0 * len(document)


def test_an_audit_report_shares_its_messages():
    data = json.loads((WORKLOADS / "dense_33.json").read_text(encoding="utf-8"))
    trace = generate(config_from_dict({**data, "seed": 1}))
    declared = env_from_coords(0, 0)
    # the first call caches the trace's observation pass, which is not the report's
    validate(trace, MODE_STRICT, declared)
    report, _, held = _traced(lambda: validate(trace, MODE_STRICT, declared))
    assert len(report.violations) == 62031
    assert held / len(report.violations) <= 230
