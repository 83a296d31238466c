"""Tests of the benchmark itself: each workload at a tiny horizon through the
same loop and gate the timed runs use, and the gate's refusals."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_vmptrace()

import pipeline  # noqa: E402
from tracing import Tracer  # noqa: E402
from vmptrace import generator, traceio  # noqa: E402

SEED = 7
TINY = {"horizon": 12}


def _setup(name, tmp_path):
    workload = pipeline.WORKLOADS[name]
    config = pipeline.load_config(workload, SEED, **TINY)
    return workload, config, tmp_path / "doc.vmpt.jsonl"


def _pin(monkeypatch, workload, sha):
    monkeypatch.setitem(pipeline.PINS, "seed", SEED)
    monkeypatch.setitem(pipeline.PINS, "sha256", {workload.config: sha})


def _clean_sha(config):
    return hashlib.sha256(traceio.trace_to_bytes(generator.generate(config))).hexdigest()


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_each_workload_passes_the_gate_untraced_and_traced(name, tmp_path):
    workload, config, doc_path = _setup(name, tmp_path)
    tracer = Tracer()
    passed, attempted, failed = run.measure(pipeline, workload, config, doc_path, 0, tracer)
    assert (attempted, failed) == (2, 0)
    assert [traced for _, traced, _ in passed] == [False, True]
    traced_op = passed[1][0]
    assert tracer.layer(traced_op, "analysis.stats")[0] == 1
    assert tracer.layer(traced_op, "model.dc_population")[0] == config.num_datacenters * config.horizon
    assert all(parent is None or parent > 0 for _, _, parent, *_ in tracer.spans)


def test_per_layer_and_end_to_end_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in spec["end_to_end"])
    assert spec["command"][1] == "perfbench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(pipeline.WORKLOADS)

    workload, config, doc_path = _setup("audit_00", tmp_path)
    tracer = Tracer()
    passed, _, _ = run.measure(pipeline, workload, config, doc_path, 0, tracer)
    traced = [(op, r) for op, is_traced, r in passed if is_traced]
    untraced = [r for _, is_traced, r in passed if not is_traced]
    metrics = run.per_layer(tracer, traced, untraced)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(name, unit) for name, (_, unit) in metrics.items()]
    assert metrics["rng.draws"][0] > 0
    assert metrics["analysis.validate.violations"][0] > 0


def test_wrong_pinned_sha_counts_the_op_as_failed(tmp_path, monkeypatch, capsys):
    workload, config, doc_path = _setup("dense_33", tmp_path)
    _pin(monkeypatch, workload, "0" * 64)
    passed, attempted, failed = run.measure(pipeline, workload, config, doc_path, 0)
    assert (passed, attempted, failed) == ([], 1, 1)
    assert "sha256" in capsys.readouterr().err


def _flip_seed_on_write(monkeypatch):
    write = traceio.write_trace_file

    def write_then_flip(trace, path):
        written = write(trace, path)
        # the header's seed is provenance only: the flipped document still
        # reads, validates, classifies and round-trips, so only the sha sees it
        Path(path).write_bytes(Path(path).read_bytes().replace(b'"seed":7', b'"seed":8', 1))
        return written

    monkeypatch.setattr(traceio, "write_trace_file", write_then_flip)


def test_flipped_document_byte_counts_the_op_as_failed(tmp_path, monkeypatch, capsys):
    workload, config, doc_path = _setup("churn_10", tmp_path)
    _pin(monkeypatch, workload, _clean_sha(config))
    _flip_seed_on_write(monkeypatch)
    passed, attempted, failed = run.measure(pipeline, workload, config, doc_path, 0)
    assert (passed, attempted, failed) == ([], 1, 1)
    assert "sha256" in capsys.readouterr().err


def test_without_a_pin_every_op_must_reproduce_the_first(tmp_path, monkeypatch):
    workload, config, doc_path = _setup("audit_00", tmp_path)
    gate = pipeline.Gate.for_run(workload, config)
    result, outputs = pipeline.run_op(workload, config, doc_path)
    assert gate.check(doc_path, result, outputs) == []
    _flip_seed_on_write(monkeypatch)
    result, outputs = pipeline.run_op(workload, config, doc_path)
    assert any("sha256" in problem for problem in gate.check(doc_path, result, outputs))


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense_33", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
