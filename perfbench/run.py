#!/usr/bin/env python3
"""Benchmark of the vmptrace pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense_33 --seed 1 --seconds 30 --trace 0

The benchmark imports vmptrace from the checkout's ``src/`` (nothing is
installed), makes its input from the workload's config and ``--seed``, and
runs ops in a closed loop with one caller for ``--seconds`` seconds. Every
op passes the correctness gate in ``pipeline.py`` before its timings count.
With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics, and writes the spans under ``.bench_build/perfbench/``.
Set-up (import vmptrace and build the config) runs in fresh child
processes, so each set-up pays the cold import a user pays.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
# the keys of pipeline.WORKLOADS, which cannot be imported before src/ is checked
WORKLOAD_NAMES = ("dense_33", "churn_10", "audit_00")
SETUPS = 5  # set-ups per run; setup_s is their median
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "pipeline_samples_per_s": "samples/s",
    "produce_samples_per_s": "samples/s",
    "consume_samples_per_s": "samples/s",
    "read_mb_per_s": "MB/s",
    "peak_rss_kb_per_sample": "KiB/sample",
    "setup_s": "s",
}

CALLS, TOTAL, SELF = 0, 1, 2
# (metric, tracer layer, field of Tracer.layer)
LAYER_METRICS = (
    ("rng.derive_stream.calls", "rng.derive_stream", CALLS),
    ("rng.draws", "rng.draws", CALLS),
    ("generator.generate.self_s", "generator.generate", SELF),
    ("generator.sample_service.calls", "generator.sample_service", CALLS),
    ("generator.sample_service.s", "generator.sample_service", TOTAL),
    ("generator.evolve_horizontal.calls", "generator.evolve_horizontal", CALLS),
    ("generator.evolve_vertical.calls", "generator.evolve_vertical", CALLS),
    ("generator.evolve_utilization.calls", "generator.evolve_utilization", CALLS),
    ("generator.evolve_utilization.s", "generator.evolve_utilization", TOTAL),
    ("traceio.write_trace_file.s", "traceio.write_trace_file", TOTAL),
    ("traceio.trace_to_lines.s", "traceio.trace_to_lines", TOTAL),
    ("model.as_quantity.calls", "model.as_quantity", CALLS),
    ("model.quantity_text.calls", "model.quantity_text", CALLS),
    ("model.quantity_text.s", "model.quantity_text", TOTAL),
    ("model.dc_population.calls", "model.dc_population", CALLS),
    ("model.dc_population.s", "model.dc_population", TOTAL),
    ("traceio.read_trace.s", "traceio.read_trace", TOTAL),
    ("traceio.canonicalize.calls", "traceio.canonicalize", CALLS),
    ("traceio.canonicalize.s", "traceio.canonicalize", TOTAL),
    ("analysis.validate.s", "analysis.validate", TOTAL),
    ("analysis.classify.s", "analysis.classify", TOTAL),
    ("analysis.stats.s", "analysis.stats", TOTAL),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="run one set-up in this process and print its timing")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    return args


def import_vmptrace():
    """Import vmptrace from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import vmptrace

    origin = Path(vmptrace.__file__).resolve().parent
    if origin != SRC.resolve() / "vmptrace":
        raise SystemExit(f"vmptrace imported from {origin}, expected {SRC / 'vmptrace'}")
    return vmptrace


def setup_only(args) -> int:
    """Child process body: one timed set-up, reported as a JSON line."""
    start = time.perf_counter()
    import_vmptrace()
    import pipeline

    pipeline.load_config(pipeline.WORKLOADS[args.workload], args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def run_setups(args) -> list[float]:
    timings = []
    for _ in range(SETUPS):
        command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed with exit code {proc.returncode}:\n{proc.stderr}")
        timings.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return timings


def measure(pipeline, workload, config, doc_path, seconds, tracer=None):
    """Closed loop for about ``seconds``; with a tracer, untraced and traced ops alternate.

    Returns (passed, attempted, failed) where passed holds (op_id, traced,
    result) for every op whose outputs passed the gate.
    """
    gate = pipeline.Gate.for_run(workload, config)
    passed, attempted, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    op_id = 0
    while True:
        started = time.perf_counter()
        for traced in (False, True) if tracer else (False,):
            op_id += 1
            attempted += 1
            outputs = None
            try:
                with tracer.op(op_id) if traced else nullcontext():
                    result, outputs = pipeline.run_op(workload, config, doc_path)
                problems = gate.check(doc_path, result, outputs)
            except Exception as exc:  # any failure of an op is counted, never timed
                problems = [f"{type(exc).__name__}: {exc}"]
            del outputs
            if problems:
                failed += 1
                print(f"op {op_id} failed: {'; '.join(problems)}", file=sys.stderr)
            else:
                passed.append((op_id, traced, result))
        now = time.perf_counter()
        # stop when another round like the last would end past the deadline
        if now + (now - started) > deadline:
            return passed, attempted, failed


def end_to_end(results, setups, rss_growth_kib):
    median = statistics.median
    return {
        "pipeline_samples_per_s": median(r.samples / r.wall_s for r in results),
        "produce_samples_per_s": median(r.samples / r.produce_s for r in results),
        "consume_samples_per_s": median(r.samples / r.consume_s for r in results),
        "read_mb_per_s": median(r.doc_bytes / 1e6 / r.read_s for r in results),
        "peak_rss_kb_per_sample": rss_growth_kib / results[0].samples,
        "setup_s": median(setups),
    }


def per_layer(tracer, traced, untraced):
    """Per-op medians of the traced ops' layer totals, plus counts of the input."""
    median = statistics.median
    metrics = {}
    for name, layer, index in LAYER_METRICS:
        unit = "count" if index == CALLS else "s"
        metrics[name] = (median(tracer.layer(op, layer)[index] for op, _ in traced), unit)
    results = [r for _, r in traced]
    untraced_wall = median(r.wall_s for r in untraced)
    last = results[-1]
    metrics.update(
        {
            "analysis.validate.violations": (last.violations, "count"),
            "analysis.stats.cells": (last.cells, "count"),
            "model.dc_population.share": (metrics["model.dc_population.s"][0] / untraced_wall, "ratio"),
            "trace.samples": (last.samples, "count"),
            "trace.vms": (last.vms, "count"),
            "trace.events": (last.events, "count"),
            "trace.doc_bytes": (last.doc_bytes, "B"),
            "trace.overhead_ratio": (median(r.wall_s for r in results) / untraced_wall, "ratio"),
            "trace.span_coverage": (median(tracer.top_level_s(op) / r.wall_s for op, r in traced), "ratio"),
            "repo.src_lines": (src_lines(), "lines"),
            "host.nproc": (os.cpu_count(), "count"),
            "host.python": (sys.version_info.major * 100 + sys.version_info.minor, "version"),
        }
    )
    return metrics


def src_lines() -> int:
    return sum(len(path.read_bytes().splitlines()) for path in sorted(SRC.rglob("*.py")))


def print_layer_table(tracer, traced_ops):
    """Every traced layer, median per traced op, for reading by eye."""
    names = sorted({name for op in traced_ops for name in tracer.layers.get(op, {})})
    print(f"{'layer':36} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name in names:
        calls, total, self_s = (statistics.median(tracer.layer(op, name)[i] for op in traced_ops) for i in range(3))
        print(f"{name:36} {calls:10.0f} {total:10.4f} {self_s:10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "vmptrace" / "__init__.py").is_file():
        print(f"error: no vmptrace sources at {SRC}; run from the root of a vmptrace checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)

    WORK.mkdir(parents=True, exist_ok=True)
    doc_path = WORK / f"{args.workload}-{args.seed}-{os.getpid()}.vmpt.jsonl"
    try:
        return run(args, doc_path)
    finally:
        doc_path.unlink(missing_ok=True)


def run(args, doc_path) -> int:
    setups = [] if args.trace else run_setups(args)
    import_vmptrace()
    import pipeline
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    workload = pipeline.WORKLOADS[args.workload]
    config = pipeline.load_config(workload, args.seed)

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passed, attempted, failed = measure(pipeline, workload, config, doc_path, args.seconds, tracer)
    rss_growth_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before

    untraced = [r for _, traced, r in passed if not traced]
    traced = [(op, r) for op, is_traced, r in passed if is_traced]
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
          f"(failed_op_share {failed / attempted:.4f}); python {sys.version.split()[0]}, nproc {os.cpu_count()}")
    metrics = {}
    if untraced and (traced or not tracer):
        if tracer:
            print_layer_table(tracer, [op for op, _ in traced])
            metrics = per_layer(tracer, traced, untraced)
            tracer.dump(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            values = end_to_end(untraced, setups, rss_growth_kib)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
