"""One benchmark op and the correctness gate it must pass before it is timed.

An op is the closed-loop unit of work: one caller, one thread, and the next
op starts only after this one has returned and been checked. Every op runs
generate -> write file -> read file -> validate -> classify -> stats;
``audit_00`` validates against (0,0) instead of the header's environment and
adds CSV rendering. Every vmptrace call goes through its module attribute
(``traceio.read_trace_file``, not a name bound at import), so the tracer in
``tracing.py`` can wrap it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from vmptrace import analysis, environments, generator, traceio

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file name under workloads/
    declared: tuple[int, int] | None = None  # validate against this environment instead of the header's
    arrival_as_horizontal: bool = False
    csv: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense_33", "dense_33.json"),
        Workload("churn_10", "churn_10.json"),
        Workload("audit_00", "dense_33.json", declared=(0, 0), arrival_as_horizontal=True, csv=True),
    )
}


def load_config(workload: Workload, seed: int, **overrides):
    """The workload's generator config with the benchmark's seed applied."""
    data = json.loads((HERE / "workloads" / workload.config).read_text(encoding="utf-8"))
    data.update(overrides, seed=seed)
    return generator.config_from_dict(data)


@dataclass
class OpResult:
    samples: int
    vms: int
    events: int
    violations: int
    cells: int
    wall_s: float
    produce_s: float
    read_s: float
    consume_s: float
    doc_bytes: int = 0  # set by the gate, which reads the document back


def run_op(workload: Workload, config, doc_path):
    """Run one op; returns its timings and the outputs the gate checks."""
    declared = environments.env_from_coords(*workload.declared) if workload.declared else None
    clock = time.perf_counter
    start = clock()
    traceio.write_trace_file(generator.generate(config), doc_path)
    produced = clock()
    trace = traceio.read_trace_file(doc_path)
    read = clock()
    report = analysis.validate(trace, analysis.MODE_STRICT, declared)
    env = analysis.classify(trace, arrival_as_horizontal=workload.arrival_as_horizontal)
    series = analysis.stats(trace)
    csv_text = traceio.trace_to_csv_text(trace) if workload.csv else None
    end = clock()
    result = OpResult(
        samples=len(trace.samples),
        vms=len(trace.descriptors),
        events=len(trace.events),
        violations=len(report.violations),
        cells=len(series.rows),
        wall_s=end - start,
        produce_s=produced - start,
        read_s=read - produced,
        consume_s=end - produced,
    )
    return result, (trace, report, env, series, csv_text)


@dataclass
class Gate:
    """Checks on an op's outputs. References are fixed by the first op of a
    run, so every later op must reproduce it exactly; pins from ``pins.json``
    fix them across commits at the pinned seed."""

    workload: Workload
    config: object
    sha256: str | None = None
    violations: int | None = None

    @classmethod
    def for_run(cls, workload: Workload, config) -> "Gate":
        gate = cls(workload, config)
        if config.seed == PINS["seed"]:
            gate.sha256 = PINS["sha256"][workload.config]
            gate.violations = PINS["violations"].get(workload.name)
        return gate

    def check(self, doc_path, result: OpResult, outputs) -> list[str]:
        """Problems found in one op's outputs; empty when the op passes."""
        trace, report, env, series, csv_text = outputs
        problems = []
        doc = Path(doc_path).read_bytes()
        result.doc_bytes = len(doc)
        sha = hashlib.sha256(doc).hexdigest()
        if self.sha256 is None:
            self.sha256 = sha
        elif sha != self.sha256:
            problems.append(f"document sha256 {sha} != {self.sha256}")
        if traceio.trace_to_bytes(trace) != doc:
            problems.append("trace_to_bytes(read_trace(doc)) != doc")
        if self.workload.declared is None:
            if not report.ok:
                problems.append(f"strict validation found {len(report.violations)} violation(s)")
        else:
            if self.violations is None:
                self.violations = len(report.violations)
            elif len(report.violations) != self.violations:
                problems.append(f"{len(report.violations)} violation(s), expected {self.violations}")
            if not report.violations or any(not v.rule.startswith("env.") for v in report.violations):
                problems.append("expected only environment-conformance violations, and at least one")
        if env != self.config.environment:
            problems.append(f"classify gave {env}, expected {self.config.environment}")
        problems.extend(_stats_problems(trace, series))
        if csv_text is not None:
            rows = csv_text.split("\n")
            if rows[0] != ",".join(traceio.CSV_COLUMNS) or len(rows) != len(trace.samples) + 2 or rows[-1] != "":
                problems.append("CSV does not hold one header row and one row per sample")
        return problems


def _stats_problems(trace, series) -> list[str]:
    """Compare every stats row with sums taken directly over the samples."""
    expected: dict[tuple[int, int], list] = {}
    for s in trace.samples:
        cell = expected.setdefault((s.dc_id, s.t), [0, Decimal(0), Decimal(0), Decimal(0), Decimal(0), Decimal(0), Decimal(0)])
        cell[0] += 1
        for i, value in enumerate((s.spec.vcpu, s.spec.vram, s.spec.vnet, s.util.ucpu, s.util.uram, s.util.unet), 1):
            cell[i] += value
    header = trace.header
    if len(series.rows) != header.num_datacenters * header.horizon:
        return [f"stats has {len(series.rows)} rows, expected {header.num_datacenters * header.horizon}"]
    empty = [0] + [Decimal(0)] * 6
    for row in series.rows:
        got = [row.vm_count, row.vcpu, row.vram, row.vnet, row.ucpu, row.uram, row.unet]
        if got != expected.get((row.dc_id, row.t), empty):
            return [f"stats row (dc={row.dc_id}, t={row.t}) disagrees with the sample sums"]
    return []
