"""End-to-end acceptance checks.

Every test here prints exactly one machine-greppable PASS/FAIL line (visible
with ``pytest -s`` or in captured output). The expected figure tables are
transcribed independently in this file rather than imported, so a fixture
regression cannot hide itself.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time
from decimal import Decimal

from vmptrace.analysis import classify, stats, validate
from vmptrace.environments import enumerate_environments, env_from_coords
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import (
    ArrivalModel,
    GeneratorConfig,
    HorizontalPolicy,
    ServiceShape,
    SizingRanges,
    UtilizationPolicy,
    VerticalPolicy,
    generate,
)
from vmptrace.model import (
    EventKind,
    ResourceSpec,
    Trace,
    TraceEvent,
    UtilizationSample,
    VmDescriptor,
    VmSample,
    full_utilization,
)
from vmptrace.rng import SplitMix64
from vmptrace.traceio import read_trace, trace_to_bytes


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {verdict}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# --- criterion 1: every numeric cell of the four published example tables ---
#
# Scalars denote a constant series over the VM's span; tuples list one value
# per alive tick. Transcribed by hand from the published figures.

EXAMPLE_TABLES = {
    "0,1": {
        "events": (
            (0, EventKind.SERVICE_ARRIVAL, 1),
            (4, EventKind.SERVICE_DEPARTURE, 1),
        ),
        "series": {
            (1, 1, 1): dict(span=(0, 4), vcpu=8, vram=16, vnet=150,
                            ucpu=(8, 9, 10, 12), uram=(16, 18, 22, 26), unet=150),
            (1, 1, 2): dict(span=(0, 4), vcpu=5, vram=12, vnet=50,
                            ucpu=(5, 5, 7, 7), uram=(12, 13, 16, 20), unet=50),
            (1, 2, 1): dict(span=(0, 4), vcpu=5, vram=12, vnet=50,
                            ucpu=(5, 4, 4, 5), uram=(12, 10, 10, 9), unet=50),
            (1, 2, 2): dict(span=(0, 4), vcpu=9, vram=18, vnet=170,
                            ucpu=(9, 12, 14, 13), uram=(18, 20, 22, 25), unet=170),
        },
    },
    "0,2": {
        "events": (
            (0, EventKind.SERVICE_ARRIVAL, 1),
            (4, EventKind.SERVICE_DEPARTURE, 1),
        ),
        "series": {
            (1, 1, 1): dict(span=(0, 4), vcpu=8, vram=16, vnet=150,
                            ucpu=8, uram=16, unet=(150, 170, 180, 200)),
            (1, 1, 2): dict(span=(0, 4), vcpu=5, vram=12, vnet=50,
                            ucpu=5, uram=12, unet=(50, 60, 40, 0)),
            (1, 2, 1): dict(span=(0, 4), vcpu=5, vram=12, vnet=50,
                            ucpu=5, uram=12, unet=(50, 100, 150, 170)),
            (1, 2, 2): dict(span=(0, 4), vcpu=9, vram=18, vnet=150,
                            ucpu=9, uram=18, unet=(150, 200, 350, 800)),
        },
    },
    "1,0": {
        "events": (
            (0, EventKind.SERVICE_ARRIVAL, 1),
            (2, EventKind.SERVICE_ARRIVAL, 2),
            (4, EventKind.SERVICE_DEPARTURE, 1),
            (5, EventKind.SERVICE_DEPARTURE, 2),
        ),
        "series": {
            (1, 1, 1): dict(span=(0, 4), vcpu=8, vram=16, vnet=150, ucpu=8, uram=16, unet=150),
            (1, 1, 2): dict(span=(0, 4), vcpu=5, vram=12, vnet=50, ucpu=5, uram=12, unet=50),
            (1, 2, 1): dict(span=(0, 4), vcpu=5, vram=12, vnet=50, ucpu=5, uram=12, unet=50),
            (1, 2, 2): dict(span=(0, 4), vcpu=9, vram=18, vnet=170, ucpu=9, uram=18, unet=170),
            (2, 1, 3): dict(span=(2, 5), vcpu=2, vram=10, vnet=60, ucpu=2, uram=10, unet=60),
            (2, 2, 3): dict(span=(2, 5), vcpu=8, vram=20, vnet=120, ucpu=8, uram=20, unet=120),
        },
    },
    "2,0": {
        "events": (
            (0, EventKind.SERVICE_ARRIVAL, 1),
            (4, EventKind.SERVICE_DEPARTURE, 1),
        ),
        "series": {
            (1, 1, 1): dict(span=(0, 4), vcpu=(8, 9, 9, 11), vram=(16, 22, 23, 25),
                            vnet=150, ucpu=8, uram=16, unet=150),
            (1, 1, 2): dict(span=(0, 4), vcpu=(5, 6, 6, 5), vram=(12, 15, 15, 16),
                            vnet=50, ucpu=5, uram=12, unet=50),
            (1, 2, 1): dict(span=(0, 4), vcpu=(5, 6, 6, 7), vram=(12, 18, 18, 20),
                            vnet=50, ucpu=5, uram=12, unet=50),
            (1, 2, 2): dict(span=(0, 4), vcpu=(9, 6, 6, 5), vram=(18, 10, 10, 12),
                            vnet=170, ucpu=9, uram=18, unet=170),
        },
    },
}


def _expected_cell(values, offset: int) -> Decimal:
    if isinstance(values, tuple):
        return Decimal(values[offset])
    return Decimal(values)


def test_criterion_1_fixture_fidelity():
    started = time.perf_counter()
    cells = 0
    mismatches = []
    for cli_id, expected in EXAMPLE_TABLES.items():
        trace = fixture_trace(FixtureId(cli_id))
        recorded_events = tuple((e.t, e.kind, e.service_id) for e in trace.events)
        if recorded_events != expected["events"]:
            mismatches.append(f"{cli_id}: events {recorded_events}")
        samples = {(s.service_id, s.dc_id, s.vm_index, s.t): s for s in trace.samples}
        expected_count = sum(
            entry["span"][1] - entry["span"][0] for entry in expected["series"].values()
        )
        if len(trace.samples) != expected_count:
            mismatches.append(f"{cli_id}: {len(trace.samples)} samples, expected {expected_count}")
        for (b, c, j), entry in expected["series"].items():
            start, end = entry["span"]
            descriptor = trace.descriptor_map().get((b, c, j))
            if descriptor is None or (descriptor.t_init, descriptor.t_end) != (start, end):
                mismatches.append(f"{cli_id}: span of ({b},{c},{j})")
                continue
            for t in range(start, end):
                sample = samples.get((b, c, j, t))
                if sample is None:
                    mismatches.append(f"{cli_id}: missing sample ({b},{c},{j}) t={t}")
                    continue
                actual = {
                    "vcpu": sample.spec.vcpu,
                    "vram": sample.spec.vram,
                    "vnet": sample.spec.vnet,
                    "ucpu": sample.util.ucpu,
                    "uram": sample.util.uram,
                    "unet": sample.util.unet,
                }
                for field in ("vcpu", "vram", "vnet", "ucpu", "uram", "unet"):
                    cells += 1
                    want = _expected_cell(entry[field], t - start)
                    if actual[field] != want:
                        mismatches.append(
                            f"{cli_id}: ({b},{c},{j}) t={t} {field}={actual[field]} want {want}"
                        )
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 1.0
    summary = f"{cells} table cells across 4 examples reproduced exactly in {elapsed:.2f}s"
    if mismatches:
        summary = f"{len(mismatches)} mismatched cells, first: {mismatches[0]}"
    elif elapsed >= 1.0:
        summary = f"tables match but took {elapsed:.2f}s (limit 1s)"
    _report(1, ok, summary)


def test_criterion_2_classification_round_trip():
    started = time.perf_counter()
    hits = 0
    total = 0
    first_miss = ""
    for env in enumerate_environments():
        for seed in range(10):
            total += 1
            config = GeneratorConfig(
                env, seed=seed, horizon=50, num_datacenters=3, guarantee_dynamics=True
            )
            observed = classify(generate(config))
            if observed == env:
                hits += 1
            elif not first_miss:
                first_miss = f"env {env} seed {seed} classified {observed}"
    elapsed = time.perf_counter() - started
    ok = hits == total and elapsed < 10.0
    detail = f"{hits}/{total} environments recovered in {elapsed:.2f}s"
    if first_miss:
        detail += f"; first miss: {first_miss}"
    _report(2, ok, detail)


def test_criterion_3_fixture_classification():
    expectations = [
        (classify(fixture_trace(FixtureId.ENV_0_1)), env_from_coords(0, 1), "example 1"),
        (classify(fixture_trace(FixtureId.ENV_0_2)), env_from_coords(0, 2), "example 2"),
        (
            classify(fixture_trace(FixtureId.ENV_1_0), arrival_as_horizontal=True),
            env_from_coords(1, 0),
            "example 3 with the arrival flag",
        ),
        (
            classify(fixture_trace(FixtureId.ENV_1_0)),
            env_from_coords(0, 0),
            "example 3 without the arrival flag",
        ),
        (classify(fixture_trace(FixtureId.ENV_2_0)), env_from_coords(2, 1), "example 4"),
    ]
    misses = [
        f"{label}: got {got}, want {want}" for got, want, label in expectations if got != want
    ]
    _report(3, not misses, "; ".join(misses) or "all four examples classify as documented")


def test_criterion_4_determinism():
    config = GeneratorConfig(env_from_coords(1, 3), seed=21, horizon=25, num_datacenters=2)
    in_process = trace_to_bytes(generate(config))
    assert in_process == trace_to_bytes(generate(config))

    argv = [
        sys.executable,
        "-m",
        "vmptrace.cli",
        "generate",
        "--env",
        "1,3",
        "--seed",
        "21",
        "--horizon",
        "25",
        "--out",
        "-",
    ]
    first = subprocess.run(argv, capture_output=True, check=True).stdout
    second = subprocess.run(argv, capture_output=True, check=True).stdout
    ok = first == second == in_process
    _report(
        4,
        ok,
        f"{len(in_process)} bytes identical across two in-process builds "
        "and two separate processes",
    )


def _round_trip_configs() -> list[GeneratorConfig]:
    configs = []
    for env in enumerate_environments():
        for seed in range(12):
            configs.append(GeneratorConfig(env, seed=seed, horizon=12, num_datacenters=2))
    varied = GeneratorConfig(env_from_coords(3, 3), seed=99, horizon=15, num_datacenters=3)
    configs.extend(
        [
            dataclasses.replace(varied, arrival=ArrivalModel(rate=1.5, burst=True)),
            dataclasses.replace(varied, vertical_policy=VerticalPolicy(p_step=0.9, magnitude=(0.05, 0.5), vary_net=True, precision=2)),
            dataclasses.replace(varied, utilization_policy=UtilizationPolicy(allow_exceed_request=True)),
            dataclasses.replace(varied, sizing=SizingRanges(revenue=(0, 0), sla=(1, 3))),
            dataclasses.replace(varied, horizontal_policy=HorizontalPolicy(p_scale=0.8, min_vms=2, max_vms=6)),
            dataclasses.replace(varied, service_shape=ServiceShape(vms_per_dc=(2, 3), lifetime=(1, 3))),
            dataclasses.replace(varied, horizon=1),
            dataclasses.replace(varied, environment=env_from_coords(0, 0), guarantee_dynamics=True),
        ]
    )
    return configs


def test_criterion_5_serialization_round_trip():
    configs = _round_trip_configs()
    assert len(configs) == 200
    failures = []
    for index, config in enumerate(configs):
        trace = generate(config)
        if read_trace(trace_to_bytes(trace)) != trace:
            failures.append(f"config #{index} ({config.environment})")
    for fixture in FixtureId:
        document = trace_to_bytes(fixture_trace(fixture))
        if trace_to_bytes(read_trace(document)) != document:
            failures.append(f"fixture {fixture.value} document")
    detail = (
        "read(write(x)) == x for 200 generated traces and "
        "write(read(d)) == d for 4 example documents"
    )
    if failures:
        detail = f"{len(failures)} round-trip failures, first: {failures[0]}"
    _report(5, not failures, detail)


def _conformant_static_base() -> tuple[Trace, VmDescriptor, int]:
    trace = generate(GeneratorConfig(env_from_coords(0, 0), seed=3, horizon=8))
    host = trace.descriptors[0]
    assert host.t_end - host.t_init >= 3
    return trace, host, host.t_init + 1


def _mutate_spec(trace: Trace, host: VmDescriptor, tau: int) -> Trace:
    samples = []
    for sample in trace.samples:
        if sample.vm_key == host.key and sample.t >= tau:
            spec = ResourceSpec(sample.spec.vcpu + 1, sample.spec.vram, sample.spec.vnet)
            sample = dataclasses.replace(sample, spec=spec, util=full_utilization(spec))
        samples.append(sample)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def _mutate_membership(trace: Trace, host: VmDescriptor, tau: int) -> Trace:
    spec = ResourceSpec(2, 4, 10)
    newcomer = VmDescriptor(
        host.service_id, host.dc_id, 99, revenue=0, sla=1, t_init=tau, t_end=host.t_end
    )
    samples = sorted(
        list(trace.samples)
        + [
            VmSample(host.service_id, host.dc_id, 99, t, spec, full_utilization(spec))
            for t in range(tau, host.t_end)
        ],
        key=lambda s: s.sort_key,
    )
    events = sorted(
        list(trace.events)
        + [TraceEvent(tau, EventKind.VM_SCALE_OUT, host.service_id, dc_id=host.dc_id, vm_index=99)],
        key=lambda e: e.sort_key,
    )
    descriptors = tuple(list(trace.descriptors) + [newcomer])
    return Trace(trace.header, descriptors, tuple(events), tuple(samples))


def _mutate_utilization(trace: Trace, host: VmDescriptor, tau: int, component: str) -> Trace:
    samples = []
    for sample in trace.samples:
        if sample.vm_key == host.key and sample.t == tau:
            fields = {
                "ucpu": sample.util.ucpu,
                "uram": sample.util.uram,
                "unet": sample.util.unet,
            }
            fields[component] = fields[component] - 1
            sample = dataclasses.replace(sample, util=UtilizationSample(**fields))
        samples.append(sample)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def test_criterion_6_validator_mutation_suite():
    base, host, tau = _conformant_static_base()
    problems = []

    clean = validate(base, mode="strict")
    if not clean.ok:
        problems.append(f"false positive on the unmutated trace: {clean.violations[0].rule}")

    mutations = [
        ("env.no-vertical", _mutate_spec(base, host, tau), host.vm_index),
        ("env.no-horizontal", _mutate_membership(base, host, tau), 99),
        ("env.no-server-overbooking", _mutate_utilization(base, host, tau, "ucpu"), host.vm_index),
        ("env.no-network-overbooking", _mutate_utilization(base, host, tau, "unet"), host.vm_index),
    ]
    for rule, mutated, vm_index in mutations:
        report = validate(mutated, mode="strict")
        rules = {v.rule for v in report.violations}
        if rules != {rule}:
            problems.append(f"{rule}: reported {sorted(rules)}")
            continue
        cite = report.violations[0]
        where = (cite.t, cite.service_id, cite.dc_id, cite.vm_index)
        expected = (tau, host.service_id, host.dc_id, vm_index)
        if where != expected:
            problems.append(f"{rule}: cited {where}, injected at {expected}")

    detail = "; ".join(problems) or (
        "each of the four capability rules is reported exactly at its injected "
        "(t,b,c,j), with no false positives"
    )
    _report(6, not problems, detail)


def test_criterion_7_stats_oracle():
    problems = []
    checked = 0
    for fixture in FixtureId:
        trace = fixture_trace(fixture)
        totals: dict[tuple[int, int], dict[str, Decimal]] = {}
        counts: dict[tuple[int, int], int] = {}
        for line in trace_to_bytes(trace).decode("utf-8").splitlines():
            record = json.loads(line, parse_float=Decimal)
            if record.get("type") != "sample":
                continue
            cell = (record["dc"], record["t"])
            bucket = totals.setdefault(
                cell, {k: Decimal(0) for k in ("vcpu", "vram", "vnet", "ucpu", "uram", "unet")}
            )
            for field in bucket:
                bucket[field] += Decimal(record[field])
            counts[cell] = counts.get(cell, 0) + 1
        for row in stats(trace).rows:
            checked += 1
            cell = (row.dc_id, row.t)
            expected = totals.get(
                cell, {k: Decimal(0) for k in ("vcpu", "vram", "vnet", "ucpu", "uram", "unet")}
            )
            actual = {
                "vcpu": row.vcpu, "vram": row.vram, "vnet": row.vnet,
                "ucpu": row.ucpu, "uram": row.uram, "unet": row.unet,
            }
            if actual != expected or row.vm_count != counts.get(cell, 0):
                problems.append(f"{fixture.value} cell {cell}")
    spot = next(
        row for row in stats(fixture_trace(FixtureId.ENV_0_1)).rows if (row.dc_id, row.t) == (1, 0)
    )
    if spot.vcpu != Decimal(13):
        problems.append(f"spot total {spot.vcpu} != 13")
    detail = "; ".join(problems) or (
        f"{checked} per-(dc,t) rows across 4 examples match raw-line summation"
    )
    _report(7, not problems, detail)


def _random_config(rng: SplitMix64) -> GeneratorConfig:
    environments = enumerate_environments()
    env = environments[rng.randint(0, 15)]
    lifetime_low = rng.randint(1, 5)
    magnitude_low = rng.uniform(0.05, 0.5)

    def step_range() -> tuple[int, int]:
        low = rng.randint(0, 2)
        return (low, low + rng.randint(0, 5))

    vcpu_low = rng.randint(0, 4)
    vram_low = rng.randint(0, 8)
    vnet_low = rng.randint(0, 100)
    min_vms = rng.randint(1, 2)
    return GeneratorConfig(
        environment=env,
        horizon=rng.randint(1, 30),
        num_datacenters=rng.randint(1, 4),
        seed=rng.next_u64(),
        arrival=ArrivalModel(
            rate=rng.uniform(0.0, 1.0), force_first=rng.chance(0.7), burst=rng.chance(0.3)
        ),
        service_shape=ServiceShape(
            vms_per_dc=(1, rng.randint(1, 3)),
            lifetime=(lifetime_low, lifetime_low + rng.randint(0, 8)),
        ),
        sizing=SizingRanges(
            vcpu=(vcpu_low, vcpu_low + rng.randint(0, 12)),
            vram=(vram_low, vram_low + rng.randint(0, 56)),
            vnet=(vnet_low, vnet_low + rng.randint(0, 900)),
            revenue=(0, rng.randint(0, 500)),
            sla=(1, rng.randint(1, 3)),
        ),
        vertical_policy=VerticalPolicy(
            p_step=rng.uniform(0.0, 1.0),
            magnitude=(magnitude_low, magnitude_low + rng.uniform(0.0, 0.3)),
            vary_net=rng.chance(0.5),
            precision=rng.randint(0, 2),
        ),
        horizontal_policy=HorizontalPolicy(
            p_scale=rng.uniform(0.0, 1.0),
            min_vms=min_vms,
            max_vms=min_vms + rng.randint(1, 3),
        ),
        utilization_policy=UtilizationPolicy(
            cpu_step=step_range(),
            ram_step=step_range(),
            net_step=step_range(),
            allow_exceed_request=False,
        ),
        guarantee_dynamics=False,
    )


def test_criterion_8_capability_confinement():
    started = time.perf_counter()
    rng = SplitMix64(20260823)
    offending = 0
    first = ""
    samples_seen = 0
    for index in range(1000):
        config = _random_config(rng)
        trace = generate(config)
        samples_seen += len(trace.samples)
        report = validate(trace, mode="strict")
        conformance = [v for v in report.violations if v.rule.startswith("env.")]
        if conformance:
            offending += 1
            if not first:
                first = (
                    f"config #{index} env {config.environment}: "
                    f"[{conformance[0].rule}] {conformance[0].message}"
                )
    elapsed = time.perf_counter() - started
    ok = offending == 0 and elapsed < 60.0
    detail = (
        f"1000 randomized configs, {samples_seen} samples, "
        f"0 conformance violations in {elapsed:.2f}s"
    )
    if offending:
        detail = f"{offending} offending traces; first: {first}"
    elif elapsed >= 60.0:
        detail = f"confinement holds but took {elapsed:.2f}s (limit 60s)"
    _report(8, ok, detail)
