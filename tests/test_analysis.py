from __future__ import annotations

import dataclasses
import pickle
import random
import sys
import threading
from decimal import Decimal
from itertools import pairwise

import pytest
from hypothesis import assume, given, settings, strategies as st

from vmptrace import analysis
from vmptrace.analysis import (
    MODE_PAPER,
    MODE_STRICT,
    RULE_DC_RANGE,
    RULE_DENSE_SAMPLING,
    RULE_DUPLICATE_SAMPLE,
    RULE_EVENT_CONSISTENCY,
    RULE_HORIZON,
    RULE_LIFETIME,
    RULE_NO_HORIZONTAL,
    RULE_NO_NETWORK_OVERBOOKING,
    RULE_NO_SERVER_OVERBOOKING,
    RULE_NO_VERTICAL,
    RULE_OVERBOOKING_BOUND,
    RULE_SLA_RANGE,
    RULE_UNKNOWN_VM,
    Violation,
    classify,
    stats,
    validate,
)
from vmptrace.environments import (
    Capabilities,
    EnvironmentId,
    capabilities,
    enumerate_environments,
    env_from_capabilities,
    env_from_coords,
)
from vmptrace.errors import ConfigError, IntegrityError, ValidationError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import GeneratorConfig, generate
from vmptrace.model import (
    EventKind,
    ResourceSpec,
    Trace,
    TraceEvent,
    TraceHeader,
    UtilizationSample,
    VmDescriptor,
    VmSample,
    dc_population,
    full_utilization,
    quantity_text,
)


def _drop_sample(trace: Trace, t: int, key: tuple[int, int, int]) -> Trace:
    samples = tuple(s for s in trace.samples if not (s.t == t and s.vm_key == key))
    return Trace(trace.header, trace.descriptors, trace.events, samples)


def _bump_spec_tail(trace: Trace, key: tuple[int, int, int], start: int) -> Trace:
    """Grow one VM's requested CPU from ``start`` onward, keeping density."""
    samples = []
    for sample in trace.samples:
        if sample.vm_key == key and sample.t >= start:
            spec = ResourceSpec(sample.spec.vcpu + 1, sample.spec.vram, sample.spec.vnet)
            sample = dataclasses.replace(sample, spec=spec, util=full_utilization(spec))
        samples.append(sample)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def _set_util_gap(trace: Trace, key: tuple[int, int, int], t: int, component: str) -> Trace:
    samples = []
    for sample in trace.samples:
        if sample.vm_key == key and sample.t == t:
            fields = {
                "ucpu": sample.util.ucpu,
                "uram": sample.util.uram,
                "unet": sample.util.unet,
            }
            fields[component] = fields[component] - 1
            sample = dataclasses.replace(sample, util=UtilizationSample(**fields))
        samples.append(sample)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def _add_member(trace: Trace, host_key: tuple[int, int, int], join_t: int) -> Trace:
    """Attach one extra VM to the host's service from ``join_t`` to its end."""
    host = trace.descriptor_map()[host_key]
    spec = ResourceSpec(2, 4, 10)
    newcomer = VmDescriptor(
        host.service_id, host.dc_id, 99, revenue=0, sla=1, t_init=join_t, t_end=host.t_end
    )
    samples = list(trace.samples) + [
        VmSample(host.service_id, host.dc_id, 99, t, spec, full_utilization(spec))
        for t in range(join_t, host.t_end)
    ]
    events = list(trace.events) + [
        TraceEvent(join_t, EventKind.VM_SCALE_OUT, host.service_id, dc_id=host.dc_id, vm_index=99)
    ]
    samples.sort(key=lambda s: s.sort_key)
    events.sort(key=lambda e: e.sort_key)
    descriptors = tuple(list(trace.descriptors) + [newcomer])
    return Trace(trace.header, descriptors, tuple(events), tuple(samples))


def _static_base(seed: int = 3, horizon: int = 8) -> Trace:
    trace = generate(GeneratorConfig(env_from_coords(0, 0), seed=seed, horizon=horizon))
    host = trace.descriptors[0]
    assert host.t_end - host.t_init >= 3, "test base needs a VM alive three ticks"
    return trace


def _bits_by_hand(trace: Trace, arrival_as_horizontal: bool) -> Capabilities:
    """Independent re-derivation of the observed capability bits."""
    by_vm: dict[tuple[int, int, int], dict[int, VmSample]] = {}
    for sample in trace.samples:
        by_vm.setdefault(sample.vm_key, {})[sample.t] = sample

    vertical = False
    server = False
    network = False
    for series in by_vm.values():
        ticks = sorted(series)
        for earlier, later in zip(ticks, ticks[1:]):
            if later == earlier + 1 and series[earlier].spec != series[later].spec:
                vertical = True
        for sample in series.values():
            if sample.util.ucpu != sample.spec.vcpu or sample.util.uram != sample.spec.vram:
                server = True
            if sample.util.unet != sample.spec.vnet:
                network = True

    spans: dict[int, tuple[int, int]] = {}
    for descriptor in trace.descriptors:
        lo, hi = spans.get(descriptor.service_id, (descriptor.t_init, descriptor.t_end))
        spans[descriptor.service_id] = (min(lo, descriptor.t_init), max(hi, descriptor.t_end))

    horizontal = False
    for service_id, (lo, hi) in spans.items():
        members = [d for d in trace.descriptors if d.service_id == service_id]
        previous = {d.key for d in members if d.t_init <= lo < d.t_end}
        for t in range(lo + 1, hi):
            current = {d.key for d in members if d.t_init <= t < d.t_end}
            if current != previous:
                horizontal = True
            previous = current
    if arrival_as_horizontal and not horizontal:
        for service_id, (lo, _) in spans.items():
            if lo > 0 and any(
                other != service_id and olo <= lo < ohi
                for other, (olo, ohi) in spans.items()
            ):
                horizontal = True
    return Capabilities(horizontal, vertical, server, network)


def test_server_overbooking_example_bound_findings():
    report = validate(fixture_trace(FixtureId.ENV_0_1), mode=MODE_STRICT)
    assert not report.ok
    assert len(report.violations) == 9
    assert {v.rule for v in report.violations} == {RULE_OVERBOOKING_BOUND}
    first = report.violations[0]
    assert (first.t, first.service_id, first.dc_id, first.vm_index) == (1, 1, 1, 1)
    assert first.message == (
        "utilization exceeds the request: ucpu 9 > vcpu 8, uram 18 > vram 16"
    )
    assert validate(fixture_trace(FixtureId.ENV_0_1), mode=MODE_PAPER).ok


def test_network_overbooking_example_bound_findings():
    report = validate(fixture_trace(FixtureId.ENV_0_2), mode=MODE_STRICT)
    assert not report.ok
    assert {v.rule for v in report.violations} == {RULE_OVERBOOKING_BOUND}
    assert all("unet" in v.message for v in report.violations)
    assert validate(fixture_trace(FixtureId.ENV_0_2), mode=MODE_PAPER).ok


def test_vertical_example_is_only_excused_in_paper_mode():
    trace = fixture_trace(FixtureId.ENV_2_0)
    strict = validate(trace, mode=MODE_STRICT)
    assert not strict.ok
    assert {v.rule for v in strict.violations} == {RULE_NO_SERVER_OVERBOOKING}
    assert len(strict.violations) == 12
    assert validate(trace, mode=MODE_PAPER).ok


def test_paper_mode_does_not_excuse_server_gaps_without_vertical():
    trace = fixture_trace(FixtureId.ENV_0_1)
    report = validate(trace, mode=MODE_PAPER, declared=env_from_coords(0, 0))
    assert not report.ok
    assert {v.rule for v in report.violations} == {RULE_NO_SERVER_OVERBOOKING}


def test_declared_environment_overrides_the_header():
    trace = fixture_trace(FixtureId.ENV_0_1)
    report = validate(trace, mode=MODE_STRICT, declared=env_from_coords(0, 0))
    assert {v.rule for v in report.violations} == {RULE_NO_SERVER_OVERBOOKING}
    static = generate(GeneratorConfig(env_from_coords(0, 0), seed=3, horizon=8))
    assert validate(static, mode=MODE_STRICT, declared=env_from_coords(3, 3)).ok


def test_validate_rejects_unknown_modes():
    with pytest.raises(ValidationError):
        validate(fixture_trace(FixtureId.ENV_0_1), mode="lenient")


def test_structural_findings_come_before_conformance_findings():
    holey = _drop_sample(fixture_trace(FixtureId.ENV_0_1), 2, (1, 1, 1))
    report = validate(holey, mode=MODE_STRICT)
    assert not report.ok
    rules = [v.rule for v in report.violations]
    assert rules[0] == RULE_DENSE_SAMPLING
    assert RULE_OVERBOOKING_BOUND in rules[1:]
    gap = report.violations[0]
    assert (gap.t, gap.service_id, gap.dc_id, gap.vm_index) == (2, 1, 1, 1)


def test_event_inconsistencies_are_flagged_with_their_index():
    trace = fixture_trace(FixtureId.ENV_1_0)
    stray = TraceEvent(1, EventKind.SERVICE_ARRIVAL, 1)
    events = sorted(list(trace.events) + [stray], key=lambda e: e.sort_key)
    report = validate(Trace(trace.header, trace.descriptors, tuple(events), trace.samples))
    assert not report.ok
    assert {v.rule for v in report.violations} == {RULE_EVENT_CONSISTENCY}
    assert any("2 arrival events" in v.message for v in report.violations)


def test_events_past_the_horizon_are_flagged():
    trace = fixture_trace(FixtureId.ENV_1_0)
    late = TraceEvent(9, EventKind.SERVICE_ARRIVAL, 7)
    events = sorted(list(trace.events) + [late], key=lambda e: e.sort_key)
    report = validate(Trace(trace.header, trace.descriptors, tuple(events), trace.samples))
    messages = [v.message for v in report.violations]
    assert any("past horizon" in message for message in messages)
    assert any(v.event_index == 4 for v in report.violations)
    assert any(v.location_text() == "event #4" for v in report.violations)


def test_missing_scale_event_is_a_structural_violation():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(1, 0), seed=3, horizon=20),
        horizontal_policy=dataclasses.replace(
            GeneratorConfig(env_from_coords(1, 0)).horizontal_policy, p_scale=1.0
        ),
    )
    trace = generate(config)
    scale_indices = [i for i, e in enumerate(trace.events) if e.kind.is_scale]
    assert scale_indices, "expected scale events"
    events = tuple(e for i, e in enumerate(trace.events) if i != scale_indices[0])
    report = validate(Trace(trace.header, trace.descriptors, events, trace.samples))
    assert not report.ok
    assert RULE_EVENT_CONSISTENCY in {v.rule for v in report.violations}


def test_empty_trace_is_valid():
    header = TraceHeader(env_from_coords(0, 0), horizon=3, num_datacenters=1)
    assert validate(Trace(header, (), (), ())).ok


def test_conformance_mutations_cite_rule_and_location():
    base = _static_base()
    host = base.descriptors[0]
    tau = host.t_init + 1

    bumped = _bump_spec_tail(base, host.key, tau)
    report = validate(bumped, mode=MODE_STRICT)
    assert {v.rule for v in report.violations} == {RULE_NO_VERTICAL}
    cite = report.violations[0]
    assert (cite.t, cite.service_id, cite.dc_id, cite.vm_index) == (
        tau,
        host.service_id,
        host.dc_id,
        host.vm_index,
    )

    joined = _add_member(base, host.key, tau)
    report = validate(joined, mode=MODE_STRICT)
    assert {v.rule for v in report.violations} == {RULE_NO_HORIZONTAL}
    cite = report.violations[0]
    assert (cite.t, cite.vm_index) == (tau, 99)

    cpu_gap = _set_util_gap(base, host.key, tau, "ucpu")
    report = validate(cpu_gap, mode=MODE_STRICT)
    assert {v.rule for v in report.violations} == {RULE_NO_SERVER_OVERBOOKING}
    assert report.violations[0].t == tau

    net_gap = _set_util_gap(base, host.key, tau, "unet")
    report = validate(net_gap, mode=MODE_STRICT)
    assert {v.rule for v in report.violations} == {RULE_NO_NETWORK_OVERBOOKING}
    assert report.violations[0].t == tau


def test_classify_reads_each_capability_from_the_trace():
    base = _static_base()
    host = base.descriptors[0]
    tau = host.t_init + 1
    assert classify(base) == env_from_coords(0, 0)
    assert classify(_bump_spec_tail(base, host.key, tau)) == env_from_coords(2, 0)
    assert classify(_add_member(base, host.key, tau)) == env_from_coords(1, 0)
    assert classify(_set_util_gap(base, host.key, tau, "ucpu")) == env_from_coords(0, 1)
    assert classify(_set_util_gap(base, host.key, tau, "uram")) == env_from_coords(0, 1)
    assert classify(_set_util_gap(base, host.key, tau, "unet")) == env_from_coords(0, 2)
    combined = _set_util_gap(_bump_spec_tail(base, host.key, tau), host.key, tau, "unet")
    assert classify(combined) == env_from_coords(2, 2)


def test_classify_refuses_structurally_invalid_traces():
    holey = _drop_sample(fixture_trace(FixtureId.ENV_0_1), 2, (1, 1, 1))
    with pytest.raises(IntegrityError, match="structure.dense-sampling"):
        classify(holey)


def test_classifier_matches_an_independent_re_derivation():
    for env in enumerate_environments():
        for seed, guarantee in ((0, True), (1, True), (3, False)):
            config = GeneratorConfig(
                env, seed=seed, horizon=12, num_datacenters=2, guarantee_dynamics=guarantee
            )
            trace = generate(config)
            for flag in (False, True):
                expected = env_from_capabilities(_bits_by_hand(trace, flag))
                assert classify(trace, arrival_as_horizontal=flag) == expected, (
                    f"env {env} seed {seed} flag {flag}"
                )


def test_classified_environment_is_minimal():
    for env in enumerate_environments():
        config = GeneratorConfig(env, seed=2, horizon=10, guarantee_dynamics=True)
        trace = generate(config)
        observed = classify(trace)
        assert observed == env
        assert validate(trace, mode=MODE_STRICT, declared=observed).ok
        caps = capabilities(observed)
        for field in ("horizontal", "vertical", "server_overbooking", "network_overbooking"):
            if not getattr(caps, field):
                continue
            weaker = env_from_capabilities(dataclasses.replace(caps, **{field: False}))
            report = validate(trace, mode=MODE_STRICT, declared=weaker)
            assert not report.ok, f"dropping {field} from {env} should not validate"


def test_stats_totals_on_the_server_overbooking_example():
    series = stats(fixture_trace(FixtureId.ENV_0_1))
    rows = {(row.dc_id, row.t): row for row in series.rows}
    opening = rows[(1, 0)]
    assert opening.vm_count == 2
    assert opening.vcpu == Decimal(13)
    assert opening.vram == Decimal(28)
    assert opening.vnet == Decimal(200)
    assert opening.ucpu == Decimal(13)
    assert rows[(2, 3)].uram == Decimal(34)
    assert rows[(1, 1)].ucpu == Decimal(14)
    assert rows[(1, 1)].cpu_ratio == Decimal("1.0769")
    assert rows[(1, 0)].net_ratio == Decimal("1.0000")


def test_stats_rows_are_dense_and_empty_cells_have_no_ratio():
    series = stats(fixture_trace(FixtureId.ENV_1_0))
    assert len(series.rows) == 2 * 6
    rows = {(row.dc_id, row.t): row for row in series.rows}
    idle = rows[(1, 5)]
    assert idle.vm_count == 0
    assert idle.vcpu == Decimal(0)
    assert idle.cpu_ratio is None
    payload = series.to_json_dict()
    idle_json = next(r for r in payload["rows"] if r["dc"] == 1 and r["t"] == 5)
    assert "cpu_ratio" not in idle_json
    busy_json = next(r for r in payload["rows"] if r["dc"] == 1 and r["t"] == 0)
    assert busy_json["cpu_ratio"] == Decimal("1.0000")


def test_stats_agree_with_direct_summation():
    trace = generate(
        GeneratorConfig(env_from_coords(3, 3), seed=9, horizon=10, guarantee_dynamics=True)
    )
    series = stats(trace)
    rows = {(row.dc_id, row.t): row for row in series.rows}
    assert len(rows) == trace.header.num_datacenters * trace.header.horizon
    for (dc_id, t), row in rows.items():
        alive = [s for s in trace.samples if s.dc_id == dc_id and s.t == t]
        assert row.vm_count == len(alive)
        assert row.vm_count == len(dc_population(trace, dc_id, t))
        assert row.vcpu == sum((s.spec.vcpu for s in alive), Decimal(0))
        assert row.uram == sum((s.util.uram for s in alive), Decimal(0))
        assert row.unet == sum((s.util.unet for s in alive), Decimal(0))


def test_stats_ratio_precision_is_configurable():
    series = stats(fixture_trace(FixtureId.ENV_0_1), ratio_places=2)
    row = next(r for r in series.rows if (r.dc_id, r.t) == (1, 1))
    assert row.cpu_ratio == Decimal("1.08")


def _with_cell_cpu(trace: Trace, vcpus: tuple, ucpus: tuple) -> Trace:
    """The trace with the requested and used CPU of cell (dc 1, t 0)'s samples
    set, in sample order."""
    vcpu, ucpu = iter(vcpus), iter(ucpus)
    samples = []
    for sample in trace.samples:
        if (sample.dc_id, sample.t) == (1, 0):
            spec = dataclasses.replace(sample.spec, vcpu=next(vcpu))
            sample = dataclasses.replace(sample, spec=spec, util=dataclasses.replace(sample.util, ucpu=next(ucpu)))
        samples.append(sample)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def test_stats_sums_that_cannot_be_exact_name_their_cell():
    trace = fixture_trace(FixtureId.ENV_0_1)
    fits = (10**27, 5)
    assert stats(_with_cell_cpu(trace, fits, fits)).rows[0].vcpu == 10**27 + 5
    # 10**27 + 0.001 needs 31 significant digits
    exceeds = (10**27, Decimal("0.001"))
    with pytest.raises(ValidationError) as excinfo:
        stats(_with_cell_cpu(trace, exceeds, exceeds))
    assert str(excinfo.value) == "stats cell (dc 1, t 0): a total cannot be summed exactly in 28 significant digits"


def test_stats_ratio_places_out_of_range_is_a_validation_error():
    trace = fixture_trace(FixtureId.ENV_0_1)
    assert stats(trace, ratio_places=0).rows[1].cpu_ratio == Decimal(1)
    assert stats(trace, ratio_places=27).rows[1].cpu_ratio == Decimal("1.076923076923076923076923077")
    for places in (-1, 28, 40, True, 4.0, "4"):
        with pytest.raises(ValidationError, match="ratio_places must be an integer in \\[0, 27\\]"):
            stats(trace, ratio_places=places)


def test_stats_ratio_too_large_to_quantize_names_its_cell():
    trace = _with_cell_cpu(fixture_trace(FixtureId.ENV_0_1), (1, 1), (10**27, 1))
    with pytest.raises(ValidationError) as excinfo:
        stats(trace)
    assert str(excinfo.value) == (
        "stats cell (dc 1, t 0): a utilized/requested ratio cannot be quantized to 4 places in 28 significant digits"
    )


def test_report_serialization_shapes():
    report = validate(fixture_trace(FixtureId.ENV_0_1), mode=MODE_STRICT)
    payload = report.to_json_dict()
    assert list(payload) == ["mode", "declared_environment", "ok", "violations"]
    assert payload["mode"] == "strict"
    assert payload["declared_environment"] == [0, 1]
    assert payload["ok"] is False
    assert len(payload["violations"]) == 9
    assert payload["violations"][0]["rule"] == RULE_OVERBOOKING_BOUND
    text = report.render_text()
    lines = text.splitlines()
    assert lines[0] == "mode: strict"
    assert lines[1] == "declared environment: (0,1)"
    assert lines[2] == "result: 9 violation(s)"
    assert lines[3].startswith("  [env.overbooking-bound] (t=1,b=1,c=1,j=1)")
    clean = validate(fixture_trace(FixtureId.ENV_1_0), mode=MODE_STRICT)
    assert clean.render_text().splitlines()[-1] == "result: ok"


# --- the observation pass against the analysis it replaced -----------------
#
# The functions below are the analysis as it was before validate and
# classify shared one cached pass, kept verbatim as the reference: reports
# must hold the same violations in the same order, in both modes and for
# every declared environment, and classify must give the same environment
# or the same refusal.

def _reference_vm_violation(rule: str, message: str, sample_or_key, t: int | None = None) -> Violation:
    if isinstance(sample_or_key, VmSample):
        key = sample_or_key.vm_key
        t = sample_or_key.t if t is None else t
    else:
        key = sample_or_key
    return Violation(rule, message, t=t, service_id=key[0], dc_id=key[1], vm_index=key[2])


def _reference_structural_violations(trace: Trace) -> list[Violation]:
    out: list[Violation] = []
    header = trace.header
    by_key = trace.descriptor_map()

    for desc in trace.descriptors:
        if desc.t_end > header.horizon:
            out.append(
                _reference_vm_violation(
                    RULE_HORIZON,
                    f"VM lifetime ends at t={desc.t_end}, past horizon {header.horizon}",
                    desc.key,
                    t=desc.t_end,
                )
            )
        if desc.dc_id > header.num_datacenters:
            out.append(
                _reference_vm_violation(
                    RULE_DC_RANGE,
                    f"dc {desc.dc_id} exceeds num_datacenters {header.num_datacenters}",
                    desc.key,
                )
            )
        if desc.sla > header.sla_levels:
            out.append(
                _reference_vm_violation(
                    RULE_SLA_RANGE,
                    f"sla {desc.sla} exceeds the header's highest level {header.sla_levels}",
                    desc.key,
                )
            )

    seen: set[tuple[int, int, int, int]] = set()
    present: dict[tuple[int, int, int], set[int]] = {key: set() for key in by_key}
    for sample in trace.samples:
        desc = by_key.get(sample.vm_key)
        if desc is None:
            out.append(_reference_vm_violation(RULE_UNKNOWN_VM, "sample references no known VM", sample))
            continue
        full_key = (sample.t, *sample.vm_key)
        if full_key in seen:
            out.append(_reference_vm_violation(RULE_DUPLICATE_SAMPLE, "duplicate sample", sample))
            continue
        seen.add(full_key)
        present[sample.vm_key].add(sample.t)
        if not desc.t_init <= sample.t < desc.t_end:
            out.append(
                _reference_vm_violation(
                    RULE_LIFETIME,
                    f"sample outside the VM's lifetime [{desc.t_init}, {desc.t_end})",
                    sample,
                )
            )

    for desc in trace.descriptors:
        for t in range(desc.t_init, desc.t_end):
            if t not in present[desc.key]:
                out.append(_reference_vm_violation(RULE_DENSE_SAMPLING, "missing sample for an alive tick", desc.key, t=t))

    _reference_event_violations(trace, out)
    return out


def _reference_event_violations(trace: Trace, out: list[Violation]) -> None:
    header = trace.header
    by_key = trace.descriptor_map()
    known_services = {d.service_id for d in trace.descriptors}

    arrivals: dict[int, list[int]] = {}
    departures: dict[int, list[int]] = {}
    scale_outs: dict[tuple[int, int, int], list[int]] = {}
    scale_ins: dict[tuple[int, int, int], list[int]] = {}
    for index, event in enumerate(trace.events):
        if event.t > header.horizon:
            out.append(
                Violation(
                    RULE_EVENT_CONSISTENCY,
                    f"event at t={event.t} is past horizon {header.horizon}",
                    event_index=index,
                )
            )
        if event.kind.is_scale:
            key = (event.service_id, event.dc_id, event.vm_index)
            if key not in by_key:
                out.append(
                    Violation(
                        RULE_EVENT_CONSISTENCY,
                        f"{event.kind.value} references unknown VM {key}",
                        event_index=index,
                    )
                )
                continue
            target = scale_outs if event.kind is EventKind.VM_SCALE_OUT else scale_ins
            target.setdefault(key, []).append(event.t)
        else:
            if event.service_id not in known_services:
                out.append(
                    Violation(
                        RULE_EVENT_CONSISTENCY,
                        f"{event.kind.value} references unknown service {event.service_id}",
                        event_index=index,
                    )
                )
                continue
            target = arrivals if event.kind is EventKind.SERVICE_ARRIVAL else departures
            target.setdefault(event.service_id, []).append(event.t)

    spans = _reference_service_spans(trace)
    for service_id in sorted(known_services):
        span_start, span_end = spans[service_id]
        arr = arrivals.get(service_id, [])
        dep = departures.get(service_id, [])
        if len(arr) != 1:
            out.append(
                Violation(
                    RULE_EVENT_CONSISTENCY,
                    f"service {service_id} has {len(arr)} arrival events, expected 1",
                    service_id=service_id,
                )
            )
        elif arr[0] != span_start:
            out.append(
                Violation(
                    RULE_EVENT_CONSISTENCY,
                    f"service {service_id} arrival at t={arr[0]} but its first VM starts at t={span_start}",
                    t=arr[0],
                    service_id=service_id,
                )
            )
        if len(dep) != 1:
            out.append(
                Violation(
                    RULE_EVENT_CONSISTENCY,
                    f"service {service_id} has {len(dep)} departure events, expected 1",
                    service_id=service_id,
                )
            )
        elif dep[0] != span_end:
            out.append(
                Violation(
                    RULE_EVENT_CONSISTENCY,
                    f"service {service_id} departure at t={dep[0]} but its last VM ends at t={span_end}",
                    t=dep[0],
                    service_id=service_id,
                )
            )

    for desc in trace.descriptors:
        span_start, span_end = spans[desc.service_id]
        outs = scale_outs.get(desc.key, [])
        ins = scale_ins.get(desc.key, [])
        if desc.t_init > span_start:
            if outs != [desc.t_init]:
                out.append(
                    _reference_vm_violation(
                        RULE_EVENT_CONSISTENCY,
                        f"VM starts mid-lifetime at t={desc.t_init} but its scale-out events are at {outs}",
                        desc.key,
                        t=desc.t_init,
                    )
                )
        elif outs:
            out.append(
                _reference_vm_violation(
                    RULE_EVENT_CONSISTENCY,
                    f"VM present from service start must not have scale-out events, got {outs}",
                    desc.key,
                    t=desc.t_init,
                )
            )
        if desc.t_end < span_end:
            if ins != [desc.t_end]:
                out.append(
                    _reference_vm_violation(
                        RULE_EVENT_CONSISTENCY,
                        f"VM ends mid-lifetime at t={desc.t_end} but its scale-in events are at {ins}",
                        desc.key,
                        t=desc.t_end,
                    )
                )
        elif ins:
            out.append(
                _reference_vm_violation(
                    RULE_EVENT_CONSISTENCY,
                    f"VM alive until service end must not have scale-in events, got {ins}",
                    desc.key,
                    t=desc.t_end,
                )
            )


def _reference_service_spans(trace: Trace) -> dict[int, tuple[int, int]]:
    spans: dict[int, tuple[int, int]] = {}
    for desc in trace.descriptors:
        start, end = spans.get(desc.service_id, (desc.t_init, desc.t_end))
        spans[desc.service_id] = (min(start, desc.t_init), max(end, desc.t_end))
    return spans


def _reference_samples_by_vm(trace: Trace) -> dict[tuple[int, int, int], list[VmSample]]:
    grouped: dict[tuple[int, int, int], list[VmSample]] = {}
    for sample in trace.samples:
        grouped.setdefault(sample.vm_key, []).append(sample)
    for series in grouped.values():
        series.sort(key=lambda s: s.t)
    return grouped


def _reference_spec_changed(prev: VmSample, cur: VmSample) -> bool:
    """Vertical dynamics: ``cur`` follows ``prev`` in one VM's tick-ordered
    series, at the next tick, with a different spec."""
    return cur.t == prev.t + 1 and cur.spec != prev.spec


def _reference_server_gap(sample: VmSample) -> bool:
    """Server overbooking: CPU or memory utilization differs from the request."""
    return sample.util.ucpu != sample.spec.vcpu or sample.util.uram != sample.spec.vram


def _reference_network_gap(sample: VmSample) -> bool:
    """Network overbooking: bandwidth utilization differs from the request."""
    return sample.util.unet != sample.spec.vnet


def _reference_spec_changes(trace: Trace) -> list[VmSample]:
    """Samples at which a VM's spec differs from its previous alive tick."""
    grouped = _reference_samples_by_vm(trace)
    return [cur for key in sorted(grouped) for prev, cur in pairwise(grouped[key]) if _reference_spec_changed(prev, cur)]


def _reference_membership_changes(trace: Trace) -> list[tuple[int, tuple[int, int, int], str]]:
    """(t, vm key, "joins" | "leaves") for per-service count changes strictly
    inside the service's lifetime."""
    changes = []
    by_service: dict[int, list] = {}
    for desc in trace.descriptors:
        by_service.setdefault(desc.service_id, []).append(desc)
    spans = _reference_service_spans(trace)
    for service_id in sorted(by_service):
        span_start, span_end = spans[service_id]
        members = by_service[service_id]
        previous = {d.key for d in members if d.t_init <= span_start < d.t_end}
        for t in range(span_start + 1, span_end):
            current = {d.key for d in members if d.t_init <= t < d.t_end}
            for key in sorted(current - previous):
                changes.append((t, key, "joins"))
            for key in sorted(previous - current):
                changes.append((t, key, "leaves"))
            previous = current
    return changes


def _reference_conformance_violations(trace: Trace, caps: Capabilities, mode: str) -> list[Violation]:
    out: list[Violation] = []

    if not caps.vertical:
        for sample in _reference_spec_changes(trace):
            out.append(
                _reference_vm_violation(
                    RULE_NO_VERTICAL,
                    f"requested resources change at t={sample.t} but the environment has no vertical elasticity",
                    sample,
                )
            )

    if not caps.horizontal:
        for t, key, what in _reference_membership_changes(trace):
            out.append(
                _reference_vm_violation(
                    RULE_NO_HORIZONTAL,
                    f"VM {what} its service mid-lifetime at t={t} but the environment has no horizontal elasticity",
                    key,
                    t=t,
                )
            )

    # one pass over the samples; violations stay grouped by rule
    check_server_equality = not caps.server_overbooking and not (mode == MODE_PAPER and caps.vertical)
    bound_server = mode == MODE_STRICT and caps.server_overbooking
    bound_network = mode == MODE_STRICT and caps.network_overbooking
    server_out: list[Violation] = []
    network_out: list[Violation] = []
    bound_out: list[Violation] = []
    for sample in trace.samples:
        spec, util = sample.spec, sample.util
        if check_server_equality and _reference_server_gap(sample):
            mismatches = []
            if util.ucpu != spec.vcpu:
                mismatches.append(f"ucpu {quantity_text(util.ucpu)} != vcpu {quantity_text(spec.vcpu)}")
            if util.uram != spec.vram:
                mismatches.append(f"uram {quantity_text(util.uram)} != vram {quantity_text(spec.vram)}")
            server_out.append(
                _reference_vm_violation(
                    RULE_NO_SERVER_OVERBOOKING,
                    "server utilization must equal the request without server overbooking: " + ", ".join(mismatches),
                    sample,
                )
            )
        if not caps.network_overbooking and _reference_network_gap(sample):
            network_out.append(
                _reference_vm_violation(
                    RULE_NO_NETWORK_OVERBOOKING,
                    f"network utilization must equal the request without network overbooking: "
                    f"unet {quantity_text(util.unet)} != vnet {quantity_text(spec.vnet)}",
                    sample,
                )
            )
        excesses = []
        if bound_server:
            if util.ucpu > spec.vcpu:
                excesses.append(f"ucpu {quantity_text(util.ucpu)} > vcpu {quantity_text(spec.vcpu)}")
            if util.uram > spec.vram:
                excesses.append(f"uram {quantity_text(util.uram)} > vram {quantity_text(spec.vram)}")
        if bound_network and util.unet > spec.vnet:
            excesses.append(f"unet {quantity_text(util.unet)} > vnet {quantity_text(spec.vnet)}")
        if excesses:
            bound_out.append(
                _reference_vm_violation(RULE_OVERBOOKING_BOUND, "utilization exceeds the request: " + ", ".join(excesses), sample)
            )
    return out + server_out + network_out + bound_out


def _reference_classify(trace: Trace, *, arrival_as_horizontal: bool = False) -> EnvironmentId:
    """Infer the smallest environment whose capabilities explain the trace.

    Vertical: some VM's spec differs between consecutive alive ticks.
    Horizontal: some service's VM count changes strictly within its
    lifetime; with ``arrival_as_horizontal`` also any service arriving at
    t > 0 while another service is alive. Server/network overbooking: any
    sample where that class's utilization differs from the request.
    Refuses structurally invalid traces.
    """
    structural = _reference_structural_violations(trace)
    if structural:
        first = structural[0]
        raise IntegrityError(
            f"refusing to classify a structurally invalid trace "
            f"({len(structural)} violation(s); first: [{first.rule}] {first.location_text()} {first.message})"
        )

    vertical = bool(_reference_spec_changes(trace))
    horizontal = bool(_reference_membership_changes(trace))
    if not horizontal and arrival_as_horizontal:
        spans = _reference_service_spans(trace)
        for service_id, (start, _) in spans.items():
            if start > 0 and any(
                other != service_id and other_start <= start < other_end
                for other, (other_start, other_end) in spans.items()
            ):
                horizontal = True
                break
    server = any(_reference_server_gap(sample) for sample in trace.samples)
    network = any(_reference_network_gap(sample) for sample in trace.samples)
    return env_from_capabilities(
        Capabilities(
            horizontal=horizontal,
            vertical=vertical,
            server_overbooking=server,
            network_overbooking=network,
        )
    )


def _reference_validate(trace: Trace, mode: str, declared) -> list[Violation]:
    declared = trace.header.environment if declared is None else declared
    return _reference_structural_violations(trace) + _reference_conformance_violations(trace, capabilities(declared), mode)


def _outcome(classifier, trace: Trace, flag: bool):
    try:
        return classifier(trace, arrival_as_horizontal=flag)
    except IntegrityError as exc:
        return str(exc)


def _events_for(descriptors) -> tuple[TraceEvent, ...]:
    """Lifecycle events consistent with ``descriptors``: one arrival and one
    departure per service, and a scale event wherever a VM joins or leaves
    its service mid-lifetime."""
    spans: dict[int, tuple[int, int]] = {}
    for d in descriptors:
        lo, hi = spans.get(d.service_id, (d.t_init, d.t_end))
        spans[d.service_id] = (min(lo, d.t_init), max(hi, d.t_end))
    events = []
    for service_id, (lo, hi) in spans.items():
        events.append(TraceEvent(lo, EventKind.SERVICE_ARRIVAL, service_id))
        events.append(TraceEvent(hi, EventKind.SERVICE_DEPARTURE, service_id))
    for d in descriptors:
        lo, hi = spans[d.service_id]
        if d.t_init > lo:
            events.append(TraceEvent(d.t_init, EventKind.VM_SCALE_OUT, d.service_id, dc_id=d.dc_id, vm_index=d.vm_index))
        if d.t_end < hi:
            events.append(TraceEvent(d.t_end, EventKind.VM_SCALE_IN, d.service_id, dc_id=d.dc_id, vm_index=d.vm_index))
    return tuple(sorted(events, key=lambda e: e.sort_key))


def _rebuilt(trace: Trace, descriptors, samples) -> Trace:
    descriptors = tuple(descriptors)
    samples = tuple(sorted(samples, key=lambda s: s.sort_key))
    return Trace(trace.header, descriptors, _events_for(descriptors), samples)


def _replace_sample(trace: Trace, index: int, **changes) -> Trace:
    samples = list(trace.samples)
    samples[index] = dataclasses.replace(samples[index], **changes)
    return Trace(trace.header, trace.descriptors, trace.events, tuple(samples))


def _cut_short(trace: Trace, desc: VmDescriptor) -> Trace:
    """End ``desc``'s lifetime one tick early, with its last sample gone."""
    cut = dataclasses.replace(desc, t_end=desc.t_end - 1)
    descriptors = [cut if d is desc else d for d in trace.descriptors]
    samples = [s for s in trace.samples if not (s.vm_key == desc.key and s.t == cut.t_end)]
    return _rebuilt(trace, descriptors, samples)


def _scaled_out(trace: Trace, host: VmDescriptor) -> Trace:
    """Add a VM that joins ``host``'s service one tick after ``host`` starts."""
    index = 1 + max(d.vm_index for d in trace.descriptors if d.service_id == host.service_id and d.dc_id == host.dc_id)
    newcomer = dataclasses.replace(host, vm_index=index, t_init=host.t_init + 1)
    added = [
        dataclasses.replace(s, vm_index=index, util=full_utilization(s.spec))
        for s in trace.samples
        if s.vm_key == host.key and s.t >= newcomer.t_init
    ]
    return _rebuilt(trace, [*trace.descriptors, newcomer], [*trace.samples, *added])


def _join_and_leave_at_one_tick() -> Trace:
    """One service whose VM 2 leaves at t=3 as its VM 3 joins."""
    spec = ResourceSpec(2, 4, 10)
    lifetimes = {1: (0, 6), 2: (0, 3), 3: (3, 6)}
    descriptors = [VmDescriptor(1, 1, j, revenue=0, sla=1, t_init=a, t_end=b) for j, (a, b) in lifetimes.items()]
    samples = [VmSample(1, 1, j, t, spec, full_utilization(spec)) for j, (a, b) in lifetimes.items() for t in range(a, b)]
    header = TraceHeader(env_from_coords(1, 0), horizon=6, num_datacenters=1)
    return _rebuilt(Trace(header), descriptors, samples)


def _differential_cases() -> list[tuple[str, Trace]]:
    cases = []
    for env in enumerate_environments():
        for seed, guarantee in ((0, True), (4, False)):
            config = GeneratorConfig(env, seed=seed, horizon=10, guarantee_dynamics=guarantee)
            cases.append((f"generated-{env}-{seed}", generate(config)))
    cases.extend((f"fixture-{fixture.value}", fixture_trace(fixture)) for fixture in FixtureId)
    cases.append(("join-and-leave-at-one-tick", _join_and_leave_at_one_tick()))

    base = generate(GeneratorConfig(env_from_coords(3, 3), seed=1, horizon=10, guarantee_dynamics=True))
    first, host = base.samples[0], base.descriptors[0]
    bumped = ResourceSpec(first.spec.vcpu + 5, first.spec.vram, first.spec.vnet)
    duplicated = Trace(base.header, base.descriptors, base.events, (first, dataclasses.replace(first, spec=bumped), *base.samples[1:]))
    stray = VmSample(host.service_id, host.dc_id, 77, first.t, first.spec, first.util)
    late = dataclasses.replace(first, t=host.t_end) if host.t_end < base.header.horizon else dataclasses.replace(first, t=0)
    arrival = base.events[0]
    early_scale_out = TraceEvent(host.t_init, EventKind.VM_SCALE_OUT, host.service_id, dc_id=host.dc_id, vm_index=host.vm_index)
    cases += [
        ("duplicate-sample", duplicated),
        ("unknown-vm-sample", dataclasses.replace(base, samples=(*base.samples, stray))),
        ("sample-outside-lifetime", dataclasses.replace(base, samples=(*base.samples, late))),
        ("missing-tick", _drop_sample(base, first.t, first.vm_key)),
        ("missing-event", dataclasses.replace(base, events=base.events[1:])),
        ("event-past-horizon", dataclasses.replace(base, events=(*base.events, TraceEvent(99, EventKind.SERVICE_ARRIVAL, 1)))),
        ("unknown-service-event", dataclasses.replace(base, events=(*base.events, TraceEvent(0, EventKind.SERVICE_ARRIVAL, 99)))),
        ("unknown-vm-event", dataclasses.replace(base, events=(*base.events, TraceEvent(1, EventKind.VM_SCALE_IN, 1, dc_id=1, vm_index=88)))),
        ("header-shrunk", dataclasses.replace(base, header=dataclasses.replace(base.header, horizon=3, num_datacenters=1))),
        ("sla-past-header", dataclasses.replace(base, descriptors=(dataclasses.replace(host, sla=2), *base.descriptors[1:]))),
        ("late-arrival-event", dataclasses.replace(base, events=(dataclasses.replace(arrival, t=arrival.t + 1), *base.events[1:]))),
        ("scale-out-at-start", dataclasses.replace(base, events=(*base.events, early_scale_out))),
        # hand-built traces whose samples are out of tick order
        ("reversed", dataclasses.replace(base, samples=base.samples[::-1])),
        ("reversed-duplicate-sample", dataclasses.replace(duplicated, samples=duplicated.samples[::-1])),
        ("shuffled", dataclasses.replace(base, samples=tuple(random.Random(3).sample(base.samples, len(base.samples))))),
    ]
    return cases


_DIFFERENTIAL_CASES = _differential_cases()


@pytest.mark.parametrize("trace", [trace for _, trace in _DIFFERENTIAL_CASES], ids=[name for name, _ in _DIFFERENTIAL_CASES])
def test_reports_and_classification_match_the_reference_analysis(trace):
    for mode in (MODE_STRICT, MODE_PAPER):
        for declared in (None, *enumerate_environments()):
            expected = _reference_validate(trace, mode, declared)
            assert list(validate(trace, mode, declared=declared).violations) == expected, (mode, declared)
    for flag in (False, True):
        assert _outcome(classify, trace, flag) == _outcome(_reference_classify, trace, flag)


def test_every_rule_fires_in_some_differential_case():
    fired = {
        violation.rule
        for _, trace in _DIFFERENTIAL_CASES
        for mode in (MODE_STRICT, MODE_PAPER)
        for declared in (None, *enumerate_environments())
        for violation in validate(trace, mode, declared=declared).violations
    }
    rules = {value for name, value in vars(analysis).items() if name.startswith("RULE_")}
    assert not rules - fired


def test_the_broken_differential_cases_are_broken():
    structural = {name: bool(_reference_structural_violations(trace)) for name, trace in _DIFFERENTIAL_CASES}
    assert not any(structural[name] for name in structural if name.startswith(("generated", "fixture", "join")))
    assert all(structural[name] for name in structural if not name.startswith(("generated", "fixture", "join", "reversed", "shuffled")))
    assert structural["reversed-duplicate-sample"]



def test_violations_are_slotted_frozen_values():
    violations = [
        violation
        for _, case in _DIFFERENTIAL_CASES
        for violation in validate(case, MODE_STRICT, declared=env_from_coords(0, 0)).violations
    ]
    assert {v.event_index is None for v in violations} == {True, False}
    for violation in violations:
        assert not hasattr(violation, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            violation.message = "changed"
        assert dataclasses.replace(violation) == violation
        assert hash(dataclasses.replace(violation)) == hash(violation)
        copied = pickle.loads(pickle.dumps(violation))
        assert copied == violation and hash(copied) == hash(violation)
        assert dataclasses.astuple(copied) == dataclasses.astuple(violation)


def test_equal_messages_within_one_report_are_one_string():
    audit = generate(GeneratorConfig(env_from_coords(3, 3), seed=1, horizon=40, guarantee_dynamics=True))
    reports = [validate(audit, MODE_STRICT, declared=env_from_coords(0, 0))]
    reports += [
        validate(trace, mode, declared=declared)
        for _, trace in _DIFFERENTIAL_CASES
        for mode in (MODE_STRICT, MODE_PAPER)
        for declared in (None, env_from_coords(0, 0))
    ]
    repeated = 0
    for report in reports:
        first: dict[str, str] = {}
        for violation in report.violations:
            assert first.setdefault(violation.message, violation.message) is violation.message
        repeated += len(report.violations) - len(first)
    # the audit report repeats some of its conformance messages
    assert len(reports[0].violations) > len({v.message for v in reports[0].violations})
    assert repeated > 0


# --- the lattice law --------------------------------------------------------

_RULE_OF_CAPABILITY = {
    "horizontal": RULE_NO_HORIZONTAL,
    "vertical": RULE_NO_VERTICAL,
    "server_overbooking": RULE_NO_SERVER_OVERBOOKING,
    "network_overbooking": RULE_NO_NETWORK_OVERBOOKING,
}


def _mutant(trace: Trace, mutation: str, pick: int) -> Trace:
    """``trace`` with one change that keeps it structurally valid."""
    long_lived = [d for d in trace.descriptors if d.t_end - d.t_init >= 2]
    if mutation in ("spec", "util") and trace.samples:
        index = pick % len(trace.samples)
        sample = trace.samples[index]
        if mutation == "spec":
            spec = sample.spec
            return _replace_sample(trace, index, spec=ResourceSpec(spec.vcpu + 1, spec.vram, spec.vnet))
        component = ("ucpu", "uram", "unet")[pick % 3]
        util = dataclasses.replace(sample.util, **{component: getattr(sample.util, component) + 1})
        return _replace_sample(trace, index, util=util)
    if mutation == "cut" and long_lived:
        return _cut_short(trace, long_lived[pick % len(long_lived)])
    if mutation == "scale" and long_lived:
        return _scaled_out(trace, long_lived[pick % len(long_lived)])
    return trace


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(
    environment=st.sampled_from(enumerate_environments()),
    seed=st.integers(0, 2**64 - 1),
    horizon=st.integers(2, 12),
    guarantee=st.booleans(),
    mutation=st.sampled_from(("none", "spec", "util", "cut", "scale")),
    pick=st.integers(0, 10**6),
)
def test_no_environment_violation_exactly_where_classify_fits_below(environment, seed, horizon, guarantee, mutation, pick):
    config = GeneratorConfig(environment, seed=seed, horizon=horizon, guarantee_dynamics=guarantee)
    try:
        generated = generate(config)
    except ConfigError:
        assume(False)  # a guarantee with no VM to host an instance
    trace = _mutant(generated, mutation, pick)
    assert not [v for v in validate(trace, MODE_STRICT).violations if v.rule.startswith("structure.")]
    observed = capabilities(classify(trace))
    for declared in enumerate_environments():
        fired = {v.rule for v in validate(trace, MODE_STRICT, declared=declared).violations}
        allowed = capabilities(declared)
        for name, rule in _RULE_OF_CAPABILITY.items():
            assert (rule in fired) == (getattr(observed, name) and not getattr(allowed, name)), (declared, name)


# --- the cached pass ----------------------------------------------------------


def _counting_observe(monkeypatch) -> list[Trace]:
    calls: list[Trace] = []
    original = analysis._observe

    def counted(trace):
        calls.append(trace)
        return original(trace)

    monkeypatch.setattr(analysis, "_observe", counted)
    return calls


def test_validate_and_classify_share_one_pass(monkeypatch):
    calls = _counting_observe(monkeypatch)
    trace = generate(GeneratorConfig(env_from_coords(3, 3), seed=2, horizon=10, guarantee_dynamics=True))
    validate(trace)
    classify(trace, arrival_as_horizontal=True)
    validate(trace, MODE_PAPER, declared=env_from_coords(0, 0))
    classify(trace)
    assert calls == [trace]


def test_equal_traces_built_separately_keep_their_own_pass(monkeypatch):
    calls = _counting_observe(monkeypatch)
    config = GeneratorConfig(env_from_coords(1, 2), seed=5, horizon=10)
    first, second = generate(config), generate(config)
    assert first == second and first is not second
    validate(first)
    assert "_observation" not in second.__dict__
    classify(second)
    assert len(calls) == 2 and calls[0] is first and calls[1] is second
    broken = _drop_sample(first, first.samples[0].t, first.samples[0].vm_key)
    assert not validate(broken).ok
    assert validate(first).ok


def test_the_cached_pass_holds_one_sample_per_witness():
    trace = generate(GeneratorConfig(env_from_coords(3, 3), seed=2, horizon=20, guarantee_dynamics=True))
    validate(trace)
    cached = trace.__dict__["_observation"]
    assert cached.structural == ()
    # the horizontal witness is one membership change, not a list of them
    service_id, t, leaves, key = cached.horizontal
    assert isinstance(t, int) and isinstance(leaves, bool) and len(key) == 3
    for name in ("vertical", "server", "network", "server_excess", "network_excess"):
        assert getattr(cached, name) is None or isinstance(getattr(cached, name), VmSample), name
    assert None not in (cached.vertical, cached.server, cached.network)


def test_threads_computing_the_pass_at_once_agree():
    trace = generate(GeneratorConfig(env_from_coords(3, 3), seed=6, horizon=20, guarantee_dynamics=True))
    declared = env_from_coords(0, 0)
    expected = (_reference_validate(trace, MODE_STRICT, declared), _reference_classify(trace))
    results: list = []
    start = threading.Barrier(4)

    def work():
        start.wait(timeout=30)
        results.append((list(validate(trace, MODE_STRICT, declared=declared).violations), classify(trace)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
