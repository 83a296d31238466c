from __future__ import annotations

import dataclasses
from decimal import Decimal

import pytest

from vmptrace.analysis import (
    MODE_PAPER,
    MODE_STRICT,
    RULE_DENSE_SAMPLING,
    RULE_EVENT_CONSISTENCY,
    RULE_NO_HORIZONTAL,
    RULE_NO_NETWORK_OVERBOOKING,
    RULE_NO_SERVER_OVERBOOKING,
    RULE_NO_VERTICAL,
    RULE_OVERBOOKING_BOUND,
    classify,
    stats,
    validate,
)
from vmptrace.environments import (
    Capabilities,
    capabilities,
    enumerate_environments,
    env_from_capabilities,
    env_from_coords,
)
from vmptrace.errors import IntegrityError, ValidationError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import default_config, generate
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
    trace = generate(default_config(env_from_coords(0, 0), seed=seed, horizon=horizon))
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
        previous = {d.key for d in members if d.alive_at(lo)}
        for t in range(lo + 1, hi):
            current = {d.key for d in members if d.alive_at(t)}
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
    static = generate(default_config(env_from_coords(0, 0), seed=3, horizon=8))
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
        default_config(env_from_coords(1, 0), seed=3, horizon=20),
        horizontal_policy=dataclasses.replace(
            default_config(env_from_coords(1, 0)).horizontal_policy, p_scale=1.0
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
            config = default_config(
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
        config = default_config(env, seed=2, horizon=10, guarantee_dynamics=True)
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
        default_config(env_from_coords(3, 3), seed=9, horizon=10, guarantee_dynamics=True)
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
