from __future__ import annotations

from decimal import Decimal

import pytest

from vmptrace.environments import env_from_coords
from vmptrace.errors import ValidationError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import config_from_dict, default_config, generate
from vmptrace.model import (
    EventKind,
    ResourceSpec,
    Trace,
    TraceEvent,
    TraceHeader,
    UtilizationSample,
    VmDescriptor,
    VmSample,
    as_quantity,
    dc_population,
    full_utilization,
    quantity_text,
    service_vm_count,
)


def test_as_quantity_accepts_exact_inputs():
    assert as_quantity(5) == Decimal(5)
    assert as_quantity("2.5") == Decimal("2.5")
    assert as_quantity(Decimal("0.125")) == Decimal("0.125")
    assert as_quantity(0) == Decimal(0)


def test_as_quantity_rejects_inexact_or_invalid_inputs():
    with pytest.raises(ValidationError):
        as_quantity(1.5)
    with pytest.raises(ValidationError):
        as_quantity(True)
    with pytest.raises(ValidationError):
        as_quantity(-1)
    with pytest.raises(ValidationError):
        as_quantity("-0.5")
    with pytest.raises(ValidationError):
        as_quantity("NaN")
    with pytest.raises(ValidationError):
        as_quantity("Infinity")
    with pytest.raises(ValidationError):
        as_quantity("not a number")


def test_negative_zero_normalizes_to_plain_zero():
    value = as_quantity("-0")
    assert value == 0
    assert quantity_text(value) == "0"


def test_quantity_text_uses_the_shortest_exact_form():
    assert quantity_text(Decimal("12.50")) == "12.5"
    assert quantity_text(Decimal("1E+2")) == "100"
    assert quantity_text(Decimal("0.25")) == "0.25"
    assert quantity_text(Decimal("5")) == "5"
    assert quantity_text(Decimal("1.0000")) == "1"
    assert quantity_text(Decimal("0")) == "0"


def test_resource_spec_converts_fields_to_decimal():
    spec = ResourceSpec(8, "16", Decimal("150"))
    assert spec.vcpu == Decimal(8)
    assert spec.vram == Decimal(16)
    assert spec.vnet == Decimal(150)
    with pytest.raises(ValidationError):
        ResourceSpec(1.5, 2, 3)


def test_full_utilization_mirrors_the_request():
    spec = ResourceSpec(8, 16, 150)
    util = full_utilization(spec)
    assert util == UtilizationSample(8, 16, 150)
    assert (util.ucpu, util.uram, util.unet) == (spec.vcpu, spec.vram, spec.vnet)


def test_descriptor_lifetime_is_half_open():
    desc = VmDescriptor(1, 2, 3, revenue=0, sla=1, t_init=2, t_end=5)
    assert desc.key == (1, 2, 3)
    assert not desc.alive_at(1)
    assert desc.alive_at(2)
    assert desc.alive_at(4)
    assert not desc.alive_at(5)


def test_descriptor_bounds_are_checked():
    with pytest.raises(ValidationError):
        VmDescriptor(1, 1, 1, revenue=0, sla=1, t_init=3, t_end=3)
    with pytest.raises(ValidationError):
        VmDescriptor(1, 1, 1, revenue=0, sla=1, t_init=-1, t_end=3)
    with pytest.raises(ValidationError):
        VmDescriptor(1, 1, 1, revenue=0, sla=0, t_init=0, t_end=3)


def test_events_carry_exactly_the_fields_their_kind_needs():
    arrival = TraceEvent(0, EventKind.SERVICE_ARRIVAL, 1)
    assert arrival.dc_id is None and arrival.vm_index is None
    scale = TraceEvent(2, EventKind.VM_SCALE_OUT, 1, dc_id=1, vm_index=3)
    assert scale.kind.is_scale
    with pytest.raises(ValidationError):
        TraceEvent(0, EventKind.SERVICE_ARRIVAL, 1, dc_id=1)
    with pytest.raises(ValidationError):
        TraceEvent(2, EventKind.VM_SCALE_OUT, 1)


def test_event_kinds_sort_arrivals_first_within_a_tick():
    events = [
        TraceEvent(1, EventKind.VM_SCALE_IN, 1, dc_id=1, vm_index=2),
        TraceEvent(1, EventKind.SERVICE_DEPARTURE, 2),
        TraceEvent(1, EventKind.VM_SCALE_OUT, 1, dc_id=1, vm_index=3),
        TraceEvent(1, EventKind.SERVICE_ARRIVAL, 3),
        TraceEvent(0, EventKind.SERVICE_ARRIVAL, 1),
    ]
    ordered = sorted(events, key=lambda event: event.sort_key)
    kinds = [event.kind for event in ordered]
    assert kinds == [
        EventKind.SERVICE_ARRIVAL,
        EventKind.SERVICE_ARRIVAL,
        EventKind.SERVICE_DEPARTURE,
        EventKind.VM_SCALE_OUT,
        EventKind.VM_SCALE_IN,
    ]
    assert ordered[0].t == 0


def test_header_checks_seed_and_digest():
    env = env_from_coords(0, 0)
    header = TraceHeader(env, horizon=5, num_datacenters=1, seed=7, config_digest="0" * 64)
    assert header.sla_levels == 1
    with pytest.raises(ValidationError):
        TraceHeader(env, horizon=5, num_datacenters=1, seed=2**64)
    with pytest.raises(ValidationError):
        TraceHeader(env, horizon=5, num_datacenters=1, seed=-1)
    with pytest.raises(ValidationError):
        TraceHeader(env, horizon=5, num_datacenters=1, config_digest="zz")
    with pytest.raises(ValidationError):
        TraceHeader(env, horizon=-1, num_datacenters=1)
    with pytest.raises(ValidationError):
        TraceHeader(env, horizon=5, num_datacenters=0)


def test_trace_rejects_duplicate_descriptor_identities():
    header = TraceHeader(env_from_coords(0, 0), horizon=4, num_datacenters=1)
    first = VmDescriptor(1, 1, 1, revenue=0, sla=1, t_init=0, t_end=2)
    clash = VmDescriptor(1, 1, 1, revenue=5, sla=1, t_init=0, t_end=3)
    with pytest.raises(ValidationError):
        Trace(header, (first, clash), (), ())


def test_dc_population_on_the_horizontal_example():
    trace = fixture_trace(FixtureId.ENV_1_0)
    assert dc_population(trace, 1, 0) == [(1, 1), (1, 2)]
    assert dc_population(trace, 1, 2) == [(1, 1), (1, 2), (2, 3)]
    assert dc_population(trace, 2, 2) == [(1, 1), (1, 2), (2, 3)]
    assert dc_population(trace, 1, 4) == [(2, 3)]
    assert dc_population(trace, 1, 5) == []
    assert dc_population(trace, 3, 0) == []


def test_dc_population_rejects_ticks_outside_the_horizon():
    trace = fixture_trace(FixtureId.ENV_1_0)
    with pytest.raises(ValidationError):
        dc_population(trace, 1, 6)
    with pytest.raises(ValidationError):
        dc_population(trace, 1, -1)


def test_service_vm_count_on_the_horizontal_example():
    trace = fixture_trace(FixtureId.ENV_1_0)
    assert service_vm_count(trace, 1, 0) == 4
    assert service_vm_count(trace, 2, 0) == 0
    assert service_vm_count(trace, 2, 1) == 0
    assert service_vm_count(trace, 2, 2) == 2
    assert service_vm_count(trace, 2, 3) == 2
    assert service_vm_count(trace, 2, 4) == 2
    assert service_vm_count(trace, 2, 5) == 0
    assert service_vm_count(trace, 9, 0) == 0


def _scan_dc_population(trace, dc_id, t):
    """Reference: the full descriptor scan dc_population used to make per call."""
    pairs = [
        (desc.service_id, desc.vm_index)
        for desc in trace.descriptors
        if desc.dc_id == dc_id and desc.alive_at(t)
    ]
    pairs.sort()
    return pairs


def _scan_service_vm_count(trace, service_id, t):
    return sum(1 for desc in trace.descriptors if desc.service_id == service_id and desc.alive_at(t))


def _population_traces():
    traces = [fixture_trace(fixture) for fixture in FixtureId]
    for (elasticity, overbooking), seed in (((0, 0), 0), ((1, 0), 1), ((1, 3), 2), ((2, 1), 3), ((3, 3), 4)):
        env = env_from_coords(elasticity, overbooking)
        traces.append(generate(default_config(env, seed=seed, horizon=15, num_datacenters=3, guarantee_dynamics=True)))
    for seed in (1, 2):
        burst = {
            "environment": [1, 0],
            "horizon": 30,
            "num_datacenters": 3,
            "seed": seed,
            "arrival": {"rate": 3, "burst": True},
            "service_shape": {"vms_per_dc": [1, 2], "lifetime": [1, 4]},
            "guarantee_dynamics": True,
        }
        traces.append(generate(config_from_dict(burst)))

    header = TraceHeader(env_from_coords(1, 0), horizon=5, num_datacenters=2)
    hand_built = [
        VmDescriptor(3, 2, 1, revenue=0, sla=1, t_init=1, t_end=4),
        VmDescriptor(1, 2, 2, revenue=0, sla=1, t_init=0, t_end=2),
        VmDescriptor(2, 1, 5, revenue=0, sla=1, t_init=2, t_end=9),  # ends past the horizon
        VmDescriptor(1, 2, 1, revenue=0, sla=1, t_init=0, t_end=5),
        VmDescriptor(2, 1, 1, revenue=0, sla=1, t_init=4, t_end=5),
        VmDescriptor(1, 4, 1, revenue=0, sla=1, t_init=1, t_end=3),  # dc beyond num_datacenters
        VmDescriptor(4, 1, 1, revenue=0, sla=1, t_init=7, t_end=8),  # starts past the horizon
    ]
    traces.append(Trace(header, tuple(hand_built), (), ()))
    traces.append(Trace(header, tuple(reversed(hand_built)), (), ()))
    return traces


def test_dc_population_and_service_vm_count_match_a_full_scan():
    for trace in _population_traces():
        header = trace.header
        dc_ids = range(0, max([header.num_datacenters, *(d.dc_id for d in trace.descriptors)]) + 2)
        service_ids = range(0, max([0, *(d.service_id for d in trace.descriptors)]) + 2)
        for t in range(header.horizon):
            for dc_id in dc_ids:
                assert dc_population(trace, dc_id, t) == _scan_dc_population(trace, dc_id, t), (header, dc_id, t)
            for service_id in service_ids:
                assert service_vm_count(trace, service_id, t) == _scan_service_vm_count(trace, service_id, t)


def test_dc_population_on_hand_built_out_of_order_traces():
    hand_built = _population_traces()[-2:]
    for trace in hand_built:
        assert dc_population(trace, 2, 0) == [(1, 1), (1, 2)]
        assert dc_population(trace, 2, 1) == [(1, 1), (1, 2), (3, 1)]
        assert dc_population(trace, 1, 4) == [(2, 1), (2, 5)]
        assert dc_population(trace, 4, 2) == [(1, 1)]
        assert dc_population(trace, 3, 2) == []
        assert service_vm_count(trace, 2, 4) == 2
        assert service_vm_count(trace, 4, 4) == 0
        with pytest.raises(ValidationError):
            dc_population(trace, 1, 5)
        with pytest.raises(ValidationError):
            service_vm_count(trace, 1, 5)


def test_dc_population_returns_a_fresh_list_each_call():
    trace = fixture_trace(FixtureId.ENV_1_0)
    first = dc_population(trace, 1, 2)
    first.append((9, 9))
    first.remove((1, 1))
    assert dc_population(trace, 1, 2) == [(1, 1), (1, 2), (2, 3)]
    empty = dc_population(trace, 1, 5)
    empty.append((9, 9))
    assert dc_population(trace, 1, 5) == []
    unused = dc_population(trace, 7, 0)
    unused.append((9, 9))
    assert dc_population(trace, 7, 0) == []
    for bad in (6, -1, 7, True, "1", 1.0):
        with pytest.raises(ValidationError):
            dc_population(trace, 1, bad)
        with pytest.raises(ValidationError):
            service_vm_count(trace, 1, bad)


def test_sample_sort_key_orders_by_tick_then_identity():
    spec = ResourceSpec(1, 1, 1)
    util = full_utilization(spec)
    samples = [
        VmSample(2, 1, 1, 0, spec, util),
        VmSample(1, 2, 1, 0, spec, util),
        VmSample(1, 1, 2, 0, spec, util),
        VmSample(1, 1, 1, 1, spec, util),
        VmSample(1, 1, 1, 0, spec, util),
    ]
    ordered = sorted(samples, key=lambda sample: sample.sort_key)
    keys = [(s.t, s.service_id, s.dc_id, s.vm_index) for s in ordered]
    assert keys == [(0, 1, 1, 1), (0, 1, 1, 2), (0, 1, 2, 1), (0, 2, 1, 1), (1, 1, 1, 1)]
    assert ordered[0].vm_key == (1, 1, 1)
