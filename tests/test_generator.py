from __future__ import annotations

import dataclasses
import json
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vmptrace import generator, model
from vmptrace.analysis import classify, validate
from vmptrace.environments import enumerate_environments, env_from_coords
from vmptrace.errors import ConfigError, VmpTraceError
from vmptrace.generator import (
    ArrivalModel,
    GeneratorConfig,
    HorizontalPolicy,
    ServiceShape,
    SizingRanges,
    UtilizationPolicy,
    VerticalPolicy,
    check_config,
    config_digest,
    config_from_dict,
    config_to_dict,
    evolve_horizontal,
    evolve_utilization,
    evolve_vertical,
    generate,
)
from vmptrace.model import EventKind, ResourceSpec, UtilizationSample, full_utilization
from vmptrace.rng import SplitMix64, derive_stream
from vmptrace.traceio import read_trace, trace_to_bytes


def _inert(config: GeneratorConfig) -> GeneratorConfig:
    """Disable every stochastic dynamic so only guaranteed injections remain."""
    return dataclasses.replace(
        config,
        vertical_policy=dataclasses.replace(config.vertical_policy, p_step=0.0),
        horizontal_policy=dataclasses.replace(config.horizontal_policy, p_scale=0.0),
        utilization_policy=dataclasses.replace(
            config.utilization_policy, cpu_step=(0, 0), ram_step=(0, 0), net_step=(0, 0)
        ),
    )


def test_static_environment_produces_constant_series():
    trace = generate(GeneratorConfig(env_from_coords(0, 0), seed=42, horizon=5))
    assert trace.samples, "expected at least one service"
    specs_seen: dict[tuple[int, int, int], set] = {}
    for sample in trace.samples:
        assert sample.util == full_utilization(sample.spec)
        specs_seen.setdefault(sample.vm_key, set()).add(
            (sample.spec.vcpu, sample.spec.vram, sample.spec.vnet)
        )
    for values in specs_seen.values():
        assert len(values) == 1
    assert all(not event.kind.is_scale for event in trace.events)


def test_identical_configs_generate_identical_traces():
    config = GeneratorConfig(env_from_coords(3, 3), seed=7, horizon=15, num_datacenters=2)
    first = generate(config)
    second = generate(config)
    assert first == second
    assert trace_to_bytes(first) == trace_to_bytes(second)


def test_different_seeds_generate_different_traces():
    base = GeneratorConfig(env_from_coords(3, 3), seed=0, horizon=15)
    other = dataclasses.replace(base, seed=1)
    assert trace_to_bytes(generate(base)) != trace_to_bytes(generate(other))


def test_generated_traces_pass_strict_validation():
    for coords in ((0, 0), (1, 0), (2, 0), (0, 3), (3, 3)):
        for seed in (0, 1):
            config = GeneratorConfig(env_from_coords(*coords), seed=seed, horizon=15)
            report = validate(generate(config), mode="strict")
            assert report.ok, report.render_text()


def test_header_records_the_generating_config():
    config = GeneratorConfig(env_from_coords(1, 2), seed=99, horizon=12, num_datacenters=3)
    trace = generate(config)
    assert trace.header.environment == config.environment
    assert trace.header.horizon == 12
    assert trace.header.num_datacenters == 3
    assert trace.header.seed == 99
    assert trace.header.sla_levels == config.sizing.sla[1]
    assert trace.header.config_digest == config_digest(config)


def _arrivals(trace) -> dict[int, int]:
    return {event.service_id: event.t for event in trace.events if event.kind is EventKind.SERVICE_ARRIVAL}


def test_each_service_keeps_its_drawn_count_in_every_datacenter_for_its_lifetime():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 0), seed=2, horizon=20, num_datacenters=3),
        service_shape=ServiceShape(vms_per_dc=(2, 2), lifetime=(3, 3)),
    )
    trace = generate(config)
    arrivals = _arrivals(trace)
    assert len(arrivals) > 1 and max(arrivals.values()) > 17, "the seed should give a service clipped by the horizon"
    for service_id, t0 in arrivals.items():
        members = [d for d in trace.descriptors if d.service_id == service_id]
        assert sorted(d.dc_id for d in members) == [1, 1, 2, 2, 3, 3]
        assert {(d.t_init, d.t_end) for d in members} == {(t0, min(t0 + 3, 20))}


def test_vm_indices_in_each_datacenter_run_from_one_in_service_order():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 0), seed=2, horizon=20, num_datacenters=3),
        service_shape=ServiceShape(vms_per_dc=(1, 3), lifetime=(3, 3)),
    )
    trace = generate(config)
    for dc_id in (1, 2, 3):
        members = sorted((d.service_id, d.vm_index) for d in trace.descriptors if d.dc_id == dc_id)
        assert [vm_index for _, vm_index in members] == list(range(1, len(members) + 1))


@pytest.mark.parametrize("coords", [(0, 0), (1, 0), (2, 3), (3, 3)])
def test_first_samples_lie_within_the_sizing_ranges(coords):
    sizing = SizingRanges(vcpu=(2, 9), vram=(0, 5), vnet=(10, 20), revenue=(3, 50), sla=(2, 4))
    config = dataclasses.replace(GeneratorConfig(env_from_coords(*coords), seed=11, horizon=12), sizing=sizing)
    trace = generate(config)
    first = {sample.vm_key: sample for sample in reversed(trace.samples)}
    assert trace.descriptors
    for desc in trace.descriptors:
        spec = first[desc.key].spec
        assert first[desc.key].t == desc.t_init
        assert sizing.vcpu[0] <= spec.vcpu <= sizing.vcpu[1]
        assert sizing.vram[0] <= spec.vram <= sizing.vram[1]
        assert sizing.vnet[0] <= spec.vnet <= sizing.vnet[1]
        assert sizing.revenue[0] <= desc.revenue <= sizing.revenue[1]
        assert sizing.sla[0] <= desc.sla <= sizing.sla[1]


def test_the_guarantee_gives_the_first_service_two_ticks():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(2, 0), seed=0, horizon=10, guarantee_dynamics=True),
        arrival=ArrivalModel(rate=1.0),
        service_shape=ServiceShape(vms_per_dc=(1, 2), lifetime=(1, 1)),
    )
    trace = generate(config)
    spans = {d.service_id: d.t_end - d.t_init for d in trace.descriptors}
    assert spans == {service_id: 2 if service_id == 1 else 1 for service_id in range(1, 11)}


def test_lifetimes_are_clipped_to_the_horizon():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 0), horizon=50),
        arrival=ArrivalModel(rate=1.0),
        service_shape=ServiceShape(vms_per_dc=(1, 1), lifetime=(5, 5)),
    )
    trace = generate(config)
    arrivals = _arrivals(trace)
    assert arrivals == {service_id: service_id - 1 for service_id in range(1, 51)}
    for desc in trace.descriptors:
        assert desc.t_end == min(arrivals[desc.service_id] + 5, 50)
    assert {d.t_end for d in trace.descriptors if d.t_init >= 46} == {50}


def test_initial_vm_count_is_clamped_into_the_horizontal_bounds():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(1, 0), seed=6, horizon=10),
        service_shape=ServiceShape(vms_per_dc=(1, 1), lifetime=(3, 4)),
        horizontal_policy=HorizontalPolicy(p_scale=0.0, min_vms=2, max_vms=5),
    )
    trace = generate(config)
    for service_id in {d.service_id for d in trace.descriptors}:
        for dc_id in (1, 2):
            born = [
                d
                for d in trace.descriptors
                if d.service_id == service_id and d.dc_id == dc_id
            ]
            assert len(born) == 2


def test_vertical_step_reachable_values():
    policy = VerticalPolicy(p_step=1.0, magnitude=(0.25, 0.25), vary_net=False, precision=0)
    spec = ResourceSpec(8, 16, 150)
    cpu_seen: set[Decimal] = set()
    ram_seen: set[Decimal] = set()
    for i in range(100):
        stepped = evolve_vertical(derive_stream(3, i), spec, policy)
        assert stepped.vcpu in (Decimal(6), Decimal(10))
        assert stepped.vram in (Decimal(12), Decimal(20))
        assert stepped.vnet == Decimal(150)
        cpu_seen.add(stepped.vcpu)
        ram_seen.add(stepped.vram)
    assert cpu_seen == {Decimal(6), Decimal(10)}
    assert ram_seen == {Decimal(12), Decimal(20)}


def test_vertical_step_never_drops_below_one_unit():
    policy = VerticalPolicy(p_step=1.0, magnitude=(0.5, 0.5), vary_net=False, precision=0)
    spec = ResourceSpec(1, 1, 10)
    for i in range(50):
        stepped = evolve_vertical(derive_stream(4, i), spec, policy)
        assert stepped.vcpu >= 1
        assert stepped.vram >= 1
        assert stepped.vcpu in (Decimal(1), Decimal(2))


def test_vertical_step_skips_zero_valued_components():
    policy = VerticalPolicy(p_step=1.0, magnitude=(0.5, 0.5), vary_net=True, precision=0)
    spec = ResourceSpec(2, 2, 0)
    for i in range(50):
        assert evolve_vertical(derive_stream(5, i), spec, policy).vnet == Decimal(0)


def test_vertical_step_precision_controls_rounding():
    spec = ResourceSpec(5, 5, 10)
    fine = VerticalPolicy(p_step=1.0, magnitude=(0.1, 0.1), vary_net=False, precision=1)
    coarse = VerticalPolicy(p_step=1.0, magnitude=(0.1, 0.1), vary_net=False, precision=0)
    fine_seen = {evolve_vertical(derive_stream(6, i), spec, fine).vcpu for i in range(60)}
    coarse_seen = {evolve_vertical(derive_stream(6, i), spec, coarse).vcpu for i in range(60)}
    assert fine_seen == {Decimal("4.5"), Decimal("5.5")}
    assert coarse_seen == {Decimal(4), Decimal(6)}


def test_vertical_step_probability_zero_leaves_spec_and_stream_alone():
    policy = VerticalPolicy(p_step=0.0, magnitude=(0.1, 0.4), vary_net=True, precision=0)
    spec = ResourceSpec(8, 16, 150)
    stream = derive_stream(9, 1)
    untouched = derive_stream(9, 1)
    assert evolve_vertical(stream, spec, policy) == spec
    assert stream.next_u64() == untouched.next_u64()


def test_horizontal_actions_respect_the_bounds():
    policy = HorizontalPolicy(p_scale=1.0, min_vms=1, max_vms=4)
    for i in range(100):
        at_max = evolve_horizontal(derive_stream(7, i), {1: 4, 2: 4}, policy)
        assert len(at_max) == 1 and at_max[0][0] == "in"
        at_min = evolve_horizontal(derive_stream(8, i), {1: 1, 2: 1}, policy)
        assert len(at_min) == 1 and at_min[0][0] == "out"


def test_horizontal_uses_both_directions_and_datacenters():
    policy = HorizontalPolicy(p_scale=1.0, min_vms=1, max_vms=4)
    directions: set[str] = set()
    datacenters: set[int] = set()
    for i in range(300):
        actions = evolve_horizontal(derive_stream(10, i), {1: 2, 2: 3}, policy)
        assert len(actions) == 1
        direction, dc_id = actions[0]
        assert direction in ("out", "in")
        assert dc_id in (1, 2)
        directions.add(direction)
        datacenters.add(dc_id)
    assert directions == {"out", "in"}
    assert datacenters == {1, 2}


def test_horizontal_probability_zero_means_no_actions():
    policy = HorizontalPolicy(p_scale=0.0, min_vms=1, max_vms=4)
    assert evolve_horizontal(derive_stream(11, 0), {1: 2}, policy) == []


def test_horizontal_scale_frequency_tracks_the_probability():
    policy = HorizontalPolicy(p_scale=0.3, min_vms=1, max_vms=4)
    hits = 0
    for i in range(5000):
        if evolve_horizontal(derive_stream(12, i), {1: 2}, policy):
            hits += 1
    assert abs(hits / 5000 - 0.3) < 0.03


def test_horizontal_simulation_stays_within_bounds():
    policy = HorizontalPolicy(p_scale=1.0, min_vms=1, max_vms=4)
    stream = derive_stream(13, 0)
    counts = {1: 2, 2: 2}
    for _ in range(500):
        for direction, dc_id in evolve_horizontal(stream, counts, policy):
            counts[dc_id] += 1 if direction == "out" else -1
        assert all(1 <= count <= 4 for count in counts.values())


def test_utilization_tracks_the_request_when_overbooking_is_disabled():
    policy = UtilizationPolicy(cpu_step=(1, 3), ram_step=(1, 3), net_step=(1, 3))
    spec = ResourceSpec(4, 8, 100)
    prev = UtilizationSample(1, 1, 1)
    stream = derive_stream(14, 0)
    untouched = derive_stream(14, 0)
    result = evolve_utilization(stream, prev, spec, policy, server=False, network=False)
    assert result == full_utilization(spec)
    assert stream.next_u64() == untouched.next_u64()


def test_utilization_walk_stays_within_the_request_by_default():
    policy = UtilizationPolicy(cpu_step=(1, 2), ram_step=(1, 3), net_step=(5, 20))
    spec = ResourceSpec(4, 8, 100)
    stream = derive_stream(15, 0)
    util = full_utilization(spec)
    for _ in range(300):
        util = evolve_utilization(stream, util, spec, policy, server=True, network=True)
        assert Decimal(0) <= util.ucpu <= spec.vcpu
        assert Decimal(0) <= util.uram <= spec.vram
        assert Decimal(0) <= util.unet <= spec.vnet


def test_utilization_walk_leaves_disabled_classes_pinned():
    policy = UtilizationPolicy(cpu_step=(1, 2), ram_step=(1, 3), net_step=(5, 20))
    spec = ResourceSpec(4, 8, 100)
    stream = derive_stream(16, 0)
    util = full_utilization(spec)
    for _ in range(50):
        util = evolve_utilization(stream, util, spec, policy, server=True, network=False)
        assert util.unet == spec.vnet


def test_utilization_walk_may_exceed_the_request_when_allowed():
    policy = UtilizationPolicy(
        cpu_step=(1, 1), ram_step=(1, 2), net_step=(3, 3), allow_exceed_request=True
    )
    spec = ResourceSpec(2, 4, 10)
    stream = derive_stream(17, 0)
    util = full_utilization(spec)
    exceeded = False
    for _ in range(400):
        util = evolve_utilization(stream, util, spec, policy, server=True, network=True)
        assert util.ucpu <= 2 * spec.vcpu
        assert util.uram <= 2 * spec.vram
        assert util.unet <= 2 * spec.vnet
        exceeded = exceeded or util.ucpu > spec.vcpu
    assert exceeded


def test_a_walk_landing_on_zero_returns_the_canonical_zero():
    # 2.0 - 2 is Decimal("0.0"); the walk hands back the 0 that as_quantity
    # makes of it, since repr and stats JSON show the exponent
    two = Decimal("2.0")
    policy = UtilizationPolicy(cpu_step=(2, 2), ram_step=(2, 2), net_step=(2, 2))
    result = evolve_utilization(
        SplitMix64(6), UtilizationSample(two, two, two), ResourceSpec(two, two, two), policy, server=True, network=True
    )
    assert repr(result) == repr(UtilizationSample(Decimal(0), Decimal(0), two))


@pytest.mark.parametrize("coords", [(3, 3), (1, 0)])
def test_the_fill_path_checks_each_quantity_once_and_builds_without_checking(monkeypatch, coords):
    config = GeneratorConfig(env_from_coords(*coords), seed=5, horizon=12)
    trace = generate(config)
    specs = {id(sample.spec) for sample in trace.samples}
    utils = {id(sample.util) for sample in trace.samples}
    assert len(specs) < len(trace.samples) and len(utils) < len(trace.samples)
    # each quantity is checked where a draw or step makes it, then built
    # into a spec, utilization and sample without checking again: the model
    # constructors, which would check it a second time, are not called
    names = ("as_quantity", "_new_spec", "_new_util", "_new_sample", "ResourceSpec", "UtilizationSample", "VmSample")
    built = {name: [] for name in names}
    for module, name in [(generator, name) for name in names] + [(model, "_new_util")]:
        def counting(*args, name=name, real=getattr(module, name)):
            result = real(*args)
            built[name].append((args, result))
            return result

        monkeypatch.setattr(module, name, counting)
    again = generate(config)
    assert repr(again) == repr(trace)
    assert len(built["_new_spec"]) == len(specs)
    assert len(built["_new_util"]) == len(utils)
    assert len(built["_new_sample"]) == len(trace.samples)
    assert not built["ResourceSpec"] and not built["UtilizationSample"] and not built["VmSample"]
    # three sizes and a revenue drawn per VM are the only ints checked, and
    # every value checked is one the trace holds, none made and dropped
    assert sum(type(args[0]) is int for args, _ in built["as_quantity"]) == 4 * len(trace.descriptors)
    held = {id(desc.revenue) for desc in again.descriptors} | {
        id(getattr(part, name))
        for sample in again.samples
        for part, names in ((sample.spec, ("vcpu", "vram", "vnet")), (sample.util, ("ucpu", "uram", "unet")))
        for name in names
    }
    assert {id(result) for _, result in built["as_quantity"]} <= held
    if coords == (1, 0):
        assert len(built["as_quantity"]) == 4 * len(trace.descriptors)


def test_config_checks_reject_bad_fields():
    base = GeneratorConfig(env_from_coords(0, 0))
    bad_cases = [
        dict(horizon=0),
        dict(num_datacenters=0),
        dict(seed=-1),
        dict(seed=2**64),
        dict(arrival=ArrivalModel(rate=-0.1)),
        dict(arrival=ArrivalModel(rate=1.2)),
        # a burst mean is drawn in chunks, so an infinite one would never finish
        dict(arrival=ArrivalModel(rate=float("inf"), burst=True)),
        dict(arrival=ArrivalModel(rate=float("nan"), burst=True)),
        dict(service_shape=ServiceShape(lifetime=(0, 2))),
        dict(service_shape=ServiceShape(lifetime=(5, 2))),
        dict(service_shape=ServiceShape(vms_per_dc=(0, 1))),
        dict(service_shape=ServiceShape(vms_per_dc=(2, 1))),
        dict(sizing=SizingRanges(vcpu=(-1, 2))),
        dict(sizing=SizingRanges(revenue=(5, 2))),
        dict(sizing=SizingRanges(sla=(0, 1))),
        dict(vertical_policy=VerticalPolicy(p_step=-0.1)),
        dict(vertical_policy=VerticalPolicy(p_step=1.5)),
        dict(vertical_policy=VerticalPolicy(magnitude=(-0.1, 0.4))),
        dict(vertical_policy=VerticalPolicy(magnitude=(0.4, 0.1))),
        dict(vertical_policy=VerticalPolicy(magnitude=(0.1, float("inf")))),
        dict(vertical_policy=VerticalPolicy(precision=-1)),
        dict(horizontal_policy=HorizontalPolicy(min_vms=0)),
        dict(horizontal_policy=HorizontalPolicy(min_vms=3, max_vms=2)),
        dict(utilization_policy=UtilizationPolicy(cpu_step=(2, 1))),
        dict(utilization_policy=UtilizationPolicy(net_step=(-1, 2))),
        # quantities must stay below 10**28, where quantity_text renders exactly
        dict(sizing=SizingRanges(vcpu=(1, 10**28))),
        dict(sizing=SizingRanges(revenue=(0, 10**30 + 1))),
        dict(utilization_policy=UtilizationPolicy(cpu_step=(0, 10**28))),
        # a truthy non-bool, such as a nested list from a config file, is not a flag
        dict(guarantee_dynamics=1),
        dict(guarantee_dynamics=[[]]),
        dict(arrival=ArrivalModel(force_first="false")),
        dict(arrival=ArrivalModel(burst="false")),
        dict(vertical_policy=VerticalPolicy(vary_net=0)),
        dict(utilization_policy=UtilizationPolicy(allow_exceed_request=None)),
    ]
    for replacement in bad_cases:
        with pytest.raises(ConfigError):
            check_config(dataclasses.replace(base, **replacement))


def test_largest_quantity_ranges_generate_renderable_traces():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 1), seed=3, horizon=4),
        sizing=SizingRanges(vcpu=(10**28 - 1, 10**28 - 1), revenue=(10**28 - 1, 10**28 - 1)),
        utilization_policy=UtilizationPolicy(cpu_step=(10**28 - 1, 10**28 - 1)),
    )
    check_config(config)
    trace = generate(config)
    assert {sample.spec.vcpu for sample in trace.samples} == {Decimal(10**28 - 1)}
    assert read_trace(trace_to_bytes(trace)) == trace
    with pytest.raises(ConfigError, match=r"sizing.vcpu upper bound must be < 10\*\*28"):
        check_config(dataclasses.replace(config, sizing=SizingRanges(vcpu=(1, 10**28))))


def test_an_infinite_magnitude_bound_is_a_config_error_naming_the_field():
    # without the check, generate fails at the first step with the per-VM
    # domain error instead
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(2, 0), seed=1),
        vertical_policy=VerticalPolicy(p_step=0.25, magnitude=(0.0, float("inf"))),
    )
    message = r"^vertical_policy\.magnitude upper bound must be finite, got \(0\.0, inf\)$"
    with pytest.raises(ConfigError, match=message):
        check_config(config)
    with pytest.raises(ConfigError, match=message):
        generate(config)
    with pytest.raises(ConfigError, match=message):
        config_from_dict(config_to_dict(config))


_NEAR_LIMIT = (10**28 - 1, 10**28 - 1)


@pytest.mark.parametrize(
    "environment, replacements",
    [
        # a quantize to 30 places needs more than the context's 28 digits
        ((2, 0), dict(vertical_policy=VerticalPolicy(p_step=1.0, precision=30))),
        # a step compounds past 10**28
        ((2, 0), dict(vertical_policy=VerticalPolicy(p_step=1.0), sizing=SizingRanges(vcpu=_NEAR_LIMIT))),
        # the walk may reach twice a request near 10**28
        ((0, 1), dict(
            sizing=SizingRanges(vcpu=_NEAR_LIMIT),
            utilization_policy=UtilizationPolicy(cpu_step=(10**27, 10**27), allow_exceed_request=True),
        )),
        # the guarantee_dynamics resize bumps vcpu by one
        ((2, 0), dict(
            vertical_policy=VerticalPolicy(p_step=0.0), sizing=SizingRanges(vcpu=_NEAR_LIMIT), guarantee_dynamics=True,
        )),
    ],
)
def test_a_generated_quantity_leaving_the_domain_is_a_config_error(environment, replacements):
    config = dataclasses.replace(GeneratorConfig(env_from_coords(*environment), seed=3), **replacements)
    check_config(config)
    with pytest.raises(ConfigError, match=r"^VM \(\d+, \d+, \d+\) at t=\d+: a generated quantity leaves the quantity domain"):
        generate(config)


def _ordered_pair(values):
    return st.lists(st.sampled_from(values), min_size=2, max_size=2).map(lambda pair: tuple(sorted(pair)))


_EXTREME_QUANTITIES = [0, 1, 7, 10**14, 10**27, 10**28 - 2, 10**28 - 1]


@st.composite
def _accepted_configs(draw):
    """Small horizons and populations with sizing, precision, magnitude and
    step ranges out to the limits check_config accepts."""
    config = GeneratorConfig(
        environment=env_from_coords(draw(st.integers(0, 3)), draw(st.integers(0, 3))),
        horizon=draw(st.integers(1, 4)),
        num_datacenters=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 2**64 - 1)),
        arrival=ArrivalModel(rate=draw(st.sampled_from([0.0, 0.5, 1.0])), force_first=draw(st.booleans())),
        service_shape=ServiceShape(vms_per_dc=(1, draw(st.integers(1, 2))), lifetime=(1, draw(st.integers(1, 4)))),
        sizing=SizingRanges(
            vcpu=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            vram=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            vnet=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            revenue=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            sla=(1, draw(st.integers(1, 3))),
        ),
        vertical_policy=VerticalPolicy(
            p_step=draw(st.sampled_from([0.0, 0.5, 1.0])),
            magnitude=draw(_ordered_pair([0.0, 0.1, 0.5, 1.0, 3.0, 1e10, 1e300, sys.float_info.max])),
            vary_net=draw(st.booleans()),
            precision=draw(st.sampled_from([0, 1, 3, 20, 26, 27, 28, 30, 100])),
        ),
        horizontal_policy=HorizontalPolicy(p_scale=draw(st.sampled_from([0.0, 0.5, 1.0])), min_vms=1, max_vms=draw(st.integers(1, 3))),
        utilization_policy=UtilizationPolicy(
            cpu_step=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            ram_step=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            net_step=draw(_ordered_pair(_EXTREME_QUANTITIES)),
            allow_exceed_request=draw(st.booleans()),
        ),
        guarantee_dynamics=draw(st.booleans()),
    )
    try:
        check_config(config)
    except ConfigError:
        # a guarantee the sizing cannot meet; the same config without it is accepted
        config = dataclasses.replace(config, guarantee_dynamics=False)
        check_config(config)
    return config


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_accepted_configs())
def test_every_accepted_config_generates_or_raises_a_package_error(config):
    try:
        trace = generate(config)
    except VmpTraceError:
        return
    document = trace_to_bytes(trace)
    assert read_trace(document) == trace


def test_burst_arrivals_allow_rates_above_one():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 0), seed=8, horizon=6),
        arrival=ArrivalModel(rate=3.0, force_first=True, burst=True),
    )
    check_config(config)
    trace = generate(config)
    arrivals = [e for e in trace.events if e.kind == EventKind.SERVICE_ARRIVAL]
    assert len(arrivals) > 6


def test_guarantee_feasibility_is_checked_up_front():
    cases = [
        GeneratorConfig(env_from_coords(1, 0), horizon=1, guarantee_dynamics=True),
        dataclasses.replace(
            GeneratorConfig(env_from_coords(1, 0), guarantee_dynamics=True),
            horizontal_policy=HorizontalPolicy(min_vms=2, max_vms=2),
        ),
        dataclasses.replace(
            GeneratorConfig(env_from_coords(0, 1), guarantee_dynamics=True),
            sizing=SizingRanges(vcpu=(0, 0), vram=(0, 0)),
        ),
        dataclasses.replace(
            GeneratorConfig(env_from_coords(0, 2), guarantee_dynamics=True),
            sizing=SizingRanges(vnet=(0, 0)),
        ),
    ]
    for config in cases:
        with pytest.raises(ConfigError):
            check_config(config)
    # A static environment has nothing to guarantee, so a short horizon is fine.
    check_config(GeneratorConfig(env_from_coords(0, 0), horizon=1, guarantee_dynamics=True))


def test_guarantee_injects_dynamics_even_with_inert_policies():
    for env in enumerate_environments():
        config = _inert(
            GeneratorConfig(env, seed=1, horizon=8, num_datacenters=2, guarantee_dynamics=True)
        )
        trace = generate(config)
        assert classify(trace) == env, f"environment {env} not realized"
        assert validate(trace, mode="strict").ok


def test_guarantee_without_a_positive_request_fails_at_generation():
    # check_config passes, as vram may draw 1; at seed 0 every VM draws 0
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(0, 1), seed=0, horizon=2, num_datacenters=1, guarantee_dynamics=True),
        arrival=ArrivalModel(rate=0.0),
        service_shape=ServiceShape(vms_per_dc=(1, 1), lifetime=(2, 2)),
        sizing=SizingRanges(vcpu=(0, 0), vram=(0, 1)),
    )
    with pytest.raises(ConfigError) as excinfo:
        generate(config)
    assert str(excinfo.value) == "guarantee_dynamics: no VM has a positive request to host a server overbooking instance"


def test_guarantee_forces_an_arrival_at_tick_zero():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(2, 0), seed=0, horizon=8, guarantee_dynamics=True),
        arrival=ArrivalModel(rate=0.0, force_first=False),
    )
    trace = generate(config)
    arrivals = [e for e in trace.events if e.kind == EventKind.SERVICE_ARRIVAL]
    assert arrivals and arrivals[0].t == 0


def test_at_most_one_scale_action_per_service_per_tick():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(1, 0), seed=3, horizon=30),
        arrival=ArrivalModel(rate=0.5, force_first=True),
        horizontal_policy=HorizontalPolicy(p_scale=1.0, min_vms=1, max_vms=4),
    )
    trace = generate(config)
    scale_moments = [
        (event.t, event.service_id) for event in trace.events if event.kind.is_scale
    ]
    assert scale_moments, "expected scale activity at p_scale=1"
    assert len(scale_moments) == len(set(scale_moments))


@pytest.mark.parametrize(
    "config",
    [
        GeneratorConfig(env_from_coords(1, 0), seed=1, horizon=20),
        GeneratorConfig(env_from_coords(3, 3), seed=1, horizon=20),
        # no scale action is drawn, so the guarantee scales the first service out
        dataclasses.replace(
            GeneratorConfig(env_from_coords(1, 0), seed=1, horizon=8, guarantee_dynamics=True),
            horizontal_policy=HorizontalPolicy(p_scale=0.0),
        ),
        # ... or, with datacenter 1 already at max_vms, in
        dataclasses.replace(
            GeneratorConfig(env_from_coords(1, 0), seed=1, horizon=8, guarantee_dynamics=True),
            service_shape=ServiceShape(vms_per_dc=(2, 2)),
            horizontal_policy=HorizontalPolicy(p_scale=0.0, max_vms=2),
        ),
    ],
    ids=["1,0", "3,3", "guaranteed-out", "guaranteed-in"],
)
def test_vms_born_on_arrival_and_by_scale_out_share_the_stream_map(config):
    trace = generate(config)
    scaled = {EventKind.VM_SCALE_OUT: {}, EventKind.VM_SCALE_IN: {}}
    for e in trace.events:
        if e.kind.is_scale:
            scaled[e.kind][(e.service_id, e.dc_id, e.vm_index)] = e.t
    outs, ins = scaled[EventKind.VM_SCALE_OUT], scaled[EventKind.VM_SCALE_IN]
    # the guarantee's one scale action, or drawn ones in both directions
    assert len(outs) + len(ins) == 1 if config.guarantee_dynamics else outs and ins
    first = {}
    for sample in trace.samples:
        first.setdefault(sample.vm_key, sample)
    sizing = config.sizing
    for desc in trace.descriptors:
        # the first five draws of (4, b, c, j): vcpu, vram, vnet, revenue, sla
        stream = derive_stream(config.seed, generator.STREAM_VM_SPEC, *desc.key)
        drawn = [stream.randint(lo, hi) for lo, hi in (sizing.vcpu, sizing.vram, sizing.vnet, sizing.revenue, sizing.sla)]
        spec = first[desc.key].spec
        assert [spec.vcpu, spec.vram, spec.vnet, desc.revenue, desc.sla] == drawn
        assert desc.t_init == outs.get(desc.key, desc.t_init)
        assert desc.t_end == ins.get(desc.key, desc.t_end)


def test_vm_indices_are_never_reused_within_a_datacenter():
    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(1, 0), seed=5, horizon=30),
        horizontal_policy=HorizontalPolicy(p_scale=1.0, min_vms=1, max_vms=4),
    )
    trace = generate(config)
    for service_id in {d.service_id for d in trace.descriptors}:
        for dc_id in range(1, trace.header.num_datacenters + 1):
            indices = [
                d.vm_index
                for d in trace.descriptors
                if d.service_id == service_id and d.dc_id == dc_id
            ]
            assert len(indices) == len(set(indices))


def test_config_dict_round_trip_preserves_every_field():
    config = GeneratorConfig(
        environment=env_from_coords(2, 3),
        horizon=9,
        num_datacenters=3,
        seed=1234,
        arrival=ArrivalModel(rate=0.6, force_first=False, burst=True),
        service_shape=ServiceShape(vms_per_dc=(1, 3), lifetime=(2, 5)),
        sizing=SizingRanges(vcpu=(2, 8), vram=(4, 32), vnet=(20, 200), revenue=(0, 50), sla=(1, 2)),
        vertical_policy=VerticalPolicy(p_step=0.4, magnitude=(0.2, 0.3), vary_net=True, precision=2),
        horizontal_policy=HorizontalPolicy(p_scale=0.5, min_vms=1, max_vms=3),
        utilization_policy=UtilizationPolicy(
            cpu_step=(0, 1), ram_step=(1, 2), net_step=(2, 30), allow_exceed_request=True
        ),
        guarantee_dynamics=True,
    )
    assert config_from_dict(config_to_dict(config)) == config


def test_config_from_dict_fills_defaults():
    assert config_from_dict({"environment": [2, 1]}) == GeneratorConfig(
        environment=env_from_coords(2, 1)
    )


def test_config_from_dict_rejects_unknown_or_missing_keys():
    with pytest.raises(ConfigError):
        config_from_dict({})
    with pytest.raises(ConfigError):
        config_from_dict({"environment": [0, 0], "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"environment": [0, 0], "vertical_policy": {"p_stepp": 0.5}})
    with pytest.raises(ConfigError):
        config_from_dict({"environment": [9, 0]})


def test_config_digest_is_stable_and_content_sensitive():
    config = GeneratorConfig(env_from_coords(0, 0), seed=4)
    digest = config_digest(config)
    assert len(digest) == 64
    assert digest == digest.lower()
    assert int(digest, 16) >= 0
    assert config_digest(config) == digest
    assert config_digest(dataclasses.replace(config, seed=5)) != digest


def test_readme_config_block_is_the_serialized_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration file\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    documented = json.loads(block)
    config = GeneratorConfig(env_from_coords(3, 3))
    assert documented == config_to_dict(config)
    assert config_from_dict(documented) == config
