from __future__ import annotations

from decimal import Decimal

from vmptrace.analysis import classify, validate
from vmptrace.environments import env_from_coords
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.model import EventKind


def _sample(trace, t, service_id, dc_id, vm_index):
    for sample in trace.samples:
        if (sample.t, sample.service_id, sample.dc_id, sample.vm_index) == (
            t,
            service_id,
            dc_id,
            vm_index,
        ):
            return sample
    raise AssertionError(f"no sample at (t={t},b={service_id},c={dc_id},j={vm_index})")


def test_server_overbooking_example_series():
    trace = fixture_trace(FixtureId.ENV_0_1)
    final = _sample(trace, 3, 1, 1, 1)
    assert final.util.ucpu == Decimal(12)
    assert final.util.uram == Decimal(26)
    assert final.util.unet == Decimal(150)
    assert final.spec.vcpu == Decimal(8)
    assert final.spec.vram == Decimal(16)
    dipped = _sample(trace, 1, 1, 2, 1)
    assert dipped.util.ucpu == Decimal(4)
    assert _sample(trace, 3, 1, 2, 1).util.uram == Decimal(9)
    assert _sample(trace, 2, 1, 2, 2).util.ucpu == Decimal(14)


def test_network_overbooking_example_series():
    trace = fixture_trace(FixtureId.ENV_0_2)
    assert _sample(trace, 3, 1, 2, 2).util.unet == Decimal(800)
    assert _sample(trace, 3, 1, 1, 2).util.unet == Decimal(0)
    expected_111 = (150, 170, 180, 200)
    for t, value in enumerate(expected_111):
        sample = _sample(trace, t, 1, 1, 1)
        assert sample.util.unet == Decimal(value)
        assert sample.spec.vnet == Decimal(150)
        assert sample.util.ucpu == sample.spec.vcpu
        assert sample.util.uram == sample.spec.vram


def test_horizontal_example_structure():
    trace = fixture_trace(FixtureId.ENV_1_0)
    by_key = trace.descriptor_map()
    assert set(by_key) == {
        (1, 1, 1),
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
        (2, 1, 3),
        (2, 2, 3),
    }
    for descriptor in by_key.values():
        expected_span = (0, 4) if descriptor.service_id == 1 else (2, 5)
        assert (descriptor.t_init, descriptor.t_end) == expected_span
    newcomer = _sample(trace, 2, 2, 1, 3)
    assert (newcomer.spec.vcpu, newcomer.spec.vram, newcomer.spec.vnet) == (
        Decimal(2),
        Decimal(10),
        Decimal(60),
    )
    sibling = _sample(trace, 2, 2, 2, 3)
    assert (sibling.spec.vcpu, sibling.spec.vram, sibling.spec.vnet) == (
        Decimal(8),
        Decimal(20),
        Decimal(120),
    )
    for sample in trace.samples:
        assert sample.util.ucpu == sample.spec.vcpu
        assert sample.util.uram == sample.spec.vram
        assert sample.util.unet == sample.spec.vnet


def test_horizontal_example_events():
    trace = fixture_trace(FixtureId.ENV_1_0)
    recorded = [(e.t, e.kind, e.service_id) for e in trace.events]
    assert recorded == [
        (0, EventKind.SERVICE_ARRIVAL, 1),
        (2, EventKind.SERVICE_ARRIVAL, 2),
        (4, EventKind.SERVICE_DEPARTURE, 1),
        (5, EventKind.SERVICE_DEPARTURE, 2),
    ]


def test_vertical_example_series():
    trace = fixture_trace(FixtureId.ENV_2_0)
    expected_cpu = (8, 9, 9, 11)
    expected_ram = (16, 22, 23, 25)
    for t in range(4):
        sample = _sample(trace, t, 1, 1, 1)
        assert sample.spec.vcpu == Decimal(expected_cpu[t])
        assert sample.spec.vram == Decimal(expected_ram[t])
        # Utilization is frozen at the initial capacities in this example.
        assert sample.util.ucpu == Decimal(8)
        assert sample.util.uram == Decimal(16)
        assert sample.util.unet == Decimal(150)
    shrink = _sample(trace, 3, 1, 2, 2)
    assert shrink.spec.vcpu == Decimal(5)
    assert shrink.spec.vram == Decimal(12)


def test_fixture_headers_are_uniform():
    for fixture in FixtureId:
        trace = fixture_trace(fixture)
        e_text, o_text = fixture.value.split(",")
        assert trace.header.environment == env_from_coords(int(e_text), int(o_text))
        assert trace.header.horizon == 6
        assert trace.header.num_datacenters == 2
        assert trace.header.sla_levels == 1
        assert trace.header.seed is None
        assert trace.header.config_digest is None
        for descriptor in trace.descriptors:
            assert descriptor.revenue == Decimal(0)
            assert descriptor.sla == 1


def test_fixture_traces_are_freshly_built():
    first = fixture_trace(FixtureId.ENV_0_1)
    second = fixture_trace(FixtureId.ENV_0_1)
    assert first == second


def test_published_examples_pass_in_paper_mode_only():
    strictly_clean = {FixtureId.ENV_1_0}
    for fixture in FixtureId:
        trace = fixture_trace(fixture)
        assert validate(trace, mode="paper").ok, fixture
        assert validate(trace, mode="strict").ok == (fixture in strictly_clean)


def test_fixture_classification_matches_the_worked_examples():
    assert classify(fixture_trace(FixtureId.ENV_0_1)) == env_from_coords(0, 1)
    assert classify(fixture_trace(FixtureId.ENV_0_2)) == env_from_coords(0, 2)
    assert classify(fixture_trace(FixtureId.ENV_1_0)) == env_from_coords(0, 0)
    assert classify(
        fixture_trace(FixtureId.ENV_1_0), arrival_as_horizontal=True
    ) == env_from_coords(1, 0)
    # The published table freezes utilization while capacities grow, so the
    # observed behaviour includes server overbooking on top of vertical scaling.
    assert classify(fixture_trace(FixtureId.ENV_2_0)) == env_from_coords(2, 1)
