from __future__ import annotations

import copy
import enum
import pickle
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from vmptrace.environments import env_from_coords
from vmptrace.errors import ValidationError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import GeneratorConfig, config_from_dict, generate
from vmptrace import model
from vmptrace.model import (
    QUANTITY_LIMIT,
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


# values quantity_text cannot render exactly: an overflow, two past 28 digits, an underflow to 0
OUT_OF_DOMAIN = [Decimal("1e999999999"), Decimal("1e28"), 10**30 + 1, Decimal("1e-999999999")]


@pytest.mark.parametrize("value", OUT_OF_DOMAIN, ids=str)
def test_as_quantity_rejects_what_quantity_text_cannot_render_exactly(value):
    with pytest.raises(ValidationError, match="cannot be rendered exactly"):
        as_quantity(value)
    with pytest.raises(ValidationError, match="cannot be rendered exactly"):
        as_quantity(str(value))


def test_quantity_domain_edges_render_exactly():
    edges = [QUANTITY_LIMIT - 1, "0.1234567890123456789012345678", "1E-1000026", "1." + "0" * 40, "0E+999999999"]
    for value in edges:
        quantity = as_quantity(value)
        assert Decimal(quantity_text(quantity)) == quantity
    for value in [QUANTITY_LIMIT, "0.12345678901234567890123456789", "1E-1000027", "1.5E-1000026"]:
        with pytest.raises(ValidationError, match="cannot be rendered exactly"):
            as_quantity(value)


def test_quantity_text_writes_values_of_10_to_the_28_and_above_as_digits():
    # a stats total may leave the quantity domain; it renders without exponent
    assert quantity_text(Decimal("1.8E+28")) == "18000000000000000000000000000"
    assert quantity_text(Decimal(9 * 10**27) + Decimal(9 * 10**27)) == "18000000000000000000000000000"
    assert quantity_text(Decimal("1E+40")) == "1" + "0" * 40
    # inside the domain the text is unchanged
    assert quantity_text(Decimal("1E+2")) == "100"
    assert quantity_text(Decimal(QUANTITY_LIMIT - 1)) == "9" * 28
    assert quantity_text(Decimal("12.50")) == "12.5"


def _reference_quantity(value):
    """as_quantity checked type by type, without its exact-type fast paths."""
    if isinstance(value, bool):
        raise ValidationError(f"quantity must be a number, got {value!r}")
    if isinstance(value, float):
        raise ValidationError(
            f"binary float quantity {value!r} is not exact; pass an int, a decimal "
            "string, or a Decimal"
        )
    if isinstance(value, int):
        value = Decimal(value)
    elif isinstance(value, str):
        try:
            value = Decimal(value)
        except ArithmeticError:
            raise ValidationError(f"invalid decimal quantity {value!r}") from None
    elif not isinstance(value, Decimal):
        raise ValidationError(f"quantity must be a number, got {value!r}")
    if not value.is_finite():
        raise ValidationError(f"quantity must be finite, got {value}")
    if value < 0:
        raise ValidationError(f"quantity must be >= 0, got {value}")
    if value == 0:
        return Decimal(0)
    # quantity_text renders values of 10**28 and above too, so the bound is
    # stated here; below it the domain is what renders exactly
    try:
        exact = value < QUANTITY_LIMIT and Decimal(quantity_text(value)) == value
    except ArithmeticError:
        exact = False
    if not exact:
        raise ValidationError(
            f"quantity {value} cannot be rendered exactly: quantities must be below 10**28, "
            "with at most 28 significant digits and no digit below 10**-1000026"
        )
    return value


def _outcome(fn, value):
    try:
        result = fn(value)
    except ValidationError as exc:
        return ("error", str(exc))
    return ("value", type(result), repr(result))


class _Count(int):
    pass


class _Dec(Decimal):
    pass


_QUANTITY_EDGES = [
    0, 1, -1, QUANTITY_LIMIT - 1, QUANTITY_LIMIT, 10**30 + 1, True, False, 1.5, 0.0, None, [1],
    "5", "5.0", "-0", "1e28", "abc", _Count(3), _Count(-3), _Dec("2.5"), _Dec("-1"),
    *(Decimal(text) for text in ["5", "5.0", "-0", "-0.0", "0E+999999999", "0E-1000030", "NaN", "-NaN", "sNaN",
                                 "Infinity", "-Infinity", "1e999999999", "1e28", "9.999e27", "1e-999999999",
                                 "1E-1000026", "1E-1000027", "-5", "1." + "0" * 40, "0." + "1" * 29]),
]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    st.one_of(
        st.sampled_from(_QUANTITY_EDGES),
        st.integers(min_value=-(10**40), max_value=10**40),
        st.decimals(allow_nan=True, allow_infinity=True),
        st.builds(
            lambda digits, exponent: Decimal(f"{digits}E{exponent}"),
            st.integers(min_value=0, max_value=10**35),
            st.integers(min_value=-1000040, max_value=40),
        ),
        st.text(max_size=8),
    )
)
def test_as_quantity_fast_paths_agree_with_the_type_by_type_checks(value):
    # the fast paths and the domain test must accept, reject and return exactly
    # what the checks and an exact rendering do
    assert _outcome(as_quantity, value) == _outcome(_reference_quantity, value)


class _Level(enum.IntEnum):
    ONE = 1


def test_id_and_tick_checks_accept_int_subclasses_and_refuse_bools():
    for value in (1, 7, _Level.ONE, _Count(2)):
        model._check_tick("x", value, 1)
    for value in (0, -1, True, False, 1.0, "1", None, Decimal(1)):
        with pytest.raises(ValidationError, match="must be an integer >= 1"):
            model._check_tick("x", value, 1)


def test_trace_values_pickle_and_copy_without_an_instance_dict():
    trace = fixture_trace(FixtureId.ENV_1_0)
    for value in (trace.samples[0], trace.samples[0].spec, trace.samples[0].util, trace.descriptors[0], trace.events[0]):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
    assert pickle.loads(pickle.dumps(trace)) == trace
    assert copy.deepcopy(trace) == trace


def test_prechecked_builders_make_what_the_constructors_make_without_checking():
    spec, util = ResourceSpec(8, 16, 150), UtilizationSample(Decimal("7.5"), 16, 0)
    for cls, values in (
        (ResourceSpec, (spec.vcpu, spec.vram, spec.vnet)),
        (UtilizationSample, (util.ucpu, util.uram, util.unet)),
        (VmSample, (1, 2, 3, 4, spec, util)),
    ):
        built = model._prechecked(cls)(*values)
        assert type(built) is cls and not hasattr(built, "__dict__")
        assert built == cls(*values) and hash(built) == hash(cls(*values)) and repr(built) == repr(cls(*values))
        assert pickle.loads(pickle.dumps(built)) == built
    # the checks are the caller's: an id of 0 is built as given
    assert model._prechecked(VmSample)(0, 1, 1, 0, spec, util).service_id == 0


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
    trace = Trace(TraceHeader(env_from_coords(0, 0), horizon=7, num_datacenters=2), (desc,))
    assert [t for t in range(7) if dc_population(trace, 2, t)] == [2, 3, 4]
    assert dc_population(trace, 2, 2) == [(1, 3)]


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
    assert _scan_service_vm_count(trace, 1, 0) == 4
    assert _scan_service_vm_count(trace, 2, 0) == 0
    assert _scan_service_vm_count(trace, 2, 1) == 0
    assert _scan_service_vm_count(trace, 2, 2) == 2
    assert _scan_service_vm_count(trace, 2, 3) == 2
    assert _scan_service_vm_count(trace, 2, 4) == 2
    assert _scan_service_vm_count(trace, 2, 5) == 0
    assert _scan_service_vm_count(trace, 9, 0) == 0


def _scan_dc_population(trace, dc_id, t):
    """Reference: the full descriptor scan dc_population used to make per call."""
    pairs = [
        (desc.service_id, desc.vm_index)
        for desc in trace.descriptors
        if desc.dc_id == dc_id and desc.t_init <= t < desc.t_end
    ]
    pairs.sort()
    return pairs


def _scan_service_vm_count(trace, service_id, t):
    return sum(1 for desc in trace.descriptors if desc.service_id == service_id and desc.t_init <= t < desc.t_end)


def _population_traces():
    traces = [fixture_trace(fixture) for fixture in FixtureId]
    for (elasticity, overbooking), seed in (((0, 0), 0), ((1, 0), 1), ((1, 3), 2), ((2, 1), 3), ((3, 3), 4)):
        env = env_from_coords(elasticity, overbooking)
        traces.append(generate(GeneratorConfig(env, seed=seed, horizon=15, num_datacenters=3, guarantee_dynamics=True)))
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
        for t in range(header.horizon):
            for dc_id in dc_ids:
                assert dc_population(trace, dc_id, t) == _scan_dc_population(trace, dc_id, t), (header, dc_id, t)


def test_dc_population_on_hand_built_out_of_order_traces():
    hand_built = _population_traces()[-2:]
    for trace in hand_built:
        assert dc_population(trace, 2, 0) == [(1, 1), (1, 2)]
        assert dc_population(trace, 2, 1) == [(1, 1), (1, 2), (3, 1)]
        assert dc_population(trace, 1, 4) == [(2, 1), (2, 5)]
        assert dc_population(trace, 4, 2) == [(1, 1)]
        assert dc_population(trace, 3, 2) == []
        with pytest.raises(ValidationError):
            dc_population(trace, 1, 5)


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
