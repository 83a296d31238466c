"""Properties of generated traces over small configs in all sixteen environments.

* With ``guarantee_dynamics`` set, ``classify`` recovers the configured
  environment; without it, every observed capability is an enabled one.
* Strict validation is clean when utilization may not exceed the request.
* Every descriptor passes the checks of the ``VmDescriptor`` constructor,
  which a VM's birth skips.
* The fill loop gives the same trace, down to each Decimal's exponent, as
  the straightforward loop kept below as a reference: that loop rebuilds the
  spec and utilization on every tick and always derives the utilization
  stream. ``repr`` shows the exponents, which ``stats`` JSON exposes and the
  document bytes do not.
"""

from __future__ import annotations

import dataclasses
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation

import pytest
from hypothesis import example, given, settings, strategies as st

from vmptrace import generator
from vmptrace.analysis import MODE_STRICT, classify, validate
from vmptrace.environments import capabilities, enumerate_environments
from vmptrace.errors import ConfigError, ValidationError
from vmptrace.generator import (
    STREAM_VM_UTILIZATION,
    ArrivalModel,
    GeneratorConfig,
    HorizontalPolicy,
    ServiceShape,
    SizingRanges,
    UtilizationPolicy,
    VerticalPolicy,
    check_config,
    generate,
)
from vmptrace.model import ResourceSpec, UtilizationSample, VmSample, full_utilization
from vmptrace.rng import derive_stream

ENVIRONMENTS = enumerate_environments()
CAPABILITY_FIELDS = ("horizontal", "vertical", "server_overbooking", "network_overbooking")


def _pair(values):
    return st.lists(st.sampled_from(values), min_size=2, max_size=2).map(lambda pair: tuple(sorted(pair)))


@st.composite
def _small_configs(draw, environment):
    """A small config in ``environment``: precision 0-3, vary_net, utilization
    allowed above the request or not, and sizing that may be zero."""
    sizes = [0, 1, 2, 5, 16] if draw(st.booleans()) else [0]
    config = GeneratorConfig(
        environment=environment,
        horizon=draw(st.integers(1, 10)),
        num_datacenters=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
        arrival=ArrivalModel(
            rate=draw(st.sampled_from([0.2, 0.5, 1.0])), force_first=draw(st.booleans()), burst=draw(st.booleans())
        ),
        service_shape=ServiceShape(vms_per_dc=(1, draw(st.integers(1, 3))), lifetime=(1, draw(st.integers(1, 10)))),
        sizing=SizingRanges(
            vcpu=draw(_pair(sizes)),
            vram=draw(_pair(sizes)),
            vnet=draw(_pair(sizes)),
            revenue=draw(_pair([0, 1, 100])),
            sla=(1, draw(st.integers(1, 3))),
        ),
        vertical_policy=VerticalPolicy(
            p_step=draw(st.sampled_from([0.0, 0.25, 0.9])),
            magnitude=draw(_pair([0.0, 0.05, 0.3, 0.9])),
            vary_net=draw(st.booleans()),
            precision=draw(st.integers(0, 3)),
        ),
        horizontal_policy=HorizontalPolicy(
            p_scale=draw(st.sampled_from([0.0, 0.25, 0.9])), min_vms=1, max_vms=draw(st.integers(1, 4))
        ),
        utilization_policy=UtilizationPolicy(
            cpu_step=draw(_pair([0, 1, 3])),
            ram_step=draw(_pair([0, 2, 5])),
            net_step=draw(_pair([0, 7, 40])),
            allow_exceed_request=draw(st.booleans()),
        ),
        guarantee_dynamics=draw(st.booleans()),
    )
    try:
        check_config(config)
    except ConfigError:
        # a guarantee the config cannot meet; without it the config is accepted
        config = dataclasses.replace(config, guarantee_dynamics=False)
        check_config(config)
    return config


def _outcome(config: GeneratorConfig):
    try:
        return generate(config)
    except ConfigError as exc:
        return exc


_PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=40)


@pytest.mark.parametrize("environment", ENVIRONMENTS, ids=str)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_generated_traces_sit_where_the_config_puts_them(environment, data):
    config = data.draw(_small_configs(environment))
    trace = _outcome(config)
    if isinstance(trace, ConfigError):
        # only a guarantee with no VM to host an instance may fail
        assert config.guarantee_dynamics and str(trace).startswith("guarantee_dynamics:")
        return
    observed = classify(trace)
    if config.guarantee_dynamics:
        assert observed == environment
    else:
        observed_caps, enabled_caps = capabilities(observed), capabilities(environment)
        for name in CAPABILITY_FIELDS:
            assert getattr(enabled_caps, name) or not getattr(observed_caps, name), name
    if not config.utilization_policy.allow_exceed_request:
        report = validate(trace, MODE_STRICT)
        assert report.ok, report.violations[:3]


@pytest.mark.parametrize("environment", ENVIRONMENTS, ids=str)
@_PROPERTY_SETTINGS
@given(data=st.data())
def test_born_descriptors_pass_the_checking_constructor(environment, data):
    config = data.draw(_small_configs(environment))
    trace = _outcome(config)
    if isinstance(trace, ConfigError):
        return
    for desc in trace.descriptors:
        # replace runs __post_init__, which converts or refuses what a birth got wrong
        assert dataclasses.replace(desc) == desc
        assert type(desc.revenue) is Decimal
        assert desc.t_end <= config.horizon


# at precision 1 a step of magnitude 0 rewrites each request 1 as 1.0; the
# walk clamps to it, and its next step of 1 down makes 0.0, which the trace
# must hold as 0
_WALK_ONTO_ZERO = GeneratorConfig(
    environment=ENVIRONMENTS[-1],
    horizon=8,
    num_datacenters=1,
    seed=3,
    sizing=SizingRanges(vcpu=(1, 1), vram=(1, 1), vnet=(1, 1)),
    vertical_policy=VerticalPolicy(p_step=0.9, magnitude=(0.0, 0.0), vary_net=True, precision=1),
    utilization_policy=UtilizationPolicy(cpu_step=(1, 1), ram_step=(1, 1), net_step=(1, 1)),
)


@pytest.mark.parametrize("environment", ENVIRONMENTS, ids=str)
def test_the_fill_loop_matches_the_reference_loop(environment):
    @_PROPERTY_SETTINGS
    @given(_small_configs(environment))
    @example(dataclasses.replace(_WALK_ONTO_ZERO, environment=environment))
    def check(config):
        trace = _outcome(config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "_fill_series", _reference_fill_series)
            expected = _outcome(config)
        assert repr(trace) == repr(expected)
        if not isinstance(trace, ConfigError):
            assert list(trace.samples) == sorted(trace.samples, key=lambda sample: sample.sort_key)

    check()


# the reference loop: every tick steps the spec and walks the utilization
# into new objects, and the utilization stream is derived for every VM


def _reference_fill_series(config, caps, record) -> None:
    desc = record.descriptor
    util_stream = derive_stream(config.seed, STREAM_VM_UTILIZATION, *desc.key)
    spec = record.spec
    util = full_utilization(spec)
    record.samples = [VmSample(*desc.key, t=desc.t_init, spec=spec, util=util)]
    for t in range(desc.t_init + 1, desc.t_end):
        try:
            if caps.vertical:
                spec = _reference_vertical(record.spec_stream, spec, config.vertical_policy)
            util = _reference_utilization(
                util_stream,
                util,
                spec,
                config.utilization_policy,
                server=caps.server_overbooking,
                network=caps.network_overbooking,
            )
        except (InvalidOperation, ValidationError):
            raise generator._domain_error(desc.key, t) from None
        record.samples.append(VmSample(*desc.key, t=t, spec=spec, util=util))


def _reference_vertical(rng, spec, policy):
    vcpu = _reference_step(rng, spec.vcpu, policy)
    vram = _reference_step(rng, spec.vram, policy)
    vnet = _reference_step(rng, spec.vnet, policy) if policy.vary_net else spec.vnet
    return ResourceSpec(vcpu, vram, vnet)


def _reference_step(rng, value, policy):
    if value == 0:
        return value
    if not rng.chance(policy.p_step):
        return value
    magnitude = rng.uniform(policy.magnitude[0], policy.magnitude[1])
    if rng.chance(0.5):
        magnitude = -magnitude
    factor = Decimal(1) + Decimal(repr(magnitude))
    quantum = Decimal(1).scaleb(-policy.precision)
    stepped = (value * factor).quantize(quantum, rounding=ROUND_HALF_EVEN)
    return max(stepped, Decimal(1))


def _reference_utilization(rng, prev, spec, policy, *, server, network):
    if server:
        ucpu = _reference_walk(rng, prev.ucpu, spec.vcpu, policy.cpu_step, policy.allow_exceed_request)
        uram = _reference_walk(rng, prev.uram, spec.vram, policy.ram_step, policy.allow_exceed_request)
    else:
        ucpu, uram = spec.vcpu, spec.vram
    if network:
        unet = _reference_walk(rng, prev.unet, spec.vnet, policy.net_step, policy.allow_exceed_request)
    else:
        unet = spec.vnet
    return UtilizationSample(ucpu, uram, unet)


def _reference_walk(rng, prev, bound, step_range, allow_exceed):
    step = Decimal(rng.randint(step_range[0], step_range[1]))
    if rng.chance(0.5):
        step = -step
    cap = bound * 2 if allow_exceed else bound
    value = prev + step
    if value < 0:
        return Decimal(0)
    if value > cap:
        return cap
    return value
