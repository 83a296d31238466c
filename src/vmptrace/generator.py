"""Seeded stochastic workload generation for all sixteen environments.

The generator turns a :class:`GeneratorConfig` into a trace in two passes.
First it decides membership: service arrival ticks (Bernoulli draw per tick,
or Poisson when burst arrivals are enabled), each service's lifetime and
per-datacenter VM counts, and, when horizontal elasticity is enabled, a
schedule of scale-out/scale-in actions. Then it fills in per-VM time series:
requested resources (constant, or stepped by the vertical policy) and used
resources (equal to the request, or a bounded random walk for overbooked
classes). Membership only sets VM lifetimes; the lifecycle events are derived
from the final lifetimes by :func:`analysis.lifecycle_events`.

Reproducibility rests on a fixed stream map. Every draw comes from a
splitmix64 stream derived from the master seed and an integer path:

* ``(1,)`` arrivals: one draw per tick;
* ``(2, b)`` service b's shape: lifetime, then VM count per datacenter;
* ``(3, b)`` service b's scale decisions: one action draw per alive tick;
* ``(4, b, c, j)`` VM constants and spec series: vcpu, vram, vnet, revenue,
  sla, then the per-tick vertical steps;
* ``(5, b, c, j)`` the VM's utilization walk, derived only when an
  overbooking class is enabled.

Per-VM streams keep a VM's numbers stable when unrelated knobs change: e.g.
toggling the utilization policy never alters any requested-resource series.

Each quantity is checked once, by ``as_quantity`` where a draw or step makes
it; specs, utilizations, samples and born VMs' descriptors are then built
without checking again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from functools import cached_property
from itertools import chain, pairwise

from .analysis import lifecycle_events, network_gap, server_gap, spec_changed
from .environments import EnvironmentId, capabilities, env_from_coords
from .errors import ConfigError, ValidationError
from .model import (
    MAX_SEED,
    QUANTITY_LIMIT,
    ResourceSpec,
    Trace,
    TraceHeader,
    UtilizationSample,
    VmDescriptor,
    VmSample,
    _new_descriptor,
    _new_sample,
    _new_spec,
    _new_util,
    as_quantity,
    full_utilization,
)
from .rng import SplitMix64, derive_stream

STREAM_ARRIVALS = 1
STREAM_SERVICE = 2
STREAM_SCALING = 3
STREAM_VM_SPEC = 4
STREAM_VM_UTILIZATION = 5

# a resized requested resource never drops below one unit
SPEC_FLOOR = Decimal(1)


@dataclass(frozen=True)
class ArrivalModel:
    """Service arrival process: at most one arrival per tick with probability
    ``rate``, or a Poisson(``rate``) count per tick when ``burst`` is set.
    ``force_first`` guarantees an arrival at t = 0."""

    rate: float = 0.25
    force_first: bool = True
    burst: bool = False


@dataclass(frozen=True)
class ServiceShape:
    """Per-service structure: VMs per datacenter and lifetime, both drawn
    uniformly from inclusive integer ranges."""

    vms_per_dc: tuple[int, int] = (1, 2)
    lifetime: tuple[int, int] = (2, 8)


@dataclass(frozen=True)
class SizingRanges:
    """Inclusive integer ranges for initial per-VM constants: CPU capacity
    [ECU], memory [GB], network bandwidth [Mbps], revenue, and SLA level."""

    vcpu: tuple[int, int] = (1, 16)
    vram: tuple[int, int] = (1, 64)
    vnet: tuple[int, int] = (10, 1000)
    revenue: tuple[int, int] = (1, 100)
    sla: tuple[int, int] = (1, 1)


@dataclass(frozen=True)
class VerticalPolicy:
    """Requested-resource resizing. Each varied component independently steps
    with probability ``p_step`` per tick, multiplying by (1 + delta) with
    |delta| drawn from ``magnitude`` and a uniform sign, rounded to
    ``precision`` decimal places. Network bandwidth varies only when
    ``vary_net`` is set."""

    p_step: float = 0.25
    magnitude: tuple[float, float] = (0.1, 0.4)
    vary_net: bool = False
    precision: int = 0

    @cached_property
    def quantum(self) -> Decimal:
        """The unit a step rounds to, ``10**-precision``."""
        return Decimal(1).scaleb(-self.precision)


@dataclass(frozen=True)
class HorizontalPolicy:
    """Per-service scaling: with probability ``p_scale`` per alive tick one
    VM is added or removed, keeping every (service, datacenter) count within
    [``min_vms``, ``max_vms``]."""

    p_scale: float = 0.25
    min_vms: int = 1
    max_vms: int = 4


@dataclass(frozen=True)
class UtilizationPolicy:
    """Bounded random walk for overbooked resource classes. Steps are drawn
    from inclusive integer magnitude ranges with a uniform sign; values stay
    in [0, request], or [0, 2x request] when ``allow_exceed_request``."""

    cpu_step: tuple[int, int] = (0, 2)
    ram_step: tuple[int, int] = (0, 4)
    net_step: tuple[int, int] = (0, 50)
    allow_exceed_request: bool = False


@dataclass(frozen=True)
class GeneratorConfig:
    environment: EnvironmentId
    horizon: int = 20
    num_datacenters: int = 2
    seed: int = 0
    arrival: ArrivalModel = field(default_factory=ArrivalModel)
    service_shape: ServiceShape = field(default_factory=ServiceShape)
    sizing: SizingRanges = field(default_factory=SizingRanges)
    vertical_policy: VerticalPolicy = field(default_factory=VerticalPolicy)
    horizontal_policy: HorizontalPolicy = field(default_factory=HorizontalPolicy)
    utilization_policy: UtilizationPolicy = field(default_factory=UtilizationPolicy)
    guarantee_dynamics: bool = False


def _check_int_range(name: str, value, minimum: int) -> None:
    ok = (
        isinstance(value, tuple)
        and len(value) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in value)
    )
    if not ok:
        raise ConfigError(f"{name} must be an integer pair (lo, hi), got {value!r}")
    lo, hi = value
    if lo > hi:
        raise ConfigError(f"{name} range is empty: ({lo}, {hi})")
    if lo < minimum:
        raise ConfigError(f"{name} lower bound must be >= {minimum}, got {lo}")


def _check_quantity_range(name: str, value) -> None:
    _check_int_range(name, value, 0)
    if value[1] >= QUANTITY_LIMIT:
        raise ConfigError(f"{name} upper bound must be < 10**28, the quantity limit, got {value[1]}")


def _check_probability(name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must be a probability in [0, 1], got {value!r}")


def _check_flag(name: str, value) -> None:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def check_config(config: GeneratorConfig) -> None:
    """Raise ConfigError if the configuration is malformed or, with
    guarantee_dynamics set, cannot possibly exhibit an enabled capability."""
    if not isinstance(config.environment, EnvironmentId):
        raise ConfigError(f"environment must be an EnvironmentId, got {config.environment!r}")
    if not isinstance(config.horizon, int) or isinstance(config.horizon, bool) or config.horizon < 1:
        raise ConfigError(f"horizon must be an integer >= 1, got {config.horizon!r}")
    if not isinstance(config.num_datacenters, int) or isinstance(config.num_datacenters, bool) or config.num_datacenters < 1:
        raise ConfigError(f"num_datacenters must be an integer >= 1, got {config.num_datacenters!r}")
    if not isinstance(config.seed, int) or isinstance(config.seed, bool) or not 0 <= config.seed <= MAX_SEED:
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {config.seed!r}")

    arrival = config.arrival
    # burst picks the rate's rule, so the flags come first
    _check_flag("arrival.force_first", arrival.force_first)
    _check_flag("arrival.burst", arrival.burst)
    if arrival.burst:
        if not isinstance(arrival.rate, (int, float)) or isinstance(arrival.rate, bool) or not 0 <= arrival.rate < math.inf:
            raise ConfigError(f"arrival.rate must be a finite number >= 0, got {arrival.rate!r}")
    else:
        _check_probability("arrival.rate", arrival.rate)

    _check_int_range("service_shape.vms_per_dc", config.service_shape.vms_per_dc, 1)
    _check_int_range("service_shape.lifetime", config.service_shape.lifetime, 1)

    sizing = config.sizing
    _check_quantity_range("sizing.vcpu", sizing.vcpu)
    _check_quantity_range("sizing.vram", sizing.vram)
    _check_quantity_range("sizing.vnet", sizing.vnet)
    _check_quantity_range("sizing.revenue", sizing.revenue)
    _check_int_range("sizing.sla", sizing.sla, 1)

    vertical = config.vertical_policy
    _check_probability("vertical_policy.p_step", vertical.p_step)
    mag = vertical.magnitude
    ok = (
        isinstance(mag, tuple)
        and len(mag) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in mag)
    )
    if not ok or not 0 <= mag[0] <= mag[1]:
        raise ConfigError(f"vertical_policy.magnitude must be a pair 0 <= lo <= hi, got {mag!r}")
    if mag[1] == math.inf:
        raise ConfigError(f"vertical_policy.magnitude upper bound must be finite, got {mag!r}")
    _check_flag("vertical_policy.vary_net", vertical.vary_net)
    if not isinstance(vertical.precision, int) or isinstance(vertical.precision, bool) or vertical.precision < 0:
        raise ConfigError(f"vertical_policy.precision must be an integer >= 0, got {vertical.precision!r}")

    horizontal = config.horizontal_policy
    _check_probability("horizontal_policy.p_scale", horizontal.p_scale)
    for bound_name, bound in (("min_vms", horizontal.min_vms), ("max_vms", horizontal.max_vms)):
        if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
            raise ConfigError(f"horizontal_policy.{bound_name} must be an integer >= 1, got {bound!r}")
    if horizontal.min_vms > horizontal.max_vms:
        raise ConfigError(f"horizontal_policy.min_vms {horizontal.min_vms} exceeds max_vms {horizontal.max_vms}")

    util = config.utilization_policy
    _check_quantity_range("utilization_policy.cpu_step", util.cpu_step)
    _check_quantity_range("utilization_policy.ram_step", util.ram_step)
    _check_quantity_range("utilization_policy.net_step", util.net_step)
    _check_flag("utilization_policy.allow_exceed_request", util.allow_exceed_request)

    _check_flag("guarantee_dynamics", config.guarantee_dynamics)
    if config.guarantee_dynamics:
        caps = capabilities(config.environment)
        if caps.any_elasticity and config.horizon < 2:
            raise ConfigError(
                "guarantee_dynamics with elasticity enabled needs horizon >= 2; "
                f"got horizon {config.horizon}"
            )
        if caps.horizontal and horizontal.min_vms == horizontal.max_vms:
            raise ConfigError(
                "guarantee_dynamics with horizontal elasticity needs min_vms < max_vms; "
                f"both are {horizontal.min_vms}"
            )
        if caps.server_overbooking and sizing.vcpu[1] == 0 and sizing.vram[1] == 0:
            raise ConfigError("guarantee_dynamics with server overbooking needs a positive vcpu or vram range")
        if caps.network_overbooking and sizing.vnet[1] == 0:
            raise ConfigError("guarantee_dynamics with network overbooking needs a positive vnet range")


def evolve_vertical(rng: SplitMix64, spec: ResourceSpec, policy: VerticalPolicy) -> ResourceSpec:
    """Advance a VM's requested resources by one tick.

    Each varied component independently keeps its value with probability
    1 - p_step or is multiplied by (1 + delta), delta drawn from the
    magnitude range with a uniform sign, rounded half-even to the policy
    precision, and clamped to at least one unit. Zero-valued components
    never step (a multiplicative step cannot move them). Network bandwidth
    is varied only when the policy says so. When no component steps, the
    input spec itself is returned.
    """
    vcpu = _step_spec_component(rng, spec.vcpu, policy)
    vram = _step_spec_component(rng, spec.vram, policy)
    vnet = _step_spec_component(rng, spec.vnet, policy) if policy.vary_net else spec.vnet
    if vcpu is spec.vcpu and vram is spec.vram and vnet is spec.vnet:
        return spec
    return _new_spec(vcpu, vram, vnet)


def _step_spec_component(rng: SplitMix64, value: Decimal, policy: VerticalPolicy) -> Decimal:
    if value == 0:
        return value
    if not rng.chance(policy.p_step):
        return value
    magnitude = rng.uniform(policy.magnitude[0], policy.magnitude[1])
    if rng.coin():
        magnitude = -magnitude
    factor = Decimal(1) + Decimal(repr(magnitude))
    stepped = (value * factor).quantize(policy.quantum, rounding=ROUND_HALF_EVEN)
    return as_quantity(max(stepped, SPEC_FLOOR))


def evolve_horizontal(
    rng: SplitMix64, counts: dict[int, int], policy: HorizontalPolicy
) -> list[tuple[str, int]]:
    """Decide one service's scale actions for the current tick.

    ``counts`` maps dc_id to the service's current VM count there. At most
    one action fires per tick (probability p_scale); the direction is drawn
    uniformly among the feasible ones and the datacenter uniformly among
    those where the move stays within bounds. Returns a list of
    ("out" | "in", dc_id) pairs, possibly empty.
    """
    if not counts or not rng.chance(policy.p_scale):
        return []
    out_dcs = sorted(dc for dc, n in counts.items() if n < policy.max_vms)
    in_dcs = sorted(dc for dc, n in counts.items() if n > policy.min_vms)
    directions = []
    if out_dcs:
        directions.append("out")
    if in_dcs:
        directions.append("in")
    if not directions:
        return []
    direction = directions[0] if len(directions) == 1 else rng.choice(directions)
    eligible = out_dcs if direction == "out" else in_dcs
    dc_id = eligible[0] if len(eligible) == 1 else rng.choice(eligible)
    return [(direction, dc_id)]


def evolve_utilization(
    rng: SplitMix64,
    prev: UtilizationSample,
    spec: ResourceSpec,
    policy: UtilizationPolicy,
    *,
    server: bool,
    network: bool,
) -> UtilizationSample:
    """One tick of the utilization walk against the current tick's spec.

    Enabled classes take a signed integer step from the previous value,
    clamped to [0, request] (or [0, 2x request] when allow_exceed_request).
    Disabled classes snap to the request: utilization is accounted at 100%
    when that class of overbooking is not supported. When no component
    changes, ``prev`` itself is returned.
    """
    allow_exceed = policy.allow_exceed_request
    if server:
        ucpu = _walk(rng, prev.ucpu, spec.vcpu, policy.cpu_step, allow_exceed)
        uram = _walk(rng, prev.uram, spec.vram, policy.ram_step, allow_exceed)
    else:
        ucpu, uram = spec.vcpu, spec.vram
    unet = _walk(rng, prev.unet, spec.vnet, policy.net_step, allow_exceed) if network else spec.vnet
    if ucpu is prev.ucpu and uram is prev.uram and unet is prev.unet:
        return prev
    return _new_util(ucpu, uram, unet)


def _walk(
    rng: SplitMix64,
    prev: Decimal,
    bound: Decimal,
    step_range: tuple[int, int],
    allow_exceed: bool,
) -> Decimal:
    """One component's signed step, clamped to [0, cap]; a zero step that
    stays within the cap returns ``prev`` itself."""
    step = rng.randint(step_range[0], step_range[1])
    negative = rng.coin()
    cap = bound * 2 if allow_exceed else bound
    if not step and prev <= cap:
        return prev
    value = prev - step if negative else prev + step
    if value < 0:
        return Decimal(0)
    # checked even inside [0, cap]: twice a request can leave the domain, and as_quantity turns a 0.0 into 0
    return as_quantity(cap if value > cap else value)


@dataclass(slots=True)
class _VmRecord:
    """A VM being generated: its descriptor (ending at its scale-in tick once
    scaled in), its spec stream positioned past the constants (until the
    series is filled), its initial spec, and, once filled, one sample per
    alive tick in tick order. Slotted, as ``generate`` makes one per VM."""

    descriptor: VmDescriptor
    spec_stream: SplitMix64 | None
    spec: ResourceSpec
    samples: list[VmSample] = field(default_factory=list)


def generate(config: GeneratorConfig) -> Trace:
    """Produce the deterministic trace described by the configuration.

    Dynamics the environment lacks never occur: specs stay constant without
    vertical elasticity, per-service VM counts stay constant without
    horizontal, and each overbooking-disabled class has utilization equal to
    the request. With guarantee_dynamics set, each enabled capability is
    observable at least once; if the stochastic draws produced no instance,
    one deterministic instance is injected.

    With the default allow_exceed_request = False the output validates
    cleanly in strict mode; allowing utilization above the request
    deliberately produces traces that strict mode flags.
    """
    check_config(config)
    caps = capabilities(config.environment)
    horizon = config.horizon
    num_dcs = config.num_datacenters

    # membership: arrivals, one tick per service in service id order
    arrival_stream = derive_stream(config.seed, STREAM_ARRIVALS)
    force_first = config.arrival.force_first or config.guarantee_dynamics
    arrivals: list[int] = []
    for t in range(horizon):
        if config.arrival.burst:
            count = arrival_stream.poisson(config.arrival.rate)
        else:
            count = 1 if arrival_stream.chance(config.arrival.rate) else 0
        if t == 0 and force_first and count == 0:
            count = 1
        arrivals.extend([t] * count)

    # membership: service shapes; each service keeps its alive VMs per datacenter
    shape = config.service_shape
    policy = config.horizontal_policy
    sizing = config.sizing
    next_vm_index = {dc: 1 for dc in range(1, num_dcs + 1)}
    # (service_id, t_init, t_end, alive VMs per datacenter)
    services: list[tuple[int, int, int, dict[int, list[_VmRecord]]]] = []
    records: dict[tuple[int, int, int], _VmRecord] = {}

    def birth(service_id: int, t_end: int, alive: dict[int, list[_VmRecord]], dc_id: int, t: int) -> None:
        # a VM born on its service's arrival or by a scale-out takes the
        # datacenter's next index and draws its constants from its own stream,
        # which the record keeps positioned just past them to drive the
        # vertical steps. The descriptor is not checked again: check_config
        # has accepted the ranges its fields come from, ids start at 1, and a
        # VM is born only before t_end
        vm_index = next_vm_index[dc_id]
        next_vm_index[dc_id] = vm_index + 1
        stream = derive_stream(config.seed, STREAM_VM_SPEC, service_id, dc_id, vm_index)
        spec = _new_spec(
            as_quantity(stream.randint(sizing.vcpu[0], sizing.vcpu[1])),
            as_quantity(stream.randint(sizing.vram[0], sizing.vram[1])),
            as_quantity(stream.randint(sizing.vnet[0], sizing.vnet[1])),
        )
        revenue = as_quantity(stream.randint(sizing.revenue[0], sizing.revenue[1]))
        sla = stream.randint(sizing.sla[0], sizing.sla[1])
        record = _VmRecord(_new_descriptor(service_id, dc_id, vm_index, revenue, sla, t, t_end), stream, spec)
        records[service_id, dc_id, vm_index] = record
        alive[dc_id].append(record)

    for service_id, t0 in enumerate(arrivals, start=1):
        # the service's shape stream: its lifetime, then one VM count per datacenter
        shape_stream = derive_stream(config.seed, STREAM_SERVICE, service_id)
        lifetime = shape_stream.randint(shape.lifetime[0], shape.lifetime[1])
        if config.guarantee_dynamics and caps.any_elasticity and service_id == 1:
            # the injection pass needs a VM alive for two consecutive ticks
            lifetime = max(lifetime, 2)
        t_end = min(t0 + lifetime, horizon)
        alive: dict[int, list[_VmRecord]] = {dc: [] for dc in range(1, num_dcs + 1)}
        for dc_id in range(1, num_dcs + 1):
            count = shape_stream.randint(shape.vms_per_dc[0], shape.vms_per_dc[1])
            if caps.horizontal:
                count = min(max(count, policy.min_vms), policy.max_vms)
            for _ in range(count):
                birth(service_id, t_end, alive, dc_id, t0)
        services.append((service_id, t0, t_end, alive))

    # membership: scale schedule
    if caps.horizontal:

        def scale(
            service_id: int, t_end: int, alive: dict[int, list[_VmRecord]], direction: str, dc_id: int, t: int
        ) -> None:
            if direction == "out":
                birth(service_id, t_end, alive, dc_id, t)
            else:
                # indices only grow, so the last alive VM has the highest; a
                # scale action fires at most once per tick, so it was born before t
                record = alive[dc_id].pop()
                record.descriptor = replace(record.descriptor, t_end=t)

        scaled = False
        for service_id, t_init, t_end, alive in services:
            scale_stream = derive_stream(config.seed, STREAM_SCALING, service_id)
            for t in range(t_init + 1, t_end):
                counts = {dc: len(vms) for dc, vms in alive.items()}
                for direction, dc_id in evolve_horizontal(scale_stream, counts, policy):
                    scale(service_id, t_end, alive, direction, dc_id, t)
                    scaled = True
        if config.guarantee_dynamics and not scaled:
            # no scale action was drawn: scale the first service once in
            # datacenter 1 at its second tick
            service_id, t_init, t_end, alive = services[0]
            scale(service_id, t_end, alive, "out" if len(alive[1]) < policy.max_vms else "in", 1, t_init + 1)

    # per-VM series
    for record in records.values():
        _fill_series(config, caps, record)

    ordered = [records[key] for key in sorted(records)]
    if config.guarantee_dynamics:
        _inject_missing_dynamics(caps, ordered)

    # canonical sample order is (t, VM key): bucket by tick, VMs in key order
    by_tick: list[list[VmSample]] = [[] for _ in range(horizon)]
    for record in ordered:
        for sample in record.samples:
            by_tick[sample.t].append(sample)
    samples = tuple(chain.from_iterable(by_tick))
    descriptors = tuple(record.descriptor for record in ordered)
    header = TraceHeader(
        environment=config.environment,
        horizon=horizon,
        num_datacenters=num_dcs,
        sla_levels=config.sizing.sla[1],
        seed=config.seed,
        config_digest=config_digest(config),
    )
    return Trace(header=header, descriptors=descriptors, events=lifecycle_events(descriptors), samples=samples)


def _fill_series(config: GeneratorConfig, caps, record: _VmRecord) -> None:
    """One sample per alive tick. A spec or utilization that does not change
    is the previous tick's object, not a rebuilt copy."""
    desc = record.descriptor
    service_id, dc_id, vm_index = key = desc.key
    spec = record.spec
    util = full_utilization(spec)
    samples = record.samples = [_new_sample(service_id, dc_id, vm_index, desc.t_init, spec, util)]
    vertical = caps.vertical
    # the record lets go of the stream, and of the block words it has left
    spec_stream, record.spec_stream = record.spec_stream, None
    vertical_policy = config.vertical_policy
    server, network = caps.server_overbooking, caps.network_overbooking
    walks = server or network
    if walks:
        util_stream = derive_stream(config.seed, STREAM_VM_UTILIZATION, *key)
        util_policy = config.utilization_policy
    for t in range(desc.t_init + 1, desc.t_end):
        try:
            if vertical:
                stepped = evolve_vertical(spec_stream, spec, vertical_policy)
                if stepped is not spec and not walks:
                    # without overbooking the utilization is the request
                    util = full_utilization(stepped)
                spec = stepped
            if walks:
                util = evolve_utilization(util_stream, util, spec, util_policy, server=server, network=network)
        except (InvalidOperation, ValidationError):
            # a step's quantize needed more digits than the decimal context
            # holds, or a walk reached a value as_quantity refuses
            raise _domain_error(key, t) from None
        samples.append(_new_sample(service_id, dc_id, vm_index, t, spec, util))


def _domain_error(key: tuple[int, int, int], t: int) -> ConfigError:
    return ConfigError(
        f"VM {key} at t={t}: a generated quantity leaves the quantity domain (below 10**28, at most "
        "28 significant digits); narrow the sizing ranges, vertical_policy.magnitude or precision, "
        "or the utilization_policy steps"
    )


def _inject_missing_dynamics(caps, records: list[_VmRecord]) -> None:
    """Make every enabled capability observable in the filled series, adding
    one deterministic instance per capability whose draws produced none to
    the first fitting record in ``records``, which are in key order. The
    checks run in turn: a vertical bump can itself open a server gap."""
    if caps.vertical and not any(
        spec_changed(prev, cur) for record in records for prev, cur in pairwise(record.samples)
    ):
        host = next((record for record in records if len(record.samples) >= 2), None)
        if host is None:
            raise ConfigError("guarantee_dynamics: no VM lives two consecutive ticks to host a resize")
        for i, sample in enumerate(host.samples[1:], start=1):
            spec, util = sample.spec, sample.util
            try:
                bumped = ResourceSpec(vcpu=spec.vcpu + 1, vram=spec.vram, vnet=spec.vnet)
            except ValidationError:
                raise _domain_error(sample.vm_key, sample.t) from None
            host.samples[i] = replace(
                sample,
                spec=bumped,
                util=UtilizationSample(
                    ucpu=util.ucpu if caps.server_overbooking else bumped.vcpu,
                    uram=util.uram if caps.server_overbooking else bumped.vram,
                    unet=util.unet if caps.network_overbooking else bumped.vnet,
                ),
            )

    if caps.server_overbooking and not any(server_gap(s) for r in records for s in r.samples):
        _inject_usage_gap(records, "server")
    if caps.network_overbooking and not any(network_gap(s) for r in records for s in r.samples):
        _inject_usage_gap(records, "network")


def _inject_usage_gap(records: list[_VmRecord], kind: str) -> None:
    for record in records:
        last = record.samples[-1]
        spec, util = last.spec, last.util
        if kind == "server" and spec.vcpu >= 1:
            gap = UtilizationSample(spec.vcpu - 1, util.uram, util.unet)
        elif kind == "server" and spec.vram >= 1:
            gap = UtilizationSample(util.ucpu, spec.vram - 1, util.unet)
        elif kind == "network" and spec.vnet >= 1:
            gap = UtilizationSample(util.ucpu, util.uram, spec.vnet - 1)
        else:
            continue
        record.samples[-1] = replace(last, util=gap)
        return
    raise ConfigError(f"guarantee_dynamics: no VM has a positive request to host a {kind} overbooking instance")


def config_to_dict(config) -> dict:
    """Plain-JSON form of a configuration; the inverse of config_from_dict.

    Sections, the fields with a default factory, recurse; [lo, hi] pairs, the
    fields with a tuple default, become lists; every other value passes
    through untouched."""
    plain = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "environment":
            value = [value.elasticity, value.overbooking]
        elif f.default_factory is not MISSING:
            value = config_to_dict(value)
        elif isinstance(f.default, tuple):
            value = list(value)
        plain[f.name] = value
    return plain


def config_digest(config: GeneratorConfig) -> str:
    """SHA-256 over the canonical JSON encoding of the full configuration."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _take_section(data: dict, key: str) -> dict:
    section = data.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {key!r} must be an object, got {section!r}")
    return section


def _reject_unknown(section: dict, cls, where: str) -> None:
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(unknown)}")


def _get_pair(section: dict, key: str, default: tuple, where: str) -> tuple:
    value = section.get(key)
    if value is None:
        return default
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{where}.{key} must be a [lo, hi] pair, got {value!r}")
    return tuple(value)


def _from_plain(cls, data: dict, where: str, **given):
    """Build ``cls`` from its checked JSON form: an absent or null pair or
    section takes the default, an absent scalar takes the default and any
    other scalar passes through untouched (check_config judges it)."""
    values = {}
    for f in fields(cls):
        if f.name in given:
            continue
        if f.default_factory is not MISSING:
            values[f.name] = _from_plain(f.default_factory, data[f.name], f.name)
        elif isinstance(f.default, tuple):
            values[f.name] = _get_pair(data, f.name, f.default, where)
        else:
            values[f.name] = data.get(f.name, f.default)
    return cls(**given, **values)


def config_from_dict(data: dict) -> GeneratorConfig:
    """Build a configuration from its JSON form.

    Absent fields take their defaults; ``environment`` is required. Unknown
    keys are rejected so typos do not silently fall back to defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"config document must be an object, got {data!r}")
    _reject_unknown(data, GeneratorConfig, "config")
    env_value = data.get("environment")
    if env_value is None:
        raise ConfigError("config is missing required key 'environment'")
    if not isinstance(env_value, list) or len(env_value) != 2 or not all(isinstance(v, int) and not isinstance(v, bool) for v in env_value):
        raise ConfigError(f"environment must be a pair [elasticity, overbooking], got {env_value!r}")
    try:
        environment = env_from_coords(env_value[0], env_value[1])
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None

    # every section is checked for shape and unknown keys before any value
    sections = {}
    for f in fields(GeneratorConfig):
        if f.default_factory is not MISSING:
            sections[f.name] = _take_section(data, f.name)
            _reject_unknown(sections[f.name], f.default_factory, f.name)
    config = _from_plain(GeneratorConfig, {**data, **sections}, "config", environment=environment)
    check_config(config)
    return config
