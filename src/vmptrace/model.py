"""Core data model for workload traces.

A trace describes, tick by tick, the virtual machines that a set of cloud
services keeps in a set of datacenters. Every VM is identified by the triple
``(service_id, dc_id, vm_index)``: service ``b`` runs VM number ``j`` inside
datacenter ``c``. A VM is alive over a half-open tick interval
``[t_init, t_end)`` and carries one sample per alive tick (dense sampling).
Each sample pairs the requested resources (the spec the VM asks for) with the
resources it actually uses at that tick.

All resource quantities are exact decimals. Binary floats are rejected at
construction so that serialized documents round-trip byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from decimal import Decimal
from enum import Enum
from functools import cached_property
from itertools import pairwise, starmap
from operator import attrgetter, le, lt

from .environments import EnvironmentId
from .errors import ValidationError

MAX_SEED = 2**64 - 1


# quantity_text renders through the default decimal context, which holds 28
# significant digits; a quantity must fit it to round-trip byte for byte
_QUANTITY_DIGITS = 28
QUANTITY_LIMIT = 10**_QUANTITY_DIGITS


def as_quantity(value: int | str | Decimal) -> Decimal:
    """Convert a value to a non-negative Decimal quantity that
    ``quantity_text`` renders exactly.

    Accepts ints, decimal strings, and Decimals. Binary floats are rejected:
    they carry rounding error that would leak into serialized documents.
    The domain is the finite values below ``10**28`` with at most 28
    significant digits and no digit below ``10**-1000026``: exactly what
    the default decimal context holds.
    """
    # exact-type fast paths; they accept and return what the checks below do
    if type(value) is Decimal:
        if value.is_finite() and value >= 0 and value.adjusted() < _QUANTITY_DIGITS and +value == value:
            return value if value else Decimal(0)
    elif type(value) is int and 0 <= value < QUANTITY_LIMIT:
        return Decimal(value)
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
    # +value rounds to the context; adjusted() bounds the integer digits first,
    # so the rounding cannot overflow
    if value.adjusted() >= _QUANTITY_DIGITS or +value != value:
        raise ValidationError(
            f"quantity {value} cannot be rendered exactly: quantities must be below 10**28, "
            "with at most 28 significant digits and no digit below 10**-1000026"
        )
    return value


def quantity_text(value: Decimal) -> str:
    """Canonical decimal rendering: shortest exact form, no exponent.

    Trailing fractional zeros are dropped and integers render without a
    fractional part, so ``Decimal("12.50")`` becomes ``"12.5"`` and
    ``Decimal("100")`` stays ``"100"``.
    """
    if not value.is_finite():
        raise ValidationError(f"cannot render non-finite quantity {value}")
    # normalize() rewrites 100 as 1E+2; the "f" format writes it back out as
    # plain digits, so totals of 10**28 and above render too
    return format(value.normalize(), "f")


@dataclass(frozen=True, slots=True)
class ResourceSpec:
    """Resources a VM requests: CPU, memory, and network bandwidth."""

    vcpu: Decimal
    vram: Decimal
    vnet: Decimal

    def __post_init__(self):
        object.__setattr__(self, "vcpu", as_quantity(self.vcpu))
        object.__setattr__(self, "vram", as_quantity(self.vram))
        object.__setattr__(self, "vnet", as_quantity(self.vnet))


@dataclass(frozen=True, slots=True)
class UtilizationSample:
    """Resources a VM actually uses at one tick."""

    ucpu: Decimal
    uram: Decimal
    unet: Decimal

    def __post_init__(self):
        object.__setattr__(self, "ucpu", as_quantity(self.ucpu))
        object.__setattr__(self, "uram", as_quantity(self.uram))
        object.__setattr__(self, "unet", as_quantity(self.unet))


def _prechecked(cls):
    """A function building a slotted ``cls`` from field values that its checks
    have already accepted, skipping ``__post_init__``. Its code is generated,
    as dataclasses generates ``__init__``, so no loop runs per instance."""
    names = [f.name for f in fields(cls)]
    namespace = {"new": object.__new__, "cls": cls, **{f"set_{name}": getattr(cls, name).__set__ for name in names}}
    body = "".join(f"    set_{name}(instance, {name})\n" for name in names)
    exec(f"def build({', '.join(names)}):\n    instance = new(cls)\n{body}    return instance\n", namespace)
    return namespace["build"]


def full_utilization(spec: ResourceSpec) -> UtilizationSample:
    """Utilization equal to the request, the rule when overbooking is disabled."""
    return _new_util(spec.vcpu, spec.vram, spec.vnet)


def _check_tick(name: str, value: int, minimum: int = 0) -> None:
    if type(value) is int and value >= minimum:
        return
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, slots=True)
class VmDescriptor:
    """Identity and constants of one VM.

    The lifetime is half-open: the VM is alive at ticks t with
    ``t_init <= t < t_end``.
    """

    service_id: int
    dc_id: int
    vm_index: int
    revenue: Decimal
    sla: int
    t_init: int
    t_end: int

    def __post_init__(self):
        _check_tick("service_id", self.service_id, 1)
        _check_tick("dc_id", self.dc_id, 1)
        _check_tick("vm_index", self.vm_index, 1)
        object.__setattr__(self, "revenue", as_quantity(self.revenue))
        _check_tick("sla", self.sla, 1)
        _check_tick("t_init", self.t_init)
        _check_tick("t_end", self.t_end)
        if self.t_init >= self.t_end:
            raise ValidationError(
                f"VM ({self.service_id},{self.dc_id},{self.vm_index}): t_init "
                f"{self.t_init} must be < t_end {self.t_end}"
            )

    @property
    def key(self) -> tuple[int, int, int]:
        return (self.service_id, self.dc_id, self.vm_index)


@dataclass(frozen=True, slots=True)
class VmSample:
    """One VM's requested and used resources at one tick."""

    service_id: int
    dc_id: int
    vm_index: int
    t: int
    spec: ResourceSpec
    util: UtilizationSample

    def __post_init__(self):
        _check_tick("service_id", self.service_id, 1)
        _check_tick("dc_id", self.dc_id, 1)
        _check_tick("vm_index", self.vm_index, 1)
        _check_tick("t", self.t)
        if not isinstance(self.spec, ResourceSpec):
            raise ValidationError(f"spec must be a ResourceSpec, got {self.spec!r}")
        if not isinstance(self.util, UtilizationSample):
            raise ValidationError(f"util must be a UtilizationSample, got {self.util!r}")

    @property
    def vm_key(self) -> tuple[int, int, int]:
        return (self.service_id, self.dc_id, self.vm_index)

    @property
    def sort_key(self) -> tuple[int, int, int, int]:
        return (self.t, self.service_id, self.dc_id, self.vm_index)


# builders for values already checked where they were drawn, stepped or read
_new_spec, _new_util, _new_sample, _new_descriptor = map(_prechecked, (ResourceSpec, UtilizationSample, VmSample, VmDescriptor))


class EventKind(Enum):
    """Lifecycle events. The definition order is the canonical same-tick order."""

    SERVICE_ARRIVAL = "service_arrival"
    SERVICE_DEPARTURE = "service_departure"
    VM_SCALE_OUT = "vm_scale_out"
    VM_SCALE_IN = "vm_scale_in"

    @property
    def order(self) -> int:
        return _EVENT_ORDER[self]

    @property
    def is_scale(self) -> bool:
        return self in (EventKind.VM_SCALE_OUT, EventKind.VM_SCALE_IN)


_EVENT_ORDER = {kind: i for i, kind in enumerate(EventKind)}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """A service arrival or departure, or a VM scale-out or scale-in.

    Service-level events carry only the service id; scale events also name
    the datacenter and VM index involved.
    """

    t: int
    kind: EventKind
    service_id: int
    dc_id: int | None = None
    vm_index: int | None = None

    def __post_init__(self):
        _check_tick("t", self.t)
        if not isinstance(self.kind, EventKind):
            raise ValidationError(f"kind must be an EventKind, got {self.kind!r}")
        _check_tick("service_id", self.service_id, 1)
        if self.kind.is_scale:
            if self.dc_id is None or self.vm_index is None:
                raise ValidationError(f"{self.kind.value} event requires dc_id and vm_index")
            _check_tick("dc_id", self.dc_id, 1)
            _check_tick("vm_index", self.vm_index, 1)
        elif self.dc_id is not None or self.vm_index is not None:
            raise ValidationError(f"{self.kind.value} event must not carry dc_id or vm_index")

    @property
    def sort_key(self) -> tuple[int, int, int, int, int]:
        return (self.t, self.kind.order, self.service_id, self.dc_id or 0, self.vm_index or 0)


@dataclass(frozen=True)
class TraceHeader:
    """Document-level facts: environment, horizon, datacenter count, SLA range.

    ``sla_levels`` is the highest SLA priority level a VM may carry. ``seed``
    and ``config_digest`` are present on generated traces and record how the
    trace was produced.
    """

    environment: EnvironmentId
    horizon: int
    num_datacenters: int
    sla_levels: int = 1
    seed: int | None = None
    config_digest: str | None = None

    def __post_init__(self):
        if not isinstance(self.environment, EnvironmentId):
            raise ValidationError(f"environment must be an EnvironmentId, got {self.environment!r}")
        _check_tick("horizon", self.horizon)
        _check_tick("num_datacenters", self.num_datacenters, 1)
        _check_tick("sla_levels", self.sla_levels, 1)
        if self.seed is not None:
            if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not 0 <= self.seed <= MAX_SEED:
                raise ValidationError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.config_digest is not None:
            digest = self.config_digest
            if not (isinstance(digest, str) and len(digest) == 64 and all(ch in "0123456789abcdef" for ch in digest)):
                raise ValidationError("config_digest must be a 64-character lowercase hex string")


# the canonical sort keys: VmDescriptor.key, TraceEvent.sort_key and VmSample.sort_key
_descriptor_key = attrgetter("service_id", "dc_id", "vm_index")
_event_key = attrgetter("sort_key")
_sample_key = attrgetter("t", "service_id", "dc_id", "vm_index")


def _canonical(items, key, before) -> tuple:
    """The items as a tuple, stably sorted by key unless each key stands ``before`` the next."""
    items = tuple(items)
    return items if all(starmap(before, pairwise(map(key, items)))) else tuple(sorted(items, key=key))


@dataclass(frozen=True)
class Trace:
    """A full workload trace: header, VM descriptors, events, samples.

    Construction checks local invariants (field ranges, unique VM identities)
    and holds each part in canonical order: descriptors by VM key, events by
    (t, kind, service, dc, vm), samples by (t, service, dc, vm). A part given out
    of order is stored stably sorted, so equal-keyed samples keep their order.
    It does not check cross-object structure; deep structural checks such as dense
    sampling live in the analysis layer so that broken documents can still be
    represented and reported on. Instances are immutable and safe to share
    across threads.

    The population index serves ``dc_population`` only. It is built on first
    use and cached on the instance, so it lives exactly as long as the trace
    does. The analysis layer caches its observation pass on the instance in
    the same way.
    """

    header: TraceHeader
    descriptors: tuple[VmDescriptor, ...] = ()
    events: tuple[TraceEvent, ...] = ()
    samples: tuple[VmSample, ...] = field(default=())

    def __post_init__(self):
        # strictly increasing keys are unique ones; sorted, duplicates stand side by side
        given = tuple(self.descriptors)
        descriptors = _canonical(given, _descriptor_key, lt)
        if descriptors is not given:
            for key, following in pairwise(map(_descriptor_key, descriptors)):
                if key == following:
                    raise ValidationError(f"duplicate VM identity {key}")
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "events", _canonical(self.events, _event_key, le))
        object.__setattr__(self, "samples", _canonical(self.samples, _sample_key, le))

    def descriptor_map(self) -> dict[tuple[int, int, int], VmDescriptor]:
        return {desc.key: desc for desc in self.descriptors}

    @cached_property
    def _population(self) -> dict[int, list[tuple[VmDescriptor, ...]]]:
        """Per datacenter, one entry per tick of the horizon: the descriptors
        alive there, in the trace's (service_id, vm_index) order; ticks past the horizon are dropped."""
        horizon = self.header.horizon
        buckets: dict[int, list[list[VmDescriptor]]] = {}
        for desc in self.descriptors:
            ticks = buckets.get(desc.dc_id)
            if ticks is None:
                ticks = buckets[desc.dc_id] = [[] for _ in range(horizon)]
            for t in range(desc.t_init, min(desc.t_end, horizon)):
                ticks[t].append(desc)
        return {dc_id: [tuple(alive) for alive in ticks] for dc_id, ticks in buckets.items()}


def dc_population(trace: Trace, dc_id: int, t: int) -> list[tuple[int, int]]:
    """VMs alive in one datacenter at one tick, as sorted (service_id, vm_index) pairs.

    A datacenter with no alive VMs (or an id the trace never uses) yields an
    empty list. Ticks outside ``[0, horizon)`` are a caller error.
    """
    if not isinstance(t, int) or isinstance(t, bool) or not 0 <= t < trace.header.horizon:
        raise ValidationError(f"tick {t!r} out of range [0, {trace.header.horizon}) for this trace")
    ticks = trace._population.get(dc_id)
    if ticks is None:
        return []
    return [(desc.service_id, desc.vm_index) for desc in ticks[t]]
