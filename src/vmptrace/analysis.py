"""Trace validation, environment inference, and aggregate statistics.

Validation runs two phases. Structural rules hold for every trace
regardless of environment: one sample per alive tick per VM, samples
confined to their VM's lifetime, no duplicates, lifecycle events consistent
with descriptor boundaries, ids within the header's ranges.
Environment-conformance rules then compare observed dynamics against the
declared environment's capabilities: requested resources must stay constant
without vertical elasticity, per-service VM counts constant without
horizontal, utilization equal to the request for each overbooking-disabled
class, and, in strict mode, utilization at most the request for enabled
classes. The ``paper`` mode accepts the bundled examples verbatim: it skips
the bound rule and skips the server 100%-utilization rule when the declared
environment has vertical elasticity.

Classification infers the smallest environment whose capabilities explain a
trace's observed dynamics.

Both share one observation pass over the trace. It finds the structural
violations and the first witness of each dynamic: a spec change between
consecutive alive ticks, a membership change, a server gap, a network gap,
and a server or network excess for the strict bound rule. Its result is
cached on the ``Trace`` instance, as the population index is, and holds only
those findings and witnesses, never a per-sample list. ``classify`` reads
its capabilities off the witnesses. ``validate`` scans the samples for
conformance only when a rule can fire: the declared environment lacks a
capability that has a witness, or strict mode has an excess witness.
Violations are slotted values, and within one report those with equal
message texts share one string; object identity is not part of the API.

All three entry points are read-only over the immutable trace and safe to
call concurrently: two threads may both run the pass on a trace with none
cached yet, with identical results, and either result is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from decimal import ROUND_HALF_EVEN, Context, Decimal, Inexact, InvalidOperation, localcontext
from itertools import pairwise

from .environments import Capabilities, EnvironmentId, capabilities, env_from_capabilities
from .errors import IntegrityError, ValidationError
from .model import EventKind, Trace, TraceEvent, VmDescriptor, VmSample, _prechecked, dc_population, quantity_text
from .traceio import _Shared

MODE_STRICT = "strict"
MODE_PAPER = "paper"

RULE_DENSE_SAMPLING = "structure.dense-sampling"
RULE_LIFETIME = "structure.lifetime"
RULE_DUPLICATE_SAMPLE = "structure.duplicate-sample"
RULE_UNKNOWN_VM = "structure.unknown-vm"
RULE_HORIZON = "structure.horizon"
RULE_SLA_RANGE = "structure.sla-range"
RULE_DC_RANGE = "structure.dc-range"
RULE_EVENT_CONSISTENCY = "structure.event-consistency"
RULE_NO_VERTICAL = "env.no-vertical"
RULE_NO_HORIZONTAL = "env.no-horizontal"
RULE_NO_SERVER_OVERBOOKING = "env.no-server-overbooking"
RULE_NO_NETWORK_OVERBOOKING = "env.no-network-overbooking"
RULE_OVERBOOKING_BOUND = "env.overbooking-bound"


@dataclass(frozen=True, slots=True)
class Violation:
    """One rule violation with its location: either a (t, service, dc, vm)
    coordinate (unused parts omitted) or an index into the event list."""

    rule: str
    message: str
    t: int | None = None
    service_id: int | None = None
    dc_id: int | None = None
    vm_index: int | None = None
    event_index: int | None = None

    def location_text(self) -> str:
        if self.event_index is not None:
            return f"event #{self.event_index}"
        coordinates = zip("tbcj", (self.t, self.service_id, self.dc_id, self.vm_index))
        parts = [f"{name}={value}" for name, value in coordinates if value is not None]
        return "(" + ",".join(parts) + ")" if parts else "-"


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    declared: EnvironmentId
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "declared_environment": [self.declared.elasticity, self.declared.overbooking],
            "ok": self.ok,
            "violations": [
                {"rule": v.rule, "location": v.location_text(), "message": v.message}
                for v in self.violations
            ],
        }

    def render_text(self) -> str:
        lines = [
            f"mode: {self.mode}",
            f"declared environment: {self.declared}",
        ]
        if self.ok:
            lines.append("result: ok")
        else:
            lines.append(f"result: {len(self.violations)} violation(s)")
            lines.extend(
                f"  [{v.rule}] {v.location_text()} {v.message}" for v in self.violations
            )
        return "\n".join(lines) + "\n"


# a Violation from its seven fields in order, without the frozen __init__'s
# object.__setattr__ per field
_new_violation = _prechecked(Violation)


def _vm_violation(rule: str, message: str, key: tuple[int, int, int], t: int | None) -> Violation:
    return _new_violation(rule, message, t, *key, None)


@dataclass(frozen=True, slots=True)
class _Observation:
    """What one pass over a trace finds: its structural violations and the
    first witness of each dynamic, ``None`` where the trace shows none.
    ``horizontal`` is a ``_membership_changes`` entry, the others samples."""

    structural: tuple[Violation, ...]
    vertical: VmSample | None
    horizontal: tuple | None
    server: VmSample | None
    network: VmSample | None
    server_excess: VmSample | None
    network_excess: VmSample | None


def _observation(trace: Trace) -> _Observation:
    """The pass's result for ``trace``, computed on first use and cached on
    the instance as its population index is. Besides the structural
    findings it holds one sample per witness and no per-sample list: long
    lived lists there pin allocator arenas and raise peak RSS."""
    seen = trace.__dict__.get("_observation")
    if seen is None:
        seen = trace.__dict__["_observation"] = _observe(trace)
    return seen


def _with_previous(samples: tuple[VmSample, ...]):
    """``(index, vm key, previous, sample)`` for every sample in tick order,
    where ``previous`` is the same VM's sample just before it in that order, or
    None. Samples out of tick order, as a hand-built trace may hold them, are
    visited in a stable sort by tick, which keeps same-tick samples, and so
    duplicates, in their given order."""
    order = enumerate(samples)
    if any(earlier.t > later.t for earlier, later in pairwise(samples)):
        order = sorted(order, key=lambda item: item[1].t)
    last: dict[tuple[int, int, int], VmSample] = {}
    for index, sample in order:
        key = (sample.service_id, sample.dc_id, sample.vm_index)
        yield index, key, last.get(key), sample
        last[key] = sample


def _observe(trace: Trace) -> _Observation:
    out: list[Violation] = []
    # one string per distinct message text, shared by the violations that repeat it
    messages = _Shared(str)
    header = trace.header
    by_key = trace.descriptor_map()

    for desc in trace.descriptors:
        if desc.t_end > header.horizon:
            message = messages[f"VM lifetime ends at t={desc.t_end}, past horizon {header.horizon}"]
            out.append(_vm_violation(RULE_HORIZON, message, desc.key, desc.t_end))
        if desc.dc_id > header.num_datacenters:
            message = messages[f"dc {desc.dc_id} exceeds num_datacenters {header.num_datacenters}"]
            out.append(_vm_violation(RULE_DC_RANGE, message, desc.key, None))
        if desc.sla > header.sla_levels:
            message = messages[f"sla {desc.sla} exceeds the header's highest level {header.sla_levels}"]
            out.append(_vm_violation(RULE_SLA_RANGE, message, desc.key, None))

    # dynamics are witnessed on every sample, as conformance checks every
    # sample; in tick order a known VM's sample repeats a tick exactly when
    # its previous sample is at that tick
    vertical = server = network = server_excess = network_excess = None
    misplaced: list[tuple[int, Violation]] = []
    covered = 0
    for index, key, previous, sample in _with_previous(trace.samples):
        spec, util = sample.spec, sample.util
        if vertical is None and previous is not None and spec_changed(previous, sample):
            vertical = sample
        if server is None and server_gap(sample):
            server = sample
        if network is None and network_gap(sample):
            network = sample
        if server_excess is None and (util.ucpu > spec.vcpu or util.uram > spec.vram):
            server_excess = sample
        if network_excess is None and util.unet > spec.vnet:
            network_excess = sample
        desc = by_key.get(key)
        if desc is None:
            misplaced.append((index, _vm_violation(RULE_UNKNOWN_VM, "sample references no known VM", key, sample.t)))
        elif previous is not None and previous.t == sample.t:
            misplaced.append((index, _vm_violation(RULE_DUPLICATE_SAMPLE, "duplicate sample", key, sample.t)))
        elif desc.t_init <= sample.t < desc.t_end:
            covered += 1
        else:
            message = messages[f"sample outside the VM's lifetime [{desc.t_init}, {desc.t_end})"]
            misplaced.append((index, _vm_violation(RULE_LIFETIME, message, key, sample.t)))
    # reported in the trace's own sample order, however they were visited
    misplaced.sort(key=lambda item: item[0])
    out.extend(violation for _, violation in misplaced)

    # each covered sample is a distinct alive (tick, VM); look for the
    # missing ones only when they do not fill every lifetime
    if covered != sum(desc.t_end - desc.t_init for desc in trace.descriptors):
        present = {(sample.t, sample.vm_key) for sample in trace.samples}
        for desc in trace.descriptors:
            for t in range(desc.t_init, desc.t_end):
                if (t, desc.key) not in present:
                    out.append(_vm_violation(RULE_DENSE_SAMPLING, "missing sample for an alive tick", desc.key, t))

    spans = _service_spans(trace.descriptors)
    _event_violations(trace, by_key, spans, out, messages)
    horizontal = min(_membership_changes(trace.descriptors, spans), default=None)
    return _Observation(tuple(out), vertical, horizontal, server, network, server_excess, network_excess)


def _event_violations(trace: Trace, by_key: dict, spans: dict[int, tuple[int, int]], out: list[Violation], messages: _Shared) -> None:
    horizon = trace.header.horizon
    # event ticks by (kind, service id), or (kind, vm key) for scale events
    times: dict[tuple, list[int]] = {}
    for index, event in enumerate(trace.events):
        if event.t > horizon:
            message = messages[f"event at t={event.t} is past horizon {horizon}"]
            out.append(Violation(RULE_EVENT_CONSISTENCY, message, event_index=index))
        if event.kind.is_scale:
            subject, known, noun = (event.service_id, event.dc_id, event.vm_index), by_key, "VM"
        else:
            subject, known, noun = event.service_id, spans, "service"
        if subject in known:
            times.setdefault((event.kind, subject), []).append(event.t)
        else:
            message = messages[f"{event.kind.value} references unknown {noun} {subject}"]
            out.append(Violation(RULE_EVENT_CONSISTENCY, message, event_index=index))

    for service_id in sorted(spans):
        start, end = spans[service_id]
        for kind, name, t, edge in (
            (EventKind.SERVICE_ARRIVAL, "arrival", start, "first VM starts"),
            (EventKind.SERVICE_DEPARTURE, "departure", end, "last VM ends"),
        ):
            ticks = times.get((kind, service_id), [])
            if len(ticks) != 1:
                message = f"service {service_id} has {len(ticks)} {name} events, expected 1"
                out.append(Violation(RULE_EVENT_CONSISTENCY, message, service_id=service_id))
            elif ticks[0] != t:
                message = f"service {service_id} {name} at t={ticks[0]} but its {edge} at t={t}"
                out.append(Violation(RULE_EVENT_CONSISTENCY, message, t=ticks[0], service_id=service_id))

    # a VM that joins or leaves its service mid-lifetime has exactly one scale
    # event there, and any other VM none of that kind
    for desc in trace.descriptors:
        start, end = spans[desc.service_id]
        for kind, name, t, mid, verb, whole in (
            (EventKind.VM_SCALE_OUT, "scale-out", desc.t_init, desc.t_init > start, "starts", "present from service start"),
            (EventKind.VM_SCALE_IN, "scale-in", desc.t_end, desc.t_end < end, "ends", "alive until service end"),
        ):
            ticks = times.get((kind, desc.key), [])
            if mid and ticks != [t]:
                message = messages[f"VM {verb} mid-lifetime at t={t} but its {name} events are at {ticks}"]
                out.append(_vm_violation(RULE_EVENT_CONSISTENCY, message, desc.key, t))
            elif not mid and ticks:
                message = messages[f"VM {whole} must not have {name} events, got {ticks}"]
                out.append(_vm_violation(RULE_EVENT_CONSISTENCY, message, desc.key, t))


def _service_spans(descriptors: tuple[VmDescriptor, ...]) -> dict[int, tuple[int, int]]:
    spans: dict[int, tuple[int, int]] = {}
    for desc in descriptors:
        start, end = spans.get(desc.service_id, (desc.t_init, desc.t_end))
        spans[desc.service_id] = (min(start, desc.t_init), max(end, desc.t_end))
    return spans


def spec_changed(prev: VmSample, cur: VmSample) -> bool:
    """Vertical dynamics: ``cur`` follows ``prev`` in one VM's tick-ordered
    series, at the next tick, with a different spec."""
    return cur.t == prev.t + 1 and cur.spec != prev.spec


def server_gap(sample: VmSample) -> bool:
    """Server overbooking: CPU or memory utilization differs from the request."""
    return sample.util.ucpu != sample.spec.vcpu or sample.util.uram != sample.spec.vram


def network_gap(sample: VmSample) -> bool:
    """Network overbooking: bandwidth utilization differs from the request."""
    return sample.util.unet != sample.spec.vnet


def _membership_changes(descriptors: tuple[VmDescriptor, ...], spans: dict[int, tuple[int, int]]):
    """``(service_id, t, leaves, vm key)`` for each per-service VM count
    change strictly inside the service's lifetime: a VM joins at ``t_init``
    after its service starts, and leaves at ``t_end`` before it ends. Sorted,
    the entries run by service and tick, joins before leaves."""
    for desc in descriptors:
        start, end = spans[desc.service_id]
        if desc.t_init > start:
            yield desc.service_id, desc.t_init, False, desc.key
        if desc.t_end < end:
            yield desc.service_id, desc.t_end, True, desc.key


def lifecycle_events(descriptors: tuple[VmDescriptor, ...]) -> tuple[TraceEvent, ...]:
    """The events that VM lifetimes imply, in canonical order, and the only
    events a structurally valid trace holds: each service arrives when its
    first VM starts and departs when its last VM ends, and a VM that joins or
    leaves its service mid-lifetime scales out or in there."""
    spans = _service_spans(descriptors)
    events = [
        TraceEvent(t=t, kind=kind, service_id=service_id)
        for service_id, span in spans.items()
        for kind, t in zip((EventKind.SERVICE_ARRIVAL, EventKind.SERVICE_DEPARTURE), span)
    ]
    events.extend(
        TraceEvent(t=t, kind=EventKind.VM_SCALE_IN if leaves else EventKind.VM_SCALE_OUT, service_id=b, dc_id=c, vm_index=j)
        for b, t, leaves, (_, c, j) in _membership_changes(descriptors, spans)
    )
    events.sort(key=lambda event: event.sort_key)
    return tuple(events)


def _conformance_violations(trace: Trace, seen: _Observation, caps: Capabilities, mode: str) -> list[Violation]:
    """Findings of the rules that can fire, each one gated on its witness:
    the full lists behind a witness are rebuilt here, never cached."""
    out: list[Violation] = []
    # each distinct message text kept once, shared by the violations that repeat it
    messages = _Shared(str)

    if not caps.vertical and seen.vertical is not None:
        changes = [s for _, _, previous, s in _with_previous(trace.samples) if previous is not None and spec_changed(previous, s)]
        # a stable sort: each VM's changes stay in tick order
        for sample in sorted(changes, key=lambda sample: sample.vm_key):
            message = messages[f"requested resources change at t={sample.t} but the environment has no vertical elasticity"]
            out.append(_vm_violation(RULE_NO_VERTICAL, message, sample.vm_key, sample.t))

    if not caps.horizontal and seen.horizontal is not None:
        for _, t, leaves, key in sorted(_membership_changes(trace.descriptors, _service_spans(trace.descriptors))):
            verb = "leaves" if leaves else "joins"
            message = messages[f"VM {verb} its service mid-lifetime at t={t} but the environment has no horizontal elasticity"]
            out.append(_vm_violation(RULE_NO_HORIZONTAL, message, key, t))

    # one pass over the samples; violations stay grouped by rule
    check_server_equality = (
        not caps.server_overbooking and not (mode == MODE_PAPER and caps.vertical) and seen.server is not None
    )
    check_network_equality = not caps.network_overbooking and seen.network is not None
    bound_server = mode == MODE_STRICT and caps.server_overbooking and seen.server_excess is not None
    bound_network = mode == MODE_STRICT and caps.network_overbooking and seen.network_excess is not None
    if not (check_server_equality or check_network_equality or bound_server or bound_network):
        return out
    # each distinct quantity rendered once, as the writer renders them
    text = _Shared(quantity_text)
    server_out: list[Violation] = []
    network_out: list[Violation] = []
    bound_out: list[Violation] = []
    for sample in trace.samples:
        spec, util = sample.spec, sample.util
        if check_server_equality and server_gap(sample):
            mismatches = []
            if util.ucpu != spec.vcpu:
                mismatches.append(f"ucpu {text[util.ucpu]} != vcpu {text[spec.vcpu]}")
            if util.uram != spec.vram:
                mismatches.append(f"uram {text[util.uram]} != vram {text[spec.vram]}")
            message = messages["server utilization must equal the request without server overbooking: " + ", ".join(mismatches)]
            server_out.append(
                _new_violation(RULE_NO_SERVER_OVERBOOKING, message, sample.t, sample.service_id, sample.dc_id, sample.vm_index, None)
            )
        if check_network_equality and network_gap(sample):
            message = messages[
                f"network utilization must equal the request without network overbooking: unet {text[util.unet]} != vnet {text[spec.vnet]}"
            ]
            network_out.append(
                _new_violation(RULE_NO_NETWORK_OVERBOOKING, message, sample.t, sample.service_id, sample.dc_id, sample.vm_index, None)
            )
        excesses = []
        if bound_server:
            if util.ucpu > spec.vcpu:
                excesses.append(f"ucpu {text[util.ucpu]} > vcpu {text[spec.vcpu]}")
            if util.uram > spec.vram:
                excesses.append(f"uram {text[util.uram]} > vram {text[spec.vram]}")
        if bound_network and util.unet > spec.vnet:
            excesses.append(f"unet {text[util.unet]} > vnet {text[spec.vnet]}")
        if excesses:
            message = messages["utilization exceeds the request: " + ", ".join(excesses)]
            bound_out.append(
                _new_violation(RULE_OVERBOOKING_BOUND, message, sample.t, sample.service_id, sample.dc_id, sample.vm_index, None)
            )
    return out + server_out + network_out + bound_out


def validate(trace: Trace, mode: str = MODE_STRICT, declared: EnvironmentId | None = None) -> ValidationReport:
    """Check a trace against the structural rules and its declared
    environment. ``declared`` defaults to the header's environment. All
    findings are report entries; nothing raises for trace content."""
    if mode not in (MODE_STRICT, MODE_PAPER):
        raise ValidationError(f"mode must be {MODE_STRICT!r} or {MODE_PAPER!r}, got {mode!r}")
    if declared is None:
        declared = trace.header.environment
    seen = _observation(trace)
    violations = (*seen.structural, *_conformance_violations(trace, seen, capabilities(declared), mode))
    return ValidationReport(mode=mode, declared=declared, violations=violations)


def classify(trace: Trace, *, arrival_as_horizontal: bool = False) -> EnvironmentId:
    """Infer the smallest environment whose capabilities explain the trace.

    Vertical: some VM's spec differs between consecutive alive ticks.
    Horizontal: some service's VM count changes strictly within its
    lifetime; with ``arrival_as_horizontal`` also any service arriving at
    t > 0 while another service is alive. Server/network overbooking: any
    sample where that class's utilization differs from the request.
    Refuses structurally invalid traces.
    """
    seen = _observation(trace)
    if seen.structural:
        first = seen.structural[0]
        raise IntegrityError(
            f"refusing to classify a structurally invalid trace "
            f"({len(seen.structural)} violation(s); first: [{first.rule}] {first.location_text()} {first.message})"
        )

    horizontal = seen.horizontal is not None
    if not horizontal and arrival_as_horizontal:
        spans = _service_spans(trace.descriptors)
        for service_id, (start, _) in spans.items():
            if start > 0 and any(
                other != service_id and other_start <= start < other_end
                for other, (other_start, other_end) in spans.items()
            ):
                horizontal = True
                break
    return env_from_capabilities(
        Capabilities(
            horizontal=horizontal,
            vertical=seen.vertical is not None,
            server_overbooking=seen.server is not None,
            network_overbooking=seen.network is not None,
        )
    )


@dataclass(frozen=True)
class StatsRow:
    """Aggregate demand and utilization of one datacenter at one tick."""

    dc_id: int
    t: int
    vm_count: int
    vcpu: Decimal
    vram: Decimal
    vnet: Decimal
    ucpu: Decimal
    uram: Decimal
    unet: Decimal
    cpu_ratio: Decimal | None
    ram_ratio: Decimal | None
    net_ratio: Decimal | None


@dataclass(frozen=True)
class StatsSeries:
    horizon: int
    num_datacenters: int
    rows: tuple[StatsRow, ...]

    def to_json_dict(self) -> dict:
        # a ratio is absent where it is None; every other value is a Decimal
        # or an int, passed as is so a Decimal keeps its stored exponent
        rows = [{key: value for key, value in _row_items(row) if value is not None} for row in self.rows]
        return {"horizon": self.horizon, "num_datacenters": self.num_datacenters, "rows": rows}

    def render_table(self) -> str:
        body = [tuple(_cell_text(key, value) for key, value in _row_items(row)) for row in self.rows]
        widths = [max([len(header), *(len(line[i]) for line in body)]) for i, header in enumerate(_STATS_HEADERS)]
        lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(_STATS_HEADERS))]
        lines.extend("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)) for line in body)
        return "\n".join(lines) + "\n"


# each StatsRow field's stats JSON key and table header, in field order
_STATS_KEYS = ("dc", "t", "vm_count", "vcpu", "vram", "vnet", "ucpu", "uram", "unet", "cpu_ratio", "ram_ratio", "net_ratio")
_STATS_HEADERS = ("dc", "t", "vms", "vcpu", "vram", "vnet", "ucpu", "uram", "unet", "cpu", "ram", "net")


def _row_items(row: StatsRow):
    return zip(_STATS_KEYS, (getattr(row, field.name) for field in fields(row)))


def _cell_text(key: str, value) -> str:
    """A table cell: a ratio with its quantized places, or ``-`` where absent;
    a total as the writer renders quantities; a count or coordinate as is."""
    if key.endswith("_ratio"):
        return "-" if value is None else format(value, "f")
    return quantity_text(value) if isinstance(value, Decimal) else str(value)


# the default context (28 digits), with a rounded sum an error instead of silent
_EXACT_SUMS = Context(prec=28)
_EXACT_SUMS.traps[Inexact] = True


def stats(trace: Trace, *, ratio_places: int = 4) -> StatsSeries:
    """Per-(datacenter, tick) totals of requested and utilized resources.

    Sums are exact: a cell whose total needs more than 28 significant digits
    is a ValidationError naming the cell. Each utilized/requested ratio is
    quantized half-even to ``ratio_places`` decimal places, an integer in
    [0, 27], and absent where the requested total is zero. Every (dc, t) cell
    of the horizon appears, including empty ones.
    """
    if not isinstance(ratio_places, int) or isinstance(ratio_places, bool) or not 0 <= ratio_places <= 27:
        raise ValidationError(f"ratio_places must be an integer in [0, 27], got {ratio_places!r}")
    totals: dict[tuple[int, int], list[Decimal]] = {}
    try:
        with localcontext(_EXACT_SUMS):
            for sample in trace.samples:
                cell = totals.setdefault((sample.dc_id, sample.t), [Decimal(0)] * 6)
                cell[0] += sample.spec.vcpu
                cell[1] += sample.spec.vram
                cell[2] += sample.spec.vnet
                cell[3] += sample.util.ucpu
                cell[4] += sample.util.uram
                cell[5] += sample.util.unet
    except Inexact:
        raise ValidationError(
            f"stats cell (dc {sample.dc_id}, t {sample.t}): a total cannot be summed exactly in 28 significant digits"
        ) from None

    quantum = Decimal(1).scaleb(-ratio_places)

    def ratio(utilized: Decimal, requested: Decimal) -> Decimal | None:
        if requested == 0:
            return None
        return (utilized / requested).quantize(quantum, rounding=ROUND_HALF_EVEN)

    rows = []
    for dc_id in range(1, trace.header.num_datacenters + 1):
        for t in range(trace.header.horizon):
            cell = totals.get((dc_id, t), [Decimal(0)] * 6)
            vm_count = len(dc_population(trace, dc_id, t))
            try:
                row = StatsRow(
                    dc_id=dc_id,
                    t=t,
                    vm_count=vm_count,
                    vcpu=cell[0],
                    vram=cell[1],
                    vnet=cell[2],
                    ucpu=cell[3],
                    uram=cell[4],
                    unet=cell[5],
                    cpu_ratio=ratio(cell[3], cell[0]),
                    ram_ratio=ratio(cell[4], cell[1]),
                    net_ratio=ratio(cell[5], cell[2]),
                )
            except InvalidOperation:
                raise ValidationError(
                    f"stats cell (dc {dc_id}, t {t}): a utilized/requested ratio cannot be quantized to "
                    f"{ratio_places} places in 28 significant digits"
                ) from None
            rows.append(row)
    return StatsSeries(horizon=trace.header.horizon, num_datacenters=trace.header.num_datacenters, rows=tuple(rows))
