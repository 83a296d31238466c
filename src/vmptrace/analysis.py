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
trace's observed dynamics. All three entry points are read-only over the
immutable trace and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal, Inexact, InvalidOperation, localcontext
from itertools import pairwise

from .environments import Capabilities, EnvironmentId, capabilities, env_from_capabilities
from .errors import IntegrityError, ValidationError
from .model import EventKind, Trace, VmSample, dc_population, quantity_text

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

@dataclass(frozen=True)
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
        parts = []
        if self.t is not None:
            parts.append(f"t={self.t}")
        if self.service_id is not None:
            parts.append(f"b={self.service_id}")
        if self.dc_id is not None:
            parts.append(f"c={self.dc_id}")
        if self.vm_index is not None:
            parts.append(f"j={self.vm_index}")
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


def _vm_violation(rule: str, message: str, sample_or_key, t: int | None = None) -> Violation:
    if isinstance(sample_or_key, VmSample):
        key = sample_or_key.vm_key
        t = sample_or_key.t if t is None else t
    else:
        key = sample_or_key
    return Violation(rule, message, t=t, service_id=key[0], dc_id=key[1], vm_index=key[2])


def _structural_violations(trace: Trace) -> list[Violation]:
    out: list[Violation] = []
    header = trace.header
    by_key = trace.descriptor_map()

    for desc in trace.descriptors:
        if desc.t_end > header.horizon:
            out.append(
                _vm_violation(
                    RULE_HORIZON,
                    f"VM lifetime ends at t={desc.t_end}, past horizon {header.horizon}",
                    desc.key,
                    t=desc.t_end,
                )
            )
        if desc.dc_id > header.num_datacenters:
            out.append(
                _vm_violation(
                    RULE_DC_RANGE,
                    f"dc {desc.dc_id} exceeds num_datacenters {header.num_datacenters}",
                    desc.key,
                )
            )
        if desc.sla > header.sla_levels:
            out.append(
                _vm_violation(
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
            out.append(_vm_violation(RULE_UNKNOWN_VM, "sample references no known VM", sample))
            continue
        full_key = (sample.t, *sample.vm_key)
        if full_key in seen:
            out.append(_vm_violation(RULE_DUPLICATE_SAMPLE, "duplicate sample", sample))
            continue
        seen.add(full_key)
        present[sample.vm_key].add(sample.t)
        if not desc.alive_at(sample.t):
            out.append(
                _vm_violation(
                    RULE_LIFETIME,
                    f"sample outside the VM's lifetime [{desc.t_init}, {desc.t_end})",
                    sample,
                )
            )

    for desc in trace.descriptors:
        for t in range(desc.t_init, desc.t_end):
            if t not in present[desc.key]:
                out.append(_vm_violation(RULE_DENSE_SAMPLING, "missing sample for an alive tick", desc.key, t=t))

    _event_violations(trace, out)
    return out


def _event_violations(trace: Trace, out: list[Violation]) -> None:
    header = trace.header
    by_key = trace.descriptor_map()
    known_services = set(trace.service_ids())

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

    spans = _service_spans(trace)
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
                    _vm_violation(
                        RULE_EVENT_CONSISTENCY,
                        f"VM starts mid-lifetime at t={desc.t_init} but its scale-out events are at {outs}",
                        desc.key,
                        t=desc.t_init,
                    )
                )
        elif outs:
            out.append(
                _vm_violation(
                    RULE_EVENT_CONSISTENCY,
                    f"VM present from service start must not have scale-out events, got {outs}",
                    desc.key,
                    t=desc.t_init,
                )
            )
        if desc.t_end < span_end:
            if ins != [desc.t_end]:
                out.append(
                    _vm_violation(
                        RULE_EVENT_CONSISTENCY,
                        f"VM ends mid-lifetime at t={desc.t_end} but its scale-in events are at {ins}",
                        desc.key,
                        t=desc.t_end,
                    )
                )
        elif ins:
            out.append(
                _vm_violation(
                    RULE_EVENT_CONSISTENCY,
                    f"VM alive until service end must not have scale-in events, got {ins}",
                    desc.key,
                    t=desc.t_end,
                )
            )


def _service_spans(trace: Trace) -> dict[int, tuple[int, int]]:
    spans: dict[int, tuple[int, int]] = {}
    for desc in trace.descriptors:
        start, end = spans.get(desc.service_id, (desc.t_init, desc.t_end))
        spans[desc.service_id] = (min(start, desc.t_init), max(end, desc.t_end))
    return spans


def _samples_by_vm(trace: Trace) -> dict[tuple[int, int, int], list[VmSample]]:
    grouped: dict[tuple[int, int, int], list[VmSample]] = {}
    for sample in trace.samples:
        grouped.setdefault(sample.vm_key, []).append(sample)
    for series in grouped.values():
        series.sort(key=lambda s: s.t)
    return grouped


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


def _spec_changes(trace: Trace) -> list[VmSample]:
    """Samples at which a VM's spec differs from its previous alive tick."""
    grouped = _samples_by_vm(trace)
    return [cur for key in sorted(grouped) for prev, cur in pairwise(grouped[key]) if spec_changed(prev, cur)]


def _membership_changes(trace: Trace) -> list[tuple[int, tuple[int, int, int], str]]:
    """(t, vm key, "joins" | "leaves") for per-service count changes strictly
    inside the service's lifetime."""
    changes = []
    by_service: dict[int, list] = {}
    for desc in trace.descriptors:
        by_service.setdefault(desc.service_id, []).append(desc)
    spans = _service_spans(trace)
    for service_id in sorted(by_service):
        span_start, span_end = spans[service_id]
        members = by_service[service_id]
        previous = {d.key for d in members if d.alive_at(span_start)}
        for t in range(span_start + 1, span_end):
            current = {d.key for d in members if d.alive_at(t)}
            for key in sorted(current - previous):
                changes.append((t, key, "joins"))
            for key in sorted(previous - current):
                changes.append((t, key, "leaves"))
            previous = current
    return changes


def _conformance_violations(trace: Trace, caps: Capabilities, mode: str) -> list[Violation]:
    out: list[Violation] = []

    if not caps.vertical:
        for sample in _spec_changes(trace):
            out.append(
                _vm_violation(
                    RULE_NO_VERTICAL,
                    f"requested resources change at t={sample.t} but the environment has no vertical elasticity",
                    sample,
                )
            )

    if not caps.horizontal:
        for t, key, what in _membership_changes(trace):
            out.append(
                _vm_violation(
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
        if check_server_equality and server_gap(sample):
            mismatches = []
            if util.ucpu != spec.vcpu:
                mismatches.append(f"ucpu {quantity_text(util.ucpu)} != vcpu {quantity_text(spec.vcpu)}")
            if util.uram != spec.vram:
                mismatches.append(f"uram {quantity_text(util.uram)} != vram {quantity_text(spec.vram)}")
            server_out.append(
                _vm_violation(
                    RULE_NO_SERVER_OVERBOOKING,
                    "server utilization must equal the request without server overbooking: " + ", ".join(mismatches),
                    sample,
                )
            )
        if not caps.network_overbooking and network_gap(sample):
            network_out.append(
                _vm_violation(
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
                _vm_violation(RULE_OVERBOOKING_BOUND, "utilization exceeds the request: " + ", ".join(excesses), sample)
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
    violations = _structural_violations(trace)
    violations.extend(_conformance_violations(trace, capabilities(declared), mode))
    return ValidationReport(mode=mode, declared=declared, violations=tuple(violations))


def classify(trace: Trace, *, arrival_as_horizontal: bool = False) -> EnvironmentId:
    """Infer the smallest environment whose capabilities explain the trace.

    Vertical: some VM's spec differs between consecutive alive ticks.
    Horizontal: some service's VM count changes strictly within its
    lifetime; with ``arrival_as_horizontal`` also any service arriving at
    t > 0 while another service is alive. Server/network overbooking: any
    sample where that class's utilization differs from the request.
    Refuses structurally invalid traces.
    """
    structural = _structural_violations(trace)
    if structural:
        first = structural[0]
        raise IntegrityError(
            f"refusing to classify a structurally invalid trace "
            f"({len(structural)} violation(s); first: [{first.rule}] {first.location_text()} {first.message})"
        )

    vertical = bool(_spec_changes(trace))
    horizontal = bool(_membership_changes(trace))
    if not horizontal and arrival_as_horizontal:
        spans = _service_spans(trace)
        for service_id, (start, _) in spans.items():
            if start > 0 and any(
                other != service_id and other_start <= start < other_end
                for other, (other_start, other_end) in spans.items()
            ):
                horizontal = True
                break
    server = any(server_gap(sample) for sample in trace.samples)
    network = any(network_gap(sample) for sample in trace.samples)
    return env_from_capabilities(
        Capabilities(
            horizontal=horizontal,
            vertical=vertical,
            server_overbooking=server,
            network_overbooking=network,
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
        rows = []
        for row in self.rows:
            entry: dict = {
                "dc": row.dc_id,
                "t": row.t,
                "vm_count": row.vm_count,
                "vcpu": row.vcpu,
                "vram": row.vram,
                "vnet": row.vnet,
                "ucpu": row.ucpu,
                "uram": row.uram,
                "unet": row.unet,
            }
            for name, ratio in (
                ("cpu_ratio", row.cpu_ratio),
                ("ram_ratio", row.ram_ratio),
                ("net_ratio", row.net_ratio),
            ):
                if ratio is not None:
                    entry[name] = ratio
            rows.append(entry)
        return {"horizon": self.horizon, "num_datacenters": self.num_datacenters, "rows": rows}

    def render_table(self) -> str:
        headers = ("dc", "t", "vms", "vcpu", "vram", "vnet", "ucpu", "uram", "unet", "cpu", "ram", "net")
        body = [
            (
                str(row.dc_id),
                str(row.t),
                str(row.vm_count),
                quantity_text(row.vcpu),
                quantity_text(row.vram),
                quantity_text(row.vnet),
                quantity_text(row.ucpu),
                quantity_text(row.uram),
                quantity_text(row.unet),
                "-" if row.cpu_ratio is None else format(row.cpu_ratio, "f"),
                "-" if row.ram_ratio is None else format(row.ram_ratio, "f"),
                "-" if row.net_ratio is None else format(row.net_ratio, "f"),
            )
            for row in self.rows
        ]
        widths = [max(len(headers[i]), *(len(line[i]) for line in body)) if body else len(headers[i]) for i in range(len(headers))]
        lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))]
        lines.extend("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)) for line in body)
        return "\n".join(lines) + "\n"


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
