"""Line-oriented trace serialization: canonical, byte-exact, reversible.

A trace document is UTF-8 text, one JSON object per line, LF-terminated:
first exactly one header line, then event lines, then sample lines, each
tagged with a ``"type"`` discriminator. Writing always emits the canonical
form: fixed key order, compact separators, events and samples in the order a
``Trace`` holds them (events by (t, kind, service, dc, vm), samples by (t,
service, dc, vm)), and every number in its shortest exact decimal spelling.
Reading is tolerant of event/sample line order, so write(read(d)) == d for
canonical documents and read(write(x)) == x for every valid trace.

Sample lines carry each VM's revenue and SLA level; descriptors are
reconstructed from the sample extent cross-checked against the lifecycle
events, so a document needs no separate descriptor lines.

Every quantity must lie in the domain ``model.as_quantity`` accepts, the
values ``quantity_text`` renders exactly; one outside it is a ParseError on
its line, as is an integer literal too long for Python to convert or a line
nested too deeply to decode.

Writing renders one line at a time: write_trace hands each line to its sink
as it is rendered, and trace_to_bytes and trace_to_csv_text join blocks of
lines, so none of them holds a list of every line.

Reading decodes the source, releases the source bytes, and then walks the
text one line at a time, never holding a list of lines. It is one pass in
document order that checks each value once. A sample line spelled exactly as
the writer spells it is read without JSON decoding: one pattern match yields
its field texts, and each distinct quantity text and each distinct spec or
utilization triple of a document is checked once, then built without
checking again. Samples that repeat a value may therefore share one Decimal,
ResourceSpec or UtilizationSample; object identity is not part of the API.
Any other line, such as one spelling a quantity ``5.0`` or ``-0``, or with
reordered keys or whitespace, is decoded as JSON and checked field by field:
it reads to the same values, each Decimal keeping its spelling, and fails
with the same message.
"""

from __future__ import annotations

import io
import json
import re
from collections.abc import Iterator
from decimal import Decimal
from itertools import chain, islice, starmap

from .environments import env_from_coords
from .errors import FormatError, IntegrityError, ParseError, TraceIOError, ValidationError
from .model import (
    QUANTITY_LIMIT,
    EventKind,
    ResourceSpec,
    Trace,
    TraceEvent,
    TraceHeader,
    UtilizationSample,
    VmSample,
    VmDescriptor,
    _new_descriptor,
    _new_sample,
    _new_spec,
    _new_util,
    as_quantity,
    quantity_text,
)

FORMAT_VERSION = 1
FILE_EXTENSION = ".vmpt.jsonl"

CSV_COLUMNS = ("t", "service", "dc", "vm", "vcpu", "vram", "vnet", "ucpu", "uram", "unet", "revenue", "sla")

_HEADER_KEYS = ("type", "format_version", "environment", "horizon", "num_datacenters", "sla_levels", "seed", "config_digest")
# a scale event also names its dc and vm; other events stop at "service"
_EVENT_KEYS = ("type", "t", "kind", "service", "dc", "vm")
_SAMPLE_KEYS = ("type", *CSV_COLUMNS)
# a sample line is the CSV row's fields, each a JSON number, under their keys
_SAMPLE_LINE = "{{" + ",".join(['"type":"sample"', *(f'"{name}":{{}}' for name in CSV_COLUMNS)]) + "}}"
# matches the lines _SAMPLE_LINE writes, or returns None. Ids take JSON's
# integer spelling with at most 20 digits, quantities quantity_text's spelling
# with an integer part of at most 28 digits and a fraction of at most 40
# ending in a non-zero digit. The groups are t, service, dc, vm, the
# '"vcpu":..,"vram":..,"vnet":..' text and its three quantities, the
# '"ucpu":..,"uram":..,"unet":..' text and its three quantities, revenue and sla.
_ID_TEXT = "(0|[1-9][0-9]{0,19})"
_QUANTITY_TEXT = r"(?:0|[1-9][0-9]{0,27})(?:\.[0-9]{0,39}[1-9])?"


def _fields_pattern(names, value: str) -> str:
    return ",".join(f'"{name}":{value}' for name in names)


_scan_sample = re.compile(
    re.escape('{"type":"sample",')
    + _fields_pattern(CSV_COLUMNS[:4], _ID_TEXT)
    + f",({_fields_pattern(CSV_COLUMNS[4:7], f'({_QUANTITY_TEXT})')})"
    + f",({_fields_pattern(CSV_COLUMNS[7:10], f'({_QUANTITY_TEXT})')})"
    + f',"revenue":({_QUANTITY_TEXT}),"sla":{_ID_TEXT}'
    + re.escape("}")
).fullmatch
# one decoder for every line; json.loads(..., parse_float=Decimal) builds a new one per call
_DECODER = json.JSONDecoder(parse_float=Decimal)


def _object_line(keys, texts) -> str:
    """A JSON object line of the keys in order, each with its value's JSON text; None leaves a key out."""
    return "{" + ",".join(f'"{key}":{text}' for key, text in zip(keys, texts) if text is not None) + "}"


def _header_line(header: TraceHeader) -> str:
    env, digest = header.environment, header.config_digest
    fields = (FORMAT_VERSION, f"[{env.elasticity},{env.overbooking}]", header.horizon, header.num_datacenters, header.sla_levels)
    return _object_line(_HEADER_KEYS, ('"header"', *fields, header.seed, None if digest is None else json.dumps(digest)))


def _event_line(event: TraceEvent) -> str:
    kind = json.dumps(event.kind.value)
    return _object_line(_EVENT_KEYS, ('"event"', event.t, kind, event.service_id, event.dc_id, event.vm_index))


class _Shared(dict):
    """One value per distinct key, made by ``make`` on first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _sample_rows(trace: Trace):
    """Each sample's fields rendered as text, in CSV_COLUMNS order; revenue
    and SLA level come from the sample's descriptor."""
    # rendered once per distinct quantity: exact because the text depends only
    # on the value, and equal Decimals share a key (5 and 5.0 both render
    # "5"). The one exception, -0, is never held by the model, whose
    # quantities go through as_quantity.
    texts = _Shared(quantity_text)
    sla_texts = _Shared(str)
    by_key = trace.descriptor_map()
    for sample in trace.samples:
        desc = by_key.get(sample.vm_key)
        if desc is None:
            raise ValidationError(f"sample references unknown VM {sample.vm_key}")
        spec, util = sample.spec, sample.util
        yield (
            str(sample.t),
            str(sample.service_id),
            str(sample.dc_id),
            str(sample.vm_index),
            texts[spec.vcpu],
            texts[spec.vram],
            texts[spec.vnet],
            texts[util.ucpu],
            texts[util.uram],
            texts[util.unet],
            texts[desc.revenue],
            sla_texts[desc.sla],
        )


def trace_to_lines(trace: Trace) -> Iterator[str]:
    """Canonical document lines, without line terminators: an iterator that
    renders each line as it is asked for."""
    header = _header_line(trace.header)
    return chain((header,), map(_event_line, trace.events), starmap(_SAMPLE_LINE.format, _sample_rows(trace)))


# lines rendered and joined at a time by trace_to_bytes and trace_to_csv_text
_BLOCK_LINES = 1024


def _blocks(lines) -> Iterator[str]:
    """The lines joined into LF-terminated blocks of ``_BLOCK_LINES`` lines."""
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")
        yield "\n".join(block)


def trace_to_bytes(trace: Trace) -> bytes:
    document = io.BytesIO()
    document.writelines(block.encode("utf-8") for block in _blocks(trace_to_lines(trace)))
    return document.getvalue()


def write_trace(trace: Trace, sink) -> int:
    """Write the canonical document to a binary sink, one line per write,
    each as it is rendered; returns bytes written."""
    written = 0
    for line in trace_to_lines(trace):
        data = (line + "\n").encode("utf-8")
        try:
            sink.write(data)
        except OSError as exc:
            raise TraceIOError(f"write failed: {exc}", byte_offset=written) from exc
        written += len(data)
    return written


def write_trace_file(trace: Trace, path) -> int:
    try:
        with open(path, "wb") as sink:
            return write_trace(trace, sink)
    except OSError as exc:
        raise TraceIOError(f"cannot write {path}: {exc}") from exc


def _load_line(line: str, line_number: int) -> dict:
    try:
        if line.startswith("\ufeff"):
            # json.loads refuses a leading BOM before it decodes; JSONDecoder.decode does not check
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        value = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON ({exc.msg})", line_number) from None
    except ValueError as exc:
        # int() refuses a literal past sys.get_int_max_str_digits()
        raise ParseError(f"integer literal too long ({exc})", line_number) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply to decode", line_number) from None
    if not isinstance(value, dict):
        raise ParseError(f"expected a JSON object, got {type(value).__name__}", line_number)
    return value


def _field_int(obj: dict, key: str, line_number: int) -> int:
    value = obj.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"field {key!r} must be an integer, got {value!r}", line_number)
    return value


def _field_quantity(obj: dict, key: str, line_number: int) -> Decimal | int:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise ParseError(f"field {key!r} must be a number, got {value!r}", line_number)
    return value


def _check_keys(obj: dict, allowed: tuple[str, ...], required: tuple[str, ...], line_number: int) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ParseError(f"unknown field(s): {', '.join(unknown)}", line_number)
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ParseError(f"missing field(s): {', '.join(missing)}", line_number)


def _parse_header(obj: dict, line_number: int) -> TraceHeader:
    # seed and config_digest may be absent
    _check_keys(obj, _HEADER_KEYS, _HEADER_KEYS[:6], line_number)
    version = _field_int(obj, "format_version", line_number)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}; this reader handles {FORMAT_VERSION}", line_number)
    env_value = obj["environment"]
    if not isinstance(env_value, list) or len(env_value) != 2:
        raise ParseError(f"environment must be a [elasticity, overbooking] pair, got {env_value!r}", line_number)
    try:
        environment = env_from_coords(env_value[0], env_value[1])
        return TraceHeader(
            environment=environment,
            horizon=_field_int(obj, "horizon", line_number),
            num_datacenters=_field_int(obj, "num_datacenters", line_number),
            sla_levels=_field_int(obj, "sla_levels", line_number),
            seed=_field_int(obj, "seed", line_number) if "seed" in obj else None,
            config_digest=obj.get("config_digest"),
        )
    except ValidationError as exc:
        raise ParseError(str(exc), line_number) from None


def _parse_event(obj: dict, line_number: int) -> TraceEvent:
    kind_value = obj.get("kind")
    try:
        kind = EventKind(kind_value)
    except ValueError:
        known = ", ".join(k.value for k in EventKind)
        raise ParseError(f"unknown event kind {kind_value!r}; expected one of: {known}", line_number) from None
    required = _EVENT_KEYS if kind.is_scale else _EVENT_KEYS[:4]
    _check_keys(obj, required, required, line_number)
    try:
        return TraceEvent(
            t=_field_int(obj, "t", line_number),
            kind=kind,
            service_id=_field_int(obj, "service", line_number),
            dc_id=_field_int(obj, "dc", line_number) if kind.is_scale else None,
            vm_index=_field_int(obj, "vm", line_number) if kind.is_scale else None,
        )
    except ValidationError as exc:
        raise ParseError(str(exc), line_number) from None


def _parse_sample(obj: dict, line_number: int) -> tuple[VmSample, Decimal | int, int]:
    """A decoded sample line's VmSample, revenue and SLA level, checked field by field."""
    _check_keys(obj, _SAMPLE_KEYS, _SAMPLE_KEYS, line_number)
    try:
        sample = VmSample(
            service_id=_field_int(obj, "service", line_number),
            dc_id=_field_int(obj, "dc", line_number),
            vm_index=_field_int(obj, "vm", line_number),
            t=_field_int(obj, "t", line_number),
            spec=ResourceSpec(
                vcpu=_field_quantity(obj, "vcpu", line_number),
                vram=_field_quantity(obj, "vram", line_number),
                vnet=_field_quantity(obj, "vnet", line_number),
            ),
            util=UtilizationSample(
                ucpu=_field_quantity(obj, "ucpu", line_number),
                uram=_field_quantity(obj, "uram", line_number),
                unet=_field_quantity(obj, "unet", line_number),
            ),
        )
        revenue = _field_quantity(obj, "revenue", line_number)
        sla = _field_int(obj, "sla", line_number)
        # a revenue outside the quantity domain is refused on its own line; a
        # negative one is refused per VM, after the revenues of its samples are compared
        if revenue >= 0:
            as_quantity(revenue)
    except ValidationError as exc:
        raise ParseError(str(exc), line_number) from None
    return sample, revenue, sla


_TEXT_OR_BYTES = (str, bytes, bytearray, memoryview)


def _source_text(source) -> str:
    if not isinstance(source, _TEXT_OR_BYTES):
        if not hasattr(source, "read"):
            raise FormatError(f"cannot read a trace from {type(source).__name__}: expected bytes, text or a stream")
        try:
            source = source.read()
        except OSError as exc:
            raise TraceIOError(f"read failed: {exc}") from exc
        if not isinstance(source, _TEXT_OR_BYTES):
            raise FormatError(f"stream read gave {type(source).__name__}, expected bytes or text")
    if isinstance(source, str):
        return source
    if isinstance(source, memoryview) and not source.c_contiguous:
        source = source.tobytes()
    try:
        return str(source, "utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"document is not valid UTF-8: {exc}") from None


def _lines(text: str):
    """The lines ``text.split("\\n")`` gives, without a final empty one, one
    at a time: no list of them is ever held."""
    start = 0
    end = text.find("\n")
    while end >= 0:
        yield text[start:end]
        start = end + 1
        end = text.find("\n", start)
    if start < len(text):
        yield text[start:]


def read_trace(source) -> Trace:
    """Parse a trace document from bytes, a bytearray or memoryview, text,
    or a file-like object.

    The header must be the first line; event and sample lines may follow in
    any order. Contradictions between samples and lifecycle events (samples
    at or past a VM's end, inconsistent revenue or SLA within one VM,
    duplicate lifecycle events) raise IntegrityError.
    """
    text = _source_text(source)
    # the decoded text is all that is read from here on; the source's bytes
    # are freed now if the caller holds them no longer
    del source
    lines = _lines(text)
    first_line = next(lines, None)
    if first_line is None:
        raise FormatError("empty document: expected a header line")
    if first_line == "":
        raise ParseError("blank line", 1)
    first = _load_line(first_line, 1)
    if first.get("type") != "header":
        raise FormatError(f"first line must be the header, got type {first.get('type')!r}")
    header = _parse_header(first, 1)

    events: list[TraceEvent] = []
    samples: list[VmSample] = []
    # per VM: its lowest and highest tick and its first sample's revenue and
    # SLA; and the revenues and SLAs of later samples that differ from those
    vms: dict[tuple[int, int, int], list] = {}
    conflicts: dict[tuple[int, int, int], tuple[list, list]] = {}
    # one checked Decimal per distinct quantity text, one ResourceSpec or
    # UtilizationSample per distinct text of three quantities
    quantities = _Shared(lambda text: as_quantity(Decimal(text)))
    specs: dict[str, ResourceSpec] = {}
    utils: dict[str, UtilizationSample] = {}
    # sample keys strictly increase through a canonical document, so none can
    # repeat there; from the first key at or below its predecessor on, each
    # key is checked against the set of keys seen
    previous: tuple = ()
    seen = None
    for index, line in enumerate(lines, start=2):
        match = _scan_sample(line)
        if match is not None:
            t, service, dc, vm, spec_text, vcpu, vram, vnet, util_text, ucpu, uram, unet, revenue, sla = match.groups()
            # checked in _parse_sample's order: spec, utilization, ids, revenue
            try:
                spec = specs.get(spec_text)
                if spec is None:
                    spec = specs[spec_text] = _new_spec(quantities[vcpu], quantities[vram], quantities[vnet])
                util = utils.get(util_text)
                if util is None:
                    util = utils[util_text] = _new_util(quantities[ucpu], quantities[uram], quantities[unet])
                t, service, dc, vm = int(t), int(service), int(dc), int(vm)
                # the pattern admits no negative id; VmSample refuses a 0 with its own message
                sample = (_new_sample if service and dc and vm else VmSample)(service, dc, vm, t, spec, util)
                revenue = quantities[revenue]
            except ValidationError as exc:
                raise ParseError(str(exc), index) from None
            sla = int(sla)
        elif line == "":
            raise ParseError("blank line", index)
        else:
            obj = _load_line(line, index)
            line_type = obj.get("type")
            if line_type == "header":
                raise ParseError("duplicate header line", index)
            if line_type == "event":
                events.append(_parse_event(obj, index))
                continue
            if line_type != "sample":
                raise ParseError(f"unknown line type {line_type!r}", index)
            sample, revenue, sla = _parse_sample(obj, index)
            t, service, dc, vm = sample.t, sample.service_id, sample.dc_id, sample.vm_index
        key = (t, service, dc, vm)
        if seen is None and previous < key:
            previous = key
        else:
            if seen is None:
                seen = {sample.sort_key for sample in samples}
            if key in seen:
                raise IntegrityError(f"duplicate sample for VM {sample.vm_key} at t={t} (line {index})")
            seen.add(key)
        samples.append(sample)
        vm_key = (service, dc, vm)
        state = vms.get(vm_key)
        if state is None:
            vms[vm_key] = [t, t, revenue, sla]
            continue
        if t < state[0]:
            state[0] = t
        elif t > state[1]:
            state[1] = t
        # equal quantity texts share one Decimal, so identity settles most
        # revenues; of two equal zeros, one may still be spelled -0
        known = state[2]
        if revenue is not known and (revenue != known or (not revenue and _revenue_text(revenue) != _revenue_text(known))):
            conflicts.setdefault(vm_key, ([], []))[0].append(revenue)
        if sla != state[3]:
            conflicts.setdefault(vm_key, ([], []))[1].append(sla)

    # the document text and the per-document tables are done with; freed
    # here, they make room for the descriptors instead of adding to the peak
    del text, lines, quantities, specs, utils
    descriptors = _reconstruct_descriptors(events, vms, conflicts)
    return Trace(header=header, descriptors=tuple(descriptors), events=tuple(events), samples=tuple(samples))


def _unique_event_map(events: list[TraceEvent], kind: EventKind, label: str) -> dict:
    mapping: dict = {}
    for event in events:
        if event.kind is not kind:
            continue
        key = event.service_id if not kind.is_scale else (event.service_id, event.dc_id, event.vm_index)
        if key in mapping:
            raise IntegrityError(f"multiple {label} events for {key}")
        mapping[key] = event.t
    return mapping


def _reconstruct_descriptors(events: list[TraceEvent], vms: dict, conflicts: dict) -> list[VmDescriptor]:
    arrivals = _unique_event_map(events, EventKind.SERVICE_ARRIVAL, "arrival")
    departures = _unique_event_map(events, EventKind.SERVICE_DEPARTURE, "departure")
    scale_outs = _unique_event_map(events, EventKind.VM_SCALE_OUT, "scale-out")
    scale_ins = _unique_event_map(events, EventKind.VM_SCALE_IN, "scale-in")

    descriptors = []
    for key in sorted(vms):
        t_min, t_max, revenue, sla = vms[key]
        revenues, slas = conflicts.get(key, ((), ()))
        if revenues:
            texts = {_revenue_text(revenue), *map(_revenue_text, revenues)}
            raise IntegrityError(f"VM {key} has inconsistent revenue values: {sorted(texts)}")
        if slas:
            raise IntegrityError(f"VM {key} has inconsistent sla values: {sorted({sla, *slas})}")
        service_id = key[0]
        t_init = scale_outs.get(key, arrivals.get(service_id, t_min))
        t_end = scale_ins.get(key, departures.get(service_id, t_max + 1))
        if t_min < t_init:
            raise IntegrityError(f"VM {key} has a sample at t={t_min} before its start at t={t_init}")
        if t_max >= t_end:
            raise IntegrityError(f"VM {key} has a sample at t={t_max} at or past its end at t={t_end}")
        # ids, ticks and a positive Decimal revenue are checked by now; other revenues and SLAs go through the constructor
        build = _new_descriptor if type(revenue) is Decimal and revenue > 0 and sla >= 1 else VmDescriptor
        try:
            descriptors.append(build(service_id, key[1], key[2], revenue, sla, t_init, t_end))
        except ValidationError as exc:
            raise IntegrityError(f"VM {key}: {exc}") from None
    return descriptors


def _revenue_text(revenue: Decimal | int) -> str:
    # only a negative revenue, which is refused anyway, can lie outside the
    # quantity domain; one whose size reaches 10**28 keeps its own spelling,
    # which stays short where plain digits would not
    try:
        normalized = Decimal(revenue).normalize()
    except ArithmeticError:
        return str(revenue)
    if normalized.is_finite() and abs(normalized) >= QUANTITY_LIMIT:
        return str(revenue)
    return quantity_text(normalized)


def read_trace_file(path) -> Trace:
    try:
        with open(path, "rb") as source:
            return read_trace(source.read())
    except OSError as exc:
        raise TraceIOError(f"cannot read {path}: {exc}") from exc


def trace_to_csv_text(trace: Trace) -> str:
    """Lossy spreadsheet export: canonical sample rows only, no header or
    event information."""
    return "".join(_blocks(chain((",".join(CSV_COLUMNS),), map(",".join, _sample_rows(trace)))))


def dump_json(value, indent: int | None = None) -> str:
    """Deterministic JSON text for report and stats documents.

    Dict keys keep insertion order; Decimals render exactly with their
    stored precision (so a ratio quantized to 4 places keeps 4 places).
    """
    if isinstance(value, dict):
        colon = ":" if indent is None else ": "
        items = [_json_key(key) + colon + dump_json(entry, indent) for key, entry in value.items()]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [dump_json(item, indent) for item in value]
        brackets = "[]"
    elif isinstance(value, (str, bool)) or value is None:
        return json.dumps(value)
    elif isinstance(value, int):
        return str(value)
    elif isinstance(value, Decimal):
        return format(value, "f")
    else:
        raise FormatError(f"cannot serialize {type(value).__name__} to JSON")
    if indent is None or not items:
        return brackets[0] + ",".join(items) + brackets[1]
    # json.dumps escapes a newline inside a string, so a rendered item's raw
    # newlines separate its own lines, each indented once more one level down
    pad = "\n" + " " * indent
    return brackets[0] + pad + ",\n".join(items).replace("\n", pad) + "\n" + brackets[1]


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise FormatError(f"JSON object keys must be strings, got {key!r}")
    return json.dumps(key)
