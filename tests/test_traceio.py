from __future__ import annotations

import dataclasses
import io
import json
import random
import re
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from vmptrace import traceio
from vmptrace.environments import env_from_coords
from vmptrace.errors import FormatError, IntegrityError, ParseError, TraceIOError, ValidationError, VmpTraceError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import GeneratorConfig, VerticalPolicy, generate
from vmptrace.model import (
    EventKind,
    ResourceSpec,
    UtilizationSample,
    Trace,
    TraceEvent,
    TraceHeader,
    VmDescriptor,
    VmSample,
    as_quantity,
    full_utilization,
)
from vmptrace.traceio import (
    CSV_COLUMNS,
    FILE_EXTENSION,
    canonicalize,
    dump_json,
    read_trace,
    read_trace_file,
    trace_to_bytes,
    trace_to_csv_text,
    write_trace,
    write_trace_file,
)

EXPECTED_HEADER = (
    '{"type":"header","format_version":1,"environment":[0,1],'
    '"horizon":6,"num_datacenters":2,"sla_levels":1}'
)


def _doc_lines(trace: Trace) -> list[str]:
    return trace_to_bytes(trace).decode("utf-8").splitlines()


def _doc_from_lines(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_document_layout():
    trace = fixture_trace(FixtureId.ENV_0_1)
    raw = trace_to_bytes(trace)
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == EXPECTED_HEADER
    assert lines[1] == '{"type":"event","t":0,"kind":"service_arrival","service":1}'
    # one header, two events, one sample per VM per alive tick
    assert len(lines) == 1 + 2 + 16
    assert any('"ucpu":12' in line for line in lines)
    for line in lines:
        parsed = json.loads(line)
        assert parsed["type"] in ("header", "event", "sample")
        assert ", " not in line and ": " not in line


def test_scale_events_serialize_with_their_vm_identity():
    import dataclasses

    config = dataclasses.replace(
        GeneratorConfig(env_from_coords(1, 0), seed=3, horizon=10),
        horizontal_policy=dataclasses.replace(
            GeneratorConfig(env_from_coords(1, 0)).horizontal_policy, p_scale=1.0
        ),
    )
    lines = _doc_lines(generate(config))
    scale_lines = [line for line in lines if '"kind":"vm_scale_' in line]
    assert scale_lines, "expected scale events at p_scale=1"
    for line in scale_lines:
        record = json.loads(line)
        assert set(record) == {"type", "t", "kind", "service", "dc", "vm"}


_BIG = 2**64


@st.composite
def _headers(draw):
    return TraceHeader(
        env_from_coords(draw(st.integers(0, 3)), draw(st.integers(0, 3))),
        horizon=draw(st.integers(0, _BIG)),
        num_datacenters=draw(st.integers(1, _BIG)),
        sla_levels=draw(st.integers(1, _BIG)),
        seed=draw(st.sampled_from([None, 0, _BIG - 1])),
        config_digest=draw(st.none() | st.text("0123456789abcdef", min_size=64, max_size=64)),
    )


@st.composite
def _events(draw):
    kind = draw(st.sampled_from(EventKind))
    vm_identity = st.integers(1, _BIG) if kind.is_scale else st.none()
    return TraceEvent(draw(st.integers(0, _BIG)), kind, draw(st.integers(1, _BIG)), draw(vm_identity), draw(vm_identity))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_headers(), _events())
def test_header_and_event_lines_hold_their_present_fields_in_table_order(header, event):
    env = header.environment
    header_fields = {
        "type": "header",
        "format_version": 1,
        "environment": [env.elasticity, env.overbooking],
        "horizon": header.horizon,
        "num_datacenters": header.num_datacenters,
        "sla_levels": header.sla_levels,
        "seed": header.seed,
        "config_digest": header.config_digest,
    }
    event_fields = {
        "type": "event",
        "t": event.t,
        "kind": event.kind.value,
        "service": event.service_id,
        "dc": event.dc_id,
        "vm": event.vm_index,
    }
    lines = _doc_lines(Trace(header, (), (event,), ()))
    assert len(lines) == 2
    for line, fields in zip(lines, (header_fields, event_fields)):
        present = {key: value for key, value in fields.items() if value is not None}
        assert list(json.loads(line)) == list(present)
        assert json.loads(line) == present
    assert read_trace(lines[0] + "\n") == Trace(header)
    assert read_trace("\n".join(lines) + "\n").events == (event,)


def test_write_trace_reports_the_byte_count():
    trace = fixture_trace(FixtureId.ENV_0_2)
    sink = io.BytesIO()
    count = write_trace(trace, sink)
    assert count == len(sink.getvalue())
    assert sink.getvalue() == trace_to_bytes(trace)


def test_fixture_round_trips_are_identities():
    for fixture in FixtureId:
        trace = fixture_trace(fixture)
        assert read_trace(trace_to_bytes(trace)) == trace
        document = trace_to_bytes(trace)
        assert trace_to_bytes(read_trace(document)) == document


def test_generated_trace_round_trips():
    trace = generate(
        GeneratorConfig(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True)
    )
    assert read_trace(trace_to_bytes(trace)) == trace


def test_read_accepts_text_sources_and_streams():
    trace = fixture_trace(FixtureId.ENV_1_0)
    raw = trace_to_bytes(trace)
    assert read_trace(raw.decode("utf-8")) == trace
    assert read_trace(io.BytesIO(raw)) == trace


def test_writer_refuses_a_sample_of_an_unknown_vm():
    trace = fixture_trace(FixtureId.ENV_0_1)
    orphaned = dataclasses.replace(trace, descriptors=trace.descriptors[1:])
    with pytest.raises(ValidationError, match=re.escape("sample references unknown VM (1, 1, 1)")):
        trace_to_bytes(orphaned)


def test_a_failing_sink_reports_the_byte_offset_reached():
    class FailingSink:
        writes = 0

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("disk full")

    with pytest.raises(TraceIOError) as excinfo:
        write_trace(fixture_trace(FixtureId.ENV_0_1), FailingSink())
    assert str(excinfo.value).endswith("(at byte offset 164)")
    assert excinfo.value.byte_offset == 164


def test_read_accepts_bytearray_and_memoryview_sources():
    trace = fixture_trace(FixtureId.ENV_1_0)
    raw = trace_to_bytes(trace)
    assert read_trace(bytearray(raw)) == trace
    assert read_trace(memoryview(raw)) == trace
    # a strided view is read as the bytes it shows
    assert read_trace(memoryview(bytes(byte for pair in zip(raw, raw) for byte in pair))[::2]) == trace
    with pytest.raises(FormatError, match="not valid UTF-8"):
        read_trace(memoryview(b"\xff" + raw))


@pytest.mark.parametrize("source, name", [(123, "int"), (None, "NoneType"), ([b"{}"], "list")])
def test_a_source_that_is_not_bytes_text_or_a_stream_is_a_format_error_naming_its_type(source, name):
    with pytest.raises(FormatError) as excinfo:
        read_trace(source)
    assert str(excinfo.value) == f"cannot read a trace from {name}: expected bytes, text or a stream"


def test_a_stream_that_reads_neither_bytes_nor_text_is_a_format_error():
    class Odd:
        def read(self):
            return 42

    with pytest.raises(FormatError, match="stream read gave int, expected bytes or text"):
        read_trace(Odd())


@settings(derandomize=True, database=None, max_examples=400)
@given(st.text(alphabet=["\n", "\r", "a", "\u00e9"], max_size=30))
def test_the_reader_walks_the_lines_split_gives(text):
    expected = text.split("\n")
    if expected[-1] == "":
        expected.pop()
    assert list(traceio._lines(text)) == expected


@pytest.mark.parametrize(
    "document, error, message",
    [
        ("", FormatError, "empty document: expected a header line"),
        ("\n", ParseError, "line 1: blank line"),
        ("\n\n", ParseError, "line 1: blank line"),
    ],
)
def test_an_empty_or_blank_document_is_refused_as_before(document, error, message):
    with pytest.raises(error) as excinfo:
        read_trace(document)
    assert type(excinfo.value) is error and str(excinfo.value) == message


def test_a_header_without_a_final_newline_reads():
    header = TraceHeader(env_from_coords(0, 0), horizon=3, num_datacenters=1)
    document = trace_to_bytes(Trace(header, (), (), ()))
    assert read_trace(document.rstrip(b"\n")) == read_trace(document)
    # and a last body line without one
    full = trace_to_bytes(fixture_trace(FixtureId.ENV_0_1))
    assert read_trace(full.rstrip(b"\n")) == read_trace(full)


def test_a_blank_last_body_line_is_located():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines([*lines, ""]))
    assert str(excinfo.value) == f"line {len(lines) + 1}: blank line"
    assert excinfo.value.line_number == len(lines) + 1


class _SinkFailingAt:
    """A binary sink whose ``fail_at``-th write raises OSError."""

    def __init__(self, fail_at):
        self.fail_at, self.writes, self.data = fail_at, 0, bytearray()

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("disk full")
        self.data += data


def test_a_streamed_write_reports_the_bytes_already_written():
    trace = generate(GeneratorConfig(env_from_coords(1, 3), seed=3, horizon=400, guarantee_dynamics=True))
    document = trace_to_bytes(trace)
    events, samples = len(trace.events), len(trace.samples)
    assert events >= 2 and samples > traceio._BLOCK_LINES + 10
    complete = _SinkFailingAt(None)
    assert write_trace(trace, complete) == len(document)
    assert bytes(complete.data) == document
    # the header line, an event line, and a sample line past the first block
    for fail_at in (1, 2, 1 + events, 2 + events + traceio._BLOCK_LINES + 5):
        sink = _SinkFailingAt(fail_at)
        with pytest.raises(TraceIOError) as excinfo:
            write_trace(trace, sink)
        written = b"".join(line + b"\n" for line in document.split(b"\n")[: fail_at - 1])
        assert bytes(sink.data) == written
        assert excinfo.value.byte_offset == len(written)
        assert str(excinfo.value) == f"write failed: disk full (at byte offset {len(written)})"


@pytest.mark.parametrize(
    "index, old, new, message",
    [
        (0, '"horizon":6', '"horizon":-1', "line 1: horizon must be an integer >= 0, got -1"),
        (0, '"environment":[0,1]', '"environment":[0,4]', "line 1: overbooking coordinate must be an integer in 0..3, got 4"),
        (0, '"environment":[0,1]', '"environment":[0]', "line 1: environment must be a [elasticity, overbooking] pair, got [0]"),
        (1, '"t":0', '"t":-1', "line 2: t must be an integer >= 0, got -1"),
        (1, "", "", "line 2: blank line"),
    ],
)
def test_an_out_of_range_header_or_event_field_is_a_located_parse_error(index, old, new, message):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[index] = lines[index].replace(old, new, 1) if old else new
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines(lines))
    assert str(excinfo.value) == message


def test_header_only_document():
    header = TraceHeader(env_from_coords(0, 0), horizon=3, num_datacenters=1)
    trace = Trace(header, (), (), ())
    lines = _doc_lines(trace)
    assert len(lines) == 1
    assert read_trace(trace_to_bytes(trace)) == trace


def test_blank_first_line_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    with pytest.raises(ParseError, match="line 1"):
        read_trace(_doc_from_lines([""] + lines))


def test_document_must_start_with_a_header():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    with pytest.raises(FormatError):
        read_trace(_doc_from_lines(lines[1:]))


def test_duplicate_header_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    with pytest.raises(ParseError, match="line 2"):
        read_trace(_doc_from_lines([lines[0], lines[0]] + lines[1:]))


def test_malformed_json_reports_its_line_number():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[2] = '{"type":'
    with pytest.raises(ParseError, match="line 3"):
        read_trace(_doc_from_lines(lines))


def test_byte_order_mark_keeps_the_json_loads_message():
    # the reader shares one JSONDecoder, whose decode() skips the BOM check
    # json.loads makes; the message must stay the one json.loads gave
    raw = trace_to_bytes(fixture_trace(FixtureId.ENV_0_1))
    expected = "line 1: malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"
    with pytest.raises(ParseError) as excinfo:
        read_trace(b"\xef\xbb\xbf" + raw)
    assert str(excinfo.value) == expected
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[3] = "\ufeff" + lines[3]
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines(lines))
    assert str(excinfo.value) == expected.replace("line 1", "line 4")


def test_reader_reorders_shuffled_event_and_sample_lines():
    canonical = trace_to_bytes(
        generate(GeneratorConfig(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True))
    )
    header, *body = canonical.decode("utf-8").splitlines()
    assert any('"type":"event"' in line for line in body)
    for seed in range(3):
        shuffled_body = list(body)
        random.Random(seed).shuffle(shuffled_body)
        assert shuffled_body != body
        shuffled = _doc_from_lines([header, *shuffled_body])
        assert read_trace(shuffled) == read_trace(canonical)
        assert trace_to_bytes(read_trace(shuffled)) == canonical


def test_unknown_record_type_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines.append('{"type":"banana"}')
    with pytest.raises(ParseError):
        read_trace(_doc_from_lines(lines))


def test_unsupported_format_version_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[0] = lines[0].replace('"format_version":1', '"format_version":2')
    with pytest.raises(ParseError):
        read_trace(_doc_from_lines(lines))


def test_unknown_header_field_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[0] = lines[0][:-1] + ',"extra":1}'
    with pytest.raises(ParseError):
        read_trace(_doc_from_lines(lines))


def test_event_missing_a_required_field_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines.insert(1, '{"type":"event","kind":"service_arrival","service":3}')
    with pytest.raises(ParseError, match="line 2"):
        read_trace(_doc_from_lines(lines))


def test_scale_event_requires_vm_identity():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines.insert(2, '{"type":"event","t":1,"kind":"vm_scale_out","service":1}')
    with pytest.raises(ParseError):
        read_trace(_doc_from_lines(lines))


def test_duplicate_sample_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    sample_line = next(line for line in lines if '"type":"sample"' in line)
    with pytest.raises(IntegrityError):
        read_trace(_doc_from_lines(lines + [sample_line]))


def test_sample_past_the_departure_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    last = next(line for line in lines if '"t":3' in line and '"type":"sample"' in line)
    lines.append(last.replace('"t":3', '"t":4'))
    with pytest.raises(IntegrityError):
        read_trace(_doc_from_lines(lines))


def test_sample_before_the_arrival_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_1_0))
    early = next(
        line for line in lines if '"service":2' in line and '"type":"sample"' in line
    )
    lines.append(early.replace('"t":2', '"t":1'))
    with pytest.raises(IntegrityError):
        read_trace(_doc_from_lines(lines))


def test_conflicting_revenue_between_samples_is_rejected():
    # lines[3] is VM (1,1,1) at t=0; its later samples keep revenue 0
    # -1e28 is past what quantity_text renders, so it keeps its own spelling
    cases = (("1", "['0', '1']"), ("-0.0", "['-0', '0']"), ("0.5", "['0', '0.5']"), ("-1e28", "['-1E+28', '0']"))
    for spelling, texts in cases:
        lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
        lines[3] = lines[3].replace('"revenue":0', f'"revenue":{spelling}')
        with pytest.raises(IntegrityError) as excinfo:
            read_trace(_doc_from_lines(lines))
        assert str(excinfo.value) == f"VM (1, 1, 1) has inconsistent revenue values: {texts}"


def test_equal_revenues_in_different_spellings_agree():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    vm_lines = [i for i, line in enumerate(lines) if '"dc":1,"vm":1,' in line]
    for position, i in enumerate(vm_lines):
        lines[i] = lines[i].replace('"revenue":0', '"revenue":5.0' if position == 1 else '"revenue":5')
    trace = read_trace(_doc_from_lines(lines))
    assert trace.descriptor_map()[(1, 1, 1)].revenue == Decimal(5)


def test_descriptor_revenues_and_slas_the_reader_has_not_checked_go_through_the_constructor():
    # a space after the colon sends a line past the canonical pattern, so its
    # revenue is decoded as written: the int 5, or a -0 the constructor makes 0
    for spelling, expected in (("5", "Decimal('5')"), ("-0", "Decimal('0')"), ("0.0", "Decimal('0')"), ("2.50", "Decimal('2.50')")):
        lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
        vm_lines = [i for i, line in enumerate(lines) if '"dc":1,"vm":1,' in line]
        for i in vm_lines:
            lines[i] = lines[i].replace('"revenue":0', f'"revenue": {spelling}')
        revenue = read_trace(_doc_from_lines(lines)).descriptor_map()[(1, 1, 1)].revenue
        assert repr(revenue) == expected, spelling
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    # a positive revenue, so only the SLA sends the descriptor through the constructor
    for i, line in enumerate(lines):
        if '"dc":1,"vm":1,' in line:
            lines[i] = line.replace('"revenue":0', '"revenue":5').replace('"sla":1', '"sla":0')
    with pytest.raises(IntegrityError, match=r"^VM \(1, 1, 1\): sla must be an integer >= 1, got 0$"):
        read_trace(_doc_from_lines(lines))


def test_repeated_scale_out_for_one_vm_is_rejected():
    lines = _doc_lines(fixture_trace(FixtureId.ENV_1_0))
    extra = '{"type":"event","t":3,"kind":"vm_scale_out","service":2,"dc":1,"vm":3}'
    with pytest.raises(IntegrityError):
        read_trace(_doc_from_lines(lines[:1] + [extra, extra] + lines[1:]))


def test_canonicalize_orders_events_and_samples():
    trace = fixture_trace(FixtureId.ENV_1_0)
    shuffler = random.Random(0)
    events = list(trace.events)
    samples = list(trace.samples)
    descriptors = list(trace.descriptors)
    shuffler.shuffle(events)
    shuffler.shuffle(samples)
    shuffler.shuffle(descriptors)
    scrambled = Trace(trace.header, tuple(descriptors), tuple(events), tuple(samples))
    assert canonicalize(scrambled) == canonicalize(trace)
    assert canonicalize(trace) == trace
    # a trace already in canonical order is not sorted again; one out of order
    # in any single part is
    assert canonicalize(trace) is trace
    for part in (dict(descriptors=tuple(descriptors)), dict(events=tuple(events)), dict(samples=tuple(samples))):
        assert canonicalize(dataclasses.replace(trace, **part)) == trace


def test_decimal_quantities_render_in_shortest_exact_form():
    header = TraceHeader(env_from_coords(0, 0), horizon=1, num_datacenters=1)
    spec = ResourceSpec(Decimal("12.50"), Decimal("1E+1"), 3)
    descriptor = VmDescriptor(1, 1, 1, revenue="1.25", sla=1, t_init=0, t_end=1)
    sample = VmSample(1, 1, 1, 0, spec, full_utilization(spec))
    trace = Trace(header, (descriptor,), (), (sample,))
    text = trace_to_bytes(trace).decode("utf-8")
    assert '"vcpu":12.5' in text
    assert '"vram":10' in text
    assert '"revenue":1.25' in text
    recovered = read_trace(trace_to_bytes(trace))
    assert recovered.samples[0].spec.vcpu == Decimal("12.5")
    assert recovered.samples[0].spec.vram == Decimal(10)


def test_csv_export_lists_samples_in_canonical_order():
    trace = fixture_trace(FixtureId.ENV_0_1)
    text = trace_to_csv_text(trace)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == "t,service,dc,vm,vcpu,vram,vnet,ucpu,uram,unet,revenue,sla"
    assert lines[1] == "0,1,1,1,8,16,150,8,16,150,0,1"
    assert len(lines) == 1 + len(trace.samples)


def test_file_round_trip(tmp_path):
    assert FILE_EXTENSION == ".vmpt.jsonl"
    trace = generate(GeneratorConfig(env_from_coords(2, 1), seed=11, horizon=8))
    path = tmp_path / ("example" + FILE_EXTENSION)
    write_trace_file(trace, path)
    assert read_trace_file(path) == trace


def test_dump_json_renders_decimals_and_preserves_order():
    value = {"b": Decimal("1.0000"), "a": 1, "nested": [Decimal("2.5"), "x", None, True]}
    assert dump_json(value) == '{"b":1.0000,"a":1,"nested":[2.5,"x",null,true]}'
    pretty = dump_json(value, indent=2)
    assert pretty.startswith('{\n  "b": 1.0000,')
    assert json.loads(pretty) == {"b": 1.0, "a": 1, "nested": [2.5, "x", None, True]}


# Decimal-free JSON values: there dump_json must spell what json.dumps spells
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(value=_JSON_VALUES, indent=st.sampled_from([None, 0, 2]))
def test_dump_json_matches_json_dumps_without_decimals(value, indent):
    separators = (",", ":") if indent is None else (",", ": ")
    assert dump_json(value, indent) == json.dumps(value, indent=indent, separators=separators)


@pytest.mark.parametrize("text", ["1E+2", "0.00", "-0"])
def test_dump_json_renders_a_decimal_in_fixed_point(text):
    value = Decimal(text)
    assert dump_json([value], indent=2) == "[\n  " + format(value, "f") + "\n]"


@pytest.mark.parametrize(
    "value, message",
    [
        ({"a": [], 1: 2}, "JSON object keys must be strings, got 1"),
        ({"a": [1.5]}, "cannot serialize float to JSON"),
    ],
)
def test_dump_json_refuses_what_it_cannot_spell(value, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        dump_json(value)


def test_writers_render_each_distinct_quantity_once(monkeypatch):
    trace = generate(GeneratorConfig(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True))
    distinct = {
        quantity
        for sample in trace.samples
        for quantity in (*dataclasses.astuple(sample.spec), *dataclasses.astuple(sample.util))
    } | {descriptor.revenue for descriptor in trace.descriptors}
    rendered = []
    quantity_text = traceio.quantity_text

    def counting_quantity_text(value):
        rendered.append(value)
        return quantity_text(value)

    expected_bytes, expected_csv = trace_to_bytes(trace), trace_to_csv_text(trace)
    monkeypatch.setattr(traceio, "quantity_text", counting_quantity_text)
    assert trace_to_bytes(trace) == expected_bytes
    assert sorted(rendered) == sorted(distinct)
    rendered.clear()
    assert trace_to_csv_text(trace) == expected_csv
    assert len(rendered) == len(distinct)


def test_reader_checks_each_distinct_quantity_and_triple_once(monkeypatch):
    trace = generate(GeneratorConfig(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True))
    document = trace_to_bytes(trace)
    rows = [
        json.loads(line, parse_int=str, parse_float=str)
        for line in document.decode("utf-8").splitlines()
        if '"type":"sample"' in line
    ]
    texts = {row[name] for row in rows for name in CSV_COLUMNS[4:11]}
    spec_triples = {(row["vcpu"], row["vram"], row["vnet"]) for row in rows}
    util_triples = {(row["ucpu"], row["uram"], row["unet"]) for row in rows}
    assert len(spec_triples) < len(rows) and len(util_triples) < len(rows)
    # each value is checked once, then built without checking again: the
    # model constructors, which would check it a second time, are not called
    names = ("as_quantity", "_new_spec", "_new_util", "_new_sample", "_new_descriptor")
    checking = ("ResourceSpec", "UtilizationSample", "VmSample", "VmDescriptor")
    built = {name: [] for name in names + checking}
    for name in names + checking:
        def counting(*args, name=name, real=getattr(traceio, name)):
            built[name].append(args)
            return real(*args)

        monkeypatch.setattr(traceio, name, counting)
    assert repr(read_trace(document)) == repr(trace)
    assert sorted(value for (value,) in built["as_quantity"]) == sorted(map(Decimal, texts))
    assert len(built["_new_spec"]) == len(spec_triples)
    assert len(built["_new_util"]) == len(util_triples)
    assert len(built["_new_sample"]) == len(rows)
    # every revenue is positive, so each descriptor is built from fields already checked
    assert len(built["_new_descriptor"]) == len(trace.descriptors)
    assert not any(built[name] for name in checking)


def test_reader_keeps_each_decimal_spelling():
    # 5 and 5.0 are equal but stats and reports print them as stored
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[4] = lines[4].replace('"vcpu":5,', '"vcpu":5.0,')
    lines[5] = lines[5].replace('"vcpu":5,', '"vcpu":5.00,')
    trace = read_trace(_doc_from_lines(lines))
    spellings = [str(sample.spec.vcpu) for sample in trace.samples[:4]]
    assert spellings == ["8", "5.0", "5.00", "9"]


# one value per way quantity_text used to fail: an overflow, two past 28 digits, an underflow to 0
OUT_OF_DOMAIN = ["1e999999999", "1e28", str(10**30 + 1), "1e-999999999"]


@pytest.mark.parametrize("literal", OUT_OF_DOMAIN)
@pytest.mark.parametrize("field", ["vcpu", "unet", "revenue"])
def test_quantities_outside_the_domain_are_parse_errors(field, literal):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    record = json.loads(lines[6])
    record[field] = "@"
    lines[6] = json.dumps(record, separators=(",", ":")).replace('"@"', literal)
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines(lines))
    assert str(excinfo.value).startswith(f"line 7: quantity {Decimal(literal)} cannot be rendered exactly")


PROPERTIES = settings(derandomize=True, deadline=None, database=None, max_examples=12)


@st.composite
def _small_configs(draw, elasticity: int, overbooking: int):
    guarantee = draw(st.booleans())
    config = GeneratorConfig(
        env_from_coords(elasticity, overbooking),
        seed=draw(st.integers(0, 2**64 - 1)),
        horizon=draw(st.integers(2 if guarantee else 1, 8)),
        num_datacenters=draw(st.integers(1, 3)),
        guarantee_dynamics=guarantee,
    )
    # a non-zero precision gives fractional requested resources
    return dataclasses.replace(config, vertical_policy=VerticalPolicy(p_step=0.5, precision=draw(st.integers(0, 3))))


@pytest.mark.parametrize("overbooking", range(4))
@pytest.mark.parametrize("elasticity", range(4))
def test_generated_traces_round_trip_in_every_environment(elasticity, overbooking):
    @PROPERTIES
    @given(_small_configs(elasticity, overbooking))
    def round_trips(config):
        trace = generate(config)
        document = trace_to_bytes(trace)
        assert read_trace(document) == trace
        assert trace_to_bytes(read_trace(document)) == document

    round_trips()


def _mutated_bytes(document: bytes):
    edits = st.tuples(st.integers(0, len(document)), st.integers(0, 3), st.binary(max_size=3))

    def apply(chosen):
        data = document
        for position, deleted, inserted in chosen:
            data = data[:position] + inserted + data[position + deleted :]
        return data

    return st.lists(edits, min_size=1, max_size=4).map(apply)


_FIXTURE_DOCUMENT = trace_to_bytes(fixture_trace(FixtureId.ENV_1_0))


# past sys.get_int_max_str_digits(), where int() raises a bare ValueError
_LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize("line_type, field", [("header", "horizon"), ("event", "t"), ("sample", "vcpu")])
def test_an_integer_literal_too_long_to_convert_is_a_parse_error(line_type, field):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_1_0))
    index = next(i for i, line in enumerate(lines) if f'"type":"{line_type}"' in line)
    lines[index] = re.sub(f'"{field}":[0-9]+', f'"{field}":{_LONG_INTEGER}', lines[index], count=1)
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines(lines))
    assert str(excinfo.value).startswith(f"line {index + 1}: integer literal too long (")


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(st.binary(max_size=200), _mutated_bytes(_FIXTURE_DOCUMENT)))
@example(_FIXTURE_DOCUMENT.replace(b'"vcpu":8', b'"vcpu":' + _LONG_INTEGER.encode(), 1))
@example(_FIXTURE_DOCUMENT.replace(b'"environment":[1,0]', b'"environment":' + b"[" * 5000 + b"]" * 5000, 1))
def test_read_trace_raises_only_package_errors_on_arbitrary_bytes(data):
    try:
        read_trace(data)
    except VmpTraceError:
        pass


# past the JSON decoder's recursion limit on every supported Python
_DEEP_LIST = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("line_type", ["header", "event", "sample"])
def test_a_line_nested_too_deeply_to_decode_is_a_parse_error(line_type):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_1_0))
    index = next(i for i, line in enumerate(lines) if f'"type":"{line_type}"' in line)
    lines[index] = lines[index][:-1] + f',"nested":{_DEEP_LIST}}}'
    with pytest.raises(ParseError) as excinfo:
        read_trace(_doc_from_lines(lines))
    assert str(excinfo.value) == f"line {index + 1}: JSON nested too deeply to decode"


def _reference_parse_sample(obj, line_number):
    """The sample parser checked field by field, as traceio._parse_sample is."""
    traceio._check_keys(obj, traceio._SAMPLE_KEYS, traceio._SAMPLE_KEYS, line_number)
    try:
        sample = VmSample(
            service_id=traceio._field_int(obj, "service", line_number),
            dc_id=traceio._field_int(obj, "dc", line_number),
            vm_index=traceio._field_int(obj, "vm", line_number),
            t=traceio._field_int(obj, "t", line_number),
            spec=ResourceSpec(
                vcpu=traceio._field_quantity(obj, "vcpu", line_number),
                vram=traceio._field_quantity(obj, "vram", line_number),
                vnet=traceio._field_quantity(obj, "vnet", line_number),
            ),
            util=UtilizationSample(
                ucpu=traceio._field_quantity(obj, "ucpu", line_number),
                uram=traceio._field_quantity(obj, "uram", line_number),
                unet=traceio._field_quantity(obj, "unet", line_number),
            ),
        )
        revenue = traceio._field_quantity(obj, "revenue", line_number)
        sla = traceio._field_int(obj, "sla", line_number)
        if revenue >= 0:
            as_quantity(revenue)
    except ValidationError as exc:
        raise ParseError(str(exc), line_number) from None
    return sample, revenue, sla


def _read_outcome(document: bytes):
    try:
        trace = read_trace(document)
    except VmpTraceError as exc:
        return type(exc), str(exc)
    # repr keeps each Decimal's spelling, which == on the trace does not compare
    return "trace", repr(trace)


def _read_outcomes(document: bytes):
    """The reader's outcome, then the outcome with every line decoded as JSON
    and read by the reference parser."""
    outcome = _read_outcome(document)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_scan_sample", lambda line: None)
        patch.setattr(traceio, "_parse_sample", _reference_parse_sample)
        return outcome, _read_outcome(document)


_MUTATION_DOCUMENTS = [
    trace_to_bytes(fixture_trace(FixtureId.ENV_0_1)),
    _FIXTURE_DOCUMENT,
    trace_to_bytes(generate(dataclasses.replace(
        GeneratorConfig(env_from_coords(3, 3), seed=2, horizon=5, guarantee_dynamics=True),
        vertical_policy=VerticalPolicy(p_step=0.5, precision=2),
    ))),
]
_LITERALS = [
    "true", "false", "null", "5", "5.0", "2.50", "0", "-0", "-0.0", "-5", '"5"', "[5]", "NaN", "Infinity",
    "1e999999999", "-1e28", "1e28", "1e-999999999", str(10**30 + 1), "0.1234567890123456789012345678",
    # at the scanner's edges: the largest and the first too-large integer
    # part, 28 integer digits with a fraction, an id at and past 20 digits, a
    # fraction at and past 40 digits, a leading zero JSON refuses, and an
    # integer past int()'s conversion limit
    "9999999999999999999999999999", "10000000000000000000000000000", "9999999999999999999999999999.5",
    "1" * 20, "1" * 21, "0." + "0" * 39 + "1", "0." + "0" * 40 + "1", "05", _LONG_INTEGER,
]


@st.composite
def _mutated_sample_documents(draw):
    lines = draw(st.sampled_from(_MUTATION_DOCUMENTS)).decode("utf-8").splitlines()
    sample_lines = [i for i, line in enumerate(lines) if '"type":"sample"' in line]
    for _ in range(draw(st.integers(1, 2))):
        index = draw(st.sampled_from(sample_lines))
        # '"key":literal' pairs; no literal here holds a comma
        fields = [item.split(":", 1) for item in lines[index][1:-1].split(",")]
        mutation = draw(st.sampled_from(["value", "value", "value", "missing", "extra", "shuffle"]))
        position = draw(st.integers(1, len(fields) - 1))
        if mutation == "value":
            fields[position] = [fields[position][0], draw(st.sampled_from(_LITERALS))]
        elif mutation == "missing":
            del fields[position]
        elif mutation == "extra":
            fields.insert(position, ['"extra"', "1"])
        else:
            fields = draw(st.permutations(fields))
        lines[index] = "{" + ",".join(f"{key}:{text}" for key, text in fields) + "}"
    return _doc_from_lines(lines)


@settings(derandomize=True, deadline=None, database=None, max_examples=400)
@given(_mutated_sample_documents())
def test_mutated_sample_lines_read_as_the_field_by_field_parser_reads_them(document):
    outcome, reference = _read_outcomes(document)
    assert outcome == reference


def _with_sample_fields(lines: list[str], **texts) -> bytes:
    """The document with fields of its seventh line, a sample, spelled as given."""
    record = json.loads(lines[6], parse_int=str, parse_float=str)
    record.update(texts)
    mutated = list(lines)
    mutated[6] = "{" + ",".join(f'"{key}":{text}' if key != "type" else '"type":"sample"' for key, text in record.items()) + "}"
    return _doc_from_lines(mutated)


@pytest.mark.parametrize("literal", _LITERALS, ids=lambda literal: literal[:32])
def test_each_literal_in_each_sample_field_reads_as_the_field_by_field_parser_reads_it(literal):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    for name in CSV_COLUMNS:
        outcome, reference = _read_outcomes(_with_sample_fields(lines, **{name: literal}))
        assert outcome == reference, name


@pytest.mark.parametrize("first", CSV_COLUMNS)
def test_a_line_with_two_bad_fields_fails_as_the_field_by_field_parser_fails(first):
    # the first check to fail names the line's error, so both parsers must check in one order
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    bad = ("0", "9999999999999999999999999999.5")
    for second in CSV_COLUMNS:
        if second == first:
            continue
        for first_text in bad:
            for second_text in bad:
                outcome, reference = _read_outcomes(_with_sample_fields(lines, **{first: first_text, second: second_text}))
                assert outcome == reference, (first_text, second, second_text)


_LINE_EDITS = {
    "trailing CR": lambda line: line + "\r",
    "trailing space": lambda line: line + " ",
    "leading space": lambda line: " " + line,
    "BOM": lambda line: "\ufeff" + line,
    "trailing brace": lambda line: line + "}",
    "repeated key": lambda line: line[:-1] + ',"sla":1}',
    "space after a colon": lambda line: line.replace('"type":"sample"', '"type": "sample"'),
    "escaped key": lambda line: line.replace('"t":', '"\\u0074":'),
}


@pytest.mark.parametrize("edit", _LINE_EDITS)
def test_edited_sample_lines_read_as_the_field_by_field_parser_reads_them(edit):
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    lines[6] = _LINE_EDITS[edit](lines[6])
    outcome, reference = _read_outcomes(_doc_from_lines(lines))
    assert outcome == reference


def _reference_read_trace(source) -> Trace:
    """read_trace as it was before it read in one ordered pass: every sample
    keyed into a dict by (t, service, dc, vm), the keys sorted at the end, and
    the samples regrouped per VM. Every line is decoded as JSON and parsed
    field by field, which the tests above hold equal to the scanned path."""
    lines = traceio._source_text(source).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError("empty document: expected a header line")
    if lines[0] == "":
        raise ParseError("blank line", 1)
    first = traceio._load_line(lines[0], 1)
    if first.get("type") != "header":
        raise FormatError(f"first line must be the header, got type {first.get('type')!r}")
    header = traceio._parse_header(first, 1)
    events = []
    samples = {}
    for index, line in enumerate(lines[1:], start=2):
        if line == "":
            raise ParseError("blank line", index)
        obj = traceio._load_line(line, index)
        line_type = obj.get("type")
        if line_type == "header":
            raise ParseError("duplicate header line", index)
        if line_type == "event":
            events.append(traceio._parse_event(obj, index))
            continue
        if line_type != "sample":
            raise ParseError(f"unknown line type {line_type!r}", index)
        sample, revenue, sla = _reference_parse_sample(obj, index)
        key = (sample.t, sample.service_id, sample.dc_id, sample.vm_index)
        if key in samples:
            raise IntegrityError(f"duplicate sample for VM {sample.vm_key} at t={sample.t} (line {index})")
        samples[key] = (sample, revenue, sla)
    descriptors = _reference_reconstruct_descriptors(events, samples)
    events.sort(key=lambda e: e.sort_key)
    return Trace(header, tuple(descriptors), tuple(events), tuple(samples[key][0] for key in sorted(samples)))


def _reference_reconstruct_descriptors(events, samples):
    arrivals = traceio._unique_event_map(events, traceio.EventKind.SERVICE_ARRIVAL, "arrival")
    departures = traceio._unique_event_map(events, traceio.EventKind.SERVICE_DEPARTURE, "departure")
    scale_outs = traceio._unique_event_map(events, traceio.EventKind.VM_SCALE_OUT, "scale-out")
    scale_ins = traceio._unique_event_map(events, traceio.EventKind.VM_SCALE_IN, "scale-in")
    by_vm = {}
    for sample, revenue, sla in samples.values():
        by_vm.setdefault(sample.vm_key, []).append((sample, revenue, sla))
    descriptors = []
    for key in sorted(by_vm):
        entries = by_vm[key]
        first = entries[0][1]
        if first == 0 or any(revenue != first for _, revenue, _ in entries):
            revenues = {traceio._revenue_text(revenue) for _, revenue, _ in entries}
            if len(revenues) > 1:
                raise IntegrityError(f"VM {key} has inconsistent revenue values: {sorted(revenues)}")
        slas = {sla for _, _, sla in entries}
        if len(slas) > 1:
            raise IntegrityError(f"VM {key} has inconsistent sla values: {sorted(slas)}")
        ticks = sorted(entry[0].t for entry in entries)
        t_init = scale_outs.get(key, arrivals.get(key[0], ticks[0]))
        t_end = scale_ins.get(key, departures.get(key[0], ticks[-1] + 1))
        if ticks[0] < t_init:
            raise IntegrityError(f"VM {key} has a sample at t={ticks[0]} before its start at t={t_init}")
        if ticks[-1] >= t_end:
            raise IntegrityError(f"VM {key} has a sample at t={ticks[-1]} at or past its end at t={t_end}")
        try:
            descriptors.append(VmDescriptor(key[0], key[1], key[2], entries[0][1], entries[0][2], t_init, t_end))
        except ValidationError as exc:
            raise IntegrityError(f"VM {key}: {exc}") from None
    return descriptors


def _reference_outcome(document: bytes):
    try:
        trace = _reference_read_trace(document)
    except VmpTraceError as exc:
        return type(exc), str(exc)
    return "trace", repr(trace)


# documents whose bodies the tests below edit: service departures, scale-outs
# and scale-ins bound some VMs' lifetimes, the samples of the others; revenues
# are 0 in the fixtures and differ per VM in the generated documents
_BODY_DOCUMENTS = [
    trace_to_bytes(fixture_trace(FixtureId.ENV_0_1)),
    _FIXTURE_DOCUMENT,
    trace_to_bytes(generate(GeneratorConfig(env_from_coords(1, 1), seed=3, horizon=6, guarantee_dynamics=True))),
    _MUTATION_DOCUMENTS[2],
]
_REVENUES = ["0", "-0", "0.0", "-0.0", "5", "5.0", "7", "-3"]
_VM_OF_LINE = re.compile('"service":([0-9]+),"dc":([0-9]+),"vm":([0-9]+)')


def _with_field(line: str, name: str, text: str) -> str:
    return re.sub(f'"{name}":[^,}}]*', f'"{name}":{text}', line, count=1)


def _tick(line: str) -> int:
    return int(re.search('"t":([0-9]+)', line).group(1))


@st.composite
def _edited_bodies(draw):
    header, *body = draw(st.sampled_from(_BODY_DOCUMENTS)).decode("utf-8").splitlines()
    for _ in range(draw(st.integers(1, 3))):
        sample_lines = [i for i, line in enumerate(body) if '"type":"sample"' in line]
        if not sample_lines:
            break
        i = draw(st.sampled_from(sample_lines))
        edit = draw(st.sampled_from(["permute", "duplicate", "revenue", "vm revenue", "sla", "tick", "drop"]))
        if edit == "permute":
            body = list(draw(st.permutations(body)))
        elif edit == "duplicate":
            body.insert(draw(st.sampled_from([i + 1, draw(st.integers(0, len(body)))])), body[i])
        elif edit == "revenue":
            body[i] = _with_field(body[i], "revenue", draw(st.sampled_from(_REVENUES)))
        elif edit == "vm revenue":
            vm, revenue = _VM_OF_LINE.search(body[i]).group(0), draw(st.sampled_from(_REVENUES))
            body = [_with_field(line, "revenue", revenue) if vm in line else line for line in body]
        elif edit == "sla":
            body[i] = _with_field(body[i], "sla", draw(st.sampled_from(["1", "2", "0"])))
        elif edit == "tick":
            body[i] = _with_field(body[i], "t", str(max(0, _tick(body[i]) + draw(st.integers(-3, 3)))))
        else:
            del body[draw(st.integers(0, len(body) - 1))]
    return _doc_from_lines([header, *body])


@settings(derandomize=True, deadline=None, database=None, max_examples=500)
@given(_edited_bodies())
def test_edited_bodies_read_as_the_dict_and_sort_reader_reads_them(document):
    assert _read_outcome(document) == _reference_outcome(document)


def _move_last_sample_first(body: list[str]) -> list[str]:
    """The body with its last line moved before its first sample, so sample
    keys stop increasing there."""
    first = next(i for i, line in enumerate(body) if '"type":"sample"' in line)
    return body[:first] + body[-1:] + body[first:-1]


def _vm_lines(body: list[str], vm: str) -> list[int]:
    return [i for i, line in enumerate(body) if f'"dc":{vm.split(",")[0]},"vm":{vm.split(",")[1]},' in line]


def _revenue_pair(body, first, later, vm="1,1"):
    """Revenue ``first`` on the VM's first sample, ``later`` on its others."""
    first_line, *others = _vm_lines(body, vm)
    edited = list(body)
    edited[first_line] = _with_field(edited[first_line], "revenue", first)
    for i in others:
        edited[i] = _with_field(edited[i], "revenue", later)
    return edited


# (document index in _BODY_DOCUMENTS, edit of the body, expected outcome type)
_BODY_EDITS = {
    "permuted": (2, lambda body: body[::-1], "trace"),
    "duplicate next to itself": (2, lambda body: body[:20] + body[19:], IntegrityError),
    "duplicate after the order breaks": (2, lambda body: _move_last_sample_first(body) + [body[25]], IntegrityError),
    "duplicate of the line that breaks the order": (2, lambda body: _move_last_sample_first(body) + [body[-1]], IntegrityError),
    # JSON reads -0 as the integer 0, and -0.0 as a Decimal that renders "-0"
    "revenue 0 then -0": (0, lambda body: _revenue_pair(body, "0", "-0"), "trace"),
    "revenue 0 then -0.0": (0, lambda body: _revenue_pair(body, "0", "-0.0"), IntegrityError),
    "revenue -0.0 then 0": (0, lambda body: _revenue_pair(body, "-0.0", "0"), IntegrityError),
    "revenue -0.0 then -0": (0, lambda body: _revenue_pair(body, "-0.0", "-0"), IntegrityError),
    "revenue 0 then 0.0": (0, lambda body: _revenue_pair(body, "0", "0.0"), "trace"),
    "revenue -0.0 then -0.00": (0, lambda body: _revenue_pair(body, "-0.0", "-0.00"), "trace"),
    "revenue 5 then 5.0": (0, lambda body: _revenue_pair(body, "5", "5.0"), "trace"),
    "revenue 5 then 7": (0, lambda body: _revenue_pair(body, "5", "7"), IntegrityError),
    "revenue -3 on every sample": (0, lambda body: _revenue_pair(body, "-3", "-3"), IntegrityError),
    "sla conflict": (2, lambda body: [
        _with_field(line, "sla", "2") if i == _vm_lines(body, "1,1")[1] else line for i, line in enumerate(body)
    ], IntegrityError),
    "sample past the departure": (2, lambda body: body + [_with_field(body[-1], "t", "6")], IntegrityError),
    "sample before the arrival": (1, lambda body: body + [_with_field(body[-1], "t", "1")], IntegrityError),
    # with no departure, each VM ends after its latest sample, here its first line
    "reversed, without departures": (0, lambda body: [line for line in body if "departure" not in line][::-1], "trace"),
}


@pytest.mark.parametrize("edit", _BODY_EDITS)
def test_body_edits_read_as_the_dict_and_sort_reader_reads_them(edit):
    document_index, apply, expected = _BODY_EDITS[edit]
    header, *body = _BODY_DOCUMENTS[document_index].decode("utf-8").splitlines()
    document = _doc_from_lines([header, *apply(body)])
    outcome = _read_outcome(document)
    assert outcome == _reference_outcome(document)
    assert outcome[0] == expected, outcome
