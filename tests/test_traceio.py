from __future__ import annotations

import io
import json
import random
from decimal import Decimal

import pytest

from vmptrace.environments import env_from_coords
from vmptrace.errors import FormatError, IntegrityError, ParseError
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.generator import default_config, generate
from vmptrace.model import (
    ResourceSpec,
    Trace,
    TraceHeader,
    VmDescriptor,
    VmSample,
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
        default_config(env_from_coords(1, 0), seed=3, horizon=10),
        horizontal_policy=dataclasses.replace(
            default_config(env_from_coords(1, 0)).horizontal_policy, p_scale=1.0
        ),
    )
    lines = _doc_lines(generate(config))
    scale_lines = [line for line in lines if '"kind":"vm_scale_' in line]
    assert scale_lines, "expected scale events at p_scale=1"
    for line in scale_lines:
        record = json.loads(line)
        assert set(record) == {"type", "t", "kind", "service", "dc", "vm"}


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
        default_config(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True)
    )
    assert read_trace(trace_to_bytes(trace)) == trace


def test_read_accepts_text_sources_and_streams():
    trace = fixture_trace(FixtureId.ENV_1_0)
    raw = trace_to_bytes(trace)
    assert read_trace(raw.decode("utf-8")) == trace
    assert read_trace(io.BytesIO(raw)) == trace


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
        generate(default_config(env_from_coords(3, 3), seed=5, horizon=12, guarantee_dynamics=True))
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
    lines = _doc_lines(fixture_trace(FixtureId.ENV_0_1))
    index = next(i for i, line in enumerate(lines) if '"type":"sample"' in line)
    lines[index] = lines[index].replace('"revenue":0', '"revenue":1')
    with pytest.raises(IntegrityError):
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
    trace = generate(default_config(env_from_coords(2, 1), seed=11, horizon=8))
    path = tmp_path / ("example" + FILE_EXTENSION)
    write_trace_file(trace, path)
    assert read_trace_file(path) == trace


def test_dump_json_renders_decimals_and_preserves_order():
    value = {"b": Decimal("1.0000"), "a": 1, "nested": [Decimal("2.5"), "x", None, True]}
    assert dump_json(value) == '{"b":1.0000,"a":1,"nested":[2.5,"x",null,true]}'
    pretty = dump_json(value, indent=2)
    assert pretty.startswith('{\n  "b": 1.0000,')
    assert json.loads(pretty) == {"b": 1.0, "a": 1, "nested": [2.5, "x", None, True]}
