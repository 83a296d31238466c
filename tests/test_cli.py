from __future__ import annotations

import errno
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from vmptrace import cli
from vmptrace.cli import EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from vmptrace.errors import ConfigError
from vmptrace.generator import GeneratorConfig, config_digest, config_from_dict
from vmptrace.environments import env_from_coords
from vmptrace.fixtures import FixtureId, fixture_trace
from vmptrace.traceio import read_trace_file, trace_to_bytes


def _run(argv: list[str]) -> int:
    return main(argv)


def test_generate_then_classify(tmp_path, capsys):
    out = tmp_path / "trace.vmpt.jsonl"
    assert _run(
        [
            "generate",
            "--env",
            "3,3",
            "--seed",
            "7",
            "--horizon",
            "12",
            "--guarantee-dynamics",
            "--out",
            str(out),
        ]
    ) == EXIT_OK
    capsys.readouterr()
    assert _run(["classify", "--in", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "(3,3)\n"


def test_fixture_validate_exit_codes(tmp_path, capsys):
    out = tmp_path / "ex1.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _run(["validate", "--in", str(out), "--mode", "strict"]) == EXIT_VALIDATION
    captured = capsys.readouterr().out
    assert "result: 9 violation(s)" in captured
    assert "[env.overbooking-bound] (t=1,b=1,c=1,j=1)" in captured
    assert _run(["validate", "--in", str(out), "--mode", "paper"]) == EXIT_OK
    assert "result: ok" in capsys.readouterr().out


def test_validate_against_a_declared_environment(tmp_path, capsys):
    out = tmp_path / "ex1.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rc = _run(["validate", "--in", str(out), "--mode", "strict", "--declared", "0,0"])
    assert rc == EXIT_VALIDATION
    assert "[env.no-server-overbooking]" in capsys.readouterr().out
    rc = _run(["validate", "--in", str(out), "--mode", "strict", "--declared", "3,3"])
    assert rc == EXIT_VALIDATION


def test_validate_json_report(tmp_path, capsys):
    out = tmp_path / "ex1.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _run(["validate", "--in", str(out), "--format", "json"]) == EXIT_VALIDATION
    text = capsys.readouterr().out
    report = json.loads(text)
    assert list(report) == ["mode", "declared_environment", "ok", "violations"]
    assert (report["mode"], report["declared_environment"], report["ok"]) == ("strict", [0, 1], False)
    assert len(report["violations"]) == 9
    assert report["violations"][0] == {
        "rule": "env.overbooking-bound",
        "location": "(t=1,b=1,c=1,j=1)",
        "message": report["violations"][0]["message"],
    }
    assert report["violations"][0]["message"].startswith("utilization exceeds the request: ")
    assert text.startswith('{\n  "mode": "strict",\n') and text.endswith("}\n")

    args = ["validate", "--in", str(out), "--mode", "paper", "--declared", "0,1", "--format", "json"]
    assert _run(args) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "mode": "paper",
        "declared_environment": [0, 1],
        "ok": True,
        "violations": [],
    }
    with pytest.raises(SystemExit) as excinfo:
        _run(["validate", "--in", str(out), "--format", "xml"])
    assert excinfo.value.code == EXIT_USAGE


def test_classify_arrival_flag(tmp_path, capsys):
    out = tmp_path / "ex3.vmpt.jsonl"
    assert _run(["fixture", "--id", "1,0", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _run(["classify", "--in", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == "(0,0)\n"
    assert _run(["classify", "--in", str(out), "--arrival-as-horizontal"]) == EXIT_OK
    assert capsys.readouterr().out == "(1,0)\n"


def test_bad_environment_text_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as caught:
        _run(["generate", "--env", "9,9", "--out", str(tmp_path / "x")])
    assert caught.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as caught:
        _run(["generate", "--env", "banana", "--out", str(tmp_path / "x")])
    assert caught.value.code == EXIT_USAGE


def test_unknown_fixture_id_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as caught:
        _run(["fixture", "--id", "9,9", "--out", str(tmp_path / "x")])
    assert caught.value.code == EXIT_USAGE


def test_generate_without_environment_is_a_usage_error(tmp_path, capsys):
    assert _run(["generate", "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "--env" in capsys.readouterr().err


def test_missing_input_file_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "nope.vmpt.jsonl"
    assert _run(["classify", "--in", str(missing)]) == EXIT_IO
    assert capsys.readouterr().err != ""


def test_corrupt_input_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "bad.vmpt.jsonl"
    path.write_text('{"type":"event","t":0,"kind":"service_arrival","service":1}\n')
    assert _run(["validate", "--in", str(path)]) == EXIT_IO
    assert capsys.readouterr().err != ""


def test_config_file_generation_with_overrides(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"environment": [1, 2], "horizon": 8, "seed": 3}))
    out = tmp_path / "trace.vmpt.jsonl"
    assert _run(["generate", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    trace = read_trace_file(out)
    assert trace.header.environment == env_from_coords(1, 2)
    assert trace.header.horizon == 8
    assert trace.header.seed == 3

    assert _run(
        ["generate", "--config", str(config_path), "--seed", "11", "--out", str(out)]
    ) == EXIT_OK
    override = read_trace_file(out)
    assert override.header.seed == 11
    expected = GeneratorConfig(env_from_coords(1, 2), seed=11, horizon=8)
    assert override.header.config_digest == config_digest(expected)
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag, key, value",
    [
        (["--env", "2,1"], "environment", [2, 1]),
        (["--seed", "11"], "seed", 11),
        (["--horizon", "5"], "horizon", 5),
        (["--dcs", "3"], "num_datacenters", 3),
        (["--guarantee-dynamics"], "guarantee_dynamics", True),
    ],
)
def test_each_generate_flag_overrides_exactly_its_key(tmp_path, capsys, flag, key, value):
    base = {"environment": [1, 2], "seed": 3, "horizon": 4, "num_datacenters": 2, "guarantee_dynamics": False}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base))
    out = tmp_path / "trace.vmpt.jsonl"
    assert _run(["generate", "--config", str(config_path), *flag, "--out", str(out)]) == EXIT_OK
    expected = config_digest(config_from_dict({**base, key: value}))
    assert expected != config_digest(config_from_dict(base))
    assert read_trace_file(out).header.config_digest == expected
    capsys.readouterr()


def test_invalid_config_json_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "broken.json"
    config_path.write_text("{not json")
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    capsys.readouterr()


def test_config_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "list.json"
    config_path.write_text("[]")
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    assert "must contain a JSON object" in capsys.readouterr().err


def test_config_with_an_integer_literal_too_long_to_convert_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "long.json"
    config_path.write_text('{"environment": [0, 0], "seed": ' + "1" * 5000 + "}")
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    assert f"error: config {config_path} holds an integer literal too long to read: " in capsys.readouterr().err


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "latin1.json"
    config_path.write_bytes(b'{"environment": [0, 0], "note": "\xff"}')
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {config_path} is not valid UTF-8: ")
    assert "too long" not in err


# nested past the JSON decoder's recursion limit on every supported Python
# (3.13 still decodes 5,000 levels)
_DEEP_LIST = "[" * 100_000 + "]" * 100_000


def test_config_nested_too_deeply_to_decode_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "deep.json"
    config_path.write_text('{"environment": ' + _DEEP_LIST + "}")
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config {config_path} is JSON nested too deeply to decode\n"


def test_config_flag_nested_just_below_the_decoder_limit_is_a_usage_error(tmp_path, capsys):
    # decoded, but a nested list is no guarantee_dynamics flag; it used to
    # reach the config digest, whose json.dumps ran out of recursion (exit 4)
    config_path = tmp_path / "deep.json"
    for depth in range(900, 1000, 7):
        config_path.write_text('{"environment": [0, 0], "guarantee_dynamics": ' + "[" * depth + "]" * depth + "}")
        assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("depth", [5000, 100_000])
@pytest.mark.parametrize("index", [0, 1, 5])
def test_trace_line_nested_too_deeply_is_an_io_error(tmp_path, capsys, index, depth):
    path = tmp_path / "deep.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(path)]) == EXIT_OK
    lines = path.read_text().splitlines()
    lines[index] = lines[index][:-1] + ',"nested":' + "[" * depth + "]" * depth + "}"
    path.write_text("\n".join(lines) + "\n")
    assert _run(["validate", "--in", str(path)]) == EXIT_IO
    err = capsys.readouterr().err
    # 3.13 decodes 5,000 levels, and then refuses the unknown field
    assert err.startswith(f"error: line {index + 1}: ") and "Traceback" not in err
    if depth == 100_000:
        assert err == f"error: line {index + 1}: JSON nested too deeply to decode\n"


def test_trace_with_an_integer_literal_too_long_to_convert_is_an_io_error(tmp_path, capsys):
    path = tmp_path / "long.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(path)]) == EXIT_OK
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"t":0', '"t":' + "1" * 5000)
    path.write_text("\n".join(lines) + "\n")
    assert _run(["validate", "--in", str(path)]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: line 2: integer literal too long (")


def test_a_flag_that_is_not_true_or_false_is_a_usage_error_naming_it(tmp_path, capsys):
    # "false" is truthy: taken as arrival.burst, it would turn burst arrivals on
    config_path = tmp_path / "flag.json"
    for section, key in [
        ("arrival", "force_first"),
        ("arrival", "burst"),
        ("vertical_policy", "vary_net"),
        ("utilization_policy", "allow_exceed_request"),
        (None, "guarantee_dynamics"),
    ]:
        name = f"{section}.{key}" if section else key
        for value in ("false", 0, None):
            data = {"environment": [3, 3], **({section: {key: value}} if section else {key: value})}
            message = f"{name} must be true or false, got {value!r}"
            with pytest.raises(ConfigError) as caught:
                config_from_dict(data)
            assert str(caught.value) == message
            config_path.write_text(json.dumps(data))
            assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    config_path = tmp_path / "odd.json"
    config_path.write_text(json.dumps({"environment": [0, 0], "bogus": 1}))
    assert _run(["generate", "--config", str(config_path), "--out", "-"]) == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_missing_config_file_is_an_io_error(tmp_path, capsys):
    assert (
        _run(["generate", "--config", str(tmp_path / "absent.json"), "--out", "-"])
        == EXIT_IO
    )
    capsys.readouterr()


def test_list_envs_output(capsys):
    assert _run(["list-envs"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert lines[0] == "(0,0) Not Considered / Not Considered"
    assert "(2,1) Vertical / Server" in lines
    assert lines[-1] == "(3,3) Horizontal and Vertical / Server and Network"


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "handle_list_envs", broken)
    assert _run(["list-envs"]) == EXIT_INTERNAL
    assert len({EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_IO, EXIT_INTERNAL}) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: Traceback (most recent call last):\n")
    assert captured.err.endswith("RuntimeError: boom\n")
    assert "in broken" in captured.err


def test_stats_table_and_json(tmp_path, capsys):
    out = tmp_path / "ex1.vmpt.jsonl"
    _run(["fixture", "--id", "0,1", "--out", str(out)])
    capsys.readouterr()
    assert _run(["stats", "--in", str(out)]) == EXIT_OK
    table = capsys.readouterr().out
    assert table.splitlines()[0].split() == [
        "dc",
        "t",
        "vms",
        "vcpu",
        "vram",
        "vnet",
        "ucpu",
        "uram",
        "unet",
        "cpu",
        "ram",
        "net",
    ]
    assert _run(["stats", "--in", str(out), "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["horizon"] == 6
    assert payload["num_datacenters"] == 2
    assert payload["rows"][0]["vcpu"] == 13
    json_path = tmp_path / "stats.json"
    assert (
        _run(["stats", "--in", str(out), "--format", "json", "--out", str(json_path)])
        == EXIT_OK
    )
    assert json.loads(json_path.read_text())["horizon"] == 6


def test_stats_table_renders_a_total_of_10_to_the_28_and_above(tmp_path, capsys):
    # each (dc 1, t 0) sample is in the quantity domain; their sum is not,
    # and the table writes it out as plain digits
    out = tmp_path / "ex1.vmpt.jsonl"
    _run(["fixture", "--id", "0,1", "--out", str(out)])
    lines = out.read_text().splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record["type"] == "sample" and record["t"] == 0 and record["dc"] == 1:
            record["vcpu"] = 9 * 10**27
            lines[i] = json.dumps(record, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert _run(["stats", "--in", str(out), "--format", "table"]) == EXIT_OK
    first_row = capsys.readouterr().out.splitlines()[1].split()
    assert first_row[:4] == ["1", "0", "2", "18000000000000000000000000000"]


def test_convert_to_csv(tmp_path, capsys):
    out = tmp_path / "ex1.vmpt.jsonl"
    csv_path = tmp_path / "ex1.csv"
    _run(["fixture", "--id", "0,1", "--out", str(out)])
    assert _run(["convert", "--in", str(out), "--to", "csv", "--out", str(csv_path)]) == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,service,dc,vm,vcpu,vram,vnet,ucpu,uram,unet,revenue,sla"
    assert lines[1] == "0,1,1,1,8,16,150,8,16,150,0,1"
    capsys.readouterr()


def test_writes_are_atomic_and_leave_no_scratch_files(tmp_path):
    out = tmp_path / "trace.vmpt.jsonl"
    out.write_text("stale contents\n")
    assert _run(["generate", "--env", "0,0", "--seed", "1", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith('{"type":"header"')
    assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.vmpt.jsonl"]


def test_output_in_a_missing_directory_is_an_io_error(tmp_path, capsys):
    out = tmp_path / "absent" / "trace.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(out)]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err


def test_output_onto_a_directory_is_an_io_error_that_leaves_no_scratch_file(tmp_path, capsys):
    (tmp_path / "taken").mkdir()
    assert _run(["fixture", "--id", "0,1", "--out", str(tmp_path / "taken")]) == EXIT_IO
    assert "cannot write" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_a_failing_stdout_is_an_io_error(tmp_path, monkeypatch, capsys):
    class FailingStdout(io.StringIO):
        def write(self, text):
            raise OSError("stdout is gone")

    out = tmp_path / "ex1.vmpt.jsonl"
    assert _run(["fixture", "--id", "0,1", "--out", str(out)]) == EXIT_OK
    monkeypatch.setattr(sys, "stdout", FailingStdout())
    assert _run(["validate", "--in", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == "error: stdout is gone\n"


@pytest.mark.parametrize("argv", [["generate", "--env", "1,0", "--seed", "1"], ["fixture", "--id", "1,0"]])
def test_a_failing_stdout_names_the_byte_offset_the_trace_writer_reached(monkeypatch, capsys, argv):
    class FailingBuffer:
        def write(self, data):
            raise OSError("stdout is gone")

    class FailingStdout(io.StringIO):
        buffer = FailingBuffer()

    monkeypatch.setattr(sys, "stdout", FailingStdout())
    assert _run([*argv, "--out", "-"]) == EXIT_IO
    assert capsys.readouterr().err == "error: write failed: stdout is gone (at byte offset 0)\n"


def test_a_write_failing_after_the_header_leaves_the_old_file_and_no_scratch_file(tmp_path, monkeypatch, capsys):
    class DiskFullAfterHeader(io.FileIO):
        def write(self, data):
            if self.tell():
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    out = tmp_path / "ex1.vmpt.jsonl"
    out.write_text("stale contents\n")
    header = trace_to_bytes(fixture_trace(FixtureId.ENV_1_0)).split(b"\n")[0]
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: DiskFullAfterHeader(fd, "wb"))
    assert _run(["fixture", "--id", "1,0", "--out", str(out)]) == EXIT_IO
    assert capsys.readouterr().err == (
        f"error: cannot write {out}: write failed: [Errno {errno.ENOSPC}] No space left on device "
        f"(at byte offset {len(header) + 1})\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ex1.vmpt.jsonl"]
    assert out.read_text() == "stale contents\n"


def test_cli_process_reads_stdin_and_writes_stdout(tmp_path):
    generate = subprocess.run(
        [sys.executable, "-m", "vmptrace.cli", "generate", "--env", "2,1", "--seed", "4", "--horizon", "6", "--out", "-"],
        capture_output=True,
        check=True,
    )
    assert generate.stdout.startswith(b'{"type":"header"')
    classify = subprocess.run(
        [sys.executable, "-m", "vmptrace.cli", "classify", "--in", "-"],
        input=generate.stdout,
        capture_output=True,
    )
    assert classify.returncode == EXIT_OK
    validate = subprocess.run(
        [sys.executable, "-m", "vmptrace.cli", "validate", "--in", "-", "--mode", "strict"],
        input=generate.stdout,
        capture_output=True,
    )
    assert validate.returncode == EXIT_OK


# What an installer's generated console-script wrapper does with a
# `module:function` entry point: name the program, call the function, exit
# with what it returns.
_ENTRY_POINT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
target, sys.argv = sys.argv[1], sys.argv[2:]
sys.exit(EntryPoint(sys.argv[0], target, "console_scripts").load()())
"""


def _declared_console_scripts() -> dict[str, str]:
    """The ``[project.scripts]`` table of ``pyproject.toml``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no TOML reader: take the table's lines
        table = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        return dict(re.findall(r'^([\w.-]+)\s*=\s*"([^"]*)"', table, re.MULTILINE))
    return tomllib.loads(text)["project"]["scripts"]


def _check_console_script(command: list[str]) -> None:
    listed = subprocess.run([*command, "list-envs"], capture_output=True, text=True)
    assert listed.returncode == EXIT_OK, listed.stderr
    assert listed.stdout.splitlines()[0] == "(0,0) Not Considered / Not Considered"
    generated = subprocess.run(
        [*command, "generate", "--env", "2,1", "--seed", "4", "--out", "-"],
        capture_output=True,
    )
    assert generated.returncode == EXIT_OK, generated.stderr
    classified = subprocess.run(
        [*command, "classify", "--in", "-"], input=generated.stdout, capture_output=True
    )
    assert classified.returncode == EXIT_OK, classified.stderr
    assert classified.stdout == b"(2,1)\n"


def test_installed_console_script_round_trip():
    target = _declared_console_scripts()["vmptrace"]
    _check_console_script([sys.executable, "-c", _ENTRY_POINT_WRAPPER, target, "vmptrace"])
    installed = shutil.which("vmptrace")
    if installed is not None:
        _check_console_script([installed])
