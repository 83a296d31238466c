"""The README's Python API example runs as written, and the package exports
every name it lists in ``__all__``."""

from __future__ import annotations

from pathlib import Path

import vmptrace
from vmptrace.model import Trace
from vmptrace.traceio import read_trace_file


def test_readme_python_api_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    trace = namespace["trace"]
    assert isinstance(trace, Trace)
    # the example writes its trace into the working directory and prints one row per (dc, tick) cell
    assert read_trace_file(tmp_path / "trace.vmpt.jsonl") == trace
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == trace.header.num_datacenters * trace.header.horizon


def test_every_exported_name_resolves():
    assert len(vmptrace.__all__) == len(set(vmptrace.__all__))
    missing = [name for name in vmptrace.__all__ if not hasattr(vmptrace, name)]
    assert not missing
