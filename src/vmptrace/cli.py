"""Command-line interface for generating, inspecting, and converting traces.

Exit codes: 0 success (and validation passed), 1 validation findings,
2 usage or configuration errors, 3 I/O, parse, or integrity errors,
4 internal errors (a bug: the traceback goes to stderr).
File arguments accept "-" for the standard streams. Output files are
written to a temporary sibling and renamed into place, so a failing
command never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import traceback
from functools import partial

from .analysis import MODE_PAPER, MODE_STRICT, classify, stats, validate
from .environments import EnvironmentId, enumerate_environments, env_from_coords
from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    TraceIOError,
    ValidationError,
)
from .fixtures import FixtureId, fixture_trace
from .generator import config_from_dict, generate
from .traceio import dump_json, read_trace, read_trace_file, trace_to_csv_text, write_trace

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _env_argument(text: str) -> EnvironmentId:
    """Parse an environment coordinate pair: "E,O" with optional parentheses."""
    stripped = text.strip()
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    parts = stripped.split(",")
    try:
        if len(parts) != 2:
            raise ValueError
        return env_from_coords(int(parts[0].strip()), int(parts[1].strip()))
    except (ValueError, ValidationError):
        raise argparse.ArgumentTypeError(
            f"invalid environment {text!r}: expected E,O with coordinates in 0..3"
        ) from None


def _read_input(path: str):
    if path == "-":
        return read_trace(sys.stdin.buffer.read())
    return read_trace_file(path)


def _emit(path: str, write) -> None:
    """Call ``write`` with a binary sink: stdout for "-", else a temporary sibling renamed into place."""
    if path == "-":
        write(sys.stdout.buffer)
        sys.stdout.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".vmptrace-", dir=directory)
    except OSError as exc:
        raise TraceIOError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "wb") as sink:
            write(sink)
        os.replace(tmp_path, path)
    except (OSError, TraceIOError) as exc:
        raise TraceIOError(f"cannot write {path}: {exc}") from exc
    finally:
        # gone already once renamed into place
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)


def handle_generate(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise TraceIOError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid UTF-8: {exc}") from None
        except ValueError as exc:
            # int() refuses a literal past sys.get_int_max_str_digits()
            raise ConfigError(f"config {args.config} holds an integer literal too long to read: {exc}") from None
        except RecursionError:
            raise ConfigError(f"config {args.config} is JSON nested too deeply to decode") from None
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must contain a JSON object")
    else:
        data = {}
    if args.env is not None:
        data["environment"] = [args.env.elasticity, args.env.overbooking]
    for key in ("seed", "horizon", "num_datacenters", "guarantee_dynamics"):
        if getattr(args, key) is not None:
            data[key] = getattr(args, key)
    if "environment" not in data:
        raise ConfigError("--env is required when no config file sets the environment")
    _emit(args.out, partial(write_trace, generate(config_from_dict(data))))
    return EXIT_OK


def handle_fixture(args: argparse.Namespace) -> int:
    _emit(args.out, partial(write_trace, fixture_trace(FixtureId(args.id))))
    return EXIT_OK


def handle_validate(args: argparse.Namespace) -> int:
    trace = _read_input(args.infile)
    report = validate(trace, args.mode, declared=args.declared)
    if args.format == "json":
        sys.stdout.write(dump_json(report.to_json_dict(), indent=2) + "\n")
    else:
        sys.stdout.write(report.render_text())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def handle_classify(args: argparse.Namespace) -> int:
    trace = _read_input(args.infile)
    environment = classify(trace, arrival_as_horizontal=args.arrival_as_horizontal)
    print(environment)
    return EXIT_OK


def handle_stats(args: argparse.Namespace) -> int:
    series = stats(_read_input(args.infile))
    if args.format == "json":
        text = dump_json(series.to_json_dict(), indent=2) + "\n"
    else:
        text = series.render_table()
    _emit(args.out, lambda sink: sink.write(text.encode("utf-8")))
    return EXIT_OK


def handle_convert(args: argparse.Namespace) -> int:
    text = trace_to_csv_text(_read_input(args.infile))
    _emit(args.out, lambda sink: sink.write(text.encode("utf-8")))
    return EXIT_OK


def handle_list_envs(args: argparse.Namespace) -> int:
    for environment in enumerate_environments():
        print(f"{environment} {environment.label}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmptrace",
        description="Generate, validate, classify, and convert dynamic VM placement workload traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_generate = sub.add_parser("generate", help="generate a trace from a seeded configuration")
    p_generate.add_argument("--env", type=_env_argument, default=None, help="environment coordinates E,O")
    p_generate.add_argument("--seed", type=int, default=None, help="64-bit unsigned generator seed")
    p_generate.add_argument("--horizon", type=int, default=None, help="number of ticks")
    p_generate.add_argument("--dcs", dest="num_datacenters", type=int, default=None, help="number of datacenters")
    p_generate.add_argument("--config", default=None, help="JSON configuration file; flags override it")
    p_generate.add_argument(
        "--guarantee-dynamics",
        dest="guarantee_dynamics",
        action="store_const",
        const=True,
        default=None,
        help="ensure every enabled capability is observable at least once",
    )
    p_generate.add_argument("--out", required=True, help="output path (- for stdout)")
    p_generate.set_defaults(func=handle_generate)

    p_fixture = sub.add_parser("fixture", help="write one of the bundled example traces")
    p_fixture.add_argument("--id", required=True, choices=[m.value for m in FixtureId], help="fixture environment id")
    p_fixture.add_argument("--out", required=True, help="output path (- for stdout)")
    p_fixture.set_defaults(func=handle_fixture)

    p_validate = sub.add_parser("validate", help="check a trace structurally and against its environment")
    p_validate.add_argument("--in", dest="infile", required=True, help="trace path (- for stdin)")
    p_validate.add_argument("--mode", choices=[MODE_STRICT, MODE_PAPER], default=MODE_STRICT)
    p_validate.add_argument(
        "--declared",
        type=_env_argument,
        default=None,
        help="environment to check against (default: the trace header's)",
    )
    p_validate.add_argument("--format", choices=["text", "json"], default="text")
    p_validate.set_defaults(func=handle_validate)

    p_classify = sub.add_parser("classify", help="infer the smallest environment explaining a trace")
    p_classify.add_argument("--in", dest="infile", required=True, help="trace path (- for stdin)")
    p_classify.add_argument(
        "--arrival-as-horizontal",
        action="store_true",
        help="count a service arriving beside a live one as horizontal elasticity",
    )
    p_classify.set_defaults(func=handle_classify)

    p_stats = sub.add_parser("stats", help="per-datacenter per-tick demand and utilization totals")
    p_stats.add_argument("--in", dest="infile", required=True, help="trace path (- for stdin)")
    p_stats.add_argument("--format", choices=["json", "table"], default="table")
    p_stats.add_argument("--out", default="-", help="output path (default stdout)")
    p_stats.set_defaults(func=handle_stats)

    p_convert = sub.add_parser("convert", help="export a trace to another format")
    p_convert.add_argument("--in", dest="infile", required=True, help="trace path (- for stdin)")
    p_convert.add_argument("--to", required=True, choices=["csv"], help="target format")
    p_convert.add_argument("--out", required=True, help="output path (- for stdout)")
    p_convert.set_defaults(func=handle_convert)

    p_list = sub.add_parser("list-envs", help="list the sixteen environments")
    p_list.set_defaults(func=handle_list_envs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, IntegrityError, TraceIOError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception:
        # anything else is a defect in vmptrace, not in its input
        print("internal error:", traceback.format_exc(), end="", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
