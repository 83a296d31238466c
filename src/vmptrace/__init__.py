"""Deterministic workload traces for dynamic virtual machine placement.

This package models providers whose cloud services may scale horizontally
(VM counts change), scale vertically (requested capacities change), and
overbook server or network resources (utilization decoupled from requests).
Each combination is one of sixteen environments addressed by an
(elasticity, overbooking) coordinate pair. The package generates seeded
traces for any environment, serializes them to a canonical line format,
validates them structurally and against a declared environment, infers the
environment of arbitrary traces, and aggregates demand statistics.
"""

from .analysis import (
    MODE_PAPER,
    MODE_STRICT,
    StatsRow,
    StatsSeries,
    ValidationReport,
    Violation,
    classify,
    stats,
    validate,
)
from .environments import (
    Capabilities,
    EnvironmentId,
    capabilities,
    enumerate_environments,
    env_from_capabilities,
    env_from_coords,
)
from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    ParseError,
    TraceIOError,
    ValidationError,
    VmpTraceError,
)
from .fixtures import FixtureId, fixture_trace
from .generator import (
    ArrivalModel,
    GeneratorConfig,
    HorizontalPolicy,
    ServiceShape,
    SizingRanges,
    UtilizationPolicy,
    VerticalPolicy,
    config_digest,
    config_from_dict,
    config_to_dict,
    evolve_horizontal,
    evolve_utilization,
    evolve_vertical,
    generate,
)
from .model import (
    EventKind,
    ResourceSpec,
    Trace,
    TraceEvent,
    TraceHeader,
    UtilizationSample,
    VmDescriptor,
    VmSample,
    dc_population,
    full_utilization,
    quantity_text,
)
from .traceio import (
    FILE_EXTENSION,
    FORMAT_VERSION,
    canonicalize,
    read_trace,
    read_trace_file,
    trace_to_bytes,
    trace_to_csv_text,
    write_trace,
    write_trace_file,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalModel",
    "Capabilities",
    "ConfigError",
    "EnvironmentId",
    "EventKind",
    "FILE_EXTENSION",
    "FORMAT_VERSION",
    "FixtureId",
    "FormatError",
    "GeneratorConfig",
    "HorizontalPolicy",
    "IntegrityError",
    "MODE_PAPER",
    "MODE_STRICT",
    "ParseError",
    "ResourceSpec",
    "ServiceShape",
    "SizingRanges",
    "StatsRow",
    "StatsSeries",
    "Trace",
    "TraceEvent",
    "TraceHeader",
    "TraceIOError",
    "UtilizationPolicy",
    "UtilizationSample",
    "ValidationError",
    "ValidationReport",
    "VerticalPolicy",
    "Violation",
    "VmDescriptor",
    "VmSample",
    "VmpTraceError",
    "canonicalize",
    "capabilities",
    "classify",
    "config_digest",
    "config_from_dict",
    "config_to_dict",
    "dc_population",
    "enumerate_environments",
    "env_from_capabilities",
    "env_from_coords",
    "evolve_horizontal",
    "evolve_utilization",
    "evolve_vertical",
    "fixture_trace",
    "full_utilization",
    "generate",
    "quantity_text",
    "read_trace",
    "read_trace_file",
    "stats",
    "trace_to_bytes",
    "trace_to_csv_text",
    "validate",
    "write_trace",
    "write_trace_file",
]
