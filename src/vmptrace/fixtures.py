"""Bundled example traces, one per illustrated environment.

Four small hand-encoded traces demonstrate the dynamics of environments
(0,1), (0,2), (1,0), and (2,0): server overbooking, network overbooking,
horizontal elasticity, and vertical elasticity. Every numeric value is
stored verbatim as published; two of them deliberately exercise the relaxed
``paper`` validation mode because their utilization exceeds the request
(fixture (0,1)) or stays frozen while the request changes (fixture (2,0)).

All four share the same frame: horizon 6, two datacenters, a single SLA
level, revenue 0, and service 1 alive over ticks [0, 4). Network bandwidth
requests equal each VM's first utilization value. The tables hold only VM
lifetimes and series; each trace's lifecycle events are derived from the
lifetimes by :func:`analysis.lifecycle_events`.
"""

from __future__ import annotations

from decimal import Decimal
from enum import Enum

from .analysis import lifecycle_events
from .environments import env_from_coords
from .model import (
    ResourceSpec,
    Trace,
    TraceHeader,
    UtilizationSample,
    VmDescriptor,
    VmSample,
)


class FixtureId(Enum):
    """The bundled examples, named by the environment each illustrates."""

    ENV_0_1 = "0,1"
    ENV_0_2 = "0,2"
    ENV_1_0 = "1,0"
    ENV_2_0 = "2,0"


# Per VM: (service, dc, vm), (t_init, t_end), then one series per field.
# A scalar means the value is constant over the VM's lifetime.
_TABLES = {
    FixtureId.ENV_0_1: {
        "environment": (0, 1),
        "vms": [
            ((1, 1, 1), (0, 4), {"vcpu": 8, "vram": 16, "vnet": 150,
                                 "ucpu": [8, 9, 10, 12], "uram": [16, 18, 22, 26], "unet": 150}),
            ((1, 1, 2), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50,
                                 "ucpu": [5, 5, 7, 7], "uram": [12, 13, 16, 20], "unet": 50}),
            ((1, 2, 1), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50,
                                 "ucpu": [5, 4, 4, 5], "uram": [12, 10, 10, 9], "unet": 50}),
            ((1, 2, 2), (0, 4), {"vcpu": 9, "vram": 18, "vnet": 170,
                                 "ucpu": [9, 12, 14, 13], "uram": [18, 20, 22, 25], "unet": 170}),
        ],
    },
    FixtureId.ENV_0_2: {
        "environment": (0, 2),
        "vms": [
            ((1, 1, 1), (0, 4), {"vcpu": 8, "vram": 16, "vnet": 150,
                                 "ucpu": 8, "uram": 16, "unet": [150, 170, 180, 200]}),
            ((1, 1, 2), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50,
                                 "ucpu": 5, "uram": 12, "unet": [50, 60, 40, 0]}),
            ((1, 2, 1), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50,
                                 "ucpu": 5, "uram": 12, "unet": [50, 100, 150, 170]}),
            ((1, 2, 2), (0, 4), {"vcpu": 9, "vram": 18, "vnet": 150,
                                 "ucpu": 9, "uram": 18, "unet": [150, 200, 350, 800]}),
        ],
    },
    FixtureId.ENV_1_0: {
        "environment": (1, 0),
        "vms": [
            ((1, 1, 1), (0, 4), {"vcpu": 8, "vram": 16, "vnet": 150, "ucpu": 8, "uram": 16, "unet": 150}),
            ((1, 1, 2), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50, "ucpu": 5, "uram": 12, "unet": 50}),
            ((1, 2, 1), (0, 4), {"vcpu": 5, "vram": 12, "vnet": 50, "ucpu": 5, "uram": 12, "unet": 50}),
            ((1, 2, 2), (0, 4), {"vcpu": 9, "vram": 18, "vnet": 170, "ucpu": 9, "uram": 18, "unet": 170}),
            ((2, 1, 3), (2, 5), {"vcpu": 2, "vram": 10, "vnet": 60, "ucpu": 2, "uram": 10, "unet": 60}),
            ((2, 2, 3), (2, 5), {"vcpu": 8, "vram": 20, "vnet": 120, "ucpu": 8, "uram": 20, "unet": 120}),
        ],
    },
    FixtureId.ENV_2_0: {
        "environment": (2, 0),
        "vms": [
            ((1, 1, 1), (0, 4), {"vcpu": [8, 9, 9, 11], "vram": [16, 22, 23, 25], "vnet": 150,
                                 "ucpu": 8, "uram": 16, "unet": 150}),
            ((1, 1, 2), (0, 4), {"vcpu": [5, 6, 6, 5], "vram": [12, 15, 15, 16], "vnet": 50,
                                 "ucpu": 5, "uram": 12, "unet": 50}),
            ((1, 2, 1), (0, 4), {"vcpu": [5, 6, 6, 7], "vram": [12, 18, 18, 20], "vnet": 50,
                                 "ucpu": 5, "uram": 12, "unet": 50}),
            ((1, 2, 2), (0, 4), {"vcpu": [9, 6, 6, 5], "vram": [18, 10, 10, 12], "vnet": 170,
                                 "ucpu": 9, "uram": 18, "unet": 170}),
        ],
    },
}

_HORIZON = 6
_NUM_DATACENTERS = 2
_SLA_LEVELS = 1


def _series(value, length: int) -> list:
    if isinstance(value, list):
        if len(value) != length:
            raise AssertionError("fixture table series has the wrong length")
        return value
    return [value] * length


def fixture_trace(fixture: FixtureId) -> Trace:
    """Return the bundled example trace for one of the four environments."""
    table = _TABLES[fixture]
    env = env_from_coords(*table["environment"])
    descriptors = []
    samples = []
    for key, (t_init, t_end), fields in table["vms"]:
        service_id, dc_id, vm_index = key
        descriptors.append(
            VmDescriptor(
                service_id=service_id,
                dc_id=dc_id,
                vm_index=vm_index,
                revenue=Decimal(0),
                sla=1,
                t_init=t_init,
                t_end=t_end,
            )
        )
        length = t_end - t_init
        columns = {name: _series(fields[name], length) for name in ("vcpu", "vram", "vnet", "ucpu", "uram", "unet")}
        for offset, t in enumerate(range(t_init, t_end)):
            samples.append(
                VmSample(
                    service_id=service_id,
                    dc_id=dc_id,
                    vm_index=vm_index,
                    t=t,
                    spec=ResourceSpec(
                        vcpu=columns["vcpu"][offset],
                        vram=columns["vram"][offset],
                        vnet=columns["vnet"][offset],
                    ),
                    util=UtilizationSample(
                        ucpu=columns["ucpu"][offset],
                        uram=columns["uram"][offset],
                        unet=columns["unet"][offset],
                    ),
                )
            )
    header = TraceHeader(
        environment=env,
        horizon=_HORIZON,
        num_datacenters=_NUM_DATACENTERS,
        sla_levels=_SLA_LEVELS,
    )
    descriptors = tuple(descriptors)
    return Trace(header=header, descriptors=descriptors, events=lifecycle_events(descriptors), samples=tuple(samples))
