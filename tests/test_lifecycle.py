"""The lifecycle law: a trace's events are exactly what its VM lifetimes imply.

``analysis.lifecycle_events`` derives them; ``generate`` and the bundled
fixtures take their events from it. Here the derived events are checked
against the structural rules and the reader, over hand-drawn lifetimes.
"""

from __future__ import annotations

from collections import Counter
from decimal import Decimal

from hypothesis import example, given, settings, strategies as st

from vmptrace.analysis import MODE_STRICT, lifecycle_events, validate
from vmptrace.environments import env_from_coords
from vmptrace.model import EventKind, ResourceSpec, Trace, TraceHeader, VmDescriptor, VmSample, full_utilization
from vmptrace.traceio import read_trace, trace_to_bytes

_SPEC = ResourceSpec(2, 4, 10)


def _vm(service_id: int, dc_id: int, vm_index: int, t_init: int, t_end: int) -> VmDescriptor:
    return VmDescriptor(service_id, dc_id, vm_index, revenue=Decimal(0), sla=1, t_init=t_init, t_end=t_end)


@st.composite
def _lifetimes(draw):
    """A horizon and 1-4 services of 1-5 VMs each, spread over 1-3
    datacenters, with lifetimes inside [0, horizon], in any order."""
    horizon = draw(st.integers(1, 8))
    descriptors = []
    for service_id in range(1, draw(st.integers(1, 4)) + 1):
        next_index: dict[int, int] = {}
        for _ in range(draw(st.integers(1, 5))):
            dc_id = draw(st.integers(1, 3))
            next_index[dc_id] = next_index.get(dc_id, 0) + draw(st.integers(1, 2))
            t_init = draw(st.integers(0, horizon - 1))
            descriptors.append(_vm(service_id, dc_id, next_index[dc_id], t_init, draw(st.integers(t_init + 1, horizon))))
    return horizon, draw(st.permutations(descriptors))


def _trace(horizon: int, descriptors) -> Trace:
    """The derived events and one sample per alive tick of every VM."""
    samples = [
        VmSample(d.service_id, d.dc_id, d.vm_index, t, _SPEC, full_utilization(_SPEC))
        for d in descriptors
        for t in range(d.t_init, d.t_end)
    ]
    header = TraceHeader(env_from_coords(1, 0), horizon=horizon, num_datacenters=3)
    return Trace(header, tuple(descriptors), lifecycle_events(descriptors), tuple(samples))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(_lifetimes())
# a VM that scales out and back in
@example((6, [_vm(1, 1, 1, 0, 6), _vm(1, 1, 2, 2, 4)]))
# a service whose VMs all leave early but one
@example((6, [_vm(1, 1, 1, 0, 6), _vm(1, 1, 2, 0, 2), _vm(1, 2, 1, 0, 3)]))
# two services sharing a datacenter, with the same VM index there
@example((6, [_vm(1, 1, 1, 0, 3), _vm(2, 1, 1, 2, 5), _vm(2, 1, 2, 3, 6)]))
# descriptors given out of key order
@example((5, [_vm(2, 3, 4, 1, 5), _vm(1, 2, 1, 0, 3), _vm(2, 1, 1, 2, 4), _vm(1, 1, 2, 1, 2)]))
def test_derived_events_are_canonical_valid_and_read_back(case):
    horizon, descriptors = case
    trace = _trace(horizon, descriptors)
    events = trace.events
    keys = [event.sort_key for event in events]
    assert keys == sorted(set(keys))
    per_service = Counter((event.kind, event.service_id) for event in events if not event.kind.is_scale)
    services = {d.service_id for d in descriptors}
    assert per_service == Counter(
        {(kind, b): 1 for b in services for kind in (EventKind.SERVICE_ARRIVAL, EventKind.SERVICE_DEPARTURE)}
    )
    assert not [v for v in validate(trace, MODE_STRICT).violations if v.rule.startswith("structure.")]
    assert read_trace(trace_to_bytes(trace)).descriptors == tuple(sorted(descriptors, key=lambda d: d.key))


def test_a_vm_that_scales_out_and_back_in_has_both_scale_events():
    events = lifecycle_events((_vm(1, 1, 1, 0, 6), _vm(1, 1, 2, 2, 4)))
    assert [(e.t, e.kind, e.service_id, e.dc_id, e.vm_index) for e in events] == [
        (0, EventKind.SERVICE_ARRIVAL, 1, None, None),
        (2, EventKind.VM_SCALE_OUT, 1, 1, 2),
        (4, EventKind.VM_SCALE_IN, 1, 1, 2),
        (6, EventKind.SERVICE_DEPARTURE, 1, None, None),
    ]


def test_no_descriptors_imply_no_events():
    assert lifecycle_events(()) == ()
