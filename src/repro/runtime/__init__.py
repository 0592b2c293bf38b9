"""Event-timeline execution engine.

This subsystem replaces the barrier-serialized phase accounting of the
original reproduction with a discrete-event model of the machine: every
simulated action becomes a task on a per-device *channel* (compute queue,
PCIe copy engines, NVLink engine, host accumulator), the
:class:`~repro.runtime.scheduler.EventScheduler` resolves start times from
channel availability + task dependencies + barriers, and the epoch time is
the resulting critical-path makespan instead of the sum of phase maxima.

A task is an integer id and one row of the scheduler's task columns
(:class:`~repro.runtime.scheduler.TaskColumns`), the run's one record:
every submit returns ids, dependencies are ids, and the
:class:`~repro.hardware.clock.EventTimeline` in ``hardware/clock.py`` —
the trainer-facing wrapper — reads its breakdown (Fig. 9), busy and byte
views off the same columns. A DAG that is
emitted over and over is recorded once into a
:class:`~repro.runtime.scheduler.WaveProgram` and replayed
(``submit_program``) — validation and normalisation paid at record time.
"""

from repro.runtime.task import (
    CHANNELS,
    HOST_DEVICE,
    NET_DEVICE_BASE,
    OVERLAP_POLICIES,
    SPINE_RESOURCE,
    net_link,
    net_link_nodes,
    net_link_parts,
)
from repro.runtime.scheduler import (
    DepLists,
    EventScheduler,
    WaveProgram,
    WaveRecorder,
)
from repro.runtime.buffers import TransitionBuffers

__all__ = [
    "CHANNELS", "HOST_DEVICE", "NET_DEVICE_BASE", "SPINE_RESOURCE",
    "OVERLAP_POLICIES",
    "DepLists", "EventScheduler", "WaveProgram", "WaveRecorder",
    "TransitionBuffers",
    "net_link", "net_link_nodes", "net_link_parts",
]
