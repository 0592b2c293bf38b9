"""Event-timeline execution engine.

This subsystem replaces the barrier-serialized phase accounting of the
original reproduction with a discrete-event model of the machine: every
simulated action becomes a :class:`~repro.runtime.task.Task` on a
per-device *channel* (compute queue, PCIe copy engines, NVLink engine, host
accumulator), the :class:`~repro.runtime.scheduler.EventScheduler` resolves
start times from channel availability + task dependencies + barriers, and
the epoch time is the resulting critical-path makespan instead of the sum
of phase maxima.

The :class:`~repro.hardware.clock.EventTimeline` in ``hardware/clock.py``
is the trainer-facing wrapper; its breakdown (Fig. 9), busy and byte views
all read the scheduler's task columns, the run's one ledger. A DAG that is
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
    Task,
    net_link,
    net_link_nodes,
    net_link_parts,
)
from repro.runtime.scheduler import EventScheduler, WaveProgram, WaveRecorder
from repro.runtime.buffers import TransitionBuffers

__all__ = [
    "CHANNELS", "HOST_DEVICE", "NET_DEVICE_BASE", "SPINE_RESOURCE",
    "OVERLAP_POLICIES",
    "Task", "EventScheduler", "WaveProgram", "WaveRecorder",
    "TransitionBuffers",
    "net_link", "net_link_nodes", "net_link_parts",
]
