"""Simulated time accounting.

Performance results in this reproduction are *modeled*, not wall-clock:
each algorithmic step becomes a task of an
:class:`~repro.runtime.scheduler.EventScheduler` on one of the hardware
channels, carrying its simulated seconds and the bytes it moves. The
channels are the paper's Fig. 9 components, with host↔GPU traffic split
by direction:

* ``gpu``  — GPU kernel time (flops / achieved throughput),
* ``h2d``  — host→GPU transfers over PCIe,
* ``d2h``  — GPU→host transfers over PCIe (writebacks, gradient flushes),
* ``d2d``  — inter-GPU transfers over NVLink/P2P,
* ``cpu``  — host-side gradient accumulation,
* ``net``  — inter-node network transfers of the simulated cluster
  (all-reduce, halo exchange; zero on a single-node run).

(Fig. 9 reports both PCIe directions as one "H2D" bar; summing the ``h2d``
and ``d2h`` channels reproduces it. The paper's single-server runs never
use ``net``; the DistGNN baseline and the multi-node HongTu extension
do.)

There is one concurrency model and one ledger. :class:`EventTimeline` is
event-driven: the epoch time is the critical-path makespan of the
scheduled tasks. The paper's barrier-synchronized accounting — a phase's
wall time is the max over GPUs and phases serialize — is the same
timeline with ``barrier_all=True``. The per-channel
:class:`TimeBreakdown` (per-phase bottleneck-device seconds) and the
bytes moved per channel are *views* of the scheduler's task columns, so
Fig. 9 style component reports are identical under every overlap policy
and nothing is written down twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.runtime.scheduler import EventScheduler, WaveProgram, phase_wave
from repro.runtime.task import CHANNELS, HOST_DEVICE
from repro.units import Seconds

__all__ = ["TimeBreakdown", "EventTimeline"]


@dataclass
class TimeBreakdown:
    """Per-channel simulated seconds (a value: see
    :attr:`EventTimeline.breakdown`)."""

    seconds: Dict[str, Seconds] = field(
        default_factory=lambda: dict.fromkeys(CHANNELS, 0.0)
    )

    @property
    def total(self) -> Seconds:
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, Seconds]:
        return dict(self.seconds)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{channel}={seconds:.4f}s" for channel, seconds in self.seconds.items()
        )
        return f"TimeBreakdown({parts}, total={self.total:.4f}s)"


class EventTimeline:
    """Event-driven clock: tasks on per-device channels + their views.

    Parameters
    ----------
    barrier_all:
        When True, a global barrier follows every submitted phase — the
        timeline then reproduces the original serialized-phase semantics
        exactly (makespan == sum of per-phase maxima). When False, tasks
        overlap wherever channels and explicit dependencies allow.

    The :attr:`breakdown` view books each phase's bottleneck-device
    seconds to its channel regardless of overlap, so per-component
    reports (Fig. 9) are identical under both settings; only
    :attr:`makespan` changes.
    """

    def __init__(self, barrier_all: bool = False):
        self.barrier_all = barrier_all
        self.scheduler = EventScheduler()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_batch(self, channel: str,
                     per_device_seconds: Sequence[Seconds], *,
                     devices: Optional[Sequence[int]] = None,
                     deps=None,
                     deps_by_device: Optional[Sequence] = None,
                     shared_by_device: Optional[Sequence] = None,
                     nbytes=None, label: str = "") -> np.ndarray:
        """Submit one parallel wave — one task per device — as task ids.

        The whole wave is scheduled in one array step and followed by a
        barrier under ``barrier_all``; ``nbytes[k]`` (None: none) is the
        bytes device k's task moves. ``deps`` (an id, an id array or an
        iterable of ids) gate every task of the wave, and
        ``deps_by_device`` additionally gates each device's task: an
        ``(m,)`` id array is one producer per device, and a
        :class:`~repro.runtime.scheduler.DepLists` is every device's list
        in one flat array. A wave the scheduler
        rejects raises before this timeline changes.
        """
        devices, seconds = phase_wave(per_device_seconds, devices,
                                      deps_by_device)
        ids = self.scheduler.submit_batch(
            channel, devices, seconds, common_deps=deps,
            extra_deps=deps_by_device, label=label,
            shared_by_task=shared_by_device, nbytes=nbytes,
        )
        if len(ids) and self.barrier_all:  # an empty wave is no phase
            self.scheduler.barrier()
        return ids

    #: one parallel phase, one task per device: the same call
    submit_phase = submit_batch

    @property
    def num_tasks(self) -> int:
        """Tasks submitted so far (ids ``0 .. num_tasks - 1``)."""
        return self.scheduler.num_tasks

    def submit_program(self, program: WaveProgram,
                       external_ids=()) -> np.ndarray:
        """Replay a recorded program; returns its task ids.

        What :meth:`submit_batch` would leave had the program's waves
        been submitted one by one with ``external_ids`` in place of the
        recorder's external placeholders: the same tasks, a barrier
        after each under ``barrier_all``. See
        :meth:`~repro.runtime.scheduler.EventScheduler.submit_program`.
        """
        return self.scheduler.submit_program(
            program, external_ids, barrier_each=self.barrier_all)

    def add(self, channel: str, seconds: Seconds, *,
            device: int = HOST_DEVICE, label: str = "") -> int:
        """Submit one serial task (a phase of one, no dependencies);
        returns its id."""
        task_id = self.scheduler.submit(channel, device, seconds,
                                        label=label)
        if self.barrier_all:
            self.scheduler.barrier()
        return task_id

    def barrier(self) -> Seconds:
        """Global synchronization point for subsequently submitted tasks."""
        return self.scheduler.barrier()

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> Seconds:
        """Critical-path epoch time under the scheduled overlap."""
        return self.scheduler.makespan

    @property
    def breakdown(self) -> TimeBreakdown:
        """Per-channel serialized-phase seconds: each phase's bottleneck
        task, summed (the Fig. 9 components; ``total`` is what the epoch
        would cost with barriers)."""
        return TimeBreakdown(self.scheduler.breakdown_by_channel())

    def busy_view(self) -> Dict[str, Seconds]:
        """Per-channel busy seconds summed over devices (utilization view)."""
        return self.scheduler.busy_by_channel()

    def bytes_view(self) -> Dict[str, int]:
        """Per-channel bytes moved, summed over tasks."""
        return self.scheduler.bytes_by_channel()

    def overlap_saving(self) -> Seconds:
        """Seconds hidden by overlap: serialized total minus makespan."""
        return max(0.0, self.breakdown.total - self.makespan)

    def validate(self) -> None:
        self.scheduler.validate()

    def __repr__(self) -> str:
        return (
            f"EventTimeline(tasks={self.scheduler.num_tasks}, "
            f"makespan={self.makespan:.4f}s, "
            f"serialized={self.breakdown.total:.4f}s)"
        )
