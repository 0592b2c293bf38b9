"""Simulated time accounting.

Performance results in this reproduction are *modeled*, not wall-clock: each
algorithmic step charges seconds to a category of a :class:`TimeBreakdown` —
the paper's Fig. 9 components, with host↔GPU traffic split by direction:

* ``gpu``  — GPU kernel time (flops / achieved throughput),
* ``h2d``  — host→GPU transfers over PCIe,
* ``d2h``  — GPU→host transfers over PCIe (writebacks, gradient flushes),
* ``d2d``  — inter-GPU transfers over NVLink/P2P,
* ``cpu``  — host-side gradient accumulation,
* ``net``  — inter-node network transfers of the simulated cluster
  (all-reduce, halo exchange; zero on a single-node run).

(Fig. 9 reports both PCIe directions as one "H2D" bar; summing the ``h2d``
and ``d2h`` categories reproduces it. The paper's single-server runs never
charge ``net``; the DistGNN baseline and the multi-node HongTu extension
do.)

There is one concurrency model. :class:`EventTimeline` is event-driven:
every charge becomes a :class:`~repro.runtime.task.Task` on a per-device
channel of an :class:`~repro.runtime.scheduler.EventScheduler`, and the
epoch time is the critical-path makespan. The paper's barrier-synchronized
accounting — a phase's wall time is the max over GPUs and phases serialize
— is the same timeline with ``barrier_all=True``. :class:`TimeBreakdown` is
the per-category ledger the timeline derives as it goes (per-phase
bottleneck-device seconds), so Fig. 9 style component reports are identical
under every overlap policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

from repro.runtime.scheduler import EventScheduler, WaveProgram, phase_wave
from repro.runtime.task import HOST_DEVICE, Task
from repro.units import Seconds

__all__ = ["TimeBreakdown", "EventTimeline", "CATEGORIES"]

CATEGORIES = ("gpu", "h2d", "d2h", "d2d", "cpu", "net")


@dataclass
class TimeBreakdown:
    """Per-category simulated seconds."""

    seconds: Dict[str, Seconds] = field(
        default_factory=lambda: {category: 0.0 for category in CATEGORIES}
    )

    def add(self, category: str, seconds: Seconds) -> None:
        """Charge ``seconds`` of serialized time to ``category``."""
        if category not in self.seconds:
            raise ConfigurationError(f"unknown time category {category!r}")
        if not 0 <= seconds < math.inf:  # also False for NaN
            raise ConfigurationError(
                f"time must be finite and >= 0, got {seconds}")
        self.seconds[category] += seconds

    @property
    def total(self) -> Seconds:
        return sum(self.seconds.values())

    def as_dict(self) -> Dict[str, Seconds]:
        return dict(self.seconds)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{category}={seconds:.4f}s" for category, seconds in self.seconds.items()
        )
        return f"TimeBreakdown({parts}, total={self.total:.4f}s)"


class EventTimeline:
    """Event-driven clock: tasks on per-device channels + a category view.

    Parameters
    ----------
    barrier_all:
        When True, a global barrier follows every submitted phase — the
        timeline then reproduces the original serialized-phase semantics
        exactly (makespan == sum of per-phase maxima). When False, tasks
        overlap wherever channels and explicit dependencies allow.

    The derived :attr:`breakdown` charges each phase's bottleneck-device
    seconds to its category regardless of overlap, so per-component reports
    (Fig. 9) are identical under both settings; only :attr:`makespan`
    changes.
    """

    def __init__(self, barrier_all: bool = False):
        self.barrier_all = barrier_all
        self.scheduler = EventScheduler()
        self.breakdown = TimeBreakdown()

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_phase(self, category: str,
                     per_device_seconds: Sequence[Seconds], *,
                     channel: Optional[str] = None,
                     devices: Optional[Sequence[int]] = None,
                     deps: Sequence[Task] = (),
                     deps_by_device: Optional[Sequence] = None,
                     shared_by_device: Optional[Sequence] = None,
                     label: str = "") -> List[Task]:
        """Submit one parallel phase: one task per device.

        ``deps`` apply to every task of the phase; ``deps_by_device[k]``
        (a Task or an iterable of Tasks) additionally gates device k's task.
        ``shared_by_device[k]`` is a sequence of ``(resource, hold)``
        pairs device k's task occupies (topology contention — e.g. the
        spine core). Returns the submitted tasks in device order: this is
        :meth:`submit_batch` with the returned ids materialized as
        :class:`~repro.runtime.task.Task` objects, for callers that
        chain phases through Tasks (the baselines) rather than id arrays.
        """
        ids = self.submit_batch(
            category, list(per_device_seconds), channel=channel,
            devices=devices, deps=deps, deps_by_device=deps_by_device,
            shared_by_device=shared_by_device, label=label,
        )
        tasks = self.scheduler.tasks
        return [tasks[task_id] for task_id in ids.tolist()]

    def submit_batch(self, category: str,
                     per_device_seconds: Sequence[Seconds], *,
                     channel: Optional[str] = None,
                     devices: Optional[Sequence[int]] = None,
                     deps=None,
                     deps_by_device: Optional[Sequence] = None,
                     shared_by_device: Optional[Sequence] = None,
                     label: str = "") -> np.ndarray:
        """Submit one parallel wave — one task per device — as task ids.

        The whole wave is scheduled in one array step, charged to the
        breakdown at its bottleneck device's seconds, and followed by a
        barrier under ``barrier_all``; dependencies are task-id arrays,
        so no ``Task`` objects are materialized on the hot path. ``deps``
        and each ``deps_by_device[k]`` entry may be id arrays, Tasks, or
        iterables of either (``None`` entries are fine); an ``(m,)`` id
        array as ``deps_by_device`` is one producer per device. A wave
        the scheduler rejects raises before this timeline changes too:
        nothing is charged.
        """
        channel, devices, seconds = phase_wave(
            category, per_device_seconds, channel, devices, deps_by_device)
        ids = self.scheduler.submit_batch(
            channel, devices, seconds, common_deps=deps,
            extra_deps=deps_by_device, category=category, label=label,
            shared_by_task=shared_by_device,
        )
        if len(ids):  # an empty wave is no phase (a rejected one raised)
            self.breakdown.add(category, float(seconds.max()))
            if self.barrier_all:
                self.scheduler.barrier()
        return ids

    def submit_program(self, program: WaveProgram,
                       external_ids=()) -> np.ndarray:
        """Replay a recorded program; returns its task ids.

        What :meth:`submit_batch` would leave had the program's waves
        been submitted one by one with ``external_ids`` in place of the
        recorder's external placeholders: the same tasks, one
        bottleneck-seconds breakdown charge per wave, a barrier after
        each under ``barrier_all``. See
        :meth:`~repro.runtime.scheduler.EventScheduler.submit_program`.
        """
        ids = self.scheduler.submit_program(
            program, external_ids, barrier_each=self.barrier_all)
        for category, seconds in program.charges:
            self.breakdown.add(category, seconds)
        return ids

    def add(self, category: str, seconds: Seconds, *,
            device: int = HOST_DEVICE, channel: Optional[str] = None,
            deps: Sequence[Task] = (), label: str = "") -> Task:
        """Submit one serial task (and charge it fully to the breakdown)."""
        task = self.scheduler.submit(
            channel or category, device, seconds, deps=deps,
            category=category, label=label,
        )
        self.breakdown.add(category, seconds)
        if self.barrier_all:
            self.scheduler.barrier()
        return task

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
    def seconds(self) -> Dict[str, Seconds]:
        """Category seconds of the derived breakdown (TimeBreakdown-compat)."""
        return self.breakdown.seconds

    @property
    def total(self) -> Seconds:
        """Serialized-phase total (what the epoch would cost with barriers)."""
        return self.breakdown.total

    def busy_view(self) -> Dict[str, Seconds]:
        """Per-channel busy seconds summed over devices (utilization view)."""
        return self.scheduler.busy_by_channel()

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
