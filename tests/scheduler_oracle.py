"""The scheduling rule, one task at a time — the oracle for the array step.

:class:`~repro.runtime.scheduler.EventScheduler` computes a whole wave's
start times in one array step. This module keeps the rule in the form
it is *defined* in: a task starts at the latest of the barrier, its own
``(device, channel)`` queue, every shared resource it holds (in list
order) and every dependency (common before extras, in list order), each
applied as a strictly-greater update so ``blocked_by`` names the first
constraint that reached the maximum. :class:`OracleScheduler` overrides
only how a wave's times are assigned — the one method every submission
goes through, ``submit``, ``submit_batch`` and each wave of a replayed
``submit_program`` alike; validation, the structure-of-arrays storage
(the static columns included: the caller of ``_schedule`` writes them,
and the replay-vs-``submit_batch`` tests check them), ``validate()``
and every query are the production ones, so a test that builds the same
task stream on both compares the two rules and nothing else.

:func:`reference_breakdown` keeps the Fig. 9 accounting the same way,
in the form the timeline used to charge it: per wave, as it was
submitted, its longest task's seconds added to its channel's total —
the oracle for the scheduler's ``breakdown_by_channel`` view.

:func:`task_rows` reads the task columns back one task at a time, for
the per-task oracles (reports, admission, executor emission) that walk
a timeline task by task rather than aggregate it.
"""

from __future__ import annotations

from typing import List, NamedTuple

import numpy as np
import pytest

from repro.runtime.scheduler import DepLists, EventScheduler, _grown, _slot
from repro.runtime.task import CHANNELS

__all__ = ["OracleScheduler", "Row", "dep_lists", "install_scheduler_oracle",
           "reference_breakdown", "scheduler_state", "task_rows",
           "timeline_state"]


def dep_lists(entries) -> DepLists:
    """Per-task dependency entries — each None, one id or a sequence of
    ids — in the flat :class:`DepLists` form the scheduler takes. The ids
    keep their dtype, so a float id still reaches the scheduler's check."""
    arrays = [np.empty(0, dtype=np.int64) if entry is None
              else np.atleast_1d(np.asarray(entry)) for entry in entries]
    present = [array for array in arrays if len(array)]
    return DepLists(
        np.concatenate(present) if present else np.empty(0, dtype=np.int64),
        np.array([len(array) for array in arrays], dtype=np.int64))


def reference_breakdown(scheduler) -> dict:
    """Per channel, ``float(seconds.max())`` of every wave, added in
    submission order — a running total charged one wave at a time."""
    totals = dict.fromkeys(CHANNELS, 0.0)
    n = scheduler.num_tasks
    phase_of = scheduler._phase_of[:n]
    cuts = np.flatnonzero(phase_of[1:] != phase_of[:-1]) + 1
    for first, seconds in zip([0, *cuts.tolist()],
                              np.split(scheduler._seconds[:n], cuts)):
        if len(seconds):
            channel = CHANNELS[int(scheduler._channel_idx[first])]
            totals[channel] += float(seconds.max())
    return totals


class Row(NamedTuple):
    """One task, read off the scheduler's columns."""

    task_id: int
    channel: str
    device: int
    seconds: float
    start: float
    end: float
    label: str
    #: the task that set this one's start; -1 for a barrier or time zero
    blocked_by: int


def task_rows(scheduler) -> List[Row]:
    """Every task's row, in submission order, one task at a time."""
    columns = scheduler.columns()
    labels = scheduler.phase_labels()
    return [
        Row(task_id, CHANNELS[channel], device, seconds, start, end,
            labels[phase], blocked_by)
        for task_id, (channel, device, seconds, start, end, phase, blocked_by)
        in enumerate(zip(*(column.tolist() for column in (
            columns.channel, columns.device, columns.seconds, columns.start,
            columns.end, columns.phase, columns.blocked_by))))
    ]


def scheduler_state(scheduler) -> dict:
    """Everything a scheduler recorded — every column, the dependency
    lists (factored, and per task as ``deps``), the phase records, the frontiers of the shared resources and
    the busy totals — in comparable form."""
    n = scheduler.num_tasks
    state = {name: getattr(scheduler, name)[:n].tolist()
             for name in ("_start", "_end", "_blocked", "_seconds",
                          "_nbytes", "_device", "_channel_idx",
                          "_phase_of")}
    state["extra_off"] = scheduler._extra_off[:n + 1].tolist()
    state["extra_flat"] = scheduler._extra_flat[:scheduler._extra_len].tolist()
    state["phases"] = [
        (label, None if ids is None else ids.tolist())
        for label, ids in scheduler._phases]
    # per task, what it waited on: its phase's common ids, then its own
    off, flat = state["extra_off"], state["extra_flat"]
    state["deps"] = [
        (common or []) + flat[off[task]:off[task + 1]]
        for task, (_label, common) in enumerate(
            state["phases"][phase] for phase in state["_phase_of"])]
    state["shared"] = (scheduler._free_shared, scheduler._last_shared)
    state["busy"] = scheduler.busy_by_channel()
    return state


def timeline_state(timeline) -> dict:
    """Everything a timeline recorded, in comparable form: two timelines
    are the same schedule exactly when these dicts are equal."""
    state = scheduler_state(timeline.scheduler)
    state["breakdown"] = dict(timeline.breakdown.seconds)
    state["bytes"] = timeline.bytes_view()
    state["makespan"] = timeline.makespan
    return state


class OracleScheduler(EventScheduler):
    """Schedules every wave — repeated devices included — task by task."""

    def _schedule(self, wave, common, flat):
        # Reads only what the caller passed in — devices, seconds, holds
        # and the per-task list lengths — none of the derived fields the
        # array step keeps on the wave.
        off = (None if flat is None
               else np.concatenate(([0], np.cumsum(wave.lens))))
        for t in range(wave.k):
            self._schedule_one(
                wave.ch, int(wave.devices[t]), float(wave.seconds[t]), common,
                None if flat is None else flat[off[t]:off[t + 1]],
                () if wave.holds is None else wave.holds[t],
            )

    def _schedule_one(self, ch, device, seconds, common, extras, shared):
        index = _slot(device)
        self._free[ch] = _grown(self._free[ch], index + 1, 0.0)
        self._last[ch] = _grown(self._last[ch], index + 1, -1)
        start = self._barrier_time
        blocked = -1
        if self._free[ch][index] > start:
            start = self._free[ch][index]
            blocked = self._last[ch][index]
        for key, _hold in shared:
            shared_free = self._free_shared.get(key, 0.0)
            if shared_free > start:
                start = shared_free
                blocked = self._last_shared.get(key, -1)
        for dep_list in (common, extras):
            if dep_list is None:
                continue
            for dep in dep_list:
                if self._end[dep] > start:
                    start = self._end[dep]
                    blocked = dep
        task_id = self._n
        end = start + seconds
        self._start[task_id] = start
        self._end[task_id] = end
        self._blocked[task_id] = blocked
        self._free[ch][index] = end
        self._last[ch][index] = task_id
        self._busy_channel[ch] += seconds
        for key, hold in shared:
            if hold <= 0:
                continue  # zero holds never occupy the resource
            hold_end = start + hold
            if hold_end > self._free_shared.get(key, 0.0):
                self._free_shared[key] = hold_end
                self._last_shared[key] = task_id
        self._n = task_id + 1


@pytest.fixture
def install_scheduler_oracle(monkeypatch):
    """Returns ``install()``: after the call, every ``EventTimeline``
    built during the test schedules through :class:`OracleScheduler`
    (trainers, baselines and the serving engine all get their scheduler
    from the timeline). Undone at teardown."""
    def install():
        monkeypatch.setattr("repro.hardware.clock.EventScheduler",
                            OracleScheduler)
    return install
