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
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.scheduler import EventScheduler, _grown, _slot
from repro.runtime.task import CHANNELS

__all__ = ["OracleScheduler", "install_scheduler_oracle",
           "reference_breakdown", "timeline_state"]


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


def timeline_state(timeline) -> dict:
    """Everything a timeline recorded, in comparable form: two timelines
    are the same schedule exactly when these dicts are equal."""
    scheduler = timeline.scheduler
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
    state["shared"] = (scheduler._free_shared, scheduler._last_shared)
    state["busy"] = scheduler.busy_by_channel()
    state["busy_by_device"] = {
        (channel, device): scheduler.busy_seconds(channel, device)
        for channel in CHANNELS for device in scheduler.devices()}
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
