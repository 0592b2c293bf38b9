"""Discrete-event scheduler over per-device channels.

The scheduler assigns start/end times (simulated seconds) to submitted
units of work. A task starts at the latest of

* the end of the previous task on its ``(device, channel)`` resource
  (hardware queues execute in order),
* the free time of every *shared resource* it occupies (e.g. the
  oversubscribed spine core of a ``spine`` network topology),
* the end of every task it depends on,
* the most recent global barrier.

Submission order must be a topological order of the dependency DAG (the
trainers submit tasks in program order, which satisfies this by
construction). Because every start time is a monotone function of
dependency end times and resource availability, removing a dependency or a
barrier can never *increase* any start time — which is why the ``pipeline``
overlap policy is guaranteed to produce a makespan no larger than the
``barrier`` policy for the same task stream.

This is the timing half of the reproduction: the paper's barrier-
synchronized Algorithms 1-3 correspond to a barrier after every submitted
phase (epoch time = sum of per-phase maxima, the Fig. 9 accounting), while
the pipelined schedule keeps only true data dependencies and reads the
epoch time off the critical path. Cluster scale-out adds ``net``-channel
tasks on per-link resources (:func:`~repro.runtime.task.net_link`) to the
same DAG, so halo traffic competes/overlaps with PCIe and kernels under
exactly the same rules.

Storage is structure-of-arrays: start/end/seconds/bytes/device/channel live
in growable numpy arrays, resource frontiers in dense per-channel arrays
indexed by one zig-zag slot per device id (GPUs, the host pseudo-device
and encoded network links interleave, so none of them hashes), and
dependency lists in a factored form — one shared *common* array per
submitted phase plus flattened per-task extras — so a phase whose every
task waits on the same producers stores those ids once, not once per
task. Each column is written once, by whoever knows it: the *static*
ones (seconds, bytes, device, channel, phase, dependency lists) by the
array step's caller — one store per wave, or per replayed program — and
start/end/``blocked_by`` by the step. They are the run's only ledger:
busy seconds, the makespan, the Fig. 9 breakdown and the bytes per
channel are derived from them when somebody asks. They are also the only
per-task record: a task is its id, every submit returns ids, and
:meth:`EventScheduler.columns` hands out read-only views of the rows.

There is one scheduling core: :meth:`EventScheduler.submit_batch` hands a
whole parallel wave to the array step, :meth:`EventScheduler.submit` a
wave of one; the step computes times and nothing else. Across distinct
devices everything is order-free — queue frontier, dependency maximum
(one producer per task: that producer's end, no reduction), ``end =
start + seconds`` — except the frontier of a *shared* resource, ``F <-
max(start, F) + hold``, a recurrence over the wave in submission order.
Only waves that carry a hold run it, as one short loop over Python
floats. A wave's devices are distinct — Algorithms 1-3 issue one task
per GPU per phase — or the wave is a *chain*: all its tasks on one
queue, no per-task extras, no holds (a serving horizon's admission
clock), whose recurrence ``start = previous end`` is one running sum.
Any other wave is rejected before any state changes. Either way
``start``, ``end`` and ``blocked_by`` are exactly what one-task-at-a-time
submission assigns — that rule lives in ``tests/scheduler_oracle.py``,
which the identity tests compare this core against on randomized DAGs
and whole epochs.

A wave has a static half — channel, devices, durations, bytes, holds,
how many dependencies each task lists — and a dynamic one: which tasks those
dependencies are. :class:`_Wave` holds the first, validated, normalised
and with everything the array step derives from it alone worked out;
the dependency ids travel beside it. A DAG that is emitted again and
again (a serving column's forward pass, once per request) is recorded
once through a :class:`WaveRecorder` into a :class:`WaveProgram` — its
waves' static halves plus every dependency as a *reference*, either to
an earlier task of the program or to a numbered *external slot*, and
the static columns of all its tasks end to end — and
:meth:`EventScheduler.submit_program` replays it: bind the slots to
task ids, resolve all references in one indexed read, write each static
column with one store, and run the same array step per recorded wave.
Nothing about a replayed wave is re-validated, re-derived or re-stored
except the external ids; the schedule it leaves is the one
``submit_batch`` would have, bit for bit
(``tests/test_runtime.py::TestWavePrograms``).
"""

from __future__ import annotations

from collections.abc import Sequence as _Sequence
from dataclasses import dataclass
from typing import (
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SchedulerError
from repro.runtime.task import CHANNELS
from repro.units import Seconds

__all__ = ["DepLists", "EventScheduler", "TaskColumns", "WaveProgram",
           "WaveRecorder", "phase_wave", "task_ids"]

_CHANNEL_INDEX = {channel: index for index, channel in enumerate(CHANNELS)}

_INF = float("inf")
_NEG_INF = -_INF
_NO_IDS = np.empty(0, dtype=np.int64)
#: seconds of float slack :meth:`EventScheduler.validate` allows an
#: overlap or an early start
_VALIDATE_EPS = 1e-9


class TaskColumns(NamedTuple):
    """Per-task columns of a scheduler, submission order (read-only
    views — the answer to :meth:`EventScheduler.columns`)."""

    #: device id of each task
    device: np.ndarray
    #: index into :data:`~repro.runtime.task.CHANNELS` of each task
    channel: np.ndarray
    #: duration of each task, simulated seconds
    seconds: np.ndarray
    #: bytes each task moved
    nbytes: np.ndarray
    #: index of each task's phase (its wave)
    phase: np.ndarray
    #: simulated start of each task, seconds since time zero
    start: np.ndarray
    #: simulated end of each task (``start + seconds``)
    end: np.ndarray
    #: id of the task whose end (or shared-resource release) set each
    #: task's start; -1 where a barrier or time zero did
    blocked_by: np.ndarray
    #: per channel, ``CHANNELS`` order: ascending ids of the devices that
    #: ran at least one task on it
    used: Tuple[np.ndarray, ...]


def task_ids(entries) -> np.ndarray:
    """Normalize None | one id | an iterable or array of ids to a 1-D
    int64 id array. A float or bool id is rejected, never truncated onto
    a neighbouring task; a 2-D array is rejected, never flattened."""
    if entries is None:
        return _NO_IDS
    if not isinstance(entries, np.ndarray):
        entries = np.asarray(entries)
    if entries.ndim == 0:  # one bare id: what submit returns
        entries = entries.reshape(1)
    if entries.ndim != 1:
        raise SchedulerError(
            f"task ids must form a 1-D array, got shape {entries.shape}")
    if entries.dtype.kind not in "iu":
        if entries.size == 0:  # np.asarray([]) is float64
            return _NO_IDS
        raise SchedulerError(
            f"task ids must be integers, got dtype {entries.dtype}")
    return entries.astype(np.int64, copy=False)


class DepLists:
    """Per-task dependency lists as one flat id array and a count per task
    — the CSR ``ptr`` layout: task ``t``'s entry is
    ``ids[sum(counts[:t]):sum(counts[:t + 1])]``, in order.

    The form a wave's per-task dependencies take without one Python object
    per task: emitters build it with array ops (:meth:`join`). Built
    unchecked; a scheduler or recorder validates it on submission.
    """

    __slots__ = ("ids", "counts")

    def __init__(self, ids, counts):
        self.ids, self.counts = ids, counts

    def __len__(self) -> int:
        """One entry per task."""
        return len(self.counts)

    def __repr__(self) -> str:
        return f"DepLists(ids={self.ids!r}, counts={self.counts!r})"

    @classmethod
    def join(cls, k: int, *parts) -> "DepLists":
        """Per task, the parts' entries one after another, in argument
        order. Each part is a ``(k,)`` array (one id per task), an empty
        array (nothing) or a :class:`DepLists` of ``k`` entries."""
        ids, owners, counts = [], [], np.zeros(k, dtype=np.int64)
        tasks = np.arange(k)
        for part in parts:
            if len(part) not in (0, k):
                raise SchedulerError(
                    f"a joined part lists one entry per task ({k}), "
                    f"got {len(part)}")
            if isinstance(part, DepLists):
                if len(part.ids):
                    ids.append(part.ids)
                    owners.append(np.repeat(tasks, part.counts))
                    counts += part.counts
            elif len(part):
                ids.append(part)
                owners.append(tasks)
                counts += 1
        if not ids:
            return cls(_NO_IDS, counts)
        # each part lists its ids in task order; a stable sort by task
        # keeps, within a task, the parts in argument order
        order = np.argsort(np.concatenate(owners), kind="stable")
        return cls(np.concatenate(ids)[order], counts)


def _require_ordered(name: str, per_task) -> None:
    """A per-task container must be an ordered, re-readable sequence: a
    set or a dict would be read in its own order (a dict by its keys),
    a generator not at all."""
    if not isinstance(per_task, (np.ndarray, DepLists, _Sequence)):
        raise SchedulerError(
            f"{name} must be an ordered sequence with one entry per task, "
            f"got a {type(per_task).__name__}")


def _dep_lists(deps: DepLists, k: int) -> Tuple[Optional[np.ndarray],
                                                Optional[np.ndarray]]:
    """``(flat ids, counts)`` of ``k`` validated per-task lists, both None
    when no task lists any; the counts are a fresh array."""
    ids = task_ids(deps.ids)
    counts = np.asarray(deps.counts)
    if not (counts.shape == (k,) and counts.dtype.kind in "iu"
            and counts.min() >= 0 and counts.max() <= len(ids)
            and counts.sum() == len(ids)):
        raise SchedulerError(
            f"per-task dependency counts must be {k} integers >= 0 "
            f"summing to the {len(ids)} listed ids, got {deps.counts!r}")
    if not len(ids):
        return None, None
    return ids, counts.astype(np.int64)


def _capacity(need: int, have: int) -> int:
    """Slots to grow ``have`` to when ``need`` are wanted: at least twice
    as many, rounded up to a power of two — however large the first
    wave, the doubling ladder stays on powers of two."""
    return 1 << (max(need, 2 * have, 8) - 1).bit_length()


def _resized(array: np.ndarray, size: int, fill=0) -> np.ndarray:
    """A ``size``-slot copy of ``array``, the new slots ``fill``."""
    out = np.full(size, fill, dtype=array.dtype)
    out[: len(array)] = array
    return out


def _grown(array: np.ndarray, need: int, fill=0) -> np.ndarray:
    """``array`` if it already has ``need`` slots, else a grown copy."""
    if need <= len(array):
        return array
    return _resized(array, _capacity(need, len(array)), fill)


def _slot(device):
    """Frontier index of a device id (int or int64 array), zig-zag: GPU
    ``g`` is slot ``2g``; the host and the network links take the odd
    slots, so one dense array per channel serves them all."""
    return (device << 1) ^ (device >> 63)


def _real(seconds) -> np.ndarray:
    """``seconds`` as a float64 array (strings, complex, bools:
    malformed — a bool would run as 1 s or 0 s)."""
    try:
        if np.asarray(seconds).dtype.kind != "b":
            return np.asarray(seconds, dtype=np.float64)
    except (TypeError, ValueError):
        pass
    raise SchedulerError(f"seconds must be real numbers, got {seconds!r}")


class _Wave:
    """The static half of one wave, in the form the array step reads it.

    Channel, devices, durations, bytes (None: none), holds and the
    *shape* of the per-task dependency lists (``lens[t]`` extra ids for
    task ``t``, ``seg_ends`` their running total; None when no task has
    any) — plus everything that derives from those alone: the frontier
    slots, the wave's busy total, and for the per-task dependency
    maximum either ``single`` (one producer per task: nothing to reduce)
    or the segment bookkeeping of ragged lists. A wave's devices are
    distinct, or it is a ``chain``: two or more tasks on one device,
    with no extras and no holds — one queue, each task starting where
    the previous one ended. Any other wave that repeats a device raises
    :class:`~repro.errors.SchedulerError` here, before it reaches a
    scheduler or a recorder.
    The dependency *ids* are the dynamic half and travel beside it. A
    wave submitted once builds this on the way in; a
    :class:`WaveProgram` builds it when the wave is recorded and never
    again.
    """

    __slots__ = ("ch", "devices", "seconds", "nbytes", "k", "lens", "holds",
                 "chain", "slot", "need", "total", "single", "nz",
                 "seg_starts", "seg_ends", "seg_of", "positions")

    def __init__(self, ch: int, devices: np.ndarray, seconds: np.ndarray,
                 lens: Optional[np.ndarray], holds: Optional[Sequence],
                 nbytes: Optional[np.ndarray] = None):
        if lens is not None and not lens.any():
            lens = None
        k = len(seconds)
        self.ch, self.devices, self.seconds, self.k = ch, devices, seconds, k
        self.nbytes, self.lens, self.holds = nbytes, lens, holds
        self.seg_ends = None if lens is None else np.cumsum(lens)
        ordered = np.sort(devices) if k > 1 else devices
        repeats = k > 1 and bool((ordered[1:] == ordered[:-1]).any())
        self.chain = (repeats and lens is None and holds is None
                      and ordered[0] == ordered[-1])
        if repeats and not self.chain:
            raise SchedulerError(
                "a wave's devices must be distinct, or the wave a chain: "
                "every task on one device, no per-task dependencies, no "
                f"shared holds; got devices {devices.tolist()}")
        # a chain's one queue: the array step times its first task
        self.slot = _slot(devices[:1] if self.chain else devices)
        if self.slot.min() < 0:  # the zig-zag slot wrapped around
            raise SchedulerError(
                f"device ids must lie in [-2**62, 2**62), got a wave "
                f"spanning [{devices.min()}, {devices.max()}]")
        self.need = int(self.slot.max()) + 1
        self.total = seconds.sum()
        self.single = lens is not None and bool((lens == 1).all())
        if lens is not None and not self.single:
            self.nz = lens > 0
            self.seg_starts = (self.seg_ends - lens)[self.nz]
            # flat position -> index of the (non-empty) segment it is in
            self.seg_of = np.repeat(np.arange(len(self.seg_starts)),
                                    lens[self.nz])
            self.positions = np.arange(len(self.seg_of))


def _byte_counts(nbytes, k: int) -> np.ndarray:
    """``nbytes`` as a fresh ``(k,)`` int64 array: one integer >= 0 per
    task (a float would be truncated, a NaN is no count)."""
    try:
        counts = np.asarray(nbytes)
        # np.asarray([]) is float64: an empty wave's empty list is fine
        if counts.shape == (k,) and (counts.dtype.kind in "iu" or not k):
            counts = counts.astype(np.int64)  # a copy: the caller keeps theirs
            if not k or counts.min() >= 0:  # negative: also a uint64 wrapped
                return counts
    except (TypeError, ValueError):  # ragged
        pass
    raise SchedulerError(
        f"nbytes must list one integer >= 0 per task ({k}), got {nbytes!r}")


def _prepare(channel: str, devices, seconds, common_deps, extra_deps,
             shared_by_task: Optional[Sequence], nbytes=None):
    """Validate and normalise one wave: ``(static half, common ids, flat
    extra ids)``, or None for an empty wave.

    Everything about a wave that can be judged without a scheduler is
    judged here, and raises :class:`~repro.errors.SchedulerError` before
    any state is touched; what is left to the caller is the *range* of
    the returned ids (a scheduler's tasks, or a program's own).
    ``extra_deps`` is a ``(k,)`` id array (one producer per task) or a
    :class:`DepLists`; ``nbytes`` the bytes each task moves.
    """
    if channel not in CHANNELS:
        raise SchedulerError(f"unknown channel {channel!r}")
    devices = np.asarray(devices)
    seconds = _real(seconds)
    if devices.ndim != 1 or seconds.ndim != 1:
        raise SchedulerError(
            f"a wave's devices and seconds are 1-D, one entry per task: "
            f"got shapes {devices.shape} and {seconds.shape}"
        )
    k = len(seconds)
    if len(devices) != k:
        raise SchedulerError(
            f"devices/seconds length mismatch: {len(devices)} vs {k}"
        )
    if nbytes is not None:
        nbytes = _byte_counts(nbytes, k)
    if k == 0:
        return None
    if devices.dtype.kind not in "iu":  # a float would be truncated
        raise SchedulerError(
            f"device ids must be integers, got dtype {devices.dtype}"
        )
    if devices.dtype.kind == "u" and devices.max() >= 1 << 62:
        # would wrap negative as int64 (the zig-zag slot catches the rest)
        raise SchedulerError(
            f"device ids must lie in [-2**62, 2**62), got {devices.max()}")
    devices = devices.astype(np.int64, copy=False)
    # min/max propagate NaN and NaN fails both comparisons, so the
    # sign check's two reductions also catch non-finite durations —
    # a NaN would otherwise poison every dependant's end time and
    # then be *ignored* by the running makespan.
    if not (seconds.min() >= 0 and seconds.max() < _INF):
        raise SchedulerError(
            f"task durations must be finite and >= 0, got a wave "
            f"spanning [{seconds.min()}, {seconds.max()}]"
        )
    for name, per_task in (("extra_deps", extra_deps),
                           ("shared_by_task", shared_by_task)):
        if per_task is None:
            continue
        _require_ordered(name, per_task)
        if len(per_task) != k:
            raise SchedulerError(
                f"{name} must list one entry per task: "
                f"{len(per_task)} vs {k}"
            )
    if not (extra_deps is None
            or isinstance(extra_deps, (np.ndarray, DepLists))):
        raise SchedulerError(
            f"extra_deps must be a (k,) id array (one producer per task) "
            f"or a DepLists, got a {type(extra_deps).__name__}")
    holds = None
    try:
        if shared_by_task is not None and any(map(len, shared_by_task)):
            holds = tuple(map(tuple, shared_by_task))  # the wave's own
        # An infinite hold would park every later holder at inf.
        well_formed = all(0 <= hold < _INF  # also False for NaN
                          for task_holds in holds or ()
                          for _key, hold in task_holds)
    except (TypeError, ValueError):  # an entry is no list of pairs
        well_formed = False
    if not well_formed:
        raise SchedulerError(
            f"shared_by_task lists (resource, hold) pairs per task, holds "
            f"finite and >= 0: got {shared_by_task!r}")
    common = task_ids(common_deps)
    lens = flat = None
    if isinstance(extra_deps, np.ndarray):  # one producer per task
        flat = task_ids(extra_deps)
        lens = np.ones(k, dtype=np.int64)
    elif extra_deps is not None:
        flat, lens = _dep_lists(extra_deps, k)
    return (_Wave(_CHANNEL_INDEX[channel], devices, seconds, lens, holds,
                  nbytes),
            common if len(common) else None, flat)


def phase_wave(per_device_seconds, devices,
               deps_by_device: Optional[Sequence]):
    """The ``(devices, seconds)`` of one timeline phase: the part of
    :meth:`~repro.hardware.clock.EventTimeline.submit_batch`'s keyword
    surface that :class:`WaveRecorder` shares. The devices default to
    ``0 .. k-1``."""
    seconds = _real(per_device_seconds)
    if seconds.ndim != 1:
        raise SchedulerError(
            f"a phase's seconds are 1-D, one entry per device: got shape "
            f"{seconds.shape}")
    if devices is None:
        devices = np.arange(len(seconds), dtype=np.int64)
    if deps_by_device is None:
        return devices, seconds
    _require_ordered("deps_by_device", deps_by_device)
    if len(deps_by_device) != len(seconds):
        raise SchedulerError(
            f"deps_by_device must list one entry per device: "
            f"{len(deps_by_device)} vs {len(seconds)}"
        )
    return devices, seconds


@dataclass(frozen=True, repr=False, eq=False)  # compared by identity
class WaveProgram:
    """A recorded sequence of waves, replayed by
    :meth:`EventScheduler.submit_program`.

    Built only by :class:`WaveRecorder`. ``waves[i]`` is ``(static half,
    label, lo, mid, hi)``: the wave's common dependencies are
    ``refs[lo:mid]`` and its flattened per-task extras ``refs[mid:hi]``.
    ``refs`` holds every dependency reference of the program in one
    array, as indices into the replay's lookup table — ``s`` for
    external slot ``s``, ``num_external + t`` for the program's own
    task ``t`` — so a replay resolves them all in one indexed read.
    ``columns`` is what a replay stores without looking at a wave: per
    task its seconds, bytes, device, channel index, wave index and the
    end of its extras among the program's; then the positions of those
    extras in ``refs``. Immutable: replays only read it.
    """

    num_external: int
    num_tasks: int
    waves: tuple
    refs: np.ndarray
    columns: Tuple[np.ndarray, ...]

    def __repr__(self) -> str:
        return (f"WaveProgram(waves={len(self.waves)}, "
                f"tasks={self.num_tasks}, external={self.num_external})")


class WaveRecorder:
    """Records waves into a :class:`WaveProgram`.

    Stands in for an :class:`~repro.hardware.clock.EventTimeline` in
    front of an emitter: :meth:`submit_batch` takes the timeline's
    keyword surface, runs the scheduler's validation and normalisation
    — once, here, instead of on every replay — and returns
    *program-relative* task ids (``0 .. tasks recorded - 1``) for the
    emitter to wire later waves with. Tasks outside the program are
    named through :attr:`external`: placeholder ids, one per numbered
    slot, that the replay binds to real task ids. A dependency must be
    one of the two; anything else raises
    :class:`~repro.errors.SchedulerError`, as it would on a scheduler.
    """

    def __init__(self, num_external: int = 0):
        # a bool passes as an int; np.bool_ is no np.integer
        if isinstance(num_external, bool) or not isinstance(
                num_external, (int, np.integer)) or num_external < 0:
            raise SchedulerError(
                f"num_external must be an integer >= 0, got "
                f"{num_external!r}")
        #: placeholder ids of the external slots, slot order
        self.external = np.arange(-num_external, 0, dtype=np.int64)
        self._num_tasks = 0
        self._waves: List[tuple] = []
        self._refs: List[np.ndarray] = []
        self._num_refs = 0

    @property
    def num_tasks(self) -> int:
        """Tasks recorded so far (program-relative ids ``0 ..
        num_tasks - 1``)."""
        return self._num_tasks

    def _check_ids(self, ids: Optional[np.ndarray]) -> None:
        if ids is not None and not (ids.min() >= -len(self.external)
                                    and ids.max() < self._num_tasks):
            raise SchedulerError(
                f"dependency references an unsubmitted task: a recorded "
                f"wave may name external slots and the "
                f"{self._num_tasks} task(s) recorded before it, ids in "
                f"[{-len(self.external)}, {self._num_tasks}); got "
                f"[{ids.min()}, {ids.max()}]"
            )

    def submit_batch(self, channel: str, per_device_seconds, *,
                     devices=None, deps=None,
                     deps_by_device: Optional[Sequence] = None,
                     shared_by_device: Optional[Sequence] = None,
                     nbytes=None, label: str = "") -> np.ndarray:
        """Record one wave; returns its program-relative task ids."""
        devices, seconds = phase_wave(per_device_seconds, devices,
                                      deps_by_device)
        # The program outlives the call: keep nothing the caller owns.
        prepared = _prepare(channel, np.array(devices), seconds.copy(),
                            deps, deps_by_device, shared_by_device, nbytes)
        if prepared is None:
            return _NO_IDS
        wave, common, flat = prepared
        self._check_ids(common)
        self._check_ids(flat)
        lo = self._num_refs
        mid = lo + (0 if common is None else len(common))
        hi = self._num_refs = mid + (0 if flat is None else len(flat))
        self._refs += [ids + len(self.external) for ids in (common, flat)
                       if ids is not None]
        self._waves.append((wave, label, lo, mid, hi))
        first = self._num_tasks
        self._num_tasks += wave.k
        return np.arange(first, self._num_tasks, dtype=np.int64)

    def finish(self) -> WaveProgram:
        """The program recorded so far."""
        def joined(parts, dtype=np.int64):
            # led by an empty array: an empty program has no parts
            return np.concatenate([np.empty(0, dtype), *parts])

        waves = [wave for wave, *_ in self._waves]
        sizes = [wave.k for wave in waves]
        columns = (
            joined([wave.seconds for wave in waves], np.float64),
            joined([np.zeros(wave.k, np.int64) if wave.nbytes is None
                    else wave.nbytes for wave in waves]),
            joined([wave.devices for wave in waves]),
            np.repeat(joined([[wave.ch] for wave in waves]), sizes),
            np.repeat(np.arange(len(waves)), sizes),
            np.cumsum(joined([
                np.zeros(wave.k, np.int64) if wave.lens is None
                else wave.lens for wave in waves])),
            joined([np.arange(mid, hi) for *_, mid, hi in self._waves]),
        )
        return WaveProgram(len(self.external), self._num_tasks,
                           tuple(self._waves), joined(self._refs), columns)


class EventScheduler:
    """Assigns times to submitted tasks; answers makespan/busy queries.

    All times are simulated seconds (never wall clock). Devices are GPU
    indices (``>= 0``), :data:`~repro.runtime.task.HOST_DEVICE`, or encoded
    network links (``<= NET_DEVICE_BASE``); channels are the hardware
    queues of :data:`~repro.runtime.task.CHANNELS`. Beyond its own
    ``(device, channel)`` queue a task may occupy extra *shared resources*
    (e.g. an oversubscribed spine core) for part of its duration — the
    topology-contention substrate.
    """

    def __init__(self) -> None:
        self._n = 0
        cap = 64
        self._start = np.zeros(cap)
        self._end = np.zeros(cap)
        self._seconds = np.zeros(cap)
        self._nbytes = np.zeros(cap, dtype=np.int64)
        self._device = np.zeros(cap, dtype=np.int64)
        self._channel_idx = np.zeros(cap, dtype=np.int64)
        self._blocked = np.full(cap, -1, dtype=np.int64)
        self._phase_of = np.zeros(cap, dtype=np.int64)
        # One record per non-empty wave (a phase: a contiguous id
        # range): (label, common dep-id array or None).
        self._phases: List[tuple] = []
        # Per-task extra deps, flattened (offsets are len n+1).
        self._extra_flat = np.zeros(cap, dtype=np.int64)
        self._extra_off = np.zeros(cap + 1, dtype=np.int64)
        self._extra_len = 0
        # Resource frontiers: per channel, dense arrays indexed by
        # _slot(device) — when the queue frees and which task freed it.
        self._free = [np.zeros(0) for _ in CHANNELS]
        self._last = [np.full(0, -1, dtype=np.int64) for _ in CHANNELS]
        # Busy seconds per channel, one add a wave; per-device busy is
        # aggregated from the task columns when somebody asks.
        self._busy_channel = np.zeros(len(CHANNELS))
        # Shared resources (spine core) stay dict-keyed: few keys, and
        # their frontier updates are inherently order-dependent.
        self._free_shared: Dict[Hashable, float] = {}
        self._last_shared: Dict[Hashable, int] = {}
        self._barrier_time = 0.0
        # Makespan watermark: latest end (first max wins) and its task
        # id over tasks [0, _max_upto); _latest() folds in the rest.
        self._max_end, self._max_id, self._max_upto = 0.0, -1, 0

    @property
    def num_tasks(self) -> int:
        """Tasks submitted so far."""
        return self._n

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def _reserve(self, need: int) -> None:
        if need <= len(self._start):
            return
        # The task arrays grow together, so the one compare above
        # answers for all of them (offsets carry one slot more).
        cap = _capacity(need, len(self._start))
        self._start = _resized(self._start, cap, 0.0)
        self._end = _resized(self._end, cap, 0.0)
        self._seconds = _resized(self._seconds, cap, 0.0)
        self._nbytes = _resized(self._nbytes, cap)
        self._device = _resized(self._device, cap)
        self._channel_idx = _resized(self._channel_idx, cap)
        self._blocked = _resized(self._blocked, cap, -1)
        self._phase_of = _resized(self._phase_of, cap)
        self._extra_off = _resized(self._extra_off, cap + 1)

    def _check_ids(self, ids: Optional[np.ndarray],
                   what: str = "dependency") -> None:
        """Task ids must name already-submitted tasks.

        One reduction checks both bounds: viewed as unsigned, a negative
        id is larger than any task count.
        """
        if ids is not None and len(ids) \
                and ids.view(np.uint64).max() >= self._n:
            raise SchedulerError(
                f"{what} references an unsubmitted task: ids must lie "
                f"in [0, {self._n}), got [{ids.min()}, {ids.max()}]"
            )

    def submit(self, channel: str, device: int, seconds: Seconds,
               deps=(), label: str = "") -> int:
        """Schedule ``seconds`` of work on ``(device, channel)``.

        ``seconds`` is the task's simulated duration (e.g. bytes/bandwidth
        for a transfer, flops/throughput for a kernel); the assigned
        ``start`` is the earliest time permitted by the resource queue,
        ``deps`` and the latest barrier. Must be called in a topological
        order of the dependency DAG (program order suffices). ``deps`` is
        anything :func:`task_ids` accepts; an id outside ``[0,
        num_tasks)`` raises :class:`~repro.errors.SchedulerError`.
        Returns the task's id.
        """
        ids = self._wave(channel, [device], [seconds], deps, None,
                         label, None, None)  # a wave of one
        return int(ids[0])

    def submit_batch(self, channel: str, devices: np.ndarray,
                     seconds: np.ndarray,
                     common_deps: Optional[np.ndarray] = None,
                     extra_deps: Optional[Sequence] = None,
                     label: str = "",
                     shared_by_task: Optional[Sequence] = None,
                     nbytes=None) -> np.ndarray:
        """Schedule one parallel wave of tasks; returns their id array.

        ``devices[t]``/``seconds[t]`` describe task ``t``, ``nbytes[t]``
        the bytes it moves (None: the wave moves none); ``common_deps``
        (anything :func:`task_ids` accepts, None for no dependency) gate
        every task of the wave, and ``extra_deps`` additionally gates each
        task: one ``(k,)`` id array, a single producer per task, or a
        :class:`DepLists`, every task's list in one flat array. Any other
        ``extra_deps`` is rejected. Dependency ids must reference previously
        submitted tasks — a wave's tasks are mutually independent.
        ``shared_by_task[t]`` lists ``(resource, hold)`` pairs task ``t``
        occupies from its start for ``hold`` seconds (which may be shorter
        than the task itself — a spine core is held only for the excess
        transit time); a zero hold never delays anyone. The devices are
        distinct, or the wave is a chain (one device, no ``extra_deps``,
        no holds). The assigned times are identical to submitting the
        tasks one by one. Malformed input — a device repeated outside a
        chain, an unknown channel, 2-D or mis-sized arrays, an unordered or
        one-shot per-task container, non-integral devices, ids or byte
        counts, a device id beyond ``±2**62``, bool or non-finite
        durations or holds, negative byte counts, malformed
        :class:`DepLists` counts, an id out of range — raises
        :class:`~repro.errors.SchedulerError` before any state is
        touched.
        """
        return self._wave(channel, devices, seconds, common_deps, extra_deps,
                          label, shared_by_task, nbytes)

    def _wave(self, channel: str, devices, seconds, common_deps, extra_deps,
              label: str, shared_by_task: Optional[Sequence],
              nbytes) -> np.ndarray:
        """Validate and normalise one wave, record its phase, schedule it.
        Whatever is rejected is rejected before any state is touched."""
        prepared = _prepare(channel, devices, seconds, common_deps,
                            extra_deps, shared_by_task, nbytes)
        if prepared is None:
            return _NO_IDS
        wave, common, flat = prepared
        self._check_ids(common)
        self._check_ids(flat)
        self._phases.append((label, common))
        first = self._n
        self._store_static(wave.k, wave.seconds, wave.nbytes, wave.devices,
                           wave.ch, len(self._phases) - 1,
                           0 if flat is None else wave.seg_ends,
                           _NO_IDS if flat is None else flat)
        self._schedule(wave, common, flat)
        return np.arange(first, first + wave.k, dtype=np.int64)

    def _store_static(self, k: int, seconds, nbytes, devices, channels,
                      phases, extra_ends, extras: np.ndarray) -> None:
        """Write what is known of the next ``k`` tasks before they are
        scheduled, one store per column (``nbytes`` None: 0 each);
        ``extra_ends`` counts from the first of ``extras``, their flattened
        extra ids."""
        n0 = self._n
        self._reserve(n0 + k)
        sl = slice(n0, n0 + k)
        self._seconds[sl] = seconds
        self._nbytes[sl] = 0 if nbytes is None else nbytes
        self._device[sl] = devices
        self._channel_idx[sl] = channels
        self._phase_of[sl] = phases
        self._extra_off[n0 + 1:n0 + k + 1] = self._extra_len + extra_ends
        grown = self._extra_len + len(extras)
        self._extra_flat = _grown(self._extra_flat, grown)
        self._extra_flat[self._extra_len:grown] = extras
        self._extra_len = grown

    def submit_program(self, program: WaveProgram, external_ids=(),
                       barrier_each: bool = False) -> np.ndarray:
        """Replay a recorded :class:`WaveProgram`; returns its task ids.

        ``external_ids[s]`` is the task the program's external slot ``s``
        stands for; they are the only input left to check (integers, in
        range, one per slot) — everything else was validated when the
        waves were recorded. Every dependency reference of the program,
        program-relative or external, resolves in one indexed read, its
        static columns take one store each;
        then each recorded wave appends its phase record and takes the
        same array step as a wave submitted on its own, followed by a
        barrier under ``barrier_each``. The result — every task field, phase
        record and frontier — is what submitting the recorded waves one
        ``submit_batch`` at a time would have left.
        """
        if not isinstance(program, WaveProgram):
            raise SchedulerError(
                f"program must be a WaveProgram, got {program!r}")
        external = task_ids(external_ids)
        if len(external) != program.num_external:
            raise SchedulerError(
                f"program has {program.num_external} external slot(s), "
                f"got {len(external)} id(s)"
            )
        self._check_ids(external, "external id")
        first = self._n
        table = np.concatenate((
            external,
            np.arange(first, first + program.num_tasks, dtype=np.int64),
        ))
        resolved = table[program.refs]
        phases = self._phases
        seconds, nbytes, devices, channels, wave_of, extra_ends, positions \
            = program.columns
        self._store_static(program.num_tasks, seconds, nbytes, devices,
                           channels, wave_of + len(phases), extra_ends,
                           resolved[positions])
        for wave, label, lo, mid, hi in program.waves:
            common = resolved[lo:mid] if mid > lo else None
            phases.append((label, common))
            self._schedule(wave, common,
                           resolved[mid:hi] if hi > mid else None)
            if barrier_each:
                self.barrier()
        return table[program.num_external:]

    def _schedule(self, wave: _Wave, common: Optional[np.ndarray],
                  flat: Optional[np.ndarray]) -> None:
        """The one place a start time is computed: the array step.

        ``wave`` is the static half (:class:`_Wave`); ``common`` gates
        every task, and task ``t``'s ``wave.lens[t]`` extra dependency
        ids lie consecutively in ``flat`` (None when no task has any).
        Times the next ``wave.k`` tasks — their static columns are the
        caller's to write — and advances the frontiers; nothing else.
        """
        k, ch, slot, seconds = wave.k, wave.ch, wave.slot, wave.seconds
        holds = wave.holds
        n0 = self._n
        if wave.need > len(self._free[ch]):
            self._free[ch] = _grown(self._free[ch], wave.need, 0.0)
            self._last[ch] = _grown(self._last[ch], wave.need, -1)
        free_arr, last_arr = self._free[ch], self._last[ch]

        # Own queue: start at the barrier unless the queue frees later.
        free = free_arr[slot]
        queued = free > self._barrier_time
        starts = np.where(queued, free, self._barrier_time)
        blocked = np.where(queued, last_arr[slot], -1)

        # Dependencies: the binding dep is the *first* dep (common before
        # extras, in list order) whose end equals the running maximum —
        # what a strictly-greater update per dep, in that order, leaves.
        dep_max, dep_id = _NEG_INF, -1
        if common is not None:
            common_ends = self._end[common]
            c_arg = common_ends.argmax()  # first max
            dep_max, dep_id = float(common_ends[c_arg]), int(common[c_arg])
        if flat is not None:
            if wave.single:  # one producer each: nothing to reduce
                e_max, e_id = self._end[flat], flat
            else:
                nz, seg_starts = wave.nz, wave.seg_starts
                flat_ends = self._end[flat]
                seg_max = np.maximum.reduceat(flat_ends, seg_starts)
                # First index achieving each segment's max (tie → earliest).
                candidate = np.where(flat_ends == seg_max[wave.seg_of],
                                     wave.positions, len(flat))
                seg_first = np.minimum.reduceat(candidate, seg_starts)
                e_max = np.full(k, _NEG_INF)
                e_id = np.full(k, -1, dtype=np.int64)
                e_max[nz] = seg_max
                e_id[nz] = flat[seg_first]
            if common is None:  # -inf gates nothing: no merge to do
                dep_max, dep_id = e_max, e_id
            else:
                beats = e_max > dep_max  # ties keep the earlier common dep
                dep_max = np.where(beats, e_max, dep_max)
                dep_id = np.where(beats, e_id, dep_id)

        if holds is None:
            gated = dep_max > starts
            starts = np.where(gated, dep_max, starts)
            blocked = np.where(gated, dep_id, blocked)
        else:
            # The shared frontier F <- max(start, F) + hold is the rule's
            # one recurrence. Python floats are IEEE doubles, so these are
            # the array comparisons and additions, in the defining order:
            # own queue (above), each hold in list order, then the
            # dependencies — any other order flips blocked_by on ties.
            # A zero hold never occupies its resource.
            free_shared, last_shared = self._free_shared, self._last_shared
            start_of, blocker_of = starts.tolist(), blocked.tolist()
            if flat is not None:
                dep_end_of, dep_id_of = dep_max.tolist(), dep_id.tolist()
            else:
                dep_end_of, dep_id_of = [dep_max] * k, [dep_id] * k
            # repro-lint: allow-loop — the shared-frontier recurrence: each holder's start depends on the previous holder's
            for t in range(k):
                start, blocker = start_of[t], blocker_of[t]
                for key, _hold in holds[t]:
                    if free_shared.get(key, 0.0) > start:
                        start, blocker = free_shared[key], last_shared[key]
                if dep_end_of[t] > start:
                    start, blocker = dep_end_of[t], dep_id_of[t]
                start_of[t], blocker_of[t] = start, blocker
                for key, hold in holds[t]:
                    if hold > 0 and start + hold > free_shared.get(key, 0.0):
                        free_shared[key] = start + hold
                        last_shared[key] = n0 + t
            starts = np.array(start_of)
            blocked = np.array(blocker_of, dtype=np.int64)
        if wave.chain:
            # One queue, the rule's other recurrence: task t starts where
            # task t-1 ended — never before the barrier or a common
            # dependency, which task 0 (timed above) already waited for
            # — and is blocked by it unless that end is the barrier. A
            # running sum adds left to right: the floats of task-by-task
            # submission, busy seconds included.
            clock = np.add.accumulate(np.concatenate((starts, seconds)))
            starts, ends = clock[:-1], clock[1:]
            blocked = np.concatenate((blocked, np.where(
                ends[:-1] > self._barrier_time,
                np.arange(n0, n0 + k - 1, dtype=np.int64), -1)))
            free_arr[slot] = ends[-1]
            last_arr[slot] = n0 + k - 1
            self._busy_channel[ch] = np.add.accumulate(np.concatenate(
                (self._busy_channel[ch:ch + 1], seconds)))[-1]
        else:
            ends = starts + seconds
            free_arr[slot] = ends
            last_arr[slot] = np.arange(n0, n0 + k, dtype=np.int64)
            self._busy_channel[ch] += wave.total

        # ---- store ---------------------------------------------------
        sl = slice(n0, n0 + k)
        self._start[sl] = starts
        self._end[sl] = ends
        self._blocked[sl] = blocked
        self._n = n0 + k

    def ends_of(self, ids) -> np.ndarray:
        """End times of the given submitted task ids."""
        ids = task_ids(ids)
        self._check_ids(ids, "ends_of")
        return self._end[ids]

    def barrier(self) -> Seconds:
        """Global synchronization: later tasks start at/after the makespan.

        Models a cross-device synchronize (the end-of-phase barrier of
        Algorithms 1-3, or the layer-sweep boundary where layer l+1 reads
        rows layer l wrote back). Returns the barrier time in simulated
        seconds.
        """
        self._barrier_time = self.makespan
        return self._barrier_time

    def _latest(self) -> int:
        """Id of the task that ends last (first max; -1 when none),
        once the tasks since the last call are folded into the watermark."""
        if self._max_upto < self._n:
            ends = self._end[self._max_upto:self._n]
            arg = int(ends.argmax())  # first max
            if self._max_id < 0 or ends[arg] > self._max_end:
                self._max_end = float(ends[arg])
                self._max_id = self._max_upto + arg
            self._max_upto = self._n
        return self._max_id

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> Seconds:
        """End of the latest task (the simulated wall-clock epoch time)."""
        if self._latest() < 0:
            return self._barrier_time
        return max(self._barrier_time, self._max_end)

    def busy_seconds(self, channel: Optional[str] = None) -> Seconds:
        """Total task seconds on ``channel`` (None: on every channel).

        Busy seconds are occupancy, not wall time: tasks on different
        resources overlap, so per-resource busy time lower-bounds any
        schedule's makespan (tested in ``tests/test_runtime.py``). Reads
        the per-channel totals kept at submit time.
        """
        if channel is not None and channel not in CHANNELS:
            raise SchedulerError(f"unknown channel {channel!r}")
        channels = ([_CHANNEL_INDEX[channel]] if channel is not None
                    else range(len(CHANNELS)))
        return float(sum(self._busy_channel[ch] for ch in channels))

    def busy_by_channel(self) -> Dict[str, float]:
        """Busy seconds per channel, summed over devices (O(1) reads)."""
        return {channel: float(self._busy_channel[ch])
                for ch, channel in enumerate(CHANNELS)}

    def breakdown_by_channel(self) -> Dict[str, float]:
        """Per channel, the longest task of each of its phases, summed:
        the serialized-phase (Fig. 9) seconds, the same under any overlap.
        ``np.bincount`` adds the maxima in phase order — the floats of a
        running sum over the waves as submitted
        (``tests/scheduler_oracle.py::reference_breakdown``)."""
        n = self._n
        # a phase's tasks are a contiguous id range
        starts = np.searchsorted(self._phase_of[:n],
                                 np.arange(len(self._phases)))
        totals = np.bincount(self._channel_idx[starts],
                             weights=np.maximum.reduceat(self._seconds[:n],
                                                         starts),
                             minlength=len(CHANNELS))
        return dict(zip(CHANNELS, totals.tolist()))

    def bytes_by_channel(self) -> Dict[str, int]:
        """Bytes moved per channel, summed over tasks (exact integers)."""
        totals = np.zeros(len(CHANNELS), dtype=np.int64)
        np.add.at(totals, self._channel_idx[:self._n], self._nbytes[:self._n])
        return dict(zip(CHANNELS, totals.tolist()))

    def phase_labels(self) -> List[str]:
        """Every phase's label, in the order ``columns().phase`` counts."""
        return [label for label, _common in self._phases]

    def columns(self) -> TaskColumns:
        """Every task's row, straight off the arrays (read-only views). A
        device used a channel when its queue frontier there names a
        task."""
        columns = []
        for array in (self._device, self._channel_idx, self._seconds,
                      self._nbytes, self._phase_of, self._start, self._end,
                      self._blocked):
            view = array[:self._n]
            view.flags.writeable = False
            columns.append(view)
        used = []
        for last in self._last:
            slot = np.flatnonzero(last >= 0)
            used.append(np.sort((slot >> 1) ^ -(slot & 1)))  # _slot's inverse
        return TaskColumns(*columns, tuple(used))

    def critical_path(self) -> np.ndarray:
        """Ids of the chain of tasks ending at the makespan, first to last,
        following start-time blockers.

        The walk follows ``blocked_by`` links — whichever constraint set
        each task's start: a dependency's end, the previous task on its
        ``(device, channel)`` queue, or the last holder of a shared
        resource (spine contention). The walk therefore crosses
        resource-contention gaps, not just dependency edges; only barriers
        and time-zero starts terminate it. The chain head is the argmax-
        end task (first max wins, matching a scan in submission order).
        """
        if self._n == 0:
            return _NO_IDS
        chain = [self._latest()]
        while self._blocked[chain[-1]] >= 0:
            chain.append(int(self._blocked[chain[-1]]))
        return np.array(chain[::-1], dtype=np.int64)

    def _describe(self, task_id: int) -> str:
        """One task's row as :meth:`validate` names an offender."""
        label = self._phases[self._phase_of[task_id]][0]
        return (f"task #{task_id} {label!r} on device "
                f"{self._device[task_id]} "
                f"{CHANNELS[self._channel_idx[task_id]]} "
                f"[{self._start[task_id]:.6f}, {self._end[task_id]:.6f}]")

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check channel exclusivity and dependency ordering; raise on bugs.

        Runs as array expressions over the state: resource exclusivity via
        a single lexsort over (resource, start, end), per-task extra deps
        via one flattened comparison, and per-phase common deps as
        ``min(member starts) >= max(dep ends) - eps`` (equivalent to the
        per-task check, since common deps gate every member), ``eps`` the
        float slack :data:`_VALIDATE_EPS`.
        """
        eps = _VALIDATE_EPS
        n = self._n
        if n == 0:
            return
        start = self._start[:n]
        end = self._end[:n]
        # Resource exclusivity: group tasks by (device, channel) and check
        # consecutive intervals in (start, end) order never overlap.
        key = self._device[:n] * len(CHANNELS) + self._channel_idx[:n]
        order = np.lexsort((end, start, key))
        same = key[order][1:] == key[order][:-1]
        overlap = start[order][1:] < end[order][:-1] - eps
        bad = same & overlap
        if bad.any():
            at = int(np.flatnonzero(bad)[0])
            raise SchedulerError(
                f"channel overlap: {self._describe(order[at])} vs "
                f"{self._describe(order[at + 1])}"
            )
        # Per-task extra deps.
        if self._extra_len:
            flat = self._extra_flat[:self._extra_len]
            owner = np.repeat(np.arange(n),
                              np.diff(self._extra_off[:n + 1]))
            bad_deps = start[owner] < end[flat] - eps
            if bad_deps.any():
                at = int(np.flatnonzero(bad_deps)[0])
                raise SchedulerError(
                    f"dependency violated: {self._describe(owner[at])} "
                    f"starts before {self._describe(flat[at])} ends"
                )
        # Per-phase common deps: every member must start at/after every
        # common dep's end.
        phase_order = np.argsort(self._phase_of[:n], kind="stable")
        sorted_phases = self._phase_of[:n][phase_order]
        for index, (_label, common) in enumerate(self._phases):
            if common is None or len(common) == 0:
                continue
            lo = int(np.searchsorted(sorted_phases, index, side="left"))
            hi = int(np.searchsorted(sorted_phases, index, side="right"))
            if lo == hi:
                continue
            members = phase_order[lo:hi]
            worst_dep = int(common[int(np.argmax(end[common]))])
            min_member = int(members[int(np.argmin(start[members]))])
            if start[min_member] < self._end[worst_dep] - eps:
                raise SchedulerError(
                    f"dependency violated: {self._describe(min_member)} "
                    f"starts before {self._describe(worst_dep)} ends"
                )

    def __repr__(self) -> str:
        return (
            f"EventScheduler(tasks={self._n}, "
            f"makespan={self.makespan:.6f}s)"
        )
