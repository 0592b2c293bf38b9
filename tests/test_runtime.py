"""Tests for the event-timeline execution engine.

Covers the scheduler invariants (channel exclusivity, dependency ordering,
barriers), the EventTimeline's views (breakdown, bytes), and the
trainer-level contract
of the overlap policies: ``barrier`` reproduces the serialized phase sum
exactly, ``pipeline`` never increases the makespan (and strictly reduces it
on transfer-heavy workloads), and numerics are bit-identical under both.
"""

import numpy as np
import pytest

from repro.autograd import SGD
from repro.baselines import FullGraphTrainer
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError, ReproError, SchedulerError
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
    NetworkTopology,
)
from repro.runtime import CHANNELS, EventScheduler, TransitionBuffers
from repro.runtime.scheduler import WaveRecorder
from scheduler_oracle import (
    OracleScheduler,
    reference_breakdown,
    timeline_state,
)


def recorded(num_tasks=1, num_external=0):
    """A recorder that already holds ``num_tasks`` gpu tasks."""
    recorder = WaveRecorder(num_external)
    recorder.submit_batch("gpu", [1.0] * num_tasks)
    return recorder


class TestEventScheduler:
    def test_same_channel_serializes(self):
        scheduler = EventScheduler()
        first = scheduler.submit("h2d", 0, 1.0)
        second = scheduler.submit("h2d", 0, 2.0)
        assert first.start == 0.0 and first.end == 1.0
        assert second.start == 1.0 and second.end == 3.0

    def test_different_channels_overlap(self):
        scheduler = EventScheduler()
        scheduler.submit("h2d", 0, 1.0)
        kernel = scheduler.submit("gpu", 0, 1.0)
        assert kernel.start == 0.0
        assert scheduler.makespan == 1.0

    def test_different_devices_overlap(self):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 2.0)
        other = scheduler.submit("gpu", 1, 1.0)
        assert other.start == 0.0
        assert scheduler.makespan == 2.0

    def test_dependency_defers_start(self):
        scheduler = EventScheduler()
        load = scheduler.submit("h2d", 0, 1.5)
        kernel = scheduler.submit("gpu", 0, 1.0, deps=[load])
        assert kernel.start == 1.5
        assert kernel.blocked_by == load.task_id

    def test_barrier_fences_later_tasks(self):
        scheduler = EventScheduler()
        scheduler.submit("h2d", 0, 2.0)
        scheduler.barrier()
        late = scheduler.submit("gpu", 1, 1.0)
        assert late.start == 2.0

    def test_unknown_channel_rejected(self):
        with pytest.raises(SchedulerError):
            EventScheduler().submit("warp_drive", 0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0],
                             ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("submit", [
        lambda s, bad: s.submit("gpu", 0, bad),
        lambda s, bad: s.submit_batch("gpu", [0, 1], [bad, 2.0]),
        lambda s, bad: s.submit_batch("gpu", [0, 1], [2.0, bad]),
        lambda s, bad: s.submit_batch("gpu", [1, 1], [2.0, bad]),
        # holds: an inf one used to park the next holder at inf, a NaN
        # was dropped and a negative one ignored, all without a word
        lambda s, bad: s.submit("net", -2, 1.0, shared=[("k", bad)]),
        lambda s, bad: s.submit_batch(
            "net", [-2, -3], [1.0, 1.0],
            shared_by_task=[[("k", 0.5)], [("j", 0.0), ("k", bad)]]),
        # a recorded wave is judged when it is recorded
        lambda s, bad: WaveRecorder().submit_batch("gpu", [2.0, bad]),
        lambda s, bad: WaveRecorder().submit_batch(
            "net", [1.0, 1.0], devices=[-2, -3],
            shared_by_device=[[("k", 0.5)], [("j", 0.0), ("k", bad)]]),
    ], ids=["submit", "batch_first", "batch_last", "batch_repeated_device",
            "submit_hold", "batch_hold", "program", "program_hold"])
    def test_non_finite_or_negative_duration_rejected(self, submit, bad):
        """A NaN used to be accepted, poison every dependant's end time
        and then be *ignored* by the makespan — a silently wrong number.
        Shared-resource holds are durations too."""
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match="finite"):
            submit(scheduler, bad)
        scheduler.validate()
        assert scheduler.num_tasks == 1
        assert scheduler.makespan == 1.0

    @pytest.mark.parametrize("kwargs", [
        dict(extra_deps=[np.array([0])]),
        dict(extra_deps=[np.array([0]), None, None]),
        dict(shared_by_task=[(("core", 1.0),)]),
        dict(shared_by_task=[(), (), ()]),
    ], ids=["extra_short", "extra_long", "shared_short", "shared_long"])
    def test_mis_sized_per_task_lists_rejected(self, kwargs):
        """Used to escape as a bare ValueError / IndexError."""
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match="one entry per task"):
            scheduler.submit_batch("h2d", [0, 1], [1.0, 1.0], **kwargs)
        scheduler.validate()
        assert scheduler.num_tasks == 1

    @pytest.mark.parametrize("submit", [
        # used to truncate onto devices 0 and 1
        lambda s: s.submit_batch("gpu", [0.5, 1.5], [1.0, 1.0]),
        # used to escape as a bare IndexError
        lambda s: s.submit("gpu", 1.5, 1.0),
        lambda s: WaveRecorder().submit_batch("gpu", [1.0, 1.0],
                                              devices=[0.5, 1.5]),
    ], ids=["batch", "submit", "program"])
    def test_non_integral_device_rejected(self, submit):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match="integers"):
            submit(scheduler)
        scheduler.validate()
        assert scheduler.num_tasks == 1
        assert scheduler.busy_seconds() == 1.0

    @pytest.mark.parametrize("submit", [
        # reads zero-initialised capacity: used to schedule at t=0
        lambda s: s.submit("gpu", 0, 1.0, deps=[5]),
        # wraps to the array tail
        lambda s: s.submit("gpu", 0, 1.0, deps=[-1]),
        # past the allocated capacity: used to be a bare IndexError
        lambda s: s.submit("gpu", 0, 1.0, deps=[10_000]),
        lambda s: s.submit_batch("gpu", [0, 0], [1.0, 1.0],
                                 extra_deps=[np.array([3]), None]),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 1.0],
                                 common_deps=np.array([-1])),
        # a recorded wave may name the program's earlier tasks and its
        # external slots, nothing else
        lambda s: recorded(1).submit_batch("gpu", [1.0], deps=[1]),
        lambda s: recorded(1).submit_batch("gpu", [1.0], deps=[-1]),
        lambda s: recorded(2, num_external=1).submit_batch(
            "gpu", [1.0, 1.0], deps_by_device=np.array([0, -2])),
        # a replay: the external ids are the one input left to check
        lambda s: s.submit_program(recorded(1, 1).finish(), [1]),
        lambda s: s.submit_program(recorded(1, 1).finish(), [-1]),
        # ends_of used to answer 0.0 from unwritten (or wrapped) capacity
        lambda s: s.ends_of([1]),
        lambda s: s.ends_of([-1]),
    ], ids=["unsubmitted", "negative", "beyond_capacity",
            "batch_repeated_device", "batch_common", "program_unrecorded",
            "program_no_such_slot", "program_per_device",
            "replay_unsubmitted", "replay_negative", "ends_of_unsubmitted",
            "ends_of_negative"])
    def test_out_of_range_dependency_rejected(self, submit):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match="unsubmitted"):
            submit(scheduler)
        # The rejected submission left no trace: the scheduler still
        # validates and holds exactly the one good task.
        scheduler.validate()
        assert scheduler.num_tasks == 1
        assert len(scheduler._phases) == 1

    @pytest.mark.parametrize("submit", [
        # used to truncate to task 1 (1.9) / task 0 (0.5) and gate on it
        lambda s: s.submit("gpu", 0, 1.0, deps=[1.9]),
        lambda s: s.submit("gpu", 0, 1.0, deps=np.array([1.9])),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 1.0],
                                 common_deps=np.array([1.9])),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 1.0],
                                 extra_deps=[None, np.array([0.5])]),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 1.0],
                                 extra_deps=np.array([0.5, 1.0])),
        lambda s: recorded(2).submit_batch("gpu", [1.0],
                                           deps=np.array([1.9])),
        lambda s: recorded(2).submit_batch("gpu", [1.0],
                                           deps_by_device=[[0.5]]),
        lambda s: s.submit_program(recorded(1, 1).finish(), [0.5]),
        lambda s: s.ends_of(np.array([0.5])),
    ], ids=["submit_list", "submit_array", "batch_common", "batch_extra",
            "batch_extra_array", "program_common", "program_per_device",
            "replay_external", "ends_of"])
    def test_non_integral_dependency_rejected(self, submit):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        scheduler.submit("gpu", 1, 5.0)
        with pytest.raises(SchedulerError, match="integers"):
            submit(scheduler)
        scheduler.validate()
        assert scheduler.num_tasks == 2
        assert len(scheduler._phases) == 2

    @pytest.mark.parametrize("submit", [
        # each used to raise a bare ValueError from inside the store
        # step, after a phantom phase record had been appended
        lambda s: s.submit("gpu", 0, np.array([1.0, 2.0])),
        lambda s: s.submit("gpu", np.array([0, 1]), 1.0),
        lambda s: s.submit_batch("gpu", [0, 1], [[1.0, 2.0], [3.0, 4.0]]),
        lambda s: s.submit_batch("gpu", [[0, 1], [2, 3]], [1.0, 2.0]),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 2.0],
                                 extra_deps=np.array([[0, 0], [0, 0]])),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 2.0],
                                 extra_deps=[None, np.array([[0, 0]])]),
        lambda s: s.submit_batch("gpu", [0, 1], [1.0, 2.0],
                                 common_deps=np.array([[0]])),
        lambda s: WaveRecorder().submit_batch("gpu", [[1.0, 2.0]]),
        lambda s: WaveRecorder().submit_batch("gpu", [1.0, 2.0],
                                              devices=[[0, 1], [2, 3]]),
        lambda s: recorded(1).submit_batch(
            "gpu", [1.0, 2.0], deps_by_device=np.array([[0, 0], [0, 0]])),
        lambda s: s.submit_program(recorded(1, 1).finish(), [[0]]),
    ], ids=["submit_seconds", "submit_device", "batch_seconds",
            "batch_devices", "batch_extra_array", "batch_extra_entry",
            "batch_common", "program_seconds", "program_devices",
            "program_per_device", "replay_external"])
    def test_two_dimensional_input_rejected(self, submit):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match="1-D"):
            submit(scheduler)
        scheduler.validate()
        assert scheduler.num_tasks == 1
        assert len(scheduler._phases) == 1

    @pytest.mark.parametrize("call, names", [
        # used to answer 0.0
        (lambda s: s.busy_seconds(channel="bogus"), "channel"),
        # bare TypeErrors from the slot arithmetic
        (lambda s: s.busy_seconds(device=1.5), "device"),
        (lambda s: s.busy_seconds(channel="gpu", device="a"), "device"),
        # AttributeError
        (lambda s: s.submit_program(None, []), "program"),
        # ValueError / bare TypeError from the float64 conversion
        (lambda s: s.submit_batch("gpu", [0], ["a"]), "seconds"),
        (lambda s: s.submit_batch("gpu", [0], [1j]), "seconds"),
        (lambda s: s.submit("gpu", 0, "a"), "seconds"),
        (lambda s: WaveRecorder().submit_batch("gpu", ["a"]), "seconds"),
        (lambda s: WaveRecorder().submit_batch("gpu", [1j]), "seconds"),
        # ValueError (no hold), bare TypeErrors (no number, no list)
        (lambda s: s.submit("gpu", 0, 1.0, shared=[("k",)]), "shared"),
        (lambda s: s.submit("gpu", 0, 1.0, shared=[("k", "x")]), "shared"),
        (lambda s: s.submit_batch("gpu", [0], [1.0],
                                  shared_by_task=[None]), "shared_by_task"),
        (lambda s: s.submit_batch("gpu", [0, 1], [1.0, 1.0],
                                  shared_by_task=[[("k", 1.0)], [("k",)]]),
         "shared_by_task"),
        (lambda s: WaveRecorder().submit_batch(
            "gpu", [1.0], shared_by_device=[None]), "shared"),
        (lambda s: WaveRecorder().submit_batch(
            "gpu", [1.0], shared_by_device=[[("k", "x")]]), "shared"),
        # byte counts: one integer >= 0 per task, or the column would
        # hold a truncated float, a wrapped negative or a stray shape
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[8.0, 16.0]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[8, float("nan")]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[8, -16]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=["8", "16"]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[[8, 16]]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[8]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=[8, [16]]), "nbytes"),
        (lambda s: s.submit_batch("h2d", [0, 1], [1.0, 1.0],
                                  nbytes=np.array([8, 2 ** 63],
                                                  dtype=np.uint64)),
         "nbytes"),
        (lambda s: WaveRecorder().submit_batch(
            "h2d", [1.0, 1.0], nbytes=[8.5, 16]), "nbytes"),
        (lambda s: WaveRecorder().submit_batch(
            "h2d", [1.0, 1.0], nbytes=[8, -1]), "nbytes"),
        (lambda s: WaveRecorder().submit_batch(
            "h2d", [1.0, 1.0], nbytes=8), "nbytes"),
    ], ids=["busy_channel", "busy_float_device", "busy_str_device",
            "replay_no_program", "batch_str_seconds",
            "batch_complex_seconds", "submit_str_seconds",
            "program_str_seconds", "program_complex_seconds",
            "submit_short_hold", "submit_str_hold", "batch_none_holds",
            "batch_short_hold", "program_none_holds", "program_str_hold",
            "batch_float_nbytes", "batch_nan_nbytes",
            "batch_negative_nbytes", "batch_str_nbytes", "batch_2d_nbytes",
            "batch_short_nbytes", "batch_ragged_nbytes",
            "batch_wrapping_nbytes", "program_float_nbytes",
            "program_negative_nbytes", "program_scalar_nbytes"])
    def test_malformed_argument_is_a_scheduler_error(self, call, names):
        """Each used to escape the ``repro.errors`` taxonomy or answer
        a silently wrong number; each names the argument, and leaves no
        trace."""
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        with pytest.raises(SchedulerError, match=names):
            call(scheduler)
        scheduler.validate()
        assert scheduler.num_tasks == 1
        assert len(scheduler._phases) == 1
        assert not scheduler._free_shared
        assert sum(scheduler.bytes_by_channel().values()) == 0

    def test_replay_with_the_wrong_number_of_external_ids_rejected(self):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        program = recorded(1, num_external=2).finish()
        with pytest.raises(SchedulerError, match="external slot"):
            scheduler.submit_program(program, [0])
        assert scheduler.num_tasks == 1
        assert len(scheduler._phases) == 1

    def test_rejected_recording_leaves_the_program_as_it_was(self):
        recorder = recorded(2)
        with pytest.raises(SchedulerError):
            recorder.submit_batch("gpu", [1.0], deps=[2])
        with pytest.raises(SchedulerError):
            recorder.submit_batch("warp_drive", [1.0])
        program = recorder.finish()
        assert (program.num_tasks, len(program.waves)) == (2, 1)
        assert len(program.refs) == 0

    def test_busy_accounting(self):
        scheduler = EventScheduler()
        scheduler.submit("gpu", 0, 1.0)
        scheduler.submit("gpu", 1, 2.0)
        scheduler.submit("h2d", 0, 4.0)
        assert scheduler.busy_seconds(channel="gpu") == 3.0
        assert scheduler.busy_seconds(channel="gpu", device=1) == 2.0
        assert scheduler.busy_by_channel()["h2d"] == 4.0

    def test_validate_passes_for_scheduler_output(self):
        scheduler = EventScheduler()
        load = scheduler.submit("h2d", 0, 1.0)
        scheduler.submit("gpu", 0, 2.0, deps=[load])
        scheduler.submit("h2d", 0, 1.0)
        scheduler.validate()

    def test_validate_catches_corruption(self):
        scheduler = EventScheduler()
        first = scheduler.submit("gpu", 0, 2.0)
        second = scheduler.submit("gpu", 0, 2.0)
        second.start = first.start  # force an overlap
        with pytest.raises(SchedulerError):
            scheduler.validate()

    def test_critical_path_follows_blockers(self):
        scheduler = EventScheduler()
        load = scheduler.submit("h2d", 0, 3.0)
        kernel = scheduler.submit("gpu", 0, 1.0, deps=[load])
        chain = scheduler.critical_path()
        assert [task.task_id for task in chain] == \
            [load.task_id, kernel.task_id]

    def test_scheduler_errors_catchable_as_repro_errors(self):
        """The runtime layer reports through the repro.errors hierarchy
        like every other layer (no bare ValueError)."""
        with pytest.raises(ReproError):
            EventScheduler().submit("warp_drive", 0, 1.0)

    def test_critical_path_crosses_resource_contention(self):
        """A task delayed by its channel queue (not by a dependency)
        records the queue predecessor as its blocker, so the critical
        path walks through contention instead of stopping at the gap."""
        scheduler = EventScheduler()
        first = scheduler.submit("h2d", 0, 2.0)
        second = scheduler.submit("h2d", 0, 1.5)   # queued behind first
        kernel = scheduler.submit("gpu", 0, 1.0, deps=[second])
        assert second.start == first.end
        assert second.blocked_by == first.task_id
        chain = scheduler.critical_path()
        assert [task.task_id for task in chain] == \
            [first.task_id, second.task_id, kernel.task_id]

    def test_critical_path_crosses_deliberately_contended_channel(self):
        """Regression for the contention-blind walk: the longest chain on
        a deliberately contended channel spans every queued task even
        though no dependencies exist at all."""
        scheduler = EventScheduler()
        tasks = [scheduler.submit("net", -2, 1.0) for _ in range(4)]
        assert scheduler.makespan == pytest.approx(4.0)
        chain = scheduler.critical_path()
        assert [task.task_id for task in chain] == \
            [task.task_id for task in tasks]

    def test_shared_resource_serializes_disjoint_devices(self):
        """Two tasks on different devices that both hold a shared
        resource (the spine core) queue on it; zero holds never queue."""
        scheduler = EventScheduler()
        spine = ("net", "spine")
        a = scheduler.submit("net", -2, 1.0, shared=[(spine, 0.5)])
        b = scheduler.submit("net", -3, 1.0, shared=[(spine, 0.5)])
        assert a.start == 0.0
        assert b.start == pytest.approx(0.5)   # waits for a's hold
        assert b.blocked_by == a.task_id
        free = EventScheduler()
        a2 = free.submit("net", -2, 1.0, shared=[(spine, 0.0)])
        b2 = free.submit("net", -3, 1.0, shared=[(spine, 0.0)])
        assert a2.start == b2.start == 0.0

    def test_removing_dependency_never_slows(self):
        """The monotonicity argument behind pipeline <= barrier."""
        durations = [(("h2d", 0), 2.0), (("gpu", 0), 3.0),
                     (("h2d", 0), 2.0), (("gpu", 0), 3.0)]
        chained = EventScheduler()
        previous = None
        for (channel, device), seconds in durations:
            previous = chained.submit(channel, device, seconds,
                                      deps=[previous] if previous else [])
        free = EventScheduler()
        for (channel, device), seconds in durations:
            free.submit(channel, device, seconds)
        assert free.makespan <= chained.makespan


class TestVectorizedScheduler:
    """The array step's acceptance contract: ``submit_batch`` assigns the
    exact times the one-task-at-a-time rule of ``scheduler_oracle`` would,
    wave by wave, on randomized dependency DAGs — bit-identical
    starts/ends/blockers, makespans, busy accounting, and critical
    paths."""

    CHANNEL_NAMES = tuple(CHANNELS)
    SHARED_KEYS = (("net", "spine"), "second-core")

    def _random_wave(self, rng, num_submitted):
        channel = self.CHANNEL_NAMES[rng.integers(len(self.CHANNEL_NAMES))]
        k = int(rng.integers(1, 7))
        # Repeated devices (the 0.2 branch): the wave is scheduled as
        # its duplicate-free runs — still one submit_batch call.
        devices = (rng.integers(0, 3, size=k) if rng.random() < 0.2
                   else rng.choice(16, size=k, replace=False))
        devices = devices.astype(np.int64)
        if channel == "net":
            devices = -2 - devices  # net links live below NET_DEVICE_BASE
        seconds = rng.integers(0, 8, size=k).astype(np.float64) / 4.0
        common = None
        if num_submitted and rng.random() < 0.6:
            common = rng.choice(
                num_submitted, size=min(3, num_submitted), replace=False
            ).astype(np.int64)
        extras = None
        if num_submitted and rng.random() < 0.5:
            extras = []
            for _ in range(k):
                count = int(rng.integers(0, 3))
                picked = rng.choice(num_submitted,
                                    size=min(count, num_submitted),
                                    replace=False).astype(np.int64)
                extras.append(picked if len(picked) else None)
        shared = None
        if rng.random() < 0.3:
            # Shared-resource holds (the spine contract): 0-2 per task
            # over two keys, in either order, zero holds included —
            # drawn independently of the repeated-device branch, so
            # some waves carry both.
            shared = []
            for _ in range(k):
                keys = rng.permutation(2)[:int(rng.integers(0, 3))]
                shared.append([
                    (self.SHARED_KEYS[key], float(rng.integers(0, 5)) / 8.0)
                    for key in keys
                ])
        # Transfers move bytes (derived, not drawn: the draws above are
        # the shapes the coverage tests count); compute moves none.
        nbytes = (None if channel in ("gpu", "cpu")
                  else (seconds * 12).astype(np.int64))
        return channel, devices, seconds, common, extras, shared, nbytes

    def _build_pair(self, seed, waves=40):
        rng = np.random.default_rng(seed)
        fast = EventScheduler()
        slow = OracleScheduler()
        for _ in range(waves):
            if rng.random() < 0.1:
                fast.barrier()
                slow.barrier()
            wave = self._random_wave(rng, fast.num_tasks)
            channel, devices, seconds, common, extras, shared, nbytes = wave
            ids_fast = fast.submit_batch(
                channel, devices, seconds, common_deps=common,
                extra_deps=extras, shared_by_task=shared, nbytes=nbytes)
            ids_slow = slow.submit_batch(
                channel, devices, seconds, common_deps=common,
                extra_deps=extras, shared_by_task=shared, nbytes=nbytes)
            assert (ids_fast == ids_slow).all()
        return fast, slow

    @pytest.mark.parametrize("seed", range(32))
    def test_batch_times_match_scalar_on_random_dags(self, seed):
        fast, slow = self._build_pair(seed)
        assert fast.num_tasks == slow.num_tasks
        for batched, scalar in zip(fast.tasks, slow.tasks):
            assert batched.start == scalar.start      # bit-identical
            assert batched.end == scalar.end
            assert batched.blocked_by == scalar.blocked_by
            assert batched.deps == scalar.deps
            assert batched.channel == scalar.channel
            assert batched.device == scalar.device
        assert fast.makespan == slow.makespan

    @pytest.mark.parametrize("seed", range(32))
    def test_busy_accounting_matches_scalar(self, seed):
        fast, slow = self._build_pair(seed)
        assert fast.busy_by_channel() == slow.busy_by_channel()
        for channel in self.CHANNEL_NAMES:
            assert fast.busy_seconds(channel=channel) == \
                slow.busy_seconds(channel=channel)
            for device in fast.devices():
                assert fast.busy_seconds(channel, device) == \
                    slow.busy_seconds(channel, device)

    @pytest.mark.parametrize("seed", range(32))
    def test_breakdown_and_bytes_are_views_of_the_columns(self, seed):
        """The Fig. 9 breakdown equals the per-wave running sum the
        timeline used to charge, float for float; the byte totals equal
        a per-task sum — under the array step and the oracle alike."""
        fast, slow = self._build_pair(seed)
        for scheduler in (fast, slow):
            assert scheduler.breakdown_by_channel() == \
                reference_breakdown(scheduler)
            expected = dict.fromkeys(CHANNELS, 0)
            for task_id, task in enumerate(scheduler.tasks):
                expected[task.channel] += int(scheduler._nbytes[task_id])
            assert scheduler.bytes_by_channel() == expected
        assert sum(fast.bytes_by_channel().values()) > 0

    @pytest.mark.parametrize("seed", range(32))
    def test_critical_path_matches_scalar(self, seed):
        fast, slow = self._build_pair(seed)
        assert [task.task_id for task in fast.critical_path()] == \
            [task.task_id for task in slow.critical_path()]

    def test_random_dags_cover_the_hard_waves(self):
        """The draws above do reach holds on repeated devices, two-key
        holds and zero holds (or the identity test proves less than it
        says)."""
        rng = np.random.default_rng(0)
        seen = set()
        for _ in range(400):
            _ch, devices, _s, _c, _e, shared, _b = self._random_wave(rng, 5)
            if shared is None:
                continue
            if len(np.unique(devices)) < len(devices):
                seen.add("repeated+holds")
            if any(len(holds) == 2 for holds in shared):
                seen.add("two keys")
            if any(hold == 0.0 for holds in shared for _k, hold in holds):
                seen.add("zero hold")
            if any(len(holds) == 0 for holds in shared):
                seen.add("no hold")
        assert seen == {"repeated+holds", "two keys", "zero hold", "no hold"}

    @pytest.mark.parametrize("seed", range(4))
    def test_validate_passes_on_array_backed_state(self, seed):
        fast, slow = self._build_pair(seed)
        fast.validate()
        slow.validate()

    def test_repeated_devices_equal_single_submits(self):
        """A wave [d0, d1, d0, d2, d1] is scheduled as duplicate-free
        runs ([d0 d1] [d0 d2] [d1]): same times as five single submits,
        contiguous ids, one phase record."""
        batched, single = EventScheduler(), EventScheduler()
        for scheduler in (batched, single):
            scheduler.submit("h2d", 0, 3.0)       # task 0
            scheduler.submit("h2d", 1, 1.0)       # task 1
            scheduler.submit("gpu", 1, 0.5)       # task 2: d1 is busy
        devices = [0, 1, 0, 2, 1]
        seconds = [1.0, 2.0, 0.25, 4.0, 0.5]
        common = np.array([1])
        extras = [np.array([0]), None, None, np.array([0, 2]), np.array([2])]
        phases_before = len(batched._phases)
        ids = batched.submit_batch("gpu", devices, seconds,
                                   common_deps=common, extra_deps=extras,
                                   label="wave")
        assert ids.tolist() == [3, 4, 5, 6, 7]
        assert len(batched._phases) == phases_before + 1
        for device, duration, extra in zip(devices, seconds, extras):
            deps = common.tolist() + ([] if extra is None else extra.tolist())
            single.submit("gpu", device, duration, deps=deps, label="wave")
        for wave_task, lone_task in zip(batched.tasks, single.tasks):
            assert wave_task.start == lone_task.start
            assert wave_task.end == lone_task.end
            assert wave_task.blocked_by == lone_task.blocked_by
            assert wave_task.deps == lone_task.deps
            assert wave_task.label == lone_task.label
        # The second d0 task queued behind the first, inside the wave.
        assert batched.tasks[5].blocked_by == 3
        assert batched.tasks[5].start == batched.tasks[3].end
        assert batched.makespan == single.makespan
        batched.validate()


class TestWavePrograms:
    """Replay ≡ fresh emission: a recorded program replayed onto a
    non-empty timeline leaves exactly what submitting the same waves
    through ``submit_batch`` leaves — every task field, phase record,
    breakdown charge, frontier and query — under the array
    step and under the one-task-at-a-time oracle alike."""

    random_wave = TestVectorizedScheduler._random_wave
    CHANNEL_NAMES = TestVectorizedScheduler.CHANNEL_NAMES
    SHARED_KEYS = TestVectorizedScheduler.SHARED_KEYS

    def _program_waves(self, rng, num_external):
        """Keyword sets for 2-6 waves whose dependency ids are
        program-relative (>= 0) or external placeholders (< 0)."""
        waves, recorded_tasks = [], 0
        for index in range(int(rng.integers(2, 7))):
            channel, devices, seconds, common, extras, shared, nbytes = \
                self.random_wave(rng, recorded_tasks + num_external)
            # random_wave drew ids in [0, recorded + external): shift
            # them so the low ones land on the external slots
            common = None if common is None else common - num_external
            if extras is not None:
                extras = [None if e is None else e - num_external
                          for e in extras]
                if rng.random() < 0.3:  # the (k,) one-producer-each form
                    pool = recorded_tasks + num_external
                    extras = rng.integers(pool, size=len(seconds)) \
                        - num_external
            waves.append(dict(
                channel=channel, per_device_seconds=seconds,
                devices=devices, deps=common, deps_by_device=extras,
                shared_by_device=shared, nbytes=nbytes, label=f"w{index}"))
            recorded_tasks += len(seconds)
        return waves

    @staticmethod
    def _bind(ids, external, first):
        """Placeholder/program-relative ids -> the replay's task ids."""
        if ids is None:
            return None
        bound = first + ids
        bound[ids < 0] = external[ids[ids < 0]]  # slot s is id s - E
        return bound

    def _submit_fresh(self, fresh, waves, external=()):
        """The reference: the program's waves, one ``submit_batch`` at a
        time, their ids bound by hand."""
        n = fresh.scheduler.num_tasks
        for wave in waves:
            per_device = wave.get("deps_by_device")
            if isinstance(per_device, list):
                per_device = [self._bind(e, external, n) for e in per_device]
            else:  # None, or one producer per device
                per_device = self._bind(per_device, external, n)
            fresh.submit_batch(**{
                **wave, "deps": self._bind(wave.get("deps"), external, n),
                "deps_by_device": per_device})

    def _build_pair(self, seed, scheduler_cls):
        rng = np.random.default_rng(seed)
        barrier_all = bool(rng.random() < 0.25)
        replayed, fresh = EventTimeline(barrier_all), EventTimeline(barrier_all)
        for timeline in (replayed, fresh):
            timeline.scheduler = scheduler_cls()
            timeline.submit_batch("h2d", [0.5, 1.5, 0.25],
                                  shared_by_device=[[("second-core", 0.5)],
                                                    [], []])
            timeline.add("cpu", 0.75)
        num_external = int(rng.integers(0, 3))
        waves = self._program_waves(rng, num_external)
        recorder = WaveRecorder(num_external)
        relative = [recorder.submit_batch(**wave) for wave in waves]
        program = recorder.finish()
        assert program.num_tasks == sum(map(len, relative))
        for _ in range(int(rng.integers(1, 4))):
            n = fresh.scheduler.num_tasks
            external = rng.integers(n, size=num_external)
            if rng.random() < 0.3:
                replayed.barrier()
                fresh.barrier()
            ids = replayed.submit_program(program, external)
            assert ids.tolist() == list(range(n, n + program.num_tasks))
            self._submit_fresh(fresh, waves, external)
            # something unrelated lands between two replays
            for timeline in (replayed, fresh):
                timeline.submit_batch("d2h", [0.125], devices=[1])
        return replayed, fresh

    @pytest.mark.parametrize("scheduler_cls",
                             [EventScheduler, OracleScheduler])
    @pytest.mark.parametrize("seed", range(24))
    def test_replay_equals_fresh_emission(self, seed, scheduler_cls):
        replayed, fresh = self._build_pair(seed, scheduler_cls)
        ours, theirs = timeline_state(replayed), timeline_state(fresh)
        for key in ours:
            assert ours[key] == theirs[key], key
        assert ours["breakdown"] == reference_breakdown(replayed.scheduler)
        a, b = replayed.scheduler, fresh.scheduler
        assert [task.deps for task in a.tasks] == \
            [task.deps for task in b.tasks]
        for channel in CHANNELS:
            for device in a.devices():
                assert a.busy_seconds(channel, device) == \
                    b.busy_seconds(channel, device)
        assert [task.task_id for task in a.critical_path()] == \
            [task.task_id for task in b.critical_path()]
        replayed.validate()

    #: name -> (waves, barrier_all): the shapes the random draws reach
    #: rarely or never, each replayed three times onto a non-empty
    #: timeline. Ids are program-relative; -1 is the one external slot.
    SHAPES = {
        "barrier_each": ([
            dict(channel="h2d", per_device_seconds=[1.0, 2.0],
                 deps=np.array([-1]), nbytes=[64, 128]),
            dict(channel="gpu", per_device_seconds=[0.5, 0.25],
                 deps_by_device=np.array([0, 1]))], True),
        "empty_program": ([], False),
        "one_empty_wave": ([dict(channel="net", per_device_seconds=[])],
                           False),
        "repeated_devices": ([
            dict(channel="gpu", per_device_seconds=[1.0, 0.5, 0.25],
                 devices=[0, 1, 0], deps=np.array([-1])),
            dict(channel="gpu", per_device_seconds=[1.0, 2.0, 0.5, 0.25],
                 devices=[1, 1, 0, 1],
                 deps_by_device=[np.array([0, 2]), None, np.array([-1]),
                                 np.array([1])],
                 shared_by_device=[[("core", 0.5)], [], [("core", 0.25)],
                                   []])], False),
        # 3 x 90 tasks and 3 x 120 extra ids: the task arrays and
        # _extra_flat (64 slots each at first) double mid-replay
        "crosses_capacity": ([
            dict(channel="h2d", per_device_seconds=np.arange(30.0) / 8),
            dict(channel="gpu", per_device_seconds=np.arange(30.0) / 16,
                 deps_by_device=[np.array([t, (t + 7) % 30, -1])
                                 for t in range(30)]),
            dict(channel="d2h", per_device_seconds=np.ones(30),
                 deps_by_device=np.arange(30, 60),
                 nbytes=np.arange(30) * 8)], False),
    }

    @pytest.mark.parametrize("scheduler_cls",
                             [EventScheduler, OracleScheduler])
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_replay_equals_fresh_emission_on_named_shapes(
            self, name, scheduler_cls):
        waves, barrier_all = self.SHAPES[name]
        recorder = WaveRecorder(num_external=1)
        for wave in waves:
            recorder.submit_batch(**wave)
        program = recorder.finish()
        assert len(program.waves) == sum(
            len(wave["per_device_seconds"]) > 0 for wave in waves)
        replayed, fresh = (EventTimeline(barrier_all) for _ in range(2))
        for timeline in (replayed, fresh):
            timeline.scheduler = scheduler_cls()
            timeline.submit_batch("gpu", [0.5, 1.5], devices=[1, 0])
        capacity = len(replayed.scheduler._start), \
            len(replayed.scheduler._extra_flat)
        for external in ([0], [1], [3]):
            replayed.submit_program(program, external)
            self._submit_fresh(fresh, waves, np.array(external))
            for timeline in (replayed, fresh):
                timeline.add("cpu", 0.125)
        assert timeline_state(replayed) == timeline_state(fresh)
        assert replayed.breakdown.seconds == \
            reference_breakdown(replayed.scheduler)
        assert [task.deps for task in replayed.scheduler.tasks] == \
            [task.deps for task in fresh.scheduler.tasks]
        replayed.validate()
        grew = (len(replayed.scheduler._start) > capacity[0],
                len(replayed.scheduler._extra_flat) > capacity[1])
        assert grew == ((True, True) if name == "crosses_capacity"
                        else (False, False))

    @pytest.mark.parametrize("scheduler_cls",
                             [EventScheduler, OracleScheduler])
    @pytest.mark.parametrize("seed", range(6))
    def test_makespan_watermark_read_between_submissions(
            self, seed, scheduler_cls):
        """``makespan`` / ``critical_path()`` / ``barrier()`` fold the
        tasks submitted since the last read into a watermark: reading
        after every submission, or once at the end, or on a timeline
        that never replayed, names the same task."""
        rng = np.random.default_rng(seed)
        waves = self._program_waves(rng, num_external=1)
        recorder = WaveRecorder(num_external=1)
        for wave in waves:
            recorder.submit_batch(**wave)
        program = recorder.finish()
        polled, quiet, fresh = (EventTimeline() for _ in range(3))
        for timeline in (polled, quiet, fresh):
            timeline.scheduler = scheduler_cls()
        seen = []

        def read():
            seen.append((polled.makespan, fresh.makespan))
            assert seen[-1][0] == seen[-1][1]
            assert [task.task_id for task in
                    polled.scheduler.critical_path()] == \
                [task.task_id for task in fresh.scheduler.critical_path()]

        for step in range(8):
            host_seconds = float(rng.integers(0, 4)) / 4
            for timeline in (polled, quiet, fresh):
                gate = timeline.add("cpu", host_seconds)
                timeline.submit_batch(
                    "h2d", [0.5, 0.25 * step], deps=[gate])
            read()
            external = [int(rng.integers(polled.scheduler.num_tasks))]
            polled.submit_program(program, external)
            quiet.submit_program(program, external)
            self._submit_fresh(fresh, waves, np.array(external))
            read()
            if step % 3 == 2:
                assert polled.barrier() == fresh.barrier() == quiet.barrier()
        assert len({makespan for makespan, _ in seen}) > 4
        assert timeline_state(polled) == timeline_state(fresh) \
            == timeline_state(quiet)
        assert polled.breakdown.seconds == \
            reference_breakdown(polled.scheduler)
        assert [task.task_id for task in quiet.scheduler.critical_path()] \
            == [task.task_id for task in fresh.scheduler.critical_path()]

    @pytest.mark.parametrize("scheduler_cls",
                             [EventScheduler, OracleScheduler])
    @pytest.mark.parametrize("seed", range(6))
    def test_busy_per_device_is_the_sequential_sum(self, seed,
                                                   scheduler_cls):
        """``busy_seconds(channel, device)`` aggregates the task columns
        on request; the floats are those of adding each task's seconds
        to its queue's total as it is submitted."""
        replayed, _ = self._build_pair(seed, scheduler_cls)
        scheduler = replayed.scheduler
        expected = {}
        for task in scheduler.tasks:
            key = (task.channel, task.device)
            expected[key] = expected.get(key, 0.0) + task.seconds
        assert len(expected) > 4
        for channel in CHANNELS:
            for device in scheduler.devices():
                assert scheduler.busy_seconds(channel, device) == \
                    expected.get((channel, device), 0.0)
        for device in scheduler.devices():
            total = 0.0
            for channel in CHANNELS:
                total += expected.get((channel, device), 0.0)
            assert scheduler.busy_seconds(device=device) == total
        assert scheduler.busy_seconds(channel="gpu", device=12345) == 0.0

    @pytest.mark.parametrize("scheduler_cls",
                             [EventScheduler, OracleScheduler])
    def test_replay_writes_each_static_column_once(self, scheduler_cls,
                                                   monkeypatch):
        """The work bound: a replay's static columns — seconds, bytes,
        device, channel, phase, extra offsets, extra ids — take one store each
        however many waves the program has, and a wave of one producer
        per task fills no ``np.full`` scratch."""
        class Counting(np.ndarray):
            def __setitem__(self, key, value):
                self.writes = getattr(self, "writes", 0) + 1
                super().__setitem__(key, value)

        recorder = WaveRecorder(num_external=1)
        ids = recorder.submit_batch("h2d", [1.0, 2.0, 0.5],
                                    deps=recorder.external, nbytes=[8, 16, 4])
        for channel in ("gpu", "d2h", "gpu", "net", "d2h"):
            ids = recorder.submit_batch(
                channel, [0.5, 0.25, 1.0], deps_by_device=ids,
                devices=[-2, -3, -4] if channel == "net" else None,
                nbytes=None if channel == "gpu" else [1, 2, 3])
        program = recorder.finish()
        assert len(program.waves) == 6
        scheduler = scheduler_cls()
        scheduler.submit("cpu", 0, 1.0)
        scheduler.submit_program(program, [0])  # frontiers exist now
        columns = ("_seconds", "_nbytes", "_device", "_channel_idx",
                   "_phase_of", "_extra_off", "_extra_flat")
        for name in columns:
            setattr(scheduler, name,
                    getattr(scheduler, name).view(Counting))
        fills = []
        real_full = np.full
        monkeypatch.setattr(
            np, "full",
            lambda *args, **kw: fills.append(args) or real_full(*args, **kw))
        scheduler.submit_program(program, [1])
        monkeypatch.undo()
        assert {name: getattr(scheduler, name).writes
                for name in columns} == dict.fromkeys(columns, 1)
        assert not fills
        reference = scheduler_cls()
        reference.submit("cpu", 0, 1.0)
        for external in ([0], [1]):
            reference.submit_program(program, external)
        n = reference.num_tasks
        for name in columns + ("_start", "_end", "_blocked"):
            np.testing.assert_array_equal(
                np.asarray(getattr(scheduler, name))[:n],
                getattr(reference, name)[:n], err_msg=name)

    @pytest.mark.parametrize("seed", range(8))
    def test_array_step_replay_equals_oracle_replay(self, seed):
        fast, _ = self._build_pair(seed, EventScheduler)
        slow, _ = self._build_pair(seed, OracleScheduler)
        n = fast.scheduler.num_tasks
        for name in ("_start", "_end", "_blocked"):
            np.testing.assert_array_equal(
                getattr(fast.scheduler, name)[:n],
                getattr(slow.scheduler, name)[:n], err_msg=name)

    def test_random_programs_cover_the_hard_shapes(self):
        """The draws reach external slots, repeated devices, holds, the
        one-producer-each form and ragged per-task lists."""
        seen = set()
        for seed in range(24):
            rng = np.random.default_rng(seed)
            rng.random()
            num_external = int(rng.integers(0, 3))
            seen.add(f"external={num_external}")
            for wave in self._program_waves(rng, num_external):
                devices = wave["devices"]
                if len(np.unique(devices)) < len(devices):
                    seen.add("repeated")
                if wave["shared_by_device"] is not None:
                    seen.add("holds")
                if isinstance(wave["deps_by_device"], np.ndarray):
                    seen.add("one each")
                elif wave["deps_by_device"] is not None:
                    seen.add("ragged")
                for ids in (wave["deps"], wave["deps_by_device"]):
                    if isinstance(ids, np.ndarray) and (ids < 0).any():
                        seen.add("names a slot")
        assert seen == {"external=0", "external=1", "external=2",
                        "repeated", "holds", "one each", "ragged",
                        "names a slot"}

    def test_program_is_reusable_across_timelines(self):
        """A program holds no scheduler state: one recording replays
        onto any number of timelines, and an empty one is a no-op."""
        recorder = WaveRecorder(num_external=1)
        loads = recorder.submit_batch("h2d", [1.0, 2.0],
                                      deps=recorder.external)
        assert loads.tolist() == [0, 1]
        kernels = recorder.submit_batch("gpu", [3.0, 1.0],
                                        deps_by_device=loads)
        assert kernels.tolist() == [2, 3]
        assert recorder.submit_batch("net", []).size == 0  # records nothing
        program = recorder.finish()
        for _ in range(2):
            timeline = EventTimeline()
            gate = timeline.add("cpu", 0.5)
            ids = timeline.submit_program(program, [gate.task_id])
            assert timeline.scheduler.ends_of(ids).tolist() == \
                [1.5, 2.5, 4.5, 3.5]
            assert timeline.breakdown.seconds["gpu"] == 3.0
            timeline.validate()
        empty = WaveRecorder().finish()
        assert EventTimeline().submit_program(empty).size == 0


class TestEventTimeline:
    def test_barrier_all_makespan_equals_serialized_sum(self):
        timeline = EventTimeline(barrier_all=True)
        timeline.submit_phase("h2d", [1.0, 2.0])
        timeline.submit_phase("gpu", [3.0, 1.0])
        timeline.add("cpu", 0.5)
        assert timeline.makespan == pytest.approx(2.0 + 3.0 + 0.5)
        assert timeline.makespan == pytest.approx(timeline.breakdown.total)

    def test_phase_breakdown_charges_max(self):
        timeline = EventTimeline()
        timeline.submit_phase("d2d", [1.0, 5.0, 2.0])
        assert timeline.breakdown.seconds["d2d"] == 5.0

    def test_unfenced_phases_overlap(self):
        timeline = EventTimeline(barrier_all=False)
        timeline.submit_phase("h2d", [2.0])
        timeline.submit_phase("gpu", [2.0])
        assert timeline.makespan == 2.0
        assert timeline.breakdown.total == 4.0
        assert timeline.overlap_saving() == 2.0

    def test_deps_by_device_wiring(self):
        timeline = EventTimeline()
        loads = timeline.submit_phase("h2d", [1.0, 4.0])
        kernels = timeline.submit_phase("gpu", [1.0, 1.0],
                                        deps_by_device=loads)
        assert kernels[0].start == 1.0
        assert kernels[1].start == 4.0
        timeline.validate()

    @pytest.mark.parametrize("deps", [np.array([0]), [None, None, None]],
                             ids=["short_id_array", "long_list"])
    def test_mis_sized_deps_by_device_rejected(self, deps):
        """A short id array used to leave the trailing devices silently
        ungated."""
        timeline = EventTimeline()
        timeline.submit_batch("h2d", [1.0, 4.0])
        with pytest.raises(SchedulerError, match="one entry per device"):
            timeline.submit_batch("gpu", [1.0, 1.0], deps_by_device=deps)
        assert timeline.scheduler.num_tasks == 2
        with pytest.raises(SchedulerError, match="one entry per device"):
            recorded(2).submit_batch("gpu", [1.0, 1.0], deps_by_device=deps)

    @pytest.mark.parametrize("kwargs", [
        dict(deps=np.array([1.9])),
        dict(deps_by_device=[None, [0.5]]),
        dict(deps_by_device=np.array([[0, 0], [0, 0]])),
        dict(deps=[7]),
        dict(devices=[0.5, 1.5]),
        dict(nbytes=[8, -1]),
        dict(shared_by_device=[[("k", float("inf"))], []]),
    ], ids=["float_deps", "float_per_device", "2d_per_device",
            "unsubmitted", "float_devices", "negative_nbytes", "inf_hold"])
    def test_rejected_wave_leaves_no_trace_on_the_timeline(self, kwargs):
        """A wave the scheduler rejects leaves no task, no phase record
        and nothing in the breakdown or the byte counts behind."""
        timeline = EventTimeline(barrier_all=True)
        timeline.submit_batch("h2d", [1.0, 4.0], nbytes=[8, 32])
        with pytest.raises(SchedulerError):
            timeline.submit_batch("gpu", [1.0, 1.0], **kwargs)
        with pytest.raises(SchedulerError, match="1-D"):
            timeline.submit_batch("gpu", [[1.0, 1.0]])
        program = recorded(1, num_external=1).finish()
        with pytest.raises(SchedulerError):
            timeline.submit_program(program, [2])
        assert timeline.scheduler.num_tasks == 2
        assert len(timeline.scheduler._phases) == 1
        assert timeline.breakdown.seconds["gpu"] == 0.0
        assert timeline.bytes_view() == {**dict.fromkeys(CHANNELS, 0),
                                         "h2d": 40}

    @pytest.mark.parametrize("submit", [
        lambda t: t.submit_batch("alien", [1.0, 2.0]),
        lambda t: t.submit_phase("alien", [1.0, 2.0]),
        lambda t: t.add("alien", 1.0),
        # a recorded wave is judged when it is recorded: the program
        # that would have carried it is never built, so never replayed
        lambda t: t.submit_program(
            WaveRecorder().submit_batch("alien", [1.0])),
    ], ids=["submit_batch", "submit_phase", "add", "record_then_replay"])
    def test_unknown_channel_leaves_no_trace(self, submit):
        """A phase's category used to be separate from its channel: an
        unknown category raised *after* its tasks were scheduled (two
        tasks, makespan 2.0, nothing charged), and a replayed program
        holding such a wave raised after charging the waves before it.
        The channel is the category now, judged before any state
        changes."""
        timeline = EventTimeline(barrier_all=True)
        timeline.submit_batch("h2d", [0.5, 1.5], nbytes=[4, 12])
        before = (timeline.scheduler.num_tasks, timeline.makespan,
                  timeline.breakdown, timeline.bytes_view())
        with pytest.raises(SchedulerError, match="unknown channel"):
            submit(timeline)
        assert (timeline.scheduler.num_tasks, timeline.makespan,
                timeline.breakdown, timeline.bytes_view()) == before
        timeline.validate()

    def test_bytes_view_sums_tasks_per_channel(self):
        timeline = EventTimeline()
        timeline.submit_batch("h2d", [1.0, 2.0], nbytes=[10, 20])
        timeline.submit_batch("net", [1.0], devices=[-3], nbytes=[7])
        timeline.add("gpu", 1.0)  # moves no bytes
        recorder = WaveRecorder()
        recorder.submit_batch("d2h", [1.0, 1.0], nbytes=np.array([3, 4]))
        program = recorder.finish()
        for _ in range(2):
            timeline.submit_program(program)
        assert timeline.bytes_view() == {
            "gpu": 0, "h2d": 30, "d2h": 14, "d2d": 0, "cpu": 0, "net": 7}
        assert timeline.scheduler.columns().nbytes.tolist() == \
            [10, 20, 7, 0, 3, 4, 3, 4]

    def test_busy_view_sums_devices(self):
        timeline = EventTimeline()
        timeline.submit_phase("gpu", [1.0, 2.0, 3.0])
        assert timeline.busy_view()["gpu"] == 6.0


class TestTransitionBuffers:
    def test_double_buffer_charges_twice_the_memory(self):
        single_platform = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        double_platform = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        rows = [10, 20]
        single = TransitionBuffers(single_platform, rows, 8, np.float64, 4)
        double = TransitionBuffers(double_platform, rows, 8, np.float64, 4,
                                   double_buffer=True)
        for gpu in range(2):
            assert double_platform.gpus[gpu].memory.in_use == \
                2 * single_platform.gpus[gpu].memory.in_use
        assert single.parity(3) == 0
        assert double.parity(3) == 1
        single.free()
        double.free()
        assert all(gpu.memory.in_use == 0 for gpu in double_platform.gpus)

    def test_per_gpu_buffers_are_views_of_one_backing_array(self):
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=3)
        rows = [3, 0, 5]
        buffers = TransitionBuffers(platform, rows, 4, np.float32, 4)
        assert buffers.offsets.tolist() == [0, 3, 3, 8]
        assert buffers.stacked.shape == (8, 4)
        assert buffers.stacked.dtype == np.float32
        assert len(buffers) == 3
        for gpu, count in enumerate(rows):
            assert buffers[gpu].shape == (count, 4)
            assert buffers[gpu].base is buffers.stacked
        # a write through either side is seen by the other
        buffers[2][1] = 7.0
        assert buffers.stacked[buffers.offsets[2] + 1].tolist() == [7.0] * 4
        buffers.stacked[0] = -1.0
        assert buffers[0][0].tolist() == [-1.0] * 4
        buffers.free()
        assert buffers.stacked is None and len(buffers) == 0

    @pytest.mark.parametrize("double_buffer", [False, True])
    def test_simulated_memory_is_still_charged_per_gpu(self, double_buffer):
        """One numpy array, m simulated allocations: each GPU's pool is
        charged its own rows (twice under double buffering), so the
        simulated peak is the largest single buffer, not the stack."""
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=3)
        rows, dim, bps = [3, 0, 5], 4, 4
        buffers = TransitionBuffers(platform, rows, dim, np.float64, bps,
                                    double_buffer=double_buffer)
        copies = 2 if double_buffer else 1
        assert [gpu.memory.in_use for gpu in platform.gpus] == \
            [copies * count * dim * bps for count in rows]
        assert platform.peak_gpu_memory() == copies * 5 * dim * bps
        buffers.free()
        assert all(gpu.memory.in_use == 0 for gpu in platform.gpus)
        assert platform.peak_gpu_memory() == copies * 5 * dim * bps


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


def make_trainer(graph, overlap, policy="hybrid", comm_mode="hongtu",
                 num_chunks=4, seed=11, lr=0.02):
    model = build_model("gcn", [graph.feature_dim, 12, graph.num_classes],
                        np.random.default_rng(seed))
    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=num_chunks, comm_mode=comm_mode,
                     intermediate_policy=policy, overlap=overlap, seed=2),
        optimizer=SGD(model.parameters(), lr=lr),
    )
    return trainer


class TestOverlapPolicies:
    def test_invalid_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(overlap="wormhole")

    @pytest.mark.parametrize("policy", ["hybrid", "recompute"])
    def test_barrier_epoch_equals_serialized_sum(self, graph, policy):
        """overlap='barrier' reproduces the pre-refactor accounting: the
        makespan is exactly the serialized sum of phase maxima that
        TimeBreakdown.total used to report."""
        result = make_trainer(graph, "barrier", policy=policy).train_epoch()
        assert result.epoch_seconds == pytest.approx(result.clock.total,
                                                     rel=1e-12)

    @pytest.mark.parametrize("policy", ["hybrid", "recompute"])
    @pytest.mark.parametrize("comm_mode", ["baseline", "hongtu"])
    def test_pipeline_never_increases_makespan(self, graph, policy,
                                               comm_mode):
        barrier = make_trainer(graph, "barrier", policy=policy,
                               comm_mode=comm_mode).train_epoch()
        pipeline = make_trainer(graph, "pipeline", policy=policy,
                                comm_mode=comm_mode).train_epoch()
        assert pipeline.epoch_seconds <= barrier.epoch_seconds

    def test_pipeline_strictly_faster_on_transfer_heavy_workload(self, graph):
        barrier = make_trainer(graph, "barrier").train_epoch()
        pipeline = make_trainer(graph, "pipeline").train_epoch()
        assert pipeline.epoch_seconds < barrier.epoch_seconds

    def test_component_breakdowns_identical(self, graph):
        """Same work, different schedule: Fig. 9 components must agree."""
        barrier = make_trainer(graph, "barrier").train_epoch()
        pipeline = make_trainer(graph, "pipeline").train_epoch()
        for category, seconds in barrier.clock.seconds.items():
            assert pipeline.clock.seconds[category] == \
                pytest.approx(seconds, rel=1e-12)

    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    def test_timeline_invariants(self, graph, overlap):
        """No two tasks share a (device, channel) slot; deps respected."""
        result = make_trainer(graph, overlap).train_epoch()
        timeline = result.timeline
        timeline.validate()
        assert set(task.channel for task in timeline.scheduler.tasks) \
            <= set(CHANNELS)
        assert timeline.makespan >= max(
            task.end for task in timeline.scheduler.tasks
        ) - 1e-15

    @pytest.mark.parametrize("policy", ["hybrid", "recompute"])
    def test_numerics_bit_identical_across_policies(self, graph, policy):
        barrier = make_trainer(graph, "barrier", policy=policy)
        pipeline = make_trainer(graph, "pipeline", policy=policy)
        for _ in range(2):
            rb = barrier.train_epoch()
            rp = pipeline.train_epoch()
            assert rb.loss == rp.loss
        state_b = barrier.model.state_dict()
        state_p = pipeline.model.state_dict()
        for key in state_b:
            np.testing.assert_array_equal(state_b[key], state_p[key])

    def test_pipeline_matches_monolithic_reference(self, graph):
        """The equivalence property of tests/test_equivalence.py holds
        under the pipelined schedule too."""
        reference_model = build_model(
            "gcn", [graph.feature_dim, 12, graph.num_classes],
            np.random.default_rng(11))
        reference = FullGraphTrainer(
            graph, reference_model,
            optimizer=SGD(reference_model.parameters(), lr=0.02),
        )
        trainer = make_trainer(graph, "pipeline")
        for _ in range(2):
            ref_result = reference.train_epoch()
            result = trainer.train_epoch()
            assert np.isclose(ref_result.loss, result.loss, atol=1e-9)
        state_ref = reference_model.state_dict()
        state = trainer.model.state_dict()
        assert max(np.abs(state_ref[k] - state[k]).max()
                   for k in state_ref) < 1e-9

    def test_pipeline_charges_double_buffers(self, graph):
        barrier = make_trainer(graph, "barrier")
        pipeline = make_trainer(graph, "pipeline")
        barrier.train_epoch()
        pipeline.train_epoch()
        barrier_peak = max(
            gpu.memory.peak for gpu in barrier.platform.gpus
        )
        pipeline_peak = max(
            gpu.memory.peak for gpu in pipeline.platform.gpus
        )
        assert pipeline_peak > barrier_peak

    def test_makespan_not_below_bottleneck_channel(self, graph):
        """Per-(device, channel) busy time lower-bounds any valid schedule."""
        result = make_trainer(graph, "pipeline").train_epoch()
        scheduler = result.timeline.scheduler
        bottleneck = max(
            scheduler.busy_seconds(channel=channel, device=device)
            for channel in CHANNELS for device in scheduler.devices()
        )
        assert result.epoch_seconds >= bottleneck - 1e-15


class TestDirectionalTraffic:
    def test_h2d_and_d2h_reported_separately(self, graph):
        result = make_trainer(graph, "barrier").train_epoch()
        assert result.h2d_bytes > 0
        assert result.d2h_bytes > 0
        assert result.pcie_bytes == result.h2d_bytes + result.d2h_bytes
        # The split reaches the clock too: writebacks/flushes are d2h time.
        assert result.clock.seconds["h2d"] > 0
        assert result.clock.seconds["d2h"] > 0

    def test_traffic_identical_across_overlap(self, graph):
        barrier = make_trainer(graph, "barrier").train_epoch()
        pipeline = make_trainer(graph, "pipeline").train_epoch()
        assert barrier.h2d_bytes == pipeline.h2d_bytes
        assert barrier.d2h_bytes == pipeline.d2h_bytes
        assert barrier.d2d_bytes == pipeline.d2d_bytes


class TestBatchedEmissionEquivalence:
    """End-to-end acceptance of the batched-emission pipeline: a full
    cluster epoch produced through ``submit_batch`` waves must be
    bit-identical — makespan, losses, and per-flow network byte detail —
    to the same epoch replayed through the one-task-at-a-time oracle of
    ``tests/scheduler_oracle.py``."""

    def _cluster_epoch(self, graph, overlap, topology):
        # Three nodes: every halo wave has six links contending for an
        # oversubscribed spine core, so the spine variant carries holds.
        spec = A100_CLUSTER.with_num_nodes(3).with_topology(topology)
        platform = ClusterPlatform(spec, gpus_per_node=2)
        model = build_model(
            "gcn", [graph.feature_dim, 12, graph.num_classes],
            np.random.default_rng(5))
        trainer = HongTuTrainer(
            graph, model, platform,
            HongTuConfig(num_chunks=2, overlap=overlap,
                         seed=0),
            optimizer=SGD(model.parameters(), lr=0.02),
        )
        result = trainer.train_epoch()
        flows = trainer._comm_values.net_bytes_by_flow(result.timeline)
        return result, flows

    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    @pytest.mark.parametrize("topology", [
        NetworkTopology("flat"),
        NetworkTopology("spine", oversubscription=3.0),
    ], ids=["flat", "spine"])
    def test_cluster_epoch_bit_identical_to_scalar_core(
            self, graph, overlap, topology, install_scheduler_oracle):
        batched, batched_flows = self._cluster_epoch(graph, overlap,
                                                     topology)
        install_scheduler_oracle()
        scalar, scalar_flows = self._cluster_epoch(graph, overlap, topology)
        assert isinstance(scalar.timeline.scheduler, OracleScheduler)
        assert type(batched.timeline.scheduler) is EventScheduler
        assert batched.epoch_seconds == scalar.epoch_seconds
        assert batched.loss == scalar.loss
        assert batched.net_bytes == scalar.net_bytes
        assert batched_flows == scalar_flows
        assert batched.timeline.scheduler.num_tasks == \
            scalar.timeline.scheduler.num_tasks
        assert [(task.start, task.end, task.blocked_by)
                for task in batched.timeline.scheduler.tasks] == \
            [(task.start, task.end, task.blocked_by)
             for task in scalar.timeline.scheduler.tasks]
        assert bool(batched.timeline.scheduler._free_shared) == \
            (topology.kind == "spine")
        batched.timeline.validate()
        scalar.timeline.validate()
