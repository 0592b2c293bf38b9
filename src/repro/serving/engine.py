"""The serving engine: request batches become timeline task DAGs.

:class:`ServingEngine` drives request-driven inference against a trained
(or freshly constructed) :class:`~repro.core.trainer.HongTuTrainer`'s
partitioned graph. The contract, end to end:

1. **Arrival** — an :class:`~repro.serving.arrivals.ArrivalProcess`
   generates request timestamps; a seeded RNG maps each request to a
   partition column (chunk batch index), modeling which slice of the
   graph the query touches.
2. **Admission** — an :class:`~repro.serving.policies.AdmissionPolicy`
   coalesces requests into dispatched batches. The admission horizon is
   itself simulated, and all of it is known before the first request is
   served: one host wave of one task per batch (phase ``admit``), every
   task on the timeline's ``("cpu", HOST_DEVICE)`` queue, lasting the gap
   from the previous dispatch instant to its own. The scheduler times a
   wave on one queue as one recurrence — each task starts where the
   previous one ended — so batch ``b``'s task ends at its dispatch
   instant, and no forward-pass task can start before its batch was
   admitted (the scheduler enforces it as an ordinary dependency).
3. **Forward pass** — per admitted batch, per *unique* column, one
   layer-by-layer task DAG shaped exactly like the trainer's forward
   sweep. A cold layer's staging front — halo loads, host→GPU staging
   loads, same-node P2P fetches, cross-node halo fetches and intra-GPU
   gathers — is the executor's to emit
   (:meth:`~repro.comm.executor.DedupCommunicator.submit_cold_load`,
   the machinery that stages the trainer's batches); the engine adds
   the compute kernels and host writebacks. Every transfer carries its
   bytes, so the horizon's timeline is its byte ledger, per channel and
   per halo flow as in training. The DAG of a column
   depends only on which of its layers are warm, so the one emitter
   (:meth:`ServingEngine._emit_column`) runs against a
   :class:`~repro.runtime.scheduler.WaveRecorder` once per ``(column,
   warm bits)`` and every ``(batch, column)`` group *replays* the
   recorded :class:`~repro.runtime.scheduler.WaveProgram`
   (:meth:`~repro.hardware.clock.EventTimeline.submit_program`) behind
   its batch's admission task; per group the engine only does the cache
   bookkeeping, and the completions are read off the timeline once,
   after the last replay. HongTu pays for its schedule once, in
   preprocessing (§4.1, §5.3); so does this.
4. **Embedding cache** — serving books cache *hits* against
   checkpointed activations: a ``(layer, column)`` pair whose aggregate
   checkpoint is host-resident (taken during hybrid-policy training,
   or materialized by a previous cold serve of the same column) skips
   the entire data-movement front — cold miss = halo fetch + staging
   load, warm hit = free — and only the compute + writeback chain runs.
   The cache is bounded by an optional host-memory budget
   (``cache_budget_bytes``): warm pairs are tracked in LRU order, every
   hit refreshes recency, and inserting past the budget evicts the
   least-recently-used pairs first (an entry larger than the whole
   budget is never cached at all). ``None`` (the default) is unbounded
   and reproduces the unbudgeted engine exactly.

Per-request latency is the completion of its column DAG (max end over
the final layer's writeback tasks) minus its arrival time; the
percentile/goodput views live on :class:`~repro.serving.result.ServeResult`.

Determinism: every simulated second is a pure function of (plan, platform,
config) and every random draw comes from seeded generators, so identical
``(seed, config)`` reproduce bit-identical latencies — the same ones the
one-task-at-a-time scheduler oracle of ``tests/scheduler_oracle.py``
assigns, and the same timeline, task for task, that running the emitter
straight onto the ``EventTimeline`` for every request leaves
(``tests/test_serving.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from numbers import Integral
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.hardware.clock import EventTimeline
from repro.runtime.scheduler import WaveProgram, WaveRecorder
from repro.runtime.task import HOST_DEVICE
from repro.serving.arrivals import ArrivalProcess
from repro.serving.policies import AdmissionPolicy
from repro.serving.result import ServeResult
from repro.units import SCALAR_BYTES, Bytes, Seconds

__all__ = ["ServingEngine"]


class ServingEngine:
    """Serves request traffic against a trainer's partitioned graph.

    Parameters
    ----------
    trainer:
        A constructed :class:`~repro.core.trainer.HongTuTrainer`. Its
        plan, partition, platform, model and config are the serving
        substrate; its aggregate checkpoints (if any training epochs ran
        under the hybrid policy) pre-warm the embedding cache.
    cache_budget_bytes:
        Optional host-byte budget for the embedding cache. ``None``
        (default) keeps every pair ever warmed — the unbudgeted
        behavior. An integer budget >= 1 bounds the warm set (anything
        else raises :class:`~repro.errors.ConfigurationError`): inserts past
        the budget evict least-recently-used pairs (counted on
        :attr:`evictions`); a single pair larger than the whole budget
        is never cached.
    """

    def __init__(self, trainer, cache_budget_bytes: Optional[Bytes] = None):
        if cache_budget_bytes is not None and (
                isinstance(cache_budget_bytes, bool)
                or not isinstance(cache_budget_bytes, Integral)
                or cache_budget_bytes < 1):
            raise ConfigurationError(
                f"cache_budget_bytes must be positive (an integer >= 1), got "
                f"{cache_budget_bytes!r} - pass None for an unbounded "
                f"embedding cache"
            )
        self.trainer = trainer
        self.platform = trainer.platform
        self.model = trainer.model
        #: (column, warm bits) -> (recorded forward DAG, program-relative
        #: ids of its final writebacks) — the one memo of seconds, priced
        #: at the platform's rates when recorded
        self._programs: Dict[Tuple[int, Tuple[bool, ...]],
                             Tuple[WaveProgram, np.ndarray]] = {}
        self._gpu_ids = np.arange(trainer.plan.num_gpus, dtype=np.int64)
        #: warm (layer, column) pairs in LRU order — data movement is
        #: free for these; the value is the pair's host footprint
        self._cache: "OrderedDict[Tuple[int, int], int]" = OrderedDict()
        self._cache_bytes = 0
        self.cache_budget_bytes = cache_budget_bytes
        #: warm pairs dropped to fit the budget over this engine's life
        self.evictions = 0
        #: the trainer's plan, chunk shapes, warm-pair footprints and
        #: value communicator and the checkpoint-warmed cache are all
        #: installed by the first platform sync
        self.plan = None
        self._sync_platform()

    # ------------------------------------------------------------------
    # embedding cache
    # ------------------------------------------------------------------
    def warm_from_checkpoints(self) -> int:
        """Pre-warm the cache from the trainer's aggregate checkpoints.

        The trainer checkpoints a ``(layer, column)`` pair whole — every
        GPU's chunk of the column or none — so each pair it lists
        (:meth:`~repro.core.trainer.HongTuTrainer.checkpointed_columns`)
        is warm. Returns the number of warm pairs. Epochs trained since
        the engine was built count: their checkpoints warm it too, against
        the trainer's current plan.
        """
        self._sync_platform()
        for pair in sorted(self.trainer.checkpointed_columns()):
            self._cache_insert(*pair)
        return len(self._cache)

    @property
    def warm_pairs(self) -> int:
        """Currently warm (layer, column) pairs."""
        return len(self._cache)

    @property
    def cache_bytes(self) -> Bytes:
        """Host bytes the warm pairs currently occupy."""
        return self._cache_bytes

    def clear_cache(self) -> None:
        """Drop every warm pair (every future serve is a cold miss)."""
        self._cache.clear()
        self._cache_bytes = 0

    def _cache_insert(self, l: int, j: int) -> None:
        """Warm ``(l, j)``, evicting LRU pairs past the byte budget."""
        key = (l, j)
        if key in self._cache:
            self._cache.move_to_end(key)
            return
        nbytes = int(self._footprints[l, j])
        budget = self.cache_budget_bytes
        if budget is not None and nbytes > budget:
            return  # larger than the whole cache: never worth evicting for
        self._cache[key] = nbytes
        self._cache_bytes += nbytes
        if budget is None:
            return
        while self._cache_bytes > budget:
            _, dropped = self._cache.popitem(last=False)
            self._cache_bytes -= dropped
            self.evictions += 1

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _touch_column(self, j: int) -> Tuple[bool, ...]:
        """One ``(batch, column)`` group's cache bookkeeping for column
        ``j``; returns its warm/cold bits, one per layer.

        Layer by layer, in the order the forward pass runs: a warm pair
        is a hit and moves to the recent end of the LRU order; a cold
        pair becomes warm — the cold pass materializes its activations
        on the host, so the next serve of the column is a hit, budget
        permitting. An insert past the budget evicts LRU pairs, possibly
        a deeper layer of this very column, which is why the bits are
        read one layer at a time and not up front.
        """
        warm = []
        for l in range(len(self.model.layers)):
            hit = (l, j) in self._cache
            if hit:
                self._cache.move_to_end((l, j))
            else:
                self._cache_insert(l, j)
            warm.append(hit)
        return tuple(warm)

    def _emit_column(self, timeline, j: int, warm: Tuple[bool, ...],
                     admit_ids: np.ndarray) -> np.ndarray:
        """Emit column ``j``'s forward-pass DAG; returns the ids of its
        final writebacks.

        The one emitter. ``timeline`` is a
        :class:`~repro.runtime.scheduler.WaveRecorder` whenever the
        engine itself calls — once per ``(column, warm bits)`` — and the
        recorded program is what every request replays; on an
        :class:`~repro.hardware.clock.EventTimeline` the same calls
        schedule the DAG directly (the tests' reference).

        Layer ``l``'s tasks chain after layer ``l-1``'s writebacks (its
        input rows are the previous layer's host output) and after the
        admission task. Cold layers (``warm[l]`` false) run the full
        staging front, which the communicator emits
        (:meth:`~repro.comm.executor.DedupCommunicator.submit_cold_load`);
        warm layers jump straight to compute. The kernels are the
        trainer's forward wave for ``(l, j)``, priced from the same table
        (a serve never checkpoints, so the writeback is h^{l+1} alone).
        """
        platform = self.platform
        prev = admit_ids
        for l, is_warm in enumerate(warm):
            tag = f"[l{l}c{j}]"
            forward = self.shapes.forward(self.model.layers[l], j)
            compute_seconds = platform.gpu_compute_seconds(
                forward.flops, devices=self._gpu_ids)
            # a warm layer's compute waits for the layer below, a cold
            # one's for its staging front, which waits for that layer
            staged = None if is_warm else self.communicator.submit_cold_load(
                timeline, j, self.model.dims[l] * SCALAR_BYTES, prev, tag)
            compute_ids = timeline.submit_batch(
                "gpu", compute_seconds, deps=prev if is_warm else None,
                deps_by_device=staged, label=f"serve_compute{tag}",
            )
            prev = timeline.submit_batch(
                "d2h", platform.h2d_seconds(forward.writeback_bytes,
                                            devices=self._gpu_ids),
                deps_by_device=compute_ids,
                nbytes=forward.writeback_bytes,
                label=f"serve_writeback{tag}",
            )
        return prev

    def _replay_column(self, timeline: EventTimeline, j: int,
                       warm: Tuple[bool, ...],
                       admit_ids: np.ndarray) -> np.ndarray:
        """Schedule column ``j``'s DAG by replaying its recorded program
        — :meth:`_emit_column`'s contract, met without re-emitting.

        The DAG's shape depends on ``(j, warm)`` and nothing else until
        the platform's rates or the plan change (:meth:`_sync_platform`
        drops the programs then), so it is recorded on first use, with
        one external slot: the request batch's admission task.
        """
        recorded = self._programs.get((j, warm))
        if recorded is None:
            recorder = WaveRecorder(num_external=1)
            final = self._emit_column(recorder, j, warm, recorder.external)
            recorded = self._programs[(j, warm)] = recorder.finish(), final
        program, final = recorded
        return timeline.submit_program(program, admit_ids)[final]

    # ------------------------------------------------------------------
    # platform sync (fault-injected fleets)
    # ------------------------------------------------------------------
    def _sync_platform(self) -> None:
        """Track the trainer/platform across faults and re-balances.

        Every recorded column program stores *seconds*, priced from the
        platform's rates at recording time — a fault state (or an
        elastic re-balance) applied since then makes them stale. The
        platform bumps ``rates_version`` whenever per-device rates may
        have changed; on a mismatch the programs are dropped and the
        engine takes the fleet's current value communicator — over the
        routing snapshot of the plan under the placement, which a
        re-plan replaces. A re-balance that changed the
        partition also swaps the trainer's plan — then the warm-pair
        footprint table is rebuilt from the new chunk shapes and the
        embedding cache is cleared and re-warmed against it. The table
        holds shapes, not seconds, so a rate change alone leaves it.
        Construction is the first such swap. Fault-free engines never
        miss again: ``rates_version`` is stable, so this is one integer
        compare.
        """
        plan_changed = self.plan is not self.trainer.plan
        version = self.platform.rates_version
        if not plan_changed and version == self._rates_version:
            return
        self._programs.clear()
        self.communicator = self.trainer.fleet.comm_values
        self._rates_version = version
        if plan_changed:
            self.plan = self.trainer.plan
            self.shapes = self.trainer.fleet.shapes
            #: (L, n) host bytes of each warm (layer, column) pair: the
            #: trainer's (layer, batch) checkpoint, its GPUs' slots summed
            self._footprints = np.array(
                [[self.shapes.forward(layer, j).checkpoint_bytes.sum()
                  for j in range(self.plan.num_batches)]
                 for layer in self.model.layers], dtype=np.int64)
            self.clear_cache()
            self.warm_from_checkpoints()

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------
    def serve(self, arrivals: ArrivalProcess, policy: AdmissionPolicy,
              slo: Seconds = 0.1) -> ServeResult:
        """Run one serving horizon; returns the per-request record.

        The arrival process's seed also seeds the request→column
        assignment, so one seed pins the whole run. An ``slo`` that is
        not > 0 raises :class:`~repro.errors.ServingError`.
        """
        if not slo > 0:  # NaN included
            raise ServingError(f"slo must be > 0 seconds, got {slo}")
        self._sync_platform()
        times = arrivals.generate()
        n = len(times)
        rng = np.random.default_rng(arrivals.seed)
        columns = (rng.integers(self.plan.num_batches, size=n)
                   if n else np.empty(0, dtype=np.int64))
        batches = policy.admit(times)
        timeline = EventTimeline(barrier_all=False)
        evictions_before = self.evictions

        batch_sizes = np.array([batch.size for batch in batches],
                               dtype=np.int64)
        # The admission clock, one host wave: batch b's task advances
        # the host cpu queue to its dispatch instant, so it *ends* there
        # and no forward-pass task of the batch starts earlier.
        dispatch = np.array([batch.dispatch_time for batch in batches],
                            dtype=np.float64)
        clock = np.maximum.accumulate(np.concatenate(([0.0], dispatch)))
        admit = timeline.scheduler.submit_batch(
            "cpu", np.full(len(batches), HOST_DEVICE),
            np.maximum(0.0, dispatch - clock[:-1]), label="admit")
        # Requests in (batch, column) order: one group per column a
        # batch touches, in the order the cache and the queues see them.
        requests = np.array([r for batch in batches for r in batch.requests],
                            dtype=np.int64)
        batch_of = np.repeat(np.arange(len(batches)), batch_sizes)
        order = np.lexsort((columns[requests], batch_of))
        requests, batch_of = requests[order], batch_of[order]
        column_of = columns[requests]
        first = np.ones(len(requests), dtype=bool)
        first[1:] = ((batch_of[1:] != batch_of[:-1])
                     | (column_of[1:] != column_of[:-1]))
        firsts = np.flatnonzero(first)
        hits = misses = 0
        finals = []  # per group: the ids of its last layer's writebacks
        for b, j in zip(batch_of[firsts].tolist(), column_of[firsts].tolist()):
            # The LRU bookkeeping, then a replay of the column's recorded
            # DAG behind its batch's admission task.
            warm = self._touch_column(j)
            hits += warm.count(True)
            misses += warm.count(False)
            finals.append(self._replay_column(timeline, j, warm,
                                              admit[b:b + 1]))
        # A request completes when its group's last writeback ends.
        completions = np.zeros(n, dtype=np.float64)
        if finals:
            ends = timeline.scheduler.ends_of(np.concatenate(finals))
            done = np.maximum.reduceat(
                ends, np.cumsum([0] + [len(ids) for ids in finals[:-1]]))
            completions[requests] = np.repeat(
                done, np.diff(np.append(firsts, len(requests))))
        return ServeResult(
            arrivals=times,
            completions=completions,
            latencies=completions - times,
            columns=columns,
            batch_sizes=batch_sizes,
            cache_hits=hits,
            cache_misses=misses,
            cache_evictions=self.evictions - evictions_before,
            makespan=timeline.makespan,
            duration=arrivals.duration,
            net_bytes=timeline.bytes_view()["net"],
            arrival_kind=arrivals.kind,
            policy=policy.describe(),
            slo=slo,
            timeline=timeline,
        )
