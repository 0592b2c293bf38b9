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
   itself simulated: a chain of host tasks on the timeline's
   ``("cpu", HOST_DEVICE)`` queue advances the clock to each batch's
   dispatch instant, so no forward-pass task can start before its batch
   was admitted (the scheduler enforces it as an ordinary dependency).
3. **Forward pass** — per admitted batch, per *unique* column, one
   layer-by-layer task DAG shaped exactly like the trainer's forward
   sweep: host→GPU staging loads, same-node P2P fetches, cross-node
   halo-fetch ``net`` tasks (emitted through the executor's coalescing
   machinery; they carry their bytes, so the horizon's timeline is its
   byte ledger, per flow as in training), intra-GPU gathers, compute
   kernels, and host writebacks. The DAG of a column
   depends only on which of its layers are warm, so the one emitter
   (:meth:`ServingEngine._emit_column`) runs against a
   :class:`~repro.runtime.scheduler.WaveRecorder` once per ``(column,
   warm bits)`` and every request *replays* the recorded
   :class:`~repro.runtime.scheduler.WaveProgram`
   (:meth:`~repro.hardware.clock.EventTimeline.submit_program`) behind
   its batch's admission task; per request the engine only does the
   cache bookkeeping. HongTu pays for its schedule once, in
   preprocessing (§4.1, §5.3); so does this.
4. **Embedding cache** — serving books cache *hits* against
   checkpointed activations: a ``(layer, column)`` pair whose aggregate
   checkpoints are host-resident (taken during hybrid-policy training,
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
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServingError
from repro.hardware.clock import EventTimeline
from repro.runtime.scheduler import WaveProgram, WaveRecorder
from repro.runtime.task import HOST_DEVICE
from repro.serving.arrivals import ArrivalProcess
from repro.serving.policies import AdmissionPolicy
from repro.serving.result import ServeResult
from repro.units import Bytes, Seconds

__all__ = ["ServingEngine"]


@dataclass
class _ColumnLayerCosts:
    """Per-GPU second arrays of one (layer, column) forward step."""

    row_bytes: Bytes
    #: h2d staging of the full transition set (a serving request has no
    #: previous column resident, so reuse rows are loaded too)
    load_seconds: np.ndarray
    #: same-node remote reads of staged rows (NVLink)
    d2d_seconds: np.ndarray
    #: intra-GPU gathers of locally staged rows
    gather_seconds: np.ndarray
    #: forward kernels per chunk
    compute_seconds: np.ndarray
    #: h^{l+1} writeback to the host
    writeback_seconds: np.ndarray
    #: host footprint of the pair once warm: the aggregate rows every
    #: GPU's chunk of the column checkpoints for the layer — the sizing
    #: the trainer's checkpoint store allocates, summed over the column
    checkpoint_bytes: Bytes


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
        behavior. A positive budget bounds the warm set: inserts past
        the budget evict least-recently-used pairs (counted on
        :attr:`evictions`); a single pair larger than the whole budget
        is never cached.
    """

    def __init__(self, trainer, cache_budget_bytes: Optional[Bytes] = None):
        if cache_budget_bytes is not None and cache_budget_bytes <= 0:
            raise ConfigurationError(
                f"cache_budget_bytes must be positive, got "
                f"{cache_budget_bytes} - pass None for an unbounded "
                f"embedding cache"
            )
        self.trainer = trainer
        self.platform = trainer.platform
        self.model = trainer.model
        self.config = trainer.config
        self._costs: Dict[Tuple[int, int], _ColumnLayerCosts] = {}
        #: (column, warm bits) -> (recorded forward DAG, program-relative
        #: ids of its final writebacks); lives and dies with ``_costs``
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
        #: the trainer's plan, chunk shapes and value communicator and
        #: the checkpoint-warmed cache are all installed by the first
        #: platform sync
        self.plan = None
        self._sync_platform()

    # ------------------------------------------------------------------
    # embedding cache
    # ------------------------------------------------------------------
    def warm_from_checkpoints(self) -> int:
        """Pre-warm the cache from the trainer's aggregate checkpoints.

        A ``(layer, column)`` pair is warm only when *every* GPU's chunk
        of that column has a host-resident checkpoint (a partially
        checkpointed column would still need the staging front for the
        missing chunks). Returns the number of warm pairs.
        """
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

    def _pair_bytes(self, l: int, j: int) -> Bytes:
        """Host footprint of one warm (layer, column) pair."""
        return self._layer_costs(l, j).checkpoint_bytes

    def _cache_insert(self, l: int, j: int) -> None:
        """Warm ``(l, j)``, evicting LRU pairs past the byte budget."""
        key = (l, j)
        if key in self._cache:
            self._cache.move_to_end(key)
            return
        nbytes = self._pair_bytes(l, j)
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
    # cost profiles
    # ------------------------------------------------------------------
    def _layer_costs(self, l: int, j: int) -> _ColumnLayerCosts:
        cached = self._costs.get((l, j))
        if cached is not None:
            return cached
        bps = self.config.bytes_per_scalar
        row_bytes = self.model.dims[l] * bps
        comm = self.communicator
        platform = self.platform
        d2d_seconds, gather_seconds = comm.assemble_seconds(j, row_bytes)
        # The trainer's forward wave for (l, j), priced from the same
        # table (a serve never checkpoints, so the writeback is h^{l+1}
        # alone).
        forward = self.shapes.forward(self.model.layers[l], j, bps)
        costs = _ColumnLayerCosts(
            row_bytes=row_bytes,
            load_seconds=platform.h2d_seconds(
                comm.transition_rows(j) * row_bytes, devices=self._gpu_ids),
            d2d_seconds=d2d_seconds,
            gather_seconds=gather_seconds,
            compute_seconds=platform.gpu_compute_seconds(
                forward.flops, devices=self._gpu_ids),
            writeback_seconds=platform.h2d_seconds(
                forward.writeback_bytes, devices=self._gpu_ids),
            checkpoint_bytes=int(forward.checkpoint_bytes.sum()),
        )
        self._costs[(l, j)] = costs
        return costs

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _touch_column(self, j: int) -> Tuple[bool, ...]:
        """One request's cache bookkeeping for column ``j``; returns its
        warm/cold bits, one per layer.

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
        staging front; warm layers jump straight to compute.
        """
        m = self.plan.num_gpus
        comm = self.communicator
        prev = admit_ids
        for l, is_warm in enumerate(warm):
            costs = self._layer_costs(l, j)
            if is_warm:
                compute_ids = timeline.submit_batch(
                    "gpu", costs.compute_seconds, deps=prev,
                    label=f"serve_compute[l{l}c{j}]",
                )
            else:
                halo_load_ids, load_by_reader = comm.submit_serving_halo(
                    timeline, j, costs.row_bytes, kind="load", deps=prev,
                    label=f"halo_load[l{l}c{j}]",
                )
                load_ids = timeline.submit_batch(
                    "h2d", costs.load_seconds, deps=prev,
                    deps_by_device=(load_by_reader if len(halo_load_ids)
                                    else None),
                    label=f"serve_load[l{l}c{j}]",
                )
                fetch_ids = timeline.submit_batch(
                    "d2d", costs.d2d_seconds, deps=load_ids,
                    label=f"serve_fetch[l{l}c{j}]",
                )
                _halo_fetch_ids, net_by_reader = comm.submit_serving_halo(
                    timeline, j, costs.row_bytes, kind="fetch",
                    deps=load_ids, label=f"halo_fetch[l{l}c{j}]",
                )
                gather_ids = timeline.submit_batch(
                    "gpu", costs.gather_seconds, deps_by_device=load_ids,
                    label=f"serve_gather[l{l}c{j}]",
                )
                compute_deps = [
                    np.concatenate([fetch_ids[i:i + 1],
                                    gather_ids[i:i + 1],
                                    net_by_reader[i]])
                    for i in range(m)
                ]
                compute_ids = timeline.submit_batch(
                    "gpu", costs.compute_seconds,
                    deps_by_device=compute_deps,
                    label=f"serve_compute[l{l}c{j}]",
                )
            prev = timeline.submit_batch(
                "d2h", costs.writeback_seconds,
                deps_by_device=compute_ids,
                label=f"serve_writeback[l{l}c{j}]",
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

        Every cached cost profile stores *seconds*, priced from the
        platform's rates at profiling time — a fault state (or an
        elastic re-balance) applied since then makes them stale. The
        platform bumps ``rates_version`` whenever per-device rates may
        have changed; on a mismatch the profiles are dropped and the
        engine takes the fleet's current value communicator — over the
        routing snapshot of the plan under the placement, which a
        re-plan replaces. A re-balance that changed the
        partition also swaps the trainer's plan — then the embedding
        cache is cleared and re-warmed too, since its (layer, column)
        footprints no longer describe the new chunks. The recorded
        column programs carry the profiles' seconds (and the
        communicator's links), so they are dropped exactly where the
        profiles are. Construction is the first such swap. Fault-free
        engines never miss again: ``rates_version`` is stable, so this
        is one integer compare.
        """
        plan_changed = self.plan is not self.trainer.plan
        version = self.platform.rates_version
        if not plan_changed and version == self._rates_version:
            return
        self._costs.clear()
        self._programs.clear()  # recorded seconds are the profiles'
        if plan_changed:
            self.plan = self.trainer.plan
            self.shapes = self.trainer.fleet.shapes
        self.communicator = self.trainer.fleet.comm_values
        self._rates_version = version
        if plan_changed:  # footprints are priced off the new profiles
            self.clear_cache()
            self.warm_from_checkpoints()

    # ------------------------------------------------------------------
    # the serving loop
    # ------------------------------------------------------------------
    def serve(self, arrivals: ArrivalProcess, policy: AdmissionPolicy,
              slo: Seconds = 0.1,
              column_seed: Optional[int] = None) -> ServeResult:
        """Run one serving horizon; returns the per-request record.

        ``column_seed`` seeds the request→column assignment (defaults to
        the arrival process's seed, so one seed pins the whole run).
        """
        if not slo > 0:  # NaN included
            raise ServingError(f"slo must be > 0 seconds, got {slo}")
        self._sync_platform()
        times = arrivals.generate()
        n = len(times)
        rng = np.random.default_rng(
            arrivals.seed if column_seed is None else column_seed
        )
        columns = (rng.integers(self.plan.num_batches, size=n)
                   if n else np.empty(0, dtype=np.int64))
        batches = policy.admit(times)
        timeline = EventTimeline(barrier_all=False)
        scheduler = timeline.scheduler
        evictions_before = self.evictions

        completions = np.zeros(n, dtype=np.float64)
        batch_sizes = np.array([batch.size for batch in batches],
                               dtype=np.int64)
        hits = 0
        misses = 0
        admit_clock = 0.0
        admit_ids = None
        host = np.array([HOST_DEVICE], dtype=np.int64)
        for b, batch in enumerate(batches):
            # Advance the host admission clock to the dispatch instant:
            # chained zero-gap-safe tasks on the host cpu queue, so the
            # admit task of batch b *ends* exactly at its dispatch time.
            dt = max(0.0, batch.dispatch_time - admit_clock)
            admit_clock = max(admit_clock, batch.dispatch_time)
            admit_ids = scheduler.submit_batch(
                "cpu", host, [dt], common_deps=admit_ids,
                label=f"admit[{b}]",
            )
            by_column: Dict[int, List[int]] = {}
            for request in batch.requests:
                by_column.setdefault(int(columns[request]),
                                     []).append(request)
            for j in sorted(by_column):
                # Per request: the LRU bookkeeping, then a replay of
                # the column's recorded DAG.
                warm = self._touch_column(j)
                hits += warm.count(True)
                misses += warm.count(False)
                final_ids = self._replay_column(timeline, j, warm, admit_ids)
                done = float(scheduler.ends_of(final_ids).max())
                for request in by_column[j]:
                    completions[request] = done
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
