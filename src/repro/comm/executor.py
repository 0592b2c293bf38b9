"""Executable deduplicated communication (Algorithms 2 and 3).

:class:`DedupCommunicator` performs the *actual* data movement of HongTu's
communication framework on numpy buffers — real values flow through real
transition buffers with the in-place position indices computed by the
planner — while emitting every transfer onto an event timeline, with its
simulated seconds and the bytes it moves, and registering buffer memory
with the simulated GPUs' pools.

Forward (Algorithm 2): per batch, each GPU

1. loads 𝒩^cpu_ij rows host→transition-buffer (PCIe, ``h2d``), reusing
   𝒩^gpu_ij rows in place (a ``gpu`` task at HBM bandwidth);
2. assembles its chunk input h_{N_ij} by reading every needed row from the
   staging GPU's transition buffer — local reads are intra-GPU (``gpu``),
   remote reads are P2P (``d2d``), interleaved across sources.

Backward (Algorithm 3): per batch, each GPU

1. pushes its neighbor gradients into the owners' transition gradient
   buffers with atomic adds (``d2d``/``gpu``);
2. flushes the gradients of vertices *not* reused by the next batch to the
   host (``d2h`` for the GPU→host copy after GPU-side compaction, then
   ``cpu`` for the host-side accumulation into ∇h), keeping reused
   vertices' gradients on the GPU to accumulate across batches.

There is one clock: an :class:`~repro.hardware.clock.EventTimeline`.
Every transfer becomes a task on the owning device's channel, wired with
the dependencies that a pipelined CUDA-stream implementation would need:
host loads of batch j+1 only wait for the staging buffer to drain (its
consumers two batches back under double buffering), *not* for batch j's
kernels — which is what lets the ``pipeline`` overlap policy hide PCIe
time under compute. The paper's barrier-synchronized accounting (each
phase costs its per-device max, phases serialize) is the same
emission on ``EventTimeline(barrier_all=True)``; every transfer task
carries the bytes it moves. After each forward
batch call, :meth:`DedupCommunicator.batch_input_dep_ids` names the tasks
the trainer hangs its compute tasks off.

Emission is *batched*: which rows each GPU loads, reuses, fetches and
flushes — and how the traffic splits across node pairs — is fixed by the
plan and the installed placement, so the per-batch row counts, segment
classifications and halo coalescing are precomputed once, with array ops
(:class:`PlanStatic`, one per plan + placement, shared by every
communicator built over the pair), and every (layer, batch) call reduces
to numpy cost expressions over all GPUs at once plus one ``submit_batch``
wave per phase. All dependency plumbing is task-id arrays; no
:class:`~repro.runtime.task.Task` objects are materialized on this path.

Value movement is *one address space*: the m transition buffers are row
ranges of one stacked array (:class:`~repro.runtime.buffers.TransitionBuffers`)
and the plan stores, per (batch, GPU), the stacked-buffer slot of every
needed and every loaded row. So — as in §6's engine, where a GPU assembles
h_{N_ij} with one gather over its own and its peers' buffers at positions
fixed in preprocessing — each phase is one indexed op per GPU, in GPU
order: ``stacked[load_slots] = host[load_vertices]``,
``inputs = stacked[source_slots]``, ``stacked[source_slots] += grads``,
then the flush. The slots are the only routing the plan stores; the
per-segment seconds classification reads the (reader, source, rows)
triples :meth:`~repro.comm.plan.CommPlan.segments` derives from them, once
per batch. The ops stay per GPU rather than one
flat op over all GPUs on purpose: a flat gather materializes one block the
size of every GPU's input together, which raised the process's peak RSS by
a quarter on the 256-GPU workload, while m blocks of one GPU's input each
are freed and reused as the trainer consumes them.

On a :class:`~repro.hardware.platform.ClusterPlatform` the same plan spans
several nodes and three kinds of traffic additionally cross the network,
each emitted as ``net`` tasks on per-link resources
(:func:`~repro.runtime.task.net_link`):

* **halo loads** — host rows owned by a remote node's partitions must
  reach this node before its PCIe load (only in the non-dedup-inter
  modes; full HongTu stages every row on its owner, so loads are always
  node-local);
* **halo fetches** — assembling h_{N_ij} from a transition buffer staged
  on another node (the dominant cluster cost: what NVLink carried within
  a server now crosses the network);
* **halo flushes** — backward gradients of remotely-owned vertices
  returning to the owner node's ∇h buffer.

Per batch, traffic between each directed node pair coalesces into one
message (one ``net`` task), and the adjacent PCIe/kernel tasks gain
dependencies on it — so pipeline overlap can hide halo traffic under
compute exactly like it hides PCIe. With one node no network task is ever
emitted and the submission sequence is byte-for-byte the single-server
one (the ``nodes=1`` float-equality contract, tested in
``tests/test_cluster.py``).

Routing is topology-aware (the platform's
:class:`~repro.hardware.spec.NetworkTopology`): on ``flat`` every message
rides its own per-pair link (the original behavior, float-identical); on
``spine`` messages additionally hold the shared
:data:`~repro.runtime.task.SPINE_RESOURCE` for their excess core-transit
time, so disjoint node pairs contend on the oversubscribed core (the
scheduler runs that one frontier as a recurrence inside the same array
step every wave takes); on ``rail`` each pair's traffic splits by the
*owning GPU's* rail (``local_rank % num_rails``, placement-aware) into
per-rail messages at per-rail bandwidth. Node membership itself comes
from the platform's ``node_of`` — an explicit GPU→node placement array,
so an arbitrary partition→node assignment routes correctly with no
changes here.

The framework is numerically exact regardless of the timeline's overlap
policy: data moves eagerly in program order, so summing atomic pushes and host accumulation
reproduces the monolithic scatter-add gradient bit-for-bit (up to float
addition order). That order is fixed too: within one GPU the needed rows
name distinct slots, so its indexed ``+=`` adds each gradient row exactly
once, and a slot shared by several readers accumulates them in reader-GPU
order — the order of the per-segment walk this replaced
(``tests/executor_reference.py`` keeps that walk as the oracle, compared
with ``np.array_equal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.plan import CommPlan
from repro.errors import CommunicationPlanError
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform
from repro.runtime.buffers import TransitionBuffers
from repro.runtime.scheduler import task_ids
from repro.runtime.task import SPINE_RESOURCE, net_link, net_link_nodes

__all__ = ["DedupCommunicator", "PlanStatic"]

_NO_IDS = np.empty(0, dtype=np.int64)

#: the halo flows: a ``net`` wave labelled ``halo_fetch[b3]`` is flow 1
HALO_FLOWS = ("halo_load", "halo_fetch", "halo_push", "halo_flush")


def _entry_ids(entry) -> Optional[np.ndarray]:
    """Normalize one deps_by_device entry to an id array (or None)."""
    if entry is None:
        return None
    if isinstance(entry, np.ndarray):
        return entry
    return task_ids(entry)


def _per_device_ids(deps_by_device, num_gpus: int
                    ) -> Optional[List[Optional[np.ndarray]]]:
    """Normalize a deps_by_device argument to per-GPU id arrays.

    Accepts None, an ``(m,)`` id array (one producer per GPU — the
    trainer's compute wave), or a sequence of per-GPU entries (each a
    Task, an iterable of Tasks/ids, an id array, or None).
    """
    if deps_by_device is None:
        return None
    if isinstance(deps_by_device, np.ndarray):
        return [deps_by_device[i:i + 1] for i in range(num_gpus)]
    return [_entry_ids(entry) for entry in deps_by_device]


@dataclass
class _HaloSplit:
    """Coalesced cross-node traffic of one phase, precomputed.

    One entry (a *key*) per ``(src_node, dst_node, rail)`` link with
    traffic, in that tuple's order. ``rows`` are vertex-row counts —
    bytes follow per call as ``rows * row_bytes``.
    """

    rows: np.ndarray
    #: scheduler link device id per key
    devices: np.ndarray
    #: per reader GPU, the key indices feeding it (deduped, key order)
    by_reader: List[List[int]]
    #: per key, the contributing GPUs (deduped, contribution order)
    key_gpus: List[List[int]]
    #: per key, the link endpoints (node ids) — heterogeneous fleets
    #: price each message at the slower endpoint's NIC rate
    src_nodes: np.ndarray
    dst_nodes: np.ndarray

    def __bool__(self) -> bool:
        return bool(len(self.rows))


@dataclass
class _BatchStatic:
    """Placement/plan-derived constants of one batch, computed once."""

    loaded_rows: np.ndarray
    reused_rows: np.ndarray
    #: per GPU, ``len(needed)`` — the row count of its input and gradient
    needed_rows: np.ndarray
    #: stacked-buffer slots newly staged this batch, all GPUs (their
    #: gradient starts at zero)
    zero_slots: np.ndarray
    load_halo: _HaloSplit
    #: flattened fetch segments, (plan, segment) order, split by class
    local_gpu: np.ndarray
    local_rows: np.ndarray
    d2d_gpu: np.ndarray
    d2d_rows: np.ndarray
    #: per GPU, the rows it reads over P2P (``d2d_rows`` summed by reader)
    d2d_rows_by_gpu: np.ndarray
    fetch_halo: _HaloSplit
    push_halo: _HaloSplit
    flush_rows: np.ndarray
    #: per GPU, the flushed vertices and their stacked-buffer slots
    flush_vertices: List[np.ndarray]
    flush_slots: List[np.ndarray]
    flush_halo: _HaloSplit


def _grouped(values: np.ndarray, groups: np.ndarray,
             num_groups: int) -> List[List[int]]:
    """``values`` as one list per group id; ``groups`` is ascending."""
    bounds = np.searchsorted(groups, np.arange(num_groups + 1)).tolist()
    flat = values.tolist()
    return [flat[start:end] for start, end in zip(bounds, bounds[1:])]


class PlanStatic:
    """What a communicator reads of a (plan, placement) pair, built once.

    Two things, both fixed until the plan or the placement changes: the
    routing snapshot (node, rail and owner-node arrays — node membership
    is the platform's ``placement`` at construction) and, lazily per
    batch, the :class:`_BatchStatic` emission constants (and serving's
    :meth:`staging_halo`) derived from it.
    None of it depends on rates, row width or buffer contents, so every
    communicator over the same pair — the trainer's value and gradient
    communicators — shares one instance; whoever re-plans or re-places
    builds a new one (:func:`repro.core.planner.plan_fleet`).
    """

    def __init__(self, plan: CommPlan, platform: MultiGPUPlatform):
        if platform.num_gpus < plan.num_gpus:
            raise CommunicationPlanError(
                f"plan needs {plan.num_gpus} GPUs, platform has "
                f"{platform.num_gpus}"
            )
        self.plan = plan
        self.platform = platform
        m = plan.num_gpus
        self.num_nodes: int = platform.num_nodes
        # Wave arrays are in GPU order, so ``devices=gpu_ids`` prices each
        # element with its owning node's rates.
        self.gpu_ids = np.arange(m, dtype=np.int64)
        self.gpu_nodes = platform.placement[:m]
        # Rail count resolves the per-pair link fan-out (1 for
        # flat/spine); a GPU's cross-node traffic rides the rail of its
        # local rank within its node — placement-aware, so moving a
        # partition to another node re-rails it with its new local rank.
        self.num_rails: int = platform.num_rails
        if platform.topology.kind == "rail":
            self.gpu_rails = np.array(
                [platform.local_rank(i) for i in range(m)], dtype=np.int64,
            ) % self.num_rails
        else:
            self.gpu_rails = np.zeros(m, dtype=np.int64)
        #: owner node of every vertex (its owner partition's node); only
        #: the halo splits read it, so one node skips the array
        self.vertex_node: Optional[np.ndarray] = (
            self.gpu_nodes[plan.partition.assignment]
            if self.num_nodes > 1 else None)
        self._batches: Dict[int, _BatchStatic] = {}
        self._staging_halos: Dict[int, _HaloSplit] = {}

    # ------------------------------------------------------------------
    # cluster halo coalescing
    # ------------------------------------------------------------------
    def _build_halo(self, src: np.ndarray, dst: np.ndarray, gpu: np.ndarray,
                    rows: np.ndarray) -> _HaloSplit:
        """Coalesce per-GPU cross-node row counts into one entry per link.

        Contribution ``c`` is ``rows[c]`` rows GPU ``gpu[c]`` exchanges
        over the directed node pair ``src[c] → dst[c]``, on that GPU's
        rail. The composite link code orders like the ``(src, dst, rail)``
        tuple, so ``np.unique`` yields the keys sorted.
        """
        m = self.plan.num_gpus
        code = (src * self.num_nodes + dst) * self.num_rails \
            + self.gpu_rails[gpu]
        codes, key_of = np.unique(code, return_inverse=True)
        key_rows = np.zeros(len(codes), dtype=np.int64)
        np.add.at(key_rows, key_of, rows)
        # Each (key, gpu) pair once, at its first contribution.
        _, first = np.unique(key_of * m + gpu, return_index=True)
        first.sort()
        pair_key, pair_gpu = key_of[first], gpu[first]
        by_key = np.argsort(pair_key, kind="stable")
        by_gpu = np.lexsort((pair_key, pair_gpu))
        pair, rails = np.divmod(codes, self.num_rails)
        src_nodes, dst_nodes = np.divmod(pair, self.num_nodes)
        return _HaloSplit(
            rows=key_rows,
            devices=np.array(
                [net_link(src, dst, self.num_nodes, rail, self.num_rails)
                 for src, dst, rail in zip(src_nodes.tolist(),
                                           dst_nodes.tolist(), rails.tolist())],
                dtype=np.int64,
            ),
            by_reader=_grouped(pair_key[by_gpu], pair_gpu[by_gpu], m),
            key_gpus=_grouped(pair_gpu[by_key], pair_key[by_key],
                              len(codes)),
            src_nodes=src_nodes,
            dst_nodes=dst_nodes,
        )

    def _vertex_halo(self, vertex_lists: Sequence[np.ndarray],
                     toward_owner: bool) -> _HaloSplit:
        """Split per-GPU vertex sets by owner node into link traffic.

        Rows owned by a different node add to the link between the two
        nodes (on the GPU's rail). The link direction is owner→gpu for
        inbound traffic (loads), or gpu→owner with ``toward_owner`` for
        outbound traffic (gradient flushes).
        """
        if self.vertex_node is None:
            return self._build_halo(_NO_IDS, _NO_IDS, _NO_IDS, _NO_IDS)
        gpu = np.repeat(self.gpu_ids, [len(v) for v in vertex_lists])
        owner = self.vertex_node[np.concatenate(vertex_lists)]
        remote = owner != self.gpu_nodes[gpu]
        pairs, rows = np.unique(
            gpu[remote] * self.num_nodes + owner[remote], return_counts=True)
        gpu, owner = np.divmod(pairs, self.num_nodes)
        home = self.gpu_nodes[gpu]
        src, dst = (home, owner) if toward_owner else (owner, home)
        return self._build_halo(src, dst, gpu, rows)

    # ------------------------------------------------------------------
    # per-batch static emission structure
    # ------------------------------------------------------------------
    def _require_batch(self, batch: int) -> None:
        if not (isinstance(batch, (int, np.integer))
                and 0 <= batch < self.plan.num_batches):
            raise CommunicationPlanError(
                f"batch must index one of the plan's "
                f"{self.plan.num_batches} batches, got {batch!r}"
            )

    def batch(self, batch: int) -> _BatchStatic:
        """The emission constants of ``batch`` (built on first use)."""
        self._require_batch(batch)
        cached = self._batches.get(batch)
        if cached is None:
            cached = self._batches[batch] = self._build_batch(batch)
        return cached

    def staging_halo(self, batch: int) -> _HaloSplit:
        """Cross-node traffic of staging ``batch``'s *full* transition
        sets — loaded and reused rows alike.

        The serving path's load halo: a request finds nothing resident,
        so every staged row owned by another node crosses the network,
        not only the epoch path's fresh ``load_halo`` rows. Built on
        first use; a training epoch never asks.
        """
        self._require_batch(batch)
        halo = self._staging_halos.get(batch)
        if halo is None:
            halo = self._staging_halos[batch] = self._vertex_halo(
                [plan.transition for plan in self.plan.plans[batch]],
                toward_owner=False)
        return halo

    def _build_batch(self, batch: int) -> _BatchStatic:
        plans = self.plan.plans[batch]
        m = len(plans)
        offsets = self.plan.buffer_offsets
        needed_rows = np.array([len(plan.needed) for plan in plans],
                               dtype=np.int64)
        # Fetch segment classes: intra-GPU reads, same-node P2P, and
        # cross-node halo (forward fetch owner→reader; the backward push
        # mirrors it reader→owner).
        reader, source, rows = self.plan.segments(batch)
        reader_node = self.gpu_nodes[reader]
        owner_node = self.gpu_nodes[source]
        local = source == reader
        halo = owner_node != reader_node
        d2d = ~(local | halo)
        # Flush split: gradients of rows not reused by the next batch
        # (everything on the last batch) leave the GPU; remotely-owned
        # rows additionally cross the network toward their owner node. A
        # reused row keeps its slot, so "kept" is a slot membership test.
        staged_rows = np.array([len(plan.transition) for plan in plans],
                               dtype=np.int64)
        staged_gpu = np.repeat(self.gpu_ids, staged_rows)
        slots = offsets[staged_gpu] \
            + np.concatenate([plan.positions for plan in plans])
        if batch == self.plan.num_batches - 1:
            flush = np.ones(len(slots), dtype=bool)
        else:
            following = self.plan.plans[batch + 1]
            kept = np.concatenate(
                [offsets[plan.gpu] + plan.positions[plan.reuse_mask]
                 for plan in following])
            flush = ~np.isin(slots, kept, assume_unique=True)
        flush_rows = np.bincount(staged_gpu[flush], minlength=m)
        cuts = np.cumsum(flush_rows)[:-1]
        flush_vertices = np.split(
            np.concatenate([plan.transition for plan in plans])[flush], cuts)
        return _BatchStatic(
            loaded_rows=np.array([plan.num_loaded for plan in plans],
                                 dtype=np.int64),
            reused_rows=np.array([plan.num_reused for plan in plans],
                                 dtype=np.int64),
            needed_rows=needed_rows,
            zero_slots=np.concatenate([plan.load_slots for plan in plans]),
            load_halo=self._vertex_halo(
                [plan.load_vertices for plan in plans], toward_owner=False),
            local_gpu=reader[local],
            local_rows=rows[local],
            d2d_gpu=reader[d2d],
            d2d_rows=rows[d2d],
            d2d_rows_by_gpu=np.bincount(reader[d2d], weights=rows[d2d],
                                        minlength=m).astype(np.int64),
            fetch_halo=self._build_halo(owner_node[halo], reader_node[halo],
                                        reader[halo], rows[halo]),
            push_halo=self._build_halo(reader_node[halo], owner_node[halo],
                                       reader[halo], rows[halo]),
            flush_rows=flush_rows,
            flush_vertices=flush_vertices,
            flush_slots=np.split(slots[flush], cuts),
            flush_halo=self._vertex_halo(flush_vertices, toward_owner=True),
        )


class DedupCommunicator:
    """Executes a :class:`CommPlan` over a simulated platform.

    Parameters
    ----------
    plan:
        The per-epoch communication plan.
    platform:
        Simulated hardware (memory pools + cost model). Must expose at least
        as many GPUs as the plan has partitions.
    bytes_per_scalar:
        Logical element size for volume/memory accounting (4 = float32 on
        the real hardware; the numpy payloads may be wider).
    static:
        The :class:`PlanStatic` of ``(plan, platform placement)`` to share
        with other communicators over the same pair; built here when
        omitted.
    """

    def __init__(self, plan: CommPlan, platform: MultiGPUPlatform,
                 bytes_per_scalar: int = 4,
                 static: Optional[PlanStatic] = None):
        if static is None:
            static = PlanStatic(plan, platform)
        elif static.plan is not plan or static.platform is not platform:
            raise CommunicationPlanError(
                "static was built for a different plan or platform")
        self.plan = plan
        self.platform = platform
        self.bytes_per_scalar = bytes_per_scalar
        #: routing snapshot + per-batch emission constants (row counts,
        #: segment classes, halo coalescing) — plan and placement are
        #: fixed for the communicator's lifetime, so each batch's are
        #: computed once and reused by every layer sweep and epoch
        self.static = static
        self._buffers: Optional[TransitionBuffers] = None
        self._dim = 0
        # Per-sweep dependency history: batch → the task-id arrays its
        # call submitted (forward files "load"/"reuse"/"assemble",
        # backward "scatter"/"flush"/"cpu").
        self._history: List[Dict[str, np.ndarray]] = []
        # Per-gpu input task ids of the latest forward batch (net tasks
        # have link device ids, so a device filter cannot recover them).
        self._last_inputs_by_gpu: List[np.ndarray] = []

    # ------------------------------------------------------------------
    # sweep lifecycle
    # ------------------------------------------------------------------
    def start_sweep(self, dim: int, dtype=np.float64,
                    double_buffer: bool = False) -> None:
        """Allocate per-GPU transition buffers for a layer sweep of width dim.

        With ``double_buffer`` each GPU pays for two staging buffers so the
        pipeline policy can prefetch batch j+1's rows while batch j's buffer
        is still being consumed.
        """
        if self._buffers is not None:
            raise CommunicationPlanError("previous sweep still active")
        self._dim = dim
        self._buffers = TransitionBuffers(
            self.platform, self.plan.buffer_rows, dim, dtype,
            self.bytes_per_scalar, double_buffer=double_buffer,
        )
        self._history = []
        self._last_inputs_by_gpu = []

    def end_sweep(self) -> None:
        """Free the transition buffers."""
        if self._buffers is not None:
            self._buffers.free()
        self._buffers = None
        self._history = []
        self._last_inputs_by_gpu = []

    def _require_sweep(self) -> TransitionBuffers:
        if self._buffers is None:
            raise CommunicationPlanError("no active sweep; call start_sweep()")
        return self._buffers

    def _require_host(self, name: str, array: np.ndarray) -> None:
        """``array`` must be the host's per-vertex buffer of this sweep."""
        expected = (len(self.plan.partition.assignment), self._dim)
        if np.shape(array) != expected:
            raise CommunicationPlanError(
                f"{name} must be the host's {expected} per-vertex array of "
                f"this sweep, got shape {np.shape(array)}"
            )

    def _segment_seconds(self, static: _BatchStatic, row_bytes: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-GPU (d2d, local) assemble seconds, summed in segment order.

        ``np.add.at`` accumulates in array order — the same per-GPU float
        addition order as a per-segment loop, so the sums are
        bit-identical to one.
        """
        m = self.plan.num_gpus
        d2d_seconds = np.zeros(m)
        local_seconds = np.zeros(m)
        if len(static.d2d_gpu):
            np.add.at(d2d_seconds, static.d2d_gpu,
                      self.platform.d2d_seconds(static.d2d_rows * row_bytes,
                                                devices=static.d2d_gpu))
        if len(static.local_gpu):
            np.add.at(local_seconds, static.local_gpu,
                      self.platform.reuse_seconds(
                          static.local_rows * row_bytes,
                          devices=static.local_gpu))
        return d2d_seconds, local_seconds

    def net_bytes_by_flow(self, timeline: EventTimeline
                          ) -> Dict[str, Dict[Tuple[int, int], int]]:
        """Bytes of ``timeline``'s halo ``net`` tasks: flow (a wave's
        label stem, one of :data:`HALO_FLOWS`) → ``(src_node, dst_node)``
        → bytes, rails merged. The measured side of the halo analyses in
        ``partition/nodes.py`` (tested to match ``halo_volumes``
        exactly)."""
        scheduler = timeline.scheduler
        columns = scheduler.columns()
        stems = [label.partition("[")[0] for label in scheduler.phase_labels()]
        out: Dict[str, Dict[Tuple[int, int], int]] = {}
        halo = np.flatnonzero(np.isin(stems, HALO_FLOWS))
        tasks = np.flatnonzero(np.isin(columns.phase, halo))
        for phase, device, nbytes in zip(columns.phase[tasks].tolist(),
                                         columns.device[tasks].tolist(),
                                         columns.nbytes[tasks].tolist()):
            pair = net_link_nodes(device, self.static.num_nodes,
                                  self.static.num_rails)
            detail = out.setdefault(stems[phase], {})
            detail[pair] = detail.get(pair, 0) + nbytes
        return out

    def _emit_halo(self, timeline: EventTimeline, halo: _HaloSplit,
                   row_bytes: int, deps: Optional[np.ndarray] = None,
                   producers_by_key: Optional[Sequence] = None,
                   label: str = "") -> np.ndarray:
        """One coalesced ``net`` task, with its bytes, per directed link
        with traffic.

        Returns the submitted task ids aligned with the halo's keys (empty
        when there is no cross-node traffic, so single-node runs never
        reach the scheduler from here). ``deps`` gate every message;
        ``producers_by_key[k]`` (an id array) adds per-link producers.
        Spine messages additionally hold the shared
        :data:`~repro.runtime.task.SPINE_RESOURCE` for their excess
        core-transit time. ``timeline`` is anything with
        :meth:`~repro.hardware.clock.EventTimeline.submit_batch` — the
        serving engine passes a wave recorder. ``label``'s stem names
        the flow (:data:`HALO_FLOWS`).
        """
        if not halo:
            return _NO_IDS
        nbytes = halo.rows * row_bytes
        seconds = self.platform.net_seconds(nbytes, src=halo.src_nodes,
                                            dst=halo.dst_nodes)
        shared = None
        holds = self.platform.spine_hold_seconds(nbytes)
        if np.any(np.asarray(holds) > 0):
            shared = [
                [(SPINE_RESOURCE, float(hold))] if hold > 0 else []
                for hold in np.broadcast_to(holds, (len(halo.rows),))
            ]
        return timeline.submit_batch(
            "net", seconds, devices=halo.devices, deps=deps,
            deps_by_device=producers_by_key, shared_by_device=shared,
            nbytes=nbytes, label=label,
        )

    @staticmethod
    def _ids_by_reader(halo: _HaloSplit, ids: np.ndarray,
                       num_gpus: int) -> List[np.ndarray]:
        """Invert key → task id into per-reader-GPU dependency arrays."""
        return [
            ids[halo.by_reader[gpu]] if halo.by_reader[gpu] else _NO_IDS
            for gpu in range(num_gpus)
        ]

    # ------------------------------------------------------------------
    # serving surface (request-driven forward passes)
    # ------------------------------------------------------------------
    def transition_rows(self, batch: int) -> np.ndarray:
        """Per-GPU staged transition rows of ``batch`` (loaded + reused).

        A serving request arrives with no previous column resident, so
        its staging load covers the *full* transition set — the epoch
        path's reuse rows are loaded too. Used by the serving engine to
        price the cold-miss h2d wave.
        """
        static = self.static.batch(batch)
        return static.loaded_rows + static.reused_rows

    def assemble_seconds(self, batch: int, row_bytes: int
                         ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-GPU (same-node P2P, intra-GPU gather) assemble seconds.

        The serving-side view of :meth:`_segment_seconds`: how long each
        GPU spends reading ``batch``'s staged rows over NVLink and from
        its own buffer, at ``row_bytes`` per vertex row. Cross-node
        segments are excluded — they are the halo fetch, emitted
        separately by :meth:`submit_serving_halo`.
        """
        return self._segment_seconds(self.static.batch(batch), row_bytes)

    def submit_serving_halo(self, timeline: EventTimeline, batch: int,
                            row_bytes: int, kind: str = "fetch",
                            deps: Optional[np.ndarray] = None,
                            label: str = "") -> Tuple[np.ndarray, List[np.ndarray]]:
        """Emit ``batch``'s coalesced cross-node halo tasks for serving.

        ``kind`` selects the flow: ``"load"`` ships remotely-owned host
        rows to the staging node before its PCIe load — every staged row,
        the ones an epoch would reuse in place included, as
        :meth:`transition_rows` prices them (empty under inter-GPU
        dedup, where every staged row is owner-local); ``"fetch"`` is
        the forward halo exchange — reads of transition buffers staged
        on another node. Returns ``(task ids, per-reader-GPU dependency
        arrays)`` — the same contract the epoch path wires compute waves
        with. The tasks carry their bytes (a replay moves them again);
        label them ``halo_{kind}[...]`` for :meth:`net_bytes_by_flow` to
        see the flow. Single-node platforms return empty ids and never touch
        ``timeline``.
        """
        if kind not in ("load", "fetch"):
            raise CommunicationPlanError(
                f"unknown serving halo kind {kind!r}; "
                f"expected 'load' or 'fetch'"
            )
        halo = (self.static.staging_halo(batch) if kind == "load"
                else self.static.batch(batch).fetch_halo)
        ids = self._emit_halo(timeline, halo, row_bytes, deps=deps,
                              label=label)
        return ids, self._ids_by_reader(halo, ids, self.plan.num_gpus)

    # ------------------------------------------------------------------
    # dependency bookkeeping helpers
    # ------------------------------------------------------------------
    def _batch_tasks(self, batch: int, key: str) -> np.ndarray:
        if 0 <= batch < len(self._history):
            return self._history[batch].get(key, _NO_IDS)
        return _NO_IDS

    def _record_batch(self, batch: int, tasks: Dict[str, np.ndarray]) -> None:
        """File ``batch``'s task ids in the sweep history."""
        while len(self._history) <= batch:
            self._history.append({})
        self._history[batch] = tasks

    def _staging_conflicts(self, batch: int) -> np.ndarray:
        """Tasks that must drain before batch ``batch`` overwrites its buffer.

        The staged slots of batch j live in the parity-(j mod copies) buffer:
        with double buffering their previous consumers are batch j-2's
        assembles plus batch j-1's reuse copies (which *read* parity j); with
        a single buffer, batch j-1's assembles and reuses.
        """
        buffers = self._require_sweep()
        if buffers.double_buffer:
            return np.concatenate([
                self._batch_tasks(batch - 2, "assemble"),
                self._batch_tasks(batch - 1, "reuse"),
            ])
        return np.concatenate([
            self._batch_tasks(batch - 1, "assemble"),
            self._batch_tasks(batch - 1, "reuse"),
        ])

    # ------------------------------------------------------------------
    # forward: Algorithm 2
    # ------------------------------------------------------------------
    def load_batch_forward(self, batch: int, host_values: np.ndarray,
                           timeline: EventTimeline) -> List[np.ndarray]:
        """Assemble h_{N_ij} for every GPU of ``batch`` from host memory.

        Returns one (len(needed_i), dim) array per GPU, ordered like each
        plan's ``needed`` set, in the *sweep's* dtype (the rows are read
        out of the transition buffers; a ``host_values`` of another dtype
        is cast on its way in). A ``batch`` outside the plan or a
        ``host_values`` that is not this sweep's ``(num_vertices, dim)``
        array raises :class:`~repro.errors.CommunicationPlanError` before
        anything moves or is emitted.
        """
        buffers = self._require_sweep()
        static = self.static.batch(batch)
        self._require_host("host_values", host_values)
        plans = self.plan.plans[batch]
        m = len(plans)
        row_bytes = self._dim * self.bytes_per_scalar
        gpu_ids = self.static.gpu_ids

        # Phase 1: host -> transition buffers (reuse in place first). Rows
        # owned by a remote node's partitions must cross the network before
        # they can cross this node's PCIe (empty under dedup_inter: every
        # staged row is owner-local).
        stacked = buffers.stacked
        # repro-lint: allow-loop — per-GPU numpy value movement (numerics, not timing); one indexed op per GPU
        for plan in plans:
            stacked[plan.load_slots] = host_values[plan.load_vertices]
        loaded_bytes = static.loaded_rows * row_bytes
        reused_bytes = static.reused_rows * row_bytes
        h2d_seconds = self.platform.h2d_seconds(loaded_bytes,
                                                devices=gpu_ids)
        reuse_seconds = self.platform.reuse_seconds(
            reused_bytes, devices=gpu_ids)

        halo_load_ids = self._emit_halo(
            timeline, static.load_halo, row_bytes,
            label=f"halo_load[b{batch}]",
        )
        conflicts = self._staging_conflicts(batch)
        halo_deps = None
        if len(halo_load_ids):
            halo_deps = self._ids_by_reader(
                static.load_halo, halo_load_ids, m
            )
        load_ids = timeline.submit_batch(
            "h2d", h2d_seconds, deps=conflicts,
            deps_by_device=halo_deps, nbytes=loaded_bytes,
            label=f"load[b{batch}]",
        )
        previous_load = self._batch_tasks(batch - 1, "load")
        previous_reuse = self._batch_tasks(batch - 1, "reuse")
        previous_sources = [
            np.concatenate([previous_load[i:i + 1],
                            previous_reuse[i:i + 1]])
            for i in range(m)
        ]
        # Reuse copies write this batch's staging slots too, so they
        # carry the same buffer-drain conflicts as the loads.
        reuse_ids = timeline.submit_batch(
            "gpu", reuse_seconds, deps=conflicts,
            deps_by_device=previous_sources,
            label=f"reuse[b{batch}]",
        )

        # Phase 2: assemble local inputs from (possibly remote) buffers.
        # Same-node remote reads ride NVLink (d2d); reads from a buffer
        # staged on another node are the halo exchange and ride a network
        # link instead. Whatever carries a row, it is one slot of the
        # stacked buffer: one gather per GPU assembles its whole input.
        outputs = [stacked[plan.source_slots] for plan in plans]
        d2d_seconds, local_seconds = self._segment_seconds(static, row_bytes)

        staged = np.concatenate([load_ids, reuse_ids])
        remote_ids = timeline.submit_batch(
            "d2d", d2d_seconds, deps=staged,
            nbytes=static.d2d_rows_by_gpu * row_bytes,
            label=f"fetch[b{batch}]",
        )
        halo_fetch_ids = self._emit_halo(
            timeline, static.fetch_halo, row_bytes, deps=staged,
            label=f"halo_fetch[b{batch}]",
        )
        net_by_reader = self._ids_by_reader(
            static.fetch_halo, halo_fetch_ids, m
        )
        local_sources = [
            np.concatenate([load_ids[i:i + 1], reuse_ids[i:i + 1]])
            for i in range(m)
        ]
        local_ids = timeline.submit_batch(
            "gpu", local_seconds, deps_by_device=local_sources,
            label=f"gather[b{batch}]",
        )
        assemble_ids = np.concatenate(
            [remote_ids, halo_fetch_ids, local_ids]
        )
        self._last_inputs_by_gpu = [
            np.concatenate([remote_ids[i:i + 1], local_ids[i:i + 1],
                            net_by_reader[i]])
            for i in range(m)
        ]
        self._record_batch(batch, {
            "load": load_ids, "reuse": reuse_ids,
            "assemble": assemble_ids,
        })
        return outputs

    def batch_input_dep_ids(self) -> List[np.ndarray]:
        """Per-GPU id arrays of the latest batch's input-producing tasks.

        Includes the halo-exchange network tasks feeding each GPU, which
        a plain device filter over the assemble phase could not find
        (their device ids name network links, not GPUs). Suitable as a
        ``deps_by_device`` argument directly.
        """
        return list(self._last_inputs_by_gpu)

    # ------------------------------------------------------------------
    # backward: Algorithm 3
    # ------------------------------------------------------------------
    def accumulate_batch_backward(self, batch: int,
                                  neighbor_grads: List[np.ndarray],
                                  host_grads: np.ndarray,
                                  timeline: EventTimeline,
                                  deps_by_device=None) -> None:
        """Push per-GPU neighbor gradients back toward the host ∇h buffer.

        ``neighbor_grads[i]`` is GPU i's (len(needed_i), dim) gradient of its
        chunk's input rows. Gradients accumulate in transition buffers across
        batches; rows not reused by the next batch are flushed to
        ``host_grads`` (modified in place). ``deps_by_device`` names the
        tasks that produced each GPU's gradients (the backward kernels) —
        an ``(m,)`` id array or per-GPU entries. A ``batch`` outside the
        plan, a ``host_grads`` that is not this sweep's
        ``(num_vertices, dim)`` array, or ``neighbor_grads`` that is not
        one ``(len(needed_i), dim)`` array per GPU raises
        :class:`~repro.errors.CommunicationPlanError` before anything
        moves or is emitted.
        """
        buffers = self._require_sweep()
        static = self.static.batch(batch)
        self._require_host("host_grads", host_grads)
        plans = self.plan.plans[batch]
        m = len(plans)
        if len(neighbor_grads) != m:
            raise CommunicationPlanError(
                f"neighbor_grads must hold one gradient array per GPU "
                f"({m}), got {len(neighbor_grads)}"
            )
        shapes = [np.shape(grads) for grads in neighbor_grads]
        expected = [(rows, self._dim) for rows in static.needed_rows.tolist()]
        if shapes != expected:
            gpu = next(i for i in range(m) if shapes[i] != expected[i])
            raise CommunicationPlanError(
                f"neighbor_grads[{gpu}] has shape {shapes[gpu]}, which does "
                f"not match GPU {gpu}'s needed set {expected[gpu]}"
            )
        row_bytes = self._dim * self.bytes_per_scalar
        gpu_ids = self.static.gpu_ids
        producer_ids = _per_device_ids(deps_by_device, m)

        # Zero the slots newly staged this batch (their gradient starts now).
        stacked = buffers.stacked
        stacked[static.zero_slots] = 0.0

        # Phase 1: scatter gradients into owners' buffers (atomicAdd_system).
        # Pushes into a buffer staged on another node cross the network
        # (the backward direction of the halo exchange). One GPU's needed
        # rows never name a buffer slot twice (build_comm_plan checks), so
        # its indexed += accumulates every row, and GPU order is the
        # addition order of a slot several readers share; so does the
        # flush below over each GPU's distinct vertices.
        # repro-lint: allow-loop — per-GPU numpy scatter (numerics, not timing); one indexed op per GPU
        for plan, grads in zip(plans, neighbor_grads):
            stacked[plan.source_slots] += grads
        d2d_seconds, local_seconds = self._segment_seconds(static, row_bytes)

        # Buffers must be drained by the previous batch's flush before
        # this batch's atomic adds land on the same slots.
        prior = self._batch_tasks(batch - 1, "flush")
        scatter_ids = timeline.submit_batch(
            "d2d", d2d_seconds, deps=prior, deps_by_device=producer_ids,
            nbytes=static.d2d_rows_by_gpu * row_bytes,
            label=f"scatter[b{batch}]",
        )
        if static.push_halo:
            # A halo push leaves once the kernels of every pushing GPU
            # on the source node have produced their gradients.
            producers_by_key = None
            if producer_ids is not None:
                producers_by_key = [
                    np.concatenate([
                        producer_ids[gpu] for gpu in gpus
                        if producer_ids[gpu] is not None
                    ] or [_NO_IDS])
                    for gpus in static.push_halo.key_gpus
                ]
            halo_push_ids = self._emit_halo(
                timeline, static.push_halo, row_bytes,
                deps=prior, producers_by_key=producers_by_key,
                label=f"halo_push[b{batch}]",
            )
            scatter_ids = np.concatenate([scatter_ids, halo_push_ids])
        push_local_ids = timeline.submit_batch(
            "gpu", local_seconds, deps=prior,
            deps_by_device=producer_ids, label=f"push[b{batch}]",
        )
        scatter_ids = np.concatenate([scatter_ids, push_local_ids])

        # Phase 2: flush gradients not reused by the next batch. Gradients
        # of remotely-owned vertices must additionally cross the network to
        # reach the owner node's ∇h buffer (empty under dedup_inter, where
        # every staged vertex is owner-local).
        # repro-lint: allow-loop — per-GPU numpy flush-add (numerics, not timing); one indexed op per GPU
        for vertices, slots in zip(static.flush_vertices,
                                   static.flush_slots):
            host_grads[vertices] += stacked[slots]
        flush_bytes = static.flush_rows * row_bytes
        d2h_seconds = self.platform.h2d_seconds(flush_bytes,
                                                devices=gpu_ids)
        cpu_seconds = self.platform.cpu_accumulate_seconds(
            flush_bytes, node=self.static.gpu_nodes)

        flush_ids = timeline.submit_batch(
            "d2h", d2h_seconds, deps=scatter_ids, nbytes=flush_bytes,
            label=f"flush[b{batch}]",
        )
        # Remote-owned gradients ship after leaving the GPU; the
        # accumulate below then also waits for their delivery, so the
        # host ∇h is complete when the batch's cpu tasks end.
        halo_flush_ids = self._emit_halo(
            timeline, static.flush_halo, row_bytes,
            producers_by_key=[
                flush_ids[gpus]
                for gpus in static.flush_halo.key_gpus
            ],
            label=f"halo_flush[b{batch}]",
        )
        if len(halo_flush_ids):
            net_by_gpu = self._ids_by_reader(
                static.flush_halo, halo_flush_ids, m
            )
            cpu_deps = [
                np.concatenate([flush_ids[i:i + 1], net_by_gpu[i]])
                for i in range(m)
            ]
        else:
            cpu_deps = [flush_ids[i:i + 1] for i in range(m)]
        cpu_ids = timeline.submit_batch(
            "cpu", cpu_seconds, deps_by_device=cpu_deps,
            label=f"accumulate[b{batch}]",
        )
        self._record_batch(batch, {
            "scatter": scatter_ids, "flush": flush_ids,
            "cpu": cpu_ids,
        })
