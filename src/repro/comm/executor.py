"""Executable deduplicated communication (Algorithms 2 and 3).

:class:`DedupCommunicator` prices HongTu's communication framework and
performs the part of it whose order can change a float. Every transfer of
Algorithms 2 and 3 is emitted onto an event timeline, with its simulated
seconds and the bytes it moves, and the transition buffers are registered
with the simulated GPUs' memory pools; of the rows themselves only the
gradients move — summed into transition gradient buffers by several
readers, then flushed into the host ∇h — because a value a GPU reads out
of a transition buffer is the host row staged there, unchanged.

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
carries the bytes it moves. Each forward batch call returns, per GPU,
the tasks that produce its input — what the caller hangs its compute
tasks off. Every emitting call takes a
:class:`~repro.runtime.scheduler.WaveRecorder` in the timeline's place
as well: the trainer records a layer sweep once and replays it in later
epochs, and the serving engine records a cold column's staging front.

Emission is *batched*: which rows each GPU loads, reuses, fetches and
flushes — and how the traffic splits across node pairs — is fixed by the
plan and the installed placement, so the per-batch row counts, segment
classifications and halo coalescing are precomputed once, with array ops
(:class:`PlanStatic`, one per plan + placement, shared by every
communicator built over the pair), and every (layer, batch) call reduces
to numpy cost expressions over all GPUs at once plus one ``submit_batch``
wave per phase. All dependency plumbing is task-id arrays: a wave's
per-GPU (or per-link) lists travel as one
:class:`~repro.runtime.scheduler.DepLists`, built with array ops from the
halo splits' CSR index arrays.

Row movement is *gradients only, in one address space*. A forward batch
copies nothing: :meth:`DedupCommunicator.submit_batch_forward` emits its
loads, reuse copies and fetches, and a reader takes the staged rows from
where they came from — GPU i's input h_{N_ij} is ``h[needed_i]`` of the
host's h^l, which is what the buffer slots would hold. The trainer's
linear AGGREGATE is one product per batch over h^l
(:meth:`repro.gnn.block.Block.in_slots`), §6's engine with its gather
fused into the SpMM, and GAT and GGNN read a chunk's input rows of h^l
when the chunk runs; :meth:`DedupCommunicator.load_batch_forward` returns
one copy per GPU for the callers that want them all at once.
The backward accumulates into the m transition gradient buffers as row
ranges of one stacked array
(:class:`~repro.runtime.buffers.TransitionBuffers`), at the slots the plan
stores per (batch, GPU): each GPU's rows add in place at its needed rows'
slots, then every flushed slot adds into its vertex's host row — two
prepared :class:`~repro.runtime.buffers.OrderedAdd` reductions per batch,
one compiled call per GPU for the scatter and one for the flush. The slots
are the only routing the plan stores; the per-segment seconds
classification reads the (reader, source, rows) triples
:meth:`~repro.comm.plan.CommPlan.segments` derives from them, once per
batch.

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
policy: rows move eagerly in program order, so summing atomic pushes and
host accumulation reproduces the monolithic scatter-add gradient
bit-for-bit (up to float addition order). That order is fixed too:
within one GPU the needed rows name distinct slots, so each gradient row
is added exactly once, GPUs add in GPU order, so a slot shared by several
readers accumulates them in reader-GPU order, and a host row flushed from
several GPUs' buffers (without inter-GPU dedup) takes them in GPU order —
the order of the per-segment walk the stacked buffer replaced
(``tests/executor_reference.py`` keeps that walk, and the per-GPU indexed
``+=`` after it, as the oracles, compared with ``np.array_equal``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.plan import CommPlan
from repro.errors import CommunicationPlanError
from repro.hardware.clock import EventTimeline
from repro.hardware.platform import MultiGPUPlatform
from repro.runtime.buffers import OrderedAdd, TransitionBuffers
from repro.runtime.scheduler import DepLists
from repro.runtime.task import SPINE_RESOURCE, net_link, net_link_nodes
from repro.units import SCALAR_BYTES

__all__ = ["DedupCommunicator", "PlanStatic"]

_NO_IDS = np.empty(0, dtype=np.int64)

#: the halo flows: a ``net`` wave labelled ``halo_fetch[b3]`` is flow 1
HALO_FLOWS = ("halo_load", "halo_fetch", "halo_push", "halo_flush")


@dataclass
class _HaloSplit:
    """Coalesced cross-node traffic of one phase, precomputed.

    One entry (a *key*) per ``(src_node, dst_node, rail)`` link with
    traffic, in that tuple's order. ``rows`` are vertex-row counts —
    bytes follow per call as ``rows * row_bytes``. The two incidences
    are CSR pairs: GPU ``g``'s keys are the ``reader_counts[g]`` entries
    of ``reader_keys`` after those of GPUs ``0 .. g-1``, and likewise
    per key for ``key_gpus``.
    """

    rows: np.ndarray
    #: scheduler link device id per key
    devices: np.ndarray
    #: per reader GPU, the key indices feeding it (deduped, key order)
    reader_keys: np.ndarray
    reader_counts: np.ndarray
    #: per key, the contributing GPUs (deduped, contribution order)
    key_gpus: np.ndarray
    key_counts: np.ndarray
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
    #: the scatter: part i adds GPU i's gradient rows into their
    #: stacked-buffer slots (its plan's ``source_slots``)
    scatter: OrderedAdd
    flush_rows: np.ndarray
    #: the flush: every flushed slot of the stacked buffer adds into its
    #: vertex's host row, in slot order — GPU order, a GPU's slots being
    #: its buffer's row range
    flush: OrderedAdd
    flush_halo: _HaloSplit


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
            devices=net_link(src_nodes, dst_nodes, self.num_nodes, rails,
                             self.num_rails),
            reader_keys=pair_key[by_gpu],
            reader_counts=np.bincount(pair_gpu, minlength=m),
            key_gpus=pair_gpu[by_key],
            key_counts=np.bincount(pair_key, minlength=len(codes)),
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
        staged = np.concatenate([plan.transition for plan in plans])
        # A batch's staged slots are distinct, so slot order is one order
        # of the flushed rows, and it is GPU order.
        flushed = np.zeros(offsets[-1], dtype=np.int64)
        flushed[slots[flush]] = 1
        by_slot = np.argsort(slots[flush])
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
            scatter=OrderedAdd([plan.source_slots for plan in plans],
                               offsets[-1]),
            flush_rows=flush_rows,
            flush=OrderedAdd([staged[flush][by_slot]],
                             len(self.plan.partition.assignment),
                             counts=[flushed]),
            flush_halo=self._vertex_halo(
                np.split(staged[flush], np.cumsum(flush_rows)[:-1]),
                toward_owner=True),
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
    static:
        The :class:`PlanStatic` of ``(plan, platform placement)`` to share
        with other communicators over the same pair; built here when
        omitted.
    """

    def __init__(self, plan: CommPlan, platform: MultiGPUPlatform,
                 static: Optional[PlanStatic] = None):
        if static is None:
            static = PlanStatic(plan, platform)
        elif static.plan is not plan or static.platform is not platform:
            raise CommunicationPlanError(
                "static was built for a different plan or platform")
        self.plan = plan
        self.platform = platform
        #: routing snapshot + per-batch emission constants (row counts,
        #: segment classes, halo coalescing) — plan and placement are
        #: fixed for the communicator's lifetime, so each batch's are
        #: computed once and reused by every layer sweep and epoch
        self.static = static
        self._buffers: Optional[TransitionBuffers] = None
        self._dim = 0
        # Per-sweep dependency history: batch → the task-id arrays its
        # call submitted that a later batch waits on (forward files
        # "load"/"reuse"/"assemble", backward "flush").
        self._history: List[Dict[str, np.ndarray]] = []

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
            double_buffer=double_buffer,
        )
        self._history = []

    def end_sweep(self) -> None:
        """Free the transition buffers."""
        if self._buffers is not None:
            self._buffers.free()
        self._buffers = None
        self._history = []

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
                   producers_by_key: Optional[DepLists] = None,
                   label: str = "") -> np.ndarray:
        """One coalesced ``net`` task, with its bytes, per directed link
        with traffic.

        Returns the submitted task ids aligned with the halo's keys (empty
        when there is no cross-node traffic, so single-node runs never
        reach the scheduler from here). ``deps`` gate every message;
        ``producers_by_key`` adds per-link producers, key ``k``'s
        ``k``-th entry.
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
    def _ids_by_reader(halo: _HaloSplit, ids: np.ndarray) -> DepLists:
        """Invert key → task id into per-reader-GPU dependency lists."""
        return DepLists(ids[halo.reader_keys], halo.reader_counts)

    @staticmethod
    def _ids_by_key(halo: _HaloSplit, ids: np.ndarray) -> DepLists:
        """Per key, the tasks of its contributing GPUs (``ids`` one per
        GPU)."""
        return DepLists(ids[halo.key_gpus], halo.key_counts)

    # ------------------------------------------------------------------
    # serving surface (request-driven forward passes)
    # ------------------------------------------------------------------
    def submit_cold_load(self, timeline: EventTimeline, batch: int,
                         row_bytes: int, deps: Optional[np.ndarray],
                         tag: str = "") -> DepLists:
        """Emit the staging front of one cold serving column-layer.

        A request finds nothing resident, so every GPU stages ``batch``'s
        *full* transition set — the rows an epoch would reuse in place
        are loaded too — at ``row_bytes`` per vertex row, then assembles
        its input the way :meth:`submit_batch_forward` does. Five waves,
        in this order, each labelled ``{stem}{tag}``: ``halo_load``
        (:meth:`submit_serving_halo`), ``serve_load`` (``h2d``),
        ``serve_fetch`` (same-node P2P, ``d2d``), ``halo_fetch`` and
        ``serve_gather`` (intra-GPU reads, ``gpu``). ``deps`` gate the
        loads. Emission only: no row moves. Returns, per GPU, the ids
        its compute waits for (one :class:`DepLists`). A ``batch``
        outside the plan raises
        :class:`~repro.errors.CommunicationPlanError` before anything is
        emitted.
        """
        static = self.static.batch(batch)
        halo_load_ids, load_by_reader = self.submit_serving_halo(
            timeline, batch, row_bytes, kind="load", deps=deps,
            label=f"halo_load{tag}")
        staged_bytes = (static.loaded_rows + static.reused_rows) * row_bytes
        load_ids = timeline.submit_batch(
            "h2d", self.platform.h2d_seconds(staged_bytes,
                                             devices=self.static.gpu_ids),
            deps=deps,
            deps_by_device=load_by_reader if len(halo_load_ids) else None,
            nbytes=staged_bytes, label=f"serve_load{tag}",
        )
        d2d_seconds, gather_seconds = self._segment_seconds(static, row_bytes)
        fetch_ids = timeline.submit_batch(
            "d2d", d2d_seconds, deps=load_ids,
            nbytes=static.d2d_rows_by_gpu * row_bytes,
            label=f"serve_fetch{tag}",
        )
        _halo_fetch_ids, net_by_reader = self.submit_serving_halo(
            timeline, batch, row_bytes, kind="fetch", deps=load_ids,
            label=f"halo_fetch{tag}")
        gather_ids = timeline.submit_batch(
            "gpu", gather_seconds, deps_by_device=load_ids,
            label=f"serve_gather{tag}",
        )
        return DepLists.join(self.plan.num_gpus, fetch_ids, gather_ids,
                             net_by_reader)

    def submit_serving_halo(self, timeline: EventTimeline, batch: int,
                            row_bytes: int, kind: str = "fetch",
                            deps: Optional[np.ndarray] = None,
                            label: str = "") -> Tuple[np.ndarray, DepLists]:
        """Emit ``batch``'s coalesced cross-node halo tasks for serving.

        ``kind`` selects the flow: ``"load"`` ships remotely-owned host
        rows to the staging node before its PCIe load — every staged row,
        the ones an epoch would reuse in place included, as
        :meth:`submit_cold_load` stages them (empty under inter-GPU
        dedup, where every staged row is owner-local); ``"fetch"`` is
        the forward halo exchange — reads of transition buffers staged
        on another node. Returns ``(task ids, per-reader-GPU dependency
        lists)`` — the same :class:`DepLists` the epoch path wires compute
        waves with. The tasks carry their bytes (a replay moves them again);
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
        return ids, self._ids_by_reader(halo, ids)

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
        """Emit ``batch``'s forward traffic and return every GPU's input.

        :meth:`submit_batch_forward`, then h_{N_ij} for every GPU: the
        rows of ``host_values`` at its plan's ``needed`` set, in that
        order, in the *sweep's* dtype. A row a GPU reads out of a
        transition buffer is the host row staged there, so they are read
        from the host. A ``batch`` outside the plan, no active sweep, or a
        ``host_values`` that is not this sweep's ``(num_vertices, dim)``
        array raises :class:`~repro.errors.CommunicationPlanError` before
        anything is emitted.
        """
        dtype = self._require_sweep().dtype
        self.static.batch(batch)
        self._require_host("host_values", host_values)
        self.submit_batch_forward(batch, timeline)
        return [host_values[plan.needed].astype(dtype, copy=False)
                for plan in self.plan.plans[batch]]

    def submit_batch_forward(self, batch: int,
                             timeline: EventTimeline) -> DepLists:
        """Emit ``batch``'s forward traffic; no row moves.

        The waves, labels, bytes and dependencies of Algorithm 2 for one
        batch: host loads (``halo_load``, ``load``) and in-place reuse
        copies (``reuse``), then the assembly of every GPU's input — P2P
        and halo fetches (``fetch``, ``halo_fetch``) and intra-GPU reads
        (``gather``). Returns, per GPU, the ids its compute waits for
        (one :class:`DepLists`, as :meth:`submit_cold_load` does): its
        ``fetch`` and ``gather`` tasks and the ``halo_fetch`` messages it
        reads, which a device filter could not find (their device ids
        name network links, not GPUs). The mirror of
        :meth:`submit_batch_backward`: a caller that reads the staged rows
        where they come from — h^l on the host — needs nothing more;
        :meth:`load_batch_forward` adds the per-GPU inputs. A ``batch``
        outside the plan or no active sweep raises
        :class:`~repro.errors.CommunicationPlanError` before anything is
        emitted.
        """
        self._require_sweep()
        static = self.static.batch(batch)
        m = self.plan.num_gpus
        row_bytes = self._dim * SCALAR_BYTES
        gpu_ids = self.static.gpu_ids

        # Phase 1: host -> transition buffers (reuse in place first). Rows
        # owned by a remote node's partitions must cross the network before
        # they can cross this node's PCIe (empty under dedup_inter: every
        # staged row is owner-local).
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
        load_ids = timeline.submit_batch(
            "h2d", h2d_seconds, deps=conflicts,
            deps_by_device=self._ids_by_reader(static.load_halo,
                                               halo_load_ids)
            if len(halo_load_ids) else None,
            nbytes=loaded_bytes, label=f"load[b{batch}]",
        )
        # Reuse copies write this batch's staging slots too, so they
        # carry the same buffer-drain conflicts as the loads.
        reuse_ids = timeline.submit_batch(
            "gpu", reuse_seconds, deps=conflicts,
            deps_by_device=DepLists.join(
                m, self._batch_tasks(batch - 1, "load"),
                self._batch_tasks(batch - 1, "reuse")),
            label=f"reuse[b{batch}]",
        )

        # Phase 2: assemble local inputs from (possibly remote) buffers.
        # Same-node remote reads ride NVLink (d2d); reads from a buffer
        # staged on another node are the halo exchange and ride a network
        # link instead.
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
        local_ids = timeline.submit_batch(
            "gpu", local_seconds,
            deps_by_device=DepLists.join(m, load_ids, reuse_ids),
            label=f"gather[b{batch}]",
        )
        assemble_ids = np.concatenate(
            [remote_ids, halo_fetch_ids, local_ids]
        )
        self._record_batch(batch, {
            "load": load_ids, "reuse": reuse_ids,
            "assemble": assemble_ids,
        })
        return DepLists.join(
            m, remote_ids, local_ids,
            self._ids_by_reader(static.fetch_halo, halo_fetch_ids))

    # ------------------------------------------------------------------
    # backward: Algorithm 3
    # ------------------------------------------------------------------
    def _require_producers(self, deps_by_device,
                           timeline: EventTimeline) -> None:
        """``deps_by_device`` must be None or one task id per GPU, each
        naming a task already on ``timeline`` (an
        :class:`~repro.hardware.clock.EventTimeline` or a
        :class:`~repro.runtime.scheduler.WaveRecorder`)."""
        m = self.plan.num_gpus
        if deps_by_device is not None and not (
                isinstance(deps_by_device, np.ndarray)
                and deps_by_device.shape == (m,)
                and deps_by_device.dtype.kind in "iu"
                and deps_by_device.min() >= 0
                and deps_by_device.max() < timeline.num_tasks):
            raise CommunicationPlanError(
                f"deps_by_device must be None or an ({m},) array of "
                f"submitted task ids, one producer per GPU, got "
                f"{deps_by_device!r}"
            )

    def accumulate_batch_backward(self, batch: int,
                                  neighbor_grads: List[np.ndarray],
                                  host_grads: np.ndarray) -> None:
        """Push per-GPU neighbor gradients back toward the host ∇h buffer.

        ``neighbor_grads[i]`` is GPU i's (len(needed_i), dim) gradient of its
        chunk's input rows. Gradients accumulate in transition buffers across
        batches; rows not reused by the next batch are flushed to
        ``host_grads`` (modified in place). Rows only: the batch's traffic
        is :meth:`submit_batch_backward`'s, which a caller that times the
        sweep calls beside this one. A ``batch`` outside the plan, a
        ``host_grads`` that is not this sweep's ``(num_vertices, dim)``
        array — C-contiguous, float32 or float64, at least as wide as the
        sweep's dtype — or ``neighbor_grads`` that is not one
        ``(len(needed_i), dim)`` array per GPU of a dtype the sweep's holds
        exactly raises :class:`~repro.errors.CommunicationPlanError`
        before anything moves.

        The rows add in place: each GPU's into the stacked gradient buffer,
        GPUs in order, then the flushed slots into ``host_grads``, each
        host row taking its slots in GPU order (:class:`OrderedAdd`) — the
        additions, and their order, of one indexed ``+=`` per GPU.
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
        neighbor_grads = [np.asarray(grads) for grads in neighbor_grads]
        shapes = [grads.shape for grads in neighbor_grads]
        expected = [(rows, self._dim) for rows in static.needed_rows.tolist()]
        if shapes != expected:
            gpu = next(i for i in range(m) if shapes[i] != expected[i])
            raise CommunicationPlanError(
                f"neighbor_grads[{gpu}] has shape {shapes[gpu]}, which does "
                f"not match GPU {gpu}'s needed set {expected[gpu]}"
            )
        # The adds are exact only into a dtype at least as wide (a float
        # += casts nothing else exactly), and land in host_grads itself.
        dtype = buffers.dtype
        narrowing = [i for i, grads in enumerate(neighbor_grads)
                     if not np.can_cast(grads.dtype, dtype, "safe")]
        if narrowing:
            raise CommunicationPlanError(
                f"neighbor_grads[{narrowing[0]}] is "
                f"{neighbor_grads[narrowing[0]].dtype}, which this sweep's "
                f"{dtype} buffers cannot hold exactly"
            )
        if not (host_grads.flags.c_contiguous
                and host_grads.dtype in (np.float32, np.float64)
                and np.can_cast(dtype, host_grads.dtype, "safe")):
            raise CommunicationPlanError(
                f"host_grads must be a C-contiguous float array that holds "
                f"this sweep's {dtype} exactly, got a "
                f"{'' if host_grads.flags.c_contiguous else 'strided '}"
                f"{host_grads.dtype} array"
            )

        # Zero the slots newly staged this batch (their gradient starts now).
        stacked = buffers.stacked
        stacked[static.zero_slots] = 0.0
        # Phase 1: scatter gradients into owners' buffers (atomicAdd_system),
        # each GPU's rows added in place by one compiled call, GPUs in
        # order: GPU order is the addition order of a slot several readers
        # share. One GPU's needed rows never name a slot twice
        # (build_comm_plan checks).
        for gpu, grads in enumerate(neighbor_grads):
            static.scatter(stacked, grads, gpu)
        # Phase 2: flush gradients not reused by the next batch: host row
        # v takes its flushed slots in GPU order.
        static.flush(host_grads, stacked)

    def submit_batch_backward(self, batch: int, timeline: EventTimeline,
                              deps_by_device=None) -> None:
        """Emit ``batch``'s backward traffic; no row moves.

        The waves, labels, bytes and dependencies of Algorithm 3 for one
        batch: the scatter of every GPU's neighbor gradients into the
        owners' transition buffers (``scatter``, ``halo_push``, ``push``),
        then the flush of the rows the next batch does not reuse
        (``flush``, ``halo_flush``, ``accumulate``). The mirror of
        :meth:`submit_batch_forward`: every layer's backward emits
        through this one call, and the rows, where something reads them
        (not at layer 0: the input features are constants), move by
        :meth:`accumulate_batch_backward`. ``timeline`` is an
        :class:`~repro.hardware.clock.EventTimeline` or a
        :class:`~repro.runtime.scheduler.WaveRecorder`.
        ``deps_by_device`` is None or the ``(m,)`` integer id array of
        the tasks on ``timeline`` that produced each GPU's gradients (the
        backward kernels, one per GPU). A ``batch`` outside the plan, no
        active sweep, or a ``deps_by_device`` of another form, dtype or
        range raises :class:`~repro.errors.CommunicationPlanError` before
        anything is emitted.
        """
        self._require_sweep()
        static = self.static.batch(batch)
        self._require_producers(deps_by_device, timeline)
        m = self.plan.num_gpus
        row_bytes = self._dim * SCALAR_BYTES

        # Scatter. Pushes into a buffer staged on another node cross the
        # network (the backward direction of the halo exchange).
        d2d_seconds, local_seconds = self._segment_seconds(static, row_bytes)
        # Buffers must be drained by the previous batch's flush before
        # this batch's atomic adds land on the same slots.
        prior = self._batch_tasks(batch - 1, "flush")
        scatter_ids = timeline.submit_batch(
            "d2d", d2d_seconds, deps=prior, deps_by_device=deps_by_device,
            nbytes=static.d2d_rows_by_gpu * row_bytes,
            label=f"scatter[b{batch}]",
        )
        if static.push_halo:
            # A halo push leaves once the kernels of every pushing GPU
            # on the source node have produced their gradients.
            halo_push_ids = self._emit_halo(
                timeline, static.push_halo, row_bytes, deps=prior,
                producers_by_key=None if deps_by_device is None
                else self._ids_by_key(static.push_halo, deps_by_device),
                label=f"halo_push[b{batch}]",
            )
            scatter_ids = np.concatenate([scatter_ids, halo_push_ids])
        push_local_ids = timeline.submit_batch(
            "gpu", local_seconds, deps=prior,
            deps_by_device=deps_by_device, label=f"push[b{batch}]",
        )
        scatter_ids = np.concatenate([scatter_ids, push_local_ids])

        # Flush. Gradients of remotely-owned vertices must additionally
        # cross the network to reach the owner node's ∇h buffer (empty
        # under dedup_inter, where every staged vertex is owner-local).
        flush_bytes = static.flush_rows * row_bytes
        d2h_seconds = self.platform.h2d_seconds(flush_bytes,
                                                devices=self.static.gpu_ids)
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
            producers_by_key=self._ids_by_key(static.flush_halo, flush_ids),
            label=f"halo_flush[b{batch}]",
        )
        timeline.submit_batch(
            "cpu", cpu_seconds,
            deps_by_device=DepLists.join(
                m, flush_ids,
                self._ids_by_reader(static.flush_halo, halo_flush_ids))
            if len(halo_flush_ids) else flush_ids,
            label=f"accumulate[b{batch}]",
        )
        self._record_batch(batch, {"flush": flush_ids})
