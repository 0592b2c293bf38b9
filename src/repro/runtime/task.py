"""Tasks and channels of the discrete-event execution engine.

A :class:`Task` is one unit of simulated hardware work — a kernel, a PCIe
transfer, a P2P copy, a network message, or a host-side accumulation —
bound to a *channel* of one *device*. Channels model the independent
hardware queues of a real GPU server (CUDA streams, copy engines, NICs,
host threads): two tasks on different channels of the same device may
overlap in time, while tasks on the same ``(device, channel)`` pair
serialize. This is the substrate of the paper's Algorithms 1-3: every
load/compute/writeback step of HongTu's epoch (§4, Fig. 5) becomes one
task, and barrier-vs-pipelined execution is purely a choice of
dependencies and barriers over the same task stream.

Channels are also the components the timeline reports time and bytes
under (the Fig. 9 components plus the cluster extension's network):

* ``gpu`` — the device's compute queue (kernels + intra-GPU copies),
* ``h2d`` — the host→device PCIe copy engine (the paper's T_hd traffic),
* ``d2h`` — the device→host PCIe copy engine (full-duplex PCIe),
* ``d2d`` — the NVLink/P2P engine (the paper's T_dd traffic),
* ``cpu`` — the host-side accumulation thread serving that device,
* ``net`` — an inter-node network link of the simulated cluster
  (the scale-out axis beyond the paper's single server; §7.1's DistGNN
  cluster and the multi-node HongTu extension share it).

``HOST_DEVICE`` (-1) is the pseudo-device for work with no GPU affinity
(e.g. the global loss computation). ``net`` tasks do not run on a GPU
either: their device id encodes a *directed node pair* (plus a rail index
on rail-optimized fabrics) — the network link the message occupies — via
:func:`net_link`. On a spine topology, net tasks additionally occupy the
shared :data:`SPINE_RESOURCE` so that disjoint node pairs contend on the
oversubscribed core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import Seconds

__all__ = ["Task", "CHANNELS", "HOST_DEVICE", "NET_DEVICE_BASE",
           "SPINE_RESOURCE", "OVERLAP_POLICIES",
           "net_link", "net_link_nodes", "net_link_parts"]

#: hardware queues a device exposes; one scheduler resource per (device, channel)
CHANNELS = ("gpu", "h2d", "d2h", "d2d", "cpu", "net")

#: pseudo-device id for host-global work
HOST_DEVICE = -1

#: network-link device ids occupy (-inf, NET_DEVICE_BASE]; see :func:`net_link`
NET_DEVICE_BASE = -2

#: shared scheduler resource of a spine topology's oversubscribed core:
#: every net task holds it for its excess core-transit time, so disjoint
#: node pairs contend once the core saturates
SPINE_RESOURCE = ("net", "spine")

#: epoch scheduling policies: ``barrier`` serializes phases (makespan == the
#: breakdown total, the sum of per-phase maxima); ``pipeline`` lets channels
#: overlap (prefetching batch j+1's host loads under batch j's compute).
OVERLAP_POLICIES = ("barrier", "pipeline")


def net_link(src_node: int, dst_node: int, num_nodes: int,
             rail: int = 0, num_rails: int = 1) -> int:
    """Scheduler device id of the directed ``src_node → dst_node`` link.

    Network tasks serialize per *link*, not per node: a full-duplex fabric
    carries ``src→dst`` and ``dst→src`` concurrently, and distinct node
    pairs never contend on their own links (spine contention is modeled
    separately, via the shared :data:`SPINE_RESOURCE`). On a
    rail-optimized fabric each directed pair owns ``num_rails`` parallel
    links, one per rail; ``num_rails == 1`` (flat/spine) reproduces the
    pre-rail encoding bit for bit. The diagonal ``src == dst`` is never
    used by pair traffic and is reserved for per-node NIC aggregates (the
    DistGNN baseline books its bulk-synchronous replica sync there).

    The returned id lives at/below :data:`NET_DEVICE_BASE` so it can never
    collide with GPU device ids (``>= 0``) or :data:`HOST_DEVICE` (-1).
    """
    if not (0 <= src_node < num_nodes and 0 <= dst_node < num_nodes):
        raise ConfigurationError(
            f"node pair ({src_node}, {dst_node}) outside cluster of "
            f"{num_nodes} nodes"
        )
    if not (0 <= rail < num_rails):
        raise ConfigurationError(
            f"rail {rail} outside fabric of {num_rails} rail(s)"
        )
    return NET_DEVICE_BASE - ((src_node * num_nodes + dst_node) * num_rails
                              + rail)


def net_link_parts(device: int, num_nodes: int,
                   num_rails: int = 1) -> Tuple[int, int, int]:
    """Inverse of :func:`net_link`: decode ``(src, dst, rail)``."""
    if device > NET_DEVICE_BASE:
        raise ConfigurationError(
            f"{device} is not a network-link device id"
        )
    flat, rail = divmod(NET_DEVICE_BASE - device, num_rails)
    return flat // num_nodes, flat % num_nodes, rail


def net_link_nodes(device: int, num_nodes: int,
                   num_rails: int = 1) -> Tuple[int, int]:
    """Decode a link device id to its directed node pair."""
    src, dst, _rail = net_link_parts(device, num_nodes, num_rails)
    return src, dst


@dataclass
class Task:
    """One scheduled unit of work on a ``(device, channel)`` resource.

    Produced only by :meth:`~repro.runtime.scheduler.EventScheduler.submit`;
    ``start``/``end`` are simulated seconds on the epoch clock, ``seconds``
    the task's own duration (``end - start`` exactly — tasks never preempt).
    """

    task_id: int
    channel: str
    device: int
    #: duration in simulated seconds (bytes/bandwidth or flops/throughput)
    seconds: Seconds
    #: simulated start time, seconds since the epoch's time zero
    start: Seconds
    #: simulated completion time (``start + seconds``)
    end: Seconds
    label: str = ""
    #: dependency task ids (for validation / critical-path walks)
    deps: Tuple[int, ...] = field(default_factory=tuple)
    #: id of the task that determined this task's start time (or None if the
    #: task started at a barrier / at time zero)
    blocked_by: Optional[int] = None

    def overlaps(self, other: "Task", eps: float = 1e-12) -> bool:
        """True if the two tasks' time intervals intersect."""
        return self.start < other.end - eps and other.start < self.end - eps

    def __repr__(self) -> str:
        return (
            f"Task(#{self.task_id} {self.label or self.channel}"
            f" dev={self.device} {self.channel}"
            f" [{self.start:.6f}, {self.end:.6f}])"
        )
