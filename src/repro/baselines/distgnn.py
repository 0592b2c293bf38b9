"""DistGNN-like distributed CPU full-graph training simulator.

DistGNN [32] trains full-graph GNNs on a shared-nothing CPU cluster: the
graph is partitioned across nodes, each node holds its partition's vertex,
intermediate and *replica* data, and remote aggregations cross the network.
The paper compares against it in two configurations — one node (Table 5) and
a 16-node ECS cluster (Table 7) — and observes (a) an order of magnitude
slower than GPU execution and (b) OOM on big-graph GAT workloads because
replicas and communication buffers inflate the working set.

This simulator reproduces both effects from first principles: per-node
memory = even share of (vertex + intermediate + topology) data × a replica/
buffer inflation derived from the partition's replication factor, and
per-epoch time = CPU kernel time + network time for replica synchronization.
The numerics are optionally executed for real (small graphs) to produce
losses; large-graph rows only need the cost model.

Since the cluster extension, the epoch runs on the same event-timeline
runtime as HongTu instead of a separate analytic path: each layer submits
one ``cpu`` compute task per node and one ``net`` replica-sync task per
node NIC (the diagonal :func:`~repro.runtime.task.net_link` resources),
wired bulk-synchronously — a node's sync waits for its own compute, the
next layer waits for every sync. Table 7's DistGNN column is therefore a
timeline makespan, comparable task-for-task with the HongTu columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.memory_model import estimate_for_model
from repro.core.trainer import EpochResult
from repro.errors import ConfigurationError
from repro.gnn.models import GNNModel
from repro.graph.graph import Graph
from repro.hardware.clock import EventTimeline
from repro.hardware.memory import MemoryPool
from repro.hardware.spec import CPUClusterSpec
from repro.partition.metis import metis_partition
from repro.partition.replication import remote_replica_rows
from repro.runtime.task import net_link
from repro.units import SCALAR_BYTES

__all__ = ["DistGNNSimulator", "DistGNNEpochResult"]


@dataclass(kw_only=True)
class DistGNNEpochResult(EpochResult):
    #: peak resident bytes over the CPU nodes (the fleet has no GPUs)
    peak_node_bytes: int


class DistGNNSimulator:
    """Cost/capacity model of DistGNN on a CPU cluster."""

    def __init__(self, graph: Graph, model: GNNModel,
                 cluster: CPUClusterSpec, seed: int = 0):
        if model.dims[0] != graph.feature_dim:
            raise ConfigurationError(
                f"model input dim {model.dims[0]} != feature dim "
                f"{graph.feature_dim}"
            )
        self.graph = graph
        self.model = model
        self.cluster = cluster
        self._epoch = 0

        nodes = cluster.num_nodes
        self.assignment = metis_partition(graph, nodes, seed=seed)

        estimate = estimate_for_model(
            graph.num_vertices, graph.num_edges, model
        )
        self._remote_rows = remote_replica_rows(graph, self.assignment,
                                                nodes)
        # Replicas carry every layer's representation + gradient, and
        # DistGNN keeps dedicated send/receive buffers of the same size.
        replica_bytes = 3 * self._remote_rows * sum(model.dims) * SCALAR_BYTES
        resident = estimate.total_bytes // nodes + replica_bytes
        self.node_pools = []
        for node, nbytes in enumerate(resident.tolist()):
            pool = MemoryPool(cluster.memory_per_node, name=f"node{node}")
            pool.alloc("resident_working_set", nbytes)  # may raise OOM
            self.node_pools.append(pool)

    # ------------------------------------------------------------------
    def train_epoch(self) -> DistGNNEpochResult:
        """Simulate one epoch (forward + backward + replica sync).

        The epoch is a per-layer bulk-synchronous task DAG on the event
        timeline: layer l's per-node kernels (``cpu`` channel, one device
        per node) feed that node's replica sync (``net`` channel, the
        node's NIC), and layer l+1 starts only after every node's sync —
        DistGNN's epoch-level BSP schedule. The epoch time is the DAG's
        makespan.
        """
        timeline = EventTimeline()
        nodes = self.cluster.num_nodes
        n, e = self.graph.num_vertices, self.graph.num_edges
        # Distributed execution achieves only a fraction of the modeled
        # compute/network throughput (bulk-synchronous stragglers, replica
        # upkeep); single-node rates are measured directly.
        slowdown = (1.0 / self.cluster.distributed_efficiency
                    if nodes > 1 else 1.0)

        previous_layer = None  # task ids the next layer waits on
        for l, layer in enumerate(self.model.layers):
            # Forward + backward + recompute ≈ 3x the layer's forward cost,
            # split evenly across nodes (METIS balances vertices/edges).
            layer_flops = 3 * layer.forward_flops(n, n, e)
            compute_seconds = (
                slowdown * layer_flops
                / (nodes * self.cluster.compute_flops_per_node)
            )
            compute_ids = timeline.submit_batch(
                "cpu", [compute_seconds] * nodes,
                devices=list(range(nodes)),
                deps=previous_layer, label=f"cpu[l{l}]",
            )
            previous_layer = compute_ids
            if nodes > 1:
                row_bytes = layer.in_dim * SCALAR_BYTES
                sync_seconds = (slowdown * 2 * self._remote_rows * row_bytes
                                / self.cluster.network_bandwidth)
                previous_layer = timeline.submit_batch(
                    "net", sync_seconds,
                    devices=net_link(np.arange(nodes), np.arange(nodes),
                                     nodes),
                    deps_by_device=compute_ids,
                    label=f"replica_sync[l{l}]",
                )

        self._epoch += 1
        peak = max(pool.peak for pool in self.node_pools)
        return DistGNNEpochResult(self._epoch, timeline,
                                  peak_node_bytes=peak)
