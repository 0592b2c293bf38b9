"""Tests for the multi-node cluster extension.

Covers the platform's collective prices (ring/tree all-reduce, the halo
net term) including their degenerate cases, the partition→node mapping and halo
analysis, the ClusterPlatform capacity/cost contract, and the trainer-level
scale-out contract: ``nodes=1`` reproduces the single-node epoch seconds to
float precision under both overlap policies, and multi-node pipeline
overlap hides halo traffic under compute.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import SGD
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError, PartitionError
from repro.faults import FaultState
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    ClusterSpec,
    MultiGPUPlatform,
)
from repro.partition import (
    halo_volumes,
    partition_nodes,
    two_level_partition,
)
from repro.runtime import (
    CHANNELS,
    NET_DEVICE_BASE,
    net_link,
    net_link_nodes,
    net_link_parts,
)


class TestCollectivePricing:
    def make(self, nodes, bandwidth=1e9, latency=1e-6):
        return ClusterPlatform(
            ClusterSpec("toy", nodes, A100_SERVER, bandwidth, latency))

    def test_single_node_collectives_are_free(self):
        """nodes=1: nothing to synchronize, every collective costs 0."""
        platform = self.make(1)
        assert platform.allreduce_seconds(1 << 30, "ring") == 0.0
        assert platform.allreduce_seconds(1 << 30, "tree") == 0.0
        assert platform.halo_volume_seconds(1 << 30) == 0.0
        assert MultiGPUPlatform(A100_SERVER).allreduce_seconds(1 << 30) == 0.0

    def test_ring_two_node_degeneracy(self):
        """N=2 ring = one exchange round trip: 2 steps of B/2 each."""
        platform = self.make(2, bandwidth=100.0, latency=0.5)
        assert platform.allreduce_seconds(200.0, "ring") == \
            pytest.approx(2 * (0.5 + 100.0 / 100.0))

    def test_ring_formula(self):
        platform = self.make(4, bandwidth=10.0, latency=0.0)
        # 2(N-1) steps of B/N bytes: 6 * (100/4)/10 = 15.
        assert platform.allreduce_seconds(100.0, "ring") == \
            pytest.approx(15.0)

    def test_tree_formula(self):
        platform = self.make(4, bandwidth=10.0, latency=0.0)
        # 2*ceil(log2 4) steps of full B: 4 * 100/10 = 40.
        assert platform.allreduce_seconds(100.0, "tree") == \
            pytest.approx(40.0)

    def test_tree_beats_ring_on_latency_bound_payloads(self):
        """The crossover the two schedules exist for: with many nodes and
        a tiny payload, the ring's 2(N-1) latencies lose to the tree's
        2 log2 N; with a big payload the ring's B/N steps win."""
        platform = self.make(16, bandwidth=1e9, latency=1e-3)
        assert platform.allreduce_seconds(8, "tree") < \
            platform.allreduce_seconds(8, "ring")
        assert platform.allreduce_seconds(1 << 32, "ring") < \
            platform.allreduce_seconds(1 << 32, "tree")

    def test_zero_byte_ring_costs_only_latency(self):
        platform = self.make(4, bandwidth=10.0, latency=0.25)
        assert platform.allreduce_seconds(0.0) == pytest.approx(6 * 0.25)

    def test_halo_volume_is_bandwidth_only(self):
        """The net term amortizes message latency away: bytes over the
        collective rate, nothing else."""
        platform = self.make(2, bandwidth=50.0, latency=0.125)
        assert platform.halo_volume_seconds(100.0) == 2.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make(0)
        with pytest.raises(ConfigurationError):
            self.make(2, bandwidth=0.0)
        with pytest.raises(ConfigurationError):
            self.make(2, latency=-1.0)
        with pytest.raises(ConfigurationError):
            self.make(2).allreduce_seconds(8, algorithm="carrier_pigeon")

    def test_fresh_cluster_platform_prices_the_spec(self):
        platform = ClusterPlatform(A100_CLUSTER)
        assert len(platform.alive_nodes) == A100_CLUSTER.num_nodes
        assert platform.link_rate() == A100_CLUSTER.network_bandwidth
        assert platform.link_rate(0, 1) == A100_CLUSTER.network_bandwidth
        assert platform.collective_bandwidth \
            == A100_CLUSTER.network_bandwidth


class TestNetLinks:
    def test_links_disjoint_from_gpu_and_host_ids(self):
        ids = [net_link(s, d, 4) for s in range(4) for d in range(4)]
        assert len(set(ids)) == 16
        assert all(i <= NET_DEVICE_BASE for i in ids)

    def test_roundtrip(self):
        for s in range(3):
            for d in range(3):
                assert net_link_nodes(net_link(s, d, 3), 3) == (s, d)

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            net_link(2, 0, 2)
        with pytest.raises(ConfigurationError):
            net_link_nodes(0, 2)
        with pytest.raises(ConfigurationError):
            net_link(0, 1, 2, rail=2, num_rails=2)

    def test_rail_links_disjoint_and_decodable(self):
        ids = [net_link(s, d, 3, rail, 4)
               for s in range(3) for d in range(3) for rail in range(4)]
        assert len(set(ids)) == 36
        for s in range(3):
            for d in range(3):
                for rail in range(4):
                    device = net_link(s, d, 3, rail, 4)
                    assert net_link_parts(device, 3, 4) == (s, d, rail)
                    assert net_link_nodes(device, 3, 4) == (s, d)

    def test_array_encoding_matches_scalar(self):
        """Arrays encode every link at once: the scalar ids, as int64."""
        src, dst, rail = (grid.ravel() for grid in np.meshgrid(
            np.arange(3), np.arange(3), np.arange(4), indexing="ij"))
        links = net_link(src, dst, 3, rail, 4)
        assert links.dtype == np.int64
        assert links.tolist() == [
            net_link(s, d, 3, r, 4)
            for s, d, r in zip(src.tolist(), dst.tolist(), rail.tolist())]
        assert type(net_link(1, 2, 3)) is int
        assert net_link(np.arange(3), np.arange(3), 3).tolist() == \
            [net_link(node, node, 3) for node in range(3)]

    @pytest.mark.parametrize("args, names", [
        ((np.array([0, 2]), np.array([1, 0]), 2), r"node pair \(2, 0\)"),
        ((np.array([0, 1]), np.array([1, -1]), 2), r"node pair \(1, -1\)"),
        ((np.array([0, 1]), np.array([1, 0]), 2, np.array([0, 2]), 2),
         "rail 2"),
    ], ids=["src", "dst", "rail"])
    def test_array_out_of_range_rejected(self, args, names):
        with pytest.raises(ConfigurationError, match=names):
            net_link(*args)

    def test_single_rail_encoding_matches_flat(self):
        """num_rails=1 must reproduce the pre-rail link ids bit for bit
        (the flat-default equivalence guarantee)."""
        for s in range(4):
            for d in range(4):
                flat_id = NET_DEVICE_BASE - (s * 4 + d)
                assert net_link(s, d, 4) == flat_id
                assert net_link(s, d, 4, 0, 1) == flat_id


class TestPartitionNodes:
    def test_contiguous_blocks(self):
        np.testing.assert_array_equal(
            partition_nodes(8, 2), [0, 0, 0, 0, 1, 1, 1, 1]
        )
        np.testing.assert_array_equal(partition_nodes(4, 4), [0, 1, 2, 3])

    def test_uneven_split_rejected(self):
        with pytest.raises(PartitionError):
            partition_nodes(6, 4)

    def test_halo_matrix_zero_diagonal_and_single_node(self):
        graph = load_dataset("reddit_sim", scale=0.1, seed=0)
        partition = two_level_partition(graph, 4, 2, seed=0)
        halo = halo_volumes(partition, 2)
        assert halo.shape == (2, 2)
        assert halo[0, 0] == 0 and halo[1, 1] == 0
        # One node: everything is local by construction.
        assert halo_volumes(partition, 1).sum() == 0

    def test_zero_halo_partition(self):
        """Two disconnected rings split at the component boundary: no
        chunk needs a remote node's vertices, so the halo matrix is zero
        (and a cluster run would emit no fetch-phase network tasks)."""
        from repro.graph.graph import Graph

        half = 12
        ring = np.arange(half, dtype=np.int64)
        src = np.concatenate([ring, ring + half])
        dst = np.concatenate([np.roll(ring, 1), np.roll(ring, 1) + half])
        graph = Graph(src, dst, 2 * half, name="two_rings")
        assignment = np.repeat([0, 1, 2, 3], half // 2).astype(np.int64)
        partition = two_level_partition(graph, 4, 2,
                                        assignment=assignment)
        # Partitions {0,1} cover ring A, {2,3} ring B; with 2 GPUs per
        # node the node boundary coincides with the component boundary.
        halo = halo_volumes(partition, 2)
        assert halo.sum() == 0


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


def make_trainer(graph, platform, overlap, comm_mode="hongtu",
                 allreduce="ring"):
    model = build_model("gcn", [graph.feature_dim, 12, graph.num_classes],
                        np.random.default_rng(11))
    return HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=4, comm_mode=comm_mode, overlap=overlap,
                     allreduce=allreduce, seed=2),
        optimizer=SGD(model.parameters(), lr=0.02),
    )


class TestClusterPlatform:
    def test_one_node_cluster_matches_single_platform(self):
        single = MultiGPUPlatform(A100_SERVER)
        cluster = ClusterPlatform(A100_CLUSTER.with_num_nodes(1))
        assert cluster.num_gpus == single.num_gpus
        assert cluster.num_nodes == 1
        for nbytes in (1, 1 << 20, 1 << 30):
            assert cluster.h2d_seconds(nbytes) == single.h2d_seconds(nbytes)
            assert cluster.d2d_seconds(nbytes) == single.d2d_seconds(nbytes)

    def test_global_device_ids_and_node_map(self):
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(2))
        assert platform.num_gpus == 8
        assert [gpu.device_id for gpu in platform.gpus] == list(range(8))
        assert [platform.node_of(i) for i in range(8)] == \
            [0, 0, 0, 0, 1, 1, 1, 1]
        np.testing.assert_array_equal(
            partition_nodes(8, 2),
            [platform.node_of(i) for i in range(8)],
        )

    def test_net_seconds_prices_latency_plus_bytes(self):
        platform = ClusterPlatform(A100_CLUSTER)
        spec = platform.cluster
        assert platform.net_seconds(0) == spec.network_latency
        assert platform.net_seconds(spec.network_bandwidth) == \
            pytest.approx(spec.network_latency + 1.0)

    def test_single_node_platform_refuses_network(self):
        with pytest.raises(ConfigurationError):
            MultiGPUPlatform(A100_SERVER).net_seconds(1024)

    @pytest.mark.parametrize("mixed", [False, True],
                             ids=["equal", "mixed"])
    @pytest.mark.parametrize("nodes, dead", [
        (1, ()), (2, ()), (3, ()), (3, (0,)), (4, (1, 3)), (5, (0, 1, 2)),
    ])
    def test_host_shards_even_split(self, nodes, dead, mixed):
        """One share formula: capacity-proportional, dead nodes hold 0,
        remainder on the first alive node; equal capacities reproduce
        the even split ``nbytes // alive`` exactly."""
        cluster = A100_CLUSTER.with_num_nodes(nodes)
        if mixed:
            cluster = cluster.with_node_specs(tuple(
                replace(A100_SERVER, host_memory_bytes=(3 + n % 3) << 30)
                for n in range(nodes)))
        platform = ClusterPlatform(cluster)
        if dead:
            platform.apply_fault_state(FaultState(dead=frozenset(dead)))
        alive = [n for n in range(nodes) if n not in dead]
        for nbytes in (0, 1, 101, (1 << 40) + 7):
            shares = platform.split_host_bytes(nbytes)
            assert [pool for pool, _ in shares] == platform.hosts
            sizes = [share for _, share in shares]
            assert sum(sizes) == nbytes
            assert all(sizes[n] == 0 for n in dead)
            if mixed:
                capacity = [platform.node_specs[n].host_memory_bytes
                            for n in alive]
                floors = [nbytes * c // sum(capacity) for c in capacity]
            else:
                floors = [nbytes // len(alive)] * len(alive)
            floors[0] += nbytes - sum(floors)
            assert [sizes[n] for n in alive] == floors
        shares = platform.split_host_bytes(101)
        if (nodes, dead, mixed) == (2, (), False):
            assert [share for _, share in shares] == [51, 50]
        for pool, share in shares:
            pool.alloc("x", share)
        assert platform.host_in_use() == 101

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec("bad", 0, A100_SERVER, 1e9, 0.0)
        with pytest.raises(ValueError):
            ClusterSpec("bad", 2, A100_SERVER, -1.0, 0.0)


class TestClusterTrainer:
    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    def test_nodes1_bit_equal_to_single_node(self, graph, overlap):
        """The acceptance contract: a 1-node cluster reproduces the
        single-node epoch seconds to float precision (both policies)."""
        single = make_trainer(graph, MultiGPUPlatform(A100_SERVER),
                              overlap)
        cluster = make_trainer(
            graph, ClusterPlatform(A100_CLUSTER.with_num_nodes(1)),
            overlap)
        for _ in range(2):
            a = single.train_epoch()
            b = cluster.train_epoch()
            assert a.epoch_seconds == b.epoch_seconds
            assert a.loss == b.loss
            assert a.net_bytes == 0 and b.net_bytes == 0
            assert a.clock.as_dict() == b.clock.as_dict()

    def test_fleet_shape_comes_from_the_platform(self, graph):
        """One config runs on any fleet: the node count is the
        platform's, not a second declaration that could disagree."""
        config = HongTuConfig(num_chunks=4, seed=2)
        results = []
        for platform in (MultiGPUPlatform(A100_SERVER),
                         ClusterPlatform(A100_CLUSTER)):
            model = build_model(
                "gcn", [graph.feature_dim, 12, graph.num_classes],
                np.random.default_rng(11))
            results.append(HongTuTrainer(graph, model, platform,
                                         config).train_epoch())
        assert results[0].net_bytes == 0 < results[1].net_bytes
        assert np.isclose(results[0].loss, results[1].loss, atol=1e-9)

    def test_multi_node_emits_network_traffic(self, graph):
        trainer = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                               "barrier")
        result = trainer.train_epoch()
        result.timeline.validate()
        assert result.net_bytes > 0
        assert result.clock.seconds["net"] > 0
        columns = result.timeline.scheduler.columns()
        net = columns.channel == CHANNELS.index("net")
        assert net.any()
        # Network tasks occupy link resources, never GPU devices.
        assert (columns.device[net] <= NET_DEVICE_BASE).all()

    def test_multi_node_pipeline_hides_halo_traffic(self, graph):
        """Acceptance: pipeline strictly beats barrier on a multi-node,
        transfer-bound workload by overlapping halo traffic with compute."""
        barrier = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                               "barrier").train_epoch()
        pipeline = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                                "pipeline").train_epoch()
        assert pipeline.epoch_seconds < barrier.epoch_seconds
        assert pipeline.net_bytes == barrier.net_bytes

    def test_multi_node_numerics_match_single_node_reference(self, graph):
        """Sharding across nodes must not change what the model computes
        beyond float addition order."""
        single = make_trainer(graph, MultiGPUPlatform(A100_SERVER),
                              "barrier")
        cluster = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                               "pipeline")
        for _ in range(2):
            a = single.train_epoch()
            b = cluster.train_epoch()
            assert np.isclose(a.loss, b.loss, atol=1e-9)
        state_a = single.model.state_dict()
        state_b = cluster.model.state_dict()
        assert max(np.abs(state_a[k] - state_b[k]).max()
                   for k in state_a) < 1e-8

    @pytest.mark.parametrize("allreduce", ["ring", "tree"])
    def test_allreduce_schedules_run(self, graph, allreduce):
        trainer = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                               "barrier", allreduce=allreduce)
        result = trainer.train_epoch()
        labels = result.timeline.scheduler.phase_labels()
        assert f"all_reduce_{allreduce}" in labels

    def test_single_gpu_per_node_ring_degeneracy(self, graph):
        """N nodes x 1 GPU: no intra-node leg exists; the whole gradient
        synchronization is the inter-node ring, and the epoch still runs
        and validates."""
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(2),
                                   gpus_per_node=1)
        trainer = make_trainer(graph, platform, "barrier")
        result = trainer.train_epoch()
        result.timeline.validate()
        labels = result.timeline.scheduler.phase_labels()
        assert "all_reduce_ring" in labels
        assert "all_reduce_intra" not in labels
        assert result.net_bytes > 0

    def test_non_dedup_mode_ships_halo_loads_and_flushes(self, graph):
        """Without inter-GPU dedup, staged rows include remotely-owned
        vertices: host loads and gradient flushes must cross the network
        too (halo_load / halo_flush tasks exist)."""
        trainer = make_trainer(graph, ClusterPlatform(A100_CLUSTER),
                               "barrier", comm_mode="baseline")
        result = trainer.train_epoch()
        result.timeline.validate()
        scheduler = result.timeline.scheduler
        columns, labels = scheduler.columns(), scheduler.phase_labels()
        net = columns.channel == CHANNELS.index("net")
        prefixes = {labels[phase].split("[")[0]
                    for phase in columns.phase[net].tolist()}
        assert "halo_load" in prefixes
        assert "halo_flush" in prefixes
