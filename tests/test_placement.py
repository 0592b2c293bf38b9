"""Tests for the partition-level placement subsystem.

Covers the explicit partition→node map (validation + block default), the
partition-granularity halo matrices (they must aggregate to the node-pair
halo analyses for *any* placement), the placement search invariants
(every partition assigned exactly once, nodes balanced within ±1 GPU,
searched cost never above the block cost, strict improvement on skewed
orderings, determinism), the platform plumbing (``node_of`` /
``local_rank`` / ``node_gpus`` under arbitrary placements), the
executor-vs-static byte contract under a permuted placement, and the
trainer-level acceptance (numerics placement-independent; ``nodes=1``
float-identical under both policies).
"""

import numpy as np
import pytest

from repro.autograd import SGD
from repro.comm import DedupCommunicator, build_comm_plan
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError, PartitionError
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
from repro.partition import (
    PLACEMENT_POLICIES,
    SubgraphChunk,
    TwoLevelPartition,
    halo_load_volumes,
    halo_volumes,
    partition_halo_matrix,
    partition_load_matrix,
    partition_nodes,
    permute_partitions,
    placement_net_rows,
    search_placement,
    two_level_partition,
)
from repro.partition.nodes import _pair_counts

NODES = 2
GPUS = 4
M = NODES * GPUS
#: round-robin relabeling: scatters the METIS ordering's contiguous
#: locality across both node blocks, making the block placement skewed
SKEW = np.array([0, 2, 4, 6, 1, 3, 5, 7])


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


@pytest.fixture(scope="module")
def partition(graph):
    return two_level_partition(graph, M, 4, seed=0)


@pytest.fixture(scope="module")
def skewed(partition):
    return permute_partitions(partition, SKEW)


class TestPartitionNodesPlacement:
    def test_block_default_unchanged(self):
        assert partition_nodes(8, 2).tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_explicit_placement_returned_as_copy(self):
        placement = np.array([1, 0, 0, 1, 0, 1, 1, 0])
        out = partition_nodes(8, 2, placement)
        assert out.tolist() == placement.tolist()
        out[0] = 0
        assert placement[0] == 1  # caller's array untouched

    def test_wrong_length_rejected(self):
        with pytest.raises(PartitionError):
            partition_nodes(8, 2, np.zeros(7, dtype=np.int64))

    def test_out_of_range_node_rejected(self):
        with pytest.raises(PartitionError):
            partition_nodes(8, 2, np.array([0, 0, 0, 0, 1, 1, 1, 2]))
        with pytest.raises(PartitionError):
            partition_nodes(8, 2, np.array([0, 0, 0, 0, 1, 1, 1, -1]))

    def test_unbalanced_placement_rejected(self):
        with pytest.raises(PartitionError):
            partition_nodes(8, 2, np.array([0, 0, 0, 0, 0, 1, 1, 1]))

    @pytest.mark.parametrize("placement", [
        [0.9, 0.2, 0.4, 0.1, 1.7, 1.1, 1.3, 1.6],  # truncated to the block
        [0, 0, 0, 0, 1, 1, 1, 1.5],
        np.array([0, 0, 0, 0, 1, 1, 1, 0.5]),
        ["0", "0", "0", "0", "1", "1", "1", "1"],
        [0, 0, 0, 0, 1, 1, 1, float("nan")],
        [0, 0, 0, 0, 1, 1, 1, float("inf")],
        [False] * 4 + [True] * 4,
        [0, 0, 0, 0, 1, 1, True, 1],
        [[0, 0, 0, 0], [1, 1, 1]],
    ], ids=["fractions", "one_half", "array_half", "strings", "nan", "inf",
            "bools", "one_bool", "ragged"])
    def test_non_integer_node_ids_rejected(self, placement):
        """A cast used to truncate or parse these into node ids."""
        with pytest.raises(PartitionError, match="integer node ids"):
            partition_nodes(8, 2, placement)
        platform = ClusterPlatform(A100_CLUSTER)
        with pytest.raises(ConfigurationError, match="integer node ids"):
            platform.set_placement(placement)
        assert platform.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_integral_floats_are_node_ids(self):
        placement = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
        assert partition_nodes(8, 2, placement).tolist() \
            == [1, 0, 0, 1, 0, 1, 1, 0]
        assert partition_nodes(8, 2, np.array(placement)).dtype == np.int64


class TestHaloMatrices:
    @pytest.mark.parametrize("placement", [
        None,
        np.array([1, 0, 0, 1, 0, 1, 0, 1]),
        np.array([1, 1, 0, 0, 1, 0, 0, 1]),
    ])
    def test_fetch_matrix_aggregates_to_halo_volumes(self, partition,
                                                     placement):
        matrix = partition_halo_matrix(partition)
        node_map = partition_nodes(M, NODES, placement)
        expected = halo_volumes(partition, NODES, placement)
        aggregated = np.zeros((NODES, NODES), dtype=np.int64)
        for k in range(M):
            for i in range(M):
                if node_map[k] != node_map[i]:
                    aggregated[node_map[k], node_map[i]] += matrix[k, i]
        assert (aggregated == expected).all()

    @pytest.mark.parametrize("placement", [
        None,
        np.array([1, 0, 0, 1, 0, 1, 0, 1]),
    ])
    def test_load_matrix_aggregates_to_halo_load_volumes(self, partition,
                                                         placement):
        matrix = partition_load_matrix(partition)
        node_map = partition_nodes(M, NODES, placement)
        expected = halo_load_volumes(partition, NODES, placement)
        aggregated = np.zeros((NODES, NODES), dtype=np.int64)
        for k in range(M):
            for i in range(M):
                if node_map[k] != node_map[i]:
                    aggregated[node_map[k], node_map[i]] += matrix[k, i]
        assert (aggregated == expected).all()

    @pytest.mark.parametrize("layout", ["metis", "relabelled", "one_chunk",
                                        "empty_chunk"])
    def test_load_matrix_equals_the_isin_loop(self, graph, partition, skewed,
                                              layout):
        """The stamp array against the per-chunk ``np.isin`` it replaced."""
        if layout == "one_chunk":
            partition = two_level_partition(graph, M, 1, seed=0)
        elif layout == "relabelled":
            partition = skewed
        elif layout == "empty_chunk":
            # slot 1 of row 0 needs nothing, so slot 2 reuses nothing
            nothing = np.empty(0, dtype=np.int64)
            chunks = [list(row) for row in partition.chunks]
            chunks[0][1] = SubgraphChunk(nothing, nothing, nothing)
            partition = TwoLevelPartition(graph, chunks, partition.assignment)
        fresh_rows = []
        for row in partition.chunks:
            previous = np.empty(0, dtype=np.int64)
            fresh = []
            for chunk in row:
                needed = chunk.neighbor_global
                fresh.append(needed[~np.isin(needed, previous,
                                             assume_unique=True)])
                previous = needed
            fresh_rows.append(fresh)
        expected = _pair_counts(partition, fresh_rows)
        assert expected.sum() > 0
        assert np.array_equal(partition_load_matrix(partition), expected)

    def test_net_rows_matches_reorganization_counting(self, partition):
        expected = (int(halo_volumes(partition, NODES).sum())
                    + 2 * int(halo_load_volumes(partition, NODES).sum()))
        assert placement_net_rows(partition, NODES) == expected

    def test_diagonals_are_zero(self, partition):
        assert np.diagonal(partition_halo_matrix(partition)).sum() == 0
        assert np.diagonal(partition_load_matrix(partition)).sum() == 0


class TestSearchPlacement:
    def test_policies_constant(self):
        assert PLACEMENT_POLICIES == ("block", "search", "joint")

    def test_every_partition_assigned_exactly_once(self, skewed):
        result = search_placement(skewed, NODES)
        assert result.placement.shape == (M,)
        assert result.placement.dtype == np.int64
        assert set(result.placement.tolist()) <= set(range(NODES))

    def test_nodes_balanced_within_one_gpu(self, skewed):
        result = search_placement(skewed, NODES)
        counts = np.bincount(result.placement, minlength=NODES)
        assert counts.max() - counts.min() <= 1
        # the search preserves the exact m/N balance, in fact
        assert (counts == GPUS).all()

    def test_searched_rows_never_above_block_rows(self, skewed, partition):
        for part in (skewed, partition):
            result = search_placement(part, NODES)
            assert result.rows_search <= result.rows_block
            assert result.rows_saved == (result.rows_block
                                         - result.rows_search)

    def test_strict_improvement_on_skewed_ordering(self, skewed):
        result = search_placement(skewed, NODES)
        assert result.rows_search < result.rows_block
        assert result.swaps > 0
        # the reported rows are the real objective values
        assert placement_net_rows(skewed, NODES) == result.rows_block
        assert placement_net_rows(skewed, NODES, result.placement) \
            == result.rows_search

    def test_search_is_deterministic(self, skewed):
        first = search_placement(skewed, NODES)
        second = search_placement(skewed, NODES)
        assert first.placement.tolist() == second.placement.tolist()
        assert first.rows_search == second.rows_search

    def test_single_node_is_trivial(self, graph):
        partition = two_level_partition(graph, GPUS, 4, seed=0)
        result = search_placement(partition, 1)
        assert result.placement.tolist() == [0] * GPUS
        assert result.rows_block == result.rows_search == 0
        assert result.swaps == 0

    def test_seed_placement_is_refined_not_regressed(self, skewed):
        """Searching from an explicit seed reports the seed's objective
        as the baseline and never ends worse than it — so a trainer
        seeded with a caller-installed placement cannot regress it."""
        custom = np.array([1, 0, 0, 1, 0, 1, 0, 1])
        seeded = search_placement(skewed, NODES, seed_placement=custom)
        assert seeded.rows_block \
            == placement_net_rows(skewed, NODES, custom)
        assert seeded.rows_search <= seeded.rows_block
        # an already-optimal seed is returned unchanged
        best = search_placement(skewed, NODES)
        again = search_placement(skewed, NODES,
                                 seed_placement=best.placement)
        assert again.rows_search <= best.rows_search

    def test_collective_term_is_placement_invariant(self, skewed):
        """The collective legs add the same seconds to any row count, so
        a search that counts rows and prices nothing picks the placement
        a priced one would."""
        platform = ClusterPlatform(A100_CLUSTER)
        placed = search_placement(skewed, NODES)
        legs = platform.allreduce_seconds(float(1 << 20))
        for rows in (placed.rows_block, placed.rows_search):
            assert platform.placement_seconds(
                rows, 512, allreduce_bytes=1 << 20
            ) == pytest.approx(platform.placement_seconds(rows, 512) + legs)


class TestSearchArguments:
    """Malformed arguments fail inside the taxonomy, naming the argument —
    never a cast that turns NaN into INT64_MIN or 2.9 bytes into 2."""

    BUDGETS = [10.0] * NODES

    @pytest.mark.parametrize("sizes", [
        [np.nan] * M, [np.inf] * M, [2.9] * M, [-1] * M, [1] * (M - 1),
        np.ones((M, 1)), ["many"] * M,
    ])
    def test_partition_host_bytes(self, partition, sizes):
        with pytest.raises(PartitionError, match="partition_host_bytes"):
            search_placement(partition, NODES, max_imbalance=1,
                             node_budgets=self.BUDGETS,
                             partition_host_bytes=sizes)

    def test_partition_host_bytes_checked_without_budgets(self, partition):
        with pytest.raises(PartitionError, match="partition_host_bytes"):
            search_placement(partition, NODES,
                             partition_host_bytes=[1] * (M + 1))

    def test_fractional_bytes_are_not_truncated_under_the_budget(
            self, partition):
        # four partitions of 2.9 B are 11.6 B: over a 10 B budget, while
        # the truncated 4 x 2 B would have been admitted
        with pytest.raises(PartitionError):
            search_placement(partition, NODES, node_budgets=self.BUDGETS,
                             partition_host_bytes=[2.9] * M)
        whole = search_placement(partition, NODES, node_budgets=self.BUDGETS,
                                 partition_host_bytes=np.full(M, 2.0))
        assert whole.rows_search <= whole.rows_block

    @pytest.mark.parametrize("fill", [np.nan, -np.inf, 1.5, -1])
    def test_compute_rows_values(self, partition, fill):
        with pytest.raises(PartitionError, match="compute_rows"):
            search_placement(partition, NODES,
                             compute_rows=np.full((M, NODES), fill))

    def test_compute_rows_shape(self, partition):
        with pytest.raises(PartitionError, match="compute_rows"):
            search_placement(partition, NODES,
                             compute_rows=np.ones((M, NODES + 1)))

    @pytest.mark.parametrize("value", [-1, 0.5, 1.0, None])
    def test_max_imbalance(self, partition, value):
        with pytest.raises(PartitionError, match="max_imbalance"):
            search_placement(partition, NODES, max_imbalance=value)

    @pytest.mark.parametrize("value", [2.0, -2, None, "2"])
    def test_num_nodes(self, partition, value):
        with pytest.raises(PartitionError, match="num_nodes"):
            search_placement(partition, value)

    def test_numpy_integers_are_integers(self, partition):
        result = search_placement(partition, np.int64(NODES),
                                  max_imbalance=np.int64(0))
        assert result.num_nodes == NODES


class TestPermutePartitions:
    def test_permuted_partition_is_valid(self, skewed):
        skewed.validate()

    def test_identity_perm_preserves_grid(self, partition):
        same = permute_partitions(partition, np.arange(M))
        assert (same.assignment == partition.assignment).all()
        for i in range(M):
            for j in range(partition.num_chunks):
                assert (same.chunks[i][j].dst_global
                        == partition.chunks[i][j].dst_global).all()

    def test_relabeling_moves_rows(self, partition, skewed):
        assert (skewed.chunks[1][0].dst_global
                == partition.chunks[SKEW[1]][0].dst_global).all()
        vertex = partition.chunks[SKEW[1]][0].dst_global[0]
        assert skewed.assignment[vertex] == 1

    def test_invalid_perm_rejected(self, partition):
        with pytest.raises(PartitionError):
            permute_partitions(partition, np.array([0, 1]))
        with pytest.raises(PartitionError):
            permute_partitions(partition, np.zeros(M, dtype=np.int64))


class TestPlatformPlacement:
    def test_default_is_block(self):
        platform = ClusterPlatform(A100_CLUSTER)
        assert platform.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [platform.node_of(i) for i in range(8)] \
            == [0, 0, 0, 0, 1, 1, 1, 1]
        assert [platform.local_rank(i) for i in range(8)] \
            == [0, 1, 2, 3, 0, 1, 2, 3]
        assert platform.node_gpus(1) == [4, 5, 6, 7]

    def test_custom_placement_rewires_node_map(self):
        placement = np.array([1, 0, 0, 1, 0, 1, 1, 0])
        platform = ClusterPlatform(A100_CLUSTER, placement=placement)
        assert [platform.node_of(i) for i in range(8)] \
            == placement.tolist()
        assert platform.node_gpus(0) == [1, 2, 4, 7]
        assert platform.node_gpus(1) == [0, 3, 5, 6]
        # local rank is the rank within the node's ascending GPU list
        assert platform.local_rank(4) == 2
        assert platform.local_rank(0) == 0
        assert platform.local_rank(6) == 3
        # pseudo-devices still map to node 0
        assert platform.node_of(-1) == 0

    def test_set_placement_none_restores_block(self):
        platform = ClusterPlatform(A100_CLUSTER,
                                   placement=[1, 0, 0, 1, 0, 1, 1, 0])
        platform.set_placement(None)
        assert platform.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_invalid_placements_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterPlatform(A100_CLUSTER, placement=[0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(ConfigurationError):
            ClusterPlatform(A100_CLUSTER,
                            placement=[0, 0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(ConfigurationError):
            ClusterPlatform(A100_CLUSTER,
                            placement=[0, 0, 0, 0, 1, 1, 1, 2])

    def test_single_node_platform_accessors(self):
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.node_gpus(0) == [0, 1, 2, 3]
        assert platform.local_rank(2) == 2
        with pytest.raises(ConfigurationError):
            platform.node_gpus(1)


def _sweep(partition, platform, dedup_inter, dim=16):
    """One forward+backward layer sweep; returns the communicator and
    the timeline it ran on."""
    plan = build_comm_plan(partition, dedup_inter=dedup_inter,
                           dedup_intra=True)
    comm = DedupCommunicator(plan, platform)
    host = np.zeros((partition.graph.num_vertices, dim))
    grads = np.zeros_like(host)
    clock = EventTimeline(barrier_all=True)
    comm.start_sweep(dim)
    for j in range(plan.num_batches):
        outputs = comm.load_batch_forward(j, host, clock)
        comm.accumulate_batch_backward(
            j, [out.copy() for out in outputs], grads)
        comm.submit_batch_backward(j, clock)
    comm.end_sweep()
    return comm, clock


class TestExecutorPlacementContract:
    """The acceptance contract: the executor's measured per-flow bytes
    equal the placement model's prediction byte-for-byte under an
    arbitrary (permuted) placement."""

    PLACEMENT = np.array([1, 0, 0, 1, 0, 1, 0, 1])

    def test_fetch_bytes_match_halo_volumes(self, skewed):
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES),
                                   placement=self.PLACEMENT)
        comm, clock = _sweep(skewed, platform, dedup_inter=True)
        expected = halo_volumes(skewed, NODES, self.PLACEMENT)
        measured = comm.net_bytes_by_flow(clock)["halo_fetch"]
        row_bytes = 16 * 4
        for s in range(NODES):
            for d in range(NODES):
                assert measured.get((s, d), 0) == expected[s, d] * row_bytes

    def test_load_bytes_match_halo_load_volumes(self, skewed):
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES),
                                   placement=self.PLACEMENT)
        comm, clock = _sweep(skewed, platform, dedup_inter=False)
        expected = halo_load_volumes(skewed, NODES, self.PLACEMENT)
        measured = comm.net_bytes_by_flow(clock)["halo_load"]
        row_bytes = 16 * 4
        for s in range(NODES):
            for d in range(NODES):
                assert measured.get((s, d), 0) == expected[s, d] * row_bytes

    def test_searched_placement_ships_fewer_fetch_bytes(self, skewed):
        """Under full dedup the network carries the fetch/push halo —
        exactly the F term of the search objective, so the searched
        placement's measured fetch traffic must strictly beat block's
        on the skewed ordering."""
        result = search_placement(skewed, NODES)
        assert result.rows_search < result.rows_block
        block = _sweep(
            skewed, ClusterPlatform(A100_CLUSTER), dedup_inter=True)
        searched = _sweep(
            skewed,
            ClusterPlatform(A100_CLUSTER, placement=result.placement),
            dedup_inter=True)
        block_fetch = sum(
            block[0].net_bytes_by_flow(block[1])["halo_fetch"].values())
        searched_fetch = sum(
            searched[0].net_bytes_by_flow(searched[1])["halo_fetch"]
            .values())
        assert searched_fetch < block_fetch

    def test_rail_routing_under_custom_placement(self, skewed):
        topology = NetworkTopology("rail")
        cluster = A100_CLUSTER.with_num_nodes(NODES) \
            .with_topology(topology)
        platform = ClusterPlatform(cluster, placement=self.PLACEMENT)
        _comm, clock = _sweep(skewed, platform, dedup_inter=True)
        # same bytes as the flat fabric (routing, not volume, changes)
        _flat, flat_clock = _sweep(
            skewed,
            ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES),
                            placement=self.PLACEMENT),
            dedup_inter=True)
        assert clock.bytes_view()["net"] == flat_clock.bytes_view()["net"]


def _make_trainer(graph, platform, placement_policy, overlap="pipeline"):
    model = build_model("gcn", [graph.feature_dim, 12, graph.num_classes],
                        np.random.default_rng(11))
    return HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=4, overlap=overlap,
                     placement=placement_policy, seed=2),
        optimizer=SGD(model.parameters(), lr=0.02),
    )


class TestTrainerPlacement:
    def test_config_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(placement="random")

    def test_search_on_spine_cluster(self, graph):
        topology = NetworkTopology("spine", oversubscription=4.0)
        cluster = A100_CLUSTER.with_num_nodes(NODES) \
            .with_topology(topology)
        block = _make_trainer(graph, ClusterPlatform(cluster), "block")
        search = _make_trainer(graph, ClusterPlatform(cluster), "search")
        result_block = block.train_epoch()
        result_search = search.train_epoch()
        placed = search.placement_result
        assert placed is not None
        assert placed.rows_search <= placed.rows_block
        # the platform routes with the searched assignment
        assert search.platform.placement.tolist() \
            == search.placement.tolist()
        # numerics are placement-independent up to float addition order
        # (the net-aware reorganization may adopt a different schedule
        # under the searched placement, which reorders summations)
        np.testing.assert_allclose(block.logits(), search.logits(),
                                   rtol=0, atol=1e-12)
        result_block.timeline.validate()
        result_search.timeline.validate()

    def test_numerics_bit_identical_without_reorganization(self, graph):
        """With a fixed schedule the placement changes routing only, so
        parameters are bit-identical across placement policies."""
        def state(policy):
            model = build_model(
                "gcn", [graph.feature_dim, 12, graph.num_classes],
                np.random.default_rng(11))
            trainer = HongTuTrainer(
                graph, model, ClusterPlatform(A100_CLUSTER),
                HongTuConfig(num_chunks=4, placement=policy,
                             reorganize=False, seed=2),
                optimizer=SGD(model.parameters(), lr=0.02))
            trainer.train_epoch()
            return model.state_dict()

        block, search = state("block"), state("search")
        for key in block:
            assert np.array_equal(block[key], search[key]), key

    def test_block_policy_leaves_platform_unchanged(self, graph):
        platform = ClusterPlatform(A100_CLUSTER)
        trainer = _make_trainer(graph, platform, "block")
        assert trainer.placement_result is None
        assert trainer.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]
        assert platform.placement.tolist() == [0, 0, 0, 0, 1, 1, 1, 1]

    def test_single_node_search_is_float_identical(self, graph):
        def epoch(policy):
            model = build_model(
                "gcn", [graph.feature_dim, 12, graph.num_classes],
                np.random.default_rng(11))
            trainer = HongTuTrainer(
                graph, model, MultiGPUPlatform(A100_SERVER),
                HongTuConfig(num_chunks=4, placement=policy, seed=2),
                optimizer=SGD(model.parameters(), lr=0.02))
            return trainer.train_epoch()

        assert epoch("block").epoch_seconds == epoch("search").epoch_seconds

