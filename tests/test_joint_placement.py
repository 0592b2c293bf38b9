"""Tests for joint placement↔schedule iteration and uneven placements.

Covers the relaxed partition→node map (``max_imbalance`` bounds, the
no-empty-node guard), the memory-model admission helpers, the
memory-bounded uneven placement search (moves admitted only inside the
count bounds *and* the per-node host budgets, never-worse-than-seed,
determinism), the joint loop (never worse than the single-pass pipeline,
non-increasing combined cost, per-iteration provenance), the trainer's
``placement="joint"`` / ``max_imbalance`` wiring (uneven all-reduce legs
included), and regression tests for this PR's bugfix satellites.
"""

import numpy as np
import pytest

from repro.autograd import SGD
from repro.comm import (
    ClusterCostModel,
    CommCostModel,
    joint_placement,
    reorganize_partition,
)
from repro.core import (
    HongTuConfig,
    HongTuTrainer,
    admits_placement,
    partition_host_bytes,
    placement_host_bytes,
)
from repro.errors import ConfigurationError, PartitionError
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
from repro.runtime import EventScheduler

NODES = 2
GPUS = 4
M = NODES * GPUS
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


def _random_uneven_placements(rng, num, m=M, nodes=NODES):
    """Valid uneven placements: every node non-empty, ids in range."""
    placements = []
    while len(placements) < num:
        candidate = rng.integers(0, nodes, size=m)
        if len(np.unique(candidate)) == nodes:
            placements.append(candidate.astype(np.int64))
    return placements


class TestUnevenPartitionNodes:
    def test_uneven_accepted_within_imbalance(self):
        placement = np.array([0, 0, 0, 0, 0, 1, 1, 1])  # counts 5/3
        out = partition_nodes(M, NODES, placement, max_imbalance=1)
        assert out.tolist() == placement.tolist()

    def test_uneven_rejected_beyond_imbalance(self):
        placement = np.array([0, 0, 0, 0, 0, 0, 1, 1])  # counts 6/2
        with pytest.raises(PartitionError):
            partition_nodes(M, NODES, placement, max_imbalance=1)
        # a wide enough slack admits it
        out = partition_nodes(M, NODES, placement, max_imbalance=2)
        assert out.tolist() == placement.tolist()

    def test_empty_node_always_rejected(self):
        placement = np.zeros(M, dtype=np.int64)  # node 1 hosts nothing
        for imbalance in (4, 100, None):
            with pytest.raises(PartitionError):
                partition_nodes(M, NODES, placement,
                                max_imbalance=imbalance)

    def test_analysis_mode_accepts_any_nonempty_counts(self):
        placement = np.array([0, 0, 0, 0, 0, 0, 0, 1])  # counts 7/1
        out = partition_nodes(M, NODES, placement, max_imbalance=None)
        assert out.tolist() == placement.tolist()

    def test_exact_balance_still_default(self):
        placement = np.array([0, 0, 0, 0, 0, 1, 1, 1])
        with pytest.raises(PartitionError):
            partition_nodes(M, NODES, placement)

    def test_negative_imbalance_rejected(self):
        with pytest.raises(PartitionError):
            partition_nodes(M, NODES, max_imbalance=-1)


class TestUnevenHaloAggregation:
    """Property: for *any* uneven placement the cross-node aggregation
    of the partition-granularity matrices reproduces the node-pair halo
    analyses exactly — the byte-contract survives unbalanced maps."""

    def _aggregate(self, matrix, node_map):
        out = np.zeros((NODES, NODES), dtype=np.int64)
        for k in range(M):
            for i in range(M):
                if node_map[k] != node_map[i]:
                    out[node_map[k], node_map[i]] += matrix[k, i]
        return out

    def test_fetch_matrix_aggregates_for_uneven_placements(self, partition):
        rng = np.random.default_rng(7)
        matrix = partition_halo_matrix(partition)
        for placement in _random_uneven_placements(rng, 8):
            expected = halo_volumes(partition, NODES, placement)
            assert (self._aggregate(matrix, placement) == expected).all()

    def test_load_matrix_aggregates_for_uneven_placements(self, skewed):
        rng = np.random.default_rng(11)
        matrix = partition_load_matrix(skewed)
        for placement in _random_uneven_placements(rng, 8):
            expected = halo_load_volumes(skewed, NODES, placement)
            assert (self._aggregate(matrix, placement) == expected).all()

    def test_net_rows_consistent_for_uneven_placements(self, skewed):
        rng = np.random.default_rng(13)
        for placement in _random_uneven_placements(rng, 4):
            expected = (int(halo_volumes(skewed, NODES, placement).sum())
                        + 2 * int(halo_load_volumes(skewed, NODES,
                                                    placement).sum()))
            assert placement_net_rows(skewed, NODES, placement) == expected


class TestNodeViewsOfTheTwoSweeps:
    """The node-level halo analyses are *views* of the two partition-
    level sweeps (one count, two granularities). The oracle here counts
    rows straight off the chunks' neighbour sets — the sweep the node
    views used to run themselves — on balanced, uneven and evacuating
    placements, and the executor's measured per-flow bytes still match."""

    FLEET = 4  # nodes of the 4x2 fleet the evacuating cases run on

    @staticmethod
    def _direct(partition, node_map, num_nodes, fresh_only):
        volumes = np.zeros((num_nodes, num_nodes), dtype=np.int64)
        for i, row in enumerate(partition.chunks):
            previous = np.empty(0, dtype=np.int64)
            for chunk in row:
                needed = chunk.neighbor_global
                rows = (needed[~np.isin(needed, previous)] if fresh_only
                        else needed)
                np.add.at(volumes,
                          (node_map[partition.assignment[rows]],
                           node_map[i]), 1)
                previous = needed
        np.fill_diagonal(volumes, 0)
        return volumes

    def _check(self, partition, num_nodes, placement, dead=frozenset()):
        node_map = partition_nodes(M, num_nodes, placement,
                                   max_imbalance=None, dead_nodes=dead)
        onehot = np.eye(num_nodes, dtype=np.int64)[node_map]
        for view, matrix, fresh_only in (
                (halo_volumes, partition_halo_matrix, False),
                (halo_load_volumes, partition_load_matrix, True)):
            measured = view(partition, num_nodes, placement,
                            dead_nodes=dead)
            aggregate = onehot.T @ matrix(partition) @ onehot
            np.fill_diagonal(aggregate, 0)
            assert measured.dtype == np.int64
            assert np.array_equal(measured, aggregate)
            assert np.array_equal(
                measured,
                self._direct(partition, node_map, num_nodes, fresh_only))

    def test_block_and_random_balanced_placements(self, skewed):
        rng = np.random.default_rng(3)
        self._check(skewed, NODES, None)
        for _ in range(4):
            self._check(skewed, NODES,
                        rng.permutation(partition_nodes(M, NODES)))
            self._check(skewed, self.FLEET,
                        rng.permutation(partition_nodes(M, self.FLEET)))

    def test_random_uneven_placements(self, skewed):
        rng = np.random.default_rng(5)
        for placement in _random_uneven_placements(rng, 6):
            self._check(skewed, NODES, placement)

    def test_evacuating_placements(self, skewed):
        rng = np.random.default_rng(9)
        dead = frozenset({1})
        survivors = np.array([0, 2, 3])
        checked = 0
        while checked < 4:
            placement = survivors[rng.integers(0, 3, size=M)]
            if len(np.unique(placement)) == 3:
                self._check(skewed, self.FLEET, placement, dead)
                assert placement_net_rows(
                    skewed, self.FLEET, placement, dead_nodes=dead
                ) == int((halo_volumes(skewed, self.FLEET, placement,
                                       dead_nodes=dead)
                          + 2 * halo_load_volumes(
                              skewed, self.FLEET, placement,
                              dead_nodes=dead)).sum())
                checked += 1

    @pytest.mark.parametrize("dedup_inter, flow, view", [
        (True, "halo_fetch", halo_volumes),
        (False, "halo_load", halo_load_volumes),
    ])
    def test_executor_flows_match_under_uneven_placement(
            self, skewed, dedup_inter, flow, view):
        from repro.comm import DedupCommunicator, build_comm_plan
        from repro.hardware import EventTimeline

        placement = np.array([0, 1, 0, 0, 0, 1, 0, 0])  # counts 6/2
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES),
                                   placement=placement, max_imbalance=2)
        plan = build_comm_plan(skewed, dedup_inter=dedup_inter,
                               dedup_intra=True)
        comm = DedupCommunicator(plan, platform, 4)
        dim = 16
        host = np.zeros((skewed.graph.num_vertices, dim))
        clock = EventTimeline(barrier_all=True)
        comm.start_sweep(dim)
        for j in range(plan.num_batches):
            comm.load_batch_forward(j, host, clock)
        comm.end_sweep()
        expected = view(skewed, NODES, placement)
        measured = comm.net_bytes_by_flow(clock)[flow]
        for s in range(NODES):
            for d in range(NODES):
                assert measured.get((s, d), 0) == expected[s, d] * dim * 4


class TestMemoryModelAdmission:
    def test_partition_host_bytes_formula(self):
        sizes = [100, 50, 25]
        out = partition_host_bytes(sizes, aggregate_dims=[16, 8],
                                   bytes_per_scalar=4)
        assert out.tolist() == [100 * 24 * 4, 50 * 24 * 4, 25 * 24 * 4]

    def test_no_cacheable_layers_pin_nothing(self):
        assert partition_host_bytes([10, 20], [], 4).tolist() == [0, 0]

    def test_placement_host_bytes_aggregates_by_node(self):
        placement = [0, 1, 0, 1]
        per_partition = [10, 20, 30, 40]
        assert placement_host_bytes(placement, per_partition,
                                    2).tolist() == [40, 60]

    def test_admits_placement_respects_budgets(self):
        placement = [0, 1, 0, 1]
        per_partition = [10, 20, 30, 40]
        assert admits_placement(placement, per_partition, [40, 60])
        assert not admits_placement(placement, per_partition, [39, 60])
        # None budgets are unlimited
        assert admits_placement(placement, per_partition, [None, 60])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            placement_host_bytes([0, 1], [10], 2)


class TestUnevenSearch:
    def test_uneven_search_never_worse_than_seed(self, skewed):
        result = search_placement(skewed, NODES, max_imbalance=2)
        assert result.rows_search <= result.rows_block
        counts = np.bincount(result.placement, minlength=NODES)
        assert (counts >= GPUS - 2).all() and (counts <= GPUS + 2).all()
        assert (counts > 0).all()

    def test_uneven_beats_balanced_on_skewed_ordering(self, skewed):
        balanced = search_placement(skewed, NODES)
        uneven = search_placement(skewed, NODES, max_imbalance=2)
        assert uneven.rows_search <= balanced.rows_search
        # on this skew the extra freedom is actually used
        assert uneven.moves > 0
        assert uneven.node_counts != balanced.node_counts

    def test_unlimited_budget_matches_no_budget(self, skewed):
        free = search_placement(skewed, NODES, max_imbalance=2)
        sizes = np.bincount(skewed.assignment, minlength=M)
        per_partition = partition_host_bytes(sizes, [16], 4)
        budgeted = search_placement(
            skewed, NODES, max_imbalance=2,
            node_budgets=[None, None],
            partition_host_bytes=per_partition,
        )
        assert budgeted.placement.tolist() == free.placement.tolist()

    def test_budgets_are_never_violated(self, skewed):
        sizes = np.bincount(skewed.assignment, minlength=M)
        per_partition = partition_host_bytes(sizes, [16], 4)
        seed_loads = placement_host_bytes(partition_nodes(M, NODES),
                                          per_partition, NODES)
        total = int(per_partition.sum())
        rng = np.random.default_rng(5)
        for _ in range(6):
            # admissible seeds (budget >= the block seed's load), varying
            # headroom above it
            budgets = [int(load) + int(rng.integers(0, total - int(load) + 1))
                       for load in seed_loads]
            result = search_placement(
                skewed, NODES, max_imbalance=3,
                node_budgets=budgets, partition_host_bytes=per_partition,
            )
            assert admits_placement(result.placement, per_partition,
                                    budgets)

    def test_tight_budget_forces_balance(self, skewed):
        """Budgets with no headroom beyond the balanced seed admit no
        skewing move, so the search degenerates to swaps only."""
        per_partition = np.ones(M, dtype=np.int64)
        balanced = search_placement(skewed, NODES)
        tight = search_placement(
            skewed, NODES, max_imbalance=3,
            node_budgets=[GPUS, GPUS], partition_host_bytes=per_partition,
        )
        assert tight.moves == 0
        assert tight.rows_search == balanced.rows_search
        assert np.bincount(tight.placement,
                           minlength=NODES).tolist() == [GPUS, GPUS]

    def test_inadmissible_seed_raises(self, skewed):
        per_partition = np.ones(M, dtype=np.int64)
        with pytest.raises(PartitionError):
            search_placement(skewed, NODES, max_imbalance=1,
                             node_budgets=[1, GPUS],
                             partition_host_bytes=per_partition)

    def test_uneven_search_is_deterministic(self, skewed):
        first = search_placement(skewed, NODES, max_imbalance=2)
        second = search_placement(skewed, NODES, max_imbalance=2)
        assert first.placement.tolist() == second.placement.tolist()
        assert (first.swaps, first.moves) == (second.swaps, second.moves)

    def test_reported_rows_are_real_objective(self, skewed):
        result = search_placement(skewed, NODES, max_imbalance=2)
        assert placement_net_rows(skewed, NODES, result.placement) \
            == result.rows_search

    def test_wrong_budget_length_rejected(self, skewed):
        with pytest.raises(PartitionError):
            search_placement(skewed, NODES, max_imbalance=1,
                             node_budgets=[None])


class TestJointPlacement:
    @pytest.fixture(scope="class")
    def models(self):
        return (CommCostModel.from_platform(MultiGPUPlatform(A100_SERVER)),
                ClusterCostModel.from_cluster(A100_CLUSTER))

    def test_never_worse_than_single_pass(self, skewed, models):
        cost_model, cluster_model = models
        joint = joint_placement(skewed, NODES, cost_model, cluster_model,
                                row_bytes=512)
        assert joint.cost_joint <= joint.cost_single_pass
        assert joint.iterations[0].cost == joint.cost_single_pass

    def test_cost_is_non_increasing_across_iterations(self, skewed, models):
        cost_model, cluster_model = models
        joint = joint_placement(skewed, NODES, cost_model, cluster_model,
                                row_bytes=512, max_iterations=6)
        costs = [it.cost for it in joint.iterations]
        # every transition but the last strictly improved (the loop only
        # continues past a round that beat its predecessor); the final
        # recorded round is the fixed point (or the cap)
        assert all(a > b for a, b in zip(costs[:-2], costs[1:-1]))
        assert min(costs) == joint.cost_joint

    def test_deterministic(self, skewed, models):
        cost_model, cluster_model = models
        first = joint_placement(skewed, NODES, cost_model, cluster_model,
                                row_bytes=512)
        second = joint_placement(skewed, NODES, cost_model, cluster_model,
                                 row_bytes=512)
        assert first.placement_result.placement.tolist() \
            == second.placement_result.placement.tolist()
        assert first.cost_joint == second.cost_joint
        assert len(first.iterations) == len(second.iterations)

    def test_adopted_rows_match_prediction(self, skewed, models):
        cost_model, cluster_model = models
        joint = joint_placement(skewed, NODES, cost_model, cluster_model,
                                row_bytes=512)
        placed = joint.placement_result
        assert placement_net_rows(joint.partition, NODES,
                                  placed.placement) == placed.rows_search

    def test_iteration_cap_respected(self, skewed, models):
        cost_model, cluster_model = models
        joint = joint_placement(skewed, NODES, cost_model, cluster_model,
                                row_bytes=512, max_iterations=1)
        assert len(joint.iterations) == 1
        assert joint.placement_result.converged_after == 1

    def test_uneven_joint_respects_budgets(self, skewed, models):
        cost_model, cluster_model = models
        sizes = np.bincount(skewed.assignment, minlength=M)
        per_partition = partition_host_bytes(sizes, [16], 4)
        budgets = [int(per_partition.sum()), int(per_partition.sum())]
        joint = joint_placement(
            skewed, NODES, cost_model, cluster_model, row_bytes=512,
            max_imbalance=2, node_budgets=budgets,
            partition_host_bytes=per_partition,
        )
        assert admits_placement(joint.placement_result.placement,
                                per_partition, budgets)
        counts = np.bincount(joint.placement_result.placement,
                             minlength=NODES)
        assert (np.abs(counts - GPUS) <= 2).all()

    def test_single_node_rejected(self, skewed, models):
        cost_model, cluster_model = models
        with pytest.raises(ValueError):
            joint_placement(skewed, 1, cost_model, cluster_model)

    def test_zero_iterations_rejected(self, skewed, models):
        cost_model, cluster_model = models
        with pytest.raises(ValueError):
            joint_placement(skewed, NODES, cost_model, cluster_model,
                            max_iterations=0)


def _trainer(graph, platform, partition=None, **config_kwargs):
    model = build_model("gcn", [graph.feature_dim, 12, graph.num_classes],
                        np.random.default_rng(11))
    defaults = dict(num_chunks=4, overlap="pipeline", seed=2)
    defaults.update(config_kwargs)
    return HongTuTrainer(
        graph, model, platform, HongTuConfig(**defaults),
        optimizer=SGD(model.parameters(), lr=0.02),
        partition=partition,
    )


class TestTrainerJoint:
    def test_config_joint_requires_reorganize(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(placement="joint", reorganize=False)

    def test_config_imbalance_requires_searching_policy(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(max_imbalance=1)
        with pytest.raises(ConfigurationError):
            HongTuConfig(max_imbalance=-1, placement="search")
        HongTuConfig(max_imbalance=1, placement="search")
        HongTuConfig(max_imbalance=1, placement="joint")

    def test_joint_never_worse_than_search_on_skewed(self, graph, skewed):
        cluster = A100_CLUSTER.with_num_nodes(NODES)
        results = {}
        trainers = {}
        for policy in ("block", "search", "joint"):
            trainer = _trainer(graph, ClusterPlatform(cluster),
                               partition=skewed, placement=policy)
            results[policy] = trainer.train_epoch()
            trainers[policy] = trainer
        assert results["joint"].epoch_seconds \
            <= results["search"].epoch_seconds
        assert results["search"].epoch_seconds \
            <= results["block"].epoch_seconds
        placed = trainers["joint"].placement_result
        assert placed is not None
        assert placed.iterations  # per-iteration provenance recorded
        assert placed.cost_search <= placed.cost_block
        # the platform routes with the adopted assignment
        assert trainers["joint"].platform.placement.tolist() \
            == placed.placement.tolist()
        # numerics are placement-policy-independent
        np.testing.assert_allclose(
            trainers["block"].logits(), trainers["joint"].logits(),
            rtol=0, atol=1e-12,
        )

    def test_trainer_uneven_joint_fits_host_budgets(self, graph, skewed):
        cluster = A100_CLUSTER.with_num_nodes(NODES)
        trainer = _trainer(graph, ClusterPlatform(cluster),
                           partition=skewed, placement="joint",
                           max_imbalance=2)
        placed = trainer.placement_result
        counts = np.bincount(placed.placement, minlength=NODES)
        assert (counts > 0).all()
        assert (np.abs(counts - GPUS) <= 2).all()
        # the adopted placement fits the budgets the search ran with
        assert trainer.fleet.node_budgets is not None
        assert admits_placement(placed.placement,
                                trainer.fleet.partition_host_bytes,
                                trainer.fleet.node_budgets)
        # the epoch actually runs — checkpoints fit the skewed hosts
        result = trainer.train_epoch()
        result.timeline.validate()
        for node in range(NODES):
            pool = trainer.platform.host_pool(node)
            assert pool.capacity is None or pool.peak <= pool.capacity

    def test_single_node_joint_is_float_identical(self, graph):
        def epoch(policy):
            return _trainer(graph, MultiGPUPlatform(A100_SERVER),
                            placement=policy, overlap="barrier")
        block = epoch("block")
        joint = epoch("joint")
        assert joint.placement_result is None
        assert block.train_epoch().epoch_seconds \
            == joint.train_epoch().epoch_seconds

    def test_uneven_allreduce_legs_follow_node_counts(self, graph, skewed):
        """Under an uneven placement the intra-node all-reduce legs span
        each node's actual GPU count (a 1-GPU node emits none)."""
        cluster = A100_CLUSTER.with_num_nodes(NODES)
        placement = np.array([0, 0, 0, 0, 0, 0, 0, 1])
        platform = ClusterPlatform(cluster, placement=placement,
                                   max_imbalance=3)
        trainer = _trainer(graph, platform, partition=skewed,
                           reorganize=False)
        result = trainer.train_epoch()
        intra = [task for task in result.timeline.scheduler.tasks
                 if task.label == "all_reduce_intra"]
        # only the 7-GPU node has a ring; the 1-GPU node has nothing
        assert len(intra) == 1
        assert trainer.platform.node_of(intra[0].device) == 0
        result.timeline.validate()


class TestLayoutsShareChunks:
    """A layout is an ordering of the input's chunk objects: a chunk's
    neighbor set, cached block and the block's operators survive a
    re-layout, a relabeling and a joint trainer build."""

    @staticmethod
    def _assert_same_chunks(result, source, source_row=lambda i: i):
        for i, row in enumerate(result.chunks):
            originals = source.chunks[source_row(i)]
            assert sorted(map(id, row)) == sorted(map(id, originals))
            for chunk in row:
                assert chunk._block is not None  # built on the input
                assert (result.assignment[chunk.dst_global] == i).all()

    @pytest.fixture()
    def built(self, skewed):
        """``skewed`` with every block and one operator built."""
        for chunk in skewed.all_chunks():
            chunk.block.operator(np.float64)
        return skewed

    def test_permute_partitions(self, partition, built):
        for i, row in enumerate(built.chunks):
            assert all(chunk is original for chunk, original
                       in zip(row, partition.chunks[SKEW[i]]))
        self._assert_same_chunks(built, partition, lambda i: SKEW[i])

    @pytest.mark.parametrize("net_aware", [False, True])
    def test_reorganize_partition(self, built, net_aware):
        cluster_model = ClusterCostModel.from_platform(
            ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES)))
        blocks = {id(chunk): chunk.block for chunk in built.all_chunks()}
        result = reorganize_partition(
            built, cluster_model=cluster_model if net_aware else None,
            num_nodes=NODES if net_aware else 1)
        assert result.partition is not built
        self._assert_same_chunks(result.partition, built)
        for chunk in result.partition.all_chunks():
            assert chunk.block is blocks[id(chunk)]
            assert len(chunk.block._operators) == 1

    def test_joint_trainer_build(self, graph, built):
        blocks = {id(chunk): chunk.block for chunk in built.all_chunks()}
        trainer = _trainer(
            graph, ClusterPlatform(A100_CLUSTER.with_num_nodes(NODES)),
            partition=built, placement="joint")
        assert trainer.placement_result.iterations
        self._assert_same_chunks(trainer.partition, built)
        for chunk in trainer.partition.all_chunks():
            assert chunk.block is blocks[id(chunk)]


class TestBugfixRegressions:
    def test_platform_rejects_placement_with_empty_node(self):
        # a stale all-on-one-node placement (e.g. from a relabeled
        # partition) must raise, not silently mis-route rails
        with pytest.raises(ConfigurationError):
            ClusterPlatform(A100_CLUSTER, placement=[0] * 8,
                            max_imbalance=4)

    def test_platform_rejects_out_of_range_node_ids(self):
        with pytest.raises(ConfigurationError):
            ClusterPlatform(A100_CLUSTER,
                            placement=[0, 0, 0, 0, 1, 1, 1, 5],
                            max_imbalance=4)

    def test_set_placement_uneven_needs_slack(self):
        platform = ClusterPlatform(A100_CLUSTER)
        uneven = [0, 0, 0, 0, 0, 1, 1, 1]
        with pytest.raises(ConfigurationError):
            platform.set_placement(uneven)
        platform.set_placement(uneven, max_imbalance=1)
        assert platform.node_gpus(0) == [0, 1, 2, 3, 4]
        assert platform.node_gpus(1) == [5, 6, 7]
        assert platform.local_rank(4) == 4
        # sockets never exceed what the node spec has
        assert all(gpu.socket < A100_SERVER.num_sockets
                   for gpu in platform.gpus)

    def test_single_node_placement_pricing_is_zero(self):
        model = ClusterCostModel.from_cluster(
            ClusterSpec("toy", 1, A100_SERVER, 100.0, 0.0))
        assert model.halo_volume_seconds(1 << 20) == 0.0
        assert model.placement_seconds(12345, 512,
                                       allreduce_bytes=1 << 20) == 0.0

    def test_single_node_search_is_skipped(self, graph):
        """With one node the search is skipped entirely: no placement
        provenance exists and, with Algorithm 4 also off, no
        reorganization provenance either (no phantom payload)."""
        trainer = _trainer(graph, MultiGPUPlatform(A100_SERVER),
                           placement="search", reorganize=False)
        assert trainer.placement_result is None
        assert trainer.reorganization is None


class TestNodeUtilizationClampMarker:
    class _Timeline:
        """Real tasks under a makespan the test dictates."""

        def __init__(self, tasks, makespan):
            self.scheduler = EventScheduler()
            for channel, device, seconds in tasks:
                self.scheduler.submit(channel, device, seconds)
            self.makespan = makespan

    class _Platform:
        num_nodes = 2
        num_rails = 1
        heterogeneous = False

        def node_of(self, device):
            return 0 if device < 4 else 1

    def test_overflowing_cell_is_flagged_with_footnote(self):
        from repro.bench.reporting import render_node_utilization

        # device 0's gpu queue reports 3s of work in a 1s makespan —
        # impossible, must be flagged
        tasks = [("gpu", 0, 3.0), ("gpu", 4, 0.5)]
        out = render_node_utilization(self._Timeline(tasks, 1.0),
                                      self._Platform())
        assert "3.00s!" in out
        assert "accounting bug" in out
        # the healthy node is unflagged
        assert "500.00ms!" not in out

    def test_healthy_table_has_no_footnote(self):
        from repro.bench.reporting import render_node_utilization

        tasks = [("gpu", 0, 0.8), ("gpu", 4, 0.5)]
        out = render_node_utilization(self._Timeline(tasks, 1.0),
                                      self._Platform())
        assert "!" not in out
