"""Tests for METIS-like partitioning, 2-level partition, and replication."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.comm import joint_placement
from repro.errors import PartitionError
from repro.graph import Graph, load_dataset, toy_graph
from repro.partition import (
    edge_cut,
    metis_partition,
    range_chunks,
    remote_replica_rows,
    replication_factor,
    replication_factor_sweep,
    search_placement,
    two_level_partition,
    vertex_data_per_subgraph,
    SubgraphChunk,
)
from repro.hardware import A100_CLUSTER, ClusterPlatform


class TestMetis:
    def test_assignment_shape_and_range(self, medium_graph):
        assignment = metis_partition(medium_graph, 4, seed=0)
        assert assignment.shape == (medium_graph.num_vertices,)
        assert set(np.unique(assignment)) <= set(range(4))
        assert len(np.unique(assignment)) == 4

    def test_single_part(self, medium_graph):
        assignment = metis_partition(medium_graph, 1)
        assert np.all(assignment == 0)

    def test_too_many_parts(self):
        g = toy_graph()
        with pytest.raises(PartitionError):
            metis_partition(g, 100)

    def test_invalid_parts(self, medium_graph):
        with pytest.raises(PartitionError):
            metis_partition(medium_graph, 0)

    def test_balance_within_slack(self, medium_graph):
        assignment = metis_partition(medium_graph, 4, seed=0)
        largest = np.bincount(assignment, minlength=4).max()
        assert largest / (len(assignment) / 4) <= 1.10

    def test_beats_random_cut(self, medium_graph):
        assignment = metis_partition(medium_graph, 4, seed=0)
        rng = np.random.default_rng(0)
        random_assignment = rng.integers(0, 4, medium_graph.num_vertices)
        assert edge_cut(medium_graph, assignment) < \
            0.8 * edge_cut(medium_graph, random_assignment)

    def test_deterministic(self, medium_graph):
        a = metis_partition(medium_graph, 4, seed=3)
        b = metis_partition(medium_graph, 4, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_locality_graph_cut_is_low(self):
        # At small scales the ±96-id locality window is coarse relative to
        # the vertex count, so the achievable cut is higher than at bench
        # scale (~0.28 at scale 0.5); 0.5 still separates it cleanly from
        # the ~0.75 cut of a random 4-way split.
        g = load_dataset("it2004_sim", scale=0.2)
        assignment = metis_partition(g, 4, seed=0)
        assert edge_cut(g, assignment) / g.num_edges < 0.5


class TestRangeChunks:
    def test_covers_sequence(self):
        chunks = range_chunks(np.ones(10), 3)
        assert chunks[0][0] == 0
        assert chunks[-1][1] == 10
        for (a, b), (c, d) in zip(chunks[:-1], chunks[1:]):
            assert b == c

    def test_single_chunk(self):
        assert range_chunks(np.ones(5), 1) == [(0, 5)]

    def test_balances_loads(self):
        loads = np.array([100, 1, 1, 1, 100, 1, 1, 1])
        chunks = range_chunks(loads, 2)
        sums = [loads[a:b].sum() for a, b in chunks]
        assert max(sums) < 2 * min(sums) + 100

    def test_more_chunks_than_vertices(self):
        chunks = range_chunks(np.ones(2), 5)
        assert len(chunks) == 5
        assert chunks[-1][1] == 2

    def test_invalid_count(self):
        with pytest.raises(PartitionError):
            range_chunks(np.ones(5), 0)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_property_contiguous_cover(self, loads, k):
        chunks = range_chunks(np.array(loads, dtype=float), k)
        assert len(chunks) == k
        position = 0
        for start, stop in chunks:
            assert start == position
            assert stop >= start
            position = stop
        assert position == len(loads)


class TestTwoLevel:
    def test_valid_cover(self, medium_graph):
        partition = two_level_partition(medium_graph, 4, 4, seed=0)
        partition.validate()  # raises on any violation

    def test_grid_dimensions(self, medium_graph):
        partition = two_level_partition(medium_graph, 3, 5, seed=0)
        assert partition.num_partitions == 3
        assert partition.num_chunks == 5
        assert len(partition.all_chunks()) == 15

    def test_neighbor_set_includes_destinations(self, medium_graph):
        partition = two_level_partition(medium_graph, 2, 2, seed=0)
        for chunk in partition.all_chunks():
            assert np.all(np.isin(chunk.dst_global, chunk.neighbor_global))

    def test_neighbor_set_includes_sources(self, medium_graph):
        partition = two_level_partition(medium_graph, 2, 2, seed=0)
        for chunk in partition.all_chunks():
            assert np.all(
                np.isin(chunk.edge_src_global, chunk.neighbor_global)
            )

    def test_edge_weights_are_global(self, medium_graph):
        """Chunk edge weights must match global GCN normalization."""
        partition = two_level_partition(medium_graph, 2, 3, seed=0)
        global_weights = medium_graph.gcn_edge_weights()
        in_csr = medium_graph.in_csr
        chunk = partition.chunks[0][0]
        for local, vertex in enumerate(chunk.dst_global[:10]):
            lo, hi = in_csr.indptr[vertex], in_csr.indptr[vertex + 1]
            mask = chunk.edge_dst_local == local
            np.testing.assert_allclose(
                np.sort(chunk.edge_weight[mask]),
                np.sort(global_weights[lo:hi]),
            )

    def test_block_local_indices(self, medium_graph):
        partition = two_level_partition(medium_graph, 2, 2, seed=0)
        chunk = partition.chunks[1][0]
        block = chunk.block
        # Local edge sources map back to the global neighbor ids.
        np.testing.assert_array_equal(
            chunk.neighbor_global[block.edge_src], chunk.edge_src_global
        )
        np.testing.assert_array_equal(
            chunk.neighbor_global[block.dst_pos], chunk.dst_global
        )

    def test_explicit_assignment(self, medium_graph):
        n = medium_graph.num_vertices
        assignment = np.arange(n) % 2
        partition = two_level_partition(medium_graph, 2, 2,
                                        assignment=assignment)
        partition.validate()

    def test_bad_assignment_shape(self, medium_graph):
        with pytest.raises(PartitionError):
            two_level_partition(medium_graph, 2, 2,
                                assignment=np.zeros(3, dtype=np.int64))

    def test_bad_assignment_range(self, medium_graph):
        n = medium_graph.num_vertices
        with pytest.raises(PartitionError):
            two_level_partition(medium_graph, 2, 2,
                                assignment=np.full(n, 7))

    def test_invalid_grid(self, medium_graph):
        with pytest.raises(PartitionError):
            two_level_partition(medium_graph, 0, 2)

    def test_subgraph_chunk_validation(self):
        with pytest.raises(PartitionError):
            SubgraphChunk(np.array([1]), np.array([0]),
                          np.array([5]))  # edge_dst_local out of range


class TestReplication:
    def test_alpha_at_least_one_partition_is_small(self, medium_graph):
        partition = two_level_partition(medium_graph, 1, 1, seed=0)
        alpha = replication_factor(partition)
        # One chunk: every vertex with out-edges counted once at most.
        assert alpha <= 1.0

    def test_alpha_grows_with_partitions(self, medium_graph):
        sweep = replication_factor_sweep(medium_graph, [2, 8, 32], seed=0)
        assert sweep[2] < sweep[8] < sweep[32]

    def test_alpha_counts_source_only_neighbors(self, medium_graph):
        """α sums each chunk's source-only neighbors (the paper's N_ij),
        never its destinations."""
        partition = two_level_partition(medium_graph, 4, 2, seed=0)
        expected = sum(len(chunk.source_only_neighbors())
                       for chunk in partition.all_chunks())
        assert replication_factor(partition) == \
            expected / medium_graph.num_vertices
        with pytest.raises(TypeError):
            replication_factor(partition, include_destinations=True)

    @pytest.mark.parametrize("dataset", ["toy", "reddit_sim", "papers_sim"])
    @pytest.mark.parametrize("num_parts", [1, 2, 4, 7])
    def test_remote_rows_are_the_per_edge_walk(self, dataset, num_parts):
        graph = (toy_graph() if dataset == "toy"
                 else load_dataset(dataset, scale=0.1, seed=2))
        assignment = metis_partition(graph, num_parts, seed=1)
        rows = remote_replica_rows(graph, assignment, num_parts)
        assert rows.dtype == np.int64
        assert rows.tolist() == walked_remote_rows(graph, assignment,
                                                   num_parts)
        if num_parts == 1:
            assert rows.tolist() == [0]

    def test_remote_rows_of_hand_drawn_parts(self):
        """Part 0 reads vertex 2 over two edges (one replica), part 1
        reads vertex 1, part 2 has only a local in-edge and part 3 no
        vertices at all."""
        src, dst = np.array([0, 1, 2, 2, 3]), np.array([1, 2, 0, 1, 4])
        graph = Graph(src, dst, 5)
        assignment = np.array([0, 0, 1, 2, 2])
        rows = remote_replica_rows(graph, assignment, 4)
        assert rows.tolist() == [1, 1, 0, 0]
        assert rows.tolist() == walked_remote_rows(graph, assignment, 4)

    def test_vertex_data_formula(self):
        # (1 + alpha) * |V| / (m*n) rows of dim * 4 bytes
        volume = vertex_data_per_subgraph(
            num_vertices=1000, alpha=1.5, num_subgraphs=10,
            feature_dim=8,
        )
        assert volume == (2.5 * 1000 / 10) * 8 * 4

    def test_friendster_more_replicated_than_web(self):
        web = load_dataset("it2004_sim", scale=0.2)
        social = load_dataset("friendster_sim", scale=0.2)
        web_alpha = replication_factor_sweep(web, [16], seed=0)[16]
        social_alpha = replication_factor_sweep(social, [16], seed=0)[16]
        assert social_alpha > web_alpha


def walked_remote_rows(graph, assignment, num_parts):
    """Per part, the distinct sources of its in-edges that live in
    another part, found one edge at a time."""
    remote = [set() for _ in range(num_parts)]
    src, dst = graph.edge_arrays()
    for u, v in zip(src.tolist(), dst.tolist()):
        if assignment[u] != assignment[v]:
            remote[assignment[v]].add(u)
    return [len(sources) for sources in remote]


class TestRemovedSettings:
    """Partitioning and placement settings no caller set are constants
    (``BALANCE_SLACK``, ``REFINEMENT_PASSES``, ``MAX_REFINEMENTS``,
    ``MAX_ITERATIONS``; GCN edge weights on every chunk): passing one is
    a ``TypeError``, like any unknown keyword."""

    @pytest.mark.parametrize("call", [
        lambda g: metis_partition(g, 2, balance_slack=0.1),
        lambda g: metis_partition(g, 2, refinement_passes=1),
        lambda g: two_level_partition(g, 2, 2, gcn_weights=False),
        lambda g: search_placement(two_level_partition(g, 4, 2), 2,
                                   max_refinements=1),
        lambda g: joint_placement(two_level_partition(g, 4, 2),
                                  ClusterPlatform(A100_CLUSTER),
                                  max_iterations=1),
    ], ids=["metis_balance_slack", "metis_refinement_passes",
            "two_level_gcn_weights", "search_max_refinements",
            "joint_max_iterations"])
    def test_removed_keyword_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call(toy_graph())
