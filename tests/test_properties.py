"""End-to-end property-based tests on randomized graphs.

These push the core invariants through arbitrary topologies (not just the
curated stand-ins): partition covers, communication-plan exactness, volume
identities, and chunked-vs-monolithic gradient equality.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import SGD
from repro.baselines import FullGraphTrainer
from repro.comm import DedupCommunicator, build_comm_plan, measure_volumes
from repro.core import HongTuConfig, HongTuTrainer
from repro.gnn import build_model
from repro.graph import Graph
from repro.hardware import A100_SERVER, EventTimeline, MultiGPUPlatform


@st.composite
def random_graphs(draw):
    """Random directed graphs with features/labels/train mask."""
    n = draw(st.integers(min_value=8, max_value=60))
    num_edges = draw(st.integers(min_value=n, max_value=4 * n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges)
    dst = rng.integers(0, n, size=num_edges)
    keep = src != dst
    features = rng.standard_normal((n, 5))
    labels = rng.integers(0, 3, size=n)
    train = rng.random(n) < 0.6
    if not train.any():
        train[0] = True
    return Graph(src[keep], dst[keep], n, features, labels, train,
                 name=f"random-{seed}")


@st.composite
def graph_and_grid(draw):
    graph = draw(random_graphs())
    m = draw(st.integers(min_value=1, max_value=4))
    n_chunks = draw(st.integers(min_value=1, max_value=5))
    return graph, m, n_chunks


class TestPartitionProperties:
    @given(graph_and_grid())
    @settings(max_examples=40, deadline=None)
    def test_two_level_is_disjoint_cover(self, data):
        from repro.partition import two_level_partition

        graph, m, n_chunks = data
        if m > graph.num_vertices:
            return
        partition = two_level_partition(graph, m, n_chunks, seed=0)
        partition.validate()

    @given(graph_and_grid())
    @settings(max_examples=40, deadline=None)
    def test_volume_identities(self, data):
        from repro.partition import two_level_partition

        graph, m, n_chunks = data
        if m > graph.num_vertices:
            return
        partition = two_level_partition(graph, m, n_chunks, seed=0)
        volumes = measure_volumes(partition)
        assert volumes.v_ori >= volumes.v_p2p >= volumes.v_ru >= 0
        assert volumes.inter_gpu_dedup + volumes.intra_gpu_dedup == \
            volumes.v_ori - volumes.v_ru
        # Every batch union is at least as large as the largest chunk set.
        for j, union_size in enumerate(volumes.batch_union_sizes):
            biggest = max(
                len(partition.chunks[i][j].neighbor_global)
                for i in range(m)
            )
            assert union_size >= biggest


class TestCommPlanProperties:
    @given(graph_and_grid(),
           st.sampled_from([(False, False), (True, False),
                            (False, True), (True, True)]))
    @settings(max_examples=30, deadline=None)
    def test_plan_roundtrip_exact(self, data, flags):
        from repro.partition import two_level_partition

        graph, m, n_chunks = data
        if m > graph.num_vertices:
            return
        dedup_inter, dedup_intra = flags
        partition = two_level_partition(graph, m, n_chunks, seed=0)
        plan = build_comm_plan(partition, dedup_inter=dedup_inter,
                               dedup_intra=dedup_intra)
        plan.validate()

        platform = MultiGPUPlatform(A100_SERVER, num_gpus=max(m, 1))
        comm = DedupCommunicator(plan, platform)
        clock = EventTimeline(barrier_all=True)
        rng = np.random.default_rng(1)
        host = rng.standard_normal((graph.num_vertices, 3))
        grads_expected = np.zeros_like(host)
        grads_actual = np.zeros_like(host)

        comm.start_sweep(3)
        for j in range(plan.num_batches):
            outputs = comm.load_batch_forward(j, host, clock)
            for i, out in enumerate(outputs):
                np.testing.assert_array_equal(
                    out, host[plan.plans[j][i].needed]
                )
        for j in range(plan.num_batches):
            batch_grads = []
            for i in range(plan.num_gpus):
                needed = plan.plans[j][i].needed
                g = rng.standard_normal((len(needed), 3))
                np.add.at(grads_expected, needed, g)
                batch_grads.append(g)
            comm.accumulate_batch_backward(j, batch_grads, grads_actual,
                                           clock)
        comm.end_sweep()
        np.testing.assert_allclose(grads_actual, grads_expected, atol=1e-10)

    @given(graph_and_grid())
    @settings(max_examples=25, deadline=None)
    def test_executor_traffic_matches_analysis(self, data):
        from repro.partition import two_level_partition

        graph, m, n_chunks = data
        if m > graph.num_vertices:
            return
        partition = two_level_partition(graph, m, n_chunks, seed=0)
        volumes = measure_volumes(partition)
        plan = build_comm_plan(partition)
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=max(m, 1))
        comm = DedupCommunicator(plan, platform)
        clock = EventTimeline(barrier_all=True)
        host = np.zeros((graph.num_vertices, 2))
        comm.start_sweep(2)
        for j in range(plan.num_batches):
            comm.load_batch_forward(j, host, clock)
        comm.end_sweep()
        assert clock.bytes_view()["h2d"] == volumes.v_ru * 2 * 4


class TestTrainingProperties:
    @given(random_graphs(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=8, deadline=None)
    def test_chunked_equals_monolithic_on_random_graphs(self, graph,
                                                        n_chunks):
        dims = [graph.feature_dim, 6, graph.num_classes]
        reference_model = build_model("gcn", dims, np.random.default_rng(3))
        chunked_model = build_model("gcn", dims, np.random.default_rng(3))

        reference = FullGraphTrainer(
            graph, reference_model,
            optimizer=SGD(reference_model.parameters(), lr=0.05),
        )
        trainer = HongTuTrainer(
            graph, chunked_model, MultiGPUPlatform(A100_SERVER),
            HongTuConfig(num_chunks=n_chunks, seed=0),
            optimizer=SGD(chunked_model.parameters(), lr=0.05),
        )
        reference.train_epoch()
        trainer.train_epoch()
        for (_, a), (_, b) in zip(reference_model.named_parameters(),
                                  chunked_model.named_parameters()):
            np.testing.assert_allclose(a.data, b.data, atol=1e-10)
