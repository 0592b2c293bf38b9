"""Tests for the deduplicated communication framework."""

import numpy as np
import pytest

from repro.comm import (
    DedupCommunicator,
    ReorganizationResult,
    build_comm_plan,
    measure_volumes,
    reorganize_partition,
)
import repro.comm.reorganize as reorganize
from repro.errors import CommunicationPlanError, ConfigurationError
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
)
from repro.partition import two_level_partition

MODES = [
    ("baseline", False, False),
    ("p2p", True, False),
    ("ru", False, True),
    ("hongtu", True, True),
]


def _no_work(*args, **kwargs):
    raise AssertionError("a malformed argument reached the greedy phases")


@pytest.fixture(scope="module")
def partitioned():
    graph = load_dataset("papers_sim", scale=0.15, seed=2)
    return two_level_partition(graph, 4, 5, seed=0)


class TestPlanInvariants:
    @pytest.mark.parametrize("label,inter,intra", MODES)
    def test_validate(self, partitioned, label, inter, intra):
        plan = build_comm_plan(partitioned, dedup_inter=inter,
                               dedup_intra=intra)
        plan.validate()

    @pytest.mark.parametrize("label,inter,intra", MODES)
    def test_dimensions(self, partitioned, label, inter, intra):
        plan = build_comm_plan(partitioned, dedup_inter=inter,
                               dedup_intra=intra)
        assert plan.num_batches == partitioned.num_chunks
        assert plan.num_gpus == partitioned.num_partitions

    def test_transitions_partition_batch_union(self, partitioned):
        plan = build_comm_plan(partitioned)
        assignment = partitioned.assignment
        for j in range(plan.num_batches):
            union = np.unique(np.concatenate(
                [partitioned.chunks[i][j].neighbor_global
                 for i in range(plan.num_gpus)]
            ))
            staged = np.concatenate(
                [plan.plans[j][i].transition for i in range(plan.num_gpus)]
            )
            # Disjoint and covering.
            assert len(staged) == len(union)
            np.testing.assert_array_equal(np.sort(staged), union)
            for i in range(plan.num_gpus):
                transition = plan.plans[j][i].transition
                assert np.all(assignment[transition] == i)

    @pytest.mark.parametrize("label,inter,intra", MODES)
    def test_repeated_needed_vertex_rejected(self, partitioned, monkeypatch,
                                             label, inter, intra):
        """The backward's ``buf[idx] += rows`` needs duplicate-free index
        sets; a plan that cannot promise them is refused at build time."""
        chunk = partitioned.chunks[1][2]
        monkeypatch.setattr(
            chunk, "neighbor_global",
            np.sort(np.append(chunk.neighbor_global,
                              chunk.neighbor_global[:1])))
        with pytest.raises(CommunicationPlanError,
                           match="duplicate-free"):
            build_comm_plan(partitioned, dedup_inter=inter,
                            dedup_intra=intra)

    def test_no_reuse_in_first_batch(self, partitioned):
        plan = build_comm_plan(partitioned)
        for gpu_plan in plan.plans[0]:
            assert gpu_plan.num_reused == 0

    def test_reuse_matches_previous_transition(self, partitioned):
        plan = build_comm_plan(partitioned)
        for j in range(1, plan.num_batches):
            for i in range(plan.num_gpus):
                current = plan.plans[j][i]
                previous = plan.plans[j - 1][i]
                reused = current.transition[current.reuse_mask]
                assert np.all(np.isin(reused, previous.transition))

    def test_reused_vertices_keep_positions(self, partitioned):
        """The in-place property of Fig. 7a: shared vertices share slots."""
        plan = build_comm_plan(partitioned)
        for i in range(plan.num_gpus):
            for j in range(1, plan.num_batches):
                current = plan.plans[j][i]
                previous = plan.plans[j - 1][i]
                prev_pos = dict(zip(previous.transition.tolist(),
                                    previous.positions.tolist()))
                for vertex, position, reused in zip(
                        current.transition.tolist(),
                        current.positions.tolist(),
                        current.reuse_mask.tolist()):
                    if reused:
                        assert prev_pos[vertex] == position

    def test_positions_within_buffer(self, partitioned):
        plan = build_comm_plan(partitioned)
        for batch in plan.plans:
            for gpu_plan in batch:
                if len(gpu_plan.positions):
                    assert gpu_plan.positions.max() < \
                        plan.buffer_rows[gpu_plan.gpu]

    def test_baseline_loads_everything(self, partitioned):
        plan = build_comm_plan(partitioned, dedup_inter=False,
                               dedup_intra=False)
        for batch in plan.plans:
            for gpu_plan in batch:
                assert gpu_plan.num_reused == 0
                np.testing.assert_array_equal(gpu_plan.transition,
                                              gpu_plan.needed)

    def test_baseline_fetches_are_local(self, partitioned):
        plan = build_comm_plan(partitioned, dedup_inter=False,
                               dedup_intra=False)
        for j in range(plan.num_batches):
            reader, source, rows = plan.segments(j)
            assert np.array_equal(reader, source)
            assert rows.tolist() == [len(gpu_plan.needed)
                                     for gpu_plan in plan.plans[j]]

    def test_interleaved_fetch_order(self, partitioned):
        """Fetch segments start at the local GPU and wrap (Algorithm 2)."""
        plan = build_comm_plan(partitioned)
        m = plan.num_gpus
        for j in range(plan.num_batches):
            reader, source, _rows = plan.segments(j)
            assert (np.diff(reader) >= 0).all()  # reader order
            for gpu in range(m):
                sources = source[reader == gpu].tolist()
                expected = [(gpu + step) % m for step in range(m)
                            if (gpu + step) % m in sources]
                assert sources == expected


class TestVolumes:
    def test_ordering(self, partitioned):
        volumes = measure_volumes(partitioned)
        assert volumes.v_ori >= volumes.v_p2p >= volumes.v_ru > 0

    def test_dedup_components_sum(self, partitioned):
        volumes = measure_volumes(partitioned)
        assert volumes.inter_gpu_dedup + volumes.intra_gpu_dedup == \
            volumes.v_ori - volumes.v_ru

    def test_reduction_fraction(self, partitioned):
        volumes = measure_volumes(partitioned)
        assert 0.0 < volumes.reduction_fraction < 1.0

    def test_normalized_keys(self, partitioned):
        normalized = measure_volumes(partitioned).normalized()
        assert set(normalized) == {"v_ori", "inter_gpu_dedup",
                                   "intra_gpu_dedup", "v_ru"}

    def test_executor_h2d_rows_match_analysis(self, partitioned):
        """Measured executor traffic == analytic volume triple."""
        volumes = measure_volumes(partitioned)
        dim = 4
        host = np.zeros((partitioned.graph.num_vertices, dim))
        expectations = {
            (False, False): volumes.v_ori,
            (True, False): volumes.v_p2p,
            (True, True): volumes.v_ru,
        }
        for (inter, intra), expected_rows in expectations.items():
            plan = build_comm_plan(partitioned, dedup_inter=inter,
                                   dedup_intra=intra)
            platform = MultiGPUPlatform(A100_SERVER)
            comm = DedupCommunicator(plan, platform)
            clock = EventTimeline(barrier_all=True)
            comm.start_sweep(dim)
            for j in range(plan.num_batches):
                comm.load_batch_forward(j, host, clock)
            comm.end_sweep()
            assert clock.bytes_view()["h2d"] == expected_rows * dim * 4


class TestExecutor:
    def test_forward_values_exact(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        clock = EventTimeline(barrier_all=True)
        rng = np.random.default_rng(0)
        host = rng.standard_normal((partitioned.graph.num_vertices, 6))
        comm.start_sweep(6)
        for j in range(plan.num_batches):
            outputs = comm.load_batch_forward(j, host, clock)
            for i, out in enumerate(outputs):
                np.testing.assert_array_equal(
                    out, host[plan.plans[j][i].needed]
                )
        comm.end_sweep()

    @pytest.mark.parametrize("label,inter,intra", MODES)
    def test_backward_accumulation_exact(self, partitioned, label, inter,
                                         intra):
        plan = build_comm_plan(partitioned, dedup_inter=inter,
                               dedup_intra=intra)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        clock = EventTimeline(barrier_all=True)
        rng = np.random.default_rng(1)
        n = partitioned.graph.num_vertices
        host_grads = np.zeros((n, 3))
        expected = np.zeros((n, 3))
        comm.start_sweep(3)
        for j in range(plan.num_batches):
            grads = []
            for i in range(plan.num_gpus):
                needed = plan.plans[j][i].needed
                g = rng.standard_normal((len(needed), 3))
                np.add.at(expected, needed, g)
                grads.append(g)
            comm.accumulate_batch_backward(j, grads, host_grads)
            comm.submit_batch_backward(j, clock)
        comm.end_sweep()
        np.testing.assert_allclose(host_grads, expected, atol=1e-12)

    def test_clock_advances(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        clock = EventTimeline(barrier_all=True)
        host = np.zeros((partitioned.graph.num_vertices, 4))
        comm.start_sweep(4)
        comm.load_batch_forward(0, host, clock)
        comm.end_sweep()
        assert clock.breakdown.seconds["h2d"] > 0

    def test_transition_buffers_registered_in_pools(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        comm.start_sweep(8)
        assert all(gpu.memory.in_use > 0 for gpu in platform.gpus)
        comm.end_sweep()
        assert all(gpu.memory.in_use == 0 for gpu in platform.gpus)

    def test_sweep_lifecycle_errors(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        with pytest.raises(CommunicationPlanError):
            comm.load_batch_forward(0, np.zeros((10, 4)),
                                    EventTimeline(barrier_all=True))
        comm.start_sweep(4)
        with pytest.raises(CommunicationPlanError):
            comm.start_sweep(4)
        comm.end_sweep()

    def test_bad_gradient_shape(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        comm = DedupCommunicator(plan, platform)
        comm.start_sweep(4)
        grads = [np.zeros((1, 1))] * plan.num_gpus
        with pytest.raises(CommunicationPlanError):
            comm.accumulate_batch_backward(
                0, grads, np.zeros((partitioned.graph.num_vertices, 4)))
        comm.end_sweep()

    def test_platform_too_small(self, partitioned):
        plan = build_comm_plan(partitioned)
        platform = MultiGPUPlatform(A100_SERVER, num_gpus=2)
        with pytest.raises(CommunicationPlanError):
            DedupCommunicator(plan, platform)


class TestCostModel:
    def test_eq4_arithmetic(self, partitioned):
        volumes = measure_volumes(partitioned)
        platform = MultiGPUPlatform(A100_SERVER, numa_aware=True)
        row_bytes = 8
        expected = (
            volumes.v_ru * row_bytes / A100_SERVER.pcie_bandwidth
            + volumes.inter_gpu_dedup * row_bytes
            / A100_SERVER.nvlink_bandwidth
            + volumes.intra_gpu_dedup * row_bytes
            / A100_SERVER.gpu.memory_bandwidth
        )
        assert platform.dedup_seconds(volumes, row_bytes) == expected

    def test_dedup_beats_vanilla_with_fast_interconnect(self, partitioned):
        volumes = measure_volumes(partitioned)
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.dedup_seconds(volumes, 512) < \
            platform.h2d_seconds(volumes.v_ori * 512)


class TestReorganization:
    """Algorithm 4 on the paper's server. On ``partitioned`` the Eq. 4
    guard keeps the input; on ``shuffled`` it adopts the greedy layout,
    so the layout checks run there."""

    @pytest.fixture(scope="class")
    def server(self):
        return MultiGPUPlatform(A100_SERVER)

    @pytest.fixture(scope="class")
    def shuffled(self):
        """A chunk order shuffled to destroy locality."""
        graph = load_dataset("papers_sim", scale=0.15, seed=2)
        partition = two_level_partition(graph, 4, 8, seed=0)
        rng = np.random.default_rng(3)
        for i, row in enumerate(partition.chunks):
            partition.chunks[i] = [row[k] for k in rng.permutation(len(row))]
        return partition

    @pytest.fixture(scope="class")
    def adopted(self, shuffled, server):
        result = reorganize_partition(shuffled, server)
        assert not result.kept_original
        return result

    def test_chunks_stay_in_partition(self, shuffled, adopted):
        for i, row in enumerate(adopted.partition.chunks):
            for chunk in row:
                assert any(chunk is original
                           for original in shuffled.chunks[i])
                assert (shuffled.assignment[chunk.dst_global] == i).all()

    def test_every_chunk_used_once(self, shuffled, adopted):
        original = {
            i: {tuple(chunk.dst_global.tolist())
                for chunk in shuffled.chunks[i]}
            for i in range(shuffled.num_partitions)
        }
        for i, row in enumerate(adopted.partition.chunks):
            reorganized = {tuple(chunk.dst_global.tolist()) for chunk in row}
            assert reorganized == original[i]

    def test_phase2_is_permutation(self, shuffled, adopted):
        assert sorted(adopted.phase2_order) == \
            list(range(shuffled.num_chunks))

    @pytest.mark.parametrize("row_bytes", [0, -4, float("nan"),
                                           float("inf"), "8", True, None])
    def test_rejects_unpriceable_row_bytes(self, partitioned, row_bytes,
                                           deadline, monkeypatch):
        """0 priced every layout at 0.0 and -4 at negative seconds: the
        guard then compared nothing, or preferred the worst layout. inf
        made the net-aware chain's weight inf/inf = NaN, so no chunk beat
        the first score and the chain never ended."""
        monkeypatch.setattr(reorganize, "_paper_greedy", _no_work)
        with pytest.raises(ConfigurationError, match="row_bytes"):
            reorganize_partition(
                partitioned, ClusterPlatform(A100_CLUSTER, gpus_per_node=2),
                row_bytes=row_bytes)

    @pytest.mark.parametrize("platform", [
        None, 0, 2, float("nan"), True, "2", A100_CLUSTER, A100_SERVER,
    ])
    def test_rejects_what_is_not_a_platform(self, partitioned, platform,
                                            monkeypatch):
        """A node count or a spec is no fleet: it names no dead nodes and
        prices nothing, so it is refused before any work."""
        monkeypatch.setattr(reorganize, "_paper_greedy", _no_work)
        with pytest.raises(ConfigurationError, match="platform"):
            reorganize_partition(partitioned, platform)

    def test_rejects_a_partition_the_fleet_does_not_host(self, partitioned,
                                                         monkeypatch):
        """The net term reads one node per partition from the platform: a
        4-way partition on 8 GPUs has no such map."""
        monkeypatch.setattr(reorganize, "_paper_greedy", _no_work)
        with pytest.raises(ConfigurationError, match="platform"):
            reorganize_partition(partitioned, ClusterPlatform(A100_CLUSTER))

    def test_still_valid_cover(self, adopted):
        adopted.partition.validate()

    def test_cost_guided_never_worse(self, partitioned, shuffled, server):
        for partition in (partitioned, shuffled):
            result = reorganize_partition(partition, server, row_bytes=512)
            final_cost = server.dedup_seconds(
                measure_volumes(result.partition), 512)
            original_cost = server.dedup_seconds(
                measure_volumes(partition), 512)
            assert final_cost <= original_cost + 1e-12
            assert (result.cost_before, result.cost_after) \
                == (original_cost, final_cost)

    @pytest.mark.parametrize("dataset", ["papers_sim", "it2004_sim"])
    def test_kept_original_reports_the_kept_layout(self, dataset, server):
        """When the Eq. 4 guard keeps the input, the provenance is the
        input's — the identity layout and its cost — not the rejected
        greedy candidate's."""
        graph = load_dataset(dataset, scale=0.15, seed=2)
        partition = two_level_partition(graph, 4, 8, seed=0)
        result = reorganize_partition(partition, server, row_bytes=512)
        assert result.kept_original
        assert result.partition is partition
        assert result.phase1_assignments == [list(range(8))] * 4
        assert result.phase2_order == list(range(8))
        assert result.cost_after == result.cost_before

    @pytest.mark.parametrize("layout", ["partitioned", "shuffled"])
    def test_provenance_rebuilds_the_adopted_layout(self, request, layout,
                                                    server):
        partition = request.getfixturevalue(layout)
        result = reorganize_partition(partition, server)
        assert result.kept_original == (layout == "partitioned")
        for i, row in enumerate(result.partition.chunks):
            for slot, chunk in enumerate(row):
                batch = result.phase2_order[slot]
                assert chunk is partition.chunks[i][
                    result.phase1_assignments[i][batch]]

    def test_result_keeps_its_construction_and_attributes(self, partitioned):
        """The layout triple first, then the guard's facts in their
        historical positional order (the volumes last), the defaults of
        the optional ten, and the derived saving."""
        bare = ReorganizationResult(partitioned, [[0]], [0])
        assert (bare.cost_before, bare.cost_after, bare.kept_original,
                bare.net_aware, bare.net_rows_before, bare.net_rows_after,
                bare.net_seconds_before, bare.net_seconds_after,
                bare.volumes_before, bare.volumes_after) == \
            (None, None, False, False, None, None, None, None, None, None)
        assert bare.predicted_net_rows_saved is None
        before, after = measure_volumes(partitioned), object()
        full = ReorganizationResult(partitioned, [[0]], [0], 2.0, 1.0,
                                    True, True, 9, 4, 0.9, 0.4,
                                    before, after)
        assert full.partition is partitioned
        assert (full.phase1_assignments, full.phase2_order) == ([[0]], [0])
        assert (full.cost_before, full.cost_after, full.kept_original,
                full.net_aware, full.net_rows_before, full.net_rows_after,
                full.net_seconds_before, full.net_seconds_after) == \
            (2.0, 1.0, True, True, 9, 4, 0.9, 0.4)
        assert full.volumes_before is before and full.volumes_after is after
        assert full.predicted_net_rows_saved == 5

    def test_reorganization_helps_shuffled_schedule(self, shuffled,
                                                    adopted):
        """On a randomly shuffled chunk order, Algorithm 4 must recover
        locality and reduce host traffic."""
        assert measure_volumes(adopted.partition).v_ru \
            < measure_volumes(shuffled).v_ru
