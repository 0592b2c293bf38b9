"""The stacked-buffer executor against the per-segment one it replaced.

``tests/executor_reference.py`` keeps the old mover and the loop-built
emission constants verbatim; everything here compares with
``np.array_equal`` — the two forms do the same float operations in the
same order, so a tolerance would only hide a reordering.
"""

from __future__ import annotations

import numpy as np
import pytest

from executor_reference import (
    HALO_FIELDS,
    ReferenceCommunicator,
    ReferenceMover,
    reference_batch_static,
    reference_fetch_segments,
)
from repro.comm import DedupCommunicator, build_comm_plan
from repro.comm.executor import PlanStatic
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import CommunicationPlanError
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    NODE_SPECS,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
    NetworkTopology,
)
from repro.partition import (
    TwoLevelPartition,
    metis_partition,
    two_level_partition,
)
from repro.runtime.task import net_link_parts

GPUS = 4
CHUNKS = 3
DIM = 6

#: (dedup_inter, dedup_intra) → the trainer's name for the rung
LADDER = {
    (False, False): "baseline",
    (True, False): "p2p",
    (False, True): "ru",
    (True, True): "hongtu",
}


def _cluster(kind="flat", num_rails=0, **platform_args):
    cluster = A100_CLUSTER.with_num_nodes(2).with_topology(
        NetworkTopology(kind, num_rails=num_rails))
    return ClusterPlatform(cluster, gpus_per_node=2, **platform_args)


#: fresh 4-GPU platform per call: one node, two nodes flat, two nodes on
#: two rails, and a 3+1 placement only ``max_imbalance=1`` admits
PLATFORMS = {
    "one_node": lambda: MultiGPUPlatform(A100_SERVER),
    "flat": _cluster,
    "rail": lambda: _cluster("rail", num_rails=2),
    "uneven": lambda: _cluster("rail", num_rails=2, placement=[0, 0, 0, 1],
                               max_imbalance=1),
}

OVERLAPS = {"barrier": False, "pipeline": True}  # → double_buffer
DTYPES = (np.float32, np.float64)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.05, seed=3)


@pytest.fixture(scope="module")
def partitions(graph):
    """The METIS 4×3 grid, and one whose GPU 3 owns no vertex: an empty
    needed set every batch and, under inter-GPU dedup, a zero-row
    buffer."""
    three = metis_partition(graph, GPUS - 1, seed=0)
    return {
        "metis": two_level_partition(graph, GPUS, CHUNKS, seed=0),
        "empty_gpu": two_level_partition(graph, GPUS, CHUNKS,
                                         assignment=three),
    }


# ----------------------------------------------------------------------
# the plan's slot arrays
# ----------------------------------------------------------------------
class TestSlotArrays:
    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    @pytest.mark.parametrize("which", ["metis", "empty_gpu"])
    def test_slots_are_valid_and_stored_once(self, partitions, which,
                                             inter, intra):
        plan = build_comm_plan(partitions[which], dedup_inter=inter,
                               dedup_intra=intra)
        plan.validate()  # checks the slots against the staging
        assert plan.buffer_offsets.tolist() == \
            np.concatenate([[0], np.cumsum(plan.buffer_rows)]).tolist()
        for batch in plan.plans:
            for gpu_plan in batch:
                slots = gpu_plan.source_slots
                assert slots.dtype == np.int64
                assert len(slots) == len(gpu_plan.needed)
                assert len(np.unique(slots)) == len(slots)
                assert gpu_plan.num_loaded + gpu_plan.num_reused == \
                    len(gpu_plan.transition)
                # stored once, not recomputed per access
                assert gpu_plan.load_vertices is gpu_plan.load_vertices
                assert gpu_plan.load_positions is gpu_plan.load_positions

    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    @pytest.mark.parametrize("which", ["metis", "empty_gpu"])
    def test_every_slot_holds_the_vertex_it_is_read_for(self, partitions,
                                                        which, inter, intra):
        """The routing's meaning, checked against the staging alone:
        fill an id-valued stacked buffer the way the loads would and read
        it back through the slots and through the oracle's segments."""
        plan = build_comm_plan(partitions[which], dedup_inter=inter,
                               dedup_intra=intra)
        offsets = plan.buffer_offsets
        staged = np.full(offsets[-1], -1, dtype=np.int64)
        for j, batch in enumerate(plan.plans):
            segments = reference_fetch_segments(plan, j)
            for gpu_plan in batch:  # reused rows are already in place
                staged[gpu_plan.load_slots] = gpu_plan.load_vertices
            for gpu_plan in batch:
                assert np.array_equal(
                    staged[offsets[gpu_plan.gpu] + gpu_plan.positions],
                    gpu_plan.transition)
                assert np.array_equal(staged[gpu_plan.source_slots],
                                      gpu_plan.needed)
                for segment in segments[gpu_plan.gpu]:
                    assert np.array_equal(
                        staged[offsets[segment.source_gpu]
                               + segment.source_positions],
                        gpu_plan.needed[segment.local_rows])

    def test_a_vertex_nobody_stages_is_refused(self, partitions):
        partition = partitions["metis"]
        vertex = int(partition.chunks[0][1].neighbor_global[0])
        assignment = partition.assignment.copy()
        assignment[vertex] = GPUS  # owned by no GPU of the plan
        broken = TwoLevelPartition(partition.graph, partition.chunks,
                                   assignment)
        with pytest.raises(CommunicationPlanError,
                           match=rf"vertex {vertex} needed by GPU \d is "
                                 rf"not staged on GPU 0 in batch \d"):
            build_comm_plan(broken)

    def test_empty_gpu_fixture_is_what_it_claims(self, partitions):
        plan = build_comm_plan(partitions["empty_gpu"])
        assert plan.buffer_rows[GPUS - 1] == 0
        assert all(len(batch[GPUS - 1].needed) == 0 for batch in plan.plans)

    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    @pytest.mark.parametrize("which", ["metis", "empty_gpu"])
    def test_segments_equal_the_oracles(self, partitions, which, inter,
                                        intra):
        """``CommPlan.segments`` derives from the slots what the oracle
        builds from the vertex sets: the same (reader, source, rows)
        triples, in the same order."""
        plan = build_comm_plan(partitions[which], dedup_inter=inter,
                               dedup_intra=intra)
        for j in range(plan.num_batches):
            derived = list(zip(*(array.tolist()
                                 for array in plan.segments(j))))
            assert derived == [
                (reader, segment.source_gpu, len(segment.local_rows))
                for reader, segments in enumerate(
                    reference_fetch_segments(plan, j))
                for segment in segments]
            assert all(array.dtype == np.int64
                       for array in plan.segments(j))

    def test_validate_rejects_swapped_source_slots(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        victim = plan.plans[1][2]
        victim.source_slots = victim.source_slots.copy()
        victim.source_slots[[0, 1]] = victim.source_slots[[1, 0]]
        with pytest.raises(CommunicationPlanError,
                           match="source slots do not hold"):
            plan.validate()

    def test_validate_rejects_a_source_slot_off_the_buffer(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        victim = plan.plans[1][2]
        victim.source_slots = victim.source_slots.copy()
        victim.source_slots[0] = plan.buffer_offsets[-1]
        with pytest.raises(CommunicationPlanError,
                           match="source slots do not hold"):
            plan.validate()

    def test_validate_rejects_a_duplicated_source_slot(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        victim = plan.plans[1][2]
        victim.source_slots = victim.source_slots.copy()
        victim.source_slots[0] = victim.source_slots[1]
        with pytest.raises(CommunicationPlanError,
                           match="share a buffer slot"):
            plan.validate()

    def test_validate_rejects_a_wrong_load_slot(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        victim = plan.plans[0][1]
        victim.load_slots = victim.load_slots + 1
        with pytest.raises(CommunicationPlanError, match="load slots"):
            plan.validate()


# ----------------------------------------------------------------------
# value movement: every input array, host_grads after a full sweep
# ----------------------------------------------------------------------
def _sweep_pair(plan, platform, dtype, double_buffer, seed=0):
    """Forward then backward over every batch, through the communicator
    and through the reference mover; returns both sides' results."""
    n = len(plan.partition.assignment)
    rng = np.random.default_rng(seed)
    host = rng.standard_normal((n, DIM)).astype(dtype)
    comm = DedupCommunicator(plan, platform)
    reference = ReferenceMover(plan, DIM, dtype)
    timeline = EventTimeline(barrier_all=not double_buffer)
    comm.start_sweep(DIM, dtype=dtype, double_buffer=double_buffer)
    inputs = [(comm.load_batch_forward(j, host, timeline),
               reference.load_batch_forward(j, host))
              for j in range(plan.num_batches)]
    comm.end_sweep()

    grads = [[rng.standard_normal((len(gpu_plan.needed), DIM)).astype(dtype)
              for gpu_plan in batch] for batch in plan.plans]
    host_grads = rng.standard_normal((n, DIM)).astype(dtype)
    expected = host_grads.copy()
    reference = ReferenceMover(plan, DIM, dtype)
    comm.start_sweep(DIM, dtype=dtype)
    for j in range(plan.num_batches):
        comm.accumulate_batch_backward(j, grads[j], host_grads, timeline)
        reference.accumulate_batch_backward(j, grads[j], expected)
    comm.end_sweep()
    timeline.validate()
    return inputs, host_grads, expected


class TestMoverEqualsReference:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("overlap", sorted(OVERLAPS))
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    def test_inputs_and_host_grads_bit_equal(self, partitions, inter, intra,
                                             platform, overlap, dtype):
        plan = build_comm_plan(partitions["metis"], dedup_inter=inter,
                               dedup_intra=intra)
        inputs, host_grads, expected = _sweep_pair(
            plan, PLATFORMS[platform](), dtype, OVERLAPS[overlap])
        for new, old in inputs:
            assert len(new) == len(old) == GPUS
            for new_i, old_i in zip(new, old):
                assert new_i.dtype == old_i.dtype == dtype
                assert np.array_equal(new_i, old_i)
        assert np.array_equal(host_grads, expected)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("platform", ["one_node", "rail"])
    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    def test_empty_needed_set_and_zero_row_buffer(self, partitions, inter,
                                                  intra, platform, dtype):
        plan = build_comm_plan(partitions["empty_gpu"], dedup_inter=inter,
                               dedup_intra=intra)
        inputs, host_grads, expected = _sweep_pair(
            plan, PLATFORMS[platform](), dtype, double_buffer=True)
        for new, old in inputs:
            assert new[GPUS - 1].shape == (0, DIM)
            for new_i, old_i in zip(new, old):
                assert np.array_equal(new_i, old_i)
        assert np.array_equal(host_grads, expected)


# ----------------------------------------------------------------------
# end to end: 2-epoch loss sequences on reference values
# ----------------------------------------------------------------------
def _train(graph, partition, platform, comm_mode, overlap, dtype):
    """(trainer, its 2-epoch loss sequence)."""
    model = build_model("gcn", [graph.feature_dim, 8, graph.num_classes],
                        np.random.default_rng(11))
    trainer = HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=CHUNKS, comm_mode=comm_mode, overlap=overlap,
                     intermediate_policy="recompute", dtype=dtype, seed=2),
        partition=partition)
    return trainer, [trainer.train_epoch().loss for _ in range(2)]


class TestTrainingOnReferenceValues:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("overlap", sorted(OVERLAPS))
    @pytest.mark.parametrize("platform", sorted(PLATFORMS))
    @pytest.mark.parametrize("comm_mode", sorted(LADDER.values()))
    def test_two_epoch_losses_bit_equal(self, monkeypatch, graph, partitions,
                                        comm_mode, platform, overlap, dtype):
        args = (graph, partitions["metis"])
        trainer, new = _train(*args, PLATFORMS[platform](), comm_mode,
                              overlap, dtype)
        assert type(trainer.fleet.comm_grads) is DedupCommunicator
        monkeypatch.setattr("repro.core.planner.DedupCommunicator",
                            ReferenceCommunicator)
        trainer, old = _train(*args, PLATFORMS[platform](), comm_mode,
                              overlap, dtype)
        assert type(trainer.fleet.comm_values) is ReferenceCommunicator
        assert type(trainer.fleet.comm_grads) is ReferenceCommunicator
        if platform == "uneven":
            assert trainer.placement.tolist() == [0, 0, 0, 1]
        assert np.array_equal(new, old)
        assert new[1] < new[0]


# ----------------------------------------------------------------------
# array-built emission constants ≡ loop-built
# ----------------------------------------------------------------------
def _hetero_platform():
    cluster = A100_CLUSTER.with_num_nodes(3).with_node_specs(
        [NODE_SPECS["a100"], NODE_SPECS["v100"], NODE_SPECS["a100"]])
    return ClusterPlatform(cluster, gpus_per_node=2)


#: name → (GPUs, fresh platform): the cluster, hetero and rail fixtures
STATIC_PLATFORMS = {
    "one_node": (4, PLATFORMS["one_node"]),
    "cluster_flat": (8, lambda: ClusterPlatform(
        A100_CLUSTER.with_num_nodes(2))),
    "cluster_spine": (4, lambda: _cluster("spine")),
    "hetero": (6, _hetero_platform),
    "rail": (4, PLATFORMS["rail"]),
    "rail_uneven": (4, PLATFORMS["uneven"]),
    "rail_scattered": (8, lambda: ClusterPlatform(
        A100_CLUSTER.with_num_nodes(2).with_topology(
            NetworkTopology("rail", num_rails=2)),
        placement=[1, 0, 1, 1, 0, 0, 1, 0])),
}


def _assert_same(name, new, old):
    if isinstance(old, np.ndarray):
        assert isinstance(new, np.ndarray), name
        assert new.dtype == old.dtype, name
        assert np.array_equal(new, old), name
    else:
        assert new == old, name


class TestStaticEqualsLoopBuilt:
    @pytest.mark.parametrize("inter,intra", sorted(LADDER))
    @pytest.mark.parametrize("name", sorted(STATIC_PLATFORMS))
    def test_every_field_every_batch(self, graph, name, inter, intra):
        gpus, make_platform = STATIC_PLATFORMS[name]
        partition = two_level_partition(graph, gpus, CHUNKS, seed=0)
        plan = build_comm_plan(partition, dedup_inter=inter,
                               dedup_intra=intra)
        platform = make_platform()
        static = PlanStatic(plan, platform)
        offsets = plan.buffer_offsets
        for j in range(plan.num_batches):
            new = static.batch(j)
            old = reference_batch_static(plan, platform, j)
            for field in ("loaded_rows", "reused_rows", "local_gpu",
                          "local_rows", "d2d_gpu", "d2d_rows", "flush_rows"):
                _assert_same(field, getattr(new, field), old[field])
            for halo in ("load_halo", "fetch_halo", "push_halo",
                         "flush_halo"):
                for field in HALO_FIELDS:
                    _assert_same(f"{halo}.{field}",
                                 getattr(getattr(new, halo), field),
                                 old[halo][field])
            assert len(new.flush_vertices) == len(new.flush_slots) == gpus
            for i in range(gpus):
                _assert_same("flush_vertices", new.flush_vertices[i],
                             old["flush_vertices"][i])
                _assert_same("flush_slots", new.flush_slots[i],
                             offsets[i] + old["flush_positions"][i])
            assert new.needed_rows.tolist() == \
                [len(gpu_plan.needed) for gpu_plan in plan.plans[j]]
            assert np.array_equal(new.zero_slots, np.concatenate(
                [offsets[p.gpu] + p.positions[~p.reuse_mask]
                 for p in plan.plans[j]]))

    def test_cross_node_fixtures_have_halo_traffic(self, graph):
        """The comparison above is not vacuous: the multi-node fixtures
        coalesce real keys, with rails in use on the rail ones."""
        for name in ("cluster_flat", "hetero", "rail_scattered"):
            gpus, make_platform = STATIC_PLATFORMS[name]
            plan = build_comm_plan(
                two_level_partition(graph, gpus, CHUNKS, seed=0))
            platform = make_platform()
            halo = PlanStatic(plan, platform).batch(0).fetch_halo
            assert len(halo.rows) >= 2
            if name.startswith("rail"):
                assert {net_link_parts(int(device), platform.num_nodes,
                                       platform.num_rails)[2]
                        for device in halo.devices} == {0, 1}


# ----------------------------------------------------------------------
# one static per plan + placement
# ----------------------------------------------------------------------
class TestSharedStatic:
    def test_a_communicator_builds_its_own_by_default(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        platform = PLATFORMS["flat"]()
        first = DedupCommunicator(plan, platform)
        second = DedupCommunicator(plan, platform)
        assert first.static is not second.static
        shared = DedupCommunicator(plan, platform, static=first.static)
        assert shared.static is first.static

    def test_static_of_another_plan_or_platform_is_refused(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        other = build_comm_plan(partitions["metis"])
        platform = PLATFORMS["flat"]()
        for static in (PlanStatic(other, platform),
                       PlanStatic(plan, PLATFORMS["flat"]())):
            with pytest.raises(CommunicationPlanError,
                               match="different plan or platform"):
                DedupCommunicator(plan, platform, static=static)

    def test_batches_are_built_lazily_and_once(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        static = PlanStatic(plan, PLATFORMS["flat"]())
        assert static._batches == {}
        assert static.batch(1) is static.batch(1)
        assert sorted(static._batches) == [1]

    def test_routing_snapshot_follows_the_placement(self, partitions):
        plan = build_comm_plan(partitions["metis"])
        platform = PLATFORMS["uneven"]()
        static = PlanStatic(plan, platform)
        assert static.gpu_nodes.tolist() == [0, 0, 0, 1]
        assert static.gpu_rails.tolist() == [0, 1, 0, 0]
        assert np.array_equal(
            static.vertex_node,
            static.gpu_nodes[partitions["metis"].assignment])
        assert PlanStatic(plan, PLATFORMS["one_node"]()).vertex_node is None


# ----------------------------------------------------------------------
# entry points fail inside the taxonomy, before touching state
# ----------------------------------------------------------------------
@pytest.fixture
def live(partitions):
    """A 2-GPU communicator mid-sweep, its host arrays and a timeline."""
    graph = partitions["metis"].graph
    partition = two_level_partition(graph, 2, 2, seed=0)
    plan = build_comm_plan(partition)
    comm = DedupCommunicator(plan, MultiGPUPlatform(A100_SERVER, num_gpus=2))
    comm.start_sweep(DIM)
    host = np.random.default_rng(0).standard_normal(
        (graph.num_vertices, DIM))
    grads = [np.ones((len(gpu_plan.needed), DIM))
             for gpu_plan in plan.plans[0]]
    yield comm, plan, host, grads, EventTimeline(barrier_all=True)
    comm.end_sweep()


def _assert_untouched(comm, timeline):
    assert not comm._buffers.stacked.any()
    assert comm._history == []
    assert timeline.scheduler.num_tasks == 0


class TestEntryPointRejections:
    @pytest.mark.parametrize("batch", [-1, 2, 0.0, None])
    def test_forward_batch_out_of_plan(self, live, batch):
        comm, _plan, host, _grads, timeline = live
        with pytest.raises(CommunicationPlanError, match="batch"):
            comm.load_batch_forward(batch, host, timeline)
        _assert_untouched(comm, timeline)

    @pytest.mark.parametrize("batch", [-1, 2, 0.0, None])
    def test_backward_batch_out_of_plan(self, live, batch):
        comm, _plan, host, grads, timeline = live
        host_grads = np.zeros_like(host)
        with pytest.raises(CommunicationPlanError, match="batch"):
            comm.accumulate_batch_backward(batch, grads, host_grads,
                                           timeline)
        _assert_untouched(comm, timeline)
        assert not host_grads.any()

    @pytest.mark.parametrize("shape", ["wide", "narrow", "short", "flat"])
    def test_forward_host_values_shape(self, live, shape):
        comm, _plan, host, _grads, timeline = live
        bad = {"wide": np.zeros((len(host), DIM + 1)),
               "narrow": host[:, :DIM - 1],
               "short": host[:-1],
               "flat": host.reshape(-1)}[shape]
        with pytest.raises(CommunicationPlanError, match="host_values"):
            comm.load_batch_forward(0, bad, timeline)
        _assert_untouched(comm, timeline)

    @pytest.mark.parametrize("shape", ["wide", "narrow", "short"])
    def test_backward_host_grads_shape(self, live, shape):
        comm, _plan, host, grads, timeline = live
        bad = {"wide": np.zeros((len(host), DIM + 1)),
               "narrow": np.zeros((len(host), DIM - 1)),
               "short": np.zeros((len(host) - 1, DIM))}[shape]
        with pytest.raises(CommunicationPlanError, match="host_grads"):
            comm.accumulate_batch_backward(0, grads, bad, timeline)
        _assert_untouched(comm, timeline)
        assert not bad.any()

    def test_backward_one_gradient_array_for_two_gpus(self, live):
        """``zip`` used to truncate: the second GPU's gradients were
        dropped and the call returned normally."""
        comm, _plan, host, grads, timeline = live
        host_grads = np.zeros_like(host)
        with pytest.raises(CommunicationPlanError, match="neighbor_grads"):
            comm.accumulate_batch_backward(0, grads[:1], host_grads,
                                           timeline)
        with pytest.raises(CommunicationPlanError, match="neighbor_grads"):
            comm.accumulate_batch_backward(0, grads + grads[:1], host_grads,
                                           timeline)
        _assert_untouched(comm, timeline)
        assert not host_grads.any()

    def test_backward_gradient_shape_names_the_gpu(self, live):
        comm, _plan, host, grads, timeline = live
        host_grads = np.zeros_like(host)
        bad = [grads[0], grads[1][:-1]]
        with pytest.raises(CommunicationPlanError,
                           match=r"neighbor_grads\[1\]"):
            comm.accumulate_batch_backward(0, bad, host_grads, timeline)
        _assert_untouched(comm, timeline)
        assert not host_grads.any()

    def test_serving_surface_rejects_the_same_batches(self, live):
        comm, *_ = live
        for batch in (-1, 2):
            with pytest.raises(CommunicationPlanError, match="batch"):
                comm.transition_rows(batch)
            with pytest.raises(CommunicationPlanError, match="batch"):
                comm.assemble_seconds(batch, 4)

    def test_inputs_come_back_in_the_sweep_dtype(self, live):
        """Pinned decision: the rows are read out of the transition
        buffers, so a float32 host array into a float64 sweep returns
        float64 (exactly the float32 values, widened)."""
        comm, plan, host, _grads, timeline = live
        single = host.astype(np.float32)
        outputs = comm.load_batch_forward(0, single, timeline)
        for gpu_plan, out in zip(plan.plans[0], outputs):
            assert out.dtype == np.float64
            assert np.array_equal(
                out, single[gpu_plan.needed].astype(np.float64))
