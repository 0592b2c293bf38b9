"""The price list of a plan (``repro.core.costs``) against what it replaced.

Every table entry must equal the per-chunk scalar formula the trainer,
serving engine, planner and elastic controller used to spell out
themselves, and pricing a whole wave with one ``devices=gpu_ids`` call
must be ``array_equal`` to the per-GPU scalar calls — on a single
server, a homogeneous cluster and a mixed-generation fleet. The serving
engine's forward price for ``(l, j)`` must be the trainer's, and a cold
serve must move the bytes the plan predicts.
"""

import numpy as np
import pytest

from repro.comm import DedupVolumes
from repro.core import HongTuTrainer, estimate_for_model
from repro.core.costs import BackwardCosts, ChunkShapes, checkpoint_dims
from repro.gnn import MODEL_REGISTRY
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    NODE_SPECS,
    ClusterPlatform,
    EventTimeline,
    MultiGPUPlatform,
)
from repro.runtime.task import HOST_DEVICE
from repro.scenario import ClusterArgs

FLEETS = {
    "single": dict(gpus=2),
    "homogeneous": dict(nodes=2, gpus=2),
    "v100+a100": dict(nodes=2, gpus=2, node_spec=["v100", "a100"]),
}
#: float32, the width every row is priced at (``SCALAR_BYTES``)
BPS = 4


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


def make_trainer(graph, arch, policy, fleet):
    scenario = ClusterArgs(arch=arch, hidden_dim=12, layers=2, chunks=3,
                           **FLEETS[fleet])
    return HongTuTrainer(
        graph, scenario.build_model(graph), scenario.build_platform(),
        scenario.build_config(intermediate_policy=policy,
                              overlap="pipeline"))


# ----------------------------------------------------------------------
# the per-chunk scalar formulas, as the consumers used to write them
# ----------------------------------------------------------------------
def scalar_forward(layer, block):
    shape = (block.num_src, block.num_dst, block.num_edges)
    return dict(
        flops=layer.forward_flops(*shape),
        writeback_bytes=block.num_dst * layer.out_dim * BPS,
        checkpoint_bytes=block.num_dst * layer.aggregate_dim() * BPS,
        workspace_bytes=BPS * (block.num_src * layer.in_dim
                               + layer.forward_workspace_scalars(*shape)),
    )


def scalar_backward_cached(layer, block):
    loaded = block.num_dst * (layer.aggregate_dim() + layer.out_dim) * BPS
    if layer.update_uses_self:
        loaded += block.num_dst * layer.in_dim * BPS
    return dict(
        load_bytes=loaded,
        flops=(3 * layer.update_flops(block.num_dst)
               + layer.aggregate_flops(block.num_src, block.num_dst,
                                       block.num_edges)),
        workspace_bytes=BPS * 3 * block.num_dst * (
            layer.aggregate_dim() + layer.out_dim + layer.in_dim),
    )


def scalar_backward_recompute(layer, block):
    shape = (block.num_src, block.num_dst, block.num_edges)
    return dict(
        load_bytes=block.num_dst * layer.out_dim * BPS,
        flops=3 * layer.forward_flops(*shape),
        workspace_bytes=BPS * (block.num_src * layer.in_dim
                               + 3 * layer.forward_workspace_scalars(*shape)),
    )


def wave_ids(timeline, label):
    """Ids of the tasks of the waves labelled ``label``, in device order."""
    columns = timeline.scheduler.columns()
    phases = [phase for phase, name
              in enumerate(timeline.scheduler.phase_labels()) if name == label]
    ids = np.flatnonzero(np.isin(columns.phase, phases))
    return ids[np.argsort(columns.device[ids], kind="stable")]


def wave_seconds(timeline, label):
    """Seconds of the wave labelled ``label``, in device order."""
    return timeline.scheduler.columns().seconds[wave_ids(timeline, label)]


def wave_bytes(timeline, label):
    """Bytes of the wave labelled ``label``, in device order."""
    return timeline.scheduler.columns().nbytes[wave_ids(timeline, label)]


@pytest.mark.parametrize("fleet", sorted(FLEETS))
@pytest.mark.parametrize("policy", ["hybrid", "recompute"])
@pytest.mark.parametrize("arch", sorted(MODEL_REGISTRY))
class TestTableAgainstScalarFormulas:
    def test_entries_and_vector_pricing(self, graph, arch, policy, fleet):
        trainer = make_trainer(graph, arch, policy, fleet)
        shapes = trainer.fleet.shapes
        platform = trainer.platform
        partition = trainer.partition
        m, n = partition.num_partitions, partition.num_chunks
        gpu_ids = np.arange(m, dtype=np.int64)
        assert platform.heterogeneous == (fleet == "v100+a100")
        for layer in trainer.model.layers:
            cached = policy == "hybrid" and layer.cacheable_aggregate
            table_backward, scalar_backward = (
                (shapes.backward_cached, scalar_backward_cached) if cached
                else (shapes.backward_recompute, scalar_backward_recompute))
            for j in range(n):
                blocks = [partition.chunks[i][j].block for i in range(m)]
                for table, scalar in (
                        (shapes.forward(layer, j), scalar_forward),
                        (table_backward(layer, j), scalar_backward)):
                    expected = [scalar(layer, block) for block in blocks]
                    for field, values in table._asdict().items():
                        assert values.dtype == np.int64
                        assert values.tolist() == [
                            row[field] for row in expected]
                    # one vector call == m scalar calls, float for float
                    assert np.array_equal(
                        platform.gpu_compute_seconds(table.flops,
                                                     devices=gpu_ids),
                        [platform.gpu_compute_seconds(row["flops"],
                                                      devices=i)
                         for i, row in enumerate(expected)])
                    nbytes = (table.load_bytes
                              if isinstance(table, BackwardCosts)
                              else (table.writeback_bytes
                                    + table.checkpoint_bytes))
                    assert np.array_equal(
                        platform.h2d_seconds(nbytes, devices=gpu_ids),
                        [platform.h2d_seconds(int(b), devices=i)
                         for i, b in enumerate(nbytes)])

    def test_epoch_waves_are_the_priced_table(self, graph, arch, policy,
                                              fleet):
        """What the trainer emits for (l, j) is the table at the
        platform's rates — forward, checkpointed writeback, backward."""
        trainer = make_trainer(graph, arch, policy, fleet)
        shapes, platform = trainer.fleet.shapes, trainer.platform
        gpu_ids = np.arange(platform.num_gpus, dtype=np.int64)
        result = trainer.train_epoch()
        moved_d2h = moved_h2d = 0
        for l, layer in enumerate(trainer.model.layers):
            cached = policy == "hybrid" and layer.cacheable_aggregate
            for j in range(trainer.plan.num_batches):
                forward = shapes.forward(layer, j)
                d2h = forward.writeback_bytes + (
                    forward.checkpoint_bytes if cached else 0)
                backward = (shapes.backward_cached if cached
                            else shapes.backward_recompute)(layer, j)
                for label, seconds in (
                        (f"compute[l{l}b{j}]", platform.gpu_compute_seconds(
                            forward.flops, devices=gpu_ids)),
                        (f"writeback[l{l}b{j}]", platform.h2d_seconds(
                            d2h, devices=gpu_ids)),
                        (f"grad_load[l{l}b{j}]", platform.h2d_seconds(
                            backward.load_bytes, devices=gpu_ids)),
                        (f"grad_compute[l{l}b{j}]",
                         platform.gpu_compute_seconds(
                             backward.flops, devices=gpu_ids))):
                    assert np.array_equal(
                        wave_seconds(result.timeline, label), seconds)
                for label, nbytes in (
                        (f"writeback[l{l}b{j}]", d2h),
                        (f"grad_load[l{l}b{j}]", backward.load_bytes)):
                    assert np.array_equal(
                        wave_bytes(result.timeline, label), nbytes)
                moved_d2h += int(d2h.sum())
                moved_h2d += int(backward.load_bytes.sum())
        # the table's bytes, on top of the communicators' own traffic
        assert result.d2h_bytes >= moved_d2h
        assert result.h2d_bytes >= moved_h2d


@pytest.mark.parametrize("nodes", [1, 3])
@pytest.mark.parametrize("numa_aware", [True, False])
@pytest.mark.parametrize("profile", sorted(NODE_SPECS))
def test_rate_table_is_the_closed_form_spec_expression(profile, numa_aware,
                                                       nodes):
    """One rate table: every cost method with ``devices=`` equals the
    ``devices=None`` answer and the spec's closed-form expression, bit
    for bit — as a homogeneous fleet, as N identical per-node profiles,
    and (one node) as the wrapped standalone server."""
    spec = NODE_SPECS[profile]
    cluster = A100_CLUSTER.with_node(spec).with_num_nodes(nodes)
    platforms = [
        ClusterPlatform(cluster, numa_aware=numa_aware),
        ClusterPlatform(cluster.with_node_specs((spec,) * nodes),
                        numa_aware=numa_aware),
    ]
    if nodes == 1:
        platforms.append(MultiGPUPlatform(spec, numa_aware=numa_aware))
    h2d = spec.pcie_bandwidth
    if not numa_aware:
        remote = 1.0 - 1.0 / spec.num_sockets
        h2d = (1.0 - remote) * h2d + remote * h2d * spec.qpi_factor
    for platform in platforms:
        m = platform.num_gpus
        gpu_ids = np.arange(m, dtype=np.int64)
        amounts = (gpu_ids * 7919 + 1) * 4099
        for method, rate, ids in (
                (platform.h2d_seconds, h2d, gpu_ids),
                (platform.d2d_seconds, spec.nvlink_bandwidth, gpu_ids),
                (platform.reuse_seconds, spec.gpu.memory_bandwidth, gpu_ids),
                (platform.gpu_compute_seconds, spec.gpu.compute_flops,
                 gpu_ids),
                (platform.cpu_accumulate_seconds,
                 spec.cpu_accumulate_bandwidth,
                 np.array([platform.node_of(i) for i in range(m)]))):
            closed_form = [a / rate for a in amounts.tolist()]
            assert method(amounts, ids).tolist() == closed_form
            assert method(amounts).tolist() == closed_form
            assert [method(a, int(i)) for a, i
                    in zip(amounts.tolist(), ids)] == closed_form
            assert [method(a) for a in amounts.tolist()] == closed_form
        # Eq. 4 reads the same reference rates
        volumes = DedupVolumes(v_ori=9173, v_p2p=4099, v_ru=1031,
                               num_vertices=9173, batch_union_sizes=[])
        assert platform.dedup_seconds(volumes, 520) == (
            1031 * 520 / h2d + 5074 * 520 / spec.nvlink_bandwidth
            + 3068 * 520 / spec.gpu.memory_bandwidth)


def cold_column(engine, j):
    """A fresh timeline holding one replayed, all-cold serve of column j."""
    timeline = EventTimeline()
    admit = timeline.submit_batch("cpu", [0.0], devices=[HOST_DEVICE])
    cold = (False,) * len(engine.model.layers)
    engine._replay_column(timeline, j, cold, admit)
    return timeline


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_serving_forward_price_is_the_trainers(graph, fleet):
    """Serving's compute/writeback seconds for (l, j) equal the trainer's
    forward wave for the same (l, j) — one table, not two copies."""
    trainer = make_trainer(graph, "gcn", "recompute", fleet)
    timeline = trainer.train_epoch().timeline
    engine = trainer.serving_engine()
    for j in range(trainer.plan.num_batches):
        served = cold_column(engine, j)
        for l in range(len(trainer.model.layers)):
            for serve, epoch in (("serve_compute", "compute"),
                                 ("serve_writeback", "writeback")):
                assert np.array_equal(
                    wave_seconds(served, f"{serve}[l{l}c{j}]"),
                    wave_seconds(timeline, f"{epoch}[l{l}b{j}]"))


@pytest.mark.parametrize("fleet", sorted(FLEETS))
def test_cold_serve_moves_the_bytes_the_plan_predicts(graph, fleet):
    """A cold column stages every GPU's full transition set (h2d), reads
    the plan's same-node P2P rows (d2d) and writes h^{l+1} back (d2h),
    layer by layer at that layer's width."""
    trainer = make_trainer(graph, "gcn", "recompute", fleet)
    engine = trainer.serving_engine()
    plan, dims = trainer.plan, trainer.model.dims
    node = trainer.platform.placement
    layers = range(len(trainer.model.layers))
    for j in range(plan.num_batches):
        reader, source, rows = plan.segments(j)
        p2p = int(rows[(reader != source)
                       & (node[reader] == node[source])].sum())
        staged = sum(len(gpu_plan.transition) for gpu_plan in plan.plans[j])
        dst = sum(row[j].num_dst for row in trainer.partition.chunks)
        moved = cold_column(engine, j).bytes_view()
        assert moved["h2d"] == sum(staged * dims[l] * BPS for l in layers)
        assert moved["d2d"] == sum(p2p * dims[l] * BPS for l in layers)
        assert moved["d2h"] == sum(dst * dims[l + 1] * BPS for l in layers)
        if fleet == "single":
            assert p2p > 0


class TestPlanLevelTables:
    def test_shapes_read_the_partition_and_follow_it(self, graph):
        trainer = make_trainer(graph, "gcn", "hybrid", "homogeneous")
        shapes, partition = trainer.fleet.shapes, trainer.partition
        for i, row in enumerate(partition.chunks):
            for j, chunk in enumerate(row):
                block = chunk.block
                assert (shapes.num_src[i, j], shapes.num_dst[i, j],
                        shapes.num_edges[i, j]) == (
                    block.num_src, block.num_dst, block.num_edges)
        rebuilt = ChunkShapes.of(partition)
        for field in ("num_src", "num_dst", "num_edges"):
            assert np.array_equal(getattr(rebuilt, field),
                                  getattr(shapes, field))

    def test_topology_bytes_are_the_gpu_reservations(self, graph):
        trainer = make_trainer(graph, "gcn", "hybrid", "single")
        table = trainer.fleet.shapes.topology_bytes()
        expected = [[chunk.num_edges * 12 + (chunk.num_dst + 1) * 8
                     for chunk in row] for row in trainer.partition.chunks]
        assert table.tolist() == expected
        reserved = [allocation.nbytes
                    for allocation in trainer.fleet.topology_allocations]
        assert reserved == [b for row in expected for b in row]

    def test_partition_flops_sum_the_forward_table(self, graph):
        trainer = make_trainer(graph, "gat", "hybrid", "single")
        shapes, model = trainer.fleet.shapes, trainer.model
        expected = sum(
            shapes.forward(layer, j).flops
            for layer in model.layers
            for j in range(trainer.plan.num_batches))
        assert np.array_equal(shapes.partition_flops(model), expected)

    @pytest.mark.parametrize("arch", sorted(MODEL_REGISTRY))
    def test_checkpoint_dims_and_table1_intermediates(self, graph, arch):
        trainer = make_trainer(graph, arch, "hybrid", "single")
        model = trainer.model
        assert checkpoint_dims(model, "recompute") == []
        assert checkpoint_dims(model, "hybrid") == [
            layer.aggregate_dim() for layer in model.layers
            if layer.cacheable_aggregate]
        v, e = graph.num_vertices, graph.num_edges
        assert estimate_for_model(v, e, model).intermediate_bytes == \
            BPS * sum(layer.forward_workspace_scalars(v, v, e)
                      for layer in model.layers)
