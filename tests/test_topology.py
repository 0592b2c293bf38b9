"""Tests for the topology-aware cluster network.

Covers the NetworkTopology spec and its platform plumbing, the
topology-priced collectives, the trainer-level acceptance contracts
(explicit ``flat`` and ``spine`` at oversubscription 1 are float-identical
to the pre-topology cluster path; an oversubscribed spine is strictly
slower on a halo-heavy workload; rail traffic spreads over per-GPU rails),
the executor-vs-static halo cross-checks, the net-aware Algorithm 4
objective, and the channel-utilization rendering regression (no row can
render above 100%).
"""

import dataclasses
import re

import numpy as np
import pytest

from repro.autograd import SGD
from repro.bench.reporting import render_node_utilization, render_timeline
from repro.comm import (
    ClusterCostModel,
    CommCostModel,
    DedupCommunicator,
    build_comm_plan,
    reorganize_partition,
)
from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    FLAT_TOPOLOGY,
    ClusterPlatform,
    ClusterSpec,
    EventTimeline,
    MultiGPUPlatform,
    NetworkTopology,
    V100_SERVER,
)
from repro.partition import (
    halo_load_volumes,
    halo_volumes,
    two_level_partition,
)
from repro.runtime import (
    CHANNELS,
    NET_DEVICE_BASE,
    SPINE_RESOURCE,
    EventScheduler,
    net_link_parts,
)
from repro.scenario import ClusterArgs
from report_reference import (
    reference_render_node_utilization,
    reference_render_timeline,
)


def cluster_platform(kind="flat", oversubscription=1.0, num_rails=0,
                     nodes=2, gpus_per_node=None):
    topology = NetworkTopology(kind, oversubscription=oversubscription,
                               num_rails=num_rails)
    cluster = A100_CLUSTER.with_num_nodes(nodes).with_topology(topology)
    return ClusterPlatform(cluster, gpus_per_node=gpus_per_node)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("reddit_sim", scale=0.12, seed=3)


def make_trainer(graph, platform, overlap="pipeline", comm_mode="hongtu"):
    model = build_model("gcn", [graph.feature_dim, 12, graph.num_classes],
                        np.random.default_rng(11))
    return HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=4, comm_mode=comm_mode, overlap=overlap,
                     seed=2),
        optimizer=SGD(model.parameters(), lr=0.02),
    )


class TestNetworkTopologySpec:
    def test_default_is_flat(self):
        assert A100_CLUSTER.topology == FLAT_TOPOLOGY
        assert FLAT_TOPOLOGY.kind == "flat"
        assert FLAT_TOPOLOGY.resolved_rails(4) == 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology("torus")
        with pytest.raises(ValueError):
            NetworkTopology("spine", oversubscription=0.5)
        with pytest.raises(ValueError):
            NetworkTopology("rail", num_rails=-1)

    def test_rail_count_resolution(self):
        assert NetworkTopology("rail").resolved_rails(4) == 4
        assert NetworkTopology("rail", num_rails=2).resolved_rails(4) == 2
        assert NetworkTopology("spine").resolved_rails(4) == 1

    def test_with_topology(self):
        spec = A100_CLUSTER.with_topology(
            NetworkTopology("spine", oversubscription=2.0)
        )
        assert spec.topology.kind == "spine"
        assert spec.network_bandwidth == A100_CLUSTER.network_bandwidth


class TestTopologyPlatform:
    def test_rail_fanout_and_per_rail_rate(self):
        flat = cluster_platform("flat")
        rail = cluster_platform("rail")
        assert flat.num_rails == 1
        assert rail.num_rails == rail.gpus_per_node == 4
        # A rail link runs at 1/rails of the pair bandwidth.
        nbytes = 1 << 20
        latency = rail.cluster.network_latency
        assert rail.net_seconds(nbytes) - latency == pytest.approx(
            4 * (flat.net_seconds(nbytes) - latency)
        )

    def test_spine_hold_is_excess_transit_time(self):
        spine = cluster_platform("spine", oversubscription=3.0)
        nbytes = 1 << 20
        expected = 2.0 * nbytes / (2 * spine.cluster.network_bandwidth)
        assert spine.spine_hold_seconds(nbytes) == pytest.approx(expected)
        # Messages still ride their own link at full rate.
        flat = cluster_platform("flat")
        assert spine.net_seconds(nbytes) == flat.net_seconds(nbytes)

    def test_non_blocking_topologies_hold_nothing(self):
        assert cluster_platform("flat").spine_hold_seconds(1 << 20) == 0.0
        assert cluster_platform("rail").spine_hold_seconds(1 << 20) == 0.0
        assert cluster_platform(
            "spine", oversubscription=1.0).spine_hold_seconds(1 << 20) == 0.0
        assert MultiGPUPlatform(A100_SERVER).spine_hold_seconds(1 << 20) == 0.0

    def test_single_node_platform_is_flat(self):
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.topology.kind == "flat"
        assert platform.num_rails == 1


class TestClusterCostModelTopology:
    @staticmethod
    def make(latency, topology=FLAT_TOPOLOGY):
        return ClusterCostModel.from_cluster(ClusterSpec(
            "toy", 4, A100_SERVER, 100.0, latency, topology=topology))

    def test_spine_scales_collective_bandwidth(self):
        flat = self.make(0.0)
        spine = self.make(0.0, NetworkTopology("spine", oversubscription=2.0))
        assert spine.collective_bandwidth == 50.0
        assert spine.ring_allreduce_seconds(400.0) == \
            pytest.approx(2 * flat.ring_allreduce_seconds(400.0))
        assert spine.tree_allreduce_seconds(400.0) == \
            pytest.approx(2 * flat.tree_allreduce_seconds(400.0))

    def test_rail_prices_like_flat(self):
        """Rails shard the payload over parallel links at 1/rails rate
        each — the aggregate reproduces the flat collective exactly."""
        flat = self.make(1e-3)
        rail = self.make(1e-3, NetworkTopology("rail"))
        assert rail.ring_allreduce_seconds(4000.0) == \
            flat.ring_allreduce_seconds(4000.0)

    def test_from_cluster_carries_topology(self):
        spec = A100_CLUSTER.with_topology(
            NetworkTopology("spine", oversubscription=2.0)
        )
        model = ClusterCostModel.from_cluster(spec)
        assert model.topology.kind == "spine"
        assert model.collective_bandwidth == \
            spec.network_bandwidth / 2.0


class TestTopologyTrainer:
    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    def test_flat_is_float_identical_to_default_cluster_path(self, graph,
                                                             overlap):
        """Acceptance: --topology flat reproduces the pre-topology cluster
        path exactly — and so does a spine with a non-blocking core."""
        default = make_trainer(
            graph, ClusterPlatform(A100_CLUSTER.with_num_nodes(2)), overlap)
        explicit = make_trainer(graph, cluster_platform("flat"), overlap)
        spine1 = make_trainer(
            graph, cluster_platform("spine", oversubscription=1.0), overlap)
        for _ in range(2):
            a = default.train_epoch()
            b = explicit.train_epoch()
            c = spine1.train_epoch()
            assert a.epoch_seconds == b.epoch_seconds == c.epoch_seconds
            assert a.loss == b.loss == c.loss
            assert a.net_bytes == b.net_bytes == c.net_bytes
            assert a.clock.as_dict() == b.clock.as_dict() == c.clock.as_dict()

    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    def test_oversubscribed_spine_strictly_slower_than_flat(self, graph,
                                                            overlap):
        """Acceptance: spine with oversubscription > 1 yields a strictly
        larger makespan than flat on a halo-heavy workload."""
        flat = make_trainer(graph, cluster_platform("flat"),
                            overlap).train_epoch()
        spine = make_trainer(
            graph, cluster_platform("spine", oversubscription=4.0),
            overlap).train_epoch()
        spine.timeline.validate()
        assert spine.epoch_seconds > flat.epoch_seconds
        # Contention reshuffles time, never bytes.
        assert spine.net_bytes == flat.net_bytes

    def test_spine_contention_appears_on_critical_path(self, graph):
        """With a heavily oversubscribed core the epoch's critical path
        must cross the spine queue (resource blockers, not just deps)."""
        result = make_trainer(
            graph, cluster_platform("spine", oversubscription=16.0),
            "pipeline").train_epoch()
        chain = result.timeline.scheduler.critical_path()
        assert any(task.channel == "net" for task in chain)

    def test_rail_traffic_spreads_over_rails(self, graph):
        platform = cluster_platform("rail")
        result = make_trainer(graph, platform, "pipeline").train_epoch()
        result.timeline.validate()
        rails_used = {
            net_link_parts(task.device, 2, platform.num_rails)[2]
            for task in result.timeline.scheduler.tasks
            if task.channel == "net" and task.device <= NET_DEVICE_BASE
        }
        assert len(rails_used) > 1
        # flat runs keep everything on rail 0 of the same decoding.
        flat = make_trainer(graph, cluster_platform("flat"),
                            "pipeline").train_epoch()
        assert {
            net_link_parts(task.device, 2, 1)[2]
            for task in flat.timeline.scheduler.tasks
            if task.channel == "net" and task.device <= NET_DEVICE_BASE
        } == {0}

    def test_rail_allreduce_shares_the_rail_device_space(self, graph):
        """On a rail fabric every net task — halo and all-reduce alike —
        must use the g-rail link encoding, or ids of different physical
        links collide (a 4-node rail cluster hits this)."""
        platform = cluster_platform("rail", nodes=4, gpus_per_node=2)
        result = make_trainer(graph, platform, "barrier").train_epoch()
        result.timeline.validate()
        ring = [task for task in result.timeline.scheduler.tasks
                if task.label == "all_reduce_ring"]
        assert len(ring) == 4
        decoded = {
            net_link_parts(task.device, 4, platform.num_rails)
            for task in ring
        }
        assert decoded == {(node, (node + 1) % 4, 0) for node in range(4)}

    def test_numerics_identical_across_topologies(self, graph):
        """Topology changes when bytes move, never what they compute."""
        losses = set()
        for platform in (cluster_platform("flat"),
                         cluster_platform("spine", oversubscription=4.0),
                         cluster_platform("rail")):
            losses.add(make_trainer(graph, platform,
                                    "pipeline").train_epoch().loss)
        assert len(losses) == 1

    def test_fleet_shape_is_not_a_config_field(self):
        """The platform alone states nodes/topology/oversubscription: the
        config neither accepts nor round-trips them."""
        assert len(dataclasses.fields(HongTuConfig)) == 14
        for key, value in (("nodes", 2), ("topology", "spine"),
                           ("oversubscription", 2.0)):
            with pytest.raises(ConfigurationError, match="unknown config"):
                HongTuConfig.from_dict({key: value})
            with pytest.raises(TypeError):
                HongTuConfig(**{key: value})

    def test_topology_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkTopology(kind="hypercube")
        with pytest.raises(ConfigurationError):
            NetworkTopology(kind="spine", oversubscription=0.5)
        assert "needs --nodes > 1" in \
            ClusterArgs(topology="spine").usage_error()

    def test_spine_net_tasks_hold_the_shared_core(self, graph):
        """Disjoint directed pairs serialize on the spine: some net task
        must be blocked by a net task on a *different* link device."""
        result = make_trainer(
            graph, cluster_platform("spine", oversubscription=16.0),
            "barrier").train_epoch()
        scheduler = result.timeline.scheduler
        by_id = {task.task_id: task for task in scheduler.tasks}
        crossings = [
            task for task in scheduler.tasks
            if task.channel == "net" and task.blocked_by is not None
            and by_id[task.blocked_by].channel == "net"
            and by_id[task.blocked_by].device != task.device
        ]
        assert crossings, "no cross-link spine contention recorded"
        assert SPINE_RESOURCE == ("net", "spine")


class TestHaloCrossCheck:
    """partition/nodes analyses must match the executor byte for byte."""

    def setup_sweep(self, dedup_inter):
        graph = load_dataset("reddit_sim", scale=0.1, seed=0)
        partition = two_level_partition(graph, 8, 3, seed=0)
        platform = ClusterPlatform(A100_CLUSTER.with_num_nodes(2))
        plan = build_comm_plan(partition, dedup_inter=dedup_inter,
                               dedup_intra=True)
        comm = DedupCommunicator(plan, platform, 4)
        dim = 16
        host = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, dim))
        clock = EventTimeline(barrier_all=True)
        comm.start_sweep(dim)
        outputs = []
        for j in range(plan.num_batches):
            outputs.append(comm.load_batch_forward(j, host, clock))
        return partition, plan, comm, dim, host, clock, outputs

    def test_fetch_bytes_match_halo_volumes(self):
        """The halo_volumes docstring contract: the executor's emitted
        forward fetch bytes equal halo_volumes x row_bytes per node
        pair (full dedup: every staged row lives on its owner)."""
        partition, plan, comm, dim, _host, clock, _out = \
            self.setup_sweep(dedup_inter=True)
        comm.end_sweep()
        row_bytes = dim * comm.bytes_per_scalar
        expected = halo_volumes(partition, 2)
        flows = comm.net_bytes_by_flow(clock)
        measured = flows["halo_fetch"]
        for s in range(2):
            for d in range(2):
                assert measured.get((s, d), 0) == \
                    int(expected[s, d]) * row_bytes
        # Under full dedup no staged row is remotely owned: no load flow.
        assert "halo_load" not in flows
        assert clock.bytes_view()["net"] == int(expected.sum()) * row_bytes

    def test_load_bytes_match_halo_load_volumes(self):
        """Self-staging modes: the executor's halo_load split equals the
        reuse-aware halo_load_volumes, and the backward halo_flush total
        mirrors the load total."""
        partition, plan, comm, dim, host, clock, outputs = \
            self.setup_sweep(dedup_inter=False)
        grads = np.zeros_like(host)
        for j in range(plan.num_batches):
            comm.accumulate_batch_backward(
                j, [out.copy() for out in outputs[j]], grads, clock)
        comm.end_sweep()
        row_bytes = dim * comm.bytes_per_scalar
        expected = halo_load_volumes(partition, 2)
        flows = comm.net_bytes_by_flow(clock)
        measured = flows["halo_load"]
        for s in range(2):
            for d in range(2):
                assert measured.get((s, d), 0) == \
                    int(expected[s, d]) * row_bytes
        flush = flows["halo_flush"]
        assert sum(flush.values()) == sum(measured.values())


class TestSingleClockExecutor:
    """The executor's one clock is an ``EventTimeline``; the per-category
    seconds of a ``barrier_all`` sweep are those the removed bare
    ``TimeBreakdown`` path charged (hex floats pinned from the last
    commit that had it)."""

    PINNED = {
        ("flat", True): {
            "gpu": "0x1.3333333333333p-27", "h2d": "0x1.2762762762762p-24",
            "d2h": "0x1.2762762762762p-24", "d2d": "0x1.2c16c16c16c16p-23",
            "cpu": "0x1.8000000000000p-24", "net": "0x1.5979f6c7c0311p-15",
        },
        ("spine", False): {
            "gpu": "0x1.c7ae147ae147cp-25", "h2d": "0x1.589d89d89d89ep-21",
            "d2h": "0x1.5762762762762p-21", "d2d": "0x0.0p+0",
            "cpu": "0x1.be66666666667p-21", "net": "0x1.2b913c99348e3p-15",
        },
    }

    @pytest.mark.parametrize("kind,dedup_inter", sorted(PINNED))
    def test_category_seconds_match_removed_breakdown_path(
            self, kind, dedup_inter):
        graph = load_dataset("reddit_sim", scale=0.1, seed=0)
        partition = two_level_partition(graph, 8, 3, seed=0)
        platform = cluster_platform(
            kind, oversubscription=4.0 if kind == "spine" else 1.0)
        plan = build_comm_plan(partition, dedup_inter=dedup_inter,
                               dedup_intra=True)
        comm = DedupCommunicator(plan, platform, 4)
        host = np.random.default_rng(0).standard_normal(
            (graph.num_vertices, 16))
        grads = np.zeros_like(host)
        timeline = EventTimeline(barrier_all=True)
        comm.start_sweep(16)
        for j in range(plan.num_batches):
            outputs = comm.load_batch_forward(j, host, timeline)
            comm.accumulate_batch_backward(
                j, [out.copy() for out in outputs], grads, timeline)
        comm.end_sweep()
        breakdown = timeline.breakdown
        assert {channel: float(seconds).hex()
                for channel, seconds in breakdown.seconds.items()} \
            == self.PINNED[(kind, dedup_inter)]
        # barrier_all serializes phases: on flat the makespan is the
        # breakdown total; spine holds additionally serialize messages
        # *inside* a phase, which only the timeline can see.
        if kind == "flat":
            assert timeline.makespan == pytest.approx(breakdown.total)
        else:
            assert timeline.makespan > breakdown.total
        timeline.validate()


class TestNetAwareReorganization:
    def reorganize_pair(self, dataset, scale, chunks, num_gpus=8, nodes=2):
        graph = load_dataset(dataset, scale=scale, seed=3)
        partition = two_level_partition(graph, num_gpus, chunks, seed=0)
        cost_model = CommCostModel.from_platform(MultiGPUPlatform(A100_SERVER))
        cluster_model = ClusterCostModel.from_cluster(
            A100_CLUSTER.with_num_nodes(nodes))
        blind = reorganize_partition(partition, cost_model, 512)
        aware = reorganize_partition(partition, cost_model, 512,
                                     cluster_model=cluster_model,
                                     num_nodes=nodes)
        return partition, blind, aware

    @staticmethod
    def net_rows(partition, nodes=2):
        return (int(halo_volumes(partition, nodes).sum())
                + 2 * int(halo_load_volumes(partition, nodes).sum()))

    def test_strictly_reduces_halo_vs_net_blind(self):
        """Acceptance: net-aware reorganization reduces cross-node halo
        rows below the net-blind heuristic's layout."""
        _orig, blind, aware = self.reorganize_pair("reddit_sim", 0.12, 4)
        assert self.net_rows(aware.partition) < self.net_rows(blind.partition)

    @pytest.mark.parametrize("dataset,scale,chunks", [
        ("reddit_sim", 0.12, 4),
        ("papers_sim", 0.15, 8),
        ("friendster_sim", 0.12, 8),
    ])
    def test_guard_never_worse_than_original_or_blind(self, dataset, scale,
                                                      chunks):
        original, blind, aware = self.reorganize_pair(dataset, scale, chunks)
        rows = self.net_rows(aware.partition)
        assert rows <= self.net_rows(original)
        assert rows <= self.net_rows(blind.partition)

    def test_reports_predicted_reduction(self):
        original, _blind, aware = self.reorganize_pair("reddit_sim", 0.12, 4)
        assert aware.net_aware
        assert aware.net_rows_before == self.net_rows(original)
        assert aware.net_rows_after == self.net_rows(aware.partition)
        assert aware.predicted_net_rows_saved >= 0
        assert aware.net_seconds_after <= aware.net_seconds_before
        assert aware.cost_after <= aware.cost_before

    def test_single_node_path_unchanged(self):
        """Without a cluster model the result carries no net fields and
        the adopted layout matches the original two-phase greedy."""
        graph = load_dataset("reddit_sim", scale=0.1, seed=0)
        partition = two_level_partition(graph, 4, 3, seed=0)
        result = reorganize_partition(partition)
        assert not result.net_aware
        assert result.net_rows_before is None
        assert result.predicted_net_rows_saved is None
        assert sorted(result.phase2_order) == list(range(3))

    def test_net_aware_trainer_runs_and_records_provenance(self, graph):
        trainer = make_trainer(graph, cluster_platform("flat"), "pipeline")
        assert trainer.reorganization is not None
        assert trainer.reorganization.net_aware
        assert trainer.reorganization.net_rows_after is not None
        result = trainer.train_epoch()
        result.timeline.validate()


class TestUtilizationRendering:
    """Satellite regression: no channel row may render above 100%."""

    @staticmethod
    def rendered_percents(text):
        return [int(match) for match in re.findall(r"(\d+)%", text)]

    def test_multi_device_channel_capped_at_100(self):
        """Three saturated net links used to render as 300% (observed:
        516% on train --gpus 4 --nodes 3); normalizing by makespan x
        active devices caps every row at 100%."""
        timeline = EventTimeline()
        for device in (-2, -3, -4):
            timeline.add("net", 1.0, device=device)
        timeline.add("gpu", 1.0, device=0)
        text = render_timeline(timeline)
        percents = self.rendered_percents(text)
        assert percents, "no utilization rows rendered"
        assert all(value <= 100 for value in percents)
        # The saturated channels really do show as fully utilized.
        assert any(value == 100 for value in percents)

    def test_cluster_epoch_renders_within_bounds(self, graph):
        """End-to-end repro of the bug report's configuration shape."""
        result = make_trainer(graph, cluster_platform("flat"),
                              "pipeline").train_epoch()
        text = render_timeline(result.timeline)
        assert all(value <= 100
                   for value in self.rendered_percents(text))

    def test_overflow_flagged_and_clamped(self):
        """If an accounting bug ever produced busy > makespan x devices,
        the row clamps to 100% and carries a '!' flag instead of lying."""

        class Broken:
            scheduler = EventScheduler()  # no task: no device on any channel
            makespan = 1.0

            class breakdown:  # noqa: N801
                total = 1.0

            @staticmethod
            def overlap_saving():
                return 0.0

            @staticmethod
            def busy_view():
                return {"gpu": 2.5}

        text = render_timeline(Broken())
        assert "100%!" in text
        assert "250%" not in text

    @staticmethod
    def report_platform(kind):
        if kind == "hetero":
            cluster = A100_CLUSTER.with_num_nodes(3).with_node_specs(
                (A100_SERVER, V100_SERVER, A100_SERVER))
            return ClusterPlatform(cluster, gpus_per_node=2)
        if kind == "single":
            return MultiGPUPlatform(A100_SERVER, num_gpus=2)
        return cluster_platform(
            kind, nodes=3, gpus_per_node=2,
            oversubscription=2.0 if kind == "spine" else 1.0)

    @pytest.mark.parametrize("kind", ["single", "flat", "spine", "rail",
                                      "hetero"])
    def test_array_reports_equal_the_per_task_loops(self, graph, kind):
        """The tables aggregate the scheduler's columns; the per-``Task``
        loops they replaced (``report_reference``) must render the same
        bytes — and the array path must materialize no ``Task``."""
        platform = self.report_platform(kind)
        timeline = make_trainer(graph, platform).train_epoch().timeline
        # host work and an off-link device on the net channel: the two
        # corners of the node attribution
        timeline.add("cpu", 0.25)
        timeline.add("net", 0.5, device=1)
        timeline.scheduler._task_cache.clear()
        timeline.scheduler._tasks_view.clear()
        rendered = (render_timeline(timeline, title="channels", width=24),
                    render_node_utilization(timeline, platform, title="n"))
        assert len(timeline.scheduler._task_cache) == 0
        assert rendered == (
            reference_render_timeline(timeline, title="channels", width=24),
            reference_render_node_utilization(timeline, platform, title="n"))
        assert len(timeline.scheduler._task_cache) == \
            timeline.scheduler.num_tasks  # the reference did materialize

    def test_columns_are_read_only_views(self):
        timeline = EventTimeline()
        timeline.submit_batch("gpu", [1.0, 2.0], devices=[3, 0])
        timeline.add("net", 0.5, device=-4)
        device, channel, seconds, nbytes, phase, used = \
            timeline.scheduler.columns()
        assert device.tolist() == [3, 0, -4]
        assert [CHANNELS[c] for c in channel] == ["gpu", "gpu", "net"]
        assert seconds.tolist() == [1.0, 2.0, 0.5]
        assert nbytes.tolist() == [0, 0, 0]
        assert phase.tolist() == [0, 0, 1]
        assert [ids.tolist() for ids in used] == \
            [[0, 3], [], [], [], [], [-4]]
        with pytest.raises(ValueError):
            seconds[0] = 9.0
        timeline.add("gpu", 1.0, device=3)  # the scheduler still writes
        assert timeline.scheduler.columns().seconds.tolist()[-1] == 1.0

    def test_node_utilization_decodes_rail_links(self, graph):
        platform = cluster_platform("rail")
        result = make_trainer(graph, platform, "pipeline").train_epoch()
        text = render_node_utilization(result.timeline, platform)
        assert "node0" in text and "node1" in text
