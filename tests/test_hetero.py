"""Tests for the heterogeneous-fleet capability profiles.

Three contracts guard the refactor:

* **Degeneracy** — a cluster whose ``node_specs`` are N copies of the
  same profile exercises the heterogeneous code path (per-node rate
  arrays, per-link pricing, compute-aware placement, per-node host
  budgets) yet must reproduce the homogeneous cluster bit for bit:
  epoch makespan, per-flow network bytes and the critical path, under
  both the scheduler's array step and the one-task-at-a-time oracle.
* **Validation** — malformed fleet configurations (empty profile lists,
  count mismatches, non-positive rates, GPU-count mismatches, bogus
  cache budgets) raise :class:`ConfigurationError` with actionable
  messages instead of surfacing as NaNs or index errors mid-epoch.
* **Mixed-fleet sanity** — on a genuinely mixed fleet the slow node's
  kernels take proportionally longer, collectives run at the slowest
  member's rate, per-link halo exchanges price at the narrower NIC, and
  the bounded serving cache evicts in LRU order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import HongTuConfig, HongTuTrainer
from repro.errors import ConfigurationError
from repro.gnn import build_model
from repro.graph import load_dataset
from repro.hardware import (
    A100_CLUSTER,
    A100_SERVER,
    NODE_SPECS,
    V100_SERVER,
    ClusterPlatform,
    MultiGPUPlatform,
)
from repro.serving import ImmediatePolicy, PoissonArrivals
from scheduler_oracle import task_rows


NODES = 3
GPUS_PER_NODE = 2


def make_cluster(node_specs=None):
    cluster = A100_CLUSTER.with_num_nodes(NODES)
    if node_specs is not None:
        cluster = cluster.with_node_specs(node_specs)
    return cluster


def make_trainer(cluster, overlap="pipeline", placement="search",
                 scale=0.12, seed=0):
    graph = load_dataset("reddit_sim", scale=scale, seed=3)
    dims = [graph.feature_dim, 16, graph.num_classes]
    model = build_model("gcn", dims, np.random.default_rng(seed))
    platform = ClusterPlatform(cluster, gpus_per_node=GPUS_PER_NODE)
    config = HongTuConfig(num_chunks=2, overlap=overlap,
                          placement=placement, seed=0)
    return HongTuTrainer(graph, model, platform, config)


def epoch_fingerprint(cluster, overlap):
    """(makespan, per-flow net bytes, critical path) of one epoch."""
    trainer = make_trainer(cluster, overlap=overlap)
    result = trainer.train_epoch()
    flows = trainer._comm_values.net_bytes_by_flow(result.timeline)
    rows = task_rows(result.timeline.scheduler)
    path = [(rows[i].device, rows[i].channel, rows[i].seconds)
            for i in result.timeline.scheduler.critical_path().tolist()]
    return result, flows, path


# ---------------------------------------------------------------------------
# degeneracy: N identical profiles == homogeneous, bit for bit
# ---------------------------------------------------------------------------
class TestIdenticalProfilesDegeneracy:
    @pytest.mark.parametrize("overlap", ["barrier", "pipeline"])
    @pytest.mark.parametrize("oracle", [False, True],
                             ids=["batched", "scalar"])
    def test_identical_specs_bit_identical(self, overlap, oracle,
                                           install_scheduler_oracle):
        """node_specs=(A100,)*N runs the hetero path (rate arrays,
        compute-aware search, per-node budgets) yet must be float-exact
        against the spec-free homogeneous cluster, under the array step
        and under the scalar oracle."""
        node = A100_SERVER.with_num_gpus(GPUS_PER_NODE)
        homo = make_cluster()
        hetero = make_cluster((node,) * NODES)
        assert not homo.heterogeneous
        assert hetero.heterogeneous
        if oracle:
            install_scheduler_oracle()
        base, base_flows, base_path = epoch_fingerprint(homo, overlap)
        same, same_flows, same_path = epoch_fingerprint(hetero, overlap)
        assert same.epoch_seconds == base.epoch_seconds
        assert same.loss == base.loss
        assert same_flows == base_flows
        assert same_path == base_path

    def test_identical_specs_price_identically(self):
        node = A100_SERVER.with_num_gpus(GPUS_PER_NODE)
        base = ClusterPlatform(make_cluster())
        same = ClusterPlatform(make_cluster((node,) * NODES))
        assert same.heterogeneous
        assert same.collective_bandwidth == base.collective_bandwidth
        for src in range(NODES):
            for dst in range(NODES):
                assert same.link_rate(src, dst) == base.link_rate()
        assert same.allreduce_seconds(1 << 20, "tree") == \
            base.allreduce_seconds(1 << 20, "tree")
        assert same.halo_volume_seconds(1 << 20) == \
            base.halo_volume_seconds(1 << 20)


# ---------------------------------------------------------------------------
# validation: malformed fleets fail loudly at construction
# ---------------------------------------------------------------------------
class TestFleetValidation:
    def test_empty_node_specs_rejected(self):
        with pytest.raises(ConfigurationError, match="node_specs is empty"):
            A100_CLUSTER.with_node_specs(())

    def test_count_mismatch_rejected(self):
        import dataclasses
        with pytest.raises(ConfigurationError,
                           match=r"lists 2 profile\(s\)"):
            dataclasses.replace(
                A100_CLUSTER.with_num_nodes(3),
                node_specs=(A100_SERVER, A100_SERVER),
            )

    def test_non_positive_gpu_rate_rejected(self):
        import dataclasses
        broken_gpu = dataclasses.replace(A100_SERVER.gpu, compute_flops=0.0)
        broken = dataclasses.replace(A100_SERVER, gpu=broken_gpu)
        with pytest.raises(ConfigurationError,
                           match="GPU rates must be positive"):
            make_cluster((A100_SERVER, A100_SERVER, broken))

    def test_non_positive_transfer_rate_rejected(self):
        import dataclasses
        broken = dataclasses.replace(A100_SERVER, pcie_bandwidth=-1.0)
        with pytest.raises(ConfigurationError,
                           match="pcie_bandwidth must be positive"):
            make_cluster((broken, A100_SERVER, A100_SERVER))

    def test_non_positive_nic_rejected(self):
        import dataclasses
        broken = dataclasses.replace(A100_SERVER, nic_bandwidth=0.0)
        with pytest.raises(ConfigurationError,
                           match="nic_bandwidth must be positive"):
            make_cluster((broken, A100_SERVER, A100_SERVER))

    @pytest.mark.parametrize("field, value, match", [
        ("pcie_bandwidth", 0, "pcie_bandwidth must be positive"),
        ("cpu_accumulate_bandwidth", -1.0, "must be positive"),
        ("gpu.compute_flops", -1.0, "GPU rates must be positive"),
        ("gpu.memory_bandwidth", 0.0, "GPU rates must be positive"),
        ("host_memory_bytes", 0, "memory capacities must be positive"),
    ])
    def test_base_profile_validated_where_rates_are_built(self, field,
                                                          value, match):
        """The base ``node`` profile — every node of a homogeneous fleet
        and a wrapped standalone server — used to skip validation: a
        zero PCIe rate died with ZeroDivisionError (server) or priced
        waves at inf (cluster), a negative flop rate gave negative
        kernel seconds."""
        import dataclasses
        if field.startswith("gpu."):
            broken = dataclasses.replace(A100_SERVER, gpu=dataclasses.replace(
                A100_SERVER.gpu, **{field[4:]: value}))
        else:
            broken = dataclasses.replace(A100_SERVER, **{field: value})
        with pytest.raises(ConfigurationError, match=match):
            MultiGPUPlatform(broken)
        with pytest.raises(ConfigurationError, match=match):
            ClusterPlatform(A100_CLUSTER.with_node(broken))

    def test_gpu_count_mismatch_rejected(self):
        """Profiles exposing different GPU counts cannot share one
        placement grid."""
        with pytest.raises(ConfigurationError, match="exposes"):
            make_cluster((
                A100_SERVER.with_num_gpus(2),
                A100_SERVER.with_num_gpus(4),
                A100_SERVER.with_num_gpus(2),
            ))

    def test_bad_cache_budget_rejected(self):
        trainer = make_trainer(make_cluster(), scale=0.1)
        trainer.train_epoch()
        with pytest.raises(ConfigurationError,
                           match="cache_budget_bytes must be positive"):
            trainer.serving_engine(cache_budget_bytes=0)

    def test_named_profiles_cover_the_fleet_cli(self):
        """The CLI's --node-spec registry stays in sync with the specs."""
        assert set(NODE_SPECS) == {"a100", "a100-pcie", "v100"}
        for spec in NODE_SPECS.values():
            make_cluster((spec.with_num_gpus(GPUS_PER_NODE),) * NODES)


# ---------------------------------------------------------------------------
# mixed fleet: the slow node is actually slower
# ---------------------------------------------------------------------------
class TestMixedFleet:
    def make_mixed(self):
        a100 = A100_SERVER.with_num_gpus(GPUS_PER_NODE)
        v100 = V100_SERVER.with_num_gpus(GPUS_PER_NODE)
        return make_cluster((a100, a100, v100))

    def test_v100_kernels_price_slower(self):
        cluster = self.make_mixed()
        platform = ClusterPlatform(cluster, gpus_per_node=GPUS_PER_NODE)
        flops = 1e12
        fast = platform.gpu_compute_seconds(flops, devices=0)
        slow = platform.gpu_compute_seconds(
            flops, devices=(NODES - 1) * GPUS_PER_NODE)
        ratio = (A100_SERVER.gpu.compute_flops
                 / V100_SERVER.gpu.compute_flops)
        assert slow == pytest.approx(fast * ratio)

    def test_collectives_run_at_slowest_member(self):
        platform = ClusterPlatform(self.make_mixed())
        nic = platform.node_nic_rates()
        assert platform.collective_bandwidth == pytest.approx(nic.min())
        # per-link: an A100<->V100 exchange prices at the V100's NIC
        assert platform.link_rate(0, 2) == \
            pytest.approx(min(nic[0], nic[2]))
        assert platform.link_rate(0, 1) >= platform.link_rate(0, 2)

    def test_mixed_epoch_slower_than_all_fast(self):
        """Replacing one node with a slower profile cannot speed the
        fleet up: slowest-member collectives + slower kernels."""
        fast = make_trainer(make_cluster(), placement="block")
        mixed = make_trainer(self.make_mixed(), placement="block")
        assert mixed.train_epoch().epoch_seconds > \
            fast.train_epoch().epoch_seconds

    def test_capability_aware_search_builds_compute_matrix(self):
        trainer = make_trainer(self.make_mixed(), placement="search")
        trainer.train_epoch()
        rows = trainer.fleet.compute_rows
        assert rows is not None
        assert rows.shape == (NODES * GPUS_PER_NODE, NODES)
        # V100 column (half the flop rate) costs >= the A100 columns
        assert (rows[:, NODES - 1] >= rows[:, 0]).all()
        assert rows.sum() > 0


# ---------------------------------------------------------------------------
# bounded serving cache: LRU eviction under a byte budget
# ---------------------------------------------------------------------------
class TestBoundedServingCache:
    def serve_once(self, budget):
        trainer = make_trainer(make_cluster(), scale=0.1,
                               placement="block")
        trainer.train_epoch()
        engine = trainer.serving_engine(cache_budget_bytes=budget)
        result = engine.serve(
            PoissonArrivals(rate=2000.0, duration=0.05, seed=5),
            ImmediatePolicy(),
        )
        return engine, result

    def test_unbounded_cache_never_evicts(self):
        engine, result = self.serve_once(None)
        assert engine.cache_budget_bytes is None
        assert engine.evictions == 0
        assert result.cache_evictions == 0

    def test_budget_is_enforced(self):
        unbounded, _ = self.serve_once(None)
        assert unbounded.cache_bytes > 0
        budget = max(1, unbounded.cache_bytes // 2)
        engine, result = self.serve_once(budget)
        assert engine.cache_bytes <= budget
        assert result.cache_evictions > 0
        # lifetime counter >= this run's delta (warming may also evict)
        assert engine.evictions >= result.cache_evictions

    def test_tiny_budget_caches_nothing_but_serves(self):
        engine, result = self.serve_once(1)
        assert engine.cache_bytes == 0
        assert result.num_requests > 0
        assert result.cache_hit_rate == 0.0

    def test_lru_evicts_coldest_pair(self):
        """A recently touched pair survives insert pressure; the
        least-recently-used one is dropped first."""
        trainer = make_trainer(make_cluster(), scale=0.1,
                               placement="block")
        trainer.train_epoch()
        probe = trainer.serving_engine()
        probe.warm_from_checkpoints()
        pairs = list(probe._cache)
        assert len(pairs) >= 3
        sizes = dict(probe._cache)  # a warm pair's value is its footprint
        # hot + cold fit exactly; newcomer is no bigger than cold, so
        # evicting cold alone makes room and hot must survive
        ordered = sorted(pairs, key=lambda pair: sizes[pair])
        newcomer, hot, cold = ordered[0], ordered[1], ordered[-1]
        engine = trainer.serving_engine(
            cache_budget_bytes=sizes[hot] + sizes[cold])
        engine.clear_cache()  # construction pre-warms; start empty
        base = engine.evictions
        engine._cache_insert(*hot)
        engine._cache_insert(*cold)
        engine._cache_insert(*hot)  # touch: hot is now most recent
        assert engine.evictions == base
        engine._cache_insert(*newcomer)
        assert cold not in engine._cache
        assert hot in engine._cache
        assert newcomer in engine._cache
        assert engine.evictions == base + 1
        assert engine.cache_bytes <= sizes[hot] + sizes[cold]
