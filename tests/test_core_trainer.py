"""Unit tests for the HongTu trainer, config, and memory model."""

import numpy as np
import pytest

from repro.core import (
    HongTuConfig,
    HongTuTrainer,
    estimate_training_memory,
)
from repro.errors import ConfigurationError, DeviceOutOfMemoryError
from repro.gnn import build_model
from repro.graph import load_dataset, PAPER_PROFILES
from repro.hardware import A100_SERVER, GB, MultiGPUPlatform


@pytest.fixture(scope="module")
def graph():
    return load_dataset("products_sim", scale=0.1, seed=2)


def make_trainer(graph, arch="gcn", platform=None, **config_kwargs):
    model = build_model(
        arch, [graph.feature_dim, 16, graph.num_classes],
        np.random.default_rng(0),
    )
    platform = platform or MultiGPUPlatform(A100_SERVER)
    return HongTuTrainer(graph, model, platform,
                         HongTuConfig(**config_kwargs))


class TestConfig:
    def test_defaults(self):
        config = HongTuConfig()
        assert config.comm_mode == "hongtu"
        assert config.dedup_flags == (True, True)

    @pytest.mark.parametrize("mode,flags", [
        ("baseline", (False, False)), ("p2p", (True, False)),
        ("ru", (False, True)), ("hongtu", (True, True)),
    ])
    def test_dedup_flags(self, mode, flags):
        assert HongTuConfig(comm_mode=mode).dedup_flags == flags

    def test_invalid_mode(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(comm_mode="telepathy")

    def test_invalid_policy(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(intermediate_policy="wishful")

    def test_invalid_chunks(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(num_chunks=0)

    def test_invalid_bytes(self):
        with pytest.raises(ConfigurationError):
            HongTuConfig(bytes_per_scalar=0)


class TestTrainerLifecycle:
    def test_requires_features(self):
        from repro.graph import Graph
        bare = Graph(np.array([0]), np.array([1]), 2)
        model = build_model("gcn", [4, 2], np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            HongTuTrainer(bare, model, MultiGPUPlatform(A100_SERVER),
                          HongTuConfig())

    def test_dim_mismatch(self, graph):
        model = build_model("gcn", [999, 2], np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            HongTuTrainer(graph, model, MultiGPUPlatform(A100_SERVER),
                          HongTuConfig())

    def test_loss_decreases(self, graph):
        trainer = make_trainer(graph, num_chunks=2)
        losses = [trainer.train_epoch().loss for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_accuracy_improves_over_random(self, graph):
        trainer = make_trainer(graph, num_chunks=2)
        trainer.train(15)
        metrics = trainer.evaluate()
        random_guess = 1.0 / graph.num_classes
        assert metrics["val_accuracy"] > 2 * random_guess

    def test_epoch_result_fields(self, graph):
        result = make_trainer(graph).train_epoch()
        assert result.epoch == 1
        assert result.epoch_seconds > 0
        assert result.peak_gpu_bytes > 0
        assert result.host_bytes > 0
        assert result.h2d_bytes > 0

    def test_d2d_traffic_only_with_p2p(self, graph):
        dedup = make_trainer(graph, comm_mode="hongtu").train_epoch()
        local = make_trainer(graph, comm_mode="baseline").train_epoch()
        assert dedup.d2d_bytes > 0
        # Baseline still all-reduces parameters, but moves no neighbor data
        # between GPUs.
        assert local.d2d_bytes == 0

    def test_evaluate_keys(self, graph):
        metrics = make_trainer(graph).evaluate()
        assert set(metrics) == {"train_accuracy", "val_accuracy",
                                "test_accuracy"}

    def test_train_returns_per_epoch(self, graph):
        results = make_trainer(graph).train(3)
        assert [result.epoch for result in results] == [1, 2, 3]

    def test_missing_checkpoint_raises(self, graph):
        trainer = make_trainer(graph)
        with pytest.raises(ConfigurationError):
            trainer._take_checkpoint(0, 0, 0)

    def test_gat_runs_with_recompute_only(self, graph):
        trainer = make_trainer(graph, arch="gat",
                               intermediate_policy="hybrid")
        result = trainer.train_epoch()
        # GAT is never cacheable, so no checkpoints are stored.
        assert not trainer._checkpoints
        assert result.loss > 0

    def test_gcn_hybrid_stores_checkpoints(self, graph):
        trainer = make_trainer(graph, arch="gcn", num_chunks=2,
                               intermediate_policy="hybrid")
        trainer.train_epoch()
        # One checkpoint per (layer, gpu, chunk).
        assert len(trainer._checkpoints) == 2 * 4 * 2

    def test_pure_recompute_stores_nothing(self, graph):
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="recompute")
        trainer.train_epoch()
        assert not trainer._checkpoints

    def test_evaluate_stores_no_checkpoints(self, graph):
        """Inference has no backward pass: the hybrid policy must not
        checkpoint aggregates (nor charge host memory for them)."""
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="hybrid")
        host_before = trainer.platform.host.in_use
        trainer.evaluate()
        assert not trainer._checkpoints
        assert trainer.platform.host.in_use == host_before
        assert trainer.platform.host.by_tag.get("aggregate_cache", 0) == 0

    def test_evaluate_writes_no_checkpoint_d2h(self, graph):
        """Eval writeback volume is outputs only — no aggregate copies."""
        train_eval = make_trainer(graph, num_chunks=2,
                                  intermediate_policy="hybrid")
        recompute = make_trainer(graph, num_chunks=2,
                                 intermediate_policy="recompute")
        eval_d2h = []
        for trainer in (train_eval, recompute):
            timelines = []
            new_timeline = trainer._new_timeline
            trainer._new_timeline = \
                lambda: timelines.append(new_timeline()) or timelines[-1]
            trainer.evaluate()
            eval_d2h.append(timelines[0].bytes_view()["d2h"])
        assert eval_d2h[0] == eval_d2h[1] > 0

    def test_checkpoint_allocations_reused_across_epochs(self, graph):
        """Re-storing a checkpoint must not grow the host accounting."""
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="hybrid")
        trainer.train_epoch()
        cache_after_first = trainer.platform.host.by_tag["aggregate_cache"]
        assert cache_after_first > 0
        for _ in range(3):
            trainer.train_epoch()
        assert trainer.platform.host.by_tag["aggregate_cache"] == \
            cache_after_first
        assert trainer._checkpoint_bytes == cache_after_first

    def test_free_checkpoints_releases_host_memory(self, graph):
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="hybrid")
        trainer.train_epoch()
        assert trainer.platform.host.by_tag["aggregate_cache"] > 0
        trainer.free_checkpoints()
        assert trainer.platform.host.by_tag["aggregate_cache"] == 0
        assert not trainer._checkpoints
        with pytest.raises(ConfigurationError):
            trainer._take_checkpoint(0, 0, 0)


class TestMemoryBehavior:
    def test_oom_on_tiny_gpu(self, graph):
        tiny = MultiGPUPlatform(A100_SERVER.with_gpu_memory(1024))
        with pytest.raises(DeviceOutOfMemoryError):
            make_trainer(graph, platform=tiny)

    def test_more_chunks_lower_peak_memory(self):
        graph = load_dataset("friendster_sim", scale=0.15, seed=2)
        peaks = {}
        for chunks in (1, 4, 16):
            trainer = make_trainer(graph, num_chunks=chunks)
            trainer.train_epoch()
            peaks[chunks] = trainer.platform.peak_gpu_memory()
        assert peaks[16] < peaks[4] < peaks[1]

    def test_host_holds_vertex_data(self, graph):
        trainer = make_trainer(graph)
        assert trainer.platform.host.in_use > 0


class TestCommunicationBehavior:
    def test_dedup_reduces_h2d(self):
        graph = load_dataset("papers_sim", scale=0.15, seed=2)
        baseline = make_trainer(graph, comm_mode="baseline",
                                num_chunks=6, reorganize=False)
        dedup = make_trainer(graph, comm_mode="hongtu",
                             num_chunks=6, reorganize=False)
        baseline_bytes = baseline.train_epoch().h2d_bytes
        dedup_bytes = dedup.train_epoch().h2d_bytes
        assert dedup_bytes < baseline_bytes

    def test_dedup_is_faster_on_nvlink(self):
        graph = load_dataset("papers_sim", scale=0.15, seed=2)
        baseline = make_trainer(graph, comm_mode="baseline",
                                num_chunks=6, reorganize=False)
        dedup = make_trainer(graph, comm_mode="hongtu",
                             num_chunks=6, reorganize=False)
        assert dedup.train_epoch().epoch_seconds < \
            baseline.train_epoch().epoch_seconds

    def test_hybrid_moves_less_than_recompute_for_gcn(self):
        """§4.2's O(|V|) vs O(α|V|) comparison: caching the aggregate beats
        re-transferring the neighbor set when transfers are not
        deduplicated (the setting of the paper's argument)."""
        graph = load_dataset("papers_sim", scale=0.15, seed=2)
        hybrid = make_trainer(graph, intermediate_policy="hybrid",
                              comm_mode="baseline", num_chunks=6)
        recompute = make_trainer(graph, intermediate_policy="recompute",
                                 comm_mode="baseline", num_chunks=6)
        assert hybrid.train_epoch().h2d_bytes < \
            recompute.train_epoch().h2d_bytes

    def test_hybrid_is_not_slower_than_recompute(self):
        """Even with dedup active, skipping the O(|E|) re-aggregation keeps
        hybrid at least as fast as pure recomputation."""
        graph = load_dataset("papers_sim", scale=0.15, seed=2)
        hybrid = make_trainer(graph, intermediate_policy="hybrid",
                              num_chunks=6)
        recompute = make_trainer(graph, intermediate_policy="recompute",
                                 num_chunks=6)
        assert hybrid.train_epoch().epoch_seconds <= \
            recompute.train_epoch().epoch_seconds


class TestMemoryModel:
    def test_table1_it2004_magnitudes(self):
        profile = PAPER_PROFILES["it-2004"]
        estimate = estimate_training_memory(
            profile.num_vertices, profile.num_edges,
            [256, 128, 128, 64], arch="gcn",
        )
        gb = estimate.as_gb()
        # Paper: 12.8 / 177.2 / 108.3 GB — shapes within ~40 %.
        assert 8 < gb["topology_gb"] < 20
        assert 120 < gb["vertex_data_gb"] < 250
        assert 60 < gb["intermediate_gb"] < 180

    def test_table1_ogbn_paper_magnitudes(self):
        profile = PAPER_PROFILES["ogbn-paper"]
        estimate = estimate_training_memory(
            profile.num_vertices, profile.num_edges,
            [200, 128, 128, 172], arch="gcn",
        )
        gb = estimate.as_gb()
        # Paper: 18.0 / 519.4 / 425.3 GB.
        assert 12 < gb["topology_gb"] < 28
        assert 350 < gb["vertex_data_gb"] < 700
        assert 250 < gb["intermediate_gb"] < 600

    def test_does_not_fit_in_four_a100(self):
        """Table 1's point: billion-scale training exceeds 4x80 GB."""
        profile = PAPER_PROFILES["friendster"]
        estimate = estimate_training_memory(
            profile.num_vertices, profile.num_edges,
            [256, 128, 128, 64], arch="gcn",
        )
        assert estimate.total_bytes > 4 * 80 * GB

    def test_gat_intermediate_larger_than_gcn(self):
        profile = PAPER_PROFILES["it-2004"]
        gcn = estimate_training_memory(
            profile.num_vertices, profile.num_edges,
            [256, 128, 128, 64], arch="gcn",
        )
        gat = estimate_training_memory(
            profile.num_vertices, profile.num_edges,
            [256, 128, 128, 64], arch="gat",
        )
        assert gat.intermediate_bytes > 2 * gcn.intermediate_bytes

    def test_monotone_in_dims(self):
        small = estimate_training_memory(1000, 10000, [32, 16, 8])
        large = estimate_training_memory(1000, 10000, [64, 32, 8])
        assert large.total_bytes > small.total_bytes
