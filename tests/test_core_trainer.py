"""Unit tests for the HongTu trainer, config, and memory model."""

import numpy as np
import pytest

from repro import quick_trainer
from repro.comm import DedupCommunicator
from repro.core import (
    HongTuConfig,
    HongTuTrainer,
    estimate_training_memory,
)
from repro.errors import ConfigurationError, DeviceOutOfMemoryError
from repro.gnn import GCNLayer, GNNModel, build_model
from repro.graph import load_dataset, PAPER_PROFILES
from repro.hardware import A100_SERVER, GB, MultiGPUPlatform
from repro.hardware.clock import EventTimeline
from repro.runtime.scheduler import WaveRecorder


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

    # Each used to fail later, elsewhere, or not at all: 2.5 and NaN
    # chunks raised a TypeError from partitioning and True trained one
    # chunk; a 1.5 or NaN imbalance reached the placement search; "no"
    # ran the reorganization.
    MALFORMED = [
        ("num_chunks", 2.5), ("num_chunks", float("nan")),
        ("num_chunks", True), ("num_chunks", "4"),
        ("max_imbalance", 1.5), ("max_imbalance", float("nan")),
        ("max_imbalance", True), ("max_imbalance", -1),
        ("reorganize", "no"), ("reorganize", 0), ("reorganize", None),
        ("elastic", 0), ("elastic", "yes"), ("elastic", 1.0),
        # -1 used to be accepted and fail in partitioning; 2.5 too
        ("seed", -1), ("seed", 2.5), ("seed", True),
    ]

    @pytest.mark.parametrize("field,value", MALFORMED)
    def test_malformed_field_is_named(self, field, value):
        valid = dict(placement="search")  # max_imbalance > 0 needs it
        with pytest.raises(ConfigurationError, match=field):
            HongTuConfig(**valid, **{field: value})

    def test_integer_likes_still_accepted(self):
        config = HongTuConfig(num_chunks=np.int64(3), max_imbalance=2,
                              placement="search",
                              reorganize=False, elastic=False)
        assert HongTuConfig(**config.to_dict()) == config


class TestModelDtype:
    """The trainer computes in its model's one floating dtype."""

    @staticmethod
    def model(graph, dtype=np.float64):
        return build_model("gcn", [graph.feature_dim, 16, graph.num_classes],
                           np.random.default_rng(0), dtype=dtype)

    def test_mixed_layers_are_refused(self, graph):
        rng = np.random.default_rng(0)
        model = GNNModel([
            GCNLayer(graph.feature_dim, 16, rng, dtype=np.float32),
            GCNLayer(16, graph.num_classes, rng, activation=None),
        ])
        with pytest.raises(ConfigurationError,
                           match=r"\['float32', 'float64'\]"):
            HongTuTrainer(graph, model, MultiGPUPlatform(A100_SERVER),
                          HongTuConfig())

    def test_integer_parameters_are_refused(self, graph):
        model = self.model(graph)
        for parameter in model.parameters():
            parameter.data = parameter.data.astype(np.int64)
        with pytest.raises(ConfigurationError, match=r"\['int64'\]"):
            HongTuTrainer(graph, model, MultiGPUPlatform(A100_SERVER),
                          HongTuConfig())

    def test_parameterless_model_is_refused(self, graph):
        model = self.model(graph)
        model.parameters = list
        with pytest.raises(ConfigurationError, match=r"found \[\]"):
            HongTuTrainer(graph, model, MultiGPUPlatform(A100_SERVER),
                          HongTuConfig())

    #: 3 epochs of the float32 GCN below, as the former
    #: ``HongTuConfig(dtype=np.float32)`` computed them over the same model
    FLOAT32_LOSSES = [2.977287993235232, 2.9112399043941863,
                      2.4541037096319704]

    @pytest.mark.parametrize("policy", ["hybrid", "recompute"])
    def test_float32_model_trains_in_float32(self, monkeypatch, policy):
        graph = load_dataset("reddit_sim", scale=0.1, seed=1)
        swept = []
        start_sweep = DedupCommunicator.start_sweep

        def spy(comm, dim, dtype=np.float64, double_buffer=False):
            start_sweep(comm, dim, dtype, double_buffer)
            swept.append(comm._buffers.dtype)

        monkeypatch.setattr(DedupCommunicator, "start_sweep", spy)
        trainer = HongTuTrainer(
            graph, self.model(graph, np.float32),
            MultiGPUPlatform(A100_SERVER),
            HongTuConfig(overlap="pipeline", intermediate_policy=policy))
        assert trainer.dtype == np.float32
        losses = [trainer.train_epoch().loss for _ in range(3)]
        assert losses == self.FLOAT32_LOSSES
        host_arrays = trainer._h + list(trainer._grad_h.values())
        assert {array.dtype for array in host_arrays} == \
            {np.dtype(np.float32)}
        # ∇h⁰ is never read, so it is never allocated
        assert sorted(trainer._grad_h) == list(range(1, len(trainer._h)))
        assert swept and set(swept) == {np.dtype(np.float32)}
        assert all(p.data.dtype == np.float32
                   for p in trainer.model.parameters())


class TestTrainerLifecycle:
    def test_quick_trainer_runs_the_readme_quickstart(self):
        """``README.md``'s quickstart at a small scale: a GCN of the
        stand-in's widths on one A100 server, four chunks per GPU."""
        trainer = quick_trainer("reddit_sim", arch="gcn", scale=0.05)
        assert trainer.config == HongTuConfig(num_chunks=4, seed=0)
        assert trainer.model.dims == [trainer.graph.feature_dim, 64,
                                      trainer.graph.num_classes]
        losses = [trainer.train_epoch().loss for _ in range(2)]
        assert np.isfinite(losses).all()
        accuracies = trainer.evaluate()
        assert accuracies and all(0.0 <= a <= 1.0
                                  for a in accuracies.values())
        # a value of (dataset, arch, scale, seed): a second one repeats it
        again = quick_trainer("reddit_sim", arch="gcn", scale=0.05)
        assert [again.train_epoch().loss for _ in range(2)] == losses

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
            trainer._take_checkpoint(0, 0)

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
        # One checkpoint per (layer, batch): the batch's AGGREGATE product.
        assert len(trainer._checkpoints) == 2 * 2
        assert trainer.checkpointed_columns() == set(trainer._checkpoints)

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
        host_before = trainer.platform.host_pool(0).in_use
        trainer.evaluate()
        assert not trainer._checkpoints
        assert trainer.platform.host_pool(0).in_use == host_before
        assert trainer.platform.host_pool(0).by_tag.get("aggregate_cache", 0) == 0

    def test_evaluate_writes_no_checkpoint_d2h(self, graph, monkeypatch):
        """Evaluation is not timed: it emits no wave at all, so no D2H
        volume — aggregate copies or outputs — is charged."""
        trainers = [make_trainer(graph, num_chunks=2,
                                 intermediate_policy=policy)
                    for policy in ("hybrid", "recompute")]

        def untimed(*args, **kwargs):
            raise AssertionError("evaluate() emitted a wave")

        for owner in (EventTimeline, WaveRecorder):
            monkeypatch.setattr(owner, "submit_batch", untimed)
        for trainer in trainers:
            trainer.evaluate()

    def test_checkpoint_allocations_reused_across_epochs(self, graph):
        """Re-storing a checkpoint must not grow the host accounting."""
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="hybrid")
        trainer.train_epoch()
        cache_after_first = trainer.platform.host_pool(0).by_tag["aggregate_cache"]
        assert cache_after_first > 0
        for _ in range(3):
            trainer.train_epoch()
        assert trainer.platform.host_pool(0).by_tag["aggregate_cache"] == \
            cache_after_first
        assert sum(allocation.nbytes
                   for _, allocations in trainer._checkpoints.values()
                   for allocation in allocations) == cache_after_first

    def test_free_checkpoints_releases_host_memory(self, graph):
        trainer = make_trainer(graph, num_chunks=2,
                               intermediate_policy="hybrid")
        trainer.train_epoch()
        assert trainer.platform.host_pool(0).by_tag["aggregate_cache"] > 0
        trainer.free_checkpoints()
        assert trainer.platform.host_pool(0).by_tag["aggregate_cache"] == 0
        assert not trainer._checkpoints
        with pytest.raises(ConfigurationError):
            trainer._take_checkpoint(0, 0)


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

    @pytest.mark.parametrize("slack", [70_000, 1],
                             ids=["workspace", "transition-buffer"])
    def test_oom_inside_a_sweep_leaves_the_trainer_usable(self, slack):
        """GPU 1 fits its transition buffer but not the forward workspace
        (``workspace``), or not even the buffer, after GPU 0 reserved
        its own (``transition-buffer``). Either way the raise leaves no
        sweep active and no byte reserved, and once the capacity is
        restored the trainer trains and evaluates again."""
        graph = load_dataset("reddit_sim", scale=0.05, seed=0)
        platform = MultiGPUPlatform(A100_SERVER)
        assert platform.num_gpus == 4
        trainer = make_trainer(graph, arch="gat", platform=platform)
        pools = [gpu.memory for gpu in platform.gpus]
        in_use = [pool.in_use for pool in pools]
        capacity = pools[1].capacity
        pools[1].capacity = pools[1].in_use + slack
        with pytest.raises(DeviceOutOfMemoryError) as error:
            trainer.train_epoch()
        assert error.value.device == "gpu1"
        assert [pool.by_tag.get("transition_buffer", 0)
                for pool in pools] == [0] * 4
        assert [pool.in_use for pool in pools] == in_use
        pools[1].capacity = capacity
        assert np.isfinite(trainer.train_epoch().loss)
        assert "train_accuracy" in trainer.evaluate()

    def test_host_holds_vertex_data(self, graph):
        trainer = make_trainer(graph)
        assert trainer.platform.host_pool(0).in_use > 0


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
