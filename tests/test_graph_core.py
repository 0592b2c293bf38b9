"""Tests for the Graph property container, generators and datasets."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import (
    Graph,
    available_datasets,
    gaussian_features,
    load_dataset,
    locality_web_graph,
    planted_partition,
    random_split_masks,
    rmat,
    toy_graph,
    PAPER_PROFILES,
)


class TestGraph:
    def test_basic_construction(self):
        g = Graph(np.array([0, 1]), np.array([1, 2]), 3)
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_in_csr_orientation(self):
        g = Graph(np.array([0]), np.array([1]), 2)
        np.testing.assert_array_equal(g.in_csr.row(1), [0])
        np.testing.assert_array_equal(g.in_csr.row(0), [])

    def test_degrees(self):
        g = Graph(np.array([0, 1, 2]), np.array([1, 1, 1]), 3)
        np.testing.assert_array_equal(g.in_degrees(), [0, 3, 0])
        np.testing.assert_array_equal(g.out_degrees(), [1, 1, 1])

    def test_edge_arrays_roundtrip(self):
        src = np.array([0, 2, 1])
        dst = np.array([1, 0, 2])
        g = Graph(src, dst, 3)
        src2, dst2 = g.edge_arrays()
        g2 = Graph(src2, dst2, 3)
        assert g.in_csr.num_cols == g2.in_csr.num_cols
        np.testing.assert_array_equal(g.in_csr.indptr, g2.in_csr.indptr)
        np.testing.assert_array_equal(g.in_csr.indices, g2.in_csr.indices)

    def test_feature_shape_validation(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0]), np.array([1]), 2,
                  features=np.ones((3, 4)))

    def test_label_shape_validation(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0]), np.array([1]), 2, labels=np.zeros(5))

    def test_mask_shape_validation(self):
        with pytest.raises(GraphFormatError):
            Graph(np.array([0]), np.array([1]), 2,
                  train_mask=np.ones(3, dtype=bool))

    def test_feature_dim_requires_features(self):
        g = Graph(np.array([0]), np.array([1]), 2)
        with pytest.raises(GraphFormatError):
            _ = g.feature_dim

    def test_num_classes(self):
        g = Graph(np.array([0]), np.array([1]), 2,
                  labels=np.array([0, 4]))
        assert g.num_classes == 5

    def test_gcn_weights_positive_and_bounded(self):
        g = load_dataset("it2004_sim", scale=0.1)
        weights = g.gcn_edge_weights()
        assert len(weights) == g.num_edges
        assert np.all(weights > 0)
        assert np.all(weights <= 1.0)

    def test_gcn_weights_formula(self):
        # single edge 0 -> 1: w = 1/sqrt((out_deg(0)+1)(in_deg(1)+1)) = 1/2
        g = Graph(np.array([0]), np.array([1]), 2)
        np.testing.assert_allclose(g.gcn_edge_weights(), [0.5])


class TestGenerators:
    def test_rmat_shapes(self):
        src, dst = rmat(64, 500, seed=0)
        assert len(src) == len(dst)
        assert src.max() < 64 and dst.max() < 64

    def test_rmat_no_self_loops(self):
        src, dst = rmat(64, 500, seed=0)
        assert np.all(src != dst)

    def test_rmat_deterministic(self):
        a = rmat(64, 200, seed=5)
        b = rmat(64, 200, seed=5)
        np.testing.assert_array_equal(a[0], b[0])

    def test_rmat_skewed_degrees(self):
        src, _ = rmat(512, 8000, seed=1)
        degrees = np.bincount(src, minlength=512)
        assert degrees.max() > 4 * max(degrees.mean(), 1)

    @pytest.mark.parametrize("call", [
        lambda: rmat(16, 10, seed=0, a=0.5),
        lambda: rmat(16, 10, seed=0, b=0.3),
        lambda: rmat(16, 10, seed=0, c=0.3),
        lambda: locality_web_graph(16, 10, seed=0, power=3.0),
    ], ids=["rmat_a", "rmat_b", "rmat_c", "web_degree_power"])
    def test_removed_generator_settings_are_type_errors(self, call):
        """The generators run at their one setting each (``RMAT_PROBABILITIES``,
        ``WEB_DEGREE_POWER``); passing one is a ``TypeError``."""
        with pytest.raises(TypeError):
            call()

    def test_locality_web_graph_is_local(self):
        src, dst = locality_web_graph(1024, 8000, seed=0,
                                      locality=0.9, window=32)
        local_fraction = (np.abs(src - dst) <= 32).mean()
        assert local_fraction > 0.7

    def test_locality_web_graph_no_self_loops(self):
        src, dst = locality_web_graph(256, 1000, seed=0)
        assert np.all(src != dst)

    def test_planted_partition_homophily(self):
        src, dst, comm = planted_partition(500, 5, 20.0, mixing=0.1, seed=0)
        same = (comm[src] == comm[dst]).mean()
        assert same > 0.7

    def test_planted_partition_mixing_one_is_random(self):
        src, dst, comm = planted_partition(500, 5, 20.0, mixing=1.0, seed=0)
        same = (comm[src] == comm[dst]).mean()
        assert same < 0.4

    def test_planted_partition_invalid_mixing(self):
        with pytest.raises(GraphFormatError):
            planted_partition(100, 4, 5.0, mixing=1.5, seed=0)

    def test_gaussian_features_separable(self):
        comm = np.repeat(np.arange(4), 50)
        features = gaussian_features(comm, 16, seed=0, noise_scale=0.1)
        centroid_distance = np.linalg.norm(
            features[comm == 0].mean(0) - features[comm == 1].mean(0)
        )
        assert centroid_distance > 1.0

    def test_split_masks_disjoint_cover(self):
        train, val, test = random_split_masks(1000, seed=0)
        assert not np.any(train & val)
        assert not np.any(train & test)
        assert not np.any(val & test)
        assert np.all(train | val | test)

    def test_split_fractions(self):
        train, val, test = random_split_masks(1000, seed=0,
                                              train_fraction=0.25,
                                              val_fraction=0.5,
                                              test_fraction=0.25)
        assert train.sum() == 250
        assert val.sum() == 500

    def test_split_must_sum_to_one(self):
        with pytest.raises(GraphFormatError):
            random_split_masks(100, seed=0, train_fraction=0.5,
                               val_fraction=0.5, test_fraction=0.5)


class TestDatasets:
    def test_registry_lists_five(self):
        assert len(available_datasets()) == 5

    @pytest.mark.parametrize("name", available_datasets())
    def test_all_load(self, name):
        g = load_dataset(name, scale=0.05)
        assert g.num_vertices > 0
        assert g.num_edges > 0
        assert g.features is not None
        assert g.labels is not None
        assert g.train_mask is not None
        assert g.scale_profile is not None

    def test_unknown_name(self):
        with pytest.raises(GraphFormatError):
            load_dataset("imaginary")

    # NaN raised a builtin ValueError and inf an OverflowError from the
    # builders' int(); 0 and -1 silently built the 64-vertex floor.
    @pytest.mark.parametrize("name", available_datasets())
    @pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                       -float("inf"), 0, 0.0, -1, True,
                                       "0.1", None])
    def test_bad_scale_is_named(self, name, scale):
        with pytest.raises(ConfigurationError, match="scale"):
            load_dataset(name, scale=scale)

    # -1 raised numpy's ValueError from default_rng, 2.5 a TypeError
    @pytest.mark.parametrize("seed", [-1, 2.5, True, float("nan"), "1"])
    def test_bad_seed_is_named(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            load_dataset("reddit_sim", scale=0.05, seed=seed)

    def test_caching_returns_same_object(self):
        a = load_dataset("reddit_sim", scale=0.05)
        b = load_dataset("reddit_sim", scale=0.05)
        assert a is b

    def test_scale_changes_size(self):
        small = load_dataset("friendster_sim", scale=0.05)
        large = load_dataset("friendster_sim", scale=0.2)
        assert large.num_vertices > small.num_vertices

    def test_paper_profiles_match_table4(self):
        assert PAPER_PROFILES["it-2004"].num_vertices == 41_000_000
        assert PAPER_PROFILES["ogbn-paper"].num_edges == 1_600_000_000
        assert PAPER_PROFILES["reddit"].feature_dim == 602
        assert PAPER_PROFILES["friendster"].num_labels == 64

    def test_replication_factors_present_for_big_graphs(self):
        assert PAPER_PROFILES["it-2004"].replication_factors[512] == 1.85
        assert PAPER_PROFILES["friendster"].replication_factors[2] == 1.32

    def test_toy_graph_matches_figure2(self):
        g = toy_graph()
        np.testing.assert_array_equal(g.in_csr.row(0), [1, 3])
        np.testing.assert_array_equal(g.in_csr.row(3), [2, 5, 6])
        np.testing.assert_array_equal(g.in_csr.row(7), [2, 3, 6])

