"""Stand-in validation: each dataset stand-in exhibits the structural
property its real counterpart is chosen for (heavy tail, id-locality,
homophily, density). The three measures are computed here."""

import numpy as np
import pytest

from repro.graph import Graph, load_dataset


def gini(values) -> float:
    """Gini coefficient of a non-negative sample (0 = equal, ->1 = skewed)."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    n = len(ordered)
    ranks = np.arange(1, n + 1)
    return float(2 * (ranks * ordered).sum() / (n * ordered.sum())
                 - (n + 1) / n)


def locality(graph: Graph, window: int = 96) -> float:
    """Fraction of edges whose endpoints are within ``window`` vertex ids."""
    src, dst = graph.edge_arrays()
    return float((np.abs(src - dst) <= window).mean())


def homophily(graph: Graph) -> float:
    """Fraction of edges joining same-label endpoints."""
    src, dst = graph.edge_arrays()
    return float((graph.labels[src] == graph.labels[dst]).mean())


class TestMeasures:
    def test_gini_of_a_line_and_a_star(self):
        assert 0.0 <= gini(np.ones(9)) < 0.2
        # all edges into one hub -> very unequal in-degrees
        assert gini(np.r_[49.0, np.zeros(49)]) > 0.9

    def test_locality_of_a_line_graph(self):
        line = Graph(np.arange(9), np.arange(1, 10), 10)
        assert locality(line, window=1) == 1.0

    def test_homophily_of_one_label(self):
        graph = Graph(np.array([0, 1]), np.array([1, 0]), 2,
                      labels=np.array([3, 3]))
        assert homophily(graph) == 1.0


class TestStandInContracts:
    """Each stand-in must carry its counterpart's driving property."""

    def test_friendster_is_heavy_tailed(self):
        social = load_dataset("friendster_sim", scale=0.25).in_degrees()
        uniform = load_dataset("products_sim", scale=0.25).in_degrees()
        assert gini(social) > gini(uniform)
        assert social.max() > 10 * social.mean()

    def test_it2004_has_id_locality(self):
        web = locality(load_dataset("it2004_sim", scale=0.25))
        social = locality(load_dataset("friendster_sim", scale=0.25))
        assert web > 0.5
        assert web > 2 * social

    def test_papers_has_id_locality_from_communities(self):
        papers = locality(load_dataset("papers_sim", scale=0.25))
        social = locality(load_dataset("friendster_sim", scale=0.25))
        assert papers > social

    @pytest.mark.parametrize("name", ["reddit_sim", "products_sim",
                                      "papers_sim"])
    def test_learnable_standins_are_homophilous(self, name):
        assert homophily(load_dataset(name, scale=0.2)) > 0.4

    def test_reddit_is_dense(self):
        reddit = load_dataset("reddit_sim", scale=0.25).in_degrees()
        products = load_dataset("products_sim", scale=0.25).in_degrees()
        assert reddit.mean() > 3 * products.mean()
