"""The worklist partitioner against the every-boundary-vertex one it replaced.

``tests/metis_reference.py`` keeps the old pipeline verbatim. Every weight
at every level is a sum of ones, so the two forms make the same
comparisons on the same numbers and everything here is ``np.array_equal``
— a cut-quality tolerance would only hide a changed tie-break.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import metis_reference as reference
from repro.errors import PartitionError
from repro.graph import Graph, load_dataset, toy_graph
from repro.partition import edge_cut, metis_partition, two_level_partition
from repro.partition import metis

DATASETS = ["reddit_sim", "products_sim", "it2004_sim", "papers_sim",
            "friendster_sim"]
SLACKS = (0.0, 0.05, 0.3)
PASSES = (0, 1, 2, 6)


def part_counts(graph):
    """2…64 and ``n // 8``, where greedy growing leaves parts empty."""
    n = graph.num_vertices
    return [p for p in (2, 3, 4, 8, 16, 64, n // 8) if 1 < p <= n]


def assert_same_partition(graph, parts, seed=0):
    """The partitioner runs at its constants; the reference takes them."""
    got = metis_partition(graph, parts, seed=seed)
    want = reference.reference_metis_partition(
        graph, parts, seed=seed, balance_slack=metis.BALANCE_SLACK,
        refinement_passes=metis.REFINEMENT_PASSES)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want), (graph.name, parts, seed)
    return got


def at_constants(monkeypatch, slack, passes):
    """Run the partitioner at another ``BALANCE_SLACK``/``REFINEMENT_PASSES``."""
    monkeypatch.setattr(metis, "BALANCE_SLACK", slack)
    monkeypatch.setattr(metis, "REFINEMENT_PASSES", passes)


def random_graph(n, num_edges, seed):
    """Directed edges drawn with replacement: self-loops, repeats and
    antiparallel pairs (weight-2 edges of the undirected view) included."""
    rng = np.random.default_rng(seed)
    return Graph(rng.integers(0, n, num_edges), rng.integers(0, n, num_edges),
                 n, name=f"random{n}")


# ----------------------------------------------------------------------
# the whole pipeline
# ----------------------------------------------------------------------
class TestPipeline:
    @pytest.mark.parametrize("dataset", DATASETS)
    @pytest.mark.parametrize("scale, seeds", [(0.05, (0, 1, 2)), (0.1, (3,))])
    def test_datasets_scales_seeds_parts(self, dataset, scale, seeds):
        for seed in seeds:
            graph = load_dataset(dataset, scale=scale, seed=seed + 42)
            for parts in part_counts(graph):
                assert_same_partition(graph, parts, seed=seed)

    def test_deep_hierarchy(self):
        # 3277 vertices into 2 parts: six levels, hubs included.
        graph = load_dataset("friendster_sim", scale=0.4, seed=11)
        assignment = assert_same_partition(graph, 2, seed=5)
        assert len(np.unique(assignment)) == 2

    def test_empty_parts_survive(self):
        graph = load_dataset("it2004_sim", scale=0.05, seed=0)
        parts = graph.num_vertices // 8
        assignment = assert_same_partition(graph, parts, seed=0)
        assert len(np.unique(assignment)) < parts

    @pytest.mark.parametrize("dataset", ["it2004_sim", "friendster_sim"])
    def test_parts_slack_passes(self, dataset, monkeypatch):
        """The pipeline runs at its constants; any slack and pass count
        they could hold partitions as the reference does."""
        graph = load_dataset(dataset, scale=0.05, seed=7)
        for parts in part_counts(graph):
            for slack, passes in itertools.product(SLACKS, PASSES):
                at_constants(monkeypatch, slack, passes)
                assert_same_partition(graph, parts, seed=1)

    def test_toy_graph(self, monkeypatch):
        graph = toy_graph()
        for parts in (2, 3, 4, 8):
            for slack, passes in itertools.product(SLACKS, PASSES):
                at_constants(monkeypatch, slack, passes)
                assert_same_partition(graph, parts)

    @pytest.mark.parametrize("parts", [2, 5, 40])
    def test_edgeless_graph(self, parts):
        empty = np.empty(0, dtype=np.int64)
        assert_same_partition(Graph(empty, empty, 40, name="edgeless"), parts)

    @pytest.mark.parametrize("parts", [2, 4, 9])
    def test_isolated_vertices_self_loops_parallel_edges(self, parts):
        # a 30-cycle both ways round (every undirected edge weighs 2),
        # a chord, self-loops on three vertices, and 70 isolated vertices
        # so that the graph is large enough to coarsen
        ring = np.arange(30)
        src = np.concatenate([ring, (ring + 1) % 30, [0, 4, 4, 9, 20]])
        dst = np.concatenate([(ring + 1) % 30, ring, [15, 4, 4, 9, 20]])
        graph = Graph(src, dst, 100, name="ring+isolated")
        for seed in range(3):
            assert_same_partition(graph, parts, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 160), density=st.floats(0.0, 4.0),
           graph_seed=st.integers(0, 2**16), seed=st.integers(0, 50),
           parts=st.integers(2, 12))
    def test_random_graphs(self, n, density, graph_seed, seed, parts):
        graph = random_graph(n, int(density * n), graph_seed)
        assert_same_partition(graph, min(parts, n), seed=seed)


# ----------------------------------------------------------------------
# one level at a time
# ----------------------------------------------------------------------
def both_levels(src, dst, n, vertex_weight=None):
    """One level in the reference's COO form and the module's CSR form."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    all_src, all_dst = np.concatenate([src, dst]), np.concatenate([dst, src])
    ones = np.ones(len(all_src))
    weight = (np.ones(n) if vertex_weight is None
              else np.asarray(vertex_weight, dtype=np.float64))
    return (
        reference._Level(
            *reference._merge_parallel(all_src, all_dst, ones, n), weight),
        metis._Level(metis._merge_parallel(all_src, all_dst, ones, n), weight),
    )


def both_hierarchies(graph, seed, target):
    """Coarsen with both modules from identically seeded generators."""
    old, new = [reference._build_base_level(graph)], [
        metis._build_base_level(graph)]
    old_rng, new_rng = (np.random.default_rng(seed) for _ in range(2))
    while new[-1].num_vertices > target:
        coarser = (reference._coarsen(old[-1], old_rng),
                   metis._coarsen(new[-1], new_rng))
        assert (coarser[0] is None) == (coarser[1] is None)
        if coarser[0] is None:
            break
        old.append(coarser[0])
        new.append(coarser[1])
    return old, new


def one_pass_each(old_level, new_level, assignment, parts, slack, passes=1):
    assignment = np.asarray(assignment, dtype=np.int64)
    want = reference._refine(old_level, assignment, parts, slack, passes)
    got = metis._refine(new_level, assignment, parts, slack, passes)
    assert np.array_equal(got, want)
    return got


class TestLevels:
    @pytest.mark.parametrize("dataset, seed", [("friendster_sim", 0),
                                               ("it2004_sim", 1),
                                               ("reddit_sim", 2)])
    def test_levels_match_and_weights_are_integers(self, dataset, seed):
        graph = load_dataset(dataset, scale=0.2, seed=seed)
        old, new = both_hierarchies(graph, seed, target=64)
        assert len(new) >= 3
        for old_level, new_level in zip(old, new):
            adjacency = new_level.adjacency
            assert adjacency.has_canonical_format
            coo = adjacency.tocoo()
            assert np.array_equal(coo.row, old_level.src)
            assert np.array_equal(coo.col, old_level.dst)
            assert np.array_equal(coo.data, old_level.weight)
            assert np.array_equal(new_level.vertex_weight,
                                  old_level.vertex_weight)
            # the invariant an SpMM's reordered sums rest on
            for values in (adjacency.data, new_level.vertex_weight):
                assert values.dtype == np.float64
                assert np.array_equal(values, np.round(values))
                assert (values >= 1).all()
            assert new_level.vertex_weight.sum() == graph.num_vertices
            assert (coo.row != coo.col).all()
            assert (adjacency != adjacency.T).nnz == 0

    def test_coarse_ids_ascend_by_smaller_endpoint(self):
        graph = load_dataset("papers_sim", scale=0.2, seed=4)
        old, new = both_hierarchies(graph, 9, target=64)
        for old_level, new_level in zip(old[:-1], new[:-1]):
            coarse_map = new_level.coarse_map
            assert np.array_equal(coarse_map, old_level.coarse_map)
            ids, first = np.unique(coarse_map, return_index=True)
            assert np.array_equal(ids, np.arange(len(ids)))
            assert (np.diff(first) > 0).all()
            assert np.bincount(coarse_map).max() <= 2
        assert new[-1].coarse_map is None

    def test_merge_sums_repeats_and_drops_self_loops(self):
        src = np.array([2, 0, 2, 1, 1, 0, 2])
        dst = np.array([0, 2, 0, 1, 0, 1, 1])
        weight = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        merged = metis._merge_parallel(src, dst, weight, 3).tocoo()
        want = reference._merge_parallel(src, dst, weight, 3)
        for got, expected in zip((merged.row, merged.col, merged.data), want):
            assert np.array_equal(got, expected)
        assert merged.data.tolist() == [32.0, 2.0, 16.0, 5.0, 64.0]


def classify_movers(level, before, after, parts, slack):
    """Which flag rule each mover of one reference pass needed.

    1: a better part had room when the pass started; 2: not that, but an
    earlier neighbour moved; 3: neither — an earlier mover left one of the
    parts it was waiting for.
    """
    vertex_weight = level.vertex_weight
    limit = (vertex_weight.sum() / parts) * (1.0 + slack)
    part_weight = np.bincount(before, weights=vertex_weight, minlength=parts)
    rules = Counter()
    earlier = []
    for vertex in np.flatnonzero(before != after):
        mine = level.src == vertex
        neighbors = level.dst[mine]
        conn = np.bincount(before[neighbors], weights=level.weight[mine],
                           minlength=parts)
        gainful = conn > conn[before[vertex]]
        gainful[before[vertex]] = False
        if (gainful & (part_weight + vertex_weight[vertex] <= limit)).any():
            rules[1] += 1
        elif np.isin(neighbors, earlier).any():
            rules[2] += 1
        else:
            assert gainful[before[earlier]].any()
            rules[3] += 1
        earlier.append(vertex)
    return rules


class TestPass:
    def test_random_assignments_exercise_every_rule(self):
        """Unconverged, over-full starts: one pass each, level by level."""
        rules = Counter()
        rng = np.random.default_rng(0)
        for dataset, parts in (("it2004_sim", 4), ("friendster_sim", 8),
                               ("reddit_sim", 3)):
            graph = load_dataset(dataset, scale=0.1, seed=1)
            old, new = both_hierarchies(graph, 2, target=100)
            for old_level, new_level in zip(old, new):
                for slack in SLACKS:
                    before = rng.integers(0, parts, old_level.num_vertices)
                    after = one_pass_each(old_level, new_level, before, parts,
                                          slack)
                    rules += classify_movers(old_level, before, after, parts,
                                             slack)
                    one_pass_each(old_level, new_level, before, parts, slack,
                                  passes=6)
        assert min(rules[1], rules[2], rules[3]) >= 20, rules

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), density=st.floats(0.0, 5.0),
           graph_seed=st.integers(0, 2**16), parts=st.integers(2, 7),
           max_weight=st.integers(1, 6), slack=st.sampled_from(SLACKS),
           passes=st.sampled_from(PASSES[1:]))
    def test_random_levels(self, n, density, graph_seed, parts, max_weight,
                           slack, passes):
        rng = np.random.default_rng(graph_seed)
        m = int(density * n)
        old, new = both_levels(rng.integers(0, n, m), rng.integers(0, n, m), n,
                               rng.integers(1, max_weight + 1, n))
        one_pass_each(old, new, rng.integers(0, parts, n), parts, slack,
                      passes)

    def test_blocked_vertex_is_freed_by_a_move_out_of_its_part(self):
        """Rule 3. Part 0 is full; vertex 5 is better connected to it than
        to its own part 2 and shares no edge with vertex 0, whose move to
        part 1 makes the room. Vertex 5 must follow in the same pass."""
        edges = [(0, 3), (0, 4), (3, 4), (1, 2), (5, 1), (5, 2), (5, 6),
                 (6, 7), (7, 8), (6, 8)]
        old, new = both_levels(*zip(*edges), 9)
        before = [0, 0, 0, 1, 1, 2, 2, 2, 2]
        after = one_pass_each(old, new, before, 3, 0.0)
        assert after.tolist() == [1, 0, 0, 1, 1, 0, 2, 2, 2]

    def test_vertex_that_joins_the_boundary_mid_pass_waits(self):
        """Vertex 1's only neighbour leaves for part 1 during the pass.
        Vertex 1 was interior when the pass started, so it is not visited
        — whatever it would gain — until the next pass."""
        edges = [(0, 3), (0, 4), (0, 1), (3, 4), (4, 5)]
        old, new = both_levels(*zip(*edges), 6)
        before = [0, 0, 0, 1, 1, 1]
        first = one_pass_each(old, new, before, 2, 1.0, passes=1)
        assert first.tolist() == [1, 0, 0, 1, 1, 1]
        second = one_pass_each(old, new, before, 2, 1.0, passes=2)
        assert second.tolist() == [1, 1, 0, 1, 1, 1]

    def test_tie_between_feasible_parts_goes_to_the_lowest_id(self):
        # vertex 0 (part 2) has two edges into part 1 and two into part 0
        edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 4)]
        old, new = both_levels(*zip(*edges), 5)
        after = one_pass_each(old, new, [2, 1, 1, 0, 0], 3, 2.0)
        assert after.tolist() == [0, 1, 1, 0, 0]

    def test_tie_with_a_part_that_appeared_mid_pass(self):
        """Vertex 1 has no edge into part 0 when the pass starts; vertex 0
        moves there first. The patched row lists part 1 before part 0 —
        the tie at connectivity 1 still goes to part 0."""
        edges = [(0, 3), (0, 4), (0, 1), (1, 2), (2, 5), (3, 4)]
        old, new = both_levels(*zip(*edges), 6)
        after = one_pass_each(old, new, [2, 2, 1, 0, 0, 1], 3, 2.0)
        assert after.tolist() == [0, 0, 1, 0, 0, 1]

    def test_target_fills_up_before_the_movers_turn(self):
        """Vertices 0 and 1 both gain by joining part 1, which has room
        for one: 0 takes it, and 1 — flagged when the pass started — is
        scored against the fuller part and stays."""
        edges = [(0, 4), (0, 5), (1, 6), (1, 7), (2, 3), (4, 5), (6, 7)]
        old, new = both_levels(*zip(*edges), 8)
        after = one_pass_each(old, new, [0, 0, 0, 0, 1, 1, 1, 1], 2, 0.25)
        assert after.tolist() == [1, 0, 0, 0, 1, 1, 1, 1]

    def test_full_target_sends_the_mover_to_its_second_choice(self):
        # as above, but vertex 1 also has one edge into part 2 (room left)
        edges = [(0, 4), (0, 5), (1, 6), (1, 7), (1, 8), (2, 3), (4, 5),
                 (6, 7), (8, 9), (9, 10), (10, 11)]
        old, new = both_levels(*zip(*edges), 12)
        before = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        after = one_pass_each(old, new, before, 3, 0.25)
        assert after.tolist() == [1, 2, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]


# ----------------------------------------------------------------------
# arguments fail inside the taxonomy
# ----------------------------------------------------------------------
class TestRejections:
    @pytest.fixture(scope="class")
    def graph(self):
        return load_dataset("it2004_sim", scale=0.1)

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("seed", 1.5), ("seed", False), ("seed", None),
        ("num_parts", 2.5), ("num_parts", True), ("num_parts", 0),
        ("num_parts", -3), ("num_parts", "2"),
    ])
    def test_metis_arguments(self, graph, name, value, monkeypatch):
        def no_level(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(metis, "_build_base_level", no_level)
        arguments = {"num_parts": 2, name: value}
        with pytest.raises(PartitionError, match=name):
            metis_partition(graph, **arguments)

    def test_numpy_scalars_are_fine(self, graph):
        got = metis_partition(graph, np.int64(3), seed=np.int32(2))
        assert np.array_equal(got, assert_same_partition(graph, 3, seed=2))

    @pytest.mark.parametrize("spoil", [
        lambda a: a - 1,                       # a negative id: half a graph
        lambda a: a + 1,                       # an id == num_partitions
        lambda a: a * 0.9,                     # would truncate to 0
        lambda a: np.where(a == 1, np.nan, 0.0),
        lambda a: np.where(a == 1, np.inf, 0.0),
        lambda a: a.astype(bool),
        lambda a: a.astype(object),
        lambda a: a[:-1],
    ])
    def test_assignment_override(self, graph, spoil):
        assignment = np.arange(graph.num_vertices) % 2
        with pytest.raises(PartitionError):
            two_level_partition(graph, 2, 2, assignment=spoil(assignment))

    def test_integral_override_is_accepted_as_is(self, graph):
        assignment = np.arange(graph.num_vertices) % 2
        for given_as in (assignment, assignment.astype(np.uint8),
                         assignment.astype(np.float64), assignment.tolist()):
            partition = two_level_partition(graph, 2, 2, assignment=given_as)
            partition.validate()
            assert partition.assignment.dtype == np.int64
            assert np.array_equal(partition.assignment, assignment)

    def test_edge_cut(self, graph):
        assignment = np.arange(graph.num_vertices) % 2
        with pytest.raises(PartitionError, match="one entry per vertex"):
            edge_cut(graph, assignment[:-1])
        assert edge_cut(graph, assignment) > 0
