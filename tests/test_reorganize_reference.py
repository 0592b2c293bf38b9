"""Algorithm 4 on vertex marks against the set-based one.

``tests/reorganize_reference.py`` keeps the old greedy phases, reuse
chains and Eq. 4 volumes verbatim. Every overlap is an integer row count
and every chain score the same float expression of one, so everything
here is ``==`` — a cost tolerance would only hide a changed tie-break.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reorganize_reference as reference
import repro.comm.analysis as analysis
import repro.comm.reorganize as shipped
from repro.comm import measure_volumes, reorganize_partition
from repro.faults import FaultState
from repro.graph import Graph, load_dataset
from repro.partition import partition_nodes, two_level_partition
from repro.scenario import ClusterArgs

GPUS = 2
CHUNKS = (1, 2, 3, 4, 8, 16)
NODES = (1, 2, 4)
PLACEMENTS = ("block", "shuffled", "uneven", "evacuating")


def make_placement(kind, nodes):
    """(placement, dead nodes) of ``kind`` for ``nodes`` × ``GPUS``."""
    m = nodes * GPUS
    block = partition_nodes(m, nodes)
    if kind == "block":
        return None, frozenset()
    if kind == "shuffled":
        return np.random.default_rng(nodes).permutation(block), frozenset()
    if kind == "uneven":
        block[0] = nodes - 1  # node 0 runs one GPU, the last node three
        return block, frozenset()
    survivors = [node for node in range(nodes) if node != 1]
    for k, p in enumerate(np.flatnonzero(block == 1)):
        block[p] = survivors[k % len(survivors)]
    return block, frozenset({1})


def build_platform(nodes, gpus=GPUS, dead=frozenset()):
    """A fresh ``nodes`` × ``gpus`` platform with ``dead`` nodes dead."""
    platform = ClusterArgs(nodes=nodes, gpus=gpus,
                           topology="rail" if nodes > 1 else "flat"
                           ).build_platform()
    platform.apply_fault_state(FaultState(dead=dead))
    return platform


#: Shared platforms for the tests that install no placement.
platform_of = functools.lru_cache(maxsize=None)(build_platform)


def assert_same_reorganization(partition, platform, **kwargs):
    got = reorganize_partition(partition, platform, **kwargs)
    want = reference.reference_reorganize_partition(partition, platform,
                                                    **kwargs)
    for field in dataclasses.fields(got):
        if field.name != "partition":
            assert getattr(got, field.name) == getattr(want, field.name), \
                field.name
    assert [[id(chunk) for chunk in row] for row in got.partition.chunks] \
        == [[id(chunk) for chunk in row] for row in want.partition.chunks]
    assert got.partition.assignment is want.partition.assignment
    assert measure_volumes(got.partition) \
        == reference.reference_measure_volumes(got.partition)
    return got


@pytest.fixture(scope="module")
def graph():
    return load_dataset("friendster_sim", scale=0.15, seed=4)


@pytest.fixture(scope="module")
def partitions(graph):
    return {(nodes, chunks): two_level_partition(graph, nodes * GPUS, chunks,
                                                 seed=0)
            for nodes in NODES for chunks in CHUNKS}


GRID = [(chunks, nodes, placement)
        for chunks in CHUNKS for nodes in NODES for placement in PLACEMENTS
        if nodes > 1 or placement == "block"]


class TestSameDecisions:
    @pytest.mark.parametrize("installed", [False, True],
                             ids=["eq4", "eq4-installed"])
    @pytest.mark.parametrize("chunks,nodes,placement", GRID)
    def test_grid(self, partitions, chunks, nodes, placement, installed):
        """Both guards take the same placement: passed as ``placement=``,
        or installed on the platform and read by default."""
        partition = partitions[nodes, chunks]
        placed, dead = make_placement(placement, nodes)
        assert measure_volumes(partition) \
            == reference.reference_measure_volumes(partition)
        if installed:
            platform = build_platform(nodes, dead=dead)
            platform.set_placement(placed, max_imbalance=nodes * GPUS)
            assert_same_reorganization(partition, platform, row_bytes=128)
        else:
            assert_same_reorganization(
                partition, platform_of(nodes, dead=dead), row_bytes=128,
                placement=placed)

    def test_the_grid_adopts_every_kind_of_layout(self, partitions):
        """Guards the grid above against comparing only kept inputs."""
        adopted = set()
        for chunks, nodes, placement in GRID:
            partition = partitions[nodes, chunks]
            placed, dead = make_placement(placement, nodes)
            result = reorganize_partition(
                partition, platform_of(nodes, dead=dead), 128,
                placement=placed)
            greedy = shipped._paper_greedy(
                [[chunk.neighbor_global for chunk in row]
                 for row in partition.chunks],
                partition.graph.num_vertices)
            layout = (result.phase1_assignments, result.phase2_order)
            adopted.add("input" if result.kept_original
                        else "greedy" if layout == greedy else "chain")
        assert adopted == {"input", "greedy", "chain"}

    @pytest.mark.parametrize("hubs", [0, 2], ids=["edgeless", "two_hubs"])
    @pytest.mark.parametrize("nodes", [1, 2])
    def test_ties_break_to_the_lowest_id(self, hubs, nodes):
        """Every overlap ties: each chunk reads the same ``hubs`` rows
        and otherwise only its own destinations."""
        num_vertices = 48
        dst = np.repeat(np.arange(hubs, num_vertices), hubs)
        src = np.tile(np.arange(hubs), num_vertices - hubs)
        graph = Graph(src, dst, num_vertices, name="hubs")
        m = nodes * GPUS
        partition = two_level_partition(
            graph, m, 4, assignment=np.arange(num_vertices) % m)
        assert_same_reorganization(partition, platform_of(nodes))
        # The greedy phases themselves: all ties, ids kept.
        assert shipped._paper_greedy(
            [[chunk.neighbor_global for chunk in row]
             for row in partition.chunks], num_vertices) \
            == ([[0, 1, 2, 3]] * m, [0, 1, 2, 3])


@st.composite
def random_partitions(draw):
    nodes = draw(st.sampled_from([1, 2, 3]))
    gpus = draw(st.integers(1, 2))
    chunks = draw(st.integers(1, 6))
    m = nodes * gpus
    num_vertices = draw(st.integers(m, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_edges = draw(st.integers(0, 4 * num_vertices))
    graph = Graph(rng.integers(0, num_vertices, num_edges),
                  rng.integers(0, num_vertices, num_edges), num_vertices)
    partition = two_level_partition(
        graph, m, chunks, assignment=rng.integers(0, m, num_vertices))
    placement = rng.permutation(partition_nodes(m, nodes))
    return nodes, gpus, partition, placement


class TestRandomPartitions:
    @settings(max_examples=60, deadline=None)
    @given(random_partitions())
    def test_same_result_on_any_partition(self, drawn):
        nodes, gpus, partition, placement = drawn
        assert_same_reorganization(partition, platform_of(nodes, gpus),
                                   row_bytes=64, placement=placement)


class TestWorkBound:
    def test_reorganize_builds_no_set(self):
        tree = ast.parse(Path(shipped.__file__).read_text())
        built = [ast.unparse(node) for node in ast.walk(tree)
                 if isinstance(node, (ast.Set, ast.SetComp))
                 or (isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name)
                     and node.func.id == "set")]
        assert not built, built

    def test_measure_volumes_calls_no_unique(self):
        tree = ast.parse(inspect.getsource(analysis.measure_volumes))
        unique = [ast.unparse(node) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "unique"]
        assert not unique, unique
