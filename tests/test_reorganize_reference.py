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
from repro.comm.cost_model import CommCostModel
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


@functools.lru_cache(maxsize=None)
def models(nodes, gpus=GPUS, dead=frozenset()):
    """The platform's Eq. 4 model and the platform, ``dead`` nodes dead."""
    platform = ClusterArgs(nodes=nodes, gpus=gpus,
                           topology="rail" if nodes > 1 else "flat"
                           ).build_platform()
    platform.apply_fault_state(FaultState(dead=dead))
    return CommCostModel.from_platform(platform), platform


def assert_same_reorganization(partition, **kwargs):
    got = reorganize_partition(partition, **kwargs)
    want = reference.reference_reorganize_partition(partition, **kwargs)
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
    @pytest.mark.parametrize("priced", [False, True],
                             ids=["unguarded", "eq4"])
    @pytest.mark.parametrize("chunks,nodes,placement", GRID)
    def test_grid(self, partitions, chunks, nodes, placement, priced):
        partition = partitions[nodes, chunks]
        placed, dead = make_placement(placement, nodes)
        cost_model, platform = models(nodes, dead=dead)
        assert measure_volumes(partition) \
            == reference.reference_measure_volumes(partition)
        assert_same_reorganization(
            partition, cost_model=cost_model if priced else None,
            row_bytes=128, platform=platform, placement=placed)

    def test_the_grid_adopts_every_kind_of_layout(self, partitions):
        """Guards the grid above against comparing only kept inputs."""
        adopted = set()
        for chunks, nodes, placement in GRID:
            partition = partitions[nodes, chunks]
            placed, dead = make_placement(placement, nodes)
            cost_model, platform = models(nodes, dead=dead)
            result = reorganize_partition(
                partition, cost_model, 128, platform=platform,
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
            graph, m, 4, assignment=np.arange(num_vertices) % m,
            gcn_weights=False)
        cost_model, platform = models(nodes)
        for priced in (None, cost_model):
            got = assert_same_reorganization(
                partition, cost_model=priced, platform=platform)
            if priced is None:  # the unguarded greedy: all ties, ids kept
                assert got.phase1_assignments == [[0, 1, 2, 3]] * m
                assert got.phase2_order == [0, 1, 2, 3]


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
        graph, m, chunks, assignment=rng.integers(0, m, num_vertices),
        gcn_weights=False)
    placement = rng.permutation(partition_nodes(m, nodes))
    return nodes, gpus, partition, placement, draw(st.booleans())


class TestRandomPartitions:
    @settings(max_examples=60, deadline=None)
    @given(random_partitions())
    def test_same_result_on_any_partition(self, drawn):
        nodes, gpus, partition, placement, priced = drawn
        cost_model, platform = models(nodes, gpus)
        assert_same_reorganization(
            partition, cost_model=cost_model if priced else None,
            row_bytes=64, platform=platform, placement=placement)


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
