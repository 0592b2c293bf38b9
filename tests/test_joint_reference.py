"""The joint loop on one holder of layout sweeps against the loop that
prices every layout afresh.

``tests/joint_reference.py`` keeps the old loop verbatim. Row counts are
integers and costs the same float expressions of them, so every field is
``==`` — a cost tolerance would only hide a changed decision.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.comm.reorganize as reorganize_module
import repro.partition.nodes as nodes_module
from joint_reference import reference_joint_placement
from repro.comm import joint_placement
from repro.errors import PartitionError
from repro.faults import FaultState
from repro.graph import load_dataset
from repro.partition import (
    TwoLevelPartition,
    partition_nodes,
    permute_partitions,
    search_placement,
    two_level_partition,
)
from repro.partition.nodes import LayoutSweeps
from repro.scenario import ClusterArgs

NODES = 4
GPUS = 4
M = NODES * GPUS
DEAD = 2


@pytest.fixture(scope="module")
def layouts():
    graph = load_dataset("friendster_sim", scale=0.2, seed=3)
    metis = two_level_partition(graph, M, 4, seed=0)
    skew = np.arange(M).reshape(NODES, GPUS).T.ravel()
    return {"metis": metis, "round_robin": permute_partitions(metis, skew)}


def build_platform(dead):
    platform = ClusterArgs(nodes=NODES, gpus=GPUS,
                           topology="rail").build_platform()
    platform.apply_fault_state(FaultState(dead=dead))
    return platform


def joint_arguments(partition, imbalance, budgets, dead, two_speed):
    """``joint_placement``'s keyword arguments for one grid point."""
    seed = partition_nodes(M, NODES)
    survivors = [node for node in range(NODES) if node not in dead]
    for k, p in enumerate(np.flatnonzero(np.isin(seed, list(dead)))):
        seed[p] = survivors[k % len(survivors)]
    kwargs = dict(row_bytes=512, max_imbalance=imbalance,
                  seed_placement=seed)
    if budgets == "tight":
        # a node may grow by one median partition over its seed load
        sizes = 8 * np.bincount(partition.assignment, minlength=M)
        loads = np.bincount(seed, weights=sizes, minlength=NODES)
        kwargs.update(node_budgets=(loads + np.median(sizes)).tolist(),
                      partition_host_bytes=sizes)
    if two_speed:
        # odd nodes run three times faster
        flops = np.random.default_rng(M).integers(200, 4000, M)
        kwargs.update(compute_rows=np.stack(
            [flops // (3 if node % 2 else 1) for node in range(NODES)],
            axis=1))
    return kwargs


def grid_of(partition):
    return [[id(chunk) for chunk in row] for row in partition.chunks]


def assert_same_value(got, want, where):
    if isinstance(want, TwoLevelPartition):
        assert got.assignment is want.assignment, where
        assert grid_of(got) == grid_of(want), where
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype, where
        assert np.array_equal(got, want), where
    elif dataclasses.is_dataclass(want) and not isinstance(want, type):
        assert type(got) is type(want), where
        for field in dataclasses.fields(want):
            assert_same_value(getattr(got, field.name),
                              getattr(want, field.name),
                              f"{where}.{field.name}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for index, (mine, theirs) in enumerate(zip(got, want)):
            assert_same_value(mine, theirs, f"{where}[{index}]")
    else:
        assert got == want, where


class TestSameResult:
    @pytest.mark.parametrize("two_speed", [False, True])
    @pytest.mark.parametrize("dead", [frozenset(), frozenset({DEAD})])
    @pytest.mark.parametrize("imbalance", [0, 1])
    @pytest.mark.parametrize("budgets", ["none", "tight"])
    @pytest.mark.parametrize("layout", ["metis", "round_robin"])
    def test_grid(self, layouts, layout, budgets, imbalance, dead, two_speed):
        partition = layouts[layout]
        kwargs = joint_arguments(partition, imbalance, budgets, dead,
                                 two_speed)
        want = reference_joint_placement(partition, build_platform(dead),
                                         **kwargs)
        got = joint_placement(partition, build_platform(dead), **kwargs)
        assert_same_value(got, want, "JointResult")

    def test_the_grid_runs_several_rounds(self, layouts):
        """Guards the grid above against loops that stop after one round."""
        rounds = [len(joint_placement(
            layouts[layout], build_platform(frozenset()),
            **joint_arguments(layouts[layout], 1, "none", frozenset(),
                              False)).iterations)
            for layout in layouts]
        assert max(rounds) > 1


class TestWorkBound:
    def test_each_layout_is_priced_once(self, layouts, monkeypatch):
        calls = {"fetch": [], "load": [], "volumes": [], "greedy": []}

        def spy(what, function, layout_of):
            def counted(*args, **kwargs):
                calls[what].append(layout_of(*args))
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(nodes_module, "partition_halo_matrix", spy(
            "fetch", nodes_module.partition_halo_matrix, grid_of))
        monkeypatch.setattr(nodes_module, "partition_load_matrix", spy(
            "load", nodes_module.partition_load_matrix, grid_of))
        monkeypatch.setattr(reorganize_module, "measure_volumes", spy(
            "volumes", reorganize_module.measure_volumes, grid_of))
        monkeypatch.setattr(reorganize_module, "_paper_greedy", spy(
            "greedy", reorganize_module._paper_greedy,
            lambda neighbors, num_vertices: [[id(rows) for rows in row]
                                             for row in neighbors]))

        partition = layouts["metis"]
        result = joint_placement(partition, build_platform(frozenset()),
                                 row_bytes=512)
        rounds = result.iterations
        # the reuse is exercised: a later round searches a layout the
        # guard of the round before kept, and prices its candidates again
        assert len(rounds) > 1
        assert any(round_.reorg_kept_schedule for round_ in rounds[:-1])
        assert len(calls["fetch"]) == 1
        for what in ("load", "volumes", "greedy"):
            layouts_seen = [str(grid) for grid in calls[what]]
            assert len(set(layouts_seen)) == len(layouts_seen), what
        # every candidate of every round was priced, some of them only once
        assert len(calls["volumes"]) < 3 * len(rounds)

    def test_sweeps_of_another_partition_are_refused(self, layouts):
        sweeps = LayoutSweeps(layouts["metis"])
        with pytest.raises(PartitionError, match="another vertex assignment"):
            search_placement(layouts["round_robin"], NODES, sweeps=sweeps)
