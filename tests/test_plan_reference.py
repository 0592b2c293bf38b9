"""The one-pass plan builder against the GPU-by-GPU one it replaced.

``tests/plan_reference.py`` keeps the old builder verbatim. Every plan
array is an integer or bool array, so everything here is
``np.array_equal`` with equal dtypes — a changed slot, reuse decision or
buffer size shows as a difference, not as a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from plan_reference import reference_build_comm_plan
from repro.comm import build_comm_plan
from repro.errors import CommunicationPlanError
from repro.graph import load_dataset
from repro.partition import (
    TwoLevelPartition,
    permute_partitions,
    two_level_partition,
)

CHUNKS = (1, 2, 3, 5)
GPUS = (1, 2, 4, 8)
PLAN_ARRAYS = ("needed", "transition", "positions", "reuse_mask",
               "load_vertices", "load_positions", "load_slots",
               "source_slots")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("friendster_sim", scale=0.1, seed=7)


@pytest.fixture(scope="module")
def layouts(graph):
    """(chunks, gpus, layout) → partition: METIS order and its partitions
    dealt round-robin over two halves (the identity for up to two GPUs)."""
    made = {}
    for chunks in CHUNKS:
        for gpus in GPUS:
            metis = two_level_partition(graph, gpus, chunks, seed=1)
            perm = np.arange(gpus).reshape(min(gpus, 2), -1).T.ravel()
            made[chunks, gpus, "metis"] = metis
            made[chunks, gpus, "round_robin"] = permute_partitions(metis, perm)
    return made


def assert_same_plan(got, want):
    assert got.buffer_rows == want.buffer_rows
    assert np.array_equal(got.buffer_offsets, want.buffer_offsets)
    assert (got.num_batches, got.num_gpus) == (want.num_batches,
                                               want.num_gpus)
    for batch_got, batch_want in zip(got.plans, want.plans):
        for plan, expected in zip(batch_got, batch_want):
            assert (plan.gpu, plan.batch) == (expected.gpu, expected.batch)
            assert (plan.num_loaded, plan.num_reused) == (
                expected.num_loaded, expected.num_reused)
            for name in PLAN_ARRAYS:
                mine, theirs = getattr(plan, name), getattr(expected, name)
                assert mine.dtype == theirs.dtype, name
                assert np.array_equal(mine, theirs), name
    for batch in range(want.num_batches):
        for mine, theirs in zip(got.segments(batch), want.segments(batch)):
            assert np.array_equal(mine, theirs)


class TestSamePlan:
    @pytest.mark.parametrize("layout", ["metis", "round_robin"])
    @pytest.mark.parametrize("dedup_intra", [True, False])
    @pytest.mark.parametrize("dedup_inter", [True, False])
    @pytest.mark.parametrize("gpus", GPUS)
    @pytest.mark.parametrize("chunks", CHUNKS)
    def test_grid(self, layouts, chunks, gpus, dedup_inter, dedup_intra,
                  layout):
        partition = layouts[chunks, gpus, layout]
        got = build_comm_plan(partition, dedup_inter=dedup_inter,
                              dedup_intra=dedup_intra)
        got.validate()
        want = reference_build_comm_plan(partition, dedup_inter=dedup_inter,
                                         dedup_intra=dedup_intra)
        assert_same_plan(got, want)

    def test_the_grid_reuses_and_refills_freed_slots(self, layouts):
        """Guards the grid above against comparing plans that never reuse
        a row or refill a freed slot."""
        plan = build_comm_plan(layouts[5, 4, "metis"])
        pairs = [(before, after) for earlier, later
                 in zip(plan.plans, plan.plans[1:])
                 for before, after in zip(earlier, later)]
        assert any(after.num_reused for _, after in pairs)
        # a row loaded into a slot that held another row the batch before
        assert any(np.isin(after.load_positions, before.positions).any()
                   for before, after in pairs)

    @pytest.mark.parametrize("owner", [-1, 4])
    def test_a_vertex_nobody_owns_is_refused_alike(self, layouts, owner):
        partition = layouts[2, 4, "metis"]
        assignment = partition.assignment.copy()
        assignment[int(partition.chunks[1][1].neighbor_global[0])] = owner
        broken = TwoLevelPartition(partition.graph, partition.chunks,
                                   assignment)
        with pytest.raises(CommunicationPlanError) as want:
            reference_build_comm_plan(broken)
        with pytest.raises(CommunicationPlanError) as got:
            build_comm_plan(broken)
        assert str(got.value) == str(want.value)
