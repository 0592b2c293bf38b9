"""The table-carrying placement search against the rebuild-everything one.

``tests/placement_reference.py`` keeps the old search verbatim. All
weights are integer row counts, so a maintained gain and a rebuilt one are
the same integer and everything here is ``==`` / ``np.array_equal`` — a
cut-quality tolerance would only hide a changed tie-break.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import placement_reference as reference
from repro.core.memory_model import admits_placement
from repro.graph import load_dataset
from repro.partition import (
    partition_nodes,
    permute_partitions,
    search_placement,
    two_level_partition,
)
from repro.partition import placement as shipped
from repro.partition.placement import _SENTINEL, _Search

GRIDS = ((16, 4), (64, 8), (96, 24))
RESULT_FIELDS = ("swaps", "moves", "refinement_passes", "rows_block",
                 "rows_search", "compute_rows_block", "compute_rows_search",
                 "max_imbalance", "num_nodes")


@pytest.fixture(scope="module")
def layouts():
    """(m, N, layout) → partition: METIS order and its round-robin skew."""
    graph = load_dataset("friendster_sim", scale=0.4, seed=3)
    made = {}
    for m, nodes in GRIDS:
        metis = two_level_partition(graph, m, 2, seed=0)
        perm = np.arange(m).reshape(nodes, m // nodes).T.ravel()
        made[m, nodes, "metis"] = metis
        made[m, nodes, "round_robin"] = permute_partitions(metis, perm)
    return made


def rehomed_seed(m, nodes, dead):
    """The block map with ``dead``'s partitions dealt to the survivors."""
    seed = partition_nodes(m, nodes)
    survivors = [node for node in range(nodes) if node != dead]
    for k, p in enumerate(np.flatnonzero(seed == dead)):
        seed[p] = survivors[k % len(survivors)]
    return seed


def search_arguments(partition, nodes, imbalance, budgets, two_speed, dead):
    m = partition.num_partitions
    kwargs = dict(max_imbalance=imbalance)
    seed = partition_nodes(m, nodes)
    if dead is not None:
        seed = rehomed_seed(m, nodes, dead)
        kwargs.update(seed_placement=seed, dead_nodes={dead})
    if budgets != "none":
        # tight: a node may grow by one median partition over its seed load
        sizes = 8 * np.bincount(partition.assignment, minlength=m)
        loads = np.bincount(seed, weights=sizes, minlength=nodes)
        limits = (loads + np.median(sizes)).tolist()
        if budgets == "one_unlimited":
            limits[1] = None
        if budgets == "loose":  # a node could host every partition twice
            limits = [2 * int(sizes.sum())] * nodes
        kwargs.update(node_budgets=limits, partition_host_bytes=sizes)
    if two_speed:
        # odd nodes run three times faster
        flops = np.random.default_rng(m).integers(200, 4000, m)
        kwargs.update(compute_rows=np.stack(
            [flops // (3 if node % 2 else 1) for node in range(nodes)], axis=1))
    return kwargs


def assert_same_result(got, want):
    assert got.placement.dtype == want.placement.dtype
    assert np.array_equal(got.placement, want.placement)
    for field in RESULT_FIELDS:
        assert getattr(got, field) == getattr(want, field), field


# ----------------------------------------------------------------------
# (i) the whole search
# ----------------------------------------------------------------------
class TestSameDecisions:
    @pytest.mark.parametrize("dead", [None, 2])
    @pytest.mark.parametrize("two_speed", [False, True])
    @pytest.mark.parametrize("budgets", ["none", "tight", "one_unlimited",
                                         "loose"])
    @pytest.mark.parametrize("imbalance", [0, 1, 2])
    @pytest.mark.parametrize("layout", ["metis", "round_robin"])
    @pytest.mark.parametrize("grid", GRIDS)
    def test_grid(self, layouts, grid, layout, imbalance, budgets, two_speed,
                  dead, monkeypatch):
        m, nodes = grid
        partition = layouts[m, nodes, layout]
        kwargs = search_arguments(partition, nodes, imbalance, budgets,
                                  two_speed, dead)
        want = reference.reference_search_placement(partition, nodes, **kwargs)
        tested = []
        admissible = _Search._byte_admissible
        monkeypatch.setattr(_Search, "_byte_admissible", lambda *args: (
            tested.append(True), admissible(*args))[1])
        got = search_placement(partition, nodes, **kwargs)
        assert_same_result(got, want)
        # Both branches of the swap table's byte test run: a tight node
        # (one_unlimited keeps all but one) has less headroom than two
        # partitions differ by, so swaps are tested entry by entry; a
        # loose budget never binds, and the test is skipped.
        assert bool(tested) == (budgets in ("tight", "one_unlimited"))

    def test_the_grid_exercises_every_kind_of_step(self, layouts):
        """Guards the grid above against comparing two no-op searches."""
        partition = layouts[64, 8, "round_robin"]
        free = search_placement(partition, 8, max_imbalance=2)
        assert free.swaps > 0 and free.moves > 0
        assert free.refinement_passes > 1  # a KL pass kept a prefix
        tight = search_placement(partition, 8, **search_arguments(
            partition, 8, 2, "tight", False, None))
        assert not np.array_equal(tight.placement, free.placement)
        fast = search_placement(partition, 8, **search_arguments(
            partition, 8, 2, "none", True, None))
        assert not np.array_equal(fast.placement, free.placement)

    @pytest.mark.parametrize("max_refinements", [0, 1, 7])
    def test_refinement_cap(self, layouts, max_refinements, monkeypatch):
        monkeypatch.setattr(shipped, "MAX_REFINEMENTS", max_refinements)
        partition = layouts[64, 8, "round_robin"]
        want = reference.reference_search_placement(
            partition, 8, max_refinements=max_refinements)
        got = search_placement(partition, 8)
        assert_same_result(got, want)
        assert got.refinement_passes <= max_refinements


# ----------------------------------------------------------------------
# (ii) the maintained state vs the from-scratch build
# ----------------------------------------------------------------------
def rebuilt_table(state, weights_sym, imbalance, host_bytes, budgets, compute):
    """The masked matrix the reference builds for ``state``'s placement."""
    placement = state.placement
    gains = reference._swap_gains(weights_sym, placement, state.num_nodes,
                                  compute=compute)
    gains[~state.free, :] = _SENTINEL
    gains[:, ~state.free] = _SENTINEL
    admission = reference._Admission(placement, state.num_nodes, imbalance,
                                     host_bytes, budgets)
    allowed = admission.swap_mask(placement)
    if allowed is not None:
        gains[~allowed] = _SENTINEL
    return gains, admission


def assert_state_is_rebuilt(state, weights_sym, imbalance, host_bytes,
                            budgets, compute):
    table, admission = rebuilt_table(state, weights_sym, imbalance,
                                     host_bytes, budgets, compute)
    assert np.array_equal(state.table, table)
    assert np.array_equal(state.exchange, reference._node_exchange(
        weights_sym, state.placement, state.num_nodes))
    assert np.array_equal(state.counts, admission.counts)
    if budgets is not None:
        assert np.array_equal(state.loads, admission.loads)
    assert state.best_swap() == reference._best_swap(table)
    assert state.best_move() == reference._best_swap(
        reference._move_gains(weights_sym, state.placement, state.num_nodes,
                              compute=compute),
        allowed=admission.move_mask(state.placement))
    return admission


@st.composite
def scenarios(draw):
    nodes = draw(st.integers(2, 4))
    per_node = draw(st.integers(2, 4))
    m = nodes * per_node
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.integers(0, 50, (m, m))
    np.fill_diagonal(weights, 0)
    host_bytes = budgets = compute = None
    if draw(st.booleans()):
        host_bytes = rng.integers(1, 20, m)
        slack = draw(st.integers(0, 25))
        budgets = [None if rng.random() < 0.2 else float(per_node * 10 + slack)
                   for _ in range(nodes)]
    if draw(st.booleans()):
        compute = rng.integers(0, 60, (m, nodes))
    imbalance = draw(st.integers(0, 2))
    choices = draw(st.lists(
        st.tuples(st.sampled_from(["swap", "lock", "move"]),
                  st.integers(0, 10**6)), max_size=12))
    return (nodes, m, weights + weights.T, host_bytes, budgets, compute,
            imbalance, choices)


class TestMaintainedState:
    @settings(max_examples=60, deadline=None)
    @given(scenarios())
    def test_table_equals_the_rebuild_after_any_admissible_steps(self, scenario):
        (nodes, m, weights_sym, host_bytes, budgets, compute, imbalance,
         choices) = scenario
        placement = partition_nodes(m, nodes)
        if budgets is not None and not admits_placement(
                placement, host_bytes, budgets):
            budgets = [None] * nodes
        state = _Search(weights_sym, placement, nodes, imbalance, host_bytes,
                        budgets, compute)
        arguments = (weights_sym, imbalance, host_bytes, budgets, compute)
        admission = assert_state_is_rebuilt(state, *arguments)
        for kind, pick in choices:
            if kind == "move":
                offered = np.argwhere(admission.move_mask(state.placement)
                                      & (np.arange(nodes)[None, :]
                                         != state.placement[:, None]))
            else:
                offered = np.argwhere(state.table != _SENTINEL)
            if not len(offered):
                continue
            first, second = offered[pick % len(offered)].tolist()
            if kind == "move":
                state.move(first, second)
            else:
                state.swap(first, second, lock=kind == "lock")
            admission = assert_state_is_rebuilt(state, *arguments)

    def test_dead_nodes_never_receive(self):
        rng = np.random.default_rng(5)
        weights = rng.integers(0, 50, (12, 12))
        np.fill_diagonal(weights, 0)
        placement = rehomed_seed(12, 4, dead=1)
        state = _Search(weights + weights.T, placement, 4, 2, None, None, None,
                        frozenset({1}))
        while True:
            want = reference._Admission(placement, 4, 2, None, None, {1})
            p, node, gain = state.best_move()
            assert (p, node, gain) == reference._best_swap(
                reference._move_gains(weights + weights.T, placement, 4),
                allowed=want.move_mask(placement))
            if gain <= 0:
                break
            assert node != 1
            state.move(p, node)
        assert state.counts[1] == 0


# ----------------------------------------------------------------------
# (iii) the work a search may do
# ----------------------------------------------------------------------
class TestWorkBound:
    def test_one_full_build_and_no_unique_in_the_kl_loop(self, layouts,
                                                         monkeypatch):
        m, nodes, imbalance = 64, 8, 1
        partition = layouts[m, nodes, "metis"]
        refreshed = []
        refresh = _Search._refresh
        monkeypatch.setattr(_Search, "_refresh", lambda self, rows: (
            refreshed.append(len(rows)), refresh(self, rows))[1])

        def no_unique(*args, **kwargs):
            raise AssertionError("np.unique inside a KL pass")

        refinement_pass = shipped._refinement_pass

        def guarded_pass(state):
            with monkeypatch.context() as patch:
                patch.setattr(np, "unique", no_unique)
                return refinement_pass(state)

        monkeypatch.setattr(shipped, "_refinement_pass", guarded_pass)
        result = search_placement(partition, nodes, max_imbalance=imbalance)
        assert result.moves > 0 and result.refinement_passes > 1

        greedy_phases = result.refinement_passes + 1
        assert refreshed.count(m) <= greedy_phases
        assert refreshed.count(m) == 1  # as built: once per search
        # every other step refreshes the partitions of two nodes only
        steps = [rows for rows in refreshed if rows != m]
        assert len(steps) >= result.swaps + result.moves
        assert max(steps) <= 2 * (m // nodes + imbalance)


# ----------------------------------------------------------------------
# (iv) a KL pass on an uneven seed
# ----------------------------------------------------------------------
class TestUnevenRefinementPass:
    def test_counts_and_every_prefix_stay_admissible(self, layouts,
                                                     monkeypatch):
        m, nodes = 16, 4
        partition = layouts[m, nodes, "round_robin"]
        seed = partition_nodes(m, nodes)
        seed[0], seed[4] = 3, 3            # counts 3, 3, 4, 6
        sizes = 8 * np.bincount(partition.assignment, minlength=m)
        loads = np.bincount(seed, weights=sizes, minlength=nodes)
        budgets = (loads + np.median(sizes)).tolist()
        weights = shipped.partition_net_weights(partition)
        state = _Search(weights + weights.T, seed.copy(), nodes, 2, sizes,
                        budgets, None)

        trail_loads = []
        swap = _Search.swap

        def recording_swap(self, a, b, lock=False):
            swap(self, a, b, lock)
            trail_loads.append(self.loads.copy())

        monkeypatch.setattr(_Search, "swap", recording_swap)
        before = shipped._cross_rows(weights, state.placement)
        kept = shipped._refinement_pass(state)
        assert trail_loads, "the pass found no admissible swap"
        assert all((step <= np.array(budgets)).all() for step in trail_loads)
        assert np.array_equal(np.bincount(state.placement, minlength=nodes),
                              [3, 3, 4, 6])
        assert np.array_equal(state.counts, [3, 3, 4, 6])
        assert admits_placement(state.placement, sizes, budgets)
        after = shipped._cross_rows(weights, state.placement)
        assert (after < before) if kept else (after == before)
        assert state.free.all()  # locks live on the pass's copy only
