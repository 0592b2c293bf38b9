"""The placement search, every gain rebuilt at every step — the oracle for
``repro.partition.placement``.

This is the search in the form it is *defined* in, verbatim as it shipped
before the search state learned to carry its gain table: each greedy or
Kernighan-Lin step rebuilds the full m × m swap-gain matrix from
``exchange`` (:func:`_swap_gains`), the full m × m byte-budget mask
(``_Admission.swap_mask``), copies and masks the matrix (:func:`_best_swap`)
and takes one ``argmax``; a KL pass starts from a fresh ``_Admission`` and a
fresh ``_node_exchange`` matmul and asks ``np.unique`` whether two free
partitions are left on distinct nodes.

``repro.partition.placement.search_placement`` must make the same decision
at every step — which swap, which move, which kept prefix — for every
input: all weights are integer row counts, so a maintained table entry and
a rebuilt one are the same integer, and ``tests/test_placement_reference.py``
compares results with ``==``, never a cut-quality tolerance. The objective's
weights, the result type and the sentinel are the shipped module's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.nodes import partition_nodes
from repro.partition.placement import (
    _SENTINEL,
    PlacementResult,
    _cross_rows,
    partition_net_weights,
)
from repro.partition.two_level import TwoLevelPartition

__all__ = ["reference_search_placement"]


def _node_exchange(weights_sym: np.ndarray,
                   placement: np.ndarray, num_nodes: int) -> np.ndarray:
    """E[p, X] = rows partition p exchanges with node X's partitions."""
    m = len(placement)
    onehot = np.zeros((m, num_nodes), dtype=np.int64)
    onehot[np.arange(m), placement] = 1
    return weights_sym @ onehot


def _swap_gains(weights_sym: np.ndarray, placement: np.ndarray,
                num_nodes: int,
                exchange: Optional[np.ndarray] = None,
                compute: Optional[np.ndarray] = None) -> np.ndarray:
    """Cut reduction of swapping each partition pair's nodes.

    ``G[a, b] = [E_a(B) − E_a(A)] + [E_b(A) − E_b(B)] − 2·S[a, b]`` for
    a on node A, b on node B; pairs on the same node get a sentinel so
    they are never selected. The search loops pass an incrementally
    maintained ``exchange`` so the m×N matmul is not redone per step.

    A capability-aware search adds the *linear* compute term: swapping a
    and b also reprices each partition at its new node's throughput,
    ``(A[a, N_a] + A[b, N_b]) − (A[a, N_b] + A[b, N_a])`` row
    equivalents. The term is per-partition (no pairwise interaction), so
    no incremental state is needed — and with identical node rates every
    column of ``A`` is equal and the term is exactly zero, leaving the
    homogeneous decisions untouched.
    """
    if exchange is None:
        exchange = _node_exchange(weights_sym, placement, num_nodes)
    internal = exchange[np.arange(len(placement)), placement]
    toward = exchange[:, placement]  # toward[a, b] = E_a(node of b)
    gains = (toward + toward.T - internal[:, None] - internal[None, :]
             - 2 * weights_sym)
    if compute is not None:
        current = compute[np.arange(len(placement)), placement]
        at = compute[:, placement]  # at[a, b] = A[a, node of b]
        gains += current[:, None] + current[None, :] - at - at.T
    gains[placement[:, None] == placement[None, :]] = _SENTINEL
    return gains


def _move_gains(weights_sym: np.ndarray, placement: np.ndarray,
                num_nodes: int,
                exchange: Optional[np.ndarray] = None,
                compute: Optional[np.ndarray] = None) -> np.ndarray:
    """Cut reduction of moving each partition to each other node.

    ``G[p, X] = E_p(X) − E_p(home(p))`` — the rows p exchanges with its
    destination become intra-node while the rows toward its old home
    start crossing the network. The home column gets a sentinel. The
    capability-aware compute term adds ``A[p, home(p)] − A[p, X]``:
    moving onto a faster node is worth the rows the repricing saves.
    """
    if exchange is None:
        exchange = _node_exchange(weights_sym, placement, num_nodes)
    internal = exchange[np.arange(len(placement)), placement]
    gains = exchange - internal[:, None]
    if compute is not None:
        current = compute[np.arange(len(placement)), placement]
        gains += current[:, None] - compute
    gains[np.arange(len(placement)), placement] = _SENTINEL
    return gains


def _best_swap(gains: np.ndarray,
               free: Optional[np.ndarray] = None,
               allowed: Optional[np.ndarray] = None
               ) -> Tuple[int, int, int]:
    """Highest-gain admissible (a, b) pair, lowest ids first on ties."""
    masked = gains
    if free is not None or allowed is not None:
        masked = gains.copy()
        if free is not None:
            masked[~free, :] = _SENTINEL
            masked[:, ~free] = _SENTINEL
        if allowed is not None:
            masked[~allowed] = _SENTINEL
    flat = int(np.argmax(masked))
    a, b = divmod(flat, masked.shape[1])
    return a, b, int(masked[a, b])


class _Admission:
    """Balance + host-memory admission state for uneven placements.

    Tracks per-node partition counts and placement-pinned host bytes as
    the search mutates the assignment, and answers which swaps/moves the
    configured ``max_imbalance`` and per-node byte budgets admit. With
    no budgets the byte masks are all-true and only the count bounds
    constrain moves; swaps never change counts, so they are only
    byte-constrained (partitions pin different amounts).
    """

    def __init__(self, placement: np.ndarray, num_nodes: int,
                 max_imbalance: int,
                 host_bytes: Optional[np.ndarray],
                 node_budgets: Optional[Sequence[Optional[float]]],
                 dead_nodes=frozenset()):
        self.num_nodes = num_nodes
        self.dead = frozenset(dead_nodes)
        # Count bounds are taken over the *alive* fleet: with deaths the
        # survivors necessarily run above m/N, so the slack brackets the
        # alive-relative floor/ceiling instead. No deaths → alive == N
        # and the bounds reduce to the original balanced ± K exactly.
        alive = num_nodes - len(self.dead)
        self.balanced = len(placement) // alive
        self.ceiling = -(-len(placement) // alive)
        self.max_imbalance = max_imbalance
        self.counts = np.bincount(placement, minlength=num_nodes)
        self.host_bytes = host_bytes
        self.budgets = node_budgets
        self.loads = None
        if host_bytes is not None and node_budgets is not None:
            self.loads = np.bincount(
                placement, weights=host_bytes, minlength=num_nodes
            ).astype(np.int64)

    def _budget_headroom(self) -> Optional[np.ndarray]:
        """Remaining bytes per node (None when unconstrained)."""
        if self.loads is None:
            return None
        return np.array([
            np.inf if budget is None else float(budget) - load
            for budget, load in zip(self.budgets, self.loads.tolist())
        ])

    def swap_mask(self, placement: np.ndarray) -> Optional[np.ndarray]:
        """(m, m) bool: swaps that keep every node inside its budget."""
        headroom = self._budget_headroom()
        if headroom is None:
            return None
        # Swapping a and b shifts bytes[b] − bytes[a] onto a's node (and
        # the negation onto b's); counts are untouched.
        delta = self.host_bytes[None, :] - self.host_bytes[:, None]
        return ((delta <= headroom[placement][:, None])
                & (-delta <= headroom[placement][None, :]))

    def move_mask(self, placement: np.ndarray) -> np.ndarray:
        """(m, N) bool: moves inside both count bounds and budgets."""
        low = max(1, self.balanced - self.max_imbalance)
        high = self.ceiling + self.max_imbalance
        receivable = self.counts + 1 <= high          # per target node
        if self.dead:
            receivable = receivable.copy()
            receivable[sorted(self.dead)] = False     # never onto a corpse
        from_ok = self.counts[placement] - 1 >= low   # per partition
        mask = receivable[None, :] & from_ok[:, None]
        headroom = self._budget_headroom()
        if headroom is not None:
            mask &= self.host_bytes[:, None] <= headroom[None, :]
        return mask

    def apply_swap(self, placement: np.ndarray, a: int, b: int) -> None:
        if self.loads is not None:
            delta = int(self.host_bytes[b] - self.host_bytes[a])
            self.loads[placement[a]] += delta
            self.loads[placement[b]] -= delta
        placement[a], placement[b] = placement[b], placement[a]

    def apply_move(self, placement: np.ndarray, p: int, node: int) -> None:
        source = placement[p]
        self.counts[source] -= 1
        self.counts[node] += 1
        if self.loads is not None:
            self.loads[source] -= int(self.host_bytes[p])
            self.loads[node] += int(self.host_bytes[p])
        placement[p] = node


def reference_search_placement(
        partition: TwoLevelPartition, num_nodes: int,
        max_refinements: int = 4,
        seed_placement: Optional[np.ndarray] = None,
        max_imbalance: int = 0,
        node_budgets: Optional[Sequence[Optional[float]]] = None,
        partition_host_bytes: Optional[np.ndarray] = None,
        compute_rows: Optional[np.ndarray] = None,
        dead_nodes=frozenset()) -> PlacementResult:
    """``search_placement`` as it shipped; see the module docstring."""
    m = partition.num_partitions
    dead_nodes = frozenset(dead_nodes)
    block = partition_nodes(m, num_nodes, seed_placement,
                            max_imbalance=max_imbalance,
                            dead_nodes=dead_nodes)
    host_bytes = None
    if node_budgets is not None:
        if len(node_budgets) != num_nodes:
            raise PartitionError(
                f"node_budgets must give one budget per node, got "
                f"{len(node_budgets)} for {num_nodes} nodes"
            )
        host_bytes = (np.zeros(m, dtype=np.int64)
                      if partition_host_bytes is None
                      else np.asarray(partition_host_bytes, dtype=np.int64))
        if host_bytes.shape != (m,):
            raise PartitionError(
                f"partition_host_bytes must give one size per partition, "
                f"got shape {host_bytes.shape} for {m} partitions"
            )
        # The memory model is the admission authority: a seed it cannot
        # admit is an error, not a silent starting point. (Deferred
        # import — repro.core pulls this module in via the trainer.)
        from repro.core.memory_model import admits_placement
        if not admits_placement(block, host_bytes, node_budgets):
            raise PartitionError(
                "seed placement does not fit the per-node host budgets"
            )
    compute = None
    if compute_rows is not None:
        compute = np.asarray(compute_rows, dtype=np.int64)
        if compute.shape != (m, num_nodes):
            raise PartitionError(
                f"compute_rows must be (num_partitions, num_nodes) = "
                f"({m}, {num_nodes}), got shape {compute.shape}"
            )
    weights = partition_net_weights(partition)
    weights_sym = weights + weights.T
    rows_block = _cross_rows(weights, block)

    placement = block.copy()
    swaps = 0
    moves = 0
    refinements = 0
    if num_nodes > 1 and m > num_nodes:
        admission = _Admission(placement, num_nodes, max_imbalance,
                               host_bytes, node_budgets, dead_nodes)
        allow_moves = max_imbalance > 0
        applied = _greedy_improve(weights_sym, placement, num_nodes,
                                  admission, allow_moves, compute)
        swaps += applied[0]
        moves += applied[1]
        for _ in range(max_refinements):
            refinements += 1
            kept = _refinement_pass(weights_sym, placement, num_nodes,
                                    admission, compute)
            if kept == 0:
                break
            swaps += kept
            applied = _greedy_improve(weights_sym, placement, num_nodes,
                                      admission, allow_moves, compute)
            swaps += applied[0]
            moves += applied[1]

    rows_search = _cross_rows(weights, placement)
    compute_block = compute_search = None
    if compute is not None:
        indices = np.arange(m)
        compute_block = int(compute[indices, block].sum())
        compute_search = int(compute[indices, placement].sum())
    return PlacementResult(
        placement=placement, num_nodes=num_nodes,
        rows_block=rows_block, rows_search=rows_search,
        swaps=swaps, refinement_passes=refinements,
        moves=moves, max_imbalance=max_imbalance,
        compute_rows_block=compute_block,
        compute_rows_search=compute_search,
    )


def _greedy_improve(weights_sym: np.ndarray, placement: np.ndarray,
                    num_nodes: int, admission: _Admission,
                    allow_moves: bool,
                    compute: Optional[np.ndarray] = None
                    ) -> Tuple[int, int]:
    """Apply best-improving admissible swaps/moves until none remains.

    Mutates ``placement`` (and the admission state) in place and returns
    ``(swaps, moves)`` applied. Each step strictly reduces the integer
    objective (cut plus any compute term), so the loop terminates.
    Equal-gain swap-vs-move ties prefer the balance-preserving swap.
    """
    swaps = 0
    moves = 0
    exchange = _node_exchange(weights_sym, placement, num_nodes)
    while True:
        a, b, swap_gain = _best_swap(
            _swap_gains(weights_sym, placement, num_nodes, exchange,
                        compute),
            allowed=admission.swap_mask(placement),
        )
        move_gain = _SENTINEL
        if allow_moves:
            p, node, move_gain = _best_swap(
                _move_gains(weights_sym, placement, num_nodes, exchange,
                            compute),
                allowed=admission.move_mask(placement),
            )
        if swap_gain <= 0 and move_gain <= 0:
            break
        if swap_gain >= move_gain:
            _exchange_swap(exchange, weights_sym, placement, a, b)
            admission.apply_swap(placement, a, b)
            swaps += 1
        else:
            _exchange_move(exchange, weights_sym, placement, p, node)
            admission.apply_move(placement, p, node)
            moves += 1
    return swaps, moves


def _exchange_swap(exchange: np.ndarray, weights_sym: np.ndarray,
                   placement: np.ndarray, a: int, b: int) -> None:
    """Update E in place for the pending swap of a and b (exact ints)."""
    node_a, node_b = placement[a], placement[b]
    delta = weights_sym[:, b] - weights_sym[:, a]
    exchange[:, node_a] += delta
    exchange[:, node_b] -= delta


def _exchange_move(exchange: np.ndarray, weights_sym: np.ndarray,
                   placement: np.ndarray, p: int, node: int) -> None:
    """Update E in place for the pending move of p to ``node``."""
    exchange[:, placement[p]] -= weights_sym[:, p]
    exchange[:, node] += weights_sym[:, p]


def _refinement_pass(weights_sym: np.ndarray, placement: np.ndarray,
                     num_nodes: int, admission: _Admission,
                     compute: Optional[np.ndarray] = None) -> int:
    """One KL pass: swap-and-lock greedily, keep the best prefix.

    Mutates ``placement`` to the best prefix's state and returns the
    number of swaps kept (0 when no prefix beat the starting cut — the
    pass then leaves the placement exactly as it found it). Swaps never
    change per-node counts, so the pass preserves whatever (possibly
    uneven) balance the greedy phase reached; under byte budgets every
    trail step must itself be admissible, which keeps each prefix — in
    particular the kept one — admissible too.
    """
    working = placement.copy()
    tracker = _Admission(working, num_nodes, admission.max_imbalance,
                         admission.host_bytes, admission.budgets,
                         admission.dead)
    free = np.ones(len(placement), dtype=bool)
    cumulative = 0
    best_gain = 0
    best_prefix = 0
    trail: List[Tuple[int, int]] = []
    exchange = _node_exchange(weights_sym, working, num_nodes)
    while True:
        if len(np.unique(working[free])) < 2:
            break  # no two free partitions left on distinct nodes
        a, b, gain = _best_swap(
            _swap_gains(weights_sym, working, num_nodes, exchange,
                        compute),
            free, allowed=tracker.swap_mask(working),
        )
        if gain == _SENTINEL:
            break
        _exchange_swap(exchange, weights_sym, working, a, b)
        tracker.apply_swap(working, a, b)
        free[a] = free[b] = False
        trail.append((a, b))
        cumulative += gain
        if cumulative > best_gain:
            best_gain = cumulative
            best_prefix = len(trail)
    if best_prefix == 0:
        return 0
    for a, b in trail[:best_prefix]:
        admission.apply_swap(placement, a, b)
    return best_prefix
