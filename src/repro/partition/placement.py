"""Partition-level chunk placement search across cluster nodes.

The contiguous-block partition→node map (:func:`~repro.partition.nodes.
partition_nodes`) inherits the METIS ordering's locality, but it is an
*assumption*, not an optimum: on skewed orderings (or after adversarial
relabeling) whole partitions end up separated from the partitions they
exchange halo rows with, and the net-aware Algorithm 4 — which only
reorders chunk *schedules* on their home GPUs — cannot fix that. This
module searches over the partition→node assignment itself.

The objective is the cluster net term of the reorganization guard,
aggregated to partition granularity: per epoch-layer, partition pair
``(k, i)`` exchanges

* ``F[k, i]`` forward fetch rows (:func:`partition_halo_matrix` — rows
  owned by k that i's chunks read from k's transition buffer; invariant
  under chunk reordering), and
* ``L[k, i]`` staging-load rows (:func:`partition_load_matrix` — rows
  owned by k that i freshly loads per sweep under self-staging; counted
  twice, once for the load and once for the mirrored gradient flush).

A placement's cross-node halo rows are the entries of ``W = F + 2·L``
whose endpoints land on different nodes — by construction the same
counting as ``halo_volumes``/``halo_load_volumes`` under that placement,
so the search's predictions stay byte-checkable against the executor's
``net_bytes_by_flow``. The search is a pure integer search: it counts
rows and prices nothing (:func:`repro.comm.joint.joint_placement` prices
the pair it adopts).

The search itself is classic graph partitioning on the symmetrized
weight matrix ``S = W + Wᵀ``:

1. **Seed** — the contiguous-block map (never worse than it: the block
   placement is always a candidate), or any caller-supplied assignment,
   including an uneven one.
2. **Greedy improvement** — repeatedly apply the best improving step:
   either the swap of two partitions on different nodes with the
   largest positive cut reduction ``gain(a∈A, b∈B) = [E_a(B) − E_a(A)]
   + [E_b(A) − E_b(B)] − 2·S[a,b]`` (``E_p(X)`` = rows partition p
   exchanges with node X's partitions), or — when ``max_imbalance > 0``
   — the single-partition *move* ``gain(p: A→B) = E_p(B) − E_p(A)``
   that skews node loads. Swaps preserve per-node counts; moves must
   keep every count within ``m/N ± max_imbalance`` (and no node empty),
   and when ``node_budgets`` are given, any step must leave every
   node's placement-pinned host bytes within its budget (the
   ``core/memory_model`` admission rule: a skewed node has to actually
   fit the checkpoints its extra partitions pin). The search carries
   one state (:class:`_Search`): ``E``, the per-node counts and byte
   loads, and the m × m table of swap gains with every swap that is
   not on offer (same node, over budget, locked) already masked out.
   The best swap is one ``argmax`` over that table. A step between
   nodes A and B changes two columns of ``E`` and two byte loads, so it
   recomputes only the table rows and columns of the partitions then
   on A or B (Fiduccia–Mattheyses: after a move only the neighbours'
   gains are updated); the full table is built once per search.
3. **KL/FM-style refinement** — to escape local minima, a
   Kernighan-Lin pass performs the *best available admissible* swap
   even when its gain is negative, locks both endpoints (their rows
   and columns leave the table), and repeats until the table offers
   nothing — fewer than two free partitions remain on distinct nodes,
   or no budget admits a swap between them; the pass then keeps the
   prefix of swaps with the maximum cumulative gain and, if that gain
   is positive, goes back to step 2. A pass runs on a copy of the
   greedy phase's state and the kept prefix is replayed on the
   original, so nothing is rebuilt on either side of it. It operates on
   whatever (possibly unequal) per-node rows the greedy phase produced
   — swaps never change counts, so the imbalance invariant is
   preserved for free.

All weights are integer row counts, so gains are exact and the search is
deterministic (ties break on the lowest partition ids; equal-gain
swap-vs-move ties prefer the balance-preserving swap). With one node the
placement is trivially all-zeros and every cost equals the block cost —
the ``nodes=1`` float-identity contract.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from numbers import Real
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.partition.metis import _require_count
from repro.partition.nodes import (
    LayoutSweeps,
    partition_halo_matrix,
    partition_load_matrix,
    partition_nodes,
)
from repro.partition.two_level import TwoLevelPartition

__all__ = ["PlacementResult", "search_placement", "partition_net_weights",
           "placement_net_rows",
           "permute_partitions", "PLACEMENT_POLICIES"]

#: how partitions map to cluster nodes: the contiguous-``block`` default,
#: the ``search``ed assignment of :func:`search_placement`, or the
#: ``joint`` placement↔schedule iteration of
#: :func:`repro.comm.joint.joint_placement`
PLACEMENT_POLICIES = ("block", "search", "joint")
#: Kernighan-Lin passes a search runs at most after its greedy phase
MAX_REFINEMENTS = 4

_SENTINEL = np.iinfo(np.int64).min


# ----------------------------------------------------------------------
# the objective's weights
# ----------------------------------------------------------------------
def partition_net_weights(partition: TwoLevelPartition) -> np.ndarray:
    """``W = F + 2·L``: the rows each partition pair puts on the wire.

    Fetch rows plus staging loads counted twice — the backward gradient
    flush retires exactly the rows the forward load staged (same
    consecutive-batch differences, time-reversed), so its row total
    equals the load total. The entries a placement splits across nodes
    are its cross-node halo rows per epoch-layer.
    """
    return (partition_halo_matrix(partition)
            + 2 * partition_load_matrix(partition))


def _cross_rows(weights: np.ndarray, placement: np.ndarray) -> int:
    """Entries of ``weights`` whose endpoints sit on different nodes."""
    cross = placement[:, None] != placement[None, :]
    return int(weights[cross].sum())


def placement_net_rows(partition: TwoLevelPartition, num_nodes: int,
                       placement: Optional[np.ndarray] = None,
                       dead_nodes=frozenset()) -> int:
    """Cross-node halo rows per epoch-layer under ``placement``.

    The entries of :func:`partition_net_weights` whose endpoints an
    arbitrary partition→node map puts on different nodes — the net
    term of the reorganization guard and the placement objective
    (``dead_nodes`` admits evacuating placements that leave the named
    nodes empty).
    """
    node_map = partition_nodes(partition.num_partitions, num_nodes,
                               placement, max_imbalance=None,
                               dead_nodes=dead_nodes)
    return _cross_rows(partition_net_weights(partition), node_map)


# ----------------------------------------------------------------------
# the search
# ----------------------------------------------------------------------
@dataclass
class PlacementResult:
    """A searched partition→node assignment plus its provenance.

    ``rows_*`` are cross-node halo rows per epoch-layer (fetches plus
    loads and their mirrored flushes). The searched placement is never
    worse than the block seed: ``rows_search <= rows_block`` always holds.
    """

    placement: np.ndarray
    num_nodes: int
    rows_block: int
    rows_search: int
    #: improving swaps applied (greedy phase + kept refinement prefixes)
    swaps: int = 0
    #: KL refinement passes run (each ends in a kept or reverted prefix)
    refinement_passes: int = 0
    #: improving single-partition moves applied (uneven placements only)
    moves: int = 0
    #: the balance slack the search ran with (0 = exact m/N)
    max_imbalance: int = 0
    #: row-equivalent compute cost of the seed/searched assignment when
    #: the search ran capability-aware (``compute_rows`` given); ``None``
    #: on homogeneous searches, whose objective is pure net rows
    compute_rows_block: Optional[int] = None
    compute_rows_search: Optional[int] = None

    @property
    def rows_saved(self) -> int:
        """Cross-node halo rows removed per epoch-layer vs the block map."""
        return self.rows_block - self.rows_search

    @property
    def node_counts(self) -> List[int]:
        """Partitions per node under the searched placement."""
        return np.bincount(self.placement,
                           minlength=self.num_nodes).tolist()


def _node_exchange(weights_sym: np.ndarray,
                   placement: np.ndarray, num_nodes: int) -> np.ndarray:
    """E[p, X] = rows partition p exchanges with node X's partitions."""
    m = len(placement)
    onehot = np.zeros((m, num_nodes), dtype=np.int64)
    onehot[np.arange(m), placement] = 1
    return weights_sym @ onehot


class _Search:
    """The search's one state: placement, exchange, admission, swap table.

    ``table[a, b]`` is what swapping partitions a (on node A) and b (on
    node B) takes off the objective,
    ``[E_a(B) − E_a(A)] + [E_b(A) − E_b(B)] − 2·S[a, b]``, or
    ``_SENTINEL`` when the swap is not on offer: both on one node, an
    endpoint locked by the running KL pass, or a node pushed over its
    byte budget (swapping shifts ``bytes[b] − bytes[a]`` onto A and the
    negation onto B; counts are untouched, so swaps are only
    byte-constrained). A capability-aware search adds the *linear*
    compute term: the swap reprices each partition at its new node's
    throughput, ``(A[a, N_a] + A[b, N_b]) − (A[a, N_b] + A[b, N_a])`` row
    equivalents — per-partition, and exactly zero when every node runs
    at the same rate, which leaves the homogeneous decisions untouched.

    A step between nodes A and B changes ``exchange[:, A]``,
    ``exchange[:, B]`` and those two nodes' byte loads, so the only
    entries that can change belong to the partitions now sitting on A or
    B: :meth:`_refresh` recomputes their rows and mirrors them into the
    columns (gain and admission rule are both symmetric). Every other
    entry would be recomputed to the same integer, and is not.

    Moves additionally need the count bounds ``m/alive ± max_imbalance``
    (never emptying a node, never onto a dead one); a move changes two
    whole *columns* of the (m, N) move table, which is small enough that
    :meth:`best_move` rebuilds it per call instead.
    """

    def __init__(self, weights_sym: np.ndarray, placement: np.ndarray,
                 num_nodes: int, max_imbalance: int,
                 host_bytes: Optional[np.ndarray],
                 node_budgets: Optional[Sequence[Optional[float]]],
                 compute: Optional[np.ndarray], dead_nodes=frozenset()):
        m = len(placement)
        self.weights_sym = weights_sym
        self.compute = compute
        self.placement = placement
        self.num_nodes = num_nodes
        self.exchange = _node_exchange(weights_sym, placement, num_nodes)
        # Count bounds are taken over the *alive* fleet: with deaths the
        # survivors necessarily run above m/N, so the slack brackets the
        # alive-relative floor/ceiling instead. No deaths → alive == N
        # and the bounds reduce to the original balanced ± K exactly.
        alive = num_nodes - len(dead_nodes)
        self.low = max(1, m // alive - max_imbalance)
        self.high = -(-m // alive) + max_imbalance
        self.dead = sorted(dead_nodes)
        self.counts = np.bincount(placement, minlength=num_nodes)
        # Byte admission: per-node budgets (inf = unlimited) beside the
        # placement-pinned loads; None when the search is unconstrained.
        # A swap shifts at most ``spread`` bytes between its two nodes.
        self.host_bytes = self.limits = self.loads = None
        if node_budgets is not None:
            self.host_bytes = host_bytes
            self.limits = np.array([np.inf if budget is None else float(budget)
                                    for budget in node_budgets])
            self.loads = np.bincount(placement, weights=host_bytes,
                                     minlength=num_nodes).astype(np.int64)
            self.spread = int(host_bytes.max() - host_bytes.min())
        self.free = np.ones(m, dtype=bool)
        self.everyone = np.arange(m)
        self.table = np.empty((m, m), dtype=np.int64)
        self._refresh(self.everyone)

    def _refresh(self, rows: np.ndarray) -> None:
        """Recompute the table rows (and, mirrored, columns) of ``rows``."""
        placement, exchange, everyone = (self.placement, self.exchange,
                                         self.everyone)
        homes = placement[rows]
        internal = exchange[everyone, placement]
        # exchange[rows][:, placement][i, b] = E_a(node of b) for a = rows[i]
        # and exchange[:, homes].T[i, b] = E_b(node of a).
        block = (exchange[rows][:, placement] + exchange[:, homes].T
                 - internal[rows, None] - internal[None, :]
                 - 2 * self.weights_sym[rows])
        if self.compute is not None:
            current = self.compute[everyone, placement]
            block += (current[rows, None] + current[None, :]
                      - self.compute[rows][:, placement]
                      - self.compute[:, homes].T)
        offered = ((homes[:, None] != placement[None, :])
                   & self.free[rows, None] & self.free[None, :])
        if self.loads is not None:
            headroom = self.limits - self.loads
            # No swap shifts more than ``spread`` bytes, so while every
            # node has that much headroom each one is admissible (a NaN
            # fails the comparison and takes the per-entry test).
            if not headroom.min() >= self.spread:
                offered &= self._byte_admissible(rows, homes, headroom)
        block[~offered] = _SENTINEL
        self.table[rows] = block
        self.table[:, rows] = block.T

    def _byte_admissible(self, rows: np.ndarray, homes: np.ndarray,
                         headroom: np.ndarray) -> np.ndarray:
        """Swaps of ``rows`` that keep both nodes inside their budgets."""
        delta = self.host_bytes[None, :] - self.host_bytes[rows, None]
        return ((delta <= headroom[homes][:, None])
                & (-delta <= headroom[self.placement][None, :]))

    def _shift(self, p: int, source: int, node: int) -> None:
        """Re-home p from ``source`` to ``node`` in exchange and loads."""
        self.exchange[:, source] -= self.weights_sym[:, p]
        self.exchange[:, node] += self.weights_sym[:, p]
        if self.loads is not None:
            self.loads[source] -= self.host_bytes[p]
            self.loads[node] += self.host_bytes[p]
        self.placement[p] = node

    def swap(self, a: int, b: int, lock: bool = False) -> None:
        """Swap a's and b's nodes; ``lock`` takes both off the table."""
        node_a, node_b = self.placement[a], self.placement[b]
        self._shift(a, node_a, node_b)
        self._shift(b, node_b, node_a)
        if lock:
            self.free[[a, b]] = False
        self._refresh(np.flatnonzero((self.placement == node_a)
                                     | (self.placement == node_b)))

    def move(self, p: int, node: int) -> None:
        """Move p onto ``node`` (one count down, one up)."""
        source = self.placement[p]
        self._shift(p, source, node)
        self.counts[source] -= 1
        self.counts[node] += 1
        self._refresh(np.flatnonzero((self.placement == source)
                                     | (self.placement == node)))

    def best_swap(self) -> Tuple[int, int, int]:
        """Highest-gain offered (a, b, gain), lowest ids first on ties."""
        a, b = divmod(int(np.argmax(self.table)), len(self.table))
        return a, b, int(self.table[a, b])

    def best_move(self) -> Tuple[int, int, int]:
        """Highest-gain admissible (p, node, gain), lowest ids on ties.

        ``gain(p → X) = E_p(X) − E_p(home(p))`` — the rows p exchanges
        with its destination become intra-node while the rows toward its
        old home start crossing the network — plus the capability-aware
        ``A[p, home(p)] − A[p, X]``: moving onto a faster node is worth
        the rows the repricing saves.
        """
        placement, everyone = self.placement, self.everyone
        gains = self.exchange - self.exchange[everyone, placement][:, None]
        if self.compute is not None:
            gains += (self.compute[everyone, placement][:, None]
                      - self.compute)
        receivable = self.counts + 1 <= self.high     # per target node
        receivable[self.dead] = False                 # never onto a corpse
        leavable = self.counts[placement] - 1 >= self.low   # per partition
        allowed = receivable[None, :] & leavable[:, None]
        allowed[everyone, placement] = False          # home is not a move
        if self.loads is not None:
            allowed &= (self.host_bytes[:, None]
                        <= (self.limits - self.loads)[None, :])
        gains[~allowed] = _SENTINEL
        p, node = divmod(int(np.argmax(gains)), self.num_nodes)
        return p, node, int(gains[p, node])


def _sizes(name: str, values, shape: Tuple[int, ...]) -> np.ndarray:
    """``values`` as int64 of ``shape``: finite, integral, >= 0 — or raise.

    A plain ``astype(int64)`` turns NaN into ``INT64_MIN`` and 2.9 into 2
    with at most a warning, and the search would then admit placements
    against sizes nobody gave it.
    """
    try:
        checked = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise PartitionError(f"{name} must be numeric") from None
    if checked.shape != shape:
        raise PartitionError(
            f"{name} must have shape {shape}, got {checked.shape}")
    if not (np.isfinite(checked).all() and (checked >= 0).all()
            and (checked == np.rint(checked)).all()):
        raise PartitionError(
            f"{name} must hold finite whole numbers >= 0")
    return np.asarray(values, dtype=np.int64)


def _require_budgets(node_budgets, num_nodes: int) -> None:
    """One budget per node, each ``None`` or a real >= 0 — or raise.

    ``inf`` is a budget (unlimited); a string, a bool, NaN or a negative
    number is not, and would otherwise escape the admission test as a
    ``TypeError`` or be read as a budget nothing fits.
    """
    try:
        count = len(node_budgets)
    except TypeError:
        raise PartitionError(
            f"node_budgets must be a sequence, got {node_budgets!r}") from None
    if count != num_nodes:
        raise PartitionError(
            f"node_budgets must give one budget per node, got "
            f"{count} for {num_nodes} nodes"
        )
    for budget in node_budgets:
        if budget is not None and (
                isinstance(budget, bool) or not isinstance(budget, Real)
                or not budget >= 0):
            raise PartitionError(
                f"node_budgets must hold None or real numbers >= 0, got "
                f"{budget!r}")


def search_placement(partition: TwoLevelPartition, num_nodes: int,
                     seed_placement: Optional[np.ndarray] = None,
                     max_imbalance: int = 0,
                     node_budgets: Optional[Sequence[Optional[float]]] = None,
                     partition_host_bytes: Optional[np.ndarray] = None,
                     compute_rows: Optional[np.ndarray] = None,
                     dead_nodes=frozenset(),
                     sweeps: Optional[LayoutSweeps] = None
                     ) -> PlacementResult:
    """Search partition→node assignments minimizing cross-node halo rows.

    Seeds with ``seed_placement`` (the contiguous-block map by default —
    pass a platform's active assignment to refine it instead of
    restarting from scratch), improves it with greedy pairwise swaps and
    — when ``max_imbalance > 0`` — single-partition moves, then runs up
    to :data:`MAX_REFINEMENTS` Kernighan-Lin passes
    (swap-lock-revert-to-best-prefix) to escape local minima; see the
    module docstring for the objective and the gain formulas. The result
    is never worse than the seed: ``rows_block`` reports the *seed*
    placement's objective, so ``rows_search <= rows_block`` holds for any
    seed.

    With the default ``max_imbalance=0`` balance stays exact throughout
    (only swaps run — bit-identical to the pre-uneven search). A
    positive ``max_imbalance`` admits moves that skew per-node counts
    within ``m/N ± max_imbalance`` (never emptying a node); when
    ``node_budgets`` is also given (per-node remaining host bytes,
    ``None`` entries unlimited), every step must additionally keep each
    node's placement-pinned host bytes — ``partition_host_bytes[p]``
    summed over its partitions, the
    :func:`repro.core.memory_model.placement_host_bytes` counting —
    inside its budget, and a seed the memory model cannot admit raises
    :class:`~repro.errors.PartitionError` outright.

    ``compute_rows`` makes the search *capability-aware* on a
    heterogeneous fleet: an ``(m, num_nodes)`` integer matrix whose
    ``[p, n]`` entry is the row-equivalent compute cost of hosting
    partition p on node n (the trainer derives it from per-partition
    flops and per-node GPU throughput). The objective becomes cross-node
    rows plus the placed compute rows, so heavy partitions migrate
    toward fast nodes when the repriced kernels outweigh the extra halo
    traffic. Identical per-node rates make every gain contribution
    exactly zero — the homogeneous search is bit-identical with or
    without the matrix. The never-worse guarantee then covers the
    *combined* objective (``rows_search + compute_rows_search <=
    rows_block + compute_rows_block``);
    ``rows_search`` alone may exceed ``rows_block`` when trading halo
    rows for faster kernels wins.

    ``dead_nodes`` makes the search *evacuating*: the seed must already
    avoid the named nodes (the elastic re-balancer hands in the current
    placement with dead entries re-homed), moves never target them, and
    the count bounds bracket the alive-relative floor/ceiling of
    ``m / alive ± max_imbalance`` — the survivors necessarily run
    overloaded, so exact ``m/N`` balance is unreachable by definition.

    ``sweeps`` is the calling planner's
    :class:`~repro.partition.nodes.LayoutSweeps` of ``partition``'s
    layouts, so a loop that searches several layouts runs the fetch
    sweep once and each load sweep once per layout; by default the
    search builds its own.
    """
    m = partition.num_partitions
    _require_count("num_nodes", num_nodes, 1)
    _require_count("max_imbalance", max_imbalance, 0)
    dead_nodes = frozenset(dead_nodes)
    block = partition_nodes(m, num_nodes, seed_placement,
                            max_imbalance=max_imbalance,
                            dead_nodes=dead_nodes)
    host_bytes = np.zeros(m, dtype=np.int64)
    if partition_host_bytes is not None:
        host_bytes = _sizes("partition_host_bytes", partition_host_bytes,
                            (m,))
    if node_budgets is not None:
        _require_budgets(node_budgets, num_nodes)
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
        compute = _sizes("compute_rows", compute_rows, (m, num_nodes))
    if sweeps is None:
        sweeps = LayoutSweeps(partition)
    # partition_net_weights, from sweeps the caller's other steps share
    weights = sweeps.fetch() + 2 * sweeps.load(partition)
    weights_sym = weights + weights.T
    rows_block = _cross_rows(weights, block)

    placement = block.copy()
    swaps = 0
    moves = 0
    refinements = 0
    if num_nodes > 1 and m > num_nodes:
        state = _Search(weights_sym, placement, num_nodes, max_imbalance,
                        host_bytes, node_budgets, compute, dead_nodes)
        allow_moves = max_imbalance > 0
        applied = _greedy_improve(state, allow_moves)
        swaps += applied[0]
        moves += applied[1]
        for _ in range(MAX_REFINEMENTS):
            refinements += 1
            kept = _refinement_pass(state)
            if kept == 0:
                break
            swaps += kept
            applied = _greedy_improve(state, allow_moves)
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


def _greedy_improve(state: _Search, allow_moves: bool) -> Tuple[int, int]:
    """Apply best-improving admissible swaps/moves until none remains.

    Mutates ``state`` in place and returns ``(swaps, moves)`` applied.
    Each step strictly reduces the integer objective (cut plus any
    compute term), so the loop terminates. Equal-gain swap-vs-move ties
    prefer the balance-preserving swap.
    """
    swaps = 0
    moves = 0
    while True:
        a, b, swap_gain = state.best_swap()
        move_gain = _SENTINEL
        if allow_moves:
            p, node, move_gain = state.best_move()
        if swap_gain <= 0 and move_gain <= 0:
            break
        if swap_gain >= move_gain:
            state.swap(a, b)
            swaps += 1
        else:
            state.move(p, node)
            moves += 1
    return swaps, moves


def _refinement_pass(state: _Search) -> int:
    """One KL pass: swap-and-lock greedily, keep the best prefix.

    Runs on a copy of ``state``, then replays the best prefix's swaps on
    ``state`` itself and returns how many were kept (0 when no prefix
    beat the starting cut — ``state`` is then exactly as it was). Swaps
    never change per-node counts, so the pass preserves whatever
    (possibly uneven) balance the greedy phase reached; under byte
    budgets every trail step is itself admissible, which keeps each
    prefix — in particular the kept one — admissible too.
    """
    trial = copy.deepcopy(state)
    cumulative = 0
    best_gain = 0
    best_prefix = 0
    trail: List[Tuple[int, int]] = []
    while True:
        a, b, gain = trial.best_swap()
        if gain == _SENTINEL:
            break  # no two free partitions on distinct nodes may swap
        trial.swap(a, b, lock=True)
        trail.append((a, b))
        cumulative += gain
        if cumulative > best_gain:
            best_gain = cumulative
            best_prefix = len(trail)
    for a, b in trail[:best_prefix]:
        state.swap(a, b)
    return best_prefix


# ----------------------------------------------------------------------
# adversarial relabeling (benchmarks + tests)
# ----------------------------------------------------------------------
def permute_partitions(partition: TwoLevelPartition,
                       perm: np.ndarray) -> TwoLevelPartition:
    """Relabel partitions: new partition i is old partition ``perm[i]``.

    The chunks are shared — row i of the result holds the very chunk
    objects of old row ``perm[i]`` — and only the vertex→partition
    assignment is rewritten. A round-robin ``perm`` scatters the METIS
    ordering's contiguous locality across node blocks, which is how
    benchmarks and tests construct *skewed* orderings where the block
    placement is provably suboptimal (the placement search then recovers
    the contiguous grouping).
    """
    m = partition.num_partitions
    perm = np.asarray(perm, dtype=np.int64)
    if sorted(perm.tolist()) != list(range(m)):
        raise PartitionError(
            f"perm must be a permutation of range({m}), got {perm.tolist()}"
        )
    inverse = np.empty(m, dtype=np.int64)
    inverse[perm] = np.arange(m, dtype=np.int64)
    return TwoLevelPartition(partition.graph,
                             [list(partition.chunks[p]) for p in perm],
                             inverse[partition.assignment])
