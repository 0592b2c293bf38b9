"""The elastic controller: a trainer's response to a fault-injected fleet.

Faults become visible at epoch boundaries. :meth:`ElasticController.begin_epoch`
samples the schedule at the accumulated fleet clock and installs the
state on the platform (rate perturbations — the *physics*); the
*response* is separate: a new node death forces an immediate re-balance
(the dead node's partitions cannot run), while stragglers are only
*detected* — :meth:`ElasticController.end_epoch` compares each epoch's
makespan against the faultless baseline and marks a re-balance pending
for the next boundary.

A re-balance is a re-plan, not a second planner: it frees the trainer's
checkpoints, hands the current :class:`~repro.core.planner.FleetPlan`
back to :func:`~repro.core.planner.plan_fleet` with an evacuation seed
(the planner reads the dead set off the platform and, because it is a
re-plan, turns budgets and the wire term on), adopts the result, and
ships the moved partitions' state bytes as ``net`` tasks at the head of
the epoch timeline.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

import numpy as np

from repro.core.memory_model import vertex_buffer_bytes
from repro.core.planner import plan_fleet
from repro.errors import (
    ConfigurationError,
    DeviceOutOfMemoryError,
    FaultError,
    PartitionError,
)
from repro.faults.schedule import FaultState, RebalanceEvent
from repro.hardware.clock import EventTimeline
from repro.runtime.task import net_link

__all__ = ["ElasticController", "evacuation_seed"]


def evacuation_seed(placement: np.ndarray, alive: List[int],
                    dead) -> np.ndarray:
    """``placement`` with every partition of a dead node re-homed.

    Each goes to the least-loaded survivor (lowest id on ties) — a
    deterministic admissible starting point the search refines, never
    regresses.
    """
    seed = np.asarray(placement, dtype=np.int64).copy()
    if dead:
        counts = {node: int((seed == node).sum()) for node in alive}
        for p in np.flatnonzero(np.isin(seed, np.array(sorted(dead)))).tolist():
            target = min(alive, key=lambda node: (counts[node], node))
            seed[p] = target
            counts[target] += 1
    return seed


class ElasticController:
    """Epoch-boundary fault sampling, the makespan trigger, re-balancing.

    Driven by ``HongTuTrainer.train_epoch``: :meth:`begin_epoch` before
    any work is emitted, :meth:`end_epoch` with the finished result. With
    no fault schedule (or an inactive one) neither makes a single
    platform call — the exact fault-free code path.
    """

    def __init__(self, trainer) -> None:
        # Weak: the trainer owns its controller. A strong back-reference
        # would make every trainer a reference cycle, and a sweep that
        # builds many would hold their vertex buffers until the cycle
        # collector ran.
        self.trainer = weakref.proxy(trainer)
        #: simulated wall clock across epochs — the time axis fault
        #: schedules are sampled on (epoch boundaries only)
        self.fleet_seconds = 0.0
        #: provenance of every elastic re-balance performed
        self.rebalances: List[RebalanceEvent] = []
        self._pending_rebalance = False
        #: faultless-epoch makespan: the predicted epoch time the
        #: observed one is compared against (trigger rule)
        self._expected_epoch_seconds: Optional[float] = None
        #: (fault_state, placement) the last re-balance adapted to —
        #: the trigger never re-fires for a situation already handled
        self._last_rebalance_key = None

    def begin_epoch(self, timeline: EventTimeline) -> Optional[RebalanceEvent]:
        """Sample the fault schedule at this epoch's start and react.

        Returns the re-balance that fired (its migration traffic already
        sits at the head of ``timeline``), or ``None``.
        """
        trainer = self.trainer
        schedule = trainer.config.faults
        platform = trainer.platform
        if (schedule is None or not schedule) and not self._pending_rebalance:
            return None
        state = (schedule.state_at(self.fleet_seconds) if schedule
                 else FaultState())
        current = platform.fault_state or FaultState()
        new_deaths = state.dead - platform.dead_nodes
        applied = (platform.fault_state is not None
                   or bool(platform.dead_nodes))
        if (state != current or state.dead != platform.dead_nodes) \
                and (applied or not state.inactive):
            platform.apply_fault_state(state)
        event = None
        if new_deaths:
            if not trainer.config.elastic:
                raise FaultError(
                    f"node(s) {sorted(new_deaths)} died at fleet time "
                    f"{self.fleet_seconds:.6f}s and elastic re-balancing "
                    f"is disabled; their partitions cannot run"
                )
            event = self._rebalance(timeline, trigger="death")
        elif self._pending_rebalance:
            event = self._rebalance(timeline, trigger="makespan")
        self._pending_rebalance = False
        return event

    def end_epoch(self, result) -> None:
        """Advance the fleet clock and run the makespan trigger rule.

        The trigger compares the *observed* epoch makespan against the
        *predicted* one — the makespan of the first epoch that ran with
        no fault state applied and no re-balance (the faultless
        baseline). An epoch exceeding ``rebalance_trigger ×`` that
        baseline marks a re-balance pending for the next epoch boundary,
        unless the last re-balance already adapted to the exact same
        (fault state, placement) situation — re-balancing cannot undo a
        straggler, only mitigate it, so the trigger must not thrash.
        """
        config = self.trainer.config
        makespan = result.epoch_seconds
        self.fleet_seconds += makespan
        if config.faults is None or not config.elastic:
            return
        platform = self.trainer.platform
        faultless = (platform.fault_state is None
                     and not platform.dead_nodes)
        if (faultless and result.rebalance is None
                and self._expected_epoch_seconds is None):
            self._expected_epoch_seconds = makespan
            return
        expected = self._expected_epoch_seconds
        if (expected is not None and result.rebalance is None
                and makespan > config.rebalance_trigger * expected):
            key = (platform.fault_state,
                   tuple(int(node) for node in self.trainer.placement))
            if key != self._last_rebalance_key:
                self._pending_rebalance = True

    def _partition_state_bytes(self) -> np.ndarray:
        """Per-partition bytes a re-homed partition carries over the wire.

        A partition that moves to another node ships its GPU-resident
        chunk topology and its per-layer vertex rows — h^l and ∇h^l for
        each of its owned vertices across every layer. Checkpointed
        aggregates are *not* migrated: they are dropped and recomputed
        by the next forward pass (strictly cheaper than shipping them
        through a degraded network, and numerically free — checkpoints
        only live within one epoch).
        """
        trainer = self.trainer
        sizes = np.bincount(trainer.partition.assignment,
                            minlength=trainer.platform.num_gpus)
        rows = vertex_buffer_bytes(sizes.astype(np.int64), trainer.model.dims)
        return rows + trainer.fleet.shapes.topology_bytes().sum(axis=1)

    def _rebalance(self, timeline: EventTimeline,
                   trigger: str) -> RebalanceEvent:
        """Re-place partitions against the degraded fleet and migrate.

        The planner re-runs in evacuation mode — dead nodes refused,
        balance taken over the survivors, the current placement (dead
        entries re-homed by :func:`evacuation_seed`) as the seed — and
        the moved partitions' state bytes are charged as coalesced
        per-link ``net`` tasks at the head of the epoch timeline,
        followed by a barrier: the epoch's work starts only after the
        migration lands. Raises :class:`~repro.errors.FaultError` when
        no admissible evacuation exists (placement bounds or surviving
        hosts' memory).
        """
        trainer = self.trainer
        platform = trainer.platform
        nodes = platform.num_nodes
        dead = platform.dead_nodes
        old_placement = np.asarray(trainer.placement, dtype=np.int64).copy()

        trainer.free_checkpoints()
        try:
            fleet = plan_fleet(
                trainer.graph, trainer.model, platform, trainer.config,
                seed_placement=evacuation_seed(
                    old_placement, platform.alive_nodes, dead),
                previous=trainer.fleet,
            )
        except PartitionError as error:
            raise FaultError(
                f"the fleet cannot absorb the fault ({trigger} trigger, "
                f"dead nodes {sorted(dead)}): {error}"
            ) from error
        except ConfigurationError as error:
            # set_placement re-validates against the dead set.
            raise FaultError(
                f"searched evacuation is inadmissible: {error}"
            ) from error
        except DeviceOutOfMemoryError as error:
            raise FaultError(
                f"surviving nodes cannot admit the evacuated working "
                f"set: {error}"
            ) from error
        trainer.adopt(fleet)
        new_placement = fleet.placement

        # Migration traffic: moved partitions' state bytes, coalesced
        # per directed link, priced at the degraded link rates. A dead
        # source cannot send — its partitions re-materialize from the
        # lowest-id survivor's shard (same-node landings ship nothing).
        moved = np.flatnonzero(old_placement != new_placement)
        flows: Dict[tuple, int] = {}
        if len(moved):
            state_bytes = self._partition_state_bytes()
            lowest_alive = min(platform.alive_nodes)
            for p in moved.tolist():
                src = int(old_placement[p])
                if src in dead:
                    src = lowest_alive
                dst = int(new_placement[p])
                if src != dst:
                    flows[(src, dst)] = flows.get((src, dst), 0) \
                        + int(state_bytes[p])
        migration_seconds = 0.0
        if flows:
            links = sorted(flows)
            src, dst = np.array(links, dtype=np.int64).T
            nbytes = np.array([flows[link] for link in links],
                              dtype=np.int64)
            seconds = (platform.cluster.network_latency
                       + nbytes / platform.link_rate(src, dst))
            timeline.submit_batch(
                "net", seconds,
                devices=net_link(src, dst, nodes, 0, platform.num_rails),
                nbytes=nbytes,
                label=f"migrate[{trigger}]",
            )
            timeline.barrier()
            migration_seconds = float(np.sum(seconds))

        event = RebalanceEvent(
            epoch=trainer._epoch + 1,
            trigger=trigger,
            placement_before=tuple(int(n) for n in old_placement),
            placement_after=tuple(int(n) for n in new_placement),
            moved_partitions=tuple(int(p) for p in moved),
            migration_bytes=sum(flows.values()),
            migration_seconds=migration_seconds,
            dead_nodes=frozenset(dead),
        )
        self.rebalances.append(event)
        self._last_rebalance_key = (
            platform.fault_state,
            tuple(int(node) for node in new_placement),
        )
        return event
