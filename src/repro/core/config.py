"""Configuration for the HongTu trainer."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Tuple

from repro.errors import ConfigurationError, require_count
from repro.faults.schedule import FaultSchedule
from repro.hardware.platform import ALLREDUCE_ALGORITHMS
from repro.partition.placement import PLACEMENT_POLICIES
from repro.runtime import OVERLAP_POLICIES

__all__ = ["HongTuConfig", "COMM_MODES", "INTERMEDIATE_POLICIES",
           "OVERLAP_POLICIES", "ALLREDUCE_ALGORITHMS", "PLACEMENT_POLICIES"]

#: communication ladder of the paper's evaluation (Fig. 9):
#: ``baseline`` transfers each chunk's neighbor set individually; ``p2p``
#: adds inter-GPU deduplication; ``ru`` adds only intra-GPU reuse (the
#: PCIe-only configuration of §5.3); ``hongtu`` stacks both.
COMM_MODES = ("baseline", "p2p", "ru", "hongtu")

#: ``hybrid`` caches the AGGREGATE output of cacheable layers on the host
#: and recomputes only the UPDATE (§4.2); ``recompute`` always recomputes
#: the full layer (pure Chen et al. [5] strategy — the ablation baseline).
INTERMEDIATE_POLICIES = ("hybrid", "recompute")


@dataclass
class HongTuConfig:
    """Knobs of the memory-efficient training framework.

    The fleet's *shape* — node count, network topology, spine
    oversubscription — is not configured here: it is a property of the
    platform handed to the trainer (and, on the command line, of
    :class:`~repro.scenario.ClusterArgs`, which builds that platform).

    Attributes
    ----------
    num_chunks:
        Chunks per partition (the paper's ``n``); the number of partitions
        ``m`` always equals the platform's GPU count.
    comm_mode:
        One of :data:`COMM_MODES`.
    reorganize:
        Run the cost-model-guided subgraph reorganization (Algorithm 4).
    intermediate_policy:
        One of :data:`INTERMEDIATE_POLICIES`.
    overlap:
        Epoch scheduling policy. ``"barrier"`` serializes phases exactly
        like the paper's Algorithms 1-3 (and the original accounting of
        this reproduction); ``"pipeline"`` double-buffers the transition
        buffers and prefetches batch j+1's host loads under batch j's
        compute, so the epoch time becomes the event-timeline makespan.
        Numerics are bit-identical under both policies.
    allreduce:
        Inter-node gradient all-reduce schedule, one of
        :data:`ALLREDUCE_ALGORITHMS` (``ring`` is bandwidth-optimal,
        ``tree`` latency-optimal). Ignored on one node.
    placement:
        Partition→node assignment policy, one of
        :data:`PLACEMENT_POLICIES`. ``"block"`` keeps the contiguous
        default (partition p on node p // gpus_per_node, the
        pre-placement behavior, float-identical); ``"search"`` runs the
        placement search of :func:`repro.partition.search_placement`
        before planning communication and installs the found assignment
        on the platform; ``"joint"`` alternates the search with the
        schedule reorganization (:func:`repro.comm.joint_placement`)
        until the combined predicted cost stops improving — never worse
        than the single-pass search, requires ``reorganize=True``. With
        one node every policy is a no-op (every partition is on node 0,
        nothing to iterate) and timings stay float-identical.
    max_imbalance:
        Balance slack for uneven placements: per-node partition counts
        may deviate from the exact ``m / nodes`` by up to this many
        partitions (never emptying a node) when the per-node host
        memory model admits the skew. 0 (the default) keeps the exact
        balance; > 0 requires a searching placement policy.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` perturbing the
        fleet over simulated time (stragglers, link degradations, node
        deaths). ``None`` (the default) — and likewise an *empty*
        schedule — keeps every simulated second float-identical to the
        fault-free path. A non-empty schedule needs a multi-node
        platform (a one-node fleet has nothing to re-balance onto) —
        checked at trainer construction, where the platform is known.
    elastic:
        Whether the trainer responds to detected faults by re-running
        the placement search against the degraded capability/bandwidth
        vectors and migrating partitions (the online elastic
        re-balance). ``False`` rides out stragglers with the static
        placement and raises :class:`~repro.errors.FaultError` on a
        node death. Ignored without ``faults``.
    rebalance_trigger:
        Sensitivity of the straggler detector: a re-balance is marked
        pending when an epoch's observed makespan exceeds
        ``rebalance_trigger ×`` the faultless baseline makespan. Must be
        > 1; node deaths re-balance unconditionally.
    seed:
        Seed for partitioning; an integer >= 0.
    """

    num_chunks: int = 4
    comm_mode: str = "hongtu"
    reorganize: bool = True
    intermediate_policy: str = "hybrid"
    overlap: str = "barrier"
    allreduce: str = "ring"
    placement: str = "block"
    max_imbalance: int = 0
    faults: Optional[FaultSchedule] = None
    elastic: bool = True
    rebalance_trigger: float = 1.05
    seed: int = 0

    def __post_init__(self) -> None:
        # Counts and flags are checked by type: NaN, 2.5 or True would
        # otherwise surface later as a stray error (or a wrong run).
        require_count("num_chunks", self.num_chunks, 1)
        require_count("max_imbalance", self.max_imbalance, 0)
        require_count("seed", self.seed, 0)
        for flag in ("reorganize", "elastic"):
            if not isinstance(getattr(self, flag), bool):
                raise ConfigurationError(
                    f"{flag} must be a bool, got {getattr(self, flag)!r}")
        if self.comm_mode not in COMM_MODES:
            raise ConfigurationError(
                f"comm_mode must be one of {COMM_MODES}, got {self.comm_mode!r}"
            )
        if self.intermediate_policy not in INTERMEDIATE_POLICIES:
            raise ConfigurationError(
                f"intermediate_policy must be one of {INTERMEDIATE_POLICIES}, "
                f"got {self.intermediate_policy!r}"
            )
        if self.overlap not in OVERLAP_POLICIES:
            raise ConfigurationError(
                f"overlap must be one of {OVERLAP_POLICIES}, "
                f"got {self.overlap!r}"
            )
        if self.allreduce not in ALLREDUCE_ALGORITHMS:
            raise ConfigurationError(
                f"allreduce must be one of {ALLREDUCE_ALGORITHMS}, "
                f"got {self.allreduce!r}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ConfigurationError(
                f"placement must be one of {PLACEMENT_POLICIES}, "
                f"got {self.placement!r}"
            )
        if self.placement == "joint" and not self.reorganize:
            raise ConfigurationError(
                "placement 'joint' iterates the placement search against "
                "the schedule reorganization; it requires reorganize=True"
            )
        if self.max_imbalance > 0 and self.placement == "block":
            raise ConfigurationError(
                "max_imbalance > 0 relaxes the placement search's balance; "
                "it requires placement 'search' or 'joint'"
            )
        if self.faults is not None \
                and not isinstance(self.faults, FaultSchedule):
            raise ConfigurationError(
                f"faults must be a FaultSchedule (or None), got "
                f"{type(self.faults).__name__}"
            )
        if not self.rebalance_trigger > 1.0:  # NaN never fires
            raise ConfigurationError(
                f"rebalance_trigger must be > 1 (an epoch must run "
                f"measurably slower than the faultless baseline to fire), "
                f"got {self.rebalance_trigger}"
            )

    @property
    def dedup_flags(self) -> Tuple[bool, bool]:
        """(dedup_inter, dedup_intra) for the communication planner."""
        return {
            "baseline": (False, False),
            "p2p": (True, False),
            "ru": (False, True),
            "hongtu": (True, True),
        }[self.comm_mode]

    def to_dict(self) -> dict:
        """JSON-serializable dict of this config, for bench provenance.

        ``faults`` becomes its declarative schedule dict (``None`` stays
        ``None``); everything else is a plain scalar.
        """
        data = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "faults" and value is not None:
                value = value.to_dict()
            data[spec.name] = value
        return data
