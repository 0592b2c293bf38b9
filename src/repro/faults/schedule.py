"""Declarative fault schedules for unreliable fleets.

A :class:`FaultSchedule` is a time-indexed description of how the cluster
misbehaves: nodes that *straggle* (compute and/or NIC rate multiplied by a
factor over a time window), directed links whose bandwidth degrades, and
nodes that *die* outright at some instant. The schedule itself is pure
data — sampling it at a simulated time ``t`` with :meth:`FaultSchedule.state_at`
yields a :class:`FaultState`, the flattened set of perturbations active at
that instant, which :meth:`repro.hardware.platform.ClusterPlatform.apply_fault_state`
turns into per-device rate vectors honored by every cost method and both
scheduler cores.

The contract that makes fault injection safe to thread everywhere: an
*empty* (or not-yet-triggered) schedule produces an inactive
:class:`FaultState`, and an inactive state applied to a platform is a no-op
— the faultless path stays float-identical to a build without this module.

Factors are rate multipliers in ``(0, 1]``: ``compute=0.5`` halves a
node's kernel throughput, ``factor=0.25`` quarters a link's bandwidth.
Deaths are permanent (no resurrection) — a dead node serves no compute,
no host memory and no traffic from its death time onward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from repro.errors import FaultError

__all__ = [
    "Straggler",
    "LinkDegradation",
    "NodeDeath",
    "Fault",
    "FaultState",
    "FaultSchedule",
    "RebalanceEvent",
    "parse_fault",
]


def _check_factor(name: str, value: float) -> float:
    value = float(value)
    if not (0.0 < value <= 1.0) or math.isnan(value):
        raise FaultError(f"{name} must be in (0, 1], got {value!r}")
    return value


def _check_time(name: str, value: float) -> float:
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise FaultError(f"{name} must be a non-negative time, got {value!r}")
    return value


def _check_index(name: str, value: float) -> int:
    """``value`` as a node index: finite, integral and >= 0 (a parsed
    spec passes the float it read, so ``1.5`` is refused, not floored)."""
    try:
        index = int(value)
    except (TypeError, ValueError, OverflowError):  # None, nan, inf, text
        index = -1
    if index < 0 or index != value:
        raise FaultError(f"{name} must be a non-negative integer, "
                         f"got {value!r}")
    return index


@dataclass(frozen=True)
class Straggler:
    """Node ``node`` runs degraded over ``[start, end)``.

    ``compute_factor`` multiplies the node's kernel rate (GPU flops),
    ``nic_factor`` its NIC bandwidth. A factor of ``1.0`` leaves that
    dimension untouched, so a pure-network straggler is
    ``Straggler(node, nic_factor=0.5)``.
    """

    node: int
    start: float = 0.0
    end: float = math.inf
    compute_factor: float = 1.0
    nic_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_index("straggler node", self.node)
        start = _check_time("straggler start", self.start)
        end = float(self.end)
        if math.isnan(end) or end <= start:
            raise FaultError(
                f"straggler window must satisfy start < end, "
                f"got [{start!r}, {end!r})")
        _check_factor("straggler compute_factor", self.compute_factor)
        _check_factor("straggler nic_factor", self.nic_factor)
        if self.compute_factor == 1.0 and self.nic_factor == 1.0:
            raise FaultError(
                "straggler must degrade something: compute_factor and "
                "nic_factor are both 1.0")

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def to_dict(self) -> dict:
        # An open-ended window serializes as None: strict JSON has no
        # Infinity literal, and the artifacts must stay loadable by any
        # parser.
        return {"kind": "straggler", "node": self.node,
                "start": self.start,
                "end": self.end if math.isfinite(self.end) else None,
                "compute_factor": self.compute_factor,
                "nic_factor": self.nic_factor}


@dataclass(frozen=True)
class LinkDegradation:
    """The directed link ``src -> dst`` loses bandwidth over ``[start, end)``.

    ``factor`` multiplies the link's effective rate; latency is untouched
    (cable-level degradation shows up as retransmits eating throughput,
    not as longer propagation).
    """

    src: int
    dst: int
    factor: float
    start: float = 0.0
    end: float = math.inf

    def __post_init__(self) -> None:
        _check_index("link src", self.src)
        _check_index("link dst", self.dst)
        if self.src == self.dst:
            raise FaultError(
                f"link degradation needs distinct endpoints, got "
                f"src == dst == {self.src}")
        _check_factor("link factor", self.factor)
        start = _check_time("link start", self.start)
        end = float(self.end)
        if math.isnan(end) or end <= start:
            raise FaultError(
                f"link window must satisfy start < end, "
                f"got [{start!r}, {end!r})")
        if self.factor == 1.0:
            raise FaultError("link factor of 1.0 degrades nothing")

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.end

    def to_dict(self) -> dict:
        return {"kind": "link", "src": self.src, "dst": self.dst,
                "factor": self.factor, "start": self.start,
                "end": self.end if math.isfinite(self.end) else None}


@dataclass(frozen=True)
class NodeDeath:
    """Node ``node`` dies permanently at time ``at``."""

    node: int
    at: float

    def __post_init__(self) -> None:
        _check_index("death node", self.node)
        # An infinite death never fires and has no strict-JSON form.
        if not math.isfinite(_check_time("death at", self.at)):
            raise FaultError(f"death at must be a finite time, "
                             f"got {self.at!r}")

    def active_at(self, t: float) -> bool:
        return self.at <= t

    def to_dict(self) -> dict:
        return {"kind": "death", "node": self.node, "at": self.at}


Fault = Union[Straggler, LinkDegradation, NodeDeath]

_FAULT_KINDS = {"straggler": Straggler, "link": LinkDegradation,
                "death": NodeDeath}


@dataclass(frozen=True)
class FaultState:
    """The perturbations active at one instant, in canonical form.

    ``compute`` / ``nic`` map node → combined rate factor (overlapping
    stragglers multiply); ``links`` maps ``(src, dst)`` → combined link
    factor; ``dead`` is the set of nodes whose death time has passed.
    Entries with factor ``1.0`` are dropped during construction, so two
    states are ``==`` iff they perturb identically and
    :attr:`inactive` is exact.
    """

    compute: Tuple[Tuple[int, float], ...] = ()
    nic: Tuple[Tuple[int, float], ...] = ()
    links: Tuple[Tuple[int, int, float], ...] = ()
    dead: FrozenSet[int] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "compute", tuple(sorted(
            (int(node), float(factor)) for node, factor in self.compute
            if float(factor) != 1.0)))
        object.__setattr__(self, "nic", tuple(sorted(
            (int(node), float(factor)) for node, factor in self.nic
            if float(factor) != 1.0)))
        object.__setattr__(self, "links", tuple(sorted(
            (int(src), int(dst), float(factor))
            for src, dst, factor in self.links if float(factor) != 1.0)))
        object.__setattr__(self, "dead",
                           frozenset(int(node) for node in self.dead))

    @property
    def inactive(self) -> bool:
        """True iff applying this state perturbs nothing."""
        return not (self.compute or self.nic or self.links or self.dead)

    def compute_factors(self) -> Dict[int, float]:
        return dict(self.compute)

    def max_node(self) -> int:
        """Largest node index referenced, or -1 when inactive."""
        nodes = [node for node, _ in self.compute]
        nodes += [node for node, _ in self.nic]
        nodes += [src for src, _, _ in self.links]
        nodes += [dst for _, dst, _ in self.links]
        nodes += list(self.dead)
        return max(nodes, default=-1)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of faults, sampled by time.

    >>> from repro.faults import FaultSchedule, Straggler, NodeDeath
    >>> schedule = FaultSchedule((Straggler(1, start=2.0, compute_factor=0.5),
    ...                           NodeDeath(2, at=5.0)))
    >>> schedule.state_at(0.0).inactive
    True
    >>> schedule.state_at(3.0).compute_factors()
    {1: 0.5}
    >>> sorted(schedule.state_at(6.0).dead)
    [2]
    """

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for fault in faults:
            if not isinstance(fault, (Straggler, LinkDegradation, NodeDeath)):
                raise FaultError(
                    f"not a fault: {fault!r} (expected Straggler, "
                    f"LinkDegradation or NodeDeath)")
        object.__setattr__(self, "faults", faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    @staticmethod
    def from_specs(specs: Iterable[str]) -> "FaultSchedule":
        """Build a schedule from CLI ``--fault`` spec strings."""
        return FaultSchedule(tuple(parse_fault(spec) for spec in specs))

    def max_node(self) -> int:
        """Largest node index referenced by any fault, or -1 if empty."""
        largest = -1
        for fault in self.faults:
            largest = (max(largest, fault.src, fault.dst)
                       if isinstance(fault, LinkDegradation)
                       else max(largest, fault.node))
        return largest

    def validate_for(self, num_nodes: int) -> None:
        """Raise :class:`FaultError` if the schedule cannot apply.

        Checks node/link indices against the fleet size and that at
        least one node survives every death in the schedule.
        """
        if self.max_node() >= num_nodes:
            raise FaultError(
                f"fault schedule references node {self.max_node()} but the "
                f"cluster has {num_nodes} nodes")
        deaths = {fault.node for fault in self.faults
                  if isinstance(fault, NodeDeath)}
        if len(deaths) >= num_nodes:
            raise FaultError(
                f"fault schedule kills all {num_nodes} nodes; at least one "
                f"must survive")

    def state_at(self, t: float) -> FaultState:
        """The canonical :class:`FaultState` active at simulated time ``t``."""
        compute: Dict[int, float] = {}
        nic: Dict[int, float] = {}
        links: Dict[Tuple[int, int], float] = {}
        dead = set()
        for fault in self.faults:
            if not fault.active_at(t):
                continue
            if isinstance(fault, Straggler):
                if fault.compute_factor != 1.0:
                    compute[fault.node] = (compute.get(fault.node, 1.0)
                                           * fault.compute_factor)
                if fault.nic_factor != 1.0:
                    nic[fault.node] = (nic.get(fault.node, 1.0)
                                       * fault.nic_factor)
            elif isinstance(fault, LinkDegradation):
                key = (fault.src, fault.dst)
                links[key] = links.get(key, 1.0) * fault.factor
            else:
                dead.add(fault.node)
        return FaultState(
            compute=tuple(sorted(compute.items())),
            nic=tuple(sorted(nic.items())),
            links=tuple(sorted((src, dst, factor)
                               for (src, dst), factor in links.items())),
            dead=frozenset(dead),
        )

    def to_dict(self) -> dict:
        return {"faults": [fault.to_dict() for fault in self.faults]}


@dataclass(frozen=True)
class RebalanceEvent:
    """Provenance record for one online elastic re-balance.

    Appended to :attr:`repro.core.trainer.HongTuTrainer.rebalances` each
    time the trainer reacts to a triggered fault: what fired the
    re-balance (``"death"`` or ``"makespan"``), the placements before and
    after, which partitions physically moved, and what the migration cost
    on the timeline.
    """

    epoch: int
    trigger: str
    placement_before: Tuple[int, ...]
    placement_after: Tuple[int, ...]
    moved_partitions: Tuple[int, ...]
    migration_bytes: int
    migration_seconds: float
    dead_nodes: FrozenSet[int] = field(default_factory=frozenset)


def _parse_fields(kind: str, body: str) -> Dict[str, float]:
    fields: Dict[str, float] = {}
    for chunk in body.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise FaultError(
                f"bad {kind} fault field {chunk!r} (expected key=value)")
        key, _, value = chunk.partition("=")
        try:
            fields[key.strip()] = float(value)
        except ValueError as exc:
            raise FaultError(
                f"bad {kind} fault value {chunk!r}: {exc}") from exc
    return fields


def parse_fault(spec: str) -> Fault:
    """Parse one CLI ``--fault`` spec into a fault object.

    Grammar (times in simulated seconds, factors in ``(0, 1]``)::

        straggler:node=N[,start=T][,end=T][,compute=F][,nic=F]
        link:src=A,dst=B,factor=F[,start=T][,end=T]
        death:node=N,at=T

    >>> from repro.faults import parse_fault
    >>> parse_fault("straggler:node=1,start=2,compute=0.5")
    Straggler(node=1, start=2.0, end=inf, compute_factor=0.5, nic_factor=1.0)
    >>> parse_fault("death:node=2,at=5")
    NodeDeath(node=2, at=5.0)
    """
    kind, sep, body = spec.partition(":")
    kind = kind.strip()
    if not sep or kind not in _FAULT_KINDS:
        raise FaultError(
            f"bad fault spec {spec!r}: expected "
            f"'straggler:...', 'link:...' or 'death:...'")
    fields = _parse_fields(kind, body)

    def take(key: str, default: Optional[float] = None) -> float:
        if key in fields:
            return fields.pop(key)
        if default is None:
            raise FaultError(f"{kind} fault spec {spec!r} is missing "
                             f"required field {key!r}")
        return default

    if kind == "straggler":
        fault = Straggler(
            node=_check_index("straggler node", take("node")),
            start=take("start", 0.0),
            end=take("end", math.inf),
            compute_factor=take("compute", 1.0),
            nic_factor=take("nic", 1.0),
        )
    elif kind == "link":
        fault = LinkDegradation(
            src=_check_index("link src", take("src")),
            dst=_check_index("link dst", take("dst")),
            factor=take("factor"),
            start=take("start", 0.0), end=take("end", math.inf),
        )
    else:
        fault = NodeDeath(node=_check_index("death node", take("node")),
                          at=take("at"))
    if fields:
        raise FaultError(
            f"unknown {kind} fault fields {sorted(fields)} in {spec!r}")
    return fault
