"""Unified scenario API: one description of a simulated fleet + run.

Before this module, ``repro.cli`` and every benchmark assembled platforms
and :class:`~repro.core.HongTuConfig` objects by hand, each duplicating
the same dozen cluster/model knobs (``--nodes``, ``--gpus``,
``--topology``, ``--placement``, ...) with drifting defaults — the
``serve`` command, for instance, simply lacked ``--placement`` because
nobody had copied the flag over. :class:`ClusterArgs` is the single
source of truth instead:

* :func:`add_cluster_args` registers the shared flag set on any
  ``argparse`` subparser (``train`` and ``serve`` call it, so their
  cluster vocabularies cannot drift apart again);
* :meth:`ClusterArgs.from_namespace` lifts a parsed namespace into the
  dataclass;
* :meth:`ClusterArgs.build_platform` / :meth:`ClusterArgs.build_config`
  turn it into the simulated platform and trainer config through one
  code path, shared verbatim by ``benchmarks/_common.py``.

Fault injection rides the same vocabulary: repeatable ``--fault SPEC``
strings (see :func:`repro.faults.parse_fault` for the grammar) become the
config's :class:`~repro.faults.FaultSchedule`, and ``--no-elastic`` /
``--rebalance-trigger`` tune the trainer's online re-balance response.

>>> from repro.scenario import ClusterArgs
>>> scenario = ClusterArgs(nodes=3, gpus=2,
...                        fault=["straggler:node=2,compute=0.5"])
>>> platform = scenario.build_platform()
>>> platform.num_nodes, platform.num_gpus
(3, 6)
>>> config = scenario.build_config(overlap="pipeline")
>>> len(config.faults), config.elastic
(1, True)
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, fields
from typing import List, Optional, Sequence

from repro.core import (
    ALLREDUCE_ALGORITHMS,
    COMM_MODES,
    PLACEMENT_POLICIES,
    HongTuConfig,
)
from repro.errors import ConfigurationError, require_count
from repro.faults import FaultSchedule
from repro.hardware import (
    A100_CLUSTER,
    NODE_SPECS,
    ClusterPlatform,
    TOPOLOGY_KINDS,
    NetworkTopology,
)

__all__ = ["ClusterArgs", "add_cluster_args", "resolve_node_specs"]


def add_cluster_args(parser: argparse.ArgumentParser) -> None:
    """Register the shared cluster/model flag set on ``parser``.

    Every flag's ``dest`` matches a :class:`ClusterArgs` field, so
    :meth:`ClusterArgs.from_namespace` round-trips the namespace without
    any per-command glue — and every flag's default *is* that field's.
    Commands add their own private flags (epochs, arrival processes, ...)
    on top.
    """
    defaults = ClusterArgs()
    parser.add_argument("--arch", default=defaults.arch,
                        choices=_model_choices(),
                        help="GNN architecture")
    parser.add_argument("--hidden-dim", type=int,
                        default=defaults.hidden_dim)
    parser.add_argument("--layers", type=int, default=defaults.layers)
    parser.add_argument("--chunks", type=int, default=defaults.chunks,
                        help="chunks per GPU (the paper's n)")
    parser.add_argument("--gpus", type=int, default=defaults.gpus,
                        help="GPUs per node")
    parser.add_argument("--comm-mode", default=defaults.comm_mode,
                        choices=list(COMM_MODES))
    parser.add_argument("--nodes", type=int, default=defaults.nodes,
                        help="simulated cluster nodes; > 1 runs --gpus "
                             "GPUs on each node of an A100 cluster with "
                             "halo exchange + gradient all-reduce on the "
                             "network")
    parser.add_argument("--node-spec", action="append",
                        default=defaults.node_spec,
                        metavar="NAME[:COUNT]",
                        help="per-node capability profile, repeatable "
                             f"(names: {', '.join(sorted(NODE_SPECS))}); "
                             "e.g. --node-spec a100:2 --node-spec v100 "
                             "builds a 3-node mixed-generation fleet. "
                             "Counts must sum to --nodes. Default: "
                             "--nodes identical A100 servers")
    parser.add_argument("--allreduce", default=defaults.allreduce,
                        choices=list(ALLREDUCE_ALGORITHMS),
                        help="inter-node gradient all-reduce schedule "
                             "(only with --nodes > 1)")
    parser.add_argument("--topology", default=defaults.topology,
                        choices=list(TOPOLOGY_KINDS),
                        help="cluster network topology (only with "
                             "--nodes > 1): flat = ideal non-blocking "
                             "switch (default, identical to the "
                             "pre-topology path), spine = oversubscribed "
                             "core shared by all node pairs, rail = one "
                             "rail per local GPU at 1/gpus of the link "
                             "rate each")
    parser.add_argument("--oversubscription", type=float,
                        default=defaults.oversubscription,
                        help="spine core oversubscription factor >= 1 "
                             "(1 = non-blocking, behaves exactly like "
                             "flat; only with --topology spine)")
    parser.add_argument("--placement", default=defaults.placement,
                        choices=list(PLACEMENT_POLICIES),
                        help="partition->node assignment (only with "
                             "--nodes > 1): block = contiguous default "
                             "(partition p on node p // gpus), search = "
                             "greedy-swap + KL placement search "
                             "minimizing cross-node halo rows, joint = "
                             "alternate the search with the schedule "
                             "reorganization until the combined "
                             "predicted cost stops improving (never "
                             "worse than search)")
    parser.add_argument("--max-imbalance", type=int,
                        default=defaults.max_imbalance,
                        help="allow per-node partition counts to deviate "
                             "from the exact m/nodes balance by up to "
                             "this many partitions when node host "
                             "memory admits the skew (only with "
                             "--placement search/joint)")
    parser.add_argument("--fault", action="append",
                        default=defaults.fault,
                        metavar="SPEC",
                        help="inject a fault into the fleet, repeatable "
                             "(only with --nodes > 1). Grammar: "
                             "straggler:node=N[,start=T][,end=T]"
                             "[,compute=F][,nic=F] | "
                             "link:src=A,dst=B,factor=F[,start=T][,end=T]"
                             " | death:node=N,at=T — times in simulated "
                             "seconds, factors in (0, 1]")
    parser.add_argument("--no-elastic", action="store_true",
                        default=defaults.no_elastic,
                        help="ride out stragglers with the static "
                             "placement instead of re-balancing online "
                             "(node deaths then abort the run)")
    parser.add_argument("--rebalance-trigger", type=float,
                        default=defaults.rebalance_trigger,
                        help="straggler sensitivity: re-balance once an "
                             "epoch runs this factor slower than the "
                             "faultless baseline (> 1; deaths always "
                             "re-balance)")


def _model_choices() -> List[str]:
    from repro.gnn import MODEL_REGISTRY

    return sorted(MODEL_REGISTRY)


def resolve_node_specs(entries: Sequence[str], nodes: int, gpus: int):
    """``NAME[:COUNT]`` entries → one capability profile per node.

    Raises :class:`~repro.errors.ConfigurationError`, naming the flag, on
    unknown names, malformed counts, or a total that disagrees with
    ``--nodes``; deeper validation (positive rates etc.) lives in
    :class:`~repro.hardware.spec.ClusterSpec`.
    """
    specs = []
    for entry in entries:
        name, _, count_text = entry.partition(":")
        name = name.strip().lower()
        if name not in NODE_SPECS:
            raise ConfigurationError(
                f"--node-spec: unknown profile {name!r}; choose from "
                f"{', '.join(sorted(NODE_SPECS))}"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ConfigurationError(
                f"--node-spec: count in {entry!r} must be an integer"
            ) from None
        if count < 1:
            raise ConfigurationError(
                f"--node-spec: count in {entry!r} must be >= 1"
            )
        specs.extend([NODE_SPECS[name].with_num_gpus(gpus)] * count)
    if len(specs) != nodes:
        raise ConfigurationError(
            f"--node-spec entries name {len(specs)} node(s) but "
            f"--nodes={nodes}; make the counts sum to the node count"
        )
    return tuple(specs)


@dataclass
class ClusterArgs:
    """The shared cluster/model vocabulary, as plain data.

    Field names match the argparse ``dest`` of the corresponding
    :func:`add_cluster_args` flag one-for-one, and the flags take their
    defaults from these fields, so a scenario built in Python
    (benchmarks) and one parsed from a command line cannot diverge.
    """

    arch: str = "gcn"
    hidden_dim: int = 64
    layers: int = 2
    chunks: int = 4
    gpus: int = 4
    comm_mode: str = "hongtu"
    nodes: int = 1
    node_spec: Optional[List[str]] = None
    allreduce: str = "ring"
    topology: str = "flat"
    oversubscription: float = 1.0
    placement: str = "block"
    max_imbalance: int = 0
    fault: Optional[List[str]] = None
    no_elastic: bool = False
    rebalance_trigger: float = 1.05
    seed: int = 0

    def __post_init__(self) -> None:
        # The seed feeds the model's weights before any config exists.
        require_count("seed", self.seed, 0)

    @classmethod
    def from_namespace(cls, args: argparse.Namespace) -> "ClusterArgs":
        """Lift a parsed namespace into the dataclass.

        Only fields present on the namespace are taken (commands without
        some flag keep the dataclass default), so partial namespaces —
        e.g. ``analyze``'s, which has no ``--topology`` — still lift.
        """
        kwargs = {}
        for spec in fields(cls):
            if hasattr(args, spec.name):
                kwargs[spec.name] = getattr(args, spec.name)
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # derived pieces
    # ------------------------------------------------------------------
    def usage_error(self) -> Optional[str]:
        """Flag-combination mistakes argparse cannot express, or None.

        The checks that need cross-flag context (argparse validates one
        flag at a time): topologies and faults need a cluster to act on.
        """
        if self.nodes == 1 and self.topology != "flat":
            return (f"--topology {self.topology} needs --nodes > 1 "
                    "(a single server has no cluster network)")
        if self.oversubscription != 1.0 and self.topology != "spine":
            return (f"--oversubscription {self.oversubscription:g} needs "
                    "--topology spine (flat and rail fabrics have no "
                    "shared core to oversubscribe)")
        if self.fault and self.nodes == 1:
            return ("--fault needs --nodes > 1 (a one-node fleet has "
                    "no survivors to re-balance onto)")
        return None

    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The parsed :class:`FaultSchedule`, or None without ``--fault``.

        Raises :class:`~repro.errors.FaultError` on a malformed spec;
        fleet-level validation (node indices vs the platform's node
        count) happens at trainer construction.
        """
        if not self.fault:
            return None
        return FaultSchedule.from_specs(self.fault)

    def model_dims(self, graph) -> List[int]:
        """Layer dimensions of the scenario's GNN on ``graph``.

        Raises :class:`~repro.errors.ConfigurationError` naming the field
        unless ``layers`` and ``hidden_dim`` are both >= 1.
        """
        require_count("layers", self.layers, 1)
        require_count("hidden_dim", self.hidden_dim, 1)
        return ([graph.feature_dim]
                + [self.hidden_dim] * (self.layers - 1)
                + [graph.num_classes])

    def build_model(self, graph):
        """The scenario's GNN with seed-deterministic weights."""
        import numpy as np

        from repro.gnn import build_model

        return build_model(self.arch, self.model_dims(graph),
                           np.random.default_rng(self.seed))

    def build_platform(self):
        """The simulated platform every command and bench shares.

        A :class:`ClusterPlatform` of ``nodes`` servers (A100 nodes by
        default, ``node_spec`` profiles otherwise) wired with the
        scenario's topology; ``nodes == 1`` is the paper's standalone
        server, priced bit-identically to ``MultiGPUPlatform``. A fleet
        the flags cannot describe raises
        :class:`~repro.errors.ConfigurationError`.
        """
        cluster = A100_CLUSTER.with_num_nodes(self.nodes).with_topology(
            NetworkTopology(kind=self.topology,
                            oversubscription=self.oversubscription))
        if self.node_spec:
            cluster = cluster.with_node_specs(resolve_node_specs(
                self.node_spec, self.nodes, self.gpus))
        return ClusterPlatform(cluster, gpus_per_node=self.gpus)

    def build_config(self, **overrides) -> HongTuConfig:
        """The :class:`HongTuConfig` this scenario describes.

        ``overrides`` set command-private knobs (``intermediate_policy``,
        ``overlap``, ...) on top of the shared vocabulary; a key present
        in both wins from ``overrides``. The fleet's shape (``nodes``,
        ``topology``, ``oversubscription``) goes to
        :meth:`build_platform` only; the trainer checks the fault
        schedule against that platform's node count.
        """
        kwargs = dict(
            num_chunks=self.chunks,
            comm_mode=self.comm_mode,
            allreduce=self.allreduce,
            placement=self.placement,
            max_imbalance=self.max_imbalance,
            faults=self.fault_schedule(),
            elastic=not self.no_elastic,
            rebalance_trigger=self.rebalance_trigger,
            seed=self.seed,
        )
        kwargs.update(overrides)
        return HongTuConfig(**kwargs)
