"""Fault-injected fleet: online elastic re-balance vs riding it out.

The fault subsystem perturbs per-device rates over simulated time
(:mod:`repro.faults`) and the trainer reacts at epoch boundaries: a
straggling node shows up as an epoch makespan past the
``rebalance_trigger`` threshold, the placement search re-runs against
the degraded capability/bandwidth vectors, and the moved partitions'
state is migrated on the timeline. This benchmark measures the piece
that justifies the machinery, twice:

* **straggler** — one node of a 3-node fleet loses 80% of its compute
  and 90% of its NIC mid-run. Elastic re-balancing must make the
  steady-state (post-migration) epoch strictly faster than the static
  placement riding out the same fault, *and* leave the numerics
  untouched (the loss stream is placement-invariant).
* **death** — one node dies mid-run. Training must complete with every
  partition re-admitted onto the survivors and the dead node serving
  nothing.

``bench_faulty_fleet_smoke`` asserts both and archives the makespans
plus the migration volume into the bench-regression harness, with the
producing config recorded for provenance.

Both fleets are described through :func:`benchmarks._common.fleet_scenario`
— the same :class:`~repro.scenario.ClusterArgs` path the CLI parses
``--fault`` specs into, so the bench exercises the shared scenario API
end to end.
"""

import math

from repro.bench import format_bytes, format_seconds, render_table
from repro.core import HongTuTrainer
from repro.graph import load_dataset

from benchmarks._common import emit, emit_json, fleet_scenario

DATASET = "products_sim"
#: smoke scale — small enough for CI, large enough that the straggled
#: fleet's placement search has real skew to exploit
SMOKE_SCALE = 0.08
NODES = 3
GPUS_PER_NODE = 2
HIDDEN = 8
EPOCHS = 9
#: the straggler loses 80% compute / 90% NIC; a fleet that cannot route
#: around that pays for it every epoch
COMPUTE_FACTOR = 0.2
NIC_FACTOR = 0.1
DEAD_NODE = 1
SEED = 0


def _scenario(fault=None, no_elastic=False):
    return fleet_scenario(
        nodes=NODES, gpus=GPUS_PER_NODE, hidden_dim=HIDDEN,
        placement="search", max_imbalance=2, seed=SEED,
        fault=fault, no_elastic=no_elastic,
    )


def _trainer(scenario, scale):
    graph = load_dataset(DATASET, scale=scale, seed=SEED + 42)
    config = scenario.build_config(overlap="pipeline")
    return HongTuTrainer(graph, scenario.build_model(graph),
                         scenario.build_platform(), config), config


def _probe_epoch_seconds(scale):
    """Faultless epoch makespan — the unit fault times are phrased in.

    Fault schedules are anchored in simulated fleet-seconds; phrasing
    start/death times as multiples of the faultless epoch makespan keeps
    the bench scale-independent (epoch 1-2 calibrate the detector's
    baseline, the fault lands around epoch 3).
    """
    trainer, _ = _trainer(_scenario(), scale)
    return trainer.train_epoch().epoch_seconds


def run_faulty_fleet(scale):
    """Straggler (elastic vs static) + death (elastic) runs.

    All runs share the dataset, model weights and fault timing; the
    straggler pair differs only in ``no_elastic``.
    """
    epoch0 = _probe_epoch_seconds(scale)
    straggler = (f"straggler:node={NODES - 1},start={2.5 * epoch0}"
                 f",compute={COMPUTE_FACTOR},nic={NIC_FACTOR}")
    death = f"death:node={DEAD_NODE},at={2.5 * epoch0}"

    runs = {}
    for label, fault, static in (("elastic", straggler, False),
                                 ("static", straggler, True),
                                 ("death", death, False)):
        trainer, config = _trainer(
            _scenario(fault=[fault], no_elastic=static), scale)
        epochs = [trainer.train_epoch() for _ in range(EPOCHS)]
        runs[label] = (trainer, epochs, config)
    return runs


# ----------------------------------------------------------------------
# CI smoke: elastic strictly beats static; deaths fully re-admit
# ----------------------------------------------------------------------
def check_fleet(runs):
    elastic, elastic_epochs, _ = runs["elastic"]
    static, static_epochs, _ = runs["static"]
    dead, dead_epochs, _ = runs["death"]

    # The straggler fired and the elastic trainer re-balanced around it;
    # its steady-state epoch strictly beats riding out the fault.
    assert elastic.rebalances, "elastic trainer never re-balanced"
    assert elastic.rebalances[0].trigger == "makespan"
    assert not static.rebalances
    assert (elastic_epochs[-1].epoch_seconds
            < static_epochs[-1].epoch_seconds)
    # Placement never touches numerics: identical loss streams.
    assert ([epoch.loss for epoch in elastic_epochs]
            == [epoch.loss for epoch in static_epochs])

    # The death re-balanced unconditionally and evacuated everything:
    # every partition lives on a survivor and training completed.
    assert dead.platform.dead_nodes == frozenset({DEAD_NODE})
    assert [event.trigger for event in dead.rebalances] == ["death"]
    assert DEAD_NODE not in set(dead.placement.tolist())
    assert len(dead.placement) == NODES * GPUS_PER_NODE
    assert all(math.isfinite(epoch.loss) for epoch in dead_epochs)
    for epochs in (elastic_epochs, static_epochs, dead_epochs):
        epochs[-1].timeline.validate()


def bench_faulty_fleet_smoke(benchmark):
    runs = benchmark.pedantic(run_faulty_fleet,
                              kwargs={"scale": SMOKE_SCALE},
                              rounds=1, iterations=1)
    emit("faulty_fleet_smoke", build_table(
        runs,
        title=f"Fault-injected fleet smoke ({DATASET}, {NODES} nodes x "
              f"{GPUS_PER_NODE} GPUs)",
    ))
    fleet = _scenario()
    emit_json("faulty_fleet_smoke", {
        "elastic_steady_seconds": runs["elastic"][1][-1].epoch_seconds,
        "static_steady_seconds": runs["static"][1][-1].epoch_seconds,
        "death_recovery_seconds": runs["death"][1][-1].epoch_seconds,
        "migration_bytes": sum(event.migration_bytes
                               for event in runs["elastic"][0].rebalances),
    }, config=runs["elastic"][2],
        fleet={"nodes": fleet.nodes, "topology": fleet.topology,
               "oversubscription": fleet.oversubscription})
    check_fleet(runs)


def build_table(runs, title):
    rows = []
    for label in ("elastic", "static", "death"):
        trainer, epochs, _ = runs[label]
        moved = sum(len(event.moved_partitions)
                    for event in trainer.rebalances)
        migrated = sum(event.migration_bytes
                       for event in trainer.rebalances)
        rows.append([
            label,
            str(trainer.placement.tolist()),
            f"{len(trainer.rebalances)} ({moved} partition(s), "
            f"{format_bytes(migrated)})" if trainer.rebalances else "-",
            format_seconds(epochs[-1].epoch_seconds),
        ])
    return render_table(
        ["run", "final placement", "re-balances", "steady-state epoch"],
        rows, title=title,
    )

