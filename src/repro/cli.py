"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``train``    — train a GNN with HongTu on a stand-in dataset and report
               loss/accuracy plus the simulated cost profile.
``serve``    — drive request traffic (Poisson or bursty arrivals, with an
               admission/batching policy) against the partitioned graph
               and report p50/p95/p99 latency and goodput.
``analyze``  — partition a dataset and print the communication-volume and
               Eq. 4 cost analysis for each communication mode.
``memory``   — print the Table 1-style working-set estimate for a dataset
               (stand-in scale and paper scale).
``datasets`` — list available datasets with their paper-scale profiles.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.reporting import (
    format_bytes,
    format_seconds,
    render_latency_report,
    render_node_utilization,
    render_table,
    render_timeline,
)
from repro.comm import measure_volumes
from repro.core import (
    INTERMEDIATE_POLICIES,
    OVERLAP_POLICIES,
    HongTuTrainer,
    estimate_training_memory,
)
from repro.errors import (
    ConfigurationError,
    FaultError,
    PartitionError,
    ServingError,
)
from repro.gnn import MODEL_REGISTRY
from repro.graph import available_datasets, load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform
from repro.partition import two_level_partition
from repro.scenario import ClusterArgs, add_cluster_args
from repro.serving import (
    ARRIVAL_KINDS,
    BATCH_POLICIES,
    build_arrivals,
    build_policy,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HongTu reproduction: full-graph GNN training with "
                    "CPU data offloading on a simulated multi-GPU server.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a model with HongTu")
    _add_dataset_args(train)
    add_cluster_args(train)
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--policy", default="hybrid",
                       choices=list(INTERMEDIATE_POLICIES))
    train.add_argument("--overlap", default="barrier",
                       choices=list(OVERLAP_POLICIES),
                       help="epoch scheduling: barrier-synchronized phases "
                            "(the paper's Algorithms 1-3) or pipelined "
                            "transfer/compute overlap")
    train.add_argument("--lr", type=float, default=0.01)
    train.add_argument("--profile", action="store_true",
                       help="wrap the first training epoch in cProfile "
                            "and print the top-25 cumulative entries "
                            "(simulator wall clock, not simulated time)")

    serve = sub.add_parser(
        "serve",
        help="serve request traffic against the partitioned graph",
    )
    _add_dataset_args(serve)
    add_cluster_args(serve)
    serve.add_argument("--train-epochs", type=int, default=0,
                       help="hybrid-policy training epochs to run first; "
                            "their aggregate checkpoints pre-warm the "
                            "serving embedding cache")
    serve.add_argument("--arrival", default="poisson",
                       choices=list(ARRIVAL_KINDS),
                       help="request arrival process")
    serve.add_argument("--rate", type=float, default=100.0,
                       help="offered load in requests/second (equal "
                            "across arrival kinds)")
    serve.add_argument("--duration", type=float, default=1.0,
                       help="arrival horizon in simulated seconds")
    serve.add_argument("--burst-size", type=int, default=8,
                       help="requests per burst epoch (only with "
                            "--arrival bursty)")
    serve.add_argument("--batch-policy", default="immediate",
                       choices=list(BATCH_POLICIES),
                       help="admission policy: immediate = one request "
                            "per batch, size = groups of --batch-size, "
                            "deadline = --batch-timeout windows")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="K of the size-K batching policy")
    serve.add_argument("--batch-timeout", type=float, default=0.005,
                       help="window of the deadline batching policy "
                            "(seconds; bounds per-request admission "
                            "delay)")
    serve.add_argument("--slo", type=float, default=0.1,
                       help="latency SLO in seconds (goodput counts "
                            "requests at or under it)")
    serve.add_argument("--cache-budget", type=float, default=None,
                       metavar="BYTES",
                       help="host-byte budget for the serving embedding "
                            "cache (e.g. 2e9); warm pairs past it are "
                            "evicted least-recently-used first. Default: "
                            "unbounded")

    analyze = sub.add_parser("analyze",
                             help="communication-volume / cost analysis")
    _add_dataset_args(analyze)
    analyze.add_argument("--chunks", type=int, default=8)
    analyze.add_argument("--gpus", type=int, default=4)
    analyze.add_argument("--row-bytes", type=int, default=512)

    memory = sub.add_parser("memory", help="working-set estimate")
    _add_dataset_args(memory)
    memory.add_argument("--arch", choices=sorted(MODEL_REGISTRY),
                        default="gcn")
    memory.add_argument("--hidden-dim", type=int, default=128)
    memory.add_argument("--layers", type=int, default=3)

    sub.add_parser("datasets", help="list datasets")
    return parser


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", choices=available_datasets(),
                        default="reddit_sim")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)


def _build_scenario(args):
    """(scenario, platform) for train/serve.

    Returns ``(scenario, None)`` plus a printed argparse-style message
    when the flag combination cannot describe a fleet; the command then
    exits 2 like any other usage error.
    """
    scenario = ClusterArgs.from_namespace(args)
    problem = scenario.usage_error()
    if problem is None:
        try:
            return scenario, scenario.build_platform()
        except ConfigurationError as error:
            problem = str(error)
    print(problem, file=sys.stderr)
    return scenario, None


def cmd_train(args) -> int:
    if args.epochs < 1:
        print(f"--epochs must be >= 1, got {args.epochs}", file=sys.stderr)
        return 2
    scenario, platform = _build_scenario(args)
    if platform is None:
        return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed + 42)
    dims = scenario.model_dims(graph)
    model = scenario.build_model(graph)
    from repro.autograd import Adam

    try:
        config = scenario.build_config(intermediate_policy=args.policy,
                                       overlap=args.overlap)
        # The trainer checks the fault schedule against the fleet.
        trainer = HongTuTrainer(
            graph, model, platform, config,
            optimizer=Adam(model.parameters(), lr=args.lr))
    except (ConfigurationError, FaultError) as error:
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2
    wiring = "" if args.nodes == 1 else f", {args.topology} network"
    print(f"training {args.arch} {dims} on {graph} "
          f"({args.nodes} node(s) x {args.gpus} GPUs x {args.chunks} "
          f"chunks, {args.comm_mode}, {args.overlap}{wiring})")
    placed = trainer.placement_result
    if placed is not None:
        moved = f", {placed.moves} moves" if placed.moves else ""
        print(f"placement search: cross-node halo rows "
              f"{placed.rows_block:,} -> {placed.rows_search:,} per "
              f"epoch-layer ({placed.swaps} swaps{moved}, "
              f"{placed.refinement_passes} refinement pass(es)); "
              f"assignment {placed.placement.tolist()} "
              f"(per-node counts {placed.node_counts})")
        iterations = getattr(placed, "iterations", None)
        if iterations:
            steps = "; ".join(
                f"it{it.index}: rows {it.rows_before:,}->{it.rows_after:,}"
                f", cost {it.cost:.6f}s"
                + (" (schedule kept)" if it.reorg_kept_schedule else "")
                for it in iterations
            )
            print(f"joint iteration: {steps}")
    for epoch in range(1, args.epochs + 1):
        result = (_profiled_epoch(trainer) if epoch == 1 and args.profile
                  else trainer.train_epoch())
        print(f"  epoch {epoch:3d}  loss={result.loss:.4f}  "
              f"sim={format_seconds(result.epoch_seconds)}  "
              f"peakGPU={format_bytes(result.peak_gpu_bytes)}")
        if result.rebalance is not None:
            event = result.rebalance
            dead = (f", dead nodes {sorted(event.dead_nodes)}"
                    if event.dead_nodes else "")
            print(f"  re-balance ({event.trigger} trigger{dead}): "
                  f"{list(event.placement_before)} -> "
                  f"{list(event.placement_after)}, "
                  f"{len(event.moved_partitions)} partition(s) moved, "
                  f"{format_bytes(event.migration_bytes)} migrated in "
                  f"{format_seconds(event.migration_seconds)}")
    metrics = trainer.evaluate()
    for name, value in metrics.items():
        print(f"{name}: {value:.4f}")
    # The tables describe the loop's last epoch, the one logged above.
    print("epoch time breakdown:",
          ", ".join(f"{k}={format_seconds(v)}"
                    for k, v in result.clock.as_dict().items()))
    print(render_timeline(result.timeline,
                          title="epoch channel utilization"))
    if args.nodes > 1:
        print(render_node_utilization(
            result.timeline, platform,
            title="per-node busy seconds "
                  f"(net = {format_bytes(result.net_bytes)} halo+all-reduce)",
        ))
    return 0


def _profiled_epoch(trainer):
    """One epoch under cProfile; prints the top-25 cumulative entries.

    Profiles the *simulator's* wall clock — where Python time goes while
    producing the simulated timeline — the working tool behind the
    vectorized scheduler/executor hot paths.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    result = profiler.runcall(trainer.train_epoch)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(25)
    return result


def cmd_serve(args) -> int:
    if args.train_epochs < 0:
        print(f"--train-epochs must be >= 0, got {args.train_epochs}",
              file=sys.stderr)
        return 2
    scenario, platform = _build_scenario(args)
    if platform is None:
        return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed + 42)
    dims = scenario.model_dims(graph)
    model = scenario.build_model(graph)
    budget = args.cache_budget  # "2e9" parses as a float
    if budget is not None and budget.is_integer():
        budget = int(budget)  # anything else the engine rejects
    try:
        config = scenario.build_config(intermediate_policy="hybrid",
                                       overlap="pipeline")
        # The trainer checks the fault schedule against the fleet.
        trainer = HongTuTrainer(graph, model, platform, config)
        # Everything a flag can get wrong is judged before any epoch.
        engine = trainer.serving_engine(cache_budget_bytes=budget)
        arrivals = build_arrivals(args.arrival, args.rate, args.duration,
                                  seed=args.seed, burst_size=args.burst_size)
        policy = build_policy(args.batch_policy, batch_size=args.batch_size,
                              batch_timeout=args.batch_timeout)
    except (ConfigurationError, FaultError, ServingError) as error:
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2
    for _ in range(args.train_epochs):
        trainer.train_epoch()
    engine.warm_from_checkpoints()
    wiring = "" if args.nodes == 1 else f", {args.topology} network"
    print(f"serving {args.arch} {dims} on {graph} "
          f"({args.nodes} node(s) x {args.gpus} GPUs x {args.chunks} "
          f"chunks{wiring}; {engine.warm_pairs} warm cache pair(s))")
    try:
        result = engine.serve(arrivals, policy, slo=args.slo)
    except ServingError as error:  # a bad --slo
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2
    print(render_latency_report(
        result,
        title=f"{arrivals!r} under {policy.describe()} "
              f"(seed {args.seed})",
    ))
    if budget is not None:
        print(f"embedding cache: {format_bytes(engine.cache_bytes)} of "
              f"{format_bytes(budget)} budget in use, "
              f"{result.cache_evictions} eviction(s) this run")
    if args.nodes > 1:
        print(render_node_utilization(
            result.timeline, platform,
            title="per-node busy seconds",
        ))
    return 0


def cmd_analyze(args) -> int:
    for flag, value in (("--gpus", args.gpus), ("--chunks", args.chunks),
                        ("--row-bytes", args.row_bytes)):
        if value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed + 42)
    try:
        partition = two_level_partition(graph, args.gpus, args.chunks,
                                        seed=args.seed)
    except PartitionError as error:  # e.g. --seed -1
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2
    volumes = measure_volumes(partition)
    normalized = volumes.normalized()
    platform = MultiGPUPlatform(A100_SERVER)
    rows = [
        ["vanilla (V_ori)", f"{normalized['v_ori']:.2f}",
         format_seconds(platform.h2d_seconds(volumes.v_ori * args.row_bytes))],
        ["inter-GPU dedup", f"-{normalized['inter_gpu_dedup']:.2f}", ""],
        ["intra-GPU reuse", f"-{normalized['intra_gpu_dedup']:.2f}", ""],
        ["deduplicated (V+ru)", f"{normalized['v_ru']:.2f}",
         format_seconds(platform.dedup_seconds(volumes, args.row_bytes))],
    ]
    print(render_table(
        ["component", "rows / |V|", "Eq.4 cost per layer sweep"],
        rows,
        title=f"communication analysis: {graph} as {args.gpus}x{args.chunks}"
              f" chunks ({100 * volumes.reduction_fraction:.0f}% host "
              "traffic eliminated)",
    ))
    return 0


def cmd_memory(args) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed + 42)
    dims = ClusterArgs.from_namespace(args).model_dims(graph)
    standin = estimate_training_memory(
        graph.num_vertices, graph.num_edges, dims, arch=args.arch
    )
    profile = graph.scale_profile
    paper_dims = [profile.feature_dim, *dims[1:-1], profile.num_labels]
    paper = estimate_training_memory(
        profile.num_vertices, profile.num_edges, paper_dims, arch=args.arch
    )
    rows = [
        ["stand-in", graph.num_vertices, graph.num_edges,
         format_bytes(standin.topology_bytes),
         format_bytes(standin.vertex_data_bytes),
         format_bytes(standin.intermediate_bytes),
         format_bytes(standin.total_bytes)],
        [f"paper ({profile.name})", profile.num_vertices,
         profile.num_edges,
         format_bytes(paper.topology_bytes),
         format_bytes(paper.vertex_data_bytes),
         format_bytes(paper.intermediate_bytes),
         format_bytes(paper.total_bytes)],
    ]
    print(render_table(
        ["graph", "|V|", "|E|", "topology", "vertex data", "intermediate",
         "total"],
        rows,
        title=f"{args.arch} {dims} training working set",
    ))
    return 0


def cmd_datasets(_args) -> int:
    rows = []
    for name in available_datasets():
        graph = load_dataset(name, scale=0.1)
        profile = graph.scale_profile
        rows.append([
            name, profile.name, profile.kind,
            f"{profile.num_vertices:,}", f"{profile.num_edges:,}",
            profile.feature_dim, profile.num_labels,
        ])
    print(render_table(
        ["stand-in", "represents", "kind", "paper |V|", "paper |E|",
         "#F", "#L"],
        rows,
    ))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "train": cmd_train,
        "serve": cmd_serve,
        "analyze": cmd_analyze,
        "memory": cmd_memory,
        "datasets": cmd_datasets,
    }[args.command]
    try:
        return handler(args)
    except ConfigurationError as error:  # e.g. --scale nan, --layers 0
        print(f"bad scenario: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
