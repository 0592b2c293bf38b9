"""Serving throughput vs latency under Poisson and bursty traffic.

The serving subsystem (``repro.serving``) turns the epoch simulator into
a request-driven one; this benchmark sweeps offered load over the two
arrival shapes at *equal* expected requests/second and reports the
latency percentiles next to the achieved throughput — the classic
serving trade-off curve. The headline property (asserted by the smoke,
gated in CI): bursty traffic's p99 latency strictly dominates Poisson's
at the same offered load, because burst epochs pile requests onto the
same accelerator queues while the memoryless process spreads them out.

``bench_serving_smoke`` serves one Poisson and one bursty horizon on a
2-node cluster (so halo fetches are exercised), asserts the p99
separation and timeline validity, and archives the simulated p50/p99
(15% gate) into the bench-regression harness.

``bench_serving_sweep`` sweeps rates × arrival kinds at bench scale and
prints the throughput-vs-latency table.
"""

from repro.bench import format_seconds, render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_CLUSTER, A100_SERVER, ClusterPlatform
from repro.serving import ServingEngine, build_arrivals, build_policy

from benchmarks._common import BENCH_SCALE, emit, emit_json, paper_model

DATASET = "reddit_sim"
HIDDEN = 32
NUM_CHUNKS = 2
NODES = 2
GPUS_PER_NODE = 2
DURATION = 0.5
SEED = 7
#: offered loads of the throughput-vs-latency sweep (requests/second)
RATES = [200.0, 1000.0, 5000.0]


def build_serving_trainer(scale=BENCH_SCALE):
    """A 2-node cluster trainer: serving halo fetches cross the network."""
    graph = load_dataset(DATASET, scale=scale, seed=2)
    cluster = A100_CLUSTER.with_num_nodes(NODES).with_node(
        A100_SERVER.with_num_gpus(GPUS_PER_NODE))
    platform = ClusterPlatform(cluster)
    model = paper_model("gcn", graph, 2, HIDDEN, seed=7)
    return HongTuTrainer(
        graph, model, platform,
        HongTuConfig(num_chunks=NUM_CHUNKS, overlap="pipeline",
                     seed=0),
    )


def run_serving(trainer, kind, rate):
    """One immediate-policy horizon on a fresh engine (cold cache)."""
    engine = ServingEngine(trainer)
    arrivals = build_arrivals(kind, rate, DURATION, seed=SEED)
    return engine.serve(arrivals, build_policy("immediate"))


def build_table(results, title):
    rows = [
        [result.arrival_kind, f"{result.num_requests}",
         f"{result.throughput:,.0f}",
         format_seconds(result.p50), format_seconds(result.p95),
         format_seconds(result.p99),
         f"{result.cache_hit_rate:.0%}"]
        for result in results
    ]
    return render_table(
        ["arrival", "requests", "req/s", "p50", "p95", "p99",
         "cache hits"],
        rows, title=title,
    )


# ----------------------------------------------------------------------
# CI smoke: bursty p99 strictly dominates Poisson p99 at equal load
# ----------------------------------------------------------------------
def run_smoke(rate=400.0):
    trainer = build_serving_trainer(scale=0.3)
    poisson = run_serving(trainer, "poisson", rate)
    bursty = run_serving(trainer, "bursty", rate)
    return poisson, bursty


def check_smoke(poisson, bursty):
    # Equal offered load, different clustering: the burst queues must
    # inflate the tail strictly (the serving subsystem's acceptance
    # property), and both timelines must be consistent DAGs.
    assert poisson.num_requests > 0 and bursty.num_requests > 0
    assert bursty.p99 > poisson.p99
    assert poisson.net_bytes > 0  # halo fetches crossed the network
    poisson.timeline.validate()
    bursty.timeline.validate()


def bench_serving_smoke(benchmark):
    poisson, bursty = benchmark.pedantic(run_smoke, rounds=1, iterations=1)
    emit("serving_smoke", build_table(
        [poisson, bursty],
        title=f"Serving smoke ({DATASET}, {NODES}x{GPUS_PER_NODE} GPUs, "
              "immediate policy, equal offered load)",
    ))
    emit_json("serving_smoke", {
        "poisson_p50_seconds": poisson.p50,
        "poisson_p99_seconds": poisson.p99,
        "bursty_p99_seconds": bursty.p99,
    })
    check_smoke(poisson, bursty)


# ----------------------------------------------------------------------
# throughput-vs-latency sweep
# ----------------------------------------------------------------------
def run_sweep():
    trainer = build_serving_trainer()
    return [run_serving(trainer, kind, rate)
            for rate in RATES for kind in ("poisson", "bursty")]


def bench_serving_sweep(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("serving_sweep", build_table(
        results,
        title=f"Serving sweep ({DATASET}, {NODES}x{GPUS_PER_NODE} GPUs, "
              f"immediate policy; rates {RATES})",
    ))
