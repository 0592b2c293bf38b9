"""§5.3 "Effectiveness with various interconnects".

The paper argues the framework helps on every server class: with NVLink,
both inter-GPU dedup (+P2P) and intra-GPU reuse (+RU) pay off; on a
PCIe-only server where T_dd == T_hd, P2P brings nothing but RU alone still
"yields considerable reductions".

This bench trains the same GCN workload on the NVLink platform and the
PCIe-only platform under the four communication modes.
"""

from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, PCIE_ONLY_SERVER, MultiGPUPlatform

from benchmarks._common import BENCH_SCALE, emit, paper_model

DATASET = "papers_sim"
CHUNKS = 16
HIDDEN = 128
MODES = ["baseline", "p2p", "ru", "hongtu"]


def run_matrix():
    graph = load_dataset(DATASET, scale=BENCH_SCALE)
    results = {}
    for spec in (A100_SERVER, PCIE_ONLY_SERVER):
        for mode in MODES:
            model = paper_model("gcn", graph, 3, HIDDEN, seed=1)
            trainer = HongTuTrainer(
                graph, model, MultiGPUPlatform(spec),
                HongTuConfig(num_chunks=CHUNKS, comm_mode=mode, seed=0),
            )
            results[(spec.name, mode)] = trainer.train_epoch()
    return results


def build_table(results):
    rows = []
    for (platform, mode), result in results.items():
        rows.append([
            platform, mode,
            f"{result.epoch_seconds:.5f}",
            f"{result.clock.seconds['h2d']:.5f}",
            f"{result.clock.seconds['d2h']:.5f}",
            f"{result.clock.seconds['d2d']:.5f}",
        ])
    return render_table(
        ["Platform", "Mode", "Epoch s", "H2D s", "D2H s", "D2D s"],
        rows,
        title="Interconnect sensitivity (GCN on papers_sim, simulated)",
    )


def bench_interconnects(benchmark):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    emit("interconnect_sensitivity", build_table(results))

    nvlink, pcie = A100_SERVER.name, PCIE_ONLY_SERVER.name
    # NVLink: the full ladder is monotone.
    assert results[(nvlink, "p2p")].epoch_seconds < \
        results[(nvlink, "baseline")].epoch_seconds
    assert results[(nvlink, "hongtu")].epoch_seconds < \
        results[(nvlink, "p2p")].epoch_seconds
    # PCIe-only: RU alone still clearly beats the baseline...
    assert results[(pcie, "ru")].epoch_seconds < \
        0.95 * results[(pcie, "baseline")].epoch_seconds
    # ...while P2P helps far less than it does on NVLink (T_dd == T_hd).
    nvlink_p2p_gain = (results[(nvlink, "baseline")].epoch_seconds
                       / results[(nvlink, "p2p")].epoch_seconds)
    pcie_p2p_gain = (results[(pcie, "baseline")].epoch_seconds
                     / results[(pcie, "p2p")].epoch_seconds)
    assert nvlink_p2p_gain > pcie_p2p_gain
