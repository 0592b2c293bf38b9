"""Figure 8 — validation-accuracy curves: full-graph vs mini-batch GCN.

Trains three systems on reddit_sim and products_sim:

* DGL-FG  — monolithic full-graph training (the reference),
* HongTu-FG — chunked offloaded training (must track DGL-FG exactly),
* DGL-MB  — sampled mini-batch training (fanout 10).

Expected shape (paper): HongTu-FG and DGL-FG curves coincide (identical
semantics); mini-batch reaches a different operating point — slightly lower
validation accuracy on reddit, competitive on products.
"""


from repro.autograd import Adam
from repro.baselines import FullGraphTrainer, MiniBatchTrainer
from repro.bench import render_table
from repro.core import HongTuConfig, HongTuTrainer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform

from benchmarks._common import emit, fig8_claims, paper_model

EPOCHS = 40
CHECK_EVERY = 5
SCALE = 0.25  # accuracy runs train for many epochs; keep graphs modest
HIDDEN = 64


def train_curves(dataset, scale=SCALE, epochs=EPOCHS):
    graph = load_dataset(dataset, scale=scale)

    def model():
        return paper_model("gcn", graph, 2, HIDDEN, seed=7)

    reference_model = model()
    reference = FullGraphTrainer(
        graph, reference_model,
        optimizer=Adam(reference_model.parameters(), lr=0.01),
    )
    hongtu_model = model()
    hongtu = HongTuTrainer(
        graph, hongtu_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, seed=0),
        optimizer=Adam(hongtu_model.parameters(), lr=0.01),
    )
    minibatch_model = model()
    minibatch = MiniBatchTrainer(
        graph, minibatch_model, MultiGPUPlatform(A100_SERVER),
        fanout=10, batch_size=128,
        optimizer=Adam(minibatch_model.parameters(), lr=0.01),
    )

    curves = {"DGL-FG": [], "HongTu-FG": [], "DGL-MB": []}
    for epoch in range(1, epochs + 1):
        reference.train_epoch()
        hongtu.train_epoch()
        minibatch.train_epoch()
        if epoch % CHECK_EVERY == 0:
            curves["DGL-FG"].append(reference.evaluate())
            curves["HongTu-FG"].append(hongtu.evaluate())
            curves["DGL-MB"].append(minibatch.evaluate())
    return curves


def build_table(dataset, curves):
    rows = []
    epochs = list(range(CHECK_EVERY, EPOCHS + 1, CHECK_EVERY))
    for index, epoch in enumerate(epochs):
        rows.append([
            epoch,
            f"{curves['DGL-FG'][index]['val_accuracy']:.3f}",
            f"{curves['HongTu-FG'][index]['val_accuracy']:.3f}",
            f"{curves['DGL-MB'][index]['val_accuracy']:.3f}",
        ])
    final = [
        "final (val, test)",
        _final(curves["DGL-FG"]),
        _final(curves["HongTu-FG"]),
        _final(curves["DGL-MB"]),
    ]
    rows.append(final)
    return render_table(
        ["Epoch", "DGL-FG val", "HongTu-FG val", "DGL-MB val"],
        rows,
        title=f"Figure 8 ({dataset}): GCN validation accuracy curves",
    )


def _final(curve):
    last = curve[-1]
    return f"({last['val_accuracy']:.3f}, {last['test_accuracy']:.3f})"


def _run_and_check(dataset):
    curves = train_curves(dataset)
    classes = load_dataset(dataset, scale=SCALE).num_classes
    failed = [name for name, held in fig8_claims(curves, classes).items()
              if not held]
    assert not failed, failed
    return build_table(dataset, curves)


def bench_fig8_reddit(benchmark):
    table = benchmark.pedantic(_run_and_check, args=("reddit_sim",),
                               rounds=1, iterations=1)
    emit("fig8_accuracy_reddit", table)


def bench_fig8_products(benchmark):
    table = benchmark.pedantic(_run_and_check, args=("products_sim",),
                               rounds=1, iterations=1)
    emit("fig8_accuracy_products", table)
