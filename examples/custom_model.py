"""Define a custom GNN layer and train it with HongTu.

Run with:  python examples/custom_model.py

The paper's computation engine lets users plug their own models in (§6).
Here we implement a gated graph layer — h' = sigmoid(gate) * tanh(value)
aggregated over neighbors — by subclassing
:class:`repro.gnn.layers.GNNLayer`. Because its AGGREGATE is a plain
degree-normalized mean (linear, constant coefficients) we can declare it
cacheable and supply the closed-form adjoint, so HongTu's hybrid
intermediate-data policy applies automatically.
"""

import numpy as np

from repro.autograd import Linear, Tensor, ops
from repro.core import HongTuConfig, HongTuTrainer
from repro.gnn import GNNModel
from repro.gnn.layers import GNNLayer
from repro.graph import load_dataset
from repro.hardware import A100_SERVER, MultiGPUPlatform


class GatedMeanLayer(GNNLayer):
    """h'_v = sigmoid(W_g [h_v ‖ m_v]) * tanh(W_c [h_v ‖ m_v]),
    where m_v is the mean of v's in-neighbors."""

    cacheable_aggregate = True
    update_uses_self = True

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        super().__init__(in_dim, out_dim)
        self.gate = Linear(2 * in_dim, out_dim, rng, dtype=dtype)
        self.value = Linear(2 * in_dim, out_dim, rng, dtype=dtype)

    def aggregate(self, block, h):
        # One sparse product over the block's cached operator (the neighbor
        # sum), then the 1/deg scale.
        total = ops.spmm(block.operator(h.dtype, weighted=False), h)
        inv_deg = 1.0 / np.maximum(block.in_degrees(), 1)
        return ops.mul(total, Tensor(inv_deg.reshape(-1, 1)))

    def update(self, block, agg, h_dst):
        combined = ops.concat([h_dst, agg], axis=1)
        return ops.mul(ops.sigmoid(self.gate(combined)),
                       ops.tanh(self.value(combined)))

    def aggregate_backward(self, block, grad_agg):
        # The adjoint is the product with the transposed operator.
        inv_deg = 1.0 / np.maximum(block.in_degrees(), 1)
        operator = block.operator(grad_agg.dtype, weighted=False)
        return operator.T @ (grad_agg * inv_deg.reshape(-1, 1))

    def aggregate_flops(self, num_src, num_dst, num_edges):
        return 2 * num_edges * self.in_dim + num_dst * self.in_dim

    def update_flops(self, num_dst):
        return 2 * 2 * num_dst * 2 * self.in_dim * self.out_dim


def main() -> None:
    graph = load_dataset("products_sim", scale=0.25, seed=1)
    rng = np.random.default_rng(0)
    model = GNNModel([
        GatedMeanLayer(graph.feature_dim, 48, rng),
        GatedMeanLayer(48, graph.num_classes, rng),
    ], arch="gated-mean")
    print(model)

    trainer = HongTuTrainer(
        graph, model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, seed=0),
    )
    for epoch in range(1, 16):
        result = trainer.train_epoch()
        if epoch % 5 == 0:
            print(f"epoch {epoch:2d}  loss={result.loss:.4f}")
    metrics = trainer.evaluate()
    print(f"val accuracy: {metrics['val_accuracy']:.3f}  "
          f"test accuracy: {metrics['test_accuracy']:.3f}")

    # Sanity: the custom layer trains chunked exactly like monolithic.
    from repro.baselines import FullGraphTrainer
    rng = np.random.default_rng(0)
    reference_model = GNNModel([
        GatedMeanLayer(graph.feature_dim, 48, rng),
        GatedMeanLayer(48, graph.num_classes, rng),
    ], arch="gated-mean")
    reference = FullGraphTrainer(graph, reference_model)
    reference.train_epoch()

    rng = np.random.default_rng(0)
    chunked_model = GNNModel([
        GatedMeanLayer(graph.feature_dim, 48, rng),
        GatedMeanLayer(48, graph.num_classes, rng),
    ], arch="gated-mean")
    chunked = HongTuTrainer(
        graph, chunked_model, MultiGPUPlatform(A100_SERVER),
        HongTuConfig(num_chunks=4, seed=0),
    )
    chunked.train_epoch()
    diff = max(
        np.abs(a - b).max()
        for a, b in zip(reference_model.state_dict().values(),
                        chunked_model.state_dict().values())
    )
    print(f"chunked-vs-monolithic max parameter diff: {diff:.2e}")


if __name__ == "__main__":
    main()
