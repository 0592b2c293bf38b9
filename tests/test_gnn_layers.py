"""Tests for blocks, GNN layers (incl. gradient checks), and models."""

from dataclasses import replace

import numpy as np
import pytest

from repro.autograd import Tensor, init, ops
from repro.errors import ConfigurationError, GraphFormatError
from repro.gnn import (
    Block,
    CommNetLayer,
    GATLayer,
    GCNLayer,
    GGNNLayer,
    GINLayer,
    GraphSAGELayer,
    GNNModel,
    MODEL_REGISTRY,
    build_model,
)
from repro.graph import toy_graph

from scatter_reference import (
    REFERENCE_AGGREGATES,
    block_zoo,
    reference_aggregate,
    reference_aggregate_backward,
    reference_gat_aggregate,
)
from tests.conftest import numeric_gradient

ALL_LAYERS = [GCNLayer, GraphSAGELayer, GINLayer, CommNetLayer, GATLayer,
              GGNNLayer]
CACHEABLE_LAYERS = [GCNLayer, GraphSAGELayer, GINLayer, CommNetLayer]


def toy_block():
    return Block.from_graph(toy_graph())


class TestBlock:
    def test_from_graph_dimensions(self):
        block = toy_block()
        assert block.num_src == 8
        assert block.num_dst == 8
        assert block.num_edges == 17

    def test_dst_pos_identity_for_full_graph(self):
        block = toy_block()
        np.testing.assert_array_equal(block.dst_pos, np.arange(8))

    def test_in_degrees(self):
        block = toy_block()
        assert block.in_degrees().sum() == 17

    def test_edge_src_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([5]), edge_dst=np.array([0]),
                  num_dst=1, num_src=2, dst_pos=np.array([0]))

    def test_edge_dst_out_of_range(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([3]),
                  num_dst=1, num_src=2, dst_pos=np.array([0]))

    def test_dst_pos_length(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([0]),
                  num_dst=2, num_src=2, dst_pos=np.array([0]))

    def test_edge_weight_parallel(self):
        with pytest.raises(GraphFormatError):
            Block(edge_src=np.array([0]), edge_dst=np.array([0]),
                  num_dst=1, num_src=1, dst_pos=np.array([0]),
                  edge_weight=np.ones(3))

    @pytest.mark.parametrize("field, value", [
        ("edge_src", [-1, 0, 1]),     # would wrap in fancy indexing
        ("edge_dst", [-1, 0, 1]),
        ("edge_dst", [1, 0, 1]),      # not destination-major
        ("dst_pos", [-1, 0]),
        ("dst_pos", [1, 1]),          # two destinations share an input row
    ])
    def test_malformed_ids_rejected(self, field, value):
        arrays = dict(edge_src=[0, 1, 2], edge_dst=[0, 0, 1],
                      dst_pos=[0, 1])
        arrays[field] = value
        with pytest.raises(GraphFormatError):
            Block(num_dst=2, num_src=3, **arrays)

    @pytest.mark.parametrize("value", [
        [0.7, 1.9],                   # would truncate to [0, 1]
        [True, False],                # a bool is not an index
        [[0, 1]],                     # not 1-D
        0,                            # not 1-D
    ])
    @pytest.mark.parametrize("field", ["edge_src", "edge_dst", "dst_pos"])
    def test_non_integer_or_non_1d_ids_rejected(self, field, value):
        arrays = dict(edge_src=[0, 1], edge_dst=[0, 1], dst_pos=[0, 1])
        arrays[field] = value
        with pytest.raises(GraphFormatError, match=field):
            Block(num_dst=2, num_src=2, **arrays)

    @pytest.mark.parametrize("value", [2.5, 2.0, -1, True, None, "2"])
    @pytest.mark.parametrize("field", ["num_src", "num_dst"])
    def test_non_count_sizes_rejected(self, field, value):
        sizes = dict(num_src=2, num_dst=2)
        sizes[field] = value
        with pytest.raises(GraphFormatError, match=field):
            Block(edge_src=[0, 1], edge_dst=[0, 1], dst_pos=[0, 1], **sizes)

    def test_numpy_integer_ids_and_sizes_accepted(self):
        block = Block(edge_src=np.array([0, 1], dtype=np.uint8),
                      edge_dst=np.array([0, 1], dtype=np.int32),
                      num_dst=np.int64(2), num_src=np.int32(2),
                      dst_pos=np.array([1, 0], dtype=np.int16))
        for name in ("edge_src", "edge_dst", "dst_pos"):
            assert getattr(block, name).dtype == np.int64

    def test_operator_is_the_block_as_a_matrix(self):
        block = toy_block()
        for weighted in (True, False):
            dense = np.zeros((block.num_dst, block.num_src))
            np.add.at(dense, (block.edge_dst, block.edge_src),
                      block.edge_weight if weighted else 1.0)
            matrix = block.operator(np.float64, weighted=weighted)
            np.testing.assert_array_equal(matrix.toarray(), dense)

    def test_operator_and_degrees_are_built_once(self):
        block = toy_block()
        assert block.operator(np.float64) is block.operator("float64")
        assert block.operator(np.float64) is not block.operator(np.float32)
        assert block.operator(np.float32).dtype == np.float32
        assert block.in_degrees() is block.in_degrees()
        with pytest.raises(ValueError):
            block.in_degrees()[0] = 99

    def test_adjoint_is_the_cached_csc_view_of_the_operator(self):
        block = toy_block()
        for weighted in (True, False):
            matrix = block.operator(np.float64, weighted=weighted)
            adjoint = block.adjoint(np.float64, weighted=weighted)
            assert adjoint is block.adjoint("float64", weighted=weighted)
            assert adjoint.format == "csc"
            assert adjoint.shape == (block.num_src, block.num_dst)
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(adjoint, name),
                                        getattr(matrix, name))
            np.testing.assert_array_equal(adjoint.toarray(),
                                          matrix.toarray().T)
        assert len(block._operators) == 2  # one entry per (dtype, weighted)

    def test_unweighted_block_has_one_operator(self):
        block = replace(Block.from_graph(toy_graph()), edge_weight=None)
        assert block.operator(np.float64) is \
            block.operator(np.float64, weighted=False)


class TestInSlots:
    """``Block.in_slots``: several blocks as one over a shared row space."""

    NUM_ROWS = 11

    @pytest.fixture
    def parts(self):
        zoo = block_zoo(toy_graph())
        blocks = [zoo["chunk_weighted"], zoo["multi_edge"], zoo["zero_edges"]]
        # rows 2 and 4 feed the first two blocks; row 10 feeds none
        maps = [np.arange(7), np.array([2, 4, 7]), np.array([8, 9, 5])]
        return blocks, maps

    def test_product_is_each_blocks_product_bit_for_bit(self, parts):
        blocks, maps = parts
        merged = Block.in_slots(blocks, maps, self.NUM_ROWS)
        assert (merged.num_src, merged.num_dst) == (self.NUM_ROWS, 9)
        np.testing.assert_array_equal(
            merged.dst_pos,
            np.concatenate([m[b.dst_pos] for b, m in zip(blocks, maps)]))
        np.testing.assert_array_equal(
            merged.in_degrees(),
            np.concatenate([b.in_degrees() for b in blocks]))
        stacked = np.random.default_rng(3).standard_normal(
            (self.NUM_ROWS, 5))
        for weighted in (True, False):
            expected = np.concatenate([
                b.operator(np.float64, weighted) @ stacked[m]
                for b, m in zip(blocks, maps)])
            assert np.array_equal(
                merged.operator(np.float64, weighted) @ stacked, expected)

    @pytest.mark.parametrize("layer_cls", CACHEABLE_LAYERS)
    def test_cacheable_aggregate_is_each_chunks_aggregate(self, parts,
                                                          layer_cls):
        blocks, maps = parts
        merged = Block.in_slots(blocks, maps, self.NUM_ROWS)
        layer = layer_cls(5, 3, np.random.default_rng(0))
        stacked = np.random.default_rng(4).standard_normal(
            (self.NUM_ROWS, 5))
        expected = np.concatenate([
            layer.aggregate(b, Tensor(stacked[m])).data
            for b, m in zip(blocks, maps)])
        assert np.array_equal(layer.aggregate(merged, Tensor(stacked)).data,
                              expected)

    @pytest.mark.parametrize("case", [
        "float", "bool", "2-D", "short", "negative", "past_end"])
    def test_malformed_slot_map_rejected(self, parts, case):
        blocks, maps = parts
        maps[1] = {"float": np.array([2.0, 4.0, 7.0]),
                   "bool": np.array([True, False, True]),
                   "2-D": np.array([[2, 4, 7]]),
                   "short": np.array([2, 4]),
                   "negative": np.array([2, -1, 7]),
                   "past_end": np.array([2, 4, self.NUM_ROWS])}[case]
        with pytest.raises(GraphFormatError, match="slot map"):
            Block.in_slots(blocks, maps, self.NUM_ROWS)

    @pytest.mark.parametrize("num_rows", [11.0, -1, True])
    def test_non_count_num_rows_rejected(self, parts, num_rows):
        with pytest.raises(GraphFormatError, match="num_rows"):
            Block.in_slots(*parts, num_rows)

    def test_block_and_map_counts_must_match(self, parts):
        blocks, maps = parts
        for args in ((blocks, maps[:2]), ([], [])):
            with pytest.raises(GraphFormatError, match="one slot map"):
                Block.in_slots(*args, self.NUM_ROWS)

    def test_weights_all_or_none(self, parts):
        blocks, maps = parts
        zoo = block_zoo(toy_graph())
        Block.in_slots([zoo["chunk_unweighted"]], maps[:1], self.NUM_ROWS)
        with pytest.raises(GraphFormatError, match="weighted"):
            Block.in_slots([zoo["chunk_unweighted"]] + blocks[1:], maps,
                           self.NUM_ROWS)

    def test_destinations_sharing_a_row_rejected(self, parts):
        blocks, maps = parts
        maps[1] = np.array([2, 4, 0])  # row 0 is a destination of block 0
        with pytest.raises(GraphFormatError, match="dst_pos"):
            Block.in_slots(blocks, maps, self.NUM_ROWS)


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
class TestLayerCommon:
    def test_forward_shape(self, layer_cls, rng):
        layer = layer_cls(4, 6, rng)
        block = toy_block()
        out = layer(block, Tensor(rng.standard_normal((8, 4))))
        assert out.shape == (8, 6)

    def test_forward_deterministic(self, layer_cls, rng):
        layer = layer_cls(4, 6, rng)
        block = toy_block()
        x = rng.standard_normal((8, 4))
        a = layer(block, Tensor(x)).data
        b = layer(block, Tensor(x)).data
        np.testing.assert_array_equal(a, b)

    def test_gradcheck_input(self, layer_cls, rng):
        layer = layer_cls(3, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 3))
        seed = rng.standard_normal((8, 4))

        x_t = Tensor(x, requires_grad=True)
        layer(block, x_t).backward(seed)

        def scalar():
            return float((layer(block, Tensor(x)).data * seed).sum())

        numeric = numeric_gradient(scalar, x)
        np.testing.assert_allclose(x_t.grad, numeric, atol=1e-5)

    def test_gradcheck_parameters(self, layer_cls, rng):
        layer = layer_cls(3, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 3))
        seed = rng.standard_normal((8, 4))
        # Nudge every parameter off zero so no ReLU pre-activation sits
        # exactly at the kink (zero-init biases otherwise make dead rows'
        # pre-activations exactly 0, where numeric/analytic subgradients
        # legitimately differ).
        for _, param in layer.named_parameters():
            param.data = param.data + 0.05 * rng.standard_normal(param.shape)
        layer.zero_grad()
        layer(block, Tensor(x)).backward(seed)

        for name, param in layer.named_parameters():
            def scalar():
                return float((layer(block, Tensor(x)).data * seed).sum())

            numeric = numeric_gradient(scalar, param.data)
            np.testing.assert_allclose(
                param.grad, numeric, atol=1e-5,
                err_msg=f"{layer_cls.__name__}.{name}",
            )

    def test_flops_positive(self, layer_cls, rng):
        layer = layer_cls(8, 8, rng)
        assert layer.aggregate_flops(100, 50, 400) > 0
        assert layer.update_flops(50) > 0
        assert layer.forward_flops(100, 50, 400) == (
            layer.aggregate_flops(100, 50, 400) + layer.update_flops(50)
        )

    def test_workspace_positive(self, layer_cls, rng):
        layer = layer_cls(8, 8, rng)
        assert layer.forward_workspace_scalars(100, 50, 400) > 0

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, float("nan")])
    def test_invalid_dims(self, layer_cls, bad, rng):
        """A width must be an integer >= 1: 2.5 used to reach numpy as a
        ``TypeError``, NaN and ``True`` were accepted."""
        with pytest.raises(ConfigurationError, match="in_dim"):
            layer_cls(bad, 4, rng)
        with pytest.raises(ConfigurationError, match="out_dim"):
            layer_cls(4, bad, rng)

    def test_numpy_integer_dims(self, layer_cls, rng):
        layer = layer_cls(np.int64(4), np.int64(6), rng)
        assert layer(toy_block(), Tensor(rng.standard_normal((8, 4)))) \
            .shape == (8, 6)


@pytest.mark.parametrize("layer_cls", CACHEABLE_LAYERS)
class TestCacheableAggregates:
    def test_flag(self, layer_cls, rng):
        assert layer_cls(4, 4, rng).cacheable_aggregate

    def test_aggregate_backward_matches_autograd(self, layer_cls, rng):
        """The closed-form adjoint must equal the tape's aggregate grad."""
        layer = layer_cls(4, 4, rng)
        block = toy_block()
        x = rng.standard_normal((8, 4))
        grad_agg = rng.standard_normal((8, 4))

        x_t = Tensor(x, requires_grad=True)
        layer.aggregate(block, x_t).backward(grad_agg)
        closed_form = layer.aggregate_backward(block, grad_agg)
        np.testing.assert_allclose(closed_form, x_t.grad, atol=1e-12)

    def test_aggregate_linear_in_input(self, layer_cls, rng):
        """Cacheable aggregates are linear maps of the input rows."""
        layer = layer_cls(4, 4, rng)
        block = toy_block()
        a = rng.standard_normal((8, 4))
        b = rng.standard_normal((8, 4))
        def agg(x):
            return layer.aggregate(block, Tensor(x)).data

        np.testing.assert_allclose(
            agg(a) + agg(b), agg(a + b), atol=1e-10
        )


@pytest.fixture(scope="module")
def zoo():
    return block_zoo(toy_graph())


ZOO_NAMES = ["from_graph", "from_graph_unweighted", "chunk_weighted",
             "chunk_unweighted", "multi_edge", "zero_edges"]


@pytest.mark.parametrize("name", ZOO_NAMES)
@pytest.mark.parametrize("layer_cls", CACHEABLE_LAYERS)
class TestAggregateMatchesScatterReference:
    """The SpMM path against the per-edge ``np.add.at`` definition
    (``tests/scatter_reference.py``), bit for bit in float64."""

    def test_forward_adjoint_and_tape(self, layer_cls, name, zoo, rng):
        block = zoo[name]
        weighted, mean = REFERENCE_AGGREGATES[layer_cls.__name__]
        layer = layer_cls(5, 5, rng)
        h = rng.standard_normal((block.num_src, 5))
        grad_agg = rng.standard_normal((block.num_dst, 5))

        h_t = Tensor(h, requires_grad=True)
        agg = layer.aggregate(block, h_t)
        np.testing.assert_array_equal(
            agg.data, reference_aggregate(block, h, weighted, mean))

        expected = reference_aggregate_backward(block, grad_agg, weighted,
                                                mean)
        np.testing.assert_array_equal(
            layer.aggregate_backward(block, grad_agg), expected)
        agg.backward(grad_agg)
        np.testing.assert_array_equal(h_t.grad, expected)

    def test_float32_in_float32_out(self, layer_cls, name, zoo, rng):
        block = zoo[name]
        weighted, mean = REFERENCE_AGGREGATES[layer_cls.__name__]
        layer = layer_cls(5, 5, rng, dtype=np.float32)
        h = rng.standard_normal((block.num_src, 5)).astype(np.float32)
        grad_agg = rng.standard_normal((block.num_dst, 5)).astype(np.float32)

        h_t = Tensor(h, requires_grad=True)
        agg = layer.aggregate(block, h_t)
        closed_form = layer.aggregate_backward(block, grad_agg)
        agg.backward(grad_agg)
        assert agg.dtype == closed_form.dtype == h_t.grad.dtype == np.float32
        np.testing.assert_allclose(
            agg.data, reference_aggregate(block, h, weighted, mean),
            rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(
            closed_form,
            reference_aggregate_backward(block, grad_agg, weighted, mean),
            rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("name", ZOO_NAMES)
def test_spmm_gradcheck(name, weighted, zoo, rng):
    """``ops.spmm``'s VJP against central differences."""
    block = zoo[name]
    matrix = block.operator(np.float64, weighted=weighted)
    h = rng.standard_normal((block.num_src, 3))
    seed = rng.standard_normal((block.num_dst, 3))
    h_t = Tensor(h, requires_grad=True)
    ops.spmm(matrix, h_t).backward(seed)

    def scalar():
        return float((ops.spmm(matrix, Tensor(h)).data * seed).sum())

    np.testing.assert_allclose(h_t.grad, numeric_gradient(scalar, h),
                               atol=1e-6)
    # handing spmm the block's cached adjoint changes no bit of the VJP
    cached = Tensor(h, requires_grad=True)
    ops.spmm(matrix, cached,
             block.adjoint(np.float64, weighted=weighted)).backward(seed)
    np.testing.assert_array_equal(cached.grad, h_t.grad)


class TestGAT:
    def test_not_cacheable(self, rng):
        assert not GATLayer(4, 4, rng).cacheable_aggregate

    def test_aggregate_backward_raises(self, rng):
        with pytest.raises(NotImplementedError):
            GATLayer(4, 4, rng).aggregate_backward(toy_block(),
                                                   np.zeros((8, 4)))

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_aggregate_matches_dense_reference(self, name, zoo, rng):
        """The per-edge vectorized path against Eq. 3 written out one
        destination at a time (``tests/scatter_reference.py``)."""
        block = zoo[name]
        layer = GATLayer(5, 4, rng)
        h = rng.standard_normal((block.num_src, 5))
        np.testing.assert_allclose(
            layer.aggregate(block, Tensor(h)).data,
            reference_gat_aggregate(block, h, layer.weight.data,
                                    layer.attn_dst.data,
                                    layer.attn_src.data),
            rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_float32_in_float32_out(self, name, zoo, rng):
        """The attention scores keep the model's dtype: a float32 GAT's
        forward output and its input and parameter gradients are float32
        (its LeakyReLU used to build a float64 scale, which lifted every
        score, softmax and output after it to float64)."""
        block = zoo[name]
        layer = GATLayer(5, 4, rng, dtype=np.float32)
        h_t = Tensor(rng.standard_normal((block.num_src, 5))
                     .astype(np.float32), requires_grad=True)
        out = layer(block, h_t)
        assert out.data.dtype == np.float32
        out.backward(np.ones_like(out.data))
        assert h_t.grad.dtype == np.float32
        assert {p.grad.dtype for p in layer.parameters()} == \
            {np.dtype(np.float32)}

    def test_attention_parameters_are_one_row(self, rng):
        layer = GATLayer(4, 6, rng)
        assert layer.attn_dst.shape == layer.attn_src.shape == (1, 6)

    def test_attention_is_convex_combination(self, rng):
        """With identical inputs everywhere, GAT output = W h (softmax
        weights sum to 1)."""
        layer = GATLayer(4, 4, rng, activation=None)
        block = toy_block()
        x = np.tile(rng.standard_normal(4), (8, 1))
        out = layer(block, Tensor(x))
        expected = x @ layer.weight.data
        # Destinations with at least one in-edge equal W h exactly.
        has_edges = block.in_degrees() > 0
        np.testing.assert_allclose(out.data[has_edges],
                                   expected[has_edges], atol=1e-10)

    def test_edge_dominated_workspace(self, rng):
        """GAT workspace must grow with |E| (the paper's Table 1 point)."""
        layer = GATLayer(8, 8, rng)
        sparse = layer.forward_workspace_scalars(100, 100, 200)
        dense = layer.forward_workspace_scalars(100, 100, 20000)
        assert dense > 10 * sparse


class TestModels:
    def test_build_model_dims(self, rng):
        model = build_model("gcn", [16, 8, 4], rng)
        assert model.num_layers == 2
        assert model.dims == [16, 8, 4]

    def test_last_layer_no_activation(self, rng):
        model = build_model("gcn", [16, 8, 4], rng)
        assert model.layers[0].activation == "relu"
        assert model.layers[-1].activation is None

    def test_gat_uses_elu(self, rng):
        model = build_model("gat", [16, 8, 4], rng)
        assert model.layers[0].activation == "elu"

    def test_registry_complete(self):
        assert set(MODEL_REGISTRY) == {"gcn", "gat", "graphsage", "gin",
                                       "commnet", "ggnn"}

    def test_unknown_arch(self, rng):
        with pytest.raises(ConfigurationError):
            build_model("transformer", [4, 2], rng)

    def test_too_few_dims(self, rng):
        with pytest.raises(ConfigurationError):
            build_model("gcn", [4], rng)

    def test_dim_mismatch_detected(self, rng):
        layers = [GCNLayer(4, 8, rng), GCNLayer(16, 2, rng)]
        with pytest.raises(ConfigurationError):
            GNNModel(layers)

    def test_empty_model(self):
        with pytest.raises(ConfigurationError):
            GNNModel([])

    def test_forward_runs_stack(self, rng):
        model = build_model("graphsage", [4, 8, 3], rng)
        out = model(toy_block(), Tensor(rng.standard_normal((8, 4))))
        assert out.shape == (8, 3)

    def test_forward_flops_sums_layers(self, rng):
        model = build_model("gcn", [4, 8, 3], rng)
        total = model.forward_flops(8, 8, 17)
        assert total == sum(
            layer.forward_flops(8, 8, 17) for layer in model.layers
        )


class TestRemovedSettings:
    """Layer, op and model settings no caller set keep their one value
    (one GAT head, LeakyReLU slope 0.2, ELU alpha 1, Xavier gain 1, a
    GIN MLP ``out_dim`` wide, GCN edge weights on every whole-graph
    block): passing one is a ``TypeError``, like any unknown keyword."""

    @pytest.mark.parametrize("call", [
        lambda rng: GATLayer(4, 8, rng, num_heads=2),
        lambda rng: GATLayer(4, 8, rng, negative_slope=0.1),
        lambda rng: GINLayer(4, 8, rng, hidden_dim=16),
        lambda rng: build_model("gat", [4, 8, 2], rng, gat_heads=2),
        lambda rng: ops.leaky_relu(Tensor(np.ones(2)), 0.1),
        lambda rng: ops.elu(Tensor(np.ones(2)), alpha=2.0),
        lambda rng: init.xavier_uniform((2, 2), rng, gain=2.0),
        lambda rng: Block.from_graph(toy_graph(), gcn_weights=False),
    ], ids=["gat_num_heads", "gat_negative_slope", "gin_hidden_dim",
            "build_model_gat_heads", "leaky_relu_negative_slope",
            "elu_alpha", "xavier_uniform_gain", "block_gcn_weights"])
    def test_removed_keyword_is_a_type_error(self, call, rng):
        with pytest.raises(TypeError):
            call(rng)
