"""Gradient checks and behavior tests for every autograd op."""

import re
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from repro.autograd import Tensor, ops
from repro.errors import AutogradError
from repro.gnn import Block, GCNLayer
from repro.graph import toy_graph

from tests.conftest import numeric_gradient
from tests.loss_reference import log_softmax, sum_


def check_gradients(op_fn, *arrays, seed_shape=None, atol=1e-6):
    """Analytic vs central-difference gradients for every input array."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op_fn(*tensors)
    seed = np.random.default_rng(0).standard_normal(out.shape)
    out.backward(seed)

    for array, tensor in zip(arrays, tensors):
        def scalar():
            fresh = [Tensor(a) for a in arrays]
            return float((op_fn(*fresh).data * seed).sum())

        numeric = numeric_gradient(scalar, array)
        assert tensor.grad is not None
        np.testing.assert_allclose(tensor.grad, numeric, atol=atol,
                                   err_msg=f"op {op_fn} input grad mismatch")


RNG = np.random.default_rng(7)


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


class TestElementwiseGradients:
    def test_add(self):
        check_gradients(ops.add, RNG.standard_normal((3, 4)),
                        RNG.standard_normal((3, 4)))

    def test_add_broadcast_bias(self):
        check_gradients(ops.add, RNG.standard_normal((3, 4)),
                        RNG.standard_normal(4))

    def test_add_broadcast_scalarish(self):
        check_gradients(ops.add, RNG.standard_normal((3, 4)),
                        RNG.standard_normal((1, 4)))

    def test_sub(self):
        check_gradients(ops.sub, RNG.standard_normal((2, 5)),
                        RNG.standard_normal((2, 5)))

    def test_mul(self):
        check_gradients(ops.mul, RNG.standard_normal((4, 2)),
                        RNG.standard_normal((4, 2)))

    def test_mul_broadcast_column(self):
        check_gradients(ops.mul, RNG.standard_normal((4, 3)),
                        RNG.standard_normal((4, 1)))

def _concat_pair(a, b):
    return ops.concat([a, b], axis=1)


def _relu_masked(g, a, b):
    """The seed through the ReLU of ``a @ b + _PAIR_BIAS``."""
    return g * (a @ b + _PAIR_BIAS > 0)


#: multi-parent op → (op, a, b, closed-form VJPs (∇a, ∇b) of the seed g)
_PAIR_A, _PAIR_B = RNG.standard_normal((3, 4)), RNG.standard_normal((3, 4))
_PAIR_M = RNG.standard_normal((4, 2))
_PAIR_BIAS = RNG.standard_normal(2)
MULTI_PARENT_OPS = {
    "add": (ops.add, _PAIR_A, _PAIR_B, lambda g, a, b: (g, g)),
    "sub": (ops.sub, _PAIR_A, _PAIR_B, lambda g, a, b: (g, -g)),
    "mul": (ops.mul, _PAIR_A, _PAIR_B, lambda g, a, b: (g * b, g * a)),
    "matmul": (ops.matmul, _PAIR_A, _PAIR_M,
               lambda g, a, b: (g @ b.T, a.T @ g)),
    "linear": (ops.linear, _PAIR_A, _PAIR_M,
               lambda g, a, b: (g @ b.T, a.T @ g)),
    "linear+bias+relu": (
        lambda a, b: ops.linear(a, b, Tensor(_PAIR_BIAS), "relu"),
        _PAIR_A, _PAIR_M,
        lambda g, a, b: (_relu_masked(g, a, b) @ b.T,
                         a.T @ _relu_masked(g, a, b))),
    "concat": (_concat_pair, _PAIR_A, _PAIR_B,
               lambda g, a, b: (g[:, :4], g[:, 4:])),
}


class TestConstantOperands:
    """A multi-parent op computes a parent's VJP only when that parent
    requires grad (the input features of layer 0 are such a constant)."""

    @pytest.mark.parametrize("constant", [0, 1], ids=["a_constant",
                                                      "b_constant"])
    @pytest.mark.parametrize("name", sorted(MULTI_PARENT_OPS))
    def test_only_the_variable_operand_gets_its_vjp(self, monkeypatch, name,
                                                    constant):
        op, a, b, closed_form = MULTI_PARENT_OPS[name]
        tensors = [Tensor(x, requires_grad=k != constant)
                   for k, x in enumerate((a, b))]
        out = op(*tensors)
        seed = np.random.default_rng(1).standard_normal(out.shape)
        receivers = []
        accumulate = Tensor.accumulate_grad

        def spy(tensor, grad):
            receivers.append(tensor)
            accumulate(tensor, grad)

        monkeypatch.setattr(Tensor, "accumulate_grad", spy)
        out.backward(seed)
        variable = 1 - constant
        assert tensors[constant].grad is None
        # the constant's adjoint product is never formed, let alone added
        assert not any(t is tensors[constant] for t in receivers)
        np.testing.assert_array_equal(tensors[variable].grad,
                                      closed_form(seed, a, b)[variable])


class TestLinearAlgebraGradients:
    def test_matmul(self):
        check_gradients(ops.matmul, RNG.standard_normal((4, 3)),
                        RNG.standard_normal((3, 5)))

    def test_matmul_rejects_1d(self):
        with pytest.raises(AutogradError):
            ops.matmul(Tensor(np.ones(3)), Tensor(np.ones(3)))

    def test_reshape(self):
        check_gradients(lambda a: ops.reshape(a, (2, 6)),
                        RNG.standard_normal((3, 4)))


def _linear_by_three_ops(x, weight, bias, activation):
    """What :func:`ops.linear` replaces: one node per product, add, mask."""
    out = ops.matmul(x, weight)
    if bias is not None:
        out = ops.add(out, bias)
    return ops.relu(out) if activation == "relu" else out


class TestLinear:
    """``ops.linear`` is one tape node with the three-op tape's floats."""

    @pytest.mark.parametrize("activation", [None, "relu"])
    @pytest.mark.parametrize("with_bias", [True, False],
                             ids=["bias", "no_bias"])
    @pytest.mark.parametrize("rows", [0, 1, 67])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_three_op_composition_to_the_bit(
            self, dtype, rows, with_bias, activation):
        rng = np.random.default_rng(rows)
        arrays = [rng.standard_normal((rows, 32)).astype(dtype),
                  rng.standard_normal((32, 16)).astype(dtype),
                  rng.standard_normal(16).astype(dtype)]
        seed = rng.standard_normal((rows, 16)).astype(dtype)
        results = []
        for op in (ops.linear, _linear_by_three_ops):
            x, weight, bias = (Tensor(a, requires_grad=True) for a in arrays)
            out = op(x, weight, bias if with_bias else None, activation)
            out.backward(seed)
            results.append((out.data, x.grad, weight.grad,
                            bias.grad if with_bias else None))
        fused, composed = results
        assert fused[0].dtype == dtype
        for got, want in zip(fused, composed):
            np.testing.assert_array_equal(got, want)

    def test_gradients(self):
        check_gradients(lambda x, w, b: ops.linear(x, w, b, "relu"),
                        RNG.standard_normal((5, 3)),
                        RNG.standard_normal((3, 4)),
                        RNG.standard_normal(4))

    @pytest.mark.parametrize("bias, activation, match", [
        (np.ones(3), None, "bias"),
        (np.ones(2, dtype=np.float32), None, "bias"),
        (None, "elu", "activation"),
    ])
    def test_rejects(self, bias, activation, match):
        bias = None if bias is None else Tensor(bias)
        with pytest.raises(AutogradError, match=match):
            ops.linear(Tensor(np.ones((4, 3))), Tensor(np.ones((3, 2))),
                       bias, activation)

    def test_a_gcn_update_is_one_node_above_its_inputs(self):
        layer = GCNLayer(3, 2, np.random.default_rng(0))
        x = Tensor(RNG.standard_normal((8, 3)), requires_grad=True)
        out = layer.update(Block.from_graph(toy_graph()), x, x)
        tape = list(out._topological_order())
        assert list(map(id, tape)) == list(map(id, (
            out, x, layer.linear.weight, layer.linear.bias)))
        assert out.name == "linear"


class TestActivationGradients:
    def test_relu(self):
        check_gradients(ops.relu, RNG.standard_normal((4, 4)) + 0.1)

    def test_relu_zeroes_negatives(self):
        out = ops.relu(Tensor(np.array([-1.0, 2.0])))
        assert np.allclose(out.data, [0.0, 2.0])

    def test_leaky_relu(self):
        check_gradients(ops.leaky_relu,
                        RNG.standard_normal((4, 4)) + 0.1)

    def test_leaky_relu_slope(self):
        out = ops.leaky_relu(Tensor(np.array([-10.0])))
        assert np.isclose(out.data[0], -10.0 * ops.LEAKY_SLOPE)
        assert ops.LEAKY_SLOPE == 0.2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_keeps_the_input_dtype(self, dtype):
        x = Tensor(np.array([-10.0, 0.0, 3.0], dtype=dtype),
                   requires_grad=True)
        out = ops.leaky_relu(x)
        assert out.data.dtype == dtype
        assert out.data.tolist() == [dtype(-10.0) * dtype(ops.LEAKY_SLOPE),
                                     0.0, 3.0]
        out.backward(np.ones(3, dtype=dtype))
        assert x.grad.dtype == dtype
        assert x.grad.tolist() == [dtype(ops.LEAKY_SLOPE), dtype(0.2), 1.0]

    def test_elu(self):
        check_gradients(ops.elu, RNG.standard_normal((3, 3)) + 0.1)

    def test_elu_alpha_is_one(self):
        x = np.array([-3.0, -0.5, 0.0, 2.0])
        np.testing.assert_allclose(ops.elu(Tensor(x)).data,
                                   np.where(x > 0, x, np.expm1(x)),
                                   rtol=1e-12, atol=0)

    def test_sigmoid(self):
        check_gradients(ops.sigmoid, RNG.standard_normal((3, 3)))

    def test_tanh(self):
        check_gradients(ops.tanh, RNG.standard_normal((3, 3)))

class TestReductionGradients:
    """The loss reference's two reductions (``tests/loss_reference.py``)."""

    def test_sum_all(self):
        check_gradients(sum_, RNG.standard_normal((3, 4)))

    def test_sum_axis0(self):
        check_gradients(lambda a: sum_(a, axis=0),
                        RNG.standard_normal((3, 4)))

    def test_sum_axis1_keepdims(self):
        check_gradients(lambda a: sum_(a, axis=1, keepdims=True),
                        RNG.standard_normal((3, 4)))

    def test_log_softmax(self):
        check_gradients(lambda a: log_softmax(a, axis=-1),
                        RNG.standard_normal((4, 5)))

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.standard_normal((3, 4))
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).data, np.log(_softmax(x, axis=-1)),
            atol=1e-12)


class TestShapeOps:
    def test_concat_axis1(self):
        check_gradients(lambda a, b: ops.concat([a, b], axis=1),
                        RNG.standard_normal((3, 2)),
                        RNG.standard_normal((3, 4)))

    def test_concat_axis0(self):
        check_gradients(lambda a, b: ops.concat([a, b], axis=0),
                        RNG.standard_normal((2, 3)),
                        RNG.standard_normal((4, 3)))

    def test_concat_three_way(self):
        parts = [RNG.standard_normal((2, k)) for k in (1, 2, 3)]
        check_gradients(lambda a, b, c: ops.concat([a, b, c], axis=1), *parts)

class TestGraphOps:
    def test_gather_rows(self):
        index = np.array([0, 2, 2, 1])
        check_gradients(lambda a: ops.gather_rows(a, index),
                        RNG.standard_normal((3, 4)))

    def test_gather_rows_duplicate_index_sums_grads(self):
        x = Tensor(np.ones((2, 1)), requires_grad=True)
        out = ops.gather_rows(x, np.array([0, 0, 0]))
        out.backward(np.ones((3, 1)))
        assert x.grad[0, 0] == 3.0
        assert x.grad[1, 0] == 0.0

    def test_scatter_add_rows(self):
        index = np.array([0, 1, 1, 2])
        check_gradients(lambda a: ops.scatter_add_rows(a, index, 4),
                        RNG.standard_normal((4, 3)))

    def test_scatter_add_values(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.scatter_add_rows(x, np.array([1, 1, 0]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_segment_softmax_1d_gradcheck(self):
        segments = np.array([0, 0, 1, 1, 1, 2])
        check_gradients(
            lambda a: ops.segment_softmax(a, segments, 3),
            RNG.standard_normal(6),
        )

    def test_segment_softmax_2d_gradcheck(self):
        segments = np.array([0, 0, 1, 1])
        check_gradients(
            lambda a: ops.segment_softmax(a, segments, 2),
            RNG.standard_normal((4, 3)),
        )

    def test_segment_softmax_sums_to_one(self):
        segments = np.array([0, 0, 0, 1, 2, 2])
        out = ops.segment_softmax(Tensor(RNG.standard_normal(6)), segments, 3)
        for segment in range(3):
            assert np.isclose(out.data[segments == segment].sum(), 1.0)

    def test_segment_softmax_numerical_stability(self):
        # Huge scores must not overflow.
        scores = Tensor(np.array([1000.0, 1000.0, -1000.0]))
        out = ops.segment_softmax(scores, np.array([0, 0, 0]), 1)
        assert np.all(np.isfinite(out.data))
        assert np.isclose(out.data.sum(), 1.0)

    def test_segment_softmax_rejects_3d(self):
        with pytest.raises(AutogradError):
            ops.segment_softmax(Tensor(np.ones((2, 2, 2))),
                                np.array([0, 1]), 2)

    def test_segment_softmax_rejects_unsorted_segments(self):
        with pytest.raises(AutogradError):
            ops.segment_softmax(Tensor(np.ones(3)), np.array([1, 0, 1]), 2)

    @pytest.mark.parametrize("shape", [(7,), (7, 3)])
    def test_segment_softmax_matches_per_segment_softmax(self, shape):
        # Segments 1 and 4 are empty; 3 holds a single score.
        segments = np.array([0, 0, 2, 2, 2, 3, 5])
        scores = RNG.standard_normal(shape)
        out = ops.segment_softmax(Tensor(scores), segments, 6).data
        for segment in np.unique(segments):
            rows = segments == segment
            np.testing.assert_allclose(
                out[rows], _softmax(scores[rows], axis=0), atol=1e-15)

    def test_segment_softmax_of_no_edges(self):
        out = ops.segment_softmax(Tensor(np.empty((0, 2))),
                                  np.empty(0, dtype=np.int64), 3)
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("shape", [(6,), (6, 4), (6, 2, 3), (0, 4)])
    def test_scatter_sums_in_index_order(self, shape):
        """The incidence-matrix scatter is ``np.add.at``, bit for bit."""
        index = np.array([3, 0, 3, 3, 1, 0])[:shape[0]]
        values = RNG.standard_normal(shape)
        expected = np.zeros((5,) + shape[1:])
        np.add.at(expected, index, values)
        out = ops.scatter_add_rows(Tensor(values), index, 5)
        np.testing.assert_array_equal(out.data, expected)

        source = Tensor(np.zeros((5,) + shape[1:]), requires_grad=True)
        ops.gather_rows(source, index).backward(values)
        np.testing.assert_array_equal(source.grad, expected)

    @pytest.mark.parametrize("index", [[-1, 0], [0, 2]])
    def test_row_index_out_of_range(self, index):
        index = np.array(index)
        with pytest.raises(AutogradError):
            ops.gather_rows(Tensor(np.ones((2, 3))), index)
        with pytest.raises(AutogradError):
            ops.scatter_add_rows(Tensor(np.ones((2, 3))), index, 2)
        with pytest.raises(AutogradError):
            ops.segment_softmax(Tensor(np.ones(2)), index, 2)

    def test_spmm_rejects_mismatched_operand(self):
        matrix = sparse.csr_matrix(np.ones((2, 3)))
        with pytest.raises(AutogradError):
            ops.spmm(matrix, Tensor(np.ones((2, 4))))
        with pytest.raises(AutogradError):
            ops.spmm(matrix, Tensor(np.ones(3)))
        with pytest.raises(AutogradError, match="adjoint"):
            ops.spmm(matrix, Tensor(np.ones((3, 4))), adjoint=matrix)



def test_every_op_has_a_caller():
    """``ops`` holds only what a layer, the loss or an example calls."""
    root = Path(__file__).resolve().parents[1]
    callers = [*sorted((root / "src" / "repro" / "gnn").glob("*.py")),
               root / "src" / "repro" / "autograd" / "functional.py",
               root / "src" / "repro" / "autograd" / "module.py",
               *sorted((root / "examples").glob("*.py"))]
    called = set()
    for path in callers:
        called |= set(re.findall(r"\bops\.(\w+)\(", path.read_text()))
    assert set(ops.__all__) == called & set(ops.__all__)
    assert not called - set(ops.__all__)
