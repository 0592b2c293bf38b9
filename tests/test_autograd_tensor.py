"""Unit tests for the autograd Tensor and tape machinery."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad, is_grad_enabled, ops
from repro.errors import AutogradError


class TestTensorConstruction:
    def test_wraps_array(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2

    def test_default_no_grad(self):
        assert not Tensor(np.ones(3)).requires_grad

    def test_requires_grad_flag(self):
        assert Tensor(np.ones(3), requires_grad=True).requires_grad

    def test_integer_payload_cannot_require_grad(self):
        with pytest.raises(AutogradError):
            Tensor(np.arange(3), requires_grad=True)

    def test_integer_payload_as_constant_ok(self):
        t = Tensor(np.arange(3))
        assert t.dtype == np.int64

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(2))
        assert Tensor.as_tensor(t) is t

    def test_as_tensor_wraps_scalar(self):
        t = Tensor.as_tensor(3.0)
        assert float(t.data) == 3.0

    def test_nbytes(self):
        t = Tensor(np.ones((4, 4), dtype=np.float64))
        assert t.nbytes() == 128

    def test_repr_mentions_shape(self):
        assert "shape=(2,)" in repr(Tensor(np.ones(2)))


class TestBackward:
    def test_scalar_backward_default_seed(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        y = ops.mul(x, x)
        y.backward()
        assert np.isclose(x.grad, 4.0)

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.mul(x, x)
        with pytest.raises(AutogradError):
            y.backward()

    def test_backward_with_explicit_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = ops.mul(x, Tensor(np.array([1.0, 2.0, 3.0])))
        y.backward(np.ones(3))
        assert np.allclose(x.grad, [1.0, 2.0, 3.0])

    def test_backward_on_leaf_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(AutogradError):
            x.backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = ops.add(ops.mul(x, x), x)  # x^2 + x
        y.backward()
        assert np.isclose(x.grad, 7.0)

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        for _ in range(3):
            ops.mul(x, Tensor(np.array(2.0))).backward()
        assert np.isclose(x.grad, 6.0)

    def test_zero_grad(self):
        x = Tensor(np.array(1.0), requires_grad=True)
        ops.mul(x, x).backward()
        x.zero_grad()
        assert x.grad is None

    def test_shape_mismatch_raises(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            x.accumulate_grad(np.ones(4))

    def test_deep_chain_no_recursion_error(self):
        # Iterative topological sort must handle very deep tapes.
        x = Tensor(np.array(1.0), requires_grad=True)
        y = x
        for _ in range(5000):
            y = ops.add(y, Tensor(np.array(0.001)))
        y.backward()
        assert np.isclose(x.grad, 1.0)

    def test_diamond_dependency(self):
        x = Tensor(np.array(2.0), requires_grad=True)
        a = ops.mul(x, x)
        b = ops.add(x, x)
        y = ops.mul(a, b)  # x^2 * 2x = 2x^3 -> dy/dx = 6x^2 = 24
        y.backward()
        assert np.isclose(x.grad, 24.0)


class TestNoGrad:
    def test_flag_toggles(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_ops_produce_leaves(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert not y.requires_grad

    def test_new_tensors_inside_no_grad(self):
        with no_grad():
            t = Tensor(np.ones(2), requires_grad=True)
        assert not t.requires_grad

    def test_restored_after_exception(self):
        with pytest.raises(ValueError, match="boom"), no_grad():
            raise ValueError("boom")
        assert is_grad_enabled()
