"""Tests for loss functions and metrics."""

import numpy as np

from repro.autograd import Tensor
from repro.autograd.functional import (
    accuracy,
    masked_cross_entropy_value_and_grad,
)

from tests.conftest import numeric_gradient
from tests.loss_reference import cross_entropy


class TestCrossEntropyTensor:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        loss = cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-6

    def test_uniform_prediction_log_c(self):
        logits = Tensor(np.zeros((4, 5)))
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert np.isclose(float(loss.data), np.log(5))

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        logits_data = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        logits = Tensor(logits_data, requires_grad=True)
        cross_entropy(logits, labels).backward()

        def scalar():
            return float(cross_entropy(Tensor(logits_data), labels).data)

        numeric = numeric_gradient(scalar, logits_data)
        np.testing.assert_allclose(logits.grad, numeric, atol=1e-6)

    def test_mask_restricts_rows(self):
        rng = np.random.default_rng(4)
        logits_data = rng.standard_normal((6, 3))
        labels = rng.integers(0, 3, size=6)
        mask = np.array([True, False, True, False, False, True])
        logits = Tensor(logits_data, requires_grad=True)
        cross_entropy(logits, labels, mask).backward()
        # Unmasked rows must receive zero gradient.
        assert np.all(logits.grad[~mask] == 0.0)
        assert np.any(logits.grad[mask] != 0.0)


class TestMaskedValueAndGrad:
    def test_matches_tensor_path(self):
        rng = np.random.default_rng(5)
        logits_data = rng.standard_normal((8, 4))
        labels = rng.integers(0, 4, size=8)
        mask = rng.random(8) < 0.5
        if not mask.any():
            mask[0] = True

        loss_value, grad = masked_cross_entropy_value_and_grad(
            logits_data, labels, mask
        )
        logits = Tensor(logits_data, requires_grad=True)
        tensor_loss = cross_entropy(logits, labels, mask)
        tensor_loss.backward()

        assert np.isclose(loss_value, float(tensor_loss.data))
        np.testing.assert_allclose(grad, logits.grad, atol=1e-12)

    def test_empty_mask(self):
        loss, grad = masked_cross_entropy_value_and_grad(
            np.ones((3, 2)), np.zeros(3, dtype=np.int64),
            np.zeros(3, dtype=bool),
        )
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_gradient_sums_to_zero_per_row(self):
        # Softmax gradient rows sum to zero for correct-label rows.
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        _, grad = masked_cross_entropy_value_and_grad(
            logits, labels, np.ones(5, dtype=bool)
        )
        np.testing.assert_allclose(grad.sum(axis=1), np.zeros(5), atol=1e-12)

    def test_large_logits_stable(self):
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        loss, grad = masked_cross_entropy_value_and_grad(
            logits, np.array([0, 1]), np.ones(2, dtype=bool)
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))


class TestAccuracy:
    def test_all_correct(self):
        logits = np.array([[2.0, 1.0], [0.0, 3.0]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_half_correct(self):
        logits = np.array([[2.0, 1.0], [3.0, 0.0]])
        assert accuracy(logits, np.array([0, 1])) == 0.5

    def test_masked(self):
        logits = np.array([[2.0, 1.0], [3.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1, 1])
        mask = np.array([True, False, True])
        assert accuracy(logits, labels, mask) == 1.0

    def test_empty_mask_returns_zero(self):
        assert accuracy(np.ones((2, 2)), np.zeros(2, dtype=np.int64),
                        np.zeros(2, dtype=bool)) == 0.0
