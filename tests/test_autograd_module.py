"""Tests for Module/Parameter containers, Linear, init, and optimizers."""

import numpy as np
import pytest

from repro.autograd import Linear, Module, Parameter, SGD, Adam, Tensor, init, ops
from repro.errors import ConfigurationError

from tests.loss_reference import sum_


class TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.first = Linear(4, 8, rng)
        self.second = Linear(8, 2, rng)

    def forward(self, x):
        return self.second(ops.relu(self.first(x)))


class WithList(Module):
    def __init__(self, rng):
        super().__init__()
        self.layers = [Linear(3, 3, rng) for _ in range(2)]
        self.scale = Parameter(np.ones(1), name="scale")


class TestModuleTraversal:
    def test_named_parameters_nested(self, rng):
        model = TwoLayer(rng)
        names = [name for name, _ in model.named_parameters()]
        assert names == ["first.weight", "first.bias",
                         "second.weight", "second.bias"]

    def test_parameters_in_lists(self, rng):
        model = WithList(rng)
        names = [name for name, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.1.bias" in names
        assert "scale" in names

    def test_parameter_nbytes(self, rng):
        model = TwoLayer(rng)
        assert model.parameter_nbytes() == (4 * 8 + 8 + 8 * 2 + 2) * 8


class TestStateDict:
    def test_state_dict_copies(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["first.weight"][:] = 0.0
        assert not np.all(model.first.weight.data == 0.0)

    def test_zero_grad(self, rng):
        model = TwoLayer(rng)
        out = model(Tensor(np.ones((2, 4))))
        out.backward(np.ones((2, 2)))
        assert model.first.weight.grad is not None
        model.zero_grad()
        assert model.first.weight.grad is None


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(3, 5, rng)
        assert layer(Tensor(np.ones((7, 3)))).shape == (7, 5)

    def test_no_bias(self, rng):
        layer = Linear(3, 5, rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_affine_math(self, rng):
        layer = Linear(2, 2, rng)
        layer.weight.data = np.eye(2)
        layer.bias.data = np.array([1.0, -1.0])
        out = layer(Tensor(np.array([[2.0, 3.0]])))
        np.testing.assert_allclose(out.data, [[3.0, 2.0]])


class TestInit:
    def test_xavier_uniform_bound(self, rng):
        w = init.xavier_uniform((100, 100), rng)
        bound = np.sqrt(6.0 / 200)
        assert np.all(np.abs(w) <= bound)

    def test_xavier_uniform_gain_is_one(self, rng):
        """The draws fill the whole gain-1 interval, not a narrower one."""
        w = init.xavier_uniform((60, 40), rng)
        bound = np.sqrt(6.0 / 100)
        assert np.abs(w).max() > 0.99 * bound
        assert np.var(w) == pytest.approx(bound ** 2 / 3, rel=0.1)

    def test_zeros(self):
        assert np.all(init.zeros((3, 3)) == 0.0)

    def test_determinism(self):
        a = init.xavier_uniform((4, 4), np.random.default_rng(5))
        b = init.xavier_uniform((4, 4), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)


def quadratic_loss(param):
    # f(w) = sum((w - 3)^2); minimum at w == 3.
    diff = ops.sub(param, Tensor(np.full_like(param.data, 3.0)))
    return sum_(ops.mul(diff, diff))


class TestSGD:
    def test_converges_on_quadratic(self):
        w = Parameter(np.zeros(4))
        optimizer = SGD([w], lr=0.1)
        for _ in range(100):
            w.zero_grad()
            quadratic_loss(w).backward()
            optimizer.step()
        np.testing.assert_allclose(w.data, np.full(4, 3.0), atol=1e-6)

    def test_step_is_w_minus_lr_grad(self):
        w = Parameter(np.array([10.0, -2.0]))
        w.grad = np.array([4.0, 1.0])
        SGD([w], lr=0.25).step()
        np.testing.assert_array_equal(w.data, [9.0, -2.25])

    def test_skips_parameters_without_grad(self):
        w = Parameter(np.ones(2))
        SGD([w], lr=0.1).step()
        np.testing.assert_array_equal(w.data, np.ones(2))

    def test_invalid_lr(self):
        with pytest.raises(ConfigurationError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ConfigurationError):
            SGD([], lr=0.1)


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Parameter(np.zeros(4))
        optimizer = Adam([w], lr=0.2)
        for _ in range(200):
            w.zero_grad()
            quadratic_loss(w).backward()
            optimizer.step()
        np.testing.assert_allclose(w.data, np.full(4, 3.0), atol=1e-3)

    def test_bias_correction_first_step(self):
        # With bias correction the very first step is ~lr in magnitude.
        w = Parameter(np.zeros(1))
        optimizer = Adam([w], lr=0.1)
        w.grad = np.ones(1)
        optimizer.step()
        assert abs(abs(w.data[0]) - 0.1) < 1e-6

    def test_invalid_lr(self):
        with pytest.raises(ConfigurationError):
            Adam([Parameter(np.ones(1))], lr=-0.1)


@pytest.mark.parametrize("cls", [SGD, Adam])
@pytest.mark.parametrize("lr", [0.0, -0.1, float("nan"), float("inf"),
                                -float("inf"), True, "0.1", None])
def test_learning_rate_must_be_a_finite_positive_number(cls, lr):
    """NaN and inf used to pass the ``lr <= 0`` check and train to NaN."""
    with pytest.raises(ConfigurationError, match="finite number > 0"):
        cls([Parameter(np.ones(1))], lr=lr)


@pytest.mark.parametrize("cls", [SGD, Adam])
@pytest.mark.parametrize("lr", [1e-300, 0.5, 2, np.float32(0.1)])
def test_learning_rate_accepts_finite_positive_numbers(cls, lr):
    assert cls([Parameter(np.ones(1))], lr=lr).lr == lr


class TestRemovedSettings:
    """Optimizer hyper-parameters no caller set keep their one value
    (plain SGD; Adam's β = (0.9, 0.999), ε = 1e-8): passing one is a
    ``TypeError``, like any unknown keyword."""

    @pytest.mark.parametrize("cls, kwargs", [
        (SGD, {"momentum": 0.9}),
        (SGD, {"weight_decay": 1e-4}),
        (Adam, {"betas": (0.9, 0.99)}),
        (Adam, {"eps": 1e-6}),
        (Adam, {"weight_decay": 1e-4}),
    ], ids=["sgd_momentum", "sgd_weight_decay", "adam_betas", "adam_eps",
            "adam_weight_decay"])
    def test_removed_keyword_is_a_type_error(self, cls, kwargs):
        with pytest.raises(TypeError):
            cls([Parameter(np.ones(1))], lr=0.1, **kwargs)
