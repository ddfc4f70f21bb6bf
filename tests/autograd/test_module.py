"""Module tree mechanics: parameter registration, state dicts, train/eval."""

import numpy as np
import pytest

from repro.autograd import Module, Parameter, Tensor, ops


class Affine(Module):
    def __init__(self, scale=2.0):
        super().__init__()
        self.weight = Parameter(np.array([scale]))

    def forward(self, x):
        return ops.mul(x, self.weight)


class Nested(Module):
    def __init__(self):
        super().__init__()
        self.inner = Affine(3.0)
        self.bias = Parameter(np.array([1.0]))

    def forward(self, x):
        return ops.add(self.inner(x), self.bias)


class TestRegistration:
    def test_parameters_collected_recursively(self):
        model = Nested()
        params = model.parameters()
        assert len(params) == 2

    def test_named_parameters_paths(self):
        names = dict(Nested().named_parameters())
        assert set(names) == {"bias", "inner.weight"}

    def test_num_parameters(self):
        assert Nested().num_parameters() == 2


class TestStateDict:
    def test_roundtrip(self):
        model = Nested()
        state = model.state_dict()
        model.inner.weight.data[:] = 99.0
        model.load_state_dict(state)
        assert model.inner.weight.data[0] == 3.0

    def test_state_dict_is_a_copy(self):
        model = Nested()
        state = model.state_dict()
        state["bias"][:] = 42.0
        assert model.bias.data[0] == 1.0

    def test_mismatched_keys_raise(self):
        model = Nested()
        with pytest.raises(KeyError):
            model.load_state_dict({"bias": np.array([1.0])})

    def test_mismatched_shape_raises(self):
        model = Nested()
        state = model.state_dict()
        state["bias"] = np.zeros(5)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)


class TestTrainEval:
    def test_mode_propagates(self):
        model = Nested()
        model.eval()
        assert not model.training and not model.inner.training
        model.train()
        assert model.training and model.inner.training


class TestGradFlow:
    def test_zero_grad_clears_all(self):
        model = Nested()
        out = ops.sum(model(Tensor(np.array([2.0]))))
        out.backward()
        assert model.inner.weight.grad is not None
        model.zero_grad()
        assert model.inner.weight.grad is None
        assert model.bias.grad is None

    def test_forward_backward_through_tree(self):
        model = Nested()
        x = Tensor(np.array([2.0]))
        ops.sum(model(x)).backward()
        assert model.inner.weight.grad[0] == pytest.approx(2.0)
        assert model.bias.grad[0] == pytest.approx(1.0)
