"""Unit tests for the Module system (parameter management, layers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Linear, Module, Parameter, Tensor
from repro.autograd import functional as F
from repro.exceptions import AutogradError
from repro.utils.seed import new_rng


class TwoLayer(Module):
    def __init__(self, rng):
        super().__init__()
        self.fc1 = Linear(4, 8, rng=rng)
        self.fc2 = Linear(8, 2, rng=rng)
        self.scale = Parameter(np.ones(1), name="scale")

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x))) * self.scale


class TestModuleRegistration:
    def test_parameters_are_collected_recursively(self, rng):
        model = TwoLayer(rng)
        params = model.parameters()
        # fc1 (w, b) + fc2 (w, b) + scale
        assert len(params) == 5

    def test_named_parameters_have_qualified_names(self, rng):
        model = TwoLayer(rng)
        names = dict(model.named_parameters()).keys()
        assert "fc1.weight" in names
        assert "fc2.bias" in names
        assert "scale" in names

    def test_zero_grad_clears_all(self, rng):
        model = TwoLayer(rng)
        out = model(Tensor(rng.normal(size=(3, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_train_eval_propagates(self, rng):
        model = TwoLayer(rng)
        model.eval()
        assert not model.training
        assert not model.fc1.training and not model.fc2.training
        model.train()
        assert model.training and model.fc1.training and model.fc2.training


class TestStateDict:
    def test_roundtrip(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        clone = TwoLayer(new_rng(999))
        clone.load_state_dict(state)
        x = Tensor(rng.normal(size=(2, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)

    def test_state_dict_is_a_copy(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["fc1.weight"][:] = 0.0
        assert not np.allclose(model.fc1.weight.data, 0.0)

    def test_missing_key_raises(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        del state["scale"]
        with pytest.raises(AutogradError):
            model.load_state_dict(state)

    def test_shape_mismatch_raises(self, rng):
        model = TwoLayer(rng)
        state = model.state_dict()
        state["scale"] = np.ones(3)
        with pytest.raises(AutogradError):
            model.load_state_dict(state)


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(3, 5))))
        assert out.shape == (3, 7)

    def test_no_bias(self, rng):
        layer = Linear(5, 7, rng=rng, bias=False)
        assert len(layer.parameters()) == 1
        out = layer(Tensor(np.zeros((2, 5))))
        np.testing.assert_allclose(out.data, np.zeros((2, 7)))

    def test_glorot_scale(self, rng):
        layer = Linear(100, 100, rng=rng)
        limit = np.sqrt(6.0 / 200)
        assert np.abs(layer.weight.data).max() <= limit + 1e-12

    def test_gradients_flow_to_weight_and_bias(self, rng):
        layer = Linear(4, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        out.sum().backward()
        assert layer.weight.grad.shape == (4, 3)
        assert layer.bias.grad.shape == (3,)
