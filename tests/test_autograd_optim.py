"""Unit tests for the Adam optimiser and its base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Adam, Tensor
from repro.autograd.module import Module, Parameter
from repro.exceptions import AutogradError

from reference.optim import ReferenceAdam


def quadratic_loss(param: Parameter, target: np.ndarray) -> Tensor:
    diff = param - Tensor(target)
    return (diff * diff).sum()


class TestOptimizerBase:
    def test_empty_parameter_list_raises(self):
        with pytest.raises(AutogradError):
            Adam([], lr=0.1)

    def test_non_positive_lr_raises(self):
        with pytest.raises(AutogradError):
            Adam([Parameter(np.ones(2))], lr=0.0)

    def test_zero_grad(self):
        p = Parameter(np.ones(3))
        optimizer = Adam([p], lr=0.1)
        quadratic_loss(p, np.zeros(3)).backward()
        assert p.grad is not None
        optimizer.zero_grad()
        assert p.grad is None

    def test_step_skips_parameters_without_grad(self):
        p = Parameter(np.ones(3))
        optimizer = Adam([p], lr=0.1)
        optimizer.step()  # no gradient accumulated; should be a no-op
        np.testing.assert_allclose(p.data, np.ones(3))


class TestAdam:
    def test_converges_on_quadratic(self):
        target = np.array([0.5, -1.5])
        p = Parameter(np.zeros(2))
        optimizer = Adam([p], lr=0.05)
        for _ in range(500):
            optimizer.zero_grad()
            quadratic_loss(p, target).backward()
            optimizer.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_first_step_size_close_to_lr(self):
        p = Parameter(np.array([10.0]))
        optimizer = Adam([p], lr=0.1)
        optimizer.zero_grad()
        quadratic_loss(p, np.zeros(1)).backward()
        optimizer.step()
        assert abs(p.data[0] - 10.0) == pytest.approx(0.1, rel=1e-3)

    def test_invalid_betas_raise(self):
        with pytest.raises(AutogradError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    def test_weight_decay_changes_solution(self):
        target = np.array([3.0])
        plain = Parameter(np.zeros(1))
        decayed = Parameter(np.zeros(1))
        opt_plain = Adam([plain], lr=0.05)
        opt_decayed = Adam([decayed], lr=0.05, weight_decay=5.0)
        for _ in range(400):
            for p, opt in ((plain, opt_plain), (decayed, opt_decayed)):
                opt.zero_grad()
                quadratic_loss(p, target).backward()
                opt.step()
        assert decayed.data[0] < plain.data[0]

    def test_handles_multiple_parameters(self):
        a = Parameter(np.zeros(2))
        b = Parameter(np.zeros(3))
        optimizer = Adam([a, b], lr=0.1)
        optimizer.zero_grad()
        (quadratic_loss(a, np.ones(2)) + quadratic_loss(b, np.ones(3))).backward()
        optimizer.step()
        assert not np.allclose(a.data, 0.0)
        assert not np.allclose(b.data, 0.0)

    def test_step_updates_parameter_arrays_in_place(self):
        p = Parameter(np.ones((3, 2)))
        optimizer = Adam([p], lr=0.1)
        array = p.data
        for _ in range(3):
            optimizer.zero_grad()
            quadratic_loss(p, np.zeros((3, 2))).backward()
            optimizer.step()
        assert p.data is array
        assert not np.allclose(array, 1.0)


class _MixedShapes(Module):
    """Parameters of every rank the models use, plus a 0-d one."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.weight = Parameter(rng.standard_normal((6, 4)))
        self.bias = Parameter(rng.standard_normal(4))
        self.blocks = Parameter(rng.standard_normal((2, 3, 5)))
        self.scale = Parameter(np.array(0.7))


class TestAdamMatchesReference:
    """The in-place Adam is bit-identical to the allocating reference."""

    STEPS = 60

    def _trajectory(self, optimizer_cls, weight_decay: float):
        model = _MixedShapes(seed=0)
        params = model.parameters()
        optimizer = optimizer_cls(params, lr=0.03, weight_decay=weight_decay)
        grad_rng = np.random.default_rng(1)
        snapshot = None
        trajectory = []
        for step in range(self.STEPS):
            for index, param in enumerate(params):
                grad = 3.0 * grad_rng.standard_normal(param.data.shape)
                # The 3-D parameter gets no gradient on every third step.
                param.grad = None if index == 2 and step % 3 == 0 else grad
            optimizer.step()
            if step == 10:
                snapshot = model.state_dict()
            if step == 30:
                # Rewind the parameters; the moments carry on.
                model.load_state_dict(snapshot)
            trajectory.append(model.state_dict())
        return trajectory

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4, 0.3])
    def test_bit_identical_trajectory(self, weight_decay):
        fast = self._trajectory(Adam, weight_decay)
        reference = self._trajectory(ReferenceAdam, weight_decay)
        assert len(fast) == len(reference) == self.STEPS
        for step, (got, expected) in enumerate(zip(fast, reference)):
            for name in expected:
                assert got[name].tobytes() == expected[name].tobytes(), (step, name)

    def test_bit_identical_through_autograd_training(self):
        """A GCN trained with each optimiser ends on identical weights."""
        from helpers import build_small_graph

        from repro.autograd import functional as F
        from repro.models.gcn import GCN

        graph = build_small_graph()
        finals = []
        for optimizer_cls in (Adam, ReferenceAdam):
            model = GCN(graph.num_features, graph.num_classes, rng=np.random.default_rng(4), hidden=8)
            optimizer = optimizer_cls(model.parameters(), lr=0.01, weight_decay=5e-4)
            for _ in range(50):
                optimizer.zero_grad()
                logits = model(graph.adjacency, graph.features)
                F.cross_entropy(logits[graph.split.train], graph.labels[graph.split.train]).backward()
                optimizer.step()
            finals.append(model.state_dict())
        for name, value in finals[1].items():
            assert finals[0][name].tobytes() == value.tobytes(), name
