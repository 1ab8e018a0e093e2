"""Unit tests for the autograd Tensor: forward values and backward gradients."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, no_grad, is_grad_enabled
from repro.autograd.tensor import sparse_matmul
from repro.exceptions import AutogradError

from helpers import numerical_gradient


def check_gradient(build_loss, shape, rng, rtol=1e-5, atol=1e-7):
    """Compare analytic and numerical gradients of a scalar-valued function."""
    array = rng.normal(size=shape)
    tensor = Tensor(array.copy(), requires_grad=True)
    loss = build_loss(tensor)
    loss.backward()

    def numeric(a):
        return build_loss(Tensor(a)).item()

    expected = numerical_gradient(numeric, array.copy())
    np.testing.assert_allclose(tensor.grad, expected, rtol=rtol, atol=atol)


class TestTensorBasics:
    def test_construction_converts_to_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.size == 4
        assert t.ndim == 2

    def test_item_on_scalar(self):
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_item_on_non_scalar_raises(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones((2, 2))).item()

    def test_detach_cuts_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_copy_is_independent(self):
        t = Tensor(np.ones(3), requires_grad=True)
        c = t.copy()
        c.data[0] = 5.0
        assert t.data[0] == 1.0
        assert c.requires_grad

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).backward()

    def test_backward_without_grad_on_vector_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            (t * 2.0).backward()

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.sum()).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_gradient_accumulates_over_backward_calls(self):
        t = Tensor(np.ones(3), requires_grad=True)
        t.sum().backward()
        t.sum().backward()
        np.testing.assert_allclose(t.grad, 2.0 * np.ones(3))


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        with no_grad():
            assert not is_grad_enabled()
            t = Tensor(np.ones(3), requires_grad=True)
            out = t * 2.0
            assert not out.requires_grad
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()


class TestArithmeticGradients:
    def test_add(self, rng):
        check_gradient(lambda t: (t + 3.0).sum(), (4, 3), rng)

    def test_sub(self, rng):
        check_gradient(lambda t: (5.0 - t).sum(), (4, 3), rng)

    def test_mul(self, rng):
        other = rng.normal(size=(4, 3))
        check_gradient(lambda t: (t * other).sum(), (4, 3), rng)

    def test_div(self, rng):
        other = rng.normal(size=(4, 3)) + 3.0
        check_gradient(lambda t: (t / other).sum(), (4, 3), rng)

    def test_rdiv(self, rng):
        check_gradient(lambda t: (2.0 / (t + 5.0)).sum(), (3, 3), rng)

    def test_pow(self, rng):
        check_gradient(lambda t: ((t + 4.0) ** 3).sum(), (4,), rng, rtol=1e-4)

    def test_neg(self, rng):
        check_gradient(lambda t: (-t).sum(), (4, 3), rng)

    def test_broadcast_row_vector(self, rng):
        other = rng.normal(size=(1, 3))
        check_gradient(lambda t: (t + other).sum(), (4, 3), rng)

    def test_broadcast_grad_on_small_operand(self, rng):
        big = Tensor(rng.normal(size=(4, 3)))
        small = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        (big * small).sum().backward()
        assert small.grad.shape == (1, 3)
        np.testing.assert_allclose(small.grad, big.data.sum(axis=0, keepdims=True))

    def test_pow_with_tensor_exponent_raises(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(AutogradError):
            t ** Tensor(np.ones(3))


class TestLinearAlgebraGradients:
    def test_matmul_left(self, rng):
        other = rng.normal(size=(3, 5))
        check_gradient(lambda t: t.matmul(other).sum(), (4, 3), rng)

    def test_matmul_right(self, rng):
        left = rng.normal(size=(4, 3))
        check_gradient(lambda t: Tensor(left).matmul(t).sum(), (3, 5), rng)

    def test_matmul_rejects_1d(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3), requires_grad=True).matmul(np.ones(3))

    def test_transpose(self, rng):
        weights = rng.normal(size=(5, 4))
        check_gradient(lambda t: (t.T * weights).sum(), (4, 5), rng)

    def test_transpose_rejects_1d(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).transpose()

    def test_reshape(self, rng):
        check_gradient(lambda t: (t.reshape(2, 6) ** 2).sum(), (4, 3), rng)

    def test_inverse(self, rng):
        base = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        check_gradient(lambda t: (t + 4.0 * np.eye(4)).inverse().sum(), (4, 4), rng, rtol=1e-4)
        del base

    def test_inverse_rejects_non_square(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones((2, 3))).inverse()

    def test_inverse_value(self):
        matrix = np.array([[2.0, 0.0], [0.0, 4.0]])
        inv = Tensor(matrix).inverse()
        np.testing.assert_allclose(inv.data, np.array([[0.5, 0.0], [0.0, 0.25]]))


class TestReductionsAndElementwise:
    def test_sum_all(self, rng):
        check_gradient(lambda t: t.sum(), (3, 4), rng)

    def test_sum_axis0(self, rng):
        w = rng.normal(size=(4,))
        check_gradient(lambda t: (t.sum(axis=0) * w).sum(), (3, 4), rng)

    def test_sum_axis1_keepdims(self, rng):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(), (3, 4), rng, rtol=1e-4)

    def test_mean(self, rng):
        check_gradient(lambda t: t.mean(), (3, 4), rng)

    def test_mean_axis(self, rng):
        check_gradient(lambda t: (t.mean(axis=1) ** 2).sum(), (3, 4), rng, rtol=1e-4)

    def test_exp(self, rng):
        check_gradient(lambda t: t.exp().sum(), (3, 3), rng, rtol=1e-4)

    def test_log(self, rng):
        check_gradient(lambda t: (t + 5.0).log().sum(), (3, 3), rng)

    def test_sqrt(self, rng):
        check_gradient(lambda t: (t + 5.0).sqrt().sum(), (3, 3), rng)

    def test_abs(self, rng):
        check_gradient(lambda t: (t + 0.7).abs().sum(), (3, 3), rng)

    def test_relu_forward_and_grad(self):
        t = Tensor(np.array([[-1.0, 2.0], [0.5, -3.0]]), requires_grad=True)
        out = t.relu()
        np.testing.assert_allclose(out.data, [[0.0, 2.0], [0.5, 0.0]])
        out.sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_sigmoid(self, rng):
        check_gradient(lambda t: t.sigmoid().sum(), (3, 3), rng, rtol=1e-4)

    def test_tanh(self, rng):
        check_gradient(lambda t: t.tanh().sum(), (3, 3), rng, rtol=1e-4)

    def test_clip_gradient_masks_out_of_range(self):
        t = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestIndexing:
    def test_index_rows_gradient_scatters(self):
        t = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 2, 2])
        out = t.index_rows(idx)
        assert out.shape == (3, 3)
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0] = 1.0
        expected[2] = 2.0
        np.testing.assert_allclose(t.grad, expected)

    def test_getitem_slice_gradient(self, rng):
        check_gradient(lambda t: (t[0:2] ** 2).sum(), (4, 3), rng, rtol=1e-4)

    def test_getitem_with_list_routes_to_index_rows(self):
        t = Tensor(np.eye(3), requires_grad=True)
        out = t[[1, 2]]
        assert out.shape == (2, 3)


class TestConcatenate:
    def test_concatenate_axis0_values(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((1, 3)))
        out = Tensor.concatenate([a, b], axis=0)
        assert out.shape == (3, 3)

    def test_concatenate_gradient_split(self, rng):
        a_data = rng.normal(size=(2, 3))
        b_data = rng.normal(size=(3, 3))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = Tensor.concatenate([a, b], axis=0)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a_data)
        np.testing.assert_allclose(b.grad, 2 * b_data)

    def test_concatenate_axis1(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        out = Tensor.concatenate([a, b], axis=1)
        assert out.shape == (2, 6)
        out.sum().backward()
        assert a.grad.shape == (2, 2)
        assert b.grad.shape == (2, 4)


class TestSparseMatmul:
    def test_forward_matches_dense(self, rng):
        dense = (rng.random((5, 5)) < 0.4).astype(float)
        sparse = sp.csr_matrix(dense)
        x = Tensor(rng.normal(size=(5, 3)))
        out = sparse_matmul(sparse, x)
        np.testing.assert_allclose(out.data, dense @ x.data)

    def test_gradient_is_transpose_product(self, rng):
        dense = (rng.random((5, 5)) < 0.4).astype(float)
        sparse = sp.csr_matrix(dense)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        sparse_matmul(sparse, x).sum().backward()
        np.testing.assert_allclose(x.grad, dense.T @ np.ones((5, 3)))

    def test_rejects_dense_first_operand(self):
        with pytest.raises(AutogradError):
            sparse_matmul(np.eye(3), Tensor(np.ones((3, 2))))


class TestGraphReuse:
    def test_diamond_graph_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        z = x * 4.0
        (y + z).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain(self):
        x = Tensor(np.array([1.5]), requires_grad=True)
        out = x
        for _ in range(50):
            out = out * 1.01
        out.sum().backward()
        assert x.grad[0] == pytest.approx(1.01 ** 50, rel=1e-9)
