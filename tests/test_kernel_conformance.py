"""Pins of the kernel backend, :class:`repro.kernels.NumpyBackend`.

Every hot primitive dispatches through ``active_backend()``.  Each test here
pins one primitive to the plain expression it stands for — bit for bit
wherever that expression fixes a floating-point evaluation order — over one
shared grid of edge cases: empty rows, single-row CSR, ``F=1``, 1-D
operands, non-contiguous inputs and NaN/inf propagation.  The fused
softmax-xent pass is pinned to the unfused autograd chain, and ``Linear`` on
CSR input to the same layer on dense input.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy import special

from repro.autograd.functional import cross_entropy, log_softmax, nll_loss
from repro.autograd.module import Linear
from repro.autograd.tensor import Tensor
from repro.kernels import NumpyBackend, active_backend, kernel_backend_name, numpy_backend

from helpers import numerical_gradient

BACKEND = active_backend()


def assert_same_values(result, expected) -> None:
    """Exact (bit-level, NaN-aware) agreement plus shape/dtype equality."""
    result = np.asarray(result)
    expected = np.asarray(expected)
    assert result.shape == expected.shape
    assert result.dtype == expected.dtype
    np.testing.assert_array_equal(result, expected)


def row_order_spmm(matrix: sp.spmatrix, dense: np.ndarray) -> np.ndarray:
    """``matrix @ dense`` with each output row summed in stored-index order."""
    csr = sp.csr_matrix(matrix)
    out = np.zeros((csr.shape[0],) + dense.shape[1:])
    for row in range(csr.shape[0]):
        for entry in range(csr.indptr[row], csr.indptr[row + 1]):
            out[row] += csr.data[entry] * dense[csr.indices[entry]]
    return out


def _csr_case(kind: str) -> sp.csr_matrix:
    rng = np.random.default_rng(hash(kind) % (2**32))
    if kind == "single-row":
        return sp.csr_matrix(np.array([[1.0, 0.0, -2.0, 0.5, 0.0]]))
    if kind == "empty-rows":
        dense = rng.standard_normal((8, 5))
        dense[[0, 3, 7]] = 0.0
        dense[dense < 0.3] = 0.0
        return sp.csr_matrix(dense)
    if kind == "all-zero":
        return sp.csr_matrix((6, 4))
    if kind == "signed":
        dense = rng.standard_normal((12, 9))
        dense[np.abs(dense) < 0.8] = 0.0
        return sp.csr_matrix(dense)
    if kind == "large":
        return sp.random(400, 350, density=0.05, random_state=11, format="csr")
    if kind == "unsorted-indices":
        base = _csr_case("large")
        indices, data = base.indices.copy(), base.data.copy()
        for start, stop in zip(base.indptr[:-1], base.indptr[1:]):
            indices[start:stop] = indices[start:stop][::-1]
            data[start:stop] = data[start:stop][::-1]
        matrix = sp.csr_matrix((data, indices, base.indptr.copy()), shape=base.shape)
        assert not matrix.has_sorted_indices
        return matrix
    if kind == "duplicates":
        # Repeated (row, col) entries, stored unsummed.
        indptr = np.array([0, 3, 4, 7, 7, 9])
        indices = np.array([1, 3, 1, 0, 2, 2, 0, 3, 3])
        data = rng.standard_normal(indices.size)
        matrix = sp.csr_matrix((data, indices, indptr), shape=(5, 4))
        assert not matrix.has_canonical_format
        return matrix
    raise AssertionError(kind)


#: The last two are non-canonical: scipy still sums each row in stored order.
SPMM_KINDS = (
    "single-row", "empty-rows", "all-zero", "signed", "large", "unsorted-indices", "duplicates"
)


class TestDispatch:
    def test_active_backend_is_the_one_numpy_backend(self):
        assert isinstance(BACKEND, NumpyBackend)
        assert active_backend() is BACKEND
        assert kernel_backend_name() == BACKEND.name == "numpy"


class TestSpmm:
    @pytest.mark.parametrize("kind", SPMM_KINDS)
    @pytest.mark.parametrize("num_features", [1, 7])
    def test_sums_rows_in_stored_order_2d(self, kind, num_features):
        matrix = _csr_case(kind)
        dense = np.random.default_rng(5).standard_normal((matrix.shape[1], num_features))
        assert_same_values(BACKEND.spmm(matrix, dense), row_order_spmm(matrix, dense))

    @pytest.mark.parametrize("kind", SPMM_KINDS)
    def test_sums_rows_in_stored_order_1d(self, kind):
        matrix = _csr_case(kind)
        vector = np.random.default_rng(6).standard_normal(matrix.shape[1])
        assert_same_values(BACKEND.spmm(matrix, vector), row_order_spmm(matrix, vector))

    def test_non_contiguous_dense(self):
        matrix = _csr_case("large")
        wide = np.random.default_rng(7).standard_normal((matrix.shape[1], 24))
        dense = wide[:, ::2]  # non-contiguous column view
        assert not dense.flags["C_CONTIGUOUS"]
        assert_same_values(
            BACKEND.spmm(matrix, dense), BACKEND.spmm(matrix, np.ascontiguousarray(dense))
        )

    def test_nan_inf_propagation(self):
        matrix = _csr_case("large")
        dense = np.random.default_rng(8).standard_normal((matrix.shape[1], 6))
        dense[0, 0] = np.nan
        dense[1, 1] = np.inf
        dense[2, 2] = -np.inf
        assert_same_values(BACKEND.spmm(matrix, dense), row_order_spmm(matrix, dense))

    def test_csc_operand(self):
        # The blocked engine slices CSC columns; spmm must accept both formats.
        matrix = _csr_case("signed")
        dense = np.random.default_rng(9).standard_normal((matrix.shape[1], 4))
        assert_same_values(BACKEND.spmm(matrix.tocsc(), dense), BACKEND.spmm(matrix, dense))

    @pytest.mark.parametrize("kind", SPMM_KINDS)
    @pytest.mark.parametrize("num_features", [1, 7])
    def test_transpose_view_matches_materialised_transpose(self, kind, num_features):
        """``spmm(csr.T, g)`` on the free CSC view == the CSR transpose, bit for bit.

        The backward pass of ``sparse_matmul`` multiplies by this view.
        """
        csr = _csr_case(kind)
        view = csr.T
        assert view.format == "csc"
        grad = np.random.default_rng(22).standard_normal((csr.shape[0], num_features))
        assert_same_values(BACKEND.spmm(view, grad), BACKEND.spmm(csr.T.tocsr(), grad))


def _int64_indices(matrix: sp.spmatrix) -> sp.spmatrix:
    matrix = matrix.copy()
    matrix.indices = matrix.indices.astype(np.int64)
    matrix.indptr = matrix.indptr.astype(np.int64)
    return matrix


#: ``name -> (matrix, dense, whether spmm calls scipy's multivector kernel
#: directly)``; everything else goes through ``matrix @ dense``.
DIRECT_SPMM_CASES = {
    "int64-csr": lambda: (_int64_indices(_csr_case("large")), (350, 5), True),
    "int64-csc": lambda: (_int64_indices(_csr_case("large").tocsc()), (350, 5), True),
    "csr-array": lambda: (sp.csr_array(_csr_case("signed")), (9, 3), False),
    "fortran-dense": lambda: (_csr_case("large"), "fortran", True),
    "F=1": lambda: (_csr_case("large"), (350, 1), False),
    "empty-rows": lambda: (_csr_case("empty-rows"), (5, 4), True),
    "no-stored-entries": lambda: (_csr_case("all-zero"), (4, 3), True),
    "zero-rows": lambda: (sp.csr_matrix((0, 5)), (5, 3), True),
    "float32-dense": lambda: (_csr_case("large"), "float32", False),
}


class TestSpmmDirectKernel:
    """``spmm`` calls scipy's ``csr_matvecs``/``csc_matvecs`` itself for a
    float64 ``csr_matrix``/``csc_matrix`` times a 2-D float64 array with more
    than one column; the result must be scipy's own ``matrix @ dense``, byte
    for byte, whichever route a case takes."""

    @staticmethod
    def _count_direct_calls(monkeypatch) -> list:
        calls = []
        for cls, kernel in list(numpy_backend._MATVECS.items()):
            def counted(*args, _kernel=kernel):
                calls.append(cls)
                return _kernel(*args)

            monkeypatch.setitem(numpy_backend._MATVECS, cls, counted)
        return calls

    @pytest.mark.parametrize("case", sorted(DIRECT_SPMM_CASES))
    def test_matches_scipy_product(self, case, monkeypatch):
        matrix, shape, direct = DIRECT_SPMM_CASES[case]()
        rng = np.random.default_rng(23)
        if shape == "fortran":
            dense = np.asfortranarray(rng.standard_normal((matrix.shape[1], 6)))
            assert not dense.flags["C_CONTIGUOUS"]
        elif shape == "float32":
            dense = rng.standard_normal((matrix.shape[1], 4)).astype(np.float32)
        else:
            dense = rng.standard_normal(shape)
        if case.startswith("int64"):
            assert matrix.indices.dtype == matrix.indptr.dtype == np.int64
        calls = self._count_direct_calls(monkeypatch)
        result = BACKEND.spmm(matrix, dense)
        assert len(calls) == int(direct)
        assert_same_values(result, matrix @ dense)
        if case == "float32-dense":
            assert result.dtype == np.float64, "scipy upcasts a float32 operand"


class TestDenseProducts:
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 2), (60, 50, 40)])
    def test_matmul_is_the_row_by_column_product(self, shape):
        n, k, m = shape
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m))
        result = BACKEND.matmul(a, b)
        exact = [[math.fsum(a[i] * b[:, j]) for j in range(m)] for i in range(n)]
        assert result.shape == (n, m) and result.dtype == np.float64
        np.testing.assert_allclose(result, exact, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize(
        "shape", [(1, 2, 2, 2), (5, 3, 4, 2), (48, 16, 16, 16)]
    )
    def test_batched_matmul_is_matmul_per_matrix(self, shape):
        batch, n, k, m = shape
        rng = np.random.default_rng(11)
        a = rng.standard_normal((batch, n, k))
        b = rng.standard_normal((batch, k, m))
        expected = np.stack([BACKEND.matmul(a[i], b[i]) for i in range(batch)])
        assert_same_values(BACKEND.batched_matmul(a, b), expected)

    def test_batched_matmul_non_contiguous(self):
        rng = np.random.default_rng(12)
        a = np.swapaxes(rng.standard_normal((16, 48, 20)), -1, -2)
        b = rng.standard_normal((16, 48, 24))
        assert not a.flags["C_CONTIGUOUS"]
        assert_same_values(
            BACKEND.batched_matmul(a, b),
            BACKEND.batched_matmul(np.ascontiguousarray(a), b),
        )

    def test_batched_matmul_nan_inf(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 10, 14))
        b = rng.standard_normal((40, 14, 12))
        a[0, 0, 0] = np.nan
        b[1, 2, 3] = np.inf
        result = BACKEND.batched_matmul(a, b)
        assert np.isnan(result[0, 0]).all()
        assert np.isinf(result[1, :, 3]).any()
        assert np.isfinite(result[2:]).all()

    @pytest.mark.parametrize("shape", [(2, 3), (4, 1, 6), (3, 5, 5)])
    def test_transpose_last2(self, shape):
        x = np.random.default_rng(14).standard_normal(shape)
        result = BACKEND.transpose_last2(x)
        assert_same_values(result, np.swapaxes(x, -1, -2))
        assert result.flags["C_CONTIGUOUS"]


class TestScatterGather:
    @pytest.mark.parametrize(
        "row_start, col_start", [(2, 1), (0, 0), (4, 4)], ids=["inner", "top-left", "bottom-right"]
    )
    def test_embed_blocks(self, row_start, col_start):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((4, 7, 6))
        blocks = rng.standard_normal((4, 3, 2))
        original = base.copy()
        result = BACKEND.embed_blocks(base, blocks, row_start, col_start)
        expected = original.copy()
        expected[:, row_start : row_start + 3, col_start : col_start + 2] = blocks
        assert_same_values(result, expected)
        assert_same_values(base, original)

    @pytest.mark.parametrize(
        "index,unique",
        [
            (np.array([0, 2, 5]), True),
            (np.array([4]), True),
            (np.array([3, 0, 3, 1, 3]), False),
            (np.array([], dtype=np.int64), True),
            (np.array([5, 3, 1]), True),
            (np.array([2, 2, 2, 2]), False),
        ],
        ids=["sorted-unique", "single", "duplicates", "empty", "reversed-unique", "one-row-repeated"],
    )
    def test_scatter_add_rows_is_a_segment_sum(self, index, unique):
        values = np.random.default_rng(16).standard_normal((index.size, 3))
        expected = np.zeros((6, 3))
        np.add.at(expected, index, values)
        assert_same_values(BACKEND.scatter_add_rows((6, 3), index, values, unique), expected)

    @pytest.mark.parametrize("size", [40, 1, 0])
    def test_gather_scale(self, size):
        rng = np.random.default_rng(17)
        data = rng.standard_normal(size)
        index = rng.integers(0, 9, size=size)
        scale = rng.standard_normal(9)
        assert_same_values(BACKEND.gather_scale(data, index, scale), data * scale[index])

    @pytest.mark.parametrize("kind", ["signed", "empty-rows", "all-zero", "single-row", "large"])
    def test_scale_csr_is_the_two_diagonal_products(self, kind):
        matrix = _csr_case(kind)
        rng = np.random.default_rng(18)
        row_scale = rng.standard_normal(matrix.shape[0])
        col_scale = rng.standard_normal(matrix.shape[1])
        result = BACKEND.scale_csr(matrix, row_scale, col_scale)
        expected = (sp.diags(row_scale) @ matrix @ sp.diags(col_scale)).tocsr()
        expected.sort_indices()
        assert result.shape == expected.shape
        assert_same_values(result.indptr, expected.indptr)
        assert_same_values(result.indices, expected.indices)
        assert_same_values(result.data, expected.data)


class TestFusedLoss:
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 7)])
    def test_softmax_xent_forward_is_softmax_and_weighted_nll(self, shape):
        rng = np.random.default_rng(19)
        logits = 4.0 * rng.standard_normal(shape)
        weighted = rng.random(shape) / shape[0]
        original = logits.copy()
        loss, probs = BACKEND.softmax_xent(logits, weighted)
        assert loss.shape == () and loss.dtype == np.float64
        np.testing.assert_allclose(probs, special.softmax(logits, axis=-1), rtol=1e-12)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-12)
        expected = -(special.log_softmax(logits, axis=-1) * weighted).sum()
        np.testing.assert_allclose(loss, expected, rtol=1e-12, atol=1e-15)
        assert_same_values(logits, original)

    @pytest.mark.parametrize("upstream", [1.0, 1.7, -0.5])
    def test_softmax_xent_grad_is_the_loss_gradient(self, upstream):
        """The backward pass matches a central difference of the forward loss."""
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((12, 5))
        weighted = rng.random((12, 5)) / 12.0
        _, probs = BACKEND.softmax_xent(logits, weighted)
        grad = BACKEND.softmax_xent_grad(np.asarray(upstream), probs, weighted)
        numeric = numerical_gradient(
            lambda x: upstream * float(BACKEND.softmax_xent(x, weighted)[0]), logits.copy()
        )
        assert grad.shape == logits.shape
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-8)

    def test_fused_cross_entropy_matches_unfused_chain(self):
        """The fused pass is bit-identical to nll_loss(log_softmax(...))."""
        rng = np.random.default_rng(21)
        logits_data = 3.0 * rng.standard_normal((30, 4))
        labels = rng.integers(0, 4, size=30)
        weights = rng.random(30) + 0.1

        for w in (None, weights):
            fused_in = Tensor(logits_data.copy(), requires_grad=True)
            fused = cross_entropy(fused_in, labels, weights=w)
            fused.backward()

            chain_in = Tensor(logits_data.copy(), requires_grad=True)
            chain = nll_loss(log_softmax(chain_in, axis=-1), labels, weights=w)
            chain.backward()

            assert fused.item() == chain.item()
            np.testing.assert_array_equal(fused_in.grad, chain_in.grad)


class TestSparseLinearInput:
    def test_csr_input_matches_dense_input(self):
        """``Linear`` on CSR features: same output and gradients as dense, to 1e-12."""
        rng = np.random.default_rng(23)
        features = rng.standard_normal((600, 200))
        features[rng.random(features.shape) > 0.05] = 0.0
        upstream = rng.standard_normal((600, 16))
        results = []
        for x in (Tensor(features), sp.csr_matrix(features)):
            layer = Linear(200, 16, rng=np.random.default_rng(24))
            out = layer(x)
            out.backward(upstream)
            results.append((out.data, layer.weight.grad, layer.bias.grad))
        for dense, sparse in zip(*results):
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)
