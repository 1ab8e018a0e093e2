"""Differential conformance suite: every kernel backend vs the numpy reference.

The :class:`repro.kernels.base.KernelBackend` contract (see its docstring):
primitives whose floating-point evaluation order is fixed by the reference
must be **bit-identical** to :class:`~repro.kernels.NumpyBackend`; reductions
a backend may legitimately reorder must agree within ``atol <= 1e-10``.  This
suite runs every registered backend (plus an explicitly multi-threaded
``ThreadedBackend``, which on a 1-core CI host would otherwise fall back to
its serial path) against the reference over one shared grid of shapes and
edge cases — empty rows, single-row CSR, ``F=1``, 1-D operands,
non-contiguous inputs, NaN/inf propagation — and then pins the end-to-end
guarantees: the fused softmax-xent pass is bit-identical to the unfused
autograd chain, a same-seed BGC cell is bit-identical across backends, and a
same-seed tiny sweep is bit-identical across ``numpy``/``threaded`` ×
``serial``/``process``/``pool``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro import kernels
from repro.autograd.functional import cross_entropy, log_softmax, nll_loss
from repro.autograd.module import Linear
from repro.autograd.tensor import Tensor
from repro.api import ExperimentSpec, run_experiment, run_sweep
from repro.exceptions import ConfigurationError
from repro.kernels import (
    NumpyBackend,
    ThreadedBackend,
    active_backend,
    available_kernel_backends,
    kernel_backend_name,
    set_kernel_backend,
)

from test_service import IDENTITY_FIELDS, assert_records_identical, smoke_sweep

REFERENCE = NumpyBackend()


def _registered_instance(name: str):
    previous = set_kernel_backend(name)
    try:
        return active_backend()
    finally:
        set_kernel_backend(previous)


def candidate_backends():
    """Every registered non-reference backend, plus a forced-parallel threaded one."""
    candidates = [
        (name, _registered_instance(name))
        for name in available_kernel_backends()
        if name != "numpy"
    ]
    candidates.append(("threaded-w3", ThreadedBackend(workers=3)))
    return candidates


BACKENDS = candidate_backends()
BACKEND_IDS = [name for name, _ in BACKENDS]
BACKEND_PARAMS = pytest.mark.parametrize(
    "backend", [instance for _, instance in BACKENDS], ids=BACKEND_IDS
)


def assert_same_values(result, expected) -> None:
    """Exact (bit-level, NaN-aware) agreement plus shape/dtype equality."""
    result = np.asarray(result)
    expected = np.asarray(expected)
    assert result.shape == expected.shape
    assert result.dtype == expected.dtype
    np.testing.assert_array_equal(result, expected)


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
        # Big enough that ThreadedBackend takes its chunked parallel path
        # (nnz * F clears the serial-fallback work threshold).
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


SPMM_KINDS = ("single-row", "empty-rows", "all-zero", "signed", "large")
#: The backward pass of ``sparse_matmul`` multiplies by the CSC view ``csr.T``.
TRANSPOSE_KINDS = SPMM_KINDS + ("unsorted-indices", "duplicates")


class TestSpmmConformance:
    @BACKEND_PARAMS
    @pytest.mark.parametrize("kind", SPMM_KINDS)
    @pytest.mark.parametrize("num_features", [1, 7])
    def test_matches_reference_2d(self, backend, kind, num_features):
        matrix = _csr_case(kind)
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((matrix.shape[1], num_features))
        assert_same_values(
            backend.spmm(matrix, dense), REFERENCE.spmm(matrix, dense)
        )

    @BACKEND_PARAMS
    @pytest.mark.parametrize("kind", SPMM_KINDS)
    def test_matches_reference_1d(self, backend, kind):
        matrix = _csr_case(kind)
        vector = np.random.default_rng(6).standard_normal(matrix.shape[1])
        assert_same_values(
            backend.spmm(matrix, vector), REFERENCE.spmm(matrix, vector)
        )

    @BACKEND_PARAMS
    def test_non_contiguous_dense(self, backend):
        matrix = _csr_case("large")
        wide = np.random.default_rng(7).standard_normal((matrix.shape[1], 24))
        dense = wide[:, ::2]  # non-contiguous column view
        assert not dense.flags["C_CONTIGUOUS"]
        assert_same_values(
            backend.spmm(matrix, dense), REFERENCE.spmm(matrix, dense)
        )

    @BACKEND_PARAMS
    def test_nan_inf_propagation(self, backend):
        matrix = _csr_case("large")
        dense = np.random.default_rng(8).standard_normal((matrix.shape[1], 6))
        dense[0, 0] = np.nan
        dense[1, 1] = np.inf
        dense[2, 2] = -np.inf
        assert_same_values(
            backend.spmm(matrix, dense), REFERENCE.spmm(matrix, dense)
        )

    @BACKEND_PARAMS
    def test_csc_operand(self, backend):
        # The blocked engine slices CSC columns; spmm must accept both formats.
        matrix = _csr_case("signed").tocsc()
        dense = np.random.default_rng(9).standard_normal((matrix.shape[1], 4))
        assert_same_values(
            backend.spmm(matrix, dense), REFERENCE.spmm(matrix, dense)
        )

    @pytest.mark.parametrize("backend", [REFERENCE] + [b for _, b in BACKENDS], ids=["numpy"] + BACKEND_IDS)
    @pytest.mark.parametrize("kind", TRANSPOSE_KINDS)
    @pytest.mark.parametrize("num_features", [1, 7])
    def test_transpose_view_matches_materialised_transpose(self, backend, kind, num_features):
        """``spmm(csr.T, g)`` on the free CSC view == the CSR transpose, bit for bit."""
        csr = _csr_case(kind)
        view = csr.T
        assert view.format == "csc"
        grad = np.random.default_rng(22).standard_normal((csr.shape[0], num_features))
        assert_same_values(
            backend.spmm(view, grad), REFERENCE.spmm(csr.T.tocsr(), grad)
        )


class TestDenseProductConformance:
    @BACKEND_PARAMS
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 4, 2), (60, 50, 40)])
    def test_matmul(self, backend, shape):
        n, k, m = shape
        rng = np.random.default_rng(10)
        a, b = rng.standard_normal((n, k)), rng.standard_normal((k, m))
        assert_same_values(backend.matmul(a, b), REFERENCE.matmul(a, b))

    @BACKEND_PARAMS
    @pytest.mark.parametrize(
        "shape", [(1, 2, 2, 2), (5, 3, 4, 2), (48, 16, 16, 16)]
    )
    def test_batched_matmul(self, backend, shape):
        batch, n, k, m = shape
        rng = np.random.default_rng(11)
        a = rng.standard_normal((batch, n, k))
        b = rng.standard_normal((batch, k, m))
        assert_same_values(
            backend.batched_matmul(a, b), REFERENCE.batched_matmul(a, b)
        )

    @BACKEND_PARAMS
    def test_batched_matmul_non_contiguous(self, backend):
        rng = np.random.default_rng(12)
        a = np.swapaxes(rng.standard_normal((16, 48, 20)), -1, -2)
        b = rng.standard_normal((16, 48, 24))
        assert not a.flags["C_CONTIGUOUS"]
        assert_same_values(
            backend.batched_matmul(a, b), REFERENCE.batched_matmul(a, b)
        )

    @BACKEND_PARAMS
    def test_batched_matmul_nan_inf(self, backend):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((40, 10, 14))
        b = rng.standard_normal((40, 14, 12))
        a[0, 0, 0] = np.nan
        b[1, 2, 3] = np.inf
        assert_same_values(
            backend.batched_matmul(a, b), REFERENCE.batched_matmul(a, b)
        )

    @BACKEND_PARAMS
    @pytest.mark.parametrize("shape", [(2, 3), (4, 1, 6), (3, 5, 5)])
    def test_transpose_last2(self, backend, shape):
        x = np.random.default_rng(14).standard_normal(shape)
        result = backend.transpose_last2(x)
        assert_same_values(result, REFERENCE.transpose_last2(x))
        assert result.flags["C_CONTIGUOUS"]


class TestScatterGatherConformance:
    @BACKEND_PARAMS
    def test_embed_blocks(self, backend):
        rng = np.random.default_rng(15)
        base = rng.standard_normal((4, 7, 6))
        blocks = rng.standard_normal((4, 3, 2))
        assert_same_values(
            backend.embed_blocks(base, blocks, 2, 1),
            REFERENCE.embed_blocks(base, blocks, 2, 1),
        )

    @BACKEND_PARAMS
    @pytest.mark.parametrize(
        "index,unique",
        [
            (np.array([0, 2, 5]), True),
            (np.array([4]), True),
            (np.array([3, 0, 3, 1, 3]), False),
            (np.array([], dtype=np.int64), True),
        ],
        ids=["sorted-unique", "single", "duplicates", "empty"],
    )
    def test_scatter_add_rows(self, backend, index, unique):
        values = np.random.default_rng(16).standard_normal((index.size, 3))
        assert_same_values(
            backend.scatter_add_rows((6, 3), index, values, unique),
            REFERENCE.scatter_add_rows((6, 3), index, values, unique),
        )

    @BACKEND_PARAMS
    def test_gather_scale(self, backend):
        rng = np.random.default_rng(17)
        data = rng.standard_normal(40)
        index = rng.integers(0, 9, size=40)
        scale = rng.standard_normal(9)
        assert_same_values(
            backend.gather_scale(data, index, scale),
            REFERENCE.gather_scale(data, index, scale),
        )

    @BACKEND_PARAMS
    @pytest.mark.parametrize("kind", ["signed", "empty-rows", "all-zero"])
    def test_scale_csr(self, backend, kind):
        matrix = _csr_case(kind)
        rng = np.random.default_rng(18)
        row_scale = rng.standard_normal(matrix.shape[0])
        col_scale = rng.standard_normal(matrix.shape[1])
        result = backend.scale_csr(matrix, row_scale, col_scale)
        expected = REFERENCE.scale_csr(matrix, row_scale, col_scale)
        assert result.shape == expected.shape
        assert_same_values(result.indptr, expected.indptr)
        assert_same_values(result.indices, expected.indices)
        assert_same_values(result.data, expected.data)


class TestFusedLossConformance:
    @BACKEND_PARAMS
    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (64, 7)])
    def test_softmax_xent_forward(self, backend, shape):
        rng = np.random.default_rng(19)
        logits = 4.0 * rng.standard_normal(shape)
        weighted = rng.random(shape) / max(shape[0], 1)
        loss, probs = backend.softmax_xent(logits, weighted)
        ref_loss, ref_probs = REFERENCE.softmax_xent(logits, weighted)
        assert_same_values(loss, ref_loss)
        assert_same_values(probs, ref_probs)

    @BACKEND_PARAMS
    def test_softmax_xent_grad(self, backend):
        rng = np.random.default_rng(20)
        logits = rng.standard_normal((12, 5))
        weighted = rng.random((12, 5)) / 12.0
        _, probs = REFERENCE.softmax_xent(logits, weighted)
        upstream = np.asarray(1.7)
        assert_same_values(
            backend.softmax_xent_grad(upstream, probs, weighted),
            REFERENCE.softmax_xent_grad(upstream, probs, weighted),
        )

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
    @pytest.mark.parametrize("kernel", ["numpy", "threaded"])
    def test_csr_input_matches_dense_input(self, kernel):
        """``Linear`` on CSR features: same output and gradients as dense, to 1e-12.

        Large enough that the threaded backend splits both the forward
        ``X W`` and the backward ``Xᵀ G`` across threads.
        """
        rng = np.random.default_rng(23)
        features = rng.standard_normal((600, 200))
        features[rng.random(features.shape) > 0.05] = 0.0
        upstream = rng.standard_normal((600, 16))
        previous = set_kernel_backend(kernel)
        try:
            results = []
            for x in (Tensor(features), sp.csr_matrix(features)):
                layer = Linear(200, 16, rng=np.random.default_rng(24))
                out = layer(x)
                out.backward(upstream)
                results.append((out.data, layer.weight.grad, layer.bias.grad))
        finally:
            set_kernel_backend(previous)
        for dense, sparse in zip(*results):
            np.testing.assert_allclose(sparse, dense, rtol=0, atol=1e-12)


class TestRegistryAndSelection:
    def test_reference_is_registered_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
        assert "numpy" in available_kernel_backends()
        assert "threaded" in available_kernel_backends()
        assert kernel_backend_name() == "numpy"
        assert active_backend().name == "numpy"

    def test_override_wins_and_restores(self):
        ambient = kernel_backend_name()
        previous = set_kernel_backend("threaded")
        try:
            assert kernel_backend_name() == "threaded"
            assert active_backend().name == "threaded"
        finally:
            set_kernel_backend(previous)
        assert kernel_backend_name() == ambient

    def test_unknown_override_lists_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            set_kernel_backend("definitely-not-a-backend")
        message = str(excinfo.value)
        for name in available_kernel_backends():
            assert name in message

    def test_environment_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "threaded")
        assert kernel_backend_name() == "threaded"
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "nope")
        with pytest.raises(ConfigurationError):
            kernel_backend_name()
        monkeypatch.delenv("REPRO_KERNEL_BACKEND")
        assert kernel_backend_name() == "numpy"

    def test_threads_environment_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "5")
        assert ThreadedBackend().workers == 5
        monkeypatch.setenv("REPRO_KERNEL_THREADS", "junk")
        with pytest.raises(ConfigurationError, match="REPRO_KERNEL_THREADS"):
            ThreadedBackend().workers
        assert ThreadedBackend(workers=2).workers == 2

    def test_register_rejects_abstract_name(self):
        with pytest.raises(ConfigurationError):
            kernels.register_kernel_backend(kernels.KernelBackend)


def _bgc_cell(seed: int = 5) -> ExperimentSpec:
    """One cheap BGC attack cell on the tiny dataset."""
    return ExperimentSpec.from_dict(
        {
            "dataset": "tiny",
            "condenser": {"name": "gcond", "overrides": {"epochs": 2, "ratio": 0.2}},
            "attack": {"name": "bgc", "overrides": {"epochs": 2, "poison_ratio": 0.2}},
            "trigger": {"overrides": {"trigger_size": 2}},
            "evaluation": {"overrides": {"epochs": 5}},
            "seed": seed,
        }
    )


class TestEndToEndIdentity:
    def test_bgc_cell_bit_identical_across_backends(self):
        """Same-seed BGC epochs produce identical records under every backend."""
        baseline = run_experiment(_bgc_cell(), cell_index=0)
        assert baseline.ok
        for name in available_kernel_backends():
            if name == "numpy":
                continue
            previous = set_kernel_backend(name)
            try:
                record = run_experiment(_bgc_cell(), cell_index=0)
            finally:
                set_kernel_backend(previous)
            assert_records_identical(baseline, record)

    @pytest.mark.parametrize("exec_backend", ["serial", "process", "pool"])
    def test_tiny_sweep_bit_identical_across_kernel_backends(self, exec_backend):
        """numpy/threaded × serial/process/pool all agree bit for bit."""
        sweep = smoke_sweep(seed=11)
        ambient = kernel_backend_name()  # numpy unless the env selects another
        baseline = run_sweep(sweep)  # serial, ambient backend
        assert all(record.ok for record in baseline)
        for kernel in available_kernel_backends():
            if exec_backend == "serial" and kernel == ambient:
                continue  # that IS the baseline
            result = run_sweep(
                sweep,
                execution={
                    "backend": exec_backend,
                    "workers": 2,
                    "kernel_backend": kernel,
                },
            )
            assert len(result) == len(baseline)
            for expected, actual in zip(baseline, result):
                assert_records_identical(expected, actual)
        # The override never leaks past the sweep.
        assert kernel_backend_name() == ambient
