"""Additional property-based tests: optimisers, defenses and selection scoring."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autograd import Adam
from repro.autograd.module import Parameter
from repro.condensation.base import CondensedGraph
from repro.defenses import PruneConfig, PruneDefense
from repro.defenses.detection import FeatureOutlierDetector, SpectralSignatureDetector
from repro.utils.seed import new_rng


def _random_condensed(seed: int, n: int, d: int, num_classes: int) -> CondensedGraph:
    generator = new_rng(seed)
    features = generator.normal(size=(n, d))
    labels = generator.integers(0, num_classes, size=n)
    upper = np.triu((generator.random((n, n)) < 0.3).astype(float), k=1)
    adjacency = upper + upper.T
    return CondensedGraph(features=features, labels=labels, adjacency=adjacency, method="test")


class TestOptimizerProperties:
    @given(
        dim=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_adam_first_step_magnitude_bounded_by_lr(self, dim, seed):
        generator = new_rng(seed)
        param = Parameter(generator.normal(size=dim))
        before = param.data.copy()
        optimizer = Adam([param], lr=0.05)
        optimizer.zero_grad()
        (param * param).sum().backward()
        optimizer.step()
        # Adam's bias-corrected first step is at most ~lr per coordinate.
        assert np.all(np.abs(param.data - before) <= 0.05 + 1e-9)


class TestDefenseProperties:
    @given(
        n=st.integers(min_value=4, max_value=20),
        d=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=500),
        fraction=st.floats(min_value=0.1, max_value=0.8),
    )
    @settings(max_examples=25, deadline=None)
    def test_prune_only_removes_edges(self, n, d, seed, fraction):
        condensed = _random_condensed(seed, n, d, num_classes=3)
        pruned = PruneDefense(PruneConfig(prune_fraction=fraction)).apply_to_condensed(condensed)
        before = condensed.adjacency > 0
        after = pruned.adjacency > 0
        # Pruning never adds edges and never changes features or labels.
        assert not np.any(after & ~before)
        np.testing.assert_allclose(pruned.features, condensed.features)
        np.testing.assert_array_equal(pruned.labels, condensed.labels)

    @given(
        n=st.integers(min_value=6, max_value=24),
        d=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
        contamination=st.floats(min_value=0.05, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_detectors_flag_expected_fraction(self, n, d, seed, contamination):
        condensed = _random_condensed(seed, n, d, num_classes=2)
        for detector_cls in (FeatureOutlierDetector, SpectralSignatureDetector):
            report = detector_cls(contamination=contamination).detect(condensed)
            expected = max(1, int(round(contamination * n)))
            assert report.num_flagged == expected
            assert report.scores.shape == (n,)


class TestSelectionScoreProperties:
    @given(
        seed=st.integers(min_value=0, max_value=500),
        balance=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_metric_is_monotone_in_degree(self, seed, balance):
        """Eq. 9: at equal distance, a higher-degree node never scores better."""
        generator = new_rng(seed)
        distance = float(generator.random())
        low_degree, high_degree = 2.0, 10.0
        score_low = distance + balance * low_degree
        score_high = distance + balance * high_degree
        assert score_high >= score_low


class TestKernelBackendProperties:
    """Algebraic invariants of the kernel backend.

    Shapes are drawn by hypothesis.  Linearity holds to float tolerance
    only — the backend reassociates ``A(x+y)`` vs ``Ax+Ay`` — while
    structural properties (identity no-op, transpose involution) are exact.
    """

    @staticmethod
    def _backends():
        from repro.kernels import active_backend

        return [active_backend()]

    @given(
        n=st.integers(min_value=1, max_value=12),
        f=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_spmm_is_linear(self, n, f, seed):
        import scipy.sparse as sp

        generator = new_rng(seed)
        dense_a = generator.normal(size=(n, n))
        dense_a[generator.random((n, n)) < 0.5] = 0.0
        matrix = sp.csr_matrix(dense_a)
        x = generator.normal(size=(n, f))
        y = generator.normal(size=(n, f))
        alpha = float(generator.normal())
        for backend in self._backends():
            combined = backend.spmm(matrix, x + alpha * y)
            separate = backend.spmm(matrix, x) + alpha * backend.spmm(matrix, y)
            np.testing.assert_allclose(combined, separate, atol=1e-10)

    @given(
        n=st.integers(min_value=1, max_value=12),
        f=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_identity_adjacency_is_noop(self, n, f, seed):
        import scipy.sparse as sp

        generator = new_rng(seed)
        x = generator.normal(size=(n, f))
        identity = sp.eye(n, format="csr")
        for backend in self._backends():
            np.testing.assert_array_equal(backend.spmm(identity, x), x)

    @given(
        batch=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_batched_matmul_is_linear(self, batch, n, k, m, seed):
        generator = new_rng(seed)
        a = generator.normal(size=(batch, n, k))
        b = generator.normal(size=(batch, k, m))
        c = generator.normal(size=(batch, k, m))
        alpha = float(generator.normal())
        for backend in self._backends():
            combined = backend.batched_matmul(a, b + alpha * c)
            separate = backend.batched_matmul(a, b) + alpha * backend.batched_matmul(a, c)
            np.testing.assert_allclose(combined, separate, atol=1e-10)

    @given(
        batch=st.integers(min_value=1, max_value=5),
        n=st.integers(min_value=1, max_value=6),
        m=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=25, deadline=None)
    def test_transpose_consistency(self, batch, n, m, seed):
        """transpose is an involution and commutes with batched matmul:
        ``(A @ B)^T == B^T @ A^T`` per batch, exactly (same per-entry dot)."""
        generator = new_rng(seed)
        a = generator.normal(size=(batch, n, m))
        b = generator.normal(size=(batch, m, n))
        for backend in self._backends():
            np.testing.assert_array_equal(
                backend.transpose_last2(backend.transpose_last2(a)), a
            )
            product_t = backend.transpose_last2(backend.batched_matmul(a, b))
            swapped = backend.batched_matmul(
                backend.transpose_last2(b), backend.transpose_last2(a)
            )
            np.testing.assert_allclose(product_t, swapped, atol=1e-10)
