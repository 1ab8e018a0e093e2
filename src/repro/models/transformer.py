"""A single-layer multi-head Transformer encoder block.

Used only by the trigger-generator ablation (Table V), where the paper swaps
the MLP generator for a 1-layer / 8-head Transformer operating on node
representations.  The implementation is a standard pre-norm-free encoder
block: multi-head self-attention followed by a position-wise feed-forward
network, each with a residual connection.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.autograd import Linear, Module, Tensor
from repro.autograd import functional as F
from repro.exceptions import ConfigurationError


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention over a set of node vectors."""

    def __init__(self, model_dim: int, num_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ConfigurationError(
                f"model_dim ({model_dim}) must be divisible by num_heads ({num_heads})"
            )
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.query = Linear(model_dim, model_dim, rng=rng)
        self.key = Linear(model_dim, model_dim, rng=rng)
        self.value = Linear(model_dim, model_dim, rng=rng)
        self.output = Linear(model_dim, model_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[0] == 0:
            # No token to attend over: an empty batch gives an empty output,
            # which the per-token pass computes without a softmax over (0, 0).
            return self.forward_per_token(x)
        queries = self.query(x)
        keys = self.key(x)
        values = self.value(x)
        head_outputs: List[Tensor] = []
        scale = 1.0 / np.sqrt(self.head_dim)
        for head in range(self.num_heads):
            start = head * self.head_dim
            stop = start + self.head_dim
            q = queries[:, start:stop]
            k = keys[:, start:stop]
            v = values[:, start:stop]
            scores = q.matmul(k.T) * scale
            weights = F.softmax(scores, axis=-1)
            head_outputs.append(weights.matmul(v))
        concatenated = Tensor.concatenate(head_outputs, axis=1)
        return self.output(concatenated)

    def forward_per_token(self, x: Tensor) -> Tensor:
        """Attention when every row is its own length-1 sequence.

        A single token attends only to itself with weight exactly 1 (softmax
        of a 1x1 score), so the block reduces to ``output(value(x))`` applied
        row-wise — bit-identical to calling :meth:`forward` on each row
        separately, without the quadratic cross-row attention.
        """
        return self.output(self.value(x))


class TransformerEncoderLayer(Module):
    """One encoder block: self-attention + feed-forward, both residual."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        rng: np.random.Generator,
        feedforward_dim: int | None = None,
    ) -> None:
        super().__init__()
        feedforward_dim = feedforward_dim or 2 * model_dim
        self.attention = MultiHeadSelfAttention(model_dim, num_heads, rng)
        self.ff1 = Linear(model_dim, feedforward_dim, rng=rng)
        self.ff2 = Linear(feedforward_dim, model_dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        attended = x + self.attention(x)
        transformed = attended + self.ff2(F.relu(self.ff1(attended)))
        return transformed

    def forward_per_token(self, x: Tensor) -> Tensor:
        """Row-independent encoder pass: each row is its own length-1 sequence."""
        attended = x + self.attention.forward_per_token(x)
        return attended + self.ff2(F.relu(self.ff1(attended)))
