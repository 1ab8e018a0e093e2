"""Module system: parameter containers and common layers.

The API intentionally mirrors a minimal subset of ``torch.nn`` so that the
GNN model code reads like the reference implementation: ``Module`` tracks
parameters and submodules recursively and ``Linear`` provides a dense layer
with Glorot initialisation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, is_grad_enabled, sparse_matmul
from repro.autograd import functional as F
from repro.exceptions import AutogradError
from repro.graph.view import StackedFeatures


class Parameter(Tensor):
    """A tensor flagged as trainable (``requires_grad=True``)."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


def glorot(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=tuple(shape))


class Module:
    """Base class providing recursive parameter discovery and train/eval mode."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -------------------------------------------------------------- #
    # Registration
    # -------------------------------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Explicitly register a submodule (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    def parameters(self) -> List[Parameter]:
        """Return all parameters of this module and its submodules."""
        params: List[Parameter] = list(self._parameters.values())
        for module in self._modules.values():
            params.extend(module.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -------------------------------------------------------------- #
    # Train / eval state
    # -------------------------------------------------------------- #
    def train(self) -> "Module":
        """Switch this module (recursively) to training mode."""
        self.training = True
        for module in self._modules.values():
            module.train()
        return self

    def eval(self) -> "Module":
        """Switch this module (recursively) to evaluation mode."""
        self.training = False
        for module in self._modules.values():
            module.eval()
        return self

    # -------------------------------------------------------------- #
    # State dict (flat copies of parameter arrays)
    # -------------------------------------------------------------- #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return copies of all parameter arrays keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        current = dict(self.named_parameters())
        missing = set(current) - set(state)
        unexpected = set(state) - set(current)
        if missing or unexpected:
            raise AutogradError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, param in current.items():
            array = np.asarray(state[name], dtype=np.float64)
            if array.shape != param.data.shape:
                raise AutogradError(
                    f"shape mismatch for {name}: expected {param.data.shape}, got {array.shape}"
                )
            param.data = array.copy()

    # -------------------------------------------------------------- #
    # Forward
    # -------------------------------------------------------------- #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W + b`` with Glorot-initialised weights.

    ``x`` is a dense :class:`Tensor` or array, a constant scipy sparse matrix
    (such as bag-of-words features) or a
    :class:`~repro.graph.view.StackedFeatures`.  A sparse ``x`` multiplies
    through :func:`~repro.autograd.tensor.sparse_matmul`, so only the weight
    gets a gradient.  Under ``no_grad`` a stacked ``x`` multiplies block by
    block (:meth:`~repro.graph.view.StackedFeatures.project`) without its
    ``(N + M, F)`` vstack; with gradients on the tape needs it materialised.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(glorot((in_features, out_features), rng), name="weight")
        self.use_bias = bias
        if bias:
            self.bias = Parameter(np.zeros(out_features), name="bias")

    def forward(self, x: Union[Tensor, np.ndarray, sp.spmatrix, StackedFeatures]) -> Tensor:
        if isinstance(x, StackedFeatures) and not is_grad_enabled():
            out = Tensor(x.project(self.weight.data))
        elif sp.issparse(x):
            out = sparse_matmul(x, self.weight)
        else:
            out = (x if isinstance(x, Tensor) else Tensor(x)).matmul(self.weight)
        if self.use_bias:
            out = out + self.bias.reshape(1, -1)
        return out
