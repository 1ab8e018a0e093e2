"""The autograd-tape GCN fit that :class:`~repro.models.gcn.FusedGCNFit` replaced."""

from __future__ import annotations

from repro.models.gcn import GCN


class TapeGCN(GCN):
    """A :class:`GCN` that :class:`~repro.models.trainer.Trainer` fits on the tape.

    ``Trainer.fit`` takes the fused loop only for a model that is exactly a
    ``GCN``, so this subclass, which changes nothing, runs the generic loop:
    ``GCN.forward``, ``cross_entropy`` and ``Tensor.backward`` every epoch,
    and ``Trainer.evaluate`` for validation.  The fused fit must stay
    bit-identical to it: parameters, model rng state and every
    ``TrainingResult`` field.
    """
