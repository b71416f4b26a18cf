"""Finite-difference verification of model gradients.

Op-level checks use ``tensor.grad_check`` exhaustively; whole-model checks
sample coordinates per parameter tensor (seeded, so reproducible) because
the full Cartesian sweep is needlessly slow at equal rigor per coordinate.
Both measure every coordinate by ``tensor.central_difference_errors``: a
difference within the roundoff of a central difference does not count.
"""

from __future__ import annotations

import numpy as np

from .fusion import MeantModel
from .tensor import central_difference_errors
from .training import cross_entropy


def model_grad_check(model: MeantModel, batch: dict, step: float = 1e-5,
                     max_coords: int = 30, seed: int = 0) -> dict[str, float]:
    """Max error per parameter tensor for the classification loss."""
    params = model.params()
    rng = np.random.default_rng(seed)
    coords = [np.arange(p.size) if p.size <= max_coords
              else rng.choice(p.size, size=max_coords, replace=False)
              for p in params.values()]

    def loss():
        logits = model(batch.get("ids"), batch.get("macd"), batch.get("images"))
        return cross_entropy(logits, batch["labels"])

    errors = central_difference_errors(loss, list(params.values()), coords, step)
    return dict(zip(params, errors))
