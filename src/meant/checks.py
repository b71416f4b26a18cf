"""Finite-difference verification of model gradients.

Op-level checks use ``tensor.grad_check`` exhaustively; whole-model checks
sample coordinates per parameter tensor (seeded, so reproducible) because
the full Cartesian sweep is needlessly slow at equal rigor per coordinate.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .fusion import MeantModel
from .tensor import no_grad
from .training import cross_entropy


def model_grad_check(model: MeantModel, batch: dict, step: float = 1e-5,
                     max_coords: int = 30, seed: int = 0) -> dict[str, float]:
    """Max relative error per parameter tensor for the classification loss."""
    params = model.params()
    rng = np.random.default_rng(seed)

    def loss_value() -> float:
        with no_grad():
            logits = model(batch.get("ids"), batch.get("macd"),
                           batch.get("images"))
            return cross_entropy(logits, batch["labels"]).item()

    model.zero_grad()
    logits = model(batch.get("ids"), batch.get("macd"), batch.get("images"))
    loss = cross_entropy(logits, batch["labels"])
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is not finite")
    loss.backward()

    errors: dict[str, float] = {}
    for name, p in params.items():
        analytic = (p.grad if p.grad is not None
                    else np.zeros_like(p.data)).reshape(-1)
        flat = p.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords
                  else rng.choice(n, size=max_coords, replace=False))
        worst = 0.0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_value()
            flat[i] = orig - step
            lo = loss_value()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            mag = abs(analytic[i]) + abs(numeric)
            if mag < 1e-6:
                # below the resolution of central differences on an O(1)
                # loss in double precision; require absolute agreement at
                # the roundoff floor instead of a relative comparison
                err = abs(analytic[i] - numeric) / 1e-5
            else:
                err = abs(analytic[i] - numeric) / max(1e-8, mag)
            worst = max(worst, err)
        errors[name] = worst
    return errors
