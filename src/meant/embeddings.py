"""Token/patch embedding and rotary-family positional encodings.

Every rotary-family encoding is one ``rotate_pairs`` node per operand, so
gradients flow through q and k; the cos/sin tables (with the xPos scale
folded in) are constants.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, rotate_pairs

ROTARY_BASE = 10000.0
XPOS_GAMMA = 0.4
# positions are divided by this before the xPos decay is raised to them
# (Sun et al. 2022, arXiv 2212.10554), so the scale stays near 1 at s=128
XPOS_SCALE_BASE = 512.0


def token_embed(ids: np.ndarray, table: Tensor) -> Tensor:
    """Row lookup producing a trailing embedding axis."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"token id out of range for table with {table.shape[0]} rows")
    return table[ids]


def extract_patches(images: np.ndarray, patch_size: int) -> np.ndarray:
    """(..., c, H, W) -> (..., n_p, c*P*P), channel-major within a patch."""
    p = patch_size
    *lead, c, h, w = images.shape
    if h % p or w % p:
        raise DimensionError(f"image {h}x{w} not divisible by patch {p}")
    gh, gw = h // p, w // p
    x = images.reshape(*lead, c, gh, p, gw, p)
    nl = len(lead)
    x = x.transpose(*range(nl), nl + 1, nl + 3, nl, nl + 2, nl + 4)
    return x.reshape(*lead, gh * gw, c * p * p)


def patch_embed(images: np.ndarray, proj: Callable[[Tensor], Tensor],
                patch_size: int) -> Tensor:
    """Non-overlapping patches projected into token vectors by the linear
    layer ``proj``."""
    return proj(Tensor(extract_patches(np.asarray(images, dtype=np.float64),
                                       patch_size)))


# -- rotary family -----------------------------------------------------


def rotary_tables(positions, d: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the rotary angles, one per pair: (len(positions), d // 2)."""
    pos = np.asarray(positions, dtype=np.float64)[:, None]
    theta = pos * ROTARY_BASE ** (-2.0 * np.arange(d // 2) / d)
    return np.cos(theta), np.sin(theta)


def apply_rotary(q: Tensor, k: Tensor, positions) -> tuple[Tensor, Tensor]:
    """Standard rotary embedding over the second-to-last (position) axis."""
    cos, sin = rotary_tables(positions, q.shape[-1])
    return rotate_pairs(q, cos, sin), rotate_pairs(k, cos, sin)


def xpos_scales(positions, d: int) -> np.ndarray:
    """The xPos decay of each pair, (len(positions), d // 2)."""
    zeta = (np.arange(d // 2) / (d / 2) + XPOS_GAMMA) / (1.0 + XPOS_GAMMA)
    pos = np.asarray(positions, dtype=np.float64)[:, None] / XPOS_SCALE_BASE
    return zeta ** pos


def apply_xpos(q: Tensor, k: Tensor, positions) -> tuple[Tensor, Tensor]:
    """Rotary rotation plus the xPos exponential decay on q and 1/decay on k."""
    d = q.shape[-1]
    cos, sin = rotary_tables(positions, d)
    scale = xpos_scales(positions, d)
    inv = 1.0 / scale
    return (rotate_pairs(q, cos * scale, sin * scale),
            rotate_pairs(k, cos * inv, sin * inv))


def apply_axial_rotary_2d(q: Tensor, k: Tensor, rows, cols) -> tuple[Tensor, Tensor]:
    """2-D rotary: the first half of dims follows the row index, the second
    the column index."""
    d = q.shape[-1]
    if d % 4:
        raise DimensionError(f"axial rotary needs d divisible by 4, got {d}")
    (rc, rs), (cc, cs) = rotary_tables(rows, d // 2), rotary_tables(cols, d // 2)
    cos, sin = np.concatenate([rc, cc], -1), np.concatenate([rs, cs], -1)
    return rotate_pairs(q, cos, sin), rotate_pairs(k, cos, sin)
