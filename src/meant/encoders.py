"""Attention blocks and the language / vision encoder pipelines.

The language stack is an interleaved-layernorm transformer encoder run
independently per lag day; the vision stack alternates temporal attention
(same patch across frames) and spatial attention (patches within a frame)
before a feed-forward sub-layer. Each pipeline reads its sizes from the
model's ``ModelConfig``; a block takes its width and head count, and every
feed-forward sub-layer widens by ``FFN_RATIO``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .embeddings import (apply_axial_rotary_2d, apply_rotary, apply_xpos,
                         patch_embed, token_embed)
from .errors import DimensionError
from .tensor import Tensor, attention, gelu, layer_norm, matmul

if TYPE_CHECKING:
    from .fusion import ModelConfig

INIT_STD = 0.02
FFN_RATIO = 4


def visible_tokens(ids: np.ndarray, pad_id: int) -> np.ndarray:
    """True at a day's real tokens (``ids != pad_id``), the positions
    attention keys on and pooling averages. A fully padded day keeps
    position 0, so it still has a key to attend to and a token to pool."""
    visible = np.asarray(ids) != pad_id
    visible[..., 0] |= ~visible.any(axis=-1)
    return visible


class Module:
    """A layer. ``params()`` walks its attributes in the order it set them:
    its own trainable tensors, as ``<name>.<attribute>``, then the
    parameters of the layers it holds, directly or in a list."""

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        held = []
        for attr, value in vars(self).items():
            if isinstance(value, Tensor) and value.requires_grad:
                out[f"{self.name}.{attr}"] = value
            else:
                held += value if isinstance(value, list) else [value]
        for layer in held:
            # duck-typed, so an object standing in for a layer counts too
            if hasattr(layer, "params"):
                out.update(layer.params())
        return out


class Linear(Module):
    def __init__(self, rng: np.random.Generator, d_in: int, d_out: int,
                 name: str, scale: float = 1.0, bias: bool = True):
        self.name = name
        w = rng.normal(0.0, INIT_STD * scale, size=(d_in, d_out))
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = matmul(x, self.weight)
        return out if self.bias is None else out + self.bias


class LayerNorm(Module):
    def __init__(self, d: int, name: str):
        self.name = name
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


class MultiHeadAttention(Module):
    """Scaled dot-product attention with optional rope and key masking.

    The one attention core: the language and vision blocks attend a
    sequence to itself, ``QueryTargetAttention`` attends the final lag day
    to the whole window.
    """

    def __init__(self, rng, dim: int, heads: int, name: str,
                 out_scale: float = 1.0):
        if dim % heads:
            raise DimensionError(f"dim {dim} not divisible by heads {heads}")
        self.dim = dim
        self.heads = heads
        self.head_dim = dim // heads
        # no biases on the projections: a key bias is a flat direction of
        # the softmax, and rotary-family encodings assume unshifted q/k
        self.wq = Linear(rng, dim, dim, f"{name}.wq", bias=False)
        self.wk = Linear(rng, dim, dim, f"{name}.wk", bias=False)
        self.wv = Linear(rng, dim, dim, f"{name}.wv", bias=False)
        self.wo = Linear(rng, dim, dim, f"{name}.wo", scale=out_scale, bias=False)

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.head_dim)

    def _split(self, x: Tensor) -> Tensor:
        """(b, n, dim) -> (b, heads, n, head_dim)."""
        b, n, _ = x.shape
        return x.reshape(b, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def attend(self, x_q: Tensor, x_kv: Tensor, mask: np.ndarray | None = None,
               rope=None) -> Tensor:
        """Queries from ``x_q`` (b, n_q, dim) attend keys from ``x_kv``
        (b, n_k, dim); ``mask`` (b, n_k) is True for visible keys and
        ``rope(q, k)`` rotates the per-head q and k."""
        q = self._split(self.wq(x_q))
        k = self._split(self.wk(x_kv))
        v = self._split(self.wv(x_kv))
        if rope is not None:
            q, k = rope(q, k)
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)[:, None, None, :]
        out = attention(q, k, v, self.scale, mask)
        b, _, n, _ = out.shape
        return self.wo(out.transpose(0, 2, 1, 3).reshape(b, n, self.dim))

    def __call__(self, x: Tensor, mask: np.ndarray | None = None,
                 rope=None) -> Tensor:
        return self.attend(x, x, mask, rope)


class FeedForward(Module):
    """Linear -> interleaved layer norm -> GELU -> Linear."""

    def __init__(self, rng, dim: int, name: str, out_scale: float = 1.0):
        hidden = dim * FFN_RATIO
        self.fc1 = Linear(rng, dim, hidden, f"{name}.fc1")
        self.inner_norm = LayerNorm(hidden, f"{name}.inner_norm")
        self.fc2 = Linear(rng, hidden, dim, f"{name}.fc2", scale=out_scale)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.inner_norm(self.fc1(x))))


class LanguageEncoderBlock(Module):
    """Pre-norm attention and FFN sub-layers with residuals."""

    def __init__(self, rng, dim: int, heads: int, name: str, out_scale: float):
        self.norm1 = LayerNorm(dim, f"{name}.norm1")
        self.attn = MultiHeadAttention(rng, dim, heads, f"{name}.attn", out_scale)
        self.norm2 = LayerNorm(dim, f"{name}.norm2")
        self.ffn = FeedForward(rng, dim, f"{name}.ffn", out_scale)

    def __call__(self, x: Tensor, mask=None, rope=None) -> Tensor:
        x = x + self.attn(self.norm1(x), mask=mask, rope=rope)
        return x + self.ffn(self.norm2(x))


class DividedSpaceTimeBlock(Module):
    """Temporal attention across frames, spatial within a frame, then FFN."""

    def __init__(self, rng, dim: int, heads: int, name: str, out_scale: float):
        self.norm_t = LayerNorm(dim, f"{name}.norm_t")
        self.attn_t = MultiHeadAttention(rng, dim, heads, f"{name}.attn_t",
                                         out_scale)
        self.norm_s = LayerNorm(dim, f"{name}.norm_s")
        self.attn_s = MultiHeadAttention(rng, dim, heads, f"{name}.attn_s",
                                         out_scale)
        self.norm_f = LayerNorm(dim, f"{name}.norm_f")
        self.ffn = FeedForward(rng, dim, f"{name}.ffn", out_scale)

    def __call__(self, x: Tensor, grid: tuple[int, int]) -> Tensor:
        b, l, n_p, d = x.shape
        gh, gw = grid
        if gh * gw != n_p:
            raise DimensionError(f"grid {grid} does not tile {n_p} patches")

        frames = np.arange(l)
        rope_t = (lambda q, k: apply_rotary(q, k, frames))
        y = x.transpose(0, 2, 1, 3).reshape(b * n_p, l, d)
        y = y + self.attn_t(self.norm_t(y), rope=rope_t)
        x = y.reshape(b, n_p, l, d).transpose(0, 2, 1, 3)

        idx = np.arange(n_p)
        rows, cols = idx // gw, idx % gw
        rope_s = (lambda q, k: apply_axial_rotary_2d(q, k, rows, cols))
        z = x.reshape(b * l, n_p, d)
        z = z + self.attn_s(self.norm_s(z), rope=rope_s)
        z = z + self.ffn(self.norm_f(z))
        return z.reshape(b, l, n_p, d)


class LanguagePipeline(Module):
    """Token embedding plus per-lag-day encoder blocks -> L_out:
    ``lang_depth`` blocks of width ``d_l``, with ``lang_pos`` as the
    positional encoding and only ``visible_tokens`` as keys. Takes (b, l, s)
    ids of any width s, positions 0..s-1, and returns (b, l, s, d_l)."""

    def __init__(self, rng, config: ModelConfig):
        self.config = config
        self.name = "lang.embed"    # its one own tensor is lang.embed.table
        self.table = Tensor(rng.normal(0.0, INIT_STD,
                                       size=(config.vocab_size, config.d_l)),
                            requires_grad=True)
        out_scale = 1.0 / math.sqrt(2.0 * config.lang_depth)
        self.blocks = [LanguageEncoderBlock(rng, config.d_l, config.heads,
                                            f"lang.block{i}", out_scale)
                       for i in range(config.lang_depth)]

    def __call__(self, ids: np.ndarray) -> Tensor:
        c = self.config
        ids = np.asarray(ids, dtype=np.int64)
        b, l, s = ids.shape
        x = token_embed(ids, self.table).reshape(b * l, s, c.d_l)
        mask = visible_tokens(ids, c.pad_id).reshape(b * l, s)
        positions = np.arange(s)
        if c.lang_pos == "xpos":
            rope = lambda q, k: apply_xpos(q, k, positions)
        elif c.lang_pos == "rotary":
            rope = lambda q, k: apply_rotary(q, k, positions)
        else:
            rope = None
        for block in self.blocks:
            x = block(x, mask=mask, rope=rope)
        return x.reshape(b, l, s, c.d_l)


class VisionPipeline(Module):
    """Patch embedding plus divided space-time blocks -> I_out:
    ``vision_depth`` blocks of width ``d_p`` over the ``patch_size`` patches
    of each ``channels x image_height x image_width`` chart, whose sides
    must be multiples of ``patch_size``."""

    def __init__(self, rng, config: ModelConfig):
        self.config = config
        p, h, w = config.patch_size, config.image_height, config.image_width
        if h % p or w % p:
            raise DimensionError(f"image {h}x{w} not divisible by patch {p}")
        self.grid = (h // p, w // p)
        self.n_p = self.grid[0] * self.grid[1]
        self.patch = Linear(rng, config.channels * p * p, config.d_p,
                            "vision.patch")
        out_scale = 1.0 / math.sqrt(2.0 * config.vision_depth)
        self.blocks = [DividedSpaceTimeBlock(rng, config.d_p, config.heads,
                                             f"vision.block{i}", out_scale)
                       for i in range(config.vision_depth)]

    def __call__(self, images: np.ndarray) -> Tensor:
        b, l = images.shape[:2]
        x = patch_embed(images, self.patch, self.config.patch_size)
        for block in self.blocks:
            x = block(x, self.grid)
        return x.reshape(b, l * self.n_p, self.config.d_p)
