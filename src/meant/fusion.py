"""Per-day pooling, price fusion, target-day temporal attention, and the
classification head, assembled into the full model.

A day is pooled over its real tokens only (``encoders.visible_tokens``), so
its vector does not depend on its padding, and the model runs the language
encoder on each distinct day cut to its length bucket (``day_widths``).
The temporal attention builds its query from the final lag day only while
keys and values span the whole window, so the output is a target-focused
summary of the lag period.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .encoders import (INIT_STD, FeedForward, LanguagePipeline, LayerNorm,
                       Linear, Module, MultiHeadAttention, VisionPipeline,
                       visible_tokens)
from .errors import ContractError, DimensionError
from .tensor import Tensor, concat, gelu, matmul

MACD_WIDTH = 5


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 64
    seq_len: int = 16
    lag: int = 5
    d_l: int = 32
    d_p: int = 32
    lang_depth: int = 1
    vision_depth: int = 1
    heads: int = 2
    lang_pos: str = "xpos"
    pooling: str = "mean_pool"       # {mean_pool, seq_proj}
    use_text: bool = True
    use_image: bool = True
    use_price: bool = True
    image_height: int = 32
    image_width: int = 32
    channels: int = 3
    patch_size: int = 16
    pad_id: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "seq_len", "lag", "d_l", "d_p", "lang_depth",
                     "vision_depth", "heads", "image_height", "image_width",
                     "channels", "patch_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ContractError(f"{name} must be an integer >= 1, "
                                    f"got {value!r}")
        pad = self.pad_id
        if type(pad) is not int or not 0 <= pad < self.vocab_size:
            raise ContractError(f"pad_id must be an integer in "
                                f"0..{self.vocab_size - 1}, got {pad!r}")
        for name in ("use_text", "use_image", "use_price"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ContractError(f"{name} must be true or false, "
                                    f"got {value!r}")
        if self.lang_pos not in ("xpos", "rotary", "none"):
            raise ContractError(f"lang_pos must be xpos, rotary or none, "
                                f"got {self.lang_pos!r}")
        if not (self.use_text or self.use_image or self.use_price):
            raise ContractError("at least one modality must be enabled")
        if self.pooling not in ("mean_pool", "seq_proj"):
            raise ContractError(f"unknown pooling {self.pooling!r}")
        if self.use_image and self.d_p % (4 * self.heads):
            # spatial attention's axial rotary splits each head in quarters
            raise ContractError(f"d_p must be a multiple of 4 * heads = "
                                f"{4 * self.heads} with images, got {self.d_p}")

    @property
    def d_t(self) -> int:
        """Fused temporal width: language dim plus the 5 MACD lanes."""
        return self.d_l * self.use_text + MACD_WIDTH * self.use_price

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - {f for f in known}
        if unknown:
            raise ContractError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


# -- pooling -----------------------------------------------------------


def mean_pool(l_out: Tensor, visible: np.ndarray) -> Tensor:
    """Average of each day's token vectors, (..., s, d) -> (..., d), over
    its ``visible`` (..., s) positions only. PAD positions get a weight of
    exactly 0, so a day's vector does not depend on how far it is padded."""
    weights = visible / visible.sum(axis=-1, keepdims=True)
    return (l_out * Tensor(weights[..., None])).sum(axis=-2)


class SequenceProjection(Module):
    """Learned reduction of the second-to-last axis (the tokens of a day, or
    every patch of the window) followed by layer norm and GELU. No bias:
    a scalar added to every lane is removed again by the layer norm's
    centering."""

    def __init__(self, rng, seq_len: int, dim: int, name: str):
        self.seq_len = seq_len
        self.weight = Tensor(rng.normal(0.0, INIT_STD, size=(1, seq_len)),
                             requires_grad=True)
        self.norm = LayerNorm(dim, f"{name}.norm")
        self.name = name

    def __call__(self, seq: Tensor, visible: np.ndarray | None = None) -> Tensor:
        """Weigh the first n <= seq_len positions of (..., n, d); with
        ``visible`` (..., n), only the visible positions."""
        n = seq.shape[-2]
        if n > self.seq_len:
            raise DimensionError(
                f"expected at most {self.seq_len} positions, got {n}")
        weight = self.weight if n == self.seq_len else self.weight[:, :n]
        if visible is not None:
            weight = weight * Tensor(visible[..., None, :])
        projected = matmul(weight, seq)   # (..., 1, d)
        squeezed = projected.reshape(*seq.shape[:-2], seq.shape[-1])
        return gelu(self.norm(squeezed))


def fuse_price(l_seq: Tensor | None, macd: Tensor | None) -> Tensor:
    """Concatenate language features and MACD lanes on the last axis."""
    if l_seq is None and macd is None:
        raise ContractError("fusion needs at least one input")
    if l_seq is None:
        return macd
    if macd is None:
        return l_seq
    if l_seq.shape[:-1] != macd.shape[:-1]:
        raise DimensionError(
            f"batch/lag mismatch: {l_seq.shape} vs {macd.shape}")
    return concat([l_seq, macd], axis=-1)


def day_widths(visible: np.ndarray) -> np.ndarray:
    """The tokens each day row of ``visible`` (u, s) is encoded on: up to
    its last visible one, rounded up to a multiple of 8 and capped at s.

    Rounding keeps the bucket count small, and it keeps results
    bit-identical to full width: past a day's last visible token, attention
    and pooling only add terms of weight exactly 0, and numpy sums a row of
    up to 128 elements in 8 interleaved lanes, so dropping whole blocks of 8
    trailing zeros leaves every lane, and so the sum, unchanged (the tests
    pin this at s = 32 and 128). Past 128 numpy's pairwise split moves with
    the row length, and results agree to roundoff only. This is the packing
    of Krell et al. 2021 (arXiv 2107.02027), by length bucket.
    """
    s = visible.shape[-1]
    need = s - np.argmax(visible[:, ::-1], axis=-1)
    return np.minimum(-(-need // 8) * 8, s)


# -- temporal attention ------------------------------------------------


class QueryTargetAttention(MultiHeadAttention):
    """Single-head attention whose query comes from the final
    (target-adjacent) day, with a residual onto that day and a pre-norm FFN
    sub-layer. One head, since the fused width ``d_t`` (d_l plus 5 MACD
    lanes) is odd at every even ``d_l``."""

    def __init__(self, rng, dim: int, name: str = "temporal"):
        super().__init__(rng, dim, 1, name)
        self.ffn_norm = LayerNorm(dim, f"{name}.ffn_norm")
        self.ffn = FeedForward(rng, dim, f"{name}.ffn")

    def __call__(self, fused: Tensor) -> Tensor:
        b, l, d = fused.shape
        if l < 1:
            raise ContractError("temporal attention needs at least one lag day")
        target = fused[:, l - 1:l, :]                  # (b, 1, d)
        out = self.attend(target, fused) + target
        out = out + self.ffn(self.ffn_norm(out))
        return out.reshape(b, d)


class ClassifierHead(Module):
    def __init__(self, rng, dim: int, name: str = "head", classes: int = 2):
        self.fc1 = Linear(rng, dim, dim, f"{name}.fc1")
        self.fc2 = Linear(rng, dim, classes, f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


# -- full model --------------------------------------------------------


class MeantModel(Module):
    """Dual-encoder model with query-targeted temporal fusion."""

    def __init__(self, config: ModelConfig, seed: int = 42):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config

        self.language = None
        self.pool = None
        if c.use_text:
            self.language = LanguagePipeline(rng, c)
            if c.pooling == "seq_proj":
                self.pool = SequenceProjection(rng, c.seq_len, c.d_l, "pool.seq")

        self.vision = None
        self.image_proj = None
        if c.use_image:
            self.vision = VisionPipeline(rng, c)
            total_patches = c.lag * self.vision.n_p
            self.image_proj = SequenceProjection(rng, total_patches, c.d_p,
                                                 "pool.img")

        self.temporal = None
        if c.use_text or c.use_price:
            self.temporal = QueryTargetAttention(rng, c.d_t)

        final_dim = (c.d_t if self.temporal is not None else 0) \
            + (c.d_p if c.use_image else 0)
        self.head = ClassifierHead(rng, final_dim)

    def _check_inputs(self, ids, macd, images) -> None:
        """Each enabled input is present with the config's lag after the
        batch axis, ids with its seq_len after that, and every token id
        in its vocabulary."""
        c = self.config
        for on, x, name, want in ((c.use_text, ids, "token ids", (c.lag, c.seq_len)),
                                  (c.use_price, macd, "MACD input", (c.lag,)),
                                  (c.use_image, images, "images", (c.lag,))):
            if on and x is None:
                raise ContractError(f"model takes {name} but got none")
            if on and np.shape(x)[1:1 + len(want)] != want:
                raise DimensionError(f"{name} of shape {np.shape(x)}: model "
                                     f"takes lag {c.lag}, seq_len {c.seq_len}")
        if c.use_text and not 0 <= np.min(ids) <= np.max(ids) < c.vocab_size:
            raise ContractError(f"token ids span {np.min(ids)}..{np.max(ids)}: "
                                f"model takes 0..{c.vocab_size - 1}")

    def forward(self, ids: np.ndarray | None, macd: np.ndarray | None,
                images: np.ndarray | None) -> Tensor:
        c = self.config
        self._check_inputs(ids, macd, images)
        parts: list[Tensor] = []

        t_lang = None
        if self.temporal is not None:
            l_seq = self._encode_days(ids) if c.use_text else None
            m_in = None
            if c.use_price:
                m_in = Tensor(np.asarray(macd, dtype=np.float64))
            fused = fuse_price(l_seq, m_in)
            t_lang = self.temporal(fused)
            parts.append(t_lang)

        if c.use_image:
            i_out = self.vision(images)
            parts.append(self.image_proj(i_out))

        final = parts[0] if len(parts) == 1 else concat(parts, axis=-1)
        return self.head(final)

    __call__ = forward

    def _encode_days(self, ids: np.ndarray) -> Tensor:
        """Pooled day vectors (b, lag, d_l) of the token ids (b, lag, s).

        A day's vector depends on its own real tokens only, so each distinct
        day row is encoded once, on its first ``day_widths`` tokens: the
        rows are bucketed by width, each bucket runs the language encoder
        and the pooling once, and one gather puts the pooled rows back into
        their windows (its scatter-add backward sums repeated days'
        gradients). Past a row's width lie PAD tokens only, which neither
        attention nor pooling reads, so this equals running every row at
        full width; at s <= 128 bit for bit (``day_widths``).
        """
        c = self.config
        days, inverse = np.unique(np.reshape(ids, (-1, c.seq_len)), axis=0,
                                  return_inverse=True)
        visible = visible_tokens(days, c.pad_id)
        widths = day_widths(visible)
        order = np.argsort(widths, kind="stable")
        pooled, start = [], 0
        for w, n in zip(*np.unique(widths, return_counts=True)):
            rows = order[start:start + n]
            start += n
            l_out = self.language(days[None, rows, :w])
            seen = visible[None, rows, :w]
            pooled.append(mean_pool(l_out, seen) if self.pool is None
                          else self.pool(l_out, seen))
        pooled = pooled[0] if len(pooled) == 1 else concat(pooled, axis=1)
        slot = np.argsort(order)[inverse]    # each window day's pooled row
        return pooled.reshape(len(days), c.d_l)[slot.reshape(len(ids), c.lag)]

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params().values())
