"""Per-day pooling, price fusion, target-day temporal attention, and the
classification head, assembled into the full model.

The temporal attention builds its query from the final lag day only while
keys and values span the whole window, so the output is a target-focused
summary of the lag period.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .embeddings import PatchSpec
from .encoders import (INIT_STD, EncoderConfig, FeedForward, LanguagePipeline,
                       LayerNorm, Linear, MultiHeadAttention, VisionPipeline,
                       _merge)
from .errors import ContractError, DimensionError
from .tensor import (Tensor, attention_weights, concat, embedding_lookup, gelu,
                     matmul)

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
    temporal_heads: int = 1
    mlp_ratio: int = 4
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
                     "vision_depth", "heads", "temporal_heads", "mlp_ratio",
                     "image_height", "image_width", "channels", "patch_size"):
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

    @property
    def d_t(self) -> int:
        """Fused temporal width: language dim plus the 5 MACD lanes."""
        return self.d_l * self.use_text + MACD_WIDTH * self.use_price

    @property
    def patch_count(self) -> int:
        spec = PatchSpec(self.patch_size, self.channels, self.d_p)
        return spec.patch_count(self.image_height, self.image_width)

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


def mean_pool(l_out: Tensor) -> Tensor:
    """Average over the token axis of (b, l, s, d), PAD positions included
    (the plain 1/s formulation)."""
    return l_out.mean(axis=2)


class SequenceProjection:
    """Learned reduction of the second-to-last axis (s tokens of a day, or
    every patch of the window) followed by layer norm and GELU. No bias:
    a scalar added to every lane is removed again by the layer norm's
    centering."""

    def __init__(self, rng, seq_len: int, dim: int, name: str):
        self.seq_len = seq_len
        self.weight = Tensor(rng.normal(0.0, INIT_STD, size=(seq_len, 1)),
                             requires_grad=True)
        self.norm = LayerNorm(dim, f"{name}.norm")
        self.name = name

    def __call__(self, seq: Tensor) -> Tensor:
        if seq.shape[-2] != self.seq_len:
            raise DimensionError(
                f"expected sequence axis {self.seq_len}, got {seq.shape[-2]}")
        x = seq.swapaxes(-1, -2)             # (..., d, s)
        projected = matmul(x, self.weight)   # (..., d, 1)
        squeezed = projected.reshape(*seq.shape[:-2], seq.shape[-1])
        return gelu(self.norm(squeezed))

    def params(self) -> dict[str, Tensor]:
        out = {f"{self.name}.weight": self.weight}
        out.update(self.norm.params())
        return out


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


# -- temporal attention ------------------------------------------------


class QueryTargetAttention(MultiHeadAttention):
    """Attention whose query comes from the final (target-adjacent) day,
    with a residual onto that day and a pre-norm FFN sub-layer."""

    def __init__(self, rng, dim: int, heads: int = 1, name: str = "temporal",
                 mlp_ratio: int = 4):
        super().__init__(rng, dim, heads, name)
        self.ffn_norm = LayerNorm(dim, f"{name}.ffn_norm")
        self.ffn = FeedForward(rng, dim, mlp_ratio, f"{name}.ffn")

    def __call__(self, fused: Tensor) -> Tensor:
        b, l, d = fused.shape
        if l < 1:
            raise ContractError("temporal attention needs at least one lag day")
        target = fused[:, l - 1:l, :]                  # (b, 1, d)
        out = self.attend(target, fused) + target
        out = out + self.ffn(self.ffn_norm(out))
        return out.reshape(b, d)

    def attention_weights(self, fused: Tensor) -> np.ndarray:
        """The softmax row over lag days (diagnostics and tests)."""
        l = fused.shape[1]
        q, k, _ = self.project(fused[:, l - 1:l, :], fused)
        return attention_weights(q.data, k.data, self.scale)

    def params(self) -> dict[str, Tensor]:
        return _merge(self.wq, self.wk, self.wv, self.wo, self.ffn_norm,
                      self.ffn)


class ClassifierHead:
    def __init__(self, rng, dim: int, name: str = "head", classes: int = 2):
        self.fc1 = Linear(rng, dim, dim, f"{name}.fc1")
        self.fc2 = Linear(rng, dim, classes, f"{name}.fc2")

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))

    def params(self) -> dict[str, Tensor]:
        return _merge(self.fc1, self.fc2)


# -- full model --------------------------------------------------------


class MeantModel:
    """Dual-encoder model with query-targeted temporal fusion."""

    def __init__(self, config: ModelConfig, seed: int = 42):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config

        self.language = None
        self.pool = None
        if c.use_text:
            lang_cfg = EncoderConfig(depth=c.lang_depth, dim=c.d_l,
                                     heads=c.heads, mlp_ratio=c.mlp_ratio,
                                     pos_encoding=c.lang_pos)
            self.language = LanguagePipeline(rng, c.vocab_size, lang_cfg,
                                             pad_id=c.pad_id)
            if c.pooling == "seq_proj":
                self.pool = SequenceProjection(rng, c.seq_len, c.d_l, "pool.seq")

        self.vision = None
        self.image_proj = None
        if c.use_image:
            vis_cfg = EncoderConfig(depth=c.vision_depth, dim=c.d_p,
                                    heads=c.heads, mlp_ratio=c.mlp_ratio)
            patch = PatchSpec(c.patch_size, c.channels, c.d_p)
            self.vision = VisionPipeline(rng, vis_cfg, patch,
                                         (c.image_height, c.image_width))
            total_patches = c.lag * self.vision.n_p
            self.image_proj = SequenceProjection(rng, total_patches, c.d_p,
                                                 "pool.img")

        self.temporal = None
        if c.use_text or c.use_price:
            self.temporal = QueryTargetAttention(
                rng, c.d_t, heads=c.temporal_heads, mlp_ratio=c.mlp_ratio)

        final_dim = (c.d_t if self.temporal is not None else 0) \
            + (c.d_p if c.use_image else 0)
        self.head = ClassifierHead(rng, final_dim)

    def _check_inputs(self, ids, macd, images) -> None:
        """Each enabled input is present with the config's lag after the
        batch axis, and ids with its seq_len after that."""
        c = self.config
        for on, x, name, want in ((c.use_text, ids, "token ids", (c.lag, c.seq_len)),
                                  (c.use_price, macd, "MACD input", (c.lag,)),
                                  (c.use_image, images, "images", (c.lag,))):
            if on and x is None:
                raise ContractError(f"model takes {name} but got none")
            if on and np.shape(x)[1:1 + len(want)] != want:
                raise DimensionError(f"{name} of shape {np.shape(x)}: model "
                                     f"takes lag {c.lag}, seq_len {c.seq_len}")

    def forward(self, ids: np.ndarray | None, macd: np.ndarray | None,
                images: np.ndarray | None) -> Tensor:
        c = self.config
        self._check_inputs(ids, macd, images)
        parts: list[Tensor] = []

        t_lang = None
        if self.temporal is not None:
            l_seq = None
            if c.use_text:
                # a day row's encoding depends on its own token ids only, so
                # each distinct row is encoded once and gathered back; the
                # gather's scatter-add backward sums repeated days' gradients
                days, inverse = np.unique(np.reshape(ids, (-1, c.seq_len)),
                                          axis=0, return_inverse=True)
                l_out = self.language(days[None])
                pooled = (mean_pool(l_out) if self.pool is None
                          else self.pool(l_out))
                l_seq = embedding_lookup(pooled.reshape(len(days), c.d_l),
                                         inverse.reshape(len(ids), c.lag))
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

    def params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for mod in (self.language, self.pool, self.vision, self.image_proj,
                    self.temporal, self.head):
            if mod is not None:
                out.update(mod.params())
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def zero_grad(self) -> None:
        for p in self.params().values():
            p.zero_grad()
