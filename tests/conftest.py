import numpy as np
import pytest

from meant.dataset import build_lag_windows
from meant.errors import NumericError
from meant.fusion import MeantModel, ModelConfig
from meant.graphs import GraphSpec
from meant.indicators import compute_macd
from meant.synthetic import make_sine_prices, make_tweets
from meant.tensor import Tensor, attention_weights
from meant.tokenizer import build_vocab

TOY_MODEL = dict(vocab_size=12, seq_len=4, lag=2, d_l=8, d_p=8, heads=2,
                 image_height=8, image_width=8, patch_size=4)

# the ``meant gradcheck`` line that checks each op the model runs that is
# not a shape op
GRADCHECK_LINE = {
    "Tensor.__add__": "linear", "Tensor.__getitem__": "gather",
    "Tensor.__mul__": "linear", "Tensor.sum": "matmul",
    "attention": "attention", "cross_entropy": "cross_entropy",
    "gelu": "gelu", "layer_norm": "layer_norm", "matmul": "linear",
    "rotate_pairs": "rotary",
}


@pytest.fixture(scope="session")
def sine_prices():
    return make_sine_prices()


@pytest.fixture(scope="session")
def sine_indicators(sine_prices):
    return compute_macd(sine_prices)


@pytest.fixture(scope="session")
def small_graph_spec():
    return GraphSpec(window_days=26, width=32, height=32)


@pytest.fixture(scope="session")
def sine_dataset(sine_prices, small_graph_spec):
    """Windows built from the sinusoidal fixture with 2 tweets per day."""
    tweets = make_tweets(sine_prices)
    tokenizer = build_vocab((t.text for t in tweets), max_size=64, max_len=16)
    windows, stats = build_lag_windows(
        {sine_prices.ticker: sine_prices}, tweets, lag=5,
        tokenizer=tokenizer, graph=small_graph_spec)
    return windows, stats, tokenizer


def toy_model(seed=1, **overrides) -> MeantModel:
    cfg = ModelConfig(**{**TOY_MODEL, **overrides})
    return MeantModel(cfg, seed=seed)


def toy_batch(config: ModelConfig, b=2, seed=0) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "ids": rng.integers(0, config.vocab_size,
                            size=(b, config.lag, config.seq_len)),
        "macd": rng.normal(size=(b, config.lag, 5)),
        "images": rng.random((b, config.lag, config.channels,
                              config.image_height, config.image_width)),
        "labels": rng.integers(0, 2, size=b),
    }


def padded_days(config: ModelConfig, shape: tuple[int, ...], seed=0) -> np.ndarray:
    """Day rows of ``shape + (seq_len,)`` as the tokenizer emits them: words
    (ids past PAD/UNK/SEP) followed by a PAD suffix, with lengths from one
    word to a full row."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, config.vocab_size, size=(*shape, config.seq_len))
    lengths = rng.integers(1, config.seq_len + 1, size=shape)
    ids[np.arange(config.seq_len) >= lengths[..., None]] = config.pad_id
    return ids


def target_weights(qta, fused) -> np.ndarray:
    """The softmax row over lag days of a ``QueryTargetAttention``, from its
    own q and k projections: the target (last) day queries every day."""
    l = fused.shape[1]
    q = qta._split(qta.wq(fused[:, l - 1:l, :])).data
    k = qta._split(qta.wk(fused)).data
    return attention_weights(q, k, qta.scale)


def softmax_last_dim(x: Tensor) -> Tensor:
    """Stable softmax along the final axis; rows sum to one. No model path
    runs it: it is the reference the fused ``attention`` is tested against."""
    if np.isnan(x.data).any():
        raise NumericError("softmax input contains NaN")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            inner = (g * out_data).sum(axis=-1, keepdims=True)
            x._accumulate(out_data * (g - inner))

    return Tensor._from_op(out_data, (x,), bwd)
