"""Loss, AdamW, cosine warm-restart schedule, metrics and the train loop."""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .dataset import LagWindow, _json_bytes
from .errors import ContractError, DatasetFormatError, NumericError
from .fusion import MeantModel, ModelConfig
from .sealed import Reader, seal
from .tensor import Tensor, no_grad

CHECKPOINT_MAGIC = b"MEAN"
CHECKPOINT_VERSION = 3


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the true class, log-sum-exp stabilized.

    One graph node: backward is (softmax(logits) - onehot(labels)) / b.
    """
    labels = np.asarray(labels)
    b = logits.shape[0]
    if labels.shape != (b,):
        raise ContractError(f"labels shape {labels.shape} != ({b},)")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError("labels must be 0 or 1")
    rows = np.arange(b)
    shift = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - shift)
    total = e.sum(axis=-1)
    lse = shift.squeeze(-1) + np.log(total)
    # sum, then scale: ndarray.mean rounds the last bit differently
    out_data = (lse - logits.data[rows, labels]).sum() * (1.0 / b)

    def bwd(g):
        if logits.requires_grad:
            per_row = g * (1.0 / b)
            grad = (per_row / total)[:, None] * e
            grad[rows, labels] -= per_row
            logits._accumulate(grad)

    return Tensor._from_op(out_data, (logits,), bwd)


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], weight_decay: float = 0.01):
        self.params = params
        self.weight_decay = weight_decay
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in parameter {name!r}")
            p.data *= 1.0 - lr * self.weight_decay
            self.m[name] = self.BETA1 * self.m[name] + (1 - self.BETA1) * g
            self.v[name] = self.BETA2 * self.v[name] + (1 - self.BETA2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.EPS)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# epochs per cosine cycle; the rate restarts at its peak every cycle
RESTART_PERIOD = 7


def cosine_lr(peak: float, epoch: float) -> float:
    """Cosine warm restarts down to 0: peak/2 * (1 + cos(pi * t / T)), with
    t the epoch's offset into its cycle of ``RESTART_PERIOD`` epochs."""
    if epoch < 0:
        raise ContractError("epoch must be >= 0")
    return 0.5 * peak * (1.0 + math.cos(
        math.pi * (epoch % RESTART_PERIOD) / RESTART_PERIOD))


@dataclass
class MetricsReport:
    accuracy: float
    per_class: dict[int, dict[str, float]]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    confusion: list[list[int]]    # rows = true class

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {str(k): v for k, v in self.per_class.items()},
            "macro_precision": self.macro_precision,
            "macro_recall": self.macro_recall,
            "macro_f1": self.macro_f1,
            "confusion": self.confusion,
        }


def compute_metrics(preds: np.ndarray, labels: np.ndarray) -> MetricsReport:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0:
        raise ContractError("cannot compute metrics on an empty split")
    if preds.shape != labels.shape:
        raise ContractError("preds and labels must have equal length")
    if not (np.isin(preds, (0, 1)).all() and np.isin(labels, (0, 1)).all()):
        raise ContractError("preds and labels must be binary")
    confusion = [[int(((labels == t) & (preds == p)).sum()) for p in (0, 1)]
                 for t in (0, 1)]
    per_class = {}
    for cls in (0, 1):
        tp = confusion[cls][cls]
        fp = confusion[1 - cls][cls]
        fn = confusion[cls][1 - cls]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        per_class[cls] = {"precision": precision, "recall": recall, "f1": f1}
    return MetricsReport(
        accuracy=float((preds == labels).mean()),
        per_class=per_class,
        macro_precision=sum(c["precision"] for c in per_class.values()) / 2,
        macro_recall=sum(c["recall"] for c in per_class.values()) / 2,
        macro_f1=sum(c["f1"] for c in per_class.values()) / 2,
        confusion=confusion,
    )


# -- data marshalling --------------------------------------------------


def windows_to_arrays(windows: list[LagWindow],
                      normalization: dict | None = None) -> dict[str, np.ndarray]:
    """Stack windows into batch arrays; optionally z-score the MACD lanes."""
    if not windows:
        raise ContractError("empty window list")
    M = np.stack([w.M for w in windows])
    if normalization is not None:
        mean = np.asarray(normalization["mean"])
        std = np.asarray(normalization["std"])
        M = (M - mean) / std
    return {
        "ids": np.array([w.X for w in windows], dtype=np.int64),
        "macd": M,
        "images": np.stack([np.stack(w.G) for w in windows]),
        "labels": np.array([w.label for w in windows], dtype=np.int64),
    }


def truncate_lag(data: dict[str, np.ndarray], lag: int) -> dict[str, np.ndarray]:
    """Keep the most recent ``lag`` days of ``windows_to_arrays`` output."""
    available = data["macd"].shape[1]
    if not 1 <= lag <= available:
        raise ContractError(f"cannot truncate lag {available} windows to {lag}")
    return {k: (v if k == "labels" else v[:, -lag:]) for k, v in data.items()}


def _batch(data: dict, idx) -> dict:
    # disabled modalities travel as None and stay None per batch; a slice
    # ``idx`` gives views, an index array gives copies
    return {k: (None if v is None else v[idx]) for k, v in data.items()}


def _model_inputs(model: MeantModel, data: dict) -> dict:
    """``data`` with the arrays of modalities ``model`` has turned off
    dropped to None, so batching never touches them."""
    c = model.config
    off = {"ids": not c.use_text, "macd": not c.use_price,
           "images": not c.use_image}
    return {k: (None if off.get(k) else v) for k, v in data.items()}


# -- train / eval ------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 16
    lr: float = 5e-5
    patience: int = 3
    weight_decay: float = 0.01
    seed: int = 42

    def __post_init__(self):
        for name, low in (("epochs", 1), ("batch_size", 1), ("patience", 1),
                          ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ContractError(f"{name} must be an integer >= {low}, "
                                    f"got {value!r}")
        for name in ("lr", "weight_decay"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ContractError(f"{name} must be a finite number, "
                                    f"got {value!r}")


def evaluate(model: MeantModel, data: dict[str, np.ndarray],
             batch_size: int = 16) -> MetricsReport:
    n = len(data["labels"])
    if n == 0:
        raise ContractError("cannot evaluate an empty split")
    data = _model_inputs(model, data)
    preds = []
    with no_grad():
        for start in range(0, n, batch_size):
            batch = _batch(data, slice(start, start + batch_size))
            logits = model(batch["ids"], batch["macd"], batch["images"])
            preds.append(np.argmax(logits.data, axis=-1))
    return compute_metrics(np.concatenate(preds), data["labels"])


def train(model: MeantModel, train_data: dict, val_data: dict,
          cfg: TrainConfig) -> tuple[dict[str, np.ndarray], list[dict]]:
    """Seeded epoch loop with early stopping on validation macro-F1.

    Returns the best-validation parameter snapshot and the per-epoch log.
    """
    if len(train_data["labels"]) == 0 or len(val_data["labels"]) == 0:
        raise ContractError("train and validation splits must be non-empty")
    train_data = _model_inputs(model, train_data)
    params = model.params()
    opt = AdamW(params, weight_decay=cfg.weight_decay)
    rng = np.random.default_rng(cfg.seed)
    n = len(train_data["labels"])

    best_f1 = -1.0
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    stale = 0
    log: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        lr = cosine_lr(cfg.lr, epoch)
        for start in range(0, n, cfg.batch_size):
            batch = _batch(train_data, order[start:start + cfg.batch_size])
            opt.zero_grad()
            logits = model(batch["ids"], batch["macd"], batch["images"])
            loss = cross_entropy(logits, batch["labels"])
            if not np.isfinite(loss.data).all():
                for k, p in params.items():
                    p.data = best_snapshot[k].copy()
                log.append({"epoch": epoch, "event": "diverged"})
                return best_snapshot, log
            loss.backward()
            opt.step(lr)
            losses.append(loss.item())
        report = evaluate(model, val_data, cfg.batch_size)
        log.append({
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "val": report.to_dict(),
        })
        if report.macro_f1 > best_f1:
            best_f1 = report.macro_f1
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    for k, p in params.items():
        p.data = best_snapshot[k].copy()
    return best_snapshot, log


# -- checkpoints -------------------------------------------------------


def dataset_binding(manifest: dict) -> dict:
    """CRC32s of the canonical JSON of a dataset manifest's tokenizer and
    MACD normalization. A checkpoint records them, so that ``eval`` refuses
    a dataset whose ids or features mean something else, even at the same
    vocabulary size."""
    return {f"{key}_crc32": zlib.crc32(_json_bytes(manifest[key]))
            for key in ("tokenizer", "normalization")}


def save_checkpoint(path, config: ModelConfig, params: dict[str, np.ndarray],
                    binding: dict) -> None:
    """Write the model's config, the ``dataset_binding`` of the dataset it
    was trained on and its parameters, sealed under ``CHECKPOINT_MAGIC``."""
    body = bytearray(struct.pack("<I", CHECKPOINT_VERSION))
    for record in (_json_bytes(config.to_dict()), _json_bytes(binding)):
        body += struct.pack("<I", len(record)) + record
    body += struct.pack("<I", len(params))
    for name in sorted(params):
        data = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        body += struct.pack("<I", len(encoded)) + encoded
        body += struct.pack("<Q", data.size) + data.tobytes()
    with open(path, "wb") as fh:
        fh.write(seal(CHECKPOINT_MAGIC, bytes(body)))


def _json_object(record: bytes, what: str) -> dict:
    try:
        obj = json.loads(record)
    except ValueError as exc:
        raise DatasetFormatError(f"checkpoint {what} is not JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"checkpoint {what} is not an object")
    return obj


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    """The config, parameters and dataset binding ``save_checkpoint`` wrote."""
    with open(path, "rb") as fh:
        r = Reader(fh.read(), CHECKPOINT_MAGIC, "checkpoint")

    def record() -> bytes:
        return r.take(r.unpack("<I")[0])

    version, = r.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise DatasetFormatError(f"unsupported checkpoint version {version}")
    config = ModelConfig.from_dict(_json_object(record(), "config"))
    binding = _json_object(record(), "dataset binding")
    params = {}
    for _ in range(r.unpack("<I")[0]):
        try:
            name = record().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"checkpoint parameter name: {exc}") from exc
        params[name] = np.frombuffer(r.take(8 * r.unpack("<Q")[0]),
                                     dtype="<f8").copy()
    r.done()
    return config, params, binding


def restore_model(path) -> tuple[MeantModel, dict]:
    """Rebuild a model from a checkpoint, shape-checking every tensor; also
    returns the checkpoint's dataset binding."""
    config, flat, binding = load_checkpoint(path)
    model = MeantModel(config)
    params = model.params()
    if set(params) != set(flat):
        missing = sorted(set(params) ^ set(flat))
        raise DatasetFormatError(f"checkpoint/model parameter mismatch: {missing}")
    for name, p in params.items():
        if flat[name].size != p.size:
            raise DatasetFormatError(
                f"checkpoint tensor {name!r} has {flat[name].size} elements, "
                f"model expects {p.size}")
        p.data = flat[name].reshape(p.shape).copy()
    return model, binding
