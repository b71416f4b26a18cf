"""JSON run configuration with strict unknown-key rejection."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .fusion import ModelConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    """The split spec; the dataset itself is built by ``build-dataset``."""

    split_fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    # optional ISO (train_end, val_end) pair; overrides the fractions
    split_dates: tuple[str, str] | None = None


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: dict = field(default_factory=dict)    # ModelConfig overrides
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        known_sections = {"data", "model", "train"}
        unknown = set(doc) - known_sections
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        out = cls()
        out.data = _build(DataConfig, doc.get("data", {}), "data")
        out.train = _build(TrainConfig, doc.get("train", {}), "train")
        model_keys = {f.name for f in dataclasses.fields(ModelConfig)}
        bad = set(doc.get("model", {})) - model_keys
        if bad:
            raise ConfigError(f"unknown model config keys: {sorted(bad)}")
        out.model = dict(doc.get("model", {}))
        return out

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(doc)

    def effective_dict(self) -> dict:
        """Fully defaulted view, suitable for echoing into the run dir."""
        return {
            "data": dataclasses.asdict(self.data),
            "model": dict(self.model),
            "train": dataclasses.asdict(self.train),
        }


def _build(cls, section: dict, name: str):
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    kwargs = dict(section)
    if cls is DataConfig and "split_fractions" in kwargs:
        kwargs["split_fractions"] = tuple(kwargs["split_fractions"])
    if cls is DataConfig and kwargs.get("split_dates") is not None:
        kwargs["split_dates"] = tuple(kwargs["split_dates"])
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad section {name!r}: {exc}") from exc
