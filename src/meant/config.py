"""JSON run configuration with strict unknown-key rejection."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .errors import ConfigError
from .fusion import ModelConfig
from .training import TrainConfig


@dataclass
class RunConfig:
    model: dict = field(default_factory=dict)    # ModelConfig overrides
    train: TrainConfig = field(default_factory=TrainConfig)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        unknown = set(doc) - {"model", "train"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        model, train = (doc.get(name, {}) for name in ("model", "train"))
        for name, section, kind in (("model", model, ModelConfig),
                                    ("train", train, TrainConfig)):
            if not isinstance(section, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            unknown = set(section) - {f.name for f in dataclasses.fields(kind)}
            if unknown:
                raise ConfigError(
                    f"unknown keys in section {name!r}: {sorted(unknown)}")
        try:
            return cls(model=dict(model), train=TrainConfig(**train))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad section 'train': {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:       # bad JSON or not UTF-8
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a JSON object")
        return cls.from_dict(doc)

    def effective_dict(self) -> dict:
        """Fully defaulted view, suitable for echoing into the run dir."""
        return {"model": dict(self.model),
                "train": dataclasses.asdict(self.train)}

