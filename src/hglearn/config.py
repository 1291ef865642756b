"""Run configuration: one flat record covering every pipeline stage.

A config is validated before any compute, echoed into every report for
provenance, and hashed (sha256 over its canonical JSON) so that outputs
produced under identical configurations are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .autodiff import ValidationError
from .prompt import STRATEGIES

__all__ = ["RunConfig", "load_config", "parse_override"]


@dataclass
class RunConfig:
    # synthetic data
    n: int = 200
    m: int = 3
    dims: tuple = (16, 16, 16)
    class_sep: float = 3.0
    missing_rate: float = 0.0
    noise_std: float = 1.0
    dataset_name: str = "synthetic"
    # hypergraph
    k: int = 30
    pairwise: bool = False
    # model
    hidden_dims: tuple = (128,)
    latent_dim: int = 64
    num_classes: int = 2
    # pretraining
    mask_ratio: float = 0.75
    sce_gamma: float = 2.0
    pretrain_epochs: int = 200
    pretrain_lr: float = 3e-4
    pretrain_weight_decay: float = 1e-4
    # tuning
    strategy: str = "phgnn"
    tune_epochs: int = 200
    tune_lr: float = 3e-4
    tune_weight_decay: float = 1e-4
    num_prompts: int = 16
    prompt_k: int = 3
    gpf_basis: int = 32
    # protocol
    k_folds: int = 5
    seed: int = 0
    # paths (set per command)
    data_dir: str = ""
    checkpoint: str = ""

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        self.hidden_dims = tuple(int(d) for d in self.hidden_dims)
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        for name in ("n", "m", "k_folds", "num_prompts", "gpf_basis", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.k < 0:
            raise ValidationError(f"k must be >= 0, got {self.k}")
        if self.pretrain_epochs < 0:
            raise ValidationError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.tune_epochs < 1:
            raise ValidationError(f"tune_epochs must be >= 1, got {self.tune_epochs}")
        if not 0.0 <= self.mask_ratio < 1.0:
            raise ValidationError(f"mask_ratio must be in [0, 1), got {self.mask_ratio}")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValidationError(f"missing_rate must be in [0, 1), got {self.missing_rate}")
        if self.sce_gamma < 1.0:
            raise ValidationError(f"sce_gamma must be >= 1, got {self.sce_gamma}")
        for name in ("pretrain_lr", "tune_lr", "noise_std"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        for name in ("pretrain_weight_decay", "tune_weight_decay", "class_sep"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["dims"] = list(self.dims)
        out["hidden_dims"] = list(self.hidden_dims)
        return out

    def canonical_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, allow_nan=False)

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def replace(self, **changes) -> "RunConfig":
        return dataclasses.replace(self, **changes)


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(RunConfig)}
_LIST_FIELDS = {"dims", "hidden_dims"}
_BOOL_FIELDS = {"pairwise"}


def parse_override(key: str, raw: str):
    """Coerce a `--set key=value` string to the field's type."""
    if key not in _FIELD_TYPES:
        raise ValidationError(f"unknown config field {key!r}")
    if key in _LIST_FIELDS:
        return tuple(int(v) for v in raw.split(",") if v != "")
    if key in _BOOL_FIELDS:
        if raw.lower() in ("1", "true", "yes"):
            return True
        if raw.lower() in ("0", "false", "no"):
            return False
        raise ValidationError(f"{key}: expected a boolean, got {raw!r}")
    default = getattr(RunConfig(), key)
    if isinstance(default, bool):
        return raw.lower() in ("1", "true", "yes")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ValidationError(f"{key}: expected a number, got {raw!r}") from None
    return raw


def load_config(path=None, overrides=None) -> RunConfig:
    """Config file (JSON) plus overrides; overrides win."""
    values = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ValidationError(f"config file not found: {p}")
        try:
            raw = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ValidationError(f"unparseable config {p}: {e}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"config {p} must hold a JSON object")
        for key, value in raw.items():
            if key not in _FIELD_TYPES:
                raise ValidationError(f"unknown config field {key!r} in {p}")
            values[key] = value
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as e:
        raise ValidationError(f"bad config: {e}") from None
