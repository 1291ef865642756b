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
        # an int given for a float field (3 for 3.0) must not change the digest
        for f in dataclasses.fields(self):
            if type(f.default) is float and type(getattr(self, f.name)) is int:
                setattr(self, f.name, float(getattr(self, f.name)))
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown strategy {self.strategy!r}")
        for name in ("n", "m", "k_folds", "num_prompts", "gpf_basis", "latent_dim",
                     "tune_epochs"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(d < 1 for d in self.hidden_dims):
            raise ValidationError(
                f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}"
            )
        for name in ("k", "prompt_k", "pretrain_epochs"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0, got {getattr(self, name)}")
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


def _parse_bool(raw: str) -> bool:
    value = {"1": True, "true": True, "yes": True,
             "0": False, "false": False, "no": False}.get(raw.lower())
    if value is None:
        raise ValueError(raw)
    return value


# by the type of the field's default: the `--set` parser, what the field
# expects, and whether a config-file (JSON) value has the right type
_PARSERS = {
    bool: (_parse_bool, "a boolean", lambda v: type(v) is bool),
    int: (int, "an integer", lambda v: type(v) is int),
    float: (float, "a number", lambda v: type(v) in (int, float)),
    str: (str, "a string", lambda v: type(v) is str),
    tuple: (lambda raw: tuple(int(v) for v in raw.split(",") if v != ""), "a list of integers",
            lambda v: type(v) is list and all(type(d) is int for d in v)),
}
_FIELD_PARSERS = {f.name: _PARSERS[type(f.default)] for f in dataclasses.fields(RunConfig)}


def parse_override(key: str, raw: str):
    """Coerce a `--set key=value` string to the field's type."""
    if key not in _FIELD_PARSERS:
        raise ValidationError(f"unknown config field {key!r}")
    parse, expected, _ = _FIELD_PARSERS[key]
    try:
        return parse(raw)
    except ValueError:
        raise ValidationError(f"{key}: expected {expected}, got {raw!r}") from None


def load_config(path=None, overrides=None) -> RunConfig:
    """Config file (JSON) plus overrides; overrides win."""
    values = {}
    if path is not None:
        p = Path(path)
        try:
            raw = json.loads(p.read_text())
        except (OSError, ValueError) as e:  # missing, a directory, not UTF-8, not JSON
            raise ValidationError(f"unreadable config {p}: {e}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"config {p} must hold a JSON object")
        for key, value in raw.items():
            if key not in _FIELD_PARSERS:
                raise ValidationError(f"unknown config field {key!r} in {p}")
            _, expected, accepts = _FIELD_PARSERS[key]
            if not accepts(value):
                raise ValidationError(f"{key} in {p}: expected {expected}, got {value!r}")
            values[key] = value
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as e:
        raise ValidationError(f"bad config: {e}") from None
