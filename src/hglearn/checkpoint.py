"""Versioned model checkpoints with bit-exact round-trips.

Plain JSON with shortest-round-trip float formatting: serializing the same
parameter values always yields identical bytes, and loading restores every
float64 exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import Parameter, ValidationError
from .model import HGNNLayer, HGNNStack

__all__ = ["checkpoint_bytes", "save_checkpoint", "load_checkpoint"]

FORMAT_NAME = "hglearn-checkpoint"
FORMAT_VERSION = 1
_LAYER_KEYS = ("activation", "bias", "weight", "weight_shape")


def _layer_record(layer: HGNNLayer) -> dict:
    return {
        "activation": layer.activation,
        "weight": [[float(v) for v in row] for row in layer.weight.value],
        "bias": [float(v) for v in layer.bias.value[0]],
        "weight_shape": list(layer.weight.value.shape),
    }


def checkpoint_bytes(stack: HGNNStack, seed: int, config_digest: str, meta=None) -> bytes:
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "seed": int(seed),
        "config_digest": config_digest,
        "frozen": stack.frozen,
        "layers": [_layer_record(l) for l in stack.layers],
        "meta": meta or {},
    }
    return (json.dumps(doc, sort_keys=True, allow_nan=False) + "\n").encode()


def save_checkpoint(path, stack: HGNNStack, seed: int, config_digest: str, meta=None):
    Path(path).write_bytes(checkpoint_bytes(stack, seed, config_digest, meta))


def load_checkpoint(path):
    """Returns (stack, info dict with seed/config_digest/meta)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ValidationError(f"unreadable checkpoint {path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValidationError(f"{path}: not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported version {doc.get('version')!r}")
    missing = [key for key in ("seed", "config_digest", "frozen", "layers") if key not in doc]
    if missing:
        raise ValidationError(f"{path}: missing {', '.join(missing)}")
    if not isinstance(doc["layers"], list):
        raise ValidationError(f"{path}: layers must be a list")
    layers = []
    for i, rec in enumerate(doc["layers"]):
        if not isinstance(rec, dict) or not all(key in rec for key in _LAYER_KEYS):
            raise ValidationError(f"{path}: layer {i} needs {', '.join(_LAYER_KEYS)}")
        w = np.array(rec["weight"], dtype=np.float64)
        if list(w.shape) != rec["weight_shape"]:
            raise ValidationError(f"{path}: layer {i} shape mismatch")
        b = np.array(rec["bias"], dtype=np.float64).reshape(1, -1)
        layers.append(
            HGNNLayer(
                Parameter(w, f"encoder.layer{i}.weight"),
                Parameter(b, f"encoder.layer{i}.bias"),
                rec["activation"],
            )
        )
    stack = HGNNStack(layers, frozen=doc["frozen"])
    info = {
        "seed": doc["seed"],
        "config_digest": doc["config_digest"],
        "meta": doc.get("meta", {}),
    }
    return stack, info
