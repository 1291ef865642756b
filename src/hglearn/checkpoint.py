"""Versioned JSON documents of named parameter matrices, read back bit-exactly.

Checkpoints and tuning snapshots share one layout: `format`, `version` (2),
`params` mapping each parameter name to its rows (a 2-D array of finite
floats), and the document's own fields. A checkpoint holds the encoder's
`encoder.layer{i}.weight` and `encoder.layer{i}.bias` and adds `seed`,
`config_digest`, `activations` (one per layer) and `meta`; the `frozen` key
that older version-2 checkpoints also hold is ignored. A snapshot holds one
fold's best tuned parameters, plus the prompt structure's `prompt.incidence`
and `prompt.edge_weights` (one row) for the prompt strategies, and adds
`strategy`, `best_epoch` (an integer) and `config_digest`. Floats are
written in shortest round-trip form, so the same values always give the same
bytes and loading restores every float64 exactly. Version 1 files are not
read.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import Parameter, ValidationError
from .hypergraph import Hypergraph
from .model import HGNNLayer, HGNNStack
from .prompt import TuneResult

__all__ = ["checkpoint_bytes", "save_checkpoint", "load_checkpoint", "save_snapshot",
           "load_snapshot"]

CHECKPOINT_FORMAT = "hglearn-checkpoint"
SNAPSHOT_FORMAT = "hglearn-snapshot"
FORMAT_VERSION = 2


def _document_bytes(fmt: str, params: dict, **fields) -> bytes:
    """The one writer of named parameter matrices."""
    params = {name: np.asarray(v, dtype=np.float64).tolist() for name, v in params.items()}
    doc = {"format": fmt, "version": FORMAT_VERSION, "params": params, **fields}
    text = json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode()


def _read_document(path, fmt: str, fields) -> tuple[dict, dict]:
    """(document, params as float64 matrices) of a `fmt` file holding `fields`."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise ValidationError(f"unreadable {fmt} file {path}: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ValidationError(f"{path}: not a {fmt} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ValidationError(f"{path}: unsupported version {doc.get('version')!r}")
    missing = [key for key in ("params", *fields) if key not in doc]
    if missing:
        raise ValidationError(f"{path}: missing {', '.join(missing)}")
    if not isinstance(doc["params"], dict):
        raise ValidationError(f"{path}: params must be an object")
    params = {}
    for name, rows in doc["params"].items():
        try:
            value = np.array(rows)  # ragged rows raise ValueError
            if value.ndim != 2 or value.dtype.kind not in "if" or not np.isfinite(value).all():
                raise ValueError
        except ValueError:
            raise ValidationError(f"{path}: {name} is not a matrix of finite numbers") from None
        params[name] = value.astype(np.float64)
    return doc, params


def checkpoint_bytes(stack: HGNNStack, seed: int, config_digest: str, meta=None) -> bytes:
    return _document_bytes(
        CHECKPOINT_FORMAT, {p.name: p.value for p in stack.parameters()},
        seed=int(seed),
        config_digest=config_digest,
        activations=[layer.activation for layer in stack.layers],
        meta=meta or {},
    )


def save_checkpoint(path, stack: HGNNStack, seed: int, config_digest: str, meta=None):
    Path(path).write_bytes(checkpoint_bytes(stack, seed, config_digest, meta))


def load_checkpoint(path):
    """Returns (stack, info dict with seed/config_digest/meta)."""
    doc, params = _read_document(path, CHECKPOINT_FORMAT,
                                 ("seed", "config_digest", "activations"))
    try:
        layers = []
        for i, activation in enumerate(doc["activations"]):
            w, b = f"encoder.layer{i}.weight", f"encoder.layer{i}.bias"
            layers.append(HGNNLayer(Parameter(params[w], w), Parameter(params[b], b),
                                    activation))
        stack = HGNNStack(layers)
    except KeyError as e:
        raise ValidationError(f"{path}: malformed layers: missing param {e}") from None
    except (TypeError, ValueError) as e:  # shape errors are ValueErrors too
        raise ValidationError(f"{path}: malformed layers: {e}") from None
    return stack, {"seed": doc["seed"], "config_digest": doc["config_digest"],
                   "meta": doc.get("meta", {})}


def save_snapshot(path, result: TuneResult, config_digest: str):
    """Write a tuning result's best parameters and prompt structure."""
    params = dict(result.snapshot)
    if result.prompt_structure is not None:
        params["prompt.incidence"] = result.prompt_structure.incidence
        params["prompt.edge_weights"] = result.prompt_structure.edge_weights.reshape(1, -1)
    Path(path).write_bytes(_document_bytes(
        SNAPSHOT_FORMAT, params,
        strategy=result.strategy,
        best_epoch=result.best_epoch,
        config_digest=config_digest,
    ))


def load_snapshot(path):
    """Returns (TuneResult restorable by `evaluate_snapshot`, info dict with config_digest).

    The prompt structure is rebuilt and checked here: both of its entries or
    neither, one row of edge weights per incidence column.
    """
    doc, params = _read_document(path, SNAPSHOT_FORMAT,
                                 ("strategy", "best_epoch", "config_digest"))
    if type(doc["best_epoch"]) is not int:  # bool is an int subclass
        raise ValidationError(f"{path}: best_epoch must be an integer, got {doc['best_epoch']!r}")
    incidence = params.pop("prompt.incidence", None)
    weights = params.pop("prompt.edge_weights", None)
    if (incidence is None) != (weights is None):
        raise ValidationError(f"{path}: prompt.incidence and prompt.edge_weights "
                              "must be present together")
    structure = None
    if incidence is not None:
        if weights.shape[0] != 1:
            raise ValidationError(f"{path}: prompt.edge_weights must be a single row")
        try:
            structure = Hypergraph.from_incidence(incidence, weights)
        except ValidationError as e:
            raise ValidationError(f"{path}: prompt structure: {e}") from None
    result = TuneResult(
        strategy=doc["strategy"],
        snapshot=params,
        prompt_structure=structure,
        best_metrics=None,
        best_epoch=doc["best_epoch"],
    )
    return result, {"config_digest": doc["config_digest"]}
