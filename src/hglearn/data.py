"""Multimodal datasets: synthetic generation, disk format, folds, fusion.

A dataset is a fixed subject set with one feature matrix per modality, a
per-modality presence flag for each subject (dropouts), and binary labels.
The disk format is one decimal CSV per modality plus presence/label files
and a small `meta` descriptor, so externally extracted feature matrices can
be dropped in without code changes. Decimal serialization uses shortest
round-trip formatting and restores float64 values exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ValidationError, as_matrix
from .hypergraph import Hypergraph, _knn_members, knn_neighbor_lists

__all__ = [
    "Modality",
    "MultimodalDataset",
    "FoldSplit",
    "generate_synthetic",
    "save_dataset",
    "load_dataset",
    "build_fused_hypergraph",
    "split_folds",
]


@dataclass
class Modality:
    features: np.ndarray
    present: np.ndarray

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class MultimodalDataset:
    modalities: list
    labels: np.ndarray
    name: str = "dataset"
    generation: dict = field(default_factory=dict)  # gen-data's class_sep, missing_rate, noise_std

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        n = self.labels.shape[0]
        if not self.modalities:
            raise ValidationError("dataset needs at least one modality")
        for i, mod in enumerate(self.modalities):
            mod.features = as_matrix(mod.features, f"modality_{i}")
            mod.present = np.asarray(mod.present, dtype=bool).reshape(-1)
            if mod.features.shape[0] != n:
                raise ValidationError(
                    f"modality_{i} has {mod.features.shape[0]} rows for {n} subjects"
                )
            if mod.present.shape[0] != n:
                raise ValidationError(f"modality_{i} presence length mismatch")
            if not np.isfinite(mod.features).all():
                raise ValidationError(f"modality_{i} contains non-finite values")
        if not np.isin(self.labels, (0, 1)).all():
            bad = int(np.flatnonzero(~np.isin(self.labels, (0, 1)))[0])
            raise ValidationError(f"labels must be 0/1; row {bad} is {self.labels[bad]}")
        present_any = np.zeros(n, dtype=bool)
        for mod in self.modalities:
            present_any |= mod.present
        if not present_any.all():
            bad = int(np.flatnonzero(~present_any)[0])
            raise ValidationError(f"subject {bad} is absent from every modality")

    @property
    def num_subjects(self) -> int:
        return self.labels.shape[0]

    @property
    def num_modalities(self) -> int:
        return len(self.modalities)

    @property
    def dims(self) -> tuple:
        return tuple(m.dim for m in self.modalities)


def generate_synthetic(n, m, dims, class_sep, missing_rate, noise_std=1.0, seed=0,
                       name="synthetic") -> MultimodalDataset:
    """Two-class Gaussian blobs per modality with optional random dropouts.

    Class centroids sit class_sep * noise_std apart along a random direction
    in each modality. Labels are balanced by construction (floor(n/2)
    positives) and shuffled. A subject is never absent from every modality:
    all-absent draws are repaired deterministically.
    """
    if n < 10:
        raise ValidationError(f"n must be >= 10, got {n}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if len(dims) != m or any(d < 1 for d in dims):
        raise ValidationError(f"dims must list {m} positive sizes, got {dims!r}")
    if not 0.0 <= missing_rate < 1.0:
        raise ValidationError(f"missing_rate must be in [0, 1), got {missing_rate}")
    if noise_std <= 0:
        raise ValidationError(f"noise_std must be > 0, got {noise_std}")
    if class_sep < 0:
        raise ValidationError(f"class_sep must be >= 0, got {class_sep}")
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    labels[: n // 2] = 1
    labels = rng.permutation(labels)
    modalities = []
    for d in dims:
        # a shared base keeps masked-feature directions predictable without
        # touching pairwise distances or class separability
        base = rng.standard_normal(d) * noise_std
        direction = rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        offset = class_sep * noise_std * direction
        feats = base + rng.standard_normal((n, d)) * noise_std
        feats += (labels[:, None] - 0.5) * offset
        present = rng.random(n) >= missing_rate
        modalities.append(Modality(feats, present))
    for j in range(n):
        if not any(mod.present[j] for mod in modalities):
            modalities[j % m].present[j] = True
    for mod in modalities:
        mod.features[~mod.present] = 0.0
    generation = {"class_sep": float(class_sep), "missing_rate": float(missing_rate),
                  "noise_std": float(noise_std)}
    return MultimodalDataset(modalities, labels, name=name, generation=generation)


def _write_float_csv(path: Path, matrix: np.ndarray):
    # row by row, so that only one row of Python floats is alive at a time
    lines = [",".join(map(repr, row.tolist())) for row in matrix]
    path.write_text("\n".join(lines) + "\n")


def _write_int_csv(path: Path, vector):
    path.write_text("\n".join(str(int(v)) for v in vector) + "\n")


def save_dataset(dataset: MultimodalDataset, path, extra_meta=None):
    """Write the dataset directory format (meta, per-modality CSVs, labels)."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "n": dataset.num_subjects,
        "m": dataset.num_modalities,
        "dims": list(dataset.dims),
        "name": dataset.name,
        **dataset.generation,
    }
    if extra_meta:
        meta.update(extra_meta)
    (root / "meta").write_text(json.dumps(meta, sort_keys=True) + "\n")
    for i, mod in enumerate(dataset.modalities):
        _write_float_csv(root / f"modality_{i}.csv", mod.features)
        _write_int_csv(root / f"present_{i}.csv", mod.present.astype(int))
    _write_int_csv(root / "labels.csv", dataset.labels)


def _read_text(path: Path) -> str:
    if not path.exists():
        raise ValidationError(f"missing dataset file: {path}")
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as e:  # a directory, unreadable, not UTF-8
        raise ValidationError(f"unreadable dataset file {path}: {e}") from None


def _read_rows(path: Path, n: int) -> list:
    rows = _read_text(path).splitlines()
    if len(rows) != n:
        raise ValidationError(f"{path}: expected {n} rows, found {len(rows)}")
    return rows


_FLAGS = {"0": False, "1": True}


def _read_flags(path: Path, n: int) -> np.ndarray:
    """A one-column 0/1 file as booleans."""
    rows = _read_rows(path, n)
    try:
        return np.array([_FLAGS[line.strip()] for line in rows], dtype=bool)
    except KeyError:  # name the first row that is neither
        r = next(r for r, line in enumerate(rows) if line.strip() not in _FLAGS)
        raise ValidationError(f"{path}: row {r} must be 0 or 1") from None


# rows per cast: a block's cell strings are the only ones alive at a time,
# which keeps them from raising peak memory, and 32 casts as fast as one
_PARSE_ROWS = 32


def _read_floats(path: Path, n: int, width: int) -> np.ndarray:
    """A CSV of n rows of `width` finite decimals, as an n x width matrix.

    Each block of rows is parsed by one cast, numpy's str -> float64, which
    is Python's `float()` on each cell, and the matrix is checked finite
    once. When the rows are ragged, a cell does not parse or a value is not
    finite, the row loop names the first bad row. The matrix is built from
    rows already read, so neither n nor width sizes an allocation before the
    file confirms it.
    """
    lines = _read_rows(path, n)
    try:
        feats = np.concatenate([
            np.array([line.split(",") for line in lines[a:a + _PARSE_ROWS]], dtype=np.float64)
            for a in range(0, n, _PARSE_ROWS)])
    except ValueError:  # ragged rows or a non-numeric cell
        feats = None
    if feats is not None and feats.shape == (n, width) and np.isfinite(feats).all():
        return feats
    rows = []
    for r, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) != width:
            raise ValidationError(f"{path}: row {r} has {len(cells)} values, expected {width}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            raise ValidationError(f"{path}: row {r} has a non-numeric value") from None
        if not np.isfinite(rows[r]).all():
            raise ValidationError(f"{path}: row {r} has a non-finite value")
    return np.array(rows)


def load_dataset(path) -> MultimodalDataset:
    """Parse and validate a dataset directory; rejects non-finite values."""
    root = Path(path)
    meta_path = root / "meta"
    try:
        meta = json.loads(_read_text(meta_path))
    except json.JSONDecodeError as e:
        raise ValidationError(f"unparseable meta file {meta_path}: {e}") from None
    if not isinstance(meta, dict):
        raise ValidationError(f"{meta_path}: must hold a JSON object")
    n, m, dims = meta.get("n"), meta.get("m"), meta.get("dims")
    # bool is an int subclass, and int() would truncate 40.7 or parse "40"
    if not (type(n) is int and type(m) is int and type(dims) is list
            and all(type(d) is int for d in dims)):
        raise ValidationError(f"{meta_path}: needs JSON integers n, m and dims, "
                              f"got n={n!r}, m={m!r}, dims={dims!r}")
    generation = {key: meta[key] for key in ("class_sep", "missing_rate", "noise_std")
                  if key in meta}
    for key, value in generation.items():
        if not (type(value) is int or type(value) is float and math.isfinite(value)):
            raise ValidationError(f"{meta_path}: {key} must be a finite number, got {value!r}")
    name = meta.get("name", "dataset")
    if type(name) is not str:
        raise ValidationError(f"{meta_path}: name must be a string, got {name!r}")
    if n < 1:
        raise ValidationError(f"{meta_path}: n must be >= 1, got {n}")
    if len(dims) != m or any(d < 1 for d in dims):
        raise ValidationError(f"{meta_path}: dims must list {m} positive sizes, got {dims}")
    modalities = []
    for i in range(m):
        feats = _read_floats(root / f"modality_{i}.csv", n, dims[i])
        modalities.append(Modality(feats, _read_flags(root / f"present_{i}.csv", n)))
    labels = _read_flags(root / "labels.csv", n).astype(np.int64)
    return MultimodalDataset(modalities, labels, name=name, generation=generation)


def _present_subjects(dataset: MultimodalDataset, i: int, k: int) -> np.ndarray:
    """Indices of modality i's present subjects, which its k-NN needs more than k of."""
    present_idx = np.flatnonzero(dataset.modalities[i].present)
    if present_idx.size < k + 1:
        raise ValidationError(f"modality_{i}: only {present_idx.size} present subjects for k={k}")
    return present_idx


def build_fused_hypergraph(dataset: MultimodalDataset, k: int, pairwise=False,
                           modalities=None):
    """Per-modality k-NN hypergraphs fused over the full subject set.

    `modalities` lists the modality indices to fuse, in order; None fuses
    all of them. Distances are Euclidean on the features as ingested; any
    normalization is the data producer's responsibility. Subjects absent
    from a modality contribute no hyperedge there, are not neighbor
    candidates there, and have zero feature rows in that modality's block
    of the fused features. A subject absent from every selected modality
    stays in the graph with a zero feature row and degree 0.

    Returns (G, X_fused).
    """
    selected = range(dataset.num_modalities) if modalities is None else list(modalities)
    if not selected:
        raise ValidationError("build_fused_hypergraph: empty modality selection")
    rows, cols, num_edges = [], [], 0  # (node, hyperedge) pairs, modality by modality
    blocks = []
    for i in selected:
        mod = dataset.modalities[i]
        present_idx = _present_subjects(dataset, i, k)
        try:
            neighbors = knn_neighbor_lists(mod.features[present_idx], k)
        except ValidationError as e:
            raise ValidationError(f"modality_{i}: {e}") from None
        members, edges, count = _knn_members(neighbors, pairwise)
        rows.append(present_idx[members])
        cols.append(num_edges + edges)
        num_edges += count
        blocks.append(mod.features * mod.present[:, None])
    G = Hypergraph(dataset.num_subjects, np.concatenate(rows), np.concatenate(cols),
                   np.ones(num_edges))
    return G, np.hstack(blocks)


@dataclass
class FoldSplit:
    assignment: np.ndarray
    k_folds: int

    def val_mask(self, fold: int) -> np.ndarray:
        return self.assignment == fold

    def train_mask(self, fold: int) -> np.ndarray:
        return self.assignment != fold


def split_folds(labels, k_folds: int, seed: int) -> FoldSplit:
    """Stratified fold assignment: shuffle each class, deal round-robin."""
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if k_folds < 2:
        raise ValidationError(f"k_folds must be >= 2, got {k_folds}")
    classes = np.unique(y)
    # one class leaves every fold's AUC undefined, so no fold could be scored
    if classes.size < 2:
        raise ValidationError(f"labels need at least two classes, found {classes.tolist()}")
    rng = np.random.default_rng(seed)
    assignment = np.full(y.shape[0], -1, dtype=np.int64)
    # continuing the round-robin pointer across classes keeps overall fold
    # sizes within one of each other, on top of per-class stratification
    pointer = 0
    for cls in classes:
        idx = np.flatnonzero(y == cls)
        if idx.size < k_folds:
            raise ValidationError(
                f"class {cls} has {idx.size} members, fewer than {k_folds} folds"
            )
        idx = rng.permutation(idx)
        assignment[idx] = (pointer + np.arange(idx.size)) % k_folds
        pointer = (pointer + idx.size) % k_folds
    return FoldSplit(assignment, k_folds)
