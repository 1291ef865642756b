"""Synthetic generation, dataset disk format, fusion with dropouts, folds."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hglearn.autodiff import ValidationError
from hglearn.data import (
    Modality,
    MultimodalDataset,
    build_fused_hypergraph,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_folds,
)
from hglearn.hypergraph import Hypergraph, knn_hyperedges
from hglearn.metrics import auc


class TestGenerateSynthetic:
    def test_default_shapes_and_balance(self):
        ds = generate_synthetic(200, 3, (16, 16, 16), 3.0, 0.0, seed=1)
        assert ds.dims == (16, 16, 16)
        assert all(m.features.shape == (200, 16) for m in ds.modalities)
        positives = ds.labels.sum()
        assert abs(positives - 100) <= 10  # within 5 percent of half

    def test_no_missing_when_rate_zero(self):
        ds = generate_synthetic(50, 2, (4, 4), 1.0, 0.0, seed=0)
        assert all(m.present.all() for m in ds.modalities)

    def test_never_all_absent(self):
        ds = generate_synthetic(100, 3, (4, 4, 4), 1.0, 0.7, seed=5)
        present_any = np.zeros(100, dtype=bool)
        for m in ds.modalities:
            present_any |= m.present
        assert present_any.all()

    def test_absent_rows_are_zero(self):
        ds = generate_synthetic(60, 2, (5, 5), 1.0, 0.3, seed=2)
        for m in ds.modalities:
            assert not m.features[~m.present].any()

    def test_deterministic_per_seed(self):
        a = generate_synthetic(40, 2, (3, 3), 2.0, 0.1, seed=9)
        b = generate_synthetic(40, 2, (3, 3), 2.0, 0.1, seed=9)
        assert np.array_equal(a.labels, b.labels)
        for ma, mb in zip(a.modalities, b.modalities):
            assert np.array_equal(ma.features, mb.features)

    def test_class_separation_controls_distance(self):
        near = generate_synthetic(100, 1, (8,), 0.0, 0.0, seed=3)
        far = generate_synthetic(100, 1, (8,), 5.0, 0.0, seed=3)

        def mean_gap(ds):
            X = ds.modalities[0].features
            return np.linalg.norm(
                X[ds.labels == 1].mean(axis=0) - X[ds.labels == 0].mean(axis=0)
            )

        assert mean_gap(far) > mean_gap(near) + 3.0

    def test_zero_separation_probe_auc_near_half(self):
        # Fisher-direction linear probe on fused features, fresh holdout
        aucs = []
        for seed in range(5):
            ds = generate_synthetic(300, 2, (8, 8), 0.0, 0.0, seed=seed)
            X = np.hstack([m.features for m in ds.modalities])
            y = ds.labels
            train = np.arange(300) < 150
            w = X[train & (y == 1)].mean(axis=0) - X[train & (y == 0)].mean(axis=0)
            aucs.append(auc(X @ w, y, ~train))
        assert 0.4 <= np.mean(aucs) <= 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 5},
            {"m": 0},
            {"missing_rate": 1.0},
            {"noise_std": 0.0},
            {"class_sep": -1.0},
            {"dims": (4,)},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        base = {"n": 20, "m": 2, "dims": (4, 4), "class_sep": 1.0, "missing_rate": 0.0}
        base.update(kwargs)
        with pytest.raises(ValidationError):
            generate_synthetic(**base)


class TestDiskFormat:
    def test_round_trip_is_bit_identical(self, tmp_path):
        ds = generate_synthetic(30, 3, (4, 6, 2), 1.5, 0.2, seed=7)
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert loaded.name == ds.name
        assert np.array_equal(loaded.labels, ds.labels)
        for a, b in zip(loaded.modalities, ds.modalities):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.present, b.present)

    def test_bad_label_value_names_row(self, tmp_path):
        ds = generate_synthetic(12, 1, (3,), 1.0, 0.0, seed=0)
        save_dataset(ds, tmp_path / "d")
        labels = (tmp_path / "d" / "labels.csv").read_text().splitlines()
        labels[7] = "2"
        (tmp_path / "d" / "labels.csv").write_text("\n".join(labels) + "\n")
        with pytest.raises(ValidationError, match="row 7"):
            load_dataset(tmp_path / "d")

    def test_non_finite_value_names_file_and_row(self, tmp_path):
        ds = generate_synthetic(12, 1, (3,), 1.0, 0.0, seed=0)
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / "modality_0.csv"
        rows = path.read_text().splitlines()
        rows[4] = "nan,1.0,2.0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError, match="modality_0.csv: row 4"):
            load_dataset(tmp_path / "d")

    def test_missing_file_reported(self, tmp_path):
        ds = generate_synthetic(12, 2, (3, 3), 1.0, 0.0, seed=0)
        save_dataset(ds, tmp_path / "d")
        (tmp_path / "d" / "present_1.csv").unlink()
        with pytest.raises(ValidationError, match="present_1.csv"):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.pop("n"), "meta"),
        (lambda meta: meta.pop("m"), "meta"),
        (lambda meta: meta.pop("dims"), "meta"),
        (lambda meta: meta.update(dims=[3]), "meta"),
        (lambda meta: meta.update(n="many"), "meta"),
        (lambda meta: meta.update(n=-1), "meta: n must be >= 1, got -1"),
        # checked against the rows on disk before n sizes an allocation
        (lambda meta: meta.update(n=10**13),
         "modality_0.csv: expected 10000000000000 rows, found 12"),
    ], ids=["no-n", "no-m", "no-dims", "dims-shorter-than-m", "non-integer-n",
            "negative-n", "n-beyond-rows"])
    def test_malformed_meta_rejected(self, tmp_path, edit, message):
        ds = generate_synthetic(12, 2, (3, 3), 1.0, 0.0, seed=0)
        save_dataset(ds, tmp_path / "d")
        meta_path = tmp_path / "d" / "meta"
        meta = json.loads(meta_path.read_text())
        edit(meta)
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(ValidationError, match=message):
            load_dataset(tmp_path / "d")

    @pytest.mark.parametrize("name", ["modality_0.csv", "present_0.csv", "labels.csv"])
    @pytest.mark.parametrize("fault", ["missing-row", "bad-cell"])
    def test_bad_rows_named_exactly(self, tmp_path, name, fault):
        ds = generate_synthetic(12, 1, (3,), 1.0, 0.0, seed=0)
        save_dataset(ds, tmp_path / "d")
        path = tmp_path / "d" / name
        rows = path.read_text().splitlines()
        if fault == "missing-row":
            del rows[5]
            message = f"{path}: expected 12 rows, found 11"
        else:
            rows[5] = "1.0,x,2.0" if name == "modality_0.csv" else "yes"
            message = (f"{path}: row 5 has a non-numeric value" if name == "modality_0.csv"
                       else f"{path}: row 5 must be 0 or 1")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValidationError) as err:
            load_dataset(tmp_path / "d")
        assert str(err.value) == message

    def test_absent_subject_round_trips(self, tmp_path):
        ds = generate_synthetic(20, 3, (3, 3, 3), 1.0, 0.0, seed=0)
        ds.modalities[1].present[7] = False
        ds.modalities[1].features[7] = 0.0
        save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert not loaded.modalities[1].present[7]
        assert not loaded.modalities[1].features[7].any()

    def test_all_absent_subject_rejected(self):
        feats = np.ones((12, 2))
        present = np.ones(12, dtype=bool)
        present[3] = False
        with pytest.raises(ValidationError, match="subject 3"):
            MultimodalDataset([Modality(feats, present)], np.zeros(12, int))


class TestBuildFusedHypergraph:
    def test_single_modality_no_missing_matches_knn(self):
        ds = generate_synthetic(25, 1, (4,), 1.0, 0.0, seed=3)
        G, X = build_fused_hypergraph(ds, 4)
        direct = knn_hyperedges(ds.modalities[0].features, 4)
        assert np.array_equal(G.incidence, direct.incidence)
        assert np.array_equal(X, ds.modalities[0].features)

    def test_absent_subject_excluded_from_modality(self):
        rng = np.random.default_rng(0)
        feats = [rng.standard_normal((6, 2)) for _ in range(3)]
        present = [np.ones(6, bool) for _ in range(3)]
        present[1][3] = False
        feats[1][3] = 0.0
        ds = MultimodalDataset(
            [Modality(f, p) for f, p in zip(feats, present)], rng.integers(0, 2, 6)
        )
        G, X = build_fused_hypergraph(ds, 1)
        # modality 1 contributes 5 columns (one per present subject)
        assert G.num_edges == 6 + 5 + 6
        mod1_cols = G.incidence[:, 6:11]
        assert not mod1_cols[3].any()  # absent row never appears
        assert X[3, 2:4].tolist() == [0.0, 0.0]  # zero-filled block
        # subject 3 still appears in modalities 0 and 2
        assert G.incidence[3, :6].any() and G.incidence[3, 11:].any()

    def test_counting_example(self):
        ds = generate_synthetic(50, 3, (4, 4, 4), 1.0, 0.0, seed=2)
        G, X = build_fused_hypergraph(ds, 5)
        assert G.num_edges == 150
        assert X.shape == (50, 12)

    def test_column_count_equals_present_totals(self):
        ds = generate_synthetic(40, 3, (4, 4, 4), 1.0, 0.25, seed=6)
        G, _ = build_fused_hypergraph(ds, 3)
        assert G.num_edges == sum(int(m.present.sum()) for m in ds.modalities)

    def test_absent_rows_never_neighbors(self):
        ds = generate_synthetic(40, 2, (4, 4), 1.0, 0.3, seed=8)
        G, _ = build_fused_hypergraph(ds, 3)
        start = 0
        for m in ds.modalities:
            cols = G.incidence[:, start : start + int(m.present.sum())]
            assert not cols[~m.present].any()
            start += int(m.present.sum())

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(10, 30), m=st.integers(1, 3), k=st.integers(0, 4),
           pairwise=st.booleans(), missing_rate=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 10_000), order=st.permutations(range(3)),
           size=st.integers(1, 3))
    @example(n=20, m=3, k=0, pairwise=True, missing_rate=0.3, seed=0, order=[0, 1, 2], size=3)
    @example(n=20, m=3, k=0, pairwise=False, missing_rate=0.3, seed=0, order=[0, 1, 2], size=3)
    # modality 2 alone leaves 4 of the 20 subjects in no selected modality
    @example(n=20, m=3, k=2, pairwise=False, missing_rate=0.3, seed=0, order=[2, 0, 1], size=1)
    def test_incidence_is_the_scattered_per_modality_knn(self, n, m, k, pairwise,
                                                         missing_rate, seed, order, size):
        # dims differ per modality, so a block out of order would show
        ds = generate_synthetic(n, m, (2, 3, 4)[:m], 1.0, missing_rate, seed=seed)
        selected = [i for i in order if i < m][:size]
        assume(all(ds.modalities[i].present.sum() > k for i in selected))
        G, X = build_fused_hypergraph(ds, k, pairwise=pairwise, modalities=selected)
        start, col = 0, 0
        for i in selected:
            mod = ds.modalities[i]
            present_idx = np.flatnonzero(mod.present)
            sub = knn_hyperedges(mod.features[present_idx], k, pairwise=pairwise)
            block = np.zeros((n, sub.num_edges))
            block[present_idx] = sub.incidence
            assert np.array_equal(G.incidence[:, start : start + sub.num_edges], block)
            start += sub.num_edges
            masked = np.where(mod.present[:, None], mod.features, 0.0)
            assert np.array_equal(X[:, col : col + mod.dim], masked)
            col += mod.dim
        assert G.num_edges == start and X.shape == (n, col)
        assert np.array_equal(G.edge_weights, np.ones(start))
        # a subject in none of the selected modalities: zero features, degree 0
        absent = ~np.any([ds.modalities[i].present for i in selected], axis=0)
        assert not X[absent].any() and not G.incidence[absent].any()

    def test_one_hypergraph_per_call(self, monkeypatch):
        built = []
        validate = Hypergraph.__post_init__

        def counted(G):
            built.append(G)
            validate(G)
        monkeypatch.setattr(Hypergraph, "__post_init__", counted)
        build_fused_hypergraph(generate_synthetic(30, 3, (4, 4, 4), 1.0, 0.2, seed=0), 3)
        assert len(built) == 1

    def test_too_few_present_subjects_rejected(self):
        ds = generate_synthetic(20, 1, (4,), 1.0, 0.0, seed=1)
        with pytest.raises(ValidationError, match="present"):
            build_fused_hypergraph(ds, 20)

    def test_selection_errors_name_the_dataset_index(self):
        ds = generate_synthetic(20, 3, (4, 4, 4), 1.0, 0.0, seed=1)
        with pytest.raises(ValidationError, match="empty modality selection"):
            build_fused_hypergraph(ds, 3, modalities=[])
        with pytest.raises(ValidationError, match="^modality_2: only 20 present"):
            build_fused_hypergraph(ds, 20, modalities=[2, 0])


class TestSplitFolds:
    def test_ten_balanced_subjects_five_folds(self):
        labels = np.array([0, 1] * 5)
        split = split_folds(labels, 5, seed=0)
        for f in range(5):
            val = split.val_mask(f)
            assert val.sum() == 2
            assert labels[val].sum() == 1

    def test_masks_partition_nodes(self):
        labels = np.random.default_rng(0).integers(0, 2, 53)
        split = split_folds(labels, 5, seed=1)
        union = np.zeros(53, dtype=int)
        for f in range(5):
            union += split.val_mask(f).astype(int)
            assert not (split.val_mask(f) & split.train_mask(f)).any()
        assert np.array_equal(union, np.ones(53, dtype=int))

    def test_97_subjects_fold_sizes_and_balance(self):
        rng = np.random.default_rng(2)
        labels = np.zeros(97, dtype=int)
        labels[:48] = 1
        labels = rng.permutation(labels)
        split = split_folds(labels, 5, seed=3)
        sizes = [int(split.val_mask(f).sum()) for f in range(5)]
        assert set(sizes) <= {19, 20}
        global_pos = labels.mean()
        for f in range(5):
            val = split.val_mask(f)
            pos = labels[val].sum()
            expected = global_pos * val.sum()
            assert abs(pos - expected) <= 1.0

    def test_stratification_bound_random_labels(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(30, 120))
            labels = rng.integers(0, 2, n)
            if min((labels == 0).sum(), (labels == 1).sum()) < 5:
                continue
            split = split_folds(labels, 5, seed=int(rng.integers(0, 100)))
            for cls in (0, 1):
                per_fold = [
                    int((labels[split.val_mask(f)] == cls).sum()) for f in range(5)
                ]
                assert max(per_fold) - min(per_fold) <= 1

    def test_small_class_rejected(self):
        labels = np.array([0] * 20 + [1] * 3)
        with pytest.raises(ValidationError, match="class 1"):
            split_folds(labels, 5, seed=0)

    @pytest.mark.parametrize("cls", [0, 1])
    def test_single_class_rejected(self, cls):
        with pytest.raises(ValidationError,
                           match=rf"labels need at least two classes, found \[{cls}\]"):
            split_folds(np.full(20, cls), 5, seed=0)

    def test_deterministic_per_seed(self):
        labels = np.random.default_rng(4).integers(0, 2, 60)
        a = split_folds(labels, 5, seed=9)
        b = split_folds(labels, 5, seed=9)
        assert np.array_equal(a.assignment, b.assignment)
