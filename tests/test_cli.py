"""Command-line interface: files, formats, exit codes, determinism."""

import json
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hglearn.pipeline
from hglearn.cli import main
from hglearn.data import build_fused_hypergraph
from hglearn.hypergraph import Hypergraph
from hglearn.pipeline import MODALITY_SUBSETS
from hglearn.pretrain import pretrain
from hglearn.prompt import STRATEGIES, tune_with_strategy

FAST = [
    "--set", "n=36", "--set", "m=3", "--set", "dims=4,4,4", "--set", "k=3",
    "--set", "hidden_dims=8", "--set", "latent_dim=8",
    "--set", "pretrain_epochs=6", "--set", "tune_epochs=6",
    "--set", "num_prompts=3", "--set", "prompt_k=2", "--set", "gpf_basis=4",
]


def run(*argv):
    return main(list(argv))


def without(argv, *fields):
    """`argv` (pairs of `--set KEY=VALUE`) minus the settings of `fields`."""
    pairs = zip(argv[::2], argv[1::2])
    return [x for pair in pairs if pair[1].split("=")[0] not in fields for x in pair]


def run_quietly(*argv):
    """`run`, also returning every warning raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(*argv)
    return code, [str(w.message) for w in caught]


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert run("gen-data", "--out", str(out), "--seed", "1", *FAST) == 0
    return out


@pytest.fixture()
def checkpoint_dir(tmp_path, dataset_dir):
    out = tmp_path / "pre"
    assert run("pretrain", "--data", str(dataset_dir), "--out", str(out),
               "--seed", "1", *FAST) == 0
    return out


class TestGenData:
    def test_writes_dataset_directory(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert names == {
            "meta", "labels.csv",
            "modality_0.csv", "modality_1.csv", "modality_2.csv",
            "present_0.csv", "present_1.csv", "present_2.csv",
        }
        meta = json.loads((dataset_dir / "meta").read_text())
        assert meta["n"] == 36 and meta["m"] == 3
        assert "config_digest" in meta

    def test_missing_rate_produces_presence_zeros(self, tmp_path):
        out = tmp_path / "d"
        assert run("gen-data", "--out", str(out), "--seed", "0",
                   "--set", "missing_rate=0.4", *FAST) == 0
        text = (out / "present_0.csv").read_text()
        assert "0" in text.splitlines()

    def test_invalid_n_exits_one(self, tmp_path, capsys):
        code = run("gen-data", "--out", str(tmp_path / "d"), *FAST, "--set", "n=0")
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_existing_path_requires_force(self, tmp_path, dataset_dir):
        assert run("gen-data", "--out", str(dataset_dir), *FAST) == 1
        (dataset_dir / "stale.txt").write_text("from an earlier run\n")
        assert run("gen-data", "--out", str(dataset_dir), "--seed", "1",
                   "--force", *FAST) == 0
        # --force replaces the directory whole, leaving no stage or old copy
        assert not (dataset_dir / "stale.txt").exists()
        assert (dataset_dir / "meta").exists()
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    def test_force_refuses_working_directory(self, tmp_path, monkeypatch, capsys):
        work = tmp_path / "work"
        work.mkdir()
        (work / "keep.txt").write_text("not an output\n")
        monkeypatch.chdir(work)
        for out in (".", ".."):
            assert run("gen-data", "--out", out, "--force", *FAST) == 1
            assert "would replace" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["work"]
        assert [p.name for p in work.iterdir()] == ["keep.txt"]


class TestPretrain:
    def test_outputs(self, checkpoint_dir):
        names = {p.name for p in checkpoint_dir.iterdir()}
        assert names == {"encoder.json", "loss_curve.txt", "run.json"}
        curve = (checkpoint_dir / "loss_curve.txt").read_text().splitlines()
        assert len(curve) == 6  # exactly pretrain_epochs lines
        assert all(re.fullmatch(r"\d+ [0-9.eE+-]+", line) for line in curve)
        run_record = json.loads((checkpoint_dir / "run.json").read_text())
        assert run_record["config_digest"]
        assert run_record["config"]["pretrain_epochs"] == 6

    def test_rerun_same_seed_bit_identical_checkpoint(self, tmp_path, dataset_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("pretrain", "--data", str(dataset_dir), "--out", str(out),
                       "--seed", "3", *FAST) == 0
        assert (a / "encoder.json").read_bytes() == (b / "encoder.json").read_bytes()
        assert (a / "loss_curve.txt").read_bytes() == (b / "loss_curve.txt").read_bytes()

    def test_missing_dataset_exits_one(self, tmp_path):
        assert run("pretrain", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o"), *FAST) == 1

    def test_negative_hidden_dims_exits_one_and_leaves_no_output(self, tmp_path, dataset_dir,
                                                                 capsys):
        out = tmp_path / "o"
        assert run("pretrain", "--data", str(dataset_dir), "--out", str(out),
                   *FAST, "--set", "hidden_dims=-2") == 1
        assert "hidden_dims" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("name, make", [
        ("meta", lambda path: path.mkdir()),
        ("meta", lambda path: path.write_bytes(b"\xff\xfe{")),
        ("modality_1.csv", lambda path: path.mkdir()),
        ("present_0.csv", lambda path: path.write_bytes(b"\xff\n" * 36)),
        ("labels.csv", lambda path: path.mkdir()),
        ("labels.csv", lambda path: path.write_bytes(b"0\n\xfe\n" * 18)),
    ], ids=["meta-directory", "meta-not-utf8", "modality-directory", "present-not-utf8",
            "labels-directory", "labels-not-utf8"])
    def test_unreadable_dataset_file_exits_one(self, tmp_path, dataset_dir, capsys, name,
                                               make):
        target = dataset_dir / name
        target.unlink()
        make(target)
        assert run("pretrain", "--data", str(dataset_dir), "--out", str(tmp_path / "o"),
                   *FAST) == 1
        assert f"unreadable dataset file {target}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_divergence_exits_one_and_leaves_no_output(self, tmp_path, dataset_dir, capsys):
        code, caught = run_quietly("pretrain", "--data", str(dataset_dir),
                                   "--out", str(tmp_path / "o"), *FAST,
                                   "--set", "pretrain_lr=1e300")
        assert (code, caught) == (1, [])
        # the error line is all a diverging run prints
        assert re.fullmatch(r"error: pretrain diverged: .* non-finite at epoch \d+\n",
                            capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    def test_overflowing_features_exit_one_naming_the_modality(self, tmp_path, dataset_dir,
                                                               capsys):
        path = dataset_dir / "modality_1.csv"
        rows = [[float(c) * 1e160 for c in row.split(",")]
                for row in path.read_text().splitlines()]
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        code, caught = run_quietly("pretrain", "--data", str(dataset_dir),
                                   "--out", str(tmp_path / "o"), *FAST)
        assert (code, caught) == (1, [])
        assert capsys.readouterr().err == (
            "error: modality_1: knn: features spread so widely that squared distances "
            "overflow float64\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]

    @pytest.mark.parametrize("name, code", [(None, 1), (5, 1), ("missing", 0)],
                             ids=["null", "integer", "missing"])
    def test_dataset_name_must_be_a_string(self, tmp_path, dataset_dir, capsys, name, code):
        meta_path = dataset_dir / "meta"
        meta = json.loads(meta_path.read_text())
        if name == "missing":
            del meta["name"]
        else:
            meta["name"] = name
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "o"
        assert run("pretrain", "--data", str(dataset_dir), "--out", str(out), *FAST) == code
        if code:
            assert f"{meta_path}: name must be a string, got {name!r}" in capsys.readouterr().err
            assert sorted(p.name for p in tmp_path.iterdir()) == ["data"]
        else:
            assert json.loads((out / "run.json").read_text())["config"]["dataset_name"] == (
                "dataset")


class TestTune:
    def test_outputs_and_row_format(self, tmp_path, dataset_dir, checkpoint_dir):
        out = tmp_path / "tune"
        assert run("tune", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(out), "--seed", "1", *FAST) == 0
        names = {p.name for p in out.iterdir()}
        expected = {"summary.txt", "summary.json"}
        expected |= {f"fold_{f}.json" for f in range(5)}
        expected |= {f"fold_{f}_snapshot.json" for f in range(5)}
        assert names == expected
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[0].startswith("# config_digest: ")
        metric = r"\d+\.\d±\d+\.\d"
        assert re.fullmatch(rf"phgnn  {metric}  {metric}  {metric}  {metric}", summary[2])
        fold = json.loads((out / "fold_0.json").read_text())
        assert fold["strategy"] == "phgnn"
        assert len(fold["train_losses"]) == 6
        assert fold["config_digest"]
        assert fold["config"]["strategy"] == "phgnn"
        snap = json.loads((out / "fold_0_snapshot.json").read_text())
        assert snap["format"] == "hglearn-snapshot"
        assert "prompt.tokens" in snap["params"]

    def test_dim_mismatch_exits_one(self, tmp_path, dataset_dir, checkpoint_dir, capsys):
        other = tmp_path / "d2"
        assert run("gen-data", "--out", str(other), "--seed", "2",
                   "--set", "n=36", "--set", "m=2", "--set", "dims=4,4",
                   "--set", "k=3") == 0
        for argv, message in ((FAST, "m=3 disagrees with the dataset"),
                              (without(FAST, "m", "dims"),
                               "checkpoint expects 12 fused features, dataset has 8")):
            code = run("tune", "--data", str(other),
                       "--checkpoint", str(checkpoint_dir / "encoder.json"),
                       "--out", str(tmp_path / "t2"), *argv)
            assert code == 1
            assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d2", "data", "pre"]

    def test_non_finite_checkpoint_exits_one(self, tmp_path, dataset_dir, checkpoint_dir,
                                             capsys):
        encoder = checkpoint_dir / "encoder.json"
        doc = json.loads(encoder.read_text())
        doc["params"]["encoder.layer0.weight"][0][0] = float("nan")
        encoder.write_text(json.dumps(doc))
        out = tmp_path / "t"
        for strategy in ("linear_probe", "gpf", "finetune"):
            assert run("tune", "--data", str(dataset_dir), "--checkpoint", str(encoder),
                       "--out", str(out), *FAST, "--set", f"strategy={strategy}") == 1
            assert "not a matrix of finite numbers" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "pre"]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_divergence_exits_one_and_leaves_no_output(self, tmp_path, dataset_dir,
                                                       checkpoint_dir, capsys, strategy):
        code, caught = run_quietly("tune", "--data", str(dataset_dir),
                                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                                   "--out", str(tmp_path / "t"), *FAST,
                                   "--set", f"strategy={strategy}", "--set", "tune_lr=1e300")
        assert (code, caught) == (1, [])
        assert re.fullmatch(r"error: tune diverged: .* non-finite at epoch \d+\n",
                            capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "pre"]

    def test_force_refuses_to_replace_an_input(self, tmp_path, dataset_dir,
                                               checkpoint_dir, capsys):
        encoder = checkpoint_dir / "encoder.json"
        before = encoder.read_bytes()
        for out in (checkpoint_dir, tmp_path):
            code = run("tune", "--data", str(dataset_dir), "--checkpoint", str(encoder),
                       "--out", str(out), "--force", *FAST)
            assert code == 1
            assert "would replace" in capsys.readouterr().err
        assert encoder.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data", "pre"]

    def test_zero_tune_epochs_exits_one_and_leaves_no_output(self, tmp_path, dataset_dir,
                                                             checkpoint_dir, capsys):
        out = tmp_path / "t0"
        argv = ["tune", "--data", str(dataset_dir),
                "--checkpoint", str(checkpoint_dir / "encoder.json"), "--out", str(out), *FAST]
        assert run(*argv, "--set", "tune_epochs=0") == 1
        assert "tune_epochs" in capsys.readouterr().err
        assert not out.exists()
        assert run(*argv) == 0

    def test_rerun_identical_bytes(self, tmp_path, dataset_dir, checkpoint_dir):
        outs = []
        for name in ("t1", "t2"):
            out = tmp_path / name
            assert run("tune", "--data", str(dataset_dir),
                       "--checkpoint", str(checkpoint_dir / "encoder.json"),
                       "--out", str(out), "--seed", "5", *FAST) == 0
            outs.append(out)
        for fname in ("summary.txt", "summary.json", "fold_0.json", "fold_4.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


@pytest.fixture(scope="module")
def pretrained_document(tmp_path_factory):
    """A dataset directory and the parsed `encoder.json` pretrained on it."""
    root = tmp_path_factory.mktemp("pretrained")
    assert run("gen-data", "--out", str(root / "data"), "--seed", "1", *FAST) == 0
    assert run("pretrain", "--data", str(root / "data"), "--out", str(root / "pre"),
               "--seed", "1", *FAST) == 0
    return root / "data", json.loads((root / "pre" / "encoder.json").read_text())


_JSON_SCALARS = (st.none() | st.booleans() | st.integers(-10**30, 10**30) | st.floats()
                 | st.text(max_size=4))
_JSON_VALUES = _JSON_SCALARS | st.lists(st.lists(st.floats(), min_size=1, max_size=3),
                                        max_size=3) | st.lists(_JSON_SCALARS, max_size=3)


def mutate_checkpoint(draw, doc):
    """`doc` with one matrix cell, or one field at any depth, replaced or removed."""
    params = doc["params"]
    if draw(st.booleans()):  # a cell
        name = draw(st.sampled_from(sorted(params)))
        r = draw(st.integers(0, len(params[name]) - 1))
        c = draw(st.integers(0, len(params[name][r]) - 1))
        params[name][r][c] = draw(st.floats() | _JSON_SCALARS)
        return doc
    owner = draw(st.sampled_from([doc, params, doc["meta"], doc["activations"]]))
    key = draw(st.sampled_from(sorted(owner) if isinstance(owner, dict) else range(len(owner))))
    if draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(_JSON_VALUES | st.sampled_from(["relu", "identity"]))
    return doc


class TestCheckpointFuzz:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_exits_zero_or_one(self, pretrained_document, data):
        dataset, document = pretrained_document
        doc = mutate_checkpoint(data.draw, json.loads(json.dumps(document)))
        strategy = data.draw(st.sampled_from(STRATEGIES))
        with tempfile.TemporaryDirectory() as work:
            encoder, out = Path(work) / "encoder.json", Path(work) / "tune"
            encoder.write_text(json.dumps(doc))
            code, _ = run_quietly("tune", "--data", str(dataset), "--checkpoint", str(encoder),
                                  "--out", str(out), *FAST, "--set", f"strategy={strategy}")
            assert code in (0, 1)
            if code == 1:
                assert not out.exists()


class TestAblatePrompts:
    def test_header_and_shapes(self, tmp_path, dataset_dir, checkpoint_dir):
        out = tmp_path / "ap"
        assert run("ablate-prompts", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(out), "--seed", "1", "--sizes", "2,3,4,6", *FAST) == 0
        text = (out / "prompt_ablation.txt").read_text().splitlines()
        assert text[1] == "|P|  2  3  4  6"
        assert text[2].startswith("AUC  ")
        assert len(text[2].split()) == 5
        record = json.loads((out / "prompt_ablation.json").read_text())
        counts = [r["tunable_total"] for r in record["rows"]]
        assert counts == sorted(counts) and len(set(counts)) == 4

    def test_large_prompt_sets_run_quietly(self, tmp_path, dataset_dir, checkpoint_dir,
                                           capsys):
        # the default sizes reach latent_dim (8) and half of the 36 subjects
        code, caught = run_quietly("ablate-prompts", "--data", str(dataset_dir),
                                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                                   "--out", str(tmp_path / "ap"), *FAST)
        assert (code, caught) == (0, [])
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("sizes", ["8,x", ""])
    def test_bad_sizes_exit_one(self, tmp_path, dataset_dir, checkpoint_dir, capsys, sizes):
        out = tmp_path / "ap"
        assert run("ablate-prompts", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(out), "--sizes", sizes, *FAST) == 1
        assert "--sizes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["8,0", "0", "3,-2"])
    def test_sizes_below_one_exit_one_before_tuning(self, tmp_path, dataset_dir,
                                                    checkpoint_dir, capsys, monkeypatch,
                                                    sizes):
        tuned = []

        def counted(*args):
            tuned.append(args)
            return tune_with_strategy(*args)
        monkeypatch.setattr(hglearn.pipeline, "tune_with_strategy", counted)
        out = tmp_path / "ap"
        assert run("ablate-prompts", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(out), "--sizes", sizes, *FAST) == 1
        assert (f"error: argument --sizes: prompt counts must be >= 1, got {sizes!r}"
                in capsys.readouterr().err)
        assert not out.exists()
        assert len(tuned) == 0


class TestCompareStrategies:
    def test_six_rows_and_counts(self, tmp_path, dataset_dir, checkpoint_dir):
        out = tmp_path / "cmp"
        assert run("compare-strategies", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(out), "--seed", "1", *FAST) == 0
        record = json.loads((out / "strategy_comparison.json").read_text())
        assert [r["strategy"] for r in record["rows"]] == [
            "finetune", "linear_probe", "phgnn", "phgnn_no_structure", "gpf", "gpf_plus",
        ]
        text = (out / "strategy_comparison.txt").read_text()
        assert "# tunable parameter counts per component" in text
        by_name = {r["strategy"]: r["tunable_total"] for r in record["rows"]}
        assert by_name["phgnn"] < by_name["gpf_plus"] < by_name["finetune"]


class TestAblateModalities:
    def test_seven_rows_in_subset_order(self, tmp_path, dataset_dir):
        out = tmp_path / "am"
        assert run("ablate-modalities", "--data", str(dataset_dir),
                   "--out", str(out), "--seed", "1", *FAST) == 0
        record = json.loads((out / "modality_ablation.json").read_text())
        assert [r["modalities"] for r in record["rows"]] == [
            [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2],
        ]
        # single-modality runs use only that modality's hyperedges (no
        # dropouts here, so one hyperedge per subject)
        for row in record["rows"][:3]:
            assert row["num_hyperedges"] == 36
        assert record["rows"][6]["num_hyperedges"] == 3 * 36
        text = (out / "modality_ablation.txt").read_text().splitlines()
        assert len(text) == 2 + 7
        assert text[2].startswith("x . .")

    def test_dropouts_keep_every_subject_in_every_subset(self, tmp_path):
        data, out = tmp_path / "d", tmp_path / "am"
        assert run("gen-data", "--out", str(data), "--seed", "1", *FAST,
                   "--set", "missing_rate=0.2") == 0
        present = [(data / f"present_{i}.csv").read_text().split().count("1")
                   for i in range(3)]
        assert min(present) < 36  # some subset leaves a subject in no modality
        assert run("ablate-modalities", "--data", str(data), "--out", str(out),
                   "--seed", "1", *FAST) == 0
        record = json.loads((out / "modality_ablation.json").read_text())
        assert len(record["rows"]) == 7
        # one hyperedge per present subject of each selected modality
        assert [r["num_hyperedges"] for r in record["rows"]] == [
            sum(present[i] for i in subset) for subset in MODALITY_SUBSETS
        ]
        assert len((out / "modality_ablation.txt").read_text().splitlines()) == 2 + 7

    def test_two_modality_dataset_rejected(self, tmp_path, capsys):
        d = tmp_path / "d2"
        assert run("gen-data", "--out", str(d), "--seed", "0",
                   "--set", "n=36", "--set", "m=2", "--set", "dims=4,4",
                   "--set", "k=3") == 0
        assert run("ablate-modalities", "--data", str(d),
                   "--out", str(tmp_path / "am"), *without(FAST, "m", "dims")) == 1
        assert "needs a 3-modality dataset, got 2" in capsys.readouterr().err


class TestBuildsOnce:
    """Each command fuses its dataset once per hypergraph it needs, and every
    fold shares the data hypergraph's gram."""

    @pytest.fixture()
    def fusions(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return build_fused_hypergraph(*args, **kwargs)
        for module in list(sys.modules.values()):
            if (module.__name__.startswith("hglearn")
                    and getattr(module, "build_fused_hypergraph", None) is build_fused_hypergraph):
                monkeypatch.setattr(module, "build_fused_hypergraph", counted)
        return calls

    @pytest.mark.parametrize("command, builds", [
        (["tune"], 1), (["compare-strategies"], 1), (["ablate-prompts", "--sizes", "1,2"], 1),
        (["ablate-modalities"], 7),
    ], ids=["tune", "compare-strategies", "ablate-prompts", "ablate-modalities"])
    def test_fused_hypergraph_builds(self, tmp_path, dataset_dir, checkpoint_dir, fusions,
                                     command, builds):
        checkpoint = ([] if command[0] == "ablate-modalities"
                      else ["--checkpoint", str(checkpoint_dir / "encoder.json")])
        assert run(*command, "--data", str(dataset_dir), *checkpoint,
                   "--out", str(tmp_path / "o"), *FAST) == 0
        assert len(fusions) == builds

    @pytest.mark.parametrize("strategy", ["phgnn", "gpf"])
    def test_tune_computes_the_data_gram_once(self, tmp_path, dataset_dir, checkpoint_dir,
                                              monkeypatch, strategy):
        grams = []
        compute = Hypergraph.edge_gram.func

        def counted(G):
            if G.num_nodes == 36:  # the data hypergraph, not a 3-token prompt
                grams.append(G)
            return compute(G)
        monkeypatch.setattr(Hypergraph.edge_gram, "func", counted)
        assert run("tune", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"),
                   "--out", str(tmp_path / "t"), *FAST, "--set", f"strategy={strategy}") == 0
        assert len(grams) == 1


class TestFieldsTheInputsFix:
    """`n`, `m`, `dims` and `dataset_name` come from the dataset, and so do
    `class_sep`, `missing_rate` and `noise_std` where its meta records them;
    `hidden_dims` and `latent_dim` come from the checkpoint. A given value must
    agree with them."""

    @pytest.mark.parametrize("setting, field", [
        ("latent_dim=5", "latent_dim"), ("m=2", "m"), ("dims=4,4", "dims"), ("n=7", "n"),
        ("hidden_dims=1,2,3", "hidden_dims"), ("dataset_name=zzz", "dataset_name"),
        ("class_sep=9.0", "class_sep"), ("missing_rate=0.5", "missing_rate"),
        ("noise_std=2", "noise_std"),
    ], ids=["latent_dim", "m", "dims", "n", "hidden_dims", "dataset_name", "class_sep",
            "missing_rate", "noise_std"])
    def test_disagreeing_value_exits_one(self, tmp_path, dataset_dir, checkpoint_dir,
                                         capsys, setting, field):
        out = tmp_path / "t"
        assert run("tune", "--data", str(dataset_dir),
                   "--checkpoint", str(checkpoint_dir / "encoder.json"), "--out", str(out),
                   *FAST, "--set", setting) == 1
        assert re.search(rf"error: {field}=.* disagrees with the (dataset|checkpoint)",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_disagreeing_config_file_value_exits_one(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 7}))
        out = tmp_path / "p"
        assert run("pretrain", "--data", str(dataset_dir), "--config", str(cfg),
                   "--out", str(out), *without(FAST, "n")) == 1
        assert "error: n=7 disagrees with the dataset, which has 36" in capsys.readouterr().err
        assert not out.exists()

    def test_omitted_fields_are_recorded_from_the_inputs(self, tmp_path, dataset_dir,
                                                         checkpoint_dir):
        argv = ["tune", "--data", str(dataset_dir),
                "--checkpoint", str(checkpoint_dir / "encoder.json")]
        assert run(*argv, "--out", str(tmp_path / "given"), *FAST) == 0
        fixed = ("n", "m", "dims", "hidden_dims", "latent_dim")
        assert run(*argv, "--out", str(tmp_path / "omitted"), *without(FAST, *fixed)) == 0
        given, omitted = (json.loads((tmp_path / name / "summary.json").read_text())
                          for name in ("given", "omitted"))
        assert {f: omitted["config"][f] for f in fixed} == {
            "n": 36, "m": 3, "dims": [4, 4, 4], "hidden_dims": [8], "latent_dim": 8}
        assert omitted["config_digest"] == given["config_digest"]
        assert omitted["aggregate"] == given["aggregate"]

    def test_omitted_generation_settings_are_recorded_from_meta(self, tmp_path):
        data = tmp_path / "data"
        drawn = ["--set", "class_sep=2.5", "--set", "missing_rate=0.1", "--set", "noise_std=0.5"]
        assert run("gen-data", "--out", str(data), *FAST, *drawn) == 0
        for name, extra in (("given", drawn), ("omitted", [])):
            assert run("pretrain", "--data", str(data), "--out", str(tmp_path / name),
                       *FAST, *extra) == 0
        given, omitted = (json.loads((tmp_path / name / "run.json").read_text())
                          for name in ("given", "omitted"))
        assert {f: omitted["config"][f] for f in ("class_sep", "missing_rate", "noise_std")} == {
            "class_sep": 2.5, "missing_rate": 0.1, "noise_std": 0.5}
        assert omitted["config_digest"] == given["config_digest"]

    def test_meta_without_generation_settings_fixes_none(self, tmp_path, dataset_dir):
        meta_path = dataset_dir / "meta"
        meta = json.loads(meta_path.read_text())
        for key in ("class_sep", "missing_rate", "noise_std"):
            del meta[key]
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "p"
        assert run("pretrain", "--data", str(dataset_dir), "--out", str(out),
                   *FAST, "--set", "class_sep=9.0") == 0
        assert json.loads((out / "run.json").read_text())["config"]["class_sep"] == 9.0


class TestInputLocation:
    def test_outputs_do_not_depend_on_where_the_inputs_are(self, tmp_path, monkeypatch,
                                                           dataset_dir, checkpoint_dir):
        shutil.copytree(dataset_dir, tmp_path / "copy" / "data")
        shutil.copy(checkpoint_dir / "encoder.json", tmp_path / "copy" / "encoder.json")
        monkeypatch.chdir(tmp_path)
        ways = {"relative": ("./data", "./pre/encoder.json"),
                "absolute": (str(dataset_dir), str(checkpoint_dir / "encoder.json")),
                "copy": ("copy/data", "copy/encoder.json")}
        trees = []
        for way, (data, checkpoint) in ways.items():
            out = tmp_path / "out" / way
            assert run("pretrain", "--data", data, "--out", str(out / "pre"), *FAST) == 0
            assert run("tune", "--data", data, "--checkpoint", checkpoint,
                       "--out", str(out / "tune"), *FAST) == 0
            trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*")
                          if p.is_file()})
        assert len(trees[0]) == 3 + 2 * 5 + 2
        assert trees[0] == trees[1] == trees[2]


class TestArgumentHandling:
    def test_unknown_command_exits_one(self, capsys):
        assert run("frobnicate") == 1

    def test_bad_set_syntax_exits_one(self, tmp_path):
        assert run("gen-data", "--out", str(tmp_path / "x"), "--set", "k") == 1

    def test_unknown_config_field_exits_one(self, tmp_path):
        assert run("gen-data", "--out", str(tmp_path / "x"), "--set", "zap=1") == 1

    def test_config_file_plus_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 40, "m": 1, "dims": [4], "k": 3}))
        out = tmp_path / "d"
        assert run("gen-data", "--config", str(cfg), "--out", str(out),
                   "--set", "n=44") == 0
        meta = json.loads((out / "meta").read_text())
        assert meta["n"] == 44

    @pytest.mark.parametrize("make", [
        lambda path: None,
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe{"),
        lambda path: path.write_bytes(b"{"),
    ], ids=["missing", "directory", "not-utf8", "not-json"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, make):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d")) == 1
        assert "unreadable config" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("values, field", [
        ({"dims": ["a", 4, 4]}, "dims"),
        ({"n": 40.0, "k": 3}, "n"),
        ({"n": 40, "k": 3.5}, "k"),
        ({"n": 40, "k": 3, "pairwise": "false"}, "pairwise"),
    ], ids=["string-in-dims", "float-n", "float-k", "string-pairwise"])
    def test_config_value_of_wrong_type_exits_one(self, tmp_path, capsys, values, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        out = tmp_path / "d"
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 1
        assert f"error: {field} in {cfg}: expected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field, setting", [
        ("class_sep", "class_sep=nan"),
        ("pretrain_lr", "pretrain_lr=inf"),
        ("pretrain_weight_decay", "pretrain_weight_decay=nan"),
        ("sce_gamma", "sce_gamma=nan"),
        ("class_sep", None),
    ], ids=["class_sep-nan", "pretrain_lr-inf", "pretrain_weight_decay-nan", "sce_gamma-nan",
            "config-file-NaN"])
    def test_non_finite_float_exits_one(self, tmp_path, capsys, field, setting):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"class_sep": NaN}' if setting is None else "{}")
        extra = [] if setting is None else ["--set", setting]
        # the config is rejected before the (missing) dataset is read
        for command in (["gen-data"], ["pretrain", "--data", str(tmp_path / "missing")]):
            assert run(*command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                       *extra) == 1
            assert f"error: {field} must be finite" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command, flag", [
        (["pretrain"], "--data"),
        (["ablate-modalities"], "--data"),
        (["tune", "--data", "d"], "--checkpoint"),
    ], ids=["pretrain-data", "ablate-modalities-data", "tune-checkpoint"])
    def test_missing_input_exits_one(self, tmp_path, capsys, command, flag):
        out = tmp_path / "o"
        assert run(*command, "--out", str(out)) == 1
        assert f"error: the following arguments are required: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["num_classes", "data_dir", "checkpoint"])
    @pytest.mark.parametrize("source", ["set", "config"])
    def test_input_path_or_class_count_field_exits_one(self, tmp_path, capsys, field,
                                                        source):
        # rejected before the (missing) dataset and checkpoint are read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: "2"} if source == "config" else {}))
        extra = ["--set", f"{field}=2"] if source == "set" else []
        out = tmp_path / "o"
        assert run("tune", "--data", str(tmp_path / "missing"),
                   "--checkpoint", str(tmp_path / "missing.json"), "--out", str(out),
                   "--config", str(cfg), *extra) == 1
        assert f"error: unknown config field {field!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_fold_exits_one_before_pretraining(self, tmp_path, dataset_dir, capsys,
                                                   monkeypatch):
        pretrained = []

        def counted(*args):
            pretrained.append(args)
            return pretrain(*args)
        monkeypatch.setattr(hglearn.pipeline, "pretrain", counted)
        out = tmp_path / "o"
        assert run("ablate-modalities", "--data", str(dataset_dir), "--out", str(out),
                   *FAST, "--set", "k_folds=1") == 1
        assert "error: k_folds must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()
        assert len(pretrained) == 0

    def test_unfillable_folds_exit_one_before_pretraining(self, tmp_path, dataset_dir,
                                                          capsys, monkeypatch):
        pretrained = []

        def counted(*args):
            pretrained.append(args)
            return pretrain(*args)
        monkeypatch.setattr(hglearn.pipeline, "pretrain", counted)
        out = tmp_path / "o"
        assert run("ablate-modalities", "--data", str(dataset_dir), "--out", str(out),
                   *FAST, "--set", "k_folds=40") == 1
        assert re.search(r"error: class \d has \d+ members, fewer than 40 folds",
                         capsys.readouterr().err)
        assert not out.exists()
        assert len(pretrained) == 0

    def test_unfillable_k_exits_one_before_pretraining(self, tmp_path, dataset_dir, capsys,
                                                       monkeypatch):
        pretrained = []

        def counted(*args):
            pretrained.append(args)
            return pretrain(*args)
        monkeypatch.setattr(hglearn.pipeline, "pretrain", counted)
        # modality 1 keeps 3 subjects, too few for k=3; modality 0 keeps all 36
        (dataset_dir / "present_1.csv").write_text("1\n" * 3 + "0\n" * 33)
        out = tmp_path / "o"
        assert run("ablate-modalities", "--data", str(dataset_dir), "--out", str(out),
                   *FAST) == 1
        assert ("error: modality_1: only 3 present subjects for k=3"
                in capsys.readouterr().err)
        assert not out.exists()
        assert len(pretrained) == 0

    @pytest.mark.parametrize("command", ["tune", "ablate-modalities"])
    def test_single_class_labels_exit_one_before_any_work(self, tmp_path, dataset_dir,
                                                          checkpoint_dir, capsys,
                                                          monkeypatch, command):
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return wrapper
        monkeypatch.setattr(hglearn.pipeline, "pretrain", counted(pretrain))
        monkeypatch.setattr(hglearn.pipeline, "tune_with_strategy",
                            counted(tune_with_strategy))
        labels = dataset_dir / "labels.csv"
        labels.write_text("1\n" * len(labels.read_text().splitlines()))
        checkpoint = ([] if command == "ablate-modalities"
                      else ["--checkpoint", str(checkpoint_dir / "encoder.json")])
        out = tmp_path / "o"
        assert run(command, "--data", str(dataset_dir), *checkpoint, "--out", str(out),
                   *FAST) == 1
        assert ("error: labels need at least two classes, found [1]"
                in capsys.readouterr().err)
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, source):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1} if source == "config-file" else {}))
        extra = ["--seed", "-1"] if source == "flag" else []
        for command in (["gen-data"], ["pretrain", "--data", str(tmp_path / "missing")]):
            assert run(*command, "--config", str(cfg), "--out", str(tmp_path / "o"),
                       *extra) == 1
            assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
