"""Checkpoint round-trips and config digests."""

import json

import numpy as np
import pytest

from hglearn.autodiff import ValidationError
from hglearn.checkpoint import (
    checkpoint_bytes,
    load_checkpoint,
    load_snapshot,
    save_checkpoint,
    save_snapshot,
)
from hglearn.config import RunConfig, parse_override, read_config
from hglearn.hypergraph import Hypergraph
from hglearn.model import build_encoder
from hglearn.prompt import TuneResult


class TestCheckpoint:
    def make_stack(self, seed=0):
        return build_encoder(6, (5,), 4, np.random.default_rng(seed))

    def test_round_trip_is_bit_exact(self, tmp_path):
        stack = self.make_stack()
        path = tmp_path / "enc.json"
        save_checkpoint(path, stack, seed=7, config_digest="abc123")
        loaded, info = load_checkpoint(path)
        assert info["seed"] == 7
        assert info["config_digest"] == "abc123"
        for a, b in zip(stack.parameters(), loaded.parameters()):
            assert np.array_equal(a.value, b.value)
        assert [l.activation for l in loaded.layers] == [l.activation for l in stack.layers]

    def test_serialization_is_deterministic(self):
        a = checkpoint_bytes(self.make_stack(), 7, "abc")
        b = checkpoint_bytes(self.make_stack(), 7, "abc")
        assert a == b

    def test_reserialization_after_load_matches(self, tmp_path):
        stack = self.make_stack(3)
        path = tmp_path / "enc.json"
        save_checkpoint(path, stack, 1, "d")
        loaded, info = load_checkpoint(path)
        assert checkpoint_bytes(loaded, 1, "d") == path.read_bytes()

    @pytest.mark.parametrize("frozen", [True, False])
    def test_older_frozen_key_is_ignored(self, tmp_path, frozen):
        stack = self.make_stack()
        path = tmp_path / "enc.json"
        save_checkpoint(path, stack, 0, "x")
        doc = json.loads(path.read_text())
        assert "frozen" not in doc
        # version-2 checkpoints written before the key was dropped still load
        doc["frozen"] = frozen
        path.write_text(json.dumps(doc))
        loaded, info = load_checkpoint(path)
        assert info["seed"] == 0
        for a, b in zip(stack.parameters(), loaded.parameters()):
            assert (a.name, a.trainable) == (b.name, b.trainable)
            assert np.array_equal(a.value, b.value)
        assert checkpoint_bytes(loaded, 0, "x") == checkpoint_bytes(stack, 0, "x")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValidationError, match="not a"):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "hglearn-checkpoint", "version": 99}))
        with pytest.raises(ValidationError, match="version"):
            load_checkpoint(path)
        # a version-1 document (per-layer records) is no longer read
        save_checkpoint(path, self.make_stack(), 0, "x")
        doc = json.loads(path.read_text())
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="unsupported version 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("params"), "missing params"),
        (lambda doc: doc["params"].pop("encoder.layer1.weight"), "missing param"),
        (lambda doc: doc["params"].pop("encoder.layer1.bias"), "missing param"),
        (lambda doc: doc.pop("activations"), "missing activations"),
        (lambda doc: doc.update(params=3), "params must be an object"),
        (lambda doc: doc["params"]["encoder.layer1.bias"][0].pop(), "bias shape"),
        (lambda doc: doc["params"]["encoder.layer1.weight"][0].__setitem__(0, "x"),
         "encoder.layer1.weight"),
        (lambda doc: doc["params"]["encoder.layer1.weight"].pop(), "do not chain"),
        (lambda doc: doc["params"]["encoder.layer0.weight"][0].__setitem__(0, float("nan")),
         "encoder.layer0.weight is not a matrix of finite numbers"),
    ], ids=["no-params", "no-weight", "no-bias", "no-activation", "params-not-object",
            "short-bias", "string-in-weight", "dims-do-not-chain", "nan-weight"])
    def test_malformed_layers_rejected(self, tmp_path, edit, message):
        path = tmp_path / "enc.json"
        save_checkpoint(path, self.make_stack(), 0, "x")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_checkpoint(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="unreadable"):
            load_checkpoint(path)


class TestSnapshot:
    def make_result(self):
        rng = np.random.default_rng(1)
        return TuneResult(
            strategy="phgnn",
            snapshot={"prompt.tokens": rng.standard_normal((3, 4)),
                      "head.weight": rng.standard_normal((4, 2))},
            prompt_structure=Hypergraph.from_incidence(
                np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), np.array([1.0, 2.5])),
            best_metrics=None,
            best_epoch=4,
        )

    def test_round_trip_rebuilds_the_structure(self, tmp_path):
        path = tmp_path / "s.json"
        result = self.make_result()
        save_snapshot(path, result, "abc")
        loaded, info = load_snapshot(path)
        assert info == {"config_digest": "abc"}
        assert (loaded.strategy, loaded.best_epoch) == ("phgnn", 4)
        assert loaded.snapshot.keys() == result.snapshot.keys()
        G_p = loaded.prompt_structure
        assert G_p.num_nodes == 3
        assert np.array_equal(G_p.incidence, result.prompt_structure.incidence)
        assert np.array_equal(G_p.edge_weights, [1.0, 2.5])

    @pytest.mark.parametrize("structure", [
        Hypergraph.from_incidence(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                                  np.array([1.0, 2.5])),
        Hypergraph(3, [], []),
        None,
    ], ids=["weighted", "no-hyperedges", "no-structure"])
    def test_save_load_save_gives_the_same_bytes(self, tmp_path, structure):
        result = self.make_result()
        result.prompt_structure = structure
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_snapshot(first, result, "abc")
        loaded, info = load_snapshot(first)
        save_snapshot(second, loaded, info["config_digest"])
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(format="hglearn-checkpoint"), "not a hglearn-snapshot"),
        (lambda doc: doc.update(version=1), "unsupported version 1"),
        (lambda doc: doc.pop("best_epoch"), "missing best_epoch"),
        (lambda doc: doc.update(params=[]), "params must be an object"),
        (lambda doc: doc["params"]["prompt.tokens"][1].pop(), "prompt.tokens"),
        (lambda doc: doc["params"]["head.weight"][0].__setitem__(1, float("inf")),
         "head.weight is not a matrix of finite numbers"),
        (lambda doc: doc["params"]["prompt.incidence"][0].__setitem__(0, None),
         "prompt.incidence"),
        (lambda doc: doc["params"]["prompt.edge_weights"][0].append(1.0),
         "s.json: prompt structure: 3 edge weights for 2 hyperedges"),
        (lambda doc: doc["params"].update({"prompt.edge_weights": [[1.0], [2.5]]}),
         "s.json: prompt.edge_weights must be a single row"),
        (lambda doc: doc["params"]["prompt.incidence"][0].__setitem__(0, 2.0),
         "s.json: prompt structure: incidence entries must be 0 or 1"),
        (lambda doc: doc["params"].pop("prompt.edge_weights"),
         "s.json: prompt.incidence and prompt.edge_weights must be present together"),
        (lambda doc: doc["params"].pop("prompt.incidence"),
         "s.json: prompt.incidence and prompt.edge_weights must be present together"),
        (lambda doc: doc.update(best_epoch="x"), "s.json: best_epoch must be an integer"),
        (lambda doc: doc.update(best_epoch=True), "s.json: best_epoch must be an integer"),
        (lambda doc: doc.update(best_epoch=4.0), "s.json: best_epoch must be an integer"),
    ], ids=["wrong-format", "version-1", "no-best-epoch", "params-not-object",
            "ragged-param", "infinite-param", "null-in-incidence", "wide-edge-weights",
            "two-row-edge-weights", "non-binary-incidence", "incidence-only",
            "edge-weights-only", "string-best-epoch", "bool-best-epoch", "float-best-epoch"])
    def test_malformed_snapshot_rejected(self, tmp_path, edit, message):
        path = tmp_path / "s.json"
        save_snapshot(path, self.make_result(), "abc")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=message):
            load_snapshot(path)


class TestRunConfig:
    def test_digest_is_stable_and_sensitive(self):
        a, b = RunConfig(), RunConfig()
        assert a.digest() == b.digest()
        assert RunConfig(seed=1).digest() != a.digest()

    def test_defaults_match_pipeline_settings(self):
        cfg = RunConfig()
        assert cfg.k == 30
        assert cfg.mask_ratio == 0.75
        assert cfg.sce_gamma == 2.0
        assert cfg.k_folds == 5

    def test_invalid_values_rejected(self):
        with pytest.raises(ValidationError):
            RunConfig(strategy="nope")
        with pytest.raises(ValidationError):
            RunConfig(mask_ratio=1.5)
        with pytest.raises(ValidationError):
            RunConfig(n=0)
        with pytest.raises(ValidationError, match="tune_epochs"):
            RunConfig(tune_epochs=0)
        with pytest.raises(ValidationError, match="prompt_k"):
            RunConfig(prompt_k=-1)
        for hidden in ((-2,), (0,), (8, 0)):
            with pytest.raises(ValidationError, match="hidden_dims"):
                RunConfig(hidden_dims=hidden)
        with pytest.raises(ValidationError, match="^k_folds must be >= 2, got 1$"):
            RunConfig(k_folds=1)
        for m, dims in ((2, (16, 16, 16)), (3, (4, 4))):
            with pytest.raises(ValidationError, match=rf"^dims must list m={m} sizes"):
                RunConfig(m=m, dims=dims)

    def test_read_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 50, "seed": 3}))
        cfg = RunConfig(**read_config(path, {"seed": 9}))
        assert cfg.n == 50
        assert cfg.seed == 9  # overrides win

    @pytest.mark.parametrize("field, value", [("class_sep", 3), ("mask_ratio", 0),
                                              ("tune_lr", 1)])
    def test_int_for_float_field_keeps_the_digest(self, tmp_path, field, value):
        # {"class_sep": 3} in a file and --set class_sep=3 are the same run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        from_file = RunConfig(**read_config(path))
        from_flag = RunConfig(**read_config(overrides={field: parse_override(field, str(value))}))
        assert type(getattr(from_file, field)) is float
        assert from_file.digest() == from_flag.digest()

    def test_unknown_field_in_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValidationError, match="bogus"):
            read_config(path)

    @pytest.mark.parametrize("field", ["num_classes", "data_dir", "checkpoint"])
    def test_input_paths_and_class_count_are_not_fields(self, tmp_path, field):
        # the inputs are named by flags and the head always has two outputs
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: "2"}))
        with pytest.raises(ValidationError, match=f"^unknown config field '{field}' in "):
            read_config(path)
        with pytest.raises(ValidationError, match=f"^unknown config field '{field}'$"):
            parse_override(field, "2")

    def test_parse_override_types(self):
        assert parse_override("k", "12") == 12
        assert parse_override("tune_lr", "0.01") == 0.01
        assert parse_override("dims", "4,5,6") == (4, 5, 6)
        assert parse_override("pairwise", "true") is True
        assert parse_override("strategy", "gpf") == "gpf"
        with pytest.raises(ValidationError):
            parse_override("nope", "1")
        with pytest.raises(ValidationError):
            parse_override("k", "abc")
        with pytest.raises(ValidationError, match="boolean"):
            parse_override("pairwise", "maybe")
