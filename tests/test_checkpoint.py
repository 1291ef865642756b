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
from hglearn.config import RunConfig, load_config, parse_override
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
        stack.freeze()
        path = tmp_path / "enc.json"
        save_checkpoint(path, stack, 1, "d")
        loaded, info = load_checkpoint(path)
        assert checkpoint_bytes(loaded, 1, "d") == path.read_bytes()

    def test_frozen_flag_round_trips(self, tmp_path):
        stack = self.make_stack()
        stack.freeze()
        save_checkpoint(tmp_path / "enc.json", stack, 0, "x")
        loaded, _ = load_checkpoint(tmp_path / "enc.json")
        assert loaded.frozen
        assert all(not p.trainable for p in loaded.parameters())

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
            prompt_incidence=np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
            prompt_edge_weights=np.array([1.0, 2.5]),
            best_metrics=None,
            best_epoch=4,
        )

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
    ], ids=["wrong-format", "version-1", "no-best-epoch", "params-not-object",
            "ragged-param", "infinite-param", "null-in-incidence"])
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

    def test_load_config_file_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 50, "seed": 3}))
        cfg = load_config(path, {"seed": 9})
        assert cfg.n == 50
        assert cfg.seed == 9  # overrides win

    @pytest.mark.parametrize("field, value", [("class_sep", 3), ("mask_ratio", 0),
                                              ("tune_lr", 1)])
    def test_int_for_float_field_keeps_the_digest(self, tmp_path, field, value):
        # {"class_sep": 3} in a file and --set class_sep=3 are the same run
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({field: value}))
        from_file = load_config(path)
        from_flag = load_config(overrides={field: parse_override(field, str(value))})
        assert type(getattr(from_file, field)) is float
        assert from_file.digest() == from_flag.digest()

    def test_unknown_field_in_file_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ValidationError, match="bogus"):
            load_config(path)

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
