"""Checkpoint round-trips and config digests."""

import json

import numpy as np
import pytest

from hglearn.autodiff import ValidationError
from hglearn.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from hglearn.config import RunConfig, load_config, parse_override
from hglearn.model import build_encoder


def _drop_weight_row(doc):
    layer = doc["layers"][1]
    layer["weight"].pop()
    layer["weight_shape"][0] -= 1


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

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("layers"),
        lambda doc: doc["layers"][1].pop("weight"),
        lambda doc: doc["layers"][1].pop("bias"),
        lambda doc: doc["layers"][1].pop("weight_shape"),
        lambda doc: doc["layers"][1].pop("activation"),
        lambda doc: doc.update(layers=3),
        lambda doc: doc["layers"][1]["bias"].pop(),
        lambda doc: doc["layers"][1]["weight"][0].__setitem__(0, "x"),
        _drop_weight_row,
    ], ids=["no-layers", "no-weight", "no-bias", "no-weight-shape", "no-activation",
            "layers-not-list", "short-bias", "string-in-weight", "dims-do-not-chain"])
    def test_malformed_layers_rejected(self, tmp_path, edit):
        path = tmp_path / "enc.json"
        save_checkpoint(path, self.make_stack(), 0, "x")
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="layer"):
            load_checkpoint(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="unreadable"):
            load_checkpoint(path)


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
