"""Pipeline orchestration: fold sweeps, checkpoint-dimension guards, subsets."""

import numpy as np
import pytest

from hglearn.autodiff import ValidationError
from hglearn.config import RunConfig
from hglearn.data import generate_synthetic
from hglearn.pipeline import (
    MODALITY_SUBSETS,
    run_ablate_prompts,
    run_pretrain,
    run_tune,
)


@pytest.fixture(scope="module")
def setup():
    cfg = RunConfig(
        n=40, m=2, dims=(4, 4), k=3, hidden_dims=(8,), latent_dim=8,
        pretrain_epochs=5, tune_epochs=5, num_prompts=3, prompt_k=2, gpf_basis=4,
    )
    ds = generate_synthetic(cfg.n, cfg.m, cfg.dims, cfg.class_sep, 0.0, seed=0)
    result, G, X = run_pretrain(ds, cfg)
    result.encoder.freeze()
    return cfg, ds, result.encoder


def test_run_tune_covers_every_fold(setup):
    cfg, ds, encoder = setup
    res = run_tune(ds, encoder, cfg)
    assert len(res["fold_results"]) == cfg.k_folds
    assert res["aggregate"].folds is not None
    assert res["strategy"] == "phgnn"


def test_run_tune_rejects_dimension_mismatch(setup):
    cfg, ds, encoder = setup
    other = generate_synthetic(40, 1, (9,), 1.0, 0.0, seed=1)
    with pytest.raises(ValidationError, match="fused features"):
        run_tune(other, encoder, cfg)


def test_tune_config_clamps_prompt_k(setup):
    cfg, ds, encoder = setup
    for num_prompts in (2, 1):
        res = run_tune(ds, encoder, cfg.replace(num_prompts=num_prompts, prompt_k=3,
                                                tune_epochs=1))
        for fold in res["fold_results"]:
            assert np.array_equal(fold.prompt_incidence, np.ones((num_prompts, num_prompts)))


def test_ablate_prompts_counts_increase(setup):
    cfg, ds, encoder = setup
    rows = run_ablate_prompts(ds, encoder, cfg, sizes=(2, 3, 5))
    counts = [r["tunable_total"] for r in rows]
    assert counts == sorted(counts)
    assert len(set(counts)) == 3


def test_modality_subset_order_matches_report_layout():
    assert MODALITY_SUBSETS == ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))

