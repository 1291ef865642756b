"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The suite trains real models; expect a few minutes.
"""

import json
import sys
import time

import numpy as np
import pytest

from hglearn import autodiff as ad
from hglearn.autodiff import Parameter, finite_difference_check, sce_loss
from hglearn.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from hglearn.cli import main as cli_main
from hglearn.config import RunConfig
from hglearn.data import build_fused_hypergraph, generate_synthetic, split_folds
from hglearn.hypergraph import Hypergraph, propagation_operator
from hglearn.metrics import auc, evaluate_logits
from hglearn.model import build_decoder, build_encoder, build_head, classify, hgnn_forward_operator
from hglearn.pipeline import run_ablate_modalities, run_tune
from hglearn.pretrain import pretrain, sample_mask
from hglearn.prompt import build_prompt_structure, count_tunable_params, insert_prompt, tune_with_strategy

from oracles import brute_force_operator, pair_count_auc
from tape_ops import mul, sum_all


def report(num, ok, msg):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {msg}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def default_dataset():
    return generate_synthetic(200, 3, (16, 16, 16), 3.0, 0.0, seed=1)


@pytest.fixture(scope="module")
def fused(default_dataset):
    return build_fused_hypergraph(default_dataset, 30)


def test_criterion_01_gradient_suite():
    """Finite differences within 1e-4 for every layer type and the full loss."""
    start = time.time()
    rng = np.random.default_rng(0)
    worst = {}

    # toy config: n=20, fused d=12, latent 8, 4 prompt tokens
    ds = generate_synthetic(20, 3, (4, 4, 4), 2.0, 0.0, seed=3)
    G, X = build_fused_hypergraph(ds, 3)
    encoder = build_encoder(12, (10,), 8, rng)
    decoder = build_decoder(8, 12, rng)
    head = build_head(8, 2)
    head.weight.value[:] = rng.normal(0.0, 0.1, head.weight.value.shape)
    operator = propagation_operator(G)
    labels = ds.labels
    mask = np.ones(20, bool)

    # relu conv layer
    def relu_layer_loss(params):
        out = hgnn_forward_operator(operator, X, encoder)
        return sum_all(mul(out, ad.const(readout)))

    readout = rng.standard_normal((20, 8))
    worst["hgnn_relu_and_linear_layers"] = finite_difference_check(
        relu_layer_loss, encoder.parameters(), 1e-6
    )

    # decoder (identity) layer
    def decoder_loss(params):
        z = hgnn_forward_operator(operator, X, encoder)
        recon = hgnn_forward_operator(operator, z, decoder)
        return sce_loss(X, recon, masked, 2.0)

    masked = np.array([1, 4, 7, 9, 13, 16])
    worst["decoder_and_sce"] = finite_difference_check(
        decoder_loss, decoder.parameters(), 1e-6
    )

    # mask tokens through the full pretraining expression
    x_token = Parameter(np.zeros((1, 12)), "x_token")
    z_token = Parameter(np.zeros((1, 8)), "z_token")

    def token_loss(params):
        xm = ad.mask_rows(X, masked, x_token.leaf())
        z = hgnn_forward_operator(operator, xm, encoder)
        zm = ad.mask_rows(z, masked, z_token.leaf())
        recon = hgnn_forward_operator(operator, zm, decoder)
        return sce_loss(X, recon, masked, 2.0)

    worst["mask_tokens"] = finite_difference_check(token_loss, [x_token, z_token], 1e-6)

    # classifier head + masked cross-entropy
    def head_loss(params):
        z = hgnn_forward_operator(operator, X, encoder)
        return ad.softmax_cross_entropy(classify(z, head), labels, mask)

    worst["head_cross_entropy"] = finite_difference_check(
        head_loss, head.parameters(), 1e-6
    )

    # full prompt loss: tokens + head through the manipulated hypergraph
    encoder = encoder.copy(trainable=False)
    tokens = Parameter(rng.normal(0.0, 0.02, (4, 12)), "prompt.tokens")
    G_p = build_prompt_structure(tokens.value, 2)
    G_m, _ = insert_prompt(G, X, G_p, tokens.value)
    op_m = propagation_operator(G_m)
    labels_pad = np.concatenate([labels, np.zeros(4, np.int64)])
    mask_pad = np.concatenate([mask, np.zeros(4, bool)])

    # the input as tuning forms it: [X; 0] + [0; I] T
    x_pad = np.vstack([X, np.zeros((4, 12))])
    token_rows = np.vstack([np.zeros((len(X), 4)), np.eye(4)])

    def phgnn_loss(params):
        xm = ad.add(x_pad, ad.matmul(token_rows, tokens.leaf()))
        z = hgnn_forward_operator(op_m, xm, encoder)
        return ad.softmax_cross_entropy(classify(z, head), labels_pad, mask_pad)

    worst["full_phgnn_loss"] = finite_difference_check(
        phgnn_loss, [tokens, *head.parameters()], 1e-6
    )

    # feature-prompt baselines
    gpf_vec = Parameter(rng.normal(0.0, 0.05, (1, 12)), "gpf.vector")
    basis = Parameter(rng.normal(0.0, 0.05, (6, 12)), "gpf.basis")

    def gpf_loss(params):
        z = hgnn_forward_operator(operator, ad.broadcast_add_row(X, gpf_vec.leaf()), encoder)
        return ad.softmax_cross_entropy(classify(z, head), labels, mask)

    def gpf_plus_loss(params):
        b = basis.leaf()
        attn = ad.row_softmax(ad.matmul(X, ad.transpose(b)))
        z = hgnn_forward_operator(operator, ad.add(ad.const(X), ad.matmul(attn, b)), encoder)
        return ad.softmax_cross_entropy(classify(z, head), labels, mask)

    worst["gpf_vector"] = finite_difference_check(gpf_loss, [gpf_vec], 1e-6)
    worst["gpf_plus_basis"] = finite_difference_check(gpf_plus_loss, [basis], 1e-6)

    elapsed = time.time() - start
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    report(
        1,
        not bad and elapsed < 30.0,
        f"gradient checks max rel err {max(worst.values()):.2e} "
        f"across {len(worst)} paths in {elapsed:.1f}s (limit 1e-4, 30s)",
    )


def test_criterion_02_incidence_invariants():
    """Column sums, fused column counts, and insertion cardinalities."""
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(15, 40))
        m = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(2, 5)) for _ in range(m))
        missing = float(rng.choice([0.0, 0.2]))
        ds = generate_synthetic(n, m, dims, 1.0, missing, seed=int(rng.integers(1e6)))
        present_counts = [int(mod.present.sum()) for mod in ds.modalities]
        k = int(rng.integers(0, min(present_counts) - 1))
        G, X = build_fused_hypergraph(ds, k)
        assert G.num_edges == sum(present_counts)
        start = 0
        for count in present_counts:
            block = G.incidence[:, start : start + count]
            assert np.array_equal(block.sum(axis=0), np.full(count, k + 1.0))
            start += count
        p = int(rng.integers(1, 6))
        tokens = rng.standard_normal((p, X.shape[1]))
        k_p = int(rng.integers(0, p))
        G_p = build_prompt_structure(tokens, k_p)
        G_m, _ = insert_prompt(G, X, G_p, tokens)
        assert G_m.num_edges == G.num_edges + G_p.num_edges + p
        insertion = G_m.incidence[:, G.num_edges + G_p.num_edges :]
        assert np.array_equal(insertion.sum(axis=0), np.full(p, n + 1.0))
        checked += 1
    report(2, checked == 100, f"incidence invariants held on {checked}/100 random datasets")


def test_criterion_03_propagation_oracle():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        e = int(rng.integers(1, 8))
        H = (rng.random((n, e)) < 0.5).astype(float)
        for c in range(e):
            if H[:, c].sum() == 0:
                H[int(rng.integers(0, n)), c] = 1.0
        w = rng.uniform(0.5, 2.0, e)
        got = propagation_operator(Hypergraph.from_incidence(H, w))
        worst = max(worst, float(np.abs(got - brute_force_operator(H, w)).max()))
    report(3, worst <= 1e-10, f"operator vs brute force, max abs diff {worst:.2e} (limit 1e-10)")


def test_criterion_04_sce_properties():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((40, 6))
    ok = True
    # zero on perfect reconstruction
    ok &= float(sce_loss(X, X.copy(), [0, 5, 9], 2.0)) == 0.0
    # 4.0 on antipodal rows at gamma 2
    ok &= float(sce_loss(X, -X, list(range(40)), 2.0)) == 4.0
    # bit-insensitive to unmasked-row perturbation
    recon = rng.standard_normal((40, 6))
    masked = [3, 11, 22, 37]
    base = float(sce_loss(X, recon, masked, 2.0))
    noisy = recon.copy()
    unmasked = [i for i in range(40) if i not in masked]
    noisy[unmasked] += rng.standard_normal((len(unmasked), 6)) * 1e6
    ok &= float(sce_loss(X, noisy, masked, 2.0)) == base
    # exact mask count floor(0.75 * n)
    counts_ok = all(
        sample_mask(n, 0.75, np.random.default_rng(n)).size == int(np.floor(0.75 * n))
        for n in (4, 7, 100, 131, 200)
    )
    ok &= counts_ok
    report(4, ok, "sce zero/antipodal/bit-insensitivity and 75% mask counts")


def test_criterion_05_pretraining_progress(fused):
    G, X = fused
    start = time.time()
    ratios = []
    for seed in (0, 1, 2):
        result = pretrain(G, X, RunConfig(pretrain_epochs=200, seed=seed))
        ratios.append(result.losses[-1] / result.losses[0])
    elapsed = time.time() - start
    mean_ratio = float(np.mean(ratios))
    report(
        5,
        mean_ratio <= 0.5 and elapsed < 60.0,
        f"final/epoch-1 SCE ratio {mean_ratio:.2%} over 3 seeds in {elapsed:.1f}s "
        "(limits 50%, 60s)",
    )


def test_criterion_06_frozen_encoder_checkpoint_bytes(tmp_path, default_dataset, fused):
    G, X = fused
    ds = default_dataset
    result = pretrain(G, X, RunConfig(pretrain_epochs=40, seed=0))
    path = tmp_path / "encoder.json"
    save_checkpoint(path, result.encoder, 0, "digest")
    before = path.read_bytes()
    encoder, _ = load_checkpoint(path)
    folds = split_folds(ds.labels, 5, seed=0)
    for strategy in ("phgnn", "gpf", "gpf_plus", "linear_probe", "phgnn_no_structure"):
        tune_with_strategy(
            strategy, G, X, ds.labels, folds.train_mask(0), folds.val_mask(0),
            encoder, RunConfig(strategy=strategy, tune_epochs=10, num_prompts=8, seed=0),
        )
    unchanged_file = path.read_bytes() == before
    unchanged_params = checkpoint_bytes(encoder, 0, "digest") == before
    report(
        6,
        unchanged_file and unchanged_params,
        "encoder checkpoint bytes identical after prompt/gpf/linear-probe tuning",
    )


def test_criterion_07_end_to_end_quality(default_dataset):
    ds = default_dataset
    start = time.time()
    baccs, aucs = [], []
    for seed in (0, 1, 2):
        cfg = RunConfig(strategy="phgnn", seed=seed)
        G, X = build_fused_hypergraph(ds, cfg.k)
        result = pretrain(G, X, cfg)
        res = run_tune(G, X, ds.labels, result.encoder, cfg)
        baccs.append(res["aggregate"].bacc)
        aucs.append(res["aggregate"].auc)
    elapsed = time.time() - start
    ok = min(baccs) >= 0.9 and min(aucs) >= 0.95 and elapsed < 300.0
    report(
        7,
        ok,
        f"phgnn 5-fold BACC {[f'{b:.3f}' for b in baccs]}, "
        f"AUC {[f'{a:.3f}' for a in aucs]} per seed, {elapsed:.0f}s "
        "(limits 0.9, 0.95, 300s)",
    )


def test_criterion_08_strategy_parameter_ordering():
    cfg = RunConfig()
    d = sum(cfg.dims)
    encoder = build_encoder(d, cfg.hidden_dims, cfg.latent_dim, np.random.default_rng(0))
    _, phgnn = count_tunable_params("phgnn", encoder, cfg)
    _, gpf_plus = count_tunable_params("gpf_plus", encoder, cfg)
    _, finetune = count_tunable_params("finetune", encoder, cfg)
    share = phgnn / finetune
    ok = share <= 0.10 and phgnn < gpf_plus < finetune
    report(
        8,
        ok,
        f"counts phgnn={phgnn} < gpf_plus={gpf_plus} < finetune={finetune}; "
        f"prompt share {share:.1%} (limit 10%)",
    )


def test_criterion_09_ablation_harnesses(tmp_path):
    # harness shapes via the command line, short budgets
    data_dir = tmp_path / "data"
    fast = ["--set", "n=100", "--set", "m=3", "--set", "dims=5,5,5",
            "--set", "k=5", "--set", "hidden_dims=16", "--set", "latent_dim=12",
            "--set", "pretrain_epochs=5", "--set", "tune_epochs=5"]
    assert cli_main(["gen-data", "--out", str(data_dir), "--seed", "0", *fast]) == 0
    pre_dir = tmp_path / "pre"
    assert cli_main(["pretrain", "--data", str(data_dir), "--out", str(pre_dir),
                     "--seed", "0", *fast]) == 0
    ap_dir = tmp_path / "ap"
    assert cli_main(["ablate-prompts", "--data", str(data_dir),
                     "--checkpoint", str(pre_dir / "encoder.json"),
                     "--out", str(ap_dir), "--seed", "0", *fast]) == 0
    lines = (ap_dir / "prompt_ablation.txt").read_text().splitlines()
    shape_ok = lines[1] == "|P|  8  16  32  64" and len(lines[2].split()) == 5
    record = json.loads((ap_dir / "prompt_ablation.json").read_text())
    counts = [r["tunable_total"] for r in record["rows"]]
    shape_ok &= counts == sorted(counts) and len(set(counts)) == 4

    am_dir = tmp_path / "am"
    assert cli_main(["ablate-modalities", "--data", str(data_dir),
                     "--out", str(am_dir), "--seed", "0", *fast]) == 0
    am = json.loads((am_dir / "modality_ablation.json").read_text())
    rows_ok = [r["modalities"] for r in am["rows"]] == [
        [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]
    ]

    # qualitative finding: with all modalities informative, fusing all three
    # wins; mean AUC over 3 seeds at a mid-difficulty separation
    mean_auc = {}
    for seed in (0, 1, 2):
        cfg = RunConfig(class_sep=2.5, pretrain_epochs=150, tune_epochs=150, seed=seed)
        ds = generate_synthetic(200, 3, (16, 16, 16), 2.5, 0.0, seed=seed)
        for row in run_ablate_modalities(ds, cfg):
            key = tuple(row["modalities"])
            mean_auc.setdefault(key, []).append(row["aggregate"].auc)
    averages = {k: float(np.mean(v)) for k, v in mean_auc.items()}
    triple = averages[(0, 1, 2)]
    best_other = max(v for k, v in averages.items() if k != (0, 1, 2))
    report(
        9,
        shape_ok and rows_ok and triple > best_other,
        f"harness shapes ok; 3-modality mean AUC {triple:.3f} vs best other "
        f"{best_other:.3f} over 3 seeds",
    )


def test_criterion_10_metric_oracles():
    rng = np.random.default_rng(31)
    exact = 0
    for _ in range(1000):
        n = int(rng.integers(4, 30))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 2)  # coarse grid forces ties
        if auc(scores, labels, np.ones(n, bool)) == pair_count_auc(scores, labels):
            exact += 1
    bacc_ok = True
    for _ in range(200):
        pred = rng.integers(0, 2, 20)
        truth = rng.integers(0, 2, 20)
        r = evaluate_logits(np.eye(2)[pred], truth, np.ones(20, bool))
        bacc_ok &= r.bacc == (r.sen + r.spe) / 2.0
    folds_ok = True
    for _ in range(50):
        n = int(rng.integers(25, 80))
        labels = rng.integers(0, 2, n)
        if min((labels == 0).sum(), (labels == 1).sum()) < 5:
            continue
        split = split_folds(labels, 5, seed=int(rng.integers(1e6)))
        cover = np.zeros(n, int)
        for f in range(5):
            cover += split.val_mask(f)
            for cls in (0, 1):
                per = [(labels[split.val_mask(g)] == cls).sum() for g in range(5)]
                folds_ok &= max(per) - min(per) <= 1
        folds_ok &= bool((cover == 1).all())
    report(
        10,
        exact == 1000 and bacc_ok and folds_ok,
        f"auc exact on {exact}/1000 vectors; bacc identity and fold stratification hold",
    )


def test_criterion_11_determinism(tmp_path):
    # identical config means identical inputs too: reruns share the dataset
    # and checkpoint paths, and only the output directory varies
    fast = ["--set", "n=40", "--set", "m=3", "--set", "dims=4,4,4", "--set", "k=3",
            "--set", "hidden_dims=8", "--set", "latent_dim=8",
            "--set", "pretrain_epochs=4", "--set", "tune_epochs=4",
            "--set", "num_prompts=3", "--set", "prompt_k=2", "--set", "gpf_basis=4"]
    data = tmp_path / "data"
    assert cli_main(["gen-data", "--out", str(data), "--seed", "9", *fast]) == 0
    data2 = tmp_path / "data2"
    assert cli_main(["gen-data", "--out", str(data2), "--seed", "9", *fast]) == 0
    checkpoint = tmp_path / "a" / "pre" / "encoder.json"
    outputs = {}
    for run_id in ("a", "b"):
        root = tmp_path / run_id
        assert cli_main(["pretrain", "--data", str(data), "--out", str(root / "pre"),
                         "--seed", "9", *fast]) == 0
        assert cli_main(["tune", "--data", str(data), "--checkpoint", str(checkpoint),
                         "--out", str(root / "tune"), "--seed", "9", *fast]) == 0
        assert cli_main(["compare-strategies", "--data", str(data),
                         "--checkpoint", str(checkpoint),
                         "--out", str(root / "cmp"), "--seed", "9", *fast]) == 0
        assert cli_main(["ablate-prompts", "--data", str(data),
                         "--checkpoint", str(checkpoint),
                         "--out", str(root / "ap"), "--seed", "9",
                         "--sizes", "2,3", *fast]) == 0
        assert cli_main(["ablate-modalities", "--data", str(data),
                         "--out", str(root / "am"), "--seed", "9", *fast]) == 0
        snapshot = {}
        for f in sorted(root.rglob("*")):
            if f.is_file():
                snapshot[str(f.relative_to(root))] = f.read_bytes()
        outputs[run_id] = snapshot
    gen_identical = all(
        (data / name).read_bytes() == (data2 / name).read_bytes()
        for name in ("meta", "labels.csv", "modality_0.csv", "present_0.csv")
    )
    same_names = set(outputs["a"]) == set(outputs["b"])
    diffs = [name for name in outputs["a"] if outputs["a"][name] != outputs["b"].get(name)]
    report(
        11,
        gen_identical and same_names and not diffs,
        f"{len(outputs['a'])} output files byte-identical across reruns"
        + (f"; diffs: {diffs}" if diffs else ""),
    )
