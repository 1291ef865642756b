"""sha256 of every file the commands write at six small configs.

Runs gen-data, pretrain, tune for each strategy, compare-strategies,
ablate-prompts (--sizes 1,2,4) and ablate-modalities through
`hglearn.cli.main`, in this process, with single-threaded BLAS, once per
config under its own subdirectory of --out, and prints one
`sha256  relpath` line per output file, sorted by path. The configs are
the default hyperedges, pairwise hyperedges with modality dropouts,
pairwise hyperedges with k=0, where every node degree is 0, default
hyperedges with dropouts at n=400, where each modality's ~320 present rows
span two of the row blocks `knn_neighbor_lists` ranks at a time, a
one-layer encoder (pretraining's one-layer branch, tuning's unfolded
`classify`) and a three-layer one (the middle layers).

    python3 tools/output_digests.py --out /tmp/digests > change.txt

The listing does not depend on --out. Each command replaces its own
subdirectory of --out (--force), so one --out can be reused.

After the listing, every `fold_<f>_snapshot.json` a `tune` wrote is loaded
with `load_snapshot` and replayed with `evaluate_snapshot` on fold f's
validation mask, under the config its `fold_<f>.json` records. A replay
whose report differs from that file's `best_metrics` is named on stderr,
and the tool exits 1.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so set it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

BASE = [
    "--seed", "3", "--set", "n=60", "--set", "dims=5,5,5", "--set", "k=5",
    "--set", "hidden_dims=12", "--set", "latent_dim=8", "--set", "pretrain_epochs=6",
    "--set", "tune_epochs=6", "--set", "num_prompts=4", "--set", "prompt_k=2",
    "--set", "gpf_basis=5",
]
CONFIGS = {
    "default": BASE,
    "pairwise_missing": [*BASE, "--set", "pairwise=true", "--set", "missing_rate=0.2"],
    "pairwise_k0": [*BASE, "--set", "pairwise=true", "--set", "k=0"],
    "missing_blocks": [*BASE, "--set", "n=400", "--set", "missing_rate=0.2"],
    "one_layer": [*BASE, "--set", "hidden_dims="],
    "three_layers": [*BASE, "--set", "hidden_dims=12,10"],
}


def load_program():
    """Import hglearn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hglearn.cli
    import hglearn.prompt

    if Path(hglearn.cli.__file__).resolve().parent != (src / "hglearn").resolve():
        sys.exit(f"error: imported hglearn from {hglearn.cli.__file__}")
    return hglearn.cli.main, hglearn.prompt.STRATEGIES


def commands(out: Path, strategies):
    data, ckpt = str(out / "data"), str(out / "pre" / "encoder.json")
    yield ["gen-data", "--out", data]
    yield ["pretrain", "--data", data, "--out", str(out / "pre")]
    tuned = ["--data", data, "--checkpoint", ckpt]
    for s in strategies:
        yield ["tune", *tuned, "--set", f"strategy={s}", "--out", str(out / f"tune_{s}")]
    yield ["compare-strategies", *tuned, "--out", str(out / "compare")]
    yield ["ablate-prompts", *tuned, "--sizes", "1,2,4", "--out", str(out / "ablate_prompts")]
    yield ["ablate-modalities", "--data", data, "--out", str(out / "ablate_modalities")]


def replay_mismatches(out: Path) -> list:
    """The snapshots under `out` whose replayed report differs from their fold's best_metrics."""
    from hglearn.checkpoint import load_checkpoint, load_snapshot
    from hglearn.config import RunConfig
    from hglearn.data import build_fused_hypergraph, load_dataset, split_folds
    from hglearn.prompt import evaluate_snapshot

    mismatched = []
    for path in sorted(out.glob("*/tune_*/fold_*_snapshot.json")):
        record = json.loads(path.with_name(path.name.replace("_snapshot", "")).read_text())
        cfg = RunConfig(**record["config"])
        prefix = path.parent.parent
        dataset = load_dataset(prefix / "data")
        encoder, _ = load_checkpoint(prefix / "pre" / "encoder.json")
        G, X = build_fused_hypergraph(dataset, cfg.k, pairwise=cfg.pairwise)
        fold = int(path.name.split("_")[1])
        mask = split_folds(dataset.labels, cfg.k_folds, cfg.seed).val_mask(fold)
        result, _ = load_snapshot(path)
        report = evaluate_snapshot(result, G, X, dataset.labels, mask, encoder, cfg)
        if report.as_dict() != record["best_metrics"]:
            mismatched.append(path.relative_to(out).as_posix())
    return mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="directory for every command's output")
    args = parser.parse_args(argv)
    out = Path(os.path.abspath(args.out))
    out.mkdir(parents=True, exist_ok=True)
    run, strategies = load_program()
    written = []
    for prefix, config in CONFIGS.items():
        for argv_ in commands(out / prefix, strategies):
            log = io.StringIO()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = run([*argv_, *config, "--force"])
            if code != 0:
                sys.stderr.write(log.getvalue())
                sys.exit(f"error: {prefix}: {argv_[0]} exited {code}")
            written.append(Path(argv_[argv_.index("--out") + 1]))
    files = {p.relative_to(out).as_posix(): p
             for d in written for p in d.rglob("*") if p.is_file()}
    for rel in sorted(files):
        print(f"{hashlib.sha256(files[rel].read_bytes()).hexdigest()}  {rel}")
    mismatched = replay_mismatches(out)
    for rel in mismatched:
        sys.stderr.write(f"error: {rel}: replay differs from best_metrics\n")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
