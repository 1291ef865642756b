"""Batch command line for the full pipeline and the experiment harnesses.

Commands: gen-data, pretrain, tune, ablate-prompts, ablate-modalities,
compare-strategies. All are non-interactive. Exit codes: 0 success,
1 validation error, 2 runtime failure.

Every report embeds the sha256 digest of the resolved run configuration;
reruns under an identical configuration and seed are byte-identical. Each
command writes into a staging directory that replaces `--out` only when the
command succeeds, so a failed run leaves `--out` as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

from .autodiff import ValidationError
from .checkpoint import load_checkpoint, save_checkpoint, save_snapshot
from .config import RunConfig, parse_override, read_config
from .data import build_fused_hypergraph, generate_synthetic, load_dataset, save_dataset
from .metrics import format_metric_row
from .pipeline import (
    MODALITY_SUBSETS,
    run_ablate_modalities,
    run_ablate_prompts,
    run_compare_strategies,
    run_tune,
)
from .pretrain import pretrain

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


@contextlib.contextmanager
def _staged_out(path: str, force: bool, inputs):
    """Yield `<out>.tmp-<pid>`; on success it replaces `out` whole.

    Refuses an `out` that is the working directory, one of its ancestors,
    or equal to or above any of the `inputs` the command reads.
    """
    out = Path(os.path.abspath(path))  # names "." and ".." without following links
    if out.exists() and not force:
        raise ValidationError(f"output path {path} exists; pass --force to replace it")
    real = out.parent.resolve() / out.name  # a link at `out` itself is only unlinked
    for kept in (Path.cwd(), *(Path(p) for p in inputs if p)):
        kept = kept.resolve()
        if real == kept or real in kept.parents:
            raise ValidationError(f"output path {path} would replace {kept}")
    stage = out.with_name(f"{out.name}.tmp-{os.getpid()}")
    old = out.with_name(f"{out.name}.old-{os.getpid()}")
    # a killed run with the same pid may have left its stage behind
    shutil.rmtree(stage, ignore_errors=True)
    stage.mkdir(parents=True)
    try:
        yield stage
        if out.is_symlink() or out.exists():
            out.rename(old)
        stage.rename(out)
        if old.is_symlink() or old.is_file():
            old.unlink()
        elif old.exists():
            shutil.rmtree(old)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _write_record(path: Path, cfg: RunConfig, **fields):
    """JSON report headed by the resolved config and its digest."""
    record = {"config": cfg.as_dict(), "config_digest": cfg.digest(), **fields}
    # metric reports serialize through their as_dict()
    path.write_text(json.dumps(record, sort_keys=True, indent=2, allow_nan=False,
                               default=lambda o: o.as_dict()) + "\n")


# the fields each input's shape fixes, by its flag; a dataset's meta may also fix
# class_sep, missing_rate and noise_std, which no other field's check reads
_FIXED_BY = {"data": ("n", "m", "dims", "dataset_name"),
             "checkpoint": ("hidden_dims", "latent_dim")}


def _plain(value):
    return list(value) if isinstance(value, (list, tuple)) else value


def _resolve(args):
    """(cfg, dataset, encoder): the run config and the inputs the command reads.

    Every field outside `_FIXED_BY` is checked before any input is read. An
    omitted field that an input fixes takes the input's value; a given one
    must equal it.
    """
    overrides = {}
    for item in args.set or []:
        if "=" not in item:
            raise ValidationError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key] = parse_override(key, raw)
    if args.seed is not None:
        overrides["seed"] = args.seed
    values = read_config(args.config, overrides)
    flags = [flag for flag in _FIXED_BY if hasattr(args, flag)]
    fixed = {name for flag in flags for name in _FIXED_BY[flag]}
    RunConfig(**{k: v for k, v in values.items() if k not in fixed})  # validates only
    found, dataset, encoder = {}, None, None
    if "data" in flags:
        dataset = load_dataset(args.data)
        found["dataset"] = dict(n=dataset.num_subjects, m=dataset.num_modalities,
                                dims=dataset.dims, dataset_name=dataset.name,
                                **dataset.generation)
    if "checkpoint" in flags:
        encoder, _info = load_checkpoint(args.checkpoint)
        widths = [layer.d_out for layer in encoder.layers]
        found["checkpoint"] = dict(hidden_dims=tuple(widths[:-1]), latent_dim=widths[-1])
    for source, fields in found.items():
        for key, value in fields.items():
            given = values.setdefault(key, value)
            if _plain(given) != _plain(value):
                raise ValidationError(
                    f"{key}={_plain(given)!r} disagrees with the {source}, "
                    f"which has {_plain(value)!r}"
                )
    return RunConfig(**values), dataset, encoder


def _fused(dataset, cfg: RunConfig):
    """(G, X, labels) of the whole dataset for the `run_*` sweeps."""
    G, X = build_fused_hypergraph(dataset, cfg.k, pairwise=cfg.pairwise)
    return G, X, dataset.labels


def cmd_gen_data(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    dataset = generate_synthetic(
        cfg.n, cfg.m, cfg.dims, cfg.class_sep, cfg.missing_rate,
        noise_std=cfg.noise_std, seed=cfg.seed, name=cfg.dataset_name,
    )
    save_dataset(dataset, out, extra_meta={"config_digest": cfg.digest()})
    positives = int(dataset.labels.sum())
    print(f"wrote dataset {dataset.name!r} to {Path(args.out)}")
    print(f"subjects: {dataset.num_subjects}  modalities: {dataset.num_modalities}  dims: {list(dataset.dims)}")
    print(f"positives: {positives}  negatives: {dataset.num_subjects - positives}")
    for i, mod in enumerate(dataset.modalities):
        print(f"modality_{i}: present {int(mod.present.sum())}/{dataset.num_subjects}")
    return 0


def cmd_pretrain(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    G, X, _ = _fused(dataset, cfg)
    result = pretrain(G, X, cfg)
    save_checkpoint(
        out / "encoder.json", result.encoder, cfg.seed, cfg.digest(),
        meta={"fused_dim": X.shape[1], "num_nodes": G.num_nodes, "num_edges": G.num_edges},
    )
    (out / "loss_curve.txt").write_text(
        "".join(f"{i} {loss!r}\n" for i, loss in enumerate(result.losses))
    )
    _write_record(
        out / "run.json", cfg,
        epochs=cfg.pretrain_epochs,
        final_loss=result.losses[-1] if result.losses else None,
        fused_dim=X.shape[1],
        num_edges=G.num_edges,
        num_nodes=G.num_nodes,
    )
    last = f"{result.losses[-1]:.6f}" if result.losses else "n/a"
    print(f"pretrained {cfg.pretrain_epochs} epochs on {G.num_nodes} nodes; final loss {last}")
    print(f"checkpoint: {Path(args.out) / 'encoder.json'}")
    return 0


def cmd_tune(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    res = run_tune(*_fused(dataset, cfg), encoder, cfg)
    for f, r in enumerate(res["fold_results"]):
        _write_record(
            out / f"fold_{f}.json", cfg,
            strategy=r.strategy,
            best_epoch=r.best_epoch,
            best_metrics=r.best_metrics,
            param_counts=res["param_counts"],
            tunable_total=res["tunable_total"],
            train_losses=r.train_losses,
            val_bacc=r.val_bacc,
        )
        save_snapshot(out / f"fold_{f}_snapshot.json", r, cfg.digest())
    row = format_metric_row(res["strategy"], res["aggregate"])
    (out / "summary.txt").write_text(
        f"# config_digest: {cfg.digest()}\n"
        "# positive class: label 1; cells are percent, mean±std over folds\n"
        f"{row}\n"
        f"tunable_params: {res['tunable_total']}\n"
    )
    _write_record(
        out / "summary.json", cfg,
        strategy=res["strategy"],
        aggregate=res["aggregate"],
        param_counts=res["param_counts"],
        tunable_total=res["tunable_total"],
    )
    print(row)
    print(f"tunable_params: {res['tunable_total']}")
    return 0


def cmd_ablate_prompts(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    rows = run_ablate_prompts(*_fused(dataset, cfg), encoder, cfg, args.sizes)
    header = "|P|  " + "  ".join(str(r["num_prompts"]) for r in rows)
    auc_line = "AUC  " + "  ".join(f"{r['aggregate'].auc * 100:.1f}" for r in rows)
    params_line = "params  " + "  ".join(str(r["tunable_total"]) for r in rows)
    text = f"# config_digest: {cfg.digest()}\n{header}\n{auc_line}\n{params_line}\n"
    (out / "prompt_ablation.txt").write_text(text)
    _write_record(out / "prompt_ablation.json", cfg, rows=rows)
    print(header)
    print(auc_line)
    print(params_line)
    return 0


def cmd_ablate_modalities(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    rows = run_ablate_modalities(dataset, cfg)
    marks = []
    for subset, row in zip(MODALITY_SUBSETS, rows):
        flags = ["x" if i in subset else "." for i in range(3)]
        marks.append("  ".join([" ".join(flags), format_metric_row("", row["aggregate"]).strip()]))
    text = (
        f"# config_digest: {cfg.digest()}\n"
        "m0 m1 m2  BACC  SEN  SPE  AUC\n" + "\n".join(marks) + "\n"
    )
    (out / "modality_ablation.txt").write_text(text)
    _write_record(out / "modality_ablation.json", cfg, rows=rows)
    print(text, end="")
    return 0


def cmd_compare_strategies(args, cfg: RunConfig, out: Path, dataset, encoder) -> int:
    rows = run_compare_strategies(*_fused(dataset, cfg), encoder, cfg)
    lines = [f"# config_digest: {cfg.digest()}"]
    for r in rows:
        lines.append(format_metric_row(r["strategy"], r["aggregate"]) + f"  {r['tunable_total']}")
    lines.append("")
    lines.append("# tunable parameter counts per component")
    for r in rows:
        parts = ", ".join(f"{k}={v}" for k, v in sorted(r["param_counts"].items()))
        lines.append(f"{r['strategy']}: total={r['tunable_total']} ({parts})")
    text = "\n".join(lines) + "\n"
    (out / "strategy_comparison.txt").write_text(text)
    _write_record(out / "strategy_comparison.json", cfg, rows=rows)
    print(text, end="")
    return 0


def _sizes(raw: str) -> tuple:
    try:
        sizes = tuple(int(s) for s in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not comma-separated integers: {raw!r}") from None
    if min(sizes) < 1:
        raise argparse.ArgumentTypeError(f"prompt counts must be >= 1, got {raw!r}")
    return sizes


def _add_common(sub, data=False, checkpoint=False):
    sub.add_argument("--config", default=None, help="JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--force", action="store_true",
                     help="replace an existing --out directory whole")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override any config field (repeatable)")
    if data:
        sub.add_argument("--data", required=True, help="dataset directory")
    if checkpoint:
        sub.add_argument("--checkpoint", required=True, help="encoder checkpoint file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hglearn", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gen-data", help="generate a synthetic multimodal dataset")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = commands.add_parser("pretrain", help="masked-autoencoder pretraining")
    _add_common(p, data=True)
    p.set_defaults(func=cmd_pretrain)

    p = commands.add_parser("tune", help="tune one strategy over all folds")
    _add_common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_tune)

    p = commands.add_parser("ablate-prompts", help="sweep the prompt-set size")
    _add_common(p, data=True, checkpoint=True)
    p.add_argument("--sizes", type=_sizes, default="8,16,32,64",
                   help="comma-separated prompt counts")
    p.set_defaults(func=cmd_ablate_prompts)

    p = commands.add_parser("ablate-modalities", help="pipeline per modality subset")
    _add_common(p, data=True)
    p.set_defaults(func=cmd_ablate_modalities)

    p = commands.add_parser("compare-strategies", help="all tuning strategies, one table")
    _add_common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_compare_strategies)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg, dataset, encoder = _resolve(args)
        inputs = [args.config, getattr(args, "data", None), getattr(args, "checkpoint", None)]
        with _staged_out(args.out, args.force, inputs) as out:
            return args.func(args, cfg, out, dataset, encoder)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
