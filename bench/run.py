"""Benchmark of hglearn's user-facing commands.

One run executes whole rounds of `gen-data`, `pretrain` and one `tune` per
strategy through `hglearn.cli.main`, in this process, one command after the
other, with single-threaded BLAS. It checks every output (see checks.py) and
prints one JSON object as its last line.

    python3 bench/run.py --workload default --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs a
warm-up round, an untraced round and a traced one, and reports the per-layer
metrics and the tracing overhead. Outputs go to .bench_out/<workload>/ in
the checkout; bench/README.md describes workloads, metrics and checks.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so set it before any import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, layer_metric_names  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

STRATEGIES = ("finetune", "linear_probe", "phgnn", "phgnn_no_structure", "gpf", "gpf_plus")

# Config fields every workload pins, so that a change of the program's
# defaults does not change what is measured.
COMMON = {"m": 3, "dims": "16,16,16", "class_sep": 3.0, "noise_std": 1.0, "k": 30,
          "hidden_dims": "128", "latent_dim": 64, "mask_ratio": 0.75, "sce_gamma": 2.0,
          "pretrain_lr": 3e-4, "pretrain_weight_decay": 1e-4, "tune_lr": 3e-4,
          "tune_weight_decay": 1e-4, "num_prompts": 16, "prompt_k": 3, "gpf_basis": 32}

WORKLOADS = {
    # the paper's protocol; per-epoch overhead and per-epoch operator rebuilds
    "default": {"n": 200, "missing_rate": 0.0, "pairwise": False,
                "pretrain_epochs": 200, "tune_epochs": 200, "k_folds": 5},
    # O(N^2) k-NN, dense N x N operator and N^2 memory; dropouts give
    # per-modality k-NN subsets and uneven degrees
    "large-n": {"n": 2000, "missing_rate": 0.2, "pairwise": False,
                "pretrain_epochs": 10, "tune_epochs": 2, "k_folds": 2},
    # same functions, 18,000 two-node hyperedges instead of 600 of 31 nodes
    "pairwise": {"n": 200, "missing_rate": 0.0, "pairwise": True,
                 "pretrain_epochs": 200, "tune_epochs": 10, "k_folds": 5},
}


# The AUC a strategy must reach: half-way from chance to the Bayes limit of one
# modality. Its two unit-variance Gaussian classes have means class_sep apart,
# so that limit is Phi(class_sep / sqrt 2) = (1 + erf(class_sep / 2)) / 2.
# Every subject is present in at least one modality.
AUC_FLOOR = 0.5 + math.erf(COMMON["class_sep"] / 2.0) / 4.0

# Floors on every strategy's fold-mean BACC and AUC (README.md derives them).
# default: criterion 07's limits at the paper's schedule. The cut schedules
# stop before AdamW has placed the zero-initialized head's decision
# threshold, so their BACC need only reach the constant classifier's 0.5;
# the threshold-free AUC keeps its floor.
QUALITY_FLOORS = {
    "default": {"bacc": 0.9, "auc": 0.95},
    "large-n": {"bacc": 0.5, "auc": AUC_FLOOR},
    "pairwise": {"bacc": 0.5, "auc": AUC_FLOOR},
}

SETUP_REPS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("pretrain_s", "s"),
    *((f"tune_{s}_s", "s") for s in STRATEGIES),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)


def load_program():
    """Import hglearn from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hglearn" / "cli.py").is_file():
        print(f"error: no hglearn sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import hglearn.cli
    if Path(hglearn.cli.__file__).resolve().parent != (src / "hglearn").resolve():
        print(f"error: imported hglearn from {hglearn.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return hglearn


class Run:
    """One workload at one seed: its outputs, timings, counts and problems."""

    def __init__(self, program, workload: str, seed: int):
        self.hg = program
        self.workload = workload
        self.seed = seed
        self.config = {**COMMON, **WORKLOADS[workload]}
        self.out = ROOT / ".bench_out" / workload
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.log = open(self.out / "commands.log", "w")
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.failures = []
        self.absent = []
        self.tracer = None

    def close(self):
        self.log.close()

    def sets(self, **extra) -> list:
        args = ["--seed", str(self.seed)]
        for key, value in {**self.config, **extra}.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            args += ["--set", f"{key}={value}"]
        return args

    def _cli(self, argv):
        """hglearn.cli.main with its output logged; returns (exit code, seconds)."""
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.hg.cli.main(argv)
        elapsed = time.perf_counter() - start
        self.log.write(f"$ hglearn {' '.join(argv)}\n{buf.getvalue()}exit {code}, {elapsed:.4f} s\n")
        return code, elapsed

    def command(self, argv, label) -> float:
        """One CLI command; returns its wall time. A non-zero exit counts as failed."""
        self.attempted += 1
        with self.tracer.command(label) if self.tracer else contextlib.nullcontext():
            code, elapsed = self._cli(argv)
        if code != 0:
            self.fail(f"{label} exited {code}")
        return elapsed

    def fail(self, message):
        """An operation that failed: counted and listed, not a failed check."""
        self.failed += 1
        self.failures.append(message)

    def check(self, label, problems):
        self.problems += [f"{self.workload} {label}: {p}" for p in problems]

    # -- set-up: gen-data, load_dataset, build_fused_hypergraph -------------

    def setup(self) -> float:
        """Set up SETUP_REPS times; check the first hypergraph; median seconds."""
        from hglearn.data import build_fused_hypergraph, load_dataset

        times, first = [], None
        for rep in range(SETUP_REPS):
            data = self.out / f"setup{rep}" / "data"
            self.attempted += 1
            start = time.perf_counter()
            code, _ = self._cli(["gen-data", "--out", str(data), *self.sets()])
            try:
                dataset = load_dataset(data)
                G, X = build_fused_hypergraph(dataset, self.config["k"],
                                              pairwise=self.config["pairwise"])
            except Exception as e:  # noqa: BLE001 - a failed set-up is counted, not fatal
                self.fail(f"set-up {rep} raised {e!r} (gen-data exit {code})")
                continue
            times.append(time.perf_counter() - start)
            if code != 0:
                self.fail(f"set-up {rep}: gen-data exited {code}")
            if first is None:
                first = (data, G, X)
            else:
                self.check("set-up data", checks.compare_trees(
                    checks.tree_digests(first[0]), checks.tree_digests(data), f"set-up {rep}"))
        if first is not None:
            self.check_hypergraph(*first)
        return statistics.median(times) if times else float("nan")

    def check_hypergraph(self, data: Path, G, X):
        from hglearn.hypergraph import propagation_operator
        from hglearn.prompt import build_prompt_structure, insert_prompt

        m = self.config["m"]
        feats = [np.loadtxt(data / f"modality_{i}.csv", delimiter=",", ndmin=2) for i in range(m)]
        present = [np.loadtxt(data / f"present_{i}.csv", dtype=np.int64) == 1 for i in range(m)]
        self.check("k-NN", checks.check_fused_incidence(
            G.incidence, feats, present, self.config["k"], self.config["pairwise"]))
        self.check("data operator", checks.check_operator(
            propagation_operator(G), G.incidence, G.edge_weights))
        tokens = np.random.default_rng(self.seed).normal(
            0.0, 0.02, size=(self.config["num_prompts"], X.shape[1]))
        G_p = build_prompt_structure(tokens, self.config["prompt_k"])
        G_m, _ = insert_prompt(G, X, G_p, tokens)
        self.check("phgnn operator", checks.check_operator(
            propagation_operator(G_m), G_m.incidence, G_m.edge_weights))

    # -- one round of the user-facing commands -------------------------------

    def round(self, name: str) -> dict:
        """gen-data, pretrain, tune per strategy; returns seconds per metric.

        Every round works in the same directory, because reports echo the
        data and checkpoint paths, and is then renamed to `name`.
        """
        work = self.out / "work"
        data, pre = work / "data", work / "pretrain"
        encoder = pre / "encoder.json"
        times = {"gen_data_s": self.command(["gen-data", "--out", str(data), *self.sets()],
                                            "gen-data")}
        times["pretrain_s"] = self.command(
            ["pretrain", "--data", str(data), "--out", str(pre), *self.sets()], "pretrain")
        before = checks.file_digest(encoder) if encoder.exists() else None
        for strategy in STRATEGIES:
            times[f"tune_{strategy}_s"] = self.command(
                ["tune", "--data", str(data), "--checkpoint", str(encoder),
                 "--out", str(work / f"tune_{strategy}"), *self.sets(strategy=strategy)],
                f"tune {strategy}")
            if before is not None and checks.file_digest(encoder) != before:
                self.check(f"{name} frozen encoder", [f"tune {strategy} changed the checkpoint"])
        times["pipeline_s"] = sum(times.values())
        work.rename(self.out / name)
        return times

    def check_round(self, name: str):
        root = self.out / name
        curve = root / "pretrain" / "loss_curve.txt"
        if curve.exists():
            losses = [line.split()[1] for line in curve.read_text().splitlines()]
            self.check(f"{name} pretraining", checks.check_loss_curve(losses))
        floors = QUALITY_FLOORS[self.workload]
        for strategy in STRATEGIES:
            summary = root / f"tune_{strategy}" / "summary.json"
            if summary.exists():
                agg = json.loads(summary.read_text())["aggregate"]
                self.check(f"{name} {strategy} quality",
                           checks.check_quality(agg["bacc"], agg["auc"], floors))

    def compare_round(self, first: str, name: str):
        self.check("reports", checks.compare_trees(
            checks.tree_digests(self.out / first), checks.tree_digests(self.out / name), name))


def _fits(start: float, durations: list, seconds: float) -> bool:
    """Whether one more round of the mean length still ends within the run."""
    return time.perf_counter() - start + statistics.fmean(durations) <= seconds


def run_untraced(run: Run, seconds: float) -> dict:
    samples = {"setup_s": [run.setup()]}
    start, durations, rounds = time.perf_counter(), [], []
    while not durations or _fits(start, durations, seconds):
        name = f"round{len(rounds)}"
        times = run.round(name)
        durations.append(times["pipeline_s"])
        rounds.append(name)
        for key, value in times.items():
            samples.setdefault(key, []).append(value)
    for name in rounds:
        run.check_round(name)
        run.compare_round(rounds[0], name)
    samples["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {name: statistics.median(samples[name]) for name, _unit in END_TO_END}


def run_traced(run: Run, seconds: float) -> dict:
    """Untraced and traced rounds in pairs; per-layer metrics of the traced ones.

    A warm-up round comes first: the first round of a process runs slower
    than later ones, which would otherwise read as negative overhead.
    """
    run.setup()
    run.round("warmup")
    start, durations, pairs = time.perf_counter(), [], []
    while not durations or _fits(start, durations, seconds):
        plain, traced = f"round{2 * len(pairs)}", f"round{2 * len(pairs) + 1}"
        pair_start = time.perf_counter()
        base = run.round(plain)["pipeline_s"]
        with Tracer() as tracer:
            run.tracer = tracer
            try:
                cost = run.round(traced)["pipeline_s"]
            finally:
                run.tracer = None
        durations.append(time.perf_counter() - pair_start)
        pairs.append((plain, traced, tracer, cost - base))
        tracer.write_spans(run.out / f"{traced}_spans.jsonl")
    run.check_round("warmup")
    values = {}
    for plain, traced, tracer, overhead in pairs:
        run.check_round(plain)
        run.check_round(traced)
        run.compare_round("warmup", plain)
        run.compare_round("warmup", traced)
        bad = [p for logits, labels, bacc, auc in tracer.evaluations
               for p in checks.check_evaluation(logits, labels, bacc, auc)]
        if not tracer.evaluations:
            bad.append("no evaluate_logits call was traced")
        run.check(f"{traced} metrics", bad[:3] + ([f"... {len(bad) - 3} more"] if len(bad) > 3 else []))
        totals = tracer.layer_totals()
        sample = {"trace.overhead_s": overhead, "trace.hook_s": tracer.hook_s, **tracer.tape}
        for name, unit in layer_metric_names():
            base, _, field = name.rpartition(".")
            if base in totals:
                sample[name] = totals[base][field]
        for name, value in sample.items():
            values.setdefault(name, []).append(value)
    run.absent = pairs[-1][2].absent
    print_command_table(run.workload, pairs[-1][2])
    return {name: statistics.median(v) for name, v in values.items()}


# Layers shown per command: where the known waste appears.
COMMAND_COLUMNS = (
    ("data.build_fused_hypergraph", "fuse"),
    ("hypergraph.propagation_operator", "P build"),
    ("prompt.insert_prompt", "insert"),
    ("model.hgnn_forward_operator", "forward"),
)


def print_command_table(workload, tracer):
    """Calls and seconds of selected layers, and backward matmul work, per command."""
    totals = tracer.command_totals()
    print(f"\nper-command trace, workload {workload} (last traced round; calls / seconds)")
    print(f"{'command':26s} {'wall s':>8s}" + "".join(f"{label:>16s}" for _, label in COMMAND_COLUMNS)
          + f"{'bwd GFLOP':>11s}{'useful':>8s}")
    for sid, _parent, name, start, end in tracer.spans:
        if sid not in tracer.command_ids:
            continue
        layers = totals.get(name, {})
        cells = "".join(
            f"{layers[key]['calls']:>7d} /{layers[key]['s']:7.3f}" if key in layers else f"{'-':>16s}"
            for key, _ in COMMAND_COLUMNS)
        tape = tracer.tape_by_command.get(name, {})
        bwd = tape.get("autodiff.backward_gflop", 0.0)
        useful = tape.get("autodiff.backward_useful_gflop", 0.0) / bwd if bwd else 0.0
        print(f"{name:26s} {end - start:8.3f}{cells}{bwd:11.3f}{useful:8.1%}")


def print_layer_table(workload, values, absent):
    print(f"\nper-layer trace, workload {workload} (median over traced rounds)")
    print(f"{'layer':42s} {'total s':>10s} {'self s':>10s} {'calls':>8s}")
    for name, _unit in layer_metric_names():
        if not name.endswith(".s"):
            continue
        base = name[:-2]
        if base in absent:
            print(f"{base:42s} {'absent':>10s}")
            continue
        print(f"{base:42s} {values.get(name, 0.0):10.4f} {values.get(base + '.self_s', 0.0):10.4f} "
              f"{int(values.get(base + '.calls', 0)):8d}")
    for name, unit in layer_metric_names():
        if not name.endswith((".s", ".self_s", ".calls")):
            print(f"{name:42s} {values.get(name, 0.0):10.4f} {unit}")


def run_one(args) -> int:
    program = load_program()
    run = Run(program, args.workload, args.seed)
    try:
        if args.trace:
            values = run_traced(run, args.seconds)
            metrics = layer_metric_names()
            print_layer_table(args.workload, values, run.absent)
        else:
            values = run_untraced(run, args.seconds)
            metrics = END_TO_END
            print(f"\nend-to-end, workload {args.workload}, seed {args.seed}")
            for name, unit in metrics:
                print(f"  {name:28s} {values[name]:12.4f} {unit}")
    finally:
        run.close()
    for failure in run.failures:
        print(f"OPERATION FAILED: {failure}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"operations attempted {run.attempted}, failed {run.failed}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                    for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process (peak RSS is per process); one table."""
    results, code = {}, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[workload] = json.loads(lines[-1])
        code = max(code, proc.returncode)
    names = list(next(iter(results.values()))["metrics"])
    print("\nsummary, seed", args.seed)
    print(f"{'metric':40s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for name in names:
        unit = results[next(iter(results))]["metrics"][name]["unit"]
        print(f"{name:40s}" + "".join(f"{r['metrics'][name]['value']:14.4f}" for r in results.values())
              + f"  {unit}")
    print(f"{'operations attempted / failed':40s}"
          + "".join(f"{str(r['attempted']) + ' / ' + str(r['failed']):>14s}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
