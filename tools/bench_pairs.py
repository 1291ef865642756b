"""Alternating benchmark pairs from two checkouts, and the verdict on each metric.

Runs `bench/run.py --workload W` N times in each of two checkouts, PARENT
and CHANGE, one after the other. The order swaps every pair (parent first in
pair 0, change first in pair 1, ...), so a drift of the machine over the
measurement falls on both sides alike. Each run is a fresh process started in
its own checkout, so it times that checkout's `src/`.

    python3 tools/bench_pairs.py /tmp/parent . --workload default --pairs 10

For every end-to-end metric it prints both medians, both interquartile
ranges (quartiles by the inclusive method), the change against the parent
median, and how many pairs the change won. A metric is a `gain` when the
change won at least 9 of every 10 pairs and its median is better than the
parent's by more than the parent's interquartile range, a `regression` when
its median is worse by more than the metric's bound in `BENCHMARK.json`,
and `unresolved` when the parent's interquartile range is wider than that
bound and the change did not beat the parent in every run. Lower is better unless that file says otherwise. W is one workload
of `BENCHMARK.json` (not `all`, whose metric names carry the workload), and
every run has the length `bench/run.py` sets. The raw
samples go to --json when given. Exits 1 when any run fails or reports
`correct: false`.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """The last JSON line of one `bench/run.py` run in `checkout`, at its own length."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"error: bench/run.py in {checkout} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"error: bench/run.py in {checkout} reported {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change, better="lower", bound=None) -> dict:
    """Medians, quartiles, wins and the verdict of one metric.

    `unresolved` when the parent's interquartile range is wider than the
    bound, so a regression of that size could not show, unless every run of
    the change beat every run of the parent.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gap = sign * (pm - cm)  # > 0 when the change is better
    gain = wins >= math.ceil(0.9 * len(parent)) and gap > p3 - p1
    regression = bound is not None and pm > 0 and -gap / pm > bound
    apart = max(sign * c for c in change) < min(sign * p for p in parent)
    unresolved = bound is not None and p3 - p1 > bound * abs(pm) and not apart
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
            "relative": (cm - pm) / pm if pm else 0.0,
            "verdict": "regression" if regression else "gain" if gain
            else "unresolved" if unresolved else "-"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="passed to bench/run.py")
    parser.add_argument("--json", type=Path, default=None, help="write the raw samples here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    samples = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            samples[side].append(run_bench(checkout.resolve(), args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr, flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(samples, indent=1) + "\n")
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} alternating pairs")
    print(f"{'metric':28s} {'parent q1/median/q3':>26s} {'change q1/median/q3':>26s} "
          f"{'change':>8s} {'wins':>6s}  verdict")
    for name in samples["parent"][0]:
        m = metrics[name]
        r = verdict([s[name] for s in samples["parent"]], [s[name] for s in samples["change"]],
                    m.get("better", "lower"), m.get("bound"))
        cells = ["/".join(f"{x:.3f}" for x in r[side]) for side in ("parent", "change")]
        print(f"{name:28s} {cells[0]:>26s} {cells[1]:>26s} {r['relative']:+8.1%} "
              f"{r['wins']:>3d}/{args.pairs}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
