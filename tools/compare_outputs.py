"""Compare two trees written by `tools/output_digests.py --out`.

Both trees must hold the same files. A byte-equal file passes. Any other
file passes when its text, with every number taken out, is identical and
each number is within a relative difference of 1e-12 of its counterpart:
|a - b| <= 1e-12 * max(|a|, |b|). Digits inside a word (`fold_0`, a hex
digest) are text, not numbers. Prints the file count and the worst
difference, and exits 1 when any file fails.

A failing JSON file is also checked for what a rounding change must not
move: every `bacc`, `auc` and `best_epoch` entry at any depth. Its FAIL line
says whether all of them are still equal, or how many differ and where the
first one is, and a last line counts the failing JSON files that keep them
all. The exit code does not depend on this check.

    python3 tools/compare_outputs.py /tmp/parent /tmp/change
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

RTOL = 1e-12
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
KEPT = ("bacc", "auc", "best_epoch")


def files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}


def compare(a: bytes, b: bytes):
    """None when the texts differ outside their numbers, else the worst relative difference."""
    try:
        ta, tb = a.decode(), b.decode()
    except UnicodeDecodeError:
        return None
    if NUMBER.split(ta) != NUMBER.split(tb):
        return None
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(ta)), map(float, NUMBER.findall(tb))):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def kept_values(doc, path=""):
    """(path, value) of every `KEPT` entry of a JSON document, in document order."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        sub = f"{path}/{key}"
        if key in KEPT:
            yield sub, value
        yield from kept_values(value, sub)


def kept_check(a: bytes, b: bytes):
    """None for a text that is not JSON, else (all KEPT entries equal, a note)."""
    try:
        ka, kb = (list(kept_values(json.loads(x))) for x in (a, b))
    except ValueError:  # UnicodeDecodeError included
        return None
    if ka == kb:
        return True, f"every bacc, auc and best_epoch equal ({len(ka)} values)"
    if [path for path, _ in ka] != [path for path, _ in kb]:
        return False, "bacc, auc and best_epoch entries differ in place"
    differ = [(path, x, y) for (path, x), (_, y) in zip(ka, kb) if x != y]
    path, x, y = differ[0]
    return False, (f"{len(differ)} of {len(ka)} bacc, auc and best_epoch values differ, "
                   f"first {path}: {x} != {y}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: compare_outputs.py A B")
    left, right = files(Path(args[0])), files(Path(args[1]))
    failures = [f"only in {args[0]}: {rel}" for rel in sorted(left.keys() - right.keys())]
    failures += [f"only in {args[1]}: {rel}" for rel in sorted(right.keys() - left.keys())]
    changed, worst, worst_file = 0, 0.0, None
    kept = []  # per failing JSON file, whether its KEPT entries are all equal
    for rel in sorted(left.keys() & right.keys()):
        a, b = left[rel].read_bytes(), right[rel].read_bytes()
        if a == b:
            continue
        changed += 1
        diff = compare(a, b)
        if diff is None:
            failure = f"text differs: {rel}"
        elif diff > RTOL:
            failure = f"relative difference {diff:.3e} > {RTOL:g}: {rel}"
        else:
            failure = None
        if diff is not None and diff >= worst:
            worst, worst_file = diff, rel
        check = kept_check(a, b) if failure and rel.endswith(".json") else None
        if check is not None:
            kept.append(check[0])
            failure += f"; {check[1]}"
        if failure is not None:
            failures.append(failure)
    print(f"{len(left.keys() & right.keys())} files in both trees, {changed} not byte-equal; "
          f"worst relative difference {worst:.3e}" + (f" ({worst_file})" if worst_file else ""))
    for line in failures:
        print(f"FAIL {line}")
    if kept:
        print(f"{sum(kept)} of {len(kept)} failing JSON files keep every bacc, auc and best_epoch")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
