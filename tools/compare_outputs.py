"""Compare two trees written by `tools/output_digests.py --out`.

Both trees must hold the same files. A byte-equal file passes. Any other
file passes when its text, with every number taken out, is identical and
each number is within a relative difference of 1e-12 of its counterpart:
|a - b| <= 1e-12 * max(|a|, |b|). Digits inside a word (`fold_0`, a hex
digest) are text, not numbers. Prints the file count and the worst
difference, and exits 1 when any file fails.

    python3 tools/compare_outputs.py /tmp/parent /tmp/change
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

RTOL = 1e-12
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


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


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        sys.exit("usage: compare_outputs.py A B")
    left, right = files(Path(args[0])), files(Path(args[1]))
    failures = [f"only in {args[0]}: {rel}" for rel in sorted(left.keys() - right.keys())]
    failures += [f"only in {args[1]}: {rel}" for rel in sorted(right.keys() - left.keys())]
    changed, worst, worst_file = 0, 0.0, None
    for rel in sorted(left.keys() & right.keys()):
        a, b = left[rel].read_bytes(), right[rel].read_bytes()
        if a == b:
            continue
        changed += 1
        diff = compare(a, b)
        if diff is None:
            failures.append(f"text differs: {rel}")
        elif diff > RTOL:
            failures.append(f"relative difference {diff:.3e} > {RTOL:g}: {rel}")
        if diff is not None and diff >= worst:
            worst, worst_file = diff, rel
    print(f"{len(left.keys() & right.keys())} files in both trees, {changed} not byte-equal; "
          f"worst relative difference {worst:.3e}" + (f" ({worst_file})" if worst_file else ""))
    for line in failures:
        print(f"FAIL {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
