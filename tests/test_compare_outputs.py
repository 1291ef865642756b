"""tools/compare_outputs.py: same files, same text, numbers within 1e-12 relative."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

OLD = '{"bacc": 0.5833333333333334, "loss": 1.25e-05, "fold_1": [3, -0.5]}\n'


@pytest.mark.parametrize("new, files, code", [
    (OLD, {}, 0),
    (OLD.replace("1.25e-05", "1.2500000000001e-05"), {}, 0),
    (OLD.replace("1.25e-05", "1.2500001e-05"), {}, 1),
    (OLD.replace("fold_1", "fold_2"), {}, 1),
    (OLD.replace("-0.5]", "-0.5, 1]"), {}, 1),
    (OLD, {"extra.txt": "x"}, 1),
], ids=["byte-equal", "within-tolerance", "beyond-tolerance", "digit-in-a-word",
        "extra-number", "extra-file"])
def test_trees_compared(tmp_path, capsys, new, files, code):
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    for root, text in ((old_dir, OLD), (new_dir, new)):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "fold_0.json").write_text(text)
    for name, text in files.items():
        (new_dir / name).write_text(text)
    assert compare_outputs.main([str(old_dir), str(new_dir)]) == code
    out = capsys.readouterr().out
    assert out.startswith("1 files in both trees")
    assert ("FAIL" in out) == bool(code)


@pytest.mark.parametrize("name, new, note, kept", [
    ("fold_0.json", OLD.replace("1.25e-05", "2.5e-05"),
     "; every bacc, auc and best_epoch equal (1 values)", "1 of 1"),
    ("fold_0.json", OLD.replace("0.5833333333333334", "0.6"),
     "; 1 of 1 bacc, auc and best_epoch values differ, first /bacc: 0.5833333333333334 != 0.6",
     "0 of 1"),
    ("fold_0.json", OLD.replace('"bacc"', '"sen"'),
     "; bacc, auc and best_epoch entries differ in place", "0 of 1"),
    ("fold_0.txt", OLD.replace("1.25e-05", "2.5e-05"), "", None),
], ids=["metrics-kept", "bacc-moved", "bacc-gone", "not-json"])
def test_failing_json_reports_its_metrics(tmp_path, capsys, name, new, note, kept):
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    for root, text in ((old_dir, OLD), (new_dir, new)):
        root.mkdir()
        (root / name).write_text(text)
    # the metrics check does not change the exit code
    assert compare_outputs.main([str(old_dir), str(new_dir)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].startswith("FAIL ") and lines[1].endswith(f": {name}{note}")
    if kept is None:
        assert len(lines) == 2
    else:
        assert lines[2] == f"{kept} failing JSON files keep every bacc, auc and best_epoch"


def test_metrics_found_at_any_depth():
    doc = {"best_epoch": 3, "rows": [{"aggregate": {"auc": 0.5, "folds": [{"bacc": 1.0}]}}]}
    assert list(compare_outputs.kept_values(doc)) == [
        ("/best_epoch", 3), ("/rows/0/aggregate/auc", 0.5),
        ("/rows/0/aggregate/folds/0/bacc", 1.0)]
