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
