"""tools/bench_pairs.py: alternating order, wins, quartiles and the verdict."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_clear_gain():
    r = bench_pairs.verdict(PARENT, [x * 0.7 for x in PARENT])
    assert r["wins"] == 10 and r["verdict"] == "gain"
    assert r["relative"] == pytest.approx(-0.3)


def test_eight_wins_of_ten_is_no_gain():
    change = [x * 0.7 for x in PARENT[:8]] + [x * 1.1 for x in PARENT[8:]]
    r = bench_pairs.verdict(PARENT, change)
    assert r["wins"] == 8 and r["verdict"] == "-"


def test_gap_inside_the_parent_spread_is_no_gain():
    # every pair won, but by less than the parent's interquartile range
    r = bench_pairs.verdict(PARENT, [x - 0.001 for x in PARENT])
    assert r["wins"] == 10 and r["verdict"] == "-"


def test_regression_past_the_bound():
    assert bench_pairs.verdict(PARENT, [x * 1.3 for x in PARENT], bound=0.25)["verdict"] \
        == "regression"
    assert bench_pairs.verdict(PARENT, [x * 1.2 for x in PARENT], bound=0.25)["verdict"] == "-"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    wide = [0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 1.0]  # IQR 0.35 around 1.0
    assert bench_pairs.verdict(wide, [x * 1.1 for x in wide], bound=0.25)["verdict"] \
        == "unresolved"
    assert bench_pairs.verdict(wide, [x * 1.1 for x in wide], bound=0.5)["verdict"] == "-"
    # every run of the change beats every run of the parent, by less than the spread
    skewed = [0.8] * 5 + [1.0] + [1.3] * 4  # IQR 0.5 around 0.9
    assert bench_pairs.verdict(skewed, [0.79] * 10, bound=0.25)["verdict"] == "-"
    # a regression past the bound is still named as one
    assert bench_pairs.verdict(wide, [x * 1.4 for x in wide], bound=0.25)["verdict"] \
        == "regression"


def test_only_single_workloads_accepted(capsys):
    # `--workload all` reports `W.metric` names, which no bound in BENCHMARK.json matches
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["a", "b", "--workload", "all"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_higher_is_better():
    r = bench_pairs.verdict(PARENT, [x * 1.5 for x in PARENT], better="higher")
    assert r["wins"] == 10 and r["verdict"] == "gain"


def test_runs_alternate_and_samples_are_written(tmp_path, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append(checkout.name)
        return {"pipeline_s": 1.0 if checkout.name == "parent" else 0.5}
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    (tmp_path / "parent").mkdir()
    (tmp_path / "change").mkdir()
    out = tmp_path / "samples.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "default", "--pairs", "4", "--json", str(out)]) == 0
    assert calls == ["parent", "change", "change", "parent"] * 2
    samples = json.loads(out.read_text())
    assert samples["parent"] == [{"pipeline_s": 1.0}] * 4
    assert "pipeline_s" in capsys.readouterr().out
