"""tools/bench_pairs.py on made-up result lines: the summary of a workload's
runs, its report lines, and the alternation of the pairs, without running
the benchmark."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def result(wall_s, correct=True, failed=0):
    """One result line of bench/run.py with a single end-to-end metric."""
    return {"correct": correct, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}


def test_summarize_medians_quartiles_and_pairs_won():
    runs = {"parent": [result(v) for v in (1, 2, 3, 4, 5)],
            "change": [result(v) for v in (0.5, 2.5, 2.7, 3, 6)]}
    metric = bench_pairs.summarize(runs, {"wall_s": 0.2})["metrics"]["wall_s"]
    assert metric["unit"] == "s" and metric["bound"] == 0.2
    # the inclusive quartiles of statistics.quantiles
    assert metric["parent"] == {"median": 3, "min": 1, "q1": 2, "q3": 4}
    assert metric["change"] == {"median": 2.7, "min": 0.5, "q1": 2.5, "q3": 3}
    # lower in pairs 1, 3 and 4; not in 2 (2.5 > 2) nor 5 (6 > 5)
    assert metric["change_lower_in_pairs"] == 3
    assert metric["median_change_pct"] == -10.0
    assert metric["runs_in_pair_order"] == {"parent": [1, 2, 3, 4, 5],
                                            "change": [0.5, 2.5, 2.7, 3, 6]}


def test_summarize_counts_only_finished_pairs():
    # an interrupted run: the parent side of a third pair has no partner
    runs = {"parent": [result(v) for v in (1, 1, 0)], "change": [result(v) for v in (2, 2)]}
    entry = bench_pairs.summarize(runs, {"wall_s": 0.2})
    assert entry["runs"] == {"parent": 3, "change": 2}
    assert entry["metrics"]["wall_s"]["change_lower_in_pairs"] == 0


def test_summarize_aggregates_correct_and_failed_over_both_sides():
    runs = {"parent": [result(1, failed=2), result(1, failed=1)],
            "change": [result(1), result(1, correct=False, failed=4)]}
    entry = bench_pairs.summarize(runs, {"wall_s": 0.2})
    assert entry["correct"] is False
    assert entry["failed"] == {"parent": 3, "change": 4}
    runs["change"][1] = result(1)
    assert bench_pairs.summarize(runs, {"wall_s": 0.2})["correct"] is True


def test_report_skips_metrics_of_fewer_than_two_pairs():
    one = {"parent": [result(2)], "change": [result(1)]}
    two = {"parent": [result(2), result(4)], "change": [result(1), result(5)]}
    entries = {name: bench_pairs.summarize(runs, {"wall_s": 0.2})
               for name, runs in (("one", one), ("two", two))}
    assert "parent" not in entries["one"]["metrics"]["wall_s"]
    # the inclusive quartiles of (2, 4) are 2.5 and 3.5: an IQR of 1 on 3
    assert bench_pairs.report(entries) == [
        "two wall_s: 3 -> 3 s (+0.00 %, parent IQR 33.33 %), change lower in 1 of 2 pairs"
    ]


def test_main_alternates_which_side_runs_first(tmp_path, monkeypatch, capsys):
    sides = {}
    for side in ("parent", "change"):
        sides[side] = tmp_path / side
        sides[side].mkdir()
    benchmark = {"run_seconds": 3, "workloads": [{"name": "a"}, {"name": "b"}],
                 "end_to_end": [{"name": "wall_s", "bound": 0.2}]}
    (sides["change"] / "BENCHMARK.json").write_text(json.dumps(benchmark))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return result(1.0 if checkout.name == "parent" else 0.5)

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "_head", lambda checkout: f"head of {checkout.name}")
    out = tmp_path / "BENCH.json"
    argv = [str(sides["parent"]), str(sides["change"]), "--seed", "7", "--pairs", "3",
            "--change", "a made-up change", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    first, second = ["parent", "change"], ["change", "parent"]
    expected = [(side, name, 7, 3) for order in (first, second, first)
                for side in order for name in ("a", "b")]
    assert calls == expected
    written = json.loads(out.read_text())
    assert written["parent"] == "head of parent" and written["change"] == "a made-up change"
    assert written["seed"] == 7 and written["pairs"] == 3
    assert written["command"] == "python3 bench/run.py --workload <name> --seed 7 --seconds 3 --trace 0"
    for name in ("a", "b"):
        metric = written["workloads"][name]["metrics"]["wall_s"]
        assert metric["change_lower_in_pairs"] == 3
        assert metric["median_change_pct"] == -50.0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:3] == [f"pair {k} of 3 done" for k in (1, 2, 3)]
    assert len(printed) == 5 and printed[3].startswith("a wall_s: 1 -> 0.5 s (-50.00 %")


@pytest.mark.parametrize("missing", ["--seed", "--change", "--out"])
def test_main_needs_seed_change_and_out(tmp_path, missing, capsys):
    argv = {"--seed": "1", "--change": "x", "--out": str(tmp_path / "out.json")}
    del argv[missing]
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), *[t for kv in argv.items() for t in kv]])
    assert missing in capsys.readouterr().err
