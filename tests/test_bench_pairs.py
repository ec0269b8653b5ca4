"""The pair runner's summary of benchmark results (tools/bench_pairs.py)."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(rate, latency, failed=0):
    return {"correct": failed == 0, "failed": failed, "metrics": {
        "records_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": latency, "unit": "ms"}}}


def test_summary_counts_strict_wins_and_takes_inclusive_quartiles():
    results = {
        "parent": [_result(100, 2.0), _result(110, 1.0), _result(90, 3.0),
                   _result(120, 1.5, failed=1)],
        "change": [_result(150, 2.0), _result(110, 0.5), _result(140, 1.0),
                   _result(100, 1.0)],
    }
    entry = bench_pairs.summarise(
        results, {"records_per_s": "higher", "latency_p50_ms": "lower"})
    assert entry["failed"] == {"parent": [0, 0, 0, 1], "change": [0, 0, 0, 0]}
    assert entry["correct"]["parent"] == [True, True, True, False]
    rate = entry["metrics"]["records_per_s"]
    # a tie (110 against 110) counts for neither side
    assert rate["change_better_pairs"] == 2
    assert rate["parent"] == {"q1": 97.5, "median": 105.0, "q3": 112.5,
                              "runs": [100.0, 110.0, 90.0, 120.0]}
    assert abs(rate["median_ratio_change_over_parent"] - 125 / 105) < 1e-4
    latency = entry["metrics"]["latency_p50_ms"]
    assert latency["better"] == "lower" and latency["unit"] == "ms"
    assert latency["change_better_pairs"] == 3


def test_main_alternates_sides_and_keeps_the_rest_of_the_out_file(
        tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "records_per_s", "better": "higher"},
        {"name": "latency_p50_ms", "better": "lower"}]}))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"method": {"pairs": "written by hand"},
                               "workloads": {"other": {"seeds": [9]}}}))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        return _result(200 if checkout == change else 100, 1.0)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    assert bench_pairs.main([str(parent), str(change), "--workload", "w",
                             "--seeds", "1", "2", "--seconds", "0.5",
                             "--out", str(out)]) == 0
    assert calls == [("parent", "w", 1, 0.5), ("change", "w", 1, 0.5),
                     ("change", "w", 2, 0.5), ("parent", "w", 2, 0.5)]
    written = json.loads(out.read_text())
    assert written["method"] == {"pairs": "written by hand"}
    assert written["workloads"]["other"] == {"seeds": [9]}
    entry = written["workloads"]["w"]
    assert entry["seeds"] == [1, 2] and entry["seconds"] == 0.5
    assert entry["correct"] == {"parent": [True, True],
                                "change": [True, True]}
    assert entry["metrics"]["records_per_s"]["change_better_pairs"] == 2
    assert entry["metrics"]["latency_p50_ms"]["change_better_pairs"] == 0
