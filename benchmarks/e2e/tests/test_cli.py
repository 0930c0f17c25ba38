"""The command line: quick run, contract line, manifest, and a bare checkout."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e.cli import contract_line, main
from benchmarks.e2e.metrics import END_TO_END, PER_LAYER, manifest
from benchmarks.e2e.runner import measure
from benchmarks.e2e.workloads import WORKLOADS

PACKAGE = Path(__file__).resolve().parents[1]
ROOT = PACKAGE.parents[1]


def test_benchmark_json_is_the_manifest():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == manifest()
    names = [m.name for m in (*END_TO_END, *PER_LAYER)]
    assert len(names) == len(set(names))
    assert len(END_TO_END) == 12 and "setup_s" in names
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert list(WORKLOADS) == [w["name"] for w in manifest()["workloads"]]


def test_quick_run_of_one_workload_prints_and_writes_every_metric(tmp_path, capsys):
    assert main(["--quick", "--workload", "largefile_stream", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    (report,) = json.loads((tmp_path / "results.json").read_text())
    assert report["ops_failed"] == 0 and report["ops_attempted"] > report["ops"]
    for metric in END_TO_END:
        assert metric.name in printed and metric.name in report["end_to_end"]
    for metric in PER_LAYER:
        assert metric.name in printed and metric.name in report["per_layer"]
    assert report["per_layer"]["trace.self_sum_error"] <= 0.01
    assert "end2end" in printed and (tmp_path / "spans-largefile_stream.jsonl").exists()


def test_contract_line_has_exactly_the_declared_metrics(tmp_path):
    report = measure(
        "multitenant_mix", 7, scale=0.1, seconds=0.0, repeats=1, traced=True, out=tmp_path
    )
    for metrics in (END_TO_END, PER_LAYER):
        line = json.loads(contract_line(report, metrics))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m.name for m in metrics]
        for metric in metrics:
            entry = line["metrics"][metric.name]
            assert entry["unit"] == metric.unit and math.isfinite(entry["value"])
    assert report["per_layer"]["sched.intents_per_commit"] > 1
    assert report["per_layer"]["sched.max_queue_depth"] > 1


def test_fails_without_printing_a_result_where_the_program_is_missing(tmp_path):
    """In a directory holding only BENCHMARK.json and the package."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PACKAGE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "smallfile_churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert "metrics" not in done.stdout
