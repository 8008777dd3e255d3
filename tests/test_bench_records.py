"""Every committed BENCH_*.json shows parent and change figures for each
workload and end-to-end metric that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_some_bench_record_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_record_has_parent_and_change_per_workload_and_metric(path):
    doc = json.loads(path.read_text())
    workloads = doc["workloads"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        assert workload in workloads, workload
        entry = workloads[workload]
        assert len(entry["seeds"]) >= 2, workload
        for metric in (m["name"] for m in SPEC["end_to_end"]):
            figures = entry["metrics"][metric]
            for side in ("parent", "change"):
                spread = figures[side]
                assert all(isinstance(spread[k], (int, float)) for k in ("median", "q1", "q3")), (workload, metric)
                assert spread["q1"] <= spread["median"] <= spread["q3"], (workload, metric, side)
