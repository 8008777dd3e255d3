"""Every committed BENCH_*.json shows parent and change figures for each
workload and end-to-end metric that BENCHMARK.json declares; a record that
carries a metric's relative median change and bound check (older ones do
not) agrees with its medians, and its claim rule with its A/A control when
it has one."""

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
    aa_control = doc.get("aa_control")
    for workload in (w["name"] for w in SPEC["workloads"]):
        assert workload in workloads, workload
        entry = workloads[workload]
        assert len(entry["seeds"]) >= 2, workload
        if aa_control is not None:
            block = aa_control[workload]
            assert len(block["seeds"]) >= 2 and set(block["failed"]) == {"parent", "change"}, workload
            assert isinstance(block["correct"], bool), workload
        for metric in (m["name"] for m in SPEC["end_to_end"]):
            figures = entry["metrics"][metric]
            for side in ("parent", "change"):
                spread = figures[side]
                assert all(isinstance(spread[k], (int, float)) for k in ("median", "q1", "q3")), (workload, metric)
                assert spread["q1"] <= spread["median"] <= spread["q3"], (workload, metric, side)
            if "median_change" in figures:
                change = figures["change"]["median"] / figures["parent"]["median"] - 1.0
                worse = change if figures["better"] == "lower" else -change
                assert figures["median_change"] == change, (workload, metric)
                assert figures["past_bound"] == (worse > figures["bound"]), (workload, metric)
            if "gain_clears_rule" in figures:
                parent = figures["parent"]
                gain = (parent["median"] - figures["change"]["median"]) * (1 if figures["better"] == "lower" else -1)
                clears = 10 * figures["change_wins"] >= 9 * len(entry["seeds"]) and gain > parent["q3"] - parent["q1"]
                if aa_control is not None:
                    change = figures["change"]["median"] / parent["median"] - 1.0
                    size = -change if figures["better"] == "lower" else change
                    clears = clears and size > abs(aa_control[workload]["median_change"][metric])
                assert figures["gain_clears_rule"] == clears, (workload, metric)


def _bench_json():
    """tools/bench_json.py, which is a script, not a package module."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("bench_json", ROOT / "tools" / "bench_json.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(seeds, value, failures):
    """Result records of every workload on ``seeds``: metric j of workload
    i reads ``value(10 * i + j, seed)``, with ``failures(seed)`` failures."""
    return {
        (w["name"], seed): {
            "workload": w["name"], "seed": seed, "seconds": 12.0,
            "metrics": {m["name"]: value(10 * i + j, seed) for j, m in enumerate(SPEC["end_to_end"])},
            "failures": [f"failure {n}" for n in range(failures(seed))],
        }
        for i, w in enumerate(SPEC["workloads"]) for seed in seeds
    }


def test_summarize_takes_medians_quartiles_wins_and_failures_per_workload():
    bench_json = _bench_json()
    # Seed 4 is run on the parent side only and is left out.
    parent = _records([1, 2, 3, 4], lambda base, seed: base + seed, lambda seed: seed - 1)
    change = _records([1, 2, 3], lambda base, seed: base + seed - 0.5 if seed < 3 else base + 4.0,
                      lambda seed: int(seed == 3))
    out = bench_json.summarize(parent, change, SPEC)
    assert list(out) == [w["name"] for w in SPEC["workloads"]]
    for i, name in enumerate(out):
        entry = out[name]
        assert entry["seeds"] == [1, 2, 3] and entry["seconds"] == 12.0
        assert entry["failed"] == {"parent": 0 + 1 + 2, "change": 1}
        assert list(entry["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for j, metric in enumerate(SPEC["end_to_end"]):
            base, figures = 10 * i + j, entry["metrics"][metric["name"]]
            assert (figures["unit"], figures["better"]) == (metric["unit"], metric["better"])
            # Parent base + [1, 2, 3], change base + [0.5, 1.5, 4]: inclusive quartiles.
            assert figures["parent"] == {"median": base + 2, "q1": base + 1.5, "q3": base + 2.5}
            assert figures["change"] == {"median": base + 1.5, "q1": base + 1.0, "q3": base + 2.75}
            assert figures["change_wins"] == (2 if metric["better"] == "lower" else 1)


def test_summarize_refuses_fewer_than_two_seeds_on_both_sides():
    bench_json = _bench_json()
    parent = _records([1, 2, 3], lambda base, seed: base + seed, lambda seed: 0)
    change = _records([3, 5], lambda base, seed: base + seed, lambda seed: 0)
    with pytest.raises(SystemExit, match="need at least two seeds run on both sides, found \\[3\\]"):
        bench_json.summarize(parent, change, SPEC)


def test_summarize_checks_each_median_change_against_its_bound():
    bench_json = _bench_json()
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "time", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.2},
        ],
    }

    def records(time, rate):
        return {
            ("w", seed): {"workload": "w", "seed": seed, "seconds": 12.0,
                          "metrics": {"time": time * seed, "rate": rate * seed}, "failures": []}
            for seed in (1, 2, 3)
        }

    parent = records(2.0, 4.0)
    # (time factor, rate factor, time past its bound, rate past its bound)
    for t, r, time_past, rate_past in ((1.05, 0.9, False, False), (1.25, 1.5, True, False),
                                       (0.5, 0.75, False, True), (1.0, 1.0, False, False)):
        metrics = bench_json.summarize(parent, records(2.0 * t, 4.0 * r), spec)["w"]["metrics"]
        assert metrics["time"]["median_change"] == pytest.approx(t - 1.0)
        assert metrics["rate"]["median_change"] == pytest.approx(r - 1.0)
        assert (metrics["time"]["bound"], metrics["rate"]["bound"]) == (0.1, 0.2)
        assert (metrics["time"]["past_bound"], metrics["rate"]["past_bound"]) == (time_past, rate_past), (t, r)


def test_summarize_says_whether_a_gain_clears_the_rule():
    # A gain counts when the change wins at least 9 of every 10 pairs and
    # its median beats the parent's by more than the parent's IQR.
    bench_json = _bench_json()
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "time", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }
    seeds = range(1, 11)
    # Parent times 1.0-1.9 s: median 1.45 s, inclusive quartiles 1.225 and 1.675 s (IQR 0.45 s).
    parent_times = [1.0 + 0.1 * i for i in range(10)]

    def records(times):
        return {
            ("w", seed): {"workload": "w", "seed": seed, "seconds": 12.0,
                          "metrics": {"time": t, "rate": 1.0 / t}, "failures": []}
            for seed, t in zip(seeds, times)
        }

    parent = records(parent_times)
    cases = [
        # Every pair won and the median 0.5 s lower: clears.
        ([t - 0.5 for t in parent_times], True),
        # Every pair won, but the median only 0.3 s lower, within the IQR.
        ([t - 0.3 for t in parent_times], False),
        # The median 0.6 s lower, but 8 of 10 pairs won.
        ([t - 0.6 for t in parent_times[:8]] + [2.5, 2.6], False),
        # 9 of 10 pairs won, the median 0.6 s lower: clears.
        ([t - 0.6 for t in parent_times[:9]] + [2.6], True),
    ]
    for times, clears in cases:
        metrics = bench_json.summarize(parent, records(times), spec)["w"]["metrics"]
        assert metrics["time"]["gain_clears_rule"] is clears, times
    # A slower change clears nothing, on either direction of metric.
    metrics = bench_json.summarize(parent, records([t + 0.5 for t in parent_times]), spec)["w"]["metrics"]
    assert not metrics["time"]["gain_clears_rule"] and not metrics["rate"]["gain_clears_rule"]
    # A higher-is-better metric clears when it rises by more than its IQR.
    metrics = bench_json.summarize(records([t + 0.5 for t in parent_times]), parent, spec)["w"]["metrics"]
    assert metrics["rate"]["gain_clears_rule"] and metrics["time"]["gain_clears_rule"]


def test_control_block_reads_each_workload_and_metric():
    bench_json = _bench_json()
    parent = _records([1, 2, 3], lambda base, seed: base + seed, lambda seed: 0)
    change = _records([1, 2, 3], lambda base, seed: 1.25 * (base + seed), lambda seed: 0)
    name = SPEC["workloads"][0]["name"]
    change[name, 2]["failures"] = [["a/key", "ConservationError"]]
    block = bench_json.control(parent, change, SPEC, {"a/key": "ConservationError"})
    assert list(block) == [w["name"] for w in SPEC["workloads"]]
    for entry in block.values():
        assert entry["seeds"] == [1, 2, 3] and entry["correct"] is True
        assert list(entry["median_change"]) == [m["name"] for m in SPEC["end_to_end"]]
        assert all(v == pytest.approx(0.25) for v in entry["median_change"].values())
    assert block[name]["failed"] == {"parent": 0, "change": 1}
    # A failure the ledger does not expect, by key and kind, is not correct.
    for ledger in ({}, {"a/key": "mismatch"}):
        assert bench_json.control(parent, change, SPEC, ledger)[name]["correct"] is False


def test_a_gain_within_the_aa_control_does_not_clear_the_rule():
    bench_json = _bench_json()
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "time", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
        ],
    }
    seeds = range(1, 11)

    def records(times):
        return {
            ("w", seed): {"workload": "w", "seed": seed, "seconds": 12.0,
                          "metrics": {"time": t, "rate": 1.0 / t}, "failures": []}
            for seed, t in zip(seeds, times)
        }

    # Parent times 1.0-1.9 s (median 1.45 s, IQR 0.45 s); the change is
    # 0.5 s faster on every pair, a relative gain of 0.5 / 1.45 = 34.5 %,
    # which clears the 9-of-10 and IQR rule.
    parent_times = [1.0 + 0.1 * i for i in range(10)]
    parent, change = records(parent_times), records([t - 0.5 for t in parent_times])
    assert bench_json.summarize(parent, change, spec)["w"]["metrics"]["time"]["gain_clears_rule"]
    # An A/A control whose two names read 40 % apart: the gain is within it,
    # in either direction of the control's change.
    for factor in (1.4, 0.6):
        aa = bench_json.control(parent, records([factor * t for t in parent_times]), spec, {})
        assert aa["w"]["median_change"]["time"] == pytest.approx(factor - 1.0)
        metrics = bench_json.summarize(parent, change, spec, aa)["w"]["metrics"]
        assert not metrics["time"]["gain_clears_rule"], factor
    # A control of 10 % leaves it clear.
    aa = bench_json.control(parent, records([1.1 * t for t in parent_times]), spec, {})
    assert bench_json.summarize(parent, change, spec, aa)["w"]["metrics"]["time"]["gain_clears_rule"]
