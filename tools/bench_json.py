"""Summarize benchmark runs of a parent and a change into one BENCH_*.json.

    python3 tools/bench_json.py --parent DIR --change DIR --out BENCH_<n>.json --note TEXT \
        [--control DIR DIR]

Each DIR holds the result records that ``python3 perfbench/run.py --workload W
--seed S --seconds 12 --trace 0`` writes to ``.perfbench_run/results/`` (one
``W-seedS-trace0.json`` per run), from a checkout of that side.  Runs pair up
by workload and seed, so run both sides on the same seeds, alternating.  For
every workload and every end-to-end metric that BENCHMARK.json declares, the
output holds each side's median and quartiles, the number of pairs the
change won, the relative change of the median (change / parent - 1),
whether that change is worse than the metric's bound, and whether it is a
gain that clears the rule for claiming one: the change won at least 9 of
every 10 pairs, and its median is better than the parent's by more than
the parent's interquartile range.

An A/A control runs the change from both directory names, so what it reads
is what the directories, the order and the host contribute.  Given the
control's two result directories, the output also holds an ``aa_control``
block, per workload: its seeds, failures, whether every failure is one the
benchmark's ledger expects (``correct``), and each metric's relative change
of the median; and a gain clears the rule only if its relative size also
exceeds the control's absolute change for that workload and metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _records(directory: Path) -> dict[tuple[str, int], dict]:
    out = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out[(record["workload"], record["seed"])] = record
    return out


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _pairs(parent: dict, change: dict, name: str) -> tuple[list[int], list[tuple[dict, dict]]]:
    seeds = sorted(seed for wl, seed in parent if wl == name and (wl, seed) in change)
    if len(seeds) < 2:
        raise SystemExit(f"{name}: need at least two seeds run on both sides, found {seeds}")
    return seeds, [(parent[name, s], change[name, s]) for s in seeds]


def _failed(pairs: list[tuple[dict, dict]]) -> dict[str, int]:
    return {
        "parent": sum(len(p["failures"]) for p, _ in pairs),
        "change": sum(len(c["failures"]) for _, c in pairs),
    }


def control(parent: dict, change: dict, spec: dict, ledger: dict) -> dict:
    """The ``aa_control`` block of an A/A control's two sides."""
    block = {}
    for name in (w["name"] for w in spec["workloads"]):
        seeds, pairs = _pairs(parent, change, name)
        block[name] = {
            "seeds": seeds,
            "failed": _failed(pairs),
            "correct": all(ledger.get(key) == kind for r in itertools.chain(*pairs) for key, kind in r["failures"]),
            "median_change": {
                key: _spread([c["metrics"][key] for _, c in pairs])["median"]
                / _spread([p["metrics"][key] for p, _ in pairs])["median"] - 1.0
                for key in (m["name"] for m in spec["end_to_end"])
            },
        }
    return block


def summarize(parent: dict, change: dict, spec: dict, aa_control: dict | None = None) -> dict:
    workloads = {}
    for name in (w["name"] for w in spec["workloads"]):
        seeds, pairs = _pairs(parent, change, name)
        metrics = {}
        for metric in spec["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            before = [p["metrics"][key] for p, _ in pairs]
            after = [c["metrics"][key] for _, c in pairs]
            parent_spread, change_spread = _spread(before), _spread(after)
            median_change = change_spread["median"] / parent_spread["median"] - 1.0
            wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
            gain = (parent_spread["median"] - change_spread["median"]) * (1 if lower else -1)
            noise = 0.0 if aa_control is None else abs(aa_control[name]["median_change"][key])
            metrics[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": parent_spread,
                "change": change_spread,
                "change_wins": wins,
                "median_change": median_change,
                "bound": metric["bound"],
                "past_bound": (median_change if lower else -median_change) > metric["bound"],
                "gain_clears_rule": 10 * wins >= 9 * len(pairs)
                and gain > parent_spread["q3"] - parent_spread["q1"]
                and (-median_change if lower else median_change) > noise,
            }
        workloads[name] = {
            "seeds": seeds,
            "seconds": pairs[0][0]["seconds"],
            "failed": _failed(pairs),
            "metrics": metrics,
        }
    return workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--note", default="", help="what was compared, on what machine")
    parser.add_argument("--control", type=Path, nargs=2, metavar=("PARENT", "CHANGE"),
                        help="an A/A control's results from the parent's and the change's directory names")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = _records(args.parent), _records(args.change)
    aa_control = None
    if args.control is not None:
        ledger = json.loads((ROOT / "perfbench" / "references.json").read_text())["ledger"]
        aa_control = control(*map(_records, args.control), spec, ledger)
    # The load average is one run's; the rest describes the machine.
    env = {k: v for k, v in next(iter(change.values()))["env"].items() if k != "loadavg"}
    doc = {
        "note": args.note,
        "env": env,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the seeds of each side",
        "workloads": summarize(parent, change, spec, aa_control),
    }
    if aa_control is not None:
        doc["aa_control"] = aa_control
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
