"""uqgeom benchmark: one workload, one closed-loop client, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact-many-points --seed 1 --seconds 12 --trace 0

The process generates the workload's inputs from ``--seed``, writes them
under ``.perfbench_run/``, and calls the public entry points in-process,
sending the next solve when the previous one returns.  The solve list holds
as many rounds (see ``workloads.NOMINAL_ROUND_S``) as fill about
``--seconds`` on the seed commit; every output is checked.  The last line of
standard output is one JSON object: ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a run that makes the list
traced, after making its first round untraced twice (the second, warm pass
is the base for the tracing overhead).

The end-to-end times are reported at a reference speed.  The host's speed
can drift by 1.5x within minutes, and the CPU time of a solve drifts with it,
so between solves (at most every ``CHUNK_S``) the process times a fixed
pure-Python loop, ``reference_loop``, and scales each measured time by
(``REF_LOOP_S`` / the loop's time around it) ** ``SLOWDOWN_EXPONENT``.  A
change that makes the program do more work still scales its times up; a
slower host does not.  The measured times are printed beside the scaled
ones and kept in the result record.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import os  # noqa: E402

# One thread: keep numpy's linear-algebra pool from competing with the client.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_run"
SETUP_REPEATS = 5
MIN_SOLVES = 40  # so the tail percentile (ten solves beyond it) is at least p75
REF_LOOP_S = 0.0085  # reference_loop() on a 2-core Xeon VM in its fast state
# When that VM's host is contended, solve times grow about as the loop's
# time to the power 1.4: the program's larger working set suffers more than
# the loop's.  Fitted on the per-chunk records of ten runs of each workload
# and checked on ten more; with the power 1 the scaled times still followed
# the host's speed.
SLOWDOWN_EXPONENT = 1.4
CHUNK_S = 0.05

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("solve_p50_s", "s"),
    ("solve_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)


def tail_percentile(latencies) -> tuple[int, float]:
    """The highest whole percentile with at least ten solves beyond it, by
    nearest rank: (percentile, latency).  Needs at least eleven solves."""
    xs = sorted(latencies)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    raise ValueError(f"{n} solves: the tail needs at least 11")


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


def at_reference(seconds: float, loop_s: float) -> float:
    """A time measured while ``reference_loop`` took ``loop_s``, scaled to
    the reference speed."""
    return seconds * (REF_LOOP_S / loop_s) ** SLOWDOWN_EXPONENT


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
    }


def run_solve(solve, sink) -> tuple[float, str | None]:
    """Time one solve, then check it; a raised exception is a failure kind."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            result = solve.call()
    except Exception as exc:  # the run goes on; the solve counts as failed
        latency = time.perf_counter() - t0
        return latency, type(exc).__name__
    latency = time.perf_counter() - t0
    return latency, solve.check(result)


def run_pass(solves, sink, tracer) -> list[tuple[float, float, str | None]]:
    """Make the solves back to back: per solve, (measured latency, latency at
    the reference speed, failure kind or None).  ``reference_loop`` runs
    before the first solve and after each chunk of at least ``CHUNK_S``; a
    chunk's latencies are scaled by the mean of the two loop times around
    it."""
    out = []
    chunk: list[tuple[float, str | None]] = []
    before = reference_loop()
    for i, solve in enumerate(solves):
        tracer.solve = i
        chunk.append(run_solve(solve, sink))
        sink.seek(0)
        sink.truncate()
        if sum(x for x, _ in chunk) >= CHUNK_S or i == len(solves) - 1:
            after = reference_loop()
            loop_s = (before + after) / 2
            out += [(x, at_reference(x, loop_s), failure) for x, failure in chunk]
            before, chunk = after, []
    tracer.solve = None
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="one of workloads.WORKLOADS")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    refs_path = HERE / "references.json"
    if not (src / "uqgeom" / "__init__.py").is_file() or not refs_path.is_file():
        print(f"error: no uqgeom sources under {src} or no {refs_path.name}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    # Setup: import, then (several times) generate and write the inputs and
    # make one untimed warm-up solve.  setup_s = import + median of repeats,
    # each at the reference speed.
    import uqgeom  # noqa: F401

    import_s = at_reference(time.perf_counter() - _START, reference_loop())
    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    env = environment()
    refs = json.loads(refs_path.read_text())
    ledger = refs["ledger"]
    work = OUT / "work" / args.workload
    per_round = len(workloads.build(args.workload, args.seed, work, refs).solves)
    rounds = max(
        1,
        round(args.seconds / workloads.NOMINAL_ROUND_S[args.workload]),
        math.ceil(MIN_SOLVES / per_round),
    )
    sink = io.StringIO()
    repeats = []
    for _ in range(SETUP_REPEATS):
        before = reference_loop()
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        wl = workloads.build(args.workload, args.seed, work, refs, rounds)
        wl.write_inputs()
        run_solve(wl.solves[0], sink)
        elapsed = time.perf_counter() - t0
        repeats.append(at_reference(elapsed, (before + reference_loop()) / 2))
    setup_s = import_s + statistics.median(repeats)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"env {json.dumps(env)}")
    print(f"plan {rounds} rounds, {len(wl.solves)} solves")
    print("estimate " + " ".join(f"{k}={v}" for k, v in wl.estimate.items()))

    # The solve list runs once.  A traced run first makes its first round
    # untraced twice (the second time, warm, is the base for the overhead),
    # then the whole list traced; only that last pass is counted.
    tracer = Tracer()
    first = wl.solves[:per_round]
    warm = []
    if args.trace:
        run_pass(first, sink, tracer)
        warm = run_pass(first, sink, tracer)
        layers.install(tracer)
    try:
        done = run_pass(wl.solves, sink, tracer)
    finally:
        tracer.restore()

    failures = [(solve.key, failure) for solve, (_, _, failure) in zip(wl.solves, done) if failure]
    unexpected = sorted({f for f in failures if ledger.get(f[0]) != f[1]})
    correct = not unexpected
    for key, kind in sorted(set(failures)):
        note = "in ledger" if ledger.get(key) == kind else "NOT IN LEDGER"
        print(f"failed {key}: {kind} ({note})")

    by_label: dict[str, list[float]] = {}
    for solve, (latency, _, _) in zip(wl.solves, done):
        by_label.setdefault(solve.label, []).append(latency)
    for label, xs in by_label.items():
        print(f"solve {label:34s} median {statistics.median(xs):.4f} s measured over {len(xs)}")
    measured = [x for x, _, _ in done]
    scaled = [x for _, x, _ in done]
    attempted = len(done)
    result_file = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "env": env, "estimate": wl.estimate, "rounds": rounds, "solves": attempted,
        "failures": failures, "latencies": measured, "scaled_latencies": scaled,
    }
    if args.trace:
        layers.probe_enumeration(tracer)
        metrics = layers.layer_metrics(tracer.spans, collections.Counter(kind for _, kind in failures))
        metrics["trace.overhead_s"] = sum(scaled[:per_round]) - sum(x for _, x, _ in warm)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        print("self time per span over the traced pass (s, calls):")
        for name, own, calls in layers.self_time_table(tracer.spans)[:15]:
            print(f"  {name:42s} {own:10.4f} {calls:8d}")
        record["spans"] = [[s.name, s.start, s.end, s.parent, s.solve] for s in tracer.spans]
    else:
        pct, tail = tail_percentile(scaled)
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(scaled),
            "solve_p50_s": statistics.median(scaled),
            "solve_tail_s": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        record["tail_percentile"] = pct
        fail_ratio = len(failures) / attempted
        print(f"{'fail_ratio':14s} {fail_ratio:.6g} ratio ({len(failures)} of {attempted} solves)")
        print(f"{'solve_tail_s':14s} is p{pct} of {attempted} solves")
        print(
            f"measured (not scaled): wall {sum(measured):.4f} s, p50 {statistics.median(measured):.4f} s, "
            f"p{pct} {tail_percentile(measured)[1]:.4f} s; mean speed {sum(scaled) / sum(measured):.3f}x reference"
        )
    for name in metrics:
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    record["metrics"] = metrics
    result_file.parent.mkdir(parents=True, exist_ok=True)
    result_file.write_text(json.dumps(record))
    shutil.rmtree(work, ignore_errors=True)

    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
