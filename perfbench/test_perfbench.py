"""Tests of the benchmark's own logic.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402
import uqgeom.exact  # noqa: E402
import uqgeom.montecarlo  # noqa: E402
import uqgeom.quantize  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from uqgeom.measures import MeasureId  # noqa: E402


# -- the tail-percentile rule


def test_tail_is_highest_percentile_with_ten_solves_beyond():
    xs = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(xs) == (90, 90.0)
    assert run.tail_percentile(list(reversed(xs))) == (90, 90.0)


@pytest.mark.parametrize("n, pct", [(11, 9), (21, 52), (40, 75), (49, 79), (432, 97), (1000, 99)])
def test_tail_percentile_keeps_ten_beyond(n, pct):
    xs = list(range(n))
    p, value = run.tail_percentile(xs)
    assert p == pct
    assert sum(1 for x in xs if x > value) >= 10
    # One percentile higher would leave fewer than ten beyond.
    if p < 99:
        rank = -(-(p + 1) * n // 100)
        assert n - rank < 10


def test_tail_needs_eleven_solves():
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


# -- scaling to the reference speed


def test_run_pass_scales_each_chunk_by_the_loops_around_it(monkeypatch):
    loops = iter([0.5, 1.5, 6.5])  # two chunks: mean loop times 1 and 4 (x REF_LOOP_S)
    monkeypatch.setattr(run, "reference_loop", lambda: next(loops) * run.REF_LOOP_S)
    monkeypatch.setattr(run, "CHUNK_S", 0.0)  # one solve per chunk
    monkeypatch.setattr(run, "run_solve", lambda solve, sink: solve)
    out = run.run_pass([(2.0, None), (8.0, "mismatch")], io.StringIO(), Tracer())
    assert out == [(2.0, 2.0, None), (8.0, pytest.approx(8.0 * 4**-run.SLOWDOWN_EXPONENT), "mismatch")]


# -- span self-time arithmetic


def test_self_time_subtracts_each_child_once():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.child", 2.0, 3.0, 1, 0),
        Span("b", 4.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_layer_metrics_arithmetic_and_names():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("exact.exact_distribution", 1.0, 8.0, 0, 0, {"combos": 100, "nonzero": 20}),
        Span("model.canonical_jitter", 1.0, 2.0, 1, 0),
        Span("quantize.to_csv", 8.0, 9.0, 0, 0),
        Span("exact.enumerate", 11.0, 14.0, None, 0, {"valid": 40}),
    ]
    out = layers.layer_metrics(spans, {"mismatch": 2})
    assert set(out) | {"trace.overhead_s"} == {name for name, _, _ in layers.PER_LAYER}
    assert out["cli.overhead_s"] == 3.0  # 10 s minus the 7 s engine call
    assert out["exact.count.busy_s"] == 4.0  # 7 s exact minus 3 s enumeration
    assert out["exact.self_s"] == 6.0  # the probe is not counted
    assert out["model.self_s"] == 1.0
    assert out["cli.self_s"] == 2.0
    assert out["exact.valid_ratio"] == 0.4
    assert out["exact.nonzero_ratio"] == 0.5
    assert out["exact.mismatches"] == 2


def test_tracer_spans_nest_with_parent_and_solve():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.solve = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert (outer.start, outer.end, outer.parent) == (0.0, 3.0, None)
    assert (inner.start, inner.end, inner.parent, inner.solve) == (1.0, 2.0, 0, 7)
    assert self_times(tracer.spans) == [2.0, 1.0]


# -- wrapping and restoring


def _wrapped_attrs():
    """(owner, attr) of every function layers.install replaces."""
    tracer = Tracer()
    layers.install(tracer)
    patched = [(owner, attr) for owner, attr, _ in tracer._patches]
    tracer.restore()
    return patched


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_install_then_restore_gives_back_every_original():
    patched = _wrapped_attrs()
    before = {(id(o), a): _raw(o, a) for o, a in patched}
    tracer = Tracer()
    layers.install(tracer)
    assert all(_raw(o, a) is not before[(id(o), a)] for o, a in patched)
    tracer.restore()
    assert all(_raw(o, a) is before[(id(o), a)] for o, a in patched)
    assert isinstance(uqgeom.quantize.Quantization1D.__dict__["from_samples"], staticmethod)


def test_restore_after_a_raising_call():
    tracer = Tracer()
    layers.install(tracer)
    try:
        with pytest.raises(ValueError):
            uqgeom.exact.exact_distribution(None, MeasureId("diameter"))
    finally:
        tracer.restore()
    assert tracer.spans[0].name == "exact.exact_distribution"
    assert tracer.spans[0].end is not None
    assert not hasattr(uqgeom.exact.exact_distribution, "__wrapped__")


def test_wrapper_records_at_the_callers_name():
    tracer = Tracer()
    layers.install(tracer)
    try:
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]])
        value = uqgeom.montecarlo.evaluate(MeasureId("seb2"), pts)
        q = uqgeom.quantize.Quantization1D.from_samples([1.0, 2.0])
    finally:
        tracer.restore()
    assert value == uqgeom.measures.evaluate(MeasureId("seb2"), pts)
    assert len(q) == 2
    names = [s.name for s in tracer.spans]
    assert names == ["measures.evaluate.seb2", "geometry.welzl_ball", "quantize.from_samples"]
    assert tracer.spans[1].parent == 0


# -- output checks


def _exact_solve(tmp_path: Path, expected=None):
    src = tmp_path / "set.json"
    src.write_text(json.dumps(workloads.generic_indecisive(np.random.default_rng(5), 4, 3)))
    out = tmp_path / "dist.csv"
    argv = ["exact", "--input", str(src), "--measure", "seb2", "--out", str(out)]
    check = workloads.cli_check(expected, [out], exact_csv=out)
    return workloads.Solve("k", "exact seb2", workloads._cli_call(argv), check, (out,))


def test_reference_output_passes_and_corrupted_output_fails(tmp_path):
    solve = _exact_solve(tmp_path)
    assert solve.call() == 0
    expected = workloads.hash_outputs(solve.outputs)
    solve = _exact_solve(tmp_path, expected)
    assert run.run_solve(solve, io.StringIO())[1] is None

    out = solve.outputs[0]
    original = out.read_text()
    corrupted = original.replace("1", "2", 1)
    assert corrupted != original
    out.write_text(corrupted)
    assert solve.check(0) == "reference mismatch"


def test_exact_weights_must_sum_to_one(tmp_path):
    out = tmp_path / "dist.csv"
    out.write_text("value,weight,cumulative,weight_exact\n1,0.5,0.5,1/2\n2,0.25,0.75,1/4\n")
    assert workloads.exact_csv_mass(out) == Fraction(3, 4)
    check = workloads.cli_check(workloads.hash_outputs([out]), [out], exact_csv=out)
    assert check(0) == "mass != 1"
    assert check(2) == "exit 2"


def test_raised_error_is_a_failure_not_a_crash():
    def boom():
        raise uqgeom.exact.ConservationError("leak")

    solve = workloads.Solve("k", "x", boom, lambda r: None)
    latency, failure = run.run_solve(solve, io.StringIO())
    assert failure == "ConservationError"
    assert latency >= 0


def test_oracle_check_flags_mismatch():
    class Dist:
        class collapsed:
            weights = (Fraction(1, 2), Fraction(1, 2))

    assert workloads.oracle_check((True, Dist)) is None
    assert workloads.oracle_check((False, Dist)) == "mismatch"


# -- inputs and the benchmark definition


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(tmp_path, name):
    a = workloads.build(name, 3, tmp_path, None)
    b = workloads.build(name, 3, tmp_path, None)
    assert [s.key for s in a.solves] == [s.key for s in b.solves]
    assert {p: f() for p, f in a.inputs.items()} == {p: f() for p, f in b.inputs.items()}


def test_every_seedable_key_has_a_reference(tmp_path):
    refs = json.loads((HERE / "references.json").read_text())
    for name in ("exact-many-points", "sampled", "sip-pipeline"):
        for solve in workloads.build(name, None, tmp_path, None).solves:
            assert solve.key in refs["outputs"], solve.key


def test_combo_count_matches_the_engine():
    ks = [3, 4, 2, 5]
    uset = uqgeom.model.load_point_set(
        json.dumps(
            {
                "dimension": 2,
                "model": "indecisive",
                "points": [
                    {"locations": [[float(i), float(j)] for j in range(k)], "weights": ["1/%d" % k] * k}
                    for i, k in enumerate(ks)
                ],
            }
        )
    )
    prep = uqgeom.exact._Prepared(uset, MeasureId("seb2"))
    assert workloads.combo_count(ks, 3) == prep.combo_count()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
