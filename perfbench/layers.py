"""Per-module spans for uqgeom and the per-layer metrics made from them.

The layers are uqgeom's modules.  :func:`install` wraps each public
function at the name its caller looks it up under; :func:`probe_enumeration`
times the separate ``enumerate_potential_bases`` call that splits exact-
engine time into enumeration and counting; :func:`layer_metrics` turns the
spans of the traced pass into layer figures.
"""

from __future__ import annotations

import uqgeom.cli
import uqgeom.discretize
import uqgeom.exact
import uqgeom.harness
import uqgeom.isolines
import uqgeom.measures
import uqgeom.montecarlo
import uqgeom.quantize
import uqgeom.sip
from uqgeom.model import IndecisivePointSet

from tracing import Tracer, self_times
from workloads import exact_combos

MODULES = (
    "cli", "model", "measures", "geometry", "quantize", "montecarlo",
    "exact", "discretize", "sip", "isolines", "harness",
)
EVALUATE_KINDS = ("seb2", "diameter", "dwid", "aabb_perimeter")

# Spans that count as engine time when cli.overhead_s is taken.
ENGINE_SPANS = {
    "exact.exact_distribution", "exact.brute_force", "exact.deterministic_sip",
    "discretize.discretize_for_measure", "sip.rasterize_sip", "isolines.extract_isolines",
    "montecarlo.build_quantization", "montecarlo.build_kvariate_quantization",
    "montecarlo.build_eda_kernel", "montecarlo.query_eda_kernel", "montecarlo.build_random_sip",
    "harness.run_deviation_experiment",
}

PER_LAYER = (
    [
        ("exact.exact_distribution.busy_s", "s", "lower"),
        ("exact.enumerate.busy_s", "s", "lower"),
        ("exact.count.busy_s", "s", "lower"),
        ("exact.combos", "count", "lower"),
        ("exact.bases_valid", "count", "lower"),
        ("exact.bases_nonzero", "count", "lower"),
        ("exact.valid_ratio", "ratio", "higher"),
        ("exact.nonzero_ratio", "ratio", "higher"),
        ("exact.brute_force.busy_s", "s", "lower"),
        ("exact.brute_force.supports", "count", "lower"),
        ("exact.distributions_match.busy_s", "s", "lower"),
        ("exact.conservation_errors", "count", "lower"),
        ("exact.mismatches", "count", "lower"),
        ("model.canonical_jitter.busy_s", "s", "lower"),
        ("model.sample_support.calls", "count", "lower"),
        ("model.sample_support.busy_s", "s", "lower"),
    ]
    + [
        (f"measures.evaluate.{kind}.{what}", unit, "lower")
        for kind in EVALUATE_KINDS
        for what, unit in (("calls", "count"), ("busy_s", "s"))
    ]
    + [
        ("geometry.welzl_ball.busy_s", "s", "lower"),
        ("montecarlo.supports_per_s", "1/s", "higher"),
        ("harness.run_deviation_experiment.busy_s", "s", "lower"),
        ("quantize.from_samples.busy_s", "s", "lower"),
        ("quantize.max_deviation.busy_s", "s", "lower"),
        ("quantize.to_csv.busy_s", "s", "lower"),
        ("discretize.discretize_for_measure.busy_s", "s", "lower"),
        ("discretize.candidates", "count", "lower"),
        ("exact.deterministic_sip.busy_s", "s", "lower"),
        ("exact.deterministic_sip.shapes", "count", "lower"),
        ("sip.rasterize_sip.busy_s", "s", "lower"),
        ("sip.shape_cells", "count", "lower"),
        ("sip.write_pgm.busy_s", "s", "lower"),
        ("isolines.extract_isolines.busy_s", "s", "lower"),
        ("isolines.cells", "count", "lower"),
        ("cli.overhead_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    + [(f"{module}.self_s", "s", "lower") for module in MODULES]
)


def _exact_counts(args, kwargs, result):
    uset, measure = args[0], args[1]
    if not isinstance(uset, IndecisivePointSet):
        return {}
    return {
        "uset": uset,
        "measure": measure,
        "combos": exact_combos(str(measure), [p.k for p in uset.points]),
        "nonzero": len(result.records) if result is not None and result.records else None,
    }


def _raster_counts(args, kwargs, result):
    w, h = (int(v) for v in args[1])
    return {"shape_cells": len(args[0].shapes) * w * h}


def _isoline_counts(args, kwargs, result):
    h, w = args[0].values.shape
    levels = args[1] if len(args) > 1 else kwargs.get("levels", uqgeom.isolines.DEFAULT_LEVELS)
    return {"cells": (h - 1) * (w - 1) * len(levels)}


def install(tracer: Tracer) -> None:
    """Wrap every traced uqgeom function; undo with ``tracer.restore()``."""
    wrap = tracer.wrap
    wrap(uqgeom.cli, "main", "cli.main")
    wrap(uqgeom.exact, "exact_distribution", "exact.exact_distribution", count=_exact_counts)
    wrap(
        uqgeom.exact, "brute_force_distribution", "exact.brute_force",
        count=lambda a, k, r: {"supports": a[0].support_count()},
    )
    wrap(uqgeom.exact, "distributions_match", "exact.distributions_match")
    wrap(
        uqgeom.exact, "deterministic_sip", "exact.deterministic_sip",
        count=lambda a, k, r: {"shapes": len(r.shapes)} if r is not None else {},
    )
    wrap(uqgeom.exact, "canonical_jitter", "model.canonical_jitter")
    wrap(
        uqgeom.cli, "discretize_for_measure", "discretize.discretize_for_measure",
        count=lambda a, k, r: {"candidates": sum(p.k for p in r.points)} if r is not None else {},
    )
    for owner in (uqgeom.cli, uqgeom.harness):
        wrap(owner, "quantization_to_csv", "quantize.to_csv")
    wrap(uqgeom.sip, "rasterize_sip", "sip.rasterize_sip", count=_raster_counts)
    wrap(uqgeom.sip, "write_pgm", "sip.write_pgm")
    wrap(uqgeom.isolines, "extract_isolines", "isolines.extract_isolines", count=_isoline_counts)
    for fn in ("build_quantization", "build_kvariate_quantization", "build_eda_kernel",
               "query_eda_kernel", "build_random_sip"):
        wrap(uqgeom.montecarlo, fn, f"montecarlo.{fn}")
    wrap(uqgeom.harness, "run_deviation_experiment", "harness.run_deviation_experiment")
    for owner in (uqgeom.montecarlo, uqgeom.harness):
        wrap(owner, "sample_support", "model.sample_support")
        wrap(owner, "evaluate", lambda a, k: f"measures.evaluate.{a[0].kind}")
    for owner in (uqgeom.measures, uqgeom.montecarlo, uqgeom.discretize):
        wrap(owner, "welzl_ball", "geometry.welzl_ball")
    wrap(uqgeom.quantize.Quantization1D, "from_samples", "quantize.from_samples")
    wrap(uqgeom.harness, "max_deviation", "quantize.max_deviation")


def probe_enumeration(tracer: Tracer) -> None:
    """For every exact_distribution span, time a separate
    enumerate_potential_bases call on the same input; its span carries the
    number of valid bases.  Run with the wrappers removed, so the probe adds
    no spans to the layers it calls."""
    todo = [s for s in tracer.spans if s.name == "exact.exact_distribution" and "uset" in s.attrs]
    for s in todo:
        tracer.solve = s.solve
        with tracer.span("exact.enumerate") as span:
            valid = sum(1 for _ in uqgeom.exact.enumerate_potential_bases(s.attrs["uset"], s.attrs["measure"]))
        span.attrs["valid"] = valid
        # Inputs are no longer needed once enumerated; drop them so the
        # spans can be written out.
        del s.attrs["uset"], s.attrs["measure"]
    tracer.solve = None


# Per-layer metric -> the span whose summed duration it is ...
BUSY = {
    f"{name}.busy_s": name
    for name in (
        "exact.exact_distribution", "exact.enumerate", "exact.brute_force",
        "exact.distributions_match", "model.canonical_jitter", "model.sample_support",
        "geometry.welzl_ball", "harness.run_deviation_experiment", "quantize.from_samples",
        "quantize.max_deviation", "quantize.to_csv", "discretize.discretize_for_measure",
        "exact.deterministic_sip", "sip.rasterize_sip", "sip.write_pgm",
        "isolines.extract_isolines", *(f"measures.evaluate.{kind}" for kind in EVALUATE_KINDS),
    )
}
# ... or the span attribute (``<span>.<attr>``) it sums.
COUNTS = {
    "exact.combos": "exact.exact_distribution.combos",
    "exact.bases_valid": "exact.enumerate.valid",
    "exact.bases_nonzero": "exact.exact_distribution.nonzero",
    "exact.brute_force.supports": "exact.brute_force.supports",
    "discretize.candidates": "discretize.discretize_for_measure.candidates",
    "exact.deterministic_sip.shapes": "exact.deterministic_sip.shapes",
    "sip.shape_cells": "sip.rasterize_sip.shape_cells",
    "isolines.cells": "isolines.extract_isolines.cells",
}


def layer_metrics(spans, solve_failures: dict[str, int]) -> dict[str, float]:
    """Layer figures from the spans of one traced pass over the solve list.

    ``busy_s`` is the time a layer's calls were in progress (children
    included); ``<module>.self_s`` sums the self time of the module's spans.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    cli_overhead = 0.0
    for s, own in zip(spans, self_times(spans)):
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            if isinstance(value, int | float) and not isinstance(value, bool):
                attrs[f"{s.name}.{key}"] = attrs.get(f"{s.name}.{key}", 0) + value
        module = s.name.split(".", 1)[0]
        if module in module_self and s.name != "exact.enumerate":  # the probe is not a layer
            module_self[module] += own
        if s.name == "cli.main":
            cli_overhead += s.duration
        elif s.name in ENGINE_SPANS and s.parent is not None and spans[s.parent].name == "cli.main":
            cli_overhead -= s.duration

    out = {metric: busy.get(name, 0.0) for metric, name in BUSY.items()}
    out.update({metric: attrs.get(key, 0) for metric, key in COUNTS.items()})
    out["exact.count.busy_s"] = out["exact.exact_distribution.busy_s"] - out["exact.enumerate.busy_s"]
    out["exact.conservation_errors"] = solve_failures.get("ConservationError", 0)
    out["exact.mismatches"] = solve_failures.get("mismatch", 0)
    out["model.sample_support.calls"] = calls.get("model.sample_support", 0)
    out["cli.overhead_s"] = cli_overhead
    for kind in EVALUATE_KINDS:
        out[f"measures.evaluate.{kind}.calls"] = calls.get(f"measures.evaluate.{kind}", 0)
    for module, value in module_self.items():
        out[f"{module}.self_s"] = value

    combos, valid = out["exact.combos"], out["exact.bases_valid"]
    out["exact.valid_ratio"] = valid / combos if combos else 0.0
    out["exact.nonzero_ratio"] = out["exact.bases_nonzero"] / valid if valid else 0.0
    sampling = sum(busy.get(n, 0.0) for n in ENGINE_SPANS if n.startswith(("montecarlo.", "harness.")))
    out["montecarlo.supports_per_s"] = out["model.sample_support.calls"] / sampling if sampling else 0.0
    return out


def self_time_table(spans) -> list[tuple[str, float, int]]:
    """(span name, total self time, calls), largest self time first."""
    table: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        row = table.setdefault(s.name, [0.0, 0])
        row[0] += own
        row[1] += 1
    return sorted(((k, v[0], v[1]) for k, v in table.items()), key=lambda r: -r[1])
