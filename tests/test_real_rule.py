"""One real-number rule, ``quantize._real``, at every scalar real the
library takes: each site gets every hostile value of ``_HOSTILE``, each
finite end of its interval, an int inside it where there is one, and
``np.float32(0.5)`` and ``Fraction(1, 2)``.  Each sequence of reals,
given a scalar, is refused by the one sequence rule, ``quantize._sequence``.

A call must either refuse the value at the call, with the one ValueError
``<what> must be a real number in <interval>, got <value!r>``, before
anything is drawn, discretized or rasterized, or succeed with the result
of the call with ``float(value)``, storing a Python float.  The values
accepted are a closed finite end, the int inside, and 0.5 where the
interval holds it."""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import uqgeom.discretize as discretize_mod
import uqgeom.montecarlo as mc
import uqgeom.sip as sip_mod
from uqgeom import (
    ContinuousUncertainSet,
    CylinderConfig,
    GaussianPoint,
    MeasureId,
    Quantization1D,
    SampleBudget,
    SipField,
    UniformDiskPoint,
    build_eda_kernel,
    discretize_for_measure,
    distributions_match,
    exact_distribution,
    lattice_eps_sample,
    rasterize_sip,
    save_point_set,
    simplify,
)
from uqgeom.harness import _MAX_SIGMA
from uqgeom.isolines import check_levels
from uqgeom.montecarlo import alpha_kernel, kernel_direction
from uqgeom.sip import DISK, Raster, check_window

from conftest import random_indecisive

_HOSTILE = {
    "True": True,
    "False": False,
    "np.True_": np.True_,
    "'0.5'": "0.5",
    "None": None,
    "Decimal('0.5')": Decimal("0.5"),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "2**2000": 2**2000,
}
_HALVES = {"np.float32(0.5)": np.float32(0.5), "Fraction(1, 2)": Fraction(1, 2)}

_USET = random_indecisive(np.random.default_rng(54), 3, 2)
_CSET = ContinuousUncertainSet(
    (GaussianPoint([0.0, 0.0], [[1.0, 0.2], [0.2, 0.5]]), UniformDiskPoint([1.0, 0.5], 0.7)), 2
)
_SEB2 = MeasureId("seb2")
_EXACT = exact_distribution(_USET, _SEB2)
_BUDGET = SampleBudget(0.2, 0.2, explicit_m=4)
_FIELD = SipField.from_arrays(DISK, [(0.5, 0.5, 0.3), (0.2, 0.5, 0.3)], [0.5, 0.25])
_POINTS = np.random.default_rng(54).normal(size=(12, 2))
_SAMPLES = Quantization1D.from_samples(np.linspace(0.0, 1.0, 40))
_SIGMA = f"(0, {_MAX_SIGMA!r}]"


def _bytes(array):
    return (), np.asarray(array).tobytes()


def _raster(raster):
    return raster.bounds, raster.values.tobytes()


def _budget(name):
    def call(v):
        budget = SampleBudget(**{"epsilon": 0.1, "delta": 0.1, name: v})
        return (budget.epsilon, budget.delta, budget.nu, budget.constant_c), budget.m

    return call


# Site name -> (what, interval, an int inside the interval or None, call).
# A call returns the floats it stored and a result to compare.
_SITES = {
    "lattice_eps_sample eps": (
        "eps", "(0, 1)", None, lambda v: _bytes(lattice_eps_sample(_CSET.points[0], v).weights)
    ),
    "discretize_for_measure eps": (
        "eps", "(0, 1)", None,
        lambda v: ((), save_point_set(discretize_for_measure(_CSET, _SEB2, v, points_per_point=4))),
    ),
    "SampleBudget epsilon": ("epsilon", "(0, 1)", None, _budget("epsilon")),
    "SampleBudget delta": ("delta", "(0, 1)", None, _budget("delta")),
    "SampleBudget nu": ("nu", "[1, inf)", 2, _budget("nu")),
    "SampleBudget constant_c": ("constant_c", "(0, inf)", 2, _budget("constant_c")),
    "alpha_kernel alpha": ("alpha", "(0, 1)", None, lambda v: _bytes(alpha_kernel(_POINTS, v))),
    "build_eda_kernel alpha": (
        "alpha", "(0, 1)", None, lambda v: _bytes(np.concatenate(build_eda_kernel(_USET, v, _BUDGET, 3)))
    ),
    "simplify eps": ("eps", "(0, 1]", 1, lambda v: _bytes(simplify(_SAMPLES, v).values)),
    "UniformDiskPoint radius": (
        "radius", "(0, inf)", 2, lambda v: ((UniformDiskPoint([1.0, 0.5], v).radius,), ())
    ),
    "CylinderConfig length": (
        "cylinder: length", "(-inf, inf)", 2, lambda v: ((CylinderConfig(length=v).length,), ())
    ),
    "CylinderConfig radius": (
        "cylinder: radius", "(-inf, inf)", 2, lambda v: ((CylinderConfig(radius=v).radius,), ())
    ),
    "CylinderConfig sigma": ("cylinder: sigma", _SIGMA, 2, lambda v: ((CylinderConfig(sigma=v).sigma,), ())),
    "distributions_match tol": (
        "tolerance", "[0, inf)", 2, lambda v: ((), distributions_match(_EXACT, _EXACT, v))
    ),
    "check_levels level": ("isoline level", "(0, 1)", None, lambda v: (check_levels([0.25, v]), ())),
    "rasterize_sip bound": (
        "each bound", "(-inf, inf)", 2,
        lambda v: _raster(rasterize_sip(_FIELD, (3, 2), (v, 0.0, 3.0, 1.0))),
    ),
    "Raster bound": (
        "each bound", "(-inf, inf)", 2, lambda v: (Raster(np.zeros((2, 2)), (0.0, v, 3.0, 4.0)).bounds, ())
    ),
    "dwid direction entry": (
        "dwid direction entry", "(-inf, inf)", 2, lambda v: (MeasureId("dwid", (0.6, v)).direction, ())
    ),
    "kernel_direction entry": (
        "direction entry", "(-inf, inf)", 2, lambda v: _bytes(kernel_direction((v, 0.8), 2))
    ),
}


def _values(interval, inside):
    """Every value a site is given: the hostile ones, each finite end of
    its interval, its int inside and the halves, by name."""
    values = dict(_HOSTILE)
    for name, end in zip(("low end", "high end"), interval[1:-1].split(", ")):
        if not math.isinf(float(end)):
            values[name] = float(end)
    if inside is not None:
        values["int inside"] = inside
    return {**values, **_HALVES}


def _accepted(name, value, interval):
    if name in _HOSTILE:
        return False
    lo, hi = (float(end) for end in interval[1:-1].split(", "))
    x = float(value)
    return (lo < x or (x == lo and interval[0] == "[")) and (x < hi or (x == hi and interval[-1] == "]"))


_CASES = [
    (site, name)
    for site, (_, interval, inside, _) in _SITES.items()
    for name in _values(interval, inside)
]


def _not_reached(*args, **kwargs):
    raise AssertionError("work began before the value was checked")


@pytest.mark.parametrize("site, name", _CASES, ids=[f"{site}-{name}" for site, name in _CASES])
def test_one_real_rule_at_every_scalar_real(site, name, monkeypatch):
    what, interval, inside, call = _SITES[site]
    value = _values(interval, inside)[name]
    if _accepted(name, value, interval):
        stored, got = call(value)
        want_stored, want = call(float(value))
        assert got == want and stored == want_stored
        assert all(type(v) is float for v in stored)
        return
    for module, attr in (
        (mc, "draw_supports"), (mc, "_extreme_indices"), (discretize_mod, "_lattice_sample"), (sip_mod, "_disk_runs")
    ):
        monkeypatch.setattr(module, attr, _not_reached)
    message = f"{what} must be a real number in {interval}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)


# Each sequence of reals given the scalar 0.5 -> (what, its length or None, call).
_SEQUENCE_SITES = {
    "check_levels": ("isoline levels", None, check_levels),
    "check_window bounds": ("bounds", 4, lambda v: check_window(bounds=v)),
    "rasterize_sip bounds": ("bounds", 4, lambda v: rasterize_sip(_FIELD, (3, 2), v)),
    "Raster bounds": ("bounds", 4, lambda v: Raster(np.zeros((2, 2)), v)),
    "dwid direction": ("dwid direction", None, lambda v: MeasureId("dwid", v)),
    "kernel_direction": ("direction", None, lambda v: kernel_direction(v, 2)),
}


@pytest.mark.parametrize("site", _SEQUENCE_SITES)
@pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.array(0.5)], ids=["0.5", "np.float64", "0-d array"])
def test_a_scalar_where_a_sequence_of_reals_is_expected(site, value):
    what, length, call = _SEQUENCE_SITES[site]
    entries = "" if length is None else f" of {length} entries"
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be a sequence{entries}, got {value!r}')}$"):
        call(value)
