"""One integer rule, ``quantize._integer``, at every count, size and seed
the library takes: each site gets every hostile value of ``_HOSTILE``.

A call must either refuse the value at the call (``ValueError``, which
``ValidationError`` is, or ``ResourceCapError``) before anything is drawn,
discretized or rasterized, or succeed with the result of the call with
``int(value)``, storing a Python int.  The values accepted are a numpy
integer, zero where the least value is 0, and 2**63 and 2**64, which go
only to constructors that store them and to sites whose cap refuses
them.  None goes only where it is not the default.  A raster grid given
as a scalar, or of other than two entries, is refused by the one sequence
rule, ``quantize._sequence``."""

import math
import re

import numpy as np
import pytest

import uqgeom.discretize as discretize_mod
import uqgeom.montecarlo as mc
import uqgeom.sip as sip_mod
from uqgeom import (
    ContinuousUncertainSet,
    CylinderConfig,
    ExperimentConfig,
    GaussianPoint,
    MeasureId,
    Quantization1D,
    ResourceCapError,
    SampleBudget,
    SipField,
    UniformDiskPoint,
    build_eda_kernel,
    build_kvariate_quantization,
    build_quantization,
    build_random_sip,
    cylinder_uncertain_set,
    discretize_for_measure,
    fit_sample_constant,
    rasterize_sip,
    save_point_set,
    trial_rng,
)
from uqgeom.measures import combinatorial_dimension
from uqgeom.montecarlo import sampled_values
from uqgeom.sip import DISK, check_window

from conftest import random_indecisive

_HOSTILE = {
    "True": True,
    "False": False,
    "np.True_": np.True_,
    "1.5": 1.5,
    "2.0": 2.0,
    "np.float64(2.0)": np.float64(2.0),
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0": 0,
    "-1": -1,
    "np.int64(3)": np.int64(3),
    "2**63": 2**63,
    "2**64": 2**64,
    "'3'": "3",
    "None": None,
}
_BIG = ("2**63", "2**64")

_USET = random_indecisive(np.random.default_rng(51), 3, 2)
_CSET = ContinuousUncertainSet(
    (GaussianPoint([0.0, 0.0], [[1.0, 0.2], [0.2, 0.5]]), UniformDiskPoint([1.0, 0.5], 0.7)), 2
)
_SEB2, _DIAMETER = MeasureId("seb2"), MeasureId("diameter")
_BUDGET = SampleBudget(0.2, 0.2, explicit_m=4)
_FIELD = SipField.from_arrays(DISK, [(0.5, 0.5, 0.3), (0.2, 0.5, 0.3)], [0.5, 0.25])
_DEVIATIONS = np.linspace(0.05, 0.4, 8)


def _config(**given):
    kwargs = {"m_values": (1,), "eta": 2**66, "tau": 1, "seed": 0, **given}
    return ExperimentConfig(CylinderConfig(n=2), (_DIAMETER,), **kwargs)


def _experiment(config):
    return (*config.m_values, config.eta, config.tau, config.seed), ()


def _exact(made):
    return (made.denominator,), (made.numerators.dtype.str, made.numerators.tolist())


def _budget(budget):
    return (budget.explicit_m, budget.m), ()


def _raster(raster):
    return (), (raster.values.shape, raster.values.tobytes())


def _values(array):
    return (), np.asarray(array).tobytes()


_WINDOW = (0.0, 0.0, 1.0, 1.0)


def _discretized(v):
    return (), save_point_set(discretize_for_measure(_CSET, MeasureId("aabb_perimeter"), 0.5, points_per_point=v))


# Site name -> (least value, what 2**63 and 2**64 do there: "stored" by
# a constructor, refused by a "cap", or None where they are not given,
# whether None is its default, call).  A call returns the ints it stored
# and a result to compare.
_SITES = {
    "from_numerators denominator": (
        1, "stored", False, lambda v: _exact(Quantization1D.from_numerators([0.0], [v], v))
    ),
    "from_arrays denominator": (
        1, "stored", False, lambda v: _exact(SipField.from_arrays(DISK, [(0.0, 0.0, 1.0)], None, [v], v))
    ),
    "explicit_m": (1, "stored", True, lambda v: _budget(SampleBudget(0.1, 0.1, explicit_m=v))),
    "m_values": (1, "stored", False, lambda v: _experiment(_config(m_values=(v,)))),
    "eta": (1, "stored", False, lambda v: _experiment(_config(eta=v))),
    "tau": (1, "stored", False, lambda v: _experiment(_config(tau=v))),
    "experiment seed": (0, "stored", False, lambda v: _experiment(_config(seed=v))),
    "cylinder n": (1, "stored", False, lambda v: ((CylinderConfig(n=v).n,), ())),
    "grid width": (1, "cap", False, lambda v: _raster(rasterize_sip(_FIELD, (v, 2), _WINDOW))),
    "grid height": (1, "cap", False, lambda v: _raster(rasterize_sip(_FIELD, (2, v), _WINDOW))),
    "points_per_point": (1, "cap", True, _discretized),
    "trial_rng seed": (0, "stored", False, lambda v: ((), trial_rng(v, 7).bit_generator.state)),
    "trial_rng key": (0, "stored", False, lambda v: ((), trial_rng(7, 1, v).bit_generator.state)),
    "cylinder seed": (
        0, None, False, lambda v: _values(cylinder_uncertain_set(CylinderConfig(n=2), v).points[1].mean)
    ),
    "combinatorial_dimension dimension": (1, "stored", False, lambda v: ((combinatorial_dimension(_SEB2, v),), ())),
    "sampled_values count": (0, "cap", False, lambda v: _values(sampled_values(_USET, [_SEB2], 0, v))),
    "sampled_values seed": (0, None, False, lambda v: _values(sampled_values(_USET, [_SEB2], v, 4))),
    "sampled_values tag": (0, None, False, lambda v: _values(sampled_values(_USET, [_SEB2], 0, 4, (2, v)))),
    "build_quantization seed": (
        0, None, False, lambda v: _values(build_quantization(_USET, _SEB2, _BUDGET, v).values)
    ),
    "build_kvariate_quantization seed": (
        0, None, False,
        lambda v: _values(build_kvariate_quantization(_USET, [_SEB2, _DIAMETER], _BUDGET, v).values),
    ),
    "build_eda_kernel seed": (
        0, None, False, lambda v: _values(np.concatenate(build_eda_kernel(_USET, 0.2, _BUDGET, v)))
    ),
    "build_random_sip seed": (
        0, None, False, lambda v: _values(build_random_sip(_USET, _SEB2, _BUDGET, v).params)
    ),
    "fit m": (1, None, False, lambda v: ((), fit_sample_constant({v: _DEVIATIONS, 8: _DEVIATIONS / 2.0}).c)),
}

_CASES = [
    (site, name)
    for site, (_, big, none_default, _) in _SITES.items()
    for name in _HOSTILE
    if (big or name not in _BIG) and not (none_default and name == "None")
]


def _accepted(name, least, big):
    return name == "np.int64(3)" or (name in _BIG and big == "stored") or (name == "0" and least == 0)


def _not_reached(*args, **kwargs):
    raise AssertionError("work began before the value was checked")


@pytest.mark.parametrize("site, name", _CASES, ids=[f"{site}-{name}" for site, name in _CASES])
def test_one_integer_rule_at_every_count_size_and_seed(site, name, monkeypatch):
    least, big, _, call = _SITES[site]
    value = _HOSTILE[name]
    if _accepted(name, least, big):
        stored, got = call(value)
        want_stored, want = call(int(value))
        assert got == want and stored == want_stored
        assert all(type(v) is int for v in stored)
        return
    for module, attr in ((mc, "draw_supports"), (discretize_mod, "_lattice_sample"), (sip_mod, "_disk_runs")):
        monkeypatch.setattr(module, attr, _not_reached)
    with pytest.raises(ResourceCapError if name in _BIG else ValueError):
        call(value)


@pytest.mark.parametrize("grid", [5, np.int64(5), (5,), (5, 5, 5)], ids=["5", "np.int64", "one entry", "three entries"])
@pytest.mark.parametrize("call", [lambda g: check_window(grid=g), lambda g: rasterize_sip(_FIELD, g, _WINDOW)],
                         ids=["check_window", "rasterize_sip"])
def test_a_grid_that_is_not_a_pair(grid, call, monkeypatch):
    monkeypatch.setattr(sip_mod, "_disk_runs", _not_reached)
    with pytest.raises(ValueError, match=f"^{re.escape(f'grid must be a sequence of 2 entries, got {grid!r}')}$"):
        call(grid)
