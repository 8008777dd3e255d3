import math
import tracemalloc
import warnings

import numpy as np
import pytest

from uqgeom import (
    ContinuousUncertainSet,
    CylinderConfig,
    ExperimentConfig,
    MeasureId,
    PointMassPoint,
    ResourceCapError,
    cylinder_uncertain_set,
    fit_sample_constant,
    run_deviation_experiment,
)
from uqgeom.harness import cylinder_axis_direction, read_deviation_csv


def test_cylinder_generator_geometry():
    cfg = CylinderConfig(n=40, length=10.0, radius=1.0, sigma=2.0)
    cset = cylinder_uncertain_set(cfg, seed=1)
    assert cset.n == 40 and cset.dimension == 3
    centers = np.array([p.mean for p in cset.points])
    assert np.allclose(np.hypot(centers[:, 0], centers[:, 1]), 1.0)
    assert centers[:, 2].min() >= 0.0 and centers[:, 2].max() <= 10.0
    assert np.allclose(cset.points[0].cov, 4.0 * np.eye(3))
    again = cylinder_uncertain_set(cfg, seed=1)
    assert np.array_equal(centers, np.array([p.mean for p in again.points]))


def test_cylinder_axis_direction():
    u = cylinder_axis_direction()
    assert [x.hex() for x in u] == ["0x1.ee8dd4748bf15p-1", "0x0.0p+0", "0x1.0907dc1930690p-2"]
    assert abs(np.linalg.norm(u) - 1.0) < 1e-12
    assert abs(math.degrees(math.acos(u[2])) - 75.0) < 1e-9


def test_fit_recovers_synthetic_constant(rng):
    """Deviations drawn exactly from the model delta = exp(nu - m eps^2 / C)
    with C = 0.5, nu = 1 are recovered within 1%."""
    c_true, nu = 0.5, 1.0
    tables = {}
    for m in (16, 64, 256, 1024):
        u = rng.random(50_000)
        tables[m] = np.sqrt(c_true * (nu - np.log(u)) / m)
    fit = fit_sample_constant(tables, nu=nu)
    assert not fit.degenerate
    assert abs(fit.c - c_true) / c_true <= 0.01
    assert fit.residual_norm < 0.05


def test_fit_requires_two_m_values():
    with pytest.raises(ValueError, match="2 distinct m"):
        fit_sample_constant({16: np.array([0.1, 0.2])})


def test_fit_refuses_an_empty_deviation_table():
    # devs[-1] of an empty table once raised IndexError.
    with pytest.raises(ValueError, match="^the deviation table of m = 16 is empty$"):
        fit_sample_constant({16: np.array([]), 64: np.array([0.1, 0.2])})


def test_fit_degenerate_all_zero():
    fit = fit_sample_constant({16: np.zeros(10), 64: np.zeros(10)})
    assert fit.degenerate and math.isnan(fit.c)


@pytest.mark.parametrize("scale", [1e-200, 1e300])
def test_fit_degenerate_non_finite_slope(scale):
    # m * eps * eps underflows to 0 or overflows to inf, so the slope is
    # 0/0 or inf/inf.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_sample_constant({16: np.full(10, scale), 64: np.full(10, scale)})
    assert fit.degenerate and fit.note == "non-finite slope" and math.isnan(fit.c)


def test_experiment_point_mass_degenerate():
    cset = ContinuousUncertainSet(
        (PointMassPoint((0.0, 0.0, 0.0)), PointMassPoint((1.0, 0.0, 0.0))), 3
    )
    config = ExperimentConfig(
        generator=cset,
        measures=(MeasureId("dwid", (1, 0, 0)), MeasureId("diameter")),
        m_values=(8, 16),
        eta=200,
        tau=5,
        seed=0,
    )
    result = run_deviation_experiment(config)
    for q in result.deviations.values():
        assert np.all(q.values == 0.0)
    for fit in result.fits.values():
        assert fit.degenerate


def test_experiment_small_cylinder_and_csv(tmp_path):
    config = ExperimentConfig(
        generator=CylinderConfig(n=8, sigma=1.0),
        measures=(MeasureId("diameter"), MeasureId("seb2")),
        m_values=(16, 64),
        eta=1000,
        tau=12,
        seed=5,
    )
    result = run_deviation_experiment(config)
    # doubling m shifts deviations left (medians decrease)
    for mname in ("diameter", "seb2"):
        med16 = float(np.median(result.deviations[(mname, 16)].values))
        med64 = float(np.median(result.deviations[(mname, 64)].values))
        assert med64 <= med16
    files = result.write_csv(tmp_path)
    assert any(p.name == "fits.csv" for p in files)
    table_files = [p for p in files if p.name.startswith("deviation_diameter")]
    assert len(table_files) == 2
    back = read_deviation_csv([p for p in table_files if "m16" in p.name][0])
    orig = result.deviations[("diameter", 16)].values
    assert len(back) == len(orig)
    assert np.allclose(np.sort(back), np.sort(orig), atol=1e-12)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="eta"):
        ExperimentConfig(
            generator=CylinderConfig(),
            measures=(MeasureId("diameter"),),
            m_values=(64,),
            eta=100,
            tau=5,
        )
    with pytest.raises(ValueError, match="m_values must not be empty"):
        ExperimentConfig(CylinderConfig(), (MeasureId("diameter"),), ())


def test_experiment_refuses_past_the_sample_cap_before_the_set_is_built(monkeypatch):
    import uqgeom.harness as harness_mod
    import uqgeom.montecarlo as mc

    def fail(*args, **kwargs):
        raise AssertionError("the run started before its cap was checked")

    # The default experiment: 20 000 + 200 x (16 + 64 + 256 + 1024)
    # supports of 50 points, minutes of sampling.
    config = ExperimentConfig(CylinderConfig(), (MeasureId("diameter"),), (16, 64, 256, 1024))
    monkeypatch.setattr(harness_mod, "cylinder_uncertain_set", fail)
    monkeypatch.setattr(mc, "draw_supports", fail)
    monkeypatch.setattr(mc, "_SAMPLE_CAP", 14_599_999)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=(
            r"the run samples 292000 supports of 50 points, 14600000 points, exceeding the cap of 14599999; "
            r"rerun with fewer samples \(--eta, --tau or --m-values\)$"
        )):
            run_deviation_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
