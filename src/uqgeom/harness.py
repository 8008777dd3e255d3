"""Deviation experiment and sample-constant fitting.

Reproduces the calibration experiment behind the default sample budget: draw
quantizations of size m for several m, measure their sup-norm deviation from
a large reference quantization treated as ground truth, and fit the success
model 1 - delta = 1 - exp(-m eps^2 / C + nu) to recover the constant C
(about 0.5 in both the original measurement and this implementation).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .measures import MeasureId
from .model import ContinuousUncertainSet, GaussianPoint, IndecisivePointSet, ValidationError
from .montecarlo import _check_samples, sampled_values, trial_rng
from .quantize import Quantization1D, _integer, _real, max_deviation, quantization_to_csv

# Unused here; perfbench/layers.py patches both names on this module by getattr.
from .measures import evaluate  # noqa: F401
from .model import sample_support  # noqa: F401

__all__ = [
    "CylinderConfig",
    "ExperimentConfig",
    "ExperimentResult",
    "FitResult",
    "cylinder_uncertain_set",
    "run_deviation_experiment",
    "fit_sample_constant",
    "read_deviation_csv",
]


# The largest sigma whose square ``sigma ** 2``, the covariance's scale, is
# finite, about 1.34e154; above it libm ``pow`` overflows (OverflowError).
_MAX_SIGMA = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class CylinderConfig:
    """Gaussian-blurred points on the lateral surface of a cylinder."""

    n: int = 50
    length: float = 10.0
    radius: float = 1.0
    sigma: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "cylinder: n", 1))
        reals = (("length", "(-inf, inf)"), ("radius", "(-inf, inf)"), ("sigma", f"(0, {_MAX_SIGMA!r}]"))
        for name, interval in reals:
            object.__setattr__(self, name, _real(getattr(self, name), f"cylinder: {name}", interval))


@dataclass(frozen=True)
class ExperimentConfig:
    generator: CylinderConfig | IndecisivePointSet | ContinuousUncertainSet
    measures: tuple[MeasureId, ...]
    m_values: tuple[int, ...]
    eta: int = 20_000
    tau: int = 200
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        object.__setattr__(self, "m_values", tuple(_integer(m, "m", 1) for m in self.m_values))
        for name, least in (("eta", 1), ("tau", 1), ("seed", 0)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        if not self.m_values:
            raise ValueError("m_values must not be empty")
        # A repeated entry would be sampled again and merged into one table.
        names = [str(m) for m in self.measures]
        for label, items in (("measure {}", names), ("m={}", self.m_values)):
            if repeated := [x for i, x in enumerate(items) if x in items[:i]]:
                raise ValueError(label.format(repeated[0]) + " is listed twice")
        if self.eta < 2 * max(self.m_values):
            raise ValueError("eta must dominate the largest m (reference acts as ground truth)")


@dataclass(frozen=True)
class FitResult:
    c: float
    residual_norm: float
    nu: float
    degenerate: bool = False
    note: str = ""


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    deviations: dict  # (measure string, m) -> Quantization1D of d_inf values
    fits: dict  # measure string -> FitResult

    def write_csv(self, outdir) -> list[Path]:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for (mname, m), q in self.deviations.items():
            safe = mname.replace(":", "_").replace(",", "_").replace("-", "_")
            path = outdir / f"deviation_{safe}_m{m}.csv"
            path.write_text(quantization_to_csv(q))
            written.append(path)
        lines = ["measure,c,residual_norm,degenerate,note"]
        for mname, fit in self.fits.items():
            lines.append(
                f"{mname},{fit.c:.17g},{fit.residual_norm:.17g},{int(fit.degenerate)},{fit.note}"
            )
        fit_path = outdir / "fits.csv"
        fit_path.write_text("\n".join(lines) + "\n")
        written.append(fit_path)
        return written


def cylinder_uncertain_set(cfg: CylinderConfig, seed: int) -> ContinuousUncertainSet:
    """n isotropic 3-variate Gaussians centered uniformly on the cylinder's
    lateral surface."""
    rng = trial_rng(seed, 0xC71)
    cov = (cfg.sigma**2) * np.eye(3)
    points = []
    for _ in range(cfg.n):
        theta = 2.0 * math.pi * rng.random()
        z = cfg.length * rng.random()
        center = np.array([cfg.radius * math.cos(theta), cfg.radius * math.sin(theta), z])
        points.append(GaussianPoint(center, cov))
    return ContinuousUncertainSet(tuple(points), 3)


def cylinder_axis_direction() -> tuple[float, float, float]:
    """Unit direction making a 75-degree angle with the cylinder (z) axis."""
    return (math.sin(math.radians(75.0)), 0.0, math.cos(math.radians(75.0)))


def run_deviation_experiment(config: ExperimentConfig) -> ExperimentResult:
    """For each m: tau sampled quantizations, each compared (sup norm)
    against one eta-sample reference per measure; returns the deviation
    quantizations and the per-measure fitted constant."""
    gen = config.generator
    _check_samples(config.eta + config.tau * sum(config.m_values), gen.n, "--eta, --tau or --m-values")
    if isinstance(gen, CylinderConfig):
        uset = cylinder_uncertain_set(gen, config.seed)
    else:
        uset = gen
    measures = config.measures

    ref_values = sampled_values(uset, measures, config.seed, config.eta, (0,))
    references = {
        str(m): Quantization1D.from_samples(ref_values[:, c]) for c, m in enumerate(measures)
    }

    deviations: dict[tuple[str, int], Quantization1D] = {}

    for m_index, m in enumerate(config.m_values):
        all_devs = np.empty((config.tau, len(measures)))
        for trial in range(config.tau):
            tag = (1 + m_index * config.tau + trial,)
            values = sampled_values(uset, measures, config.seed, m, tag)
            for c, measure in enumerate(measures):
                r = Quantization1D.from_samples(values[:, c])
                all_devs[trial, c] = max_deviation(r, references[str(measure)])
        for c, measure in enumerate(measures):
            devs = all_devs[:, c]
            deviations[(str(measure), m)] = Quantization1D.from_samples(devs)

    fits = {}
    for mname in map(str, measures):
        try:
            fits[mname] = fit_sample_constant({m: deviations[(mname, m)].values for m in config.m_values})
        except ValueError as exc:
            fits[mname] = FitResult(math.nan, math.nan, _FIT_NU, degenerate=True, note=str(exc))
    return ExperimentResult(deviations, fits)


_DELTA_GRID = tuple(np.linspace(0.05, 0.6, 12))
# The nu of the fitted model unless one is given, also the nu of the
# experiment's fits, degenerate ones included.
_FIT_NU = 1.0


def fit_sample_constant(deviation_tables: dict[int, np.ndarray], nu: float = _FIT_NU) -> FitResult:
    """Least-squares fit of C in delta = exp(-m eps^2 / C + nu), nu fixed.

    ``deviation_tables`` maps each m to its tau sup-norm deviations.  For
    each failure probability delta of ``_DELTA_GRID``, eps is the
    empirical (1 - delta) quantile of the deviations; the fit is linear in
    log space: ln delta = nu - (m eps^2) / C.
    """
    ms = sorted(_integer(m, "m", 1) for m in deviation_tables)
    if len(ms) < 2:
        raise ValueError("need deviation tables for at least 2 distinct m values")
    xs = []
    ys = []
    for m in ms:
        devs = np.sort(np.asarray(deviation_tables[m], dtype=np.float64))
        tau = len(devs)
        if tau == 0:
            raise ValueError(f"the deviation table of m = {m} is empty")
        for delta in _DELTA_GRID:
            idx = min(tau - 1, max(0, math.ceil((1.0 - delta) * tau) - 1))
            eps = float(devs[idx])
            if eps <= 0.0:
                continue
            xs.append(m * eps * eps)
            ys.append(nu - math.log(delta))
    if not xs:
        return FitResult(math.nan, math.nan, nu, degenerate=True, note="all deviations are zero")
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    with np.errstate(all="ignore"):
        slope = float((xs * ys).sum() / (xs * xs).sum())
    if not math.isfinite(slope):
        return FitResult(math.nan, math.nan, nu, degenerate=True, note="non-finite slope")
    if slope <= 0:
        return FitResult(math.nan, math.nan, nu, degenerate=True, note="non-positive slope")
    c = 1.0 / slope
    residuals = xs / c - ys  # residuals of ln delta against the fitted model
    with np.errstate(over="ignore"):
        norm = float(np.sqrt((residuals**2).mean()))
    if norm == math.inf:
        # The squares overflowed (a huge nu): square relative to the largest.
        scale = float(np.abs(residuals).max())
        norm = scale * float(np.sqrt(((residuals / scale) ** 2).mean()))
    return FitResult(c, norm, nu)


# Most samples read_deviation_csv rebuilds from a table: weights w imply
# about 1/min(w) of them.  A table the experiment writes holds tau samples.
_MAX_TABLE_SAMPLES = 10**6


def read_deviation_csv(path) -> np.ndarray:
    """Deviation values from a CSV written by ExperimentResult.write_csv.

    A table that is empty, lacks a ``value`` or ``weight`` column, has no
    data rows, has a row without two numbers there, a value outside [0, 1]
    (a sup-norm distance between two CDFs cannot leave it), a non-finite or
    non-positive weight, or weights implying more than
    ``_MAX_TABLE_SAMPLES`` samples is refused with ValidationError."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines:
        raise ValidationError(f"{path}: empty deviation table")
    header = lines[0].split(",")
    if "value" not in header or "weight" not in header:
        raise ValidationError(f"{path}: a deviation table needs value and weight columns")
    if len(lines) == 1:
        raise ValidationError(f"{path}: no data rows")
    vi = header.index("value")
    wi = header.index("weight")
    values = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            v = float(parts[vi])
            w = float(parts[wi])
        except (IndexError, ValueError):
            raise ValidationError(f"{path}: line {number} needs a numeric value and weight") from None
        if not math.isfinite(v):
            raise ValidationError(f"{path}: line {number}: value must be finite, got {v!r}")
        if not (0.0 <= v <= 1.0):
            raise ValidationError(f"{path}: line {number}: value must lie in [0, 1], got {v!r}")
        if not (math.isfinite(w) and w > 0.0):
            raise ValidationError(f"{path}: line {number}: weight must be finite and positive, got {w!r}")
        values.append((v, w))
    # Reconstruct an (approximately) uniform sample list from the weights:
    # weight w stands for round(w * m) samples, m = round(1 / min(w)).
    m = 1.0 / min(w for _, w in values)
    if m > _MAX_TABLE_SAMPLES or sum(w for _, w in values) * round(m) > _MAX_TABLE_SAMPLES:
        raise ValidationError(
            f"{path}: the weights imply more than {_MAX_TABLE_SAMPLES} samples"
        )
    m = round(m)
    out = []
    for v, w in values:
        out.extend([v] * max(1, round(w * m)))
    return np.asarray(out)
