"""Randomized engines: sampled quantizations, coresets, and SIP fields.

The common pattern: draw m supports (one location per uncertain point),
compute the statistic or summarizing shape of each, and keep the collection
as an empirical distribution.  With m = ceil(C (1/eps^2)(nu + ln(1/delta)))
samples the result is an eps-accurate answer with probability at least
1 - delta; the default constant C = 0.5 is an empirical fit (see
``uqgeom.harness.run_deviation_experiment``) and can be overridden.

Per-trial random streams are derived from the master seed by a counter-based
split, so trials can be evaluated in any order (or concurrently) with
bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import as_points, welzl_ball
from .measures import MeasureId, evaluate
from .model import ContinuousUncertainSet, IndecisivePointSet, ValidationError, sample_support
from .quantize import EpsAlphaQuantization, Quantization1D, QuantizationKD, simplify
from .sip import DiskShape, RectShape, SipField

__all__ = [
    "SampleBudget",
    "trial_rng",
    "sampled_values",
    "build_quantization",
    "build_kvariate_quantization",
    "alpha_kernel",
    "directional_width",
    "verify_alpha_kernel",
    "EdaKernel",
    "build_eda_kernel",
    "query_eda_kernel",
    "build_random_sip",
]


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for one master seed and one spawn
    key: ``trial_rng(seed, t)`` is trial t's stream, and a longer key such
    as ``(tag, t)`` names trial t of a separately tagged family of draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _sampled_supports(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    seed: int,
    count: int,
    tag: tuple[int, ...] = (),
):
    """Locations of ``count`` sampled supports; support t is drawn from
    ``trial_rng(seed, *tag, t)``, so it does not depend on the order in
    which trials are consumed."""
    for t in range(count):
        yield sample_support(uset, trial_rng(seed, *tag, t)).locations


def sampled_values(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    measures: list[MeasureId] | tuple[MeasureId, ...],
    seed: int,
    count: int,
    tag: tuple[int, ...] = (),
) -> np.ndarray:
    """(count, len(measures)) array of measure values over ``count`` sampled
    supports; support t is drawn from ``trial_rng(seed, *tag, t)``."""
    values = np.empty((count, len(measures)))
    for t, locations in enumerate(_sampled_supports(uset, seed, count, tag)):
        for c, measure in enumerate(measures):
            values[t, c] = evaluate(measure, locations)
    return values


@dataclass(frozen=True)
class SampleBudget:
    """Sample-count policy m = ceil(C (1/eps^2)(nu + ln(1/delta))).

    ``nu`` is the VC/arity parameter of the query family (1 for univariate
    quantizations, k for k-variate, the dual shape dimension for SIP).
    ``explicit_m`` overrides the formula when set.
    """

    epsilon: float
    delta: float
    nu: float = 1.0
    constant_c: float = 0.5
    explicit_m: int | None = None

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        if self.nu < 1.0:
            raise ValueError("nu must be at least 1")
        if self.constant_c <= 0.0:
            raise ValueError("constant_c must be positive")
        if self.explicit_m is not None and self.explicit_m < 1:
            raise ValueError("explicit_m must be at least 1")

    @property
    def m(self) -> int:
        if self.explicit_m is not None:
            return self.explicit_m
        raw = self.constant_c * (self.nu + math.log(1.0 / self.delta)) / self.epsilon**2
        return max(1, math.ceil(raw))


def build_quantization(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    measure: MeasureId,
    budget: SampleBudget,
    seed: int,
    *,
    simplify_output: bool = False,
) -> Quantization1D:
    """Sampled quantization of the measure: m supports, one value each,
    uniform weights.  Any measure is allowed here, including diameter.

    With ``simplify_output`` the result is reduced to ceil(2/eps) evenly
    spaced quantiles (still an eps-quantization when the raw build was
    (eps/2)-accurate)."""
    q = Quantization1D.from_samples(sampled_values(uset, [measure], seed, budget.m)[:, 0])
    if simplify_output:
        q = simplify(q, budget.epsilon)
    return q


def build_kvariate_quantization(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    measures: list[MeasureId],
    budget: SampleBudget,
    seed: int,
) -> QuantizationKD:
    """k-variate sampled quantization; the effective budget uses nu = k."""
    if not measures:
        raise ValueError("need at least one measure")
    m = replace(budget, nu=float(len(measures))).m
    return QuantizationKD(sampled_values(uset, measures, seed, m), np.full(m, 1.0 / m))


# --------------------------------------------------------------------------
# alpha-kernels


def _direction_net(count: int, dim: int) -> np.ndarray:
    if dim == 2:
        theta = np.pi * np.arange(count) / count
        return np.column_stack([np.cos(theta), np.sin(theta)])
    # Fibonacci hemisphere; widths are symmetric under u -> -u.
    i = np.arange(count) + 0.5
    z = i / count
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def verification_net(dim: int) -> np.ndarray:
    """Direction net used for hard kernel-guarantee checks (720 directions
    in the plane)."""
    return _direction_net(720 if dim == 2 else 2000, dim)


def directional_width(pts: np.ndarray, directions: np.ndarray) -> np.ndarray:
    proj = pts @ directions.T
    return proj.max(axis=0) - proj.min(axis=0)


def _extreme_indices(pts: np.ndarray, directions: np.ndarray) -> np.ndarray:
    proj = pts @ directions.T
    return np.unique(np.concatenate([proj.argmax(axis=0), proj.argmin(axis=0)]))


def _normalized_frame(pts: np.ndarray) -> np.ndarray:
    """Affine image of the points that is fat: rotated so an approximate
    diameter lies on the x-axis, then scaled to a unit box per axis."""
    probe = _direction_net(16, pts.shape[1])
    ext = pts[_extreme_indices(pts, probe)]
    diff = ext[:, None, :] - ext[None, :, :]
    dist2 = (diff * diff).sum(axis=2)
    i, j = np.unravel_index(np.argmax(dist2), dist2.shape)
    axis = ext[j] - ext[i]
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        return np.zeros_like(pts)
    if pts.shape[1] == 2:
        c, s = axis[0] / norm, axis[1] / norm
        rot = np.array([[c, s], [-s, c]])
    else:
        a = axis / norm
        helper = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        b = np.cross(a, helper)
        b /= np.linalg.norm(b)
        rot = np.stack([a, np.cross(b, a), b])
    local = (pts - pts.mean(axis=0)) @ rot.T
    span = local.max(axis=0) - local.min(axis=0)
    span = np.where(span > 1e-12 * max(norm, 1.0), span, 1.0)
    return local / span


def alpha_kernel(points, alpha: float) -> np.ndarray:
    """Subset preserving every directional width within relative error alpha.

    Construction: extreme points along ceil(4 / alpha^((d-1)/2)) uniformly
    spread directions in an affinely normalized (fat) frame; the direction
    count is doubled until the guarantee verifies on the hard-check net, so
    every returned kernel actually satisfies the width bound there.
    """
    pts = as_points(points)
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    n, d = pts.shape
    if n <= 2:
        return pts.copy()
    net = verification_net(d)
    widths_full = directional_width(pts, net)
    count = math.ceil(4.0 / alpha ** ((d - 1) / 2.0))
    normalized = _normalized_frame(pts)
    while True:
        idx = _extreme_indices(normalized, _direction_net(count, d))
        kernel = pts[idx]
        widths_k = directional_width(kernel, net)
        if np.all(widths_full - widths_k <= alpha * widths_full + 1e-12):
            return kernel
        if count >= len(net):
            return pts.copy()
        count *= 2


def verify_alpha_kernel(pts: np.ndarray, kernel: np.ndarray, alpha: float) -> bool:
    net = verification_net(pts.shape[1])
    wf = directional_width(as_points(pts), net)
    wk = directional_width(as_points(kernel), net)
    return bool(np.all(wf - wk <= alpha * wf + 1e-12))


@dataclass(frozen=True, eq=False)
class EdaKernel:
    """Coreset of per-trial (alpha/2)-kernels: queries in any direction give
    width quantizations carrying both a probability error (epsilon) and a
    relative geometric error (alpha)."""

    kernels: tuple[np.ndarray, ...]
    alpha: float
    budget: SampleBudget

    @property
    def size(self) -> int:
        return sum(len(k) for k in self.kernels)


def build_eda_kernel(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    alpha: float,
    budget: SampleBudget,
    seed: int,
) -> EdaKernel:
    """m sampled supports, each reduced to an (alpha/2)-kernel."""
    kernels = tuple(alpha_kernel(pts, alpha / 2.0) for pts in _sampled_supports(uset, seed, budget.m))
    return EdaKernel(kernels, alpha, budget)


def query_eda_kernel(kernel: EdaKernel, direction) -> EpsAlphaQuantization:
    """Sorted kernel widths in the query direction."""
    u = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(u))
    if not norm > 0:
        raise ValueError("direction must be nonzero")
    d = kernel.kernels[0].shape[1]
    if len(u) != d:
        raise ValidationError(f"direction has dimension {len(u)}, the kernel has dimension {d}")
    u = u / norm
    projections = [k @ u for k in kernel.kernels]
    widths = np.array([float(p.max() - p.min()) for p in projections])
    return EpsAlphaQuantization(widths, kernel.alpha, kernel.budget.epsilon)


# --------------------------------------------------------------------------
# Randomized SIP


def build_random_sip(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    measure: MeasureId,
    budget: SampleBudget,
    seed: int,
) -> SipField:
    """Monte Carlo SIP: the summarizing shape of each of m sampled supports,
    uniformly weighted.  The minimum enclosing disk and the bounding box are
    unique optima, so the tie rule (pick uniformly among equally optimal
    shapes) never actually fires for these families.

    For disk shapes a dual VC parameter nu = 3 is appropriate; nu = 4 for
    rectangles."""
    if measure.kind not in ("seb2", "aabb_perimeter", "aabb_area"):
        raise ValueError("randomized SIP needs a disk or rectangle summarizing shape")
    if uset.dimension != 2:
        raise ValidationError("randomized SIP supports d=2 only")
    m = budget.m
    weight = 1.0 / m
    shapes = []
    for pts in _sampled_supports(uset, seed, m):
        if measure.kind == "seb2":
            ball = welzl_ball(pts)
            shapes.append((DiskShape(float(ball.center[0]), float(ball.center[1]), float(ball.radius)), weight))
        else:
            shapes.append(
                (
                    RectShape(
                        float(pts[:, 0].min()),
                        float(pts[:, 1].min()),
                        float(pts[:, 0].max()),
                        float(pts[:, 1].max()),
                    ),
                    weight,
                )
            )
    return SipField.from_shapes(shapes)
