"""Randomized engines: sampled quantizations, coresets, and SIP fields.

The common pattern: draw m supports (one location per uncertain point),
compute the statistic or summarizing shape of each, and keep the collection
as an empirical distribution: every 1-D answer, the width query of an
(eps, delta, alpha)-kernel included, is a sampled ``Quantization1D``.
With m = ceil(C (1/eps^2)(nu + ln(1/delta)))
samples the result is an eps-accurate answer with probability at least
1 - delta; the default constant C = 0.5 is an empirical fit (see
``uqgeom.harness.run_deviation_experiment``) and can be overridden.

Per-trial random streams are derived from the master seed by a counter-based
split, so trials can be evaluated in any order (or concurrently) with
bit-identical results.  Trial t's stream is ``trial_rng(seed, *tag, t)``;
the engines derive the seeds of a whole chunk of trials at once, with
numpy's ``SeedSequence`` hash written as array operations, and draw from
the same streams bit for bit.  Measures are evaluated once per chunk of
supports, on a stack of point sets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import _FRAME_SPAN_REL, _KERNEL_SLACK, as_points, unit_vector
from .measures import MeasureId, _check_input, _seb2_pivot, evaluate
from .model import (
    ContinuousUncertainSet,
    IndecisivePointSet,
    ResourceCapError,
    ValidationError,
    draw_supports,
)
from .quantize import Quantization1D, QuantizationKD, simplify
from .sip import DISK, SipField, shape_kind

# Unused here; perfbench/layers.py patches these names on this module by getattr.
from .geometry import welzl_ball  # noqa: F401
from .model import sample_support  # noqa: F401

__all__ = [
    "SampleBudget",
    "trial_rng",
    "sampled_values",
    "build_quantization",
    "build_kvariate_quantization",
    "alpha_kernel",
    "directional_width",
    "build_eda_kernel",
    "query_eda_kernel",
    "build_random_sip",
]


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for one master seed and one spawn
    key: ``trial_rng(seed, t)`` is trial t's stream, and a longer key such
    as ``(tag, t)`` names trial t of a separately tagged family of draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Trials whose seeds are hashed together.
_STREAM_CHUNK = 1024
# Supports drawn, and evaluated, together: about _CHUNK_CELLS cells (256 KB
# of float64) in the largest per-support temporary.  The planar pivot
# search pays its per-round numpy overhead once per stack: on 2-D sets of
# 50 points (a 2-core Xeon) a support cost 23.8 us in stacks of 81 rows
# (8192 cells), 15.8 us in stacks of 327 (this budget) and 14.6 us in
# stacks of 655, for twice the memory again.
_CHUNK_CELLS = 32_768


def _words(value: int) -> list[int]:
    """A non-negative integer as little-endian 32-bit words, at least one:
    how ``SeedSequence`` turns an integer into entropy."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32 column of init * mult**i mod 2**32."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    # The running hash constant steps by its multiplier between the xor
    # and the product; ``before`` and ``after`` are its two values.
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.generate_state(4, np.uint64)`` of many sequences at
    once: column j of ``entropy``, (words, rows) uint32 with at least four
    words, is the assembled entropy of sequence j.  Returns (rows, 4)
    uint64.  Every step is numpy's own, in its order; a step that numpy
    applies to each pool word in turn with a fresh hash constant is one
    array operation over the pool words here."""
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (len(entropy) - 4))
    pool = _hashmix(entropy[:4], a[0:4], a[1:5])
    j = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j : j + 3], a[j + 1 : j + 4]))
        j += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, a[j : j + 4], a[j + 1 : j + 5]))
        j += 4
    b = _hash_constants(_INIT_B, _MULT_B, 8)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], b[:8], b[1:])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def _stream_states(seed: int, tag: tuple[int, ...], start: int, stop: int):
    """Yield, in chunks of at most ``_STREAM_CHUNK`` trials, the (rows, 4)
    states ``SeedSequence(entropy=seed, spawn_key=(*tag, t))
    .generate_state(4, np.uint64)`` of trials t = start, ..., stop - 1."""
    # One real SeedSequence, so that invalid seeds and tags raise as
    # trial_rng's would.
    np.random.SeedSequence(entropy=seed, spawn_key=tag)
    # With a spawn key the seed words are padded to the pool size.
    prefix = _words(seed)
    prefix += [0] * (4 - len(prefix))
    for key in tag:
        prefix += _words(key)
    while start < stop:
        # A chunk holds counters of one word count.
        width = len(_words(start))
        end = min(stop, start + _STREAM_CHUNK, 1 << (32 * width))
        t = np.arange(start, end, dtype=np.uint64)
        entropy = np.empty((len(prefix) + width, end - start), dtype=np.uint32)
        entropy[: len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None]
        for i in range(width):
            entropy[len(prefix) + i] = (t >> np.uint64(32 * i)) & np.uint64(_MASK32)
        yield _seed_states(entropy)
        start = end


@functools.cache
def _seed_state_type() -> type:
    """An ``ISeedSequence`` that hands one precomputed state to a bit
    generator.  It has no ``spawn``, so a generator built on it must not be
    offered to code that spawns child streams.  Defined on first use:
    importing ``numpy.random`` along with uqgeom raised the peak RSS of
    benchmark runs by 0.2-0.65 MB, even of runs that never sample."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedState(ISeedSequence):
        __slots__ = ("_state",)

        def __init__(self, state: np.ndarray):
            self._state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self._state

    return SeedState


def _support_stacks(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    seed: int,
    count: int,
    tag: tuple[int, ...] = (),
):
    """Locations of ``count`` sampled supports, in order, as (rows, n, d)
    stacks of at most ``_chunk_rows(uset, ())`` supports (and of at most
    the ``_STREAM_CHUNK`` trials whose seeds are hashed together); support
    t is drawn from the stream of ``trial_rng(seed, *tag, t)``, so it does
    not depend on the order in which trials are consumed.

    Drawing a stack holds, per support, its generator (under 1 KB), its n
    uniform draws and n candidate indices, and its n x d locations, while
    the caller may still hold the last stack.  The generators are dropped
    before the stack is yielded."""
    seed_state = _seed_state_type()
    rows = _chunk_rows(uset, ())
    for states in _stream_states(seed, tag, 0, count):
        for start in range(0, len(states), rows):
            yield draw_supports(
                uset, [np.random.Generator(np.random.PCG64(seed_state(s))) for s in states[start : start + rows]]
            )[0]


def _chunk_rows(uset: IndecisivePointSet | ContinuousUncertainSet, measures) -> int:
    """Supports per chunk of ``measures``: about ``_CHUNK_CELLS`` cells of
    the largest per-support temporary, diameter's n x n x d difference
    tensor, or else the n x d points.  The one rule sizes both the support
    stacks (``measures`` empty) and every measure's chunk of them."""
    cells = uset.n * uset.dimension
    if any(m.kind == "diameter" for m in measures):
        cells *= uset.n
    return max(1, _CHUNK_CELLS // cells)


def sampled_values(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    measures: list[MeasureId] | tuple[MeasureId, ...],
    seed: int,
    count: int,
    tag: tuple[int, ...] = (),
) -> np.ndarray:
    """(count, len(measures)) array of measure values over ``count`` sampled
    supports; support t is drawn from ``trial_rng(seed, *tag, t)``.  Each
    measure is evaluated once per chunk of supports, chunked by its own
    temporary (:func:`_chunk_rows`); a set's value does not depend on the
    chunk.  So planar seb2 solves a whole support stack in one pivoting
    search (327 sets of 50 points at the budget), and diameter takes the
    same sets a few at a time (6 of 50 points)."""
    values = np.empty((count, len(measures)))
    rows = [_chunk_rows(uset, (measure,)) for measure in measures]
    done = 0
    for stack in _support_stacks(uset, seed, count, tag):
        for c, measure in enumerate(measures):
            for start in range(0, len(stack), rows[c]):
                part = stack[start : start + rows[c]]
                values[done + start : done + start + len(part), c] = evaluate(measure, part)
        done += len(stack)
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
        if not (1.0 <= self.nu < math.inf):
            raise ValueError("nu must be finite and at least 1")
        if not (0.0 < self.constant_c < math.inf):
            raise ValueError("constant_c must be finite and positive")
        if self.explicit_m is not None:
            if self.explicit_m < 1:
                raise ValueError("explicit_m must be at least 1")
        elif not math.isfinite(self._raw_m()):
            raise ValueError(
                "the sample count C (nu + ln(1/delta)) / epsilon^2 is not finite at "
                f"epsilon={self.epsilon:g}, constant_c={self.constant_c:g}, nu={self.nu:g}"
            )

    def _raw_m(self) -> float:
        eps2 = self.epsilon**2
        if eps2 == 0.0:  # epsilon^2 underflows
            return math.inf
        return self.constant_c * (self.nu + math.log(1.0 / self.delta)) / eps2

    @property
    def m(self) -> int:
        if self.explicit_m is not None:
            return self.explicit_m
        return max(1, math.ceil(self._raw_m()))

    def kvariate(self, k: int) -> SampleBudget:
        """The budget of a k-variate quantization: nu = k."""
        return replace(self, nu=float(k))


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
    return QuantizationKD(sampled_values(uset, measures, seed, budget.kvariate(len(measures)).m))


# --------------------------------------------------------------------------
# alpha-kernels


@functools.lru_cache(maxsize=64)
def _direction_net(count: int, dim: int) -> np.ndarray:
    """``count`` unit directions spread over a half circle (d = 2) or a
    hemisphere; built once per (count, dim) and returned read-only."""
    if dim == 2:
        theta = np.pi * np.arange(count) / count
        net = np.column_stack([np.cos(theta), np.sin(theta)])
    else:
        # Fibonacci hemisphere; widths are symmetric under u -> -u.
        i = np.arange(count) + 0.5
        z = i / count
        phi = i * math.pi * (3.0 - math.sqrt(5.0))
        s = np.sqrt(1.0 - z * z)
        net = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    net.setflags(write=False)
    return net


def verification_net(dim: int) -> np.ndarray:
    """Direction net used for hard kernel-guarantee checks (720 directions
    in the plane); read-only and shared between calls."""
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
    span = np.where(span > _FRAME_SPAN_REL * max(norm, 1.0), span, 1.0)
    return local / span


# The most directions an alpha-kernel is built from; each support projects
# onto all of them at once.
_DIRECTIONS_CAP = 65_536


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
    count = 4.0 / alpha ** ((d - 1) / 2.0)
    if not count <= _DIRECTIONS_CAP:
        raise ResourceCapError(
            f"an alpha-kernel at alpha={alpha:g} in {d}-D takes {count:g} directions, exceeding the "
            f"cap of {_DIRECTIONS_CAP}; rerun with a larger --alpha"
        )
    count = math.ceil(count)
    normalized = _normalized_frame(pts)
    while True:
        idx = _extreme_indices(normalized, _direction_net(count, d))
        kernel = pts[idx]
        widths_k = directional_width(kernel, net)
        if np.all(widths_full - widths_k <= alpha * widths_full + _KERNEL_SLACK):
            return kernel
        if count >= len(net):
            return pts.copy()
        count *= 2


def build_eda_kernel(
    uset: IndecisivePointSet | ContinuousUncertainSet,
    alpha: float,
    budget: SampleBudget,
    seed: int,
) -> tuple[np.ndarray, ...]:
    """An (eps, delta, alpha)-kernel: m sampled supports, each reduced to an
    (alpha/2)-kernel, in trial order.  ``alpha`` must lie in (0, 1); it is
    checked before any support is drawn."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    return tuple(
        alpha_kernel(pts, alpha / 2.0) for stack in _support_stacks(uset, seed, budget.m) for pts in stack
    )


def kernel_direction(direction, d: int) -> np.ndarray:
    """The unit query direction of a d-dimensional kernel, else refused."""
    u = unit_vector(direction, "direction")
    if len(u) != d:
        raise ValidationError(f"direction has dimension {len(u)}, the kernel has dimension {d}")
    return u


def query_eda_kernel(kernels: tuple[np.ndarray, ...], direction) -> Quantization1D:
    """Sampled width quantization in the query direction: each kernel's
    width, weight 1/m.  With probability at least 1 - delta its CDF is
    within eps of the true width CDF, up to a relative alpha perturbation
    of the width axis."""
    u = kernel_direction(direction, kernels[0].shape[1])
    projections = [k @ u for k in kernels]
    return Quantization1D.from_samples([float(p.max() - p.min()) for p in projections])


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
    rectangles.

    The field is filled in its array form, with float weights 1/m and no
    exact numerators: per chunk of stacked supports, one pivoting search
    for the disks (``measures._seb2_pivot``, so each radius has the bits of
    ``evaluate(seb2, support)``), or one min/max for rectangles."""
    kind = shape_kind(measure)
    if uset.dimension != 2:
        raise ValidationError("randomized SIP supports d=2 only")
    m = budget.m
    params = np.zeros((m, 3 if kind == DISK else 4))
    done = 0
    for stack in _support_stacks(uset, seed, m):
        # The sampled coordinates pass the measure's input check, as in evaluate.
        _check_input(measure, stack)
        if kind == DISK:
            params[done : done + len(stack)] = _seb2_pivot(stack)
        else:
            params[done : done + len(stack)] = np.hstack([stack.min(axis=1), stack.max(axis=1)])
        done += len(stack)
    return SipField.from_arrays(kind, params, np.full(m, 1.0 / m))
