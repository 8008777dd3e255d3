"""Isoline extraction from SIP rasters via marching squares.

A gamma-isoline bounds the region where the field value is strictly
greater than gamma.  Contours are traced on the piecewise-linear
interpolation between raster cell centers; saddle cells are disambiguated
by the cell-center average.  For each level the 4-bit corner case of every
cell is computed as one array; only cells the contour crosses (case not 0
or 15) are visited, in row-major order, and their segments are chained
into polylines.
"""

from __future__ import annotations

import numpy as np

from .sip import Raster

__all__ = ["check_levels", "extract_isolines", "isolines_svg", "DEFAULT_LEVELS"]

DEFAULT_LEVELS = (0.1, 0.3, 0.5, 0.7, 0.9)


# Contour segments of a cell as pairs of crossed edges (bottom, right, top,
# left), by case index: bit 0 is the lower-left corner above the level, the
# other bits follow counter-clockwise.  Saddles (5, 10) are split by the
# cell-center average; indices 16 and 17 are saddles 5 and 10 whose average
# is above the level.
_B, _R, _T, _L = range(4)
_EDGE_PAIRS = (
    (), ((_L, _B),), ((_B, _R),), ((_L, _R),),
    ((_R, _T),), ((_L, _B), (_R, _T)), ((_B, _T),), ((_L, _T),),
    ((_T, _L),), ((_B, _T),), ((_B, _R), (_T, _L)), ((_T, _R),),
    ((_R, _L),), ((_B, _R),), ((_L, _B),), (),
    ((_L, _T), (_B, _R)), ((_T, _R), (_L, _B)),
)


def _segments_for_level(values: np.ndarray, xs: np.ndarray, ys: np.ndarray, level: float):
    """((x1, y1), (x2, y2)) contour segments of {value > level}: cells in
    row-major order, each cell's segments in ``_EDGE_PAIRS`` order."""
    above = (values > level).astype(np.uint8)
    case = above[:-1, :-1] | above[:-1, 1:] << 1 | above[1:, 1:] << 2 | above[1:, :-1] << 3
    ii, jj = np.nonzero((case != 0) & (case != 15))
    case = case[ii, jj]
    v00, v01 = values[ii, jj], values[ii, jj + 1]
    v11, v10 = values[ii + 1, jj + 1], values[ii + 1, jj]
    x0, x1, y0, y1 = xs[jj], xs[jj + 1], ys[ii], ys[ii + 1]
    center_above = 0.25 * (v00 + v01 + v11 + v10) > level
    case = np.where(((case == 5) | (case == 10)) & center_above, case // 5 + 15, case)

    def interp(vx0, vy0, v0, vx1, vy1, v1):
        t = (level - v0) / (v1 - v0)
        return list(zip((vx0 + t * (vx1 - vx0)).tolist(), (vy0 + t * (vy1 - vy0)).tolist()))

    # Edges oriented bottom->top / left->right so adjacent cells compute
    # bitwise-identical crossing points.  Every edge is interpolated for
    # every cell; an edge the contour does not cross may divide by zero,
    # and its point is never used.
    with np.errstate(divide="ignore", invalid="ignore"):
        edges = (
            interp(x0, y0, v00, x1, y0, v01),
            interp(x1, y0, v01, x1, y1, v11),
            interp(x0, y1, v10, x1, y1, v11),
            interp(x0, y0, v00, x0, y1, v10),
        )
    segs = []
    for k, c in enumerate(case.tolist()):
        for a, b in _EDGE_PAIRS[c]:
            segs.append((edges[a][k], edges[b][k]))
    return segs


def _chain(segments) -> list[np.ndarray]:
    """Stitch segments into polylines by matching shared endpoints."""
    adjacency: dict[tuple, list[int]] = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(a, []).append(idx)
        adjacency.setdefault(b, []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        a, b = segments[start]
        chain = [a, b]
        # Extend forward from b, then backward from a.
        for endpoint, append in ((b, True), (a, False)):
            current = endpoint
            while True:
                nxt = None
                for idx in adjacency.get(current, ()):
                    if not used[idx]:
                        nxt = idx
                        break
                if nxt is None:
                    break
                used[nxt] = True
                p, q = segments[nxt]
                current = q if p == current else p
                if append:
                    chain.append(current)
                else:
                    chain.insert(0, current)
        polylines.append(np.asarray(chain))
    return polylines


def check_levels(levels) -> tuple[float, ...]:
    """Levels as floats, each strictly inside (0, 1) (``ValueError``): the
    CLI's ``--levels`` before it builds a field, and each extraction's."""
    levels = tuple(float(v) for v in levels)
    for level in levels:
        if not (0.0 < level < 1.0):
            raise ValueError(f"isoline level {level} outside (0, 1)")
    return levels


def extract_isolines(raster: Raster, levels=DEFAULT_LEVELS) -> dict[float, list[np.ndarray]]:
    """Contours per level; each contour is an (m, 2) polyline (closed loops
    repeat their first point as last)."""
    levels = check_levels(levels)
    xs, ys = raster.cell_centers()
    out = {}
    for level in levels:
        segs = _segments_for_level(raster.values, xs, ys, level)
        out[level] = _chain(segs)
    return out


def isolines_svg(contours: dict[float, list[np.ndarray]], bounds) -> str:
    """Minimal SVG rendering; viewBox equals the raster bounds (y flipped
    into SVG's downward axis)."""
    x0, y0, x1, y1 = (float(v) for v in bounds)
    w, h = x1 - x0, y1 - y0
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:g} {y0:g} {w:g} {h:g}">',
    ]
    stroke_w = max(w, h) / 400.0
    for level in sorted(contours):
        lines.append(f'<g data-level="{level:g}" fill="none" stroke="black" stroke-width="{stroke_w:g}">')
        for poly in contours[level]:
            if len(poly) < 2:
                continue
            pts = " ".join(f"{p[0]:.8g},{(y0 + y1 - p[1]):.8g}" for p in poly)
            lines.append(f'<polyline points="{pts}"/>')
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
