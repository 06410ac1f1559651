"""Surface-vessel formation geometry and its acoustic coverage.

ASVs are station-kept at the vertices of a regular N-gon of radius
``R_f = r_hf + delta_b`` centred on the survey origin.  For a single ASV the
formation degenerates to the origin.  Coverage has one computation: the
exact worst point of the survey square, the largest nearest-ASV distance,
which decides full coverage.
"""

from __future__ import annotations

import math

import numpy as np


def asv_positions(n_asv: int, radius: float, alpha0: float) -> np.ndarray:
    """The ``(n_asv, 2)`` ASV positions on the regular N-gon of ``radius``
    from angle ``alpha0`` (the origin for a single ASV)."""
    if n_asv == 1:
        return np.zeros((1, 2))
    j = np.arange(n_asv)
    ang = alpha0 + 2.0 * math.pi * j / n_asv
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def worst_point(asv: np.ndarray, L: float) -> tuple[float, tuple[float, float]]:
    """Largest nearest-ASV distance over the survey square, and where it is.

    The nearest-ASV distance is convex on each Voronoi cell, so its maximum
    over the square lies at a vertex of a cell clipped to the square: a
    square vertex, a point where the bisector of two ASVs crosses the
    boundary, or a circumcentre of three ASVs inside the square (the
    largest-empty-circle result; Toussaint 1983, Preparata & Shamos 6.4).
    Evaluating every such candidate gives the maximum exactly; the square is
    fully covered iff it is <= r_hf.  A distance whose square overflows is
    inf, as it is to the run's range test.
    """
    a = asv.tolist()
    h = L / 2.0
    cands = [(h, h), (h, -h), (-h, h), (-h, -h)]
    for i, (ax, ay) in enumerate(a):
        for j in range(i + 1, len(a)):
            # bisector of ASVs i and j: nx*x + ny*y = c
            nx, ny = a[j][0] - ax, a[j][1] - ay
            try:
                c = (a[j][0] ** 2 + a[j][1] ** 2 - ax * ax - ay * ay) / 2.0
            except OverflowError:   # an anchor beyond 1e154 m: no crossing candidate
                c = math.nan
            for side in (h, -h):
                if ny != 0:
                    cands.append((side, (c - nx * side) / ny))
                if nx != 0:
                    cands.append(((c - ny * side) / nx, side))
            for k in range(j + 1, len(a)):
                bx, by, cx, cy = nx, ny, a[k][0] - ax, a[k][1] - ay
                d = 2.0 * (bx * cy - by * cx)
                if d != 0:
                    b2, c2 = bx * bx + by * by, cx * cx + cy * cy
                    cands.append((ax + (cy * b2 - by * c2) / d,
                                  ay + (bx * c2 - cx * b2) / d))
    pts = np.array(cands)
    # a crossing or circumcentre off the square is no candidate; one on its
    # boundary may sit a rounding error outside it, which the clip absorbs
    pts = np.clip(pts[(np.abs(pts) <= h * (1 + 1e-12)).all(axis=1)], -h, h)
    with np.errstate(over="ignore"):   # an overflowing distance is inf, as to the run
        d = np.linalg.norm(pts[:, None, :] - asv[None, :, :], axis=2).min(axis=1)
    w = int(np.argmax(d))
    return float(d[w]), (float(pts[w, 0]), float(pts[w, 1]))

