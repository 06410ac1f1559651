"""Surface-vessel formation geometry and acoustic coverage checks.

ASVs are station-kept at the vertices of a regular N-gon of radius
``R_f = r_hf + delta_b`` centred on the survey origin.  For a single ASV the
formation degenerates to the origin.  The module also provides the
corner-to-nearest-ASV distance, the closed-form minimum formation radius for
corner coverage, the exact worst-point distance that decides full coverage,
and a brute-force grid oracle for the coverage fraction.
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


def corner_distance(asv: np.ndarray, L: float) -> float:
    """Worst-corner nearest-ASV distance.

    For each of the four survey corners (+-L/2, +-L/2) take the distance to
    the nearest ASV, then return the maximum over corners: the binding corner
    that any coverage argument has to beat.
    """
    if len(asv) == 0:
        raise ValueError("layout must contain at least one ASV")
    h = L / 2.0
    corners = np.array([[h, h], [h, -h], [-h, h], [-h, -h]])
    d = np.linalg.norm(corners[:, None, :] - asv[None, :, :], axis=2)
    return float(d.min(axis=1).max())


def worst_point(asv: np.ndarray, L: float) -> tuple[float, tuple[float, float]]:
    """Largest nearest-ASV distance over the survey square, and where it is.

    The nearest-ASV distance is convex on each Voronoi cell, so its maximum
    over the square lies at a vertex of a cell clipped to the square: a
    square vertex, a point where the bisector of two ASVs crosses the
    boundary, or a circumcentre of three ASVs inside the square (the
    largest-empty-circle result; Toussaint 1983, Preparata & Shamos 6.4).
    Evaluating every such candidate gives the maximum exactly; the square is
    fully covered iff it is <= r_hf.
    """
    if len(asv) == 0:
        raise ValueError("layout must contain at least one ASV")
    a = asv.tolist()
    h = L / 2.0
    cands = [(h, h), (h, -h), (-h, h), (-h, -h)]
    for i, (ax, ay) in enumerate(a):
        for j in range(i + 1, len(a)):
            # bisector of ASVs i and j: nx*x + ny*y = c
            nx, ny = a[j][0] - ax, a[j][1] - ay
            c = (a[j][0] ** 2 + a[j][1] ** 2 - ax * ax - ay * ay) / 2.0
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
    d = np.linalg.norm(pts[:, None, :] - asv[None, :, :], axis=2).min(axis=1)
    w = int(np.argmax(d))
    return float(d[w]), (float(pts[w, 0]), float(pts[w, 1]))


def min_formation_radius(L: float, r_hf: float) -> float | None:
    """Closed-form ring radius from which an on-axis ASV reaches its near corners.

    Returns ``L/2 - sqrt(r_hf^2 - (L/2)^2)``, or None when ``r_hf < L/2`` and
    the closed form does not apply.  A non-positive value means any ring
    radius satisfies the corner constraint.
    """
    if L <= 0:
        raise ValueError(f"L must be > 0 (got {L})")
    if r_hf <= 0:
        raise ValueError(f"r_hf must be > 0 (got {r_hf})")
    half = L / 2.0
    if r_hf < half:
        return None
    return half - math.sqrt(r_hf * r_hf - half * half)


def coverage_fraction_grid(asv: np.ndarray, L: float, r_hf: float,
                           grid_step: float = 0.5) -> float:
    """Brute-force coverage oracle.

    Fraction of points on a boundary-inclusive grid over the survey square
    that lie within ``r_hf`` of at least one ASV.
    """
    if grid_step <= 0:
        raise ValueError(f"grid_step must be > 0 (got {grid_step})")
    n = int(math.ceil(L / grid_step - 1e-9)) + 1
    if n < 2:
        coords = np.array([0.0])
    else:
        coords = np.linspace(-L / 2.0, L / 2.0, n)
    gx, gy = np.meshgrid(coords, coords)
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d2 = ((pts[:, None, :] - asv[None, :, :]) ** 2).sum(axis=2)
    covered = (d2.min(axis=1) <= r_hf * r_hf)
    return float(covered.mean())
