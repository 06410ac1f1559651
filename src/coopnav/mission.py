"""Lawnmower survey plans, waypoint guidance, and kinematic truth.

The survey square is split into equal-height horizontal strips, one per
AUV (index 0 takes the lowest strip).  Each strip is covered by east-west
tracks laid bottom-up at a fixed spacing, serpentine order, starting from
the east end of the lowest track.  Guidance steers from the *estimated*
position toward the current waypoint, which is what couples navigation
quality into cross-track error; the vehicle itself is a yaw-rate-limited
unicycle at constant cruise speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import param


@dataclass
class GuidanceConfig:
    cruise_speed: float = param(0.65, "mission", gt=0)    # m/s
    capture_radius: float = param(2.0, "mission", gt=0)   # m
    max_yaw_rate: float = param(0.5, "mission", gt=0)     # rad/s


@dataclass
class VehicleTruth:
    x: float
    y: float
    z: float
    yaw: float
    speed: float = 0.0


def default_track_spacing(L: float, n_auv: int) -> float:
    """One third of the strip height: 5 m at L=60 with four AUVs, scaled."""
    return (L / n_auv) / 3.0


def plan_lawnmower(L: float, n_auv: int,
                   track_spacing: float | None = None) -> list[list[tuple[float, float]]]:
    """Build the per-AUV serpentine plans: each AUV's ordered waypoints.

    Strip i spans y in [-L/2 + i*h, -L/2 + (i+1)*h] with h = L/n_auv; tracks
    sit at y = strip_low + j*spacing for j = 0..floor(h/spacing), so the
    strip edges carry tracks whenever the spacing divides the height.  ``L``,
    ``n_auv`` and the spacing are taken as ``SimConfig.validate`` bounds them.
    """
    h = L / n_auv
    spacing = default_track_spacing(L, n_auv) if track_spacing is None else track_spacing
    half = L / 2.0
    all_wps = []
    for i in range(n_auv):
        y0 = -half + i * h
        n_tracks = int(math.floor(h / spacing + 1e-9)) + 1
        ys = [y0 + j * spacing for j in range(n_tracks)]
        wps = []
        for j, y in enumerate(ys):
            if j % 2 == 0:
                wps.extend([(half, y), (-half, y)])
            else:
                wps.extend([(-half, y), (half, y)])
        all_wps.append(wps)
    return all_wps


def guidance_step(truth: VehicleTruth, estimate_xy, waypoints, wp_index: int,
                  cfg: GuidanceConfig):
    """Waypoint guidance on the estimated position.

    Advances the waypoint index while the estimate is within the capture
    radius, then commands cruise speed and the bearing from the estimate to
    the current waypoint.  The yaw-rate limit is enforced by the truth
    integrator.  Returns (speed_cmd, yaw_cmd, wp_index).
    """
    ex, ey = estimate_xy[0], estimate_xy[1]
    n = len(waypoints)
    while wp_index < n:
        wx, wy = waypoints[wp_index]
        dx, dy = wx - ex, wy - ey
        if math.hypot(dx, dy) <= cfg.capture_radius:
            wp_index += 1
        else:
            return cfg.cruise_speed, math.atan2(dy, dx), wp_index
    return 0.0, truth.yaw, wp_index


_PI = math.pi
_TWO_PI = 2.0 * math.pi


def advance_truth(truth: VehicleTruth, speed_cmd: float, yaw_cmd: float,
                  max_step: float, dt: float) -> tuple[float, float]:
    """Slew the yaw toward the command and move the unicycle one tick.

    ``max_step`` is the yaw-rate limit times ``dt``.  Both angles are wrapped
    into [-pi, pi) by ``(a + pi) % 2pi - pi``, which is not the identity even
    for small angles: it rounds to the spacing of doubles near pi.  Returns
    the cosine and sine of the new yaw.
    """
    yaw = truth.yaw
    err = (yaw_cmd - yaw + _PI) % _TWO_PI - _PI
    if err > max_step:
        err = max_step
    elif err < -max_step:
        err = -max_step
    truth.yaw = yaw = (yaw + err + _PI) % _TWO_PI - _PI
    truth.speed = speed_cmd
    c, s = math.cos(yaw), math.sin(yaw)
    step = speed_cmd * dt
    truth.x += step * c
    truth.y += step * s
    return c, s


def segment(ax: float, ay: float, bx: float,
            by: float) -> tuple[float, float, float, float, float]:
    """The segment from (ax, ay) to (bx, by) as ``point_segment_distance``
    takes it: (ax, ay, dx, dy, dx*dx + dy*dy)."""
    dx, dy = bx - ax, by - ay
    return ax, ay, dx, dy, dx * dx + dy * dy


def point_segment_distance(px: float, py: float, seg) -> float:
    """Distance from (px, py) to a ``segment``."""
    ax, ay, dx, dy, L2 = seg
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    if t <= 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))
