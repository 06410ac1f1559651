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


@dataclass
class GuidanceConfig:
    cruise_speed: float = 0.65     # m/s
    capture_radius: float = 2.0    # m
    max_yaw_rate: float = 0.5      # rad/s

    def validate(self):
        if self.cruise_speed <= 0 or self.capture_radius <= 0 or self.max_yaw_rate <= 0:
            raise ValueError("guidance parameters must be > 0")


@dataclass
class VehicleTruth:
    x: float
    y: float
    z: float
    yaw: float
    speed: float = 0.0


@dataclass
class LawnmowerPlan:
    waypoints: list[list[tuple[float, float]]]        # per AUV, ordered
    strip_bounds: list[tuple[float, float]]           # per AUV (y_low, y_high)
    track_spacing: float
    depth: float = 10.0

    def segments(self, auv: int) -> list[tuple[float, float, float, float]]:
        """Consecutive waypoint segments (ax, ay, bx, by) of one AUV's plan."""
        wps = self.waypoints[auv]
        return [(wps[i][0], wps[i][1], wps[i + 1][0], wps[i + 1][1])
                for i in range(len(wps) - 1)]


def default_track_spacing(L: float, n_auv: int) -> float:
    """One third of the strip height: 5 m at L=60 with four AUVs, scaled."""
    return (L / n_auv) / 3.0


def plan_lawnmower(L: float, n_auv: int, track_spacing: float | None = None,
                   depth: float = 10.0) -> LawnmowerPlan:
    """Build the per-AUV serpentine plans.

    Strip i spans y in [-L/2 + i*h, -L/2 + (i+1)*h] with h = L/n_auv; tracks
    sit at y = strip_low + j*spacing for j = 0..floor(h/spacing), so the
    strip edges carry tracks whenever the spacing divides the height.
    """
    if n_auv < 1:
        raise ValueError(f"n_auv must be >= 1 (got {n_auv})")
    if L <= 0:
        raise ValueError(f"L must be > 0 (got {L})")
    h = L / n_auv
    spacing = default_track_spacing(L, n_auv) if track_spacing is None else track_spacing
    if spacing > h + 1e-9:
        raise ValueError(f"track_spacing {spacing} exceeds strip height {h}")
    half = L / 2.0
    all_wps, bounds = [], []
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
        bounds.append((y0, y0 + h))
    return LawnmowerPlan(all_wps, bounds, spacing, depth)


def guidance_step(truth: VehicleTruth, estimate_xy, waypoints, wp_index: int,
                  cfg: GuidanceConfig, dt: float):
    """Waypoint guidance on the estimated position.

    Advances the waypoint index while the estimate is within the capture
    radius, then commands cruise speed and the bearing from the estimate to
    the current waypoint.  The yaw-rate limit is enforced by the truth
    integrator.  Returns (speed_cmd, yaw_cmd, wp_index).
    """
    ex, ey = float(estimate_xy[0]), float(estimate_xy[1])
    n = len(waypoints)
    while wp_index < n and math.hypot(waypoints[wp_index][0] - ex,
                                      waypoints[wp_index][1] - ey) <= cfg.capture_radius:
        wp_index += 1
    if wp_index >= n:
        return 0.0, truth.yaw, wp_index
    wx, wy = waypoints[wp_index]
    return cfg.cruise_speed, math.atan2(wy - ey, wx - ex), wp_index


def wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def advance_truth(truth: VehicleTruth, speed_cmd: float, yaw_cmd: float,
                  cfg: GuidanceConfig, dt: float, depth: float) -> VehicleTruth:
    """Slew the yaw toward the command and move the unicycle one tick."""
    err = wrap_angle(yaw_cmd - truth.yaw)
    max_step = cfg.max_yaw_rate * dt
    if err > max_step:
        err = max_step
    elif err < -max_step:
        err = -max_step
    truth.yaw = wrap_angle(truth.yaw + err)
    truth.speed = speed_cmd
    truth.x += speed_cmd * dt * math.cos(truth.yaw)
    truth.y += speed_cmd * dt * math.sin(truth.yaw)
    truth.z = depth
    return truth


def point_segment_distance(px: float, py: float, ax: float, ay: float,
                           bx: float, by: float) -> float:
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    if t <= 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def cross_track_error(true_xy, segments) -> float:
    """Distance from the true position to the nearest planned segment."""
    if not segments:
        raise ValueError("plan has no segments")
    px, py = float(true_xy[0]), float(true_xy[1])
    return min(point_segment_distance(px, py, ax, ay, bx, by)
               for ax, ay, bx, by in segments)
