"""Per-AUV dead reckoning and fixed-gain fix fusion.

Two estimates are kept side by side: ``p_imu`` integrates the biased, noisy
kinematics and is never corrected, while ``p_fused`` follows the same
propagation between fixes and absorbs 90% of the innovation whenever an
acoustic fix is applied.  Depth is not integrated at all: a pressure-sensor
reading replaces the vertical component of both estimates every tick.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .acoustic import FusedFix


@dataclass
class NavState:
    """Estimator state and constants for one AUV.  Positions are [x, y, z]."""

    p_imu: list[float]
    p_fused: list[float]
    bias: tuple[float, float] = (0.06, 0.06)   # body-frame velocity bias, m/s
    sigma: float = 0.027                       # step noise, m/sqrt(s)
    sigma_z: float = 0.05                      # depth sensor noise, m
    gamma: float = 0.90                        # fix correction gain

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError(f"gamma must be in (0, 1] (got {self.gamma})")
        if self.sigma < 0 or self.sigma_z < 0:
            raise ValueError("sigma and sigma_z must be >= 0")

    @classmethod
    def at(cls, x: float, y: float, z: float, **kw) -> "NavState":
        return cls(p_imu=[x, y, z], p_fused=[x, y, z], **kw)


@dataclass
class KinematicInput:
    """Ground-truth body-frame velocity and attitude for one tick."""

    v_body: tuple[float, float]
    psi: float
    dt: float
    z_true: float = 0.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0 (got {self.dt})")


def dead_reckon_step(state: NavState, inp: KinematicInput, rng,
                     advance_fused: bool = True) -> NavState:
    """One horizontal dead-reckoning step.

    p += R(psi) * (v_body*dt + bias*dt + eta*sqrt(dt)), eta ~ N(0, sigma^2 I).
    Always applied to p_imu; applied to p_fused unless the caller is about
    to run the fix predict-correct update for this tick instead.
    """
    dt = inp.dt
    if state.sigma > 0:
        ex = rng.normal(0.0, state.sigma)
        ey = rng.normal(0.0, state.sigma)
    else:
        ex = ey = 0.0
    sq = math.sqrt(dt)
    bx = inp.v_body[0] * dt + state.bias[0] * dt + ex * sq
    by = inp.v_body[1] * dt + state.bias[1] * dt + ey * sq
    c, s = math.cos(inp.psi), math.sin(inp.psi)
    wx = c * bx - s * by
    wy = s * bx + c * by
    state.p_imu[0] += wx
    state.p_imu[1] += wy
    if advance_fused:
        state.p_fused[0] += wx
        state.p_fused[1] += wy
    return state


def depth_update(state: NavState, z_true: float, rng) -> float:
    """Replace the depth of both estimates with a noisy pressure reading."""
    z = z_true + (rng.normal(0.0, state.sigma_z) if state.sigma_z > 0 else 0.0)
    state.p_imu[2] = z
    state.p_fused[2] = z
    return z


def apply_fix(state: NavState, fix: FusedFix, inp: KinematicInput,
              gamma: float | None = None) -> NavState:
    """Predict-correct update of the fused estimate at a fix delivery.

    Predict: one biased (noise-free) kinematic step from the previous fused
    position.  Correct: move gamma of the way to the fix.  Only the fused
    horizontal components change; p_imu never ingests fixes.
    """
    g = state.gamma if gamma is None else gamma
    if not (0.0 < g <= 1.0):
        raise ValueError(f"gamma must be in (0, 1] (got {g})")
    dt = inp.dt
    bx = (inp.v_body[0] + state.bias[0]) * dt
    by = (inp.v_body[1] + state.bias[1]) * dt
    c, s = math.cos(inp.psi), math.sin(inp.psi)
    px = state.p_fused[0] + c * bx - s * by
    py = state.p_fused[1] + s * bx + c * by
    state.p_fused[0] = px + g * (fix.position[0] - px)
    state.p_fused[1] = py + g * (fix.position[1] - py)
    return state
