"""Per-AUV dead reckoning and fixed-gain fix fusion.

Two estimates are kept side by side: ``p_imu`` integrates the biased, noisy
kinematics and is never corrected, while ``p_fused`` follows the same
propagation between fixes and absorbs 90% of the innovation whenever an
acoustic fix is applied.  Depth is not integrated at all: a pressure-sensor
reading replaces the vertical component of both estimates every tick, and
only the trace reads it; guidance, metrics and the (x, y) fixes use x and y.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NavState:
    """Estimator state and constants for one AUV.  Positions are [x, y, z];
    the constants are taken as ``SimConfig.validate`` bounds them."""

    p_imu: list[float]
    p_fused: list[float]
    dt: float                    # integration step, s
    bias: tuple[float, float]    # body-frame velocity bias, m/s
    gamma: float                 # fix correction gain

    def __post_init__(self):
        # the bias's body-frame displacement per step; the body frame has no
        # lateral velocity, whose 0.0 * dt term stays in for its signed zero
        self.bias_dx = self.bias[0] * self.dt
        self.bias_dy = 0.0 * self.dt + self.bias[1] * self.dt

    @classmethod
    def at(cls, x: float, y: float, z: float, dt: float, bias, gamma) -> "NavState":
        return cls([x, y, z], [x, y, z], dt, bias, gamma)


@dataclass(slots=True)
class KinematicInput:
    """Ground-truth forward speed and heading (as cosine and sine) for one tick."""

    speed: float
    cos_psi: float
    sin_psi: float


def dead_reckon_step(state: NavState, inp: KinematicInput, noise,
                     advance_fused: bool = True) -> None:
    """One horizontal dead-reckoning step of ``state``, in place.

    p += R(psi) * ((speed, 0)*dt + bias*dt + eta*sqrt(dt)), eta ~ N(0, sigma^2 I),
    with ``noise`` the pre-scaled pair eta*sqrt(dt).  Always applied to
    p_imu; applied to p_fused unless the caller is about to run the fix
    predict-correct update for this tick instead.
    """
    bx = inp.speed * state.dt + state.bias_dx + noise[0]
    by = state.bias_dy + noise[1]
    c, s = inp.cos_psi, inp.sin_psi
    wx = c * bx - s * by
    wy = s * bx + c * by
    p = state.p_imu
    p[0] += wx
    p[1] += wy
    if advance_fused:
        p = state.p_fused
        p[0] += wx
        p[1] += wy


def depth_update(state: NavState, z_true: float, noise: float) -> None:
    """Replace the depth of both estimates in ``state`` with a pressure
    reading, ``z_true`` plus the pre-scaled sensor noise."""
    z = z_true + noise
    state.p_imu[2] = z
    state.p_fused[2] = z


def apply_fix(state: NavState, fix: tuple[float, float],
              inp: KinematicInput, predict: bool) -> None:
    """Predict-correct update, in place, of the fused estimate at a fix delivery.

    Predict, if ``predict``: one biased (noise-free) kinematic step from the
    fused position, in place of this tick's fused dead-reckoning step.
    Correct: move gamma of the way to the fused (x, y) fix.  Only the
    fused horizontal components change; p_imu never ingests fixes.
    """
    g = state.gamma
    px, py = state.p_fused[0], state.p_fused[1]
    if predict:
        dt = state.dt
        bx = (inp.speed + state.bias[0]) * dt
        by = (0.0 + state.bias[1]) * dt
        c, s = inp.cos_psi, inp.sin_psi
        px = px + c * bx - s * by   # not +=, which would round differently
        py = py + s * bx + c * by
    state.p_fused[0] = px + g * (fix[0] - px)
    state.p_fused[1] = py + g * (fix[1] - py)
