"""USBL fix synthesis, range/contention loss model, and multi-ASV fusion.

A fix is built by measuring the true slant range and direction from an ASV
to an AUV, perturbing range and angles with Gaussian noise, and
reconstructing the world-frame position.  Fix loss combines a
range-dependent double-exponential with a per-additional-vehicle collision
term.  Simultaneous fixes of one AUV from several ASVs are merged with an
inverse-variance weighted (minimum-variance linear unbiased) estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .schema import from_degrees, param

SOUND_SPEED = 1500.0  # m/s, nominal


@dataclass
class UsblNoiseConfig:
    sigma_r: float = param(0.1, "acoustic", ge=0)                    # range noise std, m
    sigma_theta: float = param(math.radians(0.5), "acoustic", "sigma_theta_deg",
                               conv=from_degrees, ge=0)              # azimuth noise std, rad
    sigma_phi: float = param(math.radians(0.5), "acoustic", "sigma_phi_deg",
                             conv=from_degrees, ge=0)                # elevation noise std, rad
    c: float = param(SOUND_SPEED, "acoustic", "sound_speed", gt=0)   # m/s
    r_max: float = param(50.0, gt=0)                                 # HF audibility cutoff, m


@dataclass(frozen=True)
class LossModelCoefficients:
    a: float = -6.070
    b: float = 2.12e-3
    c0: float = 5.987
    d: float = 2.25e-3
    r_clip: float = 800.0
    p_col: float = 0.05      # added collision probability per extra AUV
    p_cap: float = 0.999


@dataclass(slots=True)
class UsblFix:
    auv_id: int
    asv_id: int
    position: tuple[float, float, float]   # world frame, m
    horiz_variance: float                   # per-axis horizontal proxy, m^2
    measure_tick: int


@dataclass(slots=True)
class FusedFix:
    auv_id: int
    position: tuple[float, float, float]
    horiz_variance: float
    contributing_asv_count: int
    measure_tick: int


def attempt_fix(asv_pos, auv_pos, r: float, n_auv: int, noise: UsblNoiseConfig,
                coeffs: LossModelCoefficients, noise_tuples, loss_rng,
                auv_id: int = 0, asv_id: int = 0,
                measure_tick: int = 0) -> UsblFix | None:
    """One fix attempt over one acoustic path; None means the fix was lost.

    ``r`` is the slant range between the two positions as the caller
    computed it.  Loss is a modeled outcome, not an error: the attempt is
    lost without a draw when ``r`` exceeds ``noise.r_max``, and otherwise
    when the next ``loss_rng`` draw u < P_loss_total(r): the
    range-dependent double exponential clamped into [0, 1], plus ``p_col``
    per additional vehicle, capped at ``p_cap``.  A kept fix decomposes the
    true relative vector into (range, azimuth, elevation), adds the next
    ``noise_tuples`` triple of pre-scaled perturbations, and reconstructs
    ``asv + r*(cos(phi)cos(theta), cos(phi)sin(theta), sin(phi))``.
    """
    if r > noise.r_max:
        return None
    # min(a, b) as `b if b < a else a`, max(a, b) as `b if b > a else a`: the same float
    rc, pc = coeffs.r_clip, coeffs.p_cap
    rt = rc if rc < r else r
    p = coeffs.a * math.exp(coeffs.b * rt) + coeffs.c0 * math.exp(coeffs.d * rt)
    p = 0.0 if 0.0 > p else p
    p = (1.0 if 1.0 < p else p) + (n_auv - 1) * coeffs.p_col
    p = pc if pc < p else p
    if next(loss_rng) < p:
        return None
    ax, ay, az = asv_pos[0], asv_pos[1], asv_pos[2]
    dx = auv_pos[0] - ax
    dy = auv_pos[1] - ay
    dz = auv_pos[2] - az
    theta, s = (math.atan2(dy, dx), dz / r) if r > 0 else (0.0, 0.0)   # asin(0.0) is 0.0
    s = s if s < 1.0 else 1.0
    phi = math.asin(s if s > -1.0 else -1.0)

    n_r, n_theta, n_phi = next(noise_tuples)
    r_m = r + n_r
    r_m = 0.0 if 0.0 > r_m else r_m
    t_m = theta + n_theta
    p_m = phi + n_phi
    cp = math.cos(p_m)
    pos = (ax + r_m * cp * math.cos(t_m),
           ay + r_m * cp * math.sin(t_m),
           az + r_m * math.sin(p_m))
    var = noise.sigma_r ** 2 + (r * noise.sigma_theta) ** 2
    return UsblFix(auv_id, asv_id, pos, var, measure_tick)


def fuse_fixes(fixes: list[UsblFix]) -> FusedFix:
    """Inverse-variance weighted merge of simultaneous fixes of one AUV.

    With equal variances this is the arithmetic mean with variance sigma^2/K.
    """
    if not fixes:
        raise ValueError("cannot fuse an empty fix list")
    auv_id = fixes[0].auv_id
    tick = fixes[0].measure_tick
    wsum = x = y = z = 0.0
    for f in fixes:
        if f.auv_id != auv_id:
            raise ValueError(f"mixed auv_id in fusion ({f.auv_id} != {auv_id})")
        if f.measure_tick != tick:
            raise ValueError(f"mixed measure_tick in fusion ({f.measure_tick} != {tick})")
        v = f.horiz_variance
        if v <= 0:
            raise ValueError("fix variance must be > 0")
        px, py, pz = f.position
        wsum += 1.0 / v
        x += px / v
        y += py / v
        z += pz / v
    return FusedFix(auv_id, (x / wsum, y / wsum, z / wsum), 1.0 / wsum, len(fixes), tick)
