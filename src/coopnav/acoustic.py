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
from math import asin, atan2, cos, exp, sin

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


def attempt_fix(asv, dx: float, dy: float, dz: float, r: float, p_con: float,
                var_r: float, sigma_theta: float, coeffs: LossModelCoefficients,
                noise_tuples, loss_rng) -> tuple[float, float, float, float] | None:
    """One fix attempt over one in-range acoustic path: (x, y, z, variance)
    of the fix, or None when it was lost.

    The caller hands over what its range test computed: the AUV's offset
    (dx, dy, dz) from the ``asv`` position and the slant range ``r``.  It
    also passes ``p_con``, the contention term ``(n - 1) * p_col`` for n
    contending vehicles, and from the noise config ``var_r = sigma_r ** 2``
    and ``sigma_theta``.  Loss is a modeled outcome, not an error: the fix
    is lost when the next ``loss_rng`` draw u < P_loss_total(r), the
    range-dependent double exponential clamped into [0, 1], plus ``p_con``,
    capped at ``p_cap``.  A kept fix decomposes the offset into (range,
    azimuth, elevation), adds the next ``noise_tuples`` triple of
    pre-scaled perturbations, and reconstructs ``asv + r*(cos(phi)cos(theta),
    cos(phi)sin(theta), sin(phi))``; its variance is ``var_r + (r *
    sigma_theta) ** 2``.
    """
    # min(a, b) as `b if b < a else a`, max(a, b) as `b if b > a else a`: the same float
    rc, pc = coeffs.r_clip, coeffs.p_cap
    rt = rc if rc < r else r
    p = coeffs.a * exp(coeffs.b * rt) + coeffs.c0 * exp(coeffs.d * rt)
    p = 0.0 if 0.0 > p else p
    p = (1.0 if 1.0 < p else p) + p_con
    p = pc if pc < p else p
    if next(loss_rng) < p:
        return None
    theta, s = (atan2(dy, dx), dz / r) if r > 0 else (0.0, 0.0)   # asin(0.0) is 0.0
    s = s if s < 1.0 else 1.0
    phi = asin(s if s > -1.0 else -1.0)

    n_r, n_theta, n_phi = next(noise_tuples)
    r_m = r + n_r
    r_m = 0.0 if 0.0 > r_m else r_m
    t_m = theta + n_theta
    p_m = phi + n_phi
    cp = cos(p_m)
    ax, ay, az = asv
    return (ax + r_m * cp * cos(t_m), ay + r_m * cp * sin(t_m), az + r_m * sin(p_m),
            var_r + (r * sigma_theta) ** 2)


def fuse_fixes(fixes: list[tuple[float, float, float, float]]) -> tuple[float, float, float]:
    """Inverse-variance weighted merge of one ping's (x, y, z, variance)
    fixes into the fused (x, y, z).

    With equal variances this is the arithmetic mean, of variance sigma^2/K.
    """
    if not fixes:
        raise ValueError("cannot fuse an empty fix list")
    wsum = x = y = z = 0.0
    for px, py, pz, v in fixes:
        if v <= 0:
            raise ValueError("fix variance must be > 0")
        wsum += 1.0 / v
        x += px / v
        y += py / v
        z += pz / v
    return x / wsum, y / wsum, z / wsum
