"""USBL fix synthesis, range/contention loss model, and multi-ASV fusion.

A fix is built by measuring the true slant range and direction from an ASV
to an AUV, perturbing range and angles with Gaussian noise, and
reconstructing the world-frame position.  Fix loss combines a
range-dependent double-exponential with a collision term per additional
contending vehicle; its coefficients are the module constants below, not
config.  Simultaneous fixes of one AUV from several ASVs are merged with an
inverse-variance weighted (minimum-variance linear unbiased) estimator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import asin, atan2, cos, exp, sin

from .schema import from_degrees, param

@dataclass
class UsblNoiseConfig:
    sigma_r: float = param(0.1, "acoustic", ge=0)                    # range noise std, m
    sigma_theta: float = param(math.radians(0.5), "acoustic", "sigma_theta_deg",
                               conv=from_degrees, ge=0)              # azimuth noise std, rad
    sigma_phi: float = param(math.radians(0.5), "acoustic", "sigma_phi_deg",
                             conv=from_degrees, ge=0)                # elevation noise std, rad
    c: float = param(1500.0, "acoustic", "sound_speed", gt=0)        # sound speed, m/s
    # the deleted HF cutoff field (SimConfig.r_hf is the cutoff), hashed as it was
    retired = (("r_max", "50.0"),)


# the loss model: a range term LOSS_A*exp(LOSS_B*r) + LOSS_C*exp(LOSS_D*r)
# at r clipped to R_CLIP, plus P_COL per extra contending vehicle, capped at P_CAP
LOSS_A, LOSS_B, LOSS_C, LOSS_D = -6.070, 2.12e-3, 5.987, 2.25e-3
R_CLIP = 800.0   # m
P_COL = 0.05     # added collision probability per extra contender
P_CAP = 0.999


def attempt_fix(asv, dx: float, dy: float, dz: float, r: float, n_cont: int, var_r: float,
                sigma_theta: float, noise_tuples,
                loss_rng) -> tuple[float, float, float, float] | None:
    """One fix attempt over one in-range acoustic path: (x, y, z, variance)
    of the fix, or None when it was lost.

    The caller hands over what its range test computed: the AUV's offset
    (dx, dy, dz) from the ``asv`` position (x, y), at z = 0 as every ASV
    is, and the slant range ``r``.  It also passes ``n_cont``, the number
    of contending vehicles, and from the noise config ``var_r = sigma_r **
    2`` and ``sigma_theta``.  Loss is a modeled outcome, not an error: the
    fix is lost when the next ``loss_rng`` draw u < P_loss_total(r), the
    range-dependent double exponential clamped into [0, 1], plus
    ``(n_cont - 1) * P_COL``, capped at ``P_CAP``.  A kept fix decomposes the offset into (range, azimuth,
    elevation), adds the next ``noise_tuples`` triple of pre-scaled
    perturbations, and reconstructs ``(x, y, 0) + r*(cos(phi)cos(theta),
    cos(phi)sin(theta), sin(phi))``; its variance is ``var_r + (r *
    sigma_theta) ** 2``.
    """
    # min(a, b) as `b if b < a else a`, max(a, b) as `b if b > a else a`: the same float
    rt = R_CLIP if R_CLIP < r else r
    p = LOSS_A * exp(LOSS_B * rt) + LOSS_C * exp(LOSS_D * rt)
    p = 0.0 if 0.0 > p else p
    p = (1.0 if 1.0 < p else p) + (n_cont - 1) * P_COL
    p = P_CAP if P_CAP < p else p
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
    ax, ay = asv
    # the ASV's z = 0: 0.0 + maps a height of -0.0 to 0.0
    return (ax + r_m * cp * cos(t_m), ay + r_m * cp * sin(t_m), 0.0 + r_m * sin(p_m),
            var_r + (r * sigma_theta) ** 2)


def fuse_fixes(fixes: list[tuple[float, float, float, float]]) -> tuple[float, float, float]:
    """Inverse-variance weighted merge of one ping's (x, y, z, variance)
    fixes into the fused (x, y, z).

    With equal variances this is the arithmetic mean, of variance sigma^2/K.
    Every variance is > 0: ``SimConfig.validate`` rejects a noise config
    whose fixes could have variance 0.
    """
    wsum = x = y = z = 0.0
    for px, py, pz, v in fixes:
        wsum += 1.0 / v
        x += px / v
        y += py / v
        z += pz / v
    return x / wsum, y / wsum, z / wsum
