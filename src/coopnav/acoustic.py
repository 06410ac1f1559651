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

SOUND_SPEED = 1500.0  # m/s, nominal


@dataclass
class UsblNoiseConfig:
    sigma_r: float = 0.1                         # range noise std, m
    sigma_theta: float = math.radians(0.5)       # azimuth noise std, rad
    sigma_phi: float = math.radians(0.5)         # elevation noise std, rad
    c: float = SOUND_SPEED                       # m/s
    r_max: float = 50.0                          # HF audibility cutoff, m

    def validate(self):
        if min(self.sigma_r, self.sigma_theta, self.sigma_phi) < 0:
            raise ValueError("noise stds must be >= 0")
        if self.c <= 0:
            raise ValueError(f"c must be > 0 (got {self.c})")
        if self.r_max <= 0:
            raise ValueError(f"r_max must be > 0 (got {self.r_max})")


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


def slant_range(tau_rtt: float, c: float = SOUND_SPEED) -> float:
    """Range from a round-trip travel time: r = c * tau / 2."""
    if tau_rtt < 0:
        raise ValueError(f"tau_rtt must be >= 0 (got {tau_rtt})")
    return c * tau_rtt / 2.0


def measure_fix(asv_pos, auv_true_pos, noise: UsblNoiseConfig, rng,
                auv_id: int = 0, asv_id: int = 0, measure_tick: int = 0) -> UsblFix:
    """Synthesize one noisy absolute fix of an AUV as seen from an ASV.

    Decomposes the true relative vector into (range, azimuth, elevation),
    perturbs each with its Gaussian noise, and reconstructs
    ``asv + r*(cos(phi)cos(theta), cos(phi)sin(theta), sin(phi))``.
    """
    fix = _fix(asv_pos, auv_true_pos, None, noise, None, rng, None,
               auv_id, asv_id, measure_tick)
    if fix is None:
        r = math.dist(asv_pos, auv_true_pos)
        raise ValueError(f"slant range {r:.3f} m exceeds r_max {noise.r_max} m")
    return fix


def loss_probability(r: float, coeffs: LossModelCoefficients = LossModelCoefficients()) -> float:
    """Range-dependent fix loss probability, clamped into [0, 1]."""
    if r < 0:
        raise ValueError(f"r must be >= 0 (got {r})")
    rt = min(r, coeffs.r_clip)
    raw = coeffs.a * math.exp(coeffs.b * rt) + coeffs.c0 * math.exp(coeffs.d * rt)
    return min(max(raw, 0.0), 1.0)


def total_loss_probability(r: float, n_auv: int,
                           coeffs: LossModelCoefficients = LossModelCoefficients()) -> float:
    """Loss probability including the contention term for a fleet of n_auv."""
    if n_auv < 1:
        raise ValueError(f"n_auv must be >= 1 (got {n_auv})")
    return min(loss_probability(r, coeffs) + (n_auv - 1) * coeffs.p_col, coeffs.p_cap)


def attempt_fix(asv_pos, auv_true_pos, n_auv: int, noise: UsblNoiseConfig,
                coeffs: LossModelCoefficients, rng, loss_rng=None,
                auv_id: int = 0, asv_id: int = 0,
                measure_tick: int = 0) -> UsblFix | None:
    """One fix attempt over one acoustic path; None means the fix was lost.

    Loss is a modeled outcome, not an error: the attempt is lost when the
    AUV is out of range or when the loss draw u < P_loss_total(r).
    ``loss_rng`` lets callers keep loss draws on a separate stream from the
    measurement noise; it defaults to ``rng``.
    """
    if n_auv < 1:
        raise ValueError(f"n_auv must be >= 1 (got {n_auv})")
    return _fix(asv_pos, auv_true_pos, n_auv, noise, coeffs, rng,
                loss_rng if loss_rng is not None else rng,
                auv_id, asv_id, measure_tick)


def _fix(asv_pos, auv_true_pos, n_auv, noise, coeffs, rng, loss_rng,
         auv_id, asv_id, measure_tick) -> UsblFix | None:
    """The geometry, loss draw and noisy reconstruction of one fix.

    None when the AUV is beyond ``noise.r_max`` or, with a ``loss_rng``,
    when the loss draw falls below ``total_loss_probability``, evaluated
    here term for term.  Without a ``loss_rng`` nothing is lost.
    """
    ax, ay, az = float(asv_pos[0]), float(asv_pos[1]), float(asv_pos[2])
    dx = float(auv_true_pos[0]) - ax
    dy = float(auv_true_pos[1]) - ay
    dz = float(auv_true_pos[2]) - az
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    if r > noise.r_max:
        return None
    if loss_rng is not None:
        rt = min(r, coeffs.r_clip)
        p = coeffs.a * math.exp(coeffs.b * rt) + coeffs.c0 * math.exp(coeffs.d * rt)
        p = min(min(max(p, 0.0), 1.0) + (n_auv - 1) * coeffs.p_col, coeffs.p_cap)
        if loss_rng.uniform() < p:
            return None
    theta = math.atan2(dy, dx) if r > 0 else 0.0
    phi = math.asin(max(-1.0, min(1.0, dz / r))) if r > 0 else 0.0

    sigma_r, sigma_theta, sigma_phi = noise.sigma_r, noise.sigma_theta, noise.sigma_phi
    r_m = r + (rng.normal(0.0, sigma_r) if sigma_r > 0 else 0.0)
    t_m = theta + (rng.normal(0.0, sigma_theta) if sigma_theta > 0 else 0.0)
    p_m = phi + (rng.normal(0.0, sigma_phi) if sigma_phi > 0 else 0.0)
    r_m = max(r_m, 0.0)

    cp = math.cos(p_m)
    pos = (ax + r_m * cp * math.cos(t_m),
           ay + r_m * cp * math.sin(t_m),
           az + r_m * math.sin(p_m))
    var = sigma_r ** 2 + (r * sigma_theta) ** 2
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
