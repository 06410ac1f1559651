"""Deterministic tick-loop orchestration of one seeded mission.

Per tick, in fixed order: guidance from the fused estimates, truth advance,
dead reckoning of both estimates, pressure-depth replacement, protocol
events (pings, fusion, broadcasts, deliveries), fix application, metric
accumulation.  The protocol is stepped only from its next event tick on,
the noise streams are drawn in blocks, and on a tick without a fix
delivery the metrics are taken in the kinematic pass; all three leave every
value as it would be tick by tick.  Identical (config, seed) pairs produce
byte-identical event logs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from itertools import chain, repeat

import numpy as np

from .acoustic import LossModelCoefficients, UsblNoiseConfig
from .conflict import audibility_masks, build_conflict_graph, greedy_color
from .formation import asv_positions
from .mission import (GuidanceConfig, VehicleTruth, advance_truth, guidance_step,
                      plan_lawnmower, point_segment_distance, segment)
from .nav import KinematicInput, NavState, apply_fix, dead_reckon_step, depth_update
from .protocol import (EventLog, TdmaScheduler, TimingConfig, anchor_points,
                       ticks_ceil)
from .schema import auto_or_float, check, from_degrees, hash_items, param


@dataclass
class SimConfig:
    L: float = param(60.0, "sim", "l", gt=0)
    n_auv: int = param(4, "sim", ge=1)
    n_asv: int = param(1, "sim", ge=1)
    alpha0: float = param(0.0, "sim", "alpha0_deg", conv=from_degrees,
                          finite=True)                          # formation angle, rad
    duration: float = param(300.0, "sim", ge=0)                         # s
    f_t: int = param(30, "sim", "tick_rate", ge=1)                      # Hz
    seed: int = param(0, "sim", ge=0, hashed=False)
    r_hf: float = param(50.0, "formation", gt=0)           # HF uplink range, m
    delta_b: float = param(0.0, "formation", ge=0)         # formation radius buffer, m
    asv_jitter_std: float = param(0.0, "formation", ge=0)  # station-keeping jitter std, m
    depth: float = param(10.0, "mission", finite=True)     # survey depth, m
    track_spacing: float | None = param(None, "mission", conv=auto_or_float,
                                        gt=0)              # None: strip height / 3
    noise: UsblNoiseConfig = field(default_factory=UsblNoiseConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    guidance: GuidanceConfig = field(default_factory=GuidanceConfig)
    bias: tuple[float, float] = param((0.06, 0.06), "nav", "bias_x", "bias_y",
                                      finite=True)
    sigma: float = param(0.027, "nav", ge=0)
    sigma_z: float = param(0.05, "nav", ge=0)
    gamma: float = param(0.90, "nav", gt=0)                # and <= 1
    guidance_on_truth: bool = param(False, "sim")   # steer on truth instead of the estimate
    usbl_enabled: bool = param(True, "sim")
    conflict_source: str = param("truth", "sim")    # or "last_fix"
    contention: str = param("fleet", "sim")         # or "group"
    trace: bool = param(False, "sim", hashed=False)

    def validate(self):
        """The declared bounds of every field, then the rules across fields."""
        check(self)
        if self.f_t % 1:
            raise ValueError(f"f_t must be an integer (got {self.f_t})")
        for name, allowed in (("conflict_source", ("truth", "last_fix")),
                              ("contention", ("fleet", "group"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed} (got {getattr(self, name)!r})")
        if self.gamma > 1.0:
            raise ValueError(f"gamma must be in (0, 1] (got {self.gamma})")
        if self.track_spacing is not None and self.track_spacing > self.L / self.n_auv + 1e-9:
            raise ValueError(f"track_spacing {self.track_spacing} exceeds the strip height L / n_auv")
        if self.noise.sigma_r == 0 and self.noise.sigma_theta == 0:   # fixes of variance 0
            raise ValueError("sigma_r and sigma_theta must not both be 0")

    def formation(self) -> np.ndarray:
        """The ``(n_asv, 2)`` ASV ring of radius ``r_hf + delta_b`` at ``alpha0``."""
        return asv_positions(self.n_asv, self.r_hf + self.delta_b, self.alpha0)

    def config_hash(self) -> str:
        blob = "\n".join(f"{k}={v}" for k, v in hash_items(self))
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


@dataclass
class AuvMetrics:
    auv_id: int
    mean_cte: float
    mean_est_err: float
    fix_count: int
    coverage: float
    distance: float
    allocation: float
    mean_inter_fix_s: float
    max_inter_fix_s: float
    final_imu_err: float
    max_fused_err: float


@dataclass
class MissionReport:
    config_hash: str
    seed: int
    ticks: int
    duration_s: float
    per_auv: list[AuvMetrics]
    total_applied: int
    applied_rate_hz: float
    latency_mean_s: float
    latency_p95_s: float
    dropped: dict[str, int]
    max_innovation: float
    excursion_ticks: int
    events: EventLog = field(repr=False)
    trace_log: list[str]

    @property
    def event_log(self) -> list[str]:
        """The protocol events as text, rendered from the records on each read."""
        return list(self.events)


def derive_rng(seed: int, stream_label: str) -> np.random.Generator:
    """Independent deterministic generator for one (seed, label) stream."""
    key = tuple(stream_label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


RNG_BLOCK = 128   # values per buffered block of a noise or uniform stream


def _noise_blocks(gen, scales, gain):
    """The blocks a ``NoiseStream`` chains: floats for a scalar scale, else
    tuples zipped from one iterator over the block's values in draw order,
    with a zero in the place of each scale that draws nothing."""
    scalar = np.ndim(scales) == 0
    scales = np.atleast_1d(np.asarray(scales, dtype=float))
    drawn = (scales > 0).tolist()
    positive = scales[scales > 0]
    if not len(positive):
        yield repeat(0.0) if scalar else repeat((0.0,) * len(scales))
        return
    while True:
        # IEEE-exact elementwise * and + only: each value equals the scalar
        # (0.0 + scale * z) * gain
        z = gen.standard_normal((RNG_BLOCK, len(positive)))
        z *= positive
        z += 0.0
        z *= gain
        values = z.ravel().tolist()
        if scalar:
            yield values
        else:
            it = iter(values)
            yield zip(*[it if d else repeat(0.0) for d in drawn])


class NoiseStream(chain):
    """Pre-scaled Gaussian noise from a generator, one value per ``next()``.

    A scalar ``scale`` gives floats, a sequence of scales gives tuples with
    one entry per scale.  Each entry is ``(0.0 + scale * z) * gain`` with
    ``z`` the generator's next standard normal, which is numpy's scalar
    ``normal(0.0, scale)`` times ``gain``; a scale that is not positive
    draws nothing and gives 0.0.  Values are computed a block of
    ``RNG_BLOCK`` at a time, and a block of standard normals equals as many
    scalar draws, so every value is bit-identical to drawing one at a time.
    The first block is drawn on the first ``next()``, not when the stream is
    built.  A ``chain`` over the blocks serves each value without a Python
    call.
    """

    __slots__ = ()

    def __new__(cls, gen: np.random.Generator, scales, gain: float = 1.0):
        return cls.from_iterable(_noise_blocks(gen, scales, gain))


def uniform_stream(gen: np.random.Generator) -> chain:
    """A generator's ``uniform()`` on [0, 1), one value per ``next()``.

    ``uniform()`` is ``0.0 + 1.0 * u`` with ``u`` the next ``random()``
    double, so values served from blocks of ``RNG_BLOCK`` ``random`` draws
    equal scalar draws bit for bit.  As in ``NoiseStream``, the first block
    is drawn on the first ``next()``.
    """
    return chain.from_iterable(gen.random(RNG_BLOCK).tolist() for _ in repeat(None))


class Recolorer:
    """The fleet's conflict graph and greedy coloring, built once per pattern.

    Both depend on the AUVs' audibility masks alone, so the (graph,
    coloring) pair built for a tuple of masks is kept and returned whenever
    the masks recur: exactly what a fresh build would give.  A mission
    visits few mask patterns, so the pairs are kept for its whole length.
    """

    def __init__(self, r_hf: float):
        self.r_hf = r_hf
        self.pairs: dict[tuple[int, ...], tuple] = {}

    def __call__(self, positions, anchors):
        masks = tuple(audibility_masks(positions, anchors, self.r_hf))
        pair = self.pairs.get(masks)
        if pair is None:
            g = build_conflict_graph(masks)
            pair = self.pairs[masks] = (g, greedy_color(g))
        return pair


def jittered_anchors(base_asv, jitter) -> list:
    """Per-tick ASV anchors of a block of jitter: row k is
    ``anchor_points(base_asv + jitter[k])``, as nested lists.

    ``jitter`` is a (ticks, n_asv, 2) array.  numpy's float64 ``+`` gives
    the IEEE sum of each pair, so every coordinate is the scalar ``bx +
    jx``; the z column is 0.0.
    """
    xy = jitter + base_asv
    return np.concatenate((xy, np.zeros(xy.shape[:-1] + (1,))), axis=-1).tolist()


# (kinematics, metrics) per pass over the AUVs of one tick; the protocol
# steps after the kinematics
ONE_PASS = ((True, True),)
SPLIT_PASSES = ((True, False), (False, True))


def coverage_fraction(ping_log) -> float:
    """Fraction of ping attempts heard by at least one ASV (0 when none)."""
    if len(ping_log) == 0:
        return 0.0
    return sum(1 for h in ping_log if h) / len(ping_log)


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def run(config: SimConfig) -> MissionReport:
    """Execute one seeded mission and return its report."""
    config.validate()
    noise = replace(config.noise, r_max=config.r_hf)
    timing = replace(config.timing, f_t=config.f_t)
    guid = config.guidance
    n, m = config.n_auv, config.n_asv
    f_t = config.f_t
    dt = 1.0 / f_t
    depth = config.depth
    edge = config.L / 2.0 + 1e-9
    on_truth = config.guidance_on_truth
    usbl_enabled = config.usbl_enabled
    trace = config.trace

    waypoints = plan_lawnmower(config.L, n, config.track_spacing)
    base_asv = config.formation()

    seed = config.seed
    sq_dt = math.sqrt(dt)
    imu_noise = [NoiseStream(derive_rng(seed, f"imu/{i}"), (config.sigma, config.sigma),
                             sq_dt) for i in range(n)]
    depth_noise = [NoiseStream(derive_rng(seed, f"depth/{i}"), config.sigma_z)
                   for i in range(n)]
    usbl_scales = (noise.sigma_r, noise.sigma_theta, noise.sigma_phi)
    usbl_noise = [[NoiseStream(derive_rng(seed, f"usbl/{i}/{j}"), usbl_scales)
                   for j in range(m)] for i in range(n)]
    loss_rng = [[uniform_stream(derive_rng(seed, f"loss/{i}/{j}")) for j in range(m)]
                for i in range(n)]
    jitter_rng = derive_rng(seed, "asv_jitter") if config.asv_jitter_std > 0 else None

    truths, navs, kin, segments = [], [], [], []
    for i in range(n):
        wps = waypoints[i]
        x0, y0 = wps[0]
        x1, y1 = wps[1]
        yaw0 = math.atan2(y1 - y0, x1 - x0)
        truths.append(VehicleTruth(x0, y0, depth, yaw0))
        navs.append(NavState.at(x0, y0, depth, dt, bias=config.bias, gamma=config.gamma))
        kin.append(KinematicInput(0.0, math.cos(yaw0), math.sin(yaw0)))
        # cross-track error is taken against the segment currently being
        # tracked, indexed by waypoint index; a starved vehicle's divergence
        # is then measured, not absorbed by whichever parallel track it
        # happens to drift past
        last = len(wps) - 1
        tracked = [min(max(w, 1), last) for w in range(last + 2)]
        segments.append([segment(*wps[w - 1], *wps[w]) for w in tracked])
    wp_index = [0] * n
    max_step = guid.max_yaw_rate * dt
    auvs = list(zip(range(n), truths, navs, kin, imu_noise, depth_noise,
                    waypoints, segments))

    proto = TdmaScheduler(timing, noise, LossModelCoefficients(), config.L,
                          n, m, lambda i, j: (usbl_noise[i][j], loss_rng[i][j]),
                          contention=config.contention)
    last_fix_xy = [(t.x, t.y) for t in truths]
    anchors = anchor_points(base_asv)
    recolorer = Recolorer(config.r_hf)

    def recolor():
        if config.conflict_source == "truth":
            return recolorer([(t.x, t.y) for t in truths], anchors)
        return recolorer(last_fix_xy, anchors)

    proto.start_round(*recolor(), tick=0)
    # a broadcast is delivered on its own tick only if its airtime rounds
    # to no tick; the metrics then always wait for the protocol
    same_tick = ticks_ceil(proto.t_tx, f_t) == 0

    cte_sum = [0.0] * n
    err_sum = [0.0] * n
    dist = [0.0] * n
    applied = [0] * n
    applied_ticks: list[list[int]] = [[] for _ in range(n)]
    max_fused_err = [0.0] * n
    max_innovation = 0.0
    excursions = 0
    trace_log: list[str] = []
    jittered = None   # RNG_BLOCK ticks of jittered anchors, one row per tick

    total_ticks = round(config.duration * f_t)
    ticks_run = 0
    finished = 0    # AUVs past their last waypoint
    for k in range(total_ticks):
        # the protocol has nothing to do before its next event tick
        active = usbl_enabled and k >= proto.next_tick
        if jitter_rng is not None:
            row = k % RNG_BLOCK
            if row == 0:
                jittered = jittered_anchors(base_asv, jitter_rng.normal(
                    0.0, config.asv_jitter_std, size=(RNG_BLOCK,) + base_asv.shape))
            if active:
                anchors = jittered[row]

        due = proto.due_auvs(k) if active else ()
        # only a delivery changes the metrics of a tick; on a tick without
        # one they are taken in the kinematic pass
        split = due or (same_tick and active)
        for kinematics, metrics in (SPLIT_PASSES if split else ONE_PASS):
            for i, t, nav, ki, imu, dz, wps, segs in auvs:
                if kinematics:
                    est_xy = (t.x, t.y) if on_truth else nav.p_fused
                    speed_cmd, yaw_cmd, w = guidance_step(t, est_xy, wps, wp_index[i], guid)
                    if w != wp_index[i]:
                        wp_index[i] = w
                        if w >= len(wps):
                            finished += 1
                    ki.speed = speed_cmd
                    ki.cos_psi, ki.sin_psi = advance_truth(t, speed_cmd, yaw_cmd,
                                                           max_step, dt)
                    dead_reckon_step(nav, ki, next(imu), i not in due)
                    depth_update(nav, depth, next(dz))
                if metrics:
                    x, y = t.x, t.y
                    cte = point_segment_distance(x, y, segs[wp_index[i]])
                    cte_sum[i] += cte
                    p = nav.p_fused
                    e = math.hypot(p[0] - x, p[1] - y)
                    err_sum[i] += e
                    if e > max_fused_err[i]:
                        max_fused_err[i] = e
                    dist[i] += t.speed * dt
                    if x > edge or x < -edge or y > edge or y < -edge:   # |x|, |y| > edge
                        excursions += 1
                    if trace:
                        q = nav.p_imu
                        trace_log.append(
                            f"TRACE{{tick={k}, auv={i}, "
                            f"true=({x:.6f}, {y:.6f}, {t.z:.6f}), "
                            f"imu=({q[0]:.6f}, {q[1]:.6f}, {q[2]:.6f}), "
                            f"fused=({p[0]:.6f}, {p[1]:.6f}, {p[2]:.6f}), "
                            f"cte={cte:.6f}}}")

            if kinematics and active:
                for _, i, _, fix, _ in proto.step(k, truths, anchors, recolor):
                    p = navs[i].p_fused
                    fx, fy = fix[0], fix[1]
                    innov = math.hypot(fx - p[0], fy - p[1])
                    if innov > max_innovation:
                        max_innovation = innov
                    apply_fix(navs[i], fix, kin[i])
                    applied[i] += 1
                    applied_ticks[i].append(k)
                    last_fix_xy[i] = (fx, fy)

        ticks_run = k + 1
        if finished == n:
            break

    duration_s = ticks_run / f_t
    total_applied = sum(applied)
    lat_sorted = sorted(proto.latencies)
    per_auv = []
    for i in range(n):
        gaps = [(b - a) / f_t for a, b in zip(applied_ticks[i], applied_ticks[i][1:])]
        per_auv.append(AuvMetrics(
            auv_id=i,
            mean_cte=cte_sum[i] / ticks_run if ticks_run else 0.0,
            mean_est_err=err_sum[i] / ticks_run if ticks_run else 0.0,
            fix_count=applied[i],
            coverage=coverage_fraction(proto.heard_log[i]),
            distance=dist[i],
            allocation=applied[i] / total_applied if total_applied else 0.0,
            mean_inter_fix_s=sum(gaps) / len(gaps) if gaps else 0.0,
            max_inter_fix_s=max(gaps) if gaps else 0.0,
            final_imu_err=math.hypot(navs[i].p_imu[0] - truths[i].x,
                                     navs[i].p_imu[1] - truths[i].y),
            max_fused_err=max_fused_err[i],
        ))
    return MissionReport(
        config_hash=config.config_hash(),
        seed=seed,
        ticks=ticks_run,
        duration_s=duration_s,
        per_auv=per_auv,
        total_applied=total_applied,
        applied_rate_hz=total_applied / duration_s if duration_s else 0.0,
        latency_mean_s=sum(lat_sorted) / len(lat_sorted) if lat_sorted else 0.0,
        latency_p95_s=_percentile(lat_sorted, 0.95),
        dropped=dict(proto.dropped),
        max_innovation=max_innovation,
        excursion_ticks=excursions,
        events=proto.events,
        trace_log=trace_log,
    )
