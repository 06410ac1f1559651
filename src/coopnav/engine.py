"""Deterministic tick-loop orchestration of one seeded mission.

Per tick, in fixed order: guidance from the fused estimates, truth advance,
dead reckoning of both estimates, pressure-depth replacement, protocol
events (pings, fusion, broadcasts, deliveries), fix application, metric
accumulation.  The protocol is stepped only from its next event tick on
and the noise streams are drawn in blocks; both leave every value as it
would be tick by tick.  Identical (config, seed) pairs produce
byte-identical event logs.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .acoustic import UsblNoiseConfig
from .conflict import audibility_masks, build_conflict_graph, greedy_color
from .formation import asv_positions
from .mission import (GuidanceConfig, VehicleTruth, advance_truth, guidance_step,
                      plan_lawnmower, point_segment_distance, segment)
from .nav import KinematicInput, NavState, apply_fix, dead_reckon_step, depth_update
from .protocol import (DELIVER, EXPIRED, OUT_OF_MF_RANGE, PING, SUPERSEDED,
                       EventLog, TdmaScheduler, TimingConfig, anchor_points)
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
        # a fix's variance is sigma_r**2 + (r * sigma_theta)**2, and its slant
        # range r from an anchor at z = 0 is at least |depth|
        if self.noise.sigma_r ** 2 + (abs(self.depth) * self.noise.sigma_theta) ** 2 == 0:
            raise ValueError("sigma_r and sigma_theta give fixes of variance 0 "
                             f"at depth {self.depth}")

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
    trace: array = field(repr=False)   # TRACE_FORMAT's 12 numbers per (tick, AUV) row

    @property
    def event_log(self) -> list[str]:
        """The protocol events as text, rendered from the records on each read."""
        return list(self.events)

    @property
    def trace_log(self) -> list[str]:
        """The trace rows as text, rendered on each read like ``event_log``."""
        return [TRACE_FORMAT % row for row in zip(*[iter(self.trace)] * 12)]


# a row's tick and AUV are integral floats, which %d prints as the ints would
TRACE_FORMAT = ("TRACE{tick=%d, auv=%d, true=(%.6f, %.6f, %.6f), "
                "imu=(%.6f, %.6f, %.6f), fused=(%.6f, %.6f, %.6f), cte=%.6f}")


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
    jx``.
    """
    return (jitter + base_asv).tolist()


def _percentile(sorted_vals: list[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = max(0, math.ceil(q * len(sorted_vals)) - 1)
    return sorted_vals[idx]


def run(config: SimConfig) -> MissionReport:
    """Execute one seeded mission and return its report."""
    config.validate()
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
    usbl_scales = (config.noise.sigma_r, config.noise.sigma_theta, config.noise.sigma_phi)
    # (noise tuples, loss stream) per AUV-to-ASV path
    paths = [[(NoiseStream(derive_rng(seed, f"usbl/{i}/{j}"), usbl_scales),
               uniform_stream(derive_rng(seed, f"loss/{i}/{j}"))) for j in range(m)]
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
    auvs = list(zip(range(n), truths, navs, kin, imu_noise, depth_noise, waypoints))
    metered = list(zip(range(n), truths, navs, segments))

    anchors = anchor_points(base_asv)
    proto = TdmaScheduler(config, paths, Recolorer(config.r_hf), truths, anchors)

    cte_sum = [0.0] * n
    err_sum = [0.0] * n
    dist = [0.0] * n
    max_fused_err = [0.0] * n
    max_innovation = 0.0
    excursions = 0
    trace_rows = array("d")
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
        for i, t, nav, ki, imu, dz, wps in auvs:
            est_xy = (t.x, t.y) if on_truth else nav.p_fused
            speed_cmd, yaw_cmd, w = guidance_step(t, est_xy, wps, wp_index[i], guid)
            if w != wp_index[i]:
                wp_index[i] = w
                if w >= len(wps):
                    finished += 1
            ki.speed = speed_cmd
            ki.cos_psi, ki.sin_psi = advance_truth(t, speed_cmd, yaw_cmd, max_step, dt)
            dead_reckon_step(nav, ki, next(imu), i not in due)
            depth_update(nav, depth, next(dz))

        if active:
            for _, i, _, fix, _ in proto.step(k, anchors):
                p = navs[i].p_fused
                innov = math.hypot(fix[0] - p[0], fix[1] - p[1])
                if innov > max_innovation:
                    max_innovation = innov
                # predict once, and only in place of a skipped fused step
                apply_fix(navs[i], fix, kin[i], i in due)
                due.discard(i)

        for i, t, nav, segs in metered:
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
                trace_rows.extend((k, i, x, y, t.z, q[0], q[1], q[2], p[0], p[1], p[2], cte))

        ticks_run = k + 1
        if finished == n:
            break

    duration_s = ticks_run / f_t
    applied = list(proto.events.records(DELIVER))   # (tick, AUV, latency) per fix applied
    total_applied = len(applied)
    lat_sorted = sorted(lat for _, _, lat in applied)
    pinged = [i for _, i, _ in proto.events.records(PING)]
    drops = proto.events.kinds.count
    per_auv = []
    for i in range(n):
        fix_ticks = [tick for tick, auv, _ in applied if auv == i]
        gaps = [(b - a) / f_t for a, b in zip(fix_ticks, fix_ticks[1:])]
        per_auv.append(AuvMetrics(
            auv_id=i,
            mean_cte=cte_sum[i] / ticks_run if ticks_run else 0.0,
            mean_est_err=err_sum[i] / ticks_run if ticks_run else 0.0,
            fix_count=len(fix_ticks),
            coverage=proto.heard[i] / pinged.count(i) if i in pinged else 0.0,
            distance=dist[i],
            allocation=len(fix_ticks) / total_applied if total_applied else 0.0,
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
        dropped={"superseded": drops(SUPERSEDED), "expired": drops(EXPIRED),
                 "out_of_mf_range": drops(OUT_OF_MF_RANGE)},
        max_innovation=max_innovation,
        excursion_ticks=excursions,
        events=proto.events,
        trace=trace_rows,
    )
