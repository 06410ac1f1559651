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
from collections import Counter
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
                       EventLog, TdmaScheduler, TimingConfig, run_ticks)
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
    gamma: float = param(0.90, "nav", gt=0, le=1)          # fix correction gain
    guidance_on_truth: bool = param(False, "sim")   # steer on truth instead of the estimate
    usbl_enabled: bool = param(True, "sim")
    conflict_source: str = param("truth", "sim", choices=("truth", "last_fix"))
    contention: str = param("fleet", "sim", choices=("fleet", "group"))
    trace: bool = param(False, "sim", hashed=False)

    def validate(self):
        """The declared rules of every field, then the rules across fields."""
        check(self)
        if self.track_spacing is not None and self.track_spacing > self.L / self.n_auv + 1e-9:
            raise ValueError(f"track_spacing {self.track_spacing} exceeds the strip height L / n_auv")
        # a fix's slant range from an anchor at z = 0 is at least |depth| and at most r_hf
        if self.noise.fix_variance(abs(self.depth)) == 0:
            raise ValueError("sigma_r and sigma_theta give fixes of variance 0 "
                             f"at depth {self.depth}")
        if self.noise.fix_variance(self.r_hf) == math.inf:
            raise ValueError("sigma_r and sigma_theta ([acoustic] sigma_theta_deg) give "
                             "fixes of non-finite variance within r_hf")
        run_ticks(self)   # raises if a finite value overflows its tick count

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


AUV_EXTRA = ("pings", "max_latency_s", "max_innovation")   # per AUV, after AuvMetrics


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
    auv_extra: list[dict]   # per AUV: AUV_EXTRA's figures by name
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


RNG_BLOCK = 128   # rows per block of a buffered random stream


def block_stream(draw) -> chain:
    """The rows of ``draw(RNG_BLOCK)``, an array drawn from one generator,
    one per ``next()`` as a Python float (1-d) or list.  A block is drawn when
    the last is spent, the first on the first ``next()``; numpy's block draws
    equal as many scalar draws, so each value is bit-identical to a scalar
    draw.  A ``chain`` over the blocks serves each row without a Python call."""
    return chain.from_iterable(draw(RNG_BLOCK).tolist() for _ in repeat(None))


def noise_stream(gen: np.random.Generator, scales, gain: float = 1.0) -> chain:
    """Pre-scaled Gaussian noise from a generator, one value per ``next()``.

    A scalar ``scales`` gives floats, a tuple or list of scales gives lists
    with one entry per scale.  Each entry is ``(0.0 + scale * z) * gain``
    with ``z`` the generator's next standard normal, which is numpy's scalar
    ``normal(0.0, scale)`` times ``gain``; a scale that is not positive
    draws nothing and gives 0.0, so a stream of zero scales never advances
    its generator.
    """
    scalar = not isinstance(scales, (tuple, list))
    scales = [scales] if scalar else scales
    drawn = [s > 0 for s in scales]
    positive = [float(s) for s in scales if s > 0]

    def draw(size):
        # IEEE-exact elementwise * and + only, as numpy's scalar normal()
        z = gen.standard_normal((size, len(positive)))
        z *= positive
        z += 0.0
        z *= gain
        if not all(drawn):   # a 0.0 column in the place of each scale not drawn
            out = np.zeros((size, len(drawn)))
            out[:, drawn] = z
            z = out
        return z.ravel() if scalar else z
    return block_stream(draw)


def uniform_stream(gen: np.random.Generator) -> chain:
    """A generator's ``uniform()`` on [0, 1), one value per ``next()``:
    ``uniform()`` is ``0.0 + 1.0 * u`` with ``u`` the next ``random()``
    double, so blocks of ``random`` draws give the same bits."""
    return block_stream(gen.random)


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


class AsvFleet:
    """Where the ASVs are: ``ring``, the (n_asv, 2) ring of radius ``r_hf +
    delta_b`` at ``alpha0``; ``stations``, it as (x, y) lists; ``at(tick)``,
    the stations plus, with jitter, the tick's ``asv_jitter`` draw of
    ``normal(0.0, std, (n_asv, 2))``.  Jitter is drawn ``RNG_BLOCK`` ticks at
    a time up to the tick asked for, ticks being asked in increasing order,
    and added by numpy's IEEE ``+``, so each coordinate is the per-tick
    scalar ``x + jx``.  The scheduler reads the ASVs only through ``at``."""

    def __init__(self, config: SimConfig):
        self.ring = asv_positions(config.n_asv, config.r_hf + config.delta_b, config.alpha0)
        self.stations = self.ring.tolist()
        std, self.jitter = config.asv_jitter_std, None
        if std > 0:
            gen = derive_rng(config.seed, "asv_jitter")
            self.jitter = block_stream(
                lambda size: gen.normal(0.0, std, size=(size,) + self.ring.shape) + self.ring)
        self.ticks, self.anchors = 0, None   # ticks drawn; the last one's anchors

    def at(self, tick: int) -> list:
        if self.jitter is None:
            return self.stations
        while self.ticks <= tick:
            self.anchors = next(self.jitter)
            self.ticks += 1
        return self.anchors


def _mean(xs: list[float]) -> float:
    """The mean of ``xs`` summed left to right, the same bits on every
    interpreter: from Python 3.12 on, ``sum()`` of floats is compensated."""
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


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

    seed = config.seed
    sq_dt = math.sqrt(dt)
    imu_noise = [noise_stream(derive_rng(seed, f"imu/{i}"), (config.sigma, config.sigma),
                              sq_dt) for i in range(n)]
    depth_noise = [noise_stream(derive_rng(seed, f"depth/{i}"), config.sigma_z)
                   for i in range(n)]
    usbl_scales = (config.noise.sigma_r, config.noise.sigma_theta, config.noise.sigma_phi)
    # (noise triples, loss stream) per AUV-to-ASV path
    paths = [[(noise_stream(derive_rng(seed, f"usbl/{i}/{j}"), usbl_scales),
               uniform_stream(derive_rng(seed, f"loss/{i}/{j}"))) for j in range(m)]
             for i in range(n)]

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

    proto = TdmaScheduler(config, paths, Recolorer(config.r_hf), truths, AsvFleet(config))

    cte_sum = [0.0] * n
    err_sum = [0.0] * n
    dist = [0.0] * n
    max_fused_err = [0.0] * n
    max_innovation = [0.0] * n
    excursions = 0
    trace_rows = array("d")

    total_ticks = run_ticks(config).mission
    ticks_run = 0
    finished = 0    # AUVs past their last waypoint
    for k in range(total_ticks):
        # the protocol has nothing to do before its next event tick
        active = usbl_enabled and k >= proto.next_tick
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
            for _, i, _, fix, _ in proto.step(k):
                p = navs[i].p_fused
                innov = math.hypot(fix[0] - p[0], fix[1] - p[1])
                if innov > max_innovation[i]:
                    max_innovation[i] = innov
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
    pings = Counter(i for _, i, _ in proto.events.records(PING))
    applied = [[] for _ in range(n)]   # (tick, latency) per fix applied, per AUV
    for tick, i, lat in proto.events.records(DELIVER):
        applied[i].append((tick, lat))
    lat_sorted = sorted(lat for fixes in applied for _, lat in fixes)
    total_applied = len(lat_sorted)
    drops = proto.events.kinds.count
    per_auv, auv_extra = [], []
    for i, fixes in enumerate(applied):
        fix_ticks = [tick for tick, _ in fixes]
        gaps = [(b - a) / f_t for a, b in zip(fix_ticks, fix_ticks[1:])]
        per_auv.append(AuvMetrics(
            auv_id=i,
            mean_cte=cte_sum[i] / ticks_run if ticks_run else 0.0,
            mean_est_err=err_sum[i] / ticks_run if ticks_run else 0.0,
            fix_count=len(fix_ticks),
            coverage=proto.heard[i] / pings[i] if pings[i] else 0.0,
            distance=dist[i],
            allocation=len(fix_ticks) / total_applied if total_applied else 0.0,
            mean_inter_fix_s=_mean(gaps) if gaps else 0.0,
            max_inter_fix_s=max(gaps) if gaps else 0.0,
            final_imu_err=math.hypot(navs[i].p_imu[0] - truths[i].x,
                                     navs[i].p_imu[1] - truths[i].y),
            max_fused_err=max_fused_err[i],
        ))
        auv_extra.append(dict(zip(AUV_EXTRA, (
            pings[i], max((lat for _, lat in fixes), default=0.0), max_innovation[i]))))
    proto.events.pack()   # every figure above is taken: keep the records as typed columns
    return MissionReport(
        config_hash=config.config_hash(),
        seed=seed,
        ticks=ticks_run,
        duration_s=duration_s,
        per_auv=per_auv,
        total_applied=total_applied,
        applied_rate_hz=total_applied / duration_s if duration_s else 0.0,
        latency_mean_s=_mean(lat_sorted) if lat_sorted else 0.0,
        latency_p95_s=lat_sorted[math.ceil(0.95 * len(lat_sorted)) - 1] if lat_sorted else 0.0,
        dropped={"superseded": drops(SUPERSEDED), "expired": drops(EXPIRED),
                 "out_of_mf_range": drops(OUT_OF_MF_RANGE)},
        max_innovation=max(max_innovation),
        excursion_ticks=excursions,
        auv_extra=auv_extra,
        events=proto.events,
        trace=trace_rows,
    )
