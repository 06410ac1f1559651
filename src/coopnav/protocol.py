"""Two-band TDMA acoustic protocol.

HF uplink: the fleet is partitioned into conflict-free ping groups; each
group gets one timed slot per round, with guard intervals scaled by the
acoustic crossing time of the survey area.  MF downlink: ASVs broadcast
collected fixes back to the AUVs; delivery ticks account for transmission
and propagation time and fixes queue causally per AUV.

The downlink scheduler here is event-triggered: each broadcast carries the
single buffered fix whose AUV has waited longest, a fix is superseded by a
newer one for the same AUV, and entries too stale to be worth the airtime
are dropped.  Keeping payloads at one fix record bounds the MF occupancy
per delivery and keeps end-to-end latency flat across survey scales; a
full-round payload at the configured downlink bitrate would occupy the MF
band for longer than one uplink round and the backlog would grow without
bound.  ``run_round`` retains the simple one-broadcast-per-round semantics
over a static fleet snapshot for composition tests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .acoustic import (SOUND_SPEED, FusedFix, LossModelCoefficients,
                       UsblNoiseConfig, attempt_fix, fuse_fixes)
from .conflict import Coloring, ConflictGraph

_TICK_EPS = 1e-9   # guards ceil() against float residue in exact products


@dataclass
class TimingConfig:
    f_t: int = 30                    # tick rate, Hz
    t_p: float = 0.010               # ping duration, s (fixed hardware)
    guard_factor_ul: float = 0.5     # uplink guard, crossing times
    min_slot_factor_ul: float = 2.5  # uplink slot floor, crossing times
    guard_factor_dl: float = 1.25    # downlink guard, crossing times
    min_slot_factor_dl: float = 10.0 # downlink slot floor, crossing times
    r_dl: float = 2000.0             # downlink bitrate, bits/s
    overhead: float = 2.0            # protocol overhead factor
    n_hdr: int = 8                   # broadcast header, bytes
    b_fix: int = 16                  # per-fix record, bytes
    r_mf: float = 100.0              # MF downlink range, m
    max_fix_age_s: float = 0.30      # downlink buffer freshness window, s

    def validate(self):
        for name in ("f_t", "t_p", "guard_factor_ul", "min_slot_factor_ul",
                     "guard_factor_dl", "min_slot_factor_dl", "r_dl",
                     "overhead", "n_hdr", "b_fix", "r_mf", "max_fix_age_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0 (got {getattr(self, name)})")
        if int(self.f_t) != self.f_t:
            raise ValueError(f"f_t must be integer-valued (got {self.f_t})")


def ticks_ceil(seconds: float, f_t: float) -> int:
    """Smallest tick count covering a duration; exact products stay exact."""
    return max(0, math.ceil(seconds * f_t - _TICK_EPS))


def crossing_time(L: float, c: float = SOUND_SPEED) -> float:
    """Acoustic crossing time of the survey area, t_C = L / c."""
    if L <= 0:
        raise ValueError(f"L must be > 0 (got {L})")
    return L / c


def uplink_slot_duration(L: float, tau_ot_max: float, cfg: TimingConfig) -> float:
    """Uplink slot for one ping group: ping + worst one-way time + guard, floored."""
    tc = crossing_time(L)
    return max(cfg.t_p + tau_ot_max + cfg.guard_factor_ul * tc,
               cfg.min_slot_factor_ul * tc)


def next_group_start(k_start: int, t_ul: float, f_t: float) -> int:
    """Earliest start tick of the following group's slot."""
    return k_start + ticks_ceil(t_ul, f_t)


def payload_bytes(k_fix: int, cfg: TimingConfig) -> int:
    """Broadcast payload: header plus k_fix fix records."""
    if k_fix < 0:
        raise ValueError(f"k_fix must be >= 0 (got {k_fix})")
    return cfg.n_hdr + cfg.b_fix * k_fix


def tx_duration(n_bytes: int, cfg: TimingConfig) -> float:
    """Airtime of a payload at the downlink bitrate, including overhead."""
    if n_bytes < 0:
        raise ValueError(f"n_bytes must be >= 0 (got {n_bytes})")
    return n_bytes * 8.0 * cfg.overhead / cfg.r_dl


def downlink_slot_duration(L: float, t_tx: float, cfg: TimingConfig) -> float:
    """MF slot: transmission plus guard, floored at the conservative minimum."""
    tc = crossing_time(L)
    return max(t_tx + cfg.guard_factor_dl * tc, cfg.min_slot_factor_dl * tc)


def delivery_tick(k_b: int, t_tx: float, d_ij: float, cfg: TimingConfig,
                  c: float = SOUND_SPEED) -> int | None:
    """Tick at which a fix broadcast at k_b reaches an AUV d_ij metres away.

    None when the AUV is beyond the MF range and the fix is not delivered.
    """
    if d_ij < 0:
        raise ValueError(f"d_ij must be >= 0 (got {d_ij})")
    if d_ij > cfg.r_mf:
        return None
    return k_b + ticks_ceil(t_tx + d_ij / c, cfg.f_t)


def e2e_latency(k_ping: int, k_deliver: int, f_t: float) -> float:
    """End-to-end latency from HF ping to fix delivery, seconds."""
    if k_deliver < k_ping:
        raise ValueError(f"k_deliver {k_deliver} precedes k_ping {k_ping}")
    return (k_deliver - k_ping) / f_t


@dataclass
class PendingDelivery:
    fix: FusedFix
    deliver_tick: int
    ping_tick: int


class FixQueue:
    """Per-AUV min-heap of pending deliveries keyed on delivery tick."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._last_released = -1

    def push(self, pd: PendingDelivery):
        heapq.heappush(self._heap, (pd.deliver_tick, self._seq, pd))
        self._seq += 1

    def head_tick(self) -> int | None:
        """Delivery tick of the earliest pending fix, None when empty."""
        return self._heap[0][0] if self._heap else None

    def peek_due(self, tick: int) -> bool:
        return bool(self._heap) and self._heap[0][0] <= tick

    def pop_due(self, tick: int) -> list[PendingDelivery]:
        out = []
        while self._heap and self._heap[0][0] <= tick:
            kd, _, pd = heapq.heappop(self._heap)
            if kd < self._last_released:
                raise AssertionError("delivery queue released out of order")
            self._last_released = kd
            out.append(pd)
        return out

    def __len__(self):
        return len(self._heap)


@dataclass
class RoundSchedule:
    group_start_ticks: list[int]
    group_slot_durations: list[float]
    broadcast_tick: int          # earliest MF start: end of the last uplink slot
    broadcaster_asv: int
    round_start: int = 0
    round_end: int = 0           # == next round's first slot start

    def __post_init__(self):
        for a, b in zip(self.group_start_ticks, self.group_start_ticks[1:]):
            if b <= a:
                raise ValueError("group start ticks must be strictly increasing")


def plan_round(coloring: Coloring, L: float, round_start: int,
               cfg: TimingConfig, tau_ot_max: float,
               broadcaster_asv: int = 0) -> RoundSchedule:
    """Lay out the uplink slots of one round starting at round_start."""
    t_ul = uplink_slot_duration(L, tau_ot_max, cfg)
    n_groups = max(coloring.k, 1)
    starts = []
    k = round_start
    for _ in range(n_groups):
        starts.append(k)
        k = next_group_start(k, t_ul, cfg.f_t)
    return RoundSchedule(group_start_ticks=starts,
                         group_slot_durations=[t_ul] * n_groups,
                         broadcast_tick=k,
                         broadcaster_asv=broadcaster_asv,
                         round_start=round_start,
                         round_end=k)


def _anchors(asv_xy) -> list[tuple[float, float, float]]:
    """ASV positions of an (n_asv, 2) array as plain (x, y, 0) tuples."""
    return [(float(x), float(y), 0.0) for x, y in asv_xy.tolist()]


def _ping_group(members, tick, group_idx, auv_positions, anchors,
                noise: UsblNoiseConfig, coeffs: LossModelCoefficients,
                n_contention: int, path_rngs, events,
                graph: ConflictGraph | None = None):
    """Every AUV of one color group pings; every ASV in range attempts a fix.

    ``anchors`` are the ASV positions as ``_anchors`` returns them.  Returns
    (fused fixes, auv ids heard by at least one ASV).  When a graph is
    given, asserts the spatial-reuse safety of the slot against it.
    """
    if graph is not None:
        for a_i, a in enumerate(members):
            for b in members[a_i + 1:]:
                if graph.has_edge(a, b):
                    raise AssertionError(
                        f"conflicting AUVs {a} and {b} share uplink slot {group_idx}")
    fused, heard_ids = [], []
    for i in members:
        events.append(f"PING{{tick={tick}, auv={i}, group={group_idx}}}")
        pos_i = auv_positions[i]
        heard = False
        fixes = []
        for j, asv_pos in enumerate(anchors):
            dx = pos_i[0] - asv_pos[0]
            dy = pos_i[1] - asv_pos[1]
            dz = pos_i[2] - asv_pos[2]
            if math.sqrt(dx * dx + dy * dy + dz * dz) <= noise.r_max:
                heard = True
            rng, loss_rng = path_rngs(i, j)
            fx = attempt_fix(asv_pos, pos_i, n_contention, noise, coeffs, rng,
                             loss_rng=loss_rng, auv_id=i, asv_id=j,
                             measure_tick=tick)
            if fx is not None:
                x, y, z = fx.position
                events.append(
                    f"FIX{{tick={tick}, auv={i}, asv={j}, "
                    f"pos=({x:.6f}, {y:.6f}, {z:.6f}), var={fx.horiz_variance:.6f}}}")
                fixes.append(fx)
        if heard:
            heard_ids.append(i)
        if fixes:
            ff = fuse_fixes(fixes)
            events.append(f"FUSE{{tick={tick}, auv={i}, k={ff.contributing_asv_count}}}")
            fused.append(ff)
    return fused, heard_ids


def run_round(coloring: Coloring, auv_positions, layout_xy, round_start_tick: int,
              timing: TimingConfig, noise: UsblNoiseConfig,
              coeffs: LossModelCoefficients, path_rngs, L: float,
              broadcaster_asv: int = 0, n_contention: int | None = None,
              graph: ConflictGraph | None = None):
    """One full uplink round over a static fleet snapshot.

    Sequences the color groups, runs the fix attempts and fusion for each,
    then broadcasts the whole accumulated payload at the end of the last
    uplink slot and computes the per-AUV delivery ticks.  Returns
    (fused fixes, pending deliveries, next_round_start, events).
    """
    tau = noise.r_max / noise.c
    sched = plan_round(coloring, L, round_start_tick, timing, tau, broadcaster_asv)
    groups = coloring.groups()
    if n_contention is None:
        n_contention = max(len(coloring.color), 1)
    events: list[str] = []
    collected: list[tuple[FusedFix, int]] = []
    anchors = _anchors(layout_xy)
    for g, start in enumerate(sched.group_start_ticks):
        members = groups[g] if g < len(groups) else []
        fused, _ = _ping_group(members, start, g, auv_positions, anchors,
                               noise, coeffs, n_contention, path_rngs, events,
                               graph=graph)
        collected.extend((ff, start) for ff in fused)

    k_b = sched.broadcast_tick
    nbytes = payload_bytes(len(collected), timing)
    t_tx = tx_duration(nbytes, timing)
    events.append(f"BCAST{{tick={k_b}, asv={broadcaster_asv}, bytes={nbytes}}}")
    deliveries = []
    for ff, ping_tick in collected:
        bx = float(layout_xy[broadcaster_asv][0])
        by = float(layout_xy[broadcaster_asv][1])
        px, py = auv_positions[ff.auv_id][0], auv_positions[ff.auv_id][1]
        d = math.hypot(px - bx, py - by)
        kd = delivery_tick(k_b, t_tx, d, timing)
        if kd is None:
            events.append(f"DROP{{tick={k_b}, auv={ff.auv_id}, reason=out_of_mf_range}}")
            continue
        deliveries.append(PendingDelivery(ff, kd, ping_tick))
    return [ff for ff, _ in collected], deliveries, sched.round_end, events


class TdmaScheduler:
    """Incremental protocol engine driven one tick at a time.

    Owns the round schedule, the downlink fix buffer, the MF channel state
    and the per-AUV causal delivery queues.  The host simulation supplies
    fresh positions and a recoloring callback fired at each round boundary.

    ``next_tick`` is the earliest tick at which ``step()`` can emit an event
    or deliver a fix: the round end, the next group start, the MF channel
    freeing up while fixes are buffered, or the earliest queued delivery.
    Before it ``step()`` and ``due_auvs()`` are no-ops, so a host may skip
    them; stepping every tick gives the same result.
    """

    def __init__(self, timing: TimingConfig, noise: UsblNoiseConfig,
                 coeffs: LossModelCoefficients, L: float, n_auv: int,
                 n_asv: int, path_rngs, contention: str = "fleet"):
        timing.validate()
        noise.validate()
        if contention not in ("fleet", "group"):
            raise ValueError(f"contention must be 'fleet' or 'group' (got {contention!r})")
        self.timing = timing
        self.noise = noise
        self.coeffs = coeffs
        self.L = L
        self.n_auv = n_auv
        self.n_asv = n_asv
        self.path_rngs = path_rngs
        self.contention = contention
        self.tau_ot_max = noise.r_max / noise.c
        self.max_age_ticks = ticks_ceil(timing.max_fix_age_s, timing.f_t)

        self.schedule: RoundSchedule | None = None
        self.groups: list[list[int]] = []
        self.graph: ConflictGraph | None = None
        self.buffer: dict[int, tuple[FusedFix, int]] = {}   # auv -> (fix, ping tick)
        self.last_served = [-1] * n_auv
        self.mf_busy_until = 0
        self.bcast_count = 0
        self.queues = [FixQueue() for _ in range(n_auv)]
        self.heard_log: list[list[bool]] = [[] for _ in range(n_auv)]
        self.dropped = {"superseded": 0, "expired": 0, "out_of_mf_range": 0}
        self.latencies: list[float] = []
        self.events: list[str] = []
        self.next_tick = 0

    def start_round(self, graph: ConflictGraph, coloring: Coloring, tick: int):
        self.graph = graph
        self.groups = coloring.groups()
        self.schedule = plan_round(coloring, self.L, tick, self.timing,
                                   self.tau_ot_max,
                                   broadcaster_asv=self.bcast_count % self.n_asv)
        self.next_tick = min(self.next_tick, tick)

    def due_auvs(self, tick: int) -> set[int]:
        """AUVs with a delivery due at this tick (known before the tick runs)."""
        return {i for i, q in enumerate(self.queues) if q.peek_due(tick)}

    def step(self, tick: int, auv_positions, asv_xy, recolor):
        """Run all protocol events of one tick; returns delivered fixes.

        ``asv_xy`` is the (n_asv, 2) array of ASV positions.  ``recolor()``
        must return a fresh (graph, coloring) pair; it is invoked once per
        round boundary.
        """
        if self.schedule is None:
            raise RuntimeError("start_round() must be called before step()")
        if tick == self.schedule.round_end:
            graph, coloring = recolor()
            self.start_round(graph, coloring, tick)
        anchors = _anchors(asv_xy)
        for g, start in enumerate(self.schedule.group_start_ticks):
            if start != tick:
                continue
            members = self.groups[g] if g < len(self.groups) else []
            n_cont = self.n_auv if self.contention == "fleet" else max(len(members), 1)
            fused, heard = _ping_group(members, tick, g, auv_positions, anchors,
                                       self.noise, self.coeffs, n_cont,
                                       self.path_rngs, self.events,
                                       graph=self.graph)
            heard_set = set(heard)
            for i in members:
                self.heard_log[i].append(i in heard_set)
            for ff in fused:
                if ff.auv_id in self.buffer:
                    self.dropped["superseded"] += 1
                    self.events.append(
                        f"DROP{{tick={tick}, auv={ff.auv_id}, reason=superseded}}")
                self.buffer[ff.auv_id] = (ff, tick)
        self._mf_step(tick, auv_positions, anchors)
        delivered = self._release_due(tick)
        self.next_tick = self._next_event(tick)
        return delivered

    def _next_event(self, tick: int) -> int:
        """Earliest tick after ``tick`` at which ``step()`` has work."""
        nxt = next((start for start in self.schedule.group_start_ticks
                    if start > tick), self.schedule.round_end)
        if self.buffer:
            nxt = min(nxt, self.mf_busy_until)
        for q in self.queues:
            head = q.head_tick()
            if head is not None and head < nxt:
                nxt = head
        return max(nxt, tick + 1)

    def _mf_step(self, tick: int, auv_positions, anchors):
        if tick < self.mf_busy_until:
            return
        for i in sorted(self.buffer):
            if tick - self.buffer[i][1] > self.max_age_ticks:
                del self.buffer[i]
                self.dropped["expired"] += 1
                self.events.append(f"DROP{{tick={tick}, auv={i}, reason=expired}}")
        if not self.buffer:
            return
        target = min(self.buffer, key=lambda a: (self.last_served[a], a))
        ff, ping_tick = self.buffer.pop(target)
        asv_j = self.bcast_count % self.n_asv
        self.bcast_count += 1
        self.last_served[target] = tick
        nbytes = payload_bytes(1, self.timing)
        t_tx = tx_duration(nbytes, self.timing)
        self.events.append(f"BCAST{{tick={tick}, asv={asv_j}, bytes={nbytes}}}")
        t_dl = downlink_slot_duration(self.L, t_tx, self.timing)
        self.mf_busy_until = tick + ticks_ceil(t_dl, self.timing.f_t)
        d = math.hypot(auv_positions[target][0] - anchors[asv_j][0],
                       auv_positions[target][1] - anchors[asv_j][1])
        kd = delivery_tick(tick, t_tx, d, self.timing)
        if kd is None:
            self.dropped["out_of_mf_range"] += 1
            self.events.append(f"DROP{{tick={tick}, auv={target}, reason=out_of_mf_range}}")
            return
        self.queues[target].push(PendingDelivery(ff, kd, ping_tick))

    def _release_due(self, tick: int):
        delivered = []
        for i, q in enumerate(self.queues):
            for pd in q.pop_due(tick):
                lat = e2e_latency(pd.ping_tick, pd.deliver_tick, self.timing.f_t)
                self.latencies.append(lat)
                self.events.append(
                    f"DELIVER{{tick={tick}, auv={i}, latency_s={lat:.6f}}}")
                delivered.append((i, pd))
        return delivered
