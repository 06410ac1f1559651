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
bound.

Events are kept as numeric records and rendered to their text form only
when the log is read (``EventLog``).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

from .acoustic import (SOUND_SPEED, LossModelCoefficients, UsblNoiseConfig,
                       attempt_fix, fuse_fixes)
from .conflict import Coloring
from .schema import param

_TICK_EPS = 1e-9   # guards ceil() against float residue in exact products


@dataclass
class TimingConfig:
    f_t: int = param(30, gt=0)                                # tick rate, Hz
    t_p: float = param(0.010, "protocol", "ping_duration", gt=0)   # ping duration, s
    guard_factor_ul: float = param(0.5, "protocol", gt=0)     # uplink guard, crossing times
    min_slot_factor_ul: float = param(2.5, "protocol", gt=0)  # uplink slot floor, crossing times
    guard_factor_dl: float = param(1.25, "protocol", gt=0)    # downlink guard, crossing times
    min_slot_factor_dl: float = param(10.0, "protocol", gt=0) # downlink slot floor, crossing times
    r_dl: float = param(2000.0, "protocol", gt=0)             # downlink bitrate, bits/s
    overhead: float = param(2.0, "protocol", gt=0)            # protocol overhead factor
    n_hdr: int = param(8, "protocol", "header_bytes", gt=0)   # broadcast header, bytes
    b_fix: int = param(16, "protocol", "fix_bytes", gt=0)     # per-fix record, bytes
    r_mf: float = param(100.0, "protocol", gt=0)              # MF downlink range, m
    max_fix_age_s: float = param(0.30, "protocol", "max_fix_age", gt=0)  # buffer freshness, s


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


# Event kinds.  A record is its kind plus the ints and floats its template
# formats, in order.
PING, FIX, FUSE, BCAST, DELIVER, SUPERSEDED, EXPIRED, OUT_OF_MF_RANGE = range(8)
EVENT_FORMATS = (   # (template, field count), indexed by kind
    ("PING{tick=%d, auv=%d, group=%d}", 3),
    ("FIX{tick=%d, auv=%d, asv=%d, pos=(%.6f, %.6f, %.6f), var=%.6f}", 7),
    ("FUSE{tick=%d, auv=%d, k=%d}", 3),
    ("BCAST{tick=%d, asv=%d, bytes=%d}", 3),
    ("DELIVER{tick=%d, auv=%d, latency_s=%.6f}", 3),
    ("DROP{tick=%d, auv=%d, reason=superseded}", 2),
    ("DROP{tick=%d, auv=%d, reason=expired}", 2),
    ("DROP{tick=%d, auv=%d, reason=out_of_mf_range}", 2),
)


class EventLog:
    """Protocol events as numeric records, rendered to text on read.

    ``add`` appends a kind code to ``kinds`` and the event's int and float
    values to the flat ``fields`` list, and formats nothing; ``len`` is the
    event count and iterating yields each event's text.  ``%d`` and
    ``%.6f`` format an int and a float as the f-string ``{v}`` and
    ``{v:.6f}`` do, so the text is byte for byte what formatting at the
    event gave.  The values are kept as they are, not converted into an
    ``array``: its per-value conversion costs more than formatting a PING.
    """

    __slots__ = ("kinds", "fields")

    def __init__(self):
        self.kinds = bytearray()
        self.fields: list[int | float] = []

    def add(self, kind: int, *fields):
        self.kinds.append(kind)
        self.fields += fields

    def __len__(self) -> int:
        return len(self.kinds)

    def __iter__(self):
        fields = self.fields
        pos = 0
        for kind in self.kinds:
            template, n = EVENT_FORMATS[kind]
            yield template % tuple(fields[pos:pos + n])
            pos += n


class FixQueue:
    """The fleet's pending deliveries, one min-heap keyed on delivery tick.

    A delivery is its heap entry ``(deliver_tick, auv, seq, fix, ping_tick)``
    with ``seq`` the push count.  Fixes due by a tick are released in
    ascending AUV order and, for one AUV, in delivery-tick then push order;
    an AUV's releases never go back in delivery tick.
    """

    def __init__(self, n_auv: int):
        self._heap = []
        self._seq = 0
        self._last_released = [-1] * n_auv

    def push(self, deliver_tick: int, auv: int, fix, ping_tick: int):
        heapq.heappush(self._heap, (deliver_tick, auv, self._seq, fix, ping_tick))
        self._seq += 1

    def head_tick(self) -> int | None:
        """Delivery tick of the earliest pending fix, None when empty."""
        return self._heap[0][0] if self._heap else None

    def due(self, tick: int) -> set[int]:
        """AUVs with a delivery due by ``tick``."""
        heap = self._heap
        if not heap or heap[0][0] > tick:
            return set()
        return {auv for kd, auv, _, _, _ in heap if kd <= tick}

    def pop_due(self, tick: int) -> list[tuple]:
        """Remove and return the heap entries due by ``tick``."""
        heap = self._heap
        if not heap or heap[0][0] > tick:
            return []
        out = []
        while heap and heap[0][0] <= tick:
            out.append(heapq.heappop(heap))
        out.sort(key=itemgetter(1))    # stable: keeps each AUV's heap order
        last = self._last_released
        for kd, auv, _, _, _ in out:
            if kd < last[auv]:
                raise AssertionError("delivery queue released out of order")
            last[auv] = kd
        return out


def anchor_points(asv_xy) -> list[tuple[float, float, float]]:
    """ASV positions of an (n_asv, 2) array as plain (x, y, 0) tuples."""
    return [(x, y, 0.0) for x, y in asv_xy.tolist()]


class TdmaScheduler:
    """Incremental protocol engine driven one tick at a time.

    Owns the round schedule, the downlink fix buffer, the MF channel state
    and the fleet's causal delivery queue.  The host simulation supplies
    its vehicles' true positions and a recoloring callback fired at each
    round boundary.  The configs and ``contention`` are taken as
    ``SimConfig.validate`` left them.

    Slot lengths, the one-fix payload and its airtime depend only on the
    configuration, so they are computed once: group g of a round starting
    at tick s pings at ``s + g * slot_ticks``.

    ``next_tick`` is the earliest tick at which ``step()`` can emit an event
    or deliver a fix: the round end, the next group start, the MF channel
    freeing up while fixes are buffered, or the earliest queued delivery.
    Before it ``step()`` and ``due_auvs()`` are no-ops, so a host may skip
    them; stepping every tick gives the same result.
    """

    def __init__(self, timing: TimingConfig, noise: UsblNoiseConfig,
                 coeffs: LossModelCoefficients, L: float, n_auv: int,
                 n_asv: int, path_rngs, contention: str = "fleet"):
        self.timing = timing
        self.noise = noise
        self.coeffs = coeffs
        self.n_auv = n_auv
        self.n_asv = n_asv
        # (noise tuples, loss stream) per AUV-to-ASV path; looking up draws nothing
        self.paths = [[path_rngs(i, j) for j in range(n_asv)] for i in range(n_auv)]
        self.contention = contention
        self.max_age_ticks = ticks_ceil(timing.max_fix_age_s, timing.f_t)
        # ticks from one group's slot start to the next's
        self.slot_ticks = next_group_start(
            0, uplink_slot_duration(L, noise.r_max / noise.c, timing), timing.f_t)
        if self.slot_ticks < 1:
            raise ValueError("an uplink slot must last at least one tick")
        self.fix_payload = payload_bytes(1, timing)
        self.t_tx = tx_duration(self.fix_payload, timing)
        self.mf_slot_ticks = ticks_ceil(
            downlink_slot_duration(L, self.t_tx, timing), timing.f_t)

        self.var_r = noise.sigma_r ** 2
        # (graph, coloring, groups) per checked pair, keyed by the pair's ids;
        # holding both objects keeps their ids from being reused
        self.checked: dict[tuple[int, int], tuple] = {}
        self.groups: list[list[int]] = []
        self.round_start = 0
        self.round_end: int | None = None    # == next round's first slot start
        self.buffer: dict[int, tuple] = {}   # auv -> (fused (x, y, z), ping tick)
        self.last_served = [-1] * n_auv
        self.mf_busy_until = 0
        self.bcast_count = 0
        self.queue = FixQueue(n_auv)
        self.heard_log: list[list[bool]] = [[] for _ in range(n_auv)]
        self.dropped = {"superseded": 0, "expired": 0, "out_of_mf_range": 0}
        self.latencies: list[float] = []
        self.events = EventLog()
        self.next_tick = 0

    def start_round(self, graph: list[set[int]], coloring: Coloring, tick: int):
        """Lay out a round of ``coloring``'s groups from ``tick`` on.

        The groups of a (graph, coloring) pair are computed, and asserted to
        put no two AUVs adjacent in ``graph`` in one slot, the first time the
        pair starts a round only: a pair's groups never change.
        """
        key = (id(graph), id(coloring))
        checked = self.checked.get(key)
        if checked is None:
            groups = coloring.groups()
            for g, members in enumerate(groups):
                for a_i, a in enumerate(members):
                    clash = graph[a].intersection(members[a_i + 1:])
                    if clash:
                        raise AssertionError(f"conflicting AUVs {a} and {min(clash)} "
                                             f"share uplink slot {g}")
            checked = self.checked[key] = (graph, coloring, groups)
        self.groups = checked[2]
        self.round_start = tick
        self.round_end = tick + max(coloring.k, 1) * self.slot_ticks
        self.next_tick = min(self.next_tick, tick)

    def due_auvs(self, tick: int) -> set[int]:
        """AUVs with a delivery due at this tick (known before the tick runs)."""
        return self.queue.due(tick)

    def step(self, tick: int, vehicles, anchors, recolor):
        """Run all protocol events of one tick; returns the queue entries delivered.

        ``vehicles[i]`` is AUV i's true position as its ``x``, ``y`` and
        ``z``, and ``anchors[j]`` ASV j's as (x, y, z), as ``anchor_points``
        gives them.  ``recolor()`` must return a (graph, coloring) pair for
        the current positions; it is invoked once per round boundary.

        In a group's slot every member pings, and every ASV within
        ``noise.r_max`` of it attempts a fix; an ASV beyond it neither hears
        the ping nor draws.  The fixes of one ping are fused, and each fused
        fix replaces the AUV's buffered one.
        """
        if self.round_end is None:
            raise RuntimeError("start_round() must be called before step()")
        if tick == self.round_end:
            graph, coloring = recolor()
            self.start_round(graph, coloring, tick)
        g, off = divmod(tick - self.round_start, self.slot_ticks)
        groups = self.groups
        if off == 0 and 0 <= g < len(groups):
            members = groups[g]
            n_cont = self.n_auv if self.contention == "fleet" else len(members) or 1
            p_con = (n_cont - 1) * self.coeffs.p_col
            r_max, var_r = self.noise.r_max, self.var_r
            sigma_theta, coeffs = self.noise.sigma_theta, self.coeffs
            # EventLog.add inlined: this loop records most of a run's events
            kinds, fields = self.events.kinds, self.events.fields
            fused = []
            for i in members:
                kinds.append(PING)
                fields += (tick, i, g)
                t, paths = vehicles[i], self.paths[i]
                px, py, pz = t.x, t.y, t.z
                heard = False
                fixes = []
                for j, a in enumerate(anchors):
                    dx = px - a[0]
                    dy = py - a[1]
                    dz = pz - a[2]
                    r = math.sqrt(dx * dx + dy * dy + dz * dz)
                    if r > r_max:
                        continue
                    heard = True
                    noise_tuples, loss_rng = paths[j]
                    fx = attempt_fix(a, dx, dy, dz, r, p_con, var_r, sigma_theta, coeffs,
                                     noise_tuples, loss_rng)
                    if fx is not None:
                        kinds.append(FIX)
                        fields += (tick, i, j)
                        fields += fx
                        fixes.append(fx)
                self.heard_log[i].append(heard)
                if fixes:
                    kinds.append(FUSE)
                    fields += (tick, i, len(fixes))
                    fused.append((i, fuse_fixes(fixes)))
            buffer = self.buffer
            for i, fix in fused:
                if i in buffer:
                    self.dropped["superseded"] += 1
                    self.events.add(SUPERSEDED, tick, i)
                buffer[i] = (fix, tick)
        if self.buffer and tick >= self.mf_busy_until:
            self._mf_step(tick, vehicles, anchors)
        delivered = self.queue.pop_due(tick)
        for kd, i, _, _, ping_tick in delivered:
            lat = e2e_latency(ping_tick, kd, self.timing.f_t)
            self.latencies.append(lat)
            self.events.add(DELIVER, tick, i, lat)
        self.next_tick = self._next_event(tick)
        return delivered

    def _next_event(self, tick: int) -> int:
        """Earliest tick after ``tick`` at which ``step()`` has work."""
        slot = self.slot_ticks
        nxt = tick - (tick - self.round_start) % slot + slot   # next slot start
        if self.round_end < nxt:
            nxt = self.round_end
        if self.buffer and self.mf_busy_until < nxt:
            nxt = self.mf_busy_until
        head = self.queue.head_tick()
        if head is not None and head < nxt:
            nxt = head
        return nxt if nxt > tick else tick + 1

    def _mf_step(self, tick: int, vehicles, anchors):
        buffer = self.buffer
        oldest = tick - self.max_age_ticks   # a fix pinged before it is expired
        target = -1   # the AUV served least recently, the lowest id on a tie
        for i in sorted(buffer):
            if buffer[i][1] < oldest:
                del buffer[i]
                self.dropped["expired"] += 1
                self.events.add(EXPIRED, tick, i)
            elif target < 0 or self.last_served[i] < self.last_served[target]:
                target = i
        if target < 0:
            return
        fix, ping_tick = buffer.pop(target)
        asv_j = self.bcast_count % self.n_asv
        self.bcast_count += 1
        self.last_served[target] = tick
        self.events.add(BCAST, tick, asv_j, self.fix_payload)
        self.mf_busy_until = tick + self.mf_slot_ticks
        t, a = vehicles[target], anchors[asv_j]
        d = math.hypot(t.x - a[0], t.y - a[1])
        kd = delivery_tick(tick, self.t_tx, d, self.timing)
        if kd is None:
            self.dropped["out_of_mf_range"] += 1
            self.events.add(OUT_OF_MF_RANGE, tick, target)
            return
        self.queue.push(kd, target, fix, ping_tick)
