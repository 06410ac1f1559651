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
import re
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .acoustic import attempt_fix, fuse_fixes
from .conflict import Coloring
from .schema import param

_TICK_EPS = 1e-9   # guards ceil() against float residue in exact products


@dataclass
class TimingConfig:
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
    # the deleted tick rate field (SimConfig.f_t is the rate), hashed as it was
    retired = (("f_t", "30"),)


def ticks_ceil(seconds: float, f_t: float) -> int:
    """Smallest tick count covering a duration; exact products stay exact."""
    return max(0, math.ceil(seconds * f_t - _TICK_EPS))


class RunTicks(NamedTuple):
    """A run's protocol durations in ticks, and the one-fix airtime in s."""
    slot: int      # uplink slot
    mf_slot: int
    max_age: int   # a buffered fix older than this expires
    t_tx: float
    mission: int   # the run's ticks: duration * f_t, rounded half to even


def run_ticks(config) -> RunTicks:
    """The protocol's tick counts for the run's ``SimConfig``, from the
    README's "Protocol timing" formulas.  Raises ValueError naming the first
    quantity, the mission's ``duration`` and the longest delivery ``t_tx +
    r_mf / c`` included, whose tick count is not finite."""
    timing, c, f_t = config.timing, config.noise.c, config.f_t
    tc = config.L / c   # crossing time of the survey area
    t_tx = (timing.n_hdr + timing.b_fix) * 8.0 * timing.overhead / timing.r_dl
    seconds = {
        "mission": config.duration,
        "uplink slot": max(timing.t_p + config.r_hf / c + timing.guard_factor_ul * tc,
                           timing.min_slot_factor_ul * tc),
        "MF slot": max(t_tx + timing.guard_factor_dl * tc, timing.min_slot_factor_dl * tc),
        "fix age": timing.max_fix_age_s,
        "longest delivery": t_tx + timing.r_mf / c,
    }
    for name, s in seconds.items():
        if not math.isfinite(s * f_t):
            raise ValueError(f"the {name} of {s} s has no finite tick count "
                             f"at tick_rate {f_t}")
    return RunTicks(
        # at least one tick, so that successive groups never share a tick
        max(1, ticks_ceil(seconds["uplink slot"], f_t)),
        ticks_ceil(seconds["MF slot"], f_t),
        ticks_ceil(timing.max_fix_age_s, f_t),
        t_tx, round(config.duration * f_t))


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
_FIELD_SPEC = re.compile(r"%(d|\.6f)")   # a template's field types, in order


def _uint_column(values: list[int]) -> array | list[int]:
    """Non-negative ints in the narrowest unsigned ``array`` that holds the
    largest exactly; the list itself when the widest cannot."""
    top = max(values, default=0)
    for code in "BHIQ":
        if top < 1 << 8 * array(code).itemsize:
            return array(code, values)
    return values


class EventLog:
    """Protocol events as numeric records, rendered to text on read.

    ``add`` appends a kind code to ``kinds`` and the event's values to the
    kind's flat list ``stores[kind]``; ``records(kind)`` yields that kind's
    field tuples in order, ``len`` counts the events and iterating renders
    them.  ``%d`` and ``%.6f`` give what the f-string ``{v}`` and
    ``{v:.6f}`` give, byte for byte.  A live log appends to lists, since
    extending an ``array`` costs several times a list ``+=`` per record;
    ``pack`` stores a finished log's values as typed columns.
    """

    __slots__ = ("kinds", "stores")

    def __init__(self):
        self.kinds = bytearray()
        self.stores: list[list[int | float] | tuple[array | list[int], ...]] = [
            [] for _ in EVENT_FORMATS]

    def add(self, kind: int, *fields):
        self.kinds.append(kind)
        self.stores[kind] += fields

    def __len__(self) -> int:
        return len(self.kinds)

    def records(self, kind: int):
        """The field tuples of ``kind``'s events, in the order they happened:
        a packed kind's columns zipped, a live kind's flat list cut up."""
        store = self.stores[kind]
        if type(store) is tuple:
            return zip(*store)
        return zip(*[iter(store)] * EVENT_FORMATS[kind][1])

    def pack(self):
        """Store each kind as one column per field, once the log takes no
        more events.  The kind's template types each field: a ``%.6f``
        column becomes an ``array('d')``, and a ``%d`` one (a tick, id,
        count or byte size, never negative) the narrowest unsigned
        ``array`` that holds its largest value exactly, or stays a list of
        ints beyond the widest.  So ``records`` yields the tuples, types
        included, that it yielded before, every int exact.  Kinds are
        converted one at a time, so only one kind's list and columns
        coexist."""
        stores = self.stores
        for kind, (template, n) in enumerate(EVENT_FORMATS):
            values = stores[kind]
            stores[kind] = tuple(
                array("d", values[f::n]) if spec == ".6f" else _uint_column(values[f::n])
                for f, spec in enumerate(_FIELD_SPEC.findall(template)))

    def __iter__(self):
        cursors = [self.records(kind) for kind in range(len(EVENT_FORMATS))]
        for kind in self.kinds:
            yield EVENT_FORMATS[kind][0] % next(cursors[kind])


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


class TdmaScheduler:
    """Incremental protocol engine driven one tick at a time.

    Owns the round lifecycle, the downlink fix buffer, the MF channel state
    and the fleet's causal delivery queue.  ``config`` is the run's
    ``SimConfig``, taken as its ``validate`` left it: the scheduler reads its
    ``L``, ``f_t``, ``r_hf`` (the HF audibility cutoff), ``contention``,
    ``conflict_source``, ``timing`` and ``noise``.  ``paths[i][j]`` is the
    (noise triples, loss stream) pair of the path from AUV i to ASV j;
    ``vehicles[i]``, which the host moves, is AUV i's true position as its
    ``x``, ``y`` and ``z``; ``asvs``, an ``AsvFleet``, is where the ASVs
    are.  A round's (graph, coloring) pair is ``recolorer(positions,
    anchors)`` of the AUVs' (x, y) and the ASVs' at the round's start tick:
    round 0 starts at tick 0, each later round at the previous one's end
    (see ``step``).

    Slot lengths, the one-fix payload and its airtime depend only on the
    configuration, so they are computed once, by ``run_ticks``: group g of
    a round starting at tick s pings at ``s + g * slot_ticks``.  The
    README's "Protocol timing" paragraph gives these formulas and those of
    delivery ticks and latency.

    ``next_tick`` is the earliest tick at which ``step()`` can emit an event
    or deliver a fix: the round end, the next group start, the MF channel
    freeing up while fixes are buffered, or the earliest queued delivery.
    Before it ``step()`` and ``due_auvs()`` are no-ops, so a host may skip
    them; stepping every tick gives the same result.
    """

    def __init__(self, config, paths, recolorer, vehicles, asvs):
        self.timing = timing = config.timing
        self.noise = noise = config.noise
        self.f_t = config.f_t
        self.r_hf = config.r_hf
        self.contention = config.contention
        self.paths = paths
        self.n_auv = n_auv = len(paths)
        self.n_asv = len(paths[0])
        ticks = run_ticks(config)
        self.slot_ticks, self.mf_slot_ticks = ticks.slot, ticks.mf_slot
        self.max_age_ticks, self.t_tx = ticks.max_age, ticks.t_tx
        self.fix_payload = timing.n_hdr + timing.b_fix   # header and one fix record

        self.var_r = noise.sigma_r ** 2
        self.recolorer = recolorer
        self.vehicles = vehicles
        self.asvs = asvs
        self.last_fix = [(t.x, t.y) for t in vehicles]
        self.on_fixes = config.conflict_source == "last_fix"
        self.graph = self.coloring = None   # the current round's pair
        self.buffer: dict[int, tuple] = {}   # auv -> (fused (x, y), ping tick)
        self.last_served = [-1] * n_auv
        self.mf_busy_until = 0
        self.bcast_count = 0
        self.queue = FixQueue(n_auv)
        self.heard = [0] * n_auv   # per AUV, pings some ASV heard: not in the events
        self.events = EventLog()
        self.next_tick = self.round_end = 0   # step(0) starts round 0

    def start_round(self, graph: list[set[int]], coloring: Coloring, tick: int):
        """Lay out a round of ``coloring``'s groups from ``tick`` on.

        Whenever the (graph, coloring) pair is not the previous round's, its
        groups are asserted to put no two AUVs adjacent in ``graph`` in one
        slot; a pair's groups never change.
        """
        if graph is not self.graph or coloring is not self.coloring:
            for g, members in enumerate(coloring.groups):
                for a_i, a in enumerate(members):
                    clash = graph[a].intersection(members[a_i + 1:])
                    if clash:
                        raise AssertionError(f"conflicting AUVs {a} and {min(clash)} "
                                             f"share uplink slot {g}")
            self.graph, self.coloring = graph, coloring
        self.round_start = tick
        self.round_end = tick + max(coloring.k, 1) * self.slot_ticks

    def due_auvs(self, tick: int) -> set[int]:
        """AUVs with a delivery due at this tick (known before the tick runs)."""
        return self.queue.due(tick)

    def step(self, tick: int):
        """Run all protocol events of one tick; returns the queue entries delivered.

        The tick's anchors, ``asvs.at(tick)``, are read once: ASV j is at
        (x, y) ``anchors[j]`` and z = 0.  At a round end (tick 0 for round
        0) the next round is colored first, and here ``conflict_source`` is
        decided: from the vehicles' true x, y or from the last fix delivered
        to each AUV (its start position until it has one).

        In a group's slot every member pings, and every ASV within ``r_hf``
        of it attempts a fix; an ASV beyond it neither hears the ping nor
        draws.  The fixes of one ping are fused, and each fused fix replaces
        the AUV's buffered one.
        """
        anchors = self.asvs.at(tick)
        if tick == self.round_end:
            positions = (self.last_fix if self.on_fixes
                         else [(t.x, t.y) for t in self.vehicles])
            self.start_round(*self.recolorer(positions, anchors), tick)
        g, off = divmod(tick - self.round_start, self.slot_ticks)
        groups = self.coloring.groups
        if off == 0 and 0 <= g < len(groups):
            members = groups[g]
            n_cont = self.n_auv if self.contention == "fleet" else len(members)
            r_hf, var_r, sigma_theta = self.r_hf, self.var_r, self.noise.sigma_theta
            # EventLog.add inlined: this loop records most of a run's events
            kinds, stores = self.events.kinds, self.events.stores
            ping_rec, fix_rec, fuse_rec = stores[PING], stores[FIX], stores[FUSE]
            fused = []
            for i in members:
                kinds.append(PING)
                ping_rec += (tick, i, g)
                t, paths = self.vehicles[i], self.paths[i]
                px, py, pz = t.x, t.y, t.z
                heard = False
                fixes = []
                for j, a in enumerate(anchors):
                    dx = px - a[0]
                    dy = py - a[1]
                    r = math.sqrt(dx * dx + dy * dy + pz * pz)
                    if r > r_hf:
                        continue
                    heard = True
                    noise_triples, loss_rng = paths[j]
                    fx = attempt_fix(a, dx, dy, pz, r, n_cont, var_r, sigma_theta,
                                     noise_triples, loss_rng)
                    if fx is not None:
                        kinds.append(FIX)
                        fix_rec += (tick, i, j)
                        fix_rec += fx
                        fixes.append(fx)
                self.heard[i] += heard
                if fixes:
                    kinds.append(FUSE)
                    fuse_rec += (tick, i, len(fixes))
                    fused.append((i, fuse_fixes(fixes)))
            buffer = self.buffer
            for i, fix in fused:
                if i in buffer:
                    self.events.add(SUPERSEDED, tick, i)
                buffer[i] = (fix, tick)
        if self.buffer and tick >= self.mf_busy_until:
            self._mf_step(tick, anchors)
        delivered = self.queue.pop_due(tick)
        for kd, i, _, fix, ping_tick in delivered:
            self.events.add(DELIVER, tick, i, (kd - ping_tick) / self.f_t)
            self.last_fix[i] = fix
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

    def _mf_step(self, tick: int, anchors):
        buffer = self.buffer
        oldest = tick - self.max_age_ticks   # a fix pinged before it is expired
        target = -1   # the AUV served least recently, the lowest id on a tie
        for i in sorted(buffer):
            if buffer[i][1] < oldest:
                del buffer[i]
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
        t, a = self.vehicles[target], anchors[asv_j]
        d = math.hypot(t.x - a[0], t.y - a[1])
        if d > self.timing.r_mf:
            self.events.add(OUT_OF_MF_RANGE, tick, target)
            return
        kd = tick + ticks_ceil(self.t_tx + d / self.noise.c, self.f_t)
        self.queue.push(kd, target, fix, ping_tick)
