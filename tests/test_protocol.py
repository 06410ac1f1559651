
import math
import re
from array import array
from collections import Counter

import numpy as np
import pytest

from coopnav.acoustic import UsblNoiseConfig, attempt_fix
from coopnav.conflict import (Coloring, audibility_masks, build_conflict_graph,
                              greedy_color)
from coopnav.engine import (AsvFleet, Recolorer, SimConfig, derive_rng, noise_stream, run,
                            uniform_stream)
from coopnav.mission import GuidanceConfig, VehicleTruth, plan_lawnmower
from coopnav.protocol import (BCAST, DELIVER, EVENT_FORMATS, EXPIRED, FIX, FUSE,
                              OUT_OF_MF_RANGE, PING, SUPERSEDED, EventLog, FixQueue,
                              TdmaScheduler, TimingConfig, ticks_ceil)
from fleets import StillAsvs
from graphs import from_edges

CFG = TimingConfig()
C = 1500.0   # m/s
F_T = 30     # Hz


def test_ticks_ceil():
    assert ticks_ceil(0.1 * 30 / 30, 30) == 3
    assert ticks_ceil(0.0999, 30) == 3
    assert ticks_ceil(0.1001, 30) == 4
    assert ticks_ceil(0.0, 30) == 0
    # 7/30 s at 30 Hz is exactly 7 ticks
    assert ticks_ceil(0.23333333333333334, 30) == 7


def fixed(graph, coloring):
    """A recolorer that gives one (graph, coloring) pair for every round."""
    return lambda positions, anchors: (graph, coloring)


def scheduler(L=60.0, timing=CFG, c=C, f_t=F_T, r_hf=50.0):
    """A one-AUV, one-ASV scheduler, with HF range 50 m by default: the ASV
    at the origin, the AUV below it at 10 m depth."""
    cfg = SimConfig(L=L, f_t=f_t, r_hf=r_hf, noise=UsblNoiseConfig(c=c), timing=timing)
    return TdmaScheduler(cfg, make_paths(1, 1), fixed([set()], Coloring([0], 1)),
                         vehicles([(0.0, 0.0, 10.0)]), AsvFleet(cfg))


# At the defaults both slots sit on their floors of 2.5 and 10 crossing
# times; a 0.2 s ping and 64-byte fix records put both above them
@pytest.mark.parametrize("L, timing, c, want", [
    (60.0, CFG, C, (3, 12, 24, 0.192)),
    (140.0, CFG, C, (7, 28, 24, 0.192)),
    (60.0, CFG, 750.0, (6, 24, 24, 0.192)),
    (60.0, TimingConfig(t_p=0.2, b_fix=64), C, (8, 19, 72, 0.576)),
], ids=["L60", "L140", "L60_at_750_m_s", "guards_above_floors"])
def test_scheduler_timing_table(L, timing, c, want):
    sched = scheduler(L, timing, c)
    got = (sched.slot_ticks, sched.mf_slot_ticks, sched.fix_payload, sched.t_tx)
    assert got[:3] == want[:3] and got[3] == pytest.approx(want[3])


def test_slot_durations_respect_minimums():
    for L in (60.0, 100.0, 140.0):
        tc = L / C
        for b_fix in (16, 64):
            sched = scheduler(L, TimingConfig(b_fix=b_fix))
            assert sched.slot_ticks >= ticks_ceil(2.5 * tc, F_T)
            assert sched.mf_slot_ticks >= ticks_ceil(10.0 * tc, F_T)


def test_uplink_slot_duration():
    # ping + worst one-way time r_hf / c + guard, floored at 2.5 crossing
    # times: 0.1 s (floor), 0.2333 s (floor) and 0.23 s (guard) in ticks
    for L, r_hf, want in ((60.0, 50.0, 3), (140.0, 50.0, 7), (60.0, 300.0, 7)):
        assert scheduler(L, r_hf=r_hf).slot_ticks == want


def test_next_group_start_exact_products():
    # 0.1 s and 7/30 s at 30 Hz are exactly three and seven ticks despite
    # float residue; a slot shorter than a tick still lasts one
    for L, timing, c, start, want in ((60.0, CFG, C, 0, 3), (140.0, CFG, C, 100, 107),
                                      (0.001, TimingConfig(t_p=1e-15), 1e14, 7, 8)):
        sched = scheduler(L, timing, c)
        sched.start_round([set()], Coloring([0], 1), start)
        assert sched.round_end == want


def test_tx_duration():
    # header and one fix record at 2000 bit/s with overhead 2
    assert scheduler().t_tx == pytest.approx(0.192)
    assert scheduler(timing=TimingConfig(b_fix=64)).t_tx == pytest.approx(0.576)
    assert scheduler(timing=TimingConfig(r_dl=4000.0, overhead=1.0)).t_tx == pytest.approx(0.048)


def static_run(sched, pos, ticks=300):
    """Step a one-AUV scheduler with the AUV held at ``pos`` and the ASV at
    the origin; returns each delivered queue entry with its ticks in flight
    since the latest broadcast."""
    sched.vehicles[:] = vehicles([pos])
    return [(entry[0] - sched.last_served[0], entry) for k in range(ticks)
            for entry in sched.step(k)]


MF_EDGE = TimingConfig(r_mf=30.0)


def test_delivery_tick():
    # an AUV exactly at the 30 m MF range, horizontally, gets each fix
    # 0.192 s + 30 m / 1500 m/s after its broadcast: on the 7th tick
    sched = scheduler(timing=MF_EDGE)
    assert {flight for flight, _ in static_run(sched, (30.0, 0.0, 10.0), 30)} == {7}
    assert sched.events.kinds.count(OUT_OF_MF_RANGE) == 0


def test_a_broadcast_beyond_mf_range_is_dropped():
    # one float step beyond the 30 m MF range, every broadcast is dropped,
    # with its DROP event on its tick
    sched = scheduler(timing=MF_EDGE)
    assert not static_run(sched, (math.nextafter(30.0, math.inf), 0.0, 10.0), 30)
    drops = list(sched.events.records(OUT_OF_MF_RANGE))
    assert sched.bcast_count > 0 and len(drops) == sched.bcast_count
    assert drops == [(tick, 0) for tick, _, _ in sched.events.records(BCAST)]


def test_e2e_latency():
    # a fix's latency runs from its ping tick to its delivery tick
    for f_t in (10, 30):
        sched = scheduler(f_t=f_t)
        entries = [entry for _, entry in static_run(sched, (20.0, 0.0, 10.0))]
        assert entries
        assert [lat for _, _, lat in sched.events.records(DELIVER)] == [
            (kd - ping) / f_t for kd, _, _, _, ping in entries]
        assert [e for e in sched.events if e.startswith("DELIVER")] == [
            f"DELIVER{{tick={kd}, auv=0, latency_s={(kd - ping) / f_t:.6f}}}"
            for kd, _, _, _, ping in entries]


def test_fix_queue_orders_by_delivery_tick():
    q = FixQueue(1)
    q.push(12, 0, None, 0)
    q.push(5, 0, None, 1)
    q.push(9, 0, None, 2)
    assert not q.due(4) and q.head_tick() == 5
    out = q.pop_due(10)
    assert [(i, kd) for kd, i, _, _, _ in out] == [(0, 5), (0, 9)]
    assert q.pop_due(20)[0][0] == 12
    assert q.head_tick() is None


def test_fix_queue_releases_a_tick_by_auv_then_push_order():
    q = FixQueue(3)
    for auv, kd, ping in ((2, 7, 0), (0, 7, 1), (2, 7, 2), (1, 9, 3), (0, 6, 4)):
        q.push(kd, auv, (float(ping), 0.0, 0.0), ping)
    assert q.due(7) == {0, 2}
    out = q.pop_due(7)
    # per AUV ascending, each AUV's fixes in delivery-tick then push order
    assert [(i, ping) for _, i, _, _, ping in out] == [(0, 4), (0, 1), (2, 0), (2, 2)]
    assert [fix[0] for _, _, _, fix, _ in out] == [4.0, 1.0, 0.0, 2.0]
    assert q.head_tick() == 9
    q.push(8, 1, None, 5)
    q.pop_due(9)
    q.push(3, 1, None, 6)
    with pytest.raises(AssertionError):
        q.pop_due(9)


def make_paths(n_auv, n_asv, seed=0, noise=UsblNoiseConfig()):
    """The (noise triples, loss stream) table of every AUV-to-ASV path."""
    scales = (noise.sigma_r, noise.sigma_theta, noise.sigma_phi)
    return [[(noise_stream(derive_rng(seed, f"usbl/{i}/{j}"), scales),
              uniform_stream(derive_rng(seed, f"loss/{i}/{j}"))) for j in range(n_asv)]
            for i in range(n_auv)]


def vehicles(pos):
    """(x, y, z) positions as the scheduler reads them, from vehicles."""
    return [VehicleTruth(x, y, z, 0.0) for x, y, z in pos]


def one_round(pos, asv, graph, coloring, ticks=None):
    """Step a scheduler at L=60 every tick over its first round, which
    ``step(0)`` starts, or ``ticks`` ticks; returns it and its rendered
    events."""
    sched = TdmaScheduler(SimConfig(L=60.0, r_hf=50.0), make_paths(len(pos), len(asv)),
                          fixed(graph, coloring), vehicles(pos), StillAsvs(asv))
    sched.step(0)
    for k in range(1, sched.round_end if ticks is None else ticks):
        sched.step(k)
    return sched, list(sched.events)


K4_POS = [(10.0, 0.0, 10.0), (0.0, 10.0, 10.0), (-10.0, 0.0, 10.0),
          (0.0, -10.0, 10.0)]
K4_GRAPH = from_edges(4, {(i, j) for i in range(4) for j in range(i + 1, 4)})


def test_plan_round_spans():
    # k=4 groups at L=60: uplink slots of 3 ticks start at 0, 3, 6, 9 and the
    # next round starts at 12
    sched, events = one_round(K4_POS, np.zeros((1, 2)), K4_GRAPH,
                              Coloring([0, 1, 2, 3], 4), ticks=13)
    assert sched.slot_ticks == 3
    pings = [e for e in events if e.startswith("PING")]
    assert pings[:4] == [f"PING{{tick={3 * i}, auv={i}, group={i}}}" for i in range(4)]
    assert pings[4].startswith("PING{tick=12, auv=0,")
    assert sched.round_start == 12 and sched.round_end == 24


def test_run_round_k4_uplink_span():
    # four mutually conflicting vehicles, one anchor: four slots of 0.1 s,
    # then single-fix broadcasts, each delivered after it goes out
    sched, events = one_round(K4_POS, np.zeros((1, 2)), K4_GRAPH,
                              Coloring([0, 1, 2, 3], 4), ticks=60)
    assert len([tick for tick, _, _ in sched.events.records(PING) if tick < 12]) == 4
    bcasts = list(sched.events.records(BCAST))
    assert bcasts and all(size == sched.fix_payload for _, _, size in bcasts)
    delivers = [tick for tick, _, _ in sched.events.records(DELIVER)]
    assert delivers and min(delivers) > bcasts[0][0]


def test_scheduler_unheard_round_broadcasts_nothing():
    # everyone out of range: pings go out unheard, and with no fix buffered
    # the event-triggered downlink stays silent
    pos = [(500.0, 0.0, 10.0), (-500.0, 0.0, 10.0)]
    sched, events = one_round(pos, np.zeros((1, 2)), from_edges(2),
                              Coloring([0, 0], 1), ticks=30)
    assert set(sched.events.kinds) == {PING}
    assert Counter(i for _, i, _ in sched.events.records(PING)) == {0: 10, 1: 10}
    assert sched.heard == [0, 0]
    assert not sched.buffer and sched.queue.head_tick() is None and sched.bcast_count == 0


def test_scheduler_disjoint_footprints_share_slot():
    # empty conflict graph: both vehicles ping in the same slot tick
    pos = [(-100.0, 0.0, 10.0), (100.0, 0.0, 10.0)]
    asv = np.array([[-100.0, 0.0], [100.0, 0.0]])
    _, events = one_round(pos, asv, from_edges(2), Coloring([0, 0], 1))
    pings = [e for e in events if e.startswith("PING")]
    assert pings == ["PING{tick=0, auv=0, group=0}", "PING{tick=0, auv=1, group=0}"]


def test_scheduler_rejects_conflicting_slot_mates():
    pos = [(0.0, 0.0, 10.0), (5.0, 0.0, 10.0)]
    g = from_edges(2, {(0, 1)})
    bad = Coloring([0, 0], 1)   # improper on purpose
    with pytest.raises(AssertionError, match="conflicting AUVs 0 and 1"):
        one_round(pos, np.zeros((1, 2)), g, bad)


def test_scheduler_uplink_matches_reference_fix_attempts():
    # the scheduler attempts fixes on in-range paths only, handing each
    # attempt the geometry of its range test, as a reference loop does here
    pos = [(20.0, 5.0, 10.0), (-15.0, 10.0, 10.0), (5.0, -45.0, 10.0)]
    asv = np.array([[0.0, 0.0], [30.0, 0.0]])
    g = build_conflict_graph(audibility_masks(pos, asv, 50.0))
    coloring = greedy_color(g)
    sched, events = one_round(pos, asv, g, coloring)

    noise, paths = UsblNoiseConfig(), make_paths(3, 2)
    ref = []
    for grp, members in enumerate(coloring.groups):
        tick = grp * sched.slot_ticks
        for i in members:
            ref.append(f"PING{{tick={tick}, auv={i}, group={grp}}}")
            fixes = []
            for j, a in enumerate(asv.tolist()):
                dx, dy, dz = pos[i][0] - a[0], pos[i][1] - a[1], pos[i][2]
                r = math.sqrt(dx * dx + dy * dy + dz * dz)
                if r > 50.0:
                    continue
                usbl, loss = paths[i][j]
                fx = attempt_fix(a, dx, dy, dz, r, 3, noise.sigma_r ** 2,
                                 noise.sigma_theta, usbl, loss)
                if fx is not None:
                    x, y, z, var = fx
                    ref.append(f"FIX{{tick={tick}, auv={i}, asv={j}, "
                               f"pos=({x:.6f}, {y:.6f}, {z:.6f}), var={var:.6f}}}")
                    fixes.append(fx)
            if fixes:
                ref.append(f"FUSE{{tick={tick}, auv={i}, k={len(fixes)}}}")
    uplink = [e for kind, e in zip(sched.events.kinds, events) if kind in (PING, FIX, FUSE)]
    assert uplink == ref
    assert any(e.startswith("FIX") and "asv=1" in e for e in ref)
    assert math.dist(pos[2], (30.0, 0.0, 0.0)) > 50.0    # one path out of range


class MovedAsvs:
    """ASVs whose ``stations`` are not where they are: every tick's anchors
    are ``anchors``."""

    def __init__(self, stations, anchors):
        self.stations, self._anchors = stations, anchors

    def at(self, tick):
        return self._anchors


# two AUVs 60 m apart and two ASVs each in HF range of one AUV only: no
# conflict, so round 0 is one group, both pinging at tick 0
APART_POS = [(-30.0, 0.0, 10.0), (30.0, 0.0, 10.0)]
APART_ASV = [[-60.0, 0.0], [60.0, 0.0]]


def round_zero_pings(sched):
    sched.step(0)
    return sched.coloring.k, list(sched.events.records(PING))


def test_round_zero_is_colored_from_the_anchors_at_tick_zero():
    # both stations are in range of both AUVs, which would make them conflict
    sched = TdmaScheduler(SimConfig(L=60.0, r_hf=50.0), make_paths(2, 2), Recolorer(50.0),
                          vehicles(APART_POS),
                          MovedAsvs([[-5.0, 0.0], [5.0, 0.0]], APART_ASV))
    assert round_zero_pings(sched) == (1, [(0, 0, 0), (0, 1, 0)])


def test_round_zero_is_colored_from_the_positions_at_tick_zero():
    # built with both AUVs in range of ASV 0 only, moved apart before step(0)
    auvs = vehicles([(-50.0, 0.0, 10.0), (-40.0, 0.0, 10.0)])
    sched = TdmaScheduler(SimConfig(L=60.0, r_hf=50.0), make_paths(2, 2), Recolorer(50.0),
                          auvs, StillAsvs(APART_ASV))
    auvs[:] = vehicles(APART_POS)
    assert round_zero_pings(sched) == (1, [(0, 0, 0), (0, 1, 0)])


def test_slots_and_flights_follow_the_configured_sound_speed():
    # the slots at 750 m/s are a row of test_scheduler_timing_table; a fix
    # broadcast to an AUV 40 m away lands 0.192 s + 40 m / 750 m/s later,
    # on the 8th tick (the 7th at 1500 m/s)
    flights = [flight for flight, _ in static_run(scheduler(c=750.0), (40.0, 0.0, 10.0))]
    assert flights and set(flights) == {8}


def drive_scheduler(trace, asv, skip_idle):
    """Step a scheduler over per-tick AUV positions; optionally skip idle ticks."""
    def recolor(positions, anchors):   # a fresh build every round
        g = build_conflict_graph(audibility_masks(positions, anchors, 50.0))
        return g, greedy_color(g)

    n_auv, auvs = len(trace[0]), vehicles(trace[0])
    sched = TdmaScheduler(SimConfig(L=70.0, r_hf=50.0), make_paths(n_auv, len(asv), seed=3),
                          recolor, auvs, StillAsvs(asv))
    deliveries, steps = [], 0
    for k, pos in enumerate(trace):
        auvs[:] = vehicles(pos)
        idle = k < sched.next_tick
        if skip_idle and idle:
            continue
        n_events = len(sched.events)
        due = sched.due_auvs(k)
        out = sched.step(k)
        steps += 1
        if idle:
            assert not due and not out and len(sched.events) == n_events
        assert {i for _, i, _, _, _ in out} == due
        deliveries += [(k, i, kd, ping, fix) for kd, i, _, fix, ping in out]
    return sched, deliveries, steps


# two AUVs orbit each of two anchors 160 m apart, drifting in and out of HF
# range: the other anchor's broadcasts are beyond MF range, and four AUVs
# sharing one MF channel let buffered fixes expire.  At L=70 uplink slots
# last 4 ticks and MF slots 14, so the channel frees between slots
ORBIT_ASVS = np.array([[-80.0, 0.0], [80.0, 0.0]])


def orbit_trace(n_ticks):
    trace = []
    for k in range(n_ticks):
        pos = []
        for i in range(4):
            r = 35.0 + 25.0 * np.sin(0.004 * k + i)
            a = 0.01 * k + 1.7 * i
            ax, ay = ORBIT_ASVS[i % 2]
            pos.append((float(ax + r * np.cos(a)), float(ay + r * np.sin(a)), 10.0))
        trace.append(pos)
    return trace


def test_scheduler_skipping_idle_ticks_matches_every_tick():
    trace, asv = orbit_trace(1500), ORBIT_ASVS
    full, full_del, full_steps = drive_scheduler(trace, asv, skip_idle=False)
    fast, fast_del, fast_steps = drive_scheduler(trace, asv, skip_idle=True)
    # equal records: every latency at full precision, every drop and ping
    assert (fast.events.kinds, fast.events.stores) == (full.events.kinds, full.events.stores)
    assert list(fast.events) == list(full.events)
    assert fast_del == full_del
    assert fast.heard == full.heard
    assert full.events.kinds.count(EXPIRED) > 0 and full.events.kinds.count(OUT_OF_MF_RANGE) > 0
    pings = Counter(i for _, i, _ in full.events.records(PING))
    assert any(h < pings[i] for i, h in enumerate(full.heard))
    assert full_del and fast_steps < full_steps


def test_a_packed_log_reads_as_it_did():
    sched, _, _ = drive_scheduler(orbit_trace(1500), ORBIT_ASVS, skip_idle=True)
    log = sched.events
    rendered = list(log)
    records = [list(log.records(kind)) for kind in range(len(EVENT_FORMATS))]
    assert all(records)   # every kind of event, to be packed
    log.pack()
    # one column per field: doubles for a %.6f field, unsigned ints for a %d one
    for (template, n), columns, recs in zip(EVENT_FORMATS, log.stores, records):
        specs = re.findall(r"%(d|\.6f)", template)
        assert len(specs) == len(columns) == n
        assert all(isinstance(col, array) and len(col) == len(recs) and
                   col.typecode in ("d" if spec == ".6f" else "BHIQ")
                   for col, spec in zip(columns, specs))
    assert list(log) == rendered
    # ticks and ids come back as ints, each record equal and of the same types
    packed = [list(log.records(kind)) for kind in range(len(EVENT_FORMATS))]
    assert packed == records
    assert [[tuple(map(type, r)) for r in rs] for rs in packed] == [
        [tuple(map(type, r)) for r in rs] for rs in records]


@pytest.mark.parametrize("top, code", [
    (255, "B"), (256, "H"), (2**32 - 1, "I"), (2**32, "Q"), (2**53 + 1, "Q"),
    (2**64 - 1, "Q"), (2**64 + 1, None)])
def test_a_packed_int_column_is_the_narrowest_that_holds_it_exactly(top, code):
    log = EventLog()
    log.add(BCAST, 0, 1, 24)
    log.add(DELIVER, 2, 1, 0.25)
    log.add(BCAST, 3, 0, top)
    live = [list(log.records(kind)) for kind in (BCAST, DELIVER)], list(log)
    log.pack()
    sizes = log.stores[BCAST][2]   # a list of ints when no typecode holds the largest
    assert (sizes.typecode if isinstance(sizes, array) else None) == code
    assert ([list(log.records(kind)) for kind in (BCAST, DELIVER)], list(log)) == live
    assert [type(v) for r in log.records(BCAST) for v in r] == [int] * 6
    assert list(log)[2] == f"BCAST{{tick=3, asv=0, bytes={top}}}"


def whole_ticks(seconds, f_t):
    """README's ``ceil``: seconds rounded up to ticks, with a 1e-9 allowance."""
    return max(0, math.ceil(seconds * f_t - 1e-9))


def one_auv_run(timing, f_t, c, sigma_r, seed):
    """The deterministic case: one AUV, one ASV at the origin, no IMU or
    depth noise, fixes with range noise ``sigma_r`` only, steering on truth,
    20 s at L=20 with a trace."""
    return run(SimConfig(L=20.0, n_auv=1, n_asv=1, duration=20.0, f_t=f_t, seed=seed,
                         sigma=0.0, sigma_z=0.0, guidance_on_truth=True, trace=True,
                         timing=timing, noise=UsblNoiseConfig(
                             sigma_r=sigma_r, sigma_theta=0.0, sigma_phi=0.0, c=c)))


def readme_protocol(rep, timing, f_t, c):
    """The records of a ``one_auv_run`` from README's "Protocol timing" and
    downlink rules, written out here: its PING records, which pings gave a
    fix, the BCAST, SUPERSEDED and EXPIRED records, and each delivery as
    (delivery tick, ping tick).  Which pings give a fix is the loss draw's
    call, read from the FIX records; the AUV's distance to the ASV at a
    broadcast is read from its trace row."""
    t_c = 20.0 / c
    slot = max(1, whole_ticks(max(timing.t_p + 50.0 / c + timing.guard_factor_ul * t_c,
                                  timing.min_slot_factor_ul * t_c), f_t))
    t_tx = (timing.n_hdr + timing.b_fix) * 8 * timing.overhead / timing.r_dl
    mf_slot = whole_ticks(max(t_tx + timing.guard_factor_dl * t_c,
                              timing.min_slot_factor_dl * t_c), f_t)
    max_age = whole_ticks(timing.max_fix_age_s, f_t)
    rows = list(zip(*[iter(rep.trace)] * 12))   # one row per tick of the one AUV
    assert [row[0] for row in rows] == list(range(rep.ticks))

    # one AUV is one ping group: a round is one slot, and every round pings
    pings = [(k, 0, 0) for k in range(0, rep.ticks, slot)]
    fixed = [k for k, _, _, *_ in rep.events.records(FIX)]

    # the newest fix waits in the buffer, superseding an unsent one, until
    # the MF channel is free; a fix older than max_fix_age expires unsent
    buffered, free = None, 0
    bcasts, deliveries, superseded, expired = [], [], [], []
    for k in range(rep.ticks):
        if k in fixed:
            if buffered is not None:
                superseded.append((k, 0))
            buffered = k
        if buffered is None or k < free:
            continue
        if buffered < k - max_age:
            expired.append((k, 0))
        else:
            bcasts.append((k, 0, timing.n_hdr + timing.b_fix))
            free = k + mf_slot
            x, y = rows[k][2], rows[k][3]   # the AUV's truth, at the broadcast
            d = math.hypot(x, y)
            assert d <= timing.r_mf
            kd = k + whole_ticks(t_tx + d / c, f_t)
            if kd < rep.ticks:
                deliveries.append((kd, buffered))
        buffered = None
    return pings, fixed, bcasts, deliveries, superseded, expired


@pytest.mark.parametrize("min_slot_factor_dl, f_t, c", [
    (10.0, 30, 1500.0), (20.0, 30, 1500.0), (10.0, 50, 1500.0), (10.0, 10, 1500.0),
    (10.0, 30, 750.0), (4.0, 50, 750.0),
], ids=["defaults", "mf_floor", "f_t50", "f_t10", "c750", "mf_floor4_f_t50_c750"])
def test_event_ticks_follow_the_readme_timing_formulas(min_slot_factor_dl, f_t, c):
    timing = TimingConfig(min_slot_factor_dl=min_slot_factor_dl)
    rep = one_auv_run(timing, f_t, c, sigma_r=1e-9, seed=4)
    pings, fixed, bcasts, deliveries, superseded, expired = readme_protocol(rep, timing, f_t, c)
    assert list(rep.events.records(PING)) == pings
    assert fixed and set(fixed) <= {k for k, _, _ in pings}
    delivers = [(kd, 0, (kd - ping) / f_t) for kd, ping in deliveries]
    assert list(rep.events.records(BCAST)) == bcasts
    assert list(rep.events.records(DELIVER)) == delivers
    assert list(rep.events.records(SUPERSEDED)) == superseded
    assert list(rep.events.records(EXPIRED)) == expired
    assert len(delivers) > 10


@pytest.mark.parametrize("min_slot_factor_dl, f_t, c", [
    (10.0, 30, 1500.0), (20.0, 30, 1500.0), (4.0, 50, 750.0),
], ids=["defaults", "mf_floor", "mf_floor4_f_t50_c750"])
def test_fused_error_follows_the_hand_propagated_budget(min_slot_factor_dl, f_t, c):
    # The whole 20 s run is the plan's first leg, 20 m long, which the AUV
    # leaves only within the 2 m capture radius of its end, after 27.7 s.
    # On it the heading psi is constant, the truth moves v*dt along it per
    # tick, and the fused error e = p_fused - truth grows by R(psi)*b*dt per
    # tick.  At a delivery the fused step is replaced by one noise-free
    # predict, the same R(psi)*(v + b)*dt, and then moves gamma of the way
    # to the fix: the truth at the ping tick, to the 1e-12 m range noise.
    timing = TimingConfig(min_slot_factor_dl=min_slot_factor_dl)
    rep = one_auv_run(timing, f_t, c, sigma_r=1e-12, seed=4)
    *_, deliveries, _, _ = readme_protocol(rep, timing, f_t, c)
    ping_of = dict(deliveries)
    cfg = SimConfig()
    (x0, y0), (x1, y1) = plan_lawnmower(20.0, 1)[0][:2]
    psi = math.atan2(y1 - y0, x1 - x0)
    cos_psi, sin_psi = math.cos(psi), math.sin(psi)
    dt, v, (bx, by), gamma = 1.0 / f_t, GuidanceConfig().cruise_speed, cfg.bias, cfg.gamma
    truth = [(x0 + (k + 1) * v * dt * cos_psi, y0 + (k + 1) * v * dt * sin_psi)
             for k in range(rep.ticks)]
    drift = ((cos_psi * bx - sin_psi * by) * dt, (sin_psi * bx + cos_psi * by) * dt)

    ex = ey = err_sum = 0.0
    for k, row in enumerate(zip(*[iter(rep.trace)] * 12)):
        ex, ey = ex + drift[0], ey + drift[1]
        tx, ty = truth[k]
        if k in ping_of:
            fx, fy = truth[ping_of[k]]
            ex = (1.0 - gamma) * ex + gamma * (fx - tx)
            ey = (1.0 - gamma) * ey + gamma * (fy - ty)
        assert row[2:4] == pytest.approx((tx, ty), abs=1e-9), k
        assert (row[8] - row[2], row[9] - row[3]) == pytest.approx((ex, ey), abs=1e-9), k
        err_sum += math.hypot(ex, ey)
    assert len(ping_of) > 10
    assert rep.per_auv[0].mean_est_err == pytest.approx(err_sum / rep.ticks, abs=1e-9)
