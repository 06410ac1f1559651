
import math

import numpy as np
import pytest

from coopnav.acoustic import LossModelCoefficients, UsblNoiseConfig, attempt_fix
from coopnav.conflict import (Coloring, audibility_masks, build_conflict_graph,
                              greedy_color)
from coopnav.engine import NoiseStream, derive_rng, uniform_stream
from coopnav.mission import VehicleTruth
from coopnav.protocol import (FixQueue, TdmaScheduler, TimingConfig, anchor_points,
                              crossing_time, delivery_tick, downlink_slot_duration,
                              e2e_latency, next_group_start, payload_bytes,
                              ticks_ceil, tx_duration, uplink_slot_duration)
from graphs import from_edges

CFG = TimingConfig()


def test_crossing_time():
    assert crossing_time(60.0) == pytest.approx(0.04)
    assert crossing_time(140.0) == pytest.approx(0.093333, abs=1e-6)
    assert crossing_time(1500.0) == pytest.approx(1.0)


def test_uplink_slot_duration():
    assert uplink_slot_duration(60.0, 0.0333, CFG) == pytest.approx(0.1)
    assert uplink_slot_duration(140.0, 0.0333, CFG) == pytest.approx(0.23333, abs=1e-4)
    assert uplink_slot_duration(60.0, 0.2, CFG) == pytest.approx(0.23)


def test_next_group_start_exact_products():
    # 0.1 s at 30 Hz is exactly three ticks despite float residue
    assert next_group_start(0, 0.1, 30) == 3
    assert next_group_start(100, 0.23333333333333334, 30) == 107
    assert next_group_start(7, 0.0, 30) == 7


def test_ticks_ceil():
    assert ticks_ceil(0.1 * 30 / 30, 30) == 3
    assert ticks_ceil(0.0999, 30) == 3
    assert ticks_ceil(0.1001, 30) == 4
    assert ticks_ceil(0.0, 30) == 0


def test_payload_bytes():
    assert payload_bytes(4, CFG) == 72
    assert payload_bytes(0, CFG) == 8
    assert payload_bytes(1, CFG) == 24


def test_tx_duration():
    assert tx_duration(72, CFG) == pytest.approx(0.576)
    assert tx_duration(24, CFG) == pytest.approx(0.192)
    assert tx_duration(0, CFG) == 0.0


def test_downlink_slot_duration():
    assert downlink_slot_duration(60.0, 0.576, CFG) == pytest.approx(0.626)
    assert downlink_slot_duration(60.0, 0.192, CFG) == pytest.approx(0.4)
    assert downlink_slot_duration(140.0, 0.0, CFG) == pytest.approx(0.93333, abs=1e-4)


def test_delivery_tick():
    assert delivery_tick(100, 0.192, 30.0, CFG) == 107
    assert delivery_tick(100, 0.192, 150.0, CFG) is None
    assert delivery_tick(0, 0.0, 0.0, CFG) == 0


def test_e2e_latency():
    assert e2e_latency(100, 118, 30) == pytest.approx(0.6)
    assert e2e_latency(7, 7, 30) == 0.0
    assert e2e_latency(0, 15, 30) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        e2e_latency(10, 9, 30)


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


def make_rngs(n_auv, n_asv, seed=0, noise=UsblNoiseConfig()):
    scales = (noise.sigma_r, noise.sigma_theta, noise.sigma_phi)
    usbl = [[NoiseStream(derive_rng(seed, f"usbl/{i}/{j}"), scales) for j in range(n_asv)]
            for i in range(n_auv)]
    loss = [[uniform_stream(derive_rng(seed, f"loss/{i}/{j}")) for j in range(n_asv)]
            for i in range(n_auv)]
    return lambda i, j: (usbl[i][j], loss[i][j])


def vehicles(pos):
    """(x, y, z) positions as the scheduler reads them, from vehicles."""
    return [VehicleTruth(x, y, z, 0.0) for x, y, z in pos]


def one_round(pos, asv, graph, coloring, ticks=None):
    """Step a scheduler at L=60 every tick over its first round, or ``ticks``
    ticks; returns it and its rendered events."""
    sched = TdmaScheduler(TimingConfig(), UsblNoiseConfig(r_max=50.0),
                          LossModelCoefficients(), 60.0, len(pos), len(asv),
                          make_rngs(len(pos), len(asv)))
    sched.start_round(graph, coloring, 0)
    anchors, auvs = anchor_points(asv), vehicles(pos)
    for k in range(sched.round_end if ticks is None else ticks):
        sched.step(k, auvs, anchors, recolor=lambda: (graph, coloring))
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
    assert len([e for e in events
                if e.startswith("PING") and int(e.split("tick=")[1].split(",")[0]) < 12]) == 4
    bcast = [e for e in events if e.startswith("BCAST")]
    assert bcast and all(f"bytes={payload_bytes(1, CFG)}}}" in e for e in bcast)
    first_bcast = int(bcast[0].split("tick=")[1].split(",")[0])
    delivers = [int(e.split("tick=")[1].split(",")[0])
                for e in events if e.startswith("DELIVER")]
    assert delivers and min(delivers) > first_bcast


def test_scheduler_unheard_round_broadcasts_nothing():
    # everyone out of range: pings go out unheard, and with no fix buffered
    # the event-triggered downlink stays silent
    pos = [(500.0, 0.0, 10.0), (-500.0, 0.0, 10.0)]
    sched, events = one_round(pos, np.zeros((1, 2)), from_edges(2),
                              Coloring([0, 0], 1), ticks=30)
    assert events and all(e.startswith("PING") for e in events)
    assert sched.heard_log == [[False] * 10, [False] * 10]
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

    noise, coeffs, rngs = UsblNoiseConfig(r_max=50.0), LossModelCoefficients(), make_rngs(3, 2)
    ref = []
    for grp, members in enumerate(coloring.groups()):
        tick = grp * sched.slot_ticks
        for i in members:
            ref.append(f"PING{{tick={tick}, auv={i}, group={grp}}}")
            fixes = []
            for j, a in enumerate(anchor_points(asv)):
                dx, dy, dz = (p - q for p, q in zip(pos[i], a))
                r = math.sqrt(dx * dx + dy * dy + dz * dz)
                if r > noise.r_max:
                    continue
                usbl, loss = rngs(i, j)
                fx = attempt_fix(a, dx, dy, dz, r, 2 * coeffs.p_col, noise.sigma_r ** 2,
                                 noise.sigma_theta, coeffs, usbl, loss)
                if fx is not None:
                    x, y, z, var = fx
                    ref.append(f"FIX{{tick={tick}, auv={i}, asv={j}, "
                               f"pos=({x:.6f}, {y:.6f}, {z:.6f}), var={var:.6f}}}")
                    fixes.append(fx)
            if fixes:
                ref.append(f"FUSE{{tick={tick}, auv={i}, k={len(fixes)}}}")
    uplink = [e for e in events if e.split("{")[0] in ("PING", "FIX", "FUSE")]
    assert uplink == ref
    assert any(e.startswith("FIX") and "asv=1" in e for e in ref)
    assert math.dist(pos[2], (30.0, 0.0, 0.0)) > 50.0    # one path out of range


def test_slot_durations_respect_minimums():
    for L in (60.0, 100.0, 140.0):
        tc = crossing_time(L)
        assert uplink_slot_duration(L, 50.0 / 1500.0, CFG) >= 2.5 * tc - 1e-12
        for t_tx in (0.0, 0.192, 0.576):
            assert downlink_slot_duration(L, t_tx, CFG) >= 10.0 * tc - 1e-12


def drive_scheduler(trace, asv, skip_idle):
    """Step a scheduler over per-tick AUV positions; optionally skip idle ticks."""
    def recolor(pos):
        g = build_conflict_graph(audibility_masks(pos, asv, 50.0))
        return g, greedy_color(g)

    n_auv = len(trace[0])
    sched = TdmaScheduler(TimingConfig(), UsblNoiseConfig(r_max=50.0),
                          LossModelCoefficients(), 70.0, n_auv, len(asv),
                          make_rngs(n_auv, len(asv), seed=3))
    sched.start_round(*recolor(trace[0]), 0)
    anchors = anchor_points(asv)
    deliveries, steps = [], 0
    for k, pos in enumerate(trace):
        idle = k < sched.next_tick
        if skip_idle and idle:
            continue
        n_events = len(sched.events)
        due = sched.due_auvs(k)
        out = sched.step(k, vehicles(pos), anchors, lambda: recolor(pos))
        steps += 1
        if idle:
            assert not due and not out and len(sched.events) == n_events
        assert {i for _, i, _, _, _ in out} == due
        deliveries += [(k, i, kd, ping, fix) for kd, i, _, fix, ping in out]
    return sched, deliveries, steps


def test_scheduler_skipping_idle_ticks_matches_every_tick():
    # two AUVs orbit each of two anchors 160 m apart, drifting in and out of
    # HF range: the other anchor's broadcasts are beyond MF range, and four
    # AUVs sharing one MF channel let buffered fixes expire.  At L=70 uplink
    # slots last 4 ticks and MF slots 14, so the channel frees between slots
    asv = np.array([[-80.0, 0.0], [80.0, 0.0]])
    trace = []
    for k in range(1500):
        pos = []
        for i in range(4):
            r = 35.0 + 25.0 * np.sin(0.004 * k + i)
            a = 0.01 * k + 1.7 * i
            ax, ay = asv[i % 2]
            pos.append((float(ax + r * np.cos(a)), float(ay + r * np.sin(a)), 10.0))
        trace.append(pos)
    full, full_del, full_steps = drive_scheduler(trace, asv, skip_idle=False)
    fast, fast_del, fast_steps = drive_scheduler(trace, asv, skip_idle=True)
    assert list(fast.events) == list(full.events)
    assert fast_del == full_del
    assert fast.latencies == full.latencies
    assert fast.dropped == full.dropped
    assert fast.heard_log == full.heard_log
    assert full.dropped["expired"] > 0 and full.dropped["out_of_mf_range"] > 0
    assert any(not h for log in full.heard_log for h in log)
    assert full_del and fast_steps < full_steps
