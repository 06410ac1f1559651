
import numpy as np
import pytest

from coopnav.acoustic import LossModelCoefficients, UsblNoiseConfig
from coopnav.conflict import Coloring, ConflictGraph
from coopnav.engine import derive_rng
from coopnav.protocol import (FixQueue, PendingDelivery, TimingConfig,
                              crossing_time, delivery_tick,
                              downlink_slot_duration, e2e_latency,
                              next_group_start, payload_bytes, plan_round,
                              run_round, ticks_ceil, tx_duration,
                              uplink_slot_duration)

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
    q = FixQueue()
    q.push(PendingDelivery(None, 12, 0))
    q.push(PendingDelivery(None, 5, 1))
    q.push(PendingDelivery(None, 9, 2))
    assert not q.peek_due(4)
    out = q.pop_due(10)
    assert [pd.deliver_tick for pd in out] == [5, 9]
    assert q.pop_due(20)[0].deliver_tick == 12
    assert len(q) == 0


def test_plan_round_spans():
    c = Coloring([0, 1, 2, 3], 4)
    sched = plan_round(c, 60.0, 0, CFG, tau_ot_max=50.0 / 1500.0)
    assert sched.group_start_ticks == [0, 3, 6, 9]
    assert sched.round_end == 12
    assert sched.broadcast_tick == 12


def make_rngs(n_auv, n_asv, seed=0):
    usbl = [[derive_rng(seed, f"usbl/{i}/{j}") for j in range(n_asv)]
            for i in range(n_auv)]
    loss = [[derive_rng(seed, f"loss/{i}/{j}") for j in range(n_asv)]
            for i in range(n_auv)]
    return lambda i, j: (usbl[i][j], loss[i][j])


def test_run_round_k4_uplink_span():
    # four mutually conflicting vehicles, one anchor: four slots of 0.1 s
    pos = [(10.0, 0.0, 10.0), (0.0, 10.0, 10.0), (-10.0, 0.0, 10.0),
           (0.0, -10.0, 10.0)]
    asv = np.zeros((1, 2))
    g = ConflictGraph(4, frozenset({(i, j) for i in range(4) for j in range(i + 1, 4)}))
    coloring = Coloring([0, 1, 2, 3], 4)
    noise = UsblNoiseConfig(r_max=50.0)
    fixes, deliveries, nxt, events = run_round(
        coloring, pos, asv, 0, CFG, noise, LossModelCoefficients(),
        make_rngs(4, 1), L=60.0, graph=g)
    assert nxt == 12
    pings = [e for e in events if e.startswith("PING")]
    assert len(pings) == 4
    bcast = [e for e in events if e.startswith("BCAST")]
    assert len(bcast) == 1 and f"bytes={payload_bytes(len(fixes), CFG)}" in bcast[0]
    for pd in deliveries:
        assert pd.deliver_tick > 12


def test_run_round_no_fixes_header_only():
    # everyone out of range: the broadcast still goes out, header only
    pos = [(500.0, 0.0, 10.0), (-500.0, 0.0, 10.0)]
    asv = np.zeros((1, 2))
    coloring = Coloring([0, 0], 1)
    fixes, deliveries, nxt, events = run_round(
        coloring, pos, asv, 0, TimingConfig(), UsblNoiseConfig(r_max=50.0),
        LossModelCoefficients(), make_rngs(2, 1), L=60.0)
    assert fixes == [] and deliveries == []
    assert any(e.startswith("BCAST") and "bytes=8" in e for e in events)


def test_run_round_disjoint_footprints_share_slot():
    # empty conflict graph: both vehicles ping in the same slot tick
    pos = [(-100.0, 0.0, 10.0), (100.0, 0.0, 10.0)]
    asv = np.array([[-100.0, 0.0], [100.0, 0.0]])
    g = ConflictGraph(2, frozenset())
    coloring = Coloring([0, 0], 1)
    fixes, deliveries, nxt, events = run_round(
        coloring, pos, asv, 0, TimingConfig(), UsblNoiseConfig(r_max=50.0),
        LossModelCoefficients(), make_rngs(2, 2), L=60.0, graph=g)
    pings = [e for e in events if e.startswith("PING")]
    assert len(pings) == 2
    assert all("tick=0" in e for e in pings)


def test_run_round_rejects_conflicting_slot_mates():
    pos = [(0.0, 0.0, 10.0), (5.0, 0.0, 10.0)]
    asv = np.zeros((1, 2))
    g = ConflictGraph(2, frozenset({(0, 1)}))
    bad = Coloring([0, 0], 1)   # improper on purpose
    with pytest.raises(AssertionError):
        run_round(bad, pos, asv, 0, TimingConfig(), UsblNoiseConfig(r_max=50.0),
                  LossModelCoefficients(), make_rngs(2, 1), L=60.0, graph=g)


def test_scheduler_and_run_round_agree_on_uplink():
    # the incremental scheduler stepped over one round must produce exactly
    # the ping/fix/fusion outcomes of the one-shot executor on equal streams
    from coopnav.protocol import TdmaScheduler
    from coopnav.conflict import build_conflict_graph, greedy_color
    from coopnav.formation import AsvLayout

    pos = [(20.0, 5.0, 10.0), (-15.0, 10.0, 10.0), (5.0, -25.0, 10.0)]
    asv = np.array([[0.0, 0.0], [30.0, 0.0]])
    noise = UsblNoiseConfig(r_max=50.0)
    g = build_conflict_graph([p[:2] for p in pos], AsvLayout(asv), 50.0)
    coloring = greedy_color(g)

    _, _, nxt, ref_events = run_round(
        coloring, pos, asv, 0, TimingConfig(), noise, LossModelCoefficients(),
        make_rngs(3, 2), L=60.0, graph=g, n_contention=3)

    sched = TdmaScheduler(TimingConfig(), noise, LossModelCoefficients(),
                          60.0, 3, 2, make_rngs(3, 2))
    sched.start_round(g, coloring, 0)
    for k in range(nxt):
        sched.step(k, pos, asv, recolor=lambda: (g, coloring))
    ref_uplink = [e for e in ref_events
                  if e.split("{")[0] in ("PING", "FIX", "FUSE")]
    inc_uplink = [e for e in sched.events
                  if e.split("{")[0] in ("PING", "FIX", "FUSE")]
    assert inc_uplink == ref_uplink


def test_slot_durations_respect_minimums():
    for L in (60.0, 100.0, 140.0):
        tc = crossing_time(L)
        assert uplink_slot_duration(L, 50.0 / 1500.0, CFG) >= 2.5 * tc - 1e-12
        for t_tx in (0.0, 0.192, 0.576):
            assert downlink_slot_duration(L, t_tx, CFG) >= 10.0 * tc - 1e-12


def drive_scheduler(trace, asv, skip_idle):
    """Step a scheduler over per-tick AUV positions; optionally skip idle ticks."""
    from coopnav.protocol import TdmaScheduler
    from coopnav.conflict import build_conflict_graph, greedy_color
    from coopnav.formation import AsvLayout

    def recolor(pos):
        g = build_conflict_graph(pos, AsvLayout(asv), 50.0)
        return g, greedy_color(g)

    n_auv = len(trace[0])
    sched = TdmaScheduler(TimingConfig(), UsblNoiseConfig(r_max=50.0),
                          LossModelCoefficients(), 70.0, n_auv, len(asv),
                          make_rngs(n_auv, len(asv), seed=3))
    sched.start_round(*recolor(trace[0]), 0)
    deliveries, steps = [], 0
    for k, pos in enumerate(trace):
        idle = k < sched.next_tick
        if skip_idle and idle:
            continue
        n_events = len(sched.events)
        due = sched.due_auvs(k)
        out = sched.step(k, pos, asv, lambda: recolor(pos))
        steps += 1
        if idle:
            assert not due and not out and len(sched.events) == n_events
        assert {i for i, _ in out} == due
        deliveries += [(k, i, pd.deliver_tick, pd.ping_tick, pd.fix) for i, pd in out]
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
    assert fast.events == full.events
    assert fast_del == full_del
    assert fast.latencies == full.latencies
    assert fast.dropped == full.dropped
    assert fast.heard_log == full.heard_log
    assert full.dropped["expired"] > 0 and full.dropped["out_of_mf_range"] > 0
    assert any(not h for log in full.heard_log for h in log)
    assert full_del and fast_steps < full_steps
