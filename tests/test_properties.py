"""Property tests of the protocol's fast paths against their plain references.

Each fast path here claims to give exactly what a simpler formulation gives:
event records rendered on read against formatting at the event, slot starts
from constants against laying a round out slot by slot, a reused coloring
against a fresh build, the fleet-wide delivery heap against per-AUV queues,
the inlined loss test against ``total_loss_probability``, and the exact
worst-point coverage distance against a fine grid.
"""

import heapq
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from coopnav.acoustic import (LossModelCoefficients, UsblNoiseConfig,  # noqa: E402
                              attempt_fix, total_loss_probability)
from coopnav.conflict import (Coloring, ConflictGraph, audibility_masks,  # noqa: E402
                              build_conflict_graph, greedy_color)
from coopnav.engine import Recolorer  # noqa: E402
from coopnav.formation import AsvLayout, worst_point  # noqa: E402
from coopnav.protocol import (BCAST, DELIVER, EXPIRED, FIX, FUSE,  # noqa: E402
                              OUT_OF_MF_RANGE, PING, SUPERSEDED, EventLog,
                              FixQueue, PendingDelivery, TdmaScheduler,
                              TimingConfig, anchor_points, next_group_start,
                              uplink_slot_duration)

# the event text as the scheduler formatted it at each event
FORMER = {
    PING: lambda t, i, g: f"PING{{tick={t}, auv={i}, group={g}}}",
    FIX: lambda t, i, j, x, y, z, v: (f"FIX{{tick={t}, auv={i}, asv={j}, "
                                      f"pos=({x:.6f}, {y:.6f}, {z:.6f}), var={v:.6f}}}"),
    FUSE: lambda t, i, k: f"FUSE{{tick={t}, auv={i}, k={k}}}",
    BCAST: lambda t, j, b: f"BCAST{{tick={t}, asv={j}, bytes={b}}}",
    DELIVER: lambda t, i, lat: f"DELIVER{{tick={t}, auv={i}, latency_s={lat:.6f}}}",
    SUPERSEDED: lambda t, i: f"DROP{{tick={t}, auv={i}, reason=superseded}}",
    EXPIRED: lambda t, i: f"DROP{{tick={t}, auv={i}, reason=expired}}",
    OUT_OF_MF_RANGE: lambda t, i: f"DROP{{tick={t}, auv={i}, reason=out_of_mf_range}}",
}
INT = st.integers(-2**53, 2**53)
REAL = st.floats(allow_nan=True, allow_infinity=True)
FIELDS = {PING: (INT,) * 3, FIX: (INT,) * 3 + (REAL,) * 4, FUSE: (INT,) * 3,
          BCAST: (INT,) * 3, DELIVER: (INT, INT, REAL), SUPERSEDED: (INT,) * 2,
          EXPIRED: (INT,) * 2, OUT_OF_MF_RANGE: (INT,) * 2}
RECORD = st.one_of([st.tuples(st.just(kind), st.tuples(*fields))
                    for kind, fields in FIELDS.items()])


@settings(max_examples=300, deadline=None)
@given(st.lists(RECORD, max_size=40))
@example([(FIX, (2**53, 0, 3, -0.0, -1.5e-7, 1e300, 5e-7)),
          (DELIVER, (9_000_000_000, 2, -0.0)), (PING, (0, 0, 0))])
def test_event_records_render_as_the_former_text(records):
    log = EventLog()
    for kind, fields in records:
        log.add(kind, *fields)
    assert len(log) == len(records)
    assert list(log) == [FORMER[kind](*fields) for kind, fields in records]


def former_layout(k, L, round_start, cfg, tau):
    """Group starts and round end as laid out one slot after another."""
    t_ul = uplink_slot_duration(L, tau, cfg)
    starts, tick = [], round_start
    for _ in range(max(k, 1)):
        starts.append(tick)
        tick = next_group_start(tick, t_ul, cfg.f_t)
    return starts, tick


@settings(max_examples=60, deadline=None)
@given(L=st.sampled_from([40.0, 60.0, 70.0, 140.0]), k=st.integers(1, 6),
       round_start=st.integers(0, 10_000), f_t=st.sampled_from([10, 30, 50]))
def test_slot_starts_from_constants_equal_the_former_layout(L, k, round_start, f_t):
    cfg = TimingConfig(f_t=f_t)
    noise = UsblNoiseConfig(r_max=50.0)
    # every AUV far out of range: each slot shows as its group's pings only
    pos = [(1000.0 * (i + 1), 0.0, 10.0) for i in range(k)]
    rngs = lambda i, j: pytest.fail("no fix may be attempted out of range")  # noqa: E731
    sched = TdmaScheduler(cfg, noise, LossModelCoefficients(), L, k, 1, rngs)
    coloring = Coloring(list(range(k)), k)
    graph = ConflictGraph(k, frozenset())
    sched.start_round(graph, coloring, round_start)
    starts, end = former_layout(k, L, round_start, cfg, noise.r_max / noise.c)
    assert sched.round_end == end
    anchors = anchor_points(np.zeros((1, 2)))
    tick = round_start
    while tick < end:
        sched.step(tick, pos, anchors, lambda: (graph, coloring))
        tick = sched.next_tick
    assert tick == end
    assert list(sched.events) == [f"PING{{tick={s}, auv={g}, group={g}}}"
                                  for g, s in enumerate(starts)]


def orbit_positions(tick, phases, radii):
    """AUVs orbiting the origin on breathing circles, in and out of range."""
    return [(r * (1.0 + 0.6 * math.sin(0.02 * tick + p)) * math.cos(0.05 * tick + p),
             r * (1.0 + 0.6 * math.sin(0.02 * tick + p)) * math.sin(0.05 * tick + p))
            for p, r in zip(phases, radii)]


def check_recolor_over_orbit(phases, radii, asv, rounds):
    recolorer = Recolorer(30.0)
    anchors = anchor_points(asv)
    pairs = []
    for rnd in range(rounds):
        pos = orbit_positions(3 * rnd, phases, radii)
        graph, coloring = recolorer(pos, anchors)
        fresh = build_conflict_graph(audibility_masks(pos, asv, 30.0))
        assert graph.edges == fresh.edges and graph.adj == fresh.adj
        assert coloring.color == greedy_color(fresh).color
        assert coloring.k == greedy_color(fresh).k
        pairs.append((graph, coloring))
    return len({id(g) for g, _ in pairs})


@settings(max_examples=40, deadline=None)
@given(phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=6),
       radius=st.floats(5.0, 60.0),
       asv=st.lists(st.tuples(st.floats(-40, 40), st.floats(-40, 40)),
                    min_size=1, max_size=4))
def test_reused_coloring_matches_a_fresh_build_every_round(phases, radius, asv):
    radii = [radius * (1 + 0.1 * i) for i in range(len(phases))]
    check_recolor_over_orbit(phases, radii, np.array(asv), rounds=200)


def test_recolor_reuses_and_rebuilds_over_an_orbit():
    asv = np.array([[-25.0, 0.0], [25.0, 0.0], [0.0, 25.0], [0.0, -25.0]])
    builds = check_recolor_over_orbit([0.0, 2.1, 4.2], [30.0, 35.0, 40.0], asv,
                                      rounds=400)
    assert 1 < builds < 400


class PerAuvQueues:
    """The delivery queues as they were: one heap per AUV, released by AUV."""

    def __init__(self, n_auv):
        self.heaps = [[] for _ in range(n_auv)]
        self.seq = 0

    def push(self, auv, pd):
        heapq.heappush(self.heaps[auv], (pd.deliver_tick, self.seq, pd))
        self.seq += 1

    def pop_due(self, tick):
        out = []
        for i, heap in enumerate(self.heaps):
            while heap and heap[0][0] <= tick:
                out.append((i, heapq.heappop(heap)[2]))
        return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 5)),
                max_size=60))
def test_fleet_queue_releases_as_per_auv_queues(ops):
    fleet, ref = FixQueue(4), PerAuvQueues(4)
    tick = 0
    for n, (is_push, auv, offset) in enumerate(ops):
        if is_push:
            pd = PendingDelivery(None, tick + offset, n)   # ping_tick tells pushes apart
            fleet.push(auv, pd)
            ref.push(auv, pd)
        else:
            tick += offset
            due = fleet.due(tick)
            out = fleet.pop_due(tick)
            assert out == ref.pop_due(tick)
            assert due == {i for i, _ in out}
        heads = [h[0][0] for h in ref.heaps if h]
        assert fleet.head_tick() == (min(heads) if heads else None)


class Fixed:
    """A stream that always draws the same value."""

    def __init__(self, value):
        self.value = value

    def uniform(self):
        return self.value

    def normal(self, loc=0.0, scale=1.0):
        return loc


@settings(max_examples=300, deadline=None)
@given(dx=st.floats(-40, 40), dy=st.floats(-40, 40), dz=st.floats(0, 30),
       n_auv=st.integers(1, 25))
def test_inlined_loss_test_is_total_loss_probability(dx, dy, dz, n_auv):
    noise, coeffs = UsblNoiseConfig(r_max=100.0), LossModelCoefficients()
    asv, auv = (3.0, -2.0, 0.0), (3.0 + dx, -2.0 + dy, dz)
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    p = total_loss_probability(r, n_auv, coeffs)
    kept = attempt_fix(asv, auv, n_auv, noise, coeffs, Fixed(0.0), Fixed(p))
    lost = attempt_fix(asv, auv, n_auv, noise, coeffs, Fixed(0.0),
                       Fixed(math.nextafter(p, -math.inf)))
    assert kept is not None and lost is None


@settings(max_examples=150, deadline=None)
@given(L=st.floats(10.0, 150.0),
       asv=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=5))
def test_worst_point_bounds_a_fine_grid(L, asv):
    layout = AsvLayout(np.array(asv) * L)
    worst, (wx, wy) = worst_point(layout, L)
    h = L / 2.0
    assert abs(wx) <= h and abs(wy) <= h
    nearest = min(math.hypot(wx - ax, wy - ay) for ax, ay in layout.positions)
    assert math.isclose(worst, nearest, rel_tol=1e-12, abs_tol=1e-9)
    n = 121
    coords = np.linspace(-h, h, n)
    gx, gy = np.meshgrid(coords, coords)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d = np.linalg.norm(grid[:, None, :] - layout.positions[None, :, :], axis=2).min(axis=1)
    step = L / (n - 1)
    # no grid point beats the exact maximum; none is farther from it than
    # half a grid diagonal, and the distance is 1-Lipschitz
    assert d.max() <= worst + 1e-9 * L
    assert worst <= d.max() + step / math.sqrt(2) + 1e-9 * L
