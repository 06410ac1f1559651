"""Property tests of the simulator's fast paths against their plain references.

Each fast path here claims to give exactly what a simpler formulation gives:
event records rendered on read against formatting at the event, slot starts
from constants against laying a round out slot by slot, a coloring reused
or memoised by mask pattern against a fresh build, the fleet-wide delivery
heap against per-AUV queues, the inlined loss test against
``total_loss_probability``, pre-scaled noise triples against scalar draws,
``AsvFleet``'s block-built jittered anchors against per-tick sums, the lean
truth and dead-reckoning step and the precomputed segment distance against their
former forms, the comparison clamps against the builtins they replace,
``attempt_fix`` on its caller's geometry and the lean ``audibility_masks``
against their former forms, slot safety checked whenever a round's (graph,
coloring) pair changes against the former per-ping check, and the exact worst-point coverage
distance against a fine grid.  The config hash, derived from the field
declarations, changes with every field but the seed and trace, and every
run keeps the exact MF-capacity, delivery and latency bounds that README's
"Protocol timing" formulas imply."""

import heapq
import math
from collections import Counter
from functools import reduce
from itertools import repeat
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from coopnav import engine, protocol  # noqa: E402
from coopnav.acoustic import UsblNoiseConfig, attempt_fix  # noqa: E402
from coopnav.conflict import (Coloring, audibility_masks,  # noqa: E402
                              build_conflict_graph, greedy_color)
from coopnav.engine import (RNG_BLOCK, AsvFleet, Recolorer, SimConfig,  # noqa: E402
                           noise_stream)
from coopnav.formation import worst_point  # noqa: E402
from coopnav.mission import (GuidanceConfig, VehicleTruth, advance_truth,  # noqa: E402
                             point_segment_distance, segment)
from coopnav.nav import KinematicInput, NavState, dead_reckon_step  # noqa: E402
from coopnav.protocol import (BCAST, DELIVER, EXPIRED, FIX, FUSE,  # noqa: E402
                              OUT_OF_MF_RANGE, PING, SUPERSEDED, EventLog,
                              FixQueue, TdmaScheduler, TimingConfig, ticks_ceil)
from coopnav.schema import declared  # noqa: E402
from fleets import StillAsvs  # noqa: E402
from graphs import edges, from_edges  # noqa: E402

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


def uplink_slot_duration(L: float, tau_ot_max: float, cfg: TimingConfig, c: float) -> float:
    """Uplink slot for one ping group: ping + worst one-way time + guard, floored."""
    tc = L / c   # crossing time of the survey area
    return max(cfg.t_p + tau_ot_max + cfg.guard_factor_ul * tc,
               cfg.min_slot_factor_ul * tc)


def next_group_start(k_start: int, t_ul: float, f_t: float) -> int:
    """Earliest start tick of the following group's slot."""
    return k_start + ticks_ceil(t_ul, f_t)


def former_layout(k, L, round_start, cfg, tau, c, f_t):
    """Group starts and round end as laid out one slot after another."""
    t_ul = uplink_slot_duration(L, tau, cfg, c)
    starts, tick = [], round_start
    for _ in range(max(k, 1)):
        starts.append(tick)
        tick = next_group_start(tick, t_ul, f_t)
    return starts, tick


@settings(max_examples=60, deadline=None)
@given(L=st.sampled_from([40.0, 60.0, 70.0, 140.0]), k=st.integers(1, 6),
       round_start=st.integers(0, 10_000), f_t=st.sampled_from([10, 30, 50]))
def test_slot_starts_from_constants_equal_the_former_layout(L, k, round_start, f_t):
    cfg, noise, r_hf = TimingConfig(), UsblNoiseConfig(), 50.0
    # every AUV far out of range: each slot shows as its group's pings only
    pos = [VehicleTruth(1000.0 * (i + 1), 0.0, 10.0, 0.0) for i in range(k)]
    coloring = Coloring(list(range(k)), k)
    graph = from_edges(k)
    sim = SimConfig(L=L, f_t=f_t, r_hf=r_hf, noise=noise, timing=cfg)   # one ASV, at the origin
    sched = TdmaScheduler(sim, [[(None, None)]] * k,
                          lambda positions, anchors: (graph, coloring), pos, AsvFleet(sim))
    sched.start_round(graph, coloring, round_start)
    starts, end = former_layout(k, L, round_start, cfg, r_hf / noise.c, noise.c, f_t)
    assert sched.round_end == end
    tick = round_start
    with mock.patch.object(protocol, "attempt_fix",
                           lambda *a: pytest.fail("no fix may be attempted out of range")):
        while tick < end:
            sched.step(tick)
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
    anchors = asv.tolist()
    pairs = []
    for rnd in range(rounds):
        pos = orbit_positions(3 * rnd, phases, radii)
        graph, coloring = recolorer(pos, anchors)
        fresh = build_conflict_graph(audibility_masks(pos, asv, 30.0))
        assert graph == fresh
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


@settings(max_examples=100, deadline=None)
@given(fleets=st.lists(st.lists(st.tuples(st.floats(-45, 45), st.floats(-45, 45)),
                                min_size=3, max_size=3), min_size=1, max_size=4),
       visits=st.lists(st.integers(0, 3), min_size=1, max_size=30),
       asv=st.lists(st.tuples(st.floats(-30, 30), st.floats(-30, 30)),
                    min_size=1, max_size=4))
def test_memoised_coloring_matches_a_fresh_build_when_patterns_recur(fleets, visits, asv):
    # a few fleet placements visited in any order: mask patterns come back,
    # also after other patterns came between
    recolorer = Recolorer(30.0)
    first = {}
    for v in visits:
        pos = fleets[v % len(fleets)]
        pair = recolorer(pos, asv)
        masks = audibility_masks(pos, asv, 30.0)
        fresh = build_conflict_graph(masks)
        graph, coloring = pair
        assert graph == fresh
        assert (coloring.color, coloring.k) == (greedy_color(fresh).color,
                                                greedy_color(fresh).k)
        assert first.setdefault(tuple(masks), pair) is pair
    assert len(recolorer.pairs) == len(first)


class PerAuvQueues:
    """The delivery queues as they were: one heap per AUV, released by AUV,
    each release given as the fleet queue's entry."""

    def __init__(self, n_auv):
        self.heaps = [[] for _ in range(n_auv)]
        self.seq = 0

    def push(self, deliver_tick, auv, fix, ping_tick):
        heapq.heappush(self.heaps[auv], (deliver_tick, self.seq, fix, ping_tick))
        self.seq += 1

    def pop_due(self, tick):
        out = []
        for i, heap in enumerate(self.heaps):
            while heap and heap[0][0] <= tick:
                kd, seq, fix, ping_tick = heapq.heappop(heap)
                out.append((kd, i, seq, fix, ping_tick))
        return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 5)),
                max_size=60))
def test_fleet_queue_releases_as_per_auv_queues(ops):
    fleet, ref = FixQueue(4), PerAuvQueues(4)
    tick = 0
    for n, (is_push, auv, offset) in enumerate(ops):
        if is_push:
            fix = (float(n), 0.0, 0.0)   # tells pushes apart
            fleet.push(tick + offset, auv, fix, n)
            ref.push(tick + offset, auv, fix, n)
        else:
            tick += offset
            due = fleet.due(tick)
            out = fleet.pop_due(tick)
            assert out == ref.pop_due(tick)
            assert due == {i for _, i, _, _, _ in out}
        heads = [h[0][0] for h in ref.heaps if h]
        assert fleet.head_tick() == (min(heads) if heads else None)


# the loss model's coefficients as its former config class held them
A, B, C0, D, R_CLIP, P_COL, P_CAP = -6.070, 2.12e-3, 5.987, 2.25e-3, 800.0, 0.05, 0.999


def loss_probability(r):
    """Range-dependent fix loss probability, clamped into [0, 1]."""
    rt = min(r, R_CLIP)
    raw = A * math.exp(B * rt) + C0 * math.exp(D * rt)
    return min(max(raw, 0.0), 1.0)


def total_loss_probability(r, n_auv):
    """Loss probability including the contention term for a fleet of n_auv."""
    return min(loss_probability(r) + (n_auv - 1) * P_COL, P_CAP)


@settings(max_examples=300, deadline=None)
@given(dx=st.floats(-40, 40), dy=st.floats(-40, 40), dz=st.floats(0, 30),
       n_auv=st.integers(1, 25))
def test_inlined_loss_test_is_total_loss_probability(dx, dy, dz, n_auv):
    noise = UsblNoiseConfig()
    asv, auv = (3.0, -2.0), (3.0 + dx, -2.0 + dy, dz)
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    p = total_loss_probability(r, n_auv)
    zeros = repeat((0.0, 0.0, 0.0))
    kept = lean_attempt_fix(asv, auv, r, n_auv, noise, zeros, repeat(p))
    lost = lean_attempt_fix(asv, auv, r, n_auv, noise, zeros,
                            repeat(math.nextafter(p, -math.inf)))
    assert kept is not None and lost is None


SCALE = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scales=st.lists(SCALE, min_size=1, max_size=3),
       dt=st.one_of(st.sampled_from([1 / 7, 1 / 30, 1 / 50, 1.0]), st.floats(1e-4, 2.0)),
       scalar=st.booleans(), n=st.integers(0, 3 * RNG_BLOCK + 5))
def test_noise_stream_rows_equal_scalar_draws(seed, scales, dt, scalar, n):
    # each row is numpy's scalar normal(0.0, scale) per positive scale,
    # times the gain; a zero scale draws nothing; blocks refill unseen
    gain = math.sqrt(dt)
    if scalar:
        scales = scales[0]
    stream = noise_stream(np.random.default_rng(seed), scales, gain)
    ref = np.random.default_rng(seed)
    for _ in range(n):
        want = [ref.normal(0.0, sc) * gain if sc > 0 else 0.0
                for sc in np.atleast_1d(scales).tolist()]
        got = next(stream)
        assert ([got] if scalar else got) == want


def former_step(truth, speed_cmd, yaw_cmd, cfg, dt, depth, p_imu, bias, ex, ey):
    """advance_truth then dead_reckon_step as composed before: the yaw wrapped
    by a helper, cos/sin recomputed from the yaw, constants per call."""
    def wrap_angle(a):
        return (a + math.pi) % (2.0 * math.pi) - math.pi

    err = wrap_angle(yaw_cmd - truth.yaw)
    max_step = cfg.max_yaw_rate * dt
    if err > max_step:
        err = max_step
    elif err < -max_step:
        err = -max_step
    truth.yaw = wrap_angle(truth.yaw + err)
    truth.speed = speed_cmd
    truth.x += speed_cmd * dt * math.cos(truth.yaw)
    truth.y += speed_cmd * dt * math.sin(truth.yaw)
    truth.z = depth
    v_body, psi = (truth.speed, 0.0), truth.yaw
    sq = math.sqrt(dt)
    bx = v_body[0] * dt + bias[0] * dt + ex * sq
    by = v_body[1] * dt + bias[1] * dt + ey * sq
    c, s = math.cos(psi), math.sin(psi)
    p_imu[0] += c * bx - s * by
    p_imu[1] += s * bx + c * by


ANGLE = st.floats(-4 * math.pi, 4 * math.pi)
SMALL = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-0.2, 0.2))


@settings(max_examples=400, deadline=None)
@given(yaw=ANGLE, turn=st.one_of(ANGLE, st.floats(-0.02, 0.02)),
       speed=st.sampled_from([0.0, 0.65, 1.3]),
       f_t=st.sampled_from([7, 10, 30, 50]), bias=st.tuples(SMALL, SMALL),
       z=st.tuples(SMALL, SMALL), sigma=st.sampled_from([0.0, 0.027, 0.3]),
       x=st.floats(-100, 100), y=st.floats(-100, 100))
def test_lean_truth_and_dead_reckoning_equal_the_former_step(
        yaw, turn, speed, f_t, bias, z, sigma, x, y):
    # small turns stay under the yaw-rate limit, where the wrap's rounding shows
    cfg, dt, yaw_cmd = GuidanceConfig(), 1.0 / f_t, yaw + turn
    # the former draws: normal(0.0, sigma) = 0.0 + sigma * z, or 0.0 unscaled
    ex, ey = ((0.0 + sigma * z[0], 0.0 + sigma * z[1]) if sigma > 0 else (0.0, 0.0))
    old = VehicleTruth(x, y, 10.0, yaw)
    old_p = [x + 1.0, y - 1.0]
    former_step(old, speed, yaw_cmd, cfg, dt, 10.0, old_p, bias, ex, ey)

    new = VehicleTruth(x, y, 10.0, yaw)
    nav = NavState.at(x + 1.0, y - 1.0, 10.0, dt, bias=bias, gamma=0.9)
    sq = math.sqrt(dt)
    c, s = advance_truth(new, speed, yaw_cmd, cfg.max_yaw_rate * dt, dt)
    dead_reckon_step(nav, KinematicInput(speed, c, s), (ex * sq, ey * sq))
    assert repr((new.x, new.y, new.z, new.yaw, new.speed)) == \
        repr((old.x, old.y, old.z, old.yaw, old.speed))
    assert repr(nav.p_imu[:2]) == repr(old_p)


def former_point_segment_distance(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / L2
    if t <= 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


COORD = st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0]), st.floats(-200, 200))


@settings(max_examples=400, deadline=None)
@given(p=st.tuples(COORD, COORD), a=st.tuples(COORD, COORD), b=st.tuples(COORD, COORD))
def test_precomputed_segment_distance_equals_the_former_one(p, a, b):
    want = former_point_segment_distance(*p, *a, *b)
    assert repr(point_segment_distance(*p, segment(*a, *b))) == repr(want)


def test_yaw_wrap_is_not_the_identity_for_small_angles():
    # (a + pi) % 2pi - pi rounds a to the spacing of doubles near pi, so the
    # truth integrator's wrap changes the bits of nearly every small angle and
    # skipping it when the angle is already inside [-pi, pi) would change runs
    rng = np.random.default_rng(2026)
    angles = rng.uniform(-0.02, 0.02, 200_000).tolist()
    changed = sum((a + math.pi) % (2.0 * math.pi) - math.pi != a for a in angles)
    assert changed > 0.95 * len(angles)


@settings(max_examples=300, deadline=None)
@given(a=st.floats(-0.02, 0.02))
def test_yaw_wrap_of_a_small_angle_is_within_half_a_spacing_near_pi(a):
    wrapped = (a + math.pi) % (2.0 * math.pi) - math.pi
    assert abs(wrapped - a) <= math.ulp(math.pi) / 2


@settings(max_examples=150, deadline=None)
@given(L=st.floats(10.0, 150.0),
       asv=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                    min_size=1, max_size=5))
def test_worst_point_bounds_a_fine_grid(L, asv):
    layout = np.array(asv) * L
    worst, (wx, wy) = worst_point(layout, L)
    h = L / 2.0
    assert abs(wx) <= h and abs(wy) <= h
    nearest = min(math.hypot(wx - ax, wy - ay) for ax, ay in layout)
    assert math.isclose(worst, nearest, rel_tol=1e-12, abs_tol=1e-9)
    n = 121
    coords = np.linspace(-h, h, n)
    gx, gy = np.meshgrid(coords, coords)
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    d = np.linalg.norm(grid[:, None, :] - layout[None, :, :], axis=2).min(axis=1)
    step = L / (n - 1)
    # no grid point beats the exact maximum; none is farther from it than
    # half a grid diagonal, and the distance is 1-Lipschitz
    assert d.max() <= worst + 1e-9 * L
    assert worst <= d.max() + step / math.sqrt(2) + 1e-9 * L


# floats where a comparison and the builtin could part: NaN, signed zeros,
# infinities, subnormals and the clamp bounds themselves
EDGE = st.sampled_from([math.nan, -math.nan, 0.0, -0.0, math.inf, -math.inf,
                        5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 800.0])
ANY_FLOAT = st.one_of(EDGE, st.floats(allow_nan=True, allow_infinity=True,
                                      allow_subnormal=True))


@settings(max_examples=500, deadline=None)
@given(a=ANY_FLOAT, b=ANY_FLOAT)
def test_comparison_clamps_are_the_builtins(a, b):
    # the very object the builtin returns, so a NaN or -0.0 argument shows
    assert (b if b < a else a) is min(a, b)
    assert (b if b > a else a) is max(a, b)


PAIR = st.tuples(ANY_FLOAT, ANY_FLOAT)


class RowGenerator:
    """A generator whose ``normal`` serves given (ticks, n_asv, 2) rows a
    block at a time, zeros past their end."""

    def __init__(self, rows, std):
        self.rows, self.std, self.start = np.array(rows), std, 0

    def normal(self, loc, scale, size):
        assert (loc, scale) == (0.0, self.std) and size[1:] == self.rows.shape[1:]
        block = np.zeros(size)
        served = self.rows[self.start:self.start + size[0]]
        block[:len(served)] = served
        self.start += size[0]
        return block


@settings(max_examples=300, deadline=None)
@given(base=st.lists(PAIR, min_size=1, max_size=5),
       jitter=st.lists(st.lists(PAIR, min_size=5, max_size=5), min_size=1, max_size=6),
       block=st.sampled_from([1, 2, 4, RNG_BLOCK]))
@example(base=[(-0.0, 0.0), (0.0, -0.0)], jitter=[[(-0.0, -0.0)] * 5, [(0.0, 0.0)] * 5],
         block=RNG_BLOCK)
def test_block_built_anchors_equal_the_per_tick_sums(base, jitter, block):
    # one row of jitter per tick, served in blocks of ``block`` ticks;
    # signed zeros, infinities and NaN show in the repr
    jitter = [row[:len(base)] for row in jitter]
    rows = RowGenerator(jitter, 0.5)
    with mock.patch.object(engine, "asv_positions", lambda n, radius, alpha0: np.array(base)), \
            mock.patch.object(engine, "derive_rng", lambda seed, label: rows), \
            mock.patch.object(engine, "RNG_BLOCK", block), \
            np.errstate(over="ignore", invalid="ignore"):
        fleet = AsvFleet(SimConfig(n_asv=len(base), asv_jitter_std=0.5))
        got = [[tuple(a) for a in fleet.at(k)] for k in range(len(jitter))]
    want = [[(bx + jx, by + jy) for (bx, by), (jx, jy) in zip(base, row)]
            for row in jitter]
    assert repr(got) == repr(want)


def lean_attempt_fix(asv_pos, auv_pos, r, n_auv, noise, noise_triples, loss_rng):
    """``attempt_fix`` as the scheduler calls it past its range test, with
    the offset from the ASV at (x, y, 0) and ``sigma_r ** 2`` computed for
    it."""
    dx, dy, dz = auv_pos[0] - asv_pos[0], auv_pos[1] - asv_pos[1], auv_pos[2]
    return attempt_fix(asv_pos, dx, dy, dz, r, n_auv, noise.sigma_r ** 2,
                       noise.sigma_theta, noise_triples, loss_rng)


def former_attempt_fix(asv_pos, auv_pos, r, n_auv, noise, noise_triples, loss_rng):
    """``attempt_fix`` as it was, past its range test: the ASV as (x, y, z)
    with z = 0, the offset, the contention term and the constants inside,
    and the fix as (x, y, z, variance)."""
    rt = R_CLIP if R_CLIP < r else r
    p = A * math.exp(B * rt) + C0 * math.exp(D * rt)
    p = 0.0 if 0.0 > p else p
    p = (1.0 if 1.0 < p else p) + (n_auv - 1) * P_COL
    p = P_CAP if P_CAP < p else p
    if next(loss_rng) < p:
        return None
    ax, ay, az = asv_pos[0], asv_pos[1], 0.0
    dx = auv_pos[0] - ax
    dy = auv_pos[1] - ay
    dz = auv_pos[2] - az
    theta, s = (math.atan2(dy, dx), dz / r) if r > 0 else (0.0, 0.0)
    s = s if s < 1.0 else 1.0
    phi = math.asin(s if s > -1.0 else -1.0)
    n_r, n_theta, n_phi = next(noise_triples)
    r_m = r + n_r
    r_m = 0.0 if 0.0 > r_m else r_m
    t_m = theta + n_theta
    p_m = phi + n_phi
    cp = math.cos(p_m)
    pos = (ax + r_m * cp * math.cos(t_m),
           ay + r_m * cp * math.sin(t_m),
           az + r_m * math.sin(p_m))
    var = noise.sigma_r ** 2 + (r * noise.sigma_theta) ** 2
    return (*pos, var)


def outcome(fix_fn, *args):
    """What a fix attempt gives, bit for bit, or the exception it raises."""
    try:
        fx = fix_fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return repr(fx)


RANGE = st.one_of(EDGE, st.floats(0.0, 900.0), st.floats(-1e-300, 1e-300))


@settings(max_examples=500, deadline=None)
@given(r=RANGE, dz=ANY_FLOAT, n=st.tuples(ANY_FLOAT, EDGE, EDGE),
       n_auv=st.integers(1, 30), u=st.one_of(EDGE, st.floats(0.0, 1.0)),
       asv=st.sampled_from([(1.0, -2.0), (0.0, 0.0), (-0.0, -0.0)]))
@example(r=-0.0, dz=-0.0, n=(-0.0, 0.0, 0.0), n_auv=1, u=1.0, asv=(-0.0, -0.0))
@example(r=10.0, dz=20.0, n=(-11.0, 0.0, 0.0), n_auv=1, u=1.0, asv=(1.0, -2.0))
@example(r=math.nan, dz=1.0, n=(0.0, 0.0, 0.0), n_auv=1, u=0.5, asv=(1.0, -2.0))
def test_lean_attempt_fix_equals_the_former_one(r, dz, n, n_auv, u, asv):
    # r is the caller's range, not recomputed, so the clamps meet any float;
    # signed-zero anchors and a -0.0 depth let the sign of a zero show in
    # the position
    noise = UsblNoiseConfig()
    ax, ay = asv
    args = (asv, (ax + 3.0, ay + 4.0, dz), r, n_auv, noise)
    assert (outcome(lean_attempt_fix, *args, repeat(n), repeat(u)) ==
            outcome(former_attempt_fix, *args, repeat(n), repeat(u)))


def former_audibility_masks(auv_positions, anchors, r_hf):
    """``audibility_masks`` as it was: float() on every AUV coordinate."""
    masks = []
    for p in auv_positions:
        px, py = float(p[0]), float(p[1])
        mask = 0
        for j, a in enumerate(anchors):
            dx, dy = px - a[0], py - a[1]
            if math.sqrt(dx * dx + dy * dy) <= r_hf:
                mask |= 1 << j
        masks.append(mask)
    return masks


XY = st.one_of(st.sampled_from([0.0, -0.0, 30.0, -30.0, 1e-310, math.nan, math.inf]),
               st.floats(-100.0, 100.0))


@settings(max_examples=300, deadline=None)
@given(auvs=st.lists(st.tuples(XY, XY), max_size=8),
       asvs=st.lists(st.tuples(XY, XY), min_size=1, max_size=5),
       r_hf=st.one_of(st.just(30.0), st.floats(0.0, 150.0)),
       form=st.sampled_from(["tuples", "numpy", "ints"]))
@example(auvs=[(0.0, 30.0), (-30.0, 0.0)], asvs=[(0.0, 0.0)], r_hf=30.0, form="tuples")
def test_lean_audibility_masks_equal_the_former_ones(auvs, asvs, r_hf, form):
    # the host passes float tuples; tests pass numpy rows and int pairs too
    anchors = asvs
    if form == "numpy":
        auvs = np.nan_to_num(np.array(auvs, dtype=float).reshape(-1, 2), posinf=1e3)
        anchors = np.nan_to_num(np.array(asvs), posinf=-1e3)
    elif form == "ints":
        auvs = [(int(x), int(y)) for x, y in np.nan_to_num(np.array(auvs).reshape(-1, 2))]
    assert (audibility_masks(auvs, anchors, r_hf) ==
            former_audibility_masks(auvs, anchors, r_hf))


def former_slot_check(graph, coloring):
    """The message of the per-ping slot check for the first clashing group,
    pinging the groups in order, or None for a proper coloring."""
    for g, members in enumerate(coloring.groups):
        for a_i, a in enumerate(members):
            later = [b for b in members[a_i + 1:] if (a, b) in edges(graph)]
            if later:
                return f"conflicting AUVs {a} and {later[0]} share uplink slot {g}"
    return None


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 7))
def test_improper_coloring_raises_at_start_round(data, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    drawn = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else ()
    k = data.draw(st.integers(1, n))
    coloring = Coloring(data.draw(st.lists(st.integers(0, k - 1), min_size=n,
                                           max_size=n)), k)
    graph = from_edges(n, drawn)
    want = former_slot_check(graph, coloring)

    def scheduler(first_graph, first_coloring):
        """A scheduler whose round 0 has the given, proper pair."""
        sched = TdmaScheduler(SimConfig(), [[(None, None)]] * n,
                              lambda positions, anchors: pytest.fail("no round is colored"),
                              [VehicleTruth(0.0, 0.0, 10.0, 0.0)] * n, StillAsvs([(0.0, 0.0)]))
        sched.start_round(first_graph, first_coloring, 0)
        return sched

    # a new graph and coloring after another pair
    new = scheduler(from_edges(n), Coloring(list(range(n)), n))
    # a coloring proper for the previous round's graph, reused with a new one
    reused = scheduler(from_edges(n), coloring)
    # a new coloring for the previous round's graph
    recolored = scheduler(graph, greedy_color(graph))
    for sched in (new, reused, recolored):
        tick = sched.round_end
        if want is None:
            sched.start_round(graph, coloring, tick)
            sched.start_round(graph, coloring, sched.round_end)   # the same pair again
        else:
            with pytest.raises(AssertionError) as err:
                sched.start_round(graph, coloring, tick)
            assert str(err.value) == want


# the attribute path of every declared SimConfig field
PATHS = [path for path, _, _ in declared(SimConfig())]


def values_like(v):
    """Values of the type of ``v``; floats or None where ``v`` is either, as
    the track spacing is."""
    if isinstance(v, bool):
        return st.booleans()
    if isinstance(v, int):
        return st.integers()
    if isinstance(v, str):
        return st.text()
    if isinstance(v, tuple):
        return st.tuples(ANY_FLOAT, ANY_FLOAT)
    return st.one_of(ANY_FLOAT, st.none())


@settings(max_examples=500, deadline=None)
@given(data=st.data(), path=st.sampled_from(PATHS))
def test_config_hash_changes_with_every_field_but_seed_and_trace(data, path):
    cfg = SimConfig()
    # start from a config that differs from the default in some other field
    other = data.draw(st.sampled_from(PATHS))
    obj = reduce(getattr, other[:-1], cfg)
    setattr(obj, other[-1], data.draw(values_like(getattr(obj, other[-1]))))
    obj = reduce(getattr, path[:-1], cfg)
    old = getattr(obj, path[-1])
    new = data.draw(values_like(old).filter(lambda v: repr(v) != repr(old)))
    before = cfg.config_hash()
    setattr(obj, path[-1], new)
    assert (cfg.config_hash() != before) == (path not in (("seed",), ("trace",)))


# short valid missions over the survey scale, the team, the tick rate, the
# formation, both contention modes and conflict sources, and the MF downlink
MISSIONS = st.builds(
    SimConfig, L=st.floats(15.0, 160.0), n_auv=st.integers(1, 6), n_asv=st.integers(1, 4),
    alpha0=st.floats(0.0, math.pi), duration=st.floats(0.0, 20.0),
    f_t=st.sampled_from([7, 10, 30, 50]), seed=st.integers(0, 2**32 - 1),
    r_hf=st.floats(20.0, 80.0), delta_b=st.sampled_from([0.0, 3.0]),
    asv_jitter_std=st.sampled_from([0.0, 0.5]), contention=st.sampled_from(["fleet", "group"]),
    conflict_source=st.sampled_from(["truth", "last_fix"]),
    timing=st.builds(TimingConfig, guard_factor_dl=st.floats(0.5, 2.0),
                     min_slot_factor_dl=st.floats(0.1, 15.0),
                     r_dl=st.sampled_from([2000.0, 1e5, 1e12]), n_hdr=st.integers(1, 32),
                     b_fix=st.integers(4, 64), r_mf=st.floats(40.0, 200.0),
                     max_fix_age_s=st.floats(0.05, 1.0)))


@settings(max_examples=100, deadline=None)
@given(cfg=MISSIONS)
def test_a_run_keeps_the_exact_capacity_bounds(cfg):
    # one broadcast per MF slot at most, no AUV delivered more fixes than it
    # fused, and no fix delivered sooner than its one-fix airtime in ticks
    rep = engine.run(cfg)
    ticks = protocol.run_ticks(cfg)
    bcasts = len(list(rep.events.records(BCAST)))
    assert bcasts <= math.ceil(rep.ticks / max(1, ticks.mf_slot))
    fused = Counter(i for _, i, _ in rep.events.records(FUSE))
    delivered = [(i, lat) for _, i, lat in rep.events.records(DELIVER)]
    assert not Counter(i for i, _ in delivered) - fused
    assert all(lat >= ticks_ceil(ticks.t_tx, cfg.f_t) / cfg.f_t for _, lat in delivered)
