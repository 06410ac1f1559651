import math

import pytest

from coopnav.mission import (GuidanceConfig, VehicleTruth, advance_truth,
                             guidance_step, plan_lawnmower, point_segment_distance,
                             segment)

GUID = GuidanceConfig()
DT = 1.0 / 30.0
MAX_STEP = GUID.max_yaw_rate * DT


def segments(plan, auv):
    """Consecutive waypoint segments of one AUV's plan."""
    wps = plan.waypoints[auv]
    return [segment(*wps[i], *wps[i + 1]) for i in range(len(wps) - 1)]


def cross_track_error(true_xy, segs):
    """Distance from the true position to the nearest planned segment."""
    return min(point_segment_distance(true_xy[0], true_xy[1], seg) for seg in segs)


def test_plan_baseline_strips():
    plan = plan_lawnmower(60.0, 4, 5.0)
    assert plan.strip_bounds[0] == (-30.0, -15.0)
    ys = sorted({wp[1] for wp in plan.waypoints[0]})
    assert ys == [-30.0, -25.0, -20.0, -15.0]


def test_plan_single_strip_two_tracks():
    plan = plan_lawnmower(60.0, 1, 60.0)
    ys = sorted({wp[1] for wp in plan.waypoints[0]})
    assert ys == [-30.0, 30.0]


def test_plan_three_wide_strips():
    plan = plan_lawnmower(140.0, 3, 10.0)
    lo, hi = plan.strip_bounds[1]
    assert hi - lo == pytest.approx(140.0 / 3.0)


def test_plan_rejects_oversized_spacing():
    with pytest.raises(ValueError):
        plan_lawnmower(60.0, 4, 16.0)


def test_plan_strips_partition_survey():
    plan = plan_lawnmower(100.0, 5, None)
    assert plan.strip_bounds[0][0] == -50.0
    assert plan.strip_bounds[-1][1] == pytest.approx(50.0)
    for (a, b), (c, d) in zip(plan.strip_bounds, plan.strip_bounds[1:]):
        assert b == pytest.approx(c)
    for wps in plan.waypoints:
        for x, y in wps:
            assert -50.0 <= x <= 50.0 and -50.0 <= y <= 50.0


def test_default_spacing_is_third_of_strip():
    plan = plan_lawnmower(60.0, 4, None)
    assert plan.track_spacing == pytest.approx(5.0)
    plan = plan_lawnmower(140.0, 3, None)
    assert plan.track_spacing == pytest.approx(140.0 / 9.0)


def test_guidance_points_at_waypoint():
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.0)
    speed, yaw, idx = guidance_step(truth, (-5.0, 0.0), [(0.0, 0.0)], 0, GUID)
    assert speed == GUID.cruise_speed
    assert yaw == pytest.approx(0.0)
    assert idx == 0


def test_guidance_waypoint_capture_advances():
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.0)
    wps = [(1.0, 0.0), (50.0, 0.0)]
    _, _, idx = guidance_step(truth, (0.0, 0.0), wps, 0, GUID)
    assert idx == 1


def test_guidance_stops_when_plan_exhausted():
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.3)
    speed, yaw, idx = guidance_step(truth, (0.0, 0.0), [(1.0, 0.0)], 0, GUID)
    assert speed == 0.0 and idx == 1
    assert yaw == truth.yaw


def test_advance_truth_straight_line_distance():
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.0)
    for _ in range(9000):
        advance_truth(truth, 0.65, 0.0, MAX_STEP, DT)
    assert truth.x == pytest.approx(195.0, abs=1e-6)
    assert truth.y == 0.0


def test_advance_truth_yaw_slew_rate():
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.0)
    ticks = 0
    while abs(truth.yaw - math.pi / 2) > 1e-9 and ticks < 10_000:
        advance_truth(truth, 0.0, math.pi / 2, MAX_STEP, DT)
        ticks += 1
    assert ticks * DT == pytest.approx(math.pi, abs=2 * DT)


def test_advance_truth_zero_speed_holds_position():
    truth = VehicleTruth(3.0, 4.0, 10.0, 1.0)
    advance_truth(truth, 0.0, 2.0, MAX_STEP, DT)
    assert (truth.x, truth.y) == (3.0, 4.0)


def test_point_segment_distance_cases():
    seg = segment(-10, 0, 10, 0)
    assert point_segment_distance(0, 1, seg) == pytest.approx(1.0)
    assert point_segment_distance(15, 1, seg) == pytest.approx(math.sqrt(26))
    assert point_segment_distance(5, 0, seg) == 0.0
    assert point_segment_distance(3, 4, segment(0, 0, 0, 0)) == 5.0


def test_cross_track_error_over_plan():
    plan = plan_lawnmower(60.0, 1, 30.0)
    segs = segments(plan, 0)
    on_track = cross_track_error((0.0, -30.0), segs)
    assert on_track == pytest.approx(0.0, abs=1e-12)
    assert cross_track_error((0.0, -28.0), segs) == pytest.approx(2.0)


def test_closed_loop_offset_follows_estimate_error():
    # a frozen estimate offset steers the true path the same distance to the
    # other side of the planned track
    offset = (0.0, 2.0)
    truth = VehicleTruth(0.0, 0.0, 10.0, 0.0)
    wps = [(200.0, 0.0)]
    idx = 0
    for _ in range(9000):
        est = (truth.x + offset[0], truth.y + offset[1])
        speed, yaw, idx = guidance_step(truth, est, wps, idx, GUID)
        if idx >= len(wps):
            break
        advance_truth(truth, speed, yaw, MAX_STEP, DT)
    assert truth.y == pytest.approx(-2.0, abs=0.1)


def test_perfect_estimator_tracks_plan():
    plan = plan_lawnmower(30.0, 1, 15.0)
    wps = plan.waypoints[0]
    segs = segments(plan, 0)
    truth = VehicleTruth(wps[0][0], wps[0][1], 10.0,
                         math.atan2(wps[1][1] - wps[0][1], wps[1][0] - wps[0][0]))
    idx = 0
    ctes = []
    speeds = []
    yaws = [truth.yaw]
    for _ in range(200 * 30):
        speed, yaw, idx = guidance_step(truth, (truth.x, truth.y), wps, idx, GUID)
        if idx >= len(wps):
            break
        advance_truth(truth, speed, yaw, MAX_STEP, DT)
        ctes.append(cross_track_error((truth.x, truth.y), segs))
        speeds.append(truth.speed)
        yaws.append(truth.yaw)
    assert idx >= len(wps), "plan must complete"
    assert sum(ctes) / len(ctes) < GUID.capture_radius / 2
    assert max(speeds) <= GUID.cruise_speed + 1e-12
    rates = [abs((b - a + math.pi) % (2 * math.pi) - math.pi) / DT
             for a, b in zip(yaws, yaws[1:])]
    assert max(rates) <= GUID.max_yaw_rate + 1e-9
