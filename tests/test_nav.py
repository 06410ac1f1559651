import math

import numpy as np
import pytest

from coopnav.engine import NoiseStream, SimConfig
from coopnav.nav import (KinematicInput, NavState, apply_fix, dead_reckon_step,
                         depth_update)

DT = 1.0 / 30.0
QUIET = (0.0, 0.0)     # no IMU noise this step
CFG = SimConfig()


def state(x=0.0, y=0.0, z=0.0, dt=DT, bias=CFG.bias, gamma=CFG.gamma):
    """A nav state at (x, y, z), with the run config's bias and gain unless given."""
    return NavState.at(x, y, z, dt, bias=bias, gamma=gamma)


def heading(speed, psi):
    return KinematicInput(speed, math.cos(psi), math.sin(psi))


def test_dr_step_noiseless_unbiased():
    s = state(bias=(0.0, 0.0))
    dead_reckon_step(s, heading(1.0, 0.0), QUIET)
    assert s.p_imu[0] == pytest.approx(DT)
    assert s.p_imu[1] == 0.0
    assert s.p_fused[:2] == s.p_imu[:2]


def test_dr_step_bias_integrates_linearly():
    s = state(bias=(0.06, 0.06))
    inp = heading(0.0, 0.0)
    for _ in range(9000):   # 300 s
        dead_reckon_step(s, inp, QUIET)
    assert s.p_imu[0] == pytest.approx(18.0, abs=1e-9)
    assert s.p_imu[1] == pytest.approx(18.0, abs=1e-9)
    assert math.hypot(*s.p_imu[:2]) == pytest.approx(25.456, abs=1e-3)


def test_dr_step_rotates_by_yaw():
    s = state(bias=(0.0, 0.0))
    dead_reckon_step(s, heading(1.0, math.pi / 2), QUIET)
    assert s.p_imu[0] == pytest.approx(0.0, abs=1e-12)
    assert s.p_imu[1] == pytest.approx(DT)


def test_dr_step_can_hold_fused():
    s = state(bias=(0.0, 0.0))
    dead_reckon_step(s, heading(1.0, 0.0), QUIET, advance_fused=False)
    assert s.p_imu[0] > 0.0
    assert s.p_fused[0] == 0.0


def test_depth_update_exact_when_noiseless():
    s = state()
    depth_update(s, 10.0, 0.0)
    assert s.p_imu[2] == 10.0 and s.p_fused[2] == 10.0


def test_depth_noise_statistics():
    s = state()
    noise = NoiseStream(np.random.default_rng(3), 0.05)
    zs = []
    for _ in range(10_000):
        depth_update(s, 10.0, next(noise))
        zs.append(s.p_fused[2])
    errs = np.array(zs) - 10.0
    assert np.std(errs) == pytest.approx(0.05, abs=0.002)
    # depth error is white: lag-1 autocorrelation vanishes
    rho = np.corrcoef(errs[:-1], errs[1:])[0, 1]
    assert abs(rho) < 0.05
    # and never accumulates
    assert np.max(np.abs(errs)) <= 5 * 0.05


def fused(x, y):
    return (x, y)


def test_apply_fix_correction():
    s = state(10.0, 0.0, bias=(0.0, 0.0), gamma=0.9)
    apply_fix(s, fused(12.0, 0.0), heading(0.0, 0.0), True)
    assert s.p_fused[0] == pytest.approx(11.8)
    assert s.p_fused[1] == pytest.approx(0.0)


def test_apply_fix_full_gain_jumps_to_fix():
    s = state(10.0, 5.0, bias=(0.0, 0.0), gamma=1.0)
    apply_fix(s, fused(-3.0, 4.0), heading(0.0, 0.0), True)
    assert s.p_fused[0] == pytest.approx(-3.0)
    assert s.p_fused[1] == pytest.approx(4.0)


def test_apply_fix_zero_innovation_no_change():
    for gamma in (0.1, 0.5, 0.9, 1.0):
        s = state(7.0, -2.0, bias=(0.0, 0.0), gamma=gamma)
        apply_fix(s, fused(7.0, -2.0), heading(0.0, 0.0), True)
        assert s.p_fused[0] == pytest.approx(7.0)
        assert s.p_fused[1] == pytest.approx(-2.0)


def test_apply_fix_predicts_with_bias_before_correcting():
    s = state(0.0, 0.0, dt=1.0, bias=(0.3, 0.0), gamma=1.0)
    apply_fix(s, fused(0.0, 0.0), heading(0.0, 0.0), True)
    # gamma = 1: lands exactly on the fix regardless of the predict
    assert s.p_fused[0] == pytest.approx(0.0)
    s2 = state(0.0, 0.0, dt=1.0, bias=(0.3, 0.0), gamma=0.5)
    apply_fix(s2, fused(0.0, 0.0), heading(0.0, 0.0), True)
    # predict moves to 0.3, correction comes halfway back
    assert s2.p_fused[0] == pytest.approx(0.15)
    s3 = state(0.0, 0.0, dt=1.0, bias=(0.3, 0.0), gamma=0.5)
    apply_fix(s3, fused(1.0, 0.0), heading(0.0, 0.0), False)
    # no predict: the correction starts from the fused position itself
    assert s3.p_fused[0] == 0.5


def test_apply_fix_leaves_imu_untouched():
    s = state(1.0, 1.0, bias=(0.0, 0.0))
    apply_fix(s, fused(5.0, 5.0), heading(0.0, 0.0), True)
    assert s.p_imu[:2] == [1.0, 1.0]


def test_gamma_validation():
    # the gain's bound (0, 1] has one owner: the run config
    for gamma in (0.0, 1.5, float("nan")):
        with pytest.raises(ValueError, match="gamma"):
            SimConfig(gamma=gamma).validate()
    SimConfig(gamma=1.0).validate()


def test_stationary_rms_matches_dynamics_envelope():
    # RMS of the uncorrected estimate under zero commanded velocity follows
    # sqrt(||b||^2 t^2 + 2 sigma^2 t): the bias integrates in full and each
    # horizontal axis random-walks independently
    bias, sigma = (0.06, 0.06), 0.027
    checkpoints = {30: [], 100: [], 300: []}
    for trial in range(200):
        noise = NoiseStream(np.random.default_rng(1000 + trial), (sigma, sigma),
                            math.sqrt(DT))
        s = state(bias=bias)
        inp = heading(0.0, 0.0)
        for k in range(1, 9001):
            dead_reckon_step(s, inp, next(noise))
            t = k * DT
            for cp in checkpoints:
                if abs(t - cp) < DT / 2:
                    checkpoints[cp].append(math.hypot(*s.p_imu[:2]))
    b2 = bias[0] ** 2 + bias[1] ** 2
    for t, errs in checkpoints.items():
        rms = math.sqrt(np.mean(np.square(errs)))
        expect = math.sqrt(b2 * t * t + 2 * sigma ** 2 * t)
        assert rms == pytest.approx(expect, rel=0.15)
