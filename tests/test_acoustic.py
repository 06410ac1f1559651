import math
import struct
from itertools import repeat

import numpy as np
import pytest

from coopnav.acoustic import P_CAP, UsblNoiseConfig, attempt_fix, fuse_fixes
from coopnav.conflict import Coloring
from coopnav.engine import NoiseStream, SimConfig, uniform_stream
from coopnav.mission import VehicleTruth
from coopnav.protocol import PING, TdmaScheduler

NO_LOSS = repeat(1.0)   # a loss draw of 1.0 is never below the capped loss probability


def fix(auv, noise, noise_tuples, n_auv=1, loss_rng=NO_LOSS, asv=(0.0, 0.0)):
    """attempt_fix over an in-range path from the ASV at ``asv`` (x, y) and
    z = 0 to the AUV at ``auv``, handed the geometry and constants as the
    scheduler hands them over: (x, y, z, variance) or None."""
    dx, dy, dz = auv[0] - asv[0], auv[1] - asv[1], auv[2]
    return attempt_fix(asv, dx, dy, dz, math.dist((*asv, 0.0), auv), n_auv,
                       noise.sigma_r ** 2, noise.sigma_theta, noise_tuples, loss_rng)


def usbl_stream(noise, seed):
    return NoiseStream(np.random.default_rng(seed),
                       (noise.sigma_r, noise.sigma_theta, noise.sigma_phi))


def as_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def loss_p(r, n_auv=1):
    """The loss probability attempt_fix applies at range r: the least draw
    that keeps the fix, bisected over the bit patterns of [0, 1]."""
    noise, zeros = UsblNoiseConfig(), repeat((0.0, 0.0, 0.0))
    lo, hi = -1, struct.unpack("<q", struct.pack("<d", 1.0))[0]   # 0.0 is bits 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fix((r, 0.0, 0.0), noise, zeros, n_auv,
               repeat(as_float(mid))) is None:
            lo = mid
        else:
            hi = mid
    return as_float(hi)


def test_loss_probability_values():
    # with one vehicle: the range term alone, up to the cap
    assert loss_p(0.0) == 0.0                 # raw -0.083 clamps
    assert loss_p(400.0) == pytest.approx(0.552362, abs=1e-6)
    assert loss_p(900.0) == loss_p(800.0) == P_CAP == 0.999


def test_loss_probability_monotone_then_flat():
    rs = np.linspace(0, 800, 401)
    ps = [loss_p(float(r)) for r in rs]
    assert all(b >= a for a, b in zip(ps, ps[1:]))
    assert loss_p(1200.0) == ps[-1]


def test_total_loss_probability():
    assert loss_p(50.0, 4) == pytest.approx(0.15)
    assert loss_p(50.0, 1) == 0.0
    assert loss_p(800.0, 1) == 0.999
    # never below the range-only loss, never above the cap
    for r in (0, 100, 500, 800):
        for n in (1, 3, 10, 40):
            p = loss_p(float(r), n)
            assert loss_p(float(r)) <= p <= P_CAP


# the fix measurement model: attempt_fix with a loss draw that never loses

def test_measure_fix_noiseless_roundtrip():
    noise = UsblNoiseConfig(sigma_r=0.0, sigma_theta=0.0, sigma_phi=0.0)
    cases = [((0, 0), (100, 0, 10)), ((5, -3), (-40, 60, 25)),
             ((0, 0), (0, 0, 30)), ((1, 2), (1, 2, 0))]
    for asv, auv in cases:
        fx = fix(auv, noise, usbl_stream(noise, 0), asv=asv)
        assert np.allclose(fx[:3], auv, atol=1e-9)


def test_measure_fix_cross_range_noise_scale():
    # azimuth noise of 0.5 deg at ~100 m gives ~0.87 m cross-range scatter
    noise = UsblNoiseConfig(sigma_r=0.0, sigma_theta=0.00873, sigma_phi=0.0)
    stream = usbl_stream(noise, 1)
    ys = [fix((100, 0, -10), noise, stream)[1]
          for _ in range(10_000)]
    assert np.std(ys) == pytest.approx(0.877, rel=0.10)


def test_measure_fix_along_range_noise_scale():
    noise = UsblNoiseConfig(sigma_r=0.1, sigma_theta=0.0, sigma_phi=0.0)
    stream = usbl_stream(noise, 2)
    xs = [fix((50, 0, -10), noise, stream)[0]
          for _ in range(10_000)]
    # range error projects onto the unit line-of-sight vector
    assert np.std(xs) == pytest.approx(0.1 * 50 / math.hypot(50, 10), rel=0.10)


def test_attempt_fix_range_cutoff():
    # the scheduler attempts a fix up to r_hf and no further; beyond it the
    # ping is unheard and nothing is drawn
    never = iter(lambda: pytest.fail("an out-of-range attempt drew"), None)
    paths = [[(never, never)], [(repeat((0.0, 0.0, 0.0)), repeat(0.99))]]
    auvs = [VehicleTruth(60.0, 0.0, 0.0, 0.0), VehicleTruth(30.0, 0.0, 40.0, 0.0)]
    sched = TdmaScheduler(SimConfig(L=60.0, r_hf=50.0), paths,
                          lambda positions, anchors: ([set(), set()], Coloring([0, 0], 1)),
                          auvs, [(0.0, 0.0)])
    sched.step(0, [(0.0, 0.0)])
    assert [i for _, i, _ in sched.events.records(PING)] == [0, 1] and sched.heard == [0, 1]
    # AUV 1, exactly r_hf away, is attempted and its fix kept
    assert [e for e in sched.events if e.startswith("FIX")] == [
        "FIX{tick=0, auv=1, asv=0, pos=(30.000000, 0.000000, 40.000000), var=0.200386}"]


def test_attempt_fix_short_range_always_delivers():
    noise = UsblNoiseConfig()
    stream = usbl_stream(noise, 4)
    loss = uniform_stream(np.random.default_rng(14))
    for _ in range(200):
        assert fix((10, 0, 0), noise, stream, 1, loss) is not None


def test_attempt_fix_empirical_loss_rate():
    # r = 50 m with four vehicles: loss probability 0.15
    noise = UsblNoiseConfig()
    stream, loss = usbl_stream(noise, 5), uniform_stream(np.random.default_rng(15))
    lost = sum(fix((50, 0, 0), noise, stream, 4, loss) is None
               for _ in range(10_000))
    assert lost / 10_000 == pytest.approx(0.15, abs=0.01)


def fix_at(x, var):
    return (x, 0.0, 0.0, var)


def test_fuse_single_fix_identity():
    assert fuse_fixes([(1.5, -2.0, 10.0, 2.0)]) == pytest.approx((1.5, -2.0, 10.0))


def test_fuse_equal_variance_mean():
    assert fuse_fixes([fix_at(1.0, 1.0), fix_at(3.0, 1.0)]) == pytest.approx((2.0, 0.0, 0.0))


def test_fuse_weighted():
    assert fuse_fixes([fix_at(0.0, 1.0), fix_at(3.0, 0.5)]) == pytest.approx((2.0, 0.0, 0.0))


def test_fused_position_is_the_inverse_variance_mean():
    rng = np.random.default_rng(6)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        fixes = [tuple(rng.normal(size=3)) + (float(rng.uniform(0.1, 3.0)),)
                 for _ in range(k)]
        pos, var = np.array(fixes)[:, :3], np.array(fixes)[:, 3]
        expect = np.average(pos, axis=0, weights=1.0 / var)
        assert fuse_fixes(fixes) == pytest.approx(tuple(expect), abs=1e-12)


def test_fused_error_shrinks_with_sqrt_k():
    # K equal-quality observers cut the fused scatter by sqrt(K)
    rng = np.random.default_rng(7)
    sigma = 0.5
    stds = {}
    for k in (1, 2, 3):
        errs = []
        for _ in range(10_000):
            fixes = [fix_at(float(rng.normal(0.0, sigma)), sigma ** 2)
                     for _ in range(k)]
            errs.append(fuse_fixes(fixes)[0])
        stds[k] = float(np.std(errs))
    assert stds[2] == pytest.approx(stds[1] / math.sqrt(2), rel=0.10)
    assert stds[3] == pytest.approx(stds[1] / math.sqrt(3), rel=0.10)
