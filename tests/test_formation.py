import math

import numpy as np
import pytest

from coopnav.engine import AsvFleet, SimConfig
from coopnav.formation import asv_positions, worst_point


def layout_of(n, r_hf=50.0, alpha0=0.0, L=60.0, delta_b=0.0):
    """The ring as ``run`` and ``check-coverage`` build it."""
    return AsvFleet(SimConfig(n_asv=n, L=L, r_hf=r_hf, delta_b=delta_b, alpha0=alpha0)).ring


def test_single_asv_degenerates_to_origin():
    lay = layout_of(1, r_hf=123.0)
    assert lay.shape == (1, 2)
    assert np.allclose(lay, 0.0)


def test_three_asv_ring():
    lay = layout_of(3, r_hf=50.0)
    expect = np.array([[50.0, 0.0], [-25.0, 43.301], [-25.0, -43.301]])
    assert np.allclose(lay, expect, atol=1e-3)


def test_two_asv_rotated_ring():
    lay = layout_of(2, r_hf=50.0, alpha0=math.pi / 6)
    expect = np.array([[43.301, 25.0], [-43.301, -25.0]])
    assert np.allclose(lay, expect, atol=1e-3)


def test_ring_radius_adds_the_buffer():
    lay = layout_of(4, r_hf=40.0, alpha0=0.3, delta_b=5.0)
    assert np.array_equal(lay, asv_positions(4, 45.0, 0.3))
    assert np.allclose(np.linalg.norm(lay, axis=1), 45.0)


def test_rejects_zero_asvs():
    # the ring's bounds have one owner: the run config
    with pytest.raises(ValueError, match="n_asv"):
        SimConfig(n_asv=0).validate()


def test_ring_equidistance_and_spacing():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a0 = float(rng.uniform(0, 2 * math.pi))
        rf = float(rng.uniform(1, 200))
        lay = layout_of(n, r_hf=rf, alpha0=a0)
        radii = np.linalg.norm(lay, axis=1)
        assert np.all(np.abs(radii - rf) < 1e-9)
        ang = np.arctan2(lay[:, 1], lay[:, 0])
        gaps = np.diff(ang) % (2 * math.pi)
        assert np.allclose(gaps, 2 * math.pi / n, atol=1e-9)


def test_coverage_grid_full_at_baseline():
    # the single anchor at the centre of the baseline square: the corners bind
    worst, _ = worst_point(layout_of(1), 60.0)
    assert worst == pytest.approx(30.0 * math.sqrt(2.0), abs=1e-12)
    assert worst <= 50.0


def test_ring_coverage_known_instances():
    # exact spot checks: small rings that do and do not cover; radius 60
    # puts the mid-edge beyond reach of both anchors
    for n, radius, L, r_hf, expect in ((2, 25.0, 100.0, 60.0, 55.90),
                                       (3, 20.0, 100.0, 60.0, 58.31),
                                       (3, 25.0, 120.0, 70.0, 69.46),
                                       (2, 60.0, 100.0, 60.0, 78.10)):
        worst, _ = worst_point(asv_positions(n, radius, 0.0), L)
        assert worst == pytest.approx(expect, abs=5e-3)
        assert (worst <= r_hf) == (radius != 60.0)
