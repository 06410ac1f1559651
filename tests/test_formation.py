import math

import numpy as np
import pytest

from coopnav.engine import SimConfig
from coopnav.formation import (asv_positions, corner_distance, coverage_fraction_grid,
                               min_formation_radius)


def layout_of(n, r_hf=50.0, alpha0=0.0, L=60.0, delta_b=0.0):
    """The ring as ``run`` and ``check-coverage`` build it."""
    return SimConfig(n_asv=n, L=L, r_hf=r_hf, delta_b=delta_b, alpha0=alpha0).formation()


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


def test_corner_distance_single_asv():
    assert corner_distance(layout_of(1), 140.0) == pytest.approx(98.995, abs=1e-3)
    assert corner_distance(layout_of(1), 60.0) == pytest.approx(42.426, abs=1e-3)


def test_corner_distance_three_asv_brute_force():
    # frozen from the 4-corner x 3-ASV brute force; binding corners (70, +-70)
    lay = layout_of(3, r_hf=50.0)
    assert corner_distance(lay, 140.0) == pytest.approx(72.8011, abs=1e-3)


def test_corner_distance_full_turn_invariant():
    for n in (1, 2, 3, 5):
        base = corner_distance(layout_of(n, alpha0=0.3), 100.0)
        turned = corner_distance(layout_of(n, alpha0=0.3 + 2 * math.pi), 100.0)
        assert turned == pytest.approx(base, abs=1e-9)


def test_min_formation_radius_values():
    assert min_formation_radius(60.0, 50.0) == pytest.approx(-10.0, abs=1e-9)
    assert min_formation_radius(100.0, 50.0) == pytest.approx(50.0, abs=1e-9)
    assert min_formation_radius(140.0, 50.0) is None


def test_coverage_grid_full_at_baseline():
    assert coverage_fraction_grid(layout_of(1), 60.0, 50.0, 0.5) == 1.0


def test_coverage_grid_partial_disc():
    frac = coverage_fraction_grid(layout_of(1), 140.0, 50.0, 0.5)
    assert frac == pytest.approx(math.pi * 50.0 ** 2 / 140.0 ** 2, abs=5e-3)


def test_coverage_grid_degenerate_point():
    # grid collapses to the single centre point, which the ASV covers
    lay = np.zeros((1, 2))
    assert coverage_fraction_grid(lay, 1.0, 50.0, grid_step=10.0) == 1.0


def test_degenerate_ring_closed_form_equivalence():
    # for the degenerate single-anchor case the closed form exactly separates
    # full coverage from partial coverage
    rng = np.random.default_rng(5)
    for _ in range(40):
        L = float(rng.uniform(20, 140))
        r_hf = float(rng.uniform(L / 2, 1.5 * L))
        mfr = min_formation_radius(L, r_hf)
        frac = coverage_fraction_grid(layout_of(1, r_hf=r_hf, L=L), L, r_hf, 1.0)
        if mfr <= 0:
            assert frac == 1.0
        else:
            assert frac < 1.0


def ring_layout(n, radius):
    ang = 2 * math.pi * np.arange(n) / n
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_ring_coverage_known_instances():
    # oracle-verified spot checks: small rings that do and do not cover
    assert coverage_fraction_grid(ring_layout(2, 25.0), 100.0, 60.0, 0.5) == 1.0
    assert coverage_fraction_grid(ring_layout(3, 20.0), 100.0, 60.0, 0.5) == 1.0
    assert coverage_fraction_grid(ring_layout(3, 25.0), 120.0, 70.0, 0.5) == 1.0
    # radius 60 puts the mid-edge beyond reach of both anchors
    assert coverage_fraction_grid(ring_layout(2, 60.0), 100.0, 60.0, 0.5) < 1.0
