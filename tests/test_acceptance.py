"""Acceptance suite: one test per acceptance criterion.

Every test prints a single PASS/FAIL line with the measured numbers before
asserting, so a full run reads as a checklist:

    pytest tests/test_acceptance.py -v -s

The scenario criteria read rows, not reports: the module runs the 300 s
missions of the three sweep INIs beside this file once, through
``coopnav sweep``, and each criterion reads ``runs.csv`` for run-level
figures and ``auvs.csv`` for per-AUV ones.  Two checks are known to fail by
construction and are kept honest rather than weakened; their docstrings
carry the analysis:

  * criterion 6b's absolute cross-track band at the largest survey scale,
  * criterion 11's full-coverage guarantee for 2- and 3-anchor rings.

Criterion 11's subject, the closed-form minimum ring radius, lives here with
its own checks: no production code computes it.
"""

import csv
import itertools
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import coopnav
from coopnav import cli
from coopnav.conflict import audibility_masks, build_conflict_graph, greedy_color
from coopnav.engine import SimConfig, noise_stream, run
from coopnav.formation import asv_positions, worst_point
from coopnav.nav import KinematicInput, NavState, dead_reckon_step
from coopnav.acoustic import fuse_fixes
from graphs import edges

SEEDS = list(range(5))
DT = 1.0 / 30.0
HERE = Path(__file__).parent

# sweep cells (L, n_asv, n_auv, alpha0_deg) of the scenarios
BASELINE = (60.0, 1, 4, 0)
FAILURE = (140.0, 1, 3, 0)
RECOVERY = (140.0, 3, 3, 0)
ANGLE0, ANGLE30 = (140.0, 2, 3, 0), (140.0, 2, 3, 30)
GRID = list(itertools.product((60.0, 140.0), (1, 3), (3, 6)))   # (L, n_asv, n_auv)


def _report(num, passed, detail):
    print(f"\ncriterion {num:>3}: {'PASS' if passed else 'FAIL'} | {detail}")
    assert passed, f"criterion {num}: {detail}"


def _mean(xs):
    return statistics.mean(xs)


# ---------------------------------------------------------------- the sweeps

def _read(path: Path) -> list[SimpleNamespace]:
    """The rows of a sweep CSV: a cell of digits is an int, ``config_hash``
    and ``error`` stay text, and every other cell is a float."""
    with path.open(newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [SimpleNamespace(**{k: v if k in ("config_hash", "error")
                                   else int(v) if v.isdigit() else float(v)
                                   for k, v in row.items()}) for row in rows]


@pytest.fixture(scope="module")
def cells(tmp_path_factory) -> dict[tuple, list[SimpleNamespace]]:
    """The runs of the acceptance sweeps by cell (L, n_asv, n_auv,
    alpha0_deg), in seed order: each its ``runs.csv`` row, with its
    ``auvs.csv`` rows in AUV order as ``auvs``."""
    out = {}
    for name in ("grid", "baseline", "angle"):
        d = tmp_path_factory.mktemp(name)
        # exit 0: no run failed, so no mission's slot-safety assert fired
        assert cli.main(["sweep", "--config", str(HERE / f"acceptance_{name}.ini"),
                         "--out", str(d), "--parallel", "2"]) == 0
        auvs = {}
        for a in _read(d / "auvs.csv"):
            auvs.setdefault((a.config_hash, a.seed), []).append(a)
        for r in _read(d / "runs.csv"):
            r.auvs = auvs[r.config_hash, r.seed]
            out.setdefault((float(r.L), r.n_asv, r.n_auv, r.alpha0_deg), []).append(r)
    return out


# ---------------------------------------------------------------- criteria

def test_criterion_1_baseline_fairness(cells):
    """Near-uniform servicing, full coverage, and sub-metre tracking at the
    nominal scale."""
    runs = cells[BASELINE]
    n_auv = 4
    allocs = [_mean([r.auvs[i].allocation for r in runs]) for i in range(n_auv)]
    covs = [min(r.auvs[i].coverage for r in runs) for i in range(n_auv)]
    ctes = [_mean([r.auvs[i].mean_cte for r in runs]) for i in range(n_auv)]
    ok = (all(0.20 <= a <= 0.30 for a in allocs)
          and all(c == 1.0 for c in covs)
          and all(c < 1.0 for c in ctes))
    _report(1, ok,
            f"alloc={['%.3f' % a for a in allocs]} min_cov={min(covs):.3f} "
            f"max_cte={max(ctes):.3f} m")


def test_property_distance_tracks_cruise_budget(cells):
    """The unicycle never slows for turns, so distance over a fixed-duration
    mission stays within [0.9, 1.0] of cruise_speed * T."""
    for r in cells[BASELINE]:
        for a in r.auvs:
            assert 0.9 * 0.65 * r.duration_s <= a.distance <= 0.65 * r.duration_s + 1e-6


def test_property_estimator_separation(cells):
    """Raw dead reckoning diverges while the fused estimate stays within a
    few innovations of the truth.  Over the serpentine survey the body-frame
    bias partially cancels across reversed legs, so the 300 s raw error
    settles near one leg's worth of drift (~7-8 m), an order of magnitude
    above the fused bound."""
    for r in cells[BASELINE]:
        max_innovation = max(a.max_innovation for a in r.auvs)
        for a in r.auvs:
            assert a.final_imu_err > 4.0
            assert a.final_imu_err > 3.0 * a.max_fused_err
            assert a.max_fused_err < 5.0 * max_innovation


def test_criterion_2_latency_bound(cells):
    """Mean end-to-end latency of delivered fixes stays below 0.57 s in every
    scenario configuration with survey sides up to 140 m."""
    groups = {"baseline": cells[BASELINE], "failure": cells[FAILURE],
              "recovery": cells[RECOVERY], "angle0": cells[ANGLE0],
              "angle30": cells[ANGLE30]}
    for key in GRID:
        groups[f"cell{key}"] = cells[(*key, 0)]
    means = {}
    for name, runs in groups.items():
        lat = [r.latency_mean_s for r in runs if r.total_fixes > 0]
        if lat:
            means[name] = _mean(lat)
    # each AUV's largest latency; a run's p95 is one of its latencies, so no larger
    worst_fix = max(a.max_latency_s for runs in groups.values() for r in runs
                    for a in r.auvs)
    worst = max(means, key=means.get)
    # the freshness window (9 ticks) plus the worst delivery offset (8 ticks)
    # bounds every single fix, not just the mean
    ok = all(v <= 0.57 for v in means.values()) and worst_fix <= 0.57
    _report(2, ok, f"worst config mean latency {means[worst]:.3f} s ({worst}), "
                   f"worst single fix {worst_fix:.3f} s, {len(means)} configs checked")


def test_criterion_3_coverage_failure(cells):
    """A single anchor cannot service the outer strip at L=140: its vehicle
    is starved of coverage, fixes, and accuracy."""
    runs = cells[FAILURE]
    outer_cov = _mean([r.auvs[0].coverage for r in runs])
    outer_cte = _mean([r.auvs[0].mean_cte for r in runs])
    outer_fix = _mean([r.auvs[0].fix_count for r in runs])
    inner_cte = _mean([(r.auvs[1].mean_cte + r.auvs[2].mean_cte) / 2 for r in runs])
    inner_fix_1 = _mean([r.auvs[1].fix_count for r in runs])
    inner_fix_2 = _mean([r.auvs[2].fix_count for r in runs])
    ok = (outer_cov < 0.20
          and outer_cte > 3.0 * inner_cte
          and outer_fix < 0.25 * inner_fix_1
          and outer_fix < 0.25 * inner_fix_2)
    _report(3, ok,
            f"outer cov={outer_cov:.3f} cte={outer_cte:.2f} m fixes={outer_fix:.0f} "
            f"vs inner cte={inner_cte:.2f} m fixes={inner_fix_1:.0f}/{inner_fix_2:.0f}")


def test_criterion_4_recovery(cells):
    """Three anchors on the ring restore coverage and accuracy for every
    vehicle, improving at least threefold on the starved vehicle."""
    n_auv = 3
    recovered, failed = cells[RECOVERY], cells[FAILURE]
    covs = [_mean([r.auvs[i].coverage for r in recovered]) for i in range(n_auv)]
    ctes = [_mean([r.auvs[i].mean_cte for r in recovered]) for i in range(n_auv)]
    worst_failed = max(_mean([r.auvs[i].mean_cte for r in failed]) for i in range(n_auv))
    ok = (all(c >= 0.70 for c in covs)
          and all(c < 1.5 for c in ctes)
          and all(worst_failed / c >= 3.0 for c in ctes))
    _report(4, ok,
            f"cov={['%.3f' % c for c in covs]} cte={['%.2f' % c for c in ctes]} m "
            f"improvement >= {worst_failed / max(ctes):.1f}x")


def test_criterion_5_angle_sensitivity(cells):
    """Rotating a two-anchor formation by 30 degrees rescues the starved
    outer vehicle: its mean cross-track error drops at least threefold."""
    cte0 = _mean([r.auvs[0].mean_cte for r in cells[ANGLE0]])
    cte30 = _mean([r.auvs[0].mean_cte for r in cells[ANGLE30]])
    ratio = cte0 / cte30
    _report(5, ratio >= 3.0,
            f"outer cte {cte0:.2f} m @0deg -> {cte30:.2f} m @30deg "
            f"({ratio:.2f}x, {len(cells[ANGLE0])} seeds)")


def _grid_cte(cells, L: float) -> dict[tuple, float]:
    """Mean CTE over the AUVs and seeds of each grid cell at ``L``."""
    return {k: _mean([_mean([a.mean_cte for a in r.auvs]) for r in cells[(*k, 0)]])
            for k in GRID if k[0] == L}


def test_criterion_6a_small_scale_saturated(cells):
    means = _grid_cte(cells, 60.0)
    ok = all(v < 1.0 for v in means.values())
    _report("6a", ok, "L=60 cell mean CTE: " +
            ", ".join(f"{k[1]}asv/{k[2]}auv={v:.2f}" for k, v in sorted(means.items())))


def test_criterion_6b_large_scale_contrast(cells):
    """KNOWN FAIL (first clause): single-anchor cells at L=140 land near 2 m,
    not above 3 m.  The starved vehicles' drift is bounded by the survey
    pattern itself: a body-frame velocity bias rotated through the serpentine
    heading reversals integrates to a triangle wave, capping the divergence
    at roughly half of what a heading-independent disturbance would produce,
    while the well-served vehicles sit near the fix-noise floor.  The 3x
    multi-anchor reduction (second clause) does hold.
    """
    means = _grid_cte(cells, 140.0)
    single = {k: v for k, v in means.items() if k[1] == 1}
    detail = []
    ok = True
    for (L, _, n_auv), v in sorted(single.items()):
        ratio = v / means[(L, 3, n_auv)]
        detail.append(f"{n_auv}auv: 1asv={v:.2f} m (>3?), 3asv ratio {ratio:.2f}x")
        ok = ok and v > 3.0 and ratio >= 3.0
    _report("6b", ok, "; ".join(detail))


def test_criterion_6c_fix_rate_monotone(cells):
    rates = {k: _mean([r.per_auv_fix_rate_hz for r in cells[(*k, 0)]]) for k in GRID}
    ok = all(rates[(L, a, 3)] >= rates[(L, a, 6)] - 1e-9
             for L in (60.0, 140.0) for a in (1, 3))
    _report("6c", ok, "per-AUV fix rate: " +
            ", ".join(f"{k}={v:.3f}Hz" for k, v in sorted(rates.items())))


def test_criterion_7_drift_envelope():
    """RMS dead-reckoning error over 200 stationary trajectories follows the
    envelope implied by the propagation model, sqrt(||b||^2 t^2 + 2 sigma^2 t):
    the velocity bias integrates in full and both horizontal axes random-walk
    independently.  (The halved bias ramp sometimes quoted for this model is
    inconsistent with its own step equation; the simulated dynamics are the
    authority here.)
    """
    bias, sigma = (0.06, 0.06), 0.027
    marks = {900: 30.0, 3000: 100.0, 9000: 300.0}
    sums = {k: 0.0 for k in marks}
    n_trials = 200
    for trial in range(n_trials):
        noise = noise_stream(np.random.default_rng(20_000 + trial), (sigma, sigma),
                             math.sqrt(DT))
        s = NavState.at(0.0, 0.0, 0.0, DT, bias=bias, gamma=0.9)
        inp = KinematicInput(0.0, 1.0, 0.0)     # at rest, heading 0
        for k in range(1, 9001):
            dead_reckon_step(s, inp, next(noise))
            if k in marks:
                sums[k] += s.p_imu[0] ** 2 + s.p_imu[1] ** 2
    b2 = bias[0] ** 2 + bias[1] ** 2
    detail = []
    ok = True
    for k, t in marks.items():
        rms = math.sqrt(sums[k] / n_trials)
        expect = math.sqrt(b2 * t * t + 2 * sigma ** 2 * t)
        detail.append(f"t={t:.0f}s rms={rms:.2f} vs {expect:.2f}")
        ok = ok and abs(rms - expect) <= 0.15 * expect
    _report(7, ok, "; ".join(detail))


def test_criterion_8_fusion_scaling():
    """Fused-fix scatter shrinks as 1/sqrt(K) with K equal-quality anchors."""
    rng = np.random.default_rng(88)
    sigma = 0.5
    stds = {}
    for k in (1, 2, 3):
        vals = []
        for _ in range(10_000):
            fixes = [(float(rng.normal(0, sigma)), 0.0, 0.0, sigma ** 2)
                     for _ in range(k)]
            vals.append(fuse_fixes(fixes)[0])
        stds[k] = float(np.std(vals))
    ok = all(abs(stds[k] - stds[1] / math.sqrt(k)) <= 0.10 * stds[1] / math.sqrt(k)
             for k in (2, 3))
    _report(8, ok, f"std K=1..3: {stds[1]:.4f}, {stds[2]:.4f}, {stds[3]:.4f} "
                   f"(1/sqrt(K) within 10%)")


def test_criterion_9_scheduler_safety(cells):
    """Every coloring over 1000 random geometric instances is proper and
    within the greedy bound; slot safety inside full runs is asserted by the
    scheduler on every (graph, coloring) pair a round starts with (a run
    that raised would be an error row, and the acceptance sweeps have
    none)."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(1000):
        n_auv = int(rng.integers(1, 12))
        n_asv = int(rng.integers(1, 4))
        L = float(rng.uniform(40, 160))
        pts = rng.uniform(-L / 2, L / 2, size=(n_auv, 2))
        asv = rng.uniform(-L / 2, L / 2, size=(n_asv, 2))
        g = build_conflict_graph(audibility_masks(pts, asv, 50.0))
        c = greedy_color(g)
        assert all(c.color[i] != c.color[j] for i, j in edges(g))
        assert c.k <= max((len(a) for a in g), default=0) + 1
        checked += 1
    n_pings = sum(a.pings for r in cells[BASELINE] + cells[FAILURE] for a in r.auvs)
    _report(9, checked == 1000,
            f"{checked} random instances proper and within degree+1 bound; "
            f"{n_pings} in-run pings in slot-checked rounds")


def test_criterion_10_determinism(tmp_path):
    """Identical (config, seed) gives byte-identical event logs, and sweep
    outputs do not depend on the parallelism degree."""
    cfg = SimConfig(L=60.0, n_auv=4, n_asv=1, duration=300.0, seed=SEEDS[0])
    a, b = run(cfg), run(cfg)
    logs_equal = "\n".join(a.event_log).encode() == "\n".join(b.event_log).encode()

    sweep = tmp_path / "sweep.ini"
    sweep.write_text("[sweep]\nL = 60\nn_asv = 1, 2\nn_auv = 3\n"
                     "alpha0_deg = 0, 30\nseeds = 2\n\n[sim]\nduration = 20\n")
    # the cli subprocess imports the same coopnav sources as this test
    src = str(Path(coopnav.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    outs = []
    for par in (1, 8):
        out = tmp_path / f"p{par}"
        r = subprocess.run(
            [sys.executable, "-m", "coopnav.cli", "sweep", "--config",
             str(sweep), "--out", str(out), "--parallel", str(par)],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        outs.append([(out / f).read_bytes() for f in ("runs.csv", "auvs.csv")])
    sweeps_equal = outs[0] == outs[1]
    _report(10, logs_equal and sweeps_equal,
            f"event logs identical={logs_equal}, "
            f"sweep parallelism 1 vs 8 identical={sweeps_equal}")


def min_formation_radius(L: float, r_hf: float) -> float | None:
    """Closed-form ring radius from which an on-axis ASV reaches its near corners.

    Returns ``L/2 - sqrt(r_hf^2 - (L/2)^2)``, or None when ``r_hf < L/2`` and
    the closed form does not apply.  A non-positive value means any ring
    radius satisfies the corner constraint.
    """
    half = L / 2.0
    if r_hf < half:
        return None
    return half - math.sqrt(r_hf * r_hf - half * half)


def test_min_formation_radius_values():
    assert min_formation_radius(60.0, 50.0) == pytest.approx(-10.0, abs=1e-9)
    assert min_formation_radius(100.0, 50.0) == pytest.approx(50.0, abs=1e-9)
    assert min_formation_radius(140.0, 50.0) is None


def test_degenerate_ring_closed_form_equivalence():
    # for the degenerate single-anchor case the closed form exactly separates
    # full coverage from partial coverage
    rng = np.random.default_rng(5)
    for _ in range(40):
        L = float(rng.uniform(20, 140))
        r_hf = float(rng.uniform(L / 2, 1.5 * L))
        worst, _ = worst_point(asv_positions(1, r_hf, 0.0), L)
        assert (min_formation_radius(L, r_hf) <= 0) == (worst <= r_hf)


def test_criterion_11_coverage_oracle_vs_closed_form():
    """KNOWN FAIL for 2- and 3-anchor rings: the closed-form minimum ring
    radius guarantees that an on-axis anchor reaches its nearest survey
    corners, which is necessary but not sufficient for covering the whole
    square.  Counterexample: two anchors at (+-50, 0) with a 50 m range on a
    100 m square satisfy the constraint, yet the midpoint of the top edge is
    70.7 m from both.  The exact worst point of each ring, its farthest
    point of the square from every anchor, exposes such counterexamples.
    The degenerate single-anchor case, where the constraint reduces to
    range >= L/sqrt(2), holds exactly.
    """
    rng = np.random.default_rng(1111)
    draws = 0
    failures = []
    checked = {1: 0, 2: 0, 3: 0}
    while draws < 100:
        L = float(rng.uniform(40.0, 140.0))
        r_hf = float(rng.uniform(L / 2.0, 1.2 * L))
        mfr = min_formation_radius(L, r_hf)
        r_f = max(0.0, mfr) + float(rng.uniform(0.0, 10.0))
        draws += 1
        for n in (1, 2, 3):
            eff_rf = 0.0 if n == 1 else r_f
            if eff_rf < max(0.0, mfr):      # constraint filter (n=1 degenerate)
                continue
            # the ring of radius eff_rf at angle 0; one ASV sits at the origin
            worst, _ = worst_point(asv_positions(n, eff_rf, 0.0), L)
            checked[n] += 1
            if worst > r_hf:
                failures.append((n, round(L, 1), round(r_hf, 1),
                                 round(eff_rf, 1), round(worst, 2)))
    detail = (f"checked n=1:{checked[1]} n=2:{checked[2]} n=3:{checked[3]}; "
              f"{len(failures)} uncovered instances")
    if failures:
        detail += f", first: (n, L, r_hf, r_f, worst m)={failures[0]}"
    _report(11, not failures, detail)
