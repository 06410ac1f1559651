
import dataclasses
from collections import Counter

import numpy as np
import pytest

from coopnav import engine, nav
from coopnav.acoustic import UsblNoiseConfig
from coopnav.engine import (RNG_BLOCK, AsvFleet, NoiseStream, SimConfig, derive_rng, run,
                            uniform_stream)
from coopnav.formation import asv_positions
from coopnav.mission import GuidanceConfig
from coopnav.protocol import BCAST, DELIVER, PING, TimingConfig
from coopnav.schema import hash_items


def short_cfg(**kw):
    base = dict(L=60.0, n_auv=4, n_asv=1, duration=40.0, seed=9)
    base.update(kw)
    return SimConfig(**base)


def test_run_is_deterministic():
    a = run(short_cfg())
    b = run(short_cfg())
    assert a.event_log == b.event_log
    assert [m.mean_cte for m in a.per_auv] == [m.mean_cte for m in b.per_auv]
    assert a.latency_mean_s == b.latency_mean_s


def test_different_seeds_differ():
    a = run(short_cfg(seed=1))
    b = run(short_cfg(seed=2))
    assert a.event_log != b.event_log


def test_zero_duration_empty_report():
    rep = run(short_cfg(duration=0.0))
    assert rep.ticks == 0
    assert rep.total_applied == 0
    assert all(m.fix_count == 0 for m in rep.per_auv)
    assert rep.event_log == []


def test_baseline_full_coverage():
    rep = run(short_cfg())
    assert all(m.coverage == 1.0 for m in rep.per_auv)


def test_allocation_fractions_sum_to_one():
    rep = run(short_cfg())
    assert rep.total_applied > 0
    assert sum(m.allocation for m in rep.per_auv) == pytest.approx(1.0, abs=1e-9)


def test_outer_strip_starvation_at_large_scale():
    rep = run(SimConfig(L=140.0, n_auv=3, n_asv=1, duration=120.0, seed=0))
    outer = rep.per_auv[0]
    inner = rep.per_auv[1]
    assert outer.coverage < inner.coverage / 2


def test_causality_no_delivery_before_broadcast():
    rep = run(short_cfg())
    first_bcast = next(rep.events.records(BCAST))[0]
    deliveries = [tick for tick, _, _ in rep.events.records(DELIVER)]
    assert deliveries and min(deliveries) >= first_bcast


def test_imu_unbounded_fused_bounded():
    rep = run(short_cfg(duration=120.0))
    for m in rep.per_auv:
        assert m.final_imu_err > 2.0          # bias alone gives ~10 m at 120 s
        assert m.max_fused_err < 2.0


def test_trace_flag_emits_traces():
    rep = run(short_cfg(duration=2.0, trace=True))
    assert len(rep.trace_log) == rep.ticks * 4
    assert rep.trace_log[0].startswith("TRACE{tick=0, auv=0")
    assert run(short_cfg(duration=2.0)).trace_log == []


def test_truth_decoupled_from_usbl_when_steering_on_truth():
    # with guidance on truth, disabling the acoustic layer entirely must not
    # move the vehicles
    a = run(short_cfg(duration=30.0, guidance_on_truth=True, usbl_enabled=True,
                      trace=True))
    b = run(short_cfg(duration=30.0, guidance_on_truth=True, usbl_enabled=False,
                      trace=True))
    # the tick, AUV and true (x, y, z) columns of the 12-number trace rows
    assert [a.trace[c::12] for c in range(5)] == [b.trace[c::12] for c in range(5)]
    assert len(a.trace) == len(b.trace) > 0
    assert a.total_applied > 0 and b.total_applied == 0


def test_conflict_source_last_fix_runs():
    rep = run(short_cfg(duration=20.0, conflict_source="last_fix"))
    assert rep.total_applied > 0


def test_group_contention_runs():
    rep = run(short_cfg(duration=20.0, contention="group"))
    assert rep.total_applied > 0


def test_asv_jitter_runs_deterministically():
    a = run(short_cfg(duration=10.0, asv_jitter_std=0.5))
    b = run(short_cfg(duration=10.0, asv_jitter_std=0.5))
    assert a.event_log == b.event_log


def test_config_validation_messages_name_fields():
    with pytest.raises(ValueError, match="n_asv"):
        SimConfig(n_asv=0).validate()
    with pytest.raises(ValueError, match="gamma"):
        SimConfig(gamma=1.5).validate()
    with pytest.raises(ValueError, match="conflict_source"):
        SimConfig(conflict_source="psychic").validate()


@pytest.mark.parametrize("spacing", [0.0, -5.0, float("nan")])
def test_run_rejects_a_track_spacing_that_is_not_positive(spacing):
    # unvalidated, 0 divides by zero and -5 indexes out of range while the
    # lawnmower is planned
    with pytest.raises(ValueError, match="track_spacing must be > 0"):
        run(short_cfg(track_spacing=spacing))


def test_run_rejects_a_track_spacing_wider_than_the_strip():
    # L = 60 and four AUVs give 15 m strips; unvalidated, planning the
    # lawnmower fails after the run has started
    with pytest.raises(ValueError, match="track_spacing 40.0 exceeds the strip height"):
        run(short_cfg(track_spacing=40.0))
    assert run(short_cfg(duration=1.0, track_spacing=15.0)).ticks == 30


def test_run_rejects_usbl_noise_without_range_or_azimuth_spread():
    # sigma_r = sigma_theta = 0 gives every fix variance 0, which fusion
    # cannot weight; either one alone is fine
    zero = UsblNoiseConfig(sigma_r=0.0, sigma_theta=0.0)
    with pytest.raises(ValueError, match="sigma_r and sigma_theta"):
        run(short_cfg(noise=zero))
    for noise in (UsblNoiseConfig(sigma_r=0.0), UsblNoiseConfig(sigma_theta=0.0)):
        assert run(short_cfg(duration=5.0, noise=noise)).total_applied > 0


def test_default_config_hash_is_pinned():
    # the hash identifies runs in sweep outputs; it changes only on purpose
    assert SimConfig().config_hash() == "e2fd90d2b6ae"
    # a 300 s L=40 cell of 3 AUVs and 4 jittered ASVs, as an INI gives it
    assert SimConfig(L=40.0, n_auv=3, n_asv=4, r_hf=30.0, asv_jitter_std=0.5,
                     depth=5.0).config_hash() == "94f4d2a6b79b"
    # the cells of a 2x2x2 sweep of 60 s missions
    cells = {SimConfig(L=L, n_asv=n_asv, n_auv=n_auv, duration=60.0).config_hash()
             for L in (60.0, 140.0) for n_asv in (1, 3) for n_auv in (4, 6)}
    assert cells == {"1136c40e898d", "330408614de2", "af3ae89b8dc1", "c53b93a369ae",
                     "dae13bb4aaf9", "dbc58fb8f1cf", "e4f71f8a67d3", "f5e6b078819c"}


def test_an_int_hashes_as_the_float_of_its_value():
    # a config built in Python hashes as its INI, which gives floats, does
    assert SimConfig(L=60).config_hash() == "e2fd90d2b6ae"
    assert (SimConfig(duration=20, seed=3).config_hash()
            == SimConfig(duration=20.0, seed=3).config_hash() == "5a2e12d6ab7a")
    assert SimConfig(timing=TimingConfig(r_dl=2000)).config_hash() == "e2fd90d2b6ae"
    for field, whole in (("bias", (0, 1)), ("track_spacing", 5)):
        floats = tuple(map(float, whole)) if isinstance(whole, tuple) else float(whole)
        assert (SimConfig(**{field: whole}).config_hash()
                == SimConfig(**{field: floats}).config_hash())
    # a float's sign still counts
    assert SimConfig(alpha0=-0.0).config_hash() != SimConfig().config_hash()


def int_fields():
    """(nested config or None, field name, INI key) of every int-typed
    field, from the field declarations."""
    cfg, out = SimConfig(), []
    for f in dataclasses.fields(cfg):
        v = getattr(cfg, f.name)
        for owner, g in ([(f.name, g) for g in dataclasses.fields(v)]
                         if dataclasses.is_dataclass(v) else [(None, f)]):
            if g.type == "int":
                out.append((owner, g.name, (g.metadata["keys"] or (g.name,))[0]))
    return out


INT_FIELDS = int_fields()


def test_int_fields_are_the_declared_ints():
    assert [name for _, name, _ in INT_FIELDS] == ["n_auv", "n_asv", "f_t", "seed",
                                                   "n_hdr", "b_fix"]


@pytest.mark.parametrize("owner, name, key", INT_FIELDS, ids=[n for _, n, _ in INT_FIELDS])
def test_an_int_field_takes_integers_only(owner, name, key):
    # a float is rejected naming the key, an integral one too; numpy's
    # integers are integers, and hash as the int of their value does
    cfg = SimConfig()
    obj = getattr(cfg, owner) if owner else cfg
    default = getattr(obj, name)
    for value in (float(default), default + 0.5):
        setattr(obj, name, value)
        with pytest.raises(ValueError, match=rf"\b{key}\b.* must be an integer"):
            cfg.validate()
    setattr(obj, name, np.int64(default))
    cfg.validate()
    assert hash_items(cfg) == hash_items(SimConfig())


def test_an_integral_float_hashes_as_its_int():
    assert (SimConfig(f_t=30.0, duration=5.0).config_hash()
            == SimConfig(f_t=30, duration=5.0).config_hash() == "de0d2d16a008")
    assert SimConfig(n_auv=np.int64(4)).config_hash() == "e2fd90d2b6ae"


def test_deleted_fields_keep_their_hash_entries():
    # noise.r_max and timing.f_t are no fields any more; their former default
    # text is hashed in its sorted place, so no hash moved when they went
    items = hash_items(SimConfig())
    assert [k for k, _ in items] == [
        "L", "n_auv", "n_asv", "alpha0", "duration", "f_t", "r_hf", "delta_b",
        "asv_jitter_std", "depth", "track_spacing", "bias", "sigma", "sigma_z", "gamma",
        "guidance_on_truth", "usbl_enabled", "conflict_source", "contention",
        "noise.c", "noise.r_max", "noise.sigma_phi", "noise.sigma_r", "noise.sigma_theta",
        "timing.b_fix", "timing.f_t", "timing.guard_factor_dl", "timing.guard_factor_ul",
        "timing.max_fix_age_s", "timing.min_slot_factor_dl", "timing.min_slot_factor_ul",
        "timing.n_hdr", "timing.overhead", "timing.r_dl", "timing.r_mf", "timing.t_p",
        "guidance.capture_radius", "guidance.cruise_speed", "guidance.max_yaw_rate"]
    assert {("noise.r_max", "50.0"), ("timing.f_t", "30")} <= set(items)


def test_config_hash_ignores_seed():
    assert short_cfg(seed=1).config_hash() == short_cfg(seed=2).config_hash()
    assert short_cfg(L=61.0).config_hash() != short_cfg().config_hash()


def test_coverage_is_the_share_of_pings_heard(monkeypatch):
    # an AUV's coverage is its heard count on the scheduler over its PING
    # records, and 0.0 for an AUV that never pinged
    made = []

    class Recorded(engine.TdmaScheduler):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(engine, "TdmaScheduler", Recorded)
    rep = run(SimConfig(L=100.0, n_auv=3, n_asv=1, duration=60.0, seed=0))
    sched = made[0]
    pings = Counter(i for _, i, _ in rep.events.records(PING))
    assert [m.coverage for m in rep.per_auv] == [h / pings[i] for i, h in enumerate(sched.heard)]
    assert sched.heard[0] == 0 < pings[0]      # the outer strip is never heard
    assert 0.0 < rep.per_auv[1].coverage < 1.0
    rep = run(short_cfg(duration=5.0, usbl_enabled=False))
    assert len(rep.events) == 0 and made[1].heard == [0] * 4
    assert all(m.coverage == 0.0 for m in rep.per_auv)


def test_no_conflict_graph_without_the_acoustic_layer(monkeypatch):
    # with usbl_enabled = false no round starts, so no round is colored
    def build(masks):
        raise AssertionError("a conflict graph was built")

    monkeypatch.setattr(engine, "build_conflict_graph", build)
    rep = run(short_cfg(duration=5.0, usbl_enabled=False))
    assert rep.ticks == 150 and len(rep.events) == 0


def test_fused_estimate_steps_once_per_tick(monkeypatch):
    # each tick the fused estimate takes one kinematic step: the noisy
    # dead-reckoning step, or a fix's noise-free predict in its place.  A fix
    # delivered on its broadcast tick comes after the full step, and a second
    # fix of one tick after the first one's predict, so each only corrects
    ticks = []   # [dead-reckoning steps, predicts, fixes] per AUV-tick

    def dead_reckon(state, inp, noise, advance_fused=True):
        ticks.append([int(advance_fused), 0, 0])
        state.tick = ticks[-1]
        nav.dead_reckon_step(state, inp, noise, advance_fused)

    def fix(state, f, inp, predict):
        x, y, g = state.p_fused[0], state.p_fused[1], state.gamma
        nav.apply_fix(state, f, inp, predict)
        state.tick[1] += state.p_fused[:2] != [x + g * (f[0] - x), y + g * (f[1] - y)]
        state.tick[2] += 1

    monkeypatch.setattr(engine, "dead_reckon_step", dead_reckon)
    monkeypatch.setattr(engine, "apply_fix", fix)
    # AUV 1 passes under the ASV as the instant downlink broadcasts
    run(SimConfig(L=65.0, n_auv=2, n_asv=1, duration=8.0, seed=1, sigma=0.0,
                  guidance_on_truth=True, timing=TimingConfig(r_dl=1e16),
                  guidance=GuidanceConfig(cruise_speed=30 * 32.5 / 66, max_yaw_rate=50.0)))
    assert [t for t in ticks if t[0] and t[2]] == [[1, 0, 1]]
    assert all(dr + predicts == 1 for dr, predicts, _ in ticks)
    # slots short enough that one AUV's fixes from two groups land together
    ticks.clear()
    run(SimConfig(L=60.0, n_auv=1, n_asv=3, duration=20.0, f_t=50, timing=TimingConfig(
        t_p=0.001, guard_factor_ul=0.01, min_slot_factor_ul=0.01,
        guard_factor_dl=0.01, min_slot_factor_dl=0.01, r_dl=1e9)))
    assert sum(fixes == 2 for _, _, fixes in ticks) == 36
    assert all(dr + predicts == 1 for dr, predicts, _ in ticks)


def test_derive_rng_streams():
    a1 = derive_rng(7, "imu/0").normal(size=100)
    a2 = derive_rng(7, "imu/0").normal(size=100)
    assert np.array_equal(a1, a2)
    b = derive_rng(7, "imu/1").normal(size=100)
    assert not np.array_equal(a1, b)
    c = derive_rng(8, "imu/0").normal(size=100)
    assert not np.array_equal(a1, c)


def test_derive_rng_streams_uncorrelated():
    x = derive_rng(3, "imu/0").normal(size=10_000)
    y = derive_rng(3, "imu/1").normal(size=10_000)
    assert abs(np.corrcoef(x, y)[0, 1]) < 0.05


def test_mission_ends_when_plans_exhausted():
    # tiny survey finishes well before the timeout
    rep = run(SimConfig(L=12.0, n_auv=1, n_asv=1, duration=300.0, seed=0,
                        track_spacing=12.0))
    assert rep.ticks < 300 * 30
    assert rep.duration_s < 300.0


def test_buffered_streams_equal_scalar_draws():
    # the usbl streams serve (range, azimuth, elevation) triples; the loss
    # streams draw uniforms
    noise = UsblNoiseConfig()
    scales = (noise.sigma_r, noise.sigma_theta, noise.sigma_phi)
    gen_n, gen_u = derive_rng(5, "usbl/0/1"), derive_rng(5, "loss/0/1")
    before = (gen_n.bit_generator.state, gen_u.bit_generator.state)
    usbl, uniform = NoiseStream(gen_n, scales), uniform_stream(gen_u)
    assert (gen_n.bit_generator.state, gen_u.bit_generator.state) == before
    ref_n, ref_u = derive_rng(5, "usbl/0/1"), derive_rng(5, "loss/0/1")
    for _ in range(3 * RNG_BLOCK + 5):   # three refills and part of a fourth
        assert next(usbl) == tuple(ref_n.normal(0.0, sc) for sc in scales)
        assert next(uniform) == ref_u.uniform()
    assert gen_n.bit_generator.state != before[0]


def test_asv_fleet_serves_each_ticks_own_jitter_draw():
    # sparse ticks across five blocks: each tick's anchors are the stations
    # plus that tick's scalar draw, every tick drawing, read or not
    cfg = SimConfig(n_asv=3, asv_jitter_std=0.5, seed=6)
    fleet, ref = AsvFleet(cfg), derive_rng(6, "asv_jitter")
    assert fleet.stations == asv_positions(3, 50.0, 0.0).tolist()
    read = {0, 5, 127, 128, 600}
    for k in range(max(read) + 1):
        draw = ref.normal(0.0, 0.5, size=(3, 2)).tolist()
        if k in read:
            assert fleet.at(k) == [[x + jx, y + jy] for (x, y), (jx, jy)
                                   in zip(fleet.stations, draw)]
    still = AsvFleet(SimConfig(n_asv=3, seed=6))
    assert still.at(0) is still.at(600) is still.stations == fleet.stations
