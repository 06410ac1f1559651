"""Pinned digests of short missions on the option branches of ``run()``.

The benchmark's golden digests cover its three workloads only; these cases
take the branches those never do (tracing, steering on truth, no acoustic
layer, last-fix conflict graphs, per-group contention, ASV jitter with
several anchors, a plan that finishes before the timeout) and the noise
branches (zero IMU, depth or USBL azimuth noise, a signed-zero bias, an
odd tick rate), a fix delivered on the tick of its broadcast and two fixes
in flight at once.  Each case pins the sha1 of the event log, of the trace
log, of the full-``repr`` numeric report and of its ``auvs.csv`` rows, so
any change in the bits a run produces shows here.  A change that alters
the simulation on purpose re-records them and says why.
"""

import dataclasses
import hashlib
import itertools
import math
import re
import statistics
from array import array

import pytest

from coopnav import cli, engine
from coopnav.acoustic import UsblNoiseConfig
from coopnav.engine import SimConfig, run
from coopnav.mission import GuidanceConfig
from coopnav.protocol import (BCAST, DELIVER, EVENT_FORMATS, EXPIRED, OUT_OF_MF_RANGE,
                              SUPERSEDED, TimingConfig)

REPORT_FIELDS = ("seed", "ticks", "duration_s", "per_auv", "total_applied",
                 "applied_rate_hz", "latency_mean_s", "latency_p95_s",
                 "dropped", "max_innovation", "excursion_ticks")

CASES = {
    "defaults": dict(duration=60.0, seed=3),
    "trace": dict(duration=20.0, seed=4, trace=True),
    "guidance_on_truth": dict(duration=60.0, seed=5, guidance_on_truth=True),
    "usbl_disabled": dict(duration=60.0, seed=6, usbl_enabled=False, trace=True),
    "conflict_last_fix": dict(L=140.0, n_auv=6, n_asv=3, duration=60.0, seed=7,
                              conflict_source="last_fix"),
    "contention_group": dict(L=140.0, n_auv=6, n_asv=3, duration=60.0, seed=8,
                             contention="group"),
    "jitter_multi_asv": dict(L=40.0, n_auv=3, n_asv=3, r_hf=30.0, depth=5.0,
                             duration=60.0, seed=9, asv_jitter_std=0.5),
    "early_finish": dict(L=12.0, n_auv=1, n_asv=1, duration=60.0, seed=0,
                         track_spacing=12.0),
    # the noise branches: each case traces, so the depth estimate shows too
    "sigma_zero": dict(duration=30.0, seed=10, sigma=0.0, trace=True),
    "sigma_z_zero": dict(duration=30.0, seed=11, sigma_z=0.0, trace=True),
    "bias_signed_zero": dict(duration=30.0, seed=12, bias=(-0.0, 0.1), trace=True),
    "f_t_7": dict(duration=60.0, seed=13, f_t=7, trace=True),
    "usbl_theta_zero": dict(L=40.0, n_auv=3, n_asv=3, r_hf=30.0, duration=30.0,
                            seed=14, noise=UsblNoiseConfig(sigma_theta=0.0),
                            trace=True),
    # a broadcast delivered on its own tick: no airtime to speak of, and AUV 1
    # directly below the ASV at the tick-65 broadcast, so the fix lands
    # before that tick's metrics
    "same_tick_delivery": dict(L=65.0, n_auv=2, n_asv=1, duration=8.0, seed=1,
                               sigma=0.0, guidance_on_truth=True, trace=True,
                               timing=TimingConfig(r_dl=1e16),
                               guidance=GuidanceConfig(cruise_speed=30 * 32.5 / 66,
                                                       max_yaw_rate=50.0)),
    # short downlink slots: a second fix is broadcast while the first is
    # still on its way, so the delivery queue holds two
    "two_in_flight": dict(duration=60.0, seed=10,
                          timing=TimingConfig(guard_factor_dl=0.1, min_slot_factor_dl=0.1)),
}

# (event log, trace log, numeric report, auvs.csv rows) sha1 per case
PINNED = {
    "conflict_last_fix": ("7ab25360a14611503c58fe560f446dc81a8b6758",
                          "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                          "c4bede9721313163b667c3787295ca65a003598d",
                          "24c6b96ccd0cae133ff264e661fe3028a6146a61"),
    "contention_group": ("d6fc16499fbd335eae4e4e0d2b0c37408cbacf65",
                         "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                         "39678e2169a8d594cf57e05c6415506bf9834be9",
                         "9190ae0441d16c06ee1a6173c929238f06129d66"),
    "defaults": ("c3de80e4e19e72bfd1847d8410705508c6df647b",
                 "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                 "fca5adf862c6c88accd7bd0cb88a29e55ee7e5ad",
                 "5483024701a79e4467f2f1ffe08508cb09673cb2"),
    "early_finish": ("3cf30d80c08f950bca1cd459c24dd913e8635e35",
                     "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                     "ca8f2df2f31a984cee6b7655012f744e2fb26375",
                     "1634e21b181c52cd9c9a07588eddcbbd0b3d5cda"),
    "guidance_on_truth": ("59edb92cb1087698376ea58351b16b54ae5b4e7d",
                          "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                          "f7fb204599a3b2ad386d63306c70dbf7323db142",
                          "12c0aafba1e246f96184fc02f749c6c4bbe720a0"),
    "jitter_multi_asv": ("3171f614012acff1c077a8e2d6b94fe5307d7538",
                         "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                         "e8c3908ecda2570912be021b0f9a7e6837607730",
                         "998dc812f42d1cff4f2f355568f3f4eeff53cbf9"),
    "trace": ("818be2bb8000de069cf2831ef5051e9c887117a1",
              "b5ee7049f685c42e279db6a815e92c737a5fd061",
              "b2d247926fba69af20593ab72c93ccd8c4e34653",
              "a574e9e8ebe6b6cb59967d06e8df3d2c566a6642"),
    "usbl_disabled": ("adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                      "a66853232f1ee65546bf445b9e1f5d7610fdff01",
                      "e43fc1c8d68f446910d472ac318f66100e13fbd1",
                      "2ecdb4ab5b6bfba0da1e22802cde3ede92b8eeff"),
    "sigma_zero": ("5855c6c1872e32b27c02ac16d87bcfc791495c72",
                   "38f888d8cb2945dcac8a90252027c9148b06cad8",
                   "7b3a17e3974a101fedc745ff890e4df104baee0d",
                   "156d0601076d790b86b7d131f94d48d11b2b2a20"),
    "sigma_z_zero": ("7cd25e1cc3abb4e279ec74486b140d6d6bb528f1",
                     "5393ef8457126a816d0a5ca859dd85f8ed8f3835",
                     "9cddae3e56ca98b618d3710edeac8ebc68576f1d",
                     "2c6524cf46475775c91afc90038fd2056179234c"),
    "bias_signed_zero": ("201d80bc8199beff473f8c72c81934bbdd07033a",
                         "63095582591657ad03044eb24b7bd8fa1d0a8e0c",
                         "b5490f34744966c5bcbde95ebc61002a516a9a55",
                         "501f3a237a8330aefac71781367504d959c8952d"),
    "f_t_7": ("6b3cb9df6c4648982d8ca3e4c5a083f800f6396b",
              "2e4ea535eca1c66cb29bc04c13ee74fc0f440de1",
              "707d8317367e401812b668e2350d91e42410f1bc",
              "1bf534ae20f5cc437f328ed23a9e1fdd42b96ba4"),
    "usbl_theta_zero": ("2beca3d572313409e0a9d74d3d8a12fcf2d72328",
                        "a0871ed0765c1107f27502f148408043824d13b3",
                        "8fe0a956007a50dea2ccf8b667b888937c2bbd10",
                        "9f4f36eb568f980a20b3f5b120d3d28b9619d22c"),
    "same_tick_delivery": ("fcf4bcafb0e9309b899dc3fed870a6b25d616bdd",
                           "a2d5d21000f83eca61bcfedaee8a7fd5f7a27ab4",
                           "0b0b49297dcc75595cf0355815d9c7bc0c1999e0",
                           "d1ba33f15f0f85347af01bd411c3b06583aa6911"),
    "two_in_flight": ("d59f1a4e339d597e22028b468da210c97c932218",
                      "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                      "58a468adfd2c92e540f1c27550e733d3645a403e",
                      "3bf3f444cb02b6764cef7f791f8381268636554f"),
}


def digests(cfg: SimConfig) -> tuple[str, str, str, str]:
    """The sha1s of a run of ``cfg``: its event log, trace log, numeric
    report and ``auvs.csv`` rows, each row's cells in name order."""
    def sha1(lines: list[str]) -> str:
        return hashlib.sha1(("\n".join(lines) + "\n").encode()).hexdigest()

    rep = run(cfg)
    numeric = []
    for name in REPORT_FIELDS:
        value = getattr(rep, name)
        if name == "per_auv":
            value = [dataclasses.asdict(a) for a in value]
        numeric.append((name, value))
    rows = [sorted(row.items()) for row in cli.auv_rows(cfg, rep)]
    return (sha1(rep.event_log), sha1(rep.trace_log),
            hashlib.sha1(repr(numeric).encode()).hexdigest(),
            hashlib.sha1(repr(rows).encode()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_digest_pinned(case):
    assert digests(SimConfig(**CASES[case])) == PINNED[case]


def test_digests_hold_under_a_compensated_sum(monkeypatch):
    # from Python 3.12 on, sum() of floats is compensated, as math.fsum is;
    # the report's means sum left to right, so no bit rests on sum()
    monkeypatch.setattr(engine, "sum", math.fsum, raising=False)
    assert digests(SimConfig(**CASES["defaults"])) == PINNED["defaults"]


def test_two_fixes_in_flight():
    # from the records: +1 per broadcast, -1 per fix delivered or out of MF
    # range, a tick's deliveries counted before its broadcasts
    events = run(SimConfig(**CASES["two_in_flight"])).events
    steps = sorted([(tick, 1) for tick, *_ in events.records(BCAST)] +
                   [(tick, -1) for kind in (DELIVER, OUT_OF_MF_RANGE)
                    for tick, *_ in events.records(kind)])
    assert max(itertools.accumulate(step for _, step in steps)) == 2


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_reads_the_records(case):
    # each kind's records render to that kind's lines of the log, in order,
    # and the report's fix and drop figures are what the records hold; a
    # finished report keeps one column per field, doubles for a %.6f field
    # and unsigned ints for a %d one
    rep = run(SimConfig(**CASES[case]))
    events, log = rep.events, rep.event_log
    for kind, ((template, _), columns) in enumerate(zip(EVENT_FORMATS, events.stores)):
        specs = re.findall(r"%(d|\.6f)", template)
        assert len(columns) == len(specs)
        assert all(isinstance(col, array) and len(col) == events.kinds.count(kind) and
                   col.typecode in ("d" if spec == ".6f" else "BHIQ")
                   for col, spec in zip(columns, specs))
    assert len(events) == len(log)
    for kind, (template, _) in enumerate(EVENT_FORMATS):
        assert [template % r for r in events.records(kind)] == [
            line for k, line in zip(events.kinds, log) if k == kind]
    delivered = list(events.records(DELIVER))
    assert rep.total_applied == len(delivered)
    assert [a.fix_count for a in rep.per_auv] == [
        sum(auv == i for _, auv, _ in delivered) for i in range(len(rep.per_auv))]
    lats = [lat for _, _, lat in delivered]
    assert rep.latency_mean_s == (pytest.approx(statistics.fmean(lats), rel=1e-12)
                                  if lats else 0.0)
    assert rep.dropped == {reason: len(list(events.records(kind))) for reason, kind in (
        ("superseded", SUPERSEDED), ("expired", EXPIRED), ("out_of_mf_range", OUT_OF_MF_RANGE))}


@pytest.mark.parametrize("kw", [
    dict(),
    dict(L=40.0, n_auv=3, n_asv=4, r_hf=30.0, depth=5.0, asv_jitter_std=0.5),
], ids=["nominal", "multi_anchor"])
def test_depth_noise_reaches_only_the_trace(kw):
    # the depth estimate is read by the trace alone: any sigma_z gives the
    # same events and numeric report, and only the trace tells them apart
    cfgs = [SimConfig(duration=60.0, seed=2, sigma_z=s, trace=True, **kw)
            for s in (0.0, 0.05, 3.0)]
    got = [digests(cfg) for cfg in cfgs]
    assert all((e, r) == (got[0][0], got[0][2]) for e, _, r, _ in got)
    assert len({t for _, t, _, _ in got}) == 3
    assert run(cfgs[0]).total_applied > 0
