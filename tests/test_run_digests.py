"""Pinned digests of short missions on the option branches of ``run()``.

The benchmark's golden digests cover its three workloads only; these cases
take the branches those never do (tracing, steering on truth, no acoustic
layer, last-fix conflict graphs, per-group contention, ASV jitter with
several anchors, a plan that finishes before the timeout).  Each case pins
the sha1 of the event log, of the trace log and of the full-``repr``
numeric report, so any change in the bits a run produces shows here.  A
change that alters the simulation on purpose re-records them and says why.
"""

import dataclasses
import hashlib

import pytest

from coopnav.engine import SimConfig, run

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
}

# (event log, trace log, numeric report) sha1 per case
PINNED = {
    "conflict_last_fix": ("7ab25360a14611503c58fe560f446dc81a8b6758",
                          "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                          "c4bede9721313163b667c3787295ca65a003598d"),
    "contention_group": ("d6fc16499fbd335eae4e4e0d2b0c37408cbacf65",
                         "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                         "39678e2169a8d594cf57e05c6415506bf9834be9"),
    "defaults": ("c3de80e4e19e72bfd1847d8410705508c6df647b",
                 "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                 "fca5adf862c6c88accd7bd0cb88a29e55ee7e5ad"),
    "early_finish": ("3cf30d80c08f950bca1cd459c24dd913e8635e35",
                     "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                     "ca8f2df2f31a984cee6b7655012f744e2fb26375"),
    "guidance_on_truth": ("59edb92cb1087698376ea58351b16b54ae5b4e7d",
                          "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                          "f7fb204599a3b2ad386d63306c70dbf7323db142"),
    "jitter_multi_asv": ("3171f614012acff1c077a8e2d6b94fe5307d7538",
                         "adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                         "e8c3908ecda2570912be021b0f9a7e6837607730"),
    "trace": ("818be2bb8000de069cf2831ef5051e9c887117a1",
              "b5ee7049f685c42e279db6a815e92c737a5fd061",
              "b2d247926fba69af20593ab72c93ccd8c4e34653"),
    "usbl_disabled": ("adc83b19e793491b1c6ea0fd8b46cd9f32e592fc",
                      "a66853232f1ee65546bf445b9e1f5d7610fdff01",
                      "e43fc1c8d68f446910d472ac318f66100e13fbd1"),
}


def digests(rep) -> tuple[str, str, str]:
    def sha1(lines: list[str]) -> str:
        return hashlib.sha1(("\n".join(lines) + "\n").encode()).hexdigest()

    numeric = []
    for name in REPORT_FIELDS:
        value = getattr(rep, name)
        if name == "per_auv":
            value = [dataclasses.asdict(a) for a in value]
        numeric.append((name, value))
    return (sha1(rep.event_log), sha1(rep.trace_log),
            hashlib.sha1(repr(numeric).encode()).hexdigest())


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_digest_pinned(case):
    assert digests(run(SimConfig(**CASES[case]))) == PINNED[case]
