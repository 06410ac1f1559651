#!/usr/bin/env python3
"""Differential check of two coopnav source trees on random missions.

    python3 tools/diffcheck.py PARENT_SRC CHANGE_SRC --n 160 [--seed 0]

PARENT_SRC and CHANGE_SRC are ``src/`` directories of two checkouts.  Each
tree runs the same ``--n`` random ``SimConfig`` missions in a subprocess of
its own that imports coopnav from that tree alone.  Per mission the check
compares the sha1 of the event log, of the trace log and of the full-``repr``
numeric report (as ``tests/test_run_digests.py`` computes them), or the type
and text of the exception the mission raised.  It also compares the exit
code and stdout of ``coopnav check-coverage`` on an INI holding the
mission's L, n_asv, r_hf, delta_b and alpha0.  It prints each mismatch and
a summary, and exits 0 when every mission is identical, else 1.

The random missions cover the survey scale L, n_auv, n_asv, tick rates
f_t in {7, 10, 30, 50}, zero IMU and depth noise, a signed-zero bias, zero
USBL range, azimuth or elevation noise, the sound speed, ASV
station-keeping jitter, both contention modes, both conflict sources,
tracing, steering on truth, the acoustic layer switched off, the protocol's
guard and slot factors, header and fix sizes, MF range and fix age,
downlink bitrates up to 1e12 bit/s, and the guidance's cruise speed,
capture radius and yaw-rate limit.  They leave out what
``SimConfig.validate`` rejects: a track spacing that is not positive or is
wider than a strip, and USBL noise with both ``sigma_r`` and
``sigma_theta`` zero, which the parent may accept and fail on later.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# the report fields test_run_digests.py hashes at full repr precision
REPORT_FIELDS = ("seed", "ticks", "duration_s", "per_auv", "total_applied",
                 "applied_rate_hz", "latency_mean_s", "latency_p95_s",
                 "dropped", "max_innovation", "excursion_ticks")


def random_spec(rng: random.Random) -> dict:
    """One mission as JSON-able SimConfig keyword arguments."""
    sigma_r, sigma_theta = rng.choice([(0.1, math.radians(0.5)), (0.0, math.radians(0.5)),
                                       (0.1, 0.0), (0.3, math.radians(2.0))])
    return dict(
        L=rng.choice([20.0, 40.0, 60.0, 65.0, 100.0, 140.0, rng.uniform(15.0, 160.0)]),
        n_auv=rng.randint(1, 6),
        n_asv=rng.randint(1, 4),
        alpha0=rng.choice([0.0, rng.uniform(0.0, math.pi)]),
        duration=rng.choice([5.0, 30.0, rng.uniform(1.0, 120.0)]),
        f_t=rng.choice([7, 10, 30, 50]),
        seed=rng.randrange(2**32),
        r_hf=rng.choice([30.0, 50.0, rng.uniform(20.0, 80.0)]),
        delta_b=rng.choice([0.0, 0.0, 3.0]),
        asv_jitter_std=rng.choice([0.0, 0.0, 0.5]),
        depth=rng.choice([5.0, 10.0, 20.0]),
        bias=rng.choice([(0.06, 0.06), (-0.0, 0.1), (0.0, -0.0), (-0.03, 0.02)]),
        sigma=rng.choice([0.027, 0.027, 0.0, 0.1]),
        sigma_z=rng.choice([0.05, 0.05, 0.0]),
        guidance_on_truth=rng.random() < 0.15,
        usbl_enabled=rng.random() < 0.9,
        conflict_source=rng.choice(["truth", "last_fix"]),
        contention=rng.choice(["fleet", "group"]),
        trace=rng.random() < 0.25,
        noise=dict(sigma_r=sigma_r, sigma_theta=sigma_theta,
                   sigma_phi=rng.choice([math.radians(0.5), 0.0]),
                   c=rng.choice([1500.0, 1500.0, 1450.0, rng.uniform(1400.0, 1600.0)])),
        timing=dict(guard_factor_ul=rng.choice([0.5, 0.5, 0.25, 1.0]),
                    min_slot_factor_ul=rng.choice([2.5, 2.5, 1.0, 4.0]),
                    guard_factor_dl=rng.choice([1.25, 1.25, 0.5, 2.0]),
                    min_slot_factor_dl=rng.choice([10.0, 10.0, 4.0, 15.0]),
                    r_dl=rng.choice([2000.0, 2000.0, 1e5, 1e12]),
                    n_hdr=rng.choice([8, 8, 1, 32]),
                    b_fix=rng.choice([16, 16, 4, 64]),
                    r_mf=rng.choice([100.0, 100.0, 40.0, 200.0]),
                    max_fix_age_s=rng.choice([0.30, 0.30, 1.0, 0.05])),
        guidance=dict(cruise_speed=rng.choice([0.65, 0.65, 0.3, 1.5]),
                      capture_radius=rng.choice([2.0, 2.0, 0.5, 5.0]),
                      max_yaw_rate=rng.choice([0.5, 0.5, 0.2, 2.0])),
    )


def worker(src: str) -> None:
    """Run the JSON list of specs on stdin with coopnav from ``src``; print
    one [mission result, check-coverage result] pair per spec as a JSON list."""
    sys.path.insert(0, src)
    import dataclasses
    import hashlib

    import coopnav
    from coopnav import cli
    from coopnav.acoustic import UsblNoiseConfig
    from coopnav.engine import SimConfig, run
    from coopnav.mission import GuidanceConfig
    from coopnav.protocol import TimingConfig

    if Path(coopnav.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"imported coopnav from {coopnav.__file__}, not from {src}")

    def sha1(lines) -> str:
        return hashlib.sha1(("\n".join(lines) + "\n").encode()).hexdigest()

    def coverage(spec: dict, ini: Path) -> str:
        """check-coverage's exit code and stdout lines on the spec's formation."""
        ini.write_text(f"[sim]\nl = {spec['L']!r}\nn_asv = {spec['n_asv']}\n"
                       f"alpha0_deg = {math.degrees(spec['alpha0'])!r}\n"
                       f"[formation]\nr_hf = {spec['r_hf']!r}\n"
                       f"delta_b = {spec['delta_b']!r}\n")
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(["check-coverage", "--config", str(ini)])
        return " | ".join([f"exit {code}"] + text.getvalue().splitlines())

    specs = json.load(sys.stdin)
    with tempfile.TemporaryDirectory() as tmp:
        covered = [coverage(spec, Path(tmp) / "formation.ini") for spec in specs]
    out = []
    for spec, checked in zip(specs, covered):
        spec = dict(spec, bias=tuple(spec["bias"]),
                    noise=UsblNoiseConfig(**spec["noise"]),
                    timing=TimingConfig(**spec["timing"]),
                    guidance=GuidanceConfig(**spec["guidance"]))
        try:
            rep = run(SimConfig(**spec))
        except Exception as exc:   # a mission's failure is a result to compare
            out.append([f"raised {type(exc).__name__}: {exc}", checked])
            continue
        numeric = [(name, [dataclasses.asdict(a) for a in rep.per_auv]
                    if name == "per_auv" else getattr(rep, name))
                   for name in REPORT_FIELDS]
        out.append([" ".join((sha1(rep.event_log), sha1(rep.trace_log),
                              hashlib.sha1(repr(numeric).encode()).hexdigest())),
                    checked])
    json.dump(out, sys.stdout)


def run_tree(src: str, specs: list[dict]) -> list[list[str]]:
    proc = subprocess.run([sys.executable, __file__, "--worker", src],
                          input=json.dumps(specs), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"worker for {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src", nargs="?")
    p.add_argument("change_src", nargs="?")
    p.add_argument("--n", type=int, default=160, help="missions to compare")
    p.add_argument("--seed", type=int, default=0, help="seed of the random missions")
    p.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker)
        return 0
    if not (args.parent_src and args.change_src):
        p.error("PARENT_SRC and CHANGE_SRC are required")
    rng = random.Random(args.seed)
    specs = [random_spec(rng) for _ in range(args.n)]
    with ThreadPoolExecutor(2) as pool:
        parent, change = pool.map(lambda src: run_tree(src, specs),
                                  (args.parent_src, args.change_src))
    same = 0
    for n, (spec, a, b) in enumerate(zip(specs, parent, change)):
        same += a == b
        for what, x, y in zip(("", " check-coverage"), a, b):
            if x != y:
                print(f"mission {n}{what} differs: {json.dumps(spec)}\n"
                      f"  parent: {x}\n  change: {y}")
    raised = sum(r[0].startswith("raised") for r in parent)
    print(f"{same}/{len(specs)} identical ({raised} raised on the parent tree)")
    return 0 if same == len(specs) else 1


if __name__ == "__main__":
    sys.exit(main())
