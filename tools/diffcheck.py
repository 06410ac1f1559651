#!/usr/bin/env python3
"""Differential check of two coopnav source trees on random missions and sweeps.

    python3 tools/diffcheck.py PARENT_SRC CHANGE_SRC --n 160 [--seed 0]

PARENT_SRC and CHANGE_SRC are ``src/`` directories of two checkouts.  Each
tree runs the same ``--n`` random ``SimConfig`` missions in a subprocess of
its own that imports coopnav from that tree alone.  Per mission the check
compares the config hash, the sha1 of the event log, of the trace log and of
the full-``repr`` numeric report (as ``tests/test_run_digests.py`` computes
them), or the type and text of the exception the mission raised.  It also compares the exit
code and stdout of ``coopnav check-coverage`` on an INI holding the
mission's L, n_asv, r_hf, delta_b and alpha0.  Each tree also runs the same
few random sweep INIs through ``coopnav sweep``, and the check compares the
exit code and the sha1 of ``runs.csv``, ``auvs.csv``, ``aggregate.csv``
and ``heatmap.txt``.  Config verdicts are compared too: per mission, each of a
few INIs holds that formation plus one invalid value (NaN, a value just
below a lower bound or above an upper bound, an undeclared choice or a
non-integer value of an int key), and one sweep INI per ``[sweep]`` count
holds a value below its bound; the check compares the exit code and stderr
of ``coopnav validate-config`` (``coopnav sweep`` for a sweep INI), with
the temporary directory's path left out.  The invalid values are drawn
from PARENT_SRC's own declarations (``cli.SweepSpec`` and the
``SimConfig`` it holds), each one confirmed invalid by its key's converter
and declared bounds, finiteness or choices.  It prints each mismatch and a
summary, and exits 0 when every mission, sweep and verdict is identical,
else 1.

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

The random sweeps list their axes in random order, with repeated values,
some axes left out, single-ASV cells whose angle axis collapses, and
missions of a few seconds.  They set no axis key in ``[sim]``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import operator
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, NamedTuple

# the report fields test_run_digests.py hashes at full repr precision
REPORT_FIELDS = ("seed", "ticks", "duration_s", "per_auv", "total_applied",
                 "applied_rate_hz", "latency_mean_s", "latency_p95_s",
                 "dropped", "max_innovation", "excursion_ticks")
SWEEPS = 4   # random sweeps per check
SWEEP_OUTPUTS = ("runs.csv", "auvs.csv", "aggregate.csv", "heatmap.txt")

OPS = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


class Key(NamedTuple):
    """An INI key as its field declares it."""
    section: str
    name: str
    conv: Callable[[str], object]
    bounds: tuple   # (op, limit) pairs
    choices: tuple
    finite: bool


def declared_keys(src: str) -> list[Key]:
    """Every INI key of a sweep file as the coopnav in ``src`` declares it:
    the run config's keys (``SweepSpec.base``, a ``SimConfig``) and the
    ``[sweep]`` counts, with the converters of ``schema.ini_table``."""
    sys.path.insert(0, src)
    from coopnav import cli, schema

    spec = cli.SweepSpec()
    table, keys = schema.ini_table(spec), []

    def walk(cfg):
        for f in dataclasses.fields(cfg):
            value, m = getattr(cfg, f.name), f.metadata
            if dataclasses.is_dataclass(value):
                walk(value)
            elif m:
                keys.extend(Key(m["section"], key, table[m["section"], key][2], m["bounds"],
                                m["choices"], m["finite"]) for key in m["keys"] or (f.name,))
    walk(spec)
    return keys


def rejects(key: Key, raw: str) -> bool:
    """Whether ``raw`` fails the key's converter or, converted, its declared
    bounds, finiteness or choices."""
    try:
        value = key.conv(raw)
    except ValueError:
        return True
    if key.choices:
        return value not in key.choices
    return (any(not OPS[op](value, limit) for op, limit in key.bounds)
            or key.finite and not abs(value) <= sys.float_info.max)


def beyond(key: Key, side: int) -> list[str]:
    """Raw values just below (``side`` -1) each lower bound of the key or
    above (+1) each upper bound, written on the key's INI scale; its
    converter then decides whether they fall outside (a degree one ulp
    below 0 converts to -0.0, which is inside ``>= 0``)."""
    out = []
    for op, limit in key.bounds:
        if (op == "<=") != (side > 0):
            continue
        if key.conv is int:
            values = [limit + side, limit + 2 * side]
        else:
            values = [math.nextafter(limit, side * math.inf), limit + side * 1e-9,
                      limit + side, side * math.inf]
        out += map(repr, values + [limit] * (op == ">"))
    return out


def invalid_values(keys: list[Key]) -> dict[str, list[tuple[Key, str]]]:
    """Per kind of invalid config, the (key, raw value) pairs to draw from,
    each rejected by ``rejects``; ``sweep`` holds the ``[sweep]`` counts."""
    run = [k for k in keys if k.section != "sweep"]
    pools = {
        "nan": [(k, "nan") for k in run if k.finite],
        "below": [(k, raw) for k in run for raw in beyond(k, -1)],
        "above": [(k, raw) for k in run for raw in beyond(k, 1)],
        "choice": [(k, raw) for k in run if k.choices
                   for raw in ("psychic", "Truth", "", "group,")],
        "int": [(k, raw) for k in run if k.conv is int for raw in ("2.5", "3.0", "1e3", "0x10")],
        "sweep": [(k, raw) for k in keys if k.section == "sweep" for raw in beyond(k, -1)],
    }
    return {what: [(k, raw) for k, raw in pool if rejects(k, raw)]
            for what, pool in pools.items()}


def fingerprint(rep) -> str:
    """A mission report's config hash and its event-log, trace-log and
    numeric-report sha1s."""
    def sha1(lines) -> str:
        return hashlib.sha1(("\n".join(lines) + "\n").encode()).hexdigest()

    numeric = [(name, [dataclasses.asdict(a) for a in rep.per_auv]
                if name == "per_auv" else getattr(rep, name)) for name in REPORT_FIELDS]
    return " ".join((rep.config_hash, sha1(rep.event_log), sha1(rep.trace_log),
                     hashlib.sha1(repr(numeric).encode()).hexdigest()))


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


def random_sweep(rng: random.Random) -> str:
    """One small sweep INI: each axis is absent or one to three values drawn
    with repeats, in a shuffled key order."""
    axes = {"l": [20.0, 40.0, 60.0, 65.0, 100.0, 140.0, round(rng.uniform(15.0, 160.0), 1)],
            "n_asv": [1, 1, 2, 3], "n_auv": [1, 2, 3, 4, 5],
            "alpha0_deg": [0.0, 30.0, 45.0, 90.0, 12.5]}
    lines = [f"{key} = " + ", ".join(str(v) for v in rng.choices(values, k=rng.randint(1, 3)))
             for key, values in axes.items() if rng.random() < 0.8]
    lines += [f"seeds = {rng.randint(1, 2)}", f"base_seed = {rng.randrange(1000)}"]
    rng.shuffle(lines)
    duration = rng.choice([2.0, 5.0, round(rng.uniform(1.0, 8.0), 2)])
    return "[sweep]\n" + "\n".join(lines) + f"\n\n[sim]\nduration = {duration}\n"


def formation_ini(spec: dict) -> dict:
    """The INI sections of a mission's formation, as check-coverage reads it."""
    return {"sim": {"l": repr(spec["L"]), "n_asv": str(spec["n_asv"]),
                    "alpha0_deg": repr(math.degrees(spec["alpha0"]))},
            "formation": {"r_hf": repr(spec["r_hf"]), "delta_b": repr(spec["delta_b"])}}


def render(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


def invalid_configs(rng: random.Random, spec: dict, values: dict) -> list[tuple[str, str]]:
    """(what, INI text) pairs: the mission's formation with one invalid
    value of each kind in ``values`` (``invalid_values``) but the sweep's,
    then per ``[sweep]`` count a random sweep INI with an invalid one."""
    out = []
    for what, pool in values.items():
        if what == "sweep" or not pool:
            continue
        key, raw = rng.choice(pool)
        sections = formation_ini(spec)
        sections.setdefault(key.section, {})[key.name] = raw
        out.append((f"{what} {key.section}.{key.name} = {raw}", render(sections)))
    for name in dict.fromkeys(k.name for k, _ in values["sweep"]):
        line = f"{name} = " + rng.choice([raw for k, raw in values["sweep"] if k.name == name])
        rows = [row for row in random_sweep(rng).split("\n") if not row.startswith(name + " ")]
        out.append((f"sweep {line}", "\n".join([rows[0], line] + rows[1:])))
    return out


def worker(src: str) -> None:
    """Run the JSON missions, sweeps and invalid configs on stdin with
    coopnav from ``src``; print one [mission result, check-coverage result,
    config verdicts...] list per mission and one result per sweep as JSON."""
    sys.path.insert(0, src)
    import coopnav
    from coopnav import cli
    from coopnav.acoustic import UsblNoiseConfig
    from coopnav.engine import SimConfig, run
    from coopnav.mission import GuidanceConfig
    from coopnav.protocol import TimingConfig

    if Path(coopnav.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"imported coopnav from {coopnav.__file__}, not from {src}")

    def coverage(spec: dict, ini: Path) -> str:
        """check-coverage's exit code and stdout lines on the spec's formation."""
        ini.write_text(f"[sim]\nl = {spec['L']!r}\nn_asv = {spec['n_asv']}\n"
                       f"alpha0_deg = {math.degrees(spec['alpha0'])!r}\n"
                       f"[formation]\nr_hf = {spec['r_hf']!r}\n"
                       f"delta_b = {spec['delta_b']!r}\n")
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(["check-coverage", "--config", str(ini)])
        return " | ".join([f"exit {code}"] + text.getvalue().splitlines())

    def verdict(what: str, text: str, tmp: Path) -> str:
        """The exit code and stderr of validate-config, or of sweep for a
        sweep INI, on ``text``, with ``tmp`` written as TMP."""
        ini = tmp / "verdict.ini"
        ini.write_text(text)
        args = (["sweep", "--out", str(tmp / "verdict")] if what.startswith("sweep")
                else ["validate-config"])
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(args + ["--config", str(ini)])
        return f"exit {code} | " + err.getvalue().replace(str(tmp), "TMP").strip()

    def sweep(text: str, tmp: Path) -> str:
        """The sweep's exit code and the sha1 of each of its outputs."""
        ini, out = tmp / "sweep.ini", tmp / "sweep"
        ini.write_text(text)
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--config", str(ini), "--out", str(out)])
        return " ".join([f"exit {code}"] + [
            hashlib.sha1((out / name).read_bytes()).hexdigest()
            if (out / name).is_file() else "missing" for name in SWEEP_OUTPUTS])

    todo = json.load(sys.stdin)
    specs = todo["missions"]
    with tempfile.TemporaryDirectory() as tmp:
        covered = [coverage(spec, Path(tmp) / "formation.ini") for spec in specs]
        swept = [sweep(text, Path(tmp)) for text in todo["sweeps"]]
        verdicts = [[verdict(what, text, Path(tmp)) for what, text in configs]
                    for configs in todo["invalid"]]
    out = []
    for spec, checked, judged in zip(specs, covered, verdicts):
        spec = dict(spec, bias=tuple(spec["bias"]),
                    noise=UsblNoiseConfig(**spec["noise"]),
                    timing=TimingConfig(**spec["timing"]),
                    guidance=GuidanceConfig(**spec["guidance"]))
        try:
            rep = run(SimConfig(**spec))
        except Exception as exc:   # a mission's failure is a result to compare
            out.append([f"raised {type(exc).__name__}: {exc}", checked, *judged])
            continue
        out.append([fingerprint(rep), checked, *judged])
    json.dump({"missions": out, "sweeps": swept}, sys.stdout)


def run_tree(src: str, todo: dict) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--worker", src],
                          input=json.dumps(todo), capture_output=True, text=True)
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
    todo = {"missions": specs, "sweeps": [random_sweep(rng) for _ in range(SWEEPS)]}
    values = invalid_values(declared_keys(args.parent_src))
    todo["invalid"] = [invalid_configs(rng, spec, values) for spec in specs]
    with ThreadPoolExecutor(2) as pool:
        parent, change = pool.map(lambda src: run_tree(src, todo),
                                  (args.parent_src, args.change_src))
    same = judged = 0
    for n, (spec, configs, a, b) in enumerate(zip(specs, todo["invalid"], parent["missions"],
                                                  change["missions"])):
        same += a[:2] == b[:2]
        judged += a[2:] == b[2:]
        shown = json.dumps(spec)
        labels = [("", shown), (" check-coverage", shown)] + [
            (" config verdict", what) for what, _ in configs]
        for (what, input_), x, y in zip(labels, a, b):
            if x != y:
                print(f"mission {n}{what} differs: {input_}\n  parent: {x}\n  change: {y}")
    swept = 0
    for n, (text, x, y) in enumerate(zip(todo["sweeps"], parent["sweeps"], change["sweeps"])):
        swept += x == y
        if x != y:
            print(f"sweep {n} differs:\n{text}  parent: {x}\n  change: {y}")
    raised = sum(r[0].startswith("raised") for r in parent["missions"])
    print(f"{same}/{len(specs)} missions identical ({raised} raised on the parent tree), "
          f"{swept}/{SWEEPS} sweeps identical, config verdicts identical for "
          f"{judged}/{len(specs)} missions")
    return 0 if same == judged == len(specs) and swept == SWEEPS else 1


if __name__ == "__main__":
    sys.exit(main())
