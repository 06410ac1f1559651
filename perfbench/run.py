#!/usr/bin/env python3
"""coopnav benchmark: closed-loop sweep workloads checked against golden digests.

    python3 perfbench/run.py --workload nominal --seed 1 --seconds 30 --trace 0

Each workload is a sweep INI in ``perfbench/workloads/``.  One iteration runs
it through ``coopnav sweep`` at ``--parallel 1`` and then at ``--parallel 2``:
one client, each request started when the previous one finished (a closed
loop).  Iterations repeat for about ``--seconds``.  Iteration j uses
sweep ``base_seed = (offset + j) % POOL``, with ``offset`` drawn from
``--seed``, so the same seed gives the same inputs and every input has golden
digests in ``perfbench/golden.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds a traced
``--parallel 1`` pass to every iteration and prints the per-layer metrics;
see ``perfbench/README.md`` for the definitions.  The last stdout line is the
JSON result; details, the machine stamp and the kept spans go to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())
POOL = 16                     # golden base seeds 0 .. POOL-1 per workload
P2 = 2                        # parallelism of the second pass
OUTPUT_FILES = ("runs.csv", "aggregate.csv", "heatmap.txt")
# numeric MissionReport fields hashed at full repr precision
REPORT_FIELDS = ("seed", "ticks", "duration_s", "per_auv", "total_applied",
                 "applied_rate_hz", "latency_mean_s", "latency_p95_s",
                 "dropped", "max_innovation", "excursion_ticks")
SETUP_PROBES = 21             # fresh interpreters timed per run for setup_s
IN_PROCESS_REPEATS = 5        # repeats of the in-process set-up timings
KEEP_SPANS = 50_000           # spans of the first traced pass written to disk


def import_cli():
    """Import coopnav.cli from this checkout's sources, or exit non-zero."""
    if not (SRC / "coopnav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coopnav sources at {SRC}")
    sys.path.insert(0, str(SRC))
    # pool workers and set-up probes import coopnav from the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import coopnav.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "coopnav").resolve():
        raise SystemExit(f"perfbench: imported coopnav from {cli.__file__}, not {SRC}")
    return cli


def sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def mission_digests(rep) -> list[str]:
    """[sha1 of the event log text, sha1 of the numeric report fields]."""
    events = ("\n".join(rep.event_log) + "\n").encode()
    numeric = []
    for name in REPORT_FIELDS:
        value = getattr(rep, name)
        if name == "per_auv":
            value = [dataclasses.asdict(a) for a in value]
        numeric.append((name, value))
    return [sha1(events), sha1(repr(numeric).encode())]


def render_ini(workload: str, base_seed: int, work: Path) -> Path:
    text = (HERE / WORKLOADS[workload]["ini"]).read_text()
    path = work / f"{workload}-{base_seed}.ini"
    path.write_text(text.replace("[sweep]\n", f"[sweep]\nbase_seed = {base_seed}\n", 1))
    return path


@dataclasses.dataclass
class Pass:
    """One ``coopnav sweep`` invocation; the mission lists are p1 only."""
    parallel: int
    wall_s: float
    exit_code: int
    files: dict[str, str | None]      # output file -> sha1, None when missing
    rows: int                         # rows in runs.csv
    mission_s: list[float]            # wall time of each run() call
    cells: list[str]                  # sweep cell of each run() call
    auv_ticks: list[int]              # simulated AUV-ticks of each run() call
    digests: list[list[str]]          # mission_digests() of each run() call
    reports: list                     # the reports, when asked to keep them


def count_rows(path: Path) -> int:
    if not path.is_file():
        return 0
    with path.open(newline="") as fh:
        return sum(1 for _ in csv.DictReader(line for line in fh if not line.startswith("#")))


def run_pass(cli, ini: Path, out: Path, parallel: int, tracer=None,
             keep_reports: bool = False) -> Pass:
    """Run the sweep once; at parallelism 1, time and digest every mission."""
    missions = []
    real_run = cli.run

    def timed_run(cfg):
        t0 = time.perf_counter()
        rep = real_run(cfg)
        missions.append((time.perf_counter() - t0, rep, repr(dataclasses.replace(cfg, seed=0))))
        return rep

    main = cli.main
    if tracer is not None:
        patches = tracer.replacements(timed_run)
        main = tracer.span(tracing.ROOT_SPAN[0], main)
    elif parallel == 1:
        patches = [(cli, "run", timed_run)]
    else:
        patches = []
    if out.exists():
        shutil.rmtree(out)
    argv = ["sweep", "--config", str(ini), "--out", str(out), "--parallel", str(parallel)]
    with tracing.patched(patches), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    files = {f: sha1((out / f).read_bytes()) if (out / f).is_file() else None
             for f in OUTPUT_FILES}
    return Pass(parallel, wall, code, files, count_rows(out / "runs.csv"),
                mission_s=[s for s, _, _ in missions],
                cells=[cell for _, _, cell in missions],
                auv_ticks=[rep.ticks * len(rep.per_auv) for _, rep, _ in missions],
                digests=[mission_digests(rep) for _, rep, _ in missions],
                reports=[rep for _, rep, _ in missions] if keep_reports else [])


def failed_runs(p: Pass, gold: dict, reference: Pass | None = None) -> int:
    """Runs of a pass that raised, exited non-zero or missed a golden digest.

    A wrong output file or a non-zero exit fails every run of the pass; a
    mission whose event-log or report digest differs fails alone.
    ``reference`` is the untraced ``--parallel 1`` pass of the same inputs,
    which a later pass must match byte for byte.
    """
    n = len(gold["missions"])
    gold_files = {f: gold[f] for f in OUTPUT_FILES}
    if p.exit_code != 0 or p.rows != n or p.files != gold_files:
        return n
    if reference is not None and p.files != reference.files:
        return n
    if p.parallel != 1:
        return 0
    if len(p.digests) != n:
        return n
    want = gold["missions"] if reference is None else reference.digests
    return sum(d != w or d != g for d, w, g in zip(p.digests, want, gold["missions"]))


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """(value, samples above it) of a percentile by the nearest-rank rule."""
    xs = sorted(values)
    rank = max(1, math.ceil(pct * len(xs) / 100))
    return xs[rank - 1], len(xs) - rank


def mission_p50(passes: list[Pass]) -> float:
    """Mean over the sweep's cells of each cell's median run() time.

    The cells of ``sweep`` differ up to twofold in mission time, so the
    median of all its missions falls in a gap between two cells and jumps
    with small shifts.  ``nominal`` and ``multi_anchor`` have one cell, where
    this is the plain median.
    """
    by_cell: dict[str, list[float]] = {}
    for p in passes:
        for cell, secs in zip(p.cells, p.mission_s):
            by_cell.setdefault(cell, []).append(secs)
    return statistics.fmean(statistics.median(v) for v in by_cell.values())


def largest_config(cli, ini: Path):
    jobs = cli.load_sweep_spec(ini).jobs()
    return max((cfg for _, cfg in jobs), key=lambda c: (c.L, c.n_asv, c.n_auv))


def setup_probe(ini: Path) -> float:
    """Set-up seconds of the workload measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ini)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Benchmark process peak plus P2 times the largest child's peak (MiB).

    The child figure covers pool workers and set-up probes; counting P2 of
    them bounds the resident memory of a ``--parallel 2`` sweep from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + P2 * child) / 1024.0


def machine_stamp() -> dict:
    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def source_loc() -> dict[str, int]:
    loc = {f"{m}.loc": len((SRC / "coopnav" / f"{m}.py").read_text().splitlines())
           for m in tracing.LAYERS}
    loc["src.loc"] = sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "coopnav").glob("*.py")))
    return loc


def runs_per_s(passes: list[Pass]) -> float:
    """Sweep throughput over all passes of a run: runs / total wall time."""
    return sum(p.rows for p in passes) / sum(p.wall_s for p in passes)


def end_to_end(workload: str, iters: list[dict], setup: list[float]) -> tuple[dict, dict]:
    p1 = [it["p1"] for it in iters]
    times = [s for p in p1 for s in p.mission_s]
    tail_pct = WORKLOADS[workload]["tail_percentile"]
    tail_s, above = percentile(times, tail_pct)
    metrics = {
        "mission_s.p50": (mission_p50(p1), "s"),
        "mission_s.tail": (tail_s, "s"),
        "auv_ticks_per_s": (sum(t for p in p1 for t in p.auv_ticks) / sum(times),
                            "auv_ticks/s"),
        "runs_per_s.p1": (runs_per_s(p1), "runs/s"),
        "runs_per_s.p2": (runs_per_s([it["p2"] for it in iters]), "runs/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {"mission_s.tail": {"percentile": tail_pct, "samples": len(times),
                                  "above": above},
               "mission_s": times, "setup_s": setup,
               **{f"wall_s.{k}": [it[k].wall_s for it in iters] for k in ("p1", "p2")}}
    return metrics, details


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(cli, iters: list[dict], tracers: list) -> tuple[dict, dict]:
    first, tr = iters[0], tracers[0]
    calls, counts = tr.calls, tr.counts
    reports = first["p1"].reports
    auv_ticks = sum(first["p1"].auv_ticks)
    layer_self = [t.layer_self_s() for t in tracers]
    shares = [{m: ratio(s[m], sum(s.values())) for m in tracing.LAYERS} for s in layer_self]

    m: dict[str, tuple[float, str]] = {}
    for mod in tracing.LAYERS:
        m[f"{mod}.self_s"] = (statistics.median(s[mod] for s in layer_self), "s")
        m[f"{mod}.self_share"] = (statistics.median(s[mod] for s in shares), "frac")
    m["comm.self_share"] = (statistics.median(
        s["protocol"] + s["acoustic"] + s["conflict"] for s in shares), "frac")

    ini = first["ini"]
    cfg0 = dataclasses.replace(largest_config(cli, ini), duration=0.0)
    engine_setup, load_config = [], []
    for _ in range(IN_PROCESS_REPEATS):
        t0 = time.perf_counter()
        cli.load_sweep_spec(ini)
        t1 = time.perf_counter()
        cli.run(cfg0)
        load_config.append(t1 - t0)
        engine_setup.append(time.perf_counter() - t1)

    m["engine.auv_ticks"] = (auv_ticks, "count")
    m["engine.rng_streams"] = (calls["derive_rng"], "count")
    m["engine.setup_s"] = (statistics.median(engine_setup), "s")
    for name in ("dead_reckon_step", "depth_update", "apply_fix"):
        m[f"nav.{name}.calls"] = (calls[name], "count")
    m["nav.kinematic_inputs"] = (calls["KinematicInput"], "count")
    for name in ("guidance_step", "advance_truth", "point_segment_distance",
                 "plan_lawnmower"):
        m[f"mission.{name}.calls"] = (calls[name], "count")
    m["protocol.step.calls"] = (calls["step"], "count")
    m["protocol.step.useful_frac"] = (ratio(counts["useful_steps"], calls["step"]), "frac")
    m["protocol.due_auvs.calls"] = (calls["due_auvs"], "count")
    m["protocol.rounds"] = (calls["start_round"], "count")
    m["protocol.events"] = (sum(len(rep.event_log) for rep in reports), "count")
    m["acoustic.attempt_fix.calls"] = (calls["attempt_fix"], "count")
    m["acoustic.attempt_fix.per_auv_tick"] = (ratio(calls["attempt_fix"], auv_ticks),
                                              "1/auv_tick")
    m["acoustic.fix_yield"] = (ratio(counts["fixes"], calls["attempt_fix"]), "frac")
    m["acoustic.fuse_fixes.calls"] = (calls["fuse_fixes"], "count")
    m["conflict.build_conflict_graph.calls"] = (calls["build_conflict_graph"], "count")
    m["conflict.greedy_color.calls"] = (calls["greedy_color"], "count")
    m["formation.asv_positions.calls"] = (calls["asv_positions"], "count")

    runs_p1 = runs_per_s([it["p1"] for it in iters])
    runs_p2 = runs_per_s([it["p2"] for it in iters])
    m["cli.load_config_s"] = (statistics.median(load_config), "s")
    m["cli.sweep.self_s"] = (statistics.median(
        it["p1"].wall_s - sum(it["p1"].mission_s) for it in iters), "s")
    m["cli.sweep.parallel_efficiency"] = (ratio(runs_p2, P2 * runs_p1), "frac")
    m["cli.report_row.calls"] = (calls["report_row"], "count")

    m["sim.fixes_applied"] = (sum(rep.total_applied for rep in reports), "count")
    for reason in ("superseded", "expired", "out_of_mf_range"):
        m[f"sim.dropped.{reason}"] = (sum(rep.dropped.get(reason, 0) for rep in reports),
                                      "count")
    m["sim.latency_p95_s"] = (statistics.median(rep.latency_p95_s for rep in reports), "s")
    m["sim.multi_anchor_frac"] = (ratio(counts["multi_anchor_fusions"],
                                        calls["fuse_fixes"]), "frac")
    m["sim.groups_per_round"] = (ratio(counts["groups"], calls["start_round"]), "count")

    for name, loc in source_loc().items():
        m[name] = (loc, "lines")

    untraced = mission_p50([it["p1"] for it in iters])
    traced = mission_p50([it["traced"] for it in iters])
    m["trace.mission_s.p50"] = (traced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.overhead_frac"] = (ratio(traced - untraced, untraced), "frac")
    m["trace.span_cost_s"] = (statistics.median(sum(t.cost) for t in tracers), "s")

    uncalled = [f"{mod}.{attr}" for mod, attr, _ in tracing.WRAPPED
                if calls[tracing.span_name(attr)] == 0]
    details = {"uncalled": uncalled, "layer_self_s": layer_self}
    return m, details


def write_spans(path: Path, tracer) -> None:
    with path.open("w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    golden = json.loads((HERE / "golden.json").read_text())["workloads"][args.workload]
    stamp = machine_stamp()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        offset = random.Random(f"{args.workload}/{args.seed}").randrange(POOL)
        ini0 = render_ini(args.workload, offset, work)
        setup: list[float] = []
        if not args.trace:
            setup_probe(ini0)     # untimed warm-up of the file cache
        # warm lazy imports and first-call paths before timing
        cli.run(dataclasses.replace(largest_config(cli, ini0), duration=2.0))

        iters, tracers = [], []
        attempted = failed = 0
        start = time.perf_counter()
        deadline = start + args.seconds

        def probe_setup(final: bool = False) -> float:
            """Take the set-up probes due by now; return the seconds spent.

            Probe k is due once k/SETUP_PROBES of --seconds has passed, so
            the probes sample the host over the whole run as the missions
            do.  Their time is added to the deadline.
            """
            nonlocal deadline
            t0 = time.perf_counter()
            elapsed = (t0 - start) / args.seconds
            while (not args.trace and len(setup) < SETUP_PROBES
                   and (final or len(setup) < elapsed * SETUP_PROBES)):
                setup.append(setup_probe(ini0))
            spent = time.perf_counter() - t0
            deadline += spent
            return spent

        # stop when the next iteration would end more than half of it past
        # the deadline, so a run measures --seconds on average
        j, last = 0, 0.0
        while j == 0 or time.perf_counter() + last / 2 < deadline:
            started = time.perf_counter()
            base_seed = (offset + j) % POOL
            gold = golden[str(base_seed)]
            ini = render_ini(args.workload, base_seed, work)
            it = {"base_seed": base_seed, "ini": ini,
                  # the first iteration's reports give the per-layer counts
                  "p1": run_pass(cli, ini, work / "p1", 1, keep_reports=j == 0)}
            probed = probe_setup()
            it["p2"] = run_pass(cli, ini, work / "p2", P2)
            probed += probe_setup()
            it["failed"] = failed_runs(it["p1"], gold) + failed_runs(it["p2"], gold, it["p1"])
            attempted += 2 * len(gold["missions"])
            if args.trace:
                tracer = tracing.Tracer(KEEP_SPANS if j == 0 else 0, tracing.span_cost())
                it["traced"] = run_pass(cli, ini, work / "traced", 1, tracer)
                it["failed"] += failed_runs(it["traced"], gold, it["p1"])
                attempted += len(gold["missions"])
                tracers.append(tracer)
            failed += it["failed"]
            iters.append(it)
            j += 1
            last = time.perf_counter() - started - probed
        probe_setup(final=True)

        if args.trace:
            metrics, details = per_layer(cli, iters, tracers)
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv", tracers[0])
            correct = failed == 0 and not details["uncalled"]
        else:
            metrics, details = end_to_end(args.workload, iters, setup)
            correct = failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp["loadavg_end"] = list(os.getloadavg())

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    print(f"{label}: {len(iters)} iterations, base seeds from {offset}, "
          f"{attempted} runs attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace:
        if details["uncalled"]:
            print("  wrapped names never called: " + ", ".join(details["uncalled"]))
    else:
        t = details["mission_s.tail"]
        print(f"  mission_s.tail is p{t['percentile']} of {t['samples']} missions, "
              f"{t['above']} above it")
    print("stamp " + json.dumps(stamp))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "stamp": stamp, "details": details,
                    "base_seeds": [it["base_seed"] for it in iters],
                    "failed_per_iteration": [it["failed"] for it in iters]}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
