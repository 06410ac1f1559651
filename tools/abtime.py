#!/usr/bin/env python3
"""Interleaved timing of two coopnav source trees on sweep INIs.

    python3 tools/abtime.py PARENT_SRC CHANGE_SRC --ini FILE [--ini FILE ...] [--rounds N]

PARENT_SRC and CHANGE_SRC are ``src/`` directories of two checkouts.  Both
trees are imported into this one process once, as the packages
``coopnav_parent`` and ``coopnav_change`` (coopnav imports its own modules
relatively only).  Each ``--ini`` is timed in turn, in the order given,
and gets a block of its own: a line naming the INI, then the lines below.
Each round runs every job of the sweep INI once per tree, back to back,
alternating which tree goes first, and times each ``run()`` call.  A pair is
one job of one round; its ratio is the change's time over the parent's.
A sweep INI with ``[sim] trace = true`` times traced runs.  The script
prints each tree's median mission time with its quartiles, the
quartiles of the pair ratios, the pairs the change won and tied, and its
win share over the untied pairs (a tie counts for neither side).  It then
prints the bytes that one finished report of the first job keeps allocated
in each tree, and those that the finished reports of all the jobs keep
together, measured by ``tracemalloc`` around more, untimed, ``run()`` calls
per tree: an in-process A/B of report memory.  The sum sizes a workload
whose jobs differ, as a sweep's cells do.  A block's last line is its
verdict: "gain shown" only when there are at least MIN_PAIRS (10) pairs,
the change won at least 9 in 10 of the untied pairs and its median mission
time is below the parent's by more than the parent's interquartile range,
else "no gain shown", with the pair count when there are too few.  Host
speed drifts within a benchmark run (perfbench/README.md); two runs timed
back to back see nearly the same host, so the pair ratio cancels the drift.

Every pair's config hash, event log, trace log, numeric report and AUV rows
must be equal, as ``tools/diffcheck.py``'s ``fingerprint``, the one recipe
of a run's digests, hashes them outside the timed call: the script exits 1
on the first mismatch, 0 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

from diffcheck import fingerprint

MIN_PAIRS = 10   # fewer cannot show a 9-in-10 win share or a parent's spread


def load_tree(src: str, name: str):
    """``coopnav`` of ``src`` imported as package ``name``; returns its
    ``cli`` module."""
    init = Path(src) / "coopnav" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.cli")


def timed(cli, cfg) -> tuple[float, str]:
    t0 = time.perf_counter()
    rep = cli.run(cfg)
    return time.perf_counter() - t0, fingerprint(cli, cfg, rep)


def retained_bytes(cli, cfgs) -> int:
    """Bytes allocated by a ``run()`` of each config that their reports
    still hold, all reports kept."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reps = [cli.run(cfg) for cfg in cfgs]   # held until the memory is read
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def compare(trees, ini: str, rounds: int) -> bool:
    """Print the block of ``ini``, its jobs timed on both trees; False on
    the first pair whose outputs differ."""
    jobs = [[cfg for _, cfg in cli.load_sweep_spec(ini).jobs()] for cli in trees]
    times: tuple[list[float], list[float]] = ([], [])
    ratios = []
    for rnd in range(rounds):
        for n, cfgs in enumerate(zip(*jobs)):
            order = (0, 1) if (rnd + n) % 2 == 0 else (1, 0)
            out = {side: timed(trees[side], cfgs[side]) for side in order}
            if out[0][1] != out[1][1]:
                print(f"round {rnd} job {n}: outputs differ")
                return False
            times[0].append(out[0][0])
            times[1].append(out[1][0])
            ratios.append(out[1][0] / out[0][0])
    stats = [quartiles(ts) for ts in times]
    for label, (q1, med, q3) in zip(("parent", "change"), stats):
        print(f"{label}: median {med:.4f} s [{q1:.4f}, {q3:.4f}] over {len(ratios)} runs")
    q1, med, q3 = quartiles(ratios)
    wins = sum(r < 1.0 for r in ratios)
    ties = sum(r == 1.0 for r in ratios)
    decided = len(ratios) - ties
    share = f"{wins / decided:.0%}" if decided else "n/a"
    print(f"change/parent ratio: median {med:.3f} [{q1:.3f}, {q3:.3f}]; "
          f"change won {wins} and tied {ties} of {len(ratios)} pairs; "
          f"won {share} of the {decided} untied")
    for label, cli, cfgs in zip(("parent", "change"), trees, jobs):
        one, every = (retained_bytes(cli, some) / 1024 for some in (cfgs[:1], cfgs))
        print(f"{label}: one finished report of job 0 retains {one:.0f} KB, "
              f"those of all {len(cfgs)} jobs {every:.0f} KB (tracemalloc)")
    (p1, parent_med, p3), (_, change_med, _) = stats
    if len(ratios) < MIN_PAIRS:
        print(f"verdict: no gain shown ({len(ratios)} pairs; a gain needs {MIN_PAIRS})")
    else:
        shown = decided and wins >= 0.9 * decided and parent_med - change_med > p3 - p1
        print("verdict: " + ("gain shown" if shown else "no gain shown"))
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent_src")
    p.add_argument("change_src")
    p.add_argument("--ini", required=True, action="append",
                   help="sweep INI whose jobs are timed; repeat to time several")
    p.add_argument("--rounds", type=int, default=5, help="passes over each INI's jobs")
    args = p.parse_args(argv)
    trees = (load_tree(args.parent_src, "coopnav_parent"),
             load_tree(args.change_src, "coopnav_change"))
    for ini in args.ini:
        print(f"== {ini}")
        if not compare(trees, ini, args.rounds):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
