#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, untraced and traced, briefly.

    python3 perfbench/selftest.py

Runs ``perfbench/run.py`` for SECONDS on each workload with ``--trace 0``
and ``--trace 1`` and fails unless:

- every run is correct with no failed run, which includes every golden
  digest matching, ``--parallel 1`` and ``--parallel 2`` outputs being
  byte-identical, the traced digests equalling the untraced ones, and every
  wrapped name existing and being called at least once on every workload;
- each run reports exactly the metrics BENCHMARK.json declares, with their
  units;
- the workloads do their jobs: ``multi_anchor`` makes at least 5x the fix
  attempts per AUV-tick of ``nominal``, and its protocol+acoustic+conflict
  share of self time is higher.

Prints every end-to-end metric with its unit for all workloads.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = 1      # one iteration per run: enough to cover every check


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print("\n".join(line for line in lines[:-1] if not line.startswith("stamp ")))
    return json.loads(lines[-1])


def main() -> int:
    problems = []
    declared = {0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
                1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}}
    results = {}
    for w in BENCHMARK["workloads"]:
        for trace in (0, 1):
            res = results[w["name"], trace] = bench(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            if not res["correct"] or res["failed"]:
                problems.append(f"{label}: correct={res['correct']} failed={res['failed']}")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != declared[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(declared[trace]))}")

    def layer(workload, name):
        return results[workload, 1]["metrics"][name]["value"]

    attempts = [layer(w, "acoustic.attempt_fix.per_auv_tick")
                for w in ("nominal", "multi_anchor")]
    if attempts[1] < 5 * attempts[0]:
        problems.append(f"multi_anchor fix attempts per AUV-tick {attempts[1]:.4f} "
                        f"< 5x nominal's {attempts[0]:.4f}")
    shares = [layer(w, "comm.self_share") for w in ("nominal", "multi_anchor")]
    if shares[1] <= shares[0]:
        problems.append(f"multi_anchor protocol+acoustic+conflict share {shares[1]:.3f} "
                        f"<= nominal's {shares[0]:.3f}")

    print("\nend-to-end metrics (--trace 0)")
    names = list(declared[0])
    print(f"{'workload':<14}" + "".join(f"{n:>18}" for n in names) + f"{'failed_frac':>14}")
    for w in BENCHMARK["workloads"]:
        res = results[w["name"], 0]
        cells = "".join(f"{res['metrics'][n]['value']:>12.5g} {declared[0][n]:<5}"
                        for n in names)
        print(f"{w['name']:<14}{cells}{res['failed'] / res['attempted']:>14.4f}")
    print(f"fix attempts per AUV-tick: multi_anchor / nominal = "
          f"{attempts[1] / attempts[0]:.2f}")
    print(f"protocol+acoustic+conflict self share: nominal {shares[0]:.3f}, "
          f"multi_anchor {shares[1]:.3f}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
