"""Time one workload's set-up in this fresh interpreter and print seconds.

    python3 perfbench/setup_probe.py <sweep.ini>

Covers importing coopnav.cli, parsing and validating the INI, and running the
largest sweep cell with duration=0, which does every per-mission set-up step
and no ticks.  coopnav is imported from PYTHONPATH, which the benchmark sets
to the checkout's sources.
"""

import sys
import time

t0 = time.perf_counter()
import dataclasses  # noqa: E402

from coopnav.cli import load_sweep_spec, run  # noqa: E402

jobs = load_sweep_spec(sys.argv[1]).jobs()
# the same cell as run.largest_config; run.py is not imported here, so that
# only coopnav's own imports are timed
cfg = max((c for _, c in jobs), key=lambda c: (c.L, c.n_asv, c.n_auv))
run(dataclasses.replace(cfg, duration=0.0))
print(time.perf_counter() - t0)
