#!/usr/bin/env python3
"""Record the golden digests of every workload input in perfbench/golden.json.

    python3 perfbench/golden.py

For every workload and each sweep base seed in the pool, runs the workload's sweep once at
--parallel 1 and stores the per-mission event-log and report digests and the
digests of runs.csv, aggregate.csv and heatmap.txt.  Re-record only when a
change alters the simulation on purpose, and say why in CHANGES.md.
"""

import json
import re
import shutil
import sys
import tempfile
from pathlib import Path

import run


def record(cli, workload: str, work: Path) -> dict:
    out = {}
    for base_seed in range(run.POOL):
        ini = run.render_ini(workload, base_seed, work)
        p = run.run_pass(cli, ini, work / "p1", 1)
        if p.exit_code != 0:
            raise SystemExit(f"{workload} base_seed={base_seed}: sweep exited {p.exit_code}")
        out[str(base_seed)] = {"missions": p.digests, **p.files}
        print(f"{workload} base_seed={base_seed}: {len(p.digests)} missions", flush=True)
    return out


def main() -> int:
    cli = run.import_cli()
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="golden-", dir=run.OUT))
    try:
        for workload in sorted(run.WORKLOADS):
            golden["workloads"][workload] = record(cli, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(golden, indent=1, sort_keys=True)
    # one line per mission: [event-log sha1, report sha1]
    text = re.sub(r'\[\n\s+("\w+"),\n\s+("\w+")\n\s+\]', r"[\1, \2]", text)
    path.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
