"""Command-line front end: single runs, sweeps, and coverage pre-flight.

Config files are INI-style text with one section per subsystem; unknown
sections or keys are hard errors so that a typo cannot silently fall back
to a default in the middle of a thousand-run sweep.  Sweep outputs are a
long-form CSV (one row per config and seed), an aggregated CSV (mean and
std over seeds and formation angles), and a text heatmap of mean
cross-track error, all invariant to the parallelism degree.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import csv
import logging
import math
import re
import statistics
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path

from .engine import MissionReport, SimConfig, run
from .formation import (FormationConfig, asv_positions, corner_distance,
                        coverage_fraction_grid, min_formation_radius,
                        worst_point)

log = logging.getLogger("coopnav")


class ConfigError(Exception):
    pass


def _to_bool(raw: str) -> bool:
    """true/yes/on/1 or false/no/off/0, in any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {raw!r}") from None


def _find_line(text: str, key: str) -> int | str:
    for idx, line in enumerate(text.splitlines(), 1):
        if re.match(rf"\s*{re.escape(key)}\s*[=:]", line):
            return idx
    return "?"


_CONVERTERS = {bool: _to_bool, int: int, float: float, str: str}


def _ini_table(cfg, path=()) -> dict:
    """(section, key) -> (attribute path, tuple index or None, converter) of
    every field of ``cfg`` and its nested configs that declares INI keys."""
    table = {}
    for f in fields(cfg):
        value, m = getattr(cfg, f.name), f.metadata
        if is_dataclass(value):
            table.update(_ini_table(value, path + (f.name,)))
        elif m.get("section"):
            keys = m["keys"] or (f.name,)
            for i, key in enumerate(keys):
                index = i if len(keys) > 1 else None
                conv = m["conv"] or _CONVERTERS[type(value if index is None else value[i])]
                table[(m["section"], key)] = (path + (f.name,), index, conv)
    return table


_INI = _ini_table(SimConfig())
_RUN_SECTIONS = {section for section, _ in _INI}


def _read_ini(path: str | Path) -> tuple[configparser.ConfigParser, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}: no such config file")
    text = p.read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parser, text


def _apply_run_sections(parser, text, path, cfg: SimConfig,
                        skip: frozenset = frozenset()) -> SimConfig:
    for section in parser.sections():
        if section in skip:
            continue
        if section not in _RUN_SECTIONS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            spec = _INI.get((section, key))
            if spec is None:
                line = _find_line(text, key)
                raise ConfigError(
                    f"{path}:{line}: unknown key '{key}' in section [{section}]")
            (*owners, name), index, conv = spec
            try:
                value = conv(raw)
            except ValueError as exc:
                line = _find_line(text, key)
                raise ConfigError(
                    f"{path}:{line}: bad value for '{key}': {exc}") from exc
            obj = reduce(getattr, owners, cfg)
            if index is not None:   # bias_x and bias_y fill one tuple
                value = tuple(value if i == index else v
                              for i, v in enumerate(getattr(obj, name)))
            setattr(obj, name, value)
    return cfg


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse and validate a run config file; raises ConfigError on any issue."""
    parser, text = _read_ini(path)
    cfg = _apply_run_sections(parser, text, path, SimConfig())
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


@dataclass
class SweepSpec:
    L_values: list[float]
    n_asv_values: list[int]
    n_auv_values: list[int]
    alpha0_deg_values: list[float]
    seeds: int
    base_seed: int = 0
    base: SimConfig = field(default_factory=SimConfig)

    def validate(self):
        """The axes and the seed count, then the run config of each cell:
        ``base`` with the cell's axis values, so that no job fails validation
        in a run.  The seed is not validated, so one job per cell stands for
        all of the cell's seeds."""
        for name in ("L_values", "n_asv_values", "n_auv_values", "alpha0_deg_values"):
            if not getattr(self, name):
                raise ConfigError(f"sweep list {name} must be non-empty")
        if self.seeds < 1:
            raise ConfigError(f"seeds must be >= 1 (got {self.seeds})")
        for _, cfg in replace(self, seeds=1).jobs():
            try:
                cfg.validate()
            except ValueError as exc:
                raise ConfigError(
                    f"sweep cell L={cfg.L:g}, n_asv={cfg.n_asv}, n_auv={cfg.n_auv}, "
                    f"alpha0_deg={math.degrees(cfg.alpha0):g}: {exc}") from exc

    def jobs(self) -> list[tuple[int, SimConfig]]:
        """Cross-product job list; the formation angle axis collapses to the
        first listed angle when only one ASV is deployed (it is meaningless)."""
        out = []
        idx = 0
        for L in self.L_values:
            for n_asv in self.n_asv_values:
                angles = self.alpha0_deg_values if n_asv > 1 \
                    else self.alpha0_deg_values[:1]
                for n_auv in self.n_auv_values:
                    for adeg in angles:
                        for s in range(self.seeds):
                            cfg = replace(
                                self.base, L=L, n_asv=n_asv, n_auv=n_auv,
                                alpha0=math.radians(adeg),
                                seed=self.base_seed + s)
                            out.append((idx, cfg))
                            idx += 1
        return out


def load_sweep_spec(path: str | Path) -> SweepSpec:
    parser, text = _read_ini(path)
    if not parser.has_section("sweep"):
        raise ConfigError(f"{path}: missing required section [sweep]")
    known = {"l", "n_asv", "n_auv", "alpha0_deg", "seeds", "base_seed"}
    vals = {}
    for key, raw in parser.items("sweep"):
        if key not in known:
            line = _find_line(text, key)
            raise ConfigError(f"{path}:{line}: unknown key '{key}' in section [sweep]")
        vals[key] = raw
    try:
        spec = SweepSpec(
            L_values=[float(v) for v in vals.get("l", "60").split(",")],
            n_asv_values=[int(v) for v in vals.get("n_asv", "1").split(",")],
            n_auv_values=[int(v) for v in vals.get("n_auv", "4").split(",")],
            alpha0_deg_values=[float(v) for v in vals.get("alpha0_deg", "0").split(",")],
            seeds=int(vals.get("seeds", "1")),
            base_seed=int(vals.get("base_seed", "0")),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: bad value in [sweep]: {exc}") from exc
    base = _apply_run_sections(parser, text, path, SimConfig(), skip=frozenset({"sweep"}))
    spec.base = base
    spec.validate()
    return spec


_CSV_COLUMNS = [
    "config_hash", "seed", "L", "n_asv", "n_auv", "alpha0_deg", "duration_s",
    "ticks", "total_fixes", "fix_rate_hz", "per_auv_fix_rate_hz",
    "latency_mean_s", "latency_p95_s", "mean_cte_m", "max_auv_cte_m",
    "min_auv_cte_m", "mean_est_err_m", "min_coverage", "mean_coverage",
    "mean_distance_m", "dropped_superseded", "dropped_expired",
    "dropped_out_of_range", "excursion_ticks", "error",
]


def report_row(cfg: SimConfig, rep: MissionReport) -> dict:
    ctes = [a.mean_cte for a in rep.per_auv]
    covs = [a.coverage for a in rep.per_auv]
    return {
        "config_hash": rep.config_hash,
        "seed": rep.seed,
        "L": f"{cfg.L:g}",
        "n_asv": cfg.n_asv,
        "n_auv": cfg.n_auv,
        "alpha0_deg": f"{math.degrees(cfg.alpha0):g}",
        "duration_s": f"{rep.duration_s:.6f}",
        "ticks": rep.ticks,
        "total_fixes": rep.total_applied,
        "fix_rate_hz": f"{rep.applied_rate_hz:.6f}",
        "per_auv_fix_rate_hz": f"{rep.applied_rate_hz / cfg.n_auv:.6f}",
        "latency_mean_s": f"{rep.latency_mean_s:.6f}",
        "latency_p95_s": f"{rep.latency_p95_s:.6f}",
        "mean_cte_m": f"{statistics.mean(ctes):.6f}",
        "max_auv_cte_m": f"{max(ctes):.6f}",
        "min_auv_cte_m": f"{min(ctes):.6f}",
        "mean_est_err_m": f"{statistics.mean(a.mean_est_err for a in rep.per_auv):.6f}",
        "min_coverage": f"{min(covs):.6f}",
        "mean_coverage": f"{statistics.mean(covs):.6f}",
        "mean_distance_m": f"{statistics.mean(a.distance for a in rep.per_auv):.6f}",
        "dropped_superseded": rep.dropped.get("superseded", 0),
        "dropped_expired": rep.dropped.get("expired", 0),
        "dropped_out_of_range": rep.dropped.get("out_of_mf_range", 0),
        "excursion_ticks": rep.excursion_ticks,
        "error": "",
    }


def _sweep_job(payload: tuple[int, SimConfig]) -> tuple[int, dict]:
    idx, cfg = payload
    try:
        rep = run(cfg)
        row = report_row(cfg, rep)
    except Exception as exc:   # a failed run must not sink the sweep
        row = {c: "" for c in _CSV_COLUMNS}
        row.update({
            "config_hash": cfg.config_hash(), "seed": cfg.seed,
            "L": f"{cfg.L:g}", "n_asv": cfg.n_asv, "n_auv": cfg.n_auv,
            "alpha0_deg": f"{math.degrees(cfg.alpha0):g}",
            "error": f"{type(exc).__name__}: {exc}",
        })
    return idx, row


def summary_text(cfg: SimConfig, rep: MissionReport) -> str:
    lines = [
        f"config_hash: {rep.config_hash}   seed: {rep.seed}",
        f"L={cfg.L:g} m  n_auv={cfg.n_auv}  n_asv={cfg.n_asv}  "
        f"alpha0={math.degrees(cfg.alpha0):g} deg  duration={rep.duration_s:g} s",
        f"applied fixes: {rep.total_applied}  rate: {rep.applied_rate_hz:.3f} Hz  "
        f"latency mean/p95: {rep.latency_mean_s:.3f}/{rep.latency_p95_s:.3f} s",
        f"dropped: superseded={rep.dropped.get('superseded', 0)} "
        f"expired={rep.dropped.get('expired', 0)} "
        f"out_of_mf_range={rep.dropped.get('out_of_mf_range', 0)}",
        "",
        f"{'AUV':>4} {'Fixes':>6} {'Cov(%)':>7} {'CTE(m)':>8} {'Dist(m)':>8} "
        f"{'Err(m)':>7} {'Alloc(%)':>9}",
    ]
    for a in rep.per_auv:
        lines.append(f"{a.auv_id:>4} {a.fix_count:>6} {a.coverage * 100:>7.1f} "
                     f"{a.mean_cte:>8.2f} {a.distance:>8.1f} {a.mean_est_err:>7.2f} "
                     f"{a.allocation * 100:>9.1f}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    cfg = load_sim_config(args.config)
    if args.trace:
        cfg.trace = True
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = run(cfg)
    text = summary_text(cfg, rep)
    (out / "report.txt").write_text(text + "\n")
    (out / "events.log").write_text("\n".join(rep.event_log) + "\n")
    if cfg.trace:
        (out / "trace.log").write_text("\n".join(rep.trace_log) + "\n")
    print(text)
    return 0


def _write_csv(path: Path, columns: list[str], rows: list[dict], schema: str):
    with path.open("w", newline="") as fh:
        fh.write(f"# {schema}\n")
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def cmd_sweep(args) -> int:
    spec = load_sweep_spec(args.config)
    if args.seeds is not None:
        spec.seeds = args.seeds
        spec.validate()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = spec.jobs()
    log.info("sweep: %d runs, parallelism %d", len(jobs), args.parallel)
    results: list[tuple[int, dict]] = []
    if args.parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(_sweep_job, jobs, chunksize=1))
    else:
        results = [_sweep_job(j) for j in jobs]
    results.sort(key=lambda t: t[0])
    rows = [r for _, r in results]
    _write_csv(out / "runs.csv", _CSV_COLUMNS, rows, "coopnav sweep runs schema v1")

    # aggregate over seeds and angles per (L, n_asv, n_auv)
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["error"]:
            continue
        groups.setdefault((row["L"], row["n_asv"], row["n_auv"]), []).append(row)
    agg_cols = ["L", "n_asv", "n_auv", "n_runs", "cte_mean_m", "cte_std_m",
                "fix_rate_mean_hz", "fix_rate_std_hz", "coverage_mean",
                "latency_mean_s"]
    agg_rows = []
    for key in sorted(groups, key=lambda k: (float(k[0]), int(k[1]), int(k[2]))):
        rs = groups[key]
        ctes = [float(r["mean_cte_m"]) for r in rs]
        rates = [float(r["per_auv_fix_rate_hz"]) for r in rs]
        agg_rows.append({
            "L": key[0], "n_asv": key[1], "n_auv": key[2], "n_runs": len(rs),
            "cte_mean_m": f"{statistics.mean(ctes):.6f}",
            "cte_std_m": f"{statistics.pstdev(ctes):.6f}",
            "fix_rate_mean_hz": f"{statistics.mean(rates):.6f}",
            "fix_rate_std_hz": f"{statistics.pstdev(rates):.6f}",
            "coverage_mean": f"{statistics.mean(float(r['mean_coverage']) for r in rs):.6f}",
            "latency_mean_s": f"{statistics.mean(float(r['latency_mean_s']) for r in rs):.6f}",
        })
    _write_csv(out / "aggregate.csv", agg_cols, agg_rows,
               "coopnav sweep aggregate schema v1")

    heat = ["mean CTE (m) by survey size / ASV count (rows) and AUV count (columns)"]
    n_auvs = sorted({int(r["n_auv"]) for r in agg_rows})
    heat.append("L,n_asv \\ n_auv | " + " | ".join(f"{v:>6d}" for v in n_auvs))
    for L in sorted({float(r["L"]) for r in agg_rows}):
        for n_asv in sorted({int(r["n_asv"]) for r in agg_rows}):
            cells = []
            for n_auv in n_auvs:
                match = [r for r in agg_rows
                         if float(r["L"]) == L and int(r["n_asv"]) == n_asv
                         and int(r["n_auv"]) == n_auv]
                cells.append(f"{float(match[0]['cte_mean_m']):>6.2f}" if match else "     -")
            heat.append(f"{L:>5g},{n_asv:>5d}     | " + " | ".join(cells))
    (out / "heatmap.txt").write_text("\n".join(heat) + "\n")

    failed = sum(1 for r in rows if r["error"])
    print(f"sweep finished: {len(rows)} runs ({failed} failed), outputs in {out}")
    return 0 if failed == 0 else 2


def cmd_check_coverage(args) -> int:
    cfg = load_sim_config(args.config)
    fc = FormationConfig(n_asv=cfg.n_asv, L=cfg.L, r_hf=cfg.r_hf,
                         delta_b=cfg.delta_b, alpha0=cfg.alpha0)
    layout = asv_positions(fc)
    corner = corner_distance(layout, cfg.L)
    worst, (wx, wy) = worst_point(layout, cfg.L)
    mfr = min_formation_radius(cfg.L, cfg.r_hf)
    frac = coverage_fraction_grid(layout, cfg.L, cfg.r_hf)
    full = worst <= cfg.r_hf
    print(f"corner distance: {corner:.2f} m (HF range {cfg.r_hf:g} m)")
    if mfr is None:
        print(f"min formation radius: infeasible (r_hf < L/2)")
    else:
        print(f"min formation radius: {mfr:.2f} m")
    print(f"grid coverage fraction: {frac:.4f}")
    if full:
        print(f"full coverage: yes (worst point {worst:.2f} m <= {cfg.r_hf:g} m)")
    else:
        # + 0.0 prints a coordinate that rounds to zero as 0.00, not -0.00
        print(f"full coverage: no (point ({round(wx, 2) + 0.0:.2f}, "
              f"{round(wy, 2) + 0.0:.2f}) is {worst:.2f} m > {cfg.r_hf:g} m "
              f"from every ASV)")
    return 0


def cmd_validate(args) -> int:
    load_sim_config(args.config)
    print(f"{args.config}: OK")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="coopnav",
                description="cooperative acoustic localization simulator")
    p.add_argument("--log-level", default="warning",
                   choices=["debug", "info", "warning", "error"])
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one seeded mission")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default="out")
    pr.add_argument("--trace", action="store_true",
                    help="write per-tick state traces")
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("sweep", help="run a configuration sweep")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.add_argument("--seeds", type=int, default=None,
                    help="override the seed count of the sweep spec")
    ps.add_argument("--parallel", type=int, default=1)
    ps.set_defaults(func=cmd_sweep)

    pc = sub.add_parser("check-coverage",
                        help="formation coverage pre-flight for a config")
    pc.add_argument("--config", required=True)
    pc.set_defaults(func=cmd_check_coverage)

    pv = sub.add_parser("validate-config", help="parse and validate a config")
    pv.add_argument("--config", required=True)
    pv.set_defaults(func=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:       # argparse exits; normalize usage errors to 1
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # runtime failure
        log.exception("runtime failure")
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
