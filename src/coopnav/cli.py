"""Command-line front end: single runs, sweeps, and coverage pre-flight.

Config files are INI-style text with one section per subsystem; unknown
sections or keys are hard errors so that a typo cannot silently fall back
to a default in the middle of a thousand-run sweep.  Sweep outputs are a
long-form CSV (one row per config and seed), a per-AUV CSV (one row per
run and AUV), an aggregated CSV (mean and
std over seeds and formation angles), and a text heatmap of mean
cross-track error, all invariant to the parallelism degree.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import csv
import itertools
import logging
import math
import re
import statistics
import sys
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from pathlib import Path

from .engine import AsvFleet, AuvMetrics, MissionReport, SimConfig, run
from .formation import worst_point
from .schema import check, ini_table, param

log = logging.getLogger("coopnav")


class ConfigError(Exception):
    pass


def _key_error(path, text: str, section: str, key: str, message: str) -> ConfigError:
    """``message`` located at the file and line of ``key`` in ``[section]``."""
    line, current = "?", None
    for idx, row in enumerate(text.splitlines(), 1):
        if header := re.match(r"\[(.+)\]", row):
            current = header[1]
        elif current == section and re.match(rf"\s*{re.escape(key)}\s*[=:]", row, re.I):
            line = idx
            break
    return ConfigError(f"{path}:{line}: {message}")


def _read_ini(path: str | Path) -> tuple[configparser.ConfigParser, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{path}: no such config file")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read the config file: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if parser.defaults():   # configparser folds these keys into every section
        raise ConfigError(f"{path}: unknown section [{parser.default_section}]")
    return parser, text


def _convert(conv, raw: str, path, text: str, section: str, key: str):
    try:
        return conv(raw)
    except ValueError as exc:
        raise _key_error(path, text, section, key, f"bad value for '{key}': {exc}") from exc


def _apply_sections(parser, text, path, table: dict, cfg):
    """Set each key of the file on ``cfg`` as ``table`` (``schema.ini_table``)
    says; a section or key that the table lacks is an error."""
    sections = {section for section, _ in table}
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            spec = table.get((section, key))
            if spec is None:
                raise _key_error(path, text, section, key,
                                 f"unknown key '{key}' in section [{section}]")
            (*owners, name), index, conv = spec
            value = _convert(conv, raw, path, text, section, key)
            obj = reduce(getattr, owners, cfg)
            if index is not None:   # bias_x and bias_y fill one tuple
                value = tuple(value if i == index else v
                              for i, v in enumerate(getattr(obj, name)))
            setattr(obj, name, value)
    return cfg


def _validated(cfg, path):
    """``cfg`` once its ``validate`` passes; its ValueError becomes a
    ConfigError naming the file."""
    try:
        cfg.validate()
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


_INI = ini_table(SimConfig())


def load_sim_config(path: str | Path) -> SimConfig:
    """Parse and validate a run config file; raises ConfigError on any issue."""
    parser, text = _read_ini(path)
    return _validated(_apply_sections(parser, text, path, _INI, SimConfig()), path)


# [sweep] key -> the SimConfig field its list varies, outermost axis first
AXES = {key: _INI["sim", key][0][0] for key in ("l", "n_asv", "n_auv", "alpha0_deg")}


@dataclass
class SweepSpec:
    axes: dict[str, list] = field(default_factory=dict)   # SimConfig field -> its values
    seeds: int = param(1, "sweep", ge=1)
    base_seed: int = param(0, "sweep", ge=0)
    base: SimConfig = field(default_factory=SimConfig)

    def validate(self):
        """The seed count and the base seed, then the run config of each
        cell: ``base`` with the cell's axis values, so that no job fails
        validation in a run.  A cell's seeds count up from ``base_seed``, so
        its job with that seed stands for all of them."""
        check(replace(self, base=None))   # the counts; the base is checked per cell
        for _, cfg in replace(self, seeds=1).jobs():
            try:
                cfg.validate()
            except ValueError as exc:
                _, _, *cell = _cell_columns(cfg, "").items()   # after the hash and seed
                raise ValueError("sweep cell " + ", ".join(f"{k}={v}" for k, v in cell)
                                 + f": {exc}") from exc

    def jobs(self) -> list[tuple[int, SimConfig]]:
        """Cross-product job list, seeds innermost; the formation angle axis
        collapses to its first value when only one ASV is deployed (it is
        meaningless)."""
        a = self.axes
        cells = itertools.product(a["L"], a["n_asv"], a["n_auv"], enumerate(a["alpha0"]),
                                  range(self.base_seed, self.base_seed + self.seeds))
        configs = [replace(self.base, L=L, n_asv=n_asv, n_auv=n_auv, alpha0=alpha0, seed=seed)
                   for L, n_asv, n_auv, (i, alpha0), seed in cells if n_asv > 1 or i == 0]
        return list(enumerate(configs))


def load_sweep_spec(path: str | Path) -> SweepSpec:
    """Parse and validate a sweep config: each ``[sweep]`` axis is a comma list
    converted as its ``[sim]`` key, an absent axis is the run sections' value,
    and a ``[sim]`` key that the sweep sets per job is an error."""
    parser, text = _read_ini(path)
    if not parser.has_section("sweep"):
        raise ConfigError(f"{path}: missing required section [sweep]")
    lists = {}
    for key in AXES:
        if (raw := parser["sweep"].pop(key, None)) is not None:
            lists[key] = [_convert(_INI["sim", key][2], v, path, text, "sweep", key)
                          for v in raw.split(",")]
    for key in parser["sim"] if parser.has_section("sim") else ():
        if key == "seed" or key in lists:
            raise _key_error(path, text, "sim", key,
                             f"'{key}' in section [sim] is set per job by [sweep]")
    spec = _apply_sections(parser, text, path, ini_table(SweepSpec()), SweepSpec())
    spec.axes = {name: lists.get(key, [getattr(spec.base, name)]) for key, name in AXES.items()}
    return _validated(spec, path)


_CSV_COLUMNS = [
    "config_hash", "seed", "L", "n_asv", "n_auv", "alpha0_deg", "duration_s",
    "ticks", "total_fixes", "fix_rate_hz", "per_auv_fix_rate_hz",
    "latency_mean_s", "latency_p95_s", "mean_cte_m", "max_auv_cte_m",
    "min_auv_cte_m", "mean_est_err_m", "min_coverage", "mean_coverage",
    "mean_distance_m", "dropped_superseded", "dropped_expired",
    "dropped_out_of_range", "excursion_ticks", "error",
]


def _cell_columns(cfg: SimConfig, config_hash: str) -> dict:
    """The columns that name a run: its config hash, seed and sweep cell."""
    return {"config_hash": config_hash, "seed": cfg.seed, "L": f"{cfg.L:.15g}",
            "n_asv": cfg.n_asv, "n_auv": cfg.n_auv,
            "alpha0_deg": f"{math.degrees(cfg.alpha0):.15g}"}


def report_row(cfg: SimConfig, rep: MissionReport) -> dict:
    ctes = [a.mean_cte for a in rep.per_auv]
    covs = [a.coverage for a in rep.per_auv]
    return {
        **_cell_columns(cfg, rep.config_hash),
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


_AUV_COLUMNS = [*_CSV_COLUMNS[:6], *(f.name for f in fields(AuvMetrics)),
                "pings", "max_latency_s", "max_innovation"]


def auv_rows(cfg: SimConfig, rep: MissionReport) -> list[dict]:
    """One row per AUV: the run's cell columns, its ``AuvMetrics`` and its
    ``auv_extra`` figures.  The csv module writes a float as its ``repr``,
    so ``float()`` of a cell is the report's value exactly."""
    cell = _cell_columns(cfg, rep.config_hash)
    return [{**cell, **vars(a), **extra} for a, extra in zip(rep.per_auv, rep.auv_extra)]


def _error_row(cfg: SimConfig, exc: BaseException) -> dict:
    return {**dict.fromkeys(_CSV_COLUMNS, ""), **_cell_columns(cfg, cfg.config_hash()),
            "error": f"{type(exc).__name__}: {exc}"}


def _sweep_job(payload: tuple[int, SimConfig]) -> tuple[dict, list[dict]]:
    """A job's runs.csv row and auvs.csv rows; a failed run has no AUV rows."""
    _, cfg = payload
    try:
        rep = run(cfg)
        return report_row(cfg, rep), auv_rows(cfg, rep)
    except Exception as exc:   # a failed run must not sink the sweep
        return _error_row(cfg, exc), []


def summary_text(cfg: SimConfig, rep: MissionReport) -> str:
    lines = [
        f"config_hash: {rep.config_hash}   seed: {rep.seed}",
        f"L={cfg.L:.15g} m  n_auv={cfg.n_auv}  n_asv={cfg.n_asv}  "
        f"alpha0={math.degrees(cfg.alpha0):.15g} deg  duration={rep.duration_s:g} s",
        f"applied fixes: {rep.total_applied}  rate: {rep.applied_rate_hz:.3f} Hz  "
        f"latency mean/p95: {rep.latency_mean_s:.3f}/{rep.latency_p95_s:.3f} s",
        "dropped: " + " ".join(f"{reason}={count}" for reason, count in rep.dropped.items()),
        "",
        f"{'AUV':>4} {'Fixes':>6} {'Cov(%)':>7} {'CTE(m)':>8} {'Dist(m)':>8} "
        f"{'Err(m)':>7} {'Alloc(%)':>9}",
    ]
    for a in rep.per_auv:
        lines.append(f"{a.auv_id:>4} {a.fix_count:>6} {a.coverage * 100:>7.1f} "
                     f"{a.mean_cte:>8.2f} {a.distance:>8.1f} {a.mean_est_err:>7.2f} "
                     f"{a.allocation * 100:>9.1f}")
    return "\n".join(lines)


def _write_lines(path: Path, lines: list[str]):
    """Each line newline-terminated: no lines make an empty file."""
    path.write_text("".join(line + "\n" for line in lines))


def cmd_run(args) -> int:
    cfg = load_sim_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rep = run(cfg)
    text = summary_text(cfg, rep)
    (out / "report.txt").write_text(text + "\n")
    _write_lines(out / "events.log", rep.event_log)
    if cfg.trace:
        _write_lines(out / "trace.log", rep.trace_log)
    else:   # an earlier run's trace.log must not sit beside this run's outputs
        (out / "trace.log").unlink(missing_ok=True)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = spec.jobs()
    # a fork-started pool starts all of its workers up front
    workers = min(args.parallel, len(jobs))
    log.info("sweep: %d runs, parallelism %d", len(jobs), workers)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_job, j) for j in jobs]
        results = []
        for (_, cfg), future in zip(jobs, futures):
            try:
                results.append(future.result())
            except concurrent.futures.BrokenExecutor as exc:   # a worker died first
                results.append((_error_row(cfg, exc), []))
    else:
        results = [_sweep_job(j) for j in jobs]
    rows = [row for row, _ in results]
    _write_csv(out / "runs.csv", _CSV_COLUMNS, rows, "coopnav sweep runs schema v1")
    _write_csv(out / "auvs.csv", _AUV_COLUMNS, [a for _, auvs in results for a in auvs],
               "coopnav sweep auvs schema v1")

    # aggregate over seeds and angles per (L, n_asv, n_auv); the means are
    # taken over the rounded values that runs.csv holds
    groups: dict[tuple, list[dict]] = {}
    for (_, cfg), row in zip(jobs, rows):
        if not row["error"]:
            groups.setdefault((cfg.L, cfg.n_asv, cfg.n_auv), []).append(row)
    agg_cols = ["L", "n_asv", "n_auv", "n_runs", "cte_mean_m", "cte_std_m",
                "fix_rate_mean_hz", "fix_rate_std_hz", "coverage_mean",
                "latency_mean_s"]
    agg = {}
    for (L, n_asv, n_auv), rs in sorted(groups.items()):
        ctes = [float(r["mean_cte_m"]) for r in rs]
        rates = [float(r["per_auv_fix_rate_hz"]) for r in rs]
        agg[L, n_asv, n_auv] = {
            "L": f"{L:.15g}", "n_asv": n_asv, "n_auv": n_auv, "n_runs": len(rs),
            "cte_mean_m": f"{statistics.mean(ctes):.6f}",
            "cte_std_m": f"{statistics.pstdev(ctes):.6f}",
            "fix_rate_mean_hz": f"{statistics.mean(rates):.6f}",
            "fix_rate_std_hz": f"{statistics.pstdev(rates):.6f}",
            "coverage_mean": f"{statistics.mean(float(r['mean_coverage']) for r in rs):.6f}",
            "latency_mean_s": f"{statistics.mean(float(r['latency_mean_s']) for r in rs):.6f}",
        }
    _write_csv(out / "aggregate.csv", agg_cols, list(agg.values()),
               "coopnav sweep aggregate schema v1")

    heat = ["mean CTE (m) by survey size / ASV count (rows) and AUV count (columns)"]
    Ls, n_asvs, n_auvs = (sorted({key[i] for key in agg}) for i in range(3))
    heat.append("L,n_asv \\ n_auv | " + " | ".join(f"{v:>6d}" for v in n_auvs))
    for L, n_asv in itertools.product(Ls, n_asvs):
        cells = [f"{float(agg[L, n_asv, n_auv]['cte_mean_m']):>6.2f}"
                 if (L, n_asv, n_auv) in agg else "     -" for n_auv in n_auvs]
        heat.append(f"{L:>5.15g},{n_asv:>5d}     | " + " | ".join(cells))
    (out / "heatmap.txt").write_text("\n".join(heat) + "\n")

    failed = sum(1 for r in rows if r["error"])
    print(f"sweep finished: {len(rows)} runs ({failed} failed), outputs in {out}")
    return 0 if failed == 0 else 2


def cmd_check_coverage(args) -> int:
    cfg = load_sim_config(args.config)
    worst, (wx, wy) = worst_point(AsvFleet(cfg).ring, cfg.L)
    if worst <= cfg.r_hf:
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


def positive_int(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {n})")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coopnav",
                                description="cooperative acoustic localization simulator")
    p.add_argument("--log-level", default="warning",
                   choices=["debug", "info", "warning", "error"])
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("run", help="run one seeded mission")
    pr.add_argument("--config", required=True)
    pr.add_argument("--out", default="out")
    pr.set_defaults(func=cmd_run)

    ps = sub.add_parser("sweep", help="run a configuration sweep")
    ps.add_argument("--config", required=True)
    ps.add_argument("--out", default="out")
    ps.add_argument("--parallel", type=positive_int, default=1,
                    help="worker processes, at most one per run")
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
