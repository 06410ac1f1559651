import argparse
import concurrent.futures
import configparser
import csv
import math
import os
import re
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

from coopnav import cli
from coopnav.cli import (ConfigError, SweepSpec, load_sim_config, load_sweep_spec, main,
                         report_row)
from coopnav.engine import SimConfig, run
from coopnav.schema import ini_table

BASE = """
[sim]
L = 60
n_auv = 4
n_asv = 1
duration = 10
seed = 3
"""


def write(tmp_path, text, name="cfg.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_defaults_and_overrides(tmp_path):
    cfg = load_sim_config(write(tmp_path, BASE + "\n[nav]\ngamma = 0.8\n"))
    assert cfg.L == 60.0 and cfg.n_auv == 4 and cfg.seed == 3
    assert cfg.gamma == 0.8
    assert cfg.guidance.cruise_speed == 0.65      # untouched default


def test_alpha0_parsed_in_degrees(tmp_path):
    cfg = load_sim_config(write(tmp_path, "[sim]\nalpha0_deg = 30\n"))
    assert cfg.alpha0 == pytest.approx(math.radians(30))


def test_unknown_key_is_an_error_with_location(tmp_path):
    path = write(tmp_path, "[sim]\nL = 60\nwarp_speed = 9\n")
    with pytest.raises(ConfigError, match=r"cfg.ini:3.*warp_speed"):
        load_sim_config(path)


@pytest.mark.parametrize("text, error", [
    ("[sim]\nl = 60\n\n[formation]\nr_hf = 50\nl = 5\n",
     r"cfg.ini:6: unknown key 'l' in section \[formation\]"),
    ("[formation]\nr_hf = 50\n\n[sim]\nr_hf = 40\n",
     r"cfg.ini:5: unknown key 'r_hf' in section \[sim\]"),
    ("[sim]\nn_auv = 4\nL = wide\n", r"cfg.ini:3: bad value for 'l'"),
], ids=["same_key_in_an_earlier_section", "known_key_in_another_section",
        "key_in_upper_case"])
def test_a_key_error_names_the_line_in_its_own_section(tmp_path, text, error):
    with pytest.raises(ConfigError, match=error):
        load_sim_config(write(tmp_path, text))


def test_unknown_section_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match=r"\[telepathy\]"):
        load_sim_config(write(tmp_path, "[telepathy]\nrange = 1\n"))


@pytest.mark.parametrize("text", ["[DEFAULT]\ndurationn = 5\n",
                                  "[DEFAULT]\nduration = 5\n\n[nav]\ngamma = 0.8\n"],
                         ids=["unknown_key", "run_key_beside_a_section"])
def test_a_default_section_is_an_unknown_section(tmp_path, capsys, text):
    # configparser would fold its keys into every section
    assert main(["validate-config", "--config", write(tmp_path, text)]) == 1
    assert "cfg.ini: unknown section [DEFAULT]" in capsys.readouterr().err


def test_a_default_section_is_an_unknown_section_in_a_sweep(tmp_path, capsys):
    cfg = write(tmp_path, "[DEFAULT]\nseeds = 3\n" + SWEEP, "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "sweep.ini: unknown section [DEFAULT]" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_value_names_field(tmp_path):
    with pytest.raises(ConfigError, match="n_asv"):
        load_sim_config(write(tmp_path, "[sim]\nn_asv = 0\n"))


def test_run_command_writes_outputs(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.txt").is_file()
    assert (out / "events.log").is_file()
    assert not (out / "trace.log").exists()   # the config leaves the trace off
    text = capsys.readouterr().out
    assert "Fixes" in text and "Cov(%)" in text and "CTE(m)" in text


@pytest.mark.parametrize("duration", [0, 1])
def test_run_logs_end_each_line(tmp_path, duration):
    # a zero-tick run writes empty logs, not one blank line each
    cfg = write(tmp_path, BASE.replace("duration = 10", f"duration = {duration}\ntrace = true"))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rep = run(load_sim_config(cfg))
    for name, lines in (("events.log", rep.event_log), ("trace.log", rep.trace_log)):
        assert bool(lines) == bool(duration)
        assert (out / name).read_text() == "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("header", [2**53 + 1, 2**64 + 1])
def test_a_broadcast_carries_the_exact_payload(tmp_path, header):
    # ints beyond a double's 53-bit mantissa reach the log exactly
    cfg = write(tmp_path, BASE + f"\n[protocol]\nheader_bytes = {header}\nfix_bytes = 16\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    bcasts = [line for line in (out / "events.log").read_text().splitlines()
              if line.startswith("BCAST")]
    assert bcasts and all(line.endswith(f", bytes={header + 16}}}") for line in bcasts), bcasts


def test_run_command_bad_config_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nn_asv = 0\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "n_asv" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1


def test_an_undecodable_config_file_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "cfg.ini"
    p.write_bytes(b"[sim]\nduration = 5\n# \xff\n")
    assert main(["validate-config", "--config", str(p)]) == 1
    err = capsys.readouterr().err
    assert "cfg.ini: cannot read the config file" in err and "Traceback" not in err, err


def test_validate_config_command(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["validate-config", "--config", cfg]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("section, field", [
    ("[mission]\ntrack_spacing = 0\n", "track_spacing"),
    ("[mission]\ntrack_spacing = -5\n", "track_spacing"),
    ("[acoustic]\nsigma_r = 0\nsigma_theta_deg = 0\n", "sigma_r and sigma_theta"),
    # both squares underflow to a fix variance of 0
    ("[acoustic]\nsigma_r = 1e-170\nsigma_theta_deg = 1e-170\n", "variance 0"),
    # an AUV at the surface can pass right under an anchor
    ("[acoustic]\nsigma_r = 0\n[mission]\ndepth = 0\n", "variance 0"),
    # BASE has L = 60 and n_auv = 4: strips 15 m high
    ("[mission]\ntrack_spacing = 40\n", "track_spacing"),
], ids=["track_spacing_0", "track_spacing_-5", "usbl_sigmas_0", "usbl_sigmas_underflow",
        "sigma_r_0_at_depth_0", "track_spacing_over_strip"])
def test_validate_config_rejects_what_run_cannot_simulate(tmp_path, capsys, section, field):
    cfg = write(tmp_path, BASE + section)
    assert main(["validate-config", "--config", cfg]) == 1
    out = capsys.readouterr()
    assert "OK" not in out.out and field in out.err


def test_track_spacing_of_one_strip_height_is_valid(tmp_path, capsys):
    cfg = write(tmp_path, BASE + "[mission]\ntrack_spacing = 15\n")
    assert main(["validate-config", "--config", cfg]) == 0


def test_an_uplink_slot_shorter_than_a_tick_runs(tmp_path, capsys):
    # at 1e12 m/s over a 1 mm square the uplink slot is far below one tick
    # long; it lasts one tick, so what validate-config accepts run simulates
    cfg = write(tmp_path, "[sim]\nl = 0.001\nduration = 1\n[formation]\nr_hf = 0.001\n"
                          "[mission]\ndepth = 0.0001\ntrack_spacing = 0.0001\n"
                          "[acoustic]\nsound_speed = 1e12\n[protocol]\nping_duration = 1e-15\n")
    assert main(["validate-config", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# every run-config key and the attribute of SimConfig it sets
RUN_CONFIG_KEYS = {
    ("sim", "l"): "L", ("sim", "n_auv"): "n_auv", ("sim", "n_asv"): "n_asv",
    ("sim", "alpha0_deg"): "alpha0", ("sim", "duration"): "duration",
    ("sim", "tick_rate"): "f_t", ("sim", "seed"): "seed",
    ("sim", "guidance_on_truth"): "guidance_on_truth", ("sim", "usbl_enabled"): "usbl_enabled",
    ("sim", "conflict_source"): "conflict_source", ("sim", "contention"): "contention",
    ("sim", "trace"): "trace",
    ("formation", "r_hf"): "r_hf", ("formation", "delta_b"): "delta_b",
    ("formation", "asv_jitter_std"): "asv_jitter_std",
    ("acoustic", "sigma_r"): "noise.sigma_r", ("acoustic", "sigma_theta_deg"): "noise.sigma_theta",
    ("acoustic", "sigma_phi_deg"): "noise.sigma_phi", ("acoustic", "sound_speed"): "noise.c",
    ("protocol", "ping_duration"): "timing.t_p",
    ("protocol", "guard_factor_ul"): "timing.guard_factor_ul",
    ("protocol", "min_slot_factor_ul"): "timing.min_slot_factor_ul",
    ("protocol", "guard_factor_dl"): "timing.guard_factor_dl",
    ("protocol", "min_slot_factor_dl"): "timing.min_slot_factor_dl",
    ("protocol", "r_dl"): "timing.r_dl", ("protocol", "overhead"): "timing.overhead",
    ("protocol", "header_bytes"): "timing.n_hdr", ("protocol", "fix_bytes"): "timing.b_fix",
    ("protocol", "r_mf"): "timing.r_mf", ("protocol", "max_fix_age"): "timing.max_fix_age_s",
    ("nav", "bias_x"): "bias[0]", ("nav", "bias_y"): "bias[1]", ("nav", "sigma"): "sigma",
    ("nav", "sigma_z"): "sigma_z", ("nav", "gamma"): "gamma",
    ("mission", "depth"): "depth", ("mission", "cruise_speed"): "guidance.cruise_speed",
    ("mission", "capture_radius"): "guidance.capture_radius",
    ("mission", "max_yaw_rate"): "guidance.max_yaw_rate",
    ("mission", "track_spacing"): "track_spacing",
}


def test_ini_table_derived_from_the_fields_is_the_run_config():
    assert len(RUN_CONFIG_KEYS) == 40
    derived = {k: ".".join(path) + ("" if i is None else f"[{i}]")
               for k, (path, i, _) in ini_table(SimConfig()).items()}
    assert derived == RUN_CONFIG_KEYS


def _declared_keys():
    """(field, its declaration, INI section, key) of every run-config key."""
    cfg = SimConfig()
    return [(f, m, m["section"], key)
            for obj in (cfg, cfg.noise, cfg.timing, cfg.guidance) for f in fields(obj)
            if (m := f.metadata) for key in m["keys"] or (f.name,)]


# every run-config key whose field must be finite, as every field with a bound must
BOUNDED = [(section, key) for _, m, section, key in _declared_keys() if m["finite"]]
CHOICES = [(section, key, m["choices"]) for _, m, section, key in _declared_keys()
           if m["choices"]]


@pytest.mark.parametrize("section, key", BOUNDED, ids=[f"{s}.{k}" for s, k in BOUNDED])
def test_nan_is_rejected_naming_the_key(tmp_path, capsys, section, key):
    cfg = write(tmp_path, f"[{section}]\n{key} = nan\n")
    assert main(["validate-config", "--config", cfg]) == 1
    out = capsys.readouterr()
    assert "OK" not in out.out
    assert re.search(rf"\b{key}\b", out.err.split("cfg.ini", 1)[1]), out.err


@pytest.mark.parametrize("value", ["inf", "-inf", pytest.param(str(10 ** 400), id="400_digits")])
@pytest.mark.parametrize("section, key", BOUNDED, ids=[f"{s}.{k}" for s, k in BOUNDED])
def test_inf_is_rejected_naming_the_key(tmp_path, capsys, section, key, value):
    # a bound alone would let inf through, and the run would then fail; 400
    # digits are inf to a float key and, to an int key, beyond the float range
    cfg = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    assert main(["validate-config", "--config", cfg]) == 1
    out = capsys.readouterr()
    assert "OK" not in out.out
    assert re.search(rf"\b{key}\b", out.err.split("cfg.ini", 1)[1]), out.err


@pytest.mark.parametrize("text, quantity", [
    ("[sim]\nduration = 1e308\n", "mission"),
    ("[protocol]\nping_duration = 1e308\n", "uplink slot"),
    ("[protocol]\nmax_fix_age = 1e308\n", "fix age"),
    ("[protocol]\nr_dl = 1e-320\n", "MF slot"),
    ("[acoustic]\nsound_speed = 1e-307\n", "uplink slot"),
    ("[protocol]\nr_mf = 1e308\n[acoustic]\nsound_speed = 1\n", "longest delivery"),
    (f"[sim]\ntick_rate = {10 ** 306}\n", "mission"),
], ids=["duration", "ping_duration", "max_fix_age", "r_dl", "sound_speed", "r_mf",
        "tick_rate"])
def test_a_finite_value_whose_ticks_overflow_is_rejected(tmp_path, capsys, text, quantity):
    # each value is finite and in its bound, but its tick count is not finite
    cfg = write(tmp_path, text)
    assert main(["validate-config", "--config", cfg]) == 1
    out = capsys.readouterr()
    assert "OK" not in out.out
    assert f"the {quantity} of " in out.err and "no finite tick count" in out.err, out.err


def _within_bounds(m, value) -> bool:
    return all(value > v if op == ">" else value >= v if op == ">=" else value <= v
               for op, v in m["bounds"])


# every bounded float key at +-1e200 where its bounds allow the value
HUGE = [(section, key, value) for f, m, section, key in _declared_keys()
        if m["finite"] and "float" in str(f.type)
        for value in (1e200, -1e200) if _within_bounds(m, value)]


@pytest.mark.parametrize("section, key, value", HUGE,
                         ids=[f"{s}.{k}={v:g}" for s, k, v in HUGE])
def test_no_accepted_value_exits_2(tmp_path, capsys, section, key, value):
    # a value validate-config accepts is one check-coverage and run take
    # without a runtime failure or a word on stderr
    sections = {"sim": {"n_asv": "3", "duration": "2"}}
    sections.setdefault(section, {})[key] = repr(value)
    cfg = write(tmp_path, "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                  for s, kv in sections.items()))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["validate-config", "--config", cfg])
        err = capsys.readouterr().err
        assert code in (0, 1) and "runtime failure" not in err, err
        if code == 0:
            assert main(["check-coverage", "--config", cfg]) == 0
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
            assert capsys.readouterr().err == ""
    assert not [str(w.message) for w in caught]


def test_huge_values_cover_the_overflowing_keys():
    assert {("acoustic", "sigma_r", 1e200), ("acoustic", "sigma_theta_deg", 1e200),
            ("mission", "depth", -1e200), ("formation", "r_hf", 1e200),
            ("formation", "delta_b", 1e200), ("sim", "l", 1e200)} <= set(HUGE)
    assert not [k for _, k, _ in HUGE if k == "gamma"]


@pytest.mark.parametrize("text, message", [
    ("[acoustic]\nsigma_r = 1e200\n", "sigma_r and sigma_theta"),
    ("[acoustic]\nsigma_theta_deg = 1e200\n", "sigma_theta_deg"),
], ids=["sigma_r", "sigma_theta_deg"])
def test_a_sigma_whose_fixes_have_non_finite_variance_is_rejected(tmp_path, capsys, text,
                                                                  message):
    assert main(["validate-config", "--config", write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert "non-finite variance" in err and message in err, err


@pytest.mark.parametrize("section, key, choices", CHOICES, ids=[k for _, k, _ in CHOICES])
def test_a_field_with_choices_takes_only_those(tmp_path, capsys, section, key, choices):
    cfg = write(tmp_path, f"[{section}]\n{key} = psychic\n")
    assert main(["validate-config", "--config", cfg]) == 1
    assert f"{key} must be one of {choices} (got 'psychic')" in capsys.readouterr().err
    for choice in choices:
        cfg = write(tmp_path, f"[{section}]\n{key} = {choice}\n")
        assert main(["validate-config", "--config", cfg]) == 0


def test_choices_are_declared_for_both_mode_keys():
    assert {k for _, k, _ in CHOICES} == {"conflict_source", "contention"}


def test_gamma_is_at_most_one(tmp_path, capsys):
    assert main(["validate-config", "--config", write(tmp_path, "[nav]\ngamma = 1.0\n")]) == 0
    above = math.nextafter(1.0, 2.0)
    assert main(["validate-config", "--config",
                 write(tmp_path, f"[nav]\ngamma = {above!r}\n")]) == 1
    assert f"gamma must be <= 1 (got {above!r})" in capsys.readouterr().err


def test_bounded_keys_include_every_bound_and_both_bias_entries():
    assert {("nav", "bias_x"), ("nav", "bias_y"), ("formation", "r_hf"),
            ("protocol", "r_dl"), ("nav", "sigma_z"), ("sim", "duration")} <= set(BOUNDED)


def test_an_infinite_duration_is_rejected(tmp_path, capsys):
    # it would pass the bound and overflow when the ticks are counted
    cfg = write(tmp_path, "[sim]\nduration = inf\n")
    assert main(["validate-config", "--config", cfg]) == 1
    assert "duration must be finite" in capsys.readouterr().err


def test_readme_run_config_block_is_the_schema(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Run config", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(block)
    assert {(s, k) for s in parser.sections() for k in parser[s]} == set(ini_table(SimConfig()))
    assert load_sim_config(write(tmp_path, block)).config_hash() == SimConfig().config_hash()


def test_check_coverage_small_survey(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["check-coverage", "--config", cfg]) == 0
    assert "full coverage: yes (worst point 42.43 m <= 50 m)" in capsys.readouterr().out


def test_check_coverage_large_survey(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nL = 140\nn_auv = 3\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "full coverage: no (point (70.00, 70.00) is 98.99 m > 50 m from every ASV)" in out


def test_check_coverage_mid_survey(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nL = 100\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "full coverage: no (point (50.00, 50.00) is 70.71 m > 50 m from every ASV)" in out


def test_check_coverage_uncovered_edge_midpoint(tmp_path, capsys):
    # both corners of each side are in range of its anchor, but the edge
    # midpoints between the two anchors are not
    cfg = write(tmp_path, "[sim]\nL = 80\nn_asv = 2\n\n[formation]\nr_hf = 50\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "full coverage: no (point (0.00, 40.00) is 64.03 m > 50 m from every ASV)" in out


@pytest.mark.parametrize("text, limit", [("[formation]\nr_hf = 1e200\n", "1e+200"),
                                         ("[formation]\ndelta_b = 1e200\n", "50")],
                         ids=["r_hf", "delta_b"])
def test_check_coverage_of_a_ring_whose_squares_overflow(tmp_path, capsys, text, limit):
    # no slant range the run computes is that long, so the config is valid;
    # a distance whose square overflows is out of range, as it is to the run
    cfg = write(tmp_path, "[sim]\nn_asv = 3\n" + text)
    assert main(["validate-config", "--config", cfg]) == 0
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert f"full coverage: no (point (30.00, 30.00) is inf m > {limit} m from every ASV)" in out


def test_check_coverage_prints_one_line(tmp_path, capsys):
    # the verdict is the whole output, covered or not
    for text in (BASE, "[sim]\nL = 140\nn_asv = 3\nalpha0_deg = 30\n\n[formation]\ndelta_b = 3\n"):
        assert main(["check-coverage", "--config", write(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("full coverage: ")


SWEEP = """
[sweep]
L = 60
n_asv = 1
n_auv = 3
alpha0_deg = 0
seeds = 1

[sim]
duration = 8
"""


def test_sweep_single_cell(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP, "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "runs.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3      # comment, header, one data row
    assert (out / "aggregate.csv").is_file()
    assert (out / "heatmap.txt").is_file()


@pytest.mark.parametrize("old, new, cell, error", [
    ("duration = 8", "duration = -1", "L=60, n_asv=1, n_auv=3, alpha0_deg=0",
     "duration must be >= 0"),
    ("L = 60", "L = 60, -60", "L=-60, n_asv=1, n_auv=3", "L ([sim] l) must be > 0"),
    ("duration = 8", "duration = 8\n[mission]\ntrack_spacing = 15",
     "L=60, n_asv=1, n_auv=5", "exceeds the strip height"),
    ("duration = 8", "duration = 8\n[protocol]\nping_duration = 1e308",
     "L=60, n_asv=1, n_auv=3", "uplink slot of 1e+308 s has no finite tick count"),
], ids=["base", "axis", "across_fields", "tick_overflow"])
def test_sweep_rejects_an_invalid_cell_before_running(tmp_path, capsys, old, new, cell, error):
    # n_auv = 3, 5 gives strips 20 and 12 m high
    cfg = write(tmp_path, SWEEP.replace("n_auv = 3", "n_auv = 3, 5").replace(old, new),
                "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"config error: {cfg}: sweep cell {cell}" in err and error in err, err
    assert not (out / "runs.csv").exists()


def test_full_grid_job_count(tmp_path):
    # 3 sizes x [1 ASV x 1 angle + (2 and 3 ASVs) x 4 angles] x 8 fleet sizes
    # x 20 seeds; the angle axis collapses for the single-ASV rows
    spec = load_sweep_spec(write(tmp_path, """
[sweep]
L = 60, 100, 140
n_asv = 1, 2, 3
n_auv = 3, 4, 5, 6, 7, 8, 9, 10
alpha0_deg = 0, 30, 60, 90
seeds = 20
""", "grid.ini"))
    assert len(spec.jobs()) == 3 * (1 + 4 + 4) * 8 * 20


def test_sweep_angle_axis_collapses_for_single_asv(tmp_path):
    spec = load_sweep_spec(write(tmp_path, """
[sweep]
L = 60
n_asv = 1, 2
n_auv = 3
alpha0_deg = 0, 30, 60
seeds = 2
""", "sweep.ini"))
    jobs = spec.jobs()
    # single-ASV: 1 angle x 2 seeds; two-ASV: 3 angles x 2 seeds
    assert len(jobs) == 2 + 6
    assert [cfg.seed for _, cfg in jobs] == [0, 1] * 4   # the file's count, from base_seed


FOUR_RUNS = """
[sweep]
L = 60
n_asv = 1
n_auv = 2, 3
seeds = 2

[sim]
duration = 6
"""


def test_sweep_parallelism_invariance(tmp_path):
    cfg = write(tmp_path, FOUR_RUNS, "sweep.ini")
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--parallel", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--parallel", "2"]) == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


SUMMARY_SWEEP = """
[sweep]
l = 140, 60
n_asv = 2, 1
n_auv = 6, 4
alpha0_deg = 45, 0
seeds = 2

[sim]
duration = 30

[nav]
bias_x = 0.5
bias_y = -0.3
"""

SUMMARY_AGGREGATE = """\
# coopnav sweep aggregate schema v1
L,n_asv,n_auv,n_runs,cte_mean_m,cte_std_m,fix_rate_mean_hz,fix_rate_std_hz,coverage_mean,latency_mean_s
60,1,4,2,0.045781,0.001117,0.625000,0.000000,1.000000,0.382223
60,1,6,2,0.074571,0.001413,0.416667,0.000000,1.000000,0.400444
60,2,4,4,0.171379,0.124455,0.625000,0.000000,0.763333,0.367111
60,2,6,4,0.149171,0.077807,0.416667,0.000000,0.818542,0.402555
140,1,6,2,0.222631,0.000497,0.000000,0.000000,0.000000,0.000000
140,2,4,4,0.123685,0.016259,0.147917,0.014878,0.619231,0.373728
140,2,6,4,0.139345,0.006266,0.095834,0.007217,0.611314,0.357703
"""

SUMMARY_HEATMAP = """\
mean CTE (m) by survey size / ASV count (rows) and AUV count (columns)
L,n_asv \\ n_auv |      4 |      6
   60,    1     |   0.05 |   0.07
   60,    2     |   0.17 |   0.15
  140,    1     |      - |   0.22
  140,    2     |   0.12 |   0.14
"""


def test_sweep_summary_text(tmp_path, monkeypatch, capsys):
    # unsorted axes, and one cell whose runs all fail: its error rows stay
    # out of the aggregate and its heatmap cell reads "-"
    run = cli.run

    def fail_one_cell(cfg):
        if (cfg.L, cfg.n_asv, cfg.n_auv) == (140, 1, 4):
            raise RuntimeError("no fix")
        return run(cfg)

    monkeypatch.setattr(cli, "run", fail_one_cell)
    cfg = write(tmp_path, SUMMARY_SWEEP, "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "1"]) == 2
    assert "24 runs (2 failed)" in capsys.readouterr().out
    assert (out / "aggregate.csv").read_text() == SUMMARY_AGGREGATE
    assert (out / "heatmap.txt").read_text() == SUMMARY_HEATMAP


def test_sweep_axes_default_to_the_run_sections(tmp_path):
    spec = load_sweep_spec(write(tmp_path, """
[sweep]
n_asv = 1, 2

[sim]
l = 100
n_auv = 2
""", "sweep.ini"))
    assert {(cfg.L, cfg.n_auv) for _, cfg in spec.jobs()} == {(100.0, 2)}


@pytest.mark.parametrize("key", ["seed = 7", "L = 100", "n_asv = 2", "n_auv = 2",
                                 "alpha0_deg = 30"])
def test_sweep_rejects_a_run_key_it_sets_per_job(tmp_path, capsys, key):
    cfg = write(tmp_path, SWEEP + key + "\n", "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    name = key.split()[0].lower()
    assert f"sweep.ini:11: '{name}' in section [sim]" in capsys.readouterr().err
    assert not out.exists()


def csv_rows(path):
    with path.open() as fh:
        next(fh)   # the schema comment
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("parallel", ["0", "-4"])
def test_sweep_rejects_a_parallelism_below_one(tmp_path, capsys, parallel):
    cfg = write(tmp_path, SWEEP, "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", parallel]) == 1
    assert f"--parallel: must be >= 1 (got {parallel})" in capsys.readouterr().err
    assert not out.exists()


class RecordingPool:
    """A process pool stand-in that records its size and runs each job here,
    starting no process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_sweep_pool_has_at_most_one_worker_per_run(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(sizes, max_workers))
    cfg = write(tmp_path, FOUR_RUNS, "sweep.ini")
    serial = tmp_path / "serial"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    assert sizes == []
    for parallel in ("8", "3"):
        out = tmp_path / parallel
        assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", parallel]) == 0
        assert (out / "runs.csv").read_bytes() == (serial / "runs.csv").read_bytes()
    assert sizes == [4, 3]


def test_a_crashed_worker_leaves_the_finished_rows(tmp_path, monkeypatch, capsys):
    cfg = write(tmp_path, FOUR_RUNS, "sweep.ini")
    serial = tmp_path / "serial"
    assert main(["sweep", "--config", cfg, "--out", str(serial)]) == 0
    job = cli._sweep_job

    def crash_on_the_last_run(payload):
        if payload[0] == 3:
            os._exit(1)
        return job(payload)

    # the pool pickles the job by name; forked workers inherit the patched name
    crash_on_the_last_run.__module__ = cli.__name__
    crash_on_the_last_run.__qualname__ = "_sweep_job"
    monkeypatch.setattr(cli, "_sweep_job", crash_on_the_last_run)
    out = tmp_path / "crashed"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--parallel", "2"]) == 2
    assert "4 runs (" in capsys.readouterr().out
    want, got = csv_rows(serial / "runs.csv"), csv_rows(out / "runs.csv")
    assert len(got) == 4 and got[3]["error"].startswith("BrokenProcessPool: ")
    finished = [(w, g) for w, g in zip(want, got) if not g["error"]]
    assert finished and all(w == g for w, g in finished)
    for w, g in zip(want, got):
        assert g["error"] == "" or g["error"].startswith("BrokenProcessPool: ")
        assert (g["seed"], g["n_auv"]) == (w["seed"], w["n_auv"])
    assert (out / "aggregate.csv").is_file() and (out / "heatmap.txt").is_file()


def test_a_negative_seed_is_rejected(tmp_path, capsys):
    cfg = write(tmp_path, BASE.replace("seed = 3", "seed = -1"))
    assert main(["validate-config", "--config", cfg]) == 1
    assert "seed must be >= 0 (got -1)" in capsys.readouterr().err
    assert main(["validate-config", "--config", write(tmp_path, BASE.replace(
        "seed = 3", "seed = 0"))]) == 0


# each [sweep] count and the value next to its lower bound
COUNTS = [(f.name, f.metadata["bounds"]) for f in fields(SweepSpec) if f.metadata]


@pytest.mark.parametrize("key, bounds", COUNTS, ids=[k for k, _ in COUNTS])
def test_a_sweep_count_rejects_the_neighbour_of_its_bound(tmp_path, capsys, key, bounds):
    [(op, low)] = bounds
    below = low - 1
    assert op == ">="
    cfg = write(tmp_path, SWEEP.replace("seeds = 1", f"{key} = {below}"), "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert f"config error: {cfg}: {key} must be >= {low} (got {below})" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_the_sweep_counts_are_seeds_and_base_seed():
    assert COUNTS == [("seeds", ((">=", 1),)), ("base_seed", ((">=", 0),))]


def test_sweep_rejects_a_negative_base_seed(tmp_path, capsys):
    cfg = write(tmp_path, SWEEP.replace("seeds = 1", "seeds = 1\nbase_seed = -3"),
                "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    assert "base_seed must be >= 0 (got -3)" in capsys.readouterr().err
    assert not out.exists()


def test_no_option_sets_a_config_key():
    # each run and sweep setting has one source: its key in the config file
    keys = {key for _, key in ini_table(SweepSpec())}
    parser = cli.build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, command in sub.choices.items():
        dests = {a.dest for a in parser._actions + command._actions}
        assert not dests & keys, name


# a % in a value is the value's own character, not configparser's interpolation
PERCENT = [("conflict_source = 50%", "conflict_source must be one of"),
           ("tick_rate = 30\nduration = %(tick_rate)s", "bad value for 'duration'")]


@pytest.mark.parametrize("line, error", PERCENT, ids=["choice", "reference"])
def test_config_values_are_literal(tmp_path, capsys, line, error):
    cfg = write(tmp_path, "[sim]\n" + line + "\n")
    assert main(["validate-config", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert error in err and "runtime failure" not in err, err


@pytest.mark.parametrize("line, error", PERCENT, ids=["choice", "reference"])
def test_sweep_config_values_are_literal(tmp_path, capsys, line, error):
    cfg = write(tmp_path, SWEEP.replace("duration = 8", line), "sweep.ini")
    out = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert error in err and "runtime failure" not in err, err
    assert not out.exists()


def test_row_reproducible_from_hash_and_seed(tmp_path):
    cfg = SimConfig(L=60.0, n_auv=3, n_asv=1, duration=10.0, seed=5)
    row1 = report_row(cfg, run(cfg))
    row2 = report_row(cfg, run(cfg))
    assert row1 == row2


def test_usage_error_exit_code():
    assert main(["run"]) == 1           # missing --config
