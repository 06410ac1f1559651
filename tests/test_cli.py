import math

import pytest

from coopnav.cli import (ConfigError, load_sim_config, load_sweep_spec, main,
                         report_row)
from coopnav.engine import SimConfig, run

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


def test_unknown_section_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match=r"\[telepathy\]"):
        load_sim_config(write(tmp_path, "[telepathy]\nrange = 1\n"))


def test_invalid_value_names_field(tmp_path):
    with pytest.raises(ConfigError, match="n_asv"):
        load_sim_config(write(tmp_path, "[sim]\nn_asv = 0\n"))


def test_run_command_writes_outputs(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.txt").is_file()
    assert (out / "events.log").is_file()
    text = capsys.readouterr().out
    assert "Fixes" in text and "Cov(%)" in text and "CTE(m)" in text


def test_run_command_bad_config_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nn_asv = 0\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "n_asv" in capsys.readouterr().err


def test_missing_config_file_exit_code(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1


def test_validate_config_command(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["validate-config", "--config", cfg]) == 0
    assert "OK" in capsys.readouterr().out


@pytest.mark.parametrize("section, field", [
    ("[mission]\ntrack_spacing = 0\n", "track_spacing"),
    ("[mission]\ntrack_spacing = -5\n", "track_spacing"),
    ("[acoustic]\nsigma_r = 0\nsigma_theta_deg = 0\n", "sigma_r and sigma_theta"),
], ids=["track_spacing_0", "track_spacing_-5", "usbl_sigmas_0"])
def test_validate_config_rejects_what_run_cannot_simulate(tmp_path, capsys, section, field):
    cfg = write(tmp_path, BASE + section)
    assert main(["validate-config", "--config", cfg]) == 1
    out = capsys.readouterr()
    assert "OK" not in out.out and field in out.err


def test_check_coverage_small_survey(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "full coverage: yes (worst point 42.43 m <= 50 m)" in out
    assert "min formation radius: -10.00 m" in out


def test_check_coverage_large_survey(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nL = 140\nn_auv = 3\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "full coverage: no (point (70.00, 70.00) is 98.99 m > 50 m from every ASV)" in out
    assert "infeasible" in out


def test_check_coverage_mid_survey(tmp_path, capsys):
    cfg = write(tmp_path, "[sim]\nL = 100\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    assert "min formation radius: 50.00 m" in capsys.readouterr().out


def test_check_coverage_uncovered_edge_midpoint(tmp_path, capsys):
    # both corners of each side are in range of its anchor, but the edge
    # midpoints between the two anchors are not: the grid agrees
    cfg = write(tmp_path, "[sim]\nL = 80\nn_asv = 2\n\n[formation]\nr_hf = 50\n")
    assert main(["check-coverage", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "corner distance: 41.23 m" in out
    assert "grid coverage fraction: 0.8482" in out
    assert "full coverage: no (point (0.00, 40.00) is 64.03 m > 50 m from every ASV)" in out


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


def test_sweep_parallelism_invariance(tmp_path):
    cfg = write(tmp_path, """
[sweep]
L = 60
n_asv = 1
n_auv = 2, 3
seeds = 2

[sim]
duration = 6
""", "sweep.ini")
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main(["sweep", "--config", cfg, "--out", str(out1), "--parallel", "1"]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(out2), "--parallel", "4"]) == 0
    assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_row_reproducible_from_hash_and_seed(tmp_path):
    cfg = SimConfig(L=60.0, n_auv=3, n_asv=1, duration=10.0, seed=5)
    row1 = report_row(cfg, run(cfg))
    row2 = report_row(cfg, run(cfg))
    assert row1 == row2


def test_usage_error_exit_code():
    assert main(["run"]) == 1           # missing --config
