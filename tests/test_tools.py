"""The verification tools on a tree against itself and against a copy whose
event text differs: ``tools/diffcheck.py`` and ``tools/abtime.py`` must
pass the first and catch the second."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PING = "PING{tick=%d, auv=%d, group=%d}"
ONE_JOB = "[sweep]\nl = 60\nn_asv = 1\nn_auv = 2\nseeds = 1\n\n[sim]\nduration = 3\n"


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """(exit code, output) of each tool on ``src`` against itself ("same")
    and against a copy whose PING event text is changed ("changed"), keyed
    (tool, side); the four runs are started together."""
    tmp = tmp_path_factory.mktemp("tools")
    changed = tmp / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    protocol = changed / "coopnav" / "protocol.py"
    text = protocol.read_text()
    assert text.count(PING) == 1
    protocol.write_text(text.replace(PING, PING.replace("group", "grp")))
    ini = tmp / "one_job.ini"
    ini.write_text(ONE_JOB)
    args = {"diffcheck": ["--n", "2", "--seed", "0"],
            "abtime": ["--ini", str(ini), "--rounds", "1"]}
    procs = {(tool, side): subprocess.Popen(
                 [sys.executable, str(ROOT / "tools" / f"{tool}.py"), str(SRC), str(tree),
                  *extra],
                 cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
             for tool, extra in args.items()
             for side, tree in (("same", SRC), ("changed", changed))}
    done = {}
    for key, p in procs.items():
        out = p.communicate()[0]
        done[key] = (p.returncode, out)
    return done


def test_diffcheck_finds_a_tree_identical_to_itself(runs):
    code, out = runs["diffcheck", "same"]
    assert code == 0, out
    assert out.splitlines()[-1] == ("2/2 missions identical (0 raised on the parent tree), "
                                    "4/4 sweeps identical, "
                                    "config verdicts identical for 2/2 missions")


def test_diffcheck_catches_changed_event_text(runs):
    code, out = runs["diffcheck", "changed"]
    assert code == 1, out
    assert "0/2 missions identical" in out


def test_abtime_shows_no_gain_from_one_pair(runs):
    code, out = runs["abtime", "same"]
    assert code == 0, out
    assert out.splitlines()[-1] == "verdict: no gain shown (1 pairs; a gain needs 10)"


def test_abtime_catches_changed_event_text(runs):
    code, out = runs["abtime", "changed"]
    assert code == 1, out
    assert "outputs differ" in out
