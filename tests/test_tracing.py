"""The benchmark's span tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps module globals and class attributes that
coopnav looks up at call time.  A name that the code stops calling through
that lookup runs untraced, and the benchmark's traced pass then reports it
as never called and the run as incorrect.  Here each workload INI runs as a
short one-seed sweep under the tracer, which must see every wrapped name.
The tracer module is read from its file and run in place, so nothing is
written under ``perfbench/``.
"""

import configparser
import types
from pathlib import Path

import pytest

from coopnav import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted((PERFBENCH / "workloads").glob("*.ini"))
DURATION = "2"   # s: long enough for every workload to deliver a fix


def load_tracing():
    path = PERFBENCH / "tracing.py"
    module = types.ModuleType("perfbench_tracing")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_workload_is_listed():
    assert [p.stem for p in WORKLOADS] == ["multi_anchor", "nominal", "sweep"]


@pytest.mark.parametrize("ini", WORKLOADS, ids=lambda p: p.stem)
def test_a_traced_sweep_calls_every_wrapped_name(tmp_path, ini):
    tracing = load_tracing()
    parser = configparser.ConfigParser()
    parser.read(ini)
    if not parser.has_section("sim"):
        parser.add_section("sim")
    parser["sim"]["duration"] = DURATION
    parser["sweep"]["seeds"] = "1"
    short = tmp_path / ini.name
    with short.open("w") as fh:
        parser.write(fh)

    def sweep(out):
        return cli.main(["sweep", "--config", str(short), "--out", str(tmp_path / out)])

    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements(cli.run)):
        assert sweep("traced") == 0
    uncalled = [f"{module}.{attr}" for module, attr, _ in tracing.WRAPPED
                if tracer.calls[tracing.span_name(attr)] == 0]
    assert not uncalled
    # and tracing changes no output
    assert sweep("plain") == 0
    for name in ("runs.csv", "auvs.csv", "aggregate.csv", "heatmap.txt"):
        traced, plain = (tmp_path / out / name for out in ("traced", "plain"))
        assert traced.read_bytes() == plain.read_bytes()
