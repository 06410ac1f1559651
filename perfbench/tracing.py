"""Span tracing of coopnav's layers from outside the package.

Every wrapped name below is a module global or class attribute that coopnav
looks up at call time, so replacing it routes each call through a span
without touching the package.  A span records its name, start, end and
parent.  A layer's self time is the duration of its spans minus the time
covered by their child spans; it is accumulated while the spans close, so
only the first ``keep_spans`` spans need to stay in memory for the span file.

A span's own bookkeeping falls partly inside its [start, end] window, where
it inflates the span's self time, and partly outside, where it inflates the
parent's.  ``span_cost`` measures both per span on a wrapped no-op, and
``Tracer.layer_self_s`` subtracts them: the inside cost once per call of a
name, the outside cost once per child span of a name.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("formation", "conflict", "acoustic", "protocol", "nav", "mission",
          "engine", "cli")

# (module, attribute, layer).  The names are the ones the engine, protocol
# and cli resolve at call time; "Class.method" patches a class attribute.
# ``coopnav.cli.run`` is the engine's ``run`` as the sweep calls it, so its
# self time is the tick loop's own work.
WRAPPED = (
    ("coopnav.cli", "run", "engine"),
    ("coopnav.engine", "derive_rng", "engine"),
    ("coopnav.engine", "guidance_step", "mission"),
    ("coopnav.engine", "advance_truth", "mission"),
    ("coopnav.engine", "point_segment_distance", "mission"),
    ("coopnav.engine", "plan_lawnmower", "mission"),
    ("coopnav.engine", "dead_reckon_step", "nav"),
    ("coopnav.engine", "depth_update", "nav"),
    ("coopnav.engine", "apply_fix", "nav"),
    ("coopnav.engine", "KinematicInput", "nav"),
    ("coopnav.engine", "build_conflict_graph", "conflict"),
    ("coopnav.engine", "greedy_color", "conflict"),
    ("coopnav.engine", "asv_positions", "formation"),
    ("coopnav.protocol", "attempt_fix", "acoustic"),
    ("coopnav.protocol", "fuse_fixes", "acoustic"),
    ("coopnav.protocol", "TdmaScheduler.step", "protocol"),
    ("coopnav.protocol", "TdmaScheduler.due_auvs", "protocol"),
    ("coopnav.protocol", "TdmaScheduler.start_round", "protocol"),
    ("coopnav.cli", "report_row", "cli"),
)
# the benchmark's own root span around one ``coopnav sweep`` invocation
ROOT_SPAN = ("sweep", "cli")


def span_name(attr: str) -> str:
    return attr.rsplit(".", 1)[-1]


def layer_of() -> dict[str, str]:
    out = {span_name(attr): layer for _, attr, layer in WRAPPED}
    out[ROOT_SPAN[0]] = ROOT_SPAN[1]
    return out


def lookup(module: str, attr: str):
    """(owner, name, current value) of a wrapped name; raises if it is gone."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    value = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
    return owner, name, value


@contextlib.contextmanager
def patched(replacements):
    """Set (owner, name, value) attributes for the block, then restore them."""
    saved = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner)[name]))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Tracer:
    """Records spans and call counts for one traced sweep pass.

    ``cost`` is the (inside, outside) seconds of tracer bookkeeping per span
    that ``layer_self_s`` subtracts; see ``span_cost``.
    """

    def __init__(self, keep_spans: int = 0, cost: tuple[float, float] = (0.0, 0.0)):
        self.keep_spans = keep_spans
        self.cost = cost
        self.spans: list[list] = []            # [name, start, end, parent index]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.children: Counter = Counter()     # child spans closed inside a name
        self.counts: Counter = Counter()       # outcome counters, see _observe
        self._stack: list[list] = []           # [span index, child seconds, child spans]

    def span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        self_s, calls, keep = self.self_s, self.calls, self.keep_spans
        children = self.children
        perf = time.perf_counter

        def traced(*args, **kwargs):
            start = perf()
            idx = -1
            if len(spans) < keep:
                idx = len(spans)
                spans.append([name, start, 0.0, stack[-1][0] if stack else -1])
            frame = [idx, 0.0, 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                children[name] += frame[2]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1
                if idx >= 0:
                    spans[idx][2] = end
        return traced

    def _observe(self, name: str, fn):
        """Count the outcomes the per-layer ratios need, around ``fn``."""
        counts = self.counts
        if name == "attempt_fix":
            def observed(*args, **kwargs):
                fix = fn(*args, **kwargs)
                counts["fixes"] += fix is not None
                return fix
        elif name == "fuse_fixes":
            def observed(fixes, *args, **kwargs):
                counts["multi_anchor_fusions"] += len(fixes) >= 2
                return fn(fixes, *args, **kwargs)
        elif name == "step":
            def observed(sched, *args, **kwargs):
                n_events = len(sched.events)
                delivered = fn(sched, *args, **kwargs)
                counts["useful_steps"] += bool(delivered) or len(sched.events) > n_events
                return delivered
        elif name == "start_round":
            def observed(sched, graph, coloring, *args, **kwargs):
                counts["groups"] += coloring.k
                return fn(sched, graph, coloring, *args, **kwargs)
        else:
            return fn
        return observed

    def replacements(self, cli_run):
        """Span-wrapped replacements for every name in WRAPPED that exists.

        ``cli_run`` is what the ``run`` span wraps in place of the current
        ``coopnav.cli.run`` (the benchmark's mission timer).  A name that is
        gone gets no span, so its call count stays 0 and the coverage check
        of the traced run fails.
        """
        out = []
        for module, attr, _ in WRAPPED:
            try:
                owner, name, value = lookup(module, attr)
            except (AttributeError, KeyError, ImportError):
                continue
            if (module, attr) == ("coopnav.cli", "run"):
                value = cli_run
            out.append((owner, name, self.span(name, self._observe(name, value))))
        return out

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer, net of the tracer's own per-span cost."""
        layers = layer_of()
        inside, outside = self.cost
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            net = secs - self.calls[name] * inside - self.children[name] * outside
            out[layers[name]] += max(net, 0.0)
        return out


def span_cost(n: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Median (inside, outside) seconds of tracer bookkeeping per span.

    Times ``n`` calls of a no-op, plain and span-wrapped under a parent span.
    Inside is the wrapped no-op's self time per call less a plain call;
    outside is the parent's self time per child less a plain call and its
    loop step.
    """
    def noop():
        pass

    def plain():
        for _ in range(n):
            noop()

    perf = time.perf_counter
    inside, outside = [], []
    for _ in range(repeats):
        t0 = perf()
        for _ in range(n):
            pass
        t1 = perf()
        plain()
        t2 = perf()
        loop_s, plain_s = t1 - t0, t2 - t1
        tracer = Tracer()
        child = tracer.span("child", noop)

        def wrapped():
            for _ in range(n):
                child()

        tracer.span("parent", wrapped)()
        inside.append((tracer.self_s["child"] - (plain_s - loop_s)) / n)
        outside.append((tracer.self_s["parent"] - plain_s) / n)
    return statistics.median(inside), statistics.median(outside)
