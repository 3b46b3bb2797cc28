"""Layer map and boundary tracer for the perf benchmark.

The layers are this repository's modules (see ``README.md``).  The tracer
is a ``sys.setprofile`` hook living entirely in the benchmark: a *span*
opens when control crosses from one layer's code into another's and
closes when that frame returns.  Code that belongs to no layer (stdlib,
builtins, the harness itself) is charged to the innermost enclosing
layer, so a layer's self time is its spans' duration minus the child
spans they cover, and the self times add up to the traced wall.

Spans are aggregated in memory per (parent -> layer) edge; the first
``max_raw`` spans are also kept verbatim as a Chrome-trace sample.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional

#: Repository checkout this file sits in (``benchmarks/perf/trace.py``).
REPO_ROOT = Path(__file__).resolve().parents[2]
REPRO_DIR = REPO_ROOT / "src" / "repro"

#: Time outside every layer: the harness frame that calls the workload.
ROOT = "harness"

LAYERS = (
    "simulator.engine",
    "simulator.link",
    "simulator.switch",
    "simulator.udp",
    "simulator.tcp",
    "simulator.fluid",
    "core.protocol",
    "core.counters",
    "core.zooming",
    "core.detector",
    "fabric",
    "runtime",
    "service",
    "telemetry",
    "experiments",
)

#: Package default, for files that ``_FILE_LAYER`` does not single out.
_PACKAGE_LAYER = {
    "core": "core.detector",
    "fabric": "fabric",
    "runtime": "runtime",
    "service": "service",
    "chaos": "service",
    "telemetry": "telemetry",
    "obs": "telemetry",
    "experiments": "experiments",
    "traffic": "experiments",
}

_FILE_LAYER = {
    "simulator/__init__.py": "simulator.engine",
    "simulator/engine.py": "simulator.engine",
    "simulator/link.py": "simulator.link",
    "simulator/packet.py": "simulator.link",
    "simulator/failures.py": "simulator.link",
    "simulator/fastpath.py": "simulator.link",
    "simulator/switch.py": "simulator.switch",
    "simulator/topology.py": "simulator.switch",
    "simulator/udp.py": "simulator.udp",
    "simulator/tcp.py": "simulator.tcp",
    "simulator/apps.py": "simulator.tcp",
    "simulator/fluid.py": "simulator.fluid",
    "simulator/tracing.py": "telemetry",
    "core/protocol.py": "core.protocol",
    "core/statesync.py": "core.protocol",
    "core/counters.py": "core.counters",
    "core/hashtree.py": "core.counters",
    "core/bloom.py": "core.counters",
    "core/zooming.py": "core.zooming",
    "fabric/sharding.py": "runtime",
}


def layer_of(filename: str, repro_dir: Path = REPRO_DIR) -> Optional[str]:
    """Layer owning source file ``filename``; None outside every layer."""
    prefix = str(repro_dir) + "/"
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):]
    layer = _FILE_LAYER.get(rel)
    if layer is None:
        layer = _PACKAGE_LAYER.get(rel.split("/", 1)[0])
    return layer


class BoundaryTracer:
    """Record one span per layer-boundary crossing on the calling thread.

    Use as a context manager around the call to trace.  The profile hook
    that was installed before is put back on exit.

    Attributes (valid after exit):
        wall_s: traced wall time.
        self_s: layer -> self seconds (``ROOT`` holds the harness's own).
        edges: ``(parent, layer)`` -> ``(spans, inclusive seconds)``.
        span_count: spans opened.
        raw: the first ``max_raw`` spans as ``(id, layer, parent layer,
            parent span id or None, start_s, end_s)``, times relative
            to the tracer's start.
    """

    def __init__(self, layer_of_file: Callable[[str], Optional[str]] = layer_of,
                 max_raw: int = 20_000,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self._layer_of_file = layer_of_file
        self._max_raw = max_raw
        self._clock = clock
        self._names = (ROOT,) + LAYERS
        self.wall_s = 0.0
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], tuple[int, float]] = {}
        self.span_count = 0
        self.raw: list[tuple[int, str, str, Optional[int], float, float]] = []

    def __enter__(self) -> "BoundaryTracer":
        self._previous = sys.getprofile()
        self._hook, self._finish = self._build()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc: Any) -> None:
        sys.setprofile(self._previous)
        self._finish()

    def _build(self) -> tuple[Callable[..., None], Callable[[], None]]:
        names = self._names
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        layer_of_file = self._layer_of_file
        clock = self._clock
        max_raw = self._max_raw
        code_layer: dict[Any, int] = {}   # code object -> layer index, 0 = none
        self_s = [0.0] * n
        calls = [0] * (n * n)
        inclusive = [0.0] * (n * n)
        raw: list[tuple[int, int, int, int, float, float]] = []
        #: Open spans, innermost last: (parent layer, start, span id,
        #: parent span id or -1, frame that opened the parent span).
        #: Frames that stay inside the current layer leave no entry — a
        #: span closes when the very frame that opened it returns.
        stack: list[tuple[int, float, int, int, Any]] = []
        push, pop = stack.append, stack.pop
        started = clock()
        cur = 0
        cur_span = -1
        cur_frame: Any = None
        last = started
        spans = 0

        def hook(frame: Any, event: str, arg: Any) -> None:
            nonlocal cur, cur_span, cur_frame, last, spans
            if event == "call":
                code = frame.f_code
                layer = code_layer.get(code)
                if layer is None:
                    name = layer_of_file(code.co_filename)
                    layer = code_layer[code] = index[name] if name else 0
                if layer == 0 or layer == cur:
                    return
                now = clock()
                self_s[cur] += now - last
                last = now
                push((cur, now, spans, cur_span, cur_frame))
                calls[cur * n + layer] += 1
                cur_span = spans
                cur_frame = frame
                spans += 1
                cur = layer
            elif frame is cur_frame and event == "return":
                now = clock()
                self_s[cur] += now - last
                last = now
                parent, start, span_id, cur_span, cur_frame = pop()
                inclusive[parent * n + cur] += now - start
                if span_id < max_raw:
                    raw.append((span_id, cur, parent, cur_span, start, now))
                cur = parent

        def finish() -> None:
            ended = clock()
            self_s[cur] += ended - last
            self.wall_s = ended - started
            self.self_s = {names[i]: self_s[i] for i in range(n)}
            self.edges = {
                (names[k // n], names[k % n]): (calls[k], inclusive[k])
                for k in range(n * n) if calls[k]
            }
            self.span_count = spans
            self.raw = sorted(
                (sid, names[layer], names[parent],
                 None if parent_span < 0 else parent_span,
                 start - started, end - started)
                for sid, layer, parent, parent_span, start, end in raw)

        return hook, finish

    # -- derived views -------------------------------------------------------

    def calls_in(self) -> dict[str, int]:
        """Boundary crossings into each layer (exact, repeats run to run)."""
        out = {name: 0 for name in LAYERS}
        for (_parent, layer), (count, _incl) in self.edges.items():
            out[layer] += count
        return out

    def coverage(self) -> float:
        """Share of the traced wall spent inside some layer."""
        if self.wall_s <= 0:
            return 0.0
        return sum(self.self_s[name] for name in LAYERS) / self.wall_s

    def to_dict(self, run_id: str) -> dict[str, Any]:
        """JSON rendering: aggregates plus the raw span sample."""
        return {
            "run_id": run_id,
            "wall_s": self.wall_s,
            "span_count": self.span_count,
            "coverage": self.coverage(),
            "self_s": dict(self.self_s),
            "calls_in": self.calls_in(),
            "edges": [
                {"parent": parent, "layer": layer, "spans": count,
                 "inclusive_s": incl}
                for (parent, layer), (count, incl) in sorted(self.edges.items())
            ],
            "raw_spans": [
                {"id": sid, "run": run_id, "name": layer, "parent": parent,
                 "parent_id": parent_span, "start_s": start, "end_s": end}
                for sid, layer, parent, parent_span, start, end in self.raw
            ],
        }


def self_times(spans: list[tuple[int, str, str, Optional[int], float, float]]
               ) -> dict[str, float]:
    """Self time per layer from raw spans, by the plain definition: each
    span's duration minus what its direct children cover.

    The tracer computes the same quantity incrementally; this checks it
    on a raw span sample.
    """
    own = {s[0]: s[5] - s[4] for s in spans}
    for _sid, _layer, _parent, parent_span, start, end in spans:
        if parent_span is not None and parent_span in own:
            own[parent_span] -= end - start
    out: dict[str, float] = {}
    for sid, layer, *_rest in spans:
        out[layer] = out.get(layer, 0.0) + own[sid]
    return out


def chrome_trace(raw_spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Chrome-trace (Perfetto-loadable) object for a raw span sample."""
    return {"traceEvents": [
        {"name": s["name"], "cat": s["parent"], "ph": "X", "pid": 1, "tid": 1,
         "ts": s["start_s"] * 1e6, "dur": (s["end_s"] - s["start_s"]) * 1e6,
         "args": {"id": s["id"], "run": s["run"], "parent": s["parent"]}}
        for s in raw_spans
    ]}
