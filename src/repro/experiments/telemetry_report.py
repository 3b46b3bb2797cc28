"""``fancy-repro telemetry`` — the observability summary command.

Runs one canonical detection scenario (the §5.1 two-switch setup in
``full`` mode: a dedicated counter *and* the hash tree watching a failed
entry plus background traffic) under a live
:class:`~repro.telemetry.Telemetry` session with profiling enabled, then
prints:

* the per-entry **detection records** (failure injected → flagged
  latency, counting sessions used, cumulative control bytes);
* the **timeline summary** (event counts: FSM transitions, session
  open/close, zooming descent, detections);
* the **metric catalogue** — every instrument family the run produced,
  with kind, label-set count, and aggregate value;
* the **hotspot profile** — event-engine callbacks ranked by total wall
  time (``sim_callback_seconds``).

With ``--out DIR`` the command also writes the machine-readable
artifacts: ``telemetry-timeline.jsonl`` (the full state timeline, one
event per line) and ``telemetry-metrics.prom`` (Prometheus text
exposition format), plus ``telemetry.txt`` with the rendered summary.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..runtime.context import RuntimeContext, resolve
from ..telemetry.export import hotspots, to_prometheus
from ..telemetry.session import Telemetry
from ..telemetry.registry import Counter, Gauge, Histogram
from ..traffic.synthetic import EntrySize
from .runner import ExperimentSpec, run_entry_failure

__all__ = ["main"]


def _build_spec(quick: bool, seed: int) -> ExperimentSpec:
    if quick:
        return ExperimentSpec(
            entry_size=EntrySize(1e6, 50),
            loss_rate=1.0,
            mode="full",
            duration_s=8.0,
            max_pps_per_entry=300,
            n_background=5,
            seed=seed,
        )
    return ExperimentSpec(
        entry_size=EntrySize(1e6, 50),
        loss_rate=1.0,
        mode="full",
        duration_s=30.0,
        n_background=10,
        seed=seed,
    )


def _family_line(name: str, instruments: list) -> str:
    first = instruments[0]
    if isinstance(first, Counter):
        total = sum(i.value for i in instruments)
        agg = f"total={total:g}"
    elif isinstance(first, Gauge):
        peak = max(i.max_value for i in instruments)
        agg = f"peak={peak:g}"
    elif isinstance(first, Histogram):
        count = sum(i.count for i in instruments)
        total = sum(i.total for i in instruments)
        agg = f"count={count:g} sum={total:.6g}"
    else:  # pragma: no cover - no other kinds exist
        agg = ""
    return f"  {name:<34} {first.kind:<9} series={len(instruments):<4} {agg}"


def render(session: Telemetry, result) -> str:
    lines: list[str] = []
    lines.append("Telemetry summary — canonical detection scenario (mode=full)")
    lines.append("=" * 62)

    lines.append("")
    lines.append("Detection records (failure injected -> entry flagged):")
    records = session.detection_records()
    if not records:
        lines.append("  (none)")
    for rec in records:
        latency = (f"{rec.latency * 1000:.1f} ms" if rec.detected
                   else "not detected")
        lines.append(
            f"  entry={rec.entry or '<uniform>'}  kind={rec.kind}  "
            f"latency={latency}  "
            f"sessions={rec.sessions_used}  control_bytes={rec.control_bytes}"
        )
    lines.append(
        f"  scored by experiments.metrics: tpr={result.tpr:.2f}  "
        f"detection_times={[round(t, 4) for t in result.detection_times]}"
    )

    lines.append("")
    lines.append("Timeline events:")
    for event, count in sorted(session.timeline.counts().items()):
        lines.append(f"  {event:<22} {count}")
    if session.timeline.suppressed:
        lines.append(f"  (truncated: {session.timeline.suppressed} suppressed)")

    lines.append("")
    lines.append("Metric catalogue:")
    for name, instruments in session.metrics.families().items():
        lines.append(_family_line(name, instruments))

    lines.append("")
    lines.append("Hotspots (event-engine callbacks by total wall time):")
    ranked = hotspots(session.metrics)
    if not ranked:
        lines.append("  (profiling disabled)")
    for spot in ranked:
        lines.append(
            f"  {spot['callback']:<44} calls={spot['calls']:<8g} "
            f"total={spot['total_s'] * 1000:.1f} ms  "
            f"mean={spot['mean_s'] * 1e6:.1f} us"
        )
    return "\n".join(lines)


def main(quick: bool = True, runtime: Optional[RuntimeContext] = None,
         out_dir=None) -> str:
    runtime = resolve(runtime)
    session = Telemetry(profile=True)
    spec = _build_spec(quick, runtime.seed)
    result = run_entry_failure(spec, rep=0, telemetry=session)
    text = render(session, result)

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        timeline_path = out / "telemetry-timeline.jsonl"
        timeline_path.write_text(session.timeline.to_jsonl())
        prom_path = out / "telemetry-metrics.prom"
        prom_path.write_text(to_prometheus(session.metrics))
        text += (
            "\n\nArtifacts:\n"
            f"  timeline : {timeline_path}\n"
            f"  metrics  : {prom_path}"
        )

    print(text)
    return text
