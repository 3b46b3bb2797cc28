"""Self-contained offline HTML dashboard for fabric health + traces.

:func:`render_html` produces one static page — inline CSS, no scripts,
no external assets (fonts, CDNs, images), so the artifact CI uploads
renders identically from a file:// URL on an air-gapped laptop.  Input
is the serialization-boundary shape the fabric experiments cache:
``{"name", "health" (FabricHealthReport.to_dict()), "spans" (span
dicts)}`` per section, so the renderer works equally off a live run or
a cached/unpickled result.  The spans are walked twice and never
grouped, so they may come decoded from a packed trace on each walk
(:class:`~repro.obs.trace.JsonlSpans`), and :func:`html_pieces` hands
the page out a piece at a time.

Layout per section: summary tiles → topology table → per-link health
table (status colour-coded) → one trace waterfall per detection episode
(spans as %-positioned bars on the episode's time axis, coloured by
category).
"""

from __future__ import annotations

import html
from collections.abc import Iterable, Iterator
from typing import Any

__all__ = ["html_pieces", "render_html"]

#: Category → bar colour (matches CATEGORIES in repro.obs.trace).
_CAT_COLORS = {
    "cause": "#b5651d",
    "fsm": "#8fa3bf",
    "protocol": "#4a6fa5",
    "control": "#9bc4e2",
    "counters": "#d9822b",
    "zoom": "#7b4fa6",
    "detect": "#c0392b",
    "reroute": "#27874f",
    "chaos": "#777777",
    "ladder": "#8e6fa8",
}

_STATUS_COLORS = {
    "healthy": "#27874f",
    "degraded": "#d9822b",
    "use_last_state": "#b8a53c",
    "freeze": "#8e6fa8",
    "flagged": "#c0392b",
    "declared": "#7b1f1f",
    "rerouted": "#4a6fa5",
}

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace;
       margin: 24px; background: #fafafa; color: #222; }
h1 { font-size: 20px; } h2 { font-size: 16px; margin-top: 32px; }
h3 { font-size: 13px; margin: 18px 0 6px; }
table { border-collapse: collapse; margin: 8px 0 16px; font-size: 12px; }
th, td { border: 1px solid #ccc; padding: 3px 8px; text-align: left; }
th { background: #eee; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin: 12px 0; }
.tile { background: #fff; border: 1px solid #ddd; border-radius: 6px;
        padding: 8px 14px; }
.tile .v { font-size: 18px; font-weight: bold; }
.tile .k { font-size: 11px; color: #666; }
.badge { padding: 1px 7px; border-radius: 9px; color: #fff;
         font-size: 11px; }
.wf { position: relative; background: #fff; border: 1px solid #ddd;
      margin: 4px 0 14px; padding: 2px 0; }
.row { position: relative; height: 16px; }
.bar { position: absolute; height: 12px; top: 2px; border-radius: 2px;
       min-width: 3px; opacity: 0.9; }
.lbl { position: absolute; left: 4px; font-size: 10px; color: #333;
       line-height: 16px; white-space: nowrap; pointer-events: none; }
.axis { font-size: 10px; color: #666; margin-bottom: 2px; }
.legend span { margin-right: 10px; font-size: 11px; }
.note { font-size: 11px; color: #666; }
"""

#: Waterfalls rendered per section before truncating with a note.
_MAX_WATERFALLS = 12
#: Rows drawn per waterfall; a longer trace ends with a note row.
_MAX_ROWS = 200


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _badge(status: str) -> str:
    color = _STATUS_COLORS.get(status, "#555")
    return f'<span class="badge" style="background:{color}">{_esc(status)}</span>'


def _tiles(summary: dict[str, Any]) -> str:
    latency = summary.get("detection_latency", {})
    mean = latency.get("mean")
    tiles = [
        ("links", summary.get("links", 0)),
        ("sessions", summary.get("sessions_completed", 0)),
        ("detections", summary.get("detections", 0)),
        ("mean detect latency",
         "-" if mean is None else f"{mean * 1e3:.0f} ms"),
        ("unattributed (FP)", summary.get("unattributed_detections", 0)),
        ("sim time", f"{summary.get('sim_time', 0.0):.2f} s"),
    ]
    breaches = summary.get("invariant_breaches") or {}
    tiles.append(("invariant breaches", sum(breaches.values())))
    if summary.get("absorbed_exhaustions"):
        tiles.append(("absorbed exhaustions",
                      summary["absorbed_exhaustions"]))
    cells = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>' for k, v in tiles)
    # one colour-coded tile per status rung — the lattice at a glance
    status_cells = "".join(
        f'<div class="tile" style="border-top:3px solid '
        f'{_STATUS_COLORS.get(status, "#555")}">'
        f'<div class="v">{_esc(n)}</div>'
        f'<div class="k">{_esc(status)}</div></div>'
        for status, n in (summary.get("status") or {}).items())
    out = f'<div class="tiles">{cells}</div>'
    if status_cells:
        out += f'<div class="tiles">{status_cells}</div>'
    return out


def _topology_table(topology: list[dict[str, Any]]) -> str:
    if not topology:
        return '<p class="note">no topology recorded</p>'
    rows = "".join(
        f"<tr><td>{_esc(n['node'])}</td><td>{_esc(n['degree'])}</td>"
        f"<td>{_esc(', '.join(n['neighbors']))}</td>"
        f"<td>{_esc(n.get('monitored_out', 0))}</td></tr>"
        for n in topology)
    return ("<table><tr><th>node</th><th>degree</th><th>neighbors</th>"
            f"<th>monitored out-links</th></tr>{rows}</table>")


def _links_table(links: list[dict[str, Any]]) -> str:
    rows = []
    for link in links:
        latencies = link.get("detection_latencies", [])
        lat = f"{min(latencies) * 1e3:.0f} ms" if latencies else "-"
        detections = link.get("detections", {})
        det = ", ".join(f"{k}×{v}" for k, v in sorted(detections.items())) \
            or "-"
        rows.append(
            f"<tr><td>{_esc(link['link'])}</td>"
            f"<td>{_badge(link['status'])}</td>"
            f"<td>{_esc(link.get('sessions_completed', 0))}</td>"
            f"<td>{_esc(det)}</td>"
            f"<td>{_esc(', '.join(link.get('flagged_entries', [])) or '-')}"
            f"</td><td>{_esc(lat)}</td>"
            f"<td>{_esc(', '.join(link.get('rerouted_entries', [])) or '-')}"
            f"</td><td>{_esc(link.get('unattributed_detections', 0))}</td>"
            f"<td>{_esc(link.get('traces', 0))}/{_esc(link.get('spans', 0))}"
            f"</td></tr>")
    return ("<table><tr><th>link</th><th>status</th><th>sessions</th>"
            "<th>detections</th><th>flagged entries</th><th>latency</th>"
            "<th>rerouted</th><th>FP</th><th>traces/spans</th></tr>"
            + "".join(rows) + "</table>")


def _trace_bounds(spans: Iterable[dict[str, Any]]) -> dict[str, list[Any]]:
    """Trace id -> ``[t0, t1, span count, scope]``, in encounter order."""
    bounds: dict[str, list[Any]] = {}
    for span in spans:
        start = span["start"]
        end = span["end"] if span["end"] is not None else start
        b = bounds.get(span["trace"])
        if b is None:
            bounds[span["trace"]] = [start, end, 1, span.get("scope", "")]
        else:
            b[0] = min(b[0], start)
            b[1] = max(b[1], end)
            b[2] += 1
    return bounds


def _waterfall_head(trace_id: str, t0: float, t1: float, count: int,
                    scope: str) -> str:
    head = (f"<h3>{_esc(trace_id)}"
            + (f' <span class="note">on {_esc(scope)}</span>' if scope else "")
            + "</h3>")
    axis = (f'<div class="axis">t = {t0:.4f} s … {t1:.4f} s '
            f"({(t1 - t0) * 1e3:.1f} ms, {count} spans)</div>")
    return head + axis + '<div class="wf">'


def _waterfall_row(span: dict[str, Any], t0: float, t1: float) -> str:
    width = max(t1 - t0, 1e-9)
    end = span["end"] if span["end"] is not None else t1
    left = (span["start"] - t0) / width * 100.0
    bar_w = max((end - span["start"]) / width * 100.0, 0.35)
    color = _CAT_COLORS.get(span["cat"], "#555")
    attrs = "; ".join(f"{k}={v}" for k, v in span["attrs"].items())
    tip = (f"{span['cat']}:{span['name']} "
           f"t={span['start']:.4f}s d={end - span['start']:.4f}s"
           + (f" [{attrs}]" if attrs else ""))
    return (f'<div class="row"><div class="bar" title="{_esc(tip)}" '
            f'style="left:{left:.2f}%;width:{bar_w:.2f}%;'
            f'background:{color}"></div>'
            f'<div class="lbl">{_esc(span["name"])}</div></div>')


def _waterfalls(spans: Iterable[dict[str, Any]],
                bounds: dict[str, list[Any]]) -> Iterator[str]:
    """The first ``_MAX_WATERFALLS`` traces' waterfalls, one row at a time.

    A second walk over ``spans``: rows of the trace being written go out
    as they come, rows of a later shown trace wait for its turn, and the
    walk stops once every shown trace is complete.  A waterfall draws its
    first ``_MAX_ROWS`` spans and ends with a note row counting the rest,
    so no trace waits with more than that many rows.
    """
    shown = list(bounds)[:_MAX_WATERFALLS]
    waiting: dict[str, list[str]] = {trace: [] for trace in shown[1:]}
    left = {trace: bounds[trace][2] for trace in shown}
    turn = 0
    yield _waterfall_head(shown[0], *bounds[shown[0]])
    for span in spans:
        trace = span["trace"]
        if trace not in left:
            continue
        t0, t1, count = bounds[trace][:3]
        if count - left[trace] < _MAX_ROWS:
            if trace == shown[turn]:
                yield _waterfall_row(span, t0, t1)
            else:
                waiting[trace].append(_waterfall_row(span, t0, t1))
        left[trace] -= 1
        while left[shown[turn]] == 0:
            yield _waterfall_tail(bounds[shown[turn]][2])
            turn += 1
            if turn == len(shown):
                return
            yield _waterfall_head(shown[turn], *bounds[shown[turn]])
            yield from waiting.pop(shown[turn])
    raise ValueError("spans must be re-iterable: the second walk ended "
                     "before every shown trace was complete")


def _waterfall_tail(count: int) -> str:
    if count <= _MAX_ROWS:
        return "</div>"
    return (f'<div class="row"><div class="lbl">… {count - _MAX_ROWS} '
            "more spans in the JSONL export</div></div></div>")


def _legend() -> str:
    parts = "".join(
        f'<span><span class="badge" style="background:{color}">'
        f"{_esc(cat)}</span></span>"
        for cat, color in _CAT_COLORS.items())
    return f'<div class="legend">{parts}</div>'


def render_html(sections: list[dict[str, Any]],
                title: str = "FANcY fabric health report") -> str:
    """Render health + trace sections into one offline HTML page.

    Each section: ``{"name": str, "health": FabricHealthReport.to_dict()
    shape, "spans": span dicts}`` — ``health``/``spans`` may each be
    missing/empty.  ``spans`` is walked twice (trace bounds, then rows),
    so it may be any re-iterable source, e.g. one that decodes a trace
    JSONL on each walk.
    """
    return "".join(html_pieces(sections, title))


def html_pieces(sections: list[dict[str, Any]],
                title: str = "FANcY fabric health report") -> Iterator[str]:
    """:func:`render_html`'s page in pieces, for writing as it renders:
    no waterfall is held whole, and no span beyond the one being read."""
    yield ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
           f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
           "<body>")
    yield f"<h1>{_esc(title)}</h1>"
    for section in sections:
        yield f"<h2>{_esc(section.get('name', 'fabric'))}</h2>"
        health = section.get("health") or {}
        if health:
            yield _tiles(health.get("summary", {}))
            yield "<h3>topology</h3>"
            yield _topology_table(health.get("topology", []))
            yield "<h3>per-link health</h3>"
            yield _links_table(health.get("links", []))
        spans = section.get("spans") or []
        bounds = _trace_bounds(spans)
        if bounds:
            yield "<h3>detection traces</h3>"
            yield _legend()
            yield from _waterfalls(spans, bounds)
            if len(bounds) > _MAX_WATERFALLS:
                yield (f'<p class="note">… {len(bounds) - _MAX_WATERFALLS} '
                       "more trace(s) in the JSONL export</p>")
        elif health:
            yield '<p class="note">no detection traces recorded</p>'
    yield "</body></html>\n"
