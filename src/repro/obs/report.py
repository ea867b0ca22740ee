"""Self-contained HTML dashboard for observability artifacts.

``render_dashboard`` turns a flight-recorder payload (plus optional
critical-path analysis and metrics snapshot) into one dependency-free
HTML file: inline SVG sparklines for every recorded series, a
partition-load heatmap, the SLO/skew alert timeline, critical-path blame
tables and metric rollups.  No external scripts, stylesheets, fonts or
images — the file renders offline and the CI job checks exactly that.

Design notes (reference data-viz palette, used unchanged):

* sparklines are single-series 2px lines in the slot-1 categorical blue
  — one series per plot, so the title carries identity and no legend is
  needed;
* the heatmap encodes magnitude with the sequential blue ramp
  (light -> dark, lightest = near zero) with a 2px surface gap between
  cells;
* alert rows use the reserved status colors *with* an icon + label, so
  state never rides on color alone;
* text stays in ink tokens, never series colors; native ``<title>``
  tooltips give every mark a hover value.

Rendering is pure formatting of its inputs (sorted iteration, fixed
float formats, no timestamps), so the same artifact bytes always produce
the same dashboard bytes.  ``validate_dashboard`` checks well-formedness
(balanced tags via ``html.parser``), required section ids, and the
absence of external resource references.
"""

from __future__ import annotations

import html as _html
from html.parser import HTMLParser
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["render_dashboard", "write_dashboard", "validate_dashboard",
           "REQUIRED_SECTIONS"]

#: every dashboard carries these section ids (placeholders when empty)
REQUIRED_SECTIONS = ("summary", "series", "heatmap", "skew", "alerts",
                    "critpath", "metrics")

#: sequential blue ramp, steps 100 -> 700 (lightest = near zero)
_SEQ_RAMP = ("#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
             "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
             "#184f95", "#104281", "#0d366b")

_MAX_SPARKLINES = 64
_MAX_METRIC_ROWS = 300
_MAX_EVENT_ROWS = 200

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb; --page: #f9f9f7;
  --ink-1: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6;
  --status-good: #0ca30c; --status-warning: #fab219;
  --status-serious: #ec835a; --status-critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface-1: #1a1a19; --page: #0d0d0d;
    --ink-1: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5;
  }
}
body { background: var(--page); color: var(--ink-1); margin: 0;
       font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 1080px; margin: 0 auto; padding: 24px 20px 64px; }
h1 { font-size: 20px; font-weight: 600; margin: 0 0 4px; }
h2 { font-size: 15px; font-weight: 600; margin: 28px 0 8px; }
.sub { color: var(--ink-2); margin: 0 0 16px; }
section { background: var(--surface-1); border: 1px solid var(--border);
          border-radius: 8px; padding: 14px 16px; margin: 14px 0; }
.empty { color: var(--muted); }
table { border-collapse: collapse; width: 100%; margin: 6px 0; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--baseline); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
     font-variant-numeric: tabular-nums; }
td.name { font-variant-numeric: normal; }
.sparks { display: flex; flex-wrap: wrap; gap: 12px; }
.spark { width: 244px; }
.spark .label { color: var(--ink-2); font-size: 12px;
                overflow: hidden; text-overflow: ellipsis;
                white-space: nowrap; }
.spark .val { color: var(--muted); font-size: 11px;
              font-variant-numeric: tabular-nums; }
.bar { background: var(--series-1); height: 8px; border-radius: 0 4px 4px 0;
       display: inline-block; vertical-align: middle; }
.status { font-weight: 600; }
.status.alert { color: var(--status-critical); }
.status.hot { color: var(--status-serious); }
.status.clear { color: var(--status-good); }
svg text { fill: var(--muted); font-size: 10px; }
"""


def _esc(value) -> str:
    return _html.escape(str(value), quote=True)


def _num(value) -> str:
    """Fixed, locale-free number formatting (deterministic output)."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    return _esc(value)


def _sparkline(name: str, times: Sequence[float],
               values: Sequence[float]) -> str:
    """One labelled inline-SVG sparkline (2px line, last-value dot)."""
    w, h, pad = 240, 40, 3
    vmin = min(values)
    vmax = max(values)
    tmin = min(times[0], times[-1])
    tspan = (max(times[0], times[-1]) - tmin) or 1.0
    vspan = (vmax - vmin) or 1.0
    pts = []
    for t, v in zip(times, values):
        x = pad + (w - 2 * pad) * (t - tmin) / tspan
        y = h - pad - (h - 2 * pad) * (v - vmin) / vspan
        pts.append(f"{x:.1f},{y:.1f}")
    last = pts[-1].split(",")
    tip = (f"{name}: last {_num(values[-1])}, "
           f"min {_num(vmin)}, max {_num(vmax)}, n={len(values)}")
    return (
        '<div class="spark">'
        f'<div class="label" title="{_esc(name)}">{_esc(name)}</div>'
        f'<svg viewBox="0 0 {w} {h}" width="{w}" height="{h}" '
        'role="img"><title>' + _esc(tip) + "</title>"
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
        'stroke="var(--baseline)" stroke-width="1"></line>'
        f'<polyline points="{" ".join(pts)}" fill="none" '
        'stroke="var(--series-1)" stroke-width="2" '
        'stroke-linejoin="round" stroke-linecap="round"></polyline>'
        f'<circle cx="{last[0]}" cy="{last[1]}" r="3" '
        'fill="var(--series-1)"></circle></svg>'
        f'<div class="val">last {_num(values[-1])} · '
        f'min {_num(vmin)} · max {_num(vmax)}</div>'
        "</div>"
    )


def _series_section(flight: Optional[Dict]) -> str:
    if not flight or not flight.get("series"):
        return '<p class="empty">No flight-recorder series.</p>'
    names = sorted(flight["series"])
    shown = names[:_MAX_SPARKLINES]
    parts = ['<div class="sparks">']
    for name in shown:
        ts = flight["series"][name]
        if len(ts.get("values", [])) < 2:
            continue
        parts.append(_sparkline(name, ts["times"], ts["values"]))
    parts.append("</div>")
    if len(names) > len(shown):
        parts.append(f'<p class="empty">Showing {len(shown)} of '
                     f"{len(names)} series (sorted by name).</p>")
    return "".join(parts)


def _ops_deltas(flight: Dict) -> List[Tuple[str, List[float]]]:
    """Per-tick op deltas for every ``*/ops`` partition series."""
    rows = []
    for name in sorted(flight.get("series", {})):
        if not name.endswith("/ops"):
            continue
        values = flight["series"][name].get("values", [])
        if len(values) < 2:
            continue
        deltas = [max(0.0, values[i] - values[i - 1])
                  for i in range(1, len(values))]
        rows.append((name, deltas))
    return rows


def _heatmap_section(flight: Optional[Dict]) -> str:
    rows = _ops_deltas(flight) if flight else []
    if not rows:
        return '<p class="empty">No per-partition op series recorded.</p>'
    ncols = max(len(d) for _n, d in rows)
    peak = max((max(d) for _n, d in rows if d), default=0.0)
    cell_w, cell_h, gap, label_w = 12, 14, 2, 150
    width = label_w + ncols * (cell_w + gap)
    height = len(rows) * (cell_h + gap)
    parts = [f'<svg viewBox="0 0 {width} {height}" width="{width}" '
             f'height="{height}" role="img">'
             "<title>Per-partition ops per sampling tick "
             "(darker = more load)</title>"]
    for r, (name, deltas) in enumerate(rows):
        y = r * (cell_h + gap)
        parts.append(f'<text x="0" y="{y + cell_h - 3}">'
                     f"{_esc(name)}</text>")
        for c, delta in enumerate(deltas):
            x = label_w + c * (cell_w + gap)
            if peak > 0 and delta > 0:
                idx = min(len(_SEQ_RAMP) - 1,
                          int((delta / peak) * (len(_SEQ_RAMP) - 1) + 0.5))
                fill = _SEQ_RAMP[idx]
            else:
                fill = "var(--grid)"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" '
                f'height="{cell_h}" rx="2" fill="{fill}">'
                f"<title>{_esc(name)} tick {c + 1}: "
                f"{_num(delta)} ops</title></rect>")
    parts.append("</svg>")
    parts.append('<p class="sub">Rows: partitions · columns: sampling '
                 "ticks · darker cells carry more ops.</p>")
    return "".join(parts)


def _skew_section(skew: Optional[Dict]) -> str:
    if not skew:
        return '<p class="empty">No skew-detector summary.</p>'
    parts = [
        "<p>"
        f"imbalance (max/mean) <strong>{_num(skew.get('imbalance', 0))}"
        f"</strong> · cv {_num(skew.get('cv', 0))} · "
        f"hot-partition events {_num(skew.get('hot_events', 0))} · "
        f"keys offered {_num(skew.get('keys_offered', 0))}"
        "</p>"
    ]
    tops = skew.get("top_partitions") or []
    if tops:
        parts.append("<table><tr><th>partition</th><th>node</th>"
                     "<th>ops</th><th>share</th><th></th></tr>")
        for row in tops:
            share = row.get("share", 0.0)
            parts.append(
                f'<tr><td class="name">{_esc(row.get("partition"))}</td>'
                f'<td>{_num(row.get("node"))}</td>'
                f'<td>{_num(row.get("ops"))}</td>'
                f"<td>{100 * share:.1f}%</td>"
                f'<td><span class="bar" style="width:'
                f'{max(2, int(140 * share))}px"></span></td></tr>')
        parts.append("</table>")
    keys = skew.get("top_keys") or []
    if keys:
        parts.append("<table><tr><th>hot key</th><th>count</th></tr>")
        for row in keys:
            parts.append(
                f'<tr><td class="name">{_esc(row.get("key"))}</td>'
                f'<td>{_num(row.get("count"))}</td></tr>')
        parts.append("</table>")
    return "".join(parts)


_EVENT_STATUS = {
    "slo.alert": ("alert", "▲ alert"),
    "slo.clear": ("clear", "✓ clear"),
    "skew.hot_partition": ("hot", "▲ hot partition"),
    "skew.cooled": ("clear", "✓ cooled"),
}


def _alerts_section(flight: Optional[Dict], slo: Optional[Dict]) -> str:
    events = (flight or {}).get("events") or []
    parts = []
    if slo:
        rules = slo.get("rules") or []
        parts.append(
            f"<p>{_num(slo.get('alerts', 0))} alert(s) across "
            f"{_num(len(rules))} rule(s), {_num(slo.get('ticks', 0))} "
            "evaluation ticks.</p>")
        if rules:
            parts.append("<table><tr><th>rule</th><th>target</th>"
                         "<th>threshold</th><th>windows (s)</th>"
                         "<th>alerts</th><th>state</th></tr>")
            for rule in rules:
                firing = rule.get("firing")
                state = ('<span class="status alert">▲ firing</span>'
                         if firing else
                         '<span class="status clear">✓ ok</span>')
                parts.append(
                    f'<tr><td class="name">{_esc(rule.get("rule"))}</td>'
                    f'<td>{_num(rule.get("target"))}</td>'
                    f'<td>{_num(rule.get("threshold"))}</td>'
                    f'<td>{_num(rule.get("short_window"))} / '
                    f'{_num(rule.get("long_window"))}</td>'
                    f'<td>{_num(rule.get("alerts"))}</td>'
                    f"<td>{state}</td></tr>")
            parts.append("</table>")
    if events:
        shown = events[:_MAX_EVENT_ROWS]
        parts.append("<table><tr><th>sim time (s)</th><th>event</th>"
                     "<th>detail</th></tr>")
        for entry in shown:
            t, kind, payload = entry[0], entry[1], entry[2]
            cls, label = _EVENT_STATUS.get(kind, ("", kind))
            badge = (f'<span class="status {cls}">{_esc(label)}</span>'
                     if cls else _esc(label))
            detail = ""
            if isinstance(payload, dict):
                detail = " · ".join(
                    f"{_esc(k)}={_num(payload[k])}"
                    for k in sorted(payload) if k != "t")
            parts.append(f"<tr><td>{_num(t)}</td>"
                         f'<td class="name">{badge} '
                         f"<small>({_esc(kind)})</small></td>"
                         f'<td class="name">{detail}</td></tr>')
        parts.append("</table>")
        if len(events) > len(shown):
            parts.append(f'<p class="empty">Showing {len(shown)} of '
                         f"{len(events)} events.</p>")
    if not parts:
        return '<p class="empty">No alerts or monitor events.</p>'
    return "".join(parts)


def _blame_table(blame: Dict) -> str:
    stages = blame.get("stages") or []
    if not blame.get("n") or not stages:
        return '<p class="empty">No traces.</p>'
    parts = ["<table><tr><th>stage</th><th>total (s)</th>"
             "<th>share</th><th></th></tr>"]
    for row in stages:
        share = row.get("share", 0.0)
        parts.append(
            f'<tr><td class="name">{_esc(row.get("stage"))}</td>'
            f'<td>{_num(row.get("total"))}</td>'
            f"<td>{100 * share:.1f}%</td>"
            f'<td><span class="bar" style="width:'
            f'{max(2, int(160 * share))}px"></span></td></tr>')
    parts.append("</table>")
    return "".join(parts)


def _critpath_section(critpath: Optional[Dict]) -> str:
    if not critpath or not critpath.get("traces"):
        return ('<p class="empty">No span data (run with tracing and '
                "pass <code>--spans</code>).</p>")
    parts = [
        f"<p>{_num(critpath['traces'])} traced RPCs · tiling residual "
        f"max {_num(critpath.get('tiling_max_residual', 0))} s · "
        f"{_num(critpath.get('clamped', 0))} retried trace(s) "
        "rescaled.</p>",
        "<h2>Cluster-wide stage blame</h2>",
        _blame_table(critpath.get("overall") or {}),
    ]
    slow = critpath.get("slow") or {}
    if slow.get("n"):
        q = slow.get("quantile", 0.99)
        parts.append(f"<h2>Where does p{100 * q:g} live</h2>")
        parts.append(f"<p>{_num(slow['n'])} trace(s) at or above "
                     f"{_num(slow.get('threshold', 0))} s.</p>")
        parts.append(_blame_table(slow))
    groups = critpath.get("groups") or []
    if groups:
        parts.append("<h2>Blame by (dst node, stream)</h2>")
        parts.append("<table><tr><th>dst</th><th>stream</th><th>n</th>"
                     "<th>e2e total (s)</th><th>e2e mean (s)</th>"
                     "<th>dominant stage</th></tr>")
        for g in groups:
            parts.append(
                f"<tr><td>{_num(g.get('dst'))}</td>"
                f"<td>{_num(g.get('stream'))}</td>"
                f"<td>{_num(g.get('n'))}</td>"
                f"<td>{_num(g.get('e2e_total'))}</td>"
                f"<td>{_num(g.get('e2e_mean'))}</td>"
                f'<td class="name">{_esc(g.get("dominant_stage"))} '
                f"({100 * g.get('dominant_share', 0.0):.1f}%)</td></tr>")
        parts.append("</table>")
    top = critpath.get("top_traces") or []
    if top:
        parts.append("<h2>Slowest traces</h2>")
        parts.append("<table><tr><th>trace</th><th>op</th><th>dst</th>"
                     "<th>e2e (s)</th><th>dominant stage</th></tr>")
        for t in top:
            stages = t.get("stages") or {}
            dom = max(stages, key=lambda s: stages[s]) if stages else ""
            parts.append(
                f"<tr><td>{_num(t.get('trace_id'))}</td>"
                f'<td class="name">{_esc(t.get("op"))}</td>'
                f"<td>{_num(t.get('dst'))}</td>"
                f"<td>{_num(t.get('e2e'))}</td>"
                f'<td class="name">{_esc(dom)} '
                f"({_num(stages.get(dom, 0.0))} s)</td></tr>")
        parts.append("</table>")
    return "".join(parts)


def _metrics_section(metrics: Optional[Dict]) -> str:
    if not metrics:
        return '<p class="empty">No metrics snapshot.</p>'
    names = sorted(metrics)
    shown = names[:_MAX_METRIC_ROWS]
    parts = ["<table><tr><th>metric</th><th>value</th></tr>"]
    for name in shown:
        value = metrics[name]
        if isinstance(value, dict):
            text = " · ".join(f"{_esc(k)}={_num(value[k])}"
                              for k in sorted(value))
        else:
            text = _num(value)
        parts.append(f'<tr><td class="name">{_esc(name)}</td>'
                     f'<td class="name">{text}</td></tr>')
    parts.append("</table>")
    if len(names) > len(shown):
        parts.append(f'<p class="empty">Showing {len(shown)} of '
                     f"{len(names)} metrics.</p>")
    return "".join(parts)


def _summary_section(flight: Optional[Dict], critpath: Optional[Dict],
                     metrics: Optional[Dict]) -> str:
    cells = []
    if flight:
        cells.append(f"flight recorder: {_num(flight.get('samples', 0))} "
                     f"samples at {_num(flight.get('interval', 0))} s "
                     f"cadence, {len(flight.get('series', {}))} series, "
                     f"{len(flight.get('events', []))} events")
        skew = flight.get("skew")
        if skew:
            cells.append(f"imbalance {_num(skew.get('imbalance', 0))}, "
                         f"{_num(skew.get('hot_events', 0))} "
                         "hot-partition event(s)")
        slo = flight.get("slo")
        if slo:
            cells.append(f"{_num(slo.get('alerts', 0))} SLO alert(s)")
    if critpath and critpath.get("traces"):
        cells.append(f"{_num(critpath['traces'])} traced RPCs analyzed")
    if metrics:
        cells.append(f"{len(metrics)} metrics in snapshot")
    if not cells:
        return '<p class="empty">No artifacts provided.</p>'
    return "<p>" + " · ".join(cells) + "</p>"


def render_dashboard(flight: Optional[Dict] = None,
                     critpath: Optional[Dict] = None,
                     metrics: Optional[Dict] = None,
                     title: str = "Observability report") -> str:
    """Render one run's dashboard HTML (deterministic for fixed inputs)."""
    skew = (flight or {}).get("skew")
    slo = (flight or {}).get("slo")
    sections = [
        ("summary", "Summary",
         _summary_section(flight, critpath, metrics)),
        ("series", "Flight-recorder series",
         _series_section(flight)),
        ("heatmap", "Partition load heatmap",
         _heatmap_section(flight)),
        ("skew", "Skew detector",
         _skew_section(skew)),
        ("alerts", "SLO burn-rate alerts",
         _alerts_section(flight, slo)),
        ("critpath", "Critical path",
         _critpath_section(critpath)),
        ("metrics", "Metric rollups",
         _metrics_section(metrics)),
    ]
    body = [f"<h1>{_esc(title)}</h1>",
            '<p class="sub">All times are simulated seconds; the report '
            "is self-contained and renders offline.</p>"]
    for sid, heading, content in sections:
        body.append(f'<section id="{sid}"><h2>{_esc(heading)}</h2>'
                    f"{content}</section>")
    return ("<!DOCTYPE html>\n<html lang=\"en\"><head>"
            '<meta charset="utf-8">'
            '<meta name="viewport" '
            'content="width=device-width, initial-scale=1">'
            f"<title>{_esc(title)}</title>"
            f"<style>{_CSS}</style></head>"
            "<body><main>" + "".join(body) + "</main></body></html>\n")


def write_dashboard(path: str, flight: Optional[Dict] = None,
                    critpath: Optional[Dict] = None,
                    metrics: Optional[Dict] = None,
                    title: str = "Observability report") -> int:
    """Write the dashboard; returns the byte length written."""
    text = render_dashboard(flight=flight, critpath=critpath,
                            metrics=metrics, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return len(text)


_VOID_TAGS = frozenset({
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "source", "track", "wbr",
})


class _DashboardChecker(HTMLParser):
    """Tag-balance + attribute scanner for :func:`validate_dashboard`."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.stack: List[str] = []
        self.ids: set = set()
        self.errors: List[str] = []
        self.saw_html = False

    def _scan_attrs(self, tag: str, attrs) -> None:
        for key, value in attrs:
            if key == "id" and value:
                self.ids.add(value)
            if key in ("src", "href") and value:
                if value.startswith(("http:", "https:", "//")):
                    self.errors.append(
                        f"external resource reference in <{tag} "
                        f"{key}={value!r}>")

    def handle_starttag(self, tag, attrs):
        if tag == "html":
            self.saw_html = True
        self._scan_attrs(tag, attrs)
        if tag not in _VOID_TAGS:
            self.stack.append(tag)

    def handle_startendtag(self, tag, attrs):
        self._scan_attrs(tag, attrs)

    def handle_endtag(self, tag):
        if tag in _VOID_TAGS:
            return
        if not self.stack:
            self.errors.append(f"closing </{tag}> with no open tag")
            return
        top = self.stack.pop()
        if top != tag:
            self.errors.append(f"mismatched </{tag}>; open tag was "
                               f"<{top}>")


def validate_dashboard(source: str, from_file: bool = True) -> List[str]:
    """Validate dashboard HTML; returns a list of error strings.

    Checks: parseable, balanced tags, an ``<html>`` root, every
    :data:`REQUIRED_SECTIONS` id present, and zero external resource
    references (the self-containment guarantee).
    """
    if from_file:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    checker = _DashboardChecker()
    try:
        checker.feed(text)
        checker.close()
    except Exception as exc:  # pragma: no cover - parser is permissive
        return [f"unparseable HTML: {exc}"]
    errors = list(checker.errors)
    if not checker.saw_html:
        errors.append("missing <html> root element")
    if checker.stack:
        errors.append(f"unclosed tags at EOF: {checker.stack}")
    for sid in REQUIRED_SECTIONS:
        if sid not in checker.ids:
            errors.append(f"missing required section id {sid!r}")
    return errors
