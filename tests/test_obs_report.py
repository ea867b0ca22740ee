"""Tests for the self-contained HTML dashboard renderer/validator."""

from repro.obs import render_dashboard, validate_dashboard, write_dashboard
from repro.obs.report import REQUIRED_SECTIONS


def _flight():
    """A small hand-built flight payload with skew + SLO sections."""
    times = [0.001 * i for i in range(1, 9)]
    return {
        "kind": "flight_recorder",
        "interval": 0.001,
        "maxlen": 512,
        "quantiles": [0.5, 0.99],
        "samples": 8,
        "series": {
            "serving/completed": {
                "times": times,
                "values": [float(10 * i) for i in range(1, 9)],
                "dropped": 0,
            },
            "m.0/ops": {
                "times": times,
                "values": [float(8 * i) for i in range(1, 9)],
                "dropped": 0,
            },
            "m.1/ops": {
                "times": times,
                "values": [float(2 * i) for i in range(1, 9)],
                "dropped": 0,
            },
        },
        "events": [
            [0.004, "skew.hot_partition",
             {"partition": "m.0/ops", "node": 0, "share": 0.8,
              "fair_share": 0.5}],
            [0.006, "slo.alert",
             {"t": 0.006, "rule": "availability", "target": 0.999,
              "short_burn": 25.0, "long_burn": 12.0}],
            [0.008, "slo.clear",
             {"t": 0.008, "rule": "availability",
              "short_burn": 1.0, "long_burn": 9.0}],
        ],
        "events_dropped": 0,
        "skew": {
            "partitions": 2, "total_ops": 80.0, "imbalance": 1.6,
            "cv": 0.6, "hot_events": 1, "hot_now": [],
            "top_partitions": [
                {"partition": "m.0/ops", "node": 0, "ops": 64.0,
                 "share": 0.8},
                {"partition": "m.1/ops", "node": 1, "ops": 16.0,
                 "share": 0.2},
            ],
            "node_ops": {"0": 64.0, "1": 16.0},
            "top_keys": [{"key": "t0:k7", "count": 31}],
            "keys_offered": 80,
        },
        "slo": {
            "ticks": 8, "alerts": 1,
            "rules": [
                {"rule": "availability", "target": 0.999, "threshold": 10.0,
                 "short_window": 0.004, "long_window": 0.016,
                 "alerts": 1, "firing": False},
            ],
        },
    }


def _critpath():
    stages = [
        {"stage": name, "total": total, "share": total / 10.0}
        for name, total in (
            ("client.marshal", 1.0), ("client.send", 2.0),
            ("server.queue", 1.0), ("server.execute", 2.0),
            ("transport", 1.0), ("client.pull", 2.0),
            ("client.settle", 1.0),
        )
    ]
    return {
        "kind": "critpath", "traces": 4, "skipped": 0,
        "overall": {"n": 4, "e2e_total": 10.0, "stages": stages},
        "slow": {"quantile": 0.99, "threshold": 4.0, "n": 1,
                 "e2e_total": 4.0, "stages": stages},
        "groups": [
            {"dst": 1, "stream": 0, "n": 4, "e2e_total": 10.0,
             "e2e_mean": 2.5, "dominant_stage": "server.execute",
             "dominant_share": 0.4, "stages": stages},
        ],
        "top_traces": [
            {"trace_id": 3, "op": "rpc.put", "dst": 1, "stream": 0,
             "e2e": 4.0, "residual": 0.0, "clamped": False,
             "stages": {s["stage"]: s["total"] for s in stages}},
        ],
        "tiling_max_residual": 0.0,
        "clamped": 0,
    }


class TestRenderDashboard:
    def test_all_sections_present_even_with_no_data(self):
        html = render_dashboard()
        assert validate_dashboard(html, from_file=False) == []
        for sid in REQUIRED_SECTIONS:
            assert f'<section id="{sid}">' in html

    def test_full_render_valid_and_self_contained(self):
        html = render_dashboard(flight=_flight(), critpath=_critpath(),
                                metrics={"serving/completed": 80.0})
        assert validate_dashboard(html, from_file=False) == []
        assert "http://" not in html and "https://" not in html
        assert "<svg" in html  # sparklines + heatmap rendered
        assert "availability" in html
        assert "server.execute" in html

    def test_render_is_deterministic(self):
        a = render_dashboard(flight=_flight(), critpath=_critpath())
        b = render_dashboard(flight=_flight(), critpath=_critpath())
        assert a == b

    def test_alert_events_carry_icon_and_label(self):
        html = render_dashboard(flight=_flight())
        # Status is never color-alone: icon + text label accompany it.
        assert "▲" in html and "✓" in html

    def test_title_escaped(self):
        html = render_dashboard(title="<script>alert(1)</script>")
        assert "<script>" not in html
        assert "&lt;script&gt;" in html

    def test_write_dashboard_returns_bytes(self, tmp_path):
        path = str(tmp_path / "dash.html")
        size = write_dashboard(path, flight=_flight())
        with open(path) as fh:
            assert len(fh.read()) == size


class TestValidateDashboard:
    def test_validates_file(self, tmp_path):
        path = str(tmp_path / "dash.html")
        write_dashboard(path, flight=_flight(), critpath=_critpath())
        assert validate_dashboard(path) == []

    def test_catches_missing_section(self):
        html = render_dashboard().replace('id="skew"', 'id="askew"')
        errors = validate_dashboard(html, from_file=False)
        assert any("skew" in e for e in errors)

    def test_catches_unbalanced_tags(self):
        html = render_dashboard().replace("</main>", "", 1)
        errors = validate_dashboard(html, from_file=False)
        assert errors

    def test_catches_external_references(self):
        html = render_dashboard().replace(
            "</main>",
            '<img src="https://example.com/x.png"></main>', 1)
        errors = validate_dashboard(html, from_file=False)
        assert any("external" in e.lower() for e in errors)

    def test_catches_missing_html_root(self):
        errors = validate_dashboard("<div>not a page</div>",
                                    from_file=False)
        assert errors


class TestObsReportCli:
    """``repro.cli obs-report`` over the flight / span-log / metrics triple
    of one tiny instrumented serving run."""

    def test_render_then_validate(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["serving", "--nodes", "2", "--procs", "2",
                     "--clients", "100", "--tenants", "2", "--keys", "64",
                     "--rate", "2400", "--ops-per-client", "5",
                     "--bounds", "16", "--trace", "t",
                     "--metrics-out", "m.json",
                     "--flight-recorder", "f.json"]) == 0
        assert main(["obs-report", "--flight", "f.json", "--spans", "t.jsonl",
                     "--metrics", "m.json", "-o", "dash.html"]) == 0
        html = (tmp_path / "dash.html").read_text(encoding="utf-8")
        assert "traced RPCs analyzed" in html and "imbalance" in html
        assert main(["obs-report", "--validate", "dash.html"]) == 0
        (tmp_path / "cut.html").write_text(html[:len(html) // 2],
                                           encoding="utf-8")
        assert main(["obs-report", "--validate", "cut.html"]) == 1
        capsys.readouterr()


def test_obs_files_are_utf8_whatever_the_locale(tmp_path):
    """The dashboard joins its summary with "·" and span attributes may be
    any text: every obs file is written and read back as UTF-8, not in the
    locale's encoding (ASCII under ``LC_ALL=POSIX`` with UTF-8 mode off)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = """
import locale
from repro.obs import (
    Tracer, load_spans, validate_dashboard, validate_span_log,
    write_dashboard, write_span_jsonl,
)
assert locale.getpreferredencoding(False).lower() not in ("utf-8", "utf8")
write_dashboard("d.html", flight={"series": {}, "events": []},
                metrics={"a": 1})
assert validate_dashboard("d.html") == []
tracer = Tracer(clock=lambda: 0.0)
key = "cl\\u00e9\\u00b7\\u2713"  # escaped: argv itself is ASCII here
tracer.record("rpc.put", 0.0, 1.0, attrs={"key": key})
assert write_span_jsonl(tracer.spans, "s.jsonl") == 1
assert validate_span_log("s.jsonl") == []
assert load_spans("s.jsonl")[0]["attrs"] == {"key": key}
"""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LC_")}
    env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="POSIX",
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
