"""Tests for the trace critical-path analyzer.

The acceptance invariant: per-trace stage attributions sum exactly to
the measured end-to-end latency (residual 0 on fair-weather traces),
checked both on synthetic span records and on a real traced workload.
"""

import json

import pytest

from repro.config import ares_like
from repro.harness.figures import AGG_SHAPES, run_app
from repro.obs import (
    critpath_analyze,
    install_tracer,
    load_spans,
    span_record,
    tracer_of,
    write_span_jsonl,
)
from repro.obs.critpath import STAGE_ORDER


def _rec(span_id, name, start, end, parent=None, trace=1, node=0,
         attrs=None):
    return {
        "trace_id": trace,
        "span_id": span_id,
        "parent_id": parent,
        "name": name,
        "node": node,
        "start": start,
        "end": end,
        "dur": end - start,
        "attrs": attrs or {},
    }


def _synthetic_trace(trace=1, base=0.0, dst=1, stream=None, scale=1.0):
    """One fair-weather RPC: marshal 1, send 2, wait 4 (queue 1 +
    execute 2 + transport 1), pull 2, settle 1 — e2e 10 (x ``scale``)."""
    s = scale
    t = base
    root_id = trace * 100
    attrs = {"dst": dst}
    if stream is not None:
        attrs["stream"] = stream
    spans = [_rec(root_id, "rpc.put", t, t + 10 * s, trace=trace,
                  attrs=attrs)]
    stages = [("client.marshal", 1), ("client.send", 2), ("server.wait", 4),
              ("client.pull", 2), ("client.settle", 1)]
    cursor = t
    for i, (name, dur) in enumerate(stages):
        spans.append(_rec(root_id + 1 + i, name, cursor, cursor + dur * s,
                          parent=root_id, trace=trace))
        cursor += dur * s
    wait_start = t + 3 * s
    spans.append(_rec(root_id + 10, "server.queue", wait_start,
                      wait_start + 1 * s, parent=root_id, trace=trace,
                      node=dst))
    spans.append(_rec(root_id + 11, "server.execute", wait_start + 1 * s,
                      wait_start + 3 * s, parent=root_id, trace=trace,
                      node=dst))
    return spans


class TestSyntheticBreakdown:
    def test_stage_attribution_sums_to_e2e(self):
        result = critpath_analyze(_synthetic_trace())
        assert result["traces"] == 1
        assert result["tiling_max_residual"] == 0.0
        overall = result["overall"]
        assert overall["e2e_total"] == pytest.approx(10.0)
        by_stage = {s["stage"]: s["total"] for s in overall["stages"]}
        assert by_stage == pytest.approx({
            "client.marshal": 1.0, "client.send": 2.0, "server.queue": 1.0,
            "server.execute": 2.0, "transport": 1.0, "client.pull": 2.0,
            "client.settle": 1.0,
        })
        assert sum(by_stage.values()) == pytest.approx(10.0)

    def test_shares_sum_to_one(self):
        result = critpath_analyze(_synthetic_trace())
        shares = [s["share"] for s in result["overall"]["stages"]]
        assert sum(shares) == pytest.approx(1.0)

    def test_groups_by_dst_and_stream(self):
        spans = (_synthetic_trace(trace=1, dst=1, stream=0)
                 + _synthetic_trace(trace=2, base=20.0, dst=1, stream=0)
                 + _synthetic_trace(trace=3, base=40.0, dst=2, stream=1,
                                    scale=3.0))
        result = critpath_analyze(spans)
        assert result["traces"] == 3
        groups = result["groups"]
        assert len(groups) == 2
        # Heaviest (dst 2, e2e 30) first.
        assert groups[0]["dst"] == 2 and groups[0]["stream"] == 1
        assert groups[0]["e2e_total"] == pytest.approx(30.0)
        assert groups[1]["n"] == 2
        assert groups[0]["dominant_stage"] in STAGE_ORDER

    def test_slow_tail_table(self):
        spans = []
        for i in range(10):
            scale = 5.0 if i == 9 else 1.0
            spans += _synthetic_trace(trace=i + 1, base=i * 100.0,
                                      scale=scale)
        result = critpath_analyze(spans)
        slow = result["slow"]
        assert slow["threshold"] == pytest.approx(50.0)
        assert slow["n"] == 1  # only the x5 trace is in the tail
        assert slow["e2e_total"] == pytest.approx(50.0)

    def test_top_traces_ranked_by_latency(self):
        spans = (_synthetic_trace(trace=1) +
                 _synthetic_trace(trace=2, base=20.0, scale=2.0))
        result = critpath_analyze(spans, top_n=1)
        top = result["top_traces"]
        assert len(top) == 1
        assert top[0]["trace_id"] == 2
        assert top[0]["e2e"] == pytest.approx(20.0)

    def test_nested_server_spans_scaled_when_overreported(self):
        """queue+execute longer than the wait interval get clamped."""
        spans = _synthetic_trace()
        for rec in spans:
            if rec["name"] in ("server.queue", "server.execute"):
                rec["end"] = rec["start"] + 10.0  # absurd: 10 each in wait 4
                rec["dur"] = 10.0
        result = critpath_analyze(spans)
        assert result["clamped"] == 1
        by_stage = {s["stage"]: s["total"]
                    for s in result["overall"]["stages"]}
        assert by_stage["server.queue"] + by_stage["server.execute"] == (
            pytest.approx(4.0))  # scaled into the wait interval
        assert by_stage["transport"] == pytest.approx(0.0)
        # Tiling still exact after clamping.
        assert result["overall"]["e2e_total"] == pytest.approx(10.0)
        assert sum(by_stage.values()) == pytest.approx(10.0)

    def test_empty_source(self):
        result = critpath_analyze([])
        assert result["traces"] == 0
        assert result["groups"] == [] and result["top_traces"] == []


class TestRealTraces:
    @pytest.fixture(scope="class")
    def traced(self):
        box = {}

        def instrument(hcl):
            box["sim"] = hcl.sim
            install_tracer(hcl.sim)

        spec = ares_like(nodes=2, procs_per_node=2)
        _ops, res = run_app("kmer", "hcl", spec, AGG_SHAPES["kmer"], 0.25,
                            instrument=instrument)
        assert res.verified
        return tracer_of(box["sim"])

    def test_tiling_residual_zero_on_real_run(self, traced):
        result = critpath_analyze(traced)
        assert result["traces"] > 10
        assert result["skipped"] == 0
        assert result["tiling_max_residual"] == pytest.approx(0.0, abs=1e-12)
        # Stage totals reconstruct the summed e2e latency exactly.
        overall = result["overall"]
        assert sum(s["total"] for s in overall["stages"]) == pytest.approx(
            overall["e2e_total"], rel=1e-9)

    def test_jsonl_roundtrip_matches_tracer_analysis(self, traced, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        write_span_jsonl(traced.spans, path)
        from_file = critpath_analyze(load_spans(path))
        direct = critpath_analyze(traced)
        assert json.dumps(from_file, sort_keys=True) == json.dumps(
            direct, sort_keys=True)

    def test_span_record_source_accepted(self, traced):
        records = [span_record(s) for s in traced.spans]
        result = critpath_analyze(records)
        assert result["traces"] == critpath_analyze(traced)["traces"]
