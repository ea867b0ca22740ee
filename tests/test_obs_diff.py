"""Tests for the differential run-forensics engine (repro.obs.diff).

Covers the determinism pin (a same-seed self-diff reports nothing
significant), the empty-vs-nonempty histogram "new signal" path (never a
divide-by-zero), figure series compared point by point, and the
fingerprint classifier — including the end-to-end case: the metrics
snapshots of an aggregation A/B (buffer 512 vs 1 on the k-mer kernel)
fingerprint as a coalescer-efficiency drop, not as a workload change —
and the ``obs-diff`` command over that same A/B pair.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.config import ares_like
from repro.harness.figures import AGG_SHAPES, run_app
from repro.obs import (
    FINGERPRINT_CODES,
    Instruments,
    diff_paths,
    diff_runs,
    render_diff,
    write_json,
)

# -- tiny synthetic artifacts -------------------------------------------------


def _metrics_doc(lat_n, lat_scale=1.0, ops=5000.0):
    """A registry-snapshot-shaped dict with one latency histogram."""
    if lat_n:
        lat = {"n": lat_n, "mean": 2.0 * lat_scale, "p50": 1.5 * lat_scale,
               "p90": 3.0 * lat_scale, "p99": 6.0 * lat_scale,
               "min": 0.5, "max": 9.0 * lat_scale}
    else:
        lat = {"n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0,
               "min": 0.0, "max": 0.0}
    return {"rpc/ops": ops, "rpc/latency": lat}


def _fig6_doc(hcl_umap_ins=(68280.7, 115294.8, 194826.9, 251385.1)):
    """A ``fig6 --emit``-shaped report: a sweep axis and measured series."""
    return {
        "failures": [],
        "partitions": [1, 2, 4, 8],
        "series": {"bcl_umap_ins": [38815.1, 46249.3, 53748.2, 57720.5],
                   "hcl_umap_ins": list(hcl_umap_ins)},
    }


class TestSelfDiffIsQuiet:
    """Determinism pin: identical artifacts -> nothing significant."""

    def test_synthetic_metrics_self_diff(self):
        diff = diff_runs(_metrics_doc(100), _metrics_doc(100))
        assert not diff["significant"]
        assert diff["fingerprint"]["code"] == "no-significant-change"

    @pytest.mark.parametrize("a, b", [({"x": 0.0, "y": 1.0}, {"y": 1.0}),
                                      ({"y": 1.0}, {"x": 0.0, "y": 1.0})])
    def test_zero_vs_absent_counter_is_quiet_both_ways(self, a, b):
        """A key at 0 on one side and missing on the other moved nothing,
        so ``--fail-on-significant`` must not trip in either direction."""
        diff = diff_runs(a, b)
        assert not diff["significant"]
        assert diff["fingerprint"]["code"] == "no-significant-change"

    @pytest.mark.parametrize("name", ["BENCH_serving.json"])
    def test_committed_bench_self_diff(self, name):
        import pathlib
        path = pathlib.Path(__file__).resolve().parent.parent / name
        diff = diff_paths(str(path), str(path))
        assert not diff["significant"], \
            [r for r in diff["counters"]["rows"] if r["significant"]]
        assert diff["fingerprint"]["code"] == "no-significant-change"


class TestEmptyHistogramPaths:
    """Satellite pin: empty-vs-nonempty is a *new signal*, never a /0."""

    def test_empty_to_populated_is_new_signal(self):
        diff = diff_runs(_metrics_doc(0), _metrics_doc(100))
        rows = {r["key"]: r for r in diff["quantiles"]["rows"]}
        row = rows["rpc/latency"]
        assert row["status"] == "new_signal"
        assert row["significant"]
        assert diff["significant"]
        # the tail rule treats an appearing latency histogram as tail growth
        assert diff["fingerprint"]["code"] == "latency-tail-grew"

    def test_populated_to_empty_is_gone(self):
        diff = diff_runs(_metrics_doc(100), _metrics_doc(0))
        row = {r["key"]: r for r in diff["quantiles"]["rows"]}["rpc/latency"]
        assert row["status"] == "gone"
        assert row["significant"]

    def test_both_empty_is_silent(self):
        diff = diff_runs(_metrics_doc(0), _metrics_doc(0))
        assert diff["quantiles"]["rows"] == []
        assert not diff["significant"]

    def test_zero_quantile_within_populated_group_is_new_signal(self):
        a, b = _metrics_doc(100), _metrics_doc(100)
        a["rpc/latency"]["p99"] = 0.0
        b["rpc/latency"]["p99"] = 4.0
        diff = diff_runs(a, b)
        shift = diff["quantiles"]["rows"][0]["shifts"]["p99"]
        assert shift["status"] == "new_signal"
        assert shift["rel"] is None
        assert shift["significant"]


class TestFingerprints:
    def test_queue_wait_growth_from_a_metrics_snapshot(self):
        a, b = _metrics_doc(100), _metrics_doc(100)
        a["rpc0/queue_wait"] = {"n": 100, "mean": 1.0, "p50": 1.0,
                                "p95": 2.0, "p99": 3.0, "max": 4.0}
        b["rpc0/queue_wait"] = dict(a["rpc0/queue_wait"], p99=6.0)
        diff = diff_runs(a, b)
        assert diff["fingerprint"]["code"] == "server-queue-wait-grew"
        assert diff["fingerprint"]["evidence"] == "rpc0/queue_wait.p99 +100%"

    def test_workload_shape_trumps_everything(self):
        a = {"benchmark": "serving_zipf", "nodes": 4, "ops_per_sim_sec": 100.0}
        b = {"benchmark": "serving_zipf", "nodes": 8, "ops_per_sim_sec": 50.0}
        diff = diff_runs(a, b)
        assert diff["fingerprint"]["code"] == "workload-shape-changed"
        assert "nodes" in diff["fingerprint"]["evidence"]

    def test_knob_change_does_not_read_as_workload_change(self):
        a = {"benchmark": "serving_zipf", "rpc_batch_size": 8,
             "ops_per_sim_sec": 100.0}
        b = {"benchmark": "serving_zipf", "rpc_batch_size": 1,
             "ops_per_sim_sec": 60.0}
        diff = diff_runs(a, b)
        knobs = {c["key"]: c for c in diff["config_changes"]}
        assert knobs["rpc_batch_size"]["knob"]
        assert diff["fingerprint"]["code"] != "workload-shape-changed"

    def test_windows_ab_is_a_knob_change(self):
        """A ``--windows`` A/B flips the soak report's ``windows`` flag:
        an experiment over a knob, not a different workload."""
        a = {"benchmark": "chaos_soak", "windows": False, "seed": 0,
             "acked_writes": 239}
        diff = diff_runs(a, dict(a, windows=True))
        assert diff["config_changes"] == [
            {"key": "windows", "a": False, "b": True, "knob": True}]
        assert diff["fingerprint"]["code"] != "workload-shape-changed"

    def test_all_codes_have_labels(self):
        assert "no-significant-change" in FINGERPRINT_CODES
        assert all(isinstance(v, str) and v for v in
                   FINGERPRINT_CODES.values())


@pytest.fixture(scope="module")
def agg_ab(tmp_path_factory):
    """``--metrics-out`` snapshots of the k-mer kernel at ``AGG_SHAPES``
    (4x3 ranks, scale 0.25) with buffer 512 (A) and the detuned 1 (B)."""
    tmp = tmp_path_factory.mktemp("aggdiff")
    paths = []
    for buffer in (512, 1):
        path = str(tmp / f"agg{buffer}.json")
        ins = Instruments(metrics=path)
        run_app("kmer", "hcl", ares_like(nodes=4, procs_per_node=3),
                AGG_SHAPES["kmer"], 0.25, buffer, ins)
        ins.write()
        paths.append(path)
    return tuple(paths)


class TestAggRegressionEndToEnd:
    """Aggregation 512 vs 1 names the coalescer."""

    @pytest.fixture(scope="class")
    def agg_diff(self, agg_ab):
        return diff_paths(*agg_ab)

    def test_fingerprints_coalesce_efficiency(self, agg_diff):
        assert agg_diff["significant"]
        assert agg_diff["fingerprint"]["code"] == "coalesce-efficiency-dropped"
        assert agg_diff["fingerprint"]["evidence"].startswith(
            "kmers/agg_threshold_flushes new signal")

    def test_render_carries_the_fingerprint(self, agg_diff):
        text = render_diff(agg_diff)
        assert "coalescer flush efficiency dropped" in text
        assert "### Counter deltas" in text


class TestObsDiffCli:
    """``repro.cli obs-diff`` over the same A/B pair: exit codes and the
    JSON / markdown artifacts."""

    def test_self_diff_passes_fail_on_significant(self, agg_ab, capsys):
        a, _b = agg_ab
        assert main(["obs-diff", a, a, "--fail-on-significant"]) == 0
        assert "significant differences" not in capsys.readouterr().err

    def test_detuned_diff_fails_on_significant(self, agg_ab, capsys):
        assert main(["obs-diff", *agg_ab, "--fail-on-significant"]) == 1
        assert ("coalescer flush efficiency dropped"
                in capsys.readouterr().err)

    def test_json_and_md_artifacts(self, agg_ab, tmp_path, capsys):
        out_json, out_md = tmp_path / "d.json", tmp_path / "d.md"
        assert main(["obs-diff", *agg_ab, "--json", str(out_json),
                     "--md", str(out_md)]) == 0
        doc = json.loads(out_json.read_text(encoding="utf-8"))
        assert doc["kind"] == "run_diff"
        assert doc["fingerprint"]["code"] == "coalesce-efficiency-dropped"
        label = FINGERPRINT_CODES["coalesce-efficiency-dropped"]
        assert f"fingerprint: {label}" in out_md.read_text(encoding="utf-8")
        capsys.readouterr()

    @pytest.mark.parametrize("text", [
        '{"span_id": 1, "name": "client.send"}\n'
        '{"span_id": 2, "name": "client.send"}\n',
        "[1, 2, 3]",
        None,
    ], ids=["span-log", "json-list", "missing"])
    def test_a_file_that_is_not_one_json_object_exits_2(self, agg_ab, text,
                                                        tmp_path, capsys):
        bad = tmp_path / "bad.json"
        if text is not None:
            bad.write_text(text, encoding="utf-8")
        assert main(["obs-diff", agg_ab[0], str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err

    @pytest.mark.parametrize("argv", [
        ["obs-diff", "A.json", "B.json", "--html", "d.html"],
        ["obs-report", "--flight", "A.json", "--compare", "B.json"],
    ])
    def test_ab_dashboard_flags_are_gone(self, argv, capsys):
        """A RunDiff renders as markdown (plus its JSON); the dashboard
        renders one run, so neither A/B dashboard flag parses."""
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(argv)
        assert exit_.value.code == 2
        capsys.readouterr()


class TestPlumbing:
    def test_run_diff_json_round_trips(self, tmp_path):
        diff = diff_runs(_metrics_doc(0), _metrics_doc(100))
        out = tmp_path / "d.json"
        write_json(diff, str(out))
        loaded = json.loads(out.read_text())
        assert loaded["kind"] == "run_diff"
        assert loaded["fingerprint"]["code"] == diff["fingerprint"]["code"]

    def test_simulated_elapsed_is_compared_at_the_threshold(self):
        """Fig 4's ``--emit`` carries simulated ``elapsed`` seconds: no key
        is host-noisy, so +40 % is significant at the 10 % threshold."""
        a = {"benchmark": "fig4", "bcl": {"elapsed": 0.020},
             "hcl": {"elapsed": 0.010}}
        b = {"benchmark": "fig4", "bcl": {"elapsed": 0.020},
             "hcl": {"elapsed": 0.014}}
        diff = diff_runs(a, b)
        rows = {r["key"]: r for r in diff["counters"]["rows"]}
        assert set(rows) == {"hcl/elapsed"}
        assert rows["hcl/elapsed"]["significant"]
        assert diff["significant"]


class TestFigureSeries:
    """A figure report's measured series compare point by point; its
    sweep axis stays one workload-shape value."""

    def test_halved_point_is_a_significant_counter_row(self):
        halved = _fig6_doc((68280.7, 115294.8, 97413.45, 251385.1))
        diff = diff_runs(_fig6_doc(), halved)
        assert diff["config_changes"] == []
        (row,) = diff["counters"]["rows"]
        assert row["key"] == "series/hcl_umap_ins[2]"
        assert row["rel"] == pytest.approx(-0.5)
        assert row["significant"] and diff["significant"]
        fp = diff["fingerprint"]
        assert fp["code"] not in ("workload-shape-changed",
                                  "no-significant-change")
        assert fp["code"] == "unclassified-change"
        assert fp["evidence"].startswith("series/hcl_umap_ins[2] -50%")

    def test_sweep_axis_change_is_a_workload_change(self):
        b = _fig6_doc()
        b["partitions"] = [1, 2, 4, 16]
        diff = diff_runs(_fig6_doc(), b)
        assert [c["key"] for c in diff["config_changes"]] == ["partitions"]
        assert diff["fingerprint"]["code"] == "workload-shape-changed"
