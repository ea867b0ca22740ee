"""End-to-end tests for RPC span tracing and the exporters.

The two load-bearing invariants:

* **Tiling** — a traced RPC's contiguous client-side stage spans sum
  exactly to its end-to-end simulated latency (they partition the root
  interval by construction).
* **Purity** — tracing never perturbs the simulation: a traced run and an
  untraced run of the same workload produce identical results and final
  sim times.
"""

import json

import pytest

from repro.config import ares_like
from repro.harness.figures import AGG_SHAPES, run_app
from repro.obs import (
    STAGE_NAMES,
    install_tracer,
    span_record,
    tracer_of,
    validate_chrome_trace,
    validate_span_log,
    write_chrome_trace,
    write_span_jsonl,
)


def _children(tracer, span):
    return [s for s in tracer.spans if s.parent_id == span.span_id]


def _stages(tracer, root):
    """The tiling client-side stage spans of one RPC root."""
    return [s for s in _children(tracer, root) if s.name in STAGE_NAMES]


def _traced_run(app="kmer", aggregation=0, scale=0.25):
    box = {}

    def instrument(hcl):
        box["sim"] = hcl.sim
        install_tracer(hcl.sim)

    spec = ares_like(nodes=2, procs_per_node=2)
    _ops, res = run_app(app, "hcl", spec, AGG_SHAPES[app], scale,
                        aggregation, instrument)
    assert res.verified
    return tracer_of(box["sim"]), res.time_seconds


def _rpc_roots(tracer):
    """Spans for whole RPC invocations (`rpc.<op>`)."""
    return [s for s in tracer.spans if s.name.startswith("rpc.")]


@pytest.fixture(scope="module")
def kmer_tracer():
    tracer, _sim_s = _traced_run("kmer")
    return tracer


class TestStageTiling:
    def test_stages_sum_to_e2e_latency(self, kmer_tracer):
        rpcs = _rpc_roots(kmer_tracer)
        assert len(rpcs) > 10
        for root in rpcs:
            stages = _stages(kmer_tracer, root)
            assert stages, f"rpc {root.name} has no stage spans"
            total = sum(s.duration for s in stages)
            assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-15)

    def test_stages_are_contiguous(self, kmer_tracer):
        for root in _rpc_roots(kmer_tracer):
            stages = sorted(_stages(kmer_tracer, root),
                            key=lambda s: s.start)
            assert stages[0].start == root.start
            assert stages[-1].end == root.end
            for prev, nxt in zip(stages, stages[1:]):
                assert nxt.start == prev.end

    def test_fair_weather_stage_names(self, kmer_tracer):
        root = _rpc_roots(kmer_tracer)[0]
        names = [s.name for s in _stages(kmer_tracer, root)]
        assert names == ["client.marshal", "client.send", "server.wait",
                         "client.pull", "client.settle"]

    def test_server_detail_nests_in_wait(self, kmer_tracer):
        root = _rpc_roots(kmer_tracer)[0]
        children = {s.name: s for s in _children(kmer_tracer, root)}
        wait = children["server.wait"]
        queue = children["server.queue"]
        execute = children["server.execute"]
        assert wait.start <= queue.start <= queue.end == execute.start
        assert execute.end <= wait.end


class TestHardenedPath:
    @pytest.mark.parametrize("plan", ["calm", "drop-heavy"])
    def test_client_stages_tile_under_plan(self, plan):
        """Under a fault plan the same five client stages tile every
        settled root: retransmissions land inside them, not in a stage of
        their own."""
        from repro.harness.chaos import run_chaos_soak

        box = {}

        def instrument(h):
            box["sim"] = h.sim
            install_tracer(h.sim)

        report = run_chaos_soak(plan=plan, nodes=2, procs_per_node=1,
                                keys_per_rank=4, kmers_per_rank=3,
                                horizon=1e-3, instrument=instrument)
        if plan == "drop-heavy":
            assert report["rpc"]["retries"] > 0
        tracer = tracer_of(box["sim"])
        assert not [s for s in tracer.spans if s.name == "rpc.deliver"]
        rpcs = [r for r in _rpc_roots(tracer) if "error" not in r.attrs]
        assert rpcs
        for root in rpcs:
            stages = _stages(tracer, root)
            assert [s.name for s in stages] == [
                "client.marshal", "client.send", "server.wait",
                "client.pull", "client.settle"]
            total = sum(s.duration for s in stages)
            assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-15)


class TestPurity:
    def test_traced_run_is_bit_identical(self):
        spec = ares_like(nodes=2, procs_per_node=2)
        _ops, plain = run_app("kmer", "hcl", spec, AGG_SHAPES["kmer"], 0.25)
        tracer, traced_s = _traced_run("kmer")
        assert plain.verified
        assert traced_s == plain.time_seconds  # exact equality, not approx
        assert len(tracer) > 0

    def test_tracer_off_by_default(self):
        from repro.simnet.core import Simulator

        assert tracer_of(Simulator()) is None

    def test_identical_runs_identical_span_logs(self):
        a, _ = _traced_run("isx")
        b, _ = _traced_run("isx")
        assert [span_record(s) for s in a.spans] \
            == [span_record(s) for s in b.spans]


class TestCoalesceSpans:
    def test_buffer_span_parents_batch_rpc(self):
        tracer, _ = _traced_run("kmer", aggregation=8)
        buffers = [s for s in tracer.spans if s.name == "coalesce.buffer"]
        assert buffers
        for buf in buffers:
            children = _children(tracer, buf)
            assert any(c.name.startswith("rpc.") for c in children)
            assert buf.attrs["ops"] >= 1
            # The buffer opens at first append, before the flush RPC fires.
            for child in children:
                assert buf.start <= child.start

    def test_batch_tiling_still_holds(self):
        tracer, _ = _traced_run("kmer", aggregation=8)
        for root in _rpc_roots(tracer):
            total = sum(s.duration for s in _stages(tracer, root))
            assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-15)


class TestExporters:
    def test_span_log_round_trip(self, kmer_tracer, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        n = write_span_jsonl(kmer_tracer.spans, path)
        assert n == len(kmer_tracer.spans)
        assert validate_span_log(path) == []

    def test_chrome_trace_valid_and_shaped(self, kmer_tracer, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(kmer_tracer.spans, path)
        assert validate_chrome_trace(path) == []
        with open(path) as fh:
            doc = json.load(fh)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert metas and slices
        assert {e["args"]["name"] for e in metas} >= {"node0", "node1"}
        # Roots are categorized "rpc", stages "stage".
        assert {e["cat"] for e in slices} == {"rpc", "stage"}

    def test_validator_rejects_tampered_log(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        good = {"trace_id": 1, "span_id": 1, "parent_id": None,
                "name": "rpc.x", "node": 0, "start": 0.0, "end": 1.0,
                "dur": 1.0}
        lines = [
            dict(good),
            {**good, "span_id": 2, "dur": 0.5},           # dur != end-start
            {**good, "span_id": 3, "end": -1.0},          # end < start, < min
            {**good, "span_id": 4, "parent_id": 99},      # dangling parent
            {**good, "span_id": 5, "extra": True},        # unexpected field
            {**good, "span_id": "six"},                   # wrong type
        ]
        with open(path, "w") as fh:
            for rec in lines:
                fh.write(json.dumps(rec) + "\n")
            fh.write("not json\n")
        errors = validate_span_log(path)
        assert len(errors) >= 6
        assert any("parent_id 99" in e for e in errors)
        assert any("invalid JSON" in e for e in errors)

    def test_validator_rejects_missing_required(self, tmp_path):
        path = str(tmp_path / "missing.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps({"trace_id": 1}) + "\n")
        errors = validate_span_log(path)
        assert any("missing required" in e for e in errors)


class TestWindowedPath:
    """Tiling under the AIMD-windowed client: a shed attempt ends at the
    pull that reads the shed envelope, and every root span, acked or shed,
    must still tile exactly."""

    @pytest.fixture(scope="class")
    def windowed_tracer(self):
        from repro.fabric import Cluster
        from repro.rpc import RpcClient, RpcServer

        spec = ares_like(nodes=2, procs_per_node=4, seed=7)
        cluster = Cluster(spec)
        tracer = install_tracer(cluster.sim)
        servers = {
            0: RpcServer(cluster.node(0)),
            1: RpcServer(cluster.node(1), workers=1, queue_bound=1),
        }
        client = RpcClient(cluster, 0, servers, window=True)

        def slow(ctx, i):
            yield ctx.sim.timeout(40e-6)
            return i

        servers[1].bind("slow", slow)
        futs = [client.invoke(1, "slow", (i,), stream=i % 2)
                for i in range(24)]
        cluster.run()
        assert all(f.done for f in futs)
        assert client.windows.window(1, 0).sheds.value > 0, \
            "rig must provoke sheds"
        return tracer

    def test_every_attempt_root_tiles_exactly(self, windowed_tracer):
        roots = _rpc_roots(windowed_tracer)
        # One attempt per logical op: the window re-issues nothing.
        assert len(roots) == 24
        for root in roots:
            stages = _stages(windowed_tracer, root)
            assert stages, f"root {root.name} has no stage spans"
            total = sum(s.duration for s in stages)
            assert total == pytest.approx(root.duration, rel=1e-9,
                                          abs=1e-15)

    def test_stage_sum_equals_root_sum_fleet_wide(self, windowed_tracer):
        """Cluster-wide: STAGE_NAMES durations partition total RPC time."""
        stage_total = sum(s.duration for s in windowed_tracer.spans
                          if s.name in STAGE_NAMES)
        root_total = sum(s.duration for s in _rpc_roots(windowed_tracer))
        assert stage_total == pytest.approx(root_total, rel=1e-9)

    def test_roots_carry_stream_attr(self, windowed_tracer):
        streams = {s.attrs.get("stream") for s in _rpc_roots(windowed_tracer)}
        assert streams == {0, 1}

    def test_critpath_grouping_sees_streams(self, windowed_tracer):
        from repro.obs import critpath_analyze

        result = critpath_analyze(windowed_tracer)
        assert result["tiling_max_residual"] == pytest.approx(0.0,
                                                              abs=1e-12)
        keys = {(g["dst"], g["stream"]) for g in result["groups"]}
        assert keys == {(1, 0), (1, 1)}


class TestAsyncCoalescedPath:
    def test_auto_coalescer_traced_run_tiles(self):
        """The async-futures path (auto coalescer + windows) keeps tiling:
        coalesce.buffer spans parent batch RPC roots, and every root still
        tiles exactly."""
        from repro.apps import run_kmer_counting, synthesize_genome

        data = synthesize_genome(genome_length=240, num_reads=24,
                                 read_length=60, k=15, seed=3)
        box = {}

        def instrument(hcl):
            box["tracer"] = install_tracer(hcl.sim)

        res = run_kmer_counting(
            "hcl", ares_like(nodes=2, procs_per_node=2), data,
            aggregation="auto", async_api=True, window=True,
            instrument=instrument,
        )
        assert res.verified
        tracer = box["tracer"]
        roots = _rpc_roots(tracer)
        assert roots
        assert any(s.name == "coalesce.buffer" for s in tracer.spans)
        for root in roots:
            total = sum(s.duration for s in _stages(tracer, root))
            assert total == pytest.approx(root.duration, rel=1e-9,
                                          abs=1e-15)
