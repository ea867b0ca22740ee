"""Tests for the wall-clock attribution profiler (repro.obs.profile).

The load-bearing guarantee is *purity*: profiling observes frame
entry/exit only, so a profiled bench run must produce byte-identical
simulated results to an unprofiled one.  The rest covers subsystem
classification, scope accounting, folded-stack format, and the payload
validator that CI's profile-smoke leg runs.
"""

from __future__ import annotations

import json

from repro.harness.aggbench import HARNESS as AGG, run_agg_bench
from repro.obs import (
    WallProfiler,
    classify_function,
    render_profile,
    validate_profile,
    write_folded,
    write_json,
    write_profile_json,
)
from repro.obs.profile import PROFILE_SCHEMA_KIND
from repro.simnet import Simulator


class TestClassification:
    def test_repo_paths_map_to_subsystems(self):
        cases = {
            "src/repro/serialization/codec.py": "marshal",
            "src/repro/rpc/coalesce.py": "coalesce",
            "src/repro/rpc/engine.py": "rpc",
            "src/repro/fabric/links.py": "fabric",
            "src/repro/obs/profile.py": "observability",
            "src/repro/simnet/trace.py": "observability",
            "src/repro/simnet/core.py": "kernel",
            "src/repro/core/hashmap.py": "container",
            "src/repro/structures/rbtree.py": "container",
            "src/repro/memory/segment.py": "memory",
            "src/repro/apps/kmer.py": "app",
            "src/repro/harness/aggbench.py": "harness",
            "benchmarks/conftest.py": "harness",
        }
        for path, expected in cases.items():
            assert classify_function(path) == expected, path

    def test_stdlib_serialization_counts_as_marshal(self):
        assert classify_function("/usr/lib/python3.10/pickle.py") == "marshal"
        assert classify_function("/usr/lib/python3.10/struct.py") == "marshal"

    def test_everything_else_is_python(self):
        assert classify_function("~") == "python"
        assert classify_function("/usr/lib/python3.10/heapq.py") == "python"

    def test_unmatched_repo_file_is_other(self):
        assert classify_function("src/repro/mystery/new.py") == "other"

    def test_windows_separators_normalize(self):
        assert classify_function("src\\repro\\simnet\\core.py") == "kernel"


class TestScopes:
    def test_scopes_accumulate_wall_and_count(self):
        ticks = iter(range(100))
        prof = WallProfiler(clock=lambda: float(next(ticks)))
        with prof.scope("run"):
            pass  # 1 tick
        with prof.scope("run"):
            pass  # 1 tick
        payload = prof.report()
        scopes = {s["name"]: s for s in payload["scopes"]}
        assert scopes["run"]["count"] == 2
        assert scopes["run"]["wall_seconds"] == 2.0

    def test_nested_scopes_record_joined_path(self):
        prof = WallProfiler()
        with prof.scope("outer"):
            with prof.scope("inner"):
                pass
        names = {s["name"] for s in prof.report()["scopes"]}
        assert "outer" in names
        assert "outer;inner" in names


class TestReportShape:
    def _profiled_payload(self):
        prof = WallProfiler()
        with prof.profile():
            # Burn measurable time in a known subsystem: json.dumps with
            # indent runs the pure-Python encoder in json/encoder.py,
            # which classifies as "marshal" (pickle.dumps of builtins
            # stays in the C extension and never surfaces frames).
            blob = {str(i): list(range(20)) for i in range(200)}
            for _ in range(20):
                json.dumps(blob, indent=1)
            sum(i * i for i in range(20000))
        return prof.report(command="unit-test")

    def test_payload_validates_and_shares_sum_to_one(self):
        payload = self._profiled_payload()
        assert payload["kind"] == PROFILE_SCHEMA_KIND
        assert validate_profile(payload) == []
        assert payload["profiled_seconds"] > 0
        total = sum(row["share"] for row in payload["subsystems"])
        assert abs(total - 1.0) < 1e-6
        subsystems = {row["subsystem"] for row in payload["subsystems"]}
        assert "marshal" in subsystems

    def test_folded_lines_parse_as_path_and_microseconds(self):
        payload = self._profiled_payload()
        assert payload["folded"], "expected at least one folded stack"
        for line in payload["folded"]:
            path, _sep, value = line.rpartition(" ")
            assert path and value.isdigit()

    def test_render_mentions_subsystems_and_top_functions(self):
        text = render_profile(self._profiled_payload())
        assert "subsystem" in text
        assert "marshal" in text
        assert "top functions by self time" in text

    def test_json_and_folded_writers_round_trip(self, tmp_path):
        payload = self._profiled_payload()
        json_path = tmp_path / "p.json"
        folded_path = tmp_path / "p.folded"
        write_profile_json(payload, str(json_path))
        n = write_folded(payload, str(folded_path))
        loaded = json.loads(json_path.read_text())
        assert validate_profile(loaded) == []
        assert loaded["functions_total"] == payload["functions_total"]
        lines = folded_path.read_text().splitlines()
        assert len(lines) == n == len(payload["folded"])
        assert lines == payload["folded"]


class TestValidatorRejectsMalformedPayloads:
    def test_wrong_kind(self):
        errs = validate_profile({"kind": "nope", "wall_seconds": 0.0,
                                 "profiled_seconds": 0.0, "subsystems": [],
                                 "functions": [], "scopes": [], "folded": []})
        assert any("kind" in e for e in errs)

    def test_share_out_of_range(self):
        errs = validate_profile({
            "kind": PROFILE_SCHEMA_KIND, "wall_seconds": 1.0,
            "profiled_seconds": 0.0,
            "subsystems": [{"subsystem": "kernel", "share": 1.5,
                            "self_seconds": 1.0, "calls": 1}],
            "functions": [], "scopes": [], "folded": [],
        })
        assert any("outside [0, 1]" in e for e in errs)

    def test_bad_folded_line(self):
        errs = validate_profile({
            "kind": PROFILE_SCHEMA_KIND, "wall_seconds": 0.0,
            "profiled_seconds": 0.0, "subsystems": [], "functions": [],
            "scopes": [], "folded": ["kernel;walk not-a-number"],
        })
        assert any("folded[0]" in e for e in errs)

    def test_non_dict_payload(self):
        assert validate_profile([]) == ["profile payload must be an object"]


class TestProfilingPurity:
    """Profiling must never change simulated results."""

    def test_profiled_agg_bench_is_byte_identical(self, tmp_path):
        kwargs = dict(scale=0.25, sweep=[0, 64], apps=["kmer"])
        plain = run_agg_bench(**kwargs)
        prof = WallProfiler()
        with prof.profile():
            profiled = run_agg_bench(**kwargs)
        a, b = tmp_path / "plain.json", tmp_path / "profiled.json"
        write_json(AGG.emit(plain)[""], str(a))
        write_json(AGG.emit(profiled)[""], str(b))
        assert a.read_bytes() == b.read_bytes()
        # and the profile itself is well-formed, attributing real time
        payload = prof.report(command="aggbench")
        assert validate_profile(payload) == []
        assert payload["profiled_seconds"] > 0

    def test_profiled_kernel_bench_matches_sim_fields(self):
        def timeouts():
            sim = Simulator()

            def worker():
                for _ in range(200):
                    yield sim.timeout(1e-6)

            for _ in range(10):
                sim.process(worker())
            sim.run()
            return sim.events_processed, sim.now

        plain = timeouts()
        with WallProfiler().profile():
            profiled = timeouts()
        assert profiled == plain
