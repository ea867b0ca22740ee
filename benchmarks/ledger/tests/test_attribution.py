"""Builtin-to-caller attribution of a profile table."""

import cProfile
import pstats

import pytest

from benchmarks.ledger.attribution import (
    LAYERS,
    attribute_profile,
    layer_of_path,
    profile_metrics,
)

SIM = ("/x/src/repro/simnet/core.py", 10, "run")
RPC = ("/x/src/repro/rpc/client.py", 20, "invoke")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
SHUFFLE = ("/usr/lib/python3/random.py", 5, "shuffle")
RANDBELOW = ("/usr/lib/python3/random.py", 9, "_randbelow")
HARNESS = ("/x/src/repro/harness/serving.py", 30, "__init__")
ROOT = ("~", 0, "<built-in method builtins.exec>")


def entry(calls, self_s, callers=None):
    return (calls, calls, self_s, self_s, callers or {})


def edge(calls, self_s):
    return (calls, calls, self_s, self_s)


def test_layer_of_path():
    assert layer_of_path("/a/src/repro/simnet/core.py") == "simnet"
    assert layer_of_path("/a/src/repro/config.py") == "harness"
    assert layer_of_path("/a/benchmarks/ledger/workloads.py") == "harness"
    assert layer_of_path("/usr/lib/python3.11/heapq.py") is None
    assert layer_of_path("~") is None


def test_builtin_time_goes_to_the_nearest_repro_caller():
    stats = {
        ROOT: entry(1, 0.5),
        SIM: entry(10, 4.0, {ROOT: edge(10, 4.0)}),
        RPC: entry(10, 1.0, {SIM: edge(10, 1.0)}),
        # heappush: 3 s under simnet, 1 s under rpc
        HEAPPUSH: entry(100, 4.0, {SIM: edge(75, 3.0), RPC: edge(25, 1.0)}),
        # shuffle -> _randbelow: two stdlib hops below the harness
        HARNESS: entry(1, 0.2, {ROOT: edge(1, 0.2)}),
        SHUFFLE: entry(1, 0.3, {HARNESS: edge(1, 0.3)}),
        RANDBELOW: entry(50, 0.5, {SHUFFLE: edge(50, 0.5)}),
    }
    table = attribute_profile(stats)
    self_s = table["self_s"]
    assert self_s["simnet"] == pytest.approx(4.0 + 3.0)
    assert self_s["rpc"] == pytest.approx(1.0 + 1.0)
    assert self_s["harness"] == pytest.approx(0.2 + 0.3 + 0.5)
    assert self_s["other"] == pytest.approx(0.5)  # the root itself
    total = sum(entry[2] for entry in stats.values())
    assert sum(self_s.values()) == pytest.approx(total)
    # call counts are of Python functions in the layer's own files
    assert table["calls"]["simnet"] == 10
    assert table["calls"]["harness"] == 1
    assert set(table["calls"]) == set(LAYERS)


def test_real_profile_is_accounted_for():
    from benchmarks.ledger.workloads import WORKLOADS

    workload = WORKLOADS["smallops_rpc"]
    inputs = workload.prepare(7)
    profile = cProfile.Profile()
    profile.enable()
    result = workload.rows[0][1](inputs, lambda hcl: None)
    profile.disable()
    assert result.failed == 0
    metrics = profile_metrics(profile, result.ops)["metrics"]
    shares = {name: value for name, value in metrics.items()
              if name.endswith(".host_share")}
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert shares["other.host_share"] < 0.05
    assert max(shares, key=shares.get) == "simnet.host_share"
    # without attribution a third of this profile has no layer
    raw = pstats.Stats(profile).stats
    unowned = sum(e[2] for f, e in raw.items() if layer_of_path(f[0]) is None)
    assert unowned / sum(e[2] for e in raw.values()) > 0.1
