"""``BENCHMARK.json`` says what the ledger measures, within the driver's
limits, and the command behaves as the contract asks."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.ledger.metrics import (
    END_TO_END,
    PER_LAYER,
    ROWS,
    driver_tables,
    metric_table,
)
from benchmarks.ledger.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_metric_tables():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    tables = driver_tables()
    assert SPEC["end_to_end"] == tables["end_to_end"]
    assert SPEC["per_layer"] == tables["per_layer"]
    assert SPEC["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in WORKLOADS.values()]
    assert SPEC["paths"] == ["benchmarks/ledger"]
    assert SPEC["command"] == ["python3", "benchmarks/ledger/run.py"]


def test_benchmark_json_is_within_the_contract_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 6) < 3420  # 6 s: import + warm-up
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")
    for entry in SPEC["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    for workload in SPEC["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_row_has_its_metrics():
    rows = [row for w in WORKLOADS.values() for row, _fn in w.rows]
    assert tuple(rows) == ROWS
    table = metric_table()
    for row in rows:
        assert f"row.{row}.sim_s" in table
        assert f"row.{row}.host_us_per_op" in table


def test_every_per_layer_metric_names_the_metric_it_should_move():
    end_to_end = {m.name for m in END_TO_END}
    for metric in PER_LAYER:
        assert metric.bound is None
        assert metric.moves in end_to_end or metric.name.startswith("obs.")


def run_py(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)


def test_smoke_run_prints_the_contract_line():
    done = run_py(ROOT, "--workload", "kernel_timeouts", "--reps", "1",
                  "--seed", "11")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] == 501000
    assert set(last["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
    for name in ("setup_s", "host_us_per_op", "simnet.events_per_op"):
        assert f"\n  {name} " in done.stdout  # printed by name, with unit


def test_without_the_system_under_test_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "ledger",
                    tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_py(tmp_path, "--workload", "kernel_timeouts", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
