"""``agree`` verdicts on hand-made result files."""

import json

from benchmarks.ledger import agree
from benchmarks.ledger.metrics import metric_table


def record(**values):
    return {"metrics": {name: {"value": value, "unit": ""}
                        for name, value in values.items()},
            "spread": {}}


def result(**values):
    return {"workloads": {"fig6_bulk_64k": record(**values)}}


def verdicts(a, b):
    return {row[1]: row[4] for row in agree.compare(a, b)}


def test_host_metric_moves_against_its_ten_percent_bound():
    base = result(host_us_per_op=100.0, peak_rss_mb=60.0, setup_s=0.004)
    assert verdicts(base, result(host_us_per_op=109.0, peak_rss_mb=60.0,
                                 setup_s=0.004))["host_us_per_op"] == "same"
    assert verdicts(base, result(host_us_per_op=111.0, peak_rss_mb=60.0,
                                 setup_s=0.004))["host_us_per_op"] == "worse"
    assert verdicts(base, result(host_us_per_op=80.0, peak_rss_mb=60.0,
                                 setup_s=0.004))["host_us_per_op"] == "better"


def test_setup_has_an_absolute_floor():
    base = result(setup_s=0.004)
    # 5x worse but within 0.02 reference-box seconds
    assert verdicts(base, result(setup_s=0.020))["setup_s"] == "same"
    assert verdicts(base, result(setup_s=0.030))["setup_s"] == "worse"


def test_simulated_metrics_are_held_to_a_tenth_of_a_percent():
    base = result(sim_ops_per_s=1000.0, sim_p99_us=50.0, ops_failed_share=0.0)
    same = verdicts(base, result(sim_ops_per_s=1000.0, sim_p99_us=50.0,
                                 ops_failed_share=0.0))
    assert set(same.values()) == {"same"}
    moved = verdicts(base, result(sim_ops_per_s=998.0, sim_p99_us=49.0,
                                  ops_failed_share=0.001))
    assert moved == {"sim_ops_per_s": "worse", "sim_p99_us": "better",
                     "ops_failed_share": "worse"}


def test_wide_spread_is_unresolved_not_unchanged():
    a, b = result(host_us_per_op=100.0), result(host_us_per_op=103.0)
    b["workloads"]["fig6_bulk_64k"]["spread"] = {
        "host_us_per_op": {"spread": 0.2}}
    assert verdicts(a, b)["host_us_per_op"] == "unresolved"
    # a move beyond the bound is still called
    b["workloads"]["fig6_bulk_64k"]["metrics"]["host_us_per_op"]["value"] = 150
    assert verdicts(a, b)["host_us_per_op"] == "worse"


def test_main_exits_nonzero_on_worse(tmp_path, capsys):
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    path_a.write_text(json.dumps(result(host_us_per_op=100.0)))
    path_b.write_text(json.dumps(result(host_us_per_op=100.0)))
    assert agree.main(str(path_a), str(path_b)) == 0
    path_b.write_text(json.dumps(result(host_us_per_op=200.0)))
    assert agree.main(str(path_a), str(path_b)) == 1
    assert "worse" in capsys.readouterr().out
    # a workload missing from B cannot pass
    path_b.write_text(json.dumps({"workloads": {}}))
    assert agree.main(str(path_a), str(path_b)) == 1


def test_verdict_directions():
    table = metric_table()
    higher = table["sim_ops_per_s"]
    assert agree.verdict(higher, 100.0, 90.0) == "worse"
    assert agree.verdict(higher, 100.0, 110.0) == "better"
