"""The bench subcommands' CLI glue, as one harness x instrument matrix.

Every bench command runs through ``run_bench`` and every instrument
through ``Instruments``, so one parametrised test covers each cell the
harness records declare: instruments never change the report, every
artifact is one the repo's own tools can read, and same-argv reruns write
the same bytes.  Reports carry simulated fields only, so "the same" means
byte for byte.  The figure subcommands (``repro.cli.FIGURES``) are records
run by the same driver: they declare no instrument, so each has the one
empty cell, and their verification is checked without ``--check``.
"""

from __future__ import annotations

import glob
import json
import os
import re
from dataclasses import replace

import pytest

from repro.cli import BENCHES, FIGURES, build_parser, main
from repro.obs import (
    Instruments,
    load_artifact,
    suffixed,
    validate_chrome_trace,
    validate_span_log,
)

#: tiny shape + the row labels it produces, per bench command
TINY = {
    "serving": (["--nodes", "2", "--procs", "2", "--clients", "100",
                 "--tenants", "2", "--keys", "64", "--rate", "2400",
                 "--ops-per-client", "5", "--bounds", "off", "16"],
                ["off", "b16"]),
    # --aggregation 8: a multi-phase run (upserts, then reads through the
    # read cache) whose coalescers flush under every instrument
    "chaos-soak": (["--plans", "mixed", "calm", "--keys", "8", "--kmers", "8",
                    "--aggregation", "8"],
                   ["mixed", "calm"]),
    # the FIGURES records: one report each, whatever the sweep
    "fig1": ([], [""]),
    "fig4": (["--scale", "0.1"], [""]),
    "fig5": (["--sizes", "4096"], [""]),
    "fig6": (["--scale", "0.1", "--partitions", "1", "2"], [""]),
    "fig7": (["--apps", "isx", "kmer", "--nodes", "2", "--procs", "2",
              "--ops", "16", "--scale", "0.25"], [""]),
    "microbench": ([], [""]),
}

#: instrument -> (flags writing into the cell's directory, files per row)
INSTRUMENT_FLAGS = {
    "trace": (["--trace", "t"], ["t{}.jsonl", "t{}_chrome.json"]),
    "metrics": (["--metrics-out", "m.json"], ["m{}.json"]),
    "flight": (["--flight-recorder", "f.json"], ["f{}.json"]),
}

HARNESSES = {h.name: h for h in BENCHES + FIGURES}

#: the figures declare no instrument: their one cell is the empty one
CELLS = [(h.name, (ins,)) for h in BENCHES for ins in h.instruments] \
    + [(h.name, tuple(h.instruments)) for h in BENCHES + FIGURES]


def _run(name, instruments, where):
    """One CLI run of ``name`` inside ``where``; returns {file: bytes}."""
    argv = [name] + TINY[name][0] + ["--emit", "report.json"]
    for ins in instruments:
        argv += INSTRUMENT_FLAGS[ins][0]
    os.makedirs(where)
    cwd = os.getcwd()
    os.chdir(where)
    try:
        assert main(argv) == 0
    finally:
        os.chdir(cwd)
    files = {}
    for fname in os.listdir(where):
        with open(os.path.join(where, fname), "rb") as fh:
            files[fname] = fh.read()
    return files


def _reports(files):
    """The ``--emit`` JSONs of one run, as raw bytes."""
    return {f: data for f, data in files.items() if f.startswith("report")}


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    """Instruments-off reports, one run per command (lazily cached)."""
    cache = {}

    def get(name):
        if name not in cache:
            where = tmp_path_factory.mktemp("plain") / name
            cache[name] = _reports(_run(name, (), str(where)))
        return cache[name]

    return get


@pytest.mark.parametrize("name,instruments", CELLS,
                         ids=[f"{n}-{'+'.join(i)}" for n, i in CELLS])
def test_matrix_cell(name, instruments, plain, tmp_path):
    files = _run(name, instruments, str(tmp_path / "a"))

    # (a) instruments never change the report
    reports = _reports(files)
    assert reports == plain(name)

    # the one naming rule: PATH_<label> per row, plain PATH for one row
    labels = TINY[name][1]
    expected = set(reports)
    for ins in instruments:
        for pattern in INSTRUMENT_FLAGS[ins][1]:
            expected |= {pattern.format(f"_{label}" if len(labels) > 1
                                        else "") for label in labels}
    assert set(files) == expected

    # (b) every artifact passes its own schema check: a metrics snapshot
    # is one JSON object (what obs-diff reads), a flight payload says so
    for fname in sorted(set(files) - set(reports)):
        path = str(tmp_path / "a" / fname)
        if fname.endswith(".jsonl"):
            assert validate_span_log(path) == []
            assert files[fname], "span log is empty"
        elif fname.endswith("_chrome.json"):
            assert validate_chrome_trace(path) == []
        elif fname[0] == "m":
            assert isinstance(load_artifact(path), dict), fname
        else:
            assert fname[0] == "f", fname
            with open(path, encoding="utf-8") as fh:
                assert json.load(fh)["kind"] == "flight_recorder", fname

    # (c) same-seed reruns write byte-identical span and flight files
    # (checked on the single-instrument cells)
    if instruments in (("trace",), ("flight",)):
        again = _run(name, instruments, str(tmp_path / "b"))
        for fname in files:
            if fname[0] in "tf":
                assert files[fname] == again[fname], fname


# (a figure's rerun is its one, empty, matrix cell)
@pytest.mark.parametrize("name", [h.name for h in BENCHES])
def test_same_argv_reruns_emit_identical_bytes(name, plain, tmp_path):
    again = _reports(_run(name, (), str(tmp_path / "again")))
    assert again and again == plain(name)


def test_committed_baselines_carry_no_host_clock():
    """Every ``BENCH_*.json`` is an exact simulated baseline: CI gates them
    with ``cmp``, which a wall-clock field would break on every run.
    Host time is the ledger's."""
    host_clock = ("wall", "ops_per_sec", "events_per_sec")

    def keys(node):
        if isinstance(node, dict):
            for key, value in node.items():
                yield key
                yield from keys(value)
        elif isinstance(node, list):
            for value in node:
                yield from keys(value)

    root = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            bad = sorted({key for key in keys(json.load(fh))
                          if any(f in key for f in host_clock)})
        assert not bad, (os.path.basename(path), bad)


class TestCheck:
    """(d) one place turns check failures into CHECK FAILED + exit 1."""

    FAILING = [
        # --require-cliff gates on its own, without --check
        ["serving", *TINY["serving"][0], "--require-cliff",
         "--cliff-factor", "1e6"],
        # a soak that injects nothing fails its verdict: no --check needed
        ["chaos-soak", "--plans", "drop-heavy", "--nodes", "2", "--procs", "1",
         "--keys", "1", "--kmers", "1", "--horizon", "1e-9"],
    ]

    @pytest.mark.parametrize("argv", FAILING, ids=[a[0] for a in FAILING])
    def test_failure_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "CHECK FAILED: " in capsys.readouterr().err

    def test_fig7_failed_verification_exits_1(self, monkeypatch, capsys):
        """A figure's verification is its always-on check, not an
        ``assert`` that ``python -O`` drops."""
        import repro.apps

        real = repro.apps.run_isx
        monkeypatch.setattr(
            repro.apps, "run_isx", lambda backend, *a, **kw: replace(
                real(backend, *a, **kw), verified=backend != "bcl"))
        assert main(["fig7", *TINY["fig7"][0]]) == 1
        assert ("CHECK FAILED: isx (bcl) nodes=2: verification failed"
                in capsys.readouterr().err)

    def test_fig6_find_miss_exits_1(self, monkeypatch, capsys):
        from repro.bcl import BCLHashMap

        real = BCLHashMap.find

        def find(self, rank, key):
            value, _found = yield from real(self, rank, key)
            return value, False

        monkeypatch.setattr(BCLHashMap, "find", find)
        assert main(["fig6", "--scale", "0.1", "--partitions", "1"]) == 1
        assert ("CHECK FAILED: bcl hashmap partitions=1: 96 find(s) missed "
                "an inserted key" in capsys.readouterr().err)

    def test_fig1_lost_insert_exits_1(self, monkeypatch, capsys):
        from repro.harness import figures

        monkeypatch.setattr(figures, "_fig1_bcl", lambda: (1.0, {}))
        monkeypatch.setattr(figures, "_fig1_rpc",
                            lambda lock_free: (1.0, 7 if lock_free else 10240))
        assert main(["fig1"]) == 1
        assert ("CHECK FAILED: rpc_lockfree: server stored 7 of 10240 inserts"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("name", ["serving"])
    def test_passing_check_exits_0(self, name, capsys):
        assert main([name, *TINY[name][0], "--check"]) == 0
        assert "CHECK FAILED" not in capsys.readouterr().err

    def test_unchecked_run_ignores_failures(self, capsys):
        argv = [a for a in self.FAILING[0] if a != "--require-cliff"]
        assert main(argv) == 0
        assert "CHECK FAILED" not in capsys.readouterr().err


class TestParser:
    def test_list_equals_the_subcommand_table(self, capsys):
        """(e) ``list`` reads the parser's table, not a hand-kept string."""
        assert main(["list"]) == 0
        listed = capsys.readouterr().out.splitlines()[0].split()[1:]
        sub = next(a for a in build_parser()._actions if a.choices)
        assert listed == list(sub.choices)
        assert {h.name for h in BENCHES + FIGURES} < set(listed)

    @pytest.mark.parametrize("name", HARNESSES)
    def test_only_declared_instruments_parse(self, name, capsys):
        declared = HARNESSES[name].instruments
        for ins, (flags, _files) in INSTRUMENT_FLAGS.items():
            if ins not in declared:
                with pytest.raises(SystemExit):
                    build_parser().parse_args([name] + flags)
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--flight-maxlen", "--profile-top",
                                      "--profile", "--profile-out",
                                      "--profile-folded"])
    def test_single_valued_knobs_are_constants(self, flag, capsys):
        """Removed flags stay removed on every bench: the ring bound is a
        constant, and host time is the ledger's (no profile instrument)."""
        for h in BENCHES:
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args([h.name, flag, "8"])
            assert exit_.value.code == 2
        capsys.readouterr()

    def test_rows_run_once(self, capsys):
        """No bench times its rows, so none takes a best-of-N knob."""
        for name in HARNESSES:
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args([name, "--repeats", "1"])
            assert exit_.value.code == 2
        capsys.readouterr()

    def test_docs_matrix_matches_the_records(self):
        """docs/OBSERVABILITY.md says every bench takes all three
        instruments and names the benches; the records must agree."""
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "docs", "OBSERVABILITY.md"),
                  encoding="utf-8") as fh:
            doc = fh.read()
        line = next(ln for ln in doc.splitlines()
                    if ln.startswith("Every bench takes all three "
                                     "instruments"))
        assert set(re.findall(r"`([a-z-]+)`", line)) == \
            {h.name for h in BENCHES}
        assert len(INSTRUMENT_FLAGS) == 3
        for h in BENCHES:
            assert set(h.instruments) == set(INSTRUMENT_FLAGS), h.name


class TestSeam:
    def test_suffixed_splits_on_the_basename(self):
        assert suffixed("./out/chaos_trace", "mixed") == \
            "./out/chaos_trace_mixed"
        assert suffixed("artifacts.d/flight", "b16") == \
            "artifacts.d/flight_b16"
        assert suffixed("flight.json", "b16") == "flight_b16.json"
        assert suffixed("/tmp/run.1/serving_flight.json", "off") == \
            "/tmp/run.1/serving_flight_off.json"

    def test_second_pump_is_refused(self):
        """One pump per cluster: a second recorder raises instead of
        silently starving the first (a harness that wants the run's
        recorder takes it with ``recorder_of``, as serving does)."""
        from repro.config import ares_like
        from repro.core import HCL

        hcl = HCL(ares_like(nodes=2, procs_per_node=1))
        Instruments(flight=True)(hcl)
        with pytest.raises(RuntimeError, match="already driven"):
            Instruments(flight=True)(hcl)

    def test_runs_remember_row_labels(self):
        ins = Instruments(metrics=True)
        args = build_parser().parse_args(["chaos-soak",
                                          *TINY["chaos-soak"][0]])
        HARNESSES["chaos-soak"].run(args, ins)
        assert [run.label for run in ins.runs] == TINY["chaos-soak"][1]
