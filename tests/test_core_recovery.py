"""Tests for first-class crash recovery (recover=True)."""

import pytest

from repro.core import HCL
from repro.harness import Blob
from repro.memory import PersistentLog
from repro.serialization import DataBox


def _fill_and_crash(tmp_path, spec):
    """First life: write, mutate, crash (close)."""
    hcl = HCL(spec, persist_dir=str(tmp_path))
    m = hcl.unordered_map("kv", partitions=2, persistence=True)

    def body(rank):
        yield from m.insert(rank, f"key-{rank}", rank * 10)
        yield from m.upsert(rank, "counter", 1)
        if rank == 0:
            yield from m.insert(rank, "doomed", "x")
            yield from m.erase(rank, "doomed")

    hcl.run_ranks(body)
    m.close()
    return spec.total_procs


class TestRecovery:
    def test_fresh_runtime_recovers_contents(self, tmp_path, small_spec):
        n = _fill_and_crash(tmp_path, small_spec)

        hcl2 = HCL(small_spec, persist_dir=str(tmp_path))
        m2 = hcl2.unordered_map("kv", partitions=2, persistence=True,
                                recover=True)
        results = {}

        def reader(rank):
            value, found = yield from m2.find(rank, f"key-{rank}")
            assert found and value == rank * 10
            counter, found = yield from m2.find(rank, "counter")
            assert found and counter == n
            _v, doomed = yield from m2.find(rank, "doomed")
            assert not doomed  # the erase replayed too
            results[rank] = True

        hcl2.run_ranks(reader)
        assert len(results) == n

    def test_recovered_container_accepts_new_writes(self, tmp_path,
                                                    small_spec):
        _fill_and_crash(tmp_path, small_spec)
        hcl2 = HCL(small_spec, persist_dir=str(tmp_path))
        m2 = hcl2.unordered_map("kv", partitions=2, persistence=True,
                                recover=True)

        def body(rank):
            yield from m2.upsert(rank, "counter", 1)

        hcl2.run_ranks(body)
        part = m2.partition_for("counter")
        value, found, _ = part.structure.find("counter")
        assert found and value == 2 * small_spec.total_procs
        m2.close()

        # Third life: both generations of writes survive.
        hcl3 = HCL(small_spec, persist_dir=str(tmp_path))
        m3 = hcl3.unordered_map("kv", partitions=2, persistence=True,
                                recover=True)
        part = m3.partition_for("counter")
        value, found, _ = part.structure.find("counter")
        assert found and value == 2 * small_spec.total_procs

    def test_recover_requires_persistence(self, small_spec):
        hcl = HCL(small_spec)
        with pytest.raises(ValueError, match="persistence"):
            hcl.unordered_map("kv", recover=True)

    def test_recover_empty_logs_is_noop(self, tmp_path, small_spec):
        hcl = HCL(small_spec, persist_dir=str(tmp_path))
        m = hcl.unordered_map("kv", partitions=2, persistence=True,
                              recover=True)
        assert m.total_entries() == 0

    def test_queue_recovery(self, tmp_path, small_spec):
        hcl = HCL(small_spec, persist_dir=str(tmp_path))
        q = hcl.queue("wq", persistence=True)

        def body(rank):
            yield from q.push(rank, rank)

        hcl.run_ranks(body)
        q.close()

        hcl2 = HCL(small_spec, persist_dir=str(tmp_path))
        q2 = hcl2.queue("wq", persistence=True, recover=True)
        assert len(q2.home.structure) == small_spec.total_procs

        def drain(rank):
            got = []
            while True:
                value, ok = yield from q2.pop(rank)
                if not ok:
                    return got
                got.append(value)

        proc = hcl2.cluster.spawn(drain(0))
        hcl2.cluster.run()
        assert sorted(proc.result) == list(range(small_spec.total_procs))

    def test_replayed_count_reported(self, tmp_path, small_spec):
        _fill_and_crash(tmp_path, small_spec)
        hcl2 = HCL(small_spec, persist_dir=str(tmp_path))
        m2 = hcl2.unordered_map("kv2", partitions=2, persistence=True)
        assert m2.recover_from_logs() == 0  # different name, no logs
        m3 = hcl2.unordered_map("kv", partitions=2, persistence=True)
        # 8 inserts + 8 upserts + insert + erase = 18 mutations replayed.
        assert m3.recover_from_logs() == 18


#: One single-partition map's log, record by record: each mutation and the
#: hex of the DataBox payload it appends.  The bytes are the log format —
#: logs written by earlier builds (which offered three DataBox backends,
#: msgpack the default) must keep replaying, so neither side may drift.
FROZEN_LOG = [
    (("insert", "alpha", 7),
     "4292a6696e7365727492a5616c70686107"),
    (("insert", "big", 2**70),
     "4292a6696e7365727492a362696781aa5f5f626967696e745f5fb4307834303030"
     "3030303030303030303030303030"),
    (("insert", "neg", -1.5),
     "4292a6696e7365727492a36e6567cbbff8000000000000"),
    (("insert", "none", None),
     "4292a6696e7365727492a46e6f6e65c0"),
    (("insert", "raw", b"\x00\xff"),
     "4292a6696e7365727492a3726177c40200ff"),
    (("insert", "nested", [1, "two", {"three": 3.0}, True]),
     "4292a6696e7365727492a66e65737465649401a374776f81a57468726565cb4008"
     "000000000000c3"),
    (("insert", 42, Blob(4096, tag=3)),
     "4292a6696e73657274922ac71542a4426c6f620010000000000000030000000000"
     "0000"),
    (("upsert", "count", 5),
     "4292a675707365727492a5636f756e7405"),
    (("insert", "doomed", "x"),
     "4292a6696e7365727492a6646f6f6d6564a178"),
    (("erase", "doomed"),
     "4292a5657261736591a6646f6f6d6564"),
]


def _write_frozen(hcl):
    m = hcl.unordered_map("kv", partitions=1, persistence=True)

    def body(rank):
        for (op, *args), _hex in FROZEN_LOG:
            yield from getattr(m, op)(rank, *args)

    hcl.run_ranks(body, ranks=range(1))
    m.close()


class TestLogFormat:
    def test_records_decode_as_databoxes(self, small_spec, tmp_path):
        _write_frozen(HCL(small_spec, persist_dir=str(tmp_path)))
        with PersistentLog(str(tmp_path / "kv.part0.hcl")) as log:
            ops = [DataBox.decode(r.payload).value for r in log.records()]
        assert [op for op, _args in ops] == [
            call[0] for call, _hex in FROZEN_LOG]
        assert ops[0] == ["insert", ["alpha", 7]]

    def test_record_bytes_are_frozen(self, small_spec, tmp_path):
        _write_frozen(HCL(small_spec, persist_dir=str(tmp_path)))
        with PersistentLog(str(tmp_path / "kv.part0.hcl")) as log:
            written = [r.payload.hex() for r in log.records()]
        assert written == [hexed for _call, hexed in FROZEN_LOG]

    def test_frozen_log_replays(self, small_spec, tmp_path):
        with PersistentLog(str(tmp_path / "kv.part0.hcl")) as log:
            for _call, hexed in FROZEN_LOG:
                log.append(bytes.fromhex(hexed))
        hcl = HCL(small_spec, persist_dir=str(tmp_path))
        m = hcl.unordered_map("kv", partitions=1, persistence=True,
                              recover=True)
        table = m.partitions[0].structure
        expected = {"alpha": 7, "big": 2**70, "neg": -1.5, "none": None,
                    "raw": b"\x00\xff",
                    "nested": [1, "two", {"three": 3.0}, True],
                    42: Blob(4096, tag=3), "count": 5}
        for key, value in expected.items():
            got, found, _stats = table.find(key)
            assert found and got == value, key
        assert not table.find("doomed")[1]
        assert m.total_entries() == len(expected)
        m.close()
