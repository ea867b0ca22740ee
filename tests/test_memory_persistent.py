"""Tests for the mmap-backed persistent log (real file I/O)."""

import os

import pytest

from repro.memory import CorruptRecordError, PersistentLog


@pytest.fixture
def log_path(tmp_path):
    return str(tmp_path / "container.hcl")


class TestAppendRecover:
    def test_roundtrip(self, log_path):
        with PersistentLog(log_path) as log:
            log.append(b"alpha")
            log.append(b"beta")
        with PersistentLog(log_path) as log:
            assert [r.payload for r in log.records()] == [b"alpha", b"beta"]

    def test_append_after_reopen(self, log_path):
        with PersistentLog(log_path) as log:
            log.append(b"one")
        with PersistentLog(log_path) as log:
            log.append(b"two")
        with PersistentLog(log_path) as log:
            assert [r.payload for r in log.records()] == [b"one", b"two"]

    def test_empty_log(self, log_path):
        with PersistentLog(log_path) as log:
            assert list(log.records()) == []

    def test_large_payload_grows_file(self, log_path):
        blob = os.urandom(3 << 20)  # > initial 1 MiB chunk
        with PersistentLog(log_path) as log:
            log.append(blob)
        with PersistentLog(log_path) as log:
            (rec,) = list(log.records())
            assert rec.payload == blob

    def test_many_records(self, log_path):
        payloads = [f"record-{i}".encode() for i in range(500)]
        with PersistentLog(log_path) as log:
            for p in payloads:
                log.append(p)
            assert log.records_written == 500
        with PersistentLog(log_path) as log:
            assert [r.payload for r in log.records()] == payloads

    def test_payload_type_checked(self, log_path):
        with PersistentLog(log_path) as log:
            with pytest.raises(TypeError):
                log.append("not bytes")

    def test_closed_log_rejects_append(self, log_path):
        log = PersistentLog(log_path)
        log.close()
        with pytest.raises(ValueError):
            log.append(b"x")
        log.close()  # idempotent


class TestDurabilityModes:
    def test_strict_flushes_per_append(self, log_path):
        log = PersistentLog(log_path, relaxed=False)
        log.append(b"a")
        log.append(b"b")
        assert log.flushes == 2
        log.close()

    def test_relaxed_defers_flush(self, log_path):
        log = PersistentLog(log_path, relaxed=True)
        log.append(b"a")
        log.append(b"b")
        assert log.flushes == 0
        log.sync()
        assert log.flushes == 1
        log.close()


class TestCorruption:
    def _corrupt(self, path, offset, value=0xFF):
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(bytes([value]))

    def test_crc_mismatch_detected(self, log_path):
        with PersistentLog(log_path) as log:
            log.append(b"payload-payload")
        # Flip a payload byte (header is 12 bytes).
        self._corrupt(log_path, 14)
        with PersistentLog(log_path) as log:
            with pytest.raises(CorruptRecordError):
                list(log.records())

    def test_recovery_stops_at_corrupt_tail(self, log_path):
        """Scan-end recovery treats a bad tail as the end of the log."""
        with PersistentLog(log_path) as log:
            log.append(b"good")
            second = log.append(b"bad-record")
        self._corrupt(log_path, second + 13)
        log = PersistentLog(log_path)
        # The corrupt record was discarded; appends go after 'good'.
        log.append(b"new")
        payloads = []
        for rec in log._iter_from(0, stop_on_corrupt=True):
            payloads.append(rec.payload)
        assert payloads == [b"good", b"new"]
        log.close()

    def test_bad_magic_raises(self, log_path):
        with PersistentLog(log_path) as log:
            log.append(b"x")
        self._corrupt(log_path, 0, 0x01)
        with PersistentLog(log_path) as log:
            with pytest.raises(CorruptRecordError):
                list(log.records())


class TestGeometry:
    def test_bytes_used(self, log_path):
        with PersistentLog(log_path) as log:
            assert log._write_pos == 0
            log.append(b"12345")
            assert log._write_pos == 12 + 5


class TestTornTail:
    """A process that dies mid-append leaves a prefix of its last record
    and zeros after it: reading stops before that record, and reopening
    zero-fills it so the next append leaves nothing stale behind."""

    PAYLOADS = [b"alpha", b"beta-beta", b"gamma-gamma-gamma"]

    def _write(self, path):
        with PersistentLog(path) as log:
            offsets = [log.append(p) for p in self.PAYLOADS]
        with open(path, "rb") as fh:
            return offsets, fh.read()

    def test_every_tear_in_the_last_record_recovers(self, log_path):
        offsets, clean = self._write(log_path)
        last = offsets[-1]
        end = last + 12 + len(self.PAYLOADS[-1])
        kept = self.PAYLOADS[:-1]
        for k in range(last, end):
            with open(log_path, "wb") as fh:
                fh.write(clean[:k] + bytes(end - k) + clean[end:])
            with PersistentLog(log_path) as log:
                assert log._write_pos == last, k
                assert [r.payload for r in log.records()] == kept, k
                log.append(b"after")  # shorter than the torn record
            with PersistentLog(log_path) as log:
                assert [r.payload for r in log.records()] == \
                    kept + [b"after"], k

    def test_flipped_byte_in_an_earlier_record_raises(self, log_path):
        """Magic, CRC or payload: the bytes after the first record are not
        zero, so it is corruption, not a tear.  (A flipped length field can
        claim an extent that swallows the rest of the log, and then it is
        indistinguishable from one.)"""
        _offsets, clean = self._write(log_path)
        for k in [0, 1, 2, 3, 8, 9, 10, 11] + list(range(12, 17)):
            with open(log_path, "wb") as fh:
                fh.write(clean[:k] + bytes([clean[k] ^ 0xFF]) + clean[k + 1:])
            with PersistentLog(log_path) as log:
                with pytest.raises(CorruptRecordError):
                    list(log.records())

    def test_empty_payload_rejected(self, log_path):
        """A zero length is what a tear inside the length field leaves."""
        with PersistentLog(log_path) as log:
            with pytest.raises(ValueError, match="non-empty"):
                log.append(b"")
