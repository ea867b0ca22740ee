"""Tests for workloads and reporting."""

import pytest

from repro.harness import (
    Blob,
    key_stream,
    render_series,
    render_table,
)
from repro.harness.report import fmt_si
from repro.serialization.databox import estimate_size


class TestBlob:
    def test_size_drives_estimate(self):
        assert estimate_size(Blob(4096)) == 16 + 4096

    def test_equality_and_hash(self):
        assert Blob(10, tag=1) == Blob(10, tag=1)
        assert Blob(10, tag=1) != Blob(10, tag=2)
        assert len({Blob(10), Blob(10), Blob(20)}) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            Blob(-1)


class TestKeyStream:
    def test_deterministic(self):
        assert list(key_stream(3, 10, seed=1)) == list(key_stream(3, 10, seed=1))

    def test_rank_independent(self):
        assert list(key_stream(0, 10)) != list(key_stream(1, 10))

    def test_bounds(self):
        assert all(0 <= k < 100 for k in key_stream(0, 50, key_space=100))


class TestReport:
    def test_render_table(self):
        out = render_table("T1", ["a", "b"], [[1, 2.5], ["x", "y"]])
        assert "T1" in out and "2.5" in out and "x" in out

    def test_render_series(self):
        out = render_series("S", "nodes", [8, 16],
                            {"hcl": [100.0, 200.0], "bcl": [50.0, 60.0]})
        assert "nodes" in out and "hcl" in out
        assert "100.00" in out

    def test_series_handles_short_columns(self):
        out = render_series("S", "x", [1, 2], {"partial": [5.0]})
        assert "-" in out

    def test_fmt_si(self):
        assert fmt_si(1234) == "1.23K"
        assert fmt_si(2_500_000) == "2.50M"
        assert fmt_si(3.2e9) == "3.20G"
        assert fmt_si(12.0) == "12.00"
