"""Calibration tests: the simulated fabric matches the paper's testbed.

Section IV quotes two independent measurements of Ares that anchor the
cost model; these tests pin them (and the derived fabric behaviours) so a
config change that silently breaks calibration fails loudly.
"""

from dataclasses import asdict

import pytest

from repro.config import ares_like
from repro.harness.microbench import run_microbench


#: ``run_microbench()`` per provider, recorded when the pipelined loops
#: still posted through an ibverbs-style completion queue, and frozen:
#: every value must stay exact.
RECORDED = {
    "roce": dict(
        verb_latency_us=9.463659397761027,
        read_latency_us=16.12897448009915,
        cas_latency_us=16.535597218407528,
        bandwidth_gbs=3.8188561625548334,
        message_rate_mops=3.153590236761075,
        atomic_rate_mops=0.6138090757754046,
        rpc_null_latency_us=28.416342092785307,
        stream_gbs=64.91358703294178,
    ),
    "verbs": dict(
        verb_latency_us=5.255587935447693,
        read_latency_us=8.311853196404197,
        cas_latency_us=8.614562498439442,
        bandwidth_gbs=7.664543216224327,
        message_rate_mops=4.265872086071838,
        atomic_rate_mops=0.8233966054812141,
        rpc_null_latency_us=16.679409037957623,
        stream_gbs=64.91358703294178,
    ),
    "tcp": dict(
        verb_latency_us=50.15587935447693,
        read_latency_us=87.91853196404197,
        cas_latency_us=90.94562498439441,
        bandwidth_gbs=0.815843555398785,
        message_rate_mops=0.6275097960410397,
        atomic_rate_mops=0.10916970919075518,
        rpc_null_latency_us=141.65953037957627,
        stream_gbs=64.91358703294178,
    ),
}


@pytest.fixture(scope="module")
def report():
    return run_microbench(ares_like(nodes=2, procs_per_node=4))


class TestPaperAnchors:
    def test_stream_matches_paper_65gbs(self, report):
        """'Stream benchmark using 40 threads is roughly 65 GB/sec'."""
        assert 55.0 < report.stream_gbs < 70.0

    def test_osu_bandwidth_matches_paper_4_5gbs(self, report):
        """'approximately 4.5 GB/s as measured by the OSU benchmark'
        (wire-protocol overheads land us slightly below the raw rate)."""
        assert 3.2 < report.bandwidth_gbs < 4.7

    def test_roce_latency_order_of_magnitude(self, report):
        """RoCE-class small-message latencies: single-digit to low tens
        of microseconds."""
        assert 1.0 < report.verb_latency_us < 30.0
        assert report.read_latency_us > report.verb_latency_us

    def test_atomic_slower_than_write(self, report):
        assert report.cas_latency_us > report.verb_latency_us

    def test_rpc_null_latency_costs_more_than_a_verb(self, report):
        """An RPC is send + dispatch + execution + pull: strictly more
        than a raw one-sided op, but same order of magnitude."""
        assert report.rpc_null_latency_us > report.read_latency_us
        assert report.rpc_null_latency_us < 8 * report.read_latency_us

    def test_atomic_rate_bounded_by_region_serialization(self, report):
        """Pipelined CAS to one region serialize on its atomic lock: the
        rate is far below the message rate."""
        assert report.atomic_rate_mops < 0.5 * report.message_rate_mops


class TestProviderOrdering:
    def test_tcp_uniformly_worse_than_roce(self, report):
        tcp = run_microbench(ares_like(nodes=2, procs_per_node=4),
                             provider="tcp")
        assert tcp.verb_latency_us > report.verb_latency_us
        assert tcp.bandwidth_gbs < report.bandwidth_gbs
        assert tcp.rpc_null_latency_us > report.rpc_null_latency_us
        # Node memory is transport-independent.
        assert tcp.stream_gbs == pytest.approx(report.stream_gbs)

    def test_verbs_faster_than_roce(self, report):
        ib = run_microbench(ares_like(nodes=2, procs_per_node=4),
                            provider="verbs")
        assert ib.bandwidth_gbs > report.bandwidth_gbs
        assert ib.verb_latency_us < report.verb_latency_us


class TestFig1Consistency:
    def test_remote_stage_cost_reconstructs_fig1(self):
        """The paper's 0.30 s per remote stage (8192 ops) should emerge
        from the measured per-op latencies within a small factor."""
        report = run_microbench(ares_like(nodes=2, procs_per_node=4))
        # 8192 sequential 4KB-class ops at ~tens of us each, 40 clients
        # sharing the fabric: per-client wall time is in the 0.1-1 s band.
        per_client = 8192 * report.verb_latency_us * 1e-6
        assert 0.05 < per_client < 1.0


class TestRecordedReport:
    @pytest.mark.parametrize("provider", sorted(RECORDED))
    def test_report_is_exact(self, provider):
        assert asdict(run_microbench(provider=provider)) == RECORDED[provider]
