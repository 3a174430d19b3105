"""Tests for the workload generator and the Swift/HDFS application models."""

import dataclasses

import pytest

from repro.apps import (HdfsConfig, SwiftConfig, WorkloadConfig,
                        run_hdfs_balancer, run_swift, requests)
from repro.apps.workload import RequestKind, bytes_by_kind, pattern_bytes
from repro.faults import FaultPlan, FaultRule
from repro.schemes import (ALL_SCHEMES, DcsCtrlScheme, IntegratedScheme,
                           SwOptScheme, SwP2pScheme, Testbed)
from repro.units import KIB, MIB
from tests.test_schemes import run_send


class TestWorkload:
    def test_deterministic_per_seed(self):
        cfg = WorkloadConfig(count=50, seed=1)
        assert requests(cfg) == requests(cfg)

    def test_different_seeds_differ(self):
        a = requests(WorkloadConfig(count=50, seed=1))
        b = requests(WorkloadConfig(count=50, seed=2))
        assert a != b

    def test_put_ratio_respected(self):
        reqs = requests(WorkloadConfig(count=2000, put_ratio=0.4, seed=3))
        puts = sum(1 for r in reqs if r.kind is RequestKind.PUT)
        assert 0.35 < puts / len(reqs) < 0.45

    def test_put_ratio_extremes(self):
        all_get = requests(WorkloadConfig(count=100, put_ratio=0.0, seed=4))
        assert all(r.kind is RequestKind.GET for r in all_get)
        all_put = requests(WorkloadConfig(count=100, put_ratio=1.0, seed=4))
        assert all(r.kind is RequestKind.PUT for r in all_put)

    def test_sizes_capped(self):
        reqs = requests(WorkloadConfig(count=500, max_object=64 * KIB,
                                       seed=5))
        assert max(r.size for r in reqs) <= 64 * KIB

    def test_arrivals_monotone(self):
        reqs = requests(WorkloadConfig(count=200, seed=6))
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_arrival_rate_approximate(self):
        cfg = WorkloadConfig(count=2000, arrival_rate=1000.0, seed=7)
        reqs = requests(cfg)
        # 2000 requests at 1000/s should span ~2 s of simulated time.
        span_sec = reqs[-1].arrival / 1e9
        assert 1.6 < span_sec < 2.4

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            requests(WorkloadConfig(put_ratio=1.5))
        with pytest.raises(ValueError):
            requests(WorkloadConfig(count=0))

    def test_bytes_by_kind(self):
        reqs = requests(WorkloadConfig(count=300, seed=8))
        totals = bytes_by_kind(iter(reqs))
        assert totals[RequestKind.GET] + totals[RequestKind.PUT] == sum(
            r.size for r in reqs)


class TestPatternBytes:
    """Tiled payloads equal the per-byte generator they replace."""

    @pytest.mark.parametrize("size", [0, 1, 255, 256, 257, 256 * KIB])
    @pytest.mark.parametrize("stride,offset", [(31, 0), (17, 0), (17, 5)])
    def test_matches_per_byte_generator(self, size, stride, offset):
        expected = bytes((i * stride + offset) % 256 for i in range(size))
        assert pattern_bytes(size, stride, offset) == expected


SMALL_SWIFT = SwiftConfig(
    workload=WorkloadConfig(arrival_rate=4000.0, count=12,
                            max_object=64 * KIB, seed=9),
    connections=2)

SMALL_HDFS = HdfsConfig(blocks=4, block_size=256 * KIB, streams=2)


class TestSwift:
    @pytest.mark.parametrize("scheme_cls", [SwOptScheme, DcsCtrlScheme])
    def test_all_requests_complete(self, scheme_cls):
        tb = Testbed(seed=51)
        run = run_swift(scheme_cls(tb), SMALL_SWIFT)
        assert run.requests_done == SMALL_SWIFT.workload.count
        assert run.bytes_get + run.bytes_put > 0
        assert run.throughput_gbps > 0

    def test_latencies_recorded(self):
        tb = Testbed(seed=52)
        run = run_swift(SwOptScheme(tb), SMALL_SWIFT)
        assert run.latencies.count == SMALL_SWIFT.workload.count
        assert run.latencies.mean() > 0

    def test_dcs_reduces_server_cpu(self):
        tb_sw = Testbed(seed=53)
        sw = run_swift(SwOptScheme(tb_sw), SMALL_SWIFT)
        tb_dcs = Testbed(seed=53)
        dcs = run_swift(DcsCtrlScheme(tb_dcs), SMALL_SWIFT)
        assert dcs.server_cpu_total < sw.server_cpu_total

    def test_cpu_breakdown_categories_sane(self):
        tb = Testbed(seed=54)
        run = run_swift(DcsCtrlScheme(tb), SMALL_SWIFT)
        # Engine-offloaded Swift must not touch the host network stack.
        assert run.server_cpu.get("network", 0.0) == 0.0
        assert run.server_cpu.get("hdc-driver", 0.0) > 0.0


class TestHdfs:
    @pytest.mark.parametrize("scheme_cls", [SwOptScheme, DcsCtrlScheme])
    def test_all_blocks_moved_and_stored(self, scheme_cls):
        tb = Testbed(seed=55)
        run = run_hdfs_balancer(scheme_cls(tb), SMALL_HDFS)
        assert run.bytes_moved == SMALL_HDFS.blocks * SMALL_HDFS.block_size
        # The last block written to each destination matches its source
        # block exactly (functional end-to-end integrity).
        for stream in range(SMALL_HDFS.streams):
            ext = tb.node1.host.fs.extents_for(
                f"hdfs-dst-{stream}.blk", 0, SMALL_HDFS.block_size)
            stored = tb.node1.host.ssd.flash.read_blocks(
                ext[0].slba, ext[0].nblocks)
            candidates = [
                tb.node0.host.ssd.flash.read_blocks(
                    tb.node0.host.fs.extents_for(
                        f"hdfs-src-{i}.blk", 0,
                        SMALL_HDFS.block_size)[0].slba,
                    ext[0].nblocks)
                for i in range(SMALL_HDFS.blocks)]
            assert stored in candidates, scheme_cls.name

    def test_dcs_reduces_both_sides_cpu(self):
        tb_sw = Testbed(seed=56)
        sw = run_hdfs_balancer(SwOptScheme(tb_sw), SMALL_HDFS)
        tb_dcs = Testbed(seed=56)
        dcs = run_hdfs_balancer(DcsCtrlScheme(tb_dcs), SMALL_HDFS)
        assert dcs.sender_cpu_total < sw.sender_cpu_total
        assert dcs.receiver_cpu_total < sw.receiver_cpu_total

    def test_throughput_positive_and_bounded(self):
        tb = Testbed(seed=57)
        run = run_hdfs_balancer(SwOptScheme(tb), SMALL_HDFS)
        assert 0 < run.throughput_gbps < 10.0


def _outcome(run_app, scheme_cls, config, seed):
    """Every result field of one fault-free run, plus its end time."""
    tb = Testbed(seed=seed)
    run = run_app(scheme_cls(tb), config)
    fields = {field.name: getattr(run, field.name)
              for field in dataclasses.fields(run)}
    if "latencies" in fields:
        fields["latencies"] = list(fields["latencies"]._samples)
    return fields, tb.sim.now


class TestTestbedSeed:
    """The testbed seed feeds only fault streams, so a fault-free app
    run ignores it.  Fig 13 and the headline reuse Fig 12's runs on that
    fact; if a model change makes the seed matter, this fails."""

    @pytest.mark.parametrize("scheme_cls",
                             [SwOptScheme, SwP2pScheme, DcsCtrlScheme])
    @pytest.mark.parametrize("run_app,config",
                             [(run_swift, SMALL_SWIFT),
                              (run_hdfs_balancer, SMALL_HDFS)],
                             ids=["swift", "hdfs"])
    def test_fault_free_run_ignores_seed(self, run_app, config, scheme_cls):
        assert (_outcome(run_app, scheme_cls, config, seed=1)
                == _outcome(run_app, scheme_cls, config, seed=2))


def _faulted_sends(scheme_cls):
    """Latencies, injections and end time of unprocessed sends that
    recover from one flash.read error."""
    tb = Testbed(faults=FaultPlan((FaultRule("flash.read",
                                             occurrences={2}),)))
    scheme = scheme_cls(tb)
    latencies = [run_send(tb, scheme, pattern_bytes(16 * KIB, index),
                          f"req-{index}.dat").latency_us
                 for index in range(3)]
    return latencies, tb.sim.faults.injected, tb.sim.now


@pytest.mark.parametrize("scheme_cls", [SwP2pScheme, IntegratedScheme])
class TestSharedPath:
    """A scheme that names another's path (``unprocessed_path``) runs
    exactly that path for unprocessed sends and for receives.  The HDFS
    runs and the fault sweep reuse the path's runs on that fact; if a
    model change breaks it, this fails."""

    def test_hdfs_run_equals_the_paths(self, scheme_cls):
        path_cls = ALL_SCHEMES[scheme_cls.unprocessed_path]
        fields, end = _outcome(run_hdfs_balancer, scheme_cls, SMALL_HDFS,
                               seed=1)
        path_fields, path_end = _outcome(run_hdfs_balancer, path_cls,
                                         SMALL_HDFS, seed=1)
        assert fields.pop("scheme") == scheme_cls.name
        assert path_fields.pop("scheme") == path_cls.name
        assert (fields, end) == (path_fields, path_end)

    def test_faulted_unprocessed_sends_equal_the_paths(self, scheme_cls):
        outcome = _faulted_sends(scheme_cls)
        assert outcome[1] == 1
        assert outcome == _faulted_sends(
            ALL_SCHEMES[scheme_cls.unprocessed_path])
