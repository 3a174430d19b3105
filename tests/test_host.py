"""Tests for the host substrate: CPU pool, FS, page cache, kernel services."""

import hashlib

import pytest

from repro.analysis import traced_op
from repro.errors import ConfigurationError
from repro.host import CAT, CpuPool, DEFAULT_COSTS
from repro.host.kernel import ExtentFilesystem, PageCache
from repro.host.machine import Host
from repro.net import TcpEndpoint, TcpFlow, Wire
from repro.sim import Simulator
from repro.units import KIB, PAGE, usec


@pytest.fixture
def sim():
    return Simulator()


class TestCpuPool:
    def test_run_accounts_category(self, sim):
        cpu = CpuPool(sim, cores=2)

        def body(sim, cpu):
            yield from cpu.run(usec(3), CAT.FILESYSTEM)

        sim.run(until=sim.process(body(sim, cpu)))
        assert cpu.tracker.total(CAT.FILESYSTEM) == usec(3)

    def test_core_contention_serializes(self, sim):
        cpu = CpuPool(sim, cores=1)

        def body(sim, cpu):
            yield from cpu.run(usec(5), "a")

        sim.process(body(sim, cpu))
        sim.process(body(sim, cpu))
        sim.run()
        assert sim.now == usec(10)

    def test_multicore_parallelism(self, sim):
        cpu = CpuPool(sim, cores=4)

        def body(sim, cpu):
            yield from cpu.run(usec(5), "a")

        for _ in range(4):
            sim.process(body(sim, cpu))
        sim.run()
        assert sim.now == usec(5)
        assert cpu.utilization("a") == pytest.approx(1.0)

    def test_bad_config_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            CpuPool(sim, cores=0)


class TestCosts:
    def test_copy_cost_scales(self):
        small = DEFAULT_COSTS.copy_cost(4 * KIB)
        big = DEFAULT_COSTS.copy_cost(64 * KIB)
        assert big > small

    def test_cpu_hash_rates_ordered(self):
        # CRC32 is much cheaper than MD5 on a CPU.
        assert (DEFAULT_COSTS.cpu_hash_cost("crc32", 1 << 20)
                < DEFAULT_COSTS.cpu_hash_cost("md5", 1 << 20))

    def test_unknown_hash_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_COSTS.cpu_hash_cost("blake3", 100)


class TestExtentFilesystem:
    def test_create_and_lookup(self):
        fs = ExtentFilesystem(capacity_blocks=1000)
        fs.create("a.dat", 10 * KIB)
        spans = fs.extents_for("a.dat", 0, 10 * KIB)
        assert sum(e.nblocks for e in spans) == 3  # ceil(10K/4K)

    def test_sequential_allocation(self):
        fs = ExtentFilesystem(capacity_blocks=1000, first_lba=64)
        (a,) = fs.create("a", 4 * KIB)
        (b,) = fs.create("b", 4 * KIB)
        assert a.slba == 64
        assert b.slba == 65

    def test_offset_lookup(self):
        fs = ExtentFilesystem(capacity_blocks=1000, first_lba=0)
        fs.create("f", 64 * KIB)
        spans = fs.extents_for("f", 8 * KIB, 8 * KIB)
        assert len(spans) == 1
        assert spans[0].slba == 2
        assert spans[0].nblocks == 2

    def test_out_of_range_rejected(self):
        fs = ExtentFilesystem(capacity_blocks=1000)
        fs.create("f", 8 * KIB)
        with pytest.raises(ConfigurationError):
            fs.extents_for("f", 0, 64 * KIB)

    def test_unaligned_offset_rejected(self):
        fs = ExtentFilesystem(capacity_blocks=1000)
        fs.create("f", 64 * KIB)
        with pytest.raises(ConfigurationError):
            fs.extents_for("f", 100, 4 * KIB)

    def test_duplicate_rejected(self):
        fs = ExtentFilesystem(capacity_blocks=1000)
        fs.create("f", 4 * KIB)
        with pytest.raises(ConfigurationError):
            fs.create("f", 4 * KIB)

    def test_out_of_space_rejected(self):
        fs = ExtentFilesystem(capacity_blocks=10, first_lba=0)
        with pytest.raises(ConfigurationError):
            fs.create("big", 11 * PAGE)


class TestPageCache:
    def test_dirty_tracking(self):
        cache = PageCache()
        cache.mark_dirty("f", 3, b"\x01" * PAGE)
        assert cache.dirty_pages("f", 0, 10) == [3]
        assert cache.dirty_data("f", 3) == b"\x01" * PAGE
        cache.mark_clean("f", 3)
        assert cache.dirty_pages("f", 0, 10) == []

    def test_partial_page_rejected(self):
        cache = PageCache()
        with pytest.raises(ConfigurationError):
            cache.mark_dirty("f", 0, b"small")


class TestHostStorage:
    def test_direct_read_returns_data(self, sim):
        host = Host(sim, with_gpu=False)
        payload = bytes(range(256)) * 64  # 16 KiB
        host.install_file("obj", payload)
        buf = host.alloc_buffer(16 * KIB)

        def body(sim):
            with traced_op(sim) as trace:
                yield from host.kernel.file_read_direct("obj", 0, 16 * KIB,
                                                        buf)
            return trace

        trace = sim.run(until=sim.process(body(sim)))
        assert host.fabric.peek(buf, 16 * KIB) == payload
        # Latency components present: FS, device control, read, completion.
        for cat in (CAT.FILESYSTEM, CAT.DEVICE_CONTROL, CAT.READ,
                    CAT.COMPLETION):
            assert trace.segments[cat] > 0, cat

    def test_split_read_pieces_bill_the_request(self, sim):
        # A read above MDTS runs as one child process per piece; each
        # piece inherits the request trace from the process that
        # spawned it.
        host = Host(sim, with_gpu=False)
        size = 2 * host.ssd.config.max_transfer
        host.install_file("big", bytes(size))
        buf = host.alloc_buffer(size)

        def body(sim):
            with traced_op(sim) as trace:
                yield from host.kernel.file_read_direct("big", 0, size, buf)
            return trace

        trace = sim.run(until=sim.process(body(sim)))
        for cat in (CAT.DEVICE_CONTROL, CAT.READ, CAT.COMPLETION):
            assert trace.segments[cat] > 0, cat

    def test_direct_write_roundtrip(self, sim):
        host = Host(sim, with_gpu=False)
        host.install_file("obj", bytes(16 * KIB))
        payload = b"\x5a" * (16 * KIB)
        buf = host.alloc_buffer(16 * KIB)
        host.fabric.poke(buf, payload)

        def body(sim):
            yield from host.kernel.file_write_direct("obj", 0, 16 * KIB, buf)

        sim.run(until=sim.process(body(sim)))
        extents = host.fs.extents_for("obj", 0, 16 * KIB)
        assert host.ssd.flash.read_blocks(extents[0].slba, 4) == payload

    def test_buffered_read_costs_more_cpu(self, sim):
        host = Host(sim, with_gpu=False)
        host.install_file("obj", bytes(64 * KIB))
        buf = host.alloc_buffer(64 * KIB)

        def run(path):
            host.cpu.tracker.reset_window()

            def body(sim):
                yield from path("obj", 0, 64 * KIB, buf)

            sim.run(until=sim.process(body(sim)))
            return host.cpu.tracker.total()

        direct = run(host.kernel.file_read_direct)
        buffered = run(host.kernel.file_read_buffered)
        assert buffered > direct * 1.5

    def test_cpu_checksum_matches_reference(self, sim):
        host = Host(sim, with_gpu=False)
        data = b"checksum me" * 100
        buf = host.alloc_buffer(len(data))
        host.fabric.poke(buf, data)

        def body(sim):
            digest = yield from host.kernel.cpu_checksum("md5", buf,
                                                         len(data))
            return digest

        digest = sim.run(until=sim.process(body(sim)))
        assert digest == hashlib.md5(data).digest()


class TestHostNetwork:
    def _linked_hosts(self, sim):
        a = Host(sim, name="a", with_gpu=False)
        b = Host(sim, name="b", with_gpu=False)
        wire = Wire(sim)
        arm_a = a.connect_network(wire)
        arm_b = b.connect_network(wire)
        ep_a = TcpEndpoint(mac="02:00:00:00:00:0a", ip="10.0.0.1", port=9000)
        ep_b = TcpEndpoint(mac="02:00:00:00:00:0b", ip="10.0.0.2", port=9001)
        flow_ab = TcpFlow(local=ep_a, remote=ep_b)
        flow_ba = flow_ab.reverse()
        a.kernel.register_flow(flow_ab)
        b.kernel.register_flow(flow_ba)
        sim.run(until=arm_a)
        sim.run(until=arm_b)
        return a, b, flow_ab, flow_ba

    def test_send_recv_roundtrip(self, sim):
        a, b, flow_ab, flow_ba = self._linked_hosts(sim)
        payload = bytes(range(256)) * 512  # 128 KiB, two LSO batches
        src = a.alloc_buffer(len(payload))
        dst = b.alloc_buffer(len(payload))
        a.fabric.poke(src, payload)

        def sender(sim):
            yield from a.kernel.socket_send(flow_ab, src, len(payload))

        def receiver(sim):
            data = yield from b.kernel.socket_recv(flow_ba, len(payload), dst)
            return data

        sim.process(sender(sim))
        proc = sim.process(receiver(sim))
        data = sim.run(until=proc)
        assert data == payload
        assert b.fabric.peek(dst, len(payload)) == payload

    def test_send_charges_network_cpu(self, sim):
        a, b, flow_ab, flow_ba = self._linked_hosts(sim)
        payload = bytes(32 * KIB)
        src = a.alloc_buffer(len(payload))
        a.fabric.poke(src, payload)
        a.cpu.tracker.reset_window()

        def sender(sim):
            yield from a.kernel.socket_send(flow_ab, src, len(payload))

        def receiver(sim):
            dst = b.alloc_buffer(len(payload))
            yield from b.kernel.socket_recv(flow_ba, len(payload), dst)

        sim.process(sender(sim))
        proc = sim.process(receiver(sim))
        sim.run(until=proc)
        assert a.cpu.tracker.total(CAT.NETWORK) > 0
        assert a.cpu.tracker.total(CAT.DEVICE_CONTROL) > 0
        assert b.cpu.tracker.total(CAT.NETWORK) > 0

    def test_unregistered_flow_rejected(self, sim):
        a, b, flow_ab, flow_ba = self._linked_hosts(sim)
        stranger = TcpFlow(
            local=TcpEndpoint(mac="02:00:00:00:00:0c", ip="10.0.0.3",
                              port=1234),
            remote=TcpEndpoint(mac="02:00:00:00:00:0d", ip="10.0.0.4",
                               port=4321))

        def body(sim):
            yield from b.kernel.socket_recv(stranger, 10, 0x1000)

        proc = sim.process(body(sim))
        sim.run()
        assert not proc.ok


class TestCpuPoolHolds:
    """A core held or awaited by an interrupted stage comes back."""

    def test_stage_interrupted_while_parked_frees_nothing_twice(self, sim):
        pool = CpuPool(sim, cores=1)
        sim.process(pool.run(10, "a"))
        sim.run(until=1)
        parked = pool.run(5, "b")
        next(parked)
        assert pool._cores.queue_length == 1
        parked.close()
        sim.run()
        assert (pool._cores.count, pool._cores.queue_length) == (0, 0)

    def test_stage_interrupted_after_the_hand_over_frees_the_core(self, sim):
        pool = CpuPool(sim, cores=1)
        sim.process(pool.run(10, "a"))
        sim.run(until=1)
        parked = pool.run(5, "b")
        next(parked)
        sim.run()                # "a" ends and hands its core over
        assert pool._cores.count == 1
        parked.close()
        assert (pool._cores.count, pool._cores.queue_length) == (0, 0)

    def test_stage_interrupted_while_holding_frees_the_core(self, sim):
        pool = CpuPool(sim, cores=2)
        holding = pool.run(5, "a")
        next(holding)
        assert pool._cores.count == 1
        holding.close()
        assert pool._cores.count == 0
