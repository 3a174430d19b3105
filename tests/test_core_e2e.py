"""End-to-end tests of the DCS-ctrl stack on the two-node testbed.

These are the reproduction's most important tests: real bytes flow
SSD→engine DDR3→NIC→wire→NIC→engine DDR3→SSD with all control
performed by the engines, and every checksum matches hashlib.
"""

import hashlib
import zlib

import pytest

from repro.algos import lz77_decompress
from repro.analysis import traced_op
from repro.errors import ConfigurationError
from repro.host.costs import CAT
from repro.schemes import Testbed
from repro.units import KIB, usec


@pytest.fixture(scope="module")
def tb():
    return Testbed(seed=1)


def _pattern(size, salt=0):
    return bytes((i * 7 + salt) % 256 for i in range(size))


class TestSsdToHost:
    def test_read_to_host_moves_bytes(self, tb):
        data = _pattern(16 * KIB, salt=1)
        tb.node0.host.install_file("r2h.dat", data)
        fd = tb.node0.library.open_file("r2h.dat")
        buf = tb.node0.host.alloc_buffer(16 * KIB)

        def body(sim):
            yield from tb.node0.library.hdc_readfile(fd, 0, 16 * KIB, buf)

        tb.sim.run(until=tb.sim.process(body(tb.sim)))
        assert tb.node0.host.fabric.peek(buf, 16 * KIB) == data

    def test_read_to_host_with_md5(self, tb):
        data = _pattern(8 * KIB, salt=2)
        tb.node0.host.install_file("r2h-md5.dat", data)
        fd = tb.node0.library.open_file("r2h-md5.dat")
        buf = tb.node0.host.alloc_buffer(8 * KIB)

        def body(sim):
            completion = yield from tb.node0.library.hdc_readfile(
                fd, 0, 8 * KIB, buf, func="md5")
            return completion

        completion = tb.sim.run(until=tb.sim.process(body(tb.sim)))
        assert completion.digest == hashlib.md5(data).digest()
        assert tb.node0.host.fabric.peek(buf, 8 * KIB) == data


class TestSendReceive:
    def _transfer(self, tb, data, func_send="none", func_recv="none",
                  src="xfer-src.dat", dst="xfer-dst.dat"):
        tb.node0.host.install_file(src, data)
        tb.node1.host.install_file(dst, bytes(len(data)))
        conn = tb.connect_offloaded()
        src_fd = tb.node0.library.open_file(src)
        sock0 = tb.node0.library.open_socket(conn.flow0)
        dst_fd = tb.node1.library.open_file(dst, writable=True)
        sock1 = tb.node1.library.open_socket(conn.flow1)

        def sender(sim):
            return (yield from tb.node0.library.hdc_sendfile(
                sock0, src_fd, 0, len(data), func=func_send))

        def receiver(sim):
            return (yield from tb.node1.library.hdc_recvfile(
                sock1, dst_fd, 0, len(data), func=func_recv))

        send_proc = tb.sim.process(sender(tb.sim))
        recv_proc = tb.sim.process(receiver(tb.sim))
        tb.sim.run(until=send_proc)
        tb.sim.run(until=recv_proc)
        return send_proc.value, recv_proc.value

    def test_ssd_to_ssd_across_nodes(self, tb):
        data = _pattern(100 * KIB, salt=3)
        self._transfer(tb, data, src="a1.dat", dst="b1.dat")
        extents = tb.node1.host.fs.extents_for("b1.dat", 0, len(data))
        stored = tb.node1.host.ssd.flash.read_blocks(
            extents[0].slba, extents[0].nblocks)[:len(data)]
        assert stored == data

    def test_sender_md5_matches_hashlib(self, tb):
        data = _pattern(24 * KIB, salt=4)
        sent, _ = self._transfer(tb, data, func_send="md5",
                                 src="a2.dat", dst="b2.dat")
        assert sent.digest == hashlib.md5(data).digest()

    def test_receiver_crc32_matches_zlib(self, tb):
        data = _pattern(24 * KIB, salt=5)
        _, received = self._transfer(tb, data, func_recv="crc32",
                                     src="a3.dat", dst="b3.dat")
        assert int.from_bytes(received.digest, "big") == zlib.crc32(data)

    def test_host_cpu_nearly_idle_during_transfer(self, tb):
        data = _pattern(64 * KIB, salt=6)
        tb.reset_cpu_windows()
        self._transfer(tb, data, src="a4.dat", dst="b4.dat")
        # The engines did the work: host CPUs only paid the thin
        # driver/ioctl path.
        for node in tb.nodes:
            assert node.host.cpu.utilization() < 0.05
            assert node.host.cpu.tracker.total(CAT.NETWORK) == 0

    def test_p2p_traffic_dominates_host_traffic(self, tb):
        data = _pattern(128 * KIB, salt=7)
        fabric0 = tb.node0.host.fabric
        before_p2p = fabric0.p2p_bytes
        before_host = fabric0.host_bytes
        self._transfer(tb, data, src="a5.dat", dst="b5.dat")
        p2p = fabric0.p2p_bytes - before_p2p
        host = fabric0.host_bytes - before_host
        assert p2p > len(data)      # SSD->engine + engine rings
        assert host < 4 * KIB       # only the 64 B command + completion


class TestAppendDigest:
    def test_digest_travels_with_payload(self, tb):
        data = _pattern(8 * KIB, salt=8)
        tb.node0.host.install_file("append.dat", data)
        conn = tb.connect_offloaded()
        fd = tb.node0.library.open_file("append.dat")
        sock0 = tb.node0.library.open_socket(conn.flow0)
        sock1 = tb.node1.library.open_socket(conn.flow1)
        buf = tb.node1.host.alloc_buffer(8 * KIB + 16)

        def sender(sim):
            return (yield from tb.node0.library.hdc_sendfile(
                sock0, fd, 0, len(data), func="md5", append_digest=True))

        def receiver(sim):
            return (yield from tb.node1.library.hdc_recv(
                sock1, len(data) + 16, buf))

        send_proc = tb.sim.process(sender(tb.sim))
        recv_proc = tb.sim.process(receiver(tb.sim))
        tb.sim.run(until=send_proc)
        tb.sim.run(until=recv_proc)
        got = tb.node1.host.fabric.peek(buf, len(data) + 16)
        assert got[:len(data)] == data
        assert got[len(data):] == hashlib.md5(data).digest()


class TestTransforms:
    def test_gzip_in_flight_shrinks_stream(self, tb):
        data = (b"highly repetitive payload " * 3000)[:64 * KIB]
        tb.node0.host.install_file("gz.dat", data)
        conn = tb.connect_offloaded()
        fd = tb.node0.library.open_file("gz.dat")
        sock0 = tb.node0.library.open_socket(conn.flow0)
        sock1 = tb.node1.library.open_socket(conn.flow1)

        def sender(sim):
            return (yield from tb.node0.library.hdc_sendfile(
                sock0, fd, 0, len(data), func="gzip"))

        send_proc = tb.sim.process(sender(tb.sim))
        completion = tb.sim.run(until=send_proc)
        assert completion.result_length < len(data) // 2

        buf = tb.node1.host.alloc_buffer(completion.result_length)

        def receiver(sim):
            yield from tb.node1.library.hdc_recv(
                sock1, completion.result_length, buf)

        tb.sim.run(until=tb.sim.process(receiver(tb.sim)))
        blob = tb.node1.host.fabric.peek(buf, completion.result_length)
        assert lz77_decompress(blob) == data


class TestTraceBreakdown:
    def test_dcs_trace_has_hardware_components(self, tb):
        data = _pattern(16 * KIB, salt=9)
        tb.node0.host.install_file("trace.dat", data)
        conn = tb.connect_offloaded()
        fd = tb.node0.library.open_file("trace.dat")
        sock0 = tb.node0.library.open_socket(conn.flow0)

        def sender(sim):
            with traced_op(sim) as trace:
                yield from tb.node0.library.hdc_sendfile(
                    sock0, fd, 0, len(data), func="md5")
                trace.finish()
            return trace

        trace = tb.sim.run(until=tb.sim.process(sender(tb.sim)))
        assert trace.segments[CAT.READ] > 0
        assert trace.segments[CAT.NDP] > 0
        assert trace.segments[CAT.SCOREBOARD] >= 0
        assert trace.segments[CAT.HDC_DRIVER] > 0
        # Software components are tiny next to the device time.
        software = (trace.segments[CAT.HDC_DRIVER]
                    + trace.segments[CAT.KERNEL_OTHER]
                    + trace.segments[CAT.COMPLETION])
        assert software < trace.total * 0.4

    def test_dirty_page_flush_before_d2d(self, tb):
        data = _pattern(8 * KIB, salt=10)
        tb.node0.host.install_file("dirty.dat", data)
        # Simulate a buffered write that left page 0 dirty in the cache
        # with *different* content than flash.
        fresh = bytes(b ^ 0xFF for b in data[:4096])
        tb.node0.host.page_cache.mark_dirty("dirty.dat", 0, fresh)
        buf = tb.node0.host.alloc_buffer(8 * KIB)
        fd = tb.node0.library.open_file("dirty.dat")

        def body(sim):
            yield from tb.node0.library.hdc_readfile(fd, 0, 8 * KIB, buf)

        tb.sim.run(until=tb.sim.process(body(tb.sim)))
        got = tb.node0.host.fabric.peek(buf, 8 * KIB)
        # The engine must observe the flushed (latest) content.
        assert got[:4096] == fresh
        assert got[4096:] == data[4096:]


class TestLibraryPermissions:
    def test_missing_file_rejected(self, tb):
        with pytest.raises(ConfigurationError):
            tb.node0.library.open_file("no-such-file.dat")

    def test_write_through_readonly_fd_rejected(self, tb):
        tb.node0.host.install_file("ro.dat", bytes(4 * KIB))
        fd = tb.node0.library.open_file("ro.dat", writable=False)
        conn = tb.connect_offloaded()
        sock = tb.node0.library.open_socket(conn.flow0)

        def body(sim):
            yield from tb.node0.library.hdc_recvfile(sock, fd, 0, 4 * KIB)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok

    def test_unoffloaded_socket_rejected(self, tb):
        conn = tb.connect_kernel()
        with pytest.raises(ConfigurationError):
            tb.node0.library.open_socket(conn.flow0)
