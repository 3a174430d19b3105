"""Failure injection: errors must propagate, never pass silently."""

import pytest

from repro.core.command import D2DKind
from repro.devices.nvme.commands import NvmeCommand, OP_READ
from repro.errors import DeviceError, ProtocolError
from repro.schemes import Testbed
from repro.units import KIB


class TestSsdErrorPropagation:
    def test_failed_nvme_io_raises_in_host_driver(self):
        """An out-of-range read must surface as DeviceError, not data."""
        tb = Testbed(seed=81)
        host = tb.node0.host
        buf = host.alloc_buffer(4 * KIB)
        beyond = host.ssd.flash.capacity_blocks + 100

        def body(sim):
            yield from host.nvme_driver.read(beyond, 4 * KIB, buf)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="status"):
            _ = proc.value

    def test_failed_device_command_fails_d2d_completion(self):
        """An engine-side device failure becomes a failed D2D completion
        and the HDC Driver raises on it."""
        tb = Testbed(seed=82)
        driver = tb.node0.driver
        beyond = tb.node0.host.ssd.flash.capacity_blocks + 100
        buf = tb.node0.host.alloc_buffer(4 * KIB)

        def body(sim):
            yield from driver.submit(D2DKind.SSD_TO_HOST, src=beyond,
                                     dst=buf, length=4 * KIB)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="failed with status"):
            _ = proc.value
        tb.assert_no_leaks()

    def test_engine_survives_a_failed_command(self):
        """After a failed D2D command the engine still serves new ones."""
        tb = Testbed(seed=83)
        driver = tb.node0.driver
        host = tb.node0.host
        beyond = host.ssd.flash.capacity_blocks + 100
        buf = host.alloc_buffer(4 * KIB)

        def bad(sim):
            yield from driver.submit(D2DKind.SSD_TO_HOST, src=beyond,
                                     dst=buf, length=4 * KIB)

        bad_proc = tb.sim.process(bad(tb.sim))
        tb.sim.run()
        assert not bad_proc.ok

        host.install_file("after.dat", b"\x42" * (4 * KIB))
        fd = tb.node0.library.open_file("after.dat")

        def good(sim):
            yield from tb.node0.library.hdc_readfile(fd, 0, 4 * KIB, buf)

        tb.sim.run(until=tb.sim.process(good(tb.sim)))
        assert host.fabric.peek(buf, 4 * KIB) == b"\x42" * (4 * KIB)
        tb.sim.run()
        tb.assert_no_leaks()

    def test_failed_intermediate_stage_skips_downstream(self):
        """If the producing stage fails, the consuming stage must not
        transmit garbage: the task completes with a failure status and
        no frames leave the NIC."""
        tb = Testbed(seed=84)
        driver = tb.node0.driver
        conn = tb.connect_offloaded()
        beyond = tb.node0.host.ssd.flash.capacity_blocks + 100
        frames_before = tb.node0.host.nic.frames_sent

        def body(sim):
            yield from driver.submit(
                D2DKind.SSD_TO_NIC, src=beyond,
                dst=driver.flow_id(conn.flow0), length=4 * KIB)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        assert tb.node0.host.nic.frames_sent == frames_before
        tb.assert_no_leaks()


class TestNvmeProtocolViolations:
    def test_doorbell_out_of_range_rejected(self):
        tb = Testbed(seed=85)
        ssd = tb.node0.host.ssd
        qp = tb.node0.host.nvme_driver.qp

        def body(sim):
            yield from tb.node0.host.fabric.mmio_write(
                "host", qp.sq_doorbell, (9999).to_bytes(4, "little"))

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(ProtocolError, match="doorbell"):
            _ = proc.value

    def test_malformed_sqe_rejected(self):
        with pytest.raises(ProtocolError):
            NvmeCommand.unpack(b"\x00" * 32)

    def test_invalid_nlb_rejected(self):
        cmd = NvmeCommand(opcode=OP_READ, cid=0, nsid=1, prp1=0, prp2=0,
                          slba=0, nlb=1 << 20)
        with pytest.raises(ProtocolError):
            cmd.pack()


class TestCorruptionDetection:
    @pytest.mark.parametrize("offset", [-1, 22], ids=["payload", "ip-ttl"])
    def test_corrupted_frame_is_dropped_not_delivered(self, offset):
        """Flipping a byte on the wire must trip a checksum in the NIC
        (TCP for the last payload byte, IPv4 for the TTL) and drop the
        frame, not deliver bad data, and the NIC keeps receiving."""
        tb = Testbed(seed=86)
        conn = tb.connect_kernel()
        host0 = tb.node0.host
        payload = b"\x11" * (4 * KIB)
        src = host0.alloc_buffer(len(payload))
        host0.fabric.poke(src, payload)

        # Corrupt every frame in flight.
        original_transmit = tb.wire.transmit

        def corrupting_transmit(sender, frame):
            tampered = bytearray(frame)
            tampered[offset] ^= 0xFF
            return original_transmit(sender, bytes(tampered))

        tb.wire.transmit = corrupting_transmit

        def sender(flow):
            yield from host0.kernel.socket_send(flow, src, len(payload))

        send = tb.sim.process(sender(conn.flow0))
        tb.sim.run(until=send)
        tb.sim.run()
        # The receiving NIC dropped every tampered frame and delivered
        # nothing to the socket layer.
        nic1 = tb.node1.host.nic
        assert nic1.frames_dropped == 3  # 4 KiB = 3 MSS segments
        assert nic1.frames_received == 0
        kernel1 = tb.node1.host.kernel
        assert len(kernel1._streams[conn.flow1.uid].buffer) == 0

        # The RX loop survived: a clean send that follows is delivered.
        assert nic1.rx_process.is_alive
        tb.wire.transmit = original_transmit
        clean = tb.connect_kernel()
        send = tb.sim.process(sender(clean.flow0))
        tb.sim.run(until=send)
        tb.sim.run()
        assert nic1.frames_dropped == 3
        assert nic1.frames_received == 3
        assert kernel1._streams[clean.flow1.uid].buffer == payload
