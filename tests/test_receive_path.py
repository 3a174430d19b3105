"""The receive path checks each frame once, at the NIC.

The receiving NIC validates every frame (MAC validation, RX checksum
offload) and drops a bad one; the host stack and the HDC Engine's NIC
controller only decode what it completes.  These tests count the
checks on clean sends and push a frame with a corrupted TCP checksum
onto the wire towards a host channel and a header-split engine channel.
"""

import pytest

import repro.devices.nic.nic as nic_module
import repro.net.packet as packet
from repro.errors import ProtocolError
from repro.net import TcpHeader, build_frame, check_frame
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.units import KIB


def _frames_seen(tb):
    """Frames the two NICs completed, received or dropped."""
    return sum(node.host.nic.frames_received + node.host.nic.frames_dropped
               for node in tb.nodes)


@pytest.mark.parametrize("scheme_cls", [SwOptScheme, DcsCtrlScheme])
def test_one_check_per_received_frame(monkeypatch, scheme_cls):
    """A 4 KiB ``send_file`` plus the client's receive: ``check_frame``
    runs exactly once per frame the NICs received."""
    calls = []

    def counting_check(data):
        calls.append(len(data))
        return check_frame(data)

    monkeypatch.setattr(packet, "check_frame", counting_check)
    monkeypatch.setattr(nic_module, "check_frame", counting_check)
    tb = Testbed()
    scheme = scheme_cls(tb)
    size = 4 * KIB
    tb.node0.host.install_file("one-check.dat", bytes(range(256)) * 16)
    conn = scheme.connect()
    frames_before = _frames_seen(tb)
    calls.clear()
    send = tb.sim.process(scheme.send_file(tb.node0, conn, "one-check.dat",
                                           0, size))
    recv = tb.sim.process(scheme.client_recv(tb.node1, conn, size))
    tb.sim.run(until=send)
    tb.sim.run(until=recv)
    assert recv.value == size
    frames = _frames_seen(tb) - frames_before
    assert frames >= -(-size // packet.TCP_MSS)
    assert tb.node1.host.nic.frames_dropped == 0
    assert len(calls) == frames


def _spy(monkeypatch, obj, name, seen):
    """Record every call of ``obj.name`` (a method or a process) in
    ``seen`` and forward it."""
    original = getattr(obj, name)

    def spy(*args):
        seen.append(args)
        return original(*args)

    monkeypatch.setattr(obj, name, spy)


def _wire_frame(tb, flow, seq, payload, corrupt):
    """Put one frame of ``flow`` (node0's view) on the wire to node1;
    ``corrupt`` flips a payload byte, so the TCP checksum fails."""
    header = TcpHeader(flow.local.port, flow.remote.port, seq)
    frame = build_frame(flow.eth_header(), flow.local.ip, flow.remote.ip,
                        header, payload)
    if corrupt:
        frame = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        with pytest.raises(ProtocolError, match="TCP checksum"):
            check_frame(frame)
    nic = tb.node0.host.nic
    tb.sim.process(tb.wire.transmit(nic._wire_key, frame))
    tb.sim.run()


class TestCorruptedChecksumDroppedByTheNic:
    """The receiving NIC drops the frame; its owner recycles the
    buffer and decodes nothing."""

    PAYLOAD = b"corrupted on the wire"

    def _check_drop(self, monkeypatch, tb, conn, client, handler_owner,
                    handler, table):
        completions, decoded = [], []
        _spy(monkeypatch, handler_owner, handler, completions)
        _spy(monkeypatch, table, "receive", decoded)
        nic = tb.node1.host.nic
        dropped = nic.frames_dropped
        received = nic.frames_received
        posted = len(client.posted)
        receiver = conn.flow1
        rcv_nxt = receiver.rcv_nxt
        _wire_frame(tb, conn.flow0, rcv_nxt, self.PAYLOAD, corrupt=True)
        assert nic.frames_dropped == dropped + 1
        assert nic.frames_received == received
        ((cmpl, desc),) = completions
        assert cmpl.dropped
        assert desc in client.posted.values()      # reposted as it was
        assert len(client.posted) == posted
        assert decoded == []                         # nothing decoded
        assert receiver.rcv_nxt == rcv_nxt
        tb.assert_no_leaks()
        # The same segment, intact, is the next one the flow accepts.
        _wire_frame(tb, conn.flow0, rcv_nxt, self.PAYLOAD, corrupt=False)
        assert nic.frames_received == received + 1
        assert len(decoded) == 1
        assert receiver.rcv_nxt == rcv_nxt + len(self.PAYLOAD)

    def test_host_channel(self, monkeypatch):
        tb = Testbed(with_dcs=False)
        conn = tb.connect_kernel()
        kernel = tb.node1.host.kernel
        driver = tb.node1.host.nic_driver
        self._check_drop(monkeypatch, tb, conn, driver.client, driver,
                         "_receive", kernel._flows)
        assert kernel.frames_discarded == 0
        stream = kernel._streams[conn.flow1.uid]
        assert bytes(stream.buffer) == self.PAYLOAD   # only the intact copy

    def test_header_split_engine_channel(self, monkeypatch):
        tb = Testbed()
        conn = tb.connect_offloaded()
        nic_ctrl = tb.node1.engine.nic_ctrl
        assert all(desc.hdr_addr for desc in nic_ctrl.client.posted.values())
        self._check_drop(monkeypatch, tb, conn, nic_ctrl.client,
                         nic_ctrl, "_gather", nic_ctrl._flow_table)
        assert nic_ctrl.frames_discarded == 0
        state = nic_ctrl._flow_state_of[conn.flow1.uid]
        assert bytes(state.backlog) == self.PAYLOAD   # only the intact copy

