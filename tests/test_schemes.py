"""Cross-scheme tests: functional equivalence and the paper's orderings.

Every scheme must move the same bytes and compute the same checksums;
their *performance* must satisfy the qualitative relations of Table I
and Figs 3/11 (hardware control beats software control; P2P helps when
processing is involved; the integrated device matches DCS-ctrl).
"""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.host.costs import CAT
from repro.schemes import (DcsCtrlScheme, IntegratedScheme, SwOptScheme,
                           SwP2pScheme, Testbed)
from repro.units import KIB


def _pattern(size, salt=0):
    return bytes((i * 13 + salt) % 256 for i in range(size))


def run_send(tb, scheme, data, name, processing=None):
    """Drive one send_file on node0 with a live receiver context."""
    tb.node0.host.install_file(name, data)
    conn = scheme.connect()

    def sender(sim):
        return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                            len(data),
                                            processing=processing))

    if conn.offloaded:
        # Engine-terminated: the far engine banks the stream; no
        # receiver process needed for the send to complete.
        proc = tb.sim.process(sender(tb.sim))
        tb.sim.run(until=proc)
        return proc.value
    # Kernel-terminated: drain on the receiver so the stream flows.
    dst = tb.node1.host.alloc_buffer(len(data))

    def receiver(sim):
        yield from tb.node1.host.kernel.socket_recv(conn.flow1, len(data),
                                                    dst)

    send_proc = tb.sim.process(sender(tb.sim))
    recv_proc = tb.sim.process(receiver(tb.sim))
    tb.sim.run(until=send_proc)
    tb.sim.run(until=recv_proc)
    received = tb.node1.host.fabric.peek(dst, len(data))
    tb.node1.host.free_buffer(dst, len(data))
    result = send_proc.value
    result.received = received
    return result


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("scheme_cls", [SwOptScheme, SwP2pScheme,
                                            DcsCtrlScheme])
    def test_md5_digest_identical_across_schemes(self, scheme_cls):
        tb = Testbed(seed=2)
        scheme = scheme_cls(tb)
        data = _pattern(32 * KIB, salt=1)
        result = run_send(tb, scheme, data, f"eq-{scheme.name}.dat",
                          processing="md5")
        assert result.digest == hashlib.md5(data).digest()

    def test_sw_opt_delivers_exact_bytes(self):
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        data = _pattern(48 * KIB, salt=2)
        result = run_send(tb, scheme, data, "bytes.dat")
        assert result.received == data

    def test_receive_paths_store_identical_bytes(self):
        for scheme_cls in (SwOptScheme, DcsCtrlScheme):
            tb = Testbed(seed=4)
            scheme = scheme_cls(tb)
            data = _pattern(20 * KIB, salt=3)
            tb.node0.host.install_file("src.dat", data)
            tb.node1.host.install_file("dst.dat", bytes(len(data)))
            conn = scheme.connect()

            def sender(sim):
                yield from scheme.send_file(tb.node0, conn, "src.dat", 0,
                                            len(data))

            def receiver(sim):
                return (yield from scheme.receive_to_file(
                    tb.node1, conn, "dst.dat", 0, len(data),
                    processing="crc32"))

            sp = tb.sim.process(sender(tb.sim))
            rp = tb.sim.process(receiver(tb.sim))
            tb.sim.run(until=sp)
            tb.sim.run(until=rp)
            extents = tb.node1.host.fs.extents_for("dst.dat", 0, len(data))
            stored = tb.node1.host.ssd.flash.read_blocks(
                extents[0].slba, extents[0].nblocks)[:len(data)]
            assert stored == data, scheme_cls.name


class TestPerformanceOrdering:
    """The relations behind Figs 3 and 11."""

    SIZE = 4 * KIB  # the paper's per-command transfer unit

    @staticmethod
    def software_us(result):
        """The software-attributable latency of one request.

        The paper's reduction claims are about the *software* latency:
        total minus time when only devices are working (flash access,
        hash/NDP execution, NIC command execution).
        """
        segs = result.trace.breakdown_us()
        device = (segs.get(CAT.READ, 0.0) + segs.get(CAT.WRITE, 0.0)
                  + segs.get(CAT.HASH, 0.0) + segs.get(CAT.NDP, 0.0)
                  + segs.get(CAT.WIRE, 0.0))
        return result.latency_us - device

    def _measure(self, scheme_cls, processing):
        tb = Testbed(seed=5)
        scheme = scheme_cls(tb)
        data = _pattern(self.SIZE)
        # Warm one request first (descriptor setup, rings), measure the
        # second, as the paper measures steady state.
        run_send(tb, scheme, data, "warm.dat", processing=processing)
        result = run_send(tb, scheme, data, "meas.dat",
                          processing=processing)
        return result.latency_us, self.software_us(result)

    def test_fig11a_dcs_beats_software_without_ndp(self):
        sw, sw_soft = self._measure(SwOptScheme, None)
        p2p, p2p_soft = self._measure(SwP2pScheme, None)
        dcs, dcs_soft = self._measure(DcsCtrlScheme, None)
        assert dcs < p2p
        assert dcs < sw
        # Headline: ~42 % software-latency reduction vs software control.
        assert 0.35 < (p2p_soft - dcs_soft) / p2p_soft < 0.70

    def test_fig11b_dcs_beats_software_with_ndp(self):
        sw, sw_soft = self._measure(SwOptScheme, "md5")
        p2p, p2p_soft = self._measure(SwP2pScheme, "md5")
        dcs, dcs_soft = self._measure(DcsCtrlScheme, "md5")
        assert dcs < p2p < sw
        # Headline: ~72 % software-latency reduction vs SW-controlled P2P.
        assert 0.55 < (p2p_soft - dcs_soft) / p2p_soft < 0.85

    def test_fig11b_total_latency_also_drops(self):
        p2p, _ = self._measure(SwP2pScheme, "md5")
        dcs, _ = self._measure(DcsCtrlScheme, "md5")
        assert 0.30 < (p2p - dcs) / p2p < 0.60

    def test_fig3_integrated_matches_dcs(self):
        dcs, _ = self._measure(DcsCtrlScheme, None)
        integ, _ = self._measure(IntegratedScheme, None)
        assert integ == pytest.approx(dcs, rel=0.1)

    def test_dcs_cpu_utilization_far_below_software(self):
        data = _pattern(self.SIZE)
        cpu_cost = {}
        for scheme_cls in (SwOptScheme, DcsCtrlScheme):
            tb = Testbed(seed=6)
            scheme = scheme_cls(tb)
            run_send(tb, scheme, data, "warm.dat", processing="md5")
            tb.node0.host.cpu.tracker.reset_window()
            run_send(tb, scheme, data, "meas.dat", processing="md5")
            cpu_cost[scheme.name] = tb.node0.host.cpu.tracker.total()
        assert cpu_cost["dcs-ctrl"] < cpu_cost["sw-opt"] / 2


class TestFlexibility:
    """Table I's flexibility column, made executable."""

    def test_integrated_device_rejects_new_function(self):
        tb = Testbed(seed=7)
        scheme = IntegratedScheme(tb)
        tb.node0.host.install_file("flex.dat", bytes(4 * KIB))
        conn = scheme.connect()

        def body(sim):
            yield from scheme.send_file(tb.node0, conn, "flex.dat", 0,
                                        4 * KIB, processing="md5")

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(ConfigurationError, match="respinning"):
            _ = proc.value

    def test_dcs_supports_every_ndp_function_on_one_engine(self):
        assert set(DcsCtrlScheme.supported_processing) >= {
            "md5", "crc32", "sha1", "sha256", "aes256", "gzip"}

    def test_integrated_cannot_add_devices(self):
        assert not IntegratedScheme.supports_device("gpu")
        assert IntegratedScheme.supports_device("ssd")


class TestSqAdmission:
    """More commands than SQ slots: submitters must wait for a slot,
    not overflow the ring."""

    def test_engine_sq_admits_one_block_commands(self):
        # Without bulk transfer a 1 MiB read is 256 one-block commands
        # against a 64-deep engine SQ.
        tb = Testbed(seed=31, bulk_transfer=False)
        data = _pattern(1024 * KIB, salt=5)
        result = run_send(tb, DcsCtrlScheme(tb), data, "sq-engine.dat")
        assert result.bytes_moved == len(data)
        tb.assert_no_leaks()

    def test_host_sq_admits_more_parts_than_slots(self, monkeypatch):
        from repro.host.drivers.nvme_driver import HostNvmeDriver
        monkeypatch.setattr(HostNvmeDriver, "QUEUE_DEPTH", 8)
        tb = Testbed(seed=32)
        data = _pattern(2048 * KIB, salt=6)
        result = run_send(tb, SwOptScheme(tb), data, "sq-host.dat")
        assert result.received == data
