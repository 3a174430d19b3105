"""Unit tests for engine components: host interface, buffers, driver."""

import pytest

from repro.core.buffers import CHUNK_SIZE, EngineBuffers
from repro.core.command import (COMPLETION_SIZE, D2DCommand, D2DCompletion,
                                D2DKind, D2D_COMMAND_SIZE)
from repro.core.host_interface import (COMMAND_QUEUE_DEPTH, HostInterface)
from repro.errors import AllocationError, DeviceError, ProtocolError
from repro.memory import MemoryRegion
from repro.pcie import Fabric, LINK_GEN2_X8
from repro.schemes import Testbed
from repro.sim import Simulator
from repro.sim.resources import Store
from repro.units import GIB, KIB, MIB


class TestEngineBuffers:
    def test_intermediate_alloc_free(self):
        buffers = EngineBuffers(ddr_base=0x1000_0000, size=64 * MIB,
                                recv_pool_chunks=16)
        addr = buffers.alloc_intermediate(100 * KIB)  # 2 chunks
        assert addr >= 0x1000_0000
        buffers.free_intermediate(addr, 100 * KIB)

    def test_recv_pool_is_carved_up_front(self):
        buffers = EngineBuffers(ddr_base=0, size=64 * MIB,
                                recv_pool_chunks=16)
        free_before = buffers.free_chunks
        chunk = buffers.take_recv_chunk()
        assert buffers.free_chunks == free_before  # pool, not allocator
        buffers.return_recv_chunk(chunk)

    def test_recv_pool_exhaustion(self):
        buffers = EngineBuffers(ddr_base=0, size=4 * MIB,
                                recv_pool_chunks=2)
        buffers.take_recv_chunk()
        buffers.take_recv_chunk()
        with pytest.raises(AllocationError):
            buffers.take_recv_chunk()

    def test_chunk_size_is_64k(self):
        assert CHUNK_SIZE == 64 * KIB

    def test_full_gigabyte_window(self):
        buffers = EngineBuffers(ddr_base=0xC000_0000)
        # 1 GiB / 64 KiB = 16384 chunks minus the 512-chunk recv pool.
        assert buffers.free_chunks == (1 * GIB // CHUNK_SIZE) - 512


class TestHostInterface:
    def _build(self, sim):
        fabric = Fabric(sim)
        fabric.add_port("host", LINK_GEN2_X8)
        fabric.add_port("engine", LINK_GEN2_X8)
        fabric.add_region(MemoryRegion("host-dram", base=0, size=16 * MIB,
                                       port="host"))
        bar = fabric.add_region(MemoryRegion("bar", base=0x8000_0000,
                                             size=64 * KIB, port="engine"))
        fabric.register_msi_handler("host", lambda src, vec: None)
        received = []
        iface = HostInterface(sim, bar, completion_ring_addr=0x1000,
                              engine_port="engine", fabric=fabric,
                              on_command=received.append,
                              completions=Store(sim))
        return fabric, iface, received

    def test_command_parses_after_doorbell(self):
        sim = Simulator()
        fabric, iface, received = self._build(sim)
        cmd = D2DCommand(d2d_id=5, kind=D2DKind.SSD_TO_NIC, src=1, dst=2,
                         length=4096)

        def submit(sim):
            yield from fabric.mmio_write("host", iface.command_slot_addr(0),
                                         cmd.pack())
            yield from fabric.mmio_write(
                "host", iface.doorbell_addr, (1).to_bytes(4, "little"))
            yield sim.timeout(10_000)

        sim.run(until=sim.process(submit(sim)))
        assert received == [cmd]
        assert iface.commands_received == 1

    def test_completion_reaches_host_ring_with_interrupt(self):
        sim = Simulator()
        fabric, iface, _ = self._build(sim)
        hits = []
        fabric._msi_handlers["host"] = lambda src, vec: hits.append(src)
        iface.completions.put(D2DCompletion(d2d_id=9, status=0))
        sim.run()
        raw = fabric.peek(0x1000, COMPLETION_SIZE)
        assert D2DCompletion.unpack(raw).d2d_id == 9
        assert hits == ["engine"]
        assert iface.interrupts_raised == 1

    def test_queue_overrun_detected(self):
        sim = Simulator()
        fabric, iface, _ = self._build(sim)

        def flood(sim):
            yield from fabric.mmio_write(
                "host", iface.doorbell_addr,
                (COMMAND_QUEUE_DEPTH + 1).to_bytes(4, "little"))

        proc = sim.process(flood(sim))
        sim.run()
        assert not proc.ok
        with pytest.raises(ProtocolError, match="overrun"):
            _ = proc.value

    def test_stale_doorbell_ignored(self):
        sim = Simulator()
        fabric, iface, received = self._build(sim)
        cmd = D2DCommand(d2d_id=1, kind=D2DKind.SSD_TO_NIC, src=0, dst=0,
                         length=1)

        def submit(sim):
            for i in range(3):
                yield from fabric.mmio_write(
                    "host", iface.command_slot_addr(i), cmd.pack())
            yield from fabric.mmio_write(
                "host", iface.doorbell_addr, (3).to_bytes(4, "little"))
            # A late/duplicate announcement of an older tail.
            yield from fabric.mmio_write(
                "host", iface.doorbell_addr, (2).to_bytes(4, "little"))
            yield sim.timeout(10_000)

        sim.run(until=sim.process(submit(sim)))
        assert len(received) == 3  # nothing replayed, nothing lost

    def test_slot_addresses_wrap(self):
        sim = Simulator()
        _, iface, _ = self._build(sim)
        assert (iface.command_slot_addr(0)
                == iface.command_slot_addr(COMMAND_QUEUE_DEPTH))
        assert (iface.command_slot_addr(1) - iface.command_slot_addr(0)
                == D2D_COMMAND_SIZE)


class TestDriverEdgeCases:
    def test_multi_extent_file_rejected(self):
        """HDC commands need contiguous extents (engine limitation)."""
        tb = Testbed(seed=61)
        # Create two files so the second one's extents are contiguous
        # but a manual two-extent file triggers the driver check.
        tb.node0.host.install_file("a.dat", bytes(8 * KIB))
        fs = tb.node0.host.fs
        # Forge a fragmented file by stitching two separate files
        # (inside volume 0's extent allocator).
        fs.create("frag.dat", 4 * KIB, volume=0)
        fs.create("spacer.dat", 4 * KIB, volume=0)
        vol0 = fs.volumes[0]
        vol0._files["frag.dat"].append(vol0._files["spacer.dat"][0])
        vol0._sizes["frag.dat"] = 8 * KIB
        buf = tb.node0.host.alloc_buffer(8 * KIB)
        fd = tb.node0.library.open_file("frag.dat")

        def body(sim):
            yield from tb.node0.library.hdc_readfile(fd, 0, 8 * KIB, buf)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="contiguous"):
            _ = proc.value

    def test_concurrent_submissions_complete(self):
        """Many in-flight ioctls must not corrupt the command queue."""
        tb = Testbed(seed=62)
        lib = tb.node0.library
        n = 24
        for i in range(n):
            tb.node0.host.install_file(f"c{i}.dat", bytes(4 * KIB))
        fds = [lib.open_file(f"c{i}.dat") for i in range(n)]
        bufs = [tb.node0.host.alloc_buffer(4 * KIB) for _ in range(n)]
        procs = []
        for i in range(n):
            def body(sim, i=i):
                return (yield from lib.hdc_readfile(fds[i], 0, 4 * KIB,
                                                    bufs[i]))
            procs.append(tb.sim.process(body(tb.sim)))
        for proc in procs:
            completion = tb.sim.run(until=proc)
            assert completion.ok

    def test_full_command_queue_parks_submitters_until_a_slot_frees(self):
        """More ioctls than usable command slots: the rest park, and
        each completion hands its slot to the oldest parked one."""
        tb = Testbed(seed=64)
        lib = tb.node0.library
        n = COMMAND_QUEUE_DEPTH + 6
        tb.node0.host.install_file("q.dat", bytes(4 * KIB))
        fd = lib.open_file("q.dat")
        bufs = [tb.node0.host.alloc_buffer(4 * KIB) for _ in range(n)]
        procs = [tb.sim.process(lib.hdc_readfile(fd, 0, 4 * KIB, buf))
                 for buf in bufs]
        commands = tb.node0.driver.commands
        peak = 0
        while not all(proc.triggered for proc in procs):
            tb.sim.step()
            peak = max(peak, len(commands.waiters))
        assert peak == COMMAND_QUEUE_DEPTH - 1
        assert all(proc.ok and proc.value.ok for proc in procs)
        tb.assert_no_leaks()

    def test_engine_flow_ids_are_stable(self):
        tb = Testbed(seed=63)
        conn1 = tb.connect_offloaded()
        conn2 = tb.connect_offloaded()
        drv = tb.node0.driver
        assert drv.flow_id(conn1.flow0) != drv.flow_id(conn2.flow0)
        assert drv.flow_id(conn1.flow0) == drv.flow_id(conn1.flow0)
