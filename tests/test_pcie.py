"""Tests for the PCIe address map, links and switched fabric."""

import pytest

from repro.errors import AddressError, DeviceTimeout, SimulationError
from repro.faults import FaultPlan, FaultRule
from repro.memory import MemoryRegion
from repro.metrics import MetricsSession
from repro.pcie import (AddressMap, Fabric, LINK_GEN2_X4, LINK_GEN2_X8,
                        tlp_efficiency)
from repro.pcie.transaction import (COMPLETION_TIMEOUT_NS, DOORBELL_WRITE_NS,
                                    HOP_FORWARD_NS)
from repro.sim import Simulator
from repro.sim.rng import RngHub
from repro.units import KIB, MIB, usec


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    fab = Fabric(sim)
    fab.add_port("host", LINK_GEN2_X8)
    fab.add_port("ssd", LINK_GEN2_X4)
    fab.add_port("nic", LINK_GEN2_X8)
    fab.add_port("engine", LINK_GEN2_X8)
    fab.add_region(MemoryRegion("host-dram", base=0x0000_0000,
                                size=64 * MIB, port="host"))
    fab.add_region(MemoryRegion("engine-ddr3", base=0x4000_0000,
                                size=16 * MIB, port="engine"))
    fab.add_region(MemoryRegion("ssd-regs", base=0x8000_0000,
                                size=64 * KIB, port="ssd"))
    return fab


class TestAddressMap:
    def test_resolve_finds_region(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=0, size=100, port="p"))
        amap.add(MemoryRegion("b", base=100, size=100, port="q"))
        assert amap.resolve(50).name == "a"
        assert amap.resolve(100).name == "b"
        assert amap.resolve(199).name == "b"

    def test_overlap_rejected(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=0, size=100, port="p"))
        with pytest.raises(AddressError):
            amap.add(MemoryRegion("b", base=50, size=100, port="q"))

    def test_unmapped_rejected(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=100, size=100, port="p"))
        with pytest.raises(AddressError):
            amap.resolve(50)
        with pytest.raises(AddressError):
            amap.resolve(200)

    def test_straddle_rejected(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=0, size=100, port="p"))
        amap.add(MemoryRegion("b", base=100, size=100, port="q"))
        with pytest.raises(AddressError):
            amap.resolve(90, 20)

    @pytest.fixture
    def edges(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=100, size=100, port="p"))
        amap.add(MemoryRegion("b", base=300, size=100, port="q"))
        return amap

    def test_access_ending_at_region_end_resolves(self, edges):
        assert edges.resolve(190, 10).name == "a"
        assert edges.resolve(100, 100).name == "a"
        assert edges.resolve(399, 1).name == "b"

    def test_one_byte_past_end_straddles(self, edges):
        with pytest.raises(AddressError, match="straddles the end of region a"):
            edges.resolve(190, 11)
        with pytest.raises(AddressError, match="straddles the end of region b"):
            edges.resolve(300, 101)

    def test_below_lowest_base_is_unmapped(self, edges):
        for addr in (0, 99):
            with pytest.raises(AddressError, match="unmapped"):
                edges.resolve(addr)
        with pytest.raises(AddressError, match="unmapped"):
            edges.resolve(99, 2)  # would end inside "a", starts outside

    def test_gap_and_past_last_region_are_unmapped(self, edges):
        for addr in (200, 299, 400):
            with pytest.raises(AddressError, match="unmapped"):
                edges.resolve(addr)

    def test_zero_length_access_at_end_accepted(self, edges):
        assert edges.resolve(200, 0).name == "a"
        assert edges.resolve(400, 0).name == "b"

    def test_find_by_name(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=0, size=100, port="p"))
        assert amap.find("a").base == 0
        assert amap.find("zzz") is None

    def test_functional_read_write(self):
        amap = AddressMap()
        amap.add(MemoryRegion("a", base=0x1000, size=4096, port="p"))
        amap.write(0x1234, b"data")
        assert amap.read(0x1234, 4) == b"data"


class TestLinkConfig:
    def test_tlp_efficiency_below_one(self):
        assert 0.85 < tlp_efficiency() < 1.0

    def test_x8_twice_x4(self):
        assert (LINK_GEN2_X8.effective_rate().bytes_per_sec ==
                pytest.approx(2 * LINK_GEN2_X4.effective_rate().bytes_per_sec))

    def test_gen2_x4_near_2gb(self):
        # 4 lanes * 500 MB/s raw = 2 GB/s, ~1.8 GB/s effective
        rate = LINK_GEN2_X4.effective_rate()
        assert 1.7e9 < rate.bytes_per_sec < 2.0e9


class TestFabric:
    def test_duplicate_port_rejected(self, sim):
        fab = Fabric(sim)
        fab.add_port("host", LINK_GEN2_X8)
        with pytest.raises(SimulationError):
            fab.add_port("host", LINK_GEN2_X8)

    def test_region_needs_known_port(self, sim):
        fab = Fabric(sim)
        with pytest.raises(SimulationError):
            fab.add_region(MemoryRegion("r", base=0, size=10, port="ghost"))

    def test_dma_write_moves_bytes(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.dma_write("ssd", 0x1000, b"payload")

        sim.run(until=sim.process(body(sim, fabric)))
        assert fabric.peek(0x1000, 7) == b"payload"

    def test_dma_write_takes_time(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.dma_write("ssd", 0x1000, bytes(64 * KIB))

        sim.run(until=sim.process(body(sim, fabric)))
        # 64 KiB over an effective ~1.8 GB/s x4 link, twice (tx then rx
        # holds), plus hops: tens of microseconds at most.
        assert 30_000 < sim.now < 120_000

    def test_local_access_is_free_and_functional(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.dma_write("host", 0x2000, b"local")
            data = yield from fabric.dma_read("host", 0x2000, 5)
            return data

        proc = sim.process(body(sim, fabric))
        assert sim.run(until=proc) == b"local"
        assert sim.now == 0

    def test_dma_read_returns_bytes(self, sim, fabric):
        fabric.poke(0x4000_0100, b"engine-data")

        def body(sim, fabric):
            data = yield from fabric.dma_read("nic", 0x4000_0100, 11)
            return data

        proc = sim.process(body(sim, fabric))
        assert sim.run(until=proc) == b"engine-data"
        assert sim.now > 0

    def test_p2p_bypasses_host_accounting(self, sim, fabric):
        def body(sim, fabric):
            # SSD writes into engine DDR3: pure peer-to-peer.
            yield from fabric.dma_write("ssd", 0x4000_0000, bytes(4096))
            # Engine writes to host DRAM: host traffic.
            yield from fabric.dma_write("engine", 0x0, bytes(512))

        sim.run(until=sim.process(body(sim, fabric)))
        assert fabric.p2p_bytes == 4096
        assert fabric.host_bytes == 512

    def test_port_stats_track_direction(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.dma_write("ssd", 0x4000_0000, bytes(1000))

        sim.run(until=sim.process(body(sim, fabric)))
        assert fabric.stats("ssd").tx_bytes == 1000
        assert fabric.stats("engine").rx_bytes == 1000
        assert fabric.stats("host").rx_bytes == 0

    def test_mmio_write_fires_hook_after_latency(self, sim, fabric):
        rung = []
        region = fabric.address_map.find("ssd-regs")
        region.on_mmio_write = lambda off, data: rung.append((sim.now, off, data))

        def body(sim, fabric):
            yield from fabric.mmio_write("engine", 0x8000_0010, b"\x05\x00\x00\x00")

        sim.run(until=sim.process(body(sim, fabric)))
        assert rung == [(DOORBELL_WRITE_NS, 0x10, b"\x05\x00\x00\x00")]
        assert fabric.stats("engine").doorbells == 1

    def test_msi_delivery(self, sim, fabric):
        hits = []
        fabric.register_msi_handler("host", lambda src, vec: hits.append((src, vec)))

        def body(sim, fabric):
            yield from fabric.msi("ssd", vector=3)

        sim.run(until=sim.process(body(sim, fabric)))
        assert hits == [("ssd", 3)]
        assert fabric.stats("ssd").interrupts == 1

    def test_msi_without_handler_raises(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.msi("ssd")

        proc = sim.process(body(sim, fabric))
        sim.run()
        assert not proc.ok

    def test_concurrent_writes_to_one_target_serialize(self, sim, fabric):
        """Two devices DMAing into the same region contend its RX link."""
        finish = {}

        def writer(sim, fabric, port, addr):
            yield from fabric.dma_write(port, addr, bytes(256 * KIB))
            finish[port] = sim.now

        sim.process(writer(sim, fabric, "ssd", 0x4000_0000))
        sim.process(writer(sim, fabric, "nic", 0x4010_0000))
        sim.run()
        # The engine's RX link is shared: the last completion cannot
        # beat the RX serialization of both payloads back to back.
        engine_rx_time = 2 * LINK_GEN2_X8.effective_rate().duration(
            256 * KIB)
        assert max(finish.values()) >= engine_rx_time

    def test_equal_holds_release_first_acquired_direction_first(
            self, sim, fabric):
        """nic -> host on two x8 links holds host RX (acquired first:
        "host" sorts before "nic") and nic TX for equal times; the tie
        releases host RX first, so its waiter goes first."""
        done = []

        def transfer(initiator, addr, delay, tag):
            yield sim.timeout(delay)
            yield from fabric.dma_write(initiator, addr, bytes(64 * KIB))
            done.append((sim.now, tag))

        sim.process(transfer("nic", 0x0000_1000, 0, "holder"))
        sim.process(transfer("engine", 0x0002_0000, usec(5), "host-rx"))
        sim.process(transfer("nic", 0x4000_0000, usec(5), "nic-tx"))
        sim.run()
        assert [tag for _, tag in done] == ["holder", "host-rx", "nic-tx"]
        assert done[1][0] == done[2][0]

    def test_unmapped_dma_fails_process(self, sim, fabric):
        def body(sim, fabric):
            yield from fabric.dma_write("ssd", 0xdead_beef_0000, b"x")

        proc = sim.process(body(sim, fabric))
        sim.run()
        assert not proc.ok
        with pytest.raises(AddressError):
            _ = proc.value


class TestCompletionTimeoutFault:
    """The ``pcie.timeout`` site: evaluated once per DMA traversal,
    before either link direction is acquired."""

    def test_timed_out_dma_raises_holds_nothing_and_writes_nothing(
            self, sim, fabric):
        faults = FaultPlan([FaultRule("pcie.timeout", occurrences=(1,))]
                           ).install(sim, RngHub(7))
        ssd_tx = fabric._port("ssd").link.tx
        engine_rx = fabric._port("engine").link.rx
        seen = []

        def body():
            try:
                yield from fabric.dma_write("ssd", 0x4000_0000, b"lost")
            except DeviceTimeout as exc:
                seen.append((sim.now, str(exc), ssd_tx.count,
                             engine_rx.count))
            start = sim.now
            yield from fabric.dma_write("ssd", 0x4000_0000, b"kept")
            return start

        start = sim.run(until=sim.process(body()))
        region = fabric.address_map.find("engine-ddr3")
        assert seen == [(2 * HOP_FORWARD_NS + region.access_latency
                         + COMPLETION_TIMEOUT_NS,
                         "ssd->engine: TLP completion timeout (4 B)", 0, 0)]
        assert faults.injected == 1
        assert faults.occurrences("pcie.timeout") == 2
        assert fabric.peek(0x4000_0000, 4) == b"kept"
        assert fabric.stats("ssd").tx_bytes == 4  # the second DMA only
        assert sim.now > start
        assert (ssd_tx.count, engine_rx.count) == (0, 0)

    def test_plan_without_the_site_draws_nothing(self, sim, fabric):
        faults = FaultPlan([FaultRule("flash.read", probability=0.5)]
                           ).install(sim, RngHub(7))
        stream = faults._sites["flash.read"].rng
        before = stream.getstate()

        def body():
            yield from fabric.dma_write("ssd", 0x4000_0000, bytes(4096))
            data = yield from fabric.dma_read("nic", 0x4000_0000, 4096)
            return data

        assert sim.run(until=sim.process(body())) == bytes(4096)
        assert faults.occurrences("pcie.timeout") == 0
        assert stream.getstate() == before


class TestInterruptedDma:
    """A DMA closed at any point of its hold gives back the link
    directions it holds or is queued for, and its bytes leave the
    ``pcie.link.inflight_bytes`` gauges, as ``Lanes.wait()`` does for
    a CPU core.  Each case ends with every direction free, nobody
    parked and every gauge at zero."""

    ENGINE = 0x4000_0000
    HOST = 0x0000_1000

    @pytest.fixture
    def metered(self):
        session = MetricsSession(label="t").install()
        try:
            sim = Simulator()
            fab = Fabric(sim)
            for port, link in (("host", LINK_GEN2_X8), ("ssd", LINK_GEN2_X4),
                               ("nic", LINK_GEN2_X8),
                               ("engine", LINK_GEN2_X8)):
                fab.add_port(port, link)
            fab.add_region(MemoryRegion("host-dram", base=0, size=MIB,
                                        port="host"))
            fab.add_region(MemoryRegion("engine-ddr3", base=self.ENGINE,
                                        size=MIB, port="engine"))
        finally:
            session.uninstall()
        return sim, fab

    @staticmethod
    def _direction(fab, port, direction):
        return getattr(fab._port(port).link, direction)

    @staticmethod
    def _start(sim, fab, initiator, addr):
        """A 4 KiB write as its own process; returns the generator."""
        transfer = fab.dma_write(initiator, addr, bytes(4 * KIB))
        sim.process(transfer)
        return transfer

    @staticmethod
    def _step_until(sim, condition):
        while not condition():
            sim.step()

    def _assert_settled(self, sim, fab):
        sim.run()
        for port in ("host", "ssd", "nic", "engine"):
            for direction in ("tx", "rx"):
                lane = self._direction(fab, port, direction)
                assert (port, direction, lane.busy, len(lane.parked),
                        lane.inflight.value) == (port, direction, 0, 0, 0)
        # The directions still work: a fresh transfer over them ends.
        proc = sim.process(fab.dma_write("nic", self.ENGINE, b"next"))
        sim.run()
        assert proc.ok and fab.peek(self.ENGINE, 4) == b"next"

    def test_closed_while_parked(self, metered):
        sim, fab = metered
        engine_rx = self._direction(fab, "engine", "rx")
        self._start(sim, fab, "host", self.ENGINE)
        parked = self._start(sim, fab, "nic", self.ENGINE)
        self._step_until(sim, lambda: engine_rx.parked)
        parked.close()
        assert not engine_rx.parked
        self._assert_settled(sim, fab)

    def test_closed_after_the_hand_over(self, metered):
        """Two DMAs into the engine; the parked one is closed after the
        host's transfer handed it the engine RX, before it resumed."""
        sim, fab = metered
        engine_rx = self._direction(fab, "engine", "rx")
        self._start(sim, fab, "host", self.ENGINE)
        parked = self._start(sim, fab, "nic", self.ENGINE)
        self._step_until(sim, lambda: engine_rx.parked)
        gate = engine_rx.parked[0]
        self._step_until(sim, lambda: gate.triggered)
        parked.close()
        self._assert_settled(sim, fab)

    def test_closed_while_holding_both_directions(self, metered):
        sim, fab = metered
        engine_rx = self._direction(fab, "engine", "rx")
        holder = self._start(sim, fab, "host", self.ENGINE)
        self._start(sim, fab, "nic", self.ENGINE)
        self._step_until(sim, lambda: engine_rx.parked)
        holder.close()
        self._assert_settled(sim, fab)

    def test_closed_while_queued_for_its_second_direction(self, metered):
        """ssd -> host takes the host RX first ("host" < "ssd"), then
        queues for the ssd TX an ssd -> engine transfer holds."""
        sim, fab = metered
        ssd_tx = self._direction(fab, "ssd", "tx")
        host_rx = self._direction(fab, "host", "rx")
        self._start(sim, fab, "ssd", self.ENGINE)
        queued = self._start(sim, fab, "ssd", self.HOST)
        self._step_until(sim, lambda: ssd_tx.parked)
        assert host_rx.busy == 1
        queued.close()
        self._assert_settled(sim, fab)

    def test_closed_between_its_two_releases(self, metered):
        """ssd -> engine: the x8 engine RX is released before the x4
        ssd TX; closing in between leaves only the ssd TX to give back."""
        sim, fab = metered
        ssd_tx = self._direction(fab, "ssd", "tx")
        engine_rx = self._direction(fab, "engine", "rx")
        transfer = self._start(sim, fab, "ssd", self.ENGINE)
        self._step_until(sim, lambda: ssd_tx.busy and engine_rx.busy)
        self._step_until(sim, lambda: not engine_rx.busy)
        assert ssd_tx.busy == 1
        transfer.close()
        self._assert_settled(sim, fab)
