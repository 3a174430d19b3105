"""Differential test of the fabric's DMA arbitration.

A test-local reference fabric keeps the original timing model spelled
out step by step: the hop (or read-request) latency, one
``pcie.timeout`` check, then the source's TX and the target's RX held
as two test-local FIFO holds (:class:`tests.fifo_oracle.SetResource`,
independent of the fabric's :class:`~repro.sim.resources.Lanes`),
acquired in one global order (link name, rx before tx on equal names)
and each released after its own serialization time.  The real :class:`Fabric` must agree
with it on every drawn batch of concurrent DMAs: finish ticks,
outcomes, the order DMAs finish and bytes land (same-tick ties
included), and every byte counter.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, DeviceTimeout
from repro.faults import FaultPlan, FaultRule
from repro.memory import MemoryRegion
from repro.pcie import Fabric, LINK_GEN2_X4, LINK_GEN2_X8
from repro.pcie.address import AddressMap
from repro.pcie.transaction import (COMPLETION_TIMEOUT_NS, HOP_FORWARD_NS,
                                    READ_REQUEST_NS)
from repro.sim import Simulator
from repro.sim.rng import RngHub
from repro.units import KIB
from tests.fifo_oracle import SetResource

# Asymmetric on purpose: the SSD's x4 link is the slow end of any
# transfer it takes part in.
PORTS = {"host": LINK_GEN2_X8, "ssd": LINK_GEN2_X4, "nic": LINK_GEN2_X8,
         "engine": LINK_GEN2_X8}
WINDOW = 512 * KIB
# Host DRAM sits behind the root complex; device memories answer at once.
ACCESS_LATENCY = {"host": 90, "ssd": 0, "nic": 0, "engine": 40}
BASES = {port: index * WINDOW for index, port in enumerate(PORTS)}


class LoggedRegion(MemoryRegion):
    """A region that records when and where every write lands."""

    def __init__(self, sim, log, **kwargs):
        super().__init__(**kwargs)
        self._sim = sim
        self._log = log

    def write(self, addr, data):
        super().write(addr, data)
        self._log.append((self._sim.now, self.name, addr, bytes(data)))


def _regions(sim, log):
    return [LoggedRegion(sim, log, name=f"{port}-mem", base=BASES[port],
                         size=WINDOW, port=port,
                         access_latency=ACCESS_LATENCY[port])
            for port in PORTS]


class _RefLink:
    def __init__(self, sim, name, config):
        self.name = name
        self.rate = config.effective_rate()
        self.tx = SetResource(sim)
        self.rx = SetResource(sim)


class _RefPort:
    def __init__(self, sim, name, config):
        self.name = name
        self.link = _RefLink(sim, name, config)
        self.tx_bytes = 0
        self.rx_bytes = 0


class ReferenceFabric:
    """The oracle: per-DMA port lookups and a two-hold path."""

    def __init__(self, sim):
        self.sim = sim
        self.address_map = AddressMap()
        self.ports = {}
        self.host_bytes = 0
        self.p2p_bytes = 0

    def add_port(self, name, config):
        self.ports[name] = _RefPort(self.sim, name, config)

    def add_region(self, region):
        self.address_map.add(region)

    def dma_write(self, initiator, addr, data):
        region = self.address_map.resolve(addr, len(data))
        src = self.ports[initiator]
        if region.port == initiator:
            region.write(addr, data)
            return len(data)
        dst = self.ports[region.port]
        yield self.sim.timeout(2 * HOP_FORWARD_NS + region.access_latency)
        yield from self._occupy_path(src.link, dst.link, len(data))
        region.write(addr, data)
        self._account(src, dst, len(data))
        return len(data)

    def dma_read(self, initiator, addr, length):
        region = self.address_map.resolve(addr, length)
        dst = self.ports[initiator]
        if region.port == initiator:
            return region.read(addr, length)
        src = self.ports[region.port]
        yield self.sim.timeout(READ_REQUEST_NS + 2 * HOP_FORWARD_NS
                               + region.access_latency)
        yield from self._occupy_path(src.link, dst.link, length)
        data = region.read(addr, length)
        self._account(src, dst, length)
        return data

    def _occupy_path(self, src_link, dst_link, size):
        sim = self.sim
        faults = sim.faults
        if faults is not None and faults.fires(
                "pcie.timeout", src=src_link.name, dst=dst_link.name,
                size=size):
            yield sim.timeout(COMPLETION_TIMEOUT_NS)
            raise DeviceTimeout(
                f"{src_link.name}->{dst_link.name}: TLP completion "
                f"timeout ({size} B)")
        tx = (src_link.tx, src_link.rate.duration(size))
        rx = (dst_link.rx, dst_link.rate.duration(size))
        if dst_link.name <= src_link.name:
            first, second = rx, tx
        else:
            first, second = tx, rx
        req_first = first[0].request()
        yield req_first
        req_second = second[0].request()
        yield req_second
        if second[1] < first[1]:
            short, short_req, long, long_req = (second, req_second,
                                                first, req_first)
        else:
            short, short_req, long, long_req = (first, req_first,
                                                second, req_second)
        yield sim.timeout(short[1])
        short[0].release(short_req)
        if long[1] != short[1]:
            yield sim.timeout(long[1] - short[1])
        long[0].release(long_req)

    def _account(self, src, dst, size):
        src.tx_bytes += size
        dst.rx_bytes += size
        if "host" in (src.name, dst.name):
            self.host_bytes += size
        else:
            self.p2p_bytes += size


dma = st.tuples(
    st.sampled_from(["write", "read"]),
    st.sampled_from(sorted(PORTS)),       # initiator
    st.sampled_from(sorted(PORTS)),       # target (owner of the address)
    # Common sizes repeat so equal serialization times (ties) happen.
    st.one_of(st.sampled_from([0, 64, 4 * KIB, 64 * KIB]),
              st.integers(min_value=0, max_value=256 * KIB)),
    st.integers(min_value=0, max_value=WINDOW - 256 * KIB),
    st.sampled_from([0, 0, 0, 1, 37, 1_000, 4_096, 5_000, 20_000, 150_000]),
)


def _run(fabric_cls, batch, timeouts):
    sim = Simulator()
    if timeouts:
        FaultPlan([FaultRule("pcie.timeout", occurrences=timeouts)]
                  ).install(sim, RngHub(5))
    log = []
    fabric = fabric_cls(sim)
    for port, config in PORTS.items():
        fabric.add_port(port, config)
    for region in _regions(sim, log):
        fabric.add_region(region)
    outcomes = []

    def one(i, kind, initiator, target, size, offset, start):
        yield sim.timeout(start)
        addr = BASES[target] + offset
        try:
            if kind == "write":
                data = bytes([i % 251 + 1]) * size
                result = yield from fabric.dma_write(initiator, addr, data)
            else:
                result = yield from fabric.dma_read(initiator, addr, size)
        except DeviceTimeout as exc:
            result = ("timeout", str(exc))
        outcomes.append((i, sim.now, result))

    for i, spec in enumerate(batch):
        sim.process(one(i, *spec))
    sim.run()
    return sim, fabric, outcomes, log


def _counters(fabric):
    if isinstance(fabric, ReferenceFabric):
        ports = {name: (p.tx_bytes, p.rx_bytes)
                 for name, p in fabric.ports.items()}
    else:
        ports = {name: (fabric.stats(name).tx_bytes,
                        fabric.stats(name).rx_bytes) for name in PORTS}
    return ports, fabric.host_bytes, fabric.p2p_bytes


@settings(max_examples=120, deadline=None)
# Equal x8 holds end on one tick: the first-acquired direction (host
# RX) must be handed over first.
@example(batch=[("write", "nic", "host", 64 * KIB, 0, 0),
                ("write", "engine", "host", 64 * KIB, 64 * KIB, 5_000),
                ("write", "nic", "engine", 64 * KIB, 0, 5_000)],
         timeouts=set())
@given(batch=st.lists(dma, min_size=1, max_size=10),
       timeouts=st.sets(st.integers(min_value=1, max_value=12),
                        max_size=3))
def test_fabric_matches_reference_arbitration(batch, timeouts):
    timeouts = tuple(sorted(timeouts))
    _, ref, ref_out, ref_log = _run(ReferenceFabric, batch, timeouts)
    sim, real, out, log = _run(Fabric, batch, timeouts)
    assert out == ref_out
    assert log == ref_log
    assert _counters(real) == _counters(ref)
    for port in PORTS:
        link = real._port(port).link
        for direction in (link.tx, link.rx):
            assert (direction.count, direction.queue_length) == (0, 0)
    assert sim.peek() is None


def test_reference_sees_contention_and_ties():
    """The drawn space exercises queueing: three same-tick writes into
    one target's RX finish one serialization apart."""
    batch = [("write", port, "engine", 64 * KIB, i * 64 * KIB, 0)
             for i, port in enumerate(["host", "nic", "ssd"])]
    _, _, ref_out, _ = _run(ReferenceFabric, batch, ())
    _, _, out, _ = _run(Fabric, batch, ())
    assert out == ref_out
    finish = [tick for _, tick, _ in out]
    rx = LINK_GEN2_X8.effective_rate().duration(64 * KIB)
    assert finish[1] - finish[0] >= rx
    assert finish[2] - finish[1] >= rx


def test_dma_runs_nothing_until_driven():
    """Building a DMA runs nothing: an address error surfaces when the
    generator is first driven, as it does in the reference."""
    sim = Simulator()
    fabric = Fabric(sim)
    fabric.add_port("host", LINK_GEN2_X8)
    pending = fabric.dma_write("host", 0xdead_0000, b"x")
    with pytest.raises(AddressError):
        next(pending)
