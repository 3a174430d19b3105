"""The switched PCIe fabric: ports, routing, timed+functional DMA.

:class:`Fabric` is the one object every device model talks to.  It owns
the :class:`~repro.pcie.address.AddressMap` and one
:class:`~repro.pcie.link.PcieLink` per port, and exposes generator
methods (to be driven with ``yield from`` inside simulation processes):

* :meth:`dma_write` / :meth:`dma_read` — bulk data, routed by target
  address.  Peer-to-peer transfers (initiator and owner both devices)
  never touch the host port — this is the data-path property the whole
  paper builds on.
* :meth:`mmio_write` / :meth:`mmio_read` — small register transactions
  (doorbells); writes trigger a region's MMIO hook.
* :meth:`msi` — message-signalled interrupt delivery to a registered
  handler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.errors import DeviceTimeout, SimulationError
from repro.memory.region import MemoryRegion
from repro.pcie.address import AddressMap
from repro.pcie.link import LinkConfig, PcieLink
from repro.pcie.transaction import (COMPLETION_TIMEOUT_NS, DOORBELL_WRITE_NS,
                                    HOP_FORWARD_NS, MSI_LATENCY_NS,
                                    READ_REQUEST_NS)
from repro.sim.kernel import Simulator


@dataclass
class PortStats:
    """Byte counters per port (for utilization reports)."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    doorbells: int = 0
    interrupts: int = 0


@dataclass
class _Port:
    name: str
    link: PcieLink
    stats: PortStats = field(default_factory=PortStats)
    # Metric instruments; None unless a MetricsSession is installed.
    m_tx: Optional[object] = None
    m_rx: Optional[object] = None
    m_db: Optional[object] = None


class _Route:
    """What a DMA from one port to another needs, decoded once.

    ``first``/``second`` are the sending port's TX and the receiving
    port's RX in the fabric's one global acquire order: by port (= link)
    name, and on equal names rx before tx.  Transfers contending for
    overlapping direction pairs therefore never hold-and-wait in a
    cycle (no deadlock).  The order must not depend on object identity:
    ``id()`` varies between runs in one process and would break trace
    determinism.
    """

    __slots__ = ("src", "dst", "tx", "rx", "first", "second", "first_link",
                 "second_link", "host", "track", "label")

    def __init__(self, src: _Port, dst: _Port):
        self.src, self.dst = src, dst
        self.tx, self.rx = src.link.tx, dst.link.rx
        if dst.name <= src.name:
            self.first, self.second = self.rx, self.tx
            self.first_link, self.second_link = dst.link, src.link
        else:
            self.first, self.second = self.tx, self.rx
            self.first_link, self.second_link = src.link, dst.link
        self.host = "host" in (src.name, dst.name)
        self.track = f"link:{src.name}"
        self.label = f"{src.name}->{dst.name}"


class Fabric:
    """A single-switch PCIe fabric with address-routed DMA."""

    def __init__(self, sim: Simulator, name: str = "fabric"):
        self.sim = sim
        self.name = name
        self.address_map = AddressMap()
        self._ports: Dict[str, _Port] = {}
        self._routes: Dict[Tuple[str, str], _Route] = {}
        self._msi_handlers: Dict[str, Callable[[str, int], None]] = {}
        self.p2p_bytes = 0       # device<->device traffic (never sees host)
        self.host_bytes = 0      # traffic with the host port on one end

    # -- topology construction -------------------------------------------

    def add_port(self, name: str, link_config: LinkConfig) -> None:
        """Attach a device (or the root complex) to the switch."""
        if name in self._ports:
            raise SimulationError(f"duplicate port {name!r}")
        port = _Port(name, PcieLink(self.sim, link_config, name=name,
                                    node=self.name))
        metrics = self.sim.metrics
        if metrics is not None:
            port.m_tx = metrics.counter("pcie.port.tx_bytes",
                                        node=self.name, port=name)
            port.m_rx = metrics.counter("pcie.port.rx_bytes",
                                        node=self.name, port=name)
            port.m_db = metrics.counter("pcie.port.doorbells",
                                        node=self.name, port=name)
        self._ports[name] = port

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        """Register an addressable window owned by one of the ports."""
        if region.port not in self._ports:
            raise SimulationError(
                f"region {region.name} owned by unknown port {region.port!r}")
        return self.address_map.add(region)

    def stats(self, port: str) -> PortStats:
        """Byte/doorbell counters for one port."""
        return self._port(port).stats

    def _port(self, name: str) -> _Port:
        try:
            return self._ports[name]
        except KeyError:
            raise SimulationError(f"unknown port {name!r}") from None

    # -- interrupts --------------------------------------------------------

    def register_msi_handler(self, port: str,
                             handler: Callable[[str, int], None]) -> None:
        """Install the interrupt sink for ``port`` (normally ``host``)."""
        self._port(port)  # validate
        self._msi_handlers[port] = handler

    # -- transactions ------------------------------------------------------

    def dma_write(self, initiator: str, addr: int, data: bytes):
        """Process: move ``data`` from ``initiator`` into the region at ``addr``.

        Timing: the initiator's TX and the owner's RX are held for the
        serialization time (bottleneck link dominates via sequential
        holds), plus two switch hops.  Functional: the bytes land in the
        target region (or fire its MMIO hook).  Returns ``len(data)``.
        """
        return self._transfer(initiator, addr, len(data), data)

    def dma_read(self, initiator: str, addr: int, length: int):
        """Process: fetch ``length`` bytes at ``addr`` into ``initiator``.

        Returns the bytes read.  Timing: non-posted read request to the
        owner, then completion data clocked owner→switch→initiator.
        """
        return self._transfer(initiator, addr, length, None)

    def _transfer(self, initiator: str, addr: int, length: int,
                  data: Optional[bytes]):
        """One DMA: a write when ``data`` is given, else a read.

        Data flows initiator→owner for a write and owner→initiator for
        a read; either way the sending port's TX and the receiving
        port's RX are held concurrently.  The transfer lasts the
        bottleneck link's serialization time, but each direction is
        *held* only for its own time — a fast port trickle-receiving
        from a slow sender still has capacity for other peers, which is
        how switched PCIe behaves (TLPs from different sources
        interleave).  The ``pcie.timeout`` fault site is evaluated once
        per traversal, before either direction is taken.
        """
        region = self.address_map.resolve(addr, length)
        owner = region.port
        write = data is not None
        if owner == initiator:
            # Device-local access never crosses the fabric.
            if write:
                region.write(addr, data)
                return length
            return region.read(addr, length)
        key = (initiator, owner) if write else (owner, initiator)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _Route(self._port(key[0]),
                                               self._port(key[1]))
        if write:
            kind, arrow = "dma.write", "->"
            delay = 2 * HOP_FORWARD_NS
        else:
            kind, arrow = "dma.read", "<-"
            delay = READ_REQUEST_NS + 2 * HOP_FORWARD_NS
        sim = self.sim
        tracer = sim.tracer
        span = None if tracer is None else tracer.begin(
            kind, track=f"pcie:{initiator}", name=f"{kind} {arrow} {owner}",
            initiator=initiator, target=owner, addr=addr, size=length)
        yield sim.timeout(delay + region.access_latency)
        tlp = None if tracer is None else tracer.begin(
            "tlp.send", track=route.track, name=f"{route.label} {length}B",
            src=route.src.name, dst=route.dst.name, size=length)
        faults = sim.faults
        if faults is not None and faults.fires(
                "pcie.timeout", src=route.src.name, dst=route.dst.name,
                size=length):
            # The TLPs never complete: the requester waits out its
            # completion timer and reports an error.  Neither direction
            # is held and no bytes land.
            yield sim.timeout(COMPLETION_TIMEOUT_NS)
            if tlp is not None:
                tlp.end(failed=True)
                span.end(failed=True)
            raise DeviceTimeout(f"{route.label}: TLP completion timeout "
                                f"({length} B)")
        first, second = route.first, route.second
        tx_meter = route.tx.inflight
        if tx_meter is not None:
            tx_meter.inc(length)
            route.rx.inflight.inc(length)
        if first.busy:
            yield first.park()
        else:
            first.busy = 1
        if second.busy:
            yield second.park()
        else:
            second.busy = 1
        # Release each direction after its own serialization time; the
        # transfer as a whole completes with the slower one.  On equal
        # durations (symmetric links) the first-taken direction is
        # released first and the second follows in the same step.
        first_ns = route.first_link.serialization(length)
        second_ns = route.second_link.serialization(length)
        if second_ns < first_ns:
            first, second = second, first
            first_ns, second_ns = second_ns, first_ns
        yield sim.timeout(first_ns)
        first.release()
        if tx_meter is not None:
            first.inflight.dec(length)
        if second_ns != first_ns:
            yield sim.timeout(second_ns - first_ns)
        second.release()
        if tx_meter is not None:
            second.inflight.dec(length)
        if tlp is not None:
            tlp.end()
        if write:
            region.write(addr, data)
        else:
            data = region.read(addr, length)
        src, dst = route.src, route.dst
        src.stats.tx_bytes += length
        dst.stats.rx_bytes += length
        if src.m_tx is not None:
            src.m_tx.inc(length)
            dst.m_rx.inc(length)
        if route.host:
            self.host_bytes += length
        else:
            self.p2p_bytes += length
        if span is not None:
            span.end()
        return length if write else data

    def mmio_write(self, initiator: str, addr: int, data: bytes):
        """Process: a small posted register write (doorbell-class).

        Fires the target region's MMIO hook after the posted-write
        latency.  Does not contend the bulk links (negligible payload).
        """
        region = self.address_map.resolve(addr, len(data))
        port = self._port(initiator)
        port.stats.doorbells += 1
        if port.m_db is not None:
            port.m_db.inc()
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "doorbell.ring", track=f"pcie:{initiator}",
            name=f"doorbell -> {region.port}", initiator=initiator,
            target=region.port, addr=addr, size=len(data))
        if region.port != initiator:
            yield self.sim.timeout(DOORBELL_WRITE_NS)
        region.write(addr, data)
        if span is not None:
            span.end()

    def mmio_read(self, initiator: str, addr: int, length: int):
        """Process: a small non-posted register read; returns the bytes."""
        region = self.address_map.resolve(addr, length)
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "mmio.read", track=f"pcie:{initiator}",
            name=f"mmio.read <- {region.port}", initiator=initiator,
            target=region.port, addr=addr, size=length)
        if region.port != initiator:
            # Round trip: request out, completion back.
            yield self.sim.timeout(READ_REQUEST_NS + DOORBELL_WRITE_NS)
        if span is not None:
            span.end()
        return region.read(addr, length)

    def msi(self, initiator: str, target_port: str = "host", vector: int = 0):
        """Process: deliver a message-signalled interrupt."""
        handler = self._msi_handlers.get(target_port)
        if handler is None:
            raise SimulationError(
                f"no MSI handler registered on port {target_port!r}")
        self._port(initiator).stats.interrupts += 1
        tracer = self.sim.tracer
        span = None if tracer is None else tracer.begin(
            "irq.deliver", track=f"pcie:{initiator}",
            name=f"irq {initiator}#{vector}", initiator=initiator,
            target=target_port, vector=vector)
        yield self.sim.timeout(MSI_LATENCY_NS)
        if span is not None:
            span.end()
        handler(initiator, vector)

    # -- functional back door (no timing; for setup and assertions) -------

    def poke(self, addr: int, data: bytes) -> None:
        """Write bytes with no timing — test/setup helper."""
        self.address_map.write(addr, data)

    def peek(self, addr: int, length: int) -> bytes:
        """Read bytes with no timing — test/setup helper."""
        return self.address_map.read(addr, length)
