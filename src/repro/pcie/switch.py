"""The switched PCIe fabric: ports, routing, timed+functional DMA.

:class:`Fabric` is the one object every device model talks to.  It owns
the :class:`~repro.pcie.address.AddressMap` and one
:class:`~repro.pcie.link.PcieLink` per port, and exposes generator
methods (to be driven with ``yield from`` inside simulation processes):

* :meth:`dma_write` / :meth:`dma_read` — bulk data, routed by target
  address.  Peer-to-peer transfers (initiator and owner both devices)
  never touch the host port — this is the data-path property the whole
  paper builds on.
* :meth:`mmio_write` — small posted register writes (doorbells); they
  trigger a region's MMIO hook.
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
    """What a DMA of one kind from one port to another needs, decoded once.

    ``src``/``dst`` are the sending and receiving ports: initiator and
    owner for a write, owner and initiator for a read.
    ``first``/``second`` are the sending port's TX and the receiving
    port's RX in the fabric's one global acquire order: by port (= link)
    name, and on equal names rx before tx.  Transfers contending for
    overlapping direction pairs therefore never hold-and-wait in a
    cycle (no deadlock).  The order must not depend on object identity:
    ``id()`` varies between runs in one process and would break trace
    determinism.

    The trace strings of the route's spans are built here, once, and
    :meth:`plan` caches one hold plan per transfer length.
    """

    __slots__ = ("src", "dst", "tx", "rx", "first", "second", "first_link",
                 "second_link", "host", "kind", "delay", "span_track",
                 "span_name", "tlp_track", "label", "plans")

    def __init__(self, initiator: _Port, owner: _Port, write: bool):
        if write:
            src, dst = initiator, owner
            self.kind, arrow = "dma.write", "->"
            self.delay = 2 * HOP_FORWARD_NS
        else:
            src, dst = owner, initiator
            self.kind, arrow = "dma.read", "<-"
            self.delay = READ_REQUEST_NS + 2 * HOP_FORWARD_NS
        self.src, self.dst = src, dst
        self.tx, self.rx = src.link.tx, dst.link.rx
        if dst.name <= src.name:
            self.first, self.second = self.rx, self.tx
            self.first_link, self.second_link = dst.link, src.link
        else:
            self.first, self.second = self.tx, self.rx
            self.first_link, self.second_link = src.link, dst.link
        self.host = "host" in (src.name, dst.name)
        self.span_track = f"pcie:{initiator.name}"
        self.span_name = f"{self.kind} {arrow} {owner.name}"
        self.tlp_track = f"link:{src.name}"
        self.label = f"{src.name}->{dst.name}"
        self.plans: Dict[int, tuple] = {}

    def plan(self, length: int) -> tuple:
        """How a ``length``-byte transfer holds the two directions:
        ``(early, late, early_ns, gap_ns, tlp_name)``.

        Each direction is held for its own serialization time, so the
        one that finishes first (``early``, after ``early_ns``) is
        released ``gap_ns`` before the other.  On equal times the
        first-taken direction is released first and the second follows
        in the same step.
        """
        first_ns = self.first_link.serialization(length)
        second_ns = self.second_link.serialization(length)
        tlp_name = f"{self.label} {length}B"
        if second_ns < first_ns:
            plan = (self.second, self.first, second_ns,
                    first_ns - second_ns, tlp_name)
        else:
            plan = (self.first, self.second, first_ns,
                    second_ns - first_ns, tlp_name)
        self.plans[length] = plan
        return plan


class Fabric:
    """A single-switch PCIe fabric with address-routed DMA."""

    def __init__(self, sim: Simulator, name: str = "fabric"):
        self.sim = sim
        self.name = name
        self.address_map = AddressMap()
        self._ports: Dict[str, _Port] = {}
        self._routes: Dict[Tuple[str, str, bool], _Route] = {}
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
        per traversal, before either direction is taken.  The hold
        times come from the route's plan for ``length``; a transfer
        closed or thrown into mid-hold gives back what it holds.
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
        key = (initiator, owner, write)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = _Route(
                self._port(initiator), self._port(owner), write)
        plan = route.plans.get(length)
        if plan is None:
            plan = route.plan(length)
        early, late, early_ns, gap_ns, tlp_name = plan
        sim = self.sim
        tracer = sim.tracer
        span = None if tracer is None else tracer.begin(
            route.kind, track=route.span_track, name=route.span_name,
            initiator=initiator, target=owner, addr=addr, size=length)
        yield sim.timeout(route.delay + region.access_latency)
        src, dst = route.src, route.dst
        tlp = None if tracer is None else tracer.begin(
            "tlp.send", track=route.tlp_track, name=tlp_name,
            src=src.name, dst=dst.name, size=length)
        faults = sim.faults
        if (faults is not None and "pcie.timeout" in faults.armed_sites
                and faults.fires("pcie.timeout", src=src.name,
                                 dst=dst.name, size=length)):
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
        # Directions held, in acquire order; 3: only ``late`` is left.
        held = 0
        try:
            if first.busy:
                yield from first.wait()
            else:
                first.busy = 1
            held = 1
            if second.busy:
                yield from second.wait()
            else:
                second.busy = 1
            held = 2
            yield sim.timeout(early_ns)
            held = 3
            if early.parked:
                early.release()
            else:
                early.busy -= 1
            if tx_meter is not None:
                early.inflight.dec(length)
            if gap_ns:
                yield sim.timeout(gap_ns)
        except BaseException:
            # Interrupted (closed, or an exception thrown in): give back
            # what this transfer holds and take its bytes out of the
            # gauges.  A direction handed over while parked was passed
            # on by Lanes.wait() already.
            if held == 3:
                late.release()
                if tx_meter is not None:
                    late.inflight.dec(length)
            else:
                if held:
                    first.release()
                if held == 2:
                    second.release()
                if tx_meter is not None:
                    tx_meter.dec(length)
                    route.rx.inflight.dec(length)
            raise
        if late.parked:
            late.release()
        else:
            late.busy -= 1
        if tx_meter is not None:
            late.inflight.dec(length)
        if tlp is not None:
            tlp.end()
        if write:
            region.write(addr, data)
        else:
            data = region.read(addr, length)
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
