"""The two-node testbed every experiment runs on (paper Fig 10, Table V).

Each node is a full :class:`~repro.host.machine.Host` (Xeon-class CPU,
Intel-750-class NVMe SSD, BCM57711-class 10-GbE NIC, K20m-class GPU)
with a DCS-ctrl stack (HDC Engine + Driver + Library) installed on its
fabric.  The nodes share one Ethernet wire.

Connections come in two flavours:

* *kernel connections* — terminated by the host network stack (the
  software baselines);
* *offloaded connections* — terminated by the HDC Engines (DCS-ctrl);
  the NICs' flow-steering tables send their frames to the engine
  channel, so the host CPUs never see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.driver import HdcDriver
from repro.core.engine import HDCEngine
from repro.core.library import HdcLibrary
from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts
from repro.host.machine import Host
from repro.net.tcp import TcpEndpoint, TcpFlow
from repro.net.wire import Wire
from repro.sim.kernel import Simulator
from repro.sim.rng import RngHub
from repro.units import Rate, gbps


@dataclass
class Node:
    """One server of the testbed."""

    host: Host
    driver: Optional[HdcDriver] = None
    engine: Optional[HDCEngine] = None
    library: Optional[HdcLibrary] = None


@dataclass
class Connection:
    """An established TCP connection between the two nodes.

    ``flow0`` is node0's view, ``flow1`` node1's.  ``offloaded`` says
    who terminates it (engines or host kernels).
    """

    flow0: TcpFlow
    flow1: TcpFlow
    offloaded: bool


class Testbed:
    """Two DCS-ctrl-capable nodes on one wire.  ``seed`` only feeds the
    random streams of a ``faults`` plan."""

    __test__ = False  # not a pytest class, despite the name

    _ENDPOINTS = (
        TcpEndpoint(mac="02:00:00:00:00:01", ip="10.0.0.1", port=0),
        TcpEndpoint(mac="02:00:00:00:00:02", ip="10.0.0.2", port=0),
    )

    def __init__(self, seed: int = 0,
                 wire_rate: Optional[Rate] = None,
                 costs: SoftwareCosts = DEFAULT_COSTS,
                 with_dcs: bool = True, with_gpu: bool = True,
                 in_order_completion: bool = True,
                 nvme_rings_in_host: bool = False,
                 bulk_transfer: bool = True,
                 n_ssds: int = 1,
                 ndp_target_gbps: float = 10.0,
                 faults: Optional[FaultPlan] = None):
        self.sim = Simulator()
        self.rng = RngHub(seed)
        self.node0 = Node(Host(self.sim, "node0", costs=costs,
                               with_gpu=with_gpu, n_ssds=n_ssds))
        self.node1 = Node(Host(self.sim, "node1", costs=costs,
                               with_gpu=with_gpu, n_ssds=n_ssds))
        self.wire = Wire(self.sim,
                         rate=wire_rate if wire_rate is not None else gbps(10))
        arm0 = self.node0.host.connect_network(self.wire)
        arm1 = self.node1.host.connect_network(self.wire)
        if with_dcs:
            for node in (self.node0, self.node1):
                node.driver, node.engine = HdcDriver.install(
                    node.host, in_order_completion=in_order_completion,
                    nvme_rings_in_host=nvme_rings_in_host,
                    bulk_transfer=bulk_transfer,
                    ndp_target_gbps=ndp_target_gbps)
                node.library = HdcLibrary(node.driver)
                self.sim.run(until=self.sim.process(node.driver.start()))
        self.sim.run(until=arm0)
        self.sim.run(until=arm1)
        self._next_port = 40000
        # Install the fault plan only after bring-up: injected faults
        # target steady-state operation, not queue creation or ARP.
        # Both nodes share one Simulator, so one plan covers both sides.
        if faults is not None:
            faults.install(self.sim, self.rng)
        self._leak_baseline = self._leak_state()

    # -- leak accounting -------------------------------------------------------

    def _leak_state(self) -> dict:
        """Snapshot every conserved resource the nodes own."""
        state = {}
        for index, node in enumerate(self.nodes):
            state[f"node{index}.host_rx_posted"] = len(
                node.host.nic_driver.client.posted)
            if node.engine is None:
                continue
            state[f"node{index}.ddr_free_chunks"] = (
                node.engine.buffers.free_chunks)
            state[f"node{index}.engine_rx_posted"] = len(
                node.engine.nic_ctrl.client.posted)
        return state

    def assert_no_leaks(self) -> None:
        """Fail if buffers/slots did not return to their post-bring-up
        levels, or if engine/driver/NVMe bookkeeping still holds live work.

        Call after ``sim.run()`` has drained — including runs where D2D
        commands failed, timed out or were aborted.
        """
        problems = []
        current = self._leak_state()
        for key, baseline in self._leak_baseline.items():
            if current[key] != baseline:
                problems.append(
                    f"{key}: {current[key]} != baseline {baseline}")
        for index, node in enumerate(self.nodes):
            if node.engine is not None:
                scoreboard = node.engine.scoreboard
                if scoreboard._tasks:
                    problems.append(
                        f"node{index}: scoreboard still holds "
                        f"{len(scoreboard._tasks)} task(s)")
                busy = {dev: n for dev, n in scoreboard._busy.items() if n}
                if busy:
                    problems.append(
                        f"node{index}: controllers still busy: {busy}")
            if node.driver is not None and node.driver.commands.waiters:
                problems.append(
                    f"node{index}: driver still waits on D2D ids "
                    f"{sorted(node.driver.commands.waiters)}")
            for nvme in [*node.host.nvme_drivers,
                         *(node.engine.nvme_ctrls if node.engine else ())]:
                if nvme.client.waiters:
                    problems.append(
                        f"node{index}: {nvme.client.label} still waits on "
                        f"cids {sorted(nvme.client.waiters)}")
        if problems:
            raise AssertionError("resource leaks: " + "; ".join(problems))

    @property
    def nodes(self) -> tuple[Node, Node]:
        return (self.node0, self.node1)

    def node(self, index: int) -> Node:
        return self.nodes[index]

    # -- connections -----------------------------------------------------------

    def _make_flows(self) -> tuple[TcpFlow, TcpFlow]:
        port0 = self._next_port
        port1 = self._next_port + 1
        self._next_port += 2
        ep0 = TcpEndpoint(mac=self._ENDPOINTS[0].mac,
                          ip=self._ENDPOINTS[0].ip, port=port0)
        ep1 = TcpEndpoint(mac=self._ENDPOINTS[1].mac,
                          ip=self._ENDPOINTS[1].ip, port=port1)
        flow0 = TcpFlow(local=ep0, remote=ep1)
        return flow0, flow0.reverse()

    def connect_kernel(self) -> Connection:
        """A connection terminated by the host network stacks."""
        flow0, flow1 = self._make_flows()
        self.node0.host.kernel.register_flow(flow0)
        self.node1.host.kernel.register_flow(flow1)
        return Connection(flow0=flow0, flow1=flow1, offloaded=False)

    def connect_offloaded(self) -> Connection:
        """A connection whose data path is offloaded to the engines."""
        if self.node0.driver is None or self.node1.driver is None:
            raise ConfigurationError("testbed built without DCS-ctrl")
        flow0, flow1 = self._make_flows()
        self.node0.driver.register_flow(flow0)
        self.node1.driver.register_flow(flow1)
        return Connection(flow0=flow0, flow1=flow1, offloaded=True)

    # -- measurement helpers -------------------------------------------------------

    def reset_cpu_windows(self) -> None:
        """Start fresh CPU-utilization windows on both nodes."""
        self.node0.host.cpu.tracker.reset_window()
        self.node1.host.cpu.tracker.reset_window()
