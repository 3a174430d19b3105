"""Deterministic fault injection and end-to-end recovery.

Every scenario here installs a :class:`FaultPlan` on a fresh testbed,
breaks something mid-chain, and asserts the stack recovers the way a
real driver would: transient errors retried to success, permanent
errors surfaced after a bounded budget, lost completions caught by
watchdogs, failed chains aborted without leaking engine resources —
and all of it byte-reproducible for a given seed.
"""

import pytest

from repro.core.command import D2DKind, D2DStatus
from repro.errors import ConfigurationError, DeviceError
from repro.faults import (FAULT_SITES, FaultPlan, FaultRule, RetryPolicy,
                          active_faults, watchdog)
from repro.schemes import DcsCtrlScheme, SwOptScheme, Testbed
from repro.trace import TraceSession, jsonl_lines
from repro.units import KIB, SEC, usec
from tests.test_schemes import run_send


def _plan(*rules):
    return FaultPlan(rules)


def _run_d2d(tb, kind, src, dst, length):
    driver = tb.node0.driver

    def body(sim):
        yield from driver.submit(kind, src=src, dst=dst, length=length)

    proc = tb.sim.process(body(tb.sim))
    tb.sim.run()
    return proc


class TestFaultPlan:
    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault site"):
            FaultRule("flash.write", probability=0.5)  # simlint: disable=PLANE003

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError, match="probability"):
            FaultRule("flash.read", probability=1.5)

    def test_zero_rate_plan_is_not_armed(self):
        tb = Testbed(seed=11, faults=_plan(
            FaultRule("flash.read", probability=0.0)))
        assert tb.sim.faults is not None
        assert not tb.sim.faults.armed
        assert active_faults(tb.sim) is None

    def test_no_plan_means_no_faults(self):
        tb = Testbed(seed=11)
        assert tb.sim.faults is None
        assert active_faults(tb.sim) is None

    def test_occurrence_rule_fires_exactly_there(self):
        tb = Testbed(seed=11, faults=_plan(
            FaultRule("flash.read", occurrences={2})))
        faults = tb.sim.faults
        hits = [faults.fires("flash.read", key=i) for i in range(1, 5)]
        assert hits == [False, True, False, False]

    def test_permanent_rule_sticks_to_its_key(self):
        tb = Testbed(seed=11, faults=_plan(
            FaultRule("flash.read", occurrences={1}, permanent=True)))
        faults = tb.sim.faults
        assert faults.fires("flash.read", key="lba7")
        assert faults.fires("flash.read", key="lba7")      # sticky
        assert not faults.fires("flash.read", key="lba9")  # other key fine

    @pytest.mark.parametrize("site", ["nvme.cqe_drop", "nic.wire_drop",
                                      "pcie.timeout"])
    def test_permanent_rule_on_a_keyless_site_is_rejected(self, site):
        # These sites call fires() without a key: a sticky rule there
        # would silently behave as a transient one.
        with pytest.raises(ConfigurationError, match="without a key"):
            FaultPlan([FaultRule(site, occurrences={1}, permanent=True)])
        FaultPlan([FaultRule(site, occurrences={1})])

    def test_max_fires_caps_a_probability_rule(self):
        tb = Testbed(seed=11, faults=_plan(
            FaultRule("flash.read", probability=1.0, max_fires=2)))
        faults = tb.sim.faults
        hits = [faults.fires("flash.read") for _ in range(5)]
        assert hits == [True, True, False, False, False]


class TestUnarmedSites:
    def test_armed_sites_are_the_sites_with_a_rule(self):
        tb = Testbed(seed=11, faults=_plan(
            FaultRule("flash.read", probability=0.0),
            FaultRule("pcie.timeout", occurrences={9})))
        assert tb.sim.faults.armed_sites == {"flash.read", "pcie.timeout"}

    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_only_the_armed_site_reaches_fires(self, site):
        """A send touches all four sites; with one armed, every
        ``fires`` call names it and each counts as an occurrence."""
        tb = Testbed(seed=11, faults=_plan(FaultRule(site, probability=0.0)))
        faults = tb.sim.faults
        seen = []
        evaluate = faults.fires

        def spy(name, key=None, **detail):
            seen.append(name)
            return evaluate(name, key, **detail)

        faults.fires = spy
        data = bytes(range(256)) * 16
        result = run_send(tb, SwOptScheme(tb), data, "armed.dat")
        assert result.received == data
        assert seen and set(seen) == {site}
        assert faults.occurrences(site) == len(seen)


class TestWatchdog:
    def test_watchdog_fails_a_pending_event(self):
        tb = Testbed(seed=12)
        event = tb.sim.event()
        watchdog(tb.sim, event, usec(5), "unit test")

        def waiter(sim):
            yield event

        proc = tb.sim.process(waiter(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="no completion within"):
            _ = proc.value

    def test_watchdog_is_harmless_once_event_succeeds(self):
        tb = Testbed(seed=12)
        event = tb.sim.event()
        watchdog(tb.sim, event, usec(5), "unit test")
        event.succeed("fine")

        def waiter(sim):
            value = yield event
            return value

        proc = tb.sim.process(waiter(tb.sim))
        tb.sim.run()
        assert proc.ok and proc.value == "fine"

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(deadline_ns=usec(100), retries=3,
                             backoff_ns=usec(10), backoff_factor=2)
        assert [policy.backoff(n) for n in (1, 2, 3)] == [
            usec(10), usec(20), usec(40)]
        assert policy.deadline_for(0) == usec(100)


class TestTransientRecovery:
    def test_transient_flash_error_retried_to_success(self):
        """One media error on the engine path: the engine's NVMe
        controller re-issues the command and the D2D completes."""
        clean = Testbed(seed=21)
        buf = clean.node0.host.alloc_buffer(4 * KIB)
        start = clean.sim.now
        assert _run_d2d(clean, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB).ok
        clean_span = clean.sim.now - start

        tb = Testbed(seed=21, faults=_plan(
            FaultRule("flash.read", occurrences={1})))
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        ctrl = tb.node0.engine.nvme_ctrl
        start = tb.sim.now
        proc = _run_d2d(tb, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB)
        faulty_span = tb.sim.now - start
        assert proc.ok
        assert ctrl.client.retries == 1
        # The recovered request pays at least the first backoff on top
        # of a full extra device round trip.
        assert faulty_span >= clean_span + ctrl.client.policy.backoff(1)
        tb.assert_no_leaks()

    def test_permanent_flash_error_exhausts_retries(self):
        tb = Testbed(seed=22, faults=_plan(
            FaultRule("flash.read", occurrences={1}, permanent=True)))
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        ctrl = tb.node0.engine.nvme_ctrl
        proc = _run_d2d(tb, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB)
        assert not proc.ok
        with pytest.raises(DeviceError,
                           match="failed with status DEVICE_ERROR"):
            _ = proc.value
        assert ctrl.client.retries == ctrl.client.policy.retries
        assert tb.node0.engine.tasks_failed == 1
        tb.assert_no_leaks()

    def test_transient_error_recovers_on_host_path_too(self):
        tb = Testbed(seed=23, faults=_plan(
            FaultRule("flash.read", occurrences={1})))
        host = tb.node0.host
        buf = host.alloc_buffer(4 * KIB)

        def body(sim):
            yield from host.nvme_driver.read(0, 4 * KIB, buf)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert proc.ok
        assert host.nvme_driver.client.retries == 1
        tb.assert_no_leaks()


class TestLostCompletions:
    def test_dropped_cqe_hits_engine_watchdog(self):
        """The SSD executes the command but the CQE never lands: the
        engine controller's deadline expires and the re-issued command
        completes the D2D."""
        tb = Testbed(seed=24, faults=_plan(
            FaultRule("nvme.cqe_drop", occurrences={1})))
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        ctrl = tb.node0.engine.nvme_ctrl
        proc = _run_d2d(tb, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB)
        assert proc.ok
        assert tb.node0.host.ssd.cqes_dropped == 1
        assert ctrl.client.retries == 1
        tb.assert_no_leaks()

    def test_dropped_cqe_hits_host_watchdog(self):
        tb = Testbed(seed=25, faults=_plan(
            FaultRule("nvme.cqe_drop", occurrences={1})))
        host = tb.node0.host
        buf = host.alloc_buffer(4 * KIB)

        def body(sim):
            yield from host.nvme_driver.read(0, 4 * KIB, buf)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert proc.ok
        assert host.ssd.cqes_dropped == 1
        assert host.nvme_driver.client.retries == 1
        tb.assert_no_leaks()

    def test_no_injected_scenario_hangs_the_run(self):
        """A run whose every flash read dies still drains: deadlines,
        not deadlock."""
        tb = Testbed(seed=26, faults=_plan(
            FaultRule("flash.read", probability=1.0)))
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        proc = _run_d2d(tb, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB)
        assert proc.triggered and not proc.ok
        tb.assert_no_leaks()


class TestLostCompletionWrite:
    """``pcie.timeout`` on a completion ring's slot write.  The producer
    takes the slot back, so the next completion fills it and the
    consumer's in-order reap goes on.  The tail used to move past the
    empty slot, and every later request on the queue timed out."""

    SIZE = 16 * KIB
    LATER = 5

    def _requests(self, scheme_cls, occurrence):
        """A warm-up send, then the plan, then ``1 + LATER`` sends of
        ``SIZE``; returns the testbed and each send's process."""
        tb = Testbed(seed=1)
        scheme = scheme_cls(tb)
        data = bytes(range(256)) * (self.SIZE // 256)
        procs = []
        for index in range(2 + self.LATER):
            if index == 1:
                _plan(FaultRule("pcie.timeout", occurrences={occurrence})
                      ).install(tb.sim, tb.rng)
            name = f"req-{index}.dat"
            tb.node0.host.install_file(name, data)
            conn = scheme.connect()
            procs.append(tb.sim.process(scheme.send_file(
                tb.node0, conn, name, 0, self.SIZE)))
            if not conn.offloaded:
                tb.sim.spawn(scheme.client_recv(tb.node1, conn, self.SIZE))
            tb.sim.run()
        assert tb.sim.faults.injected == 1
        return tb, procs[1:]

    def test_lost_cqe_write_to_the_host_driver(self):
        """sw-opt: occurrence 4 is the SSD's CQE write into the host
        NVMe driver's completion queue.  The driver's deadline re-issues
        the command, so even the faulted send succeeds."""
        tb, procs = self._requests(SwOptScheme, 4)
        assert tb.node0.host.ssd.cqes_dropped == 1
        assert all(proc.ok for proc in procs)
        tb.assert_no_leaks()

    @pytest.mark.parametrize("occurrence, ring", [
        (4, "engine NVMe completion queue"),
        (11, "host D2D completion ring")])
    def test_lost_completion_write_on_the_engine_path(self, occurrence, ring):
        """dcs-ctrl: occurrence 4 is the SSD's CQE write into the
        engine's BRAM completion queue, which the engine controller's
        deadline recovers; occurrence 11 is the engine's D2D
        completion write into host DRAM, whose command the driver's
        watchdog reports as failed."""
        tb, procs = self._requests(DcsCtrlScheme, occurrence)
        node = tb.node0
        if occurrence == 4:
            assert node.host.ssd.cqes_dropped == 1
            assert procs[0].ok
        else:
            assert node.engine.host_interface.interrupts_lost == 1
            assert not procs[0].ok
        assert all(proc.ok for proc in procs[1:]), ring
        tb.assert_no_leaks()


class TestAbortAndCleanup:
    def test_wire_loss_aborts_receive_chain_cleanly(self):
        """A frame lost mid-stream on an offloaded SSD->NIC->SSD pipe:
        the receiver's gather deadline expires, its chain aborts with
        TIMEOUT, and every engine resource comes back."""
        tb = Testbed(seed=27, faults=_plan(
            FaultRule("nic.wire_drop", occurrences={3})))
        conn = tb.connect_offloaded()
        length = 16 * KIB

        def send(sim):
            yield from tb.node0.driver.submit(
                D2DKind.SSD_TO_NIC, src=0,
                dst=tb.node0.driver.flow_id(conn.flow0), length=length)

        def recv(sim):
            yield from tb.node1.driver.submit(
                D2DKind.NIC_TO_SSD,
                src=tb.node1.driver.flow_id(conn.flow1), dst=4096,
                length=length)

        send_proc = tb.sim.process(send(tb.sim))
        recv_proc = tb.sim.process(recv(tb.sim))
        tb.sim.run()
        assert tb.node0.host.nic.frames_lost == 1
        assert send_proc.ok          # the sender never learns of the loss
        assert not recv_proc.ok
        with pytest.raises(DeviceError, match="TIMEOUT"):
            _ = recv_proc.value
        # Frames after the gap were discarded, not mis-assembled.
        assert tb.node1.engine.nic_ctrl.frames_discarded >= 1
        assert tb.node1.engine.tasks_failed == 1
        tb.assert_no_leaks()

    def test_bad_command_frees_nothing_and_reports_bad_command(self):
        """A command naming a volume the engine doesn't have is
        rejected before any buffer allocation."""
        tb = Testbed(seed=28)
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        driver = tb.node0.driver

        def body(sim):
            yield from driver.submit(D2DKind.SSD_TO_HOST, src=0, dst=buf,
                                     length=4 * KIB, aux=7)

        proc = tb.sim.process(body(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="BAD_COMMAND"):
            _ = proc.value
        tb.assert_no_leaks()

    def test_scoreboard_abort_cancels_unissued_entries(self):
        tb = Testbed(seed=29)
        engine = tb.node0.engine
        buf = tb.node0.host.alloc_buffer(64 * KIB)
        driver = tb.node0.driver

        def body(sim):
            yield from driver.submit(D2DKind.SSD_TO_HOST, src=0, dst=buf,
                                     length=64 * KIB)

        proc = tb.sim.process(body(tb.sim))
        # Abort as soon as the task is admitted.

        def aborter(sim):
            while not engine.scoreboard.abort(1, "test abort"):
                yield sim.timeout(100)

        tb.sim.process(aborter(tb.sim))
        tb.sim.run()
        assert not proc.ok
        with pytest.raises(DeviceError, match="ABORTED"):
            _ = proc.value
        assert engine.tasks_failed == 1
        tb.assert_no_leaks()

    @pytest.mark.parametrize("path", ["host", "engine"])
    def test_leak_check_reports_in_flight_nvme_cids(self, path):
        tb = Testbed(seed=30)
        buf = tb.node0.host.alloc_buffer(4 * KIB)
        if path == "host":
            client = tb.node0.host.nvme_driver.client
            tb.sim.process(tb.node0.host.nvme_driver.read(0, 4 * KIB, buf))
        else:
            client = tb.node0.engine.nvme_ctrl.client
            tb.sim.process(tb.node0.driver.submit(
                D2DKind.SSD_TO_HOST, src=0, dst=buf, length=4 * KIB))
        while not client.waiters:
            tb.sim.step()
        with pytest.raises(AssertionError,
                           match=rf"{path} NVMe still waits on cids \[\d+\]"):
            tb.assert_no_leaks()
        tb.sim.run()
        tb.assert_no_leaks()


class TestNicReceiveUnderLinkFaults:
    """``pcie.timeout`` on the NIC's receive path.  A lost descriptor
    fetch or completion write is done again; a frame whose buffer DMA
    is lost still completes its descriptor, in ring order, with zero
    lengths, so the owner recycles the buffer and delivers nothing."""

    @staticmethod
    def _transfer(tb, scheme, size):
        """A kernel-path client transfer node0 -> node1; the receiver."""
        conn = scheme.connect()
        tb.sim.process(scheme.client_send(tb.node0, conn, size))
        recv = tb.sim.process(scheme.client_recv(tb.node1, conn, size))
        tb.sim.run(until=recv)
        return recv

    def test_timed_out_rx_descriptor_fetch_is_fetched_again(self):
        tb = Testbed(seed=3, faults=_plan(
            FaultRule("pcie.timeout", occurrences={3})))
        scheme = SwOptScheme(tb)
        size = 16 * KIB
        tb.node0.host.install_file("f.dat", bytes(range(256)) * (size // 256))
        conn = scheme.connect()
        tb.sim.process(scheme.send_file(tb.node0, conn, "f.dat", 0, size))
        recv = tb.sim.process(scheme.client_recv(tb.node1, conn, size))
        # Used to deadlock: the fetch process died and nothing fetched
        # the NIC's receive descriptors again.
        assert tb.sim.run(until=recv) == size
        assert tb.sim.faults.injected == 1
        assert self._transfer(tb, scheme, 4 * KIB).ok
        tb.assert_no_leaks()

    def test_lost_rx_completion_write_is_written_again(self):
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        self._transfer(tb, scheme, 4 * KIB)
        tb.sim.run()
        # Occurrence 6 is the completion write of the first frame.
        plan = _plan(FaultRule("pcie.timeout", occurrences={6})
                     ).install(tb.sim, tb.rng)
        assert self._transfer(tb, scheme, 4 * KIB).ok
        tb.sim.run()
        assert plan.injected == 1
        driver = tb.node1.host.nic_driver
        assert len(driver.client.posted) == driver.RING_DEPTH - 1
        assert tb.node1.host.nic.frames_dropped == 0

    def test_dropped_frame_completes_its_descriptor_in_order(self):
        """Occurrence 7 times out the NIC->engine header DMA of the
        first frame of a receive while frames 2-3 complete.  Putting
        its descriptor back at the front of the queue used to let the
        engine repost a ring slot the NIC still held."""
        tb = Testbed(seed=3)
        scheme = DcsCtrlScheme(tb)
        size = 4 * KIB
        tb.node0.host.install_file("out.dat", bytes(range(256)) * 16)
        tb.node0.host.install_file("in.dat", bytes(size))
        conn = scheme.connect()
        tb.sim.process(scheme.send_file(tb.node0, conn, "out.dat", 0, size))
        tb.sim.run(until=tb.sim.process(
            scheme.client_recv(tb.node1, conn, size)))
        tb.sim.run()
        plan = _plan(FaultRule("pcie.timeout", occurrences={7})
                     ).install(tb.sim, tb.rng)
        recv = tb.sim.process(scheme.receive_to_file(tb.node0, conn,
                                                     "in.dat", 0, size))
        tb.sim.process(scheme.client_send(tb.node1, conn, size))
        tb.sim.run()
        assert plan.injected == 1
        assert tb.node0.host.nic.frames_dropped == 1
        # The lost frame is not retransmitted: the receive times out.
        with pytest.raises(DeviceError, match="TIMEOUT"):
            _ = recv.value
        tb.assert_no_leaks()

    @pytest.mark.parametrize("arm_when", ["descriptor fetch in flight",
                                          "first frame received"])
    def test_sustained_link_fault_ends_the_run(self, arm_when):
        """Every DMA from the arming point on times out.  The receive
        ring's retries are bounded, so the event queue drains instead of
        retrying the same fetch or completion write forever."""
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        self._transfer(tb, scheme, 4 * KIB)
        tb.sim.run()
        nic = tb.node1.host.nic
        rx = nic._rx_channels[0]
        received = nic.frames_received
        armed = {
            "descriptor fetch in flight": lambda: rx.fetch_busy,
            "first frame received": lambda: nic.frames_received > received,
        }[arm_when]
        plans = []

        def arm(sim):
            while not armed():
                yield sim.timeout(50)
            plans.append(_plan(FaultRule("pcie.timeout", probability=1.0)
                               ).install(sim, tb.rng))

        tb.sim.process(arm(tb.sim))
        conn = scheme.connect()
        tb.sim.process(scheme.client_send(tb.node0, conn, 16 * KIB))
        tb.sim.process(scheme.client_recv(tb.node1, conn, 16 * KIB))
        tb.sim.run(until=tb.sim.now + SEC)
        assert tb.sim.peek() is None
        assert plans and plans[0].injected > 0
        assert nic.frames_dropped > 0


class TestNicTransmitUnderLinkFaults:
    def test_lost_header_template_fetch_keeps_the_tx_channel_serving(self):
        """Occurrence 2 after a warm transfer times out the node0 NIC's
        fetch of an LSO header template.  The frame is not sent and the
        fault is counted; the fetch used to raise out of the TX loop,
        and every later send on node0 deadlocked."""
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        TestNicReceiveUnderLinkFaults._transfer(tb, scheme, 4 * KIB)
        tb.sim.run()
        plan = _plan(FaultRule("pcie.timeout", occurrences={2})
                     ).install(tb.sim, tb.rng)
        nic = tb.node0.host.nic
        sent = nic.frames_sent
        tb.sim.process(scheme.client_send(tb.node0, scheme.connect(),
                                          4 * KIB))
        tb.sim.run()
        assert plan.injected == 1
        assert nic.tx_faults == 1
        assert nic.frames_sent == sent
        recv = TestNicReceiveUnderLinkFaults._transfer(tb, scheme, 4 * KIB)
        assert recv.value == 4 * KIB
        assert nic.tx_faults == 1
        tb.sim.run()
        tb.assert_no_leaks()

    def test_lost_descriptor_fetch_returns_its_send_ring_slot(self):
        """Occurrence 1 after a warm transfer times out the node0 NIC's
        fetch of the send descriptor itself.  The descriptor is consumed
        with nothing sent and its status written, so the ring slot comes
        back; the loop used to skip it, leaving ``consumed`` one behind
        ``head`` and the send ring one slot short for good."""
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        TestNicReceiveUnderLinkFaults._transfer(tb, scheme, 4 * KIB)
        tb.sim.run()
        plan = _plan(FaultRule("pcie.timeout", occurrences={1})
                     ).install(tb.sim, tb.rng)
        nic = tb.node0.host.nic
        sent = nic.frames_sent
        tb.sim.process(scheme.client_send(tb.node0, scheme.connect(),
                                          4 * KIB))
        tb.sim.run()
        assert plan.injected == 1
        assert nic.tx_faults == 1
        assert nic.frames_sent == sent
        channel = nic._tx_channels[0]
        assert channel.consumed == channel.head == channel.tail
        ring = tb.node0.host.nic_driver.client.send_ring
        assert ring.slots_free() == ring.depth
        tb.assert_no_leaks()


class TestHostReceiveSequenceGap:
    def test_gap_discards_frames_and_later_connections_still_receive(self):
        """The first frame of an 8 KiB kernel-path send dies on the wire.
        The host discards the five frames after the gap, as the engine
        does; its receive path used to die on the first of them, and
        every later receive on the node deadlocked."""
        tb = Testbed(seed=3)
        scheme = SwOptScheme(tb)
        TestNicReceiveUnderLinkFaults._transfer(tb, scheme, 4 * KIB)
        tb.sim.run()
        plan = _plan(FaultRule("nic.wire_drop", occurrences={1})
                     ).install(tb.sim, tb.rng)
        tb.sim.process(scheme.client_send(tb.node0, scheme.connect(),
                                          8 * KIB))
        tb.sim.run()
        assert plan.injected == 1
        assert TestNicReceiveUnderLinkFaults._transfer(
            tb, scheme, 4 * KIB).ok
        assert tb.node1.host.kernel.frames_discarded == 5
        driver = tb.node1.host.nic_driver
        assert len(driver.client.posted) == driver.RING_DEPTH - 1
        tb.assert_no_leaks()


class TestStatusNames:
    def test_describe_known_and_unknown(self):
        assert D2DStatus.describe(0) == "OK(0)"
        assert D2DStatus.describe(4) == "TIMEOUT(4)"
        assert D2DStatus.describe(99) == "status 99"


class TestGoldenDeterminism:
    @staticmethod
    def _faulty_traced_run():
        with TraceSession(label="faulty") as session:
            tb = Testbed(seed=31, faults=_plan(
                FaultRule("flash.read", occurrences={1}),
                FaultRule("nvme.cqe_drop", occurrences={2})))
            buf = tb.node0.host.alloc_buffer(4 * KIB)
            _run_d2d(tb, D2DKind.SSD_TO_HOST, 0, buf, 4 * KIB)
        return "\n".join(jsonl_lines(session))

    def test_same_seed_faulty_runs_are_byte_identical(self):
        assert self._faulty_traced_run() == self._faulty_traced_run()

    def test_fault_events_present_in_trace(self):
        trace = self._faulty_traced_run()
        assert '"type":"fault.inject"' in trace
        assert '"type":"recover.retry"' in trace
        assert '"track":"faults"' in trace
