"""Tests for the NVMe SSD model: command formats, PRPs, rings, the device."""

import pytest

from repro.devices.nvme import (Completion, FlashStore, INTEL_750_400GB,
                                NvmeCommand, NvmeSsd, OP_FLUSH, OP_READ,
                                OP_WRITE, QueuePair, prp_pages)
from repro.devices.nvme.commands import (LBA_SIZE, prp_fields,
                                         unpack_prp_list)
from repro.errors import DeviceError, ProtocolError
from repro.schemes import Testbed
from repro.units import KIB, MIB, PAGE, usec

from tests.conftest import SSD_BAR

SQ_ADDR = 0x10_0000      # rings live in host DRAM for these tests
CQ_ADDR = 0x11_0000
DATA_ADDR = 0x20_0000
PRP_LIST_ADDR = 0x12_0000
DEPTH = 64


class TestCommandFormats:
    def test_sqe_roundtrip(self):
        cmd = NvmeCommand(opcode=OP_READ, cid=7, nsid=1, prp1=0x1000,
                          prp2=0x2000, slba=123, nlb=15)
        raw = cmd.pack()
        assert len(raw) == 64
        assert NvmeCommand.unpack(raw) == cmd

    def test_cqe_roundtrip(self):
        cqe = Completion(cid=3, sq_head=10, status=0, phase=1, sq_id=1)
        raw = cqe.pack()
        assert len(raw) == 16
        parsed = Completion.unpack(raw)
        assert parsed.cid == 3
        assert parsed.phase == 1
        assert parsed.ok

    def test_cqe_status_and_phase_packing(self):
        cqe = Completion(cid=1, sq_head=0, status=2, phase=0)
        parsed = Completion.unpack(cqe.pack())
        assert parsed.status == 2
        assert parsed.phase == 0
        assert not parsed.ok

    def test_byte_length_is_one_based(self):
        cmd = NvmeCommand(opcode=OP_READ, cid=0, nsid=1, prp1=0, prp2=0,
                          slba=0, nlb=0)
        assert cmd.byte_length == LBA_SIZE

    def test_bad_sqe_size_rejected(self):
        with pytest.raises(ProtocolError):
            NvmeCommand.unpack(b"\x00" * 63)


class TestPrp:
    def test_single_page(self):
        assert prp_pages(0x1000, 4096) == [0x1000]

    def test_offset_first_page(self):
        pages = prp_pages(0x1800, 4096)
        assert pages == [0x1800, 0x2000]

    def test_multi_page(self):
        pages = prp_pages(0x1000, 16 * KIB)
        assert pages == [0x1000, 0x2000, 0x3000, 0x4000]

    def test_prp_fields_one_two_many(self):
        p1, p2, blob = prp_fields([0xA000])
        assert (p1, p2, blob) == (0xA000, 0, b"")
        p1, p2, blob = prp_fields([0xA000, 0xB000])
        assert (p1, p2, blob) == (0xA000, 0xB000, b"")
        p1, p2, blob = prp_fields([0xA000, 0xB000, 0xC000])
        assert p1 == 0xA000 and p2 == 0
        assert unpack_prp_list(blob) == [0xB000, 0xC000]

    def test_zero_length_rejected(self):
        with pytest.raises(ProtocolError):
            prp_pages(0x1000, 0)


@pytest.fixture
def ssd(sim, fabric):
    return NvmeSsd(sim, fabric, "ssd", bar_base=SSD_BAR)


def _submit(fabric, qp, command, initiator="host"):
    """Push one SQE and ring the doorbell (as a process)."""
    qp.push(command)
    return qp.ring_sq(initiator)


def _read_cmd(qp, slba, nbytes, buf_addr, fabric, prp_list_addr=PRP_LIST_ADDR):
    pages = prp_pages(buf_addr, nbytes)
    prp1, prp2, blob = prp_fields(pages)
    if blob:
        fabric.poke(prp_list_addr, blob)
        prp2 = prp_list_addr
    return NvmeCommand(opcode=OP_READ, cid=qp.allocate_cid(), nsid=1,
                       prp1=prp1, prp2=prp2, slba=slba,
                       nlb=nbytes // LBA_SIZE - 1)


def _wait_cqe(sim, qp, cid, poll_interval=200):
    """Process: poll the CQ ring until the next CQE lands, check that it
    completes ``cid``, acknowledge it (CQ head doorbell) and return it."""
    while (cqe := qp.poll_completion()) is None:
        yield sim.timeout(poll_interval)
    assert cqe.cid == cid
    yield from qp.ring_cq("host")
    return cqe


class TestNvmeSsd:
    def test_read_4k(self, sim, fabric, ssd):
        ssd.flash.write_blocks(5, b"\xab" * LBA_SIZE)
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            cmd = _read_cmd(qp, 5, LBA_SIZE, DATA_ADDR, fabric)
            yield from _submit(fabric, qp, cmd)
            cqe = yield from _wait_cqe(sim, qp, cmd.cid)
            return cqe

        cqe = sim.run(until=sim.process(body(sim)))
        assert cqe.ok
        assert fabric.peek(DATA_ADDR, LBA_SIZE) == b"\xab" * LBA_SIZE

    def test_read_latency_in_device_range(self, sim, fabric, ssd):
        """A 4 KiB read should land in the ~11-25 us envelope."""
        ssd.flash.write_blocks(0, bytes(LBA_SIZE))
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            cmd = _read_cmd(qp, 0, LBA_SIZE, DATA_ADDR, fabric)
            yield from _submit(fabric, qp, cmd)
            yield from _wait_cqe(sim, qp, cmd.cid)

        sim.run(until=sim.process(body(sim)))
        assert usec(11) < sim.now < usec(25)

    def test_write_then_read_roundtrip(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)
        payload = bytes(range(256)) * 16  # 4096 bytes
        fabric.poke(DATA_ADDR, payload)

        def body(sim):
            wcmd = NvmeCommand(opcode=OP_WRITE, cid=qp.allocate_cid(), nsid=1,
                               prp1=DATA_ADDR, prp2=0, slba=9, nlb=0)
            yield from _submit(fabric, qp, wcmd)
            yield from _wait_cqe(sim, qp, wcmd.cid)
            rcmd = _read_cmd(qp, 9, LBA_SIZE, DATA_ADDR + 64 * KIB, fabric)
            yield from _submit(fabric, qp, rcmd)
            yield from _wait_cqe(sim, qp, rcmd.cid)

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DATA_ADDR + 64 * KIB, LBA_SIZE) == payload
        assert ssd.flash.read_blocks(9, 1) == payload

    def test_commands_closed_holding_or_awaiting_a_channel_free_it(
            self, sim, fabric, ssd):
        """Close one command while it holds a flash channel and one
        parked behind the full set; the rest complete and every
        channel and the media pipe end free."""
        ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)
        state = ssd._queues[1]
        commands = [ssd._execute(state, NvmeCommand(
            opcode=OP_READ, cid=cid, nsid=1, prp1=DATA_ADDR + cid * PAGE,
            prp2=0, slba=cid, nlb=0))
            for cid in range(ssd.config.channels + 1)]
        for command in commands:
            sim.process(command)
        sim.run(until=1)
        channels = ssd._channels
        assert (channels.count, channels.queue_length) == (
            ssd.config.channels, 1)
        commands[0].close()
        commands[-1].close()
        assert (channels.count, channels.queue_length) == (
            ssd.config.channels - 1, 0)
        sim.run()
        assert state.completed == ssd.config.channels - 1
        assert (channels.count, channels.queue_length) == (0, 0)
        assert (ssd._media.count, ssd._media.queue_length) == (0, 0)

    def test_multi_page_read_uses_prp_list(self, sim, fabric, ssd):
        size = 32 * KIB
        pattern = bytes(range(256)) * (size // 256)
        ssd.flash.write_blocks(100, pattern)
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            cmd = _read_cmd(qp, 100, size, DATA_ADDR, fabric)
            assert cmd.prp2 == PRP_LIST_ADDR  # really took the list path
            yield from _submit(fabric, qp, cmd)
            yield from _wait_cqe(sim, qp, cmd.cid)

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DATA_ADDR, size) == pattern

    def test_flush_completes(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            cmd = NvmeCommand(opcode=OP_FLUSH, cid=qp.allocate_cid(), nsid=1,
                              prp1=0, prp2=0, slba=0, nlb=0)
            yield from _submit(fabric, qp, cmd)
            cqe = yield from _wait_cqe(sim, qp, cmd.cid)
            return cqe

        cqe = sim.run(until=sim.process(body(sim)))
        assert cqe.ok

    def test_invalid_opcode_fails_status(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            cmd = NvmeCommand(opcode=0x7F, cid=qp.allocate_cid(), nsid=1,
                              prp1=DATA_ADDR, prp2=0, slba=0, nlb=0)
            yield from _submit(fabric, qp, cmd)
            cqe = yield from _wait_cqe(sim, qp, cmd.cid)
            return cqe

        cqe = sim.run(until=sim.process(body(sim)))
        assert not cqe.ok

    def test_msi_on_interrupt_queue(self, sim, fabric, ssd):
        hits = []
        fabric.register_msi_handler("host", lambda src, vec: hits.append(vec))
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH, interrupt=True)
        ssd.flash.write_blocks(0, bytes(LBA_SIZE))

        def body(sim):
            cmd = _read_cmd(qp, 0, LBA_SIZE, DATA_ADDR, fabric)
            yield from _submit(fabric, qp, cmd)
            yield from _wait_cqe(sim, qp, cmd.cid)

        sim.run(until=sim.process(body(sim)))
        assert hits == [1]

    def test_queue_full_detected(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, depth=4)
        for _ in range(3):
            qp.push(NvmeCommand(opcode=OP_FLUSH, cid=qp.allocate_cid(),
                                nsid=1, prp1=0, prp2=0, slba=0, nlb=0))
        with pytest.raises(ProtocolError, match="full"):
            qp.push(NvmeCommand(opcode=OP_FLUSH, cid=qp.allocate_cid(),
                                nsid=1, prp1=0, prp2=0, slba=0, nlb=0))

    def test_duplicate_queue_rejected(self, sim, fabric, ssd):
        ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)
        with pytest.raises(DeviceError):
            ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

    def test_oversized_transfer_fails_status(self, sim, fabric, ssd):
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def body(sim):
            nlb = (INTEL_750_400GB.max_transfer // LBA_SIZE) + 1
            cmd = NvmeCommand(opcode=OP_READ, cid=qp.allocate_cid(), nsid=1,
                              prp1=DATA_ADDR, prp2=0, slba=0, nlb=nlb)
            yield from _submit(fabric, qp, cmd)
            cqe = yield from _wait_cqe(sim, qp, cmd.cid)
            return cqe

        cqe = sim.run(until=sim.process(body(sim)))
        assert not cqe.ok

    def test_pipelined_commands_overlap(self, sim, fabric, ssd):
        """Two queued reads should take less than 2x one read."""
        ssd.flash.write_blocks(0, bytes(2 * LBA_SIZE))
        qp = ssd.create_io_queue(1, SQ_ADDR, CQ_ADDR, DEPTH)

        def one(sim, fabric, ssd):
            q = ssd.create_io_queue(2, SQ_ADDR + 0x8000, CQ_ADDR + 0x8000,
                                    DEPTH)
            cmd = _read_cmd(q, 0, LBA_SIZE, DATA_ADDR, fabric)
            yield from _submit(fabric, q, cmd)
            yield from _wait_cqe(sim, q, cmd.cid)
            return sim.now

        single = sim.process(one(sim, fabric, ssd))
        single_time = sim.run(until=single)

        def two(sim, fabric, ssd, qp):
            c1 = _read_cmd(qp, 0, LBA_SIZE, DATA_ADDR, fabric)
            c2 = _read_cmd(qp, 1, LBA_SIZE, DATA_ADDR + PAGE, fabric,
                           prp_list_addr=PRP_LIST_ADDR + PAGE)
            start = sim.now
            qp.push(c1)
            qp.push(c2)
            yield from qp.ring_sq("host")
            yield from _wait_cqe(sim, qp, c1.cid)
            yield from _wait_cqe(sim, qp, c2.cid)
            return sim.now - start

        pair_time = sim.run(until=sim.process(two(sim, fabric, ssd, qp)))
        assert pair_time < 2 * single_time


class TestFlashStore:
    def test_out_of_range_rejected(self):
        store = FlashStore(capacity_bytes=16 * LBA_SIZE)
        with pytest.raises(DeviceError):
            store.read_blocks(15, 2)
        with pytest.raises(DeviceError):
            store.read_blocks(-1, 1)

    def test_unaligned_write_rejected(self):
        store = FlashStore(capacity_bytes=16 * LBA_SIZE)
        with pytest.raises(DeviceError):
            store.write_blocks(0, b"tiny")

    def test_sparse_capacity(self):
        store = FlashStore(capacity_bytes=1024 * MIB)
        store.write_blocks(1000, b"\x01" * LBA_SIZE)
        assert store.read_blocks(1000, 1) == b"\x01" * LBA_SIZE
        assert store.read_blocks(0, 1) == bytes(LBA_SIZE)


class TestNvmeClientAdmission:
    """SQ admission in the shared submitter-side client."""

    @staticmethod
    def _admit(client):
        """Run ``client.admit()`` up to its first yield: the cid if it
        admitted at once, else the gate it parked on."""
        process = client.admit()
        try:
            return None, next(process), process
        except StopIteration as done:
            return done.value, None, process

    def test_free_slot_admits_without_a_yield_or_an_event(self):
        tb = Testbed(seed=40, with_dcs=False, with_gpu=False)
        client = tb.node0.host.nvme_driver.client
        first_eid = tb.sim.event().eid
        cid, gate, _ = self._admit(client)
        assert gate is None and cid is not None
        assert tb.sim.event().eid == first_eid + 1   # no event created

    def test_full_sq_parks_until_a_completion_hands_over_its_slot(self):
        tb = Testbed(seed=41, with_dcs=False, with_gpu=False)
        client = tb.node0.host.nvme_driver.client
        cids = [self._admit(client)[0] for _ in range(client.qp.depth - 1)]
        assert None not in cids
        cid, gate, parked = self._admit(client)
        assert cid is None and not gate.triggered
        waiter = client.waiters[cids[0]] = tb.sim.event()
        cqe = Completion(cid=cids[0], sq_head=0, status=0, phase=1)
        tb.sim.run(until=tb.sim.process(client.complete(cqe, tb.sim.now)))
        assert waiter.triggered and gate.triggered
        with pytest.raises(StopIteration) as done:
            parked.send(None)
        assert done.value.value == cids[-1] + 1
        # A stale CQE (no waiter left) frees nothing and is counted.
        tb.sim.run(until=tb.sim.process(client.complete(cqe, tb.sim.now)))
        assert client.stale_completions == 1
        assert self._admit(client)[1] is not None   # still full
