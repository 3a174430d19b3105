"""Tests for the GPU model: copy engines, kernels, peer DMA into GPU memory."""

import hashlib
import zlib

import pytest

from repro.devices.gpu import Gpu, TESLA_K20M
from repro.errors import DeviceError
from repro.units import KIB, usec

from tests.conftest import GPU_BAR

SRC = 0x60_0000
DST = 0x61_0000


@pytest.fixture
def gpu(sim, fabric):
    return Gpu(sim, fabric, "gpu", bar_base=GPU_BAR)


class TestCopyEngine:
    def test_copy_in_out_roundtrip(self, sim, fabric, gpu):
        data = bytes(range(256)) * 16
        fabric.poke(SRC, data)

        def body(sim):
            yield from gpu.copy_in(SRC, 0, len(data))
            yield from gpu.copy_out(0, DST, len(data))

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DST, len(data)) == data

    def test_copies_take_time(self, sim, fabric, gpu):
        fabric.poke(SRC, bytes(64 * KIB))

        def body(sim):
            yield from gpu.copy_in(SRC, 0, 64 * KIB)

        sim.run(until=sim.process(body(sim)))
        assert sim.now > usec(5)

    def test_peer_can_dma_into_gpu_memory(self, sim, fabric, gpu):
        """GPUDirect-style: another port writes straight into GPU DRAM."""
        def body(sim):
            yield from fabric.dma_write("host", gpu.mem_addr(0x100),
                                        b"direct write")

        sim.run(until=sim.process(body(sim)))
        assert gpu.dram.read(gpu.mem_addr(0x100), 12) == b"direct write"

    def test_copies_closed_holding_or_awaiting_an_engine_free_it(
            self, sim, fabric, gpu):
        """Close one copy while it holds a copy engine and one parked
        behind both; the other copy lands, and the engines and the
        links it crossed end free."""
        data = bytes(range(256)) * 16
        fabric.poke(SRC, data)
        copies = [gpu.copy_in(SRC, index * len(data), len(data))
                  for index in range(TESLA_K20M.copy_engines + 1)]
        for copy in copies:
            sim.process(copy)
        sim.run(until=1)
        engines = gpu._copy_engines
        assert (engines.count, engines.queue_length) == (
            TESLA_K20M.copy_engines, 1)
        copies[0].close()
        copies[-1].close()
        sim.run()
        assert (engines.count, engines.queue_length) == (0, 0)
        assert gpu.dram.read(gpu.mem_addr(len(data)), len(data)) == data
        for port in ("host", "gpu"):
            link = fabric._port(port).link
            for direction in (link.tx, link.rx):
                assert (direction.count, direction.queue_length) == (0, 0)

    def test_bad_offset_rejected(self, gpu):
        with pytest.raises(DeviceError):
            gpu.mem_addr(TESLA_K20M.memory_bytes)


class TestKernels:
    def _run_kernel(self, sim, fabric, gpu, kernel, data):
        fabric.poke(SRC, data)

        def body(sim):
            yield from gpu.copy_in(SRC, 0, len(data))
            digest = yield from gpu.launch(kernel, 0, len(data),
                                           out_offset=1 * KIB * KIB)
            return digest

        return sim.run(until=sim.process(body(sim)))

    def test_md5_matches_hashlib(self, sim, fabric, gpu):
        data = b"gpu checksum input" * 100
        digest = self._run_kernel(sim, fabric, gpu, "md5", data)
        assert digest == hashlib.md5(data).digest()

    def test_crc32_matches_zlib(self, sim, fabric, gpu):
        data = b"hdfs block" * 500
        digest = self._run_kernel(sim, fabric, gpu, "crc32", data)
        assert int.from_bytes(digest, "big") == zlib.crc32(data)

    def test_digest_lands_in_gpu_memory(self, sim, fabric, gpu):
        data = b"x" * 4096
        fabric.poke(SRC, data)

        def body(sim):
            yield from gpu.copy_in(SRC, 0, len(data))
            yield from gpu.launch("md5", 0, len(data), out_offset=8192)
            yield from gpu.copy_out(8192, DST, 16)

        sim.run(until=sim.process(body(sim)))
        assert fabric.peek(DST, 16) == hashlib.md5(data).digest()

    def test_launch_overhead_dominates_small_input(self, sim, fabric, gpu):
        data = b"ab"
        fabric.poke(SRC, data)

        def body(sim):
            start = sim.now
            yield from gpu.launch("md5", 0, len(data), out_offset=4096)
            return sim.now - start

        elapsed = sim.run(until=sim.process(body(sim)))
        assert elapsed >= TESLA_K20M.launch_overhead

    def test_unknown_kernel_rejected(self, sim, fabric, gpu):
        def body(sim):
            yield from gpu.launch("bitcoin", 0, 16, out_offset=4096)

        proc = sim.process(body(sim))
        sim.run()
        assert not proc.ok

    def test_kernel_names_listed(self, gpu):
        assert "md5" in Gpu.kernel_names()
        assert "crc32" in Gpu.kernel_names()

    def test_kernels_serialize_on_exec_engine(self, sim, fabric, gpu):
        data = bytes(256 * KIB)
        fabric.poke(SRC, data)
        finish = []

        def one(sim, gpu):
            yield from gpu.launch("md5", 0, len(data), out_offset=0)
            finish.append(sim.now)

        def body(sim):
            yield from gpu.copy_in(SRC, 0, len(data))
            sim.process(one(sim, gpu))
            sim.process(one(sim, gpu))
            yield sim.timeout(0)

        sim.process(body(sim))
        sim.run()
        assert len(finish) == 2
        assert finish[1] >= 2 * (finish[0] - usec(50))  # second waited
