"""Tests for memory regions, page-on-write backing, DRAM timing, the
allocators and what a testbed holds."""

import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AddressError, AllocationError
from repro.memory import (ChunkAllocator, FPGA_DDR3, HOST_DDR4, MemoryRegion,
                          SparseBytes)
from repro.memory.allocator import Bump
from repro.schemes import ALL_SCHEMES, Testbed
from repro.units import GIB, KIB, MIB
from tests.test_schemes import run_send


class TestSparseBytes:
    def test_reads_zero_before_write(self):
        store = SparseBytes(1 * MIB)
        assert store.read(1000, 16) == bytes(16)

    def test_roundtrip(self):
        store = SparseBytes(1 * MIB)
        store.write(5000, b"hello world")
        assert store.read(5000, 11) == b"hello world"

    def test_write_across_page_boundary(self):
        store = SparseBytes(1 * MIB)
        data = bytes(range(200)) * 50  # 10000 bytes, spans pages
        store.write(4096 - 123, data)
        assert store.read(4096 - 123, len(data)) == data

    def test_out_of_bounds_rejected(self):
        store = SparseBytes(4096)
        with pytest.raises(AddressError):
            store.read(4090, 10)
        with pytest.raises(AddressError):
            store.write(4095, b"ab")

    def test_lazy_allocation(self):
        store = SparseBytes(1024 * MIB)
        assert store.resident_bytes == 0
        store.write(512 * MIB, b"x")
        assert store.resident_bytes == SparseBytes.PAGE

    @settings(max_examples=50, deadline=None)
    @given(offset=st.integers(min_value=0, max_value=60000),
           data=st.binary(min_size=1, max_size=5000))
    def test_roundtrip_property(self, offset, data):
        store = SparseBytes(64 * KIB + 5000)
        store.write(offset, data)
        assert store.read(offset, len(data)) == data


def _region(resident, size, base=0x1000, name="r", port="p"):
    """A region on the one page-on-write backing.  ``resident`` writes
    zeroes over it first, so every access finds its page already there
    (the dense case) instead of making it on the first write."""
    region = MemoryRegion(name, base=base, size=size, port=port)
    if resident:
        region.write(base, bytes(size))
    return region


# Parameter ids name how much of the region is resident before a test.
_RESIDENCY = pytest.mark.parametrize("resident", [True, False],
                                     ids=["dense", "sparse"])


class TestMemoryRegion:
    def test_functional_roundtrip(self):
        region = MemoryRegion("dram", base=0x1000, size=4096, port="host")
        region.write(0x1100, b"abc")
        assert region.read(0x1100, 3) == b"abc"

    def test_absolute_addressing(self):
        region = MemoryRegion("dram", base=0x1000, size=4096, port="host")
        with pytest.raises(AddressError):
            region.read(0x0, 4)  # below base

    def test_contains(self):
        region = MemoryRegion("r", base=100, size=50, port="p")
        assert region.contains(100)
        assert region.contains(149)
        assert not region.contains(150)
        assert region.contains(100, 50)
        assert not region.contains(100, 51)

    def test_access_bounds_at_both_edges(self):
        region = MemoryRegion("r", base=100, size=50, port="p")
        region.write(140, bytes(range(10)))     # ends exactly at the end
        assert region.read(100, 50)[40:] == bytes(range(10))
        assert region.read(150, 0) == b""        # zero-length at the end
        region.write(150, b"")
        for addr, length in ((141, 10), (150, 1), (99, 1), (99, 0)):
            with pytest.raises(AddressError, match="outside region r"):
                region.read(addr, length)
            with pytest.raises(AddressError, match="outside region r"):
                region.write(addr, bytes(length))

    @_RESIDENCY
    def test_read_returns_an_independent_bytes_copy(self, resident):
        region = _region(resident, size=16 * KIB)
        region.write(0x1ffe, b"abcd")           # crosses a 4 KiB page
        got = region.read(0x1ffe, 4)
        assert type(got) is bytes
        region.write(0x1ffe, b"WXYZ")
        assert got == b"abcd"
        assert region.read(0x1ffe, 4) == b"WXYZ"
        # Writes larger and smaller than the earlier read keep working:
        # no buffer export lingers on the backing store.
        region.write(0x1000, bytes(16 * KIB))
        assert region.read(0x1ffe, 4) == bytes(4)

    def test_mmio_write_hook_replaces_storage(self):
        region = MemoryRegion("regs", base=0, size=4096, port="dev")
        seen = []
        region.on_mmio_write = lambda off, data: seen.append((off, data))
        region.write(0x10, b"\x01\x00\x00\x00")
        assert seen == [(0x10, b"\x01\x00\x00\x00")]
        # Data was consumed by the hook, not stored.
        assert region.read(0x10, 4) == bytes(4)

    @_RESIDENCY
    def test_watchers_fire_after_overlapping_stores(self, resident):
        region = _region(resident, size=64 * KIB, name="ring", port="dev")
        seen = []
        region.watch(0x1100, 16,
                     lambda: seen.append(("cq", region.read(0x1100, 4))))
        region.watch(0x1200, 4, lambda: seen.append(("status", None)))
        region.write(0x10f0, bytes(16))         # ends just below: silent
        region.write(0x1110, b"next")           # starts just past: silent
        assert seen == []
        region.write(0x10fe, b"\xaa\xbb\xcc\xdd")   # straddles the start
        region.write(0x1100, b"cqe!" * 65)      # covers both ranges
        # Each watcher fires once per write, after the bytes landed.
        assert seen == [("cq", b"\xcc\xdd\x00\x00"), ("cq", b"cqe!"),
                        ("status", None)]

    def test_watchers_do_not_see_mmio_writes(self):
        region = MemoryRegion("regs", base=0, size=4096, port="dev")
        region.on_mmio_write = lambda off, data: None
        seen = []
        region.watch(0, 8, lambda: seen.append(True))
        region.write(0, b"\x01")
        assert seen == []

    def test_watch_outside_region_rejected(self):
        region = MemoryRegion("ring", base=0x1000, size=4096, port="dev")
        with pytest.raises(AddressError):
            region.watch(0x1ff0, 32, lambda: None)

    def test_sparse_region(self):
        region = MemoryRegion("flash", base=0, size=1024 * MIB, port="ssd")
        region.write(100 * MIB, b"deep")
        assert region.read(100 * MIB, 4) == b"deep"

    def test_bad_geometry_rejected(self):
        with pytest.raises(AddressError):
            MemoryRegion("r", base=-1, size=10, port="p")
        with pytest.raises(AddressError):
            MemoryRegion("r", base=0, size=0, port="p")


class TestDramTiming:
    def test_duration_includes_latency(self):
        assert HOST_DDR4.duration(0) == HOST_DDR4.access_latency

    def test_duration_scales_with_size(self):
        one = HOST_DDR4.duration(1 * MIB)
        two = HOST_DDR4.duration(2 * MIB)
        assert two > one
        # doubling the payload roughly doubles the streaming part
        stream_one = one - HOST_DDR4.access_latency
        stream_two = two - HOST_DDR4.access_latency
        assert stream_two == pytest.approx(2 * stream_one, rel=0.01)

    def test_fpga_ddr3_slower_than_host(self):
        assert (FPGA_DDR3.bandwidth.bytes_per_sec
                < HOST_DDR4.bandwidth.bytes_per_sec)


class TestChunkAllocator:
    def test_alloc_free_cycle(self):
        alloc = ChunkAllocator(base=0x1000, size=64 * KIB * 8, chunk_size=64 * KIB)
        addr = alloc.alloc()
        assert addr == 0x1000
        assert alloc.allocated_chunks == 1
        alloc.free(addr)
        assert alloc.allocated_chunks == 0

    def test_exhaustion(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 2, chunk_size=64 * KIB)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(AllocationError):
            alloc.alloc()

    def test_contiguous_allocation(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 8, chunk_size=64 * KIB)
        addr = alloc.alloc_contiguous(4)
        assert addr == 0
        addr2 = alloc.alloc_contiguous(4)
        assert addr2 == 4 * 64 * KIB

    def test_contiguous_respects_fragmentation(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 4, chunk_size=64 * KIB)
        a = alloc.alloc()   # chunk 0
        b = alloc.alloc()   # chunk 1
        alloc.alloc()       # chunk 2
        alloc.free(b)       # free chunk 1 -> free set {1, 3}
        with pytest.raises(AllocationError):
            alloc.alloc_contiguous(2)
        alloc.free(a)       # free set {0, 1, 3}
        assert alloc.alloc_contiguous(2) == 0

    def test_double_free_rejected(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 2, chunk_size=64 * KIB)
        addr = alloc.alloc()
        alloc.free(addr)
        with pytest.raises(AllocationError):
            alloc.free(addr)

    def test_free_outside_the_window_or_of_a_free_chunk_frees_nothing(self):
        chunk = 64 * KIB
        alloc = ChunkAllocator(base=chunk, size=chunk * 4, chunk_size=chunk)
        first = alloc.alloc_contiguous(3)
        for addr, count in ((0, 1), (5 * chunk, 1), (first, 4),
                            (first + 3 * chunk, 1)):
            with pytest.raises(AllocationError, match="double free or bad"):
                alloc.free(addr, count)
        assert alloc.free_indices() == [3]
        alloc.free(first, 3)
        assert alloc.free_chunks == 4

    def test_unaligned_free_rejected(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 2, chunk_size=64 * KIB)
        alloc.alloc()
        with pytest.raises(AllocationError):
            alloc.free(17)

    def test_chunks_for(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 8, chunk_size=64 * KIB)
        assert alloc.chunks_for(1) == 1
        assert alloc.chunks_for(64 * KIB) == 1
        assert alloc.chunks_for(64 * KIB + 1) == 2

    def test_alloc_bytes_takes_the_chunks_a_size_needs(self):
        alloc = ChunkAllocator(base=0, size=64 * KIB * 4, chunk_size=64 * KIB)
        assert alloc.alloc_bytes(100) == 0          # the chunk alloc() takes
        run = alloc.alloc_bytes(64 * KIB + 1)       # two contiguous chunks
        assert run == 64 * KIB and alloc.free_chunks == 1
        alloc.free_bytes(run, 64 * KIB + 1)
        assert alloc.free_chunks == 3

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(st.integers(min_value=1, max_value=4),
                        min_size=1, max_size=30))
    def test_alloc_free_never_leaks(self, ops):
        total = 32
        alloc = ChunkAllocator(base=0, size=64 * KIB * total, chunk_size=64 * KIB)
        held = []
        for count in ops:
            if alloc.free_chunks >= count:
                try:
                    held.append((alloc.alloc_contiguous(count), count))
                except AllocationError:
                    # Fragmented — legitimate; fall back to freeing.
                    if held:
                        addr, n = held.pop(0)
                        alloc.free(addr, n)
            elif held:
                addr, n = held.pop(0)
                alloc.free(addr, n)
        for addr, n in held:
            alloc.free(addr, n)
        assert alloc.free_chunks == total
        assert alloc.allocated_chunks == 0


class TestBump:
    def test_aligned_takes_and_used(self):
        bump = Bump(0x1000, 256)
        assert bump.take(10) == 0x1000
        assert bump.take(8, align=64) == 0x1040
        assert bump.used == 0x48

    def test_exhaustion_names_the_area(self):
        bump = Bump(0, 128, "engine BRAM")
        bump.take(64)
        bump.take(64)
        with pytest.raises(AllocationError, match="engine BRAM exhausted"):
            bump.take(1)


# -- oracle tests: every store against a flat bytearray --------------------

PAGE = SparseBytes.PAGE
STORE_SIZE = 5 * PAGE + 123   # not a whole number of pages

# Offsets cluster on page boundaries, where the stepping logic lives.
_offsets = st.one_of(
    st.integers(min_value=0, max_value=STORE_SIZE),
    st.builds(lambda page, delta: max(0, page * PAGE + delta),
              st.integers(min_value=0, max_value=5),
              st.integers(min_value=-3, max_value=3)))
_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _offsets,
              st.binary(max_size=3 * PAGE + 10)),
    st.tuples(st.just("read"), _offsets,
              st.integers(min_value=0, max_value=3 * PAGE + 10))),
    min_size=1, max_size=25)


def _replay(ops, read, write, flat, base=0):
    """Apply ``ops`` to a store and to ``flat``; compare as we go."""
    for kind, offset, arg in ops:
        length = len(arg) if kind == "write" else arg
        if offset + length > len(flat):
            with pytest.raises(AddressError):
                if kind == "write":
                    write(base + offset, arg)
                else:
                    read(base + offset, length)
        elif kind == "write":
            write(base + offset, arg)
            flat[offset:offset + length] = arg
        else:
            got = read(base + offset, length)
            assert type(got) is bytes
            assert got == bytes(flat[offset:offset + length])
    assert read(base, len(flat)) == bytes(flat)


def _pages_touched(ops):
    touched = set()
    for kind, offset, arg in ops:
        if kind == "write" and arg and offset + len(arg) <= STORE_SIZE:
            touched.update(range(offset // PAGE,
                                 (offset + len(arg) - 1) // PAGE + 1))
    return touched


class TestStoresAgainstFlatOracle:
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops)
    def test_sparse_bytes(self, ops):
        store = SparseBytes(STORE_SIZE)
        flat = bytearray(STORE_SIZE)
        _replay(ops, store.read, store.write, flat)
        # Only pages a write touched are resident; reads allocate none.
        assert store.resident_bytes == len(_pages_touched(ops)) * PAGE

    @_RESIDENCY
    @settings(max_examples=60, deadline=None)
    @given(ops=_ops)
    def test_memory_region(self, resident, ops):
        base = 0x10_0000
        region = _region(resident, size=STORE_SIZE, base=base)
        _replay(ops, region.read, region.write, bytearray(STORE_SIZE),
                base=base)

    def test_never_written_pages_read_as_zeroes(self):
        store = SparseBytes(STORE_SIZE)
        store.write(2 * PAGE - 2, b"\xff" * 4)   # pages 1 and 2 only
        data = store.read(0, 4 * PAGE)
        assert data == (bytes(2 * PAGE - 2) + b"\xff" * 4
                        + bytes(2 * PAGE - 2))
        assert store.resident_bytes == 2 * PAGE

    def test_empty_accesses_allocate_nothing(self):
        store = SparseBytes(STORE_SIZE)
        store.write(3 * PAGE, b"")
        assert store.read(STORE_SIZE, 0) == b""
        assert store.resident_bytes == 0

    def test_write_accepts_a_memoryview(self):
        store = SparseBytes(STORE_SIZE)
        payload = bytes(range(256)) * 40
        store.write(PAGE - 7, memoryview(payload)[3:])
        assert store.read(PAGE - 7, len(payload) - 3) == payload[3:]


class _AllocatorOracle:
    """A sorted free list with the documented lowest-first policy."""

    def __init__(self, total):
        self.free = list(range(total))

    def alloc(self):
        if not self.free:
            return None
        return [self.free.pop(0)]

    def alloc_contiguous(self, count):
        for pos in range(len(self.free) - count + 1):
            run = self.free[pos:pos + count]
            if run == list(range(run[0], run[0] + count)):
                del self.free[pos:pos + count]
                return run
        return None

    def release(self, indices):
        self.free = sorted(self.free + indices)


class TestChunkAllocatorAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["alloc", "contiguous", "free"]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=1_000)),
        min_size=1, max_size=60))
    def test_alloc_free_sequences(self, ops):
        total, chunk = 16, 4 * KIB
        alloc = ChunkAllocator(base=0x8000, size=total * chunk + 100,
                               chunk_size=chunk)
        oracle = _AllocatorOracle(total)
        held = []   # (first index, count)
        for kind, count, pick in ops:
            if kind == "free":
                if not held:
                    continue
                first, n = held.pop(pick % len(held))
                alloc.free(0x8000 + first * chunk, n)
                oracle.release(list(range(first, first + n)))
            else:
                expect = (oracle.alloc() if kind == "alloc"
                          else oracle.alloc_contiguous(count))
                if expect is None:
                    with pytest.raises(AllocationError):
                        if kind == "alloc":
                            alloc.alloc()
                        else:
                            alloc.alloc_contiguous(count)
                    continue
                addr = (alloc.alloc() if kind == "alloc"
                        else alloc.alloc_contiguous(count))
                assert addr == 0x8000 + expect[0] * chunk
                held.append((expect[0], len(expect)))
            assert alloc.free_indices() == oracle.free
            assert alloc.free_chunks == len(oracle.free)
            assert alloc.allocated_chunks == total - len(oracle.free)

    def test_engine_sized_window_hands_out_the_sorted_list_addresses(self):
        """The engine's 16,384 DDR3 chunks under a fixed mix like its
        own: a carved receive pool, then contiguous intermediate buffers
        and single chunks freed out of order."""
        total, chunk = 1 * GIB // (64 * KIB), 64 * KIB
        alloc = ChunkAllocator(base=0x1_0000_0000, size=total * chunk,
                               chunk_size=chunk)
        oracle = _AllocatorOracle(total)
        rng = random.Random(7)
        held = []
        for _ in range(512):
            assert alloc.alloc() == 0x1_0000_0000 + oracle.alloc()[0] * chunk
        for _ in range(3_000):
            if held and rng.random() < 0.45:
                first, n = held.pop(rng.randrange(len(held)))
                alloc.free(0x1_0000_0000 + first * chunk, n)
                oracle.release(list(range(first, first + n)))
                continue
            count = rng.choice((1, 1, 2, 3, 4, 8))
            run = oracle.alloc_contiguous(count)
            addr = (alloc.alloc() if count == 1
                    else alloc.alloc_contiguous(count))
            assert addr == 0x1_0000_0000 + run[0] * chunk
            held.append((run[0], count))
        assert alloc.free_indices() == oracle.free
        assert alloc.allocated_chunks == total - len(oracle.free)


class TestTestbedFootprint:
    """A testbed holds memory in proportion to what its run writes: a
    page per written page of each region and a byte per chunk of each
    allocator, not a dense copy of every register window and a Python
    int per free chunk (about 4 MiB per testbed)."""

    LIMIT = 1.5 * MIB

    @staticmethod
    def _warmed(scheme_cls):
        tb = Testbed(seed=1)
        run_send(tb, scheme_cls(tb), bytes(4 * KIB), "warm.dat")
        return tb

    @pytest.mark.parametrize("name", sorted(ALL_SCHEMES))
    def test_warmed_testbed_holds_at_most_the_limit(self, name):
        scheme_cls = ALL_SCHEMES[name]
        self._warmed(scheme_cls)    # imports and process-wide caches
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            tb = self._warmed(scheme_cls)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = sum(stat.size_diff
                   for stat in after.compare_to(before, "filename"))
        assert tb.sim.now > 0
        assert held <= self.LIMIT, f"{name}: {held / KIB:.0f} KiB"
