"""An HDFS-balancer-like block mover (paper §V-C2).

"HDFS balancer distributes skewed data across nodes ...  a sender reads
data from an NVMe SSD and sends it to a receiver without the integrity
check.  On the opposite side, the receiver receives the data and
computes a CRC32 checksum of the data ...  After the receiver checks
the checksum, it stores the data into an NVMe SSD."

Block size substitution: HDFS moves 64-128 MiB blocks; we move 1 MiB
blocks by default so runs stay tractable — per-byte CPU costs (what
Fig 12b/13 report) are unchanged, per-block fixed costs are slightly
over-represented, which is *pessimistic* for DCS-ctrl.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps.workload import pattern_bytes
from repro.schemes.base import Scheme
from repro.units import MIB, SEC


@dataclass(frozen=True)
class HdfsConfig:
    """One balancer run."""

    block_size: int = 1 * MIB
    blocks: int = 24
    streams: int = 2           # concurrent mover connections
    integrity: str = "crc32"   # Table II: HDFS checks CRC32
    # Datanode (Java) work per KiB moved — block/lease bookkeeping,
    # checksum-file management, protobuf framing.  Scheme-independent;
    # calibrated so the baseline's app:kernel CPU ratio matches the
    # paper's Fig 12b composition.
    sender_app_ns_per_kib: int = 250
    receiver_app_ns_per_kib: int = 500


@dataclass
class HdfsRun:
    """Results of one balancer run (sender = node0, receiver = node1)."""

    scheme: str
    duration_ns: int
    bytes_moved: int
    sender_cpu: Dict[str, float]
    receiver_cpu: Dict[str, float]

    @property
    def throughput_gbps(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.bytes_moved * 8 / (self.duration_ns / SEC) / 1e9

    @property
    def sender_cpu_total(self) -> float:
        return sum(self.sender_cpu.values())

    @property
    def receiver_cpu_total(self) -> float:
        return sum(self.receiver_cpu.values())


def run_hdfs_balancer(scheme: Scheme, config: HdfsConfig) -> HdfsRun:
    """Move ``blocks`` blocks from node0 to node1 as fast as the scheme
    allows (back-to-back: the balancer saturates its streams)."""
    tb = scheme.tb
    sim = tb.sim
    sender = tb.node0
    receiver = tb.node1

    for index in range(config.blocks):
        sender.host.install_file(
            f"hdfs-src-{index}.blk",
            pattern_bytes(config.block_size, 17, index))
    for stream in range(config.streams):
        receiver.host.install_file(f"hdfs-dst-{stream}.blk",
                                   bytes(config.block_size))

    work = list(range(config.blocks))

    start = sim.now
    tb.reset_cpu_windows()

    from repro.host.costs import CAT
    kib_per_block = config.block_size // 1024
    # Software designs move every byte through the datanode process
    # (user-space buffers); DCS-ctrl's sendfile-like calls keep data
    # out of host memory entirely (paper §IV-A), so the per-byte copy
    # only exists for the non-offloaded schemes.
    user_copy = (0 if scheme.uses_offloaded_connections()
                 else sender.host.costs.copy_cost(config.block_size))

    def sender_side(conn, index):
        yield from sender.host.cpu.run(
            config.sender_app_ns_per_kib * kib_per_block + user_copy,
            CAT.APPLICATION)
        yield from scheme.send_file(sender, conn, f"hdfs-src-{index}.blk",
                                    0, config.block_size, processing=None)

    def receiver_side(conn, stream):
        yield from receiver.host.cpu.run(
            config.receiver_app_ns_per_kib * kib_per_block + user_copy,
            CAT.APPLICATION)
        yield from scheme.receive_to_file(receiver, conn,
                                          f"hdfs-dst-{stream}.blk", 0,
                                          config.block_size,
                                          processing=config.integrity)

    def mover(stream: int, conn):
        moved = 0
        while work:
            index = work.pop(0)  # no yield between check and pop
            send_proc = sim.process(sender_side(conn, index))
            recv_proc = sim.process(receiver_side(conn, stream))
            yield sim.all_of([send_proc, recv_proc])
            moved += config.block_size
        return moved

    movers = [sim.process(mover(stream, scheme.connect()))
              for stream in range(config.streams)]
    total = 0
    for proc in movers:
        total += sim.run(until=proc)

    return HdfsRun(scheme=scheme.name, duration_ns=sim.now - start,
                   bytes_moved=total,
                   sender_cpu=sender.host.cpu.utilization_by_category(),
                   receiver_cpu=receiver.host.cpu.utilization_by_category())
