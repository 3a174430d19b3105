"""Ablation: bulk transfers (PRP lists + LSO) on vs off.

Paper §IV-C: "we exploit bulk-transfer mechanisms of the existing
devices to further improve the throughput of direct D2D communications"
(PRP lists for multi-block NVMe commands, large send offload on the
NIC).  This bench disables both and measures a 64 KiB DCS-ctrl send.
"""

from repro.schemes import DcsCtrlScheme, Testbed
from repro.units import KIB

SIZE = 64 * KIB


def _dcs_latency(bulk_transfer: bool) -> float:
    tb = Testbed(seed=42, bulk_transfer=bulk_transfer)
    scheme = DcsCtrlScheme(tb)
    data = bytes(SIZE)
    tb.node0.host.install_file("warm.dat", data)
    tb.node0.host.install_file("meas.dat", data)
    conn = scheme.connect()

    def one(name):
        def body(sim):
            return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                                SIZE))
        return tb.sim.run(until=tb.sim.process(body(tb.sim)))

    one("warm.dat")
    return one("meas.dat").latency_us


def test_ablation_bulk_transfer(once):
    def run():
        return _dcs_latency(True), _dcs_latency(False)

    bulk_us, single_us = once(run)
    print(f"\nbulk transfers (PRP+LSO): {bulk_us:.2f} us per 64 KiB")
    print(f"single-block/packet:      {single_us:.2f} us per 64 KiB")
    assert bulk_us < single_us
    # One command per 4 KiB block and one descriptor per packet cost
    # real time: expect a clearly visible gap.
    assert single_us / bulk_us > 1.15
