"""Ablation: engine queue pairs in BRAM vs host DRAM.

The paper allocates NVMe queue pairs in engine BRAM "to enable fast
access of the peripheral devices" (§IV-C) and minimizes host-side
memory accesses from devices (§IV-B).  Moving them to host DRAM makes
every SQE fetch and CQE write cross the switch to the host — this
bench quantifies the latency and host-traffic cost of that choice.
"""

from repro.schemes import DcsCtrlScheme, Testbed
from repro.units import KIB


def _dcs_latency_and_host_bytes(nvme_rings_in_host: bool):
    tb = Testbed(seed=41, nvme_rings_in_host=nvme_rings_in_host)
    scheme = DcsCtrlScheme(tb)
    data = bytes(4 * KIB)
    tb.node0.host.install_file("warm.dat", data)
    tb.node0.host.install_file("meas.dat", data)
    conn = scheme.connect()

    def one(name):
        def body(sim):
            return (yield from scheme.send_file(tb.node0, conn, name, 0,
                                                len(data)))
        return tb.sim.run(until=tb.sim.process(body(tb.sim)))

    one("warm.dat")
    before = tb.node0.host.fabric.host_bytes
    result = one("meas.dat")
    return result.latency_us, tb.node0.host.fabric.host_bytes - before


def test_ablation_queue_placement(once):
    def run():
        bram = _dcs_latency_and_host_bytes(nvme_rings_in_host=False)
        host = _dcs_latency_and_host_bytes(nvme_rings_in_host=True)
        return bram, host

    (bram_us, bram_host_bytes), (host_us, host_host_bytes) = once(run)
    print(f"\nqueue pairs in BRAM:     {bram_us:.2f} us/request, "
          f"{bram_host_bytes} host-path bytes")
    print(f"queue pairs in host DRAM: {host_us:.2f} us/request, "
          f"{host_host_bytes} host-path bytes")
    # BRAM queues are faster and keep device traffic off the host path.
    assert bram_us < host_us
    assert bram_host_bytes < host_host_bytes
