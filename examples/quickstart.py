#!/usr/bin/env python3
"""Quickstart: one direct D2D transfer under every scheme.

Builds the two-node testbed (SSD + NIC + GPU + HDC Engine per node),
stores a file on node0's SSD, and sends it to node1 with an MD5
integrity check computed in flight — by the GPU for the software
designs and by the MD5 NDP unit for DCS-ctrl.  Prints the latency
breakdown each scheme produced (``result.trace``: from the start of the
send until the send completes) and verifies every digest against
hashlib.

Run:  python examples/quickstart.py
"""

import hashlib

from repro.schemes import (DcsCtrlScheme, SwOptScheme, SwP2pScheme, Testbed)
from repro.units import KIB

SIZE = 16 * KIB


def run_scheme(scheme_cls):
    testbed = Testbed(seed=7)
    scheme = scheme_cls(testbed)
    payload = bytes((i * 11) % 256 for i in range(SIZE))
    testbed.node0.host.install_file("object.dat", payload)
    conn = scheme.connect()

    def sender(sim):
        return (yield from scheme.send_file(
            testbed.node0, conn, "object.dat", 0, SIZE, processing="md5"))

    procs = [testbed.sim.process(sender(testbed.sim))]
    if not conn.offloaded:
        # Kernel-terminated connections need a receiver to drain.
        dst = testbed.node1.host.alloc_buffer(SIZE)

        def receiver(sim):
            yield from testbed.node1.host.kernel.socket_recv(
                conn.flow1, SIZE, dst)

        procs.append(testbed.sim.process(receiver(testbed.sim)))
    result = testbed.sim.run(until=procs[0])
    for proc in procs[1:]:
        testbed.sim.run(until=proc)

    trace = result.trace
    expected = hashlib.md5(payload).digest()
    status = "OK" if result.digest == expected else "MISMATCH"
    print(f"\n=== {scheme.name}")
    print(f"  end-to-end: {trace.total_us:8.2f} us   digest {status}")
    for category, us in trace.breakdown_us().items():
        print(f"    {category:20s} {us:8.2f} us")
    assert result.digest == expected


def main():
    print(f"Sending a {SIZE // 1024} KiB object SSD -> MD5 -> NIC "
          "under each design:")
    for scheme_cls in (SwOptScheme, SwP2pScheme, DcsCtrlScheme):
        run_scheme(scheme_cls)
    print("\nAll schemes moved the same bytes and computed the same MD5.")


if __name__ == "__main__":
    main()
