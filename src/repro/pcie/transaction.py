"""TLP-level cost constants for the PCIe model.

Rather than simulating every 256-byte TLP as its own event (which would
make million-packet app runs intractable), the link model charges each
DMA the *aggregate* serialization time of its TLPs: payload divided by
effective bandwidth, where effective bandwidth folds in the per-TLP
framing overhead computed here.  Small control transactions (doorbells,
read requests, MSI) are charged fixed latencies measured on real Gen2
switched fabrics.
"""

from __future__ import annotations

from repro.units import nsec, usec

# Max payload size the fabric negotiates (bytes).  256 B is the typical
# value on Gen2 switches.
MAX_PAYLOAD = 256

# Per-TLP overhead: 2 B framing + 6 B DLL (seq + LCRC shares) + 16 B
# 64-bit-address memory-write header = 24 B, rounded up for flow-control
# DLLP traffic.
TLP_OVERHEAD = 26


def tlp_efficiency(max_payload: int = MAX_PAYLOAD,
                   overhead: int = TLP_OVERHEAD) -> float:
    """Fraction of raw link bandwidth available to payload bytes."""
    if max_payload <= 0:
        raise ValueError(f"max payload must be positive: {max_payload}")
    return max_payload / (max_payload + overhead)


# One switch hop: ingress buffering + routing + egress scheduling.
# Measured cut-through latencies on Gen2 switches are 150-200 ns.
HOP_FORWARD_NS = nsec(150)

# A posted 4/8-byte MMIO write (doorbell ring) end to end across the
# switch: serialization is negligible, latency is two hops + wire.
DOORBELL_WRITE_NS = nsec(400)

# A non-posted read request TLP reaching the completer (the data comes
# back at link speed and is charged separately).
READ_REQUEST_NS = nsec(350)

# MSI/MSI-X: a posted write to the root complex plus APIC delivery.
MSI_LATENCY_NS = nsec(500)

# Time a requester burns before declaring an injected completion
# timeout (the spec allows 50 µs - 50 ms; we model the floor).
COMPLETION_TIMEOUT_NS = usec(50)
