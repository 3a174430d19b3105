"""10-GbE NIC model: descriptor rings, LSO, header-split receive, and the
submitter-side ring client."""

from repro.devices.nic.descriptors import (RECV_CMPL_SIZE, RECV_DESC_SIZE,
                                           SEND_DESC_SIZE, RecvCompletion,
                                           RecvDescriptor, SendDescriptor)
from repro.devices.nic.rings import RecvRing, SendRing
from repro.devices.nic.nic import BCM57711, Nic, NicConfig
from repro.devices.nic.client import NicClient

__all__ = [
    "BCM57711",
    "Nic",
    "NicClient",
    "NicConfig",
    "RECV_CMPL_SIZE",
    "RECV_DESC_SIZE",
    "RecvCompletion",
    "RecvDescriptor",
    "RecvRing",
    "SEND_DESC_SIZE",
    "SendDescriptor",
    "SendRing",
]
