"""Shared fixtures: a minimal fabric with host memory for device tests."""

import pytest

from repro.memory import MemoryRegion
from repro.pcie import Fabric, LINK_GEN2_X8
from repro.sim import Simulator
from repro.units import MIB

HOST_DRAM_BASE = 0x0000_0000
HOST_DRAM_SIZE = 256 * MIB

SSD_BAR = 0x8000_0000
NIC_BAR = 0x8100_0000
NIC2_BAR = 0x8200_0000
GPU_BAR = 0x9000_0000
ENGINE_BAR = 0xA000_0000
ENGINE_DDR_BASE = 0xC000_0000


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def fabric(sim):
    """A fabric with a host port and host DRAM mapped at 0."""
    fab = Fabric(sim)
    fab.add_port("host", LINK_GEN2_X8)
    fab.add_region(MemoryRegion("host-dram", base=HOST_DRAM_BASE,
                                size=HOST_DRAM_SIZE, port="host"))
    fab.register_msi_handler("host", lambda src, vec: None)
    return fab
