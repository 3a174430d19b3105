"""Reference design — *device integration* (QuickSAN [20] / BlueDBM [21]).

Table I: fast (direct data copy, hardware control path) but inflexible
(aggregate implementation).  For the performance comparison of Fig 3
the integrated device behaves like DCS-ctrl's hardware path — that is
the paper's own point: DCS-ctrl matches integrated-device performance
*without* the integration.  We therefore model it as the DCS-ctrl
pipeline restricted to its fixed, built-in function set; the
flexibility gap is captured by :attr:`supported_processing` and by
:meth:`supports_device` (an integrated device cannot adopt new device
types at all).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.schemes.dcs_ctrl import DcsCtrlScheme


class IntegratedScheme(DcsCtrlScheme):
    """A consolidated storage+network device with a fixed function set."""

    name = "integrated"
    # The DCS-ctrl pipeline: the checks below only reject processing.
    unprocessed_path = "dcs-ctrl"
    # The consolidated device shipped with exactly one checksum block.
    supported_processing = ("crc32",)

    @staticmethod
    def supports_device(kind: str) -> bool:
        """Integrated devices cannot add off-the-shelf peripherals."""
        return kind in ("ssd", "nic")

    def send_file(self, node, conn, name, offset, size,
                  processing: Optional[str] = None):
        if processing is not None and processing not in self.supported_processing:
            raise ConfigurationError(
                f"the integrated device has no {processing!r} block; "
                "adding one means respinning the whole device")
        return (yield from super().send_file(node, conn, name, offset, size,
                                             processing))

    def receive_to_file(self, node, conn, name, offset, size,
                        processing: Optional[str] = None):
        if processing is not None and processing not in self.supported_processing:
            raise ConfigurationError(
                f"the integrated device has no {processing!r} block; "
                "adding one means respinning the whole device")
        return (yield from super().receive_to_file(node, conn, name, offset,
                                                   size, processing))
