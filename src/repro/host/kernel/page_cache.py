"""The page cache's dirty pages: what the HDC Driver must flush.

The HDC Driver must preserve consistency when bypassing the page cache:
"simply bypassing page caches violates the data consistency when the
latest data are located in page caches" (paper §IV-B), so it asks this
cache which pages are dirty before building D2D commands.  The Linux
baseline's buffered path (Fig 8) pays page-cache management as CPU
cost (:mod:`repro.host.costs`) and stores no pages, so only the dirty
pages are kept here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.units import PAGE


class PageCache:
    """(file, page index) → bytes of the pages not yet written back."""

    def __init__(self):
        self._dirty: Dict[Tuple[str, int], bytes] = {}

    def mark_dirty(self, name: str, page_index: int, data: bytes) -> None:
        """Record a whole page written in memory but not on the medium."""
        if len(data) != PAGE:
            raise ConfigurationError(
                f"page cache stores whole {PAGE}-byte pages, got {len(data)}")
        self._dirty[(name, page_index)] = data

    def mark_clean(self, name: str, page_index: int) -> None:
        """Drop the page (after writeback)."""
        self._dirty.pop((name, page_index), None)

    def dirty_pages(self, name: str, first_page: int,
                    npages: int) -> List[int]:
        """Dirty page indices intersecting [first_page, first_page+npages).

        This is the HDC Driver's consistency probe: any page returned
        here must be sourced from host memory, not from flash.
        """
        return [idx for idx in range(first_page, first_page + npages)
                if (name, idx) in self._dirty]

    def dirty_data(self, name: str, page_index: int) -> bytes:
        """The bytes of a dirty cached page."""
        data = self._dirty.get((name, page_index))
        if data is None:
            raise ConfigurationError(f"page {(name, page_index)} is not dirty")
        return data
