"""A page cache with LRU eviction and dirty-page tracking.

Two roles in the reproduction:

* the *Linux baseline* of Fig 8 pays page-cache management costs on
  every buffered I/O, which DCS-ctrl and the optimized baselines bypass
  with direct I/O;
* the HDC Driver must preserve consistency when bypassing it: "simply
  bypassing page caches violates the data consistency when the latest
  data are located in page caches" (paper §IV-B), so it asks this cache
  which pages are dirty before building D2D commands.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.units import PAGE


class PageCache:
    """(file, page index) → page bytes, LRU, with dirty bits."""

    def __init__(self, capacity_pages: int = 4096):
        if capacity_pages < 1:
            raise ConfigurationError("page cache needs at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._dirty: set[Tuple[str, int]] = set()
        self.hits = 0
        self.misses = 0

    def lookup(self, name: str, page_index: int) -> Optional[bytes]:
        """The cached page, refreshing LRU position; None on miss."""
        key = (name, page_index)
        page = self._pages.get(key)
        if page is None:
            self.misses += 1
            return None
        self._pages.move_to_end(key)
        self.hits += 1
        return page

    def insert(self, name: str, page_index: int, data: bytes,
               dirty: bool = False) -> None:
        """Cache one page, evicting LRU pages as needed."""
        if len(data) != PAGE:
            raise ConfigurationError(
                f"page cache stores whole {PAGE}-byte pages, got {len(data)}")
        key = (name, page_index)
        self._pages[key] = data
        self._pages.move_to_end(key)
        if dirty:
            self._dirty.add(key)
        while len(self._pages) > self.capacity_pages:
            victim, _ = self._pages.popitem(last=False)
            if victim in self._dirty:
                # The paper's workloads write through before D2D; a
                # dirty eviction would need writeback we don't model.
                raise ConfigurationError(
                    f"evicting dirty page {victim} without writeback")

    def mark_clean(self, name: str, page_index: int) -> None:
        """Clear the dirty bit (after writeback)."""
        self._dirty.discard((name, page_index))

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
        key = (name, page_index)
        if key not in self._dirty:
            raise ConfigurationError(f"page {key} is not dirty")
        return self._pages[key]

    def invalidate(self, name: str) -> int:
        """Drop every clean page of ``name``; returns pages dropped."""
        doomed = [k for k in self._pages
                  if k[0] == name and k not in self._dirty]
        for key in doomed:
            del self._pages[key]
        return len(doomed)
