"""Set-associative cache model with LRU replacement.

Used for the L1 vector cache (16 KB, 4-way) and the shared L2 (2 MB,
16-way) of Table III.  The model tracks hits/misses and filters which
accesses reach memory or the interconnect; data contents are not stored
(the simulator is timing-directed), only tags.

LRU is implemented per set with an access stamp, which is O(associativity)
per touch — small constants for 4/16-way sets and fast enough in Python.

A second index maps each 4 KiB page to the blocks of it that are resident,
so a migration shootdown costs one dict probe for a page the cache does not
hold and touches only the resident lines of a page it does, instead of
probing all 64 lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.address_space import BLOCK_BYTES, PAGE_BYTES


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class SetAssociativeCache:
    """Tag-only set-associative LRU cache over 64 B blocks."""

    def __init__(self, name: str, size_bytes: int, assoc: int, line_bytes: int = BLOCK_BYTES) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        n_lines = size_bytes // line_bytes
        if n_lines < assoc or n_lines % assoc:
            raise ValueError(
                f"{name}: {size_bytes} B / {line_bytes} B lines not divisible into {assoc}-way sets"
            )
        if PAGE_BYTES % line_bytes:
            raise ValueError(f"{name}: {line_bytes} B lines do not divide a {PAGE_BYTES} B page")
        self.name = name
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = n_lines // assoc
        # each set: dict tag -> last-use stamp
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.n_sets)]
        # page -> resident block numbers of that page, in step with _sets
        self._pages: dict[int, set[int]] = {}
        self._lines_per_page = PAGE_BYTES // line_bytes
        self._stamp = 0
        self.stats = CacheStats()

    def _locate(self, address: int) -> tuple[int, int]:
        block = address // self.line_bytes
        return block % self.n_sets, block // self.n_sets

    def lookup(self, address: int) -> bool:
        """Touch ``address``; True on hit.  Misses do NOT allocate."""
        set_idx, tag = self._locate(address)
        cache_set = self._sets[set_idx]
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address: int) -> int | None:
        """Allocate the line for ``address``; returns the evicted address."""
        block = address // self.line_bytes
        set_idx = block % self.n_sets
        tag = block // self.n_sets
        cache_set = self._sets[set_idx]
        self._stamp += 1
        if tag in cache_set:
            cache_set[tag] = self._stamp
            return None
        victim_addr = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=cache_set.get)
            del cache_set[victim_tag]
            self.stats.evictions += 1
            victim = victim_tag * self.n_sets + set_idx
            self._unindex(victim)
            victim_addr = victim * self.line_bytes
        cache_set[tag] = self._stamp
        page = block // self._lines_per_page
        resident = self._pages.get(page)
        if resident is None:
            self._pages[page] = {block}
        else:
            resident.add(block)
        return victim_addr

    def _unindex(self, block: int) -> None:
        page = block // self._lines_per_page
        resident = self._pages[page]
        resident.remove(block)
        if not resident:
            del self._pages[page]

    def contains(self, address: int) -> bool:
        """Non-statistical presence probe (does not update LRU)."""
        set_idx, tag = self._locate(address)
        return tag in self._sets[set_idx]

    def invalidate(self, address: int) -> bool:
        block = address // self.line_bytes
        cache_set = self._sets[block % self.n_sets]
        tag = block // self.n_sets
        if tag in cache_set:
            del cache_set[tag]
            self._unindex(block)
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_page(self, page_base: int, page_bytes: int) -> int:
        """Invalidate every resident line of a page (used on migration).

        Only lines the page index lists are dropped, each through
        :meth:`invalidate`, so ``stats.invalidations`` counts exactly the
        lines removed.
        """
        if page_bytes != PAGE_BYTES:
            raise ValueError(f"{self.name}: pages are {PAGE_BYTES} B, not {page_bytes} B")
        if page_base % PAGE_BYTES:
            raise ValueError(f"{self.name}: page base {page_base:#x} is not page aligned")
        resident = self._pages.get(page_base // PAGE_BYTES)
        if resident is None:
            return 0
        line_bytes = self.line_bytes
        blocks = list(resident)  # invalidate() shrinks the live set
        for block in blocks:
            self.invalidate(block * line_bytes)
        return len(blocks)

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


__all__ = ["CacheStats", "SetAssociativeCache"]
