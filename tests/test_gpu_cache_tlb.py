"""Cache, TLB, and HBM model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.cache import CacheStats, SetAssociativeCache
from repro.gpu.hbm import HbmModel
from repro.gpu.tlb import Tlb, TlbHierarchy
from repro.memory.address_space import PAGE_BYTES


class TestCache:
    def _small(self):
        # 4 lines of 64 B, 2-way => 2 sets
        return SetAssociativeCache("t", size_bytes=256, assoc=2)

    def test_miss_then_hit_after_fill(self):
        c = self._small()
        assert not c.lookup(0)
        c.fill(0)
        assert c.lookup(0)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_lru_eviction_within_set(self):
        c = self._small()
        # set 0 holds block addresses 0, 128, 256... (2 sets x 64 B lines)
        c.fill(0)
        c.fill(128)
        c.lookup(0)  # 0 is now MRU
        c.fill(256)  # evicts 128
        assert c.contains(0)
        assert not c.contains(128)
        assert c.contains(256)
        assert c.stats.evictions == 1

    def test_fill_returns_victim_address(self):
        c = self._small()
        c.fill(0)
        c.fill(128)
        victim = c.fill(256)
        assert victim == 0 or victim == 128

    def test_sets_are_independent(self):
        c = self._small()
        c.fill(0)  # set 0
        c.fill(64)  # set 1
        c.fill(128)  # set 0
        c.fill(192)  # set 1
        assert c.occupancy == 4
        assert c.stats.evictions == 0

    def test_invalidate_and_page_invalidate(self):
        c = SetAssociativeCache("t", size_bytes=64 * 64, assoc=4)
        for addr in range(0, 4096, 64):
            c.fill(addr)
        dropped = c.invalidate_page(0, 4096)
        assert dropped == 64
        assert c.occupancy == 0
        assert not c.invalidate(0)  # already gone

    def test_table3_geometries_accepted(self):
        SetAssociativeCache("l1", 16 * 1024, 4)
        SetAssociativeCache("l2", 2 * 1024 * 1024, 16)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache("t", size_bytes=100, assoc=3)
        with pytest.raises(ValueError):
            SetAssociativeCache("t", size_bytes=0, assoc=1)

    def test_line_size_must_divide_a_page(self):
        with pytest.raises(ValueError, match="do not divide"):
            SetAssociativeCache("t", size_bytes=96 * 4, assoc=2, line_bytes=96)
        SetAssociativeCache("t", size_bytes=128 * 4, assoc=2, line_bytes=128)

    def test_invalidate_page_rejects_other_page_sizes(self):
        c = SetAssociativeCache("t", size_bytes=64 * 64, assoc=4)
        c.fill(0)
        for page_bytes in (PAGE_BYTES // 2, 2 * PAGE_BYTES, 64):
            with pytest.raises(ValueError, match="pages are"):
                c.invalidate_page(0, page_bytes)
        with pytest.raises(ValueError, match="not page aligned"):
            c.invalidate_page(64, PAGE_BYTES)
        assert c.contains(0) and c.stats.invalidations == 0

    def test_invalidate_page_drops_only_that_page(self):
        c = SetAssociativeCache("t", size_bytes=64 * 64, assoc=4)
        c.fill(8)  # unaligned address within page 0's first line
        c.fill(PAGE_BYTES - 64)
        c.fill(PAGE_BYTES)
        assert c.invalidate_page(0, PAGE_BYTES) == 2
        assert c.stats.invalidations == 2
        assert not c.contains(0) and c.contains(PAGE_BYTES)
        assert c.invalidate_page(0, PAGE_BYTES) == 0
        assert c.invalidate_page(5 * PAGE_BYTES, PAGE_BYTES) == 0

    def test_contains_does_not_touch_lru(self):
        c = self._small()
        c.fill(0)
        c.fill(128)
        c.contains(0)  # must NOT refresh 0
        c.fill(256)
        assert not c.contains(0)  # 0 was LRU and evicted

    def test_hit_rate(self):
        c = self._small()
        c.fill(0)
        c.lookup(0)
        c.lookup(64)
        assert c.stats.hit_rate == pytest.approx(0.5)


class ReferenceCache:
    """Reference model: the same LRU sets with no page index, and a page
    invalidation that probes every line of the page."""

    def __init__(self, size_bytes, assoc, line_bytes=64):
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.n_sets = size_bytes // line_bytes // assoc
        self.sets = [dict() for _ in range(self.n_sets)]
        self.stamp = 0
        self.stats = CacheStats()

    def _locate(self, address):
        block = address // self.line_bytes
        return block % self.n_sets, block // self.n_sets

    def lookup(self, address):
        set_idx, tag = self._locate(address)
        cache_set = self.sets[set_idx]
        self.stamp += 1
        if tag in cache_set:
            cache_set[tag] = self.stamp
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, address):
        set_idx, tag = self._locate(address)
        cache_set = self.sets[set_idx]
        self.stamp += 1
        if tag in cache_set:
            cache_set[tag] = self.stamp
            return None
        victim_addr = None
        if len(cache_set) >= self.assoc:
            victim_tag = min(cache_set, key=cache_set.get)
            del cache_set[victim_tag]
            self.stats.evictions += 1
            victim_addr = (victim_tag * self.n_sets + set_idx) * self.line_bytes
        cache_set[tag] = self.stamp
        return victim_addr

    def contains(self, address):
        set_idx, tag = self._locate(address)
        return tag in self.sets[set_idx]

    def invalidate(self, address):
        set_idx, tag = self._locate(address)
        cache_set = self.sets[set_idx]
        if tag in cache_set:
            del cache_set[tag]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_page(self, page_base, page_bytes):
        return sum(
            self.invalidate(addr)
            for addr in range(page_base, page_base + page_bytes, self.line_bytes)
        )

    @property
    def occupancy(self):
        return sum(len(s) for s in self.sets)


#: (size_bytes, assoc, line_bytes): an L1-like 4-way and an L2-like 16-way
#: geometry, plus 128 B lines; each has at most 4 sets, so the up to 64
#: distinct lines the operations below touch overflow a set and evict
_GEOMETRIES = [(1024, 4, 64), (2048, 16, 64), (2048, 4, 128)]

_ops = st.lists(
    st.tuples(
        # fills weighted double so sets fill up between invalidations
        st.sampled_from(["lookup", "fill", "fill", "invalidate", "invalidate_page"]),
        st.integers(0, 7),  # page
        # first and last lines of the page, any byte within the line
        st.sampled_from([0, 1, 2, 3, 60, 61, 62, 63]),
        st.integers(0, 63),
    ),
    min_size=60,
    max_size=200,
)


@settings(max_examples=100, deadline=None)
@given(geometry=st.sampled_from(_GEOMETRIES), ops=_ops)
def test_page_index_matches_probe_every_line_reference(geometry, ops):
    size_bytes, assoc, line_bytes = geometry
    cache = SetAssociativeCache("t", size_bytes, assoc, line_bytes)
    ref = ReferenceCache(size_bytes, assoc, line_bytes)
    touched = set()
    for op, page, line, byte in ops:
        if op == "invalidate_page":
            args = (page * PAGE_BYTES, PAGE_BYTES)
        else:
            args = (page * PAGE_BYTES + line * 64 + byte,)
            touched.add(args[0])
        assert getattr(cache, op)(*args) == getattr(ref, op)(*args), (op, args)
        assert cache.stats == ref.stats
        assert cache.occupancy == ref.occupancy
        for addr in touched:
            assert cache.contains(addr) == ref.contains(addr)
        resident: dict[int, set[int]] = {}
        for set_idx, cache_set in enumerate(cache._sets):
            for tag in cache_set:
                block = tag * cache.n_sets + set_idx
                resident.setdefault(block * line_bytes // PAGE_BYTES, set()).add(block)
        assert cache._pages == resident


class TestTlb:
    def test_lru_capacity(self):
        t = Tlb("t", n_entries=2)
        t.fill(1)
        t.fill(2)
        t.lookup(1)
        t.fill(3)  # evicts 2
        assert 1 in t and 3 in t and 2 not in t

    def test_hierarchy_promotion(self):
        h = TlbHierarchy("g", l1_entries=1, l2_entries=4)
        delay, walk = h.translate(0)  # cold: both miss
        assert walk and delay == h.l1_latency + h.l2_latency
        delay, walk = h.translate(0)  # L1 hit now
        assert not walk and delay == h.l1_latency
        h.translate(4096)  # displaces page 0 from 1-entry L1
        delay, walk = h.translate(0)  # L2 hit
        assert not walk and delay == h.l1_latency + h.l2_latency
        assert h.iommu_walks == 2

    def test_shootdown_forces_rewalk(self):
        h = TlbHierarchy("g")
        h.translate(0)
        h.shootdown(0)
        _, walk = h.translate(0)
        assert walk

    def test_flush(self):
        t = Tlb("t", 4)
        t.fill(9)
        t.flush()
        assert 9 not in t

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            Tlb("t", 0)


class TestHbm:
    def test_latency_bound_single_access(self):
        hbm = HbmModel("h", access_latency=160, bytes_per_cycle=512)
        assert hbm.access(now=0, size_bytes=64) == 1 + 160

    def test_bandwidth_serialization_for_bulk(self):
        hbm = HbmModel("h", access_latency=10, bytes_per_cycle=512)
        done1 = hbm.access(0, 4096)  # 8 cycles occupancy
        done2 = hbm.access(0, 4096)
        assert done1 == 8 + 10
        assert done2 == 16 + 10

    def test_counters(self):
        hbm = HbmModel("h")
        hbm.access(0, 64)
        hbm.access(0, 64)
        assert hbm.accesses == 2
        assert hbm.total_bytes == 128

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            HbmModel("h", access_latency=-1)
        hbm = HbmModel("h")
        with pytest.raises(ValueError):
            hbm.access(0, 0)
