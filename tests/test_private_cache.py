"""Unit tests for the per-core private hierarchy (L1I/L1D over L2)."""

import pytest

from repro.caches.block import MESI
from repro.caches.private_cache import L1_HIT, L2_HIT, PrivateHierarchy
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError


def make_hierarchy():
    return PrivateHierarchy(
        core=0,
        l1i=CacheGeometry(256, 2),    # 4 blocks, 2 sets
        l1d=CacheGeometry(256, 2),
        l2=CacheGeometry(1024, 4),    # 16 blocks, 4 sets
    )


class TestFillAndLookup:
    def test_fill_then_l1_hit(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, version=0, code=False)
        assert hier.read_hit_level(5, code=False) == L1_HIT

    def test_l2_hit_refills_l1(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        # Evict 0 from L1D (2-way sets by low bits: 0, 2, 4 share set 0).
        hier.fill(2, MESI.E, 0, code=False)
        hier.fill(4, MESI.E, 0, code=False)
        assert hier.read_hit_level(0, code=False) == L2_HIT
        assert hier.read_hit_level(0, code=False) == L1_HIT

    def test_code_and_data_l1s_are_split(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.S, 0, code=True)
        assert hier.read_hit_level(5, code=False) == L2_HIT

    def test_miss_returns_none(self):
        assert make_hierarchy().read_hit_level(9, code=False) is None

    def test_double_fill_rejected(self):
        hier = make_hierarchy()
        hier.fill(5, MESI.E, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.fill(5, MESI.S, 0, code=False)


class TestEvictionNotices:
    def test_l2_eviction_produces_notice_and_back_invalidates(self):
        hier = make_hierarchy()
        for block in (0, 4, 8, 12):   # fill L2 set 0
            hier.fill(block, MESI.E, 0, code=False)
        notices = hier.fill(16, MESI.E, 0, code=False)
        assert len(notices) == 1
        assert notices[0].block == 0
        assert notices[0].state is MESI.E
        assert 0 not in hier
        assert hier.read_hit_level(0, code=False) is None

    def test_notice_carries_m_state_and_version(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        hier.commit_write(0, version=7)
        for block in (4, 8, 12):
            hier.fill(block, MESI.E, 0, code=False)
        notices = hier.fill(16, MESI.E, 0, code=False)
        assert notices[0].state is MESI.M
        assert notices[0].version == 7

    def test_l1_eviction_is_silent(self):
        hier = make_hierarchy()
        hier.fill(0, MESI.E, 0, code=False)
        hier.fill(2, MESI.E, 0, code=False)
        notices = hier.fill(4, MESI.E, 0, code=False)  # L1D set 0 full
        assert notices == []
        assert 0 in hier                               # still in L2


class TestCoherenceActions:
    def test_write_requires_ownership(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.S, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.commit_write(3, 1)

    def test_silent_e_to_m(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 0, code=False)
        hier.commit_write(3, 9)
        assert hier.probe(3) is MESI.M
        assert hier.line_of(3).version == 9

    def test_invalidate_returns_line(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 5, code=False)
        line = hier.invalidate(3)
        assert line.version == 5
        assert 3 not in hier
        assert hier.invalidate(3) is None

    def test_downgrade_to_s(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.E, 0, code=False)
        hier.commit_write(3, 4)
        line = hier.downgrade_to_s(3)
        assert line.version == 4
        assert hier.probe(3) is MESI.S

    def test_downgrade_requires_ownership(self):
        hier = make_hierarchy()
        hier.fill(3, MESI.S, 0, code=False)
        with pytest.raises(ProtocolInvariantError):
            hier.downgrade_to_s(3)

    def test_write_hit_state(self):
        hier = make_hierarchy()
        assert hier.write_hit_state(3) is None
        hier.fill(3, MESI.S, 0, code=False)
        assert hier.write_hit_state(3) is MESI.S

    def test_cached_blocks(self):
        hier = make_hierarchy()
        hier.fill(1, MESI.E, 0, code=False)
        hier.fill(2, MESI.S, 0, code=True)
        assert sorted(hier.cached_blocks()) == [1, 2]
