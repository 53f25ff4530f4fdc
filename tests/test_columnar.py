"""Property tests for the columnar kernel.

Two layers, mirroring the module's own contract (see
``repro/kernel/columnar.py``):

* **Classification**: ``lru_hit_flags`` must agree with a reference
  per-set LRU replay for every ways tier the classifier special-cases
  (W == 1, W == 2, W >= 3), under arbitrary warm state.
* **Staleness**: the columnar kernel inherits the batched kernel's
  epoch + shrink-journal machinery; a journaled mutation inside a
  cached prefix must truncate the columnar classification exactly like
  the batched one, and a full differential drive with interleaved
  foreign scalar accesses must leave both kernels bit-identical.
"""

import random
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.addressing import BLOCK_SHIFT
from repro.harness.system_builder import build_system
from repro.kernel import ColumnarSlotKernel, SlotKernel
from repro.kernel import columnar
from repro.kernel.columnar import lru_hit_flags
from repro.workloads.trace import OP_BY_CODE, Op

from tests.conftest import tiny_config

PROP_SETTINGS = settings(max_examples=25, deadline=None,
                         derandomize=True)

_NO_LIMIT = 1 << 62


def snap_hier(hier):
    def snap(cache, with_state):
        out = []
        for s in range(cache.geometry.sets):
            if with_state:
                out.append([(ln.block, ln.state, ln.version, ln.dirty,
                             ln.is_code) for ln in cache.set_lines(s)])
            else:
                out.append([ln.block for ln in cache.set_lines(s)])
        return out
    return (snap(hier._l1i, False), snap(hier._l1d, False),  # noqa: SLF001
            snap(hier._l2, True))                            # noqa: SLF001


def reference_flags(stream, set_mask, ways, od_sets):
    """Pure-Python LRU replay -- the oracle lru_hit_flags must match."""
    flags = []
    for block in stream:
        od = od_sets[block & set_mask]
        hit = block in od
        if hit:
            od.move_to_end(block)
        else:
            if len(od) >= ways:
                od.popitem(last=False)
            od[block] = None
        flags.append(hit)
    return flags


class TestLRUHitFlags:
    @given(ways=st.integers(1, 4),
           warm=st.lists(st.integers(0, 31), max_size=40),
           stream=st.lists(st.integers(0, 31), max_size=200))
    @PROP_SETTINGS
    def test_matches_reference_replay(self, ways, warm, stream):
        set_mask = 3
        od_sets = [OrderedDict() for _ in range(set_mask + 1)]
        reference_flags(warm, set_mask, ways, od_sets)   # warm state
        expected = reference_flags(
            stream, set_mask, ways,
            [OrderedDict(od) for od in od_sets])
        got = lru_hit_flags(np.asarray(stream, dtype=np.int64),
                            set_mask, ways, od_sets)
        assert got.tolist() == expected

    def test_empty_stream(self):
        flags = lru_hit_flags(np.zeros(0, dtype=np.int64), 3, 2,
                              [OrderedDict() for _ in range(4)])
        assert flags.tolist() == []


def make_kernels(config, warm_blocks, ops, addrs):
    """Two identically-warmed systems, one SlotKernel + one columnar."""
    sys_a, sys_b = build_system(config), build_system(config)
    for system in (sys_a, sys_b):
        for block in warm_blocks:
            system.access(0, Op.READ, block << BLOCK_SHIFT)
    lat = config.latency
    ka = SlotKernel(0, sys_a.cores[0], sys_a.stats, sys_a.shadow, lat,
                    ops, addrs)
    kb = ColumnarSlotKernel(0, sys_b.cores[0], sys_b.stats,
                            sys_b.shadow, lat, ops, addrs)
    return sys_a, sys_b, ka, kb


class TestStaleness:
    """Epoch + shrink-journal behaviour of the columnar classification."""

    def test_journal_truncates_prefix_like_batched(self):
        config = tiny_config()
        warm = list(range(8))
        trace = warm * 8                      # 64 safe L2-resident reads
        ops = np.zeros(len(trace), dtype=np.int8)
        addrs = np.asarray(trace, dtype=np.int64) << BLOCK_SHIFT
        sys_a, sys_b, ka, kb = make_kernels(config, warm, ops, addrs)
        full = ka.safe_end(0)
        assert full == len(trace)
        assert kb.safe_end(0) == full
        # A foreign write invalidates core 0's copy of block 5: the
        # hierarchy journals the block and bumps its epoch, and the next
        # consultation must shrink both cached prefixes to the first
        # occurrence of the mutated block -- without a rescan.
        for system in (sys_a, sys_b):
            epoch = system.cores[0].epoch
            system.access(1, Op.WRITE, 5 << BLOCK_SHIFT)
            assert system.cores[0].epoch != epoch
            assert 5 in system.cores[0].shrink_log
        truncated = ka.safe_end(0)
        assert truncated == trace.index(5)
        assert kb.safe_end(0) == truncated
        # Journals were absorbed, epochs synced.
        assert not sys_a.cores[0].shrink_log
        assert not sys_b.cores[0].shrink_log

    def test_journaled_block_outside_prefix_is_free(self):
        config = tiny_config()
        warm = list(range(8))
        trace = [0, 1, 2, 3] * 16
        ops = np.zeros(len(trace), dtype=np.int8)
        addrs = np.asarray(trace, dtype=np.int64) << BLOCK_SHIFT
        _, sys_b, _, kb = make_kernels(config, warm, ops, addrs)
        assert kb.safe_end(0) == len(trace)
        sys_b.access(1, Op.WRITE, 7 << BLOCK_SHIFT)   # not in the trace
        assert kb.safe_end(0) == len(trace)           # prefix intact

    @pytest.mark.parametrize("vec_min_run", [1, 96])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_differential_drive_with_foreign_mutations(
            self, seed, vec_min_run, monkeypatch):
        """Interleave bulk retirement with scalar accesses from other
        cores (each one a potential epoch bump / journal entry) and
        assert the two kernels never diverge -- positions, clocks, the
        full hierarchy, stats, and shadow memory.

        ``vec_min_run=1`` forces every run through the column pipeline
        (the production threshold would route short runs to the batched
        loop, masking columnar bugs)."""
        monkeypatch.setattr(columnar, "VEC_MIN_RUN", vec_min_run)
        rng = random.Random(seed)
        config = tiny_config()
        n_blocks, n = 24, 1200
        ops = np.array([rng.choices((0, 1, 2), weights=(6, 2, 2))[0]
                        for _ in range(n)], dtype=np.int8)
        addrs = np.array([rng.randrange(n_blocks) << BLOCK_SHIFT
                          for _ in range(n)], dtype=np.int64)
        sys_a, sys_b, ka, kb = make_kernels(
            config, [rng.randrange(n_blocks) for _ in range(200)],
            ops, addrs)
        pos = 0
        clock_a = clock_b = 0
        while pos < n:
            # The scans cap at different windows (SCAN_WINDOW for the
            # scalar walk, VEC_SCAN_WINDOW for the columnar one), so
            # the prefixes may differ in *length*; retiring the common
            # prefix on both keeps the drives in lockstep, and any
            # classification disagreement inside it surfaces as a
            # retirement divergence below.
            end = min(ka.safe_end(pos), kb.safe_end(pos))
            if end == pos:
                op, addr = OP_BY_CODE[int(ops[pos])], int(addrs[pos])
                sys_a.access(0, op, addr)
                sys_b.access(0, op, addr)
                clock_a = sys_a.stats.cycles[0]
                clock_b = sys_b.stats.cycles[0]
                pos += 1
                ka.reset_classification()
                kb.reset_classification()
            else:
                limit = (clock_a + rng.randrange(1, 400)
                         if rng.random() < 0.5 else _NO_LIMIT)
                pos_a, clock_a = ka.retire_run(pos, end, clock_a, limit)
                pos_b, clock_b = kb.retire_run(pos, end, clock_b, limit)
                assert (pos_a, clock_a) == (pos_b, clock_b)
                pos = pos_a
            if rng.random() < 0.3:
                # Foreign scalar access: may invalidate/downgrade core
                # 0 lines, journaling into both hierarchies.
                core = rng.randrange(1, 4)
                op = OP_BY_CODE[rng.randrange(3)]
                addr = rng.randrange(n_blocks) << BLOCK_SHIFT
                sys_a.access(core, op, addr)
                sys_b.access(core, op, addr)
        assert snap_hier(sys_a.cores[0]) == snap_hier(sys_b.cores[0])
        assert vars(sys_a.stats) == vars(sys_b.stats)
        assert (dict(sys_a.shadow._latest)                # noqa: SLF001
                == dict(sys_b.shadow._latest))            # noqa: SLF001
