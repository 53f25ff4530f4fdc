"""Columnar (structure-of-arrays) vectorized kernel.

The batched kernel (:mod:`repro.kernel.batched`) proved that safe runs
-- L2-resident, non-S-write accesses -- commute and can retire in bulk
with bit-identical observables, but each retirement is still a scalar
Python iteration.  This module retires a whole safe run with *column*
operations over contiguous NumPy arrays instead, exploiting two facts:

1. **LRU is a stack algorithm.**  An access hits a W-way LRU array
   exactly when fewer than W distinct same-set blocks were touched
   since its previous occurrence, and the array's final content is the
   W most recently used distinct blocks, in recency order.  Per-access
   hit flags therefore follow from the access *sequence* plus the
   initial per-set contents (encoded as a virtual prefix), and the
   final L1/L2 recency state can be reconstructed in O(distinct
   blocks) instead of O(run length).

2. **Safe-run observables are prefix sums.**  Per-access latencies are
   one of three class constants, so clocks are a cumulative sum, the
   ``clock < limit`` retirement cutoff is a ``searchsorted``, counters
   are population counts, and shadow/L2 version finalization needs
   only per-block store counts (the scalar path bumps the version once
   per store, so the final version is the old value plus the count).

Exactness of the per-access hit flags (needed because the scalar path
counts L1 vs L2 hits and steps the clock differently for each) is kept
with a tiered classifier over the set-grouped access sequence:

* ``W == 1``: hit iff the previous same-set access is the same block.
* ``W == 2``: hit iff the previous occurrence of the block is at or
  after the position *before* the maximal run of equal same-set values
  ending at the predecessor (the cache holds the last two distinct
  same-set values; the second-most-recent is exactly the value before
  that run).
* distinct same-set blocks <= W: nothing is ever evicted, so every
  re-occurrence is a hit.
* otherwise: an exact per-set Python LRU replay of just that set's
  subsequence (rare -- only W >= 3 sets with more distinct blocks than
  ways, where no closed form exists).

**Sync points.**  The columns are mirrors, not the source of truth.
The object model (``PrivateHierarchy``/``SetAssocCache``) is read at
exactly two points: the classification scan snapshots the L2
membership/state columns (staleness is handled by the same epoch +
shrink-journal machinery as the batched kernel), and ``retire_run``
reads the live L1 set contents for the virtual prefix and writes the
reconstructed final state back before returning -- retirement is
atomic within a driver turn, so no scalar access can interleave.

Everything coherence-visible still issues through the scalar protocol
in exact heap order via :func:`repro.kernel.batched.drive_batched`;
the driver's three-way policy is: degraded mode issues scalar, bulk
mode retires through this kernel, and within bulk mode runs shorter
than :data:`VEC_MIN_RUN` take the batched per-access loop (column
setup costs a fixed ~30 NumPy calls, which short runs cannot
amortize).  All three paths are exact, so the choice -- a
deterministic function of simulation state -- never affects
observables.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.caches.block import L1Line, MESI
from repro.common.addressing import BLOCK_SHIFT
from repro.kernel.batched import SCAN_WINDOW, SlotKernel

#: Minimum run length retired through the column pipeline.  Shorter
#: runs fall back to the batched per-access loop: the pipeline's fixed
#: NumPy-call overhead (~30 calls) beats ~0.35us/access iteration only
#: past roughly this length.
VEC_MIN_RUN = 96

#: Accesses classified per vectorized scan.  Unlike the scalar scan --
#: which stops at the first unsafe access and pays per access walked --
#: the vectorized scan pays a fixed cost for the whole window, so it
#: wants a window long enough to feed several bulk runs.
VEC_SCAN_WINDOW = 4096

#: A vectorized scan that yields a prefix shorter than this did not
#: amortize its fixed cost; the next scan uses the scalar walk (which
#: is cheaper exactly when the prefix is short), returning to the
#: vectorized scan once a scalar scan fills its whole window again.
VEC_SCAN_MIN_PREFIX = 128

# ----------------------------------------------------------------------
# Exact columnar LRU classification
# ----------------------------------------------------------------------
def _compact_ids(combined: np.ndarray, mirror) -> tuple:
    """Map block numbers to dense small-integer ids.

    ``mirror`` (the sorted L2 membership column captured by the last
    vectorized scan) is an *accelerator*, not a source of truth: every
    value found in it gets its mirror index as id, values it does not
    cover (e.g. L1 residents filled by a scalar access since the scan)
    get fresh ids past the end, so id equality always coincides with
    block equality.  Returns ``(ids, id_block)`` where ``id_block``
    maps each id back to its block number.  Small ids make the sorts
    below radix sorts (int64 block numbers would time-sort ~6x
    slower).
    """
    if mirror is not None and len(mirror):
        base = len(mirror)
        ids = np.searchsorted(mirror, combined)
        np.minimum(ids, base - 1, out=ids)
        known = mirror[ids] == combined
        if known.all():
            return ids, mirror
        unknown = ~known
        extra, inverse = np.unique(combined[unknown],
                                   return_inverse=True)
        ids[unknown] = base + inverse
        return ids, np.concatenate([mirror, extra])
    id_block, ids = np.unique(combined, return_inverse=True)
    return ids, id_block


def _column_stream(blocks: np.ndarray, set_mask: int, ways: int,
                   od_sets, mirror) -> tuple:
    """Classify one LRU array's access stream as column operations.

    ``blocks`` is the (sub)sequence of block numbers presented to the
    array, in order; ``od_sets`` is the array's live per-set ordered
    mapping list (LRU-to-MRU), read only for the initial contents of
    the sets the stream touches.  Returns ``(flags, touched, ids,
    id_block)``:

    * ``flags[i]`` -- True iff access ``i`` hits, under the scalar
      semantics that every access leaves its block at MRU (hits touch,
      misses fill and evict the LRU block of a full set);
    * ``touched`` -- the distinct stream blocks in ascending
      last-occurrence order (moving each to MRU in this order
      reproduces the final recency state of the whole stream);
    * ``ids`` / ``id_block`` -- per-access compact block ids and the
      id-to-block map (for derived per-block aggregations).
    """
    n = len(blocks)
    if n == 0:
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(0, dtype=bool), [], empty, empty
    # Initial residency enters as a *virtual prefix*: replaying a
    # set's contents in LRU-to-MRU order into an empty array recreates
    # the set exactly (<= W distinct fills, no evictions), after which
    # hit flags depend only on the combined sequence.
    sets_dtype = np.uint16 if set_mask < 65536 else np.int64
    sets_stream = (blocks & set_mask).astype(sets_dtype)
    virtual: List[int] = []
    for set_index in np.flatnonzero(
            np.bincount(sets_stream, minlength=set_mask + 1)).tolist():
        virtual.extend(od_sets[set_index].keys())
    if virtual:
        combined = np.concatenate([
            np.asarray(virtual, dtype=np.int64), blocks])
    else:
        combined = blocks
    m = len(combined)
    ids, id_block = _compact_ids(combined, mirror)
    keys = ids.astype(np.uint16) if len(id_block) < 65536 else ids
    # Chain equal blocks with a stable value sort: within a chain,
    # positions stay in stream order, so chain neighbours are previous
    # and next occurrences.
    value_order = np.argsort(keys, kind="stable")
    chained = keys[value_order]
    chain_start = np.empty(m, dtype=bool)
    chain_start[0] = True
    np.not_equal(chained[1:], chained[:-1], out=chain_start[1:])
    prev = np.full(m, -1, dtype=np.int64)
    linked = ~chain_start[1:]
    prev[value_order[1:][linked]] = value_order[:-1][linked]
    # Last occurrences (chain ends) at or past the virtual prefix are
    # the stream-touched blocks; sorted by position they give the
    # final recency order.
    chain_end = np.empty(m, dtype=bool)
    chain_end[-1] = True
    chain_end[:-1] = chain_start[1:]
    last_positions = value_order[chain_end]
    last_positions = last_positions[last_positions >= m - n]
    last_positions.sort()
    touched = combined[last_positions].tolist()
    # Group by set (stable, so within-set order is preserved); every
    # comparison below happens inside one group.  ``prev`` chains stay
    # within a group (same block implies same set), so chasing them
    # through ``group_rank`` yields group-local predecessors.
    sets_combined = (combined & set_mask).astype(sets_dtype)
    group_order = np.argsort(sets_combined, kind="stable")
    grouped_sets = sets_combined[group_order]
    group_start = np.empty(m, dtype=bool)
    group_start[0] = True
    np.not_equal(grouped_sets[1:], grouped_sets[:-1],
                 out=group_start[1:])
    grouped = keys[group_order]
    eq_prev = np.empty(m, dtype=bool)
    eq_prev[0] = False
    np.equal(grouped[1:], grouped[:-1], out=eq_prev[1:])
    prev_of_grouped = prev[group_order]
    has_prev = prev_of_grouped >= 0
    if ways == 1:
        # One way: hit iff the previous same-set access was this very
        # block, i.e. the grouped predecessor equals it (equal
        # adjacent values are necessarily in the same group).
        flags_grouped = eq_prev
    elif ways == 2:
        # Two ways: the set holds the last two distinct same-set
        # values.  The most recent is the grouped predecessor; the
        # second is the value just before the maximal equal run ending
        # at the predecessor.  A block hits iff its previous
        # occurrence is at or after that run-start-minus-one position.
        group_rank = np.empty(m, dtype=np.int64)
        group_rank[group_order] = np.arange(m)
        # prev_of_grouped == -1 wraps to a garbage rank; has_prev
        # masks those positions.
        prev_rank = group_rank[prev_of_grouped]
        run_change = group_start | ~eq_prev
        run_start = np.maximum.accumulate(
            np.where(run_change, np.arange(m), -1))
        pred_run_start = np.empty(m, dtype=np.int64)
        pred_run_start[0] = 0
        pred_run_start[1:] = run_start[:-1]
        flags_grouped = has_prev & (prev_rank >= pred_run_start - 1)
    else:
        # Wide arrays: a set whose distinct-block count fits the ways
        # never evicts (every re-occurrence hits); the rest get an
        # exact per-set LRU replay.
        flags_grouped = has_prev
        first_positions = value_order[chain_start]
        distinct_per_set = np.bincount(
            sets_combined[first_positions])
        starts = np.flatnonzero(group_start)
        ends = np.append(starts[1:], m)
        replay = distinct_per_set[grouped_sets[starts]] > ways
        for index in np.flatnonzero(replay).tolist():
            begin, end = int(starts[index]), int(ends[index])
            resident: dict = {}
            flags: List[bool] = []
            for block in grouped[begin:end].tolist():
                if block in resident:
                    del resident[block]
                    resident[block] = None
                    flags.append(True)
                else:
                    if len(resident) >= ways:
                        del resident[next(iter(resident))]
                    resident[block] = None
                    flags.append(False)
            flags_grouped[begin:end] = flags
    flags = np.empty(m, dtype=bool)
    flags[group_order] = flags_grouped
    return flags[m - n:], touched, ids[m - n:], id_block


def lru_hit_flags(blocks: np.ndarray, set_mask: int, ways: int,
                  od_sets) -> np.ndarray:
    """Exact per-access hit flags for one LRU array's access stream
    (see :func:`_column_stream`, of which this is the flags half)."""
    if len(blocks) == 0:
        return np.zeros(0, dtype=bool)
    return _column_stream(np.asarray(blocks, dtype=np.int64),
                          set_mask, ways, od_sets, None)[0]


def _last_occurrence_order(blocks: np.ndarray) -> List[int]:
    """Distinct blocks of ``blocks`` ordered by last occurrence
    (earliest-last first) -- the order in which moving each to MRU
    reproduces the final recency state of the whole sequence."""
    order = np.argsort(blocks, kind="stable")
    chained = blocks[order]
    chain_end = np.empty(len(blocks), dtype=bool)
    chain_end[-1] = True
    np.not_equal(chained[1:], chained[:-1], out=chain_end[:-1])
    positions = order[chain_end]
    positions.sort()
    return blocks[positions].tolist()


class ColumnarSlotKernel(SlotKernel):
    """A :class:`SlotKernel` whose scan and retirement are columnar.

    Drop-in for :func:`repro.kernel.batched.drive_batched`: the driver
    machinery (horizons, journal absorption, adaptive degraded mode)
    is inherited unchanged, so every exactness argument of the batched
    kernel applies; only *how* a classified safe run is processed
    differs, and only when the run is long enough to amortize the
    column setup (:data:`VEC_MIN_RUN`).
    """

    __slots__ = ("_np_ops", "_np_blocks", "_vec_scan", "_mirror")

    def __init__(self, core: int, hier, stats, shadow, latency,
                 ops: np.ndarray, addresses: np.ndarray) -> None:
        super().__init__(core, hier, stats, shadow, latency, ops,
                         addresses)
        self._np_ops = np.asarray(ops, dtype=np.int8)
        self._np_blocks = (np.asarray(addresses, dtype=np.int64)
                           >> BLOCK_SHIFT)
        self._vec_scan = True
        self._mirror = None

    # ------------------------------------------------------------------
    # Vectorized classification
    # ------------------------------------------------------------------
    def _scan(self, pos: int) -> None:
        """Classify the upcoming window against an L2 membership mirror.

        Sync point: the mirror (sorted resident blocks + a shared flag)
        is rebuilt from the live object model at every scan, so it can
        never be staler than the cached classification it produces --
        which the inherited epoch/journal machinery already guards.
        When the previous vectorized scan could not amortize its fixed
        cost (short prefix), the scan alternates back to the scalar
        walk, which is cheaper exactly then; both produce the same
        classification, so the choice never affects observables.
        """
        if not self._vec_scan:
            super()._scan(pos)
            if self._cls_safe_end - pos >= SCAN_WINDOW:
                self._vec_scan = True
            return
        end = min(pos + VEC_SCAN_WINDOW, self.length)
        blocks = self._np_blocks[pos:end]
        ops = self._np_ops[pos:end]
        l2_index = self._l2_index
        resident_count = len(l2_index)
        if resident_count == 0:
            prefix = 0
            self._mirror = None
        else:
            mirror = np.fromiter(l2_index.keys(), dtype=np.int64,
                                 count=resident_count)
            shared = np.fromiter(
                (line.state is MESI.S for line in l2_index.values()),
                dtype=bool, count=resident_count)
            sort = np.argsort(mirror)
            mirror = mirror[sort]
            shared = shared[sort]
            # Kept for retirement: blocks the mirror covers get their
            # mirror index as compact sort key (see _compact_ids).
            self._mirror = mirror
            slot = np.searchsorted(mirror, blocks)
            slot = np.minimum(slot, resident_count - 1)
            safe = mirror[slot] == blocks
            safe &= ~((ops == 1) & shared[slot])
            prefix = (len(blocks) if safe.all()
                      else int(np.argmin(safe)))
        if prefix:
            gains = np.where(ops[:prefix] == 1, self._w_step,
                             self._r1_step)
            cum = np.cumsum(gains, dtype=np.int64).tolist()
        else:
            cum = []
        # The scan read live L2 state, so any pending journal entries
        # are already reflected; drop them and sync the epoch.
        hier = self.hier
        del hier.shrink_log[:]
        self._cls_epoch = hier.epoch
        self._cls_base = pos
        self._cls_safe_end = pos + prefix
        self._cls_capped = pos + prefix == end
        self._cls_cum = cum
        if prefix < VEC_SCAN_MIN_PREFIX and end - pos >= VEC_SCAN_MIN_PREFIX:
            self._vec_scan = False

    # ------------------------------------------------------------------
    # Columnar bulk retirement
    # ------------------------------------------------------------------
    def retire_run(self, pos: int, end: int, clock: int,
                   limit: int) -> tuple:
        """Retire classified safe hits ``[pos, end)`` as column
        operations; bit-identical to :meth:`SlotKernel.retire_run`."""
        if end - pos < VEC_MIN_RUN:
            return SlotKernel.retire_run(self, pos, end, clock, limit)
        min_step = (self._w_step if self._w_step < self._r1_step
                    else self._r1_step)
        cap = pos + (limit - clock) // min_step + 1
        if cap < end:
            end = cap
            if end - pos < VEC_MIN_RUN:
                return SlotKernel.retire_run(self, pos, end, clock,
                                             limit)
        ops = self._np_ops[pos:end]
        blocks = self._np_blocks[pos:end]
        is_write = ops == 1
        is_ifetch = ops == 2
        has_ifetch = bool(is_ifetch.any())
        # Exact per-access L1 hit flags.  The L1D sees reads *and*
        # writes (the scalar write path touches or fills the L1D even
        # though its hit level is not observable), the L1I sees
        # ifetches; each stream is classified against its own array.
        # The classification pass also yields each stream's final
        # recency order and per-access block ids, reused below.
        mirror = self._mirror
        if has_ifetch:
            data_positions = np.flatnonzero(~is_ifetch)
            ifetch_positions = np.flatnonzero(is_ifetch)
            l1_hit = np.empty(len(ops), dtype=bool)
            flags, touched_data, data_ids, id_block = _column_stream(
                blocks[data_positions], self._l1d_mask,
                self._l1d_ways, self._l1d_sets, mirror)
            l1_hit[data_positions] = flags
            flags, touched_ifetch, _, _ = _column_stream(
                blocks[ifetch_positions], self._l1i_mask,
                self._l1i_ways, self._l1i_sets, mirror)
            l1_hit[ifetch_positions] = flags
        else:
            l1_hit, touched_data, data_ids, id_block = _column_stream(
                blocks, self._l1d_mask, self._l1d_ways,
                self._l1d_sets, mirror)
            touched_ifetch: List[int] = []
        # Clocks are a prefix sum of the three class constants; the
        # scalar loop stops before the first access whose entry clock
        # reaches the limit, so the retired count is a searchsorted
        # over the (strictly increasing) entry clocks.
        steps = np.where(
            is_write, self._w_step,
            np.where(l1_hit, self._r1_step, self._r2_step)
        ).astype(np.int64)
        cum = np.cumsum(steps)
        retired = int(np.searchsorted(cum[:-1], limit - clock,
                                      side="left")) + 1
        new_clock = int(clock + cum[retired - 1])
        capped = retired < len(ops)
        if capped:
            # The pre-computed per-stream orders and ids cover the
            # whole window; recompute them on the retired prefix.
            blocks = blocks[:retired]
            is_write = is_write[:retired]
            is_ifetch = is_ifetch[:retired]
            l1_hit = l1_hit[:retired]
            has_ifetch = bool(is_ifetch.any())
            if has_ifetch:
                data_blocks = blocks[~is_ifetch]
                ifetch_blocks = blocks[is_ifetch]
                touched_ifetch = (_last_occurrence_order(ifetch_blocks)
                                  if len(ifetch_blocks) else [])
            else:
                data_blocks = blocks
                touched_ifetch = []
            touched_data = (_last_occurrence_order(data_blocks)
                            if len(data_blocks) else [])
        reads = ~is_write
        n_writes = int(np.count_nonzero(is_write))
        n_l1 = int(np.count_nonzero(reads & l1_hit))
        n_l2 = retired - n_writes - n_l1
        # Store finalization: the scalar path bumps the shadow version
        # once per store and leaves the L2 line M/dirty at the final
        # version, so per-block store *counts* determine the end state.
        if n_writes:
            latest = self._shadow_latest
            latest_get = latest.get
            l2_index = self._l2_index
            mesi_m = MESI.M
            if capped:
                written, counts = np.unique(blocks[is_write],
                                            return_counts=True)
                pairs = zip(written.tolist(), counts.tolist())
            else:
                write_in_data = (is_write[data_positions] if has_ifetch
                                 else is_write)
                counts = np.bincount(data_ids[write_in_data])
                nonzero = np.flatnonzero(counts)
                pairs = zip(id_block[nonzero].tolist(),
                            counts[nonzero].tolist())
            for block, count in pairs:
                version = latest_get(block, 0) + count
                latest[block] = version
                line = l2_index[block]
                line.state = mesi_m
                line.dirty = True
                line.version = version
        # L2 recency: every access touches its block to MRU, so the
        # final order moves each distinct touched block to MRU in
        # last-occurrence order (membership never changes in a safe
        # run).  With no ifetches the data stream *is* the run, so its
        # recency order is reused; mixed runs merge the streams.
        l2_sets = self._l2_sets
        l2_mask = self._l2_mask
        l2_order = (_last_occurrence_order(blocks) if has_ifetch
                    else touched_data)
        for block in l2_order:
            l2_sets[block & l2_mask].move_to_end(block)
        # L1 content: the final state of a touched set is the W most
        # recently used distinct blocks -- initial residents (minus
        # those re-touched) below, run-touched blocks above.
        self._rebuild_l1(touched_data, self._l1d_sets,
                         self._l1d_index, self._l1d_mask,
                         self._l1d_ways)
        if touched_ifetch:
            self._rebuild_l1(touched_ifetch, self._l1i_sets,
                             self._l1i_index, self._l1i_mask,
                             self._l1i_ways)
        stats = self.stats
        stats.cycles[self.core] = new_clock
        stats.accesses[self.core] += retired
        stats.l1_hits += n_l1
        stats.l2_hits += n_l2
        if n_l1 or n_l2:
            read_buckets = stats.read_latency_buckets
            read_buckets[self._r1_bucket] += n_l1
            read_buckets[self._r2_bucket] += n_l2
        if n_writes:
            stats.write_latency_buckets[self._w_bucket] += n_writes
        return pos + retired, new_clock

    @staticmethod
    def _rebuild_l1(touched_order: List[int], od_sets, index,
                    set_mask: int, ways: int) -> None:
        """Write the reconstructed final state of every touched set
        back to the object model (the run-boundary sync point).
        ``touched_order`` is the stream's distinct blocks in
        last-occurrence order (from :func:`_column_stream`)."""
        if not touched_order:
            return
        touched_by_set: dict = {}
        for block in touched_order:
            touched_by_set.setdefault(block & set_mask,
                                      []).append(block)
        for set_index, touched in touched_by_set.items():
            od = od_sets[set_index]
            touched_set = set(touched)
            stack = [block for block in od if block not in touched_set]
            stack += touched
            final = stack[-ways:]
            final_set = set(final)
            existing = dict(od)
            od.clear()
            for block in final:
                line = existing.get(block)
                if line is None:
                    line = L1Line(block)
                    index[block] = line
                od[block] = line
            for block in existing:
                if block not in final_set:
                    del index[block]


__all__ = ["ColumnarSlotKernel", "VEC_MIN_RUN", "VEC_SCAN_MIN_PREFIX",
           "VEC_SCAN_WINDOW", "lru_hit_flags"]
