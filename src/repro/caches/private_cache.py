"""Per-core private cache hierarchy: split L1I/L1D over a unified L2.

The L2 is the coherence endpoint of a core (the sparse directory tracks L2
contents) and is inclusive of both L1s, so an L2 eviction back-invalidates
the L1 copy silently while the L2 eviction itself is notified to the
directory -- matching Section III-A: "All evictions from the private cache
hierarchy are notified to the sparse directory".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.caches.block import L1Line, L2Line, MESI
from repro.caches.set_assoc import SetAssocCache
from repro.common.config import CacheGeometry
from repro.common.errors import ProtocolInvariantError
from repro.obs.events import EventKind

#: ``read_hit_level`` results for a read served by the L1 or the L2
#: (a core-cache miss returns None).
L1_HIT = 1
L2_HIT = 2


@dataclass
class EvictionNotice:
    """An L2 eviction to be reported to the home directory slice.

    ``state`` is the coherence state at eviction time; M-state notices
    carry the block data (a full writeback), E/S notices are dataless
    (ZeroDEV's E notices additionally carry the fused-block low bits).
    """

    core: int
    block: int
    state: MESI
    version: int
    is_code: bool


class PrivateHierarchy:
    """One core's L1I + L1D + L2 stack."""

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, core: int, l1i: CacheGeometry, l1d: CacheGeometry,
                 l2: CacheGeometry) -> None:
        self.core = core
        self._l1i: SetAssocCache[L1Line] = SetAssocCache(l1i)
        self._l1d: SetAssocCache[L1Line] = SetAssocCache(l1d)
        self._l2: SetAssocCache[L2Line] = SetAssocCache(l2)
        # Hit-path views: each array's per-set LRU maps and set mask
        # (created once, mutated in place), so a hit touches recency
        # without a call into the cache object.
        self._l1i_sets, self._l1i_mask = self._l1i.sets, self._l1i.set_mask
        self._l1d_sets, self._l1d_mask = self._l1d.sets, self._l1d.set_mask
        self._l2_sets, self._l2_mask = self._l2.sets, self._l2.set_mask
        #: Safety-shrink journal for the batched kernel (repro.kernel):
        #: ``epoch`` is bumped and the affected block appended to
        #: ``shrink_log`` by every mutation that can make a previously
        #: safe hit unsafe (invalidation, downgrade, re-state to S, and
        #: the L2 *victim* of a fill).  Mutations that only extend
        #: safety -- the fill itself, the upgrade grant to E, the
        #: silent E->M of commit_write -- deliberately do not, because
        #: the kernel's cached classification is allowed to
        #: under-approximate (an unclassified hit just takes the scalar
        #: hit path).  The kernel is the journal's single consumer and
        #: clears it as it reconciles.
        self.epoch = 0
        self.shrink_log: List[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def probe(self, block: int) -> Optional[MESI]:
        """Coherence state of ``block`` in this core, or None."""
        line = self._l2.peek(block)
        return line.state if line else None

    def line_of(self, block: int) -> Optional[L2Line]:
        return self._l2.peek(block)

    def cached_blocks(self):
        """All blocks resident in the L2 (the directory-visible set)."""
        return [line.block for line in self._l2.lines()]

    def __contains__(self, block: int) -> bool:
        return block in self._l2

    # ------------------------------------------------------------------
    # Lookups from the core
    # ------------------------------------------------------------------
    def read_hit_level(self, block: int, code: bool) -> Optional[int]:
        """Service a read/ifetch locally if possible.

        Returns :data:`L1_HIT` or :data:`L2_HIT` on a hit (filling the
        L1 on an L2 hit), or None on a core-cache miss.
        """
        if code:
            l1_set = self._l1i_sets[block & self._l1i_mask]
        else:
            l1_set = self._l1d_sets[block & self._l1d_mask]
        l2_set = self._l2_sets[block & self._l2_mask]
        if block in l1_set:
            l1_set.move_to_end(block)
            l2_set.move_to_end(block)   # keep L2 recency in sync
            return L1_HIT
        if block not in l2_set:
            return None
        l2_set.move_to_end(block)
        # L1 victim needs no action.
        (self._l1i if code else self._l1d).insert(L1Line(block))
        return L2_HIT

    def write_hit_state(self, block: int) -> Optional[MESI]:
        """Current state for a store to ``block`` (touches, fills L1D)."""
        l2_set = self._l2_sets[block & self._l2_mask]
        line = l2_set.get(block)
        if line is None:
            return None
        l2_set.move_to_end(block)
        l1_set = self._l1d_sets[block & self._l1d_mask]
        if block in l1_set:
            l1_set.move_to_end(block)
        else:
            self._l1d.insert(L1Line(block))
        return line.state

    def commit_write(self, block: int, version: int) -> None:
        """Commit a store: requires M or E; E upgrades to M silently."""
        line = self._l2_sets[block & self._l2_mask].get(block)
        if line is None or line.state is MESI.S:
            raise ProtocolInvariantError(
                f"core {self.core} writing block {block:#x} without "
                f"ownership (state={line.state if line else None})")
        line.state = MESI.M
        line.dirty = True
        line.version = version

    # ------------------------------------------------------------------
    # Fills and coherence actions from the uncore
    # ------------------------------------------------------------------
    def fill(self, block: int, state: MESI, version: int,
             code: bool) -> List[EvictionNotice]:
        """Install ``block`` after a miss; returns L2 eviction notices."""
        if block in self._l2_sets[block & self._l2_mask]:
            raise ProtocolInvariantError(
                f"double fill of block {block:#x} in core {self.core}")
        notices: List[EvictionNotice] = []
        victim = self._l2.insert(
            L2Line(block, state, version, state is MESI.M, code))
        if victim is not None:
            # L2 is inclusive of both L1s: the victim leaves them first,
            # so the fill below sees the way it frees.
            evicted = victim.block
            self.epoch += 1
            self.shrink_log.append(evicted)
            self._l1i.remove(evicted)
            self._l1d.remove(evicted)
            if self.obs is not None:
                self.obs.emit(EventKind.L2_EVICT, block=evicted,
                              core=self.core, cause=victim.state.name)
            notices.append(EvictionNotice(self.core, evicted, victim.state,
                                          victim.version, victim.is_code))
        (self._l1i if code else self._l1d).insert(L1Line(block))
        return notices

    def invalidate(self, block: int, cause: str = "") -> Optional[L2Line]:
        """Remove ``block`` everywhere; returns the L2 line if present.

        ``cause`` tags the resulting PRIV_INV trace event with what made
        the copy die (``dev`` / ``getx`` / ``inclusion`` / ``socket`` --
        see :class:`repro.obs.events.InvCause`).
        """
        self.epoch += 1
        self.shrink_log.append(block)
        self._l1i.remove(block)
        self._l1d.remove(block)
        line = self._l2.remove(block)
        if line is not None and self.obs is not None:
            self.obs.emit(EventKind.PRIV_INV, block=block,
                          core=self.core, cause=cause)
        return line

    def downgrade_to_s(self, block: int) -> L2Line:
        """Owner response to a forwarded GETS: M/E -> S, supply data."""
        line = self._l2.peek(block)
        if line is None or line.state is MESI.S:
            raise ProtocolInvariantError(
                f"core {self.core} asked to downgrade block {block:#x} "
                f"it does not own")
        self.epoch += 1
        self.shrink_log.append(block)
        line.state = MESI.S
        line.dirty = False
        return line

    def refresh_version(self, block: int, version: int) -> None:
        """Apply a hybrid UPDATE push: refresh an S copy's data in place.

        The line stays S (the update protocol keeps every sharer
        readable, nobody gains ownership) and stays clean -- the writer
        writes the new version through to the LLC, so the pushed copy
        never needs writing back.  No journal entry: safety shrinks only
        when membership or S-ness changes, and a version refresh changes
        neither (S writes are already classified unsafe).
        """
        line = self._l2.peek(block)
        if line is None or line.state is not MESI.S:
            raise ProtocolInvariantError(
                f"core {self.core} received an update for block "
                f"{block:#x} it does not share "
                f"(state={line.state if line else None})")
        line.version = version

    def set_state(self, block: int, state: MESI) -> None:
        line = self._l2.peek(block)
        if line is None:
            raise ProtocolInvariantError(
                f"core {self.core} has no block {block:#x} to re-state")
        if state is MESI.S:
            # Losing ownership shrinks store safety; gaining it (the
            # upgrade grant to E) only extends safety and needs no
            # journal entry.
            self.epoch += 1
            self.shrink_log.append(block)
        line.state = state
