"""The baseline intra-socket coherence protocol (Section III-A).

One :class:`CMPSystem` models a socket: per-core private L1/L2 caches, a
banked shared LLC, a sparse directory slice beside each bank, a write-
invalidate MESI protocol with three-hop owner forwarding, eviction notices
for every private eviction, and -- the phenomenon this paper is about --
**directory eviction victims** (DEVs): private copies invalidated because
their sparse-directory entry was evicted.

Coherence transactions execute atomically in global order (see DESIGN.md
Section 2): the message sequences and their latency/traffic costs follow
the paper's protocol, while transient-race interleavings are serialized.
Data correctness is continuously verified against a shadow memory.

Subclasses (ZeroDEV in ``repro.core``, SecDir/MgD in ``repro.baselines``)
specialize the protected hook methods: entry lookup/allocation/free, LLC
victim handling, and the shared-read critical path.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.caches.block import LLCLine, LineKind, MESI
from repro.caches.llc import LLCBank
from repro.caches.private_cache import (L1_HIT, L2_HIT, EvictionNotice,
                                        PrivateHierarchy)
from repro.coherence.directory import SparseDirectory
from repro.coherence.entry import DirectoryEntry, DirState, EntryLocation
from repro.coherence.shadow import ShadowMemory
from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import LLCDesign, Protocol, SystemConfig
from repro.common.errors import ProtocolInvariantError
from repro.common.messages import MessageType as MT
from repro.common.stats import BUCKET_BY_BITS, SystemStats
from repro.dram.model import DramModel
from repro.interconnect.mesh import Mesh
from repro.obs.events import EventKind, InvCause
from repro.workloads.trace import Op


class CMPSystem:
    """One socket running the baseline sparse-directory MESI protocol."""

    #: Which Protocol enum value this class implements (sanity check).
    PROTOCOL = Protocol.BASELINE

    #: Seeded-mutation seam (repro.verify.mutations): names of armed
    #: protocol mutations. Empty on every real run; the verify layer
    #: arms these to prove its checkers catch the seeded bug.
    mutations: frozenset = frozenset()

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.stats = SystemStats(config.n_cores)
        #: Observability seam (repro.obs): None = tracing disabled, set
        #: to an EventBus by repro.obs.trace.attach for traced runs.
        self.obs = None
        self.shadow = ShadowMemory()
        self.mesh = Mesh(config.mesh, config.n_cores, config.llc_banks,
                         config.latency, self.stats)
        self.dram = DramModel(config.dram, self.stats)
        self.cores = [
            PrivateHierarchy(i, config.l1i, config.l1d, config.l2)
            for i in range(config.n_cores)
        ]
        self.banks = [
            LLCBank(b, config.llc_bank_sets, config.llc.ways,
                    config.llc_replacement, config.llc_banks)
            for b in range(config.llc_banks)
        ]
        self.directory = self._build_directory()
        self._dram_version = {}
        self._bank_mask = config.llc_banks - 1
        self._lat = lat = config.latency
        # Per-access constants, hoisted out of the config objects.
        self._l1_hit = lat.l1_hit
        self._l2_path = lat.l1_hit + lat.l2_hit   # L1 miss, L2 lookup
        self._home_lookup = lat.queueing + lat.llc_tag
        self._compute = lat.compute_per_access
        self._load_visible = lat.load_visibility_fraction
        self._store_visible = lat.store_visibility_fraction
        self._check_data = config.check_data
        self._epd = config.llc_design is LLCDesign.EPD
        #: Multi-socket composition seam: when set (by MultiSocketSystem),
        #: memory-side operations route through the inter-socket layer.
        self.memory_side = None
        self.node_id = 0

    def _build_directory(self) -> Optional[SparseDirectory]:
        dcfg = self.config.directory
        if not dcfg.present:
            return None
        return SparseDirectory(
            self.config.directory_entries, dcfg.ways,
            unbounded=dcfg.unbounded,
            replacement_disabled=dcfg.replacement_disabled)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def access(self, core: int, op: Op, address: int) -> int:
        """Execute one memory reference; returns its core-visible latency
        in cycles and advances the core's local clock.

        The read path and the per-access accounting (the latency bucket
        of ``SystemStats.record_latency``, the clock advance of
        ``advance_core``) run inline: every access pays for them.
        """
        block = address >> BLOCK_SHIFT
        stats = self.stats
        if op is Op.WRITE:
            latency = self._write(core, block)
            stats.write_latency_buckets[
                BUCKET_BY_BITS[latency.bit_length()]] += 1
        else:
            code = op is Op.IFETCH
            level = self.cores[core].read_hit_level(block, code)
            if level == L1_HIT:
                stats.l1_hits += 1
                latency = self._l1_hit
            elif level == L2_HIT:
                stats.l2_hits += 1
                latency = self._l2_path
            else:
                uncore, version = self._gets(core, block, code)
                if self._check_data:
                    self.shadow.check_read(block, version, "GETS response")
                # The OOO window hides part of the uncore latency (MLP).
                latency = self._l2_path + max(
                    1, int(uncore * self._load_visible))
            stats.read_latency_buckets[
                BUCKET_BY_BITS[latency.bit_length()]] += 1
        stats.cycles[core] += latency + self._compute
        stats.accesses[core] += 1
        return latency

    def bank_of(self, block: int) -> LLCBank:
        return self.banks[block & self._bank_mask]

    # ------------------------------------------------------------------
    # Core-side paths
    # ------------------------------------------------------------------
    def _write(self, core: int, block: int) -> int:
        hier = self.cores[core]
        state = hier.write_hit_state(block)
        if state is None:
            latency = self._l2_path + self._getx(core, block)
        elif state is MESI.S:
            stats = self.stats
            stats.l2_hits += 1
            stats.upgrades += 1
            latency = self._l2_path + self._upgrade(core, block)
        else:
            # M hit, or silent E->M transition.
            latency = self._l1_hit
        version = self.shadow.commit_write(block)
        hier.commit_write(block, version)
        # Stores drain through the store buffer; only a fraction of the
        # miss latency is exposed on the critical path.
        return max(1, int(latency * self._store_visible))

    # ------------------------------------------------------------------
    # GETS: read / instruction-fetch miss
    # ------------------------------------------------------------------
    def _gets(self, core: int, block: int, code: bool
              ) -> Tuple[int, int]:
        """Service a core read miss; returns (uncore latency, version)."""
        self.stats.core_cache_misses += 1
        bank_id = block & self._bank_mask
        bank = self.banks[bank_id]
        latency = (self.mesh.send_core_to_bank(MT.GETS, core, bank_id)
                   + self._home_lookup)
        entry, extra = self._find_entry(block)
        latency += extra
        llc_line = bank.lookup_data(block)

        if entry is None:
            latency, version, entry = self._fill_from_uncore(
                core, block, code, bank, llc_line, latency, exclusive=False)
        elif entry.state is DirState.ME:
            if entry.owner == core:
                raise ProtocolInvariantError(
                    f"core {core} missed on block {block:#x} it owns")
            fwd_latency, version = self._forward_gets(core, block, entry,
                                                      bank, llc_line)
            latency += fwd_latency
        else:
            serve_latency, version = self._shared_read(core, block, entry,
                                                       bank, llc_line)
            latency += serve_latency
            entry.add_sharer(core)

        state = MESI.S if (code or entry.state is DirState.S) else MESI.E
        for notice in self.cores[core].fill(block, state, version, code):
            self._process_notice(notice)
        return latency, version

    def _forward_gets(self, core: int, block: int, entry: DirectoryEntry,
                      bank: LLCBank, llc_line: Optional[LLCLine]
                      ) -> Tuple[int, int]:
        """Three-hop read: home forwards to the owner, owner responds."""
        owner = entry.owner
        assert owner is not None
        self.stats.forwarded_requests += 1
        owner_line = self.cores[owner].line_of(block)
        if owner_line is None:
            raise ProtocolInvariantError(
                f"directory says core {owner} owns block {block:#x} but "
                "it holds no copy")
        was_dirty = owner_line.state is MESI.M
        mesh = self.mesh
        latency = mesh.send_core_to_bank(MT.FWD_GETS, owner, bank.bank_id)
        latency += self._lat.l2_hit
        latency += mesh.send_core_to_core(MT.DATA, owner, core)
        line = self.cores[owner].downgrade_to_s(block)
        version = line.version
        # Busy-clear back to home; dirty data is written through to the
        # LLC so the shared copy has a safe backing (off critical path).
        mesh.send_core_to_bank(MT.WRITEBACK if was_dirty else MT.BUSY_CLEAR,
                               owner, bank.bank_id)
        old_state = entry.state
        entry.make_shared()
        entry.add_sharer(core)
        self._entry_state_changed(entry, old_state, bank)
        self._install_llc_data(bank, block, version, dirty=was_dirty)
        return latency, version

    def _shared_read(self, core: int, block: int, entry: DirectoryEntry,
                     bank: LLCBank, llc_line: Optional[LLCLine]
                     ) -> Tuple[int, int]:
        """Read of a block in directory state S."""
        usable, penalty = self._llc_serves_shared_read(entry, llc_line,
                                                       bank)
        if usable:
            assert llc_line is not None
            self.stats.llc_data_hits += 1
            latency = penalty + self._lat.llc_data
            latency += self.mesh.send_core_to_bank(MT.DATA, core,
                                                   bank.bank_id)
            return latency, llc_line.version
        # Block not (usably) in the LLC: forward to an elected sharer,
        # which responds directly (three hops), and refresh the LLC copy.
        self.stats.llc_data_misses += 1
        self.stats.llc_read_misses += 1
        self.stats.forwarded_requests += 1
        sharer = entry.any_sharer(exclude=core)
        sharer_line = self.cores[sharer].line_of(block)
        if sharer_line is None:
            raise ProtocolInvariantError(
                f"directory lists core {sharer} for block {block:#x} but "
                "it holds no copy")
        mesh = self.mesh
        latency = penalty + mesh.send_core_to_bank(MT.FWD_GETS, sharer,
                                                   bank.bank_id)
        latency += self._lat.l2_hit
        latency += mesh.send_core_to_core(MT.DATA, sharer, core)
        mesh.send_core_to_bank(MT.WRITEBACK, sharer, bank.bank_id)
        self._install_llc_data(bank, block, sharer_line.version,
                               dirty=sharer_line.dirty)
        return latency, sharer_line.version

    # ------------------------------------------------------------------
    # GETX / upgrade: write misses
    # ------------------------------------------------------------------
    def _getx(self, core: int, block: int) -> int:
        """Service a write miss (read-exclusive)."""
        self.stats.core_cache_misses += 1
        bank_id = block & self._bank_mask
        bank = self.banks[bank_id]
        mesh = self.mesh
        latency = (mesh.send_core_to_bank(MT.GETX, core, bank_id)
                   + self._home_lookup)
        entry, extra = self._find_entry(block)
        latency += extra
        llc_line = bank.lookup_data(block)
        if self.memory_side is not None and (
                entry is not None or (llc_line is not None
                                      and llc_line.kind is LineKind.DATA)):
            # The socket holds a valid copy: remote read copies (if any)
            # must be invalidated before granting ownership.
            latency += self.memory_side.acquire_exclusive(self, block)

        if entry is None:
            latency, version, entry = self._fill_from_uncore(
                core, block, code=False, bank=bank, llc_line=llc_line,
                latency=latency, exclusive=True)
        elif entry.state is DirState.ME:
            if entry.owner == core:
                raise ProtocolInvariantError(
                    f"core {core} write-missed on block {block:#x} it owns")
            owner = entry.owner
            assert owner is not None
            self.stats.forwarded_requests += 1
            latency += mesh.send_core_to_bank(MT.FWD_GETX, owner, bank_id)
            latency += self._lat.l2_hit
            latency += mesh.send_core_to_core(MT.DATA, owner, core)
            mesh.send_core_to_bank(MT.BUSY_CLEAR, owner, bank_id)
            line = self.cores[owner].invalidate(block,
                                                cause=InvCause.FWD_GETX)
            assert line is not None
            version = line.version
            old_state = entry.state
            entry.make_owned(core)
            self._entry_state_changed(entry, old_state, bank)
        else:
            # Shared block: invalidate every sharer; data from the LLC if
            # usable, else combined forward+invalidate to one sharer.
            version, inv_latency = self._invalidate_sharers(
                core, block, entry, bank, llc_line, need_data=True)
            latency += inv_latency
            old_state = entry.state
            entry.make_owned(core)
            self._entry_state_changed(entry, old_state, bank)
        if self._check_data:
            self.shadow.check_read(block, version, "GETX response")
        self._block_became_owned(bank, block)
        for notice in self.cores[core].fill(block, MESI.M, version, False):
            self._process_notice(notice)
        return latency

    def _upgrade(self, core: int, block: int) -> int:
        """S -> M permission request; the requester keeps its data."""
        bank_id = block & self._bank_mask
        bank = self.banks[bank_id]
        latency = (self.mesh.send_core_to_bank(MT.UPGRADE, core, bank_id)
                   + self._home_lookup)
        entry, extra = self._find_entry(block)
        latency += extra
        if entry is None or not entry.is_sharer(core):
            raise ProtocolInvariantError(
                f"upgrade by core {core} on block {block:#x} without a "
                "live directory entry: a private S copy must be tracked")
        if self.memory_side is not None:
            # Remote sockets' read copies go before a local write.
            latency += self.memory_side.acquire_exclusive(self, block)
        _, inv_latency = self._invalidate_sharers(
            core, block, entry, bank, bank.lookup_data(block),
            need_data=False)
        latency += inv_latency
        latency += self.mesh.send_core_to_bank(MT.ACK, core, bank_id)
        old_state = entry.state
        entry.make_owned(core)
        self._entry_state_changed(entry, old_state, bank)
        self._block_became_owned(bank, block)
        self.cores[core].set_state(block, MESI.E)   # grant; store makes M
        return latency

    def _invalidate_sharers(self, requester: int, block: int,
                            entry: DirectoryEntry, bank: LLCBank,
                            llc_line: Optional[LLCLine], need_data: bool
                            ) -> Tuple[int, int]:
        """Invalidate every sharer other than ``requester``.

        Returns (data version, critical-path latency). Acknowledgments are
        collected by the requester; the exposed latency is the slowest
        invalidation round plus the data-supply path when data is needed.
        """
        inv_path = 0
        data_version: Optional[int] = None
        mesh = self.mesh
        victims = [c for c in entry.sharer_cores() if c != requester]
        for sharer in victims:
            self.stats.invalidations_sent += 1
            to_sharer = mesh.send_core_to_bank(MT.INV, sharer, bank.bank_id)
            to_requester = mesh.send_core_to_core(MT.INV_ACK, sharer,
                                                  requester)
            inv_path = max(inv_path, to_sharer + self._lat.l2_hit
                           + to_requester)
            line = self.cores[sharer].invalidate(block,
                                                 cause=InvCause.GETX)
            assert line is not None
            data_version = line.version
            entry.remove_sharer(sharer)
        if not need_data:
            return 0, inv_path
        if llc_line is not None and llc_line.kind is LineKind.DATA:
            self.stats.llc_data_hits += 1
            data_path = (self._lat.llc_data + mesh.send_core_to_bank(
                MT.DATA, requester, bank.bank_id))
            return llc_line.version, max(data_path, inv_path)
        if data_version is None:
            raise ProtocolInvariantError(
                f"GETX on shared block {block:#x} with no data source")
        # Data rode along with the last invalidation acknowledgment.
        self.stats.llc_data_misses += 1
        return data_version, inv_path

    # ------------------------------------------------------------------
    # Fills from LLC or memory when no directory entry exists
    # ------------------------------------------------------------------
    def _fill_from_uncore(self, core: int, block: int, code: bool,
                          bank: LLCBank, llc_line: Optional[LLCLine],
                          latency: int, exclusive: bool
                          ) -> Tuple[int, int, DirectoryEntry]:
        """No live directory entry: serve from the LLC or main memory and
        allocate a fresh entry (the DEV-generating step in the baseline).

        In a multi-socket system the inter-socket layer (``memory_side``)
        resolves a fetch (home memory, or a downgrade / invalidation of
        remote sockets) and says whether the socket now holds the block
        exclusively at the system level: an E grant is only legal then.
        """
        memory_side = self.memory_side
        # Fused frames hold an entry over corrupted data: never usable.
        if llc_line is not None and llc_line.kind is LineKind.DATA:
            self.stats.llc_data_hits += 1
            latency += self._lat.llc_data + self.mesh.send_core_to_bank(
                MT.DATA, core, bank.bank_id)
            version = llc_line.version
            if (not exclusive and not code and memory_side is not None
                    and not memory_side.exclusive_grant_ok(self, block)):
                # Other sockets hold read copies: an E grant (and its
                # silent E->M) would leave them stale -- grant S.
                code = True
        else:
            if llc_line is not None:
                raise ProtocolInvariantError(
                    f"block {block:#x} has an LLC entry frame but no "
                    "directory entry was found")
            stats = self.stats
            stats.llc_data_misses += 1
            if not exclusive:
                stats.llc_read_misses += 1
            if memory_side is not None:
                fetch_latency, version, exclusive_ok = memory_side.fetch(
                    self, block, exclusive)
            else:
                fetch_latency = self._memory_fetch_latency(block)
                version = self._dram_version.get(block, 0)
                exclusive_ok = True
            latency += fetch_latency + self.mesh.send_core_to_bank(
                MT.DATA, core, bank.bank_id)
            # Demand fills allocate in the LLC -- except data fills in EPD.
            if code or not self._epd:
                self._install_llc_data(bank, block, version, dirty=False)
            if not exclusive_ok:
                # Other sockets hold read copies: only an S grant is
                # legal (a silent E->M would break socket-level MESI).
                code = True
        state = DirState.S if code else DirState.ME
        owner = None if code else core
        entry = self._allocate_entry(block, state, core, owner, bank)
        if not code and self._epd:
            # The block is now temporarily private: EPD de-allocates it.
            self._epd_deallocate(bank, block)
        return latency, version, entry

    def _memory_fetch_latency(self, block: int) -> int:
        """DRAM read for a demand fill (overridden for corrupted blocks)."""
        return self.dram.read(block)

    def _presence_lost(self, block: int, version: int) -> None:
        """The last copy of ``block`` left this socket (notify home)."""
        if self.memory_side is not None:
            self.memory_side.presence_lost(self, block, version)

    # ------------------------------------------------------------------
    # LLC management
    # ------------------------------------------------------------------
    def _llc_serves_shared_read(self, entry: DirectoryEntry,
                                llc_line: Optional[LLCLine],
                                bank: LLCBank) -> Tuple[bool, int]:
        """Hook: can the LLC serve a read to this shared block, and at
        what extra critical-path cost? (ZeroDEV policies override.)"""
        return llc_line is not None and llc_line.kind is LineKind.DATA, 0

    def _install_llc_data(self, bank: LLCBank, block: int, version: int,
                          dirty: bool) -> None:
        """Allocate or refresh the LLC copy of ``block``."""
        line = bank.lookup_data(block, touch=False)
        if line is not None:
            line.version = version
            line.dirty = line.dirty or dirty
            if line.kind is LineKind.FUSED:
                self._data_arrived_at_fused(bank, line)
            return
        victim = bank.insert(LLCLine(block, LineKind.DATA, dirty, version))
        if victim is not None:
            self._handle_llc_victim(bank, victim)
        self._data_allocated(bank, block)

    def _epd_deallocate(self, bank: LLCBank, block: int) -> None:
        line = bank.lookup_data(block, touch=False)
        if line is None:
            return
        if line.kind is not LineKind.DATA:
            raise ProtocolInvariantError(
                f"EPD de-allocation of block {block:#x} found a "
                f"{line.kind.value} frame")
        if line.dirty:
            # The owner has (or is about to produce) a newer version; the
            # LLC copy is redundant but must not be silently lost if it is
            # the only clean backing. Writing it back keeps memory sound.
            self._writeback_to_memory(line)
        bank.remove(line)

    def _block_became_owned(self, bank: LLCBank, block: int) -> None:
        """Hook called when a block transitions to M/E (EPD de-allocates;
        ZeroDEV FPSS re-locates a spilled entry into fused form)."""
        if self._epd:
            self._epd_deallocate(bank, block)

    def _data_arrived_at_fused(self, bank: LLCBank, line: LLCLine) -> None:
        """Hook: fresh data written into a frame holding a fused entry."""
        # Baseline never has fused frames.
        raise ProtocolInvariantError("fused frame in baseline protocol")

    def _data_allocated(self, bank: LLCBank, block: int) -> None:
        """Hook called after a new DATA frame is installed (FuseAll uses
        this to re-fuse a spilled entry with its returning block)."""

    def _writeback_to_memory(self, line: LLCLine) -> None:
        self.stats.llc_writebacks_to_dram += 1
        if self.memory_side is not None:
            self.memory_side.writeback(self, line.block, line.version)
            return
        self.dram.write(line.block)
        self._dram_version[line.block] = line.version
        self._memory_healed(line.block)

    def _memory_healed(self, block: int) -> None:
        """Hook: a real-data DRAM write un-corrupts the home block."""

    def _handle_llc_victim(self, bank: LLCBank, victim: LLCLine) -> None:
        """Process an LLC replacement victim (baseline: plain writeback;
        inclusive design adds back-invalidation)."""
        self.stats.llc_evictions += 1
        if victim.kind is not LineKind.DATA:
            raise ProtocolInvariantError(
                "baseline LLC should never hold directory-entry frames")
        if self.config.llc_design is LLCDesign.INCLUSIVE:
            self._back_invalidate(bank, victim)
        if victim.dirty:
            self._writeback_to_memory(victim)
        if self._peek_entry(victim.block) is None:
            # The LLC copy was the socket's last: tell the home socket.
            self._presence_lost(victim.block, victim.version)

    def _back_invalidate(self, bank: LLCBank, victim: LLCLine) -> None:
        """Inclusive LLC: evicting a block invalidates private copies."""
        entry, _ = self._find_entry(victim.block)
        if entry is None:
            return
        mesh = self.mesh
        for sharer in list(entry.sharer_cores()):
            self.stats.inclusion_invalidations += 1
            mesh.send_core_to_bank(MT.INV, sharer, bank.bank_id)
            mesh.send_core_to_bank(MT.INV_ACK, sharer, bank.bank_id)
            line = self.cores[sharer].invalidate(victim.block,
                                                 cause=InvCause.INCLUSION)
            assert line is not None
            if line.state is MESI.M:
                victim.version = line.version
                victim.dirty = True
            entry.remove_sharer(sharer)
        self._free_entry(entry, bank, evictor_version=victim.version)

    # ------------------------------------------------------------------
    # Directory-entry lifecycle (hooks overridden by ZeroDEV and others)
    # ------------------------------------------------------------------
    def _find_entry(self, block: int
                    ) -> Tuple[Optional[DirectoryEntry], int]:
        """Locate the directory entry for ``block``.

        Returns (entry or None, extra critical-path latency). The baseline
        only looks in the sparse directory, in parallel with the LLC tag
        lookup (zero extra latency).
        """
        assert self.directory is not None
        return self.directory.lookup(block), 0

    def _allocate_entry(self, block: int, state: DirState, requester: int,
                        owner: Optional[int], bank: LLCBank
                        ) -> DirectoryEntry:
        """Allocate a fresh entry, evicting an NRU victim if the set is
        full -- the step that manufactures DEVs in the baseline."""
        directory = self.directory
        assert directory is not None
        self.stats.dir_allocations += 1
        if not directory.has_room(block):
            victim = directory.choose_victim(block)
            directory.remove(victim.block)
            self._process_dev(victim)
        entry = DirectoryEntry(block, state, owner, 1 << requester)
        directory.insert(entry)
        return entry

    def _process_dev(self, victim: DirectoryEntry) -> None:
        """Invalidate every private copy the evicted entry was tracking."""
        stats = self.stats
        mesh = self.mesh
        block = victim.block
        stats.dir_evictions += 1
        if self.obs is not None:
            self.obs.emit(EventKind.DIR_EVICT, block=block,
                          cause=InvCause.DEV)
        bank_id = block & self._bank_mask
        bank = self.banks[bank_id]
        generated = False
        last_version = 0
        leak_one = "dev-leak-sharer" in self.mutations
        for sharer in victim.sharer_cores():
            if leak_one:
                # Seeded bug: the home drops the first sharer from the
                # entry without sending its invalidation, leaving a
                # live private copy the directory no longer tracks.
                leak_one = False
                victim.remove_sharer(sharer)
                continue
            generated = True
            stats.dev_invalidations += 1
            stats.invalidations_sent += 1
            mesh.send_core_to_bank(MT.INV, sharer, bank_id)
            line = self.cores[sharer].invalidate(block, cause=InvCause.DEV)
            assert line is not None
            last_version = line.version
            if line.state is MESI.M:
                # The dirty block is retrieved into the LLC (Section I-A1:
                # "dirty blocks were retrieved from the owner cores as
                # DEVs due to directory entry eviction").
                mesh.send_core_to_bank(MT.WRITEBACK, sharer, bank_id)
                self._install_llc_data(bank, block, line.version,
                                       dirty=True)
            else:
                mesh.send_core_to_bank(MT.INV_ACK, sharer, bank_id)
            victim.remove_sharer(sharer)
        if generated:
            stats.dev_events += 1
            if bank.peek_data(block) is None:
                self._presence_lost(block, last_version)

    def _free_entry(self, entry: DirectoryEntry, bank: LLCBank,
                    evictor_version: int = 0,
                    evictor_core: Optional[int] = None) -> None:
        """Release an entry whose last private copy went away."""
        if entry.location is not EntryLocation.SPARSE:
            raise ProtocolInvariantError(
                "baseline entries live only in the sparse directory")
        assert self.directory is not None
        self.directory.remove(entry.block)

    def _entry_state_changed(self, entry: DirectoryEntry,
                             old_state: DirState, bank: LLCBank) -> None:
        """Hook: entry moved between M/E and S (FPSS re-locates here)."""

    # ------------------------------------------------------------------
    # Private-cache eviction notices
    # ------------------------------------------------------------------
    def _process_notice(self, notice: EvictionNotice) -> None:
        """Handle one private-hierarchy eviction notice at the home."""
        block = notice.block
        bank_id = block & self._bank_mask
        bank = self.banks[bank_id]
        entry = self._find_entry_for_notice(block, bank)
        if entry is None:
            self._notice_without_entry(notice, bank)
            return
        if notice.state is MESI.M:
            self.mesh.send_core_to_bank(MT.WRITEBACK, notice.core, bank_id)
            self._install_llc_data(bank, block, notice.version, dirty=True)
        else:
            self.mesh.send_core_to_bank(self._clean_notice_kind(notice),
                                        notice.core, bank_id)
            if notice.state is MESI.E and self._epd:
                # EPD allocates the block in the LLC when it is evicted
                # from the owner core's private hierarchy (Section III-E).
                self._install_llc_data(bank, block, notice.version,
                                       dirty=False)
        entry.remove_sharer(notice.core)
        if entry.empty:
            self._free_entry(entry, bank, evictor_version=notice.version,
                             evictor_core=notice.core)
            if bank.peek_data(block) is None:
                # No LLC copy either: the block has left the socket.
                self._presence_lost(block, notice.version)
        else:
            self._notice_done(entry, bank)

    def _find_entry_for_notice(self, block: int, bank: LLCBank
                               ) -> Optional[DirectoryEntry]:
        """Entry lookup for the eviction-notice path.

        ZeroDEV overrides this with the GET_DE flow of Section III-D4
        (memory-housed entries are read and updated in place rather than
        promoted back into the socket).
        """
        entry, _ = self._find_entry(block)
        return entry

    def _notice_done(self, entry: DirectoryEntry, bank: LLCBank) -> None:
        """Hook after a notice updated a still-live entry (ZeroDEV writes
        memory-housed entries back here)."""

    def _clean_notice_kind(self, notice: EvictionNotice) -> MT:
        """Message type for a clean (E/S) eviction notice."""
        return MT.EVICT_CLEAN

    def _notice_without_entry(self, notice: EvictionNotice,
                              bank: LLCBank) -> None:
        """An eviction notice found no directory entry in the socket.

        Impossible in the baseline: a private copy always has a live entry
        (DEV invalidations enforce it). ZeroDEV overrides this with the
        GET_DE flow of Section III-D4.
        """
        raise ProtocolInvariantError(
            f"baseline eviction notice for untracked block "
            f"{notice.block:#x} from core {notice.core}")

    # ------------------------------------------------------------------
    # Invariant checking support (used heavily by the test-suite)
    # ------------------------------------------------------------------
    def _peek_entry(self, block: int) -> Optional[DirectoryEntry]:
        """Side-effect-free entry lookup (invariant checking only)."""
        assert self.directory is not None
        return self.directory.peek(block)

    def check_invariants(self) -> None:
        """Verify SWMR and directory precision over the whole socket."""
        tracked = {}
        for core, hier in enumerate(self.cores):
            for block in hier.cached_blocks():
                state = hier.probe(block)
                tracked.setdefault(block, []).append((core, state))
        for block, holders in tracked.items():
            owners = [c for c, s in holders if s is not MESI.S]
            if owners and len(holders) > 1:
                raise ProtocolInvariantError(
                    f"SWMR violated for block {block:#x}: {holders}")
            entry = self._peek_entry(block)
            if entry is None:
                raise ProtocolInvariantError(
                    f"block {block:#x} privately cached but untracked")
            holder_set = {c for c, _ in holders}
            entry_set = set(entry.sharer_cores())
            if holder_set != entry_set:
                raise ProtocolInvariantError(
                    f"directory imprecise for block {block:#x}: entry "
                    f"{sorted(entry_set)} vs caches {sorted(holder_set)}")
            if owners and entry.state is not DirState.ME:
                raise ProtocolInvariantError(
                    f"entry state S but core owns block {block:#x}")
