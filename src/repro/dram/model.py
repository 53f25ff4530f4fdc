"""Open-page DRAM timing and traffic model.

The paper models memory with DRAMSim2 (DDR3-2133, two single-channel
controllers, eight banks, 1 KB row buffers). The figures only consume
aggregate DRAM latency and read/write traffic, so this substitute keeps the
pieces that shape those quantities: channel/bank address interleaving and
an open-page row buffer per bank that converts spatial locality into
row-hit latencies.
"""

from __future__ import annotations

from typing import List

from repro.common.addressing import BLOCK_BYTES
from repro.common.config import DramConfig
from repro.common.stats import SystemStats


class DramModel:
    """Latency and traffic accounting for one socket's memory channels."""

    def __init__(self, config: DramConfig, stats: SystemStats) -> None:
        self._stats = stats
        # Address interleaving and timing, as plain ints: blocks go
        # round-robin over channels; one row spans ``row_bytes`` of
        # every channel, and rows go round-robin over a channel's banks.
        self._channels = config.channels
        self._banks_per_channel = config.banks_per_channel
        self._row_span = config.channels * (config.row_bytes // BLOCK_BYTES)
        self._row_hit_cycles = config.row_hit_cycles
        self._row_miss_cycles = config.row_miss_cycles
        n_banks = config.channels * config.banks_per_channel
        self._open_rows: List[int] = [-1] * n_banks

    # ------------------------------------------------------------------
    def _access(self, block: int) -> int:
        row = block // self._row_span
        per_channel = self._banks_per_channel
        bank = (block % self._channels) * per_channel + row % per_channel
        if self._open_rows[bank] == row:
            self._stats.dram_row_hits += 1
            return self._row_hit_cycles
        self._open_rows[bank] = row
        self._stats.dram_row_misses += 1
        return self._row_miss_cycles

    # ------------------------------------------------------------------
    def read(self, block: int) -> int:
        """Read ``block``; returns the access latency in core cycles."""
        self._stats.dram_reads += 1
        return self._access(block)

    def write(self, block: int, from_entry_eviction: bool = False) -> int:
        """Write ``block``; returns latency (off the critical path for
        ordinary writebacks, but charged for ZeroDEV's synchronous
        read-modify-write of corrupted blocks).

        ``from_entry_eviction`` tags DRAM writes caused by directory-entry
        eviction, the <0.5% statistic of Section III-D3.
        """
        self._stats.dram_writes += 1
        if from_entry_eviction:
            self._stats.dram_writes_entry_eviction += 1
        return self._access(block)
