"""2D mesh interconnect model.

Table I specifies a 2D mesh with 1-cycle routing delay and 1-cycle link
latency. We model latency as ``hops * mesh_hop`` cycles with hop counts
from Manhattan distance between node coordinates, and we account traffic in
*injected bytes* (the quantity normalized in Figures 2 and 3).

Placement: cores and LLC banks are interleaved over the mesh in row-major
order, cores first. For the default 8-core, 8-bank socket on a 4x4 mesh
this gives the familiar arrangement of two rows of cores flanking two rows
of banks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.config import LatencyConfig, MeshConfig
from repro.common.errors import ConfigError
from repro.common.messages import MESSAGE_BYTES, MessageType
from repro.common.stats import SystemStats
from repro.obs.events import EventKind


class Mesh:
    """Hop-count and traffic accounting for one socket's mesh.

    The hop counts every message needs are precomputed at construction:
    ``core_bank_hops[core][bank]`` and ``core_core_hops[src][dst]``.
    Links are symmetric, so a bank-to-core response costs the hops of
    the core-to-bank request and both go through ``send_core_to_bank``.
    """

    #: Observability seam (repro.obs): None = tracing disabled.
    obs = None

    def __init__(self, config: MeshConfig, n_cores: int, n_banks: int,
                 latency: LatencyConfig, stats: SystemStats) -> None:
        n_nodes = config.width * config.height
        if n_cores + n_banks > n_nodes:
            raise ConfigError(
                f"mesh {config.width}x{config.height} has {n_nodes} nodes, "
                f"cannot place {n_cores} cores + {n_banks} banks")
        self._hop_cycles = latency.mesh_hop
        self._stats = stats
        self._coords: Dict[Tuple[str, int], Tuple[int, int]] = {}
        placement = ([("core", i) for i in range(n_cores)]
                     + [("bank", i) for i in range(n_banks)])
        for index, node in enumerate(placement):
            self._coords[node] = (index % config.width,
                                  index // config.width)
        self.core_bank_hops: List[List[int]] = [
            [self.hops(("core", core), ("bank", bank))
             for bank in range(n_banks)] for core in range(n_cores)]
        self.core_core_hops: List[List[int]] = [
            [self.hops(("core", src), ("core", dst))
             for dst in range(n_cores)] for src in range(n_cores)]

    # ------------------------------------------------------------------
    def hops(self, src: Tuple[str, int], dst: Tuple[str, int]) -> int:
        """Manhattan hop count between two placed nodes."""
        sx, sy = self._coords[src]
        dx, dy = self._coords[dst]
        return abs(sx - dx) + abs(sy - dy)

    def core_to_bank(self, core: int, bank: int) -> int:
        return self.core_bank_hops[core][bank]

    def core_to_core(self, src: int, dst: int) -> int:
        return self.core_core_hops[src][dst]

    # ------------------------------------------------------------------
    def send(self, kind: MessageType, hops: int) -> int:
        """Send one message; returns its latency and accounts traffic."""
        self._stats.record_message(kind)
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind.name)
        return hops * self._hop_cycles

    def send_core_to_bank(self, kind: MessageType, core: int,
                          bank: int) -> int:
        """Send one message between ``core`` and ``bank`` (either way).

        Nearly every message takes this path, so it does the
        accounting of ``SystemStats.record_message`` inline: one call
        per message.
        """
        stats = self._stats
        messages = stats.messages
        messages[kind] = messages.get(kind, 0) + 1
        stats.traffic_bytes += MESSAGE_BYTES[kind]
        if self.obs is not None:
            self.obs.emit(EventKind.MSG, cause=kind.name)
        return self.core_bank_hops[core][bank] * self._hop_cycles

    def send_bank_to_core(self, kind: MessageType, bank: int,
                          core: int) -> int:
        return self.send_core_to_bank(kind, core, bank)

    def send_core_to_core(self, kind: MessageType, src: int,
                          dst: int) -> int:
        return self.send(kind, self.core_core_hops[src][dst])
