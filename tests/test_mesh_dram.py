"""Unit tests for the mesh interconnect and the DRAM model."""

import pytest

from repro.common.config import (DramConfig, LatencyConfig, MeshConfig,
                                 scaled_socket)
from repro.common.errors import ConfigError
from repro.common.messages import MESSAGE_BYTES, MessageType
from repro.common.stats import SystemStats
from repro.dram.model import DramModel
from repro.harness.system_builder import build_system
from repro.interconnect.mesh import Mesh


def make_mesh(n_cores=8, n_banks=8, width=4, height=4):
    stats = SystemStats(n_cores)
    mesh = Mesh(MeshConfig(width, height), n_cores, n_banks,
                LatencyConfig(), stats)
    return mesh, stats


class TestMesh:
    def test_hops_are_manhattan(self):
        mesh, _ = make_mesh()
        # cores 0..7 fill rows 0-1, banks 0..7 fill rows 2-3 of a 4x4.
        assert mesh.core_to_core(0, 0) == 0
        assert mesh.core_to_core(0, 1) == 1
        assert mesh.core_to_core(0, 7) == 1 + 3   # (0,0) -> (3,1)
        assert mesh.core_to_bank(0, 0) == 2       # (0,0) -> (0,2)

    def test_send_returns_latency_and_records_traffic(self):
        mesh, stats = make_mesh()
        latency = mesh.send_core_to_bank(MessageType.GETS, 0, 0)
        assert latency == 2 * LatencyConfig().mesh_hop
        assert stats.messages[MessageType.GETS] == 1
        assert stats.traffic_bytes > 0

    def test_zero_hop_send_still_counts_traffic(self):
        mesh, stats = make_mesh()
        assert mesh.send_core_to_core(MessageType.INV_ACK, 2, 2) == 0
        assert stats.messages[MessageType.INV_ACK] == 1

    def test_symmetry(self):
        mesh, _ = make_mesh()
        for core in range(8):
            for bank in range(8):
                assert (mesh.core_to_bank(core, bank)
                        == mesh.hops(("bank", bank), ("core", core)))

    def test_rejects_overfull_mesh(self):
        with pytest.raises(ConfigError, match=(
                r"^mesh 4x4 has 16 nodes, cannot place 12 cores \+ 8 "
                r"banks$")):
            make_mesh(n_cores=12, n_banks=8, width=4, height=4)

    def test_every_send_accounts_its_table_bytes(self):
        mesh, stats = make_mesh()
        assert mesh.send(MessageType.WB_DE, 3) == 3 * LatencyConfig().mesh_hop
        mesh.send_bank_to_core(MessageType.DATA, 1, 2)
        mesh.send_core_to_core(MessageType.EVICT_CLEAN_BITS, 0, 5)
        assert stats.traffic_bytes == (MESSAGE_BYTES[MessageType.WB_DE]
                                       + MESSAGE_BYTES[MessageType.DATA]
                                       + MESSAGE_BYTES[
                                           MessageType.EVICT_CLEAN_BITS])


def row_major_distance(a: int, b: int, width: int) -> int:
    """Manhattan distance between placement slots ``a`` and ``b``."""
    return abs(a % width - b % width) + abs(a // width - b // width)


class TestHopTables:
    """Every entry of the precomputed tables equals the Manhattan
    distance of the row-major placement (cores first, then banks)."""

    def check(self, mesh, n_cores, n_banks, width):
        assert len(mesh.core_bank_hops) == len(mesh.core_core_hops) \
            == n_cores
        for core in range(n_cores):
            assert mesh.core_bank_hops[core] == [
                row_major_distance(core, n_cores + bank, width)
                for bank in range(n_banks)]
            assert mesh.core_core_hops[core] == [
                row_major_distance(core, other, width)
                for other in range(n_cores)]
            for bank in range(n_banks):
                assert mesh.core_to_bank(core, bank) == mesh.hops(
                    ("core", core), ("bank", bank))

    def test_default_socket(self):
        system = build_system(scaled_socket(16))
        assert (system.config.mesh.width, system.config.mesh.height) \
            == (4, 4)
        self.check(system.mesh, 8, 8, 4)

    def test_64_core_scaled_socket(self):
        config = scaled_socket(16, n_cores=64)
        system = build_system(config)
        mesh_config = system.config.mesh
        assert mesh_config.width * mesh_config.height >= 64 + 8
        self.check(system.mesh, 64, config.llc_banks, mesh_config.width)

    @pytest.mark.parametrize("width,height", [(3, 6), (8, 2)])
    def test_non_square_mesh(self, width, height):
        mesh, _ = make_mesh(n_cores=8, n_banks=8, width=width,
                            height=height)
        self.check(mesh, 8, 8, width)


class TestDram:
    def make(self, **kw):
        stats = SystemStats(1)
        return DramModel(DramConfig(**kw), stats), stats

    def test_row_miss_then_hit(self):
        dram, stats = self.make()
        config = DramConfig()
        first = dram.read(0)
        second = dram.read(2)    # same channel (even), same row
        assert first == config.row_miss_cycles
        assert second == config.row_hit_cycles
        assert stats.dram_row_misses == 1
        assert stats.dram_row_hits == 1

    def test_channel_interleaving(self):
        dram, stats = self.make()
        dram.read(0)
        dram.read(1)             # odd block -> other channel, own row
        assert stats.dram_row_misses == 2

    def test_write_counts_and_entry_tag(self):
        dram, stats = self.make()
        dram.write(0)
        dram.write(2, from_entry_eviction=True)
        assert stats.dram_writes == 2
        assert stats.dram_writes_entry_eviction == 1

    def test_reads_and_writes_share_row_buffer(self):
        dram, stats = self.make()
        dram.write(0)
        assert dram.read(2) == DramConfig().row_hit_cycles

    def test_far_block_misses_row(self):
        dram, stats = self.make()
        dram.read(0)
        dram.read(1 << 20)
        assert stats.dram_row_misses == 2
