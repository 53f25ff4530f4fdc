"""Unit tests for the message catalogue and statistics counters."""

import random

import pytest

from repro.common.addressing import BLOCK_SHIFT
from repro.common.messages import (CTRL_BYTES, DATA_BYTES, MESSAGE_BYTES,
                                   MessageType, message_bytes)
from repro.common.stats import (LATENCY_BUCKETS, SystemStats,
                                latency_bucket, makespan_speedup,
                                weighted_speedup)
from repro.harness.reporting import traffic_breakdown
from repro.verify.models import TRACE_CORES, model_matrix
from repro.workloads.trace import Op


class TestMessageBytes:
    def test_control_message(self):
        assert message_bytes(MessageType.GETS) == CTRL_BYTES

    def test_data_message(self):
        assert message_bytes(MessageType.DATA) == DATA_BYTES
        assert DATA_BYTES == CTRL_BYTES + 64

    def test_writeback_carries_data(self):
        assert message_bytes(MessageType.WRITEBACK) == DATA_BYTES

    def test_wb_de_carries_a_block(self):
        # A WB_DE message carries the 64-byte image W (Section III-D).
        assert message_bytes(MessageType.WB_DE) == DATA_BYTES

    def test_e_state_notice_carries_reconstruction_bits(self):
        assert message_bytes(MessageType.EVICT_CLEAN_BITS) == CTRL_BYTES + 1
        assert message_bytes(MessageType.EVICT_CLEAN) == CTRL_BYTES

    def test_denf_nack_is_control(self):
        assert message_bytes(MessageType.DENF_NACK) == CTRL_BYTES

    def test_every_type_has_a_size(self):
        for kind in MessageType:
            assert message_bytes(kind) >= CTRL_BYTES

    def test_table_covers_every_type(self):
        assert set(MESSAGE_BYTES) == set(MessageType)
        assert set(MESSAGE_BYTES.values()) == {CTRL_BYTES, CTRL_BYTES + 1,
                                               DATA_BYTES}

    def test_members_keep_their_str_form(self):
        assert str(MessageType.GETS) == "MessageType.GETS"
        assert {MessageType.GETS: 1}[MessageType["GETS"]] == 1


def _short_trace(n: int = 400, blocks: int = 24, seed: int = 7):
    """A fixed mixed-op trace over a few shared blocks."""
    rng = random.Random(seed)
    ops = (Op.READ, Op.READ, Op.WRITE, Op.IFETCH)
    return [(rng.randrange(TRACE_CORES), rng.choice(ops),
             rng.randrange(blocks) << BLOCK_SHIFT) for _ in range(n)]


@pytest.mark.parametrize("spec", model_matrix(), ids=lambda s: s.name)
def test_traffic_is_the_table_sum_of_messages(spec):
    """After a short run of every model, the traffic counter is the
    per-type message counts weighted by the one size table."""
    system = spec.build()
    for core, op, address in _short_trace():
        socket, local = spec.map_core(core)
        if spec.n_sockets == 1:
            system.access(local, op, address)
        else:
            system.access(socket, local, op, address)
    stats_list = system.stats if spec.n_sockets > 1 else [system.stats]
    for stats in stats_list:
        assert stats.messages
        assert stats.traffic_bytes == sum(
            message_bytes(kind) * count
            for kind, count in stats.messages.items())
        # The report's byte column reads the same table.
        report = traffic_breakdown(stats, top=len(MessageType))
        assert sum(int(line.split()[2].replace(",", ""))
                   for line in report.splitlines()[1:]) \
            == stats.traffic_bytes


class TestLatencyBuckets:
    @pytest.mark.parametrize("latency,bucket", [
        (0, 0), (1, 0), (2, 1), (3, 1), (2 ** 19 - 1, 18), (2 ** 19, 19),
        (2 ** 25, LATENCY_BUCKETS - 1)])
    def test_boundaries(self, latency, bucket):
        assert latency_bucket(latency) == bucket
        stats = SystemStats(1)
        stats.record_latency(False, latency)
        stats.record_latency(True, latency)
        assert stats.read_latency_buckets[bucket] == 1
        assert stats.write_latency_buckets[bucket] == 1
        assert sum(stats.read_latency_buckets) == 1

    def test_access_path_uses_the_same_buckets(self):
        from repro.harness.system_builder import build_system
        from repro.verify.models import micro_config
        system = build_system(micro_config())
        latencies = [system.access(0, op, 3 << BLOCK_SHIFT)
                     for op in (Op.READ, Op.READ, Op.WRITE, Op.WRITE)]
        expected_reads = [0] * LATENCY_BUCKETS
        expected_writes = [0] * LATENCY_BUCKETS
        for op_index, latency in enumerate(latencies):
            target = expected_reads if op_index < 2 else expected_writes
            target[latency_bucket(latency)] += 1
        assert system.stats.read_latency_buckets == expected_reads
        assert system.stats.write_latency_buckets == expected_writes


class TestSystemStats:
    def test_record_message_accumulates_bytes(self):
        stats = SystemStats(2)
        stats.record_message(MessageType.GETS)
        stats.record_message(MessageType.DATA, count=2)
        assert stats.traffic_bytes == CTRL_BYTES + 2 * DATA_BYTES
        assert stats.messages[MessageType.DATA] == 2

    def test_advance_core(self):
        stats = SystemStats(2)
        stats.advance_core(0, 10)
        stats.advance_core(1, 30)
        stats.advance_core(0, 5)
        assert stats.cycles == [15, 30]
        assert stats.accesses == [2, 1]
        assert stats.total_cycles == 30
        assert stats.total_accesses == 3

    def test_misses_per_kilo_access(self):
        stats = SystemStats(1)
        stats.advance_core(0, 1)
        stats.advance_core(0, 1)
        stats.core_cache_misses = 1
        assert stats.misses_per_kilo_access() == pytest.approx(500.0)

    def test_fractions_guard_division_by_zero(self):
        stats = SystemStats(1)
        assert stats.dram_write_entry_fraction() == 0.0
        assert stats.corrupted_read_fraction() == 0.0

    def test_dram_write_entry_fraction(self):
        stats = SystemStats(1)
        stats.dram_writes = 200
        stats.dram_writes_entry_eviction = 1
        assert stats.dram_write_entry_fraction() == pytest.approx(0.005)

    def test_as_dict_contains_scalars(self):
        stats = SystemStats(1)
        stats.core_cache_misses = 7
        flat = stats.as_dict()
        assert flat["core_cache_misses"] == 7
        assert "total_cycles" in flat


class TestSpeedupMetrics:
    def test_weighted_speedup_identity(self):
        assert weighted_speedup([100, 200], [100, 200]) == 1.0

    def test_weighted_speedup_mean_of_ratios(self):
        assert weighted_speedup([100, 100], [50, 200]) == pytest.approx(
            (2.0 + 0.5) / 2)

    def test_weighted_speedup_rejects_mismatched(self):
        with pytest.raises(ValueError):
            weighted_speedup([1], [1, 2])

    def test_makespan_speedup(self):
        base, new = SystemStats(1), SystemStats(1)
        base.advance_core(0, 200)
        new.advance_core(0, 100)
        assert makespan_speedup(base, new) == 2.0
