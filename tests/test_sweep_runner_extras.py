"""Tests for the sweep utility, warm-up support, and report extras."""

import pytest

from repro.common.config import DirectoryConfig
from repro.harness.parallel import telemetry_since, telemetry_snapshot
from repro.harness.reporting import ascii_bars, traffic_breakdown
from repro.harness.result_cache import reset_session_cache
from repro.harness.runner import run_workload
from repro.harness.sweep import Sweep, fold_grid, plan_grid
from repro.harness.system_builder import build_system
from repro.workloads import make_multithreaded
from repro.workloads.suites import find_profile

from tests.conftest import tiny_config


def small_workload(name="blackscholes", accesses=300, seed=3):
    return make_multithreaded(find_profile(name), tiny_config(),
                              accesses, seed=seed)


class TestWarmup:
    def test_warmup_resets_statistics(self):
        config = tiny_config()
        workload = small_workload()
        cold = run_workload(build_system(config), workload)
        warm = run_workload(build_system(config), small_workload(),
                            warmup=400)
        assert warm.stats.total_accesses == workload.total_accesses - 400
        # Warm caches: the post-warm-up miss ratio is no worse.
        cold_rate = cold.stats.core_cache_misses / cold.stats.total_accesses
        warm_rate = warm.stats.core_cache_misses / warm.stats.total_accesses
        assert warm_rate <= cold_rate + 0.02

    def test_warmup_longer_than_workload_rejected(self):
        with pytest.raises(ValueError):
            run_workload(build_system(tiny_config()), small_workload(),
                         warmup=10_000)

    def test_stats_reset_in_place(self):
        system = build_system(tiny_config())
        mesh_stats = system.mesh._stats
        system.stats.core_cache_misses = 5
        system.stats.reset()
        assert system.stats.core_cache_misses == 0
        assert mesh_stats is system.stats   # references stay valid


class TestComparisonGrid:
    def test_reference_block_then_one_block_per_config(self):
        specs = plan_grid("ref", ["a", "b"], ["w1", "w2"])
        assert specs == [("ref", "w1"), ("ref", "w2"), ("a", "w1"),
                         ("a", "w2"), ("b", "w1"), ("b", "w2")]
        references, blocks = fold_grid(specs, 2)
        assert references == [("ref", "w1"), ("ref", "w2")]
        assert blocks == [[("a", "w1"), ("a", "w2")],
                          [("b", "w1"), ("b", "w2")]]

    def test_no_workloads_still_yields_a_block_per_config(self):
        assert plan_grid("ref", ["a", "b"], []) == []
        assert fold_grid([], 2) == ([], [[], []])


class TestSweep:
    def test_directory_ratio_sweep(self):
        reference = tiny_config()
        sweep = Sweep(
            reference,
            lambda r: reference.with_(directory=DirectoryConfig(ratio=r)),
            counters=("dev_invalidations",))
        points = sweep.run([1.0, 0.125],
                           [small_workload("canneal", 400)])
        assert len(points) == 2
        assert points[0].value == 1.0
        # At the reference ratio the speedup is exactly 1 (same config).
        assert points[0].geomean_speedup == pytest.approx(1.0)
        assert points[1].geomean_speedup <= points[0].geomean_speedup
        assert (points[1].counters["dev_invalidations"]
                >= points[0].counters["dev_invalidations"])

    def test_rerun_resimulates_no_baseline(self):
        reset_session_cache()
        reference = tiny_config()
        sweep = Sweep(
            reference,
            lambda r: reference.with_(directory=DirectoryConfig(ratio=r)))
        workloads = [small_workload(), small_workload("canneal", 300)]
        sweep.run([0.5], workloads)
        before = telemetry_snapshot()
        points = sweep.run([0.25, 0.125], workloads)
        delta = telemetry_since(before)
        assert [point.value for point in points] == [0.25, 0.125]
        # Only the new points simulate; every baseline is a cache hit.
        assert delta["runs"] == 2 * len(workloads)
        assert delta["cache_hits"] == len(workloads)


class TestReportExtras:
    def test_traffic_breakdown(self):
        system = build_system(tiny_config())
        run_workload(system, small_workload())
        text = traffic_breakdown(system.stats)
        assert "GETS" in text and "%" in text

    def test_ascii_bars(self):
        chart = ascii_bars([1.0, 0.5], ["a", "bb"])
        assert chart.count("|") == 4
        assert "bb" in chart and "0.500" in chart

    def test_ascii_bars_empty(self):
        assert ascii_bars([], []) == "(no data)"

    def test_ascii_bars_constant_values(self):
        chart = ascii_bars([1.0, 1.0], ["x", "y"])
        assert "1.000" in chart
