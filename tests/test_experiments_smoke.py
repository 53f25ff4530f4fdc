"""Smoke tests for the experiment layer at minimal scale.

These keep ``repro.harness.experiments`` exercised by the unit suite; the
full-scale versions run under ``pytest benchmarks/ --benchmark-only``.
"""

import os

import pytest

from repro.harness import experiments
from repro.harness.reporting import Table


@pytest.fixture(autouse=True)
def minimal_scale(monkeypatch):
    monkeypatch.setenv("REPRO_ACCESSES", "400")
    monkeypatch.setenv("REPRO_FULL", "0")


class TestExperimentSmoke:
    def test_scaling_knobs(self, monkeypatch):
        assert experiments.accesses_per_core() == 400
        monkeypatch.setenv("REPRO_ACCESSES", "123")
        assert experiments.accesses_per_core() == 123
        assert not experiments.run_full()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert experiments.run_full()

    def test_representative_subsets_cover_named_apps(self):
        for suite, names in experiments.REPRESENTATIVE.items():
            available = {p.name for p in
                         experiments.apps_of(suite)}
            assert set(names) == available or set(names) <= available

    def test_fig19_structure(self):
        table, results = experiments.fig19_parsec()
        assert isinstance(table, Table)
        assert set(results) == {"1x", "1/8x", "NoDir", "_aggregates"}
        assert results["_aggregates"]["NoDir"]["dev_invalidations"] == 0
        assert set(results["NoDir"]) == {"PARSEC"}
        apps = results["NoDir"]["PARSEC"]
        assert "freqmine" in apps
        for speedup in apps.values():
            assert 0.5 < speedup < 2.0

    def test_fig5_occupancy_structure(self):
        table, results = experiments.fig5_llc_occupancy()
        for suite, maxima in results.items():
            assert all(m >= 0 for m in maxima)
        # Direct (live-system) runs still reach the batch telemetry.
        assert table.metadata["runs_executed"] > 0
        assert table.metadata["accesses_per_second"] > 0

    def test_energy_structure(self):
        table, results = experiments.energy_comparison()
        assert -1.0 < results["saving"] < 1.0

    def test_multisocket_structure(self):
        table, results = experiments.multisocket_comparison(2)
        assert results["speedups"]
        assert table.metadata["runs_executed"] > 0
        assert table.metadata["accesses_per_second"] > 0

    def test_fig23_mix_count(self):
        table, results = experiments.fig23_heterogeneous(n_mixes=2)
        assert all(len(v) == 2 for v in results.values())

    def test_fig12_design_space(self):
        from benchmarks.test_fig12_design_space import fig12_design_space
        table, measured = fig12_design_space()
        assert set(measured) == {"SpillAll", "FPSS", "FuseAll"}
        assert measured["FPSS"]["extra_array_reads"] == 0

    def test_ablation_functions(self):
        from benchmarks.test_ablations import (
            ablation_notice_bits_overhead, ablation_replacement_disabled)
        _, notice = ablation_notice_bits_overhead()
        assert max(notice["fractions"]) < 0.05
        _, repl = ablation_replacement_disabled()
        assert repl["disturbances"]["disabled"] == 0


class TestComparisonGridFigures:
    """Result keys and shapes the benchmark asserts read, at 200 accesses
    per core."""

    @pytest.fixture(autouse=True)
    def tiny_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_ACCESSES", "200")

    def test_fig2_structure(self):
        _, results = experiments.fig2_unbounded_rate()
        n_apps = len(experiments.apps_of("CPU2017"))
        assert set(results) == {"speedups", "traffic", "misses"}
        for values in results.values():
            assert len(values) == n_apps
            assert all(value > 0 for value in values)

    def test_fig3_structure(self):
        table, results = experiments.fig3_unbounded_multithreaded()
        assert list(results) == list(experiments.MT_SUITES)
        for suite, speedups in results.items():
            assert len(speedups) == len(experiments.apps_of(suite))
            assert all(0.5 < s < 2.0 for s in speedups)
        labels = [row.label for row in table.rows]
        assert "freqmine.speedup" in labels and "fftw.speedup" in labels

    def test_fig22_structure(self):
        table, results = experiments.fig22_llc_capacity()
        assert list(results) == [(label, suite)
                                 for label in ("half", "double")
                                 for suite in experiments.ALL_SUITES]
        for base, nodir, quarter in results.values():
            assert all(0.5 < v < 2.0 for v in (base, nodir, quarter))
        assert len(table.rows) == 3 * len(results)

    def test_fig24_server_structure(self):
        table, results = experiments.fig24_server(n_cores=8)
        assert "8-core" in table.title
        assert list(results) == ["1x", "1/8x", "NoDir"]
        for per_app in results.values():
            assert list(per_app) == experiments.REPRESENTATIVE["SERVER"]
            assert all(0.5 < s < 2.0 for s in per_app.values())
