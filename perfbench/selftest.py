"""Self-tests of the benchmark (not of the simulator).

    python3 -m pytest -q perfbench/selftest.py

They run reduced inputs where the property does not depend on size, and
take about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import SpanRecorder  # noqa: E402


def _traced(workload, seed: int = run.DEFAULT_SEED):
    gate = run.Gate()
    workload.setup(seed)
    gate.add(workload.check(workload.iterate()), "untraced")
    metrics, _wall, rec = run.traced_iteration(workload, seed, gate)
    return metrics, rec, gate


@pytest.fixture(scope="module")
def traced_miss():
    return _traced(workloads.sim_miss())


@pytest.fixture(scope="module")
def traced_hit():
    return _traced(workloads.sim_hit())


def test_spans_nest_and_self_times_are_non_negative():
    rec = SpanRecorder()

    def leaf():
        time.sleep(0.002)

    wrapped = rec.wrap("llc.leaf", leaf)
    with rec.span("run.outer"):
        with rec.span("runner.drive"):
            wrapped()
            wrapped()
        wrapped()
    rec.check_nesting()
    assert rec.calls("llc.leaf") == 3
    drive_self = rec.self_seconds("runner.drive")
    assert 0 <= drive_self < rec.seconds("runner.drive")
    assert rec.seconds("runner.drive") >= 2 * 0.002
    assert [span[0] for span in rec.spans] == ["run.outer", "runner.drive"]
    assert rec.spans[1][3] == 0            # parent of drive is outer


def test_a_span_escaping_its_parent_is_caught():
    rec = SpanRecorder()
    with rec.span("run.a"):
        with rec.span("runner.b"):
            pass
    rec.spans[1][2] = rec.spans[0][2] + 1.0
    with pytest.raises(AssertionError):
        rec.check_nesting()


def test_traced_run_nests_and_matches_the_stats(traced_miss):
    metrics, rec, gate = traced_miss
    assert gate.failed == 0, gate.messages
    rec.check_nesting()
    assert all(own >= -1e-6 for _c, _s, own in rec.by_layer.values())
    # Each traced count equals the simulator's own counter.
    assert metrics["directory.evictions"] > 0
    assert metrics["directory.devs"] > 0
    assert metrics["llc.evictions"] > 0
    assert metrics["core.entry_llc_evictions"] > 0


def test_counts_repeat_exactly(traced_miss):
    again, _rec, _gate = _traced(workloads.sim_miss())
    metrics = traced_miss[0]
    counted = [name for name, unit, _ in run.PER_LAYER
               if name in metrics and unit not in ("s", "us", "1/s")]
    assert len(counted) > 20
    for name in counted:
        assert again[name] == metrics[name], name


def test_contrast_between_sim_workloads(traced_hit, traced_miss):
    hit, miss = traced_hit[0], traced_miss[0]
    assert hit["kernel.bulk_frac"] > 10 * miss["kernel.bulk_frac"]
    assert miss["core.entry_llc_evictions"] > 0
    assert hit["core.entry_llc_evictions"] == 0
    assert hit["parallel.cache_hits"] == miss["parallel.cache_hits"] == 0


def test_same_seed_same_digests_other_seed_differs():
    def digests(seed):
        workload = workloads.sim_miss()
        workload.accesses_per_core = 200
        workload.setup(seed)
        return workload.check(workload.iterate()).digests

    first = digests(run.DEFAULT_SEED)
    assert digests(run.DEFAULT_SEED) == first
    assert digests(run.HELD_OUT_SEED) != first


def test_second_figure_batch_hits_the_cache():
    workload = workloads.FigureWorkload(accesses_per_core=40)
    workload.setup(run.DEFAULT_SEED)
    iteration = workload.iterate()
    verdict = workload.check(iteration)
    assert verdict.failed == 0, verdict.problems
    # The Fig 18 batch reuses the baseline and FPSS/dataLRU runs.
    assert iteration.totals["batch2_cache_hits"] == 2 * len(workload.apps)
    metrics = layer_metrics(SpanRecorder(), Counter(), iteration.totals)
    assert metrics["parallel.cache_hits"] == 2 * len(workload.apps)


def test_forced_failure_counts_and_fails_the_run():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "verify", "--seconds", "0", "--inject-failure"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode == 1
    assert line["correct"] is False
    assert line["failed"] == 1 and line["attempted"] > 1


def test_without_the_simulator_sources_the_run_fails():
    bare = os.path.join(ROOT, ".perfbench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-hit"],
        cwd=bare, capture_output=True, text=True, timeout=120,
        check=False)
    shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_benchmark_json_mirrors_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
