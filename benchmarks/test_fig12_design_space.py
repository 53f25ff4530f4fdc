"""Figure 12: the design space of directory-entry caching, quantified.

The paper's Figure 12 is qualitative: SpillAll has the maximum LLC space
overhead and pays an extra data-array latency on shared reads; FPSS has
some space overhead and no critical-path cost; FuseAll has minimal space
overhead but lengthens shared reads by one hop. This bench measures all
three axes directly.
"""

from itertools import islice

from repro.common.config import DirCachingPolicy
from repro.harness import experiments
from repro.harness.reporting import Table

from benchmarks.conftest import run_experiment


def fig12_design_space():
    base_config = experiments.default_config()
    policies = {
        "SpillAll": DirCachingPolicy.SPILL_ALL,
        "FPSS": DirCachingPolicy.FPSS,
        "FuseAll": DirCachingPolicy.FUSE_ALL,
    }
    table = Table("Figure 12: LLC space overhead vs read critical path")
    workloads = [experiments.workload_for(profile, suite, base_config)
                 for suite in ("PARSEC", "SPLASH2X")
                 for profile in experiments.apps_of(suite)]
    runs = iter(experiments.run_configs([
        (experiments.zerodev_config(base_config, policy=policy), workload)
        for policy in policies.values() for workload in workloads]))
    n = len(workloads)
    measured = {}
    for label in policies:
        spilled = fused = penalties = forwards = 0
        for run in islice(runs, n):
            spilled += run.stats.entries_spilled
            fused += run.stats.entries_fused
            penalties += run.stats.extra_data_array_reads
            forwards += run.stats.fused_read_forwards
        measured[label] = {
            "spill_frames": spilled / n,
            "fused": fused / n,
            "extra_array_reads": penalties / n,
            "extra_hop_reads": forwards / n,
        }
        table.add(f"{label} spill frames/run", spilled / n,
                  note="LLC space overhead axis")
        table.add(f"{label} extra array reads/run", penalties / n,
                  note="SpillAll critical-path axis")
        table.add(f"{label} 3-hop shared reads/run", forwards / n,
                  note="FuseAll critical-path axis")
    return table, measured


def test_fig12_design_space(benchmark):
    table, measured = run_experiment(benchmark, fig12_design_space,
                                     "fig12")
    # Space overhead: SpillAll > FPSS > FuseAll (Figure 12's x-axis).
    assert measured["SpillAll"]["spill_frames"] \
        >= measured["FPSS"]["spill_frames"] \
        >= measured["FuseAll"]["spill_frames"]
    # Critical-path: only SpillAll pays data-array reads; only FuseAll
    # pays extra hops on shared reads.
    assert measured["SpillAll"]["extra_array_reads"] > 0
    assert measured["FPSS"]["extra_array_reads"] == 0
    assert measured["FPSS"]["extra_hop_reads"] == 0
    assert measured["FuseAll"]["extra_hop_reads"] > 0
