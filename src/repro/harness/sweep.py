"""Generic parameter sweeps over system configurations, and the
comparison grid every normalized result is laid out on.

Every comparison in the paper's evaluation runs the same workloads under
a reference design and a set of variant configurations. :func:`plan_grid`
and :func:`fold_grid` own that batch layout -- the reference over every
workload first, then each configuration over every workload -- and its
split back into ``(reference runs, [runs per config])``. The figure
functions (through :func:`repro.harness.experiments.run_grid`), the
:class:`Sweep` and the job service all plan and fold through this pair.

A :class:`Sweep` runs a fixed set of workloads across a family of
configurations (one per parameter value), collecting speedups against a
reference configuration and any requested counters. The sizing example
and the service's sweep jobs are built on this.

All runs go through :func:`repro.harness.parallel.run_many`: one batch
per ``run()`` call (reference runs first, then every point), so a sweep
parallelizes across points and workloads and shares baseline runs with
any other harness user via the session result cache.

Long sweeps can run fault-tolerantly: ``run(..., resume=path)`` journals
every completed run in a :class:`~repro.harness.campaign.CampaignJournal`
and skips journaled runs on re-execution (bit-identical points to an
uninterrupted sweep), while ``policy=`` adds per-run timeouts and
retries. A sweep that still has failed runs after retries raises
:class:`~repro.harness.campaign.CampaignError` naming the journal to
resume from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.stats import SystemStats, weighted_speedup
from repro.harness.campaign import CampaignJournal, CampaignPolicy
from repro.harness.parallel import run_many
from repro.harness.reporting import geomean
from repro.workloads.trace import Workload


def plan_grid(reference: SystemConfig, configs: Sequence[SystemConfig],
              workloads: Sequence[Workload]) -> List:
    """The comparison batch: ``reference`` over every workload, then
    each of ``configs`` over every workload, in that order."""
    return [(config, workload) for config in (reference, *configs)
            for workload in workloads]


def fold_grid(results: Sequence, n_configs: int) -> Tuple[List, List[List]]:
    """Split results aligned with :func:`plan_grid` into
    ``(reference runs, [runs per config])``, each in workload order."""
    width = len(results) // (n_configs + 1)
    blocks = [list(results[i * width:(i + 1) * width])
              for i in range(n_configs + 1)]
    return blocks[0], blocks[1:]


@dataclass
class SweepPoint:
    """Results at one parameter value."""

    value: object
    speedups: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def geomean_speedup(self) -> float:
        return geomean(list(self.speedups.values()))

    def accumulate_counters(self, names: Sequence[str],
                            stats: SystemStats) -> None:
        """Add this run's requested counters into the point's totals."""
        for name in names:
            self.counters[name] = (self.counters.get(name, 0)
                                   + getattr(stats, name))


class Sweep:
    """Run ``workloads`` over ``config_for(value)`` for each value.

    Parameters
    ----------
    reference:
        The configuration all speedups are normalized to.
    config_for:
        Maps a parameter value to the configuration under test.
    counters:
        Names of :class:`SystemStats` fields to accumulate per point.
    multiprog:
        Use weighted speedup (per-core ratios) instead of makespan.
    jobs:
        Worker processes per batch (None: the ``REPRO_JOBS`` default).
    """

    def __init__(self, reference: SystemConfig,
                 config_for: Callable[[object], SystemConfig],
                 counters: Sequence[str] = (),
                 multiprog: bool = False,
                 jobs: Optional[int] = None) -> None:
        self._reference = reference
        self._config_for = config_for
        self._counters = tuple(counters)
        self._multiprog = multiprog
        self._jobs = jobs

    def _speedup(self, base, run) -> float:
        if self._multiprog:
            return weighted_speedup(base.per_core_cycles,
                                    run.per_core_cycles)
        return base.cycles / run.cycles if run.cycles else 1.0

    def plan_specs(self, values: Sequence[object],
                   workloads: Sequence[Workload]) -> List:
        """The full run list in a fixed, item-addressable order.

        The :func:`plan_grid` layout over one configuration per value.
        The job service executes these items individually across a
        worker fleet and folds them back with :meth:`fold_results`;
        duplicate runs across jobs dedupe through the shared
        content-addressed result store.
        """
        return plan_grid(self._reference,
                         [self._config_for(value) for value in values],
                         workloads)

    def fold_results(self, values: Sequence[object],
                     workloads: Sequence[Workload],
                     results: Sequence) -> List[SweepPoint]:
        """Fold results aligned with :meth:`plan_specs` into points."""
        references, blocks = fold_grid(results, len(values))
        points = []
        for value, runs in zip(values, blocks):
            point = SweepPoint(value)
            for workload, base, run in zip(workloads, references, runs):
                point.speedups[workload.name] = self._speedup(base, run)
                point.accumulate_counters(self._counters, run.stats)
            points.append(point)
        return points

    def run(self, values: Sequence[object],
            workloads: Sequence[Workload],
            resume: Optional[object] = None,
            policy: Optional[CampaignPolicy] = None) -> List[SweepPoint]:
        """Collect one :class:`SweepPoint` per value.

        ``resume`` names a campaign journal (created if missing):
        completed runs are committed there and skipped when the sweep is
        re-executed after an interruption, with final points
        bit-identical to an uninterrupted sweep. ``policy`` adds per-run
        timeouts / retries (see :class:`CampaignPolicy`).
        """
        journal = None if resume is None else CampaignJournal(resume)
        try:
            results = run_many(self.plan_specs(values, workloads),
                               jobs=self._jobs, policy=policy,
                               journal=journal)
        finally:
            if journal is not None:
                journal.close()
        return self.fold_results(values, workloads, results)
