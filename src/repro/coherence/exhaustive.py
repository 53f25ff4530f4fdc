"""Sequence replay over the coherence protocols: the reference engine.

Enumerates access sequences over a micro configuration (few cores, few
blocks, tiny caches) and replays each one on a fresh system, checking
the system's own invariants -- SWMR, directory precision, entry-location
exclusivity, data correctness (built into every read) -- plus an
optional extra check.  A failing sequence is reported as its
counterexample prefix.

Bounded-exhaustive checking itself runs on the memoized snapshot
frontier of :mod:`repro.verify.modelcheck` (``repro verify`` and
``repro modelcheck`` both use it): it checks every transition with the
full oracle battery at O(1) work per transition and collapses
symmetric states.  This module keeps what the frontier does not do:

* :meth:`ExhaustiveExplorer.explore` -- all ``|alphabet|^depth``
  sequences by full replay, checked after every step: the simple
  reference the frontier is tested against;
* :meth:`ExhaustiveExplorer.explore_sampled` and
  :meth:`ExhaustiveExplorer.replay` -- seeded random sequences at
  depths the frontier cannot reach (``repro verify --samples``),
  checked at the end of each sequence, and re-running one of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.common.addressing import BLOCK_SHIFT
from repro.common.config import SystemConfig
from repro.harness.campaign import values_of
from repro.harness.parallel import parallel_map
from repro.harness.system_builder import build_system
from repro.workloads.trace import Op


@dataclass
class Counterexample:
    """A failing access sequence and the error it triggered."""

    sequence: Tuple[Tuple[int, Op, int], ...]
    error: Exception

    def __str__(self) -> str:
        steps = ", ".join(f"c{core}:{op.name[0]}@{block}"
                          for core, op, block in self.sequence)
        return f"[{steps}] -> {self.error}"


@dataclass
class ExplorationReport:
    """Outcome of one exhaustive exploration."""

    depth: int
    alphabet_size: int
    sequences_explored: int = 0
    states_checked: int = 0
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None


class ExhaustiveExplorer:
    """Sequence replay over an access alphabet.

    Because the simulator is deterministic, replaying a prefix always
    reaches the same state; every sequence therefore runs from scratch
    on a fresh system -- O(depth) work per sequence and no sharing
    between sequences, but nothing to get wrong.
    """

    def __init__(self, config_factory: Callable[[], SystemConfig],
                 cores: Sequence[int], blocks: Sequence[int],
                 ops: Sequence[Op] = (Op.READ, Op.WRITE),
                 extra_check: Optional[Callable] = None) -> None:
        self._config_factory = config_factory
        self._alphabet = [(core, op, block)
                          for core in cores
                          for op in ops
                          for block in blocks]
        self._extra_check = extra_check

    def _check(self, system) -> None:
        system.check_invariants()
        if self._extra_check is not None:
            self._extra_check(system)

    def _evaluate(self, sequence
                  ) -> Tuple[int, Optional[Counterexample]]:
        """Run one sequence end to end on a fresh system.

        Returns ``(states_checked, counterexample)``: 1 checked state
        when the end-of-sequence invariant check passed, else the
        failing prefix (or full sequence) with its error.
        """
        system = build_system(self._config_factory())
        for index, (core, op, block) in enumerate(sequence):
            try:
                system.access(core, op, block << BLOCK_SHIFT)
            except Exception as error:     # noqa: BLE001 - reported
                return 0, Counterexample(sequence[:index + 1], error)
        try:
            self._check(system)
            return 1, None
        except Exception as error:         # noqa: BLE001 - reported
            return 0, Counterexample(sequence, error)

    def replay(self, sequence) -> Optional[Counterexample]:
        """Re-run a (counterexample) sequence under the same check
        discipline as :meth:`explore_sampled`; returns the reproduced
        failure, or None when the sequence now passes."""
        _, counterexample = self._evaluate(tuple(sequence))
        return counterexample

    def explore(self, depth: int) -> ExplorationReport:
        """Replay all sequences of exactly ``depth`` accesses, checking
        invariants after every step of every sequence (any shorter
        failing prefix is reported as the counterexample)."""
        report = ExplorationReport(depth, len(self._alphabet))
        for sequence in itertools.product(self._alphabet, repeat=depth):
            report.sequences_explored += 1
            system = build_system(self._config_factory())
            for index, (core, op, block) in enumerate(sequence):
                try:
                    system.access(core, op, block << BLOCK_SHIFT)
                    self._check(system)
                    report.states_checked += 1
                except Exception as error:   # noqa: BLE001 - reported
                    report.counterexample = Counterexample(
                        sequence[:index + 1], error)
                    return report
        return report

    def explore_sampled(self, depth: int, samples: int, seed: int = 0,
                        jobs: int = 1) -> ExplorationReport:
        """Uniformly sample ``samples`` sequences of ``depth`` accesses
        (for depths where the full product is intractable).

        Reproducible from ``seed`` regardless of ``jobs``: every
        sequence is drawn from the seeded generator *before* any work is
        partitioned, sequences are evaluated independently (one fresh
        system each), and outcomes are folded in draw order -- the
        counterexample, when one exists, is always the lowest-index
        failing sequence, and the report is identical for every worker
        count. Parallel workers read the explorer through a module
        global inherited at fork time (configs built from closures need
        not pickle); without fork the call runs serially.
        """
        import random
        rng = random.Random(seed)
        sequences = [tuple(rng.choice(self._alphabet)
                           for _ in range(depth))
                     for _ in range(samples)]
        report = ExplorationReport(depth, len(self._alphabet))
        if jobs > 1:
            global _ACTIVE_EXPLORER
            _ACTIVE_EXPLORER = self
            chunks = [sequences[start:start + _CHUNK]
                      for start in range(0, len(sequences), _CHUNK)]
            try:
                outcomes = values_of(parallel_map(
                    _evaluate_in_worker, chunks, jobs=jobs,
                    require_fork=True))
            finally:
                _ACTIVE_EXPLORER = None
            evaluated = itertools.chain.from_iterable(outcomes)
        else:
            evaluated = map(self._evaluate, sequences)
        for checked, counterexample in evaluated:
            report.sequences_explored += 1
            if counterexample is not None:
                report.counterexample = counterexample
                return report
            report.states_checked += checked
        return report


#: Explorer shared with forked explore_sampled workers (fork inherits
#: the global, so unpicklable config factories travel for free).
_ACTIVE_EXPLORER: Optional[ExhaustiveExplorer] = None

#: Sampled sequences per executor item (one pipe round trip each).
_CHUNK = 8


def _evaluate_in_worker(chunk):
    assert _ACTIVE_EXPLORER is not None
    return [_ACTIVE_EXPLORER._evaluate(sequence)  # noqa: SLF001
            for sequence in chunk]
