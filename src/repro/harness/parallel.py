"""The batch executor behind every fan-out of independent runs.

Trace-driven coherence simulation is embarrassingly parallel across
independent ``(SystemConfig, Workload)`` runs: no state is shared, and
every run is deterministic. :func:`parallel_map` is the one executor for
such batches -- figures, sweeps, the sampled protocol explorer, the
model checker and ``repro fuzz`` all go through it -- and
:func:`run_many` layers spec-level planning on top (session result
cache, duplicate collapsing, trace paths, journal).

How the executor runs a batch:

* **Slot workers** -- it forks ``min(jobs, pending)`` long-lived
  workers and keeps exactly one item in flight on each worker's own
  pipe. The parent therefore always knows which item a worker holds:
  EOF on a worker's pipe (SIGKILL, the OOM killer, a crash in C code)
  names the single run that worker lost. The slot is respawned and the
  lost run retried under the :class:`~repro.harness.campaign.CampaignPolicy`.
* **Guarded items** -- every item runs under
  :func:`~repro.harness.campaign.execute_guarded`, which turns
  exceptions into typed failures and self-arms ``SIGALRM`` for the
  policy's ``run_timeout``. As a backstop, the parent kills and
  respawns a worker still busy ``run_timeout`` plus a grace period after
  its item was sent (code that never returns to the interpreter cannot
  take its own alarm).
* **Serial fallback** -- ``jobs=1`` runs the same retry loop in process.

Guarantees:

* **Deterministic ordering** -- outcomes come back in request order
  regardless of worker completion order or retries.
* **Bit-identical to serial** -- the simulator is deterministic, so the
  parallel path produces exactly the stats the ``jobs=1`` path produces
  (asserted by ``tests/test_parallel_cache.py``).
* **No work lost to one bad run** -- a run that ultimately fails is a
  :class:`~repro.harness.campaign.RunFailure`; every sibling still runs.
  :func:`run_many` caches (and journals) the completed runs before it
  raises :class:`~repro.harness.campaign.CampaignError`.
* **Checkpoint/resume** -- with a
  :class:`~repro.harness.campaign.CampaignJournal`, committed items are
  replayed instead of re-executed.

``jobs`` defaults to ``REPRO_JOBS`` (see the ``--jobs`` CLI flag). An
explicit ``jobs`` above ``os.cpu_count()`` is honored -- oversubscription
is the user's call -- and the effective worker count of the last batch
is reported in :func:`telemetry_snapshot` instead of being clamped.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.common.errors import ConfigError
from repro.harness.campaign import (EXCEPTION, TIMEOUT, WORKER_DEATH,
                                    CampaignError, CampaignJournal,
                                    CampaignPolicy, RunFailure, RunOutcome,
                                    RunSuccess, execute_guarded,
                                    policy_from_env)
from repro.harness.result_cache import run_key, session_cache
from repro.harness.runner import RunResult, run_workload
from repro.harness.system_builder import build_system
from repro.obs.events import EventKind
from repro.workloads.trace import Workload

#: One requested run: (config, workload).
RunSpec = Tuple[SystemConfig, Workload]

#: Sentinel distinguishing "use the session cache" from "no cache".
USE_SESSION_CACHE = object()

#: Seconds the parent grants past ``run_timeout`` before it stops
#: trusting the worker's own alarm and kills it.
_TIMEOUT_GRACE = 5.0

#: Session telemetry: totals over every batch in this process.
#: ``effective_jobs`` is the worker count of the most recent batch (a
#: gauge, not a running total).
_telemetry = {"runs": 0, "cache_hits": 0, "wall_seconds": 0.0,
              "accesses": 0, "cache_dropped_puts": 0, "effective_jobs": 0,
              "resume_skips": 0, "run_failures": 0, "run_retries": 0}


def telemetry_snapshot() -> Dict[str, float]:
    """Copy of the running totals (pair with :func:`telemetry_since`)."""
    return dict(_telemetry)


def telemetry_since(before: Dict[str, float]) -> Dict[str, float]:
    """Telemetry delta since a snapshot taken earlier."""
    return {key: _telemetry[key] - before.get(key, 0)
            for key in _telemetry}


def record_direct_run(accesses: int, wall_seconds: float) -> None:
    """Count a run that had to execute outside :func:`run_many` (one
    that needs the live system) in the session telemetry."""
    _telemetry["runs"] += 1
    _telemetry["accesses"] += accesses
    _telemetry["wall_seconds"] += wall_seconds


def parse_jobs(value, source: str = "--jobs") -> int:
    """Validate a worker count from the CLI or the environment.

    Accepts a positive integer (as int or decimal string); anything else
    -- zero, negatives, floats, or non-numeric text -- raises
    :class:`~repro.common.errors.ConfigError` naming ``source`` so the
    CLI can fail with a one-line message instead of a traceback.
    """
    try:
        jobs = int(str(value).strip())
    except (TypeError, ValueError):
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}") from None
    if jobs < 1:
        raise ConfigError(
            f"{source} must be a positive integer, got {value!r}")
    return jobs


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1: serial)."""
    raw = os.environ.get("REPRO_JOBS")
    if raw is None or not raw.strip():
        return 1
    return parse_jobs(raw, source="REPRO_JOBS")


def execute_run(spec: RunSpec,
                trace_path: Optional[str] = None) -> RunResult:
    """Build the system for ``spec`` and run it (detached result).

    With ``trace_path`` the run executes under a
    :class:`~repro.obs.trace.TraceSession`: events stream to that JSONL
    file and the aggregated time series lands next to it.
    """
    config, workload = spec
    system = build_system(config)
    if trace_path is None:
        return run_workload(system, workload).detached()
    from repro.obs.trace import TraceSession
    with TraceSession(system, jsonl=trace_path) as session:
        return session.run(workload).detached()


def fork_available() -> bool:
    """True when fork-start workers (sharing module globals set before
    the batch starts) are available on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def _slot_worker(fn, timeout: Optional[float], conn,
                 parent_ends: list) -> None:
    """Slot worker body: run each ``(item,)`` sent down ``conn`` and
    answer with its guarded result, until ``None`` or EOF arrives."""
    # A forked worker inherits the parent's end of its own pipe and of
    # every older slot's pipe; while any copy stays open, a worker never
    # sees EOF, and orphans outlive a killed parent.
    for end in parent_ends:
        end.close()
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return                      # the parent is gone
        if message is None:
            return
        result = execute_guarded(fn, message[0], timeout)
        try:
            conn.send(result)
        except OSError:
            return                      # the parent is gone
        except Exception as exc:       # noqa: BLE001 - unpicklable value
            conn.send(("err", EXCEPTION, type(exc).__name__,
                       f"result could not be sent back: {exc}", "", False))


@dataclass
class _Slot:
    """One worker process and the (index, attempt) it is running."""

    process: Any = None
    conn: Any = None
    job: Optional[Tuple[int, int]] = None
    deadline: Optional[float] = None

    def start(self, context, fn, timeout: Optional[float],
              parent_ends: list) -> None:
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=_slot_worker,
            args=(fn, timeout, child, [self.conn, *parent_ends]),
            daemon=True)
        self.process.start()
        child.close()

    def discard(self) -> int:
        """Kill the worker (if still alive); returns its exit code."""
        self.process.kill()
        self.process.join()
        self.conn.close()
        code = self.process.exitcode
        self.process = self.conn = None
        return code

    def stop(self) -> None:
        if self.process is None:
            return
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.process.join(timeout=1.0)
        self.discard()


class _Batch:
    """The retry bookkeeping of one :func:`parallel_map` call, shared by
    the serial loop and the slot workers."""

    def __init__(self, items, keys, policy, journal, bus) -> None:
        self.items = items
        self.keys = keys
        self.policy = policy
        self.journal = journal
        self.bus = bus
        self.outcomes: List[Optional[RunOutcome]] = [None] * len(items)

    def note(self, kind: EventKind, index: int, cause: str) -> None:
        if self.journal is not None:
            self.journal.note(kind.value, step=index, cause=cause)
        if self.bus is not None:
            self.bus.step = index
            self.bus.emit(kind, cause=cause)

    def settle(self, index: int, attempt: int,
               result: tuple) -> Optional[float]:
        """Record one attempt's guarded result. Returns the backoff
        delay if the item must run again, else ``None`` (final)."""
        key = self.keys[index]
        if result[0] == "ok":
            self.outcomes[index] = RunSuccess(index, key, result[1],
                                              attempts=attempt)
            if self.journal is not None:
                self.journal.commit(key, result[1])
            return None
        _tag, kind, error_type, message, tb, transient = result
        if kind == WORKER_DEATH:
            self.note(EventKind.WORKER_DEATH, index, key)
        elif kind == TIMEOUT:
            self.note(EventKind.RUN_TIMEOUT, index, key)
        if self.policy.should_retry(kind, transient, attempt):
            self.note(EventKind.RUN_RETRY, index, kind)
            return self.policy.backoff(attempt)
        self.outcomes[index] = RunFailure(index, key, kind, error_type,
                                          message, tb, attempts=attempt)
        if self.journal is not None:
            self.journal.note("run_failure", step=index, cause=kind,
                              error_type=error_type, error=message,
                              attempts=attempt, key=key)
        return None


def _run_serial(fn, batch: _Batch, pending: List[int]) -> None:
    """In process: same retry loop minus worker-death isolation (a hard
    crash here ends the batch; a journal bounds the loss to one run)."""
    for index in pending:
        attempt = 1
        while True:
            delay = batch.settle(index, attempt, execute_guarded(
                fn, batch.items[index], batch.policy.run_timeout))
            if delay is None:
                break
            time.sleep(delay)
            attempt += 1


def _run_slots(fn, batch: _Batch, pending: List[int], jobs: int) -> None:
    """On ``jobs`` slot workers, one item in flight per worker pipe."""
    # fork shares the already-imported interpreter image (cheap startup,
    # no re-import of numpy per worker, and the module globals that
    # require_fork callers set); fall back where unavailable.
    context = multiprocessing.get_context(
        "fork" if fork_available() else None)
    timeout = batch.policy.run_timeout
    ready = deque((index, 1) for index in pending)
    retry_heap: List[Tuple[float, int, int]] = []   # (due, index, attempt)
    slots = [_Slot() for _ in range(jobs)]
    remaining = len(pending)

    def settle(slot: _Slot, result: tuple) -> None:
        nonlocal remaining
        index, attempt = slot.job
        slot.job = None
        delay = batch.settle(index, attempt, result)
        if delay is None:
            remaining -= 1
        else:
            heapq.heappush(retry_heap,
                           (time.monotonic() + delay, index, attempt + 1))

    def died(slot: _Slot) -> None:
        code = slot.discard()
        settle(slot, ("err", WORKER_DEATH, "WorkerDeath",
                      f"worker exited with code {code} before "
                      f"delivering a result", "", True))

    try:
        while remaining:
            now = time.monotonic()
            while retry_heap and retry_heap[0][0] <= now:
                _due, index, attempt = heapq.heappop(retry_heap)
                ready.append((index, attempt))
            for slot in slots:
                if slot.job is not None or not ready:
                    continue
                if slot.process is None:
                    slot.start(context, fn, timeout,
                               [other.conn for other in slots
                                if other.conn is not None])
                slot.job = ready.popleft()
                slot.deadline = (None if timeout is None else
                                 now + timeout + _TIMEOUT_GRACE)
                try:
                    slot.conn.send((batch.items[slot.job[0]],))
                except OSError:
                    died(slot)
            busy = [slot for slot in slots if slot.job is not None]
            wakeups = [slot.deadline for slot in busy
                       if slot.deadline is not None]
            if retry_heap:
                wakeups.append(retry_heap[0][0])
            wait_s = (max(0.0, min(wakeups) - time.monotonic())
                      if wakeups else None)
            if not busy:
                time.sleep(wait_s or 0.0)
                continue
            answered = wait([slot.conn for slot in busy], wait_s)
            now = time.monotonic()
            for slot in busy:
                if slot.conn in answered:
                    try:
                        result = slot.conn.recv()
                    except (EOFError, OSError):
                        died(slot)
                        continue
                    settle(slot, result)
                elif slot.deadline is not None and now > slot.deadline:
                    slot.discard()
                    settle(slot, ("err", TIMEOUT, "TimeoutError",
                                  f"run exceeded {timeout:.3f}s "
                                  f"(parent-enforced)", "", False))
    finally:
        for slot in slots:
            slot.stop()


def parallel_map(fn, items, *, jobs: int,
                 keys: Optional[Sequence[str]] = None,
                 policy: Optional[CampaignPolicy] = None,
                 journal: Optional[CampaignJournal] = None,
                 bus=None, require_fork: bool = False
                 ) -> List[RunOutcome]:
    """Map ``fn`` over ``items`` fault-tolerantly; one outcome per item.

    Order-preserving and deterministic in its values (retries change
    wall-clock, never results): each item yields a
    :class:`~repro.harness.campaign.RunSuccess` or, once the ``policy``
    (default :class:`~repro.harness.campaign.CampaignPolicy`) gives up,
    a :class:`~repro.harness.campaign.RunFailure`. With a ``journal``,
    items whose key is already committed are replayed instead of run,
    and live completions are committed as they finish. ``bus`` (an
    :class:`~repro.obs.bus.EventBus`) receives retry/timeout/
    worker-death/resume-skip events.

    ``fn`` must be a module-level callable and items and values must
    pickle. Callers whose per-item context cannot be pickled set a
    module global before calling and pass ``require_fork=True``:
    forked workers inherit the global, and the batch runs serially
    where fork is unavailable (same values, only wall-clock differs).
    """
    items = list(items)
    if keys is None:
        keys = [f"item{index:06d}" for index in range(len(items))]
    else:
        keys = [str(key) for key in keys]
        if len(keys) != len(items):
            raise ConfigError(f"parallel_map got {len(items)} items but "
                              f"{len(keys)} keys")
    batch = _Batch(items, keys, policy or CampaignPolicy(), journal, bus)
    pending: List[int] = []
    for index, key in enumerate(keys):
        if journal is not None and key in journal:
            batch.outcomes[index] = RunSuccess(index, key, journal.get(key),
                                               attempts=0, resumed=True)
            batch.note(EventKind.RESUME_SKIP, index, key)
        else:
            pending.append(index)

    effective = min(jobs, len(pending))
    if effective > 1 and require_fork and not fork_available():
        effective = 1
    if effective > 1:
        _run_slots(fn, batch, pending, effective)
    else:
        _run_serial(fn, batch, pending)

    _telemetry["effective_jobs"] = max(effective, 1)
    for outcome in batch.outcomes:
        if not outcome.ok:
            _telemetry["run_failures"] += 1
        elif outcome.resumed:
            _telemetry["resume_skips"] += 1
        _telemetry["run_retries"] += max(0, outcome.attempts - 1)
    return batch.outcomes  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Spec-level batches
# ----------------------------------------------------------------------
def _trace_path_for(trace_dir, index: int, spec: RunSpec) -> str:
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    return str(directory / f"run{index:04d}_{spec[1].name}.jsonl")


@dataclass
class BatchPlan:
    """The execution plan for one batch of specs.

    ``results`` starts with the cache hits filled in; ``pending`` holds
    the ``(index, spec, trace_path)`` jobs that actually need to
    execute; ``aliases`` maps duplicate indices to the first request of
    the same key.
    """

    specs: List[RunSpec]
    results: List[Optional[RunResult]]
    pending: List[Tuple[int, RunSpec, Optional[str]]]
    keys: Dict[int, str] = field(default_factory=dict)
    aliases: Dict[int, int] = field(default_factory=dict)


def plan_batch(specs: Sequence[RunSpec], cache, trace_dir,
               want_keys: bool = False) -> BatchPlan:
    """Resolve cache hits and collapse duplicates into a 'BatchPlan'.

    Trace paths are resolved *only* for runs that will execute, so a
    fully-cached batch neither creates the trace directory nor
    fabricates ``run<NNNN>_*.jsonl`` paths that no run will ever write.
    ``want_keys`` forces key computation even without a cache (the
    campaign journal needs them).
    """
    specs = list(specs)
    results: List[Optional[RunResult]] = [None] * len(specs)
    pending: List[Tuple[int, RunSpec, Optional[str]]] = []
    keys: Dict[int, str] = {}
    first_index_for_key: Dict[str, int] = {}
    aliases: Dict[int, int] = {}
    for index, spec in enumerate(specs):
        if cache is not None or want_keys:
            keys[index] = run_key(spec[0], spec[1])
        if cache is not None:
            hit = cache.get(keys[index])
            if hit is not None:
                results[index] = hit
                continue
            first = first_index_for_key.setdefault(keys[index], index)
            if first != index:
                aliases[index] = first
                continue
        trace_path = (None if trace_dir is None
                      else _trace_path_for(trace_dir, index, spec))
        pending.append((index, spec, trace_path))
    return BatchPlan(specs, results, pending, keys, aliases)


def resolve_aliases(plan: BatchPlan) -> None:
    """Fill duplicate-spec slots from their executed first occurrence."""
    for index, first in plan.aliases.items():
        source = plan.results[first]
        if source is None:             # the shared execution failed
            continue
        plan.results[index] = RunResult(
            source.workload, source.stats, None, source.wall_seconds,
            cached=True, trace_path=source.trace_path)


def record_batch_telemetry(plan: BatchPlan, executed: int,
                           dropped_puts: int = 0) -> None:
    """Fold one batch's totals into the session telemetry."""
    _telemetry["runs"] += executed
    _telemetry["cache_hits"] += len(plan.specs) - len(plan.pending)
    _telemetry["cache_dropped_puts"] += dropped_puts
    completed = [plan.results[index] for index, *_ in plan.pending
                 if plan.results[index] is not None]
    _telemetry["wall_seconds"] += sum(result.wall_seconds
                                      for result in completed)
    _telemetry["accesses"] += sum(result.stats.total_accesses
                                  for result in completed)


def _run_job(job: Tuple[int, RunSpec, Optional[str]]) -> RunResult:
    _index, spec, trace_path = job
    return execute_run(spec, trace_path)


def run_many(specs: Sequence[RunSpec], jobs: Optional[int] = None,
             cache=USE_SESSION_CACHE, trace_dir=None,
             policy: Optional[CampaignPolicy] = None,
             journal: Optional[CampaignJournal] = None,
             bus=None) -> List[RunResult]:
    """Run every ``(config, workload)`` spec; results in request order.

    ``jobs=None`` reads ``REPRO_JOBS``. ``cache=None`` disables
    memoization (every spec is executed); by default the session cache
    is consulted and filled. ``trace_dir`` enables event tracing on
    every *executed* run: each writes ``run<NNNN>_<workload>.jsonl``
    (plus its time-series sibling) into that directory, and the
    result's ``trace_path`` points at it. Cache hits keep whatever trace
    path their original execution stored.

    Pending runs execute under :func:`parallel_map` with ``policy``
    (default: ``REPRO_RUN_TIMEOUT`` / ``REPRO_RETRIES``, else
    :class:`~repro.harness.campaign.CampaignPolicy`). With a
    ``journal``, completed runs are committed as they finish and a
    re-run replays them without re-simulating. Completed runs are
    cached (and journaled) before a run that still failed after its
    retries raises :class:`~repro.harness.campaign.CampaignError`
    naming the failing spec's index and workload.
    """
    jobs = default_jobs() if jobs is None else parse_jobs(jobs, "jobs")
    if cache is USE_SESSION_CACHE:
        cache = session_cache()
    plan = plan_batch(specs, cache, trace_dir,
                      want_keys=journal is not None)
    dropped_before = cache.dropped_puts if cache is not None else 0
    outcomes = parallel_map(
        _run_job, plan.pending,
        keys=([plan.keys[index] for index, *_ in plan.pending]
              if plan.keys else None),
        jobs=jobs, policy=policy or policy_from_env() or CampaignPolicy(),
        journal=journal, bus=bus)

    executed = 0
    failures: List[Tuple[int, RunFailure]] = []
    for (index, _spec, _trace), outcome in zip(plan.pending, outcomes):
        if not outcome.ok:
            failures.append((index, outcome))
            continue
        plan.results[index] = outcome.value
        executed += not outcome.resumed
        if cache is not None:
            cache.put(plan.keys[index], outcome.value)
    resolve_aliases(plan)
    record_batch_telemetry(
        plan, executed,
        dropped_puts=(cache.dropped_puts - dropped_before
                      if cache is not None else 0))
    if failures:
        index, failure = failures[0]
        raise CampaignError(
            [failure for _index, failure in failures],
            journal_path=None if journal is None else str(journal.path),
            detail=(f"run {index} ({plan.specs[index][1].name}) "
                    f"{failure.kind} after {failure.attempts} attempt(s): "
                    f"{failure.error_type}: {failure.error}; {executed} "
                    f"completed runs were kept in the cache"))
    return plan.results  # type: ignore[return-value]
