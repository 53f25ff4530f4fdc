"""Policy, journal and outcome types for fault-tolerant batches.

Every batch of independent runs executes through
:func:`repro.harness.parallel.parallel_map`; this module holds what that
executor is configured and judged by, so long unattended executions
survive the failure modes they actually hit:

* **Typed outcomes** -- a run that raises (or whose worker process is
  killed outright) becomes a :class:`RunFailure` carrying the run key,
  error, traceback, and attempt count; every other run's result is kept
  as a :class:`RunSuccess`.
* **Per-run timeouts** -- :func:`execute_guarded` self-arms ``SIGALRM``
  (via ``signal.setitimer``) around each run, so a wedged simulation
  turns into a ``timeout`` failure instead of hanging the batch.
* **Retry with exponential backoff** -- :class:`CampaignPolicy` decides
  which failures are transient (a dead worker, any ``OSError``) and how
  often and how late they are re-executed.
* **Checkpoint/resume** -- a :class:`CampaignJournal` appends one JSONL
  record per committed run (key + pickled payload, flushed and fsynced)
  and keeps an atomic sibling checkpoint file via
  :mod:`repro.common.ioutil`. Re-running the same batch with the same
  journal skips every committed run and replays its recorded payload,
  so the resumed batch's aggregate statistics are bit-identical to an
  uninterrupted one.

The journal doubles as an observability trace: retry, timeout,
worker-death, and resume-skip records use the matching
:class:`~repro.obs.events.EventKind` values, so ``repro report
<journal>`` renders a campaign-health section. :func:`execute_guarded`
is also the per-item guard of the service worker fleet
(:mod:`repro.service.worker`).
"""

from __future__ import annotations

import base64
import json
import math
import os
import pickle
import signal
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.common.errors import ConfigError
from repro.common.ioutil import atomic_write_text

__all__ = [
    "CampaignError", "CampaignJournal", "CampaignPolicy", "RunFailure",
    "RunSuccess", "execute_guarded", "journal_summary", "policy_from_env",
    "values_of",
]

#: Failure kinds a campaign distinguishes (``RunFailure.kind``).
EXCEPTION = "exception"
TIMEOUT = "timeout"
WORKER_DEATH = "worker-death"


@dataclass(frozen=True)
class CampaignPolicy:
    """Retry/timeout policy for one campaign.

    ``retries`` counts *re*-executions: ``retries=2`` allows three
    attempts total. Only transient failures are retried -- worker death
    always, ``OSError`` by default, timeouts only when
    ``retry_timeouts`` is set (a deterministic simulation that timed
    out once will usually time out again).
    """

    retries: int = 2
    run_timeout: Optional[float] = None
    backoff_base: float = 0.25
    backoff_cap: float = 8.0
    retry_timeouts: bool = False

    def backoff(self, attempt: int) -> float:
        """Delay before re-executing after the ``attempt``-th failure."""
        return min(self.backoff_cap,
                   self.backoff_base * (2.0 ** max(0, attempt - 1)))

    def should_retry(self, kind: str, transient: bool,
                     attempt: int) -> bool:
        """Whether the ``attempt``-th failure of ``kind`` runs again."""
        if attempt > self.retries:
            return False
        if kind == WORKER_DEATH:
            return True
        if kind == TIMEOUT:
            return self.retry_timeouts
        return transient


def policy_from_env() -> Optional[CampaignPolicy]:
    """Build a policy from ``REPRO_RUN_TIMEOUT`` / ``REPRO_RETRIES``.

    Returns ``None`` when neither is set (callers then use their own
    default policy). Malformed values raise
    :class:`~repro.common.errors.ConfigError` so the CLI reports one
    clean line instead of a traceback.
    """
    raw_timeout = (os.environ.get("REPRO_RUN_TIMEOUT") or "").strip()
    raw_retries = (os.environ.get("REPRO_RETRIES") or "").strip()
    if not raw_timeout and not raw_retries:
        return None
    timeout = None
    if raw_timeout:
        try:
            timeout = float(raw_timeout)
        except ValueError:
            raise ConfigError("REPRO_RUN_TIMEOUT must be a number of "
                              f"seconds, got {raw_timeout!r}") from None
        if not math.isfinite(timeout):
            # float() happily parses "inf" and "nan"; a NaN deadline
            # would silently disable the parent's SIGKILL backstop.
            raise ConfigError("REPRO_RUN_TIMEOUT must be a finite number "
                              f"of seconds, got {raw_timeout!r}")
        if timeout <= 0:
            raise ConfigError("REPRO_RUN_TIMEOUT must be positive, got "
                              f"{raw_timeout!r}")
    retries = 0
    if raw_retries:
        try:
            retries = int(raw_retries)
        except ValueError:
            raise ConfigError("REPRO_RETRIES must be a non-negative "
                              f"integer, got {raw_retries!r}") from None
        if retries < 0:
            raise ConfigError("REPRO_RETRIES must be a non-negative "
                              f"integer, got {raw_retries!r}")
    return CampaignPolicy(retries=retries, run_timeout=timeout)


# ----------------------------------------------------------------------
# Typed outcomes
# ----------------------------------------------------------------------
@dataclass
class RunSuccess:
    """One completed run (live, retried, or replayed from a journal)."""

    index: int
    key: str
    value: Any
    attempts: int = 1
    resumed: bool = False

    ok = True


@dataclass
class RunFailure:
    """One run that did not produce a result after every attempt."""

    index: int
    key: str
    kind: str                       # exception | timeout | worker-death
    error_type: str = ""
    error: str = ""
    traceback: str = ""
    attempts: int = 1

    ok = False

    def __str__(self) -> str:
        detail = f": {self.error_type}: {self.error}" if self.error_type \
            else ""
        return (f"{self.key}: {self.kind} after {self.attempts} "
                f"attempt(s){detail}")


RunOutcome = Union[RunSuccess, RunFailure]


class CampaignError(RuntimeError):
    """A batch finished with unresolved :class:`RunFailure` records.

    Raised only after every sibling run has finished and been kept.
    ``detail`` replaces the first failure's description in the message
    (``run_many`` names the failing spec's workload there).
    """

    def __init__(self, failures: Sequence[RunFailure],
                 journal_path: Optional[str] = None,
                 detail: str = "") -> None:
        self.failures = list(failures)
        self.journal_path = journal_path
        hint = (f"; resume with the journal at {journal_path}"
                if journal_path else "")
        super().__init__(
            f"{len(self.failures)} of the campaign's runs failed "
            f"(first: {detail or self.failures[0]}){hint}")


def values_of(outcomes: Sequence[RunOutcome]) -> List[Any]:
    """The values of a batch's outcomes, in order; raises
    :class:`CampaignError` if any run failed."""
    failures = [outcome for outcome in outcomes if not outcome.ok]
    if failures:
        raise CampaignError(failures)
    return [outcome.value for outcome in outcomes]


# ----------------------------------------------------------------------
# Journal: append-only JSONL + atomic checkpoint
# ----------------------------------------------------------------------
_MISS = object()


class CampaignJournal:
    """Append-only JSONL journal of committed runs.

    One ``run_ok`` record per committed run (key + base64-pickled
    payload), flushed and fsynced before the commit is acknowledged;
    retry/timeout/worker-death/resume-skip notes ride along as
    event-style records. A sibling ``<name>.checkpoint.json`` summary is
    republished atomically after every commit. A torn trailing line
    (the writer died mid-append) is ignored on load, so a journal is
    always resumable.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.meta: Dict[str, Any] = {}
        self._committed: Dict[str, Any] = {}
        self.counts: Dict[str, int] = {}
        if self.path.exists():
            self._load()
        self._handle = self.path.open("a", encoding="utf-8")

    # -- loading -------------------------------------------------------
    def _load(self) -> None:
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break               # torn tail: ignore, stay resumable
                kind = record.get("kind")
                if kind == "meta":
                    self.meta.update(record)
                    continue
                self.counts[kind] = self.counts.get(kind, 0) + 1
                if kind == "run_ok":
                    try:
                        payload = pickle.loads(base64.b64decode(
                            record["payload"]))
                    except Exception:   # noqa: BLE001 - damaged record
                        continue        # treat as uncommitted
                    self._committed[record["key"]] = payload

    # -- identity ------------------------------------------------------
    def ensure_meta(self, **meta) -> None:
        """Pin (or verify) the campaign identity this journal belongs to.

        A journal written by one campaign must not silently resume a
        different one: any already-recorded field that disagrees raises
        :class:`~repro.common.errors.ConfigError`.
        """
        stale = {key: self.meta[key] for key, value in meta.items()
                 if key in self.meta and self.meta[key] != value}
        if stale:
            detail = ", ".join(
                f"{key}: journal={self.meta[key]!r} requested={meta[key]!r}"
                for key in stale)
            raise ConfigError(
                f"journal {self.path} belongs to a different campaign "
                f"({detail})")
        fresh = {key: value for key, value in meta.items()
                 if key not in self.meta}
        if fresh:
            self.meta.update(fresh)
            self._append({"kind": "meta", **fresh}, durable=True)

    # -- writes --------------------------------------------------------
    def _append(self, record: dict, durable: bool = False) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        if durable:
            os.fsync(self._handle.fileno())

    def commit(self, key: str, payload: Any) -> None:
        """Durably record one completed run and its result payload."""
        encoded = base64.b64encode(
            pickle.dumps(payload,
                         protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")
        self._append({"kind": "run_ok", "key": key, "payload": encoded},
                     durable=True)
        self._committed[key] = payload
        self.counts["run_ok"] = self.counts.get("run_ok", 0) + 1
        self._checkpoint()

    def note(self, kind: str, step: int = -1, cause: str = "",
             **extra) -> None:
        """Record a non-commit campaign event (retry, timeout, ...)."""
        record: Dict[str, Any] = {"kind": kind}
        if step >= 0:
            record["step"] = step
        if cause:
            record["cause"] = cause
        record.update(extra)
        self._append(record)
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def _checkpoint(self) -> None:
        checkpoint = {
            "journal": self.path.name,
            "committed": self.counts.get("run_ok", 0),
            "counts": dict(self.counts),
            "meta": {key: value for key, value in self.meta.items()
                     if key != "kind"},
        }
        atomic_write_text(self.checkpoint_path(),
                          json.dumps(checkpoint, indent=1) + "\n")

    def checkpoint_path(self) -> Path:
        return self.path.with_name(self.path.name + ".checkpoint.json")

    # -- reads ---------------------------------------------------------
    def get(self, key: str) -> Any:
        """The committed payload for ``key``, or the ``_MISS`` sentinel."""
        return self._committed.get(key, _MISS)

    def __contains__(self, key: str) -> bool:
        return key in self._committed

    def __len__(self) -> int:
        return len(self._committed)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def journal_summary(journal_path) -> Dict[str, Any]:
    """Progress summary for a journal, torn-checkpoint tolerant.

    Prefers the atomic ``<name>.checkpoint.json`` sibling (cheap: no
    payload decoding); a checkpoint that is missing, truncated mid-write
    (copied while being replaced, or damaged by the filesystem), or
    decodes to the wrong shape falls back to replaying the journal --
    the same guard the journal itself applies to a torn trailing line.
    The fallback marks the summary with ``"recovered": True``.
    """
    journal_path = Path(journal_path)
    checkpoint = journal_path.with_name(
        journal_path.name + ".checkpoint.json")
    try:
        summary = json.loads(checkpoint.read_text(encoding="utf-8"))
        if isinstance(summary, dict) and "committed" in summary:
            return summary
    except (OSError, ValueError):
        pass                            # torn/corrupt: replay instead
    counts: Dict[str, int] = {}
    meta: Dict[str, Any] = {}
    if journal_path.exists():
        with journal_path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    break               # torn tail: same rule as _load
                kind = record.get("kind")
                if kind == "meta":
                    meta.update({key: value
                                 for key, value in record.items()
                                 if key != "kind"})
                    continue
                counts[kind] = counts.get(kind, 0) + 1
    return {
        "journal": journal_path.name,
        "committed": counts.get("run_ok", 0),
        "counts": counts,
        "meta": meta,
        "recovered": True,
    }


# ----------------------------------------------------------------------
# Guarded execution (every executor item and every service item)
# ----------------------------------------------------------------------
class _RunTimeout(BaseException):
    # BaseException deliberately: the run under execution (oracle,
    # runner) may catch-and-record ``Exception`` as part of its own
    # contract, and a timeout must never be swallowed into a result --
    # only ``execute_guarded`` may catch it.
    pass


def _raise_timeout(_signum, _frame):
    raise _RunTimeout()


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


def execute_guarded(fn, item, timeout: Optional[float]) -> tuple:
    """Run ``fn(item)`` with a self-armed deadline; never raises.

    Returns ``("ok", value)`` or
    ``("err", kind, error_type, message, traceback, transient)``.
    Shared by :func:`repro.harness.parallel.parallel_map` (serial loop
    and slot workers alike) and the service worker fleet
    (:mod:`repro.service.worker`).
    """
    armed = False
    if timeout and _alarm_available():
        previous = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        armed = True
    try:
        return ("ok", fn(item))
    except _RunTimeout:
        return ("err", TIMEOUT, "TimeoutError",
                f"run exceeded {timeout:.3f}s", "", False)
    except Exception as exc:           # noqa: BLE001 - crash isolation
        return ("err", EXCEPTION, type(exc).__name__, str(exc),
                traceback.format_exc(), isinstance(exc, OSError))
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
