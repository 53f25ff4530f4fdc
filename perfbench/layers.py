"""Traced-pass instrumentation: spans around calls into each layer.

Nothing under ``src/`` is changed.  For the simulator layers the traced
pass replaces the public methods of the layer objects it built (the
system's cores, banks, directory, memory housing, mesh, DRAM, stats and
shadow) with span-recording wrappers stored as instance attributes, so
other systems in the process are untouched.  The kernel slot classes,
the verify entry points and the batch-planning functions are patched on
their class or module for the duration of one ``with`` block only.

Outcome counters (hits, evictions, useful scans, ...) are taken from the
wrapped calls' arguments and results, at the boundary where the work
happens; the self-tests compare them with the simulator's own counters.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

#: layer name -> public methods wrapped on each object of that layer.
PRIVATE = ("probe", "line_of", "read_hit_level", "write_hit_state",
           "commit_write", "fill", "invalidate", "downgrade_to_s",
           "refresh_version", "set_state")
LLC = ("lookup_data", "lookup_spill", "peek_data", "peek_spill",
       "set_full", "choose_victim", "insert", "remove")
#: ZeroDEV entry engine (Section III): the bank's fused/spilled entry
#: transitions and the home-memory housing of evicted entries.
CORE_BANK = ("fuse", "unfuse", "free_spill")
HOUSING = ("house", "peek", "promote", "is_garbage", "heal", "restore")
DIRECTORY = ("lookup", "peek", "has_room", "insert", "choose_victim",
             "remove")
MESH = ("hops", "core_to_bank", "core_to_core", "send",
        "send_core_to_bank", "send_bank_to_core", "send_core_to_core")
DRAM = ("read", "write")
STATS = ("record_message", "advance_core", "record_latency")
SHADOW = ("commit_write", "latest", "check_read")


def _wrap_methods(rec, obj, layer, names, after=None):
    after = after or {}
    for name in names:
        setattr(obj, name, rec.wrap(f"{layer}.{name}", getattr(obj, name),
                                    after.get(name)))


def instrument_system(rec, system, counts: Counter) -> None:
    """Wrap every layer object of one single-socket system."""
    from repro.caches.block import LineKind
    from repro.caches.private_cache import MESI
    from repro.obs.events import InvCause

    def read_hit(level, *_args, **_kw):
        counts["private.hits"] += level is not None

    def write_hit(state, *_args, **_kw):
        counts["private.hits"] += state is not None and state is not MESI.S

    def invalidated(_line, _block, cause="", **_kw):
        counts["directory.devs"] += cause == InvCause.DEV

    def looked_up(line, *_args, **_kw):
        counts["llc.hits"] += line is not None

    def inserted(victim, line, *_args, **_kw):
        counts["llc.evictions"] += victim is not None
        counts["core.spilled"] += line.kind is LineKind.SPILLED

    def fused(ok, *_args, **_kw):
        counts["core.fused"] += bool(ok)

    _wrap_methods(rec, system, "coherence", ("access",))
    for hierarchy in system.cores:
        _wrap_methods(rec, hierarchy, "private", PRIVATE,
                      {"read_hit_level": read_hit,
                       "write_hit_state": write_hit,
                       "invalidate": invalidated})
    for bank in system.banks:
        _wrap_methods(rec, bank, "llc", LLC,
                      {"lookup_data": looked_up, "insert": inserted})
        _wrap_methods(rec, bank, "core", CORE_BANK, {"fuse": fused})
    housing = getattr(system, "_housing", None)
    if housing is not None:
        _wrap_methods(rec, housing, "core", HOUSING)
    if system.directory is not None:
        _wrap_methods(rec, system.directory, "directory", DIRECTORY)
    _wrap_methods(rec, system.mesh, "mesh", MESH)
    _wrap_methods(rec, system.dram, "dram", DRAM)
    _wrap_methods(rec, system.stats, "stats", STATS)
    _wrap_methods(rec, system.shadow, "shadow", SHADOW)


@contextmanager
def patched(targets):
    """Set ``(owner, attribute, value)`` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def kernel_patches(rec, counts: Counter):
    """Spans around the slot kernels' scan and bulk retirement.

    ``ColumnarSlotKernel`` delegates short runs to the batched methods,
    so only the outermost kernel span counts a scan or a retired run.
    """
    from repro.kernel import ColumnarSlotKernel, SlotKernel

    def scanned(_result, slot, pos, *_args):
        if not rec.inside("kernel"):
            counts["kernel.scans"] += 1
            counts["kernel.scan_useful"] += slot._cls_safe_end > pos  # noqa: SLF001

    def retired(result, _slot, pos, *_args):
        if not rec.inside("kernel"):
            counts["kernel.runs"] += 1
            counts["kernel.retired"] += result[0] - pos

    targets = []
    for cls in (SlotKernel, ColumnarSlotKernel):
        for attr, name, after in (("_scan", "kernel.scan", scanned),
                                  ("retire_run", "kernel.retire", retired)):
            if attr in cls.__dict__:
                targets.append((cls, attr,
                                rec.wrap(name, cls.__dict__[attr], after)))
    return patched(targets)


def batch_patches(rec):
    """Spans around batch planning (cache lookup, ``run_key`` hashing,
    dedup) and the worker-pool fan-out of ``run_many``."""
    from repro.harness import parallel
    return patched([
        (parallel, "plan_batch",
         rec.wrap("parallel.plan", parallel.plan_batch)),
        (parallel, "parallel_map",
         rec.wrap("parallel.map", parallel.parallel_map)),
    ])


def verify_patches(rec, counts: Counter, reports: list):
    """Spans around the verify commands' engines and per-step checks;
    their reports are collected for the correctness gate."""
    import repro.verify
    from repro.coherence.exhaustive import ExhaustiveExplorer
    from repro.verify import modelcheck, oracle

    def explored(report, *_args, **_kw):
        counts["verify.exhaustive.sequences"] += report.sequences_explored
        reports.append(report)

    def checked(report, *_args, **_kw):
        counts["verify.mc.unique_states"] += report.unique_states
        counts["verify.mc.transitions"] += report.transitions
        counts["verify.mc.dedup_hits"] += report.dedup_hits
        reports.append(report)

    def fuzzed(report, *_args, **_kw):
        counts["verify.fuzz.runs"] += report.runs
        reports.append(report)

    check = rec.wrap("verify.checks", oracle.check_step)
    return patched([
        (ExhaustiveExplorer, "explore",
         rec.wrap("verify.exhaustive", ExhaustiveExplorer.explore,
                  explored)),
        (modelcheck, "explore_model",
         rec.wrap("verify.mc", modelcheck.explore_model, checked)),
        (repro.verify, "run_campaign",
         rec.wrap("verify.fuzz", repro.verify.run_campaign, fuzzed)),
        (oracle, "check_step", check),
        (modelcheck, "check_step", check),
    ])


class RunnerProfiler:
    """``run_workload(profiler=...)`` adapter: the runner's decode and
    drive phases become ``runner.*`` spans."""

    def __init__(self, rec) -> None:
        self._rec = rec

    def phase(self, name: str):
        return self._rec.span(f"runner.{name}")


def _frac(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(rec, counts: Counter, totals: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``totals`` carries the simulator's own counters summed over the
    pass (``accesses``, ``traffic_bytes``, ``dram_row_hits``,
    ``dram_row_misses``) and the batch telemetry of ``figure``.
    """
    access_calls = rec.calls("coherence.access")
    access_s = rec.seconds("coherence.access")
    retired = counts["kernel.retired"]
    private_probes = (rec.calls("private.read_hit_level")
                      + rec.calls("private.write_hit_state"))
    dram_rows = totals.get("dram_row_hits", 0) + totals.get(
        "dram_row_misses", 0)
    run_wall = totals.get("parallel.run_wall_s", 0.0)
    jobs = totals.get("parallel.effective_jobs", 1) or 1
    batch_s = rec.seconds("parallel.batch")
    metrics = {
        "workloads.gen_s": rec.seconds("workloads.gen"),
        "runner.decode_s": rec.seconds("runner.decode"),
        "runner.drive_s": rec.seconds("runner.drive"),
        "runner.self_s": rec.self_seconds("runner.drive"),
        "parallel.runs_executed": totals.get("parallel.runs_executed", 0),
        "parallel.cache_hits": totals.get("parallel.cache_hits", 0),
        "parallel.plan_s": rec.seconds("parallel.plan"),
        "parallel.run_wall_s": run_wall,
        "parallel.overhead_s": (batch_s - run_wall / jobs
                                if batch_s else 0.0),
        "kernel.bulk_frac": _frac(retired, totals.get("accesses", 0)),
        "kernel.scan_calls": counts["kernel.scans"],
        "kernel.scan_useful_frac": _frac(counts["kernel.scan_useful"],
                                         counts["kernel.scans"]),
        "kernel.scan_s": rec.seconds("kernel.scan"),
        "kernel.retire_s": rec.seconds("kernel.retire"),
        "kernel.mean_run": _frac(retired, counts["kernel.runs"]),
        "coherence.access_calls": access_calls,
        "coherence.access_s": access_s,
        "coherence.self_s": rec.self_seconds("coherence.access"),
        "coherence.us_per_access": 1e6 * _frac(access_s, access_calls),
        "private.hit_frac": _frac(counts["private.hits"], private_probes),
        "llc.hit_frac": _frac(counts["llc.hits"],
                              rec.calls("llc.lookup_data")),
        "llc.evictions": counts["llc.evictions"],
        "directory.evictions": rec.calls("directory.choose_victim"),
        "directory.devs": counts["directory.devs"],
        "core.spilled": counts["core.spilled"],
        "core.fused": counts["core.fused"],
        "core.entry_llc_evictions": rec.calls("core.house"),
        "core.corrupted_reads": rec.calls("core.promote"),
        "mesh.traffic_bytes": totals.get("traffic_bytes", 0),
        "dram.row_hit_frac": _frac(totals.get("dram_row_hits", 0),
                                   dram_rows),
        "obs.events": totals.get("obs.events", 0),
        "obs.emit_s": totals.get("obs.emit_s", 0.0),
        "verify.exhaustive.sequences":
            counts["verify.exhaustive.sequences"],
        "verify.exhaustive.s": rec.seconds("verify.exhaustive"),
        "verify.mc.unique_states": counts["verify.mc.unique_states"],
        "verify.mc.transitions": counts["verify.mc.transitions"],
        "verify.mc.dedup_frac": _frac(counts["verify.mc.dedup_hits"],
                                      counts["verify.mc.transitions"]),
        "verify.mc.s": rec.seconds("verify.mc"),
        "verify.checks.calls": rec.calls("verify.checks"),
        "verify.checks.s": rec.seconds("verify.checks"),
        "verify.fuzz.runs": counts["verify.fuzz.runs"],
        "verify.fuzz.s": rec.seconds("verify.fuzz"),
    }
    for layer in ("private", "llc", "directory", "core", "mesh", "dram",
                  "stats", "shadow"):
        calls, inclusive, _own = rec.layer(layer)
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.s"] = inclusive
    return metrics
