"""The benchmark's four workloads.

Each workload generates its inputs from the benchmark seed with the
repo's own trace builders, then runs iterations of fixed work through
the program's public entry points.  Modelled caches start empty (no ROI
warm-up), as in the paper's figures, and the access kernel is whatever
``SystemConfig`` ships, so a kernel change shows up here.

``sim-hit``   low-miss apps: the kernel retires most accesses in bulk and
              the private hierarchy and stats accounting dominate.
``sim-miss``  miss-, upgrade- and forward-heavy apps under four configs:
              the directory, LLC, ZeroDEV entry engine, mesh, DRAM and
              shadow do the work; the kernel retires almost nothing.
``figure``    the Fig 17 and Fig 18 run batches through ``run_configs``
              on two workers: batch planning, ``run_key`` hashing, the
              result-cache dedup between the batches, the fork pool.
``verify``    ``repro verify``, ``repro modelcheck`` and ``repro fuzz``
              driven through ``repro.cli.main``.

An iteration returns its raw results; ``check`` then applies the
correctness gate, after any traced-pass counters were read (the gate's
own calls into the layers must not be counted).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import re
from collections import Counter
from time import perf_counter

from layers import (RunnerProfiler, batch_patches, instrument_system,
                    kernel_patches, verify_patches)
from spans import SpanRecorder

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCReplacement,
                                 Protocol, scaled_socket)
from repro.harness.experiments import (MT_SUITES, REPRESENTATIVE,
                                       run_configs, speedup_of,
                                       zerodev_config)
from repro.harness.parallel import telemetry_since, telemetry_snapshot
from repro.harness.reporting import geomean
from repro.harness.result_cache import reset_session_cache
from repro.harness.runner import run_workload
from repro.harness.system_builder import build_system
from repro.workloads.suites import (find_profile, make_multithreaded,
                                    make_rate_workload)

#: Capacity scale of the paper-figure socket (``REPRO_SCALE`` default).
FIGURE_SCALE = 16
#: Simulator counters summed over a pass, for the per-layer metrics and
#: for checking the traced counts against the simulator's own.
TOTALS = ("traffic_bytes", "dram_row_hits", "dram_row_misses",
          "dir_evictions", "dev_invalidations", "llc_evictions",
          "entry_llc_evictions", "corrupted_block_reads")


@dataclasses.dataclass
class Iteration:
    """Raw outcome of one iteration, before the correctness gate."""

    wall_s: float
    accesses: int = 0
    results: list = dataclasses.field(default_factory=list)
    #: Simulator counters / batch telemetry for the per-layer metrics.
    totals: dict = dataclasses.field(default_factory=dict)
    #: Workload-specific end-to-end figures (speedup, verify rates).
    extras: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Verdict:
    """The correctness gate applied to one iteration."""

    attempted: int = 0
    #: One digest per checked unit (run, batch run or command).
    digests: list = dataclasses.field(default_factory=list)
    #: unit index -> what failed (-1: the iteration as a whole).
    problems: dict = dataclasses.field(default_factory=dict)

    def fail(self, unit: int, message: str) -> None:
        self.problems.setdefault(unit, []).append(message)

    @property
    def failed(self) -> int:
        return min(len(self.problems), self.attempted)


def stats_digest(stats, shadow=None) -> str:
    """Digest of every counter of a ``SystemStats`` (and the shadow
    memory's committed versions), for comparing two commits."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, dict):
            value = sorted((str(key), count) for key, count in value.items())
        digest.update(f"{field.name}={value};".encode())
    if shadow is not None:
        digest.update(repr(sorted(
            shadow._latest.items())).encode())  # noqa: SLF001
    return digest.hexdigest()[:16]


def make_workload(app: str, suite: str, config, accesses_per_core: int,
                  seed: int, rec=None):
    """One app's traces from the repo's builders (rate copies for
    CPU2017, threads otherwise), inside a ``workloads.gen`` span."""
    builder = make_rate_workload if suite == "CPU2017" else \
        make_multithreaded
    if rec is None:
        return builder(find_profile(app), config, accesses_per_core, seed)
    with rec.span("workloads.gen"):
        return builder(find_profile(app), config, accesses_per_core, seed)


def _is_zerodev(config) -> bool:
    return config.protocol is Protocol.ZERODEV


def _zerodev_speedup(pairs) -> float:
    """Geomean over apps of baseline cycles over ZeroDEV cycles
    (weighted speedup for rate apps, as the figures compute it)."""
    return geomean([speedup_of(base, new, suite)
                    for suite, base, new in pairs])


# ----------------------------------------------------------------------
# sim-hit / sim-miss
# ----------------------------------------------------------------------
class SimWorkload:
    """Apps x configs, each run in process through ``run_workload``."""

    def __init__(self, apps, configs, accesses_per_core: int,
                 emit_pass: bool = False) -> None:
        self.apps = apps
        #: Traced runs add one pass with event emission on (``obs``).
        self.emit_pass = emit_pass
        self.labels = list(configs)
        self.base = scaled_socket(FIGURE_SCALE)
        self.configs = {label: make(self.base)
                        for label, make in configs.items()}
        self.accesses_per_core = accesses_per_core
        self.inputs = []

    def setup(self, seed: int, rec=None) -> None:
        """Generate every app's traces and build each config's system
        once (systems are rebuilt, untimed, before every iteration)."""
        self.inputs = [(app, suite,
                        make_workload(app, suite, self.base,
                                      self.accesses_per_core, seed, rec))
                       for app, suite in self.apps]
        for config in self.configs.values():
            build_system(config)

    def _systems(self, rec=None, counts=None):
        runs = []
        for label in self.labels:
            for app, suite, workload in self.inputs:
                system = build_system(self.configs[label])
                if rec is not None:
                    instrument_system(rec, system, counts)
                runs.append((label, app, suite, workload, system))
        return runs

    def iterate(self, rec=None, counts=None) -> Iteration:
        runs = self._systems(rec, counts)
        results = []
        if rec is None:
            started = perf_counter()
            for _label, _app, _suite, workload, system in runs:
                results.append(run_workload(system, workload))
            wall = perf_counter() - started
        else:
            profiler = RunnerProfiler(rec)
            with kernel_patches(rec, counts):
                started = perf_counter()
                for run_id, (_l, _a, _s, workload, system) in \
                        enumerate(runs):
                    rec.run_id = run_id
                    with rec.span("run.sim"):
                        results.append(run_workload(system, workload,
                                                    profiler=profiler))
                wall = perf_counter() - started
        by_key = {(label, app): (suite, result) for
                  (label, app, suite, _w, _s), result in zip(runs, results)}
        speedups = [(suite, result, by_key[("zerodev-nodir", app)][1])
                    for (label, app), (suite, result) in by_key.items()
                    if label == "baseline-1x"]
        totals = Counter()
        for result in results:
            for name in TOTALS:
                totals[name] += getattr(result.stats, name)
        totals["accesses"] = sum(r.stats.total_accesses for r in results)
        return Iteration(wall, totals["accesses"],
                         list(zip(runs, results)), dict(totals),
                         {"zerodev_speedup": _zerodev_speedup(speedups)})

    def check(self, iteration: Iteration) -> Verdict:
        verdict = Verdict(len(iteration.results))
        for unit, ((label, app, _suite, workload, system), result) in \
                enumerate(iteration.results):
            tag = f"{label}/{app}"
            stats = result.stats
            try:
                system.check_invariants()
            except Exception as error:      # noqa: BLE001 - reported
                verdict.fail(unit, f"{tag}: invariant: {error}")
            if not system.config.check_data:
                verdict.fail(unit, f"{tag}: check_data is off")
            if _is_zerodev(system.config) and stats.dev_invalidations:
                verdict.fail(unit, f"{tag}: {stats.dev_invalidations} DEVs")
            if stats.total_accesses != workload.total_accesses:
                verdict.fail(unit, f"{tag}: {stats.total_accesses} of "
                                   f"{workload.total_accesses} accesses")
            verdict.digests.append(stats_digest(stats, system.shadow))
        return verdict

    def inject_failure(self, iteration: Iteration) -> None:
        """Self-test hook: one run reports an access it never made."""
        iteration.results[0][1].stats.accesses[0] += 1

    def obs_pass(self):
        """One untimed pass with ``repro.obs`` attached to every system
        and a ring-buffer sink; returns ``(events, seconds inside
        EventBus.emit, per-run digests)``."""
        from repro.obs import EventBus, RingBufferSink, attach

        rec = SpanRecorder()
        bus = EventBus()
        sink = RingBufferSink()
        bus.subscribe(sink)
        bus.emit = rec.wrap("obs.emit", bus.emit)
        digests = []
        for *_, workload, system in self._systems():
            attach(system, bus)
            result = run_workload(system, workload)
            digests.append(stats_digest(result.stats, system.shadow))
        return sink.total_seen, rec.seconds("obs.emit"), digests

    def scalar_digests(self) -> list:
        """Per-run digests under ``REPRO_KERNEL=scalar`` (untimed)."""
        previous = os.environ.get("REPRO_KERNEL")
        os.environ["REPRO_KERNEL"] = "scalar"
        try:
            iteration = self.iterate()
        finally:
            if previous is None:
                del os.environ["REPRO_KERNEL"]
            else:
                os.environ["REPRO_KERNEL"] = previous
        return [stats_digest(result.stats, system.shadow)
                for (*_, system), result in iteration.results]


def sim_hit() -> SimWorkload:
    return SimWorkload(
        apps=(("swaptions", "PARSEC"), ("blackscholes", "PARSEC"),
              ("leela", "CPU2017"), ("povray", "CPU2017"),
              ("exchange2", "CPU2017"), ("imagick", "CPU2017")),
        configs={"baseline-1x": lambda base: base,
                 "zerodev-nodir": zerodev_config},
        accesses_per_core=4000)


def sim_miss() -> SimWorkload:
    def quarter_llc(base):
        return zerodev_config(base, llc=CacheGeometry(
            base.llc.size_bytes // 4, base.llc.ways))

    return SimWorkload(
        apps=(("canneal", "PARSEC"), ("ocean_cp", "SPLASH2X"),
              ("fft", "SPLASH2X"), ("vips", "PARSEC"),
              ("mcf", "CPU2017"), ("xalancbmk", "CPU2017")),
        configs={"baseline-1x": lambda base: base,
                 "baseline-1/8x": lambda base: base.with_(
                     directory=DirectoryConfig(ratio=1 / 8)),
                 "zerodev-nodir": zerodev_config,
                 "zerodev-nodir-qllc": quarter_llc},
        accesses_per_core=1000, emit_pass=True)


# ----------------------------------------------------------------------
# figure
# ----------------------------------------------------------------------
class FigureWorkload:
    """The Fig 17 and Fig 18 batches, issued as two ``run_configs``
    calls with a cold session cache; the second batch reuses the first
    batch's baseline and FPSS/dataLRU runs from the cache."""

    JOBS = 2

    def __init__(self, accesses_per_core: int) -> None:
        self.accesses_per_core = accesses_per_core
        self.base = scaled_socket(FIGURE_SCALE)
        base = self.base
        half = CacheGeometry(base.llc.size_bytes // 2, base.llc.ways)
        fig17 = [zerodev_config(base, policy=policy) for policy in (
            DirCachingPolicy.SPILL_ALL, DirCachingPolicy.FPSS,
            DirCachingPolicy.FUSE_ALL)]
        fig18 = [zerodev_config(base, replacement=LLCReplacement.SP_LRU),
                 zerodev_config(base),
                 base.with_(llc=half),
                 zerodev_config(base, replacement=LLCReplacement.SP_LRU,
                                llc=half),
                 zerodev_config(base, llc=half)]
        self.batch_configs = ([base] + fig17, [base] + fig18)
        self.apps = [(app, suite) for suite in list(MT_SUITES) + ["CPU2017"]
                     for app in REPRESENTATIVE[suite]]
        self.inputs = []

    def setup(self, seed: int, rec=None) -> None:
        os.environ["REPRO_JOBS"] = str(min(self.JOBS, os.cpu_count() or 1))
        self.inputs = [(suite, make_workload(app, suite, self.base,
                                             self.accesses_per_core, seed,
                                             rec))
                       for app, suite in self.apps]
        for configs in self.batch_configs:
            for config in configs:
                build_system(config)

    def _batches(self):
        return [[(config, workload) for config in configs
                 for _suite, workload in self.inputs]
                for configs in self.batch_configs]

    def iterate(self, rec=None, counts=None) -> Iteration:
        batches = self._batches()
        reset_session_cache()
        results, per_batch = [], []
        before = telemetry_snapshot()
        patches = (batch_patches(rec) if rec is not None
                   else contextlib.nullcontext())
        with patches:
            started = perf_counter()
            for batch_id, pairs in enumerate(batches):
                mark = telemetry_snapshot()
                if rec is None:
                    results.append(run_configs(pairs))
                else:
                    rec.run_id = batch_id
                    with rec.span("parallel.batch"):
                        results.append(run_configs(pairs))
                per_batch.append(telemetry_since(mark))
            wall = perf_counter() - started
        delta = telemetry_since(before)
        base_runs = results[0][:len(self.inputs)]
        fpss_runs = results[0][2 * len(self.inputs):3 * len(self.inputs)]
        speedup = _zerodev_speedup(
            [(suite, base, new) for (suite, _w), base, new
             in zip(self.inputs, base_runs, fpss_runs)])
        totals = {
            "accesses": int(delta["accesses"]),
            "parallel.runs_executed": int(delta["runs"]),
            "parallel.cache_hits": int(delta["cache_hits"]),
            "parallel.run_wall_s": delta["wall_seconds"],
            "parallel.effective_jobs": int(
                telemetry_snapshot()["effective_jobs"]),
            "run_failures": int(delta["run_failures"]),
            "run_retries": int(delta["run_retries"]),
            "batch2_cache_hits": int(per_batch[1]["cache_hits"]),
        }
        return Iteration(wall, totals["accesses"],
                         list(zip(batches, results)), totals,
                         {"zerodev_speedup": speedup})

    def inject_failure(self, iteration: Iteration) -> None:
        """Self-test hook: one run reports an access it never made."""
        iteration.results[0][1][0].stats.accesses[0] += 1

    def check(self, iteration: Iteration) -> Verdict:
        verdict = Verdict()
        totals = iteration.totals
        for batch_id, (pairs, results) in enumerate(iteration.results):
            if len(results) != len(pairs):
                verdict.fail(-1, f"batch {batch_id}: {len(results)} "
                                 f"results for {len(pairs)} runs")
            for (config, workload), result in zip(pairs, results):
                unit = verdict.attempted
                verdict.attempted += 1
                tag = f"batch {batch_id}/{workload.name}"
                if result is None:
                    verdict.fail(unit, f"{tag}: no result")
                    continue
                stats = result.stats
                if stats.total_accesses != workload.total_accesses:
                    verdict.fail(unit, f"{tag}: {stats.total_accesses} of "
                                       f"{workload.total_accesses} accesses")
                if _is_zerodev(config) and stats.dev_invalidations:
                    verdict.fail(unit, f"{tag}: "
                                       f"{stats.dev_invalidations} DEVs")
                verdict.digests.append(stats_digest(stats))
        for name in ("run_failures", "run_retries"):
            if totals[name]:
                verdict.fail(-1, f"telemetry: {totals[name]} {name}")
        if not totals["batch2_cache_hits"]:
            verdict.fail(-1, "second batch reused no cached run")
        return verdict


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------
MC_MODELS = ("zerodev-fuse-private-spill-shared", "dls")
FUZZ_BUDGET = 8
_EXPLORED = re.compile(r"explored ([\d,]+) sequences")
_MC_LINE = re.compile(r"^(\S+): depth (\d+)/(\d+), ([\d,]+) unique states, "
                      r"([\d,]+) transitions checked, ([\d,]+) dedup hits",
                      re.M)
_FUZZ_RUNS = re.compile(r"models, (\d+) runs")


def _int(text: str) -> int:
    return int(text.replace(",", ""))


class VerifyWorkload:
    """Three user-facing commands through ``repro.cli.main``."""

    def __init__(self) -> None:
        self.commands = []

    def setup(self, seed: int, rec=None) -> None:
        from repro.cli import build_parser
        from repro.verify.models import model_by_name

        self.commands = [
            ("exhaustive", ["verify", "--protocol", "zerodev",
                            "--depth", "3"]),
            ("exhaustive", ["verify", "--protocol", "baseline",
                            "--depth", "3"]),
            ("mc", ["modelcheck", "--models", ",".join(MC_MODELS),
                    "--depth", "4", "--jobs", "2"]),
            ("fuzz", ["fuzz", "--seed", str(seed),
                      "--budget", str(FUZZ_BUDGET)]),
        ]
        build_parser()
        for name in MC_MODELS:
            model_by_name(name).build()

    def iterate(self, rec=None, counts=None) -> Iteration:
        from repro.cli import main

        reports = []
        patches = (verify_patches(rec, counts, reports) if rec is not None
                   else contextlib.nullcontext())
        outputs, seconds = [], Counter()
        with patches:
            started = perf_counter()
            for run_id, (kind, argv) in enumerate(self.commands):
                if rec is not None:
                    rec.run_id = run_id
                buffer = io.StringIO()
                began = perf_counter()
                with contextlib.redirect_stdout(buffer):
                    code = main(argv)
                seconds[kind] += perf_counter() - began
                outputs.append((kind, argv, code, buffer.getvalue()))
            wall = perf_counter() - started
        text = {kind: "".join(out for k, _a, _c, out in outputs if k == kind)
                for kind in seconds}
        mc_states = sum(_int(m.group(4))
                        for m in _MC_LINE.finditer(text["mc"]))
        fuzz_runs = sum(_int(m.group(1))
                        for m in _FUZZ_RUNS.finditer(text["fuzz"]))
        extras = {
            "exhaustive_s": seconds["exhaustive"],
            "mc_states_per_s": mc_states / seconds["mc"],
            "fuzz_runs_per_s": fuzz_runs / seconds["fuzz"],
        }
        return Iteration(wall, 0, outputs, {"reports": reports}, extras)

    def inject_failure(self, iteration: Iteration) -> None:
        """Self-test hook: the first command reports a failing exit."""
        kind, argv, _code, out = iteration.results[0]
        iteration.results[0] = (kind, argv, 1, out)

    def check(self, iteration: Iteration) -> Verdict:
        verdict = Verdict(len(iteration.results))
        for unit, (kind, argv, code, out) in enumerate(iteration.results):
            tag = " ".join(argv[:3])
            if code != 0:
                verdict.fail(unit, f"{tag}: exit {code}")
            if kind == "exhaustive":
                found = _EXPLORED.findall(out)
                if "all invariants hold" not in out or not found:
                    verdict.fail(unit, f"{tag}: invariants not confirmed")
                verdict.digests.append(f"{kind}:{found}")
            elif kind == "mc":
                lines = _MC_LINE.findall(out)
                if len(lines) != len(MC_MODELS):
                    verdict.fail(unit, f"{tag}: {len(lines)} model reports")
                for model, reached, depth, *_ in lines:
                    if reached != depth:
                        verdict.fail(unit, f"{tag}: {model} stopped at "
                                           f"depth {reached}/{depth}")
                if "capped" in out:
                    verdict.fail(unit, f"{tag}: exploration capped")
                verdict.digests.append(f"{kind}:{lines}")
            else:
                runs = _FUZZ_RUNS.findall(out)
                if "no divergences" not in out or not runs:
                    verdict.fail(unit, f"{tag}: divergences reported")
                verdict.digests.append(f"{kind}:{argv}:{runs}")
        for report in iteration.totals.get("reports", ()):
            if not report.ok or getattr(report, "capped", False):
                verdict.fail(-1, f"traced report not clean: {report!r:.80}")
        return verdict


WORKLOADS = {
    "sim-hit": sim_hit,
    "sim-miss": sim_miss,
    "figure": lambda: FigureWorkload(accesses_per_core=300),
    "verify": VerifyWorkload,
}
