#!/usr/bin/env python3
"""Benchmark of the ZeroDEV simulator, end to end and per layer.

    python3 perfbench/run.py --workload sim-miss --seed 1 --seconds 20 \
        --trace 0

runs one workload from the root of a checkout: it generates the inputs
from ``--seed``, sets up several times (median reported), runs one
warm-up iteration, then repeats iterations of the workload for
``--seconds`` and prints a summary
followed, as the last line, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of untraced iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (median over traced iterations); the span tree of the
last traced iteration is written under ``.perfbench_out/``.  ``--all``
runs every workload in both modes and prints every metric with its unit.

Any failed correctness check makes the exit status 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

_STARTED = perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: The seed every recorded baseline uses, and the held-out seed later
#: claims are re-checked on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
#: Set-ups per run (the median is reported) and the fewest untraced
#: iterations a run measures, however short ``--seconds`` is.
SETUP_REPEATS = 3
MIN_ITERATIONS = 3

#: (name, unit, better) -- mirrored in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("workloads.gen_s", "s", "lower"),
    ("runner.decode_s", "s", "lower"),
    ("runner.drive_s", "s", "lower"),
    ("runner.self_s", "s", "lower"),
    ("parallel.runs_executed", "count", "lower"),
    ("parallel.cache_hits", "count", "higher"),
    ("parallel.plan_s", "s", "lower"),
    ("parallel.run_wall_s", "s", "lower"),
    ("parallel.overhead_s", "s", "lower"),
    ("kernel.bulk_frac", "ratio", "higher"),
    ("kernel.scan_calls", "count", "lower"),
    ("kernel.scan_useful_frac", "ratio", "higher"),
    ("kernel.scan_s", "s", "lower"),
    ("kernel.retire_s", "s", "lower"),
    ("kernel.mean_run", "count", "higher"),
    ("coherence.access_calls", "count", "lower"),
    ("coherence.access_s", "s", "lower"),
    ("coherence.self_s", "s", "lower"),
    ("coherence.us_per_access", "us", "lower"),
    ("private.calls", "count", "lower"),
    ("private.s", "s", "lower"),
    ("private.hit_frac", "ratio", "higher"),
    ("llc.calls", "count", "lower"),
    ("llc.s", "s", "lower"),
    ("llc.hit_frac", "ratio", "higher"),
    ("llc.evictions", "count", "lower"),
    ("directory.calls", "count", "lower"),
    ("directory.s", "s", "lower"),
    ("directory.evictions", "count", "lower"),
    ("directory.devs", "count", "lower"),
    ("core.calls", "count", "lower"),
    ("core.s", "s", "lower"),
    ("core.spilled", "count", "lower"),
    ("core.fused", "count", "higher"),
    ("core.entry_llc_evictions", "count", "lower"),
    ("core.corrupted_reads", "count", "lower"),
    ("mesh.calls", "count", "lower"),
    ("mesh.s", "s", "lower"),
    ("mesh.traffic_bytes", "bytes", "lower"),
    ("dram.calls", "count", "lower"),
    ("dram.s", "s", "lower"),
    ("dram.row_hit_frac", "ratio", "higher"),
    ("stats.calls", "count", "lower"),
    ("stats.s", "s", "lower"),
    ("shadow.calls", "count", "lower"),
    ("shadow.s", "s", "lower"),
    ("obs.events", "count", "lower"),
    ("obs.emit_s", "s", "lower"),
    ("verify.exhaustive.sequences", "count", "higher"),
    ("verify.exhaustive.s", "s", "lower"),
    ("verify.mc.unique_states", "count", "higher"),
    ("verify.mc.transitions", "count", "higher"),
    ("verify.mc.dedup_frac", "ratio", "higher"),
    ("verify.mc.s", "s", "lower"),
    ("verify.checks.calls", "count", "higher"),
    ("verify.checks.s", "s", "lower"),
    ("verify.fuzz.runs", "count", "higher"),
    ("verify.fuzz.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    # Measured on the untraced iterations of the traced run; they apply
    # to some workloads only and read 0 on the others.
    ("sim_accesses_per_s", "1/s", "higher"),
    ("zerodev_speedup", "ratio", "higher"),
    ("exhaustive_s", "s", "lower"),
    ("mc_states_per_s", "1/s", "higher"),
    ("fuzz_runs_per_s", "1/s", "higher"),
    ("failed_frac", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
WORKLOAD_NAMES = ("sim-hit", "sim-miss", "figure", "verify")

#: Traced count -> the simulator counter it must equal (sim workloads).
COUNTER_PAIRS = (
    ("directory.evictions", "dir_evictions"),
    ("directory.devs", "dev_invalidations"),
    ("llc.evictions", "llc_evictions"),
    ("core.entry_llc_evictions", "entry_llc_evictions"),
    ("core.corrupted_reads", "corrupted_block_reads"),
)


def peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest child."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


class Gate:
    """Accumulates the correctness gate over a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.reference = None

    def add(self, verdict, label: str) -> None:
        """Fold one iteration's verdict in; its digests must equal the
        first iteration's (the simulator is deterministic)."""
        if self.reference is None:
            self.reference = verdict.digests
        elif verdict.digests != self.reference:
            for unit, (got, want) in enumerate(zip(verdict.digests,
                                                   self.reference)):
                if got != want:
                    verdict.fail(unit, f"digest {got} != first {want}")
            if len(verdict.digests) != len(self.reference):
                verdict.fail(-1, "unit count changed between iterations")
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        for unit, problems in sorted(verdict.problems.items()):
            self.messages.append(f"{label} unit {unit}: "
                                 + "; ".join(problems))

    def compare(self, digests, label: str) -> None:
        """An extra untimed pass whose per-unit digests must equal the
        reference (kernel identity, obs emission)."""
        self.attempted += len(digests)
        for unit, (got, want) in enumerate(zip(digests, self.reference)):
            if got != want:
                self.failed += 1
                self.messages.append(f"{label} unit {unit}: digest {got} "
                                     f"!= default {want}")

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def traced_iteration(workload, seed: int, gate: Gate):
    """Set up and run one iteration with every layer instrumented;
    returns ``(metrics, wall seconds, recorder)``."""
    from layers import layer_metrics
    from spans import SpanRecorder

    rec = SpanRecorder()
    counts = Counter()
    workload.setup(seed, rec)
    iteration = workload.iterate(rec, counts)
    totals = dict(iteration.totals)
    metrics = layer_metrics(rec, counts, totals)
    gate.add(workload.check(iteration), "traced")
    try:
        rec.check_nesting()
        problem = ""
    except AssertionError as error:
        problem = f"span tree: {error}"
    gate.expect(not problem, problem)
    if "dir_evictions" in totals:          # runs simulated in process
        bulk = counts["kernel.retired"]
        gate.expect(metrics["coherence.access_calls"] + bulk
                    == totals["accesses"],
                    f"access calls {metrics['coherence.access_calls']} + "
                    f"bulk {bulk} != accesses {totals['accesses']}")
        for traced, counter in COUNTER_PAIRS:
            gate.expect(metrics[traced] == totals[counter],
                        f"traced {traced} {metrics[traced]} != "
                        f"stats.{counter} {totals[counter]}")
    return metrics, iteration.wall_s, rec


def measure(name: str, seed: int, seconds: float, trace: bool,
            import_s: float, inject_failure: bool = False) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    setups = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        workload.setup(seed)
        setups.append(perf_counter() - began)
    gate = Gate()
    # A warm-up iteration, checked but not timed: the first one in a
    # process also pays for growing the interpreter's heap.
    iteration = workload.iterate()
    if inject_failure:
        workload.inject_failure(iteration)
    gate.add(workload.check(iteration), "warm-up")
    del iteration
    walls, accesses, figures = [], [], []
    traced, traced_walls, recorder = [], [], None
    deadline = perf_counter() + seconds
    least = 1 if trace else MIN_ITERATIONS
    while True:
        # Start every iteration from the same heap state: the previous
        # iteration's systems are dropped and collected, untimed.
        gc.collect()
        iteration = workload.iterate()
        gate.add(workload.check(iteration), f"iteration {len(walls)}")
        walls.append(iteration.wall_s)
        accesses.append(iteration.accesses)
        figures.append(iteration.extras)
        del iteration
        if trace:
            metrics, wall, recorder = traced_iteration(workload, seed, gate)
            traced.append(metrics)
            traced_walls.append(wall)
        if len(walls) >= least and perf_counter() >= deadline:
            break
    # Untimed pass: the default kernel must be bit-identical to the
    # scalar reference.
    if hasattr(workload, "scalar_digests"):
        gate.compare(workload.scalar_digests(), "REPRO_KERNEL=scalar")
    wall_s = statistics.median(walls)
    result = {"workload": name, "seed": seed, "trace": int(trace),
              "iterations": len(walls), "walls": walls,
              "end_to_end": {
                  "setup_s": import_s + statistics.median(setups),
                  "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb(),
              }}
    # Figures that apply to some workloads only, from untraced runs.
    extras = {"sim_accesses_per_s": statistics.median(accesses) / wall_s}
    for key in figures[0]:
        extras[key] = statistics.median(figure[key] for figure in figures)
    if trace:
        measured = {key: statistics.median(m[key] for m in traced)
                    for key in traced[0]}
        if getattr(workload, "emit_pass", False):
            # Event emission must not change a run either.
            events, emit_s, digests = workload.obs_pass()
            gate.compare(digests, "obs attached")
            measured["obs.events"] = events
            measured["obs.emit_s"] = emit_s
        measured["trace.overhead_frac"] = (
            statistics.median(traced_walls) / wall_s - 1.0)
        measured["failed_frac"] = gate.failed / gate.attempted
        result["per_layer"] = {name: measured.get(name, extras.get(name,
                                                                   0.0))
                               for name, _unit, _better in PER_LAYER}
        result["spans"] = recorder.to_dict()
    else:
        extras["failed_frac"] = gate.failed / gate.attempted
        result["extras"] = extras
    result.update(attempted=gate.attempted, failed=gate.failed,
                  failures=gate.messages[:20],
                  digest=_digest(gate.reference))
    return result


def _digest(digests) -> str:
    """One digest over every unit's digest of the first iteration."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def report(result: dict) -> dict:
    """Print the summary; return the contract's result object."""
    trace = result["trace"]
    print(f"workload {result['workload']} seed {result['seed']} trace "
          f"{trace}: {result['iterations']} iterations, "
          f"{result['attempted']} checks, {result['failed']} failed, "
          f"digest {result['digest']}")
    for message in result["failures"]:
        print(f"  FAILED {message}")
    shown = dict(result["end_to_end"])
    shown.update(result.get("extras", {}))
    shown.update(result.get("per_layer", {}))
    for key, value in shown.items():
        print(f"  {key:30s} {value:>18.6g} {UNITS.get(key, '')}")
    names = ([name for name, _, _ in PER_LAYER] if trace
             else [name for name, _, _ in END_TO_END])
    source = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": source[name], "unit": UNITS[name]}
                    for name in names},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False).returncode
            status = status or code
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and traced")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test: corrupt one result of the first "
                             "iteration so the gate must fail")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    # The benchmark runs the checkout's own sources, with no REPRO_*
    # override leaking in from the caller's environment.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # noqa: F401 - the timed import of the simulator

    import_s = perf_counter() - _STARTED
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace), import_s, args.inject_failure)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                 f"trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, default=str)
    line = report(result)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
