#!/usr/bin/env python
"""Bounded-exhaustive verification of the ZeroDEV protocol.

Covers EVERY sequence of four memory accesses (two cores, reads and
writes, three conflict-chosen blocks) on ``repro verify``'s micro
configuration with a deliberately cramped LLC, checking after every
single step: SWMR, directory precision, entry-location exclusivity, the
FPSS invariants, case-(iiib) unreachability, data correctness, and the
zero-DEV guarantee.

The checker is the modelcheck frontier: it enumerates distinct protocol
states rather than sequences, checks every transition before merging
duplicates, and collapses states that differ only by a core or block
relabeling, so the 20,736 sequences cost under two thousand
transitions.

This is the style of validation Section III-D6 alludes to ("generating
the rule-sets governing this protocol case and the related invariants
requires careful consideration") -- here the implementation is the
rule-set and the frontier is the checker.

Run:  PYTHONPATH=src python examples/exhaustive_verification.py
"""

from repro.common.config import DirCachingPolicy
from repro.verify.modelcheck import explore_model
from repro.verify.models import ModelSpec, verify_config, zerodev_config

DEPTH = 4


def main() -> None:
    for policy in DirCachingPolicy:
        spec = ModelSpec(f"zerodev-{policy.value}",
                         zerodev_config(verify_config, dir_caching=policy))
        report = explore_model(spec, DEPTH, symmetry=True)
        status = "OK" if report.ok else f"FAILED: {report.counterexample}"
        print(f"{policy.name:>10}: {report.alphabet_size ** DEPTH:,} "
              f"sequences as {report.unique_states:,} states, "
              f"{report.transitions:,} transitions checked in "
              f"{report.elapsed_s:.1f}s -> {status}")
        assert report.ok and report.depth_reached == DEPTH
        assert not report.capped
    print("\nEvery reachable state up to the depth bound satisfies all "
          "protocol invariants, for all three caching policies.")


if __name__ == "__main__":
    main()
