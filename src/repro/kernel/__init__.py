"""Batched access kernel for the simulation hot path.

The overwhelming majority of accesses in every figure workload are
private-cache hits: the block is already in the issuing core's L2 in a
state that can service the request without any uncore message. The
scalar path still walks ``CMPSystem.access -> _read/_write ->
PrivateHierarchy`` one reference at a time; this package pre-classifies
each core's upcoming access window with vectorized NumPy lookups and
retires the safe-hit prefix in bulk, falling back to the unmodified
scalar protocol for anything that could touch directory state (misses,
upgrades, DEV paths, fuse/unfuse, corrupted-home, cross-socket flows).

The contract is **bit identity**: identical final stats, identical
shadow memory, and identical event streams (order, payloads, and step
tags).  Safe hits of different cores are retired out of global order --
legal because they commute -- but every unsafe access still executes at
its exact scalar position with the exact scalar machine state; see
:mod:`repro.kernel.batched` for the argument.  The contract is enforced
by ``repro verify --kernel-diff`` (see :mod:`repro.kernel.diff`) and
documented in DESIGN.md Section 11.

The ``vectorized`` kernel (:mod:`repro.kernel.columnar`) keeps the
same classification/driver machinery but retires each safe run as
columnar NumPy operations over structure-of-arrays mirrors of the
private-cache state, under the identical bit-identity contract
(DESIGN.md Section 12).
"""

from repro.kernel.batched import (ADAPT_WINDOW, SCAN_WINDOW, SlotKernel,
                                  drive_batched)
from repro.kernel.columnar import (ColumnarSlotKernel, VEC_MIN_RUN,
                                   VEC_SCAN_WINDOW)

__all__ = ["ADAPT_WINDOW", "SCAN_WINDOW", "SlotKernel",
           "ColumnarSlotKernel", "VEC_MIN_RUN", "VEC_SCAN_WINDOW",
           "drive_batched"]
