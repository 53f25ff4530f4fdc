"""Bit-identity pins for the simulator's hot paths.

Every counter of ``SystemStats`` and the shadow memory's committed
versions are digested after short runs of two matrices:

* the perfbench ``sim-miss`` configurations on canneal and mcf at 200
  accesses per core on the scaled figure socket;
* every protocol, ZeroDEV caching policy, LLC design and replacement
  variant on a *stress* socket whose 16 KB LLC is smaller than the
  aggregate L2, so LLC evictions, DEVs, WB_DE/GET_DE, corrupted-block
  reads, inclusion invalidations and update pushes all fire,

plus a two-socket ZeroDEV composition on the stress geometry.  The
expected digests were computed before the scalar access path was
flattened; any change to timing, traffic, message counts, latency
buckets or data values moves at least one of them.

The digest recipe mirrors perfbench's ``stats_digest`` (field name and
value per dataclass field, message counts sorted by ``str(kind)``, then
the shadow's ``_latest`` items) without importing the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.common.config import (CacheGeometry, DirCachingPolicy,
                                 DirectoryConfig, LLCDesign, LLCReplacement,
                                 Protocol, scaled_socket)
from repro.harness.experiments import zerodev_config
from repro.harness.runner import run_multisocket_workload, run_workload
from repro.harness.system_builder import build_system
from repro.multisocket import MultiSocketSystem
from repro.workloads.suites import (find_profile, make_multithreaded,
                                    make_rate_workload)

SEED = 1


def stats_digest(stats, shadow=None) -> str:
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


def stress_socket(n_cores: int = 8):
    """A 1/64-scale socket with a 16 KB LLC (256 blocks under 512
    blocks of aggregate L2): every eviction path fires within 1000
    accesses per core."""
    return scaled_socket(64, n_cores=n_cores,
                         llc=CacheGeometry(16 * 1024, 16))


def _quarter_llc(base):
    return zerodev_config(base, llc=CacheGeometry(base.llc.size_bytes // 4,
                                                  base.llc.ways))


#: name -> config builder over a base socket.
CONFIGS = {
    "baseline-1x": lambda base: base,
    "baseline-1/8x": lambda base: base.with_(
        directory=DirectoryConfig(ratio=1 / 8)),
    "zerodev-nodir": zerodev_config,
    "zerodev-nodir-qllc": _quarter_llc,
    "zerodev-spillall": lambda base: zerodev_config(
        base, policy=DirCachingPolicy.SPILL_ALL),
    "zerodev-fuseall": lambda base: zerodev_config(
        base, policy=DirCachingPolicy.FUSE_ALL),
    "zerodev-splru": lambda base: zerodev_config(
        base, replacement=LLCReplacement.SP_LRU),
    "zerodev-1/8x": lambda base: zerodev_config(base, ratio=1 / 8),
    "zerodev-1/8x-repl": lambda base: zerodev_config(base).with_(
        directory=DirectoryConfig(ratio=1 / 8,
                                  zerodev_replacement_enabled=True)),
    "zerodev-epd": lambda base: zerodev_config(base,
                                               llc_design=LLCDesign.EPD),
    "zerodev-inclusive": lambda base: zerodev_config(
        base, llc_design=LLCDesign.INCLUSIVE),
    "baseline-epd": lambda base: base.with_(llc_design=LLCDesign.EPD),
    "baseline-inclusive": lambda base: base.with_(
        llc_design=LLCDesign.INCLUSIVE),
    "secdir": lambda base: base.with_(protocol=Protocol.SECDIR),
    "mgd": lambda base: base.with_(protocol=Protocol.MGD),
    "dls": lambda base: base.with_(protocol=Protocol.DLS,
                                   directory=DirectoryConfig(ratio=None),
                                   llc_design=LLCDesign.INCLUSIVE),
    "hybrid": lambda base: base.with_(protocol=Protocol.HYBRID),
}

SUITE_OF = {"canneal": "PARSEC", "mcf": "CPU2017", "ocean_cp": "SPLASH2X"}

#: matrix -> (base socket, accesses per core, apps, config names).
MATRICES = {
    "sim-miss": (scaled_socket(16), 200, ("canneal", "mcf"),
                 ("baseline-1x", "baseline-1/8x", "zerodev-nodir",
                  "zerodev-nodir-qllc")),
    # (A quarter of the stress LLC has fewer sets than banks.)
    "stress": (stress_socket(), 1000, ("ocean_cp",),
               tuple(name for name in CONFIGS
                     if name != "zerodev-nodir-qllc")),
}

#: (matrix, config, app) -> digest, computed before the hot-path
#: flattening.
GOLDEN = {
    ("sim-miss", "baseline-1x", "canneal"):
        "1590c94275bd7dce",
    ("sim-miss", "baseline-1x", "mcf"):
        "7f12366cff5b8bd2",
    ("sim-miss", "baseline-1/8x", "canneal"):
        "22c1647fa3e5f42c",
    ("sim-miss", "baseline-1/8x", "mcf"):
        "e4649936bb0c5787",
    ("sim-miss", "zerodev-nodir", "canneal"):
        "b95aca501fc1975b",
    ("sim-miss", "zerodev-nodir", "mcf"):
        "09f6b49ff5623079",
    ("sim-miss", "zerodev-nodir-qllc", "canneal"):
        "b95aca501fc1975b",
    ("sim-miss", "zerodev-nodir-qllc", "mcf"):
        "09f6b49ff5623079",
    ("stress", "baseline-1x", "ocean_cp"):
        "3954fe9fa514ca9e",
    ("stress", "baseline-1/8x", "ocean_cp"):
        "3ed9bf7b84ffce89",
    ("stress", "zerodev-nodir", "ocean_cp"):
        "e727bee51ce14a2f",
    ("stress", "zerodev-spillall", "ocean_cp"):
        "3cdf6bf87311b7c5",
    ("stress", "zerodev-fuseall", "ocean_cp"):
        "3430695b0079b000",
    ("stress", "zerodev-splru", "ocean_cp"):
        "5144923818fc3384",
    ("stress", "zerodev-1/8x", "ocean_cp"):
        "e324118e03ed52a8",
    ("stress", "zerodev-1/8x-repl", "ocean_cp"):
        "5ef716b22d73113e",
    ("stress", "zerodev-epd", "ocean_cp"):
        "c2ff6a810877b2bd",
    ("stress", "zerodev-inclusive", "ocean_cp"):
        "7977fb7bedd30846",
    ("stress", "baseline-epd", "ocean_cp"):
        "a41d421a24eeac35",
    ("stress", "baseline-inclusive", "ocean_cp"):
        "5900e5584cd07885",
    ("stress", "secdir", "ocean_cp"):
        "a7d533c666bb8382",
    ("stress", "mgd", "ocean_cp"):
        "678d4472f86513f0",
    ("stress", "dls", "ocean_cp"):
        "71f7226c9be1c88c",
    ("stress", "hybrid", "ocean_cp"):
        "cc858a293372cf3c",
}

#: Two ZeroDEV stress sockets of four cores running ocean_cp's eight
#: threads: each socket's stats, then the shared shadow memory.
GOLDEN_TWO_SOCKET = (
    "67a6e0503283be51/7d3a20bd98ebc84c/aa1876ae58349a65")


def _workload(app: str, base, accesses_per_core: int):
    builder = (make_rate_workload if SUITE_OF[app] == "CPU2017"
               else make_multithreaded)
    return builder(find_profile(app), base, accesses_per_core, SEED)


def run_case(matrix: str, config_name: str, app: str) -> str:
    base, accesses, _apps, _configs = MATRICES[matrix]
    system = build_system(CONFIGS[config_name](base))
    result = run_workload(system, _workload(app, base, accesses))
    return stats_digest(result.stats, system.shadow)


def run_two_socket() -> str:
    system = MultiSocketSystem(zerodev_config(stress_socket(n_cores=4)),
                               n_sockets=2)
    stats = run_multisocket_workload(
        system, _workload("ocean_cp", stress_socket(), 1000))
    return "/".join([stats_digest(s) for s in stats]
                    + [stats_digest(stats[0], system.shadow)])


@pytest.mark.parametrize("matrix,config_name,app", sorted(GOLDEN))
def test_single_socket_digest(matrix, config_name, app):
    assert run_case(matrix, config_name, app) == \
        GOLDEN[(matrix, config_name, app)]


def test_two_socket_digest():
    assert run_two_socket() == GOLDEN_TWO_SOCKET


def test_every_case_pinned():
    expected = {(matrix, name, app)
                for matrix, (_base, _n, apps, names) in MATRICES.items()
                for name in names for app in apps}
    assert set(GOLDEN) == expected
