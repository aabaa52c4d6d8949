"""The four OS profiles of the evaluation (Table 4).

The paper checks Linux 5.6 (14.2M LOC), Zephyr 2.1.0 (383K), RIOT 2020.04
(1.575M) and TencentOS-tiny (572K).  Our corpora reproduce the *relative*
shapes at roughly 1/400 scale: Linux is by far the largest and
drivers-dominated; the IoT OSes are small with heavy third-party trees.
Category shares are tuned so the bug distribution of Fig. 11 emerges:
~75% of Linux real bugs in drivers/, ~68% of IoT real bugs in
third-party modules.
"""

from __future__ import annotations

from typing import Dict, List

from .spec import OSProfile

LINUX = OSProfile(
    name="linux",
    version_label="5.6",
    seed=561,
    layout=[
        ("drivers", "drivers", 0.58),
        ("net", "network", 0.08),
        ("fs", "filesystem", 0.08),
        ("kernel", "core", 0.10),
        ("mm", "core", 0.06),
        ("sound", "drivers", 0.10),
    ],
    total_files=170,
    snippets_per_file=(4, 8),
    bug_rate={"drivers": 0.16, "network": 0.10, "filesystem": 0.10, "core": 0.035},
    bait_rate=0.55,
    excluded_fraction=0.14,
)

ZEPHYR = OSProfile(
    name="zephyr",
    version_label="2.1.0",
    seed=210,
    layout=[
        ("subsys/bluetooth", "subsystem", 0.22),
        ("subsys/net", "subsystem", 0.18),
        ("drivers", "drivers", 0.18),
        ("kernel", "core", 0.14),
        ("ext/hal", "third_party", 0.28),
    ],
    total_files=26,
    snippets_per_file=(3, 7),
    bug_rate={"subsystem": 0.10, "drivers": 0.05, "core": 0.025, "third_party": 0.30},
    bait_rate=0.5,
    excluded_fraction=0.10,
)

RIOT = OSProfile(
    name="riot",
    version_label="2020.04",
    seed=2004,
    layout=[
        ("sys/net", "subsystem", 0.16),
        ("cpu/native", "core", 0.14),
        ("drivers", "drivers", 0.16),
        ("core", "core", 0.10),
        ("pkg", "third_party", 0.44),
    ],
    total_files=48,
    snippets_per_file=(3, 7),
    bug_rate={"subsystem": 0.09, "drivers": 0.05, "core": 0.03, "third_party": 0.32},
    bait_rate=0.5,
    excluded_fraction=0.12,
)

TENCENTOS = OSProfile(
    name="tencentos",
    version_label="23313e",
    seed=23313,
    layout=[
        ("kernel/core", "core", 0.22),
        ("osal", "subsystem", 0.18),
        ("net", "subsystem", 0.12),
        ("components", "third_party", 0.40),
        ("drivers", "drivers", 0.08),
    ],
    total_files=22,
    snippets_per_file=(3, 6),
    bug_rate={"core": 0.04, "subsystem": 0.10, "drivers": 0.05, "third_party": 0.34},
    bait_rate=0.5,
    excluded_fraction=0.10,
    kind_mix={"NPD": 0.36, "UVA": 0.30, "ML": 0.18, "DL": 0.06, "AIU": 0.06, "DBZ": 0.04},
)

#: Taint-focused corpus for exercising the taint checker end to end:
#: every injected bug is a user-input → sensitive-sink flow, with the
#: sanitized siblings as bait.  Deliberately *not* part of
#: ``ALL_PROFILES``/``PROFILES_BY_NAME`` — the evaluation tables iterate
#: those, and their numbers must not shift under the seventh checker.
TAINTLAB = OSProfile(
    name="taintlab",
    version_label="demo",
    seed=4242,
    layout=[
        ("drivers/char", "drivers", 0.45),
        ("drivers/net", "drivers", 0.25),
        ("ipc", "subsystem", 0.30),
    ],
    total_files=14,
    snippets_per_file=(3, 6),
    bug_rate={"drivers": 0.30, "subsystem": 0.20},
    bait_rate=0.4,
    excluded_fraction=0.0,
    kind_mix={"TNT": 1.0},
)

#: Race-focused corpus for the lockset checker and its P2.5 cross-entry
#: matching: every snippet is drawn from the RACE pool — three injected
#: disjoint-lockset races plus two bait shapes (properly locked, and
#: flag-serialized where only stage-2 pair validation stays silent).
#: ``bug_rate=1.0`` keeps generic fillers out: ``filler_pool`` races on
#: the OS-wide ``g_pool_head`` by design and would pollute the ground
#: truth.  Like TAINTLAB, deliberately *not* part of ``ALL_PROFILES``.
RACELAB = OSProfile(
    name="racelab",
    version_label="demo",
    seed=9191,
    layout=[
        ("kernel/irq", "core", 0.40),
        ("drivers/net", "drivers", 0.35),
        ("block", "subsystem", 0.25),
    ],
    total_files=8,
    snippets_per_file=(2, 4),
    bug_rate={"core": 1.0, "drivers": 1.0, "subsystem": 1.0},
    bait_rate=0.0,
    excluded_fraction=0.0,
    kind_mix={"RACE": 1.0},
)

#: Firmware multi-image corpus for the P2.6 cross-module taint pass:
#: many small separately built images whose only coupling is name-unified
#: globals — exactly the channel the interface summaries export/import
#: over.  Intra-module bug/bait rates are zero; everything interesting is
#: injected by the generator's cross-module post-pass (22 real flows over
#: the four multi-file shapes, 8 bait-only shapes the pair discharge or
#: flow tracking must stay silent on, and 3 border-source probes only
#: reportable under ``--taint-borders``).  Like TAINTLAB/RACELAB,
#: deliberately *not* part of ``ALL_PROFILES``.
FIRMLAB = OSProfile(
    name="firmlab",
    version_label="multi-image",
    seed=7117,
    layout=[
        ("images/boot", "firmware", 0.20),
        ("images/app", "firmware", 0.30),
        ("images/net", "firmware", 0.30),
        ("images/sensor", "firmware", 0.20),
    ],
    total_files=18,
    snippets_per_file=(1, 2),
    bug_rate={"firmware": 0.0},
    bait_rate=0.0,
    excluded_fraction=0.0,
    kind_mix={"TNT": 1.0},
    cross_flows=22,
    cross_baits=8,
    cross_border=3,
)

ALL_PROFILES: List[OSProfile] = [LINUX, ZEPHYR, RIOT, TENCENTOS]
PROFILES_BY_NAME: Dict[str, OSProfile] = {p.name: p for p in ALL_PROFILES}
#: every profile ``repro corpus`` generates: the four OS profiles and
#: the three single-checker labs
CORPUS_PROFILES_BY_NAME: Dict[str, OSProfile] = {
    p.name: p for p in ALL_PROFILES + [TAINTLAB, RACELAB, FIRMLAB]
}
