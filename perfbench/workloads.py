"""Seeded request lists for the three workloads.

A request is ``{"argv": [...], "exit": code}``: the argument list handed to
``admcalc.cli.run`` and the exit code a correct program returns.  The seed
picks sizes, formats, Hurwitz profiles and the order of the list; the shape
of each list (how many requests of each kind, and their base sizes) is
fixed, so the work in one pass changes little from seed to seed while no
two requests in a pass share a size.

Why each workload exists:

* ``tables``: the series kernel, the table recursions and the renderers do
  almost all the work; Hurwitz enumeration does none.
* ``hurwitz-wide``: Hurwitz counts with large conjugacy classes and few
  slots, including two-point degree-8 and degree-9 profiles where the d!
  class scan costs more than the tuple walk, and profiles the default bound
  refuses (exit 2).
* ``verify-all``: ``verify --all`` at an enlarged ``--gmax``/``--order``, the
  only way into the localization layer, with the long thin Hurwitz profiles
  and high table reuse across suites.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 1
FORMATS = ("text", "json", "csv")

# Size jitter applied to every base size: gmax moves by j, order by 2j, so
# orders stay odd and the menu of possible requests stays small enough to
# hold a recorded reference output for each one.
JITTER = (-1, 0, 1)

# The base sizes put the requests of a pass in cost tiers (corrected
# seconds when chosen): 2 trivial, 5 light (0.07-0.11), 5 middle
# (0.14-0.16), 4 upper (0.17-0.22) and 3 heavy (0.31-0.32).  The median
# request is then the middle of the middle tier and the tail percentile
# falls inside the heavy tier, so neither jumps between requests of
# different cost from seed to seed.

# (what, base gmax) for `table` requests, one each per pass.
TABLE_SLOTS = (
    ("P3full", 160), ("P3trans", 140), ("I3", 60), ("J2", 118), ("J3", 82),
    ("L2", 151), ("L3", 116),
)

# (what, degree, base order) for `series` requests, one each per pass.
SERIES_SLOTS = (
    ("J", 3, 121), ("conjecture", 7, 121), ("conjecture", 1, 281),
    ("I", 3, 161), ("J", 2, 197), ("I", 2, 271), ("conjecture", 6, 141),
    ("conjecture", 2, 221), ("L", 2, 321), ("L", 3, 201),
    ("conjecture", 5, 205), ("conjecture", 4, 221),
)

# Requests drawn per pass from each stratum of the recorded Hurwitz catalog
# (see record.py for how the catalog is built and sized).  Six draws cost
# less than a `multi` one and six more, so the median request is a `multi`.
HURWITZ_DRAWS = {"refused": 2, "small": 4, "multi": 7, "wide": 3, "scan8": 2, "scan9": 1}

# `verify --all --gmax VERIFY_GMAX+j --order VERIFY_ORDER+2k`.
VERIFY_GMAX, VERIFY_ORDER, VERIFY_JITTER = 70, 141, 2


def table_argv(what: str, gmax: int, fmt: str) -> list[str]:
    return ["table", "--what", what, "--gmax", str(gmax), "--format", fmt]


def series_argv(what: str, degree: int, order: int, fmt: str) -> list[str]:
    return ["series", "--what", what, "--degree", str(degree),
            "--order", str(order), "--format", fmt]


def hurwitz_argv(entry: dict) -> list[str]:
    argv = ["hurwitz", "--degree", str(entry["degree"])]
    for parts in entry["profiles"]:
        argv += ["--profile", ",".join(map(str, parts))]
    if not entry["connected"]:
        argv.append("--disconnected")
    return argv


def tables_menu() -> list[list[str]]:
    """Every argv the tables generator can emit, for recording references."""
    menu = []
    for fmt in FORMATS:
        for j in JITTER:
            menu += [table_argv(w, g + j, fmt) for w, g in TABLE_SLOTS]
            menu += [series_argv(w, d, n + 2 * j, fmt) for w, d, n in SERIES_SLOTS]
    return menu


def load_catalog() -> dict[str, list[dict]]:
    return json.loads(REFERENCE.read_text())["hurwitz_catalog"]


def tables(seed: int) -> list[dict]:
    rng = random.Random(f"tables:{seed}")
    argvs = [
        table_argv(w, g + rng.choice(JITTER), rng.choice(FORMATS))
        for w, g in TABLE_SLOTS
    ] + [
        series_argv(w, d, n + 2 * rng.choice(JITTER), rng.choice(FORMATS))
        for w, d, n in SERIES_SLOTS
    ]
    rng.shuffle(argvs)
    return [{"argv": argv, "exit": 0} for argv in argvs]


def hurwitz_wide(seed: int) -> list[dict]:
    rng = random.Random(f"hurwitz-wide:{seed}")
    catalog = load_catalog()
    entries = []
    for stratum, k in HURWITZ_DRAWS.items():
        entries += rng.sample(catalog[stratum], k)
    rng.shuffle(entries)
    return [{"argv": hurwitz_argv(e), "exit": e["exit"]} for e in entries]


def verify_all(seed: int) -> list[dict]:
    rng = random.Random(f"verify-all:{seed}")
    gmax = VERIFY_GMAX + rng.randint(-VERIFY_JITTER, VERIFY_JITTER)
    order = VERIFY_ORDER + 2 * rng.randint(-VERIFY_JITTER, VERIFY_JITTER)
    argv = ["verify", "--all", "--gmax", str(gmax), "--order", str(order)]
    return [{"argv": argv, "exit": 0}]


WORKLOADS = {"tables": tables, "hurwitz-wide": hurwitz_wide, "verify-all": verify_all}

PARAMETERS = {
    "tables": {"table_slots": TABLE_SLOTS, "series_slots": SERIES_SLOTS,
               "jitter": JITTER, "order_jitter": "2 * jitter", "formats": FORMATS},
    "hurwitz-wide": {"draws_per_pass": HURWITZ_DRAWS, "catalog": "reference.json"},
    "verify-all": {"gmax": VERIFY_GMAX, "order": VERIFY_ORDER,
                   "gmax_jitter": VERIFY_JITTER, "order_jitter": 2 * VERIFY_JITTER},
}

# Layers each workload's rationale says it uses; the traced run fails if one
# of them records no calls.
USES = {
    "tables": ("cli", "hodge", "series"),
    "hurwitz-wide": ("cli", "hurwitz"),
    "verify-all": ("cli", "hodge", "series", "hurwitz", "localization"),
}
