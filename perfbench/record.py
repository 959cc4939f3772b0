"""Record the reference outputs, the Hurwitz catalog and the workload record.

    python3 perfbench/record.py            # rewrites reference.json and workloads.json
    python3 perfbench/record.py --new-catalog   # ... and draws a new Hurwitz catalog

reference.json holds the sha256 of the stdout of every request any seed can
generate, recorded from the program as it is when this script runs, plus
the Hurwitz catalog the hurwitz-wide workload draws from.  Run it only when
the program's output is meant to change; the checks compare every later
commit against it.

The catalog is kept unless ``--new-catalog`` is given, because drawing it
depends on timings.  It is drawn with a fixed seed.  Each entry is a branch profile with
2 to 5 branch points in degree 4 to 9, connected or not, whose Riemann-Hurwitz
parity allows covers.  Strata:

* ``scan9``/``scan8``: two points in degree 9/8 whose first class has at
  most MAX_SCAN_CLASS elements, so the d! scan of ``permutations_with_type``
  costs far more than the tuple walk.
* ``small``: two or three points, degree 4 to 6; ``wide``: three points,
  degree 5 to 7; ``multi``: four or five points, degree 4 to 6; all with at
  most MAX_RAW raw tuples (the product of the first n-1 class sizes).
  MAX_RAW is the cap that sizes a pass: a request then takes well under a
  second, so a pass of ``HURWITZ_DRAWS`` requests takes about two seconds.
* ``refused``: three to five points in degree 8 or 9 with more raw tuples
  than the default bound of 10^9; exit 2 is the right answer.

Within a stratum a candidate is kept only if it answered within the
stratum's time band when recorded, so that the work in a pass changes
little from seed to seed; the measured time is stored with the entry.
The bands do not overlap, and ``workloads.HURWITZ_DRAWS`` puts the median
request of a pass in the middle of the ``multi`` draws, so ``req_p50_s``
does not jump between strata from seed to seed.

Profiles that pass the bound but blow the cap are left out, whatever their
cause.  One of them: degree 8 with three 8-cycles has 5040^2 = 25,401,600
raw tuples, passes the 10^9 bound, and ran for 86.5 s on a 2-core machine
under Python 3.11.7.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import run
import workloads
from checks import SUITES, digest
from spans import WIDE_MAX_POINTS, class_size

CATALOG_SIZE = 16  # entries per stratum
MAX_SCAN_CLASS = 400
MAX_RAW = 50_000
BOUND = 10**9

STRATA = {  # degrees, branch-point counts, band of recorded seconds
    "scan9": ((9,), (2,), (0.0, 10.0)),
    "scan8": ((8,), (2,), (0.0, 10.0)),
    "small": ((4, 5, 6), (2, 3), (0.0, 0.015)),
    "wide": ((5, 6, 7), (3,), (0.08, 0.12)),
    "multi": ((4, 5, 6), (4, 5), (0.03, 0.045)),
    "refused": ((8, 9), (3, 4, 5), (0.0, 0.01)),
}


def partitions(d: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = d if largest is None else largest
    if d == 0:
        return [()]
    return [(k, *rest) for k in range(min(d, largest), 0, -1)
            for rest in partitions(d - k, k)]


def admitted(stratum: str, d: int, profiles: list[tuple[int, ...]]) -> bool:
    raw = math.prod(class_size(d, p) for p in profiles[:-1])
    if stratum == "refused":
        return raw > BOUND
    if sum(d - len(p) for p in profiles) % 2:
        return False
    return raw <= (MAX_SCAN_CLASS if stratum.startswith("scan") else MAX_RAW)


def answer(argv: list[str]) -> tuple[int, str, float]:
    from admcalc.cli import run as cli_run

    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli_run(argv)
    return code, out.getvalue(), time.perf_counter() - t0


def build_catalog() -> dict[str, list[dict]]:
    rng = random.Random("hurwitz-catalog")
    catalog = {}
    for stratum, (degrees, points, (fastest, slowest)) in STRATA.items():
        entries: dict[str, dict] = {}
        while len(entries) < CATALOG_SIZE:
            d, n = rng.choice(degrees), rng.choice(points)
            choices = [p for p in partitions(d) if p != (1,) * d]
            profiles = [rng.choice(choices) for _ in range(n)]
            entry = {"degree": d, "profiles": [list(p) for p in profiles],
                     "connected": rng.random() < 0.5,
                     "raw_tuples": math.prod(class_size(d, p) for p in profiles[:-1]),
                     "exit": 2 if stratum == "refused" else 0}
            argv = workloads.hurwitz_argv(entry)
            key = " ".join(argv)
            if key in entries or not admitted(stratum, d, profiles):
                continue
            code, out, seconds = answer(argv)
            if code != entry["exit"]:
                raise SystemExit(f"{key} exited {code}")
            if fastest <= seconds <= slowest:
                entry.update(stdout=out, seconds_when_recorded=round(seconds, 3))
                entries[key] = entry
                print(f"{stratum:8s} {seconds:7.3f} s  {key} -> {out.strip()}")
        catalog[stratum] = list(entries.values())
    return catalog


def record_reference(new_catalog: bool) -> None:
    sys.path.insert(0, str(run.SRC))
    catalog = build_catalog() if new_catalog else workloads.load_catalog()
    outputs = {" ".join(workloads.hurwitz_argv(e)): digest(e["stdout"])
               for entries in catalog.values() for e in entries}
    for argv in [run.SETUP_REQUEST.split()] + workloads.tables_menu():
        code, out, seconds = answer(argv)
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        outputs[" ".join(argv)] = digest(out)
    workloads.REFERENCE.write_text(json.dumps(
        {"outputs": outputs, "hurwitz_catalog": catalog}, indent=1) + "\n")
    print(f"recorded {len(outputs)} outputs")


def record_workloads() -> None:
    """Describe each workload, with shares measured on one traced pass."""
    seed = workloads.DEFAULT_SEED
    why = {w["name"]: w["why"] for w in run.BENCH["workloads"]}
    record = {}
    for name, make in workloads.WORKLOADS.items():
        requests = make(seed)
        traced = run.run_pass(requests, trace=True)
        record[name] = {
            "why": why[name],
            "generator": workloads.PARAMETERS[name],
            "default_seed": seed,
            "requests_per_pass": len(requests),
            "layers_used": list(workloads.USES[name]),
            "shares_at_default_seed": {
                k: v for k, v in traced["properties"].items() if k != "layer_calls"},
        }
    record["hurwitz-wide"]["generator"]["long_shape"] = (
        f"more than {WIDE_MAX_POINTS} branch points")
    record["verify-all"]["generator"]["checked_suites"] = list(SUITES)
    (workloads.HERE / "workloads.json").write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    record_reference(new_catalog="--new-catalog" in sys.argv[1:])
    record_workloads()
