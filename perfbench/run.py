"""Benchmark of admcalc: seeded workloads driven through ``admcalc.cli.run``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root or anywhere else; it imports the package
from ``src/`` next to this directory and nothing else.  Workloads:
``tables``, ``hurwitz-wide`` and ``verify-all`` (see workloads.py).

Closed loop, one client: each pass hands the workload's whole request list
to a fresh interpreter (worker.py), which runs the requests one after the
other in one process and thread.  Passes repeat until the next one would
end after ``--seconds`` (at least three untraced passes).

Timings are corrected for the drift of machine speed (speed.py): each is
reported as the seconds it would take where a fixed calibration kernel
takes ``speed.REFERENCE`` seconds.  The raw median pass time is printed
above the result line for comparison.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over fresh interpreters of the time from the start of
  ``import admcalc.cli`` until ``table --what P2 --gmax 0`` returns.
* ``wall_s``: median time of one pass over the whole request list.
* ``req_p50_s``: median latency of one request, pooled over passes.
* ``req_tail_s``: latency at the highest percentile that has at least ten
  samples beyond it; with fewer than eleven samples, the largest one.  The
  percentile and the sample count are printed above the result line.
* ``peak_rss_mb``: median over passes of the worker's peak resident memory.
* ``ok_ratio``: answers right over requests attempted, that is
  1 - failed_ratio; ``failed_ratio`` itself is printed above the result
  line and is carried by the ``failed``/``attempted`` fields.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics of the traced ones (medians over passes), plus
``trace.overhead_ratio``, the traced over the untraced median pass time.
Its spans are written to ``perfbench/out/``.

Every answer of every pass is checked after the pass (checks.py).  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import workloads  # noqa: E402
from checks import Checker, digest, load_reference  # noqa: E402

SETUP_PROBES = 11
MIN_PASSES = 3  # untraced passes in an untraced run
MIN_TRACED_PASSES = 2  # of each kind in a traced run
CHILD_TIMEOUT = 150  # seconds; one pass normally takes under ten
LAST_PASS_BY = 100  # seconds; fewer passes than the minimum if they are this slow
SETUP_REQUEST = "table --what P2 --gmax 0"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}


class BenchError(Exception):
    """The benchmark could not measure: no program, a crash, a hang."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "ADMCALC_MAX_TUPLES")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script: str, *args: str, stdin: str | None = None) -> dict:
    """Run a benchmark script in a fresh interpreter; return its JSON output."""
    try:
        proc = subprocess.run(
            [sys.executable, "-s", str(HERE / script), *args], input=stdin,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT,
            env=_child_env(), cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} ran longer than {CHILD_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def measure_setup(reference: dict) -> list[float]:
    run_child("probe.py", str(SRC))  # warm-up: fills the bytecode caches
    samples = []
    for _ in range(SETUP_PROBES):
        probe = run_child("probe.py", str(SRC))
        if Path(probe["module"]).resolve().parent.parent != SRC:
            raise BenchError(f"admcalc was imported from {probe['module']}")
        if probe["code"] != 0 or digest(probe["stdout"]) != reference["outputs"][SETUP_REQUEST]:
            raise BenchError(f"set-up request answered {probe['code']}: {probe['stdout']!r}")
        samples.append(probe["seconds"])
    return samples


def run_pass(requests: list[dict], trace: bool) -> dict:
    job = {"src": str(SRC), "requests": [r["argv"] for r in requests], "trace": trace}
    return run_child("worker.py", stdin=json.dumps(job))


def measure(requests: list[dict], seconds: float, trace: bool) -> tuple[list, list]:
    """Untraced and traced passes, until the next would end past `seconds`.

    At least the minimum number of passes, unless the next would end past
    LAST_PASS_BY, so that a slow program still ends within the time limit.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        (traced if tracing else plain).append(run_pass(requests, tracing))
        durations.append(time.perf_counter() - t0)
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        next_end = time.perf_counter() - start + max(durations[-2:])
        if enough and next_end > seconds or next_end > LAST_PASS_BY and (traced or not trace):
            return plain, traced


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def check_passes(passes: list[dict], requests: list[dict], checker: Checker) -> tuple[int, int]:
    attempted = failed = 0
    for p in passes:
        for request, result in zip(requests, p["results"], strict=True):
            attempted += 1
            problem = checker.problem(request, result)
            if problem is not None:
                failed += 1
                print(f"FAILED {' '.join(request['argv'])}: {problem}", file=sys.stderr)
    return attempted, failed


def end_to_end(plain: list[dict], setup: list[float], ok_ratio: float) -> tuple[dict, str]:
    latencies = [r["seconds"] for p in plain for r in p["results"]]
    tail_value, percentile = tail(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": tail_value,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "ok_ratio": ok_ratio,
    }
    note = (f"req_tail_s is p{percentile:.1f} of {len(latencies)} request latencies"
            + (" (fewer than 11, so the largest)" if len(latencies) <= 10 else "")
            + f"; uncorrected median pass {statistics.median(p['raw_wall_s'] for p in plain):.4g} s")
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, note


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict:
    for p in traced:
        calls = p["properties"]["layer_calls"]
        idle = [layer for layer in workloads.USES[workload] if not calls.get(layer)]
        if idle:
            raise BenchError(f"traced pass recorded no calls into {', '.join(idle)}")
    def value(p: dict, name: str) -> float:  # layer times get the pass's speed correction
        return p["layers"][name] * (p["speed_factor"] if UNITS[name] == "s" else 1)

    values = {k: statistics.median(value(p, k) for p in traced) for k in traced[0]["layers"]}
    values["trace.overhead_ratio"] = (statistics.median(p["wall_s"] for p in traced)
                                      / statistics.median(p["wall_s"] for p in plain))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def write_trace(workload: str, seed: int, last: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({k: last[k] for k in ("properties", "wrapped", "layers", "spans")}))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "admcalc" / "cli.py").is_file():
            raise BenchError(f"no admcalc sources under {SRC}")
        reference = load_reference()
        requests = workloads.WORKLOADS[args.workload](args.seed)
        setup = [] if args.trace else measure_setup(reference)
        plain, traced = measure(requests, args.seconds, bool(args.trace))
        checker = Checker(reference)
        attempted, failed = check_passes(plain + traced, requests, checker)
        if args.trace:
            metrics = per_layer(args.workload, plain, traced)
            note = f"trace written to {write_trace(args.workload, args.seed, traced[-1])}"
        else:
            metrics, note = end_to_end(plain, setup, 1 - failed / attempted)
    except (BenchError, KeyError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}: {len(requests)} requests a pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':28s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"  {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
