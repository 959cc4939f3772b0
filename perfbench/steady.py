"""Steadiness self-check: run each workload under several seeds and report
each end-to-end metric's spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py                       # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads verify-all --seeds 5
    python3 perfbench/steady.py --save a.json         # keep the figures ...
    python3 perfbench/steady.py --against a.json      # ... and compare a second set

The spread is (q3 - q1) / median over the seeds, with the quartiles of
``statistics.quantiles(values, n=4)``.  A metric is steady when its spread
is below a third of its bound; ``setup_s`` is reported but only its median
is compared between sets.  With ``--against``, a metric whose median got
worse than the saved one by more than its bound is flagged.  Also prints
``failed_ratio`` (failed over attempted requests) for every run.  Exits 1
if any check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, old: float, better: str) -> float:
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    parser.add_argument("--save", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, args.seeds + 1)
    figures: dict[str, dict[str, list[float]]] = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in metrics}
        for seed in seeds:
            result = run_once(workload, seed, bench["run_seconds"])
            shown = ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {shown}, failed_ratio "
                  f"{result['failed'] / result['attempted']:.4g}", flush=True)
            ok = ok and result["correct"]
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
        figures[workload] = values
        if len(seeds) < 2:
            continue
        for name, m in metrics.items():
            s, median = spread(values[name]), statistics.median(values[name])
            verdict = "steady" if s < m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            if name == "setup_s":
                verdict = "not gated"
            elif s > m["bound"]:
                ok = False
            line = f"  {workload:13s} {name:12s} median {median:.5g} spread {s:.4f} bound {m['bound']} {verdict}"
            if args.against:
                old = statistics.median(json.loads(args.against.read_text())[workload][name])
                change = worse_by(median, old, m["better"])
                line += f"; {change:+.4f} against the saved median"
                if change > m["bound"]:
                    line += " WORSE THAN BOUND"
                    ok = False
            print(line, flush=True)
    if args.save:
        args.save.write_text(json.dumps(figures, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
