"""One pass of a workload's request list, in a fresh interpreter.

Reads a JSON job from stdin: ``{"src": DIR, "requests": [argv, ...],
"trace": bool}``.  Imports ``admcalc`` from DIR, then hands each argv to
``admcalc.cli.run`` in this process and thread, one after the other, with
stdout and stderr captured.  Writes one JSON object to stdout: for each
request its exit code, latency and output; the pass wall time; the peak
resident memory; and, when tracing, the per-layer summary and the spans.
Latencies and the wall time are given raw and corrected for machine speed
(speed.py), with the pass's mean speed factor for the per-layer times.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from speed import SpeedProbe


def main() -> None:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    import admcalc.cli

    if Path(admcalc.__file__).resolve().parent.parent != src:
        sys.exit(f"admcalc was imported from {admcalc.__file__}, not from {src}")
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    results = []
    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    for request, argv in enumerate(job["requests"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = request
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = admcalc.cli.run(argv)
            except Exception as exc:  # a traceback is a failed request
                code = f"raised {type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
        results.append({"code": code, "interval": (t0, t1),
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    end = time.perf_counter()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for r in results:
        t0, t1 = r.pop("interval")
        r["raw_seconds"], r["seconds"] = t1 - t0, probe.corrected(t0, t1)
    report = {"results": results, "raw_wall_s": end - start,
              "wall_s": probe.corrected(start, end), "speed_factor": probe.factor(),
              "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        tracer.n["cli.render_bytes"] = sum(len(r["stdout"].encode()) for r in results)
        report.update(layers=tracer.summary(), properties=tracer.properties(),
                      wrapped=tracer.wrapped, spans=tracer.spans)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
