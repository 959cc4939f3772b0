"""Set-up time of admcalc in a fresh interpreter.

Times from the start of ``import admcalc.cli`` until the first trivial
request (``table --what P2 --gmax 0``) returns, with its output captured.
Only modules the interpreter has loaded at start-up are imported before
the clock starts, so the import of everything admcalc needs is counted.
The package directory is the first argument.  Prints one JSON object with
the time raw and corrected for machine speed (speed.py).
"""

import io
import sys
import time

sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import admcalc.cli  # noqa: E402

captured, saved = io.StringIO(), sys.stdout
sys.stdout = captured
try:
    code = admcalc.cli.run(["table", "--what", "P2", "--gmax", "0"])
finally:
    sys.stdout = saved
t1 = time.perf_counter()

import json  # noqa: E402

from speed import corrected_once  # noqa: E402

json.dump({"raw_seconds": t1 - t0, "seconds": corrected_once(t1 - t0), "code": code,
           "stdout": captured.getvalue(), "module": admcalc.__file__}, sys.stdout)
