"""Exactness checks on every answer, run after the timed passes.

* ``table --what L2`` rows must equal T_{2g+1} / 2^(2g+1), where the tangent
  numbers T come from the integer recurrence of Knuth and Buckholtz
  (1967), so no admcalc code is involved.
* ``table --what P3full`` / ``P3trans`` rows must equal 9^g and
  (9^(g+1)-1)/2.
* ``verify`` must exit 0 and print exactly the eight suites, each ``pass``.
* Every other output (and the L2/P3 outputs too) must equal, byte for
  byte, the reference recorded in ``reference.json`` for the same argv.

A request also fails if its exit code is not the expected one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

from workloads import REFERENCE

SUITES = ("rel2", "lab", "ode2", "ode3", "conjecture", "hurwitz",
          "linearizations", "aspinwall")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tangent_numbers(n: int) -> list[int]:
    """T_1, T_3, ..., T_{2n-1}: tan x = sum T_{2k-1} x^(2k-1)/(2k-1)!."""
    t = [0] * (n + 1)
    t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def expected_rows(what: str, gmax: int) -> list[Fraction]:
    """Exact L2, P3full or P3trans rows for g = 0..gmax, without admcalc."""
    if what == "L2":
        t = tangent_numbers(gmax + 1)
        return [Fraction(t[g], 2 ** (2 * g + 1)) for g in range(gmax + 1)]
    if what == "P3full":
        return [Fraction(9**g) for g in range(gmax + 1)]
    return [Fraction(9 ** (g + 1) - 1, 2) for g in range(gmax + 1)]


def table_rows(text: str, fmt: str) -> list[tuple[int, Fraction]]:
    """(g, value) rows of a rendered one-record table."""
    if fmt == "json":
        rows = json.loads(text)["payload"]
    elif fmt == "csv":
        rows = [(r["index"], r["value"]) for r in csv.DictReader(io.StringIO(text))]
    else:
        rows = [line[2:].split(": ") for line in text.splitlines()[1:]]
    return [(int(g), Fraction(v)) for g, v in rows]


def _flag(argv: list[str], name: str, default: str) -> str:
    return argv[argv.index(name) + 1] if name in argv else default


class Checker:
    """Decides whether one request's answer is right.

    Verdicts are memoised on (argv, exit code, output), since every pass of
    a run repeats the same requests.
    """

    def __init__(self, reference: dict):
        self.outputs = reference["outputs"]
        self._seen: dict[tuple, str | None] = {}

    def problem(self, request: dict, result: dict) -> str | None:
        """None when the answer is right, otherwise what is wrong."""
        key = (" ".join(request["argv"]), str(result["code"]), digest(result["stdout"]))
        if key not in self._seen:
            self._seen[key] = self._problem(request, result)
        return self._seen[key]

    def _problem(self, request: dict, result: dict) -> str | None:
        argv, code, out = request["argv"], result["code"], result["stdout"]
        if code != request["exit"]:
            return f"exit {code}, expected {request['exit']}: {result['stderr'].strip()}"
        if argv[0] == "verify":
            expected = "".join(f"{s}: pass\n" for s in SUITES)
            return None if out == expected else f"verify printed {out!r}"
        what = _flag(argv, "--what", "")
        if argv[0] == "table" and what in ("L2", "P3full", "P3trans"):
            gmax = int(_flag(argv, "--gmax", "10"))
            try:
                rows = table_rows(out, _flag(argv, "--format", "text"))
            except (ValueError, KeyError, IndexError) as exc:
                return f"unparseable table: {exc}"
            if [g for g, _ in rows] != list(range(gmax + 1)):
                return "table rows do not cover 0..gmax"
            for (g, value), want in zip(rows, expected_rows(what, gmax)):
                if value != want:
                    return f"{what}({g}) = {value}, expected {want}"
        want = self.outputs.get(" ".join(argv))
        if want is None:
            raise KeyError(f"no reference output for {' '.join(argv)}")
        return None if digest(out) == want else "output differs from the reference"
