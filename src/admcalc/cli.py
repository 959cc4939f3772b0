"""Command-line front end: tables, series, verification suites, raw counts.

Exit codes: 0 success (all suites pass), 1 verification failure, 2 usage or
resource-bound error.  Rationals are always printed as exact "p/q" strings,
never as floats.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import hodge, localization
from .hurwitz import (
    DEFAULT_MAX_TUPLES,
    BranchProfile,
    CycleType,
    EnumerationBoundError,
    hurwitz_count,
    p2,
    p3_full,
    p3_trans,
)
from .series import TruncatedSeries, div, egf_value, sin_scaled

__all__ = ["OutputRecord", "run", "main"]


@dataclass
class OutputRecord:
    """One emitted result: a table or a series."""

    kind: str  # table | series
    what: str
    degree: int | None = None
    order: int | None = None
    gmax: int | None = None
    payload: list[tuple[int, str]] = field(default_factory=list)
    note: str | None = None

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind, "what": self.what}
        for key in ("degree", "order", "gmax"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        out["payload"] = [[i, v] for i, v in self.payload]
        if self.note is not None:
            out["note"] = self.note
        return out


def _series_payload(s: TruncatedSeries) -> list[tuple[int, str]]:
    return [(k, str(c)) for k, c in enumerate(s.coeffs) if c]


def _table_payload(row: list[Fraction]) -> list[tuple[int, str]]:
    return [(g, str(value)) for g, value in enumerate(row)]


def _render_json(records: list[OutputRecord]) -> str:
    data = records[0].to_dict() if len(records) == 1 else [r.to_dict() for r in records]
    return json.dumps(data, indent=2) + "\n"


def _render_csv(records: list[OutputRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "what", "degree", "index", "value"])
    for r in records:
        for index, value in r.payload:
            writer.writerow([r.kind, r.what, "" if r.degree is None else r.degree, index, value])
    return buf.getvalue()


def _render_text(records: list[OutputRecord]) -> str:
    lines = []
    for r in records:
        header = f"# {r.kind} what={r.what}"
        if r.degree is not None:
            header += f" degree={r.degree}"
        if r.order is not None:
            header += f" order={r.order}"
        if r.gmax is not None:
            header += f" gmax={r.gmax}"
        if r.note is not None:
            header += f" ({r.note})"
        lines.append(header)
        for index, value in r.payload:
            if r.kind == "table":
                lines.append(f"g={index}: {value}")
            else:
                lines.append(f"x^{index}: {value}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "text": _render_text}


def _emit(records: list[OutputRecord], fmt: str, output: str | None) -> int:
    text = _RENDERERS[fmt](records)
    if output is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return _usage_error(f"cannot write {output}: {exc.strerror}")
    return 0


def _usage_error(message: str) -> int:
    print(f"admcalc: {message}", file=sys.stderr)
    return 2


# -- verification suites ---------------------------------------------------
#
# Each suite returns True on success.  Brute-force Hurwitz genera are capped
# independently of --gmax: each cap is the largest genus whose raw tuple
# space fits under DEFAULT_MAX_TUPLES.

_HURWITZ_CAPS = {"p3_full": 8, "p3_trans": 7, "p2": 10}


def _suite_rel2(gmax: int, order: int) -> bool:
    table = hodge.l2_table(gmax)
    closed = hodge.closed_form_L2(2 * gmax + 1)
    return all(
        table.L[g] == egf_value(closed, 2 * g + 1) for g in range(gmax + 1)
    )


def _suite_lab(gmax: int, order: int) -> bool:
    t2 = hodge.l2_table(gmax)
    t3 = hodge.l3_table(gmax)
    closed = hodge.closed_form_L3(2 * gmax + 2)
    recursion_ok = all(
        t3.L[g] == egf_value(closed, 2 * g + 2) for g in range(gmax + 1)
    )
    vanishing_ok = all(
        localization.deg3_aux_residual(g, l2=t2, l3=t3) == 0
        for g in range(gmax + 1)
    )
    return recursion_ok and vanishing_ok


def _suite_ode2(gmax: int, order: int) -> bool:
    return hodge.ode_residual_deg2(order).is_zero()


def _suite_ode3(gmax: int, order: int) -> bool:
    return hodge.ode_residual_deg3(order).is_zero()


def _suite_conjecture(gmax: int, order: int) -> bool:
    one = TruncatedSeries.one(order)
    if hodge.conjecture_series(1, order) != one:
        return False
    return all(
        hodge.conjecture_series(d, order) == hodge.i_series(d, order)
        for d in (2, 3)
    )


def _suite_hurwitz(gmax: int, order: int) -> bool:
    for g in range(min(gmax, _HURWITZ_CAPS["p3_full"]) + 1):
        if p3_full(g) != hodge.p3_full_closed(g):
            return False
    for g in range(min(gmax, _HURWITZ_CAPS["p3_trans"]) + 1):
        if p3_trans(g) != hodge.p3_trans_closed(g):
            return False
    for g in range(min(gmax, _HURWITZ_CAPS["p2"]) + 1):
        if p2(g) != hodge.p2_closed(g):
            return False
    return True


def _suite_linearizations(gmax: int, order: int) -> bool:
    t2 = hodge.l2_table(gmax)
    return all(
        localization.deg2_linA(g, l2=t2) == localization.deg2_linB(g, l2=t2)
        for g in range(gmax + 1)
    )


def _suite_aspinwall(gmax: int, order: int) -> bool:
    if hodge.j_series(2, 2).coeff(2) != Fraction(1, 8):
        return False
    if hodge.j_series(3, 4).coeff(4) != Fraction(1, 27):
        return False
    # Locus route against the tangent-squared closed form.
    t2 = hodge.l2_table(gmax)
    tan_sq = hodge.closed_form_L2(2 * gmax + 2) ** 2
    for g in range(gmax + 1):
        expected = egf_value(tan_sq, 2 * g + 2) / 2
        if localization.j2_from_loci(g, l2=t2) != expected:
            return False
    # Degree-3 square identity against its trigonometric closed form.
    n = max(order, 4)
    numerator = Fraction(16, 3) * sin_scaled(Fraction(1, 2), n + 2) ** 6
    denominator = sin_scaled(Fraction(3, 2), n + 2) ** 2
    return hodge.j_series(3, n) == div(numerator, denominator)


_SUITES = {
    "rel2": _suite_rel2,
    "lab": _suite_lab,
    "ode2": _suite_ode2,
    "ode3": _suite_ode3,
    "conjecture": _suite_conjecture,
    "hurwitz": _suite_hurwitz,
    "linearizations": _suite_linearizations,
    "aspinwall": _suite_aspinwall,
}


# -- subcommand handlers ---------------------------------------------------


def _cmd_series(args: argparse.Namespace) -> int:
    d, n = args.degree, args.order
    if n < 0:
        return _usage_error("order must be >= 0")
    records: list[OutputRecord] = []
    if args.what == "conjecture":
        if d < 1:
            return _usage_error("conjecture series needs degree >= 1")
        if n < d - 1:
            return _usage_error("order must be at least degree - 1")
        record = OutputRecord(
            "series", "conjecture", degree=d, order=n,
            payload=_series_payload(hodge.conjecture_series(d, n)),
        )
        if d >= 4:
            record.note = "conjectural"
        records.append(record)
    elif args.what == "P":
        if d != 3:
            return _usage_error("P series are only defined for degree 3")
        records.append(
            OutputRecord("series", "P3full", degree=3, order=n,
                         payload=_series_payload(hodge.p3_full_series(n)))
        )
        records.append(
            OutputRecord("series", "P3trans", degree=3, order=n,
                         payload=_series_payload(hodge.p3_trans_series(n)))
        )
    else:
        if d not in (2, 3):
            return _usage_error(f"--what {args.what} needs degree 2 or 3")
        if args.what == "I":
            s = hodge.i_series(d, n)
        elif args.what == "J":
            s = hodge.j_series(d, n)
        else:  # L
            table = hodge.l2_table(n // 2) if d == 2 else hodge.l3_table(n // 2)
            s = hodge.l_series(table, n)
        records.append(
            OutputRecord("series", args.what, degree=d, order=n,
                         payload=_series_payload(s))
        )
    return _emit(records, args.format, args.output)


_TABLE_WHAT = {
    "L2": 2, "L3": 3, "I2": 2, "I3": 3, "J2": 2, "J3": 3,
    "P2": 2, "P3full": 3, "P3trans": 3,
}


def _cmd_table(args: argparse.Namespace) -> int:
    what, gmax = args.what, args.gmax
    if gmax < 0:
        return _usage_error("gmax must be >= 0")
    degree = _TABLE_WHAT[what]
    if what == "P2":
        row = [hodge.p2_closed(g) for g in range(gmax + 1)]
    elif what == "P3full":
        row = [hodge.p3_full_closed(g) for g in range(gmax + 1)]
    elif what == "P3trans":
        row = [hodge.p3_trans_closed(g) for g in range(gmax + 1)]
    else:
        table = hodge.l2_table(gmax) if degree == 2 else hodge.l3_table(gmax)
        row = {"L": table.L, "I": table.I, "J": table.J}[what[0]]
    record = OutputRecord(
        "table", what, degree=degree, gmax=gmax, payload=_table_payload(row)
    )
    return _emit([record], args.format, args.output)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.gmax < 0:
        return _usage_error("gmax must be >= 0")
    if args.order < 2:
        return _usage_error("order must be >= 2")
    names = list(_SUITES) if args.suite is None else [args.suite]
    failed = False
    for name in names:
        ok = _SUITES[name](args.gmax, args.order)
        print(f"{name}: {'pass' if ok else 'fail'}")
        failed = failed or not ok
    return 1 if failed else 0


def _parse_profile(text: str) -> list[int]:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise ValueError(f"profile {text!r} is not a comma-separated integer list")
    if not parts or any(p < 1 for p in parts):
        raise ValueError(f"profile {text!r} must list positive cycle lengths")
    return parts


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    bound = args.max_tuples
    if bound is None:
        env = os.environ.get("ADMCALC_MAX_TUPLES")
        try:
            bound = DEFAULT_MAX_TUPLES if env is None else int(env)
        except ValueError:
            return _usage_error(f"ADMCALC_MAX_TUPLES={env!r} is not an integer")
    try:
        profiles = tuple(CycleType(tuple(_parse_profile(p))) for p in args.profile)
        profile = BranchProfile(args.degree, profiles)
    except ValueError as exc:
        return _usage_error(str(exc))
    count = hurwitz_count(
        profile, connected=not args.disconnected, max_tuples=bound
    )
    print(count)
    return 0


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", metavar="PATH", default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admcalc",
        description="Exact intersection-number tables and series for "
        "low-degree branched covers, with cross-verification suites.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    series = commands.add_parser("series", help="emit one generating function")
    series.add_argument("--degree", type=int, required=True)
    series.add_argument("--order", type=int, default=21)
    series.add_argument(
        "--what", choices=("I", "J", "L", "P", "conjecture"), default="I"
    )
    _add_format_flags(series)
    series.set_defaults(func=_cmd_series)

    table = commands.add_parser("table", help="emit a genus-indexed table")
    table.add_argument("--what", choices=sorted(_TABLE_WHAT), required=True)
    table.add_argument("--gmax", type=int, default=10)
    _add_format_flags(table)
    table.set_defaults(func=_cmd_table)

    verify = commands.add_parser("verify", help="run consistency suites")
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", dest="run_all")
    group.add_argument("--suite", choices=sorted(_SUITES), default=None)
    verify.add_argument("--gmax", type=int, default=10)
    verify.add_argument("--order", type=int, default=21)
    verify.set_defaults(func=_cmd_verify)

    hurwitz = commands.add_parser("hurwitz", help="count monodromy tuples")
    hurwitz.add_argument("--degree", type=int, required=True)
    hurwitz.add_argument(
        "--profile", action="append", required=True,
        help="comma-separated cycle lengths; repeat once per branch point",
    )
    hurwitz.add_argument("--disconnected", action="store_true")
    hurwitz.add_argument("--max-tuples", type=int, default=None)
    hurwitz.set_defaults(func=_cmd_hurwitz)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except EnumerationBoundError as exc:
        return _usage_error(str(exc))
    except ValueError as exc:
        return _usage_error(str(exc))


def main() -> None:
    sys.exit(run())
