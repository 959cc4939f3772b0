"""Command-line front end: tables, series, verification suites, raw counts.

Exit codes: 0 success (all suites pass), 1 verification failure, 2 usage or
resource-bound error.  Rationals are always printed as exact "p/q" strings,
never as floats.  A table or series result is the dict that the json format
prints; the text and csv formats read the same dict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections.abc import Iterable, Iterator
from functools import partial

from . import hodge, localization
from .hurwitz import (
    DEFAULT_MAX_TUPLES,
    BranchProfile,
    CycleType,
    EnumerationBoundError,
    _covers_by_genus,
    hurwitz_count,
    p2,
    p3_full,
    p3_trans,
)
from .series import TruncatedSeries, egf_value

__all__ = ["run", "main"]


def _record(kind: str, what: str, degree: int, size: int, values, note=None) -> dict:
    """One result as the dict the json format prints, and the text and csv
    formats read.  ``size`` is a series' order or a table's gmax; a table's
    payload lists every genus, a series' only its nonzero coefficients."""
    record = {
        "kind": kind, "what": what, "degree": degree,
        "order" if kind == "series" else "gmax": size,
        "payload": [[i, str(v)] for i, v in enumerate(values) if v or kind == "table"],
    }
    if note is not None:
        record["note"] = note
    return record


def _render_json(records: list[dict]) -> str:
    return json.dumps(records[0] if len(records) == 1 else records, indent=2) + "\n"


def _render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "what", "degree", "index", "value"])
    for r in records:
        for index, value in r["payload"]:
            writer.writerow([r["kind"], r["what"], r["degree"], index, value])
    return buf.getvalue()


def _render_text(records: list[dict]) -> str:
    lines = []
    for r in records:
        fields = " ".join(
            f"{key}={value}" for key, value in r.items()
            if key not in ("kind", "payload", "note")
        )
        note = f" ({r['note']})" if "note" in r else ""
        lines.append(f"# {r['kind']} {fields}{note}")
        prefix = "g=" if r["kind"] == "table" else "x^"
        lines.extend(f"{prefix}{index}: {value}" for index, value in r["payload"])
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "text": _render_text}


def _emit(records: list[dict], fmt: str, output: str | None) -> int:
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
# Each suite yields (left, right) pairs: the values of its two routes at each
# point it checks, in the order it checks them.  ``_passes`` is the one judge
# of every suite, and the first pair that differs ends the suite.  A suite
# reads its tables and closed forms from the ``hodge.TableSource`` of one
# ``verify`` invocation, whose tables reach --order + 1: ``tables(degree,
# gmax)`` in the genus-range suites, ``tables(degree)`` in the series suites,
# and ``tables.closed_form(row, degree, n)`` for the closed forms.  It looks
# up ``hodge`` and ``localization`` names as it runs, so a patch of either
# reaches it.


def _passes(pairs: Iterable[tuple]) -> bool:
    return all(left == right for left, right in pairs)


def _suite_rel2(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The L2 recursion's rows 0..gmax against the closed form's L2.  This
    # repeats conjecture's degree-2 pair (L2 is -2 I2) over another range.
    n = 2 * gmax + 1  # L2 row gmax sits at x^(2 gmax + 1)
    yield hodge.l_series(tables(2, gmax), n), tables.closed_form("L", 2, n)


def _suite_lab(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The L3 relation's rows 0..gmax against the closed form's L3: this
    # repeats conjecture's degree-3 pair (L3 is 9/2 I3) over another range.
    # Then the aux loci's sum against 0 at each genus; the loci are the
    # summands of the degree-3 relation the L3 rows were solved from, so this
    # half restates that relation.
    t2 = tables(2, gmax)
    t3 = tables(3, gmax)
    n = 2 * gmax + 2  # L3 row gmax sits at x^(2 gmax + 2)
    yield hodge.l_series(t3, n), tables.closed_form("L", 3, n)
    for g in range(gmax + 1):
        yield localization.deg3_aux_residual(g, l2=t2, l3=t3), 0


def _suite_ode2(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The L2 rows against the differential equation L2' sin x = L2: its
    # residual against the zero series.
    residual = hodge.ode_residual_deg2(tables(2), order)
    yield residual, TruncatedSeries([0] * (order + 1))


def _suite_ode3(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The L2 and L3 rows against the degree-3 differential equation: its
    # residual against the zero series.  The equation restates the degree-3
    # relation, so this passes for any L3 solved from any L2.
    residual = hodge.ode_residual_deg3(tables(2), tables(3), order)
    yield residual, TruncatedSeries([0] * (order + 1))


def _suite_conjecture(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The closed form I_d against 1 at degree 1, and against the I rows of
    # the degree's table at degrees 2 and 3, to --order.
    yield tables.closed_form("I", 1, order), TruncatedSeries.one(order)
    for d in (2, 3):
        yield tables.closed_form("I", d, order), hodge.i_series(tables(d), order)


def _suite_hurwitz(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # Each cover count's enumeration against its closed form.  First the
    # public count at genus 0, through ``hurwitz_count``'s fixed class and
    # ``_connected_covers``: the acceptance gate calls that route, and no
    # other pair checks it.  Then the family's per-genus fold,
    # ``_covers_by_genus``, at every genus 0..gmax: one fold, two slots a
    # genus, so no bound stops it.  Each fold takes its public count's
    # degree and special cycle types.
    families = (
        (p3_full, (3, (3,)), hodge.p3_full_closed),
        (p3_trans, (3,), hodge.p3_trans_closed),
        (p2, (2,), hodge.p2_closed),
    )
    for count, (d, *special), closed in families:
        yield count(0), closed(0)
        for g, value in _covers_by_genus(d, gmax, *special):
            yield value, closed(g)


def _suite_linearizations(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The linA loci's sum against the linB loci's, genus 0..gmax.  The linB
    # loci are the summands of the L2 recursion the table was solved from,
    # so this restates that recursion.
    t2 = tables(2, gmax)
    for g in range(gmax + 1):
        yield localization.deg2_linA(g, l2=t2), localization.deg2_linB(g, l2=t2)


def _suite_aspinwall(gmax: int, order: int, tables: hodge.TableSource) -> Iterator:
    # The J loci's sum against the closed form d * I_d^2 at degree 2, genus
    # 0..gmax.  The loci are the summands of the J convolution the J2 row is
    # read off, so this half restates that row.  Then the J3 row against the
    # closed form, to --order (4 at least).
    n = max(order, 4)
    t2 = tables(2, gmax)
    t3 = tables(3)  # it reaches --order + 1; J3 row g sits at x^(2g+4)
    j2 = tables.closed_form("J", 2, 2 * gmax + 2)
    for g in range(gmax + 1):
        yield localization.j2_from_loci(g, l2=t2), egf_value(j2, 2 * g + 2)
    yield hodge.j_series(t3, n), tables.closed_form("J", 3, n)


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
    if args.what == "conjecture":
        s = hodge.conjecture_series(d, n)
        note = "conjectural" if d >= 4 else None
        records = [_record("series", "conjecture", d, n, s.coeffs, note)]
    elif args.what == "P":
        if d != 3:
            return _usage_error("P series are only defined for degree 3")
        records = [
            _record("series", "P3full", 3, n, hodge.p3_full_series(n).coeffs),
            _record("series", "P3trans", 3, n, hodge.p3_trans_series(n).coeffs),
        ]
    else:
        if d not in (2, 3):
            return _usage_error(f"--what {args.what} needs degree 2 or 3")
        rows = {"I": hodge.i_series, "J": hodge.j_series, "L": hodge.l_series}
        s = rows[args.what](hodge.TableSource(n)(d), n)
        records = [_record("series", args.what, d, n, s.coeffs)]
    return _emit(records, args.format, args.output)


_TABLE_WHAT = {
    "L2": 2, "L3": 3, "I2": 2, "I3": 3, "J2": 2, "J3": 3,
    "P2": 2, "P3full": 3, "P3trans": 3,
}

_P_CLOSED = {
    "P2": hodge.p2_closed,
    "P3full": hodge.p3_full_closed,
    "P3trans": hodge.p3_trans_closed,
}


def _cmd_table(args: argparse.Namespace) -> int:
    what, gmax = args.what, args.gmax
    if gmax < 0:
        return _usage_error("gmax must be >= 0")
    degree = _TABLE_WHAT[what]
    if what in _P_CLOSED:
        row = [_P_CLOSED[what](g) for g in range(gmax + 1)]
    else:
        row = getattr(hodge.TableSource(0)(degree, gmax), what[0])
    return _emit([_record("table", what, degree, gmax, row)], args.format, args.output)


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.gmax < 0:
        return _usage_error("gmax must be >= 0")
    if args.order < 2:
        return _usage_error("order must be >= 2")
    names = list(_SUITES) if args.suite is None else [args.suite]
    tables = hodge.TableSource(args.order + 1)
    if args.suite is None:
        # --all reads each degree's closed form at up to two orders: 2 gmax + 2
        # (rel2, lab and aspinwall's J2) and --order, 4 at least (conjecture
        # and aspinwall's J3).  Asked first at the larger, it is built once; a
        # suite on its own reads each degree at one order.
        for d in (1, 2, 3):
            tables.closed_form("I", d, max(2 * args.gmax + 2, args.order, 4))
    failed = False
    for name in names:
        ok = _passes(_SUITES[name](args.gmax, args.order, tables))
        print(f"{name}: {'pass' if ok else 'fail'}")
        failed = failed or not ok
    return 1 if failed else 0


# The largest --gmax or --order.  It bounds the memory of one request, not
# its time: at 5000, ``series --what P`` takes about 9 s and peaks at about
# 176 MB in-process on a shared 2-core machine.
_MAX_SIZE = 5000
# The largest hurwitz --degree: every count forms d!, seconds long at 10^6.
_MAX_DEGREE = 100000


def _parse_size(text: str, ceiling: int = _MAX_SIZE) -> int:
    """An int no larger than ``ceiling``: the ``--gmax``/``--order`` type, and
    with ``ceiling=_MAX_DEGREE`` the ``hurwitz --degree`` type."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > ceiling:
        raise argparse.ArgumentTypeError(f"must be <= {ceiling}")
    return value


def _parse_profile(text: str) -> CycleType:
    """The ``--profile`` type: argparse calls it while argv is parsed."""
    try:
        return CycleType(tuple(int(p) for p in text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"profile {text!r} is not a comma-separated list of positive integers"
        ) from None


def _cmd_hurwitz(args: argparse.Namespace) -> int:
    # A profile BranchProfile refuses raises ValueError, which ``run`` turns
    # into a usage error.
    profile = BranchProfile(args.degree, args.profile)
    count = hurwitz_count(
        profile, connected=not args.disconnected, max_tuples=args.max_tuples
    )
    print(count)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser, its subcommands' too, whose usage errors take one line."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: {message}\n")


def _add_format_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--output", metavar="PATH", default=None)


def _series_arguments(series: argparse.ArgumentParser) -> None:
    series.add_argument("--degree", type=int, required=True)
    series.add_argument("--order", type=_parse_size, default=21)
    series.add_argument(
        "--what", choices=("I", "J", "L", "P", "conjecture"), default="I"
    )
    _add_format_flags(series)
    series.set_defaults(func=_cmd_series)


def _table_arguments(table: argparse.ArgumentParser) -> None:
    table.add_argument("--what", choices=sorted(_TABLE_WHAT), required=True)
    table.add_argument("--gmax", type=_parse_size, default=10)
    _add_format_flags(table)
    table.set_defaults(func=_cmd_table)


def _verify_arguments(verify: argparse.ArgumentParser) -> None:
    group = verify.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", dest="run_all")
    group.add_argument("--suite", choices=sorted(_SUITES), default=None)
    verify.add_argument("--gmax", type=_parse_size, default=10)
    verify.add_argument("--order", type=_parse_size, default=21)
    verify.set_defaults(func=_cmd_verify)


def _hurwitz_arguments(hurwitz: argparse.ArgumentParser) -> None:
    hurwitz.add_argument(
        "--degree", type=partial(_parse_size, ceiling=_MAX_DEGREE), required=True
    )
    hurwitz.add_argument(
        "--profile", action="append", required=True, type=_parse_profile,
        help="comma-separated cycle lengths; repeat once per branch point",
    )
    hurwitz.add_argument("--disconnected", action="store_true")
    hurwitz.add_argument("--max-tuples", type=int, default=DEFAULT_MAX_TUPLES)
    hurwitz.set_defaults(func=_cmd_hurwitz)


# Each subcommand, in the order of the top-level usage: its help string and
# the function that adds its arguments.
_COMMANDS = {
    "series": ("emit one generating function", _series_arguments),
    "table": ("emit a genus-indexed table", _table_arguments),
    "verify": ("run consistency suites", _verify_arguments),
    "hurwitz": ("count monodromy tuples", _hurwitz_arguments),
}


def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: when its first token names a subcommand, the
    top-level parser with that one subcommand; otherwise (``-h``, a typo, no
    token, or ``argv`` None) with all four.

    The top-level parser has no option but ``-h``, so a first token that
    names a subcommand always dispatches to it.  The list of all four is
    printed only by the top-level ``--help`` and its invalid-choice error,
    which a first token naming a subcommand never reaches.  So both parsers
    give the same namespace, output and exit code for that argv, and the
    one-command parser builds in about a third of the time.
    """
    parser = _Parser(
        prog="admcalc",
        description="Exact intersection-number tables and series for "
        "low-degree branched covers, with cross-verification suites.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(commands.add_parser(name, help=help_text))
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse argv (``sys.argv[1:]`` when None) and execute; returns the
    process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # Exact answers can pass CPython's digit limit on int/str conversion (none
    # before 3.10.7): argv is parsed under it, the answer is made without it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (EnumerationBoundError, ValueError) as exc:
        return _usage_error(str(exc))
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def main() -> None:
    if isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        # Unbuffered (-u, PYTHONUNBUFFERED), a reader closing mid-write cuts the
        # one raw write of the answer short without an error.  A line-buffered
        # writer writes each line whole or raises BrokenPipeError.
        sys.stdout = open(sys.stdout.fileno(), "w", buffering=1, closefd=False,
                          encoding=sys.stdout.encoding, errors=sys.stdout.errors)
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader closed stdout, and stderr too if it shares the pipe.
        # What is still buffered for a closed one goes to devnull at
        # shutdown, so at most the one line below is printed.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        try:
            _usage_error(f"cannot write stdout: {exc.strerror}")
        except BrokenPipeError:
            os.dup2(devnull, sys.stderr.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
