import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from admcalc import cli, hodge, localization
from admcalc.cli import run


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- series ----------------------------------------------------------------


def test_series_json_example(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--degree", "2", "--order", "11", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    payload = dict((k, v) for k, v in data["payload"])
    assert payload[1] == "-1/4"
    assert payload[3] == "-1/48"
    assert data["kind"] == "series" and data["degree"] == 2
    assert "note" not in data


def test_series_payload_indices_increase(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--degree", "3", "--what", "J", "--format", "json"
    )
    assert code == 0
    indices = [k for k, _ in json.loads(out)["payload"]]
    assert indices == sorted(indices)
    assert all(b > a for a, b in zip(indices, indices[1:]))


def test_series_defaults_to_I_at_order_21(capsys):
    code, out, _ = run_cli(capsys, "series", "--degree", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["what"] == "I" and data["order"] == 21


def test_series_L_and_table_agree(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--degree", "2", "--what", "L", "--order", "7",
        "--format", "json",
    )
    assert code == 0
    payload = dict(json.loads(out)["payload"])
    assert payload[1] == "1/2" and payload[3] == "1/24"


def test_series_P_emits_two_records(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--degree", "3", "--what", "P", "--order", "9",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert [r["what"] for r in records] == ["P3full", "P3trans"]
    assert records[0]["payload"][0] == [2, "1/2"]
    assert records[1]["payload"][0] == [3, "2/3"]


def test_series_P_needs_degree_three(capsys):
    code, _, err = run_cli(capsys, "series", "--degree", "2", "--what", "P")
    assert code == 2
    assert "degree 3" in err


def test_conjecture_note_only_past_degree_three(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--degree", "4", "--what", "conjecture",
        "--order", "9", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["note"] == "conjectural"
    code, out, _ = run_cli(
        capsys, "series", "--degree", "3", "--what", "conjecture",
        "--order", "9", "--format", "json",
    )
    assert code == 0
    assert "note" not in json.loads(out)


# -- formats ---------------------------------------------------------------


def test_json_round_trip_byte_identical(capsys):
    _, out, _ = run_cli(
        capsys, "series", "--degree", "2", "--order", "15", "--format", "json"
    )
    assert json.dumps(json.loads(out), indent=2) + "\n" == out
    _, out, _ = run_cli(
        capsys, "series", "--degree", "3", "--what", "P", "--format", "json"
    )
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


def test_csv_and_json_encode_identical_values(capsys):
    _, json_out, _ = run_cli(
        capsys, "table", "--what", "L3", "--gmax", "6", "--format", "json"
    )
    _, csv_out, _ = run_cli(
        capsys, "table", "--what", "L3", "--gmax", "6", "--format", "csv"
    )
    from_json = {k: v for k, v in json.loads(json_out)["payload"]}
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    from_csv = {int(r["index"]): r["value"] for r in rows}
    assert from_json == from_csv
    assert all(r["kind"] == "table" and r["what"] == "L3" for r in rows)


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "P3trans", "--gmax", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# table what=P3trans")
    assert lines[1:] == ["g=0: 4", "g=1: 40", "g=2: 364"]


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "series", "--degree", "2", "--order", "5",
        "--format", "json", "--output", str(target),
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["degree"] == 2


# -- tables ----------------------------------------------------------------


def test_table_values(capsys):
    _, out, _ = run_cli(
        capsys, "table", "--what", "I2", "--gmax", "2", "--format", "json"
    )
    assert json.loads(out)["payload"] == [[0, "-1/4"], [1, "-1/8"], [2, "-1/4"]]
    _, out, _ = run_cli(
        capsys, "table", "--what", "P2", "--gmax", "3", "--format", "json"
    )
    assert [v for _, v in json.loads(out)["payload"]] == ["1/2"] * 4


def test_table_rationals_never_floats(capsys):
    _, out, _ = run_cli(
        capsys, "table", "--what", "J3", "--gmax", "5", "--format", "json"
    )
    for _, value in json.loads(out)["payload"]:
        assert "." not in value and "e" not in value.lower()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_answers_past_the_int_str_digit_limit(capsys):
    # 9^4600 has 4390 digits, past CPython's default limit of 4300 on int/str
    # conversion; the limit is lifted for the answer and restored after it.
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "table", "--what", "P3full", "--gmax", "4600")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    last = out.splitlines()[-1]
    sys.set_int_max_str_digits(0)
    try:
        assert last == f"g=4600: {9**4600}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_j_outputs_match_the_benchmark_records(capsys):
    # The benchmark records the sha256 of every stdout it can request; the
    # json-format J series and tables are pinned here as well.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    outputs = json.loads(reference.read_text(encoding="utf-8"))["outputs"]
    j_requests = {
        argv: digest for argv, digest in outputs.items()
        if "--what J" in argv and "--format json" in argv
    }
    assert len(j_requests) == 12
    for argv, digest in j_requests.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_conjecture_outputs_match_the_benchmark_records(capsys):
    # The conjecture series is a product power over a quotient, so these
    # records pin both loops of the series kernel at orders up to 321.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    outputs = json.loads(reference.read_text(encoding="utf-8"))["outputs"]
    conjecture_requests = {
        argv: digest for argv, digest in outputs.items()
        if "--what conjecture" in argv and "--format json" in argv
    }
    assert len(conjecture_requests) == 18
    for argv, digest in conjecture_requests.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_other_table_and_series_outputs_match_the_benchmark_records(capsys):
    # The json-format records of the families the two tests above leave out:
    # tables L2, L3, I3, P3full and P3trans, and the I and L series.  The
    # P3full and P3trans tables, whose closed forms return integers, are
    # pinned in the text and csv formats as well.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    outputs = json.loads(reference.read_text(encoding="utf-8"))["outputs"]
    requests = {
        argv: digest for argv, digest in outputs.items()
        if argv.split()[0] in ("table", "series")
        and ("--format json" in argv or argv.startswith("table --what P3"))
        and "--what J" not in argv and "--what conjecture" not in argv
    }
    assert len(requests) == 39
    for argv, digest in requests.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_text_and_csv_outputs_match_the_benchmark_records(capsys):
    # Every table and series slot (command, --what, --degree) in the text and
    # csv formats, at the smallest size the records hold for it; the P3full
    # and P3trans tables are pinned in both formats above.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    outputs = json.loads(reference.read_text(encoding="utf-8"))["outputs"]
    smallest: dict[tuple, tuple[int, str]] = {}
    for argv in outputs:
        words = argv.split()
        flags = dict(zip(words[1::2], words[2::2]))
        fmt = flags.get("--format", "text")
        if words[0] not in ("table", "series") or fmt == "json":
            continue
        if flags["--what"] in ("P3full", "P3trans"):
            continue
        slot = (words[0], flags["--what"], flags.get("--degree"), fmt)
        size = int(flags.get("--gmax") or flags["--order"])
        smallest[slot] = min(smallest.get(slot, (size, argv)), (size, argv))
    assert len(smallest) == 35
    for _, argv in smallest.values():
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == outputs[argv], argv


# The sha256 of stdouts past the benchmark records' largest sizes (gmax 161,
# order 323), recorded with the series kernel that stored ordinary
# coefficients: the I3 row series, the J2 row series, the two cover-count
# series and a closed form divided out at degree 5, all at order 601.
DEEP_STDOUTS = {
    "series --what I --degree 3 --order 601 --format json":
        "f6632cbe9d5e135a9b28b6e208b1baafeab6dca2148b01514ad04bea65f45d59",
    "series --what J --degree 2 --order 601 --format csv":
        "e19e8b980e166ee73b40df62924cd1f1bd8693ab492110bcf2b9fe461ba2fc45",
    "series --what P --degree 3 --order 601":
        "c9ec44a2626cf3c6998918d4597da1ee536515bbdaa18174b9527a8a47840f4a",
    "series --what conjecture --degree 5 --order 601 --format csv":
        "eed4e5e463561bd07ca8a2b9223894022b262ec3b633a832d976bb835a4e3f3e",
}


@pytest.mark.parametrize("argv", DEEP_STDOUTS)
def test_deep_outputs_keep_their_digests(capsys, argv):
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_STDOUTS[argv]


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--what", "L2", "--gmax", "6"],
        ["table", "--what", "L3", "--gmax", "6"],
        ["table", "--what", "I2", "--gmax", "6"],
        ["table", "--what", "I3", "--gmax", "6"],
        ["series", "--degree", "2", "--what", "I", "--order", "13"],
        ["series", "--degree", "3", "--what", "I", "--order", "13"],
        ["series", "--degree", "2", "--what", "L", "--order", "13"],
        ["series", "--degree", "3", "--what", "L", "--order", "13"],
    ],
    ids=" ".join,
)
def test_l_and_i_requests_build_no_j_row(capsys, monkeypatch, argv):
    expected = run_cli(capsys, *argv)

    def no_j(*args):
        raise AssertionError("J row computed")

    monkeypatch.setattr(hodge, "_j_terms", no_j)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0


def spy_on_tables(monkeypatch):
    """Record (degree, gmax) of every table solved through hodge's builders."""
    built = []
    for name in ("l2_table", "l3_table"):
        builder = getattr(hodge, name)

        def spy(arg, builder=builder):
            table = builder(arg)
            built.append((table.degree, table.gmax))
            return table

        monkeypatch.setattr(hodge, name, spy)
    return built


@pytest.mark.parametrize("degree, order", [(2, 8), (3, 9)])
def test_series_L_table_sized_by_order(capsys, monkeypatch, degree, order):
    # Row g sits at exponent 2g+d-1, so order 8 (d=2) and 9 (d=3) need g <= 3.
    built = spy_on_tables(monkeypatch)
    code, _, _ = run_cli(
        capsys, "series", "--degree", str(degree), "--what", "L", "--order", str(order)
    )
    assert code == 0
    assert built and {gmax for _, gmax in built} == {3}


# -- verify ----------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--all", "--gmax", "4", "--order", "11")
    assert (code, err) == (0, "")
    assert out == (
        "rel2: pass\nlab: pass\node2: pass\node3: pass\nconjecture: pass\n"
        "hurwitz: pass\nlinearizations: pass\naspinwall: pass\n"
    )


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rel2", "--gmax", "6")
    assert code == 0
    assert out.strip() == "rel2: pass"


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "rel2", lambda gmax, order, tables: iter([(0, 1)]))
    code, out, _ = run_cli(capsys, "verify", "--all", "--gmax", "2", "--order", "6")
    assert code == 1
    assert "rel2: fail" in out


def test_verify_stops_a_suite_at_its_first_mismatch(capsys, monkeypatch):
    # The judge reads no pair past the first that differs.
    def suite(gmax, order, tables):
        yield 0, 1
        raise AssertionError("a pair past the first mismatch was read")

    monkeypatch.setitem(cli._SUITES, "rel2", suite)
    assert run_cli(capsys, "verify", "--suite", "rel2") == (1, "rel2: fail\n", "")


@pytest.mark.parametrize("d, g", [(3, 2), (2, 0), (3, 0)])
def test_verify_aspinwall_reads_the_j3_rows(capsys, monkeypatch, d, g):
    # A wrong degree-3 convolution summand changes what `table --what J3`
    # prints; the aspinwall suite must see it in the J3 series it compares.
    # A wrong degree-2 summand must show in the J2 loci, which read the same
    # convolution through ``hodge``; genus 0 is the first step of both
    # comparisons.
    j_terms = hodge._j_terms

    def wrong(d_, g_, I):
        terms = j_terms(d_, g_, I)
        if (d_, g_) == (d, g):
            terms[min(g, 1)] += 1
        return terms

    monkeypatch.setattr(hodge, "_j_terms", wrong)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "aspinwall", "--gmax", "4", "--order", "11"
    )
    assert (code, out) == (1, "aspinwall: fail\n")


@pytest.mark.parametrize("suite, builder", [("rel2", "l2_table"), ("lab", "l3_table")])
@pytest.mark.parametrize("row, verdict", [(4, "fail"), (5, "pass")])
def test_verify_series_suites_read_rows_up_to_gmax(
    capsys, monkeypatch, suite, builder, row, verdict
):
    # The table reaches --order + 1 (genus 10 at order 21), past --gmax 4;
    # the suite compares its rows 0..4 with the closed form and no further.
    solve = getattr(hodge, builder)

    def bumped(arg):
        table = solve(arg)
        L = list(table.L)
        L[row] += 1
        return hodge.HodgeTable(table.degree, L)

    monkeypatch.setattr(hodge, builder, bumped)
    # lab's vanishing half would see row 4 too; the closed form alone decides.
    monkeypatch.setattr(localization, "deg3_aux_residual", lambda g, l2, l3: 0)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--gmax", "4")
    assert (code, out) == ({"pass": 0, "fail": 1}[verdict], f"{suite}: {verdict}\n")


def test_verify_hurwitz_folds_every_genus_to_gmax(capsys, monkeypatch):
    # The public counts run once each, at genus 0; each family's per-genus
    # fold then reaches every genus 0..gmax, past where the enumeration
    # bound refuses a public count (p3_trans at genus 8).
    counted, folded = {}, {}
    for name in ("p3_full", "p3_trans", "p2"):
        count = getattr(cli, name)

        def spy(g, count=count, name=name):
            counted.setdefault(name, []).append(g)
            return count(g)

        monkeypatch.setattr(cli, name, spy)
    fold = cli._covers_by_genus

    def spy_fold(d, gmax, *special):
        for g, value in fold(d, gmax, *special):
            folded.setdefault((d, *special), []).append(g)
            yield g, value

    monkeypatch.setattr(cli, "_covers_by_genus", spy_fold)
    code, out, _ = run_cli(capsys, "verify", "--suite", "hurwitz", "--gmax", "12")
    assert (code, out) == (0, "hurwitz: pass\n")
    assert counted == {"p3_full": [0], "p3_trans": [0], "p2": [0]}
    genera = list(range(13))
    assert folded == {(3, (3,)): genera, (3,): genera, (2,): genera}


def test_verify_hurwitz_catches_a_count_fault_at_genus_20(capsys, monkeypatch):
    # The enumeration bound refuses the public p3_trans count from genus 8
    # on; only the per-genus fold reaches genus 20.
    closed = hodge.p3_trans_closed
    monkeypatch.setattr(hodge, "p3_trans_closed", lambda g: closed(g) + (g == 20))
    code, out, _ = run_cli(capsys, "verify", "--suite", "hurwitz", "--gmax", "20")
    assert (code, out) == (1, "hurwitz: fail\n")


def test_verify_all_solves_each_table_once(capsys, monkeypatch):
    # Each degree is solved once, at the reach of --order + 1 (genus 10 at
    # order 21), also when --gmax is below it.
    built = spy_on_tables(monkeypatch)
    for argv in ([], ["--gmax", "3", "--order", "21"]):
        built.clear()
        code, out, _ = run_cli(capsys, "verify", "--all", *argv)
        assert code == 0 and out.count(": pass") == 8
        assert built == [(2, 10), (3, 10)]


def spy_on_closed_forms(monkeypatch):
    """Record (d, N) of every closed form built through hodge."""
    built = []
    build = hodge.conjecture_series

    def spy(d, N):
        built.append((d, N))
        return build(d, N)

    monkeypatch.setattr(hodge, "conjecture_series", spy)
    return built


def test_verify_all_builds_each_closed_form_once(capsys, monkeypatch):
    # rel2, lab and aspinwall's J2 read up to x^(2 gmax + 2) = x^142, and
    # conjecture and J3 --order 141: one build per degree at 142 serves all.
    built = spy_on_closed_forms(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--all", "--gmax", "70", "--order", "141")
    assert code == 0 and out.count(": pass") == 8
    assert sorted(built) == [(1, 142), (2, 142), (3, 142)]


def test_verify_suite_builds_only_its_closed_forms(capsys, monkeypatch):
    built = spy_on_closed_forms(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--suite", "rel2", "--gmax", "6")
    assert (code, out) == (0, "rel2: pass\n")
    assert built == [(2, 13)]


@pytest.mark.parametrize(
    "argv, most",
    [
        (("--suite", "hurwitz", "--gmax", "40"), None),
        (("--suite", "conjecture", "--gmax", "500"), 10),
    ],
    ids=["hurwitz", "conjecture"],
)
def test_verify_suite_solves_only_what_it_reads(capsys, monkeypatch, argv, most):
    built = spy_on_tables(monkeypatch)
    code, _, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    if most is None:
        assert built == []
    else:
        assert built and max(gmax for _, gmax in built) <= most


def test_verify_all_and_suite_conflict(capsys):
    code, _, _ = run_cli(capsys, "verify", "--all", "--suite", "rel2")
    assert code == 2


# -- hurwitz ---------------------------------------------------------------


def test_hurwitz_example(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--degree", "3",
        "--profile", "3", "--profile", "2,1", "--profile", "2,1",
    )
    assert code == 0
    assert out.strip() == "1"


def test_hurwitz_fractional_output(capsys):
    code, out, _ = run_cli(
        capsys, "hurwitz", "--degree", "2", "--profile", "2", "--profile", "2"
    )
    assert code == 0
    assert out.strip() == "1/2"


def test_hurwitz_disconnected_flag(capsys):
    args = ["hurwitz", "--degree", "3"] + ["--profile", "2,1"] * 4
    code, out, _ = run_cli(capsys, *args)
    assert (code, out.strip()) == (0, "4")
    code, out, _ = run_cli(capsys, *args, "--disconnected")
    assert (code, out.strip()) == (0, "9/2")


def test_hurwitz_bad_profile(capsys):
    # A profile that BranchProfile refuses ends in one usage line.
    assert run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "2,2") == (
        2, "", "admcalc: cycle type (2, 2) does not partition 3\n"
    )
    assert run_cli(capsys, "hurwitz", "--degree", "0", "--profile", "1") == (
        2, "", "admcalc: degree must be >= 1\n"
    )
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "a,b")
    assert code == 2
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "0,3")
    assert code == 2


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_hurwitz_profile_parsed_under_the_digit_limit(capsys):
    # A 5000-digit cycle length is past CPython's default limit of 4300 digits
    # and is refused while argv is parsed, before it can become an integer.
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "2", "--profile", "1" * 5000)
    assert code == 2
    assert "not a comma-separated list of positive integers" in err
    assert "partition" not in err


def test_hurwitz_bound_flag_and_env(capsys):
    args = ["hurwitz", "--degree", "3"] + ["--profile", "2,1"] * 4
    code, _, err = run_cli(capsys, *args, "--max-tuples", "5")
    assert code == 2 and "exceeds" in err
    code, out, _ = run_cli(capsys, *args, "--max-tuples", "27")
    assert code == 0 and out.strip() == "4"
    # A negative bound is refused as an option, not as the request's size.
    code, out, err = run_cli(capsys, *args, "--max-tuples", "-1")
    assert (code, out, err) == (2, "", "admcalc: max_tuples must be >= 0\n")


def test_hurwitz_refusal_names_only_the_bound(capsys):
    # The refused product of two 30000-cycle classes has about 121,000 digits.
    args = ["hurwitz", "--degree", "30000"] + ["--profile", "30000"] * 2
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "exceeds the bound" in err


def test_hurwitz_class_lists_are_bounded(capsys):
    # Two transposition classes of S_2000 pass the raw bound (1,999,000
    # tuples) but their class list would hold 1999000 * 2000 entries.
    thin = ",".join(["2"] + ["1"] * 1998)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "hurwitz", "--degree", "2000", "--profile", thin, "--profile", thin
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "admcalc: the class lists would hold more than 10000000 entries\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--degree", str(10**22), "--profile", str(10**22)],
        ["--degree", str(10**22)] + ["--profile", str(10**22)] * 2,
        ["--degree", "100001", "--profile", "100001"],
    ],
    ids=["1e22 one point", "1e22 two points", "100001"],
)
def test_hurwitz_degree_above_the_ceiling_is_refused(capsys, argv):
    code, out, err = run_cli(capsys, "hurwitz", *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "must be <= 100000" in err


def test_hurwitz_catalog_matches_the_benchmark_records(capsys):
    # Every Hurwitz request the benchmark can draw, refused ones included.
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    catalog = json.loads(reference.read_text(encoding="utf-8"))["hurwitz_catalog"]
    entries = [entry for stratum in catalog.values() for entry in stratum]
    assert len(entries) == 96
    for entry in entries:
        argv = ["hurwitz", "--degree", str(entry["degree"])]
        for parts in entry["profiles"]:
            argv += ["--profile", ",".join(map(str, parts))]
        if not entry["connected"]:
            argv.append("--disconnected")
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (entry["exit"], entry["stdout"]), argv


def test_hurwitz_many_branch_points(capsys):
    args = ["hurwitz", "--degree", "2"] + ["--profile", "2"] * 1200
    code, out, _ = run_cli(capsys, *args)
    assert (code, out.strip()) == (0, "1/2")


# -- usage errors ----------------------------------------------------------


def test_unknown_subcommand_and_flag(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "series", "--degree", "2", "--bogus")[0] == 2
    assert run_cli(capsys)[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--what", "X"],
        ["series", "--degree", "x"],
        ["series"],
        ["verify", "--all", "--suite", "rel2"],
        [],
    ],
    ids=lambda argv: " ".join(argv) or "no subcommand",
)
def test_usage_errors_take_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("admcalc") and err.count("\n") == 1 and err.endswith("\n")


_SIZE = st.integers(-2, 12).map(str)
_FORMAT = st.sampled_from(["text", "json", "csv"])
_PARTS = st.lists(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 7]), min_size=1, max_size=4)


def _fitted(parts, degree):
    """The positive parts that fit the degree, padded with 1s up to it."""
    kept = []
    for part in parts:
        if 0 < part <= degree - sum(kept):
            kept.append(part)
    return kept + [1] * (degree - sum(kept))


_DRAWN_ARGV = st.one_of(
    st.builds(
        lambda what, degree, order, fmt: [
            "series", "--what", what, "--degree", degree, "--order", order,
            "--format", fmt,
        ],
        st.sampled_from(["I", "J", "L", "P", "conjecture"]),
        st.integers(-2, 8).map(str), _SIZE, _FORMAT,
    ),
    st.builds(
        lambda what, gmax, fmt: [
            "table", "--what", what, "--gmax", gmax, "--format", fmt,
        ],
        st.sampled_from(sorted(cli._TABLE_WHAT)), _SIZE, _FORMAT,
    ),
    st.builds(
        lambda suite, gmax, order: [
            "verify", *(["--all"] if suite is None else ["--suite", suite]),
            "--gmax", gmax, "--order", order,
        ],
        st.none() | st.sampled_from(sorted(cli._SUITES)), _SIZE, _SIZE,
    ),
    # Parts drawn at random rarely make a cycle type of the degree, so half
    # the requests fit every profile to it, which makes answered counts common.
    st.builds(
        lambda degree, profiles, fit, disconnected, bound: [
            "hurwitz", "--degree", str(degree),
            *(arg for parts in profiles for arg in (
                "--profile",
                ",".join(map(str, _fitted(parts, degree) if fit else parts)),
            )),
            *(["--disconnected"] if disconnected else []),
            "--max-tuples", bound,
        ],
        st.integers(-1, 7), st.lists(_PARTS, max_size=5), st.booleans(),
        st.booleans(),
        st.sampled_from([-5, 0, 1, 10, 10**12]).map(str),
    ),
)


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(_DRAWN_ARGV)
@example(["series", "--what", "J", "--degree", "3", "--order", "2"])
@example(["series", "--what", "J", "--degree", "3", "--order", "2", "--format", "csv"])
def test_drawn_requests_answer_or_refuse_in_one_line(argv):
    # Every request either answers (exit 0, nothing on stderr) or is refused
    # (exit 2, nothing on stdout, one stderr line); the code is right, so no
    # suite fails (exit 1) and no exception escapes ``run``.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    if code == 0:
        assert err.getvalue() == "", argv
    else:
        assert (code, out.getvalue()) == (2, ""), argv
        message = err.getvalue()
        assert message.startswith("admcalc") and message.count("\n") == 1, argv
        assert message.endswith("\n"), argv


def test_size_ceiling_admits_5000(capsys):
    code, out, _ = run_cli(capsys, "table", "--what", "P2", "--gmax", "5000")
    assert code == 0 and out.endswith("g=5000: 1/2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--what", "P2", "--gmax", "5001"],
        ["series", "--what", "conjecture", "--degree", "2", "--order", str(10**22)],
        ["series", "--what", "P", "--degree", "3", "--order", str(10**22)],
        ["verify", "--suite", "conjecture", "--order", str(10**22)],
    ],
    ids=lambda argv: " ".join(argv[:-1]),
)
def test_sizes_above_the_ceiling_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "must be <= 5000" in err


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# -- the parser built for one request ---------------------------------------


def _subcommands(parser):
    """The names of the subcommands ``parser`` registers, in order."""
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return list(action.choices)


@pytest.mark.parametrize("name", ["series", "table", "verify", "hurwitz"])
def test_a_request_parser_registers_only_its_subcommand(name):
    assert _subcommands(cli._build_parser([name])) == [name]
    assert _subcommands(cli._build_parser([name, "--help"])) == [name]


@pytest.mark.parametrize(
    "argv", [None, [], ["-h"], ["--help"], ["--"], ["bogus"], ["--degree", "3"]],
    ids=repr,
)
def test_without_a_subcommand_the_parser_registers_all_four(argv):
    assert _subcommands(cli._build_parser(argv)) == [
        "series", "table", "verify", "hurwitz"
    ]


# Each command's options, each with good and bad values; a flag that takes no
# value has none.  "--deg" and "--max" are abbreviations argparse accepts.
_VOCABULARY = {
    "series": {
        "--degree": ["2", "3", "-1", "x"], "--deg": ["3"],
        "--order": ["0", "21", "5001", "y"], "--what": ["I", "P", "conjecture", "Q"],
        "--format": ["text", "json", "xml"], "--output": ["out.txt"],
    },
    "table": {
        "--what": ["L2", "P3full", "L9"], "--gmax": ["3", "-1", "5001", "z"],
        "--format": ["csv", "xml"], "--output": ["out.txt"],
    },
    "verify": {
        "--all": [], "--suite": ["rel2", "hurwitz", "every"],
        "--gmax": ["2", "5001", "g"], "--order": ["1", "21", "o"],
    },
    "hurwitz": {
        "--degree": ["3", "100001", "d"], "--profile": ["3", "2,1", "2,x", "0"],
        "--disconnected": [], "--max-tuples": ["10", "-5", "m"], "--max": ["7"],
    },
}
_EVERY_OPTION = {
    flag: values for options in _VOCABULARY.values() for flag, values in options.items()
}
_STRAY = ["-h", "--help", "--bogus", "--", "bogus", "series", "hurwitz"]


@st.composite
def _parser_argv(draw):
    # Half are _DRAWN_ARGV's requests, which mostly parse; half are tokens
    # drawn from the vocabulary, which mostly end in a usage error.
    if draw(st.booleans()):
        return draw(_DRAWN_ARGV)
    first = draw(st.sampled_from([*_VOCABULARY, "-h", "--help", "--", "bogus", None]))
    options = _VOCABULARY.get(first, _EVERY_OPTION)
    argv = [] if first is None else [first]
    for _ in range(draw(st.integers(0, 8))):
        # One token in five is stray, so that many argv parse.
        token = draw(st.sampled_from([*options] if draw(st.integers(0, 4)) else _STRAY))
        argv.append(token)
        if options.get(token):
            value = draw(st.sampled_from([*options[token], None]))
            argv += [] if value is None else [value]
    return argv


def _parse(parser, argv):
    """``parser.parse_args(argv)`` as (namespace or exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = parser.parse_args(argv)
        except SystemExit as exc:
            outcome = exc.code
    return outcome, out.getvalue(), err.getvalue()


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
@given(_parser_argv())
@example([])
@example(["--help"])
@example(["bogus"])
@example(["hurwitz", "--help"])
@example(["verify", "--all", "--suite", "rel2"])
def test_the_request_parser_parses_as_the_full_parser(argv):
    # The parser built for argv against the one with all four subcommands:
    # the same namespace, or the same exit code, help text and usage error.
    # Both run in one interpreter, so argparse's wording, which differs from
    # one Python release to the next, is the same on both sides.
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        assert _parse(cli._build_parser(argv), argv) == _parse(cli._build_parser(), argv)


@pytest.mark.parametrize(
    "argv",
    [["hurwitz", "--degree", "3", "--profile", "3", "--profile", "3"], ["--help"], []],
    ids=lambda argv: " ".join(argv) or "no argv",
)
def test_run_reads_sys_argv(capsys, monkeypatch, argv):
    # run() parses sys.argv[1:], through the parser built for it, as
    # run(argv) does.
    expected = run_cli(capsys, *argv)
    built, build = [], cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda a=None: built.append(a) or build(a))
    monkeypatch.setattr(sys, "argv", ["admcalc", *argv])
    assert (run(), *capsys.readouterr()) == expected
    assert built == [argv]


def test_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(
        capsys, "table", "--what", "L2", "--gmax", "2", "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("admcalc: ") and err.count("\n") == 1


def script_env(unbuffered):
    """The environment of ``python -m admcalc.cli``, stdout unbuffered or not."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "rel2", "--gmax", "2"],
        ["table", "--what", "L2", "--gmax", "3"],
        ["hurwitz", "--degree", "3", "--profile", "3", "--profile", "3", "--profile", "3"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_2_in_one_line(argv, unbuffered):
    # The read end is closed before the command starts, so its first write
    # fails, whether stdout is buffered or not.  With stderr on the same
    # pipe too, as under `2>&1 | head`, the one line cannot be written
    # either, and the exit code is still 2.
    env = script_env(unbuffered)
    for shared in (False, True):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "admcalc.cli", *argv],
                stdout=write_end, stderr=write_end if shared else subprocess.PIPE,
                env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2, (shared, result.stderr)
        if not shared:
            assert result.stderr == "admcalc: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_stdout_closed_mid_answer_exits_2_in_one_line(unbuffered):
    # The reader takes the first bytes of a 289 KB answer and closes, while
    # the rest is still to be written: a pipe holds 64 KB.  Unbuffered, the
    # one raw write of the answer was cut short without an error, and the
    # command exited 0 with the rest lost.
    argv = ["series", "--what", "P", "--degree", "3", "--order", "500"]
    child = subprocess.Popen(
        [sys.executable, "-m", "admcalc.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=script_env(unbuffered),
    )
    assert child.stdout.read(100).startswith(b"# series what=P3full")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 2
    assert err == b"admcalc: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize("what", ["L2", "P2", "P3full", "P3trans"])
def test_table_negative_gmax(capsys, what):
    code, out, err = run_cli(capsys, "table", "--what", what, "--gmax", "-3")
    assert (code, out) == (2, "")
    assert "gmax" in err


@pytest.mark.parametrize("flag", [("--order", "1"), ("--gmax", "-1")])
def test_verify_validates_before_running(capsys, flag):
    code, out, err = run_cli(capsys, "verify", "--all", *flag)
    assert (code, out) == (2, "")
    assert flag[0][2:] in err


@pytest.mark.parametrize("what", ["I", "J", "L", "P", "conjecture"])
def test_series_negative_order(capsys, what):
    code, out, err = run_cli(
        capsys, "series", "--degree", "3", "--what", what, "--order", "-1"
    )
    assert (code, out, err) == (2, "", "admcalc: order must be >= 0\n")


def test_series_bad_degree_for_tables(capsys):
    code, _, err = run_cli(capsys, "series", "--degree", "7", "--what", "I")
    assert code == 2 and "degree 2 or 3" in err


def test_record_omits_unset_fields():
    data = cli._record("series", "I", 2, 3, [0, Fraction(-1, 4), 0, 0])
    assert list(data) == ["kind", "what", "degree", "order", "payload"]
    assert data["payload"] == [[1, "-1/4"]]
