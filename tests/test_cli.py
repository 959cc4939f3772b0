import csv
import io
import json

import pytest

from admcalc import cli
from admcalc.cli import OutputRecord, run


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


# -- verify ----------------------------------------------------------------


def test_verify_all_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--gmax", "4", "--order", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(line.endswith(": pass") for line in lines)


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "rel2", "--gmax", "6")
    assert code == 0
    assert out.strip() == "rel2: pass"


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setitem(cli._SUITES, "rel2", lambda gmax, order: False)
    code, out, _ = run_cli(capsys, "verify", "--all", "--gmax", "2", "--order", "6")
    assert code == 1
    assert "rel2: fail" in out


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
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "2,2")
    assert code == 2 and "partition" in err
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "a,b")
    assert code == 2
    code, _, err = run_cli(capsys, "hurwitz", "--degree", "3", "--profile", "0,3")
    assert code == 2


def test_hurwitz_bound_flag_and_env(capsys, monkeypatch):
    args = ["hurwitz", "--degree", "3"] + ["--profile", "2,1"] * 4
    code, _, err = run_cli(capsys, *args, "--max-tuples", "5")
    assert code == 2 and "exceeds" in err
    monkeypatch.setenv("ADMCALC_MAX_TUPLES", "5")
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "exceeds" in err
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, *args, "--max-tuples", "27")
    assert code == 0 and out.strip() == "4"
    monkeypatch.setenv("ADMCALC_MAX_TUPLES", "nope")
    code, _, err = run_cli(capsys, *args)
    assert code == 2 and "ADMCALC_MAX_TUPLES" in err


def test_hurwitz_many_branch_points(capsys):
    args = ["hurwitz", "--degree", "2"] + ["--profile", "2"] * 1200
    code, out, _ = run_cli(capsys, *args)
    assert (code, out.strip()) == (0, "1/2")


# -- usage errors ----------------------------------------------------------


def test_unknown_subcommand_and_flag(capsys):
    assert run_cli(capsys, "bogus")[0] == 2
    assert run_cli(capsys, "series", "--degree", "2", "--bogus")[0] == 2
    assert run_cli(capsys)[0] == 2


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(
        capsys, "table", "--what", "L2", "--gmax", "2", "--output", str(target)
    )
    assert (code, out) == (2, "")
    assert err.startswith("admcalc: ") and err.count("\n") == 1


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


def test_output_record_to_dict_omits_unset_fields():
    record = OutputRecord("series", "I", degree=2, order=3, payload=[(1, "-1/4")])
    data = record.to_dict()
    assert "gmax" not in data and "status" not in data and "note" not in data
    assert data["payload"] == [[1, "-1/4"]]
