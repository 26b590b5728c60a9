import csv
import json

import pytest

import qmoments.recurrence
from qmoments.cli import main


def test_eval_b(capsys):
    assert main(["eval", "--what", "b", "--n", "0", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_eval_lambda(capsys):
    assert main(["eval", "--what", "lambda", "--n", "1", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-20"


def test_eval_lambda_zero_index_invalid(capsys):
    assert main(["eval", "--what", "lambda", "--n", "0", "--q", "1/2", "--a", "2"]) == 2
    assert "lambda_0" in capsys.readouterr().err


def test_eval_s(capsys):
    assert main(["eval", "--what", "s", "--n", "2", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-4/7 -18/7 1"


def test_eval_moment_and_p(capsys):
    assert main(["eval", "--what", "moment", "--n", "3", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "312/7"
    assert main(["eval", "--what", "P", "--n", "3", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "312/7"


def test_eval_pi_and_weighted(capsys):
    assert main(["eval", "--what", "pi", "--n", "1", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-4 0 1"
    assert (
        main(["eval", "--what", "pi", "--n", "1", "--eps", "1", "--q", "1/2", "--a", "2"])
        == 0
    )
    assert capsys.readouterr().out.strip() == "0 -4 0 1"


def test_eval_acoeff(capsys):
    assert main(["eval", "--what", "acoeff", "--n", "1", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 18/7 12"
    assert (
        main(["eval", "--what", "acoeff", "--n", "1", "--k", "2", "--q", "1/2", "--a", "2"])
        == 0
    )
    assert capsys.readouterr().out.strip() == "12"


@pytest.mark.parametrize("k", ["-1", "3"])
def test_eval_acoeff_index_outside_row_is_zero(k, capsys):
    # e_k^{(1)} = 0 outside k = 0..2; a bare row index would give e_2 = 12 or fail.
    argv = ["eval", "--what", "acoeff", "--n", "1", "--k", k, "--q", "1/2", "--a", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_hankel(capsys):
    assert main(["eval", "--what", "hankel", "--n", "1", "--q", "1/2", "--a", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-20 -20"


def test_eval_hankel_past_the_text_digit_limit(capsys):
    # H_14 at the deep-moments point of the benchmark's seed 1 has a
    # denominator of more than 4,300 digits, CPython's default limit on
    # int-to-text conversion.
    point = ["--q", "-736/549", "--a", "-546/521"]
    assert main(["eval", "--what", "hankel", "--n", "14", *point]) == 0
    det, product = capsys.readouterr().out.split()
    assert det == product
    assert len(det.partition("/")[2]) > 4300


BIG = "1" + "0" * 4999  # a q of 5,000 digits


def test_eval_and_verify_read_a_q_past_the_digit_limit(capsys):
    assert main(["eval", "--what", "b", "--n", "2", "--q", BIG, "--a", "2"]) == 0
    assert len(capsys.readouterr().out) > 5000
    # a = 0 makes hermite's connection label t = q.
    argv = ["verify", "--suite", "hermite", "--nmax", "2", "--q", BIG, "--a", "0"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["config"]["points"] == [{"q": BIG, "a": "0"}]


def test_eval_hermite_needs_only_q(capsys):
    assert main(["eval", "--what", "hermite", "--n", "2", "--q", "1/2"]) == 0
    assert capsys.readouterr().out.strip() == "-2:1 0:3/2 2:1"


@pytest.mark.parametrize(
    "what", ["b", "lambda", "s", "moment", "P", "pi", "acoeff", "hankel", "hermite"]
)
def test_eval_negative_index_rejected(what, capsys):
    assert main(["eval", "--what", what, "--n", "-1", "--q", "1/2", "--a", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_eval_missing_a_rejected(capsys):
    assert main(["eval", "--what", "b", "--n", "0", "--q", "1/2"]) == 2
    assert "--a" in capsys.readouterr().err


def test_eval_bad_rational(capsys):
    assert main(["eval", "--what", "b", "--n", "0", "--q", "0.5", "--a", "2"]) == 2
    assert "rational" in capsys.readouterr().err


def test_eval_inadmissible_q(capsys):
    assert main(["eval", "--what", "b", "--n", "0", "--q", "1", "--a", "2"]) == 2
    assert "admissible" in capsys.readouterr().err


def test_verify_stdout_json(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "conjecture",
            "--nmax",
            "4",
            "--trials",
            "3",
            "--seed",
            "7",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["identities"][0]["status"] == "pass"
    assert data["config"]["seed"] == 7


def test_verify_explicit_point(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "hankel",
            "--nmax",
            "3",
            "--q",
            "3/7",
            "--a",
            "-3/7",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["identities"][0]["points"] == 1


def test_verify_mismatched_explicit_points(capsys):
    code = main(["verify", "--suite", "hankel", "--q", "1/2"])
    assert code == 2
    assert "--q" in capsys.readouterr().err


def test_verify_inadmissible_explicit_point(capsys):
    code = main(["verify", "--suite", "hankel", "--q", "1/2", "--a", "-1"])
    assert code == 2
    assert "1 + a" in capsys.readouterr().err


def test_verify_writes_files(tmp_path, capsys):
    json_path = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    base = [
        "verify",
        "--suite",
        "lemmas",
        "--nmax",
        "6",
        "--trials",
        "2",
        "--seed",
        "3",
    ]
    assert main(base + ["--out", str(json_path), "--format", "json"]) == 0
    assert main(base + ["--out", str(csv_path), "--format", "csv"]) == 0
    capsys.readouterr()
    json_status = [r["status"] for r in json.loads(json_path.read_text())["identities"]]
    with csv_path.open() as handle:
        csv_status = [row["status"] for row in csv.DictReader(handle)]
    assert json_status == csv_status == ["pass"]


def test_verify_failure_exit_code(monkeypatch, capsys):
    real = qmoments.recurrence.coeff_b

    def corrupted(n, point):
        value = real(n, point)
        return value + 1 if n == 1 else value

    monkeypatch.setattr(qmoments.recurrence, "coeff_b", corrupted)
    code = main(
        ["verify", "--suite", "conjecture", "--nmax", "3", "--trials", "2", "--seed", "1"]
    )
    assert code == 1
    data = json.loads(capsys.readouterr().out)
    assert data["identities"][0]["status"] == "fail"
    assert "counterexample" in data["identities"][0]


def test_verify_unwritable_out(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "hankel",
            "--nmax",
            "1",
            "--trials",
            "2",
            "--out",
            "/nonexistent-dir/report.json",
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_unknown_suite_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2
