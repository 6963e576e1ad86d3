"""Command-line surface: exit codes, table output, config rejection."""

import json
from pathlib import Path

import pytest

from hodgeflow import pipeline, special
from hodgeflow.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_constants_json(capsys):
    assert main(["constants", "--count-a", "3", "--count-c", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["a"]["1"] == "2/3"
    assert data["a"]["2"] == "-1/12"
    assert data["c"]["3"] == "-139/51840"


def test_constants_rejects_an_empty_a_table(capsys):
    # every command maps a rejected argument to exit status 2, not a traceback
    assert main(["constants", "--count-a", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration rejected: count must be >= 1\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["constants", "--count-c", "-1"], "--count-c must be >= 0"),
        (["constants", "--count-r", "-1"], "--count-r must be >= 0"),
        (["oracle", "--genus-max", "-1"], "--genus-max must be >= 0"),
        (["oracle", "--max-insertions", "0"], "--max-insertions must be >= 1"),
        (["oracle", "--max-index", "-1"], "--max-index must be >= 0"),
    ],
)
def test_a_negative_table_size_is_rejected(argv, reason, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration rejected: {reason}\n"


def test_verify_subset_exit_zero(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "constants,brackets",
            "--max-index",
            "12",
            "--format",
            "json",
        ]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert {r["identity"] for r in reports} == {"constants", "brackets(m,n<=6)"}
    assert all(r["status"] == "pass" for r in reports)


def test_verify_rejects_singular_pairing(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rank": 1, "eta": [["0"]]}')
    code = main(["verify", "--pairing", str(bad), "--suite", "constants"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_verify_rejects_missing_pairing_file(tmp_path, capsys):
    absent = str(tmp_path / "absent.json")
    code = main(["verify", "--pairing", absent, "--suite", "constants"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [
        '{"rank": 1}',
        '{"eta": 5}',
        '{"eta": [[null]]}',
        '{"eta": [[0.1, 1], [1, 0]]}',
        '{"eta": ["01", "10"]}',
        '{"eta": [[true]]}',
        '{"eta": [["1/0"]]}',
        '{"rank": true, "eta": [["1"]]}',
        '{"rank": 1.0, "eta": [["1"]]}',
    ],
    ids=[
        "no-eta",
        "eta-not-a-matrix",
        "null-entry",
        "float-entry",
        "string-rows",
        "bool-entry",
        "zero-denominator",
        "bool-rank",
        "float-rank",
    ],
)
def test_verify_rejects_malformed_pairing_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code = main(["verify", "--pairing", str(bad), "--suite", "constants"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 2


def test_oracle_table(capsys):
    assert main(["oracle", "--genus-max", "1", "--max-insertions", "2"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {"g": 0, "ks": [0, 0, 0], "value": "1"} not in rows  # 3 insertions > cap
    assert {"g": 1, "ks": [1], "value": "1/24"} in rows


def test_theorem_command_small(capsys):
    code = main(
        [
            "verify",
            "--suite",
            "theorem",
            "--pairing",
            "hyperbolic2",
            "--max-t-degree",
            "2",
            "--max-index",
            "5",
            "--max-u-degree",
            "3",
            "--max-hbar",
            "1",
            "--max-omega-weight",
            "0",
            "--format",
            "json",
        ]
    )
    assert code == 0
    reports = json.loads(capsys.readouterr().out)
    assert any(r["identity"].startswith("theorem") for r in reports)


def test_theorem_runs_in_a_window_smaller_than_its_random_inputs(capsys):
    # t-degree 1 over t[0..2] with no hbar holds 4 monomials, fewer than the
    # 8 random terms the suite draws where they fit
    window = ["--max-t-degree", "1", "--max-index", "5", "--max-u-degree", "2"]
    window += ["--max-hbar", "0", "--max-omega-weight", "2"]
    assert main(["verify", "--suite", "theorem", *window, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    identities = [r["identity"] for r in reports]
    assert identities == ["theorem[point-dvv]", "theorem[random x10]", "kernel-match"]
    assert reports[1]["cases"] == 10


U_CLOSED = ["--max-u-degree", "0", "--max-index", "5", "--max-t-degree", "2"]


def test_verify_with_closed_u_window_runs_the_other_suites(capsys):
    assert main(["verify", *U_CLOSED, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["identity"] for r in reports] == [
        "constants",
        "w-factorization",
        "w-factorization[from_u]",
        "hat-t",
        "brackets(m,n<=2)",
    ]
    assert all(r["status"] == "pass" for r in reports)


def test_verify_with_closed_u_window_rejects_only_raising_suites(capsys):
    suites = "virasoro-split,ex-closed-form,bridge,theorem"
    assert main(["verify", *U_CLOSED, "--suite", suites]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration rejected: the raising operators need max_u_degree >= 1\n"
    )


def test_hat_t_rejects_a_window_of_t_degree_0(capsys):
    # the window would cut every start t[n,a] but keep the closed form's -R_{n-1}
    assert main(["verify", "--max-t-degree", "0", "--suite", "hat-t"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration rejected: hat-t check needs max_t_degree >= 1\n"
    )


def test_verify_rejects_a_repeated_suite(capsys):
    assert main(["verify", "--suite", "constants,brackets,constants"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration rejected: repeated suites: ['constants']\n"


def test_verify_leaves_out_only_the_suites_a_window_refuses(capsys):
    # index 1 is too small for [L1,L1] but holds every other default suite
    argv = ["verify", "--pairing", "hyperbolic2", "--max-index", "1"]
    assert main([*argv, "--format", "json"]) == 0
    reports = json.loads(capsys.readouterr().out)
    golden = json.loads((GOLDEN / "verify-hyperbolic2.json").read_text())
    assert [r["identity"].split("(")[0] for r in reports] == [
        r["identity"].split("(")[0]
        for r in golden
        if not r["identity"].startswith("brackets(")
    ]
    assert all(r["status"] == "pass" and r["cases"] >= 1 for r in reports)


def test_a_refused_run_calls_no_suite(monkeypatch, capsys):
    called = []
    for name, (_, needs) in list(pipeline._SUITES.items()):
        spy = lambda ctx, seed, _name=name: called.append(_name) or []
        monkeypatch.setitem(pipeline._SUITES, name, (spy, needs))
    assert main(["verify", "--suite", "brackets", "--max-index", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "configuration rejected: bracket check needs max_var_index >= 2\n"
    )
    assert called == []


def test_failed_internal_cross_check_exits_3(monkeypatch, capsys):
    divided = special.q_omega_division
    monkeypatch.setattr(special, "q_omega_division", lambda tr: divided(tr).scale(2))
    window = ["--max-t-degree", "1", "--max-index", "3", "--max-omega-weight", "2"]
    assert main(["verify", "--suite", "w-factorization", *window]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal cross-check failed: "
        "kernel expansions disagree: nested sum vs long division\n"
    )


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--format", "json"], "verify.json"),
        (["constants", "--format", "json"], "constants.json"),
        (["oracle"], "oracle.json"),
    ],
    ids=["verify", "constants", "oracle"],
)
def test_output_matches_golden(capsys, argv, name):
    # the files hold the stdout of these commands at the default windows
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
