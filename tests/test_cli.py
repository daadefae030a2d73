"""End-to-end CLI behaviour: golden text, JSON mirrors, exit codes."""

import json

import pytest

from aggfix.syntax import parse_program

from conftest import GUARD_TEXT


@pytest.fixture
def bound_six_file(tmp_path):
    path = tmp_path / "bound6.lp"
    path.write_text(GUARD_TEXT.replace("> 10", "> 6"))
    return str(path)


def test_solve_guard(run_cli, program_files):
    code, out, err = run_cli("solve", program_files["guard"])
    assert code == 0 and err == ""
    assert out == "{p(1), p(2), p(3)}\n"


def test_solve_choice_canonical_order(run_cli, program_files):
    code, out, _ = run_cli("solve", program_files["choice"])
    assert code == 0
    assert out == "{q}\n{p(a), p(b)}\n"


def test_solve_cycle_finds_nothing(run_cli, program_files):
    code, out, _ = run_cli("solve", program_files["cycle"])
    assert code == 1 and out == ""


def test_solve_empty_program(run_cli, program_files):
    code, out, _ = run_cli("solve", program_files["empty"])
    assert code == 0 and out == "{}\n"


def test_solve_with_trace(run_cli, program_files):
    code, out, _ = run_cli("solve", program_files["guard"], "--trace")
    assert code == 0
    assert out.splitlines() == [
        "{p(1), p(2), p(3)}",
        "  K^0 = {}",
        "  K^1 = {p(1), p(2), p(3)}",
    ]


def test_solve_json(run_cli, program_files):
    code, out, _ = run_cli("solve", program_files["guard"], "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "version": 1,
        "command": "solve",
        "answer_sets": [["p(1)", "p(2)", "p(3)"]],
    }


def test_solve_json_with_trace(run_cli, program_files):
    code, out, _ = run_cli(
        "solve", program_files["choice"], "--format", "json", "--trace"
    )
    payload = json.loads(out)
    assert payload["answer_sets"] == [["q"], ["p(a)", "p(b)"]]
    assert payload["traces"][1] == [[], ["p(b)"], ["p(a)", "p(b)"]]


def test_check_rejects_overshoot(run_cli, program_files):
    code, out, _ = run_cli(
        "check", program_files["guard"], "-m", "p(1),p(2),p(3),p(5),q"
    )
    assert code == 1
    assert out.splitlines() == [
        "K^0 = {}",
        "K^1 = {p(1), p(2), p(3)}",
        "lfp = {p(1), p(2), p(3)}",
        "answer set: no",
    ]


def test_check_accepts_choice_branch(run_cli, program_files):
    code, out, _ = run_cli("check", program_files["choice"], "-m", "p(b),p(a)")
    assert code == 0
    assert out.splitlines() == [
        "K^0 = {}",
        "K^1 = {p(b)}",
        "K^2 = {p(a), p(b)}",
        "lfp = {p(a), p(b)}",
        "answer set: yes",
    ]


def test_check_empty_candidate_on_empty_program(run_cli, program_files):
    code, out, _ = run_cli("check", program_files["empty"], "-m", "")
    assert code == 0
    assert "answer set: yes" in out


def test_check_full_trace_shows_reduct(run_cli, program_files):
    code, out, _ = run_cli(
        "check", program_files["choice"], "-m", "q", "--trace", "full"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "reduct:"
    assert "  q." in lines
    assert "answer set: yes" in lines


def test_check_json(run_cli, program_files):
    code, out, _ = run_cli(
        "check", program_files["guard"], "-m", "p(1),p(2),p(3),p(5),q",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] is False
    assert payload["lfp"] == ["p(1)", "p(2)", "p(3)"]
    assert payload["trace"] == [[], ["p(1)", "p(2)", "p(3)"]]


def test_compare_cycle_shows_flp_divergence(run_cli, program_files):
    code, out, _ = run_cli("compare", program_files["cycle"])
    assert code == 0
    assert out.splitlines() == [
        "{p(-1), p(1)} fixpoint=no flp=yes unfolding=no naive_gl=yes tr=no"
    ]


def test_compare_single_candidate(run_cli, program_files):
    code, out, _ = run_cli(
        "compare", program_files["guard"], "-m", "p(1),p(2),p(3),p(5),q"
    )
    assert out.splitlines() == [
        "{p(1), p(2), p(3), p(5), q} fixpoint=no flp=no unfolding=no "
        "naive_gl=yes tr=no"
    ]


def test_compare_all_lists_every_candidate(run_cli, program_files):
    code, out, _ = run_cli("compare", program_files["cycle"], "--all")
    assert len(out.splitlines()) == 4


def test_compare_candidates_from_file(run_cli, program_files, tmp_path):
    listing = tmp_path / "candidates.txt"
    listing.write_text("% the two interesting ones\n{}\np(1),p(2),p(3)\n")
    code, out, _ = run_cli(
        "compare", program_files["guard"],
        "--candidates-from-file", str(listing), "--all",
    )
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("{} ")
    assert lines[1].startswith("{p(1), p(2), p(3)} fixpoint=yes")


def test_compare_json(run_cli, program_files):
    code, out, _ = run_cli(
        "compare", program_files["cycle"], "--format", "json"
    )
    payload = json.loads(out)
    (report,) = payload["reports"]
    assert report["candidate"] == ["p(-1)", "p(1)"]
    assert report["verdicts"] == {
        "fixpoint": False,
        "flp": True,
        "unfolding": False,
        "naive_gl": True,
        "tr": False,
    }


def test_solutions_unique(run_cli, program_files):
    code, out, _ = run_cli("solutions", program_files["guard"])
    assert code == 0
    assert out.splitlines() == [
        "1 solution",
        "<{p(1), p(2), p(3), p(5)}, {}>",
    ]


def test_solutions_table(run_cli, bound_six_file):
    code, out, _ = run_cli("solutions", bound_six_file)
    lines = out.splitlines()
    assert lines[0] == "15 solutions"
    assert len(lines) == 16
    assert "<{p(3), p(5)}, {p(1), p(2)}>" in lines
    assert "<{p(1), p(2), p(3), p(5)}, {}>" in lines


def test_solutions_json_counts(run_cli, bound_six_file):
    code, out, _ = run_cli("solutions", bound_six_file, "--format", "json")
    payload = json.loads(out)
    assert payload["count"] == 15
    assert len(payload["solutions"]) == 15
    assert {"p": ["p(3)", "p(5)"], "n": ["p(1)", "p(2)"]} in payload["solutions"]


def test_solutions_index_out_of_range(run_cli, program_files):
    code, _, err = run_cli("solutions", program_files["guard"], "--index", "3")
    assert code == 2 and "out of range" in err


def test_solutions_requires_aggregate(run_cli, program_files):
    code, _, err = run_cli("solutions", program_files["empty"])
    assert code == 2 and "no aggregate" in err


def test_ground_output_parses_back(run_cli, tmp_path):
    path = tmp_path / "vars.lp"
    path.write_text("p(1). p(2). q(X) :- p(X).")
    code, out, _ = run_cli("ground", str(path))
    assert code == 0
    reparsed = parse_program(out)
    assert len(reparsed.rules) == 4
    assert sorted(str(r) for r in reparsed.rules) == [
        "p(1).", "p(2).", "q(1) :- p(1).", "q(2) :- p(2).",
    ]


def test_gen_writes_seed_files(run_cli, tmp_path):
    outdir = tmp_path / "corpus"
    code, out, _ = run_cli("gen", "--seed", "5", "--count", "3", "--out", str(outdir))
    assert code == 0
    names = sorted(f.name for f in outdir.iterdir())
    assert names == ["seed-5.lp", "seed-6.lp", "seed-7.lp"]
    first = (outdir / "seed-5.lp").read_text()
    parse_program(first)
    run_cli("gen", "--seed", "5", "--count", "3", "--out", str(outdir))
    assert (outdir / "seed-5.lp").read_text() == first


def test_gen_stdout_is_parseable(run_cli):
    code, out, _ = run_cli("gen", "--seed", "11")
    assert code == 0
    parse_program(out)


def test_quiet_silences_output(run_cli, program_files):
    code, out, err = run_cli("solve", program_files["guard"], "--quiet")
    assert code == 0 and out == "" and err == ""


def test_parse_error_exits_2(run_cli, tmp_path):
    bad = tmp_path / "bad.lp"
    bad.write_text("p(1). q :- ,")
    code, out, err = run_cli("solve", str(bad))
    assert code == 2 and "error" in err and out == ""


def test_missing_file_exits_2(run_cli, tmp_path):
    code, _, err = run_cli("solve", str(tmp_path / "absent.lp"))
    assert code == 2 and "error" in err


def test_budget_exhaustion_exits_3(run_cli, program_files):
    code, _, err = run_cli(
        "solve", program_files["guard"], "--budget-candidates", "4"
    )
    assert code == 3 and "limit exceeded" in err


def test_solve_skips_atoms_no_rule_derives(run_cli, tmp_path):
    # p(a) is in the sum's universe and the Herbrand base, but no rule
    # derives it, so no candidate holds its symbolic value.
    path = tmp_path / "symbolic.lp"
    path.write_text("p(1). q(a). h :- sum{X : p(X)} > 0.")
    code, out, err = run_cli("solve", str(path))
    assert (code, out, err) == (0, "{h, p(1), q(a)}\n", "")
    code, out, _ = run_cli("check", str(path), "-m", "p(1),q(a),h")
    assert code == 0 and out.endswith("answer set: yes\n")


def test_subset_sum_budget_flag(run_cli, tmp_path):
    path = tmp_path / "sum_ne.lp"
    path.write_text("p(1). p(2). q :- sum{X : p(X)} != 2.")
    code, out, _ = run_cli("solutions", str(path))
    assert code == 0 and out.startswith("5 solutions")
    code, out, err = run_cli("solutions", str(path), "--budget-sum", "1")
    assert code == 3 and out == "" and "limit exceeded" in err


def test_oracle_budget_env_var(run_cli, tmp_path, monkeypatch):
    # avg != needs the brute-force fallback; a zero budget starves it.
    path = tmp_path / "avg.lp"
    path.write_text("p(1). p(2). q :- avg{X : p(X)} != 1.")
    monkeypatch.setenv("AGGFIX_BUDGET_ORACLE", "0")
    code, _, err = run_cli("solutions", str(path))
    assert code == 3 and "limit exceeded" in err
    # the flag wins over the environment
    code, out, _ = run_cli("solutions", str(path), "--budget-oracle", "20")
    assert code == 0 and out.splitlines()[0].endswith("solutions")
    monkeypatch.delenv("AGGFIX_BUDGET_ORACLE")
    code, _, err = run_cli("solutions", str(path), "--budget-oracle", "0")
    assert code == 3


def test_every_json_payload_is_versioned(run_cli, program_files, bound_six_file):
    for argv in (
        ("solve", program_files["guard"]),
        ("check", program_files["guard"], "-m", "p(1)"),
        ("compare", program_files["cycle"]),
        ("solutions", bound_six_file),
        ("ground", program_files["guard"]),
        ("gen", "--seed", "1"),
    ):
        _, out, _ = run_cli(*argv, "--format", "json")
        assert json.loads(out)["version"] == 1, argv
