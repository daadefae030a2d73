"""End-to-end CLI behaviour: golden text, JSON mirrors, exit codes."""

import json
import time

import pytest

from aggfix.syntax import ground_program, parse_program

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


def test_subset_sum_budget_bounds_avg_not_equal(run_cli, tmp_path):
    # avg != sweeps the free values shifted by the bound: weight at most 1.
    path = tmp_path / "avg.lp"
    path.write_text("p(1). p(2). q :- avg{X : p(X)} != 1.")
    code, _, err = run_cli("solutions", str(path), "--budget-sum", "0")
    assert code == 3 and "limit exceeded" in err
    code, out, _ = run_cli("solutions", str(path), "--budget-sum", "1")
    assert code == 0 and out.splitlines()[0].endswith("solutions")
    code, out, _ = run_cli("solutions", str(path))
    assert code == 0 and out.splitlines()[0].endswith("solutions")


SUM_NE_TEXT = "p(1). p(2). p(3). p(4). p(5). h :- sum{X : p(X)} != 100."


@pytest.mark.parametrize(
    ("flag", "command"),
    [
        ("--budget-candidates", "solve"),
        ("--budget-candidates", "compare"),
        ("--budget-enum", "solutions"),
        ("--budget-enum", "compare"),
        ("--budget-subsets", "compare"),
        ("--budget-sum", "solve"),
        ("--budget-sum", "check"),
        ("--budget-sum", "compare"),
        ("--budget-sum", "solutions"),
    ],
)
def test_budget_flag_bounds_each_subcommand(run_cli, tmp_path, flag, command):
    path = tmp_path / "sum_ne.lp"
    path.write_text(SUM_NE_TEXT)
    argv = [command, str(path)]
    if command == "check":
        argv += ["-m", "p(1),p(2),p(3),p(4),p(5),h"]
    code, out, err = run_cli(*argv, flag, "1")
    assert (code, out) == (3, "")
    assert err.startswith("limit exceeded: ") and err.count("\n") == 1
    assert run_cli(*argv)[0] in (0, 1)


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


def test_main_reuses_one_parser_across_calls(run_cli, program_files, monkeypatch):
    # check defaults --trace to stages, solve to none: a value or flag
    # left over from one call must not reach the next.
    from aggfix import cli

    guard = program_files["guard"]
    sequence = [
        ("check", guard, "-m", "p(1),p(2),p(3)", "--trace", "full"),
        ("solve", guard),
        ("check", guard, "-m", "p(1),p(2),p(3)"),
        ("solve", guard, "--trace"),
        ("solve", guard, "--quiet"),
        ("solve", guard),
        ("solve", guard, "--format", "json"),
        ("solutions", guard, "--budget-enum", "9"),
        ("solutions", guard),
    ]
    alone = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_PARSER", None)
        alone.append(run_cli(*argv))
    shared = cli._parser()
    assert [run_cli(*argv) for argv in sequence] == alone
    assert cli._parser() is shared
    assert alone[1] == (0, "{p(1), p(2), p(3)}\n", "")
    assert "reduct:" in alone[0][1] and "reduct:" not in alone[2][1]
    assert "K^1" in alone[3][1] and alone[4][1] == ""
    assert alone[7][0] == 3 and alone[8][0] == 0


def test_compare_without_all_evaluates_only_head_candidates(run_cli, tmp_path):
    # 16 base atoms but 3 head atoms: the shown rows come from 2**3
    # candidates, not from 2**16 all-reject reports.
    path = tmp_path / "wide.lp"
    path.write_text(
        "#const 1 2 3 4. p(1) :- not q(2). r(3) :- p(1). "
        "s(4) :- count{X : p(X)} > 0."
    )
    start = time.perf_counter()
    code, out, _ = run_cli("compare", str(path))
    shown_s = time.perf_counter() - start
    start = time.perf_counter()
    code_all, out_all, _ = run_cli("compare", str(path), "--all")
    all_s = time.perf_counter() - start
    assert code == code_all == 0
    assert len(out_all.splitlines()) == 2 ** 16
    assert out.splitlines() == [line for line in out_all.splitlines() if "=yes" in line]
    assert out == "{p(1), r(3), s(4)} fixpoint=yes flp=yes unfolding=yes naive_gl=yes tr=yes\n"
    assert shown_s < all_s / 4
    # The candidate budget now bounds the 2**3 head subsets.
    assert run_cli("compare", str(path), "--budget-candidates", "8")[0] == 0
    assert run_cli("compare", str(path), "--budget-candidates", "7")[0] == 3


def test_enum_budget_flag(run_cli, bound_six_file):
    code, out, err = run_cli("solutions", bound_six_file, "--budget-enum", "80")
    assert code == 3 and out == "" and "limit exceeded" in err
    code, out, _ = run_cli("solutions", bound_six_file, "--budget-enum", "81")
    assert code == 0 and out.startswith("15 solutions")


def test_solutions_rendering_walks_the_universe(run_cli, tmp_path):
    # Arity-2 universes over two predicates, with integer and symbolic
    # constants whose canonical order differs from string order.
    from aggfix.cli import _interp_to_json
    from aggfix.solutions import enumerate_solutions

    path = tmp_path / "binary.lp"
    path.write_text(
        "#const 10 2 a.\n"
        "h :- count{{X : q(X,Z)}} >= 8.\n"
        "g :- count{X : r(a,X)} != 1.\n"
    )
    program = ground_program(parse_program(path.read_text()))
    for index, agg in enumerate((program.rules[0].agg[0], program.rules[1].agg[0])):
        pairs = enumerate_solutions(agg, program)
        assert pairs
        code, out, _ = run_cli("solutions", str(path), "--index", str(index),
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["solutions"] == [
            {"p": _interp_to_json(s.p), "n": _interp_to_json(s.n)} for s in pairs
        ]
        code, out, _ = run_cli("solutions", str(path), "--index", str(index))
        assert out.splitlines() == [f"{len(pairs)} solutions"] + [str(s) for s in pairs]
