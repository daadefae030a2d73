"""Comparison semantics: naive GL, FLP, unfolding, translation."""

import itertools

import pytest

from aggfix.altsem import (
    NormalProgram,
    compare_programs,
    flp_reduct,
    gl_answer_check,
    is_flp_answer_set,
    is_naive_answer_set,
    is_unfolding_answer_set,
    least_model,
    least_model_stages,
    naive_gl_reduct,
    semantics_report,
    solutions_satisfied_by,
    translate_tr,
    unfold,
    gl_reduct,
)
from aggfix.fixpoint import enumerate_answer_sets, is_fixpoint_answer_set, least_fixpoint
from aggfix.harness import GenParams, generate_program
from aggfix.syntax import Atom, ground_program, herbrand_base, parse_program, render_rule


def atoms(*specs):
    out = set()
    for spec in specs:
        pred, _, rest = spec.partition("/")
        args = tuple(int(a) if a.lstrip("-").isdigit() else a
                     for a in rest.split(",") if a)
        out.add(Atom(pred, args))
    return frozenset(out)


GUARD_A = atoms("p/1", "p/2", "p/3")
GUARD_B = atoms("p/1", "p/2", "p/3", "p/5", "q")
CYCLE_M = atoms("p/1", "p/-1")


def normal(text):
    return NormalProgram(parse_program(text).rules)


def rule_texts(rules):
    return sorted(render_rule(r) for r in rules)


def test_gl_answer_check_textbook_cases():
    p = normal("a :- not b.")
    assert gl_answer_check(p, atoms("a"))
    assert not gl_answer_check(p, atoms("b"))
    assert not gl_answer_check(normal("a :- a."), atoms("a"))


def test_least_model_iteration():
    p = normal("a :- b. b :- c. c.")
    assert least_model(p.rules) == atoms("a", "b", "c")
    stages = least_model_stages(p.rules)
    assert stages[0] == frozenset()
    assert stages[-1] == stages[-2] == atoms("a", "b", "c")


def test_gl_reduct_strips_negation():
    p = normal("a :- not b. b :- not a.")
    kept = gl_reduct(p, atoms("a"))
    assert rule_texts(kept) == ["a."]


def test_naive_reduct_guard_branch_a(guard_program):
    reduced = naive_gl_reduct(guard_program, GUARD_A)
    assert rule_texts(reduced.rules) == [
        "p(1).",
        "p(2).",
        "p(3).",
        "p(5) :- q.",
    ]


def test_naive_reduct_guard_branch_b(guard_program):
    reduced = naive_gl_reduct(guard_program, GUARD_B)
    assert rule_texts(reduced.rules) == [
        "p(1).",
        "p(2).",
        "p(3).",
        "p(5) :- q.",
        "q.",
    ]


def test_naive_reduct_identity_without_aggregates():
    p = parse_program("a :- b. b.")
    reduced = naive_gl_reduct(p, atoms("a", "b"))
    assert reduced.rules == p.rules


def test_naive_acceptance_pathology(guard_program):
    # The straightforward reduction accepts both candidates even though
    # the larger one is self-supporting through the aggregate.
    assert is_naive_answer_set(guard_program, GUARD_A)
    assert is_naive_answer_set(guard_program, GUARD_B)
    assert not is_naive_answer_set(guard_program, atoms("p/1"))
    assert enumerate_answer_sets(guard_program) == (GUARD_A,)


def test_naive_acceptance_choice(choice_program):
    assert is_naive_answer_set(choice_program, atoms("q"))


def test_flp_reduct_keeps_satisfied_bodies(cycle_program, guard_program):
    assert len(flp_reduct(cycle_program, CYCLE_M).rules) == 3
    kept = flp_reduct(guard_program, GUARD_A)
    assert rule_texts(kept.rules) == ["p(1).", "p(2).", "p(3)."]
    empty_m = flp_reduct(guard_program, frozenset())
    assert all(r.is_fact for r in empty_m.rules)


def test_flp_divergence(cycle_program):
    assert is_flp_answer_set(cycle_program, CYCLE_M)
    assert not is_fixpoint_answer_set(cycle_program, CYCLE_M)[0]
    assert enumerate_answer_sets(cycle_program) == ()


def test_flp_guard(guard_program):
    assert is_flp_answer_set(guard_program, GUARD_A)
    assert not is_flp_answer_set(guard_program, GUARD_B)


def test_solutions_satisfied_by_guard(guard_program):
    agg = guard_program.rules[-1].agg[0]
    assert solutions_satisfied_by(agg, GUARD_A, guard_program) == ()
    (only,) = solutions_satisfied_by(agg, GUARD_B, guard_program)
    assert only.p == atoms("p/1", "p/2", "p/3", "p/5")
    assert only.n == frozenset()


def test_solutions_satisfied_by_unsatisfiable_aggregate():
    p = parse_program("q :- min{X : p(X)} = 0.")
    agg = p.rules[0].agg[0]
    assert solutions_satisfied_by(agg, frozenset(), p) == ()


def test_unfold_guard_branches(guard_program):
    unfolded = unfold(guard_program, GUARD_A)
    assert rule_texts(unfolded.rules) == [
        "p(1).",
        "p(2).",
        "p(3).",
        "p(5) :- q.",
    ]
    unfolded = unfold(guard_program, GUARD_B)
    assert rule_texts(unfolded.rules) == [
        "p(1).",
        "p(2).",
        "p(3).",
        "p(5) :- q.",
        "q :- p(1), p(2), p(3), p(5).",
    ]


def test_unfold_keeps_plain_rules():
    p = parse_program("a :- b, not c. b.")
    unfolded = unfold(p, atoms("a", "b"))
    assert rule_texts(unfolded.rules) == ["a :- b, not c.", "b."]
    assert unfold(p, atoms("c")).rules == (p.rules[1],)


def test_unfolding_verdicts(guard_program, choice_program):
    assert is_unfolding_answer_set(guard_program, GUARD_A)
    assert not is_unfolding_answer_set(guard_program, GUARD_B)
    base = herbrand_base(choice_program)
    accepted = {
        frozenset(combo)
        for size in range(len(base) + 1)
        for combo in itertools.combinations(base, size)
        if is_unfolding_answer_set(choice_program, frozenset(combo))
    }
    assert accepted == {atoms("q"), atoms("p/a", "p/b")}
    assert is_unfolding_answer_set(parse_program(""), frozenset())


def test_translate_tr_identity_on_normal_programs():
    p = parse_program("a :- b, not c. b.")
    assert translate_tr(p).rules == p.rules


def test_translate_tr_guard(guard_program):
    translated = translate_tr(guard_program)
    assert rule_texts(translated.rules) == [
        "p(1).",
        "p(2).",
        "p(3).",
        "p(5) :- q.",
        "q :- p(1), p(2), p(3), p(5).",
    ]


def test_translate_tr_single_atom_universe():
    p = parse_program("p(a). r :- count{X : p(X)} > 0.")
    translated = translate_tr(p)
    assert "r :- p(a)." in rule_texts(translated.rules)


def test_translate_tr_unsatisfiable_aggregate_drops_rule():
    p = parse_program("p(1). r :- count{X : p(X)} < 0.")
    translated = translate_tr(p)
    assert rule_texts(translated.rules) == ["p(1)."]


def test_theorems_on_canonical_programs(
    guard_program, choice_program, cycle_program
):
    for program in (guard_program, choice_program, cycle_program):
        tr_program = translate_tr(program)
        base = herbrand_base(program)
        for size in range(len(base) + 1):
            for combo in itertools.combinations(base, size):
                m = frozenset(combo)
                fixpoint = is_fixpoint_answer_set(program, m)[0]
                assert is_unfolding_answer_set(program, m) == fixpoint
                assert gl_answer_check(tr_program, m) == fixpoint
                if fixpoint:
                    assert is_flp_answer_set(program, m)


def test_stage_equality_for_accepted_candidates(guard_program, choice_program):
    # On accepted candidates the unfolded program's least-model stages
    # reproduce the consequence-operator stages index by index.
    for program in (guard_program, choice_program):
        for m in enumerate_answer_sets(program):
            unfolded = gl_reduct(unfold(program, m), m)
            assert least_model_stages(unfolded) == least_fixpoint(program, m).stages


def test_semantics_report_cycle(cycle_program):
    report = semantics_report(cycle_program, CYCLE_M)
    assert report.verdicts == {
        "fixpoint": False,
        "flp": True,
        "unfolding": False,
        "naive_gl": True,
        "tr": False,
    }
    assert report.any_accepted


def test_compare_programs_guard(guard_program):
    reports = compare_programs(guard_program)
    assert len(reports) == 2 ** len(herbrand_base(guard_program))
    by_candidate = {r.candidate: r for r in reports}
    row = by_candidate[GUARD_B]
    assert row.naive_gl and not row.fixpoint
    row = by_candidate[GUARD_A]
    assert all(row.verdicts.values())


def test_compare_programs_candidate_subset(choice_program):
    reports = compare_programs(choice_program, candidates=[atoms("q")])
    assert len(reports) == 1 and reports[0].fixpoint


def test_all_semantics_collapse_without_aggregates():
    p = parse_program("a :- not b. b :- not a. c :- a.")
    for report in compare_programs(p):
        verdicts = set(report.verdicts.values())
        assert len(verdicts) == 1, report


def test_normal_program_rejects_aggregates(guard_program):
    with pytest.raises(ValueError):
        NormalProgram(guard_program.rules)


def test_non_head_candidates_rejected_by_every_semantics():
    # compare_programs lists these candidates as all-reject rows
    # without evaluating them.
    rejected = 0
    for seed in range(500):  # the criterion-6 corpus
        program = ground_program(generate_program(GenParams(seed)))
        heads = {r.head for r in program.rules}
        tr_program = translate_tr(program)
        base = herbrand_base(program)
        for size in range(len(base) + 1):
            for m in map(frozenset, itertools.combinations(base, size)):
                if m <= heads:
                    continue
                report = semantics_report(program, m, tr_program=tr_program)
                assert not report.any_accepted, (seed, report)
                rejected += 1
    assert rejected > 10_000


def test_compare_programs_rows_match_per_candidate_reports(guard_program, choice_program):
    for program in (guard_program, choice_program):
        base = herbrand_base(program)
        expected = [
            semantics_report(program, frozenset(combo))
            for size in range(len(base) + 1)
            for combo in itertools.combinations(base, size)
        ]
        assert compare_programs(program) == tuple(expected)
