"""Reduct, consequence operator, fixpoint traces, answer sets."""

import itertools

import pytest

from aggfix.errors import Budgets, LimitExceeded
from aggfix.evaluate import is_model
from aggfix.fixpoint import (
    apply_consequence,
    enumerate_answer_sets,
    is_fixpoint_answer_set,
    least_fixpoint,
    reduct,
)
from aggfix.harness import GenParams, SplitMix64, generate_program
from aggfix.solutions import SolutionPair, conditionally_satisfies, is_solution_oracle
from aggfix.syntax import (
    Atom,
    Program,
    atom_universe,
    ground_program,
    herbrand_base,
    interpretation_key,
    parse_program,
    render_rule,
)


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


def test_reduct_keeps_rule_and_stripped_fact(choice_program):
    r = reduct(choice_program, atoms("q"))
    texts = sorted(render_rule(rule) for rule in r.rules)
    assert texts == ["p(a) :- count{X : p(X)} > 0.", "q."]


def test_reduct_other_branch(choice_program):
    r = reduct(choice_program, atoms("p/a", "p/b"))
    texts = sorted(render_rule(rule) for rule in r.rules)
    assert texts == ["p(a) :- count{X : p(X)} > 0.", "p(b)."]


def test_reduct_identity_without_negation(guard_program):
    for m in (frozenset(), GUARD_A, GUARD_B):
        assert reduct(guard_program, m).rules == guard_program.rules


def test_consequences_guard_first_step(guard_program):
    assert apply_consequence(guard_program, GUARD_A, frozenset()) == GUARD_A


def test_consequences_choice_second_step(choice_program):
    m = atoms("p/a", "p/b")
    assert apply_consequence(choice_program, m, atoms("p/b")) == m


def test_consequences_empty_program():
    p = Program((), frozenset(), frozenset())
    assert apply_consequence(p, frozenset(), frozenset()) == frozenset()


def test_least_fixpoint_guard_accepted(guard_program):
    trace = least_fixpoint(guard_program, GUARD_A)
    assert trace.stages == (frozenset(), GUARD_A, GUARD_A)
    assert trace.distinct_stages == (frozenset(), GUARD_A)
    assert trace.converged
    assert trace.fixpoint == GUARD_A


def test_least_fixpoint_guard_rejected(guard_program):
    trace = least_fixpoint(guard_program, GUARD_B)
    assert trace.fixpoint == GUARD_A
    assert trace.fixpoint != GUARD_B


def test_least_fixpoint_cycle_collapses(cycle_program):
    trace = least_fixpoint(cycle_program, atoms("p/1", "p/-1"))
    assert trace.fixpoint == frozenset()
    assert trace.distinct_stages == (frozenset(),)


def test_is_fixpoint_answer_set_guard(guard_program):
    ok, trace = is_fixpoint_answer_set(guard_program, GUARD_A)
    assert ok and trace.fixpoint == GUARD_A
    bad, trace = is_fixpoint_answer_set(guard_program, GUARD_B)
    assert not bad and trace.fixpoint == GUARD_A


def test_choice_answer_sets_exhaustively(choice_program):
    base = herbrand_base(choice_program)
    accepted = []
    for size in range(len(base) + 1):
        for combo in itertools.combinations(base, size):
            m = frozenset(combo)
            if is_fixpoint_answer_set(choice_program, m)[0]:
                accepted.append(m)
    assert sorted(accepted, key=interpretation_key) == [
        atoms("q"),
        atoms("p/a", "p/b"),
    ]


def test_choice_trace_matches_derivation(choice_program):
    _, trace = is_fixpoint_answer_set(choice_program, atoms("p/a", "p/b"))
    assert trace.distinct_stages == (
        frozenset(),
        atoms("p/b"),
        atoms("p/a", "p/b"),
    )


def test_enumerate_answer_sets(guard_program, choice_program, cycle_program):
    assert enumerate_answer_sets(guard_program) == (GUARD_A,)
    assert enumerate_answer_sets(choice_program) == (
        atoms("q"),
        atoms("p/a", "p/b"),
    )
    assert enumerate_answer_sets(cycle_program) == ()


def test_enumerate_budget(guard_program):
    with pytest.raises(LimitExceeded):
        enumerate_answer_sets(guard_program, Budgets(candidates=16))


def test_operator_monotone_in_derived_set(guard_program):
    base = tuple(herbrand_base(guard_program))
    m = GUARD_B
    for picks in itertools.product((0, 1, 2), repeat=len(base)):
        i = frozenset(a for a, w in zip(base, picks) if w >= 1)
        j = frozenset(a for a, w in zip(base, picks) if w == 1) | i
        small, large = (i, j) if i <= j else (j, i)
        assert apply_consequence(guard_program, m, small) <= apply_consequence(
            guard_program, m, large
        )


def test_trace_is_increasing_chain(choice_program):
    base = herbrand_base(choice_program)
    for size in range(len(base) + 1):
        for combo in itertools.combinations(base, size):
            trace = least_fixpoint(choice_program, frozenset(combo))
            stages = trace.distinct_stages
            assert all(a < b for a, b in zip(stages, stages[1:]))
            assert len(stages) <= len(base) + 1
            assert trace.converged


def test_conditional_satisfaction_persists_along_trace(choice_program):
    m = atoms("p/a", "p/b")
    _, trace = is_fixpoint_answer_set(choice_program, m)
    agg = choice_program.rules[0].agg[0]
    satisfied_from = None
    for idx, stage in enumerate(trace.stages):
        if conditionally_satisfies(stage, m, agg, choice_program):
            satisfied_from = idx if satisfied_from is None else satisfied_from
        else:
            assert satisfied_from is None


def test_answer_sets_are_models(guard_program, choice_program):
    for program in (guard_program, choice_program):
        for m in enumerate_answer_sets(program):
            assert is_model(m, program)


def test_empty_program_has_empty_answer_set():
    p = parse_program("")
    assert enumerate_answer_sets(p) == (frozenset(),)


def full_base_answer_sets(program):
    """Reference sweep over every subset of the Herbrand base."""
    base = herbrand_base(program)
    return tuple(
        m
        for size in range(len(base) + 1)
        for m in map(frozenset, itertools.combinations(base, size))
        if is_model(m, program) and is_fixpoint_answer_set(program, m)[0]
    )


@pytest.mark.parametrize(
    "params",
    [
        [GenParams(seed) for seed in range(500)],  # the criterion-6 corpus
        [
            GenParams(seed, num_predicates=4, num_rules=10, num_constants=4)
            for seed in range(40)
        ],
    ],
    ids=["criterion-6", "solve-sweep-family"],
)
def test_head_sweep_equals_full_base_sweep(params):
    for g in params:
        program = ground_program(generate_program(g))
        assert enumerate_answer_sets(program) == full_base_answer_sets(program), g


def test_candidate_budget_counts_head_atoms_only():
    # 2**6 base subsets but 2**1 head subsets: a budget of 2 suffices.
    program = ground_program(parse_program("#const 1 2 3. q(1) :- not p(2)."))
    assert len(herbrand_base(program)) == 6
    assert enumerate_answer_sets(program, Budgets(candidates=2)) == (atoms("q/1"),)
    with pytest.raises(LimitExceeded):
        enumerate_answer_sets(program, Budgets(candidates=1))


def test_lfp_stages_agree_with_oracle():
    # The bit-mask kernel against the brute-force oracle on the pair
    # <i & m & H, H - m> at every stage, for seeded candidates.
    checked = 0
    for seed in range(500):
        program = ground_program(generate_program(GenParams(seed)))
        aggregates = {c for r in program.rules for c in r.agg}
        base = herbrand_base(program)
        rng = SplitMix64(seed)
        for _ in range(4):
            m = frozenset(a for a in base if rng.chance(500))
            for stage in least_fixpoint(program, m).stages:
                for c in aggregates:
                    universe = frozenset(atom_universe(c, program))
                    pair = SolutionPair(stage & m & universe, universe - m)
                    assert conditionally_satisfies(
                        stage, m, c, program
                    ) == is_solution_oracle(c, pair, program), (seed, m, stage, c)
                    checked += 1
    assert checked > 1000
