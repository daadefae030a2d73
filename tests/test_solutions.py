"""Aggregate solutions: checkers, oracle, enumeration, conditional satisfaction."""

import dataclasses
import itertools

import pytest

from aggfix import solutions
from aggfix.errors import Budgets, LimitExceeded, NonIntegerElement
from aggfix.evaluate import eval_aggregate_atom
from aggfix.fixpoint import least_fixpoint
from aggfix.harness import SplitMix64
from aggfix.solutions import (
    SolutionPair,
    conditionally_satisfies,
    enumerate_solutions,
    is_solution,
    is_solution_oracle,
    make_subset_sum_instance,
    pair_key,
)
from aggfix.syntax import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    Atom,
    atom_universe,
    ground_program,
    parse_program,
)


def p_of(*values):
    return frozenset(Atom("p", (v,)) for v in values)


def pair(p_values=(), n_values=()):
    return SolutionPair(p_of(*p_values), p_of(*n_values))


def guard_aggregate(program, bound=None):
    agg = program.rules[-1].agg[0]
    if bound is not None:
        agg = dataclasses.replace(agg, bound=bound)
    return agg


def all_pairs(universe):
    for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
        yield SolutionPair(
            frozenset(a for a, w in zip(universe, assignment) if w == 1),
            frozenset(a for a, w in zip(universe, assignment) if w == 2),
        )


# The complete solution set of sum{X : p(X)} > 6 over {p(1),p(2),p(3),p(5)}.
SUM_GT6_SOLUTIONS = frozenset(
    pair(p_values, n_values)
    for p_values, n_values in [
        ((3, 5), ()),
        ((3, 5), (1, 2)),
        ((3, 5), (1,)),
        ((3, 5), (2,)),
        ((2, 5), ()),
        ((2, 5), (1, 3)),
        ((2, 5), (1,)),
        ((2, 5), (3,)),
        ((1, 2, 5), ()),
        ((1, 2, 5), (3,)),
        ((1, 3, 5), ()),
        ((1, 3, 5), (2,)),
        ((1, 2, 3, 5), ()),
        ((2, 3, 5), ()),
        ((2, 3, 5), (1,)),
    ]
)


def test_unique_solution_above_ten(guard_program):
    agg = guard_aggregate(guard_program)
    winning = pair((1, 2, 3, 5))
    assert is_solution_oracle(agg, winning, guard_program)
    assert is_solution(agg, winning, guard_program)
    assert enumerate_solutions(agg, guard_program) == (winning,)


def test_partial_pair_above_six(guard_program):
    agg = guard_aggregate(guard_program, bound=6)
    assert is_solution_oracle(agg, pair((3, 5), (1,)), guard_program)
    assert is_solution(agg, pair((3, 5), (1,)), guard_program)


def test_borderline_pair_above_six_fails(guard_program):
    # sum(p) is exactly 6, which does not exceed 6.
    agg = guard_aggregate(guard_program, bound=6)
    assert not is_solution(agg, pair((1, 2, 3), (5,)), guard_program)
    assert not is_solution_oracle(agg, pair((1, 2, 3), (5,)), guard_program)


def test_complete_table_above_six(guard_program):
    agg = guard_aggregate(guard_program, bound=6)
    assert frozenset(enumerate_solutions(agg, guard_program)) == SUM_GT6_SOLUTIONS


def test_empty_pair_for_positive_count(choice_program):
    agg = choice_program.rules[0].agg[0]
    empty = SolutionPair(frozenset(), frozenset())
    assert not is_solution_oracle(agg, empty, choice_program)
    assert not is_solution(agg, empty, choice_program)


def test_sum_not_equal_subset_reachability():
    program = ground_program(parse_program("p(2). p(3). q :- sum{X : p(X)} != 5."))
    agg = program.rules[-1].agg[0]
    empty = SolutionPair(frozenset(), frozenset())
    assert not is_solution(agg, empty, program)
    missing_four = dataclasses.replace(agg, bound=4)
    assert is_solution(missing_four, empty, program)


def test_count_at_least_zero_always_holds(guard_program):
    agg = guard_aggregate(guard_program)
    agg = dataclasses.replace(agg, func="count", op=">=", bound=0)
    empty = SolutionPair(frozenset(), frozenset())
    assert is_solution(agg, empty, guard_program)


def test_empty_universe_enumeration():
    held = ground_program(parse_program("q :- sum{X : p(X)} = 0."))
    agg = held.rules[0].agg[0]
    assert enumerate_solutions(agg, held) == (SolutionPair(frozenset(), frozenset()),)
    vacuous = ground_program(parse_program("q :- min{X : p(X)} = 0."))
    agg = vacuous.rules[0].agg[0]
    assert enumerate_solutions(agg, vacuous) == ()


def test_strengthening_closure(guard_program):
    agg = guard_aggregate(guard_program, bound=6)
    universe = atom_universe(agg, guard_program)
    for extended in all_pairs(universe):
        for s in SUM_GT6_SOLUTIONS:
            if s.p <= extended.p and s.n <= extended.n:
                assert extended in SUM_GT6_SOLUTIONS
                break


def test_witness_extraction(guard_program):
    # m satisfies the atom exactly when its restriction to the universe,
    # paired with the complement, is a solution.
    agg = guard_aggregate(guard_program, bound=6)
    universe = frozenset(atom_universe(agg, guard_program))
    for size in range(len(universe) + 1):
        for m in map(frozenset, itertools.combinations(universe, size)):
            witness = SolutionPair(m & universe, universe - m)
            assert eval_aggregate_atom(agg, m, guard_program) == is_solution(
                agg, witness, guard_program
            )


def test_conditional_satisfaction_examples(choice_program):
    agg = choice_program.rules[0].agg[0]
    m = p_of("a", "b")
    assert not conditionally_satisfies(frozenset(), m, agg, choice_program)
    assert conditionally_satisfies(p_of("b"), m, agg, choice_program)


def test_conditional_satisfaction_plain_atom(choice_program):
    q = Atom("q")
    assert conditionally_satisfies(frozenset({q}), frozenset(), q, choice_program)
    assert not conditionally_satisfies(frozenset(), frozenset({q}), q, choice_program)


def test_conditional_satisfaction_diagonal(guard_program):
    # (m, m) collapses to plain evaluation.
    agg = guard_aggregate(guard_program, bound=6)
    universe = frozenset(atom_universe(agg, guard_program))
    for size in range(len(universe) + 1):
        for m in map(frozenset, itertools.combinations(universe, size)):
            assert conditionally_satisfies(m, m, agg, guard_program) == \
                eval_aggregate_atom(agg, m, guard_program)


def test_conditional_satisfaction_monotone_in_i(guard_program):
    agg = guard_aggregate(guard_program, bound=6)
    universe = tuple(atom_universe(agg, guard_program))
    m = p_of(1, 2, 3, 5)
    for i_picks in itertools.product((False, True), repeat=len(universe)):
        i = frozenset(a for a, t in zip(universe, i_picks) if t)
        if not conditionally_satisfies(i, m, agg, guard_program):
            continue
        for j_picks in itertools.product((False, True), repeat=len(universe)):
            j = frozenset(a for a, t in zip(universe, j_picks) if t)
            if i <= j:
                assert conditionally_satisfies(j, m, agg, guard_program)


def test_satisfied_solutions_stay_solutions_under_completion(guard_program):
    # Any solution compatible with m can swap its n-part for the full
    # complement of m and remain a solution.
    agg = guard_aggregate(guard_program, bound=6)
    universe = frozenset(atom_universe(agg, guard_program))
    for size in range(len(universe) + 1):
        for m in map(frozenset, itertools.combinations(universe, size)):
            for s in SUM_GT6_SOLUTIONS:
                if s.p <= m and not (s.n & m):
                    assert is_solution(
                        agg, SolutionPair(s.p, universe - m), guard_program
                    )


def test_subset_sum_embedding():
    hit = make_subset_sum_instance({1, 2, 3}, 6)
    assert not is_solution(hit.atom, hit.pair, hit.program)
    miss = make_subset_sum_instance({2, 4}, 1)
    assert is_solution(miss.atom, miss.pair, miss.program)
    degenerate = make_subset_sum_instance(set(), 0)
    assert not is_solution(degenerate.atom, degenerate.pair, degenerate.program)


def test_subset_sum_rejects_negative_values():
    with pytest.raises(ValueError):
        make_subset_sum_instance({-1, 2}, 1)


def test_non_integer_universe_raises():
    program = ground_program(parse_program("p(a). q :- sum{X : p(X)} > 0."))
    agg = program.rules[-1].agg[0]
    empty = SolutionPair(frozenset(), frozenset())
    with pytest.raises(NonIntegerElement):
        is_solution(agg, empty, program)
    with pytest.raises(NonIntegerElement):
        is_solution_oracle(agg, empty, program)


def test_pair_must_be_disjoint_and_within_universe(guard_program):
    with pytest.raises(ValueError):
        SolutionPair(p_of(1), p_of(1))
    agg = guard_aggregate(guard_program)
    stray = SolutionPair(frozenset({Atom("q")}), frozenset())
    with pytest.raises(ValueError):
        is_solution(agg, stray, guard_program)


def test_oracle_budget(guard_program):
    agg = guard_aggregate(guard_program)
    empty = SolutionPair(frozenset(), frozenset())
    with pytest.raises(LimitExceeded):
        is_solution_oracle(agg, empty, guard_program, free_limit=3)


def test_enumeration_budget(guard_program):
    agg = guard_aggregate(guard_program)
    with pytest.raises(LimitExceeded):
        enumerate_solutions(agg, guard_program, Budgets(enum=80))


def test_avg_not_equal_by_subset_sum():
    program = ground_program(parse_program("p(1). p(2). q :- avg{X : p(X)} != 1."))
    agg = program.rules[-1].agg[0]
    empty = SolutionPair(frozenset(), frozenset())
    # avg over {} is undefined (false verdict), over {1} it equals 1:
    # some extension falsifies the atom, so the pair is not a solution.
    assert not is_solution(agg, empty, program)
    assert is_solution(agg, SolutionPair(p_of(2), p_of(1)), program)
    wide = ground_program(parse_program("p(1). p(2). p(3). q :- avg{X : p(X)} != 1."))
    agg = wide.rules[-1].agg[0]
    assert is_solution(agg, SolutionPair(p_of(2), frozenset()), wide)
    # The sweep runs over the free values shifted by the bound, 0 and 2.
    with pytest.raises(LimitExceeded):
        is_solution(agg, SolutionPair(p_of(2), frozenset()), wide, Budgets(sum=1))


def test_solution_pair_rendering():
    assert str(pair((1,), ())) == "<{p(1)}, {}>"
    assert str(pair((2, 1), (3,))) == "<{p(1), p(2)}, {p(3)}>"


def test_multiset_solutions_agree_with_oracle():
    program = ground_program(
        parse_program("q(1,1). q(1,2). r :- sum{{X : q(X,Z)}} >= 2.")
    )
    agg = program.rules[-1].agg[0]
    universe = atom_universe(agg, program)
    assert len(universe) == 4
    for s in all_pairs(universe):
        assert is_solution(agg, s, program) == is_solution_oracle(agg, s, program)


def test_checker_matches_oracle_on_small_universe():
    # Every function and operator over a three-atom universe with mixed
    # signs, all pairs, a spread of bounds.
    program = ground_program(parse_program("p(-1). p(1). p(2)."))
    text_agg = parse_program("q :- sum{X : p(X)} = 0.").rules[0].agg[0]
    universe = atom_universe(text_agg, program)
    for func in AGGREGATE_FUNCTIONS:
        for op in COMPARISON_OPS:
            for bound in range(-3, 5):
                agg = dataclasses.replace(text_agg, func=func, op=op, bound=bound)
                for s in all_pairs(universe):
                    assert is_solution(agg, s, program) == is_solution_oracle(
                        agg, s, program
                    ), (func, op, bound, str(s))


def reference_solutions(agg, program):
    """``is_solution`` over all 3**|H| pairs, in ``pair_key`` order."""
    universe = atom_universe(agg, program)
    found = [s for s in all_pairs(universe) if is_solution(agg, s, program)]
    return tuple(sorted(found, key=pair_key))


def test_enumeration_matches_reference_on_every_case():
    # Seeded values around zero, always holding 0 and a negative value,
    # under bounds on both sides of them.
    rng = SplitMix64(7)
    for func in AGGREGATE_FUNCTIONS:
        for op in COMPARISON_OPS:
            for _ in range(3):
                values = {0, -rng.randint(1, 4)}
                while len(values) < 5:
                    values.add(rng.randint(-4, 6))
                bound = rng.randint(-4, 8)
                consts = " ".join(str(v) for v in sorted(values))
                program = ground_program(parse_program(
                    f"#const {consts}.\nh :- {func}{{X : p(X)}} {op} {bound}."
                ))
                agg = program.rules[0].agg[0]
                assert enumerate_solutions(agg, program) == reference_solutions(
                    agg, program
                ), (func, op, bound, sorted(values))


def test_enumeration_of_multiset_over_binary_predicate():
    # Each grouped value occurs twice in the universe, once per Z.
    for consts, op, bound in itertools.product(
        ("-1 2", "0 -3"), COMPARISON_OPS, (-1, 0, 2)
    ):
        program = ground_program(parse_program(
            f"#const {consts}.\nr :- sum{{{{X : q(X,Z)}}}} {op} {bound}."
        ))
        agg = program.rules[0].agg[0]
        assert len(atom_universe(agg, program)) == 4
        assert enumerate_solutions(agg, program) == reference_solutions(
            agg, program
        ), (consts, op, bound)


def test_enumeration_of_count_over_symbolic_constants():
    for op in COMPARISON_OPS:
        program = ground_program(parse_program(
            f"#const a b 1 c.\nh :- count{{X : p(X)}} {op} 2."
        ))
        agg = program.rules[0].agg[0]
        assert enumerate_solutions(agg, program) == reference_solutions(agg, program)


def test_enumeration_names_the_first_symbolic_atom():
    program = ground_program(
        parse_program("p(1). q(c). q(b). h :- min{X : p(X)} > 0.")
    )
    agg = program.rules[-1].agg[0]
    with pytest.raises(NonIntegerElement) as checked:
        is_solution(agg, SolutionPair(frozenset(), frozenset()), program)
    with pytest.raises(NonIntegerElement) as enumerated:
        enumerate_solutions(agg, program)
    assert enumerated.value.atom == checked.value.atom == Atom("p", ("b",))
    assert str(enumerated.value) == str(checked.value)


def test_enumeration_budgets_reach_the_case_split():
    sum_ne = ground_program(parse_program("p(1). p(2). q :- sum{X : p(X)} != 2."))
    agg = sum_ne.rules[-1].agg[0]
    assert len(enumerate_solutions(agg, sum_ne)) == 5
    with pytest.raises(LimitExceeded):
        enumerate_solutions(agg, sum_ne, Budgets(sum=1))
    avg_ne = ground_program(parse_program("p(1). p(2). q :- avg{X : p(X)} != 1."))
    agg = avg_ne.rules[-1].agg[0]
    assert enumerate_solutions(agg, avg_ne) == reference_solutions(agg, avg_ne)
    with pytest.raises(LimitExceeded):
        enumerate_solutions(agg, avg_ne, Budgets(sum=0))


def test_oracle_is_off_the_hot_path(monkeypatch):
    program = ground_program(parse_program(
        "p(1). p(4) :- q. p(3) :- not q. q :- avg{X : p(X)} != 2."
    ))
    agg = program.rules[-1].agg[0]
    universe = atom_universe(agg, program)
    candidates = [
        frozenset(c)
        for size in range(len(program.index.heads) + 1)
        for c in itertools.combinations(program.index.heads, size)
    ]

    def run():
        return (
            [is_solution(agg, s, program) for s in all_pairs(universe)],
            enumerate_solutions(agg, program),
            [least_fixpoint(program, m).stages for m in candidates],
        )

    before = run()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle was called")

    monkeypatch.setattr(solutions, "is_solution_oracle", refuse)
    assert run() == before
