"""Two-valued evaluation: set expressions, aggregates, models."""

import pytest

from aggfix.errors import Budgets, LimitExceeded, NonIntegerElement
from aggfix.evaluate import (
    eval_aggregate_atom,
    eval_set_expression,
    is_minimal_model,
    is_model,
    satisfies_body,
)
from aggfix.syntax import Atom, ground_program, parse_program


def atoms(*specs):
    out = set()
    for spec in specs:
        pred, _, rest = spec.partition("/")
        args = tuple(int(a) if a.lstrip("-").isdigit() else a
                     for a in rest.split(",") if a)
        out.add(Atom(pred, args))
    return frozenset(out)


def first_aggregate(text):
    p = ground_program(parse_program(text))
    for rule in p.rules:
        if rule.agg:
            return rule.agg[0], p
    raise AssertionError("no aggregate in program")


def test_eval_set_collects_distinct_values():
    agg, p = first_aggregate("p(1). p(2). p(3). q :- sum{X : p(X)} > 0.")
    i = atoms("p/1", "p/2", "p/3")
    assert eval_set_expression(agg.set_expr, i, p) == {1, 2, 3}


def test_eval_multiset_counts_instances():
    agg, p = first_aggregate(
        "q(1,2). q(1,3). r :- sum{{X : q(X,Z)}} = 2."
    )
    i = atoms("q/1,2", "q/1,3")
    assert eval_set_expression(agg.set_expr, i, p) == [1, 1]
    assert eval_aggregate_atom(agg, i, p)


def test_eval_multiset_distinct_values_kept_apart():
    agg, p = first_aggregate(
        "q(1,2). q(1,3). q(2,2). r :- count{{X : q(X,Z)}} = 3."
    )
    i = atoms("q/1,2", "q/1,3", "q/2,2")
    assert eval_set_expression(agg.set_expr, i, p) == [1, 1, 2]


def test_eval_set_empty_interpretation():
    agg, p = first_aggregate("p(1). q :- sum{X : p(X)} > 0.")
    assert eval_set_expression(agg.set_expr, frozenset(), p) == set()


def test_eval_non_integer_element_raises():
    agg, p = first_aggregate("p(a). q :- sum{X : p(X)} > 0.")
    with pytest.raises(NonIntegerElement):
        eval_aggregate_atom(agg, atoms("p/a"), p)


def test_eval_count_accepts_symbolic_values():
    agg, p = first_aggregate("p(a). p(b). q :- count{X : p(X)} = 2.")
    assert eval_aggregate_atom(agg, atoms("p/a", "p/b"), p)


def test_sum_not_equal_is_non_monotone():
    agg, p = first_aggregate("p(1). p(-1). q :- sum{X : p(X)} != 0.")
    assert eval_aggregate_atom(agg, atoms("p/1"), p)
    assert not eval_aggregate_atom(agg, atoms("p/1", "p/-1"), p)


def test_sum_and_count_defined_on_empty():
    agg, p = first_aggregate("p(1). q :- sum{X : p(X)} = 0.")
    assert eval_aggregate_atom(agg, frozenset(), p)
    agg, p = first_aggregate("p(1). q :- count{X : p(X)} = 0.")
    assert eval_aggregate_atom(agg, frozenset(), p)


@pytest.mark.parametrize("func", ["min", "max", "avg"])
def test_min_max_avg_undefined_on_empty(func):
    agg, p = first_aggregate(f"p(3). q :- {func}{{X : p(X)}} = 3.")
    assert not eval_aggregate_atom(agg, frozenset(), p)
    assert eval_aggregate_atom(agg, atoms("p/3"), p)


def test_avg_uses_exact_rationals():
    agg, p = first_aggregate("p(1). p(2). q :- avg{X : p(X)} = 1.")
    assert not eval_aggregate_atom(agg, atoms("p/1", "p/2"), p)
    agg, p = first_aggregate("p(1). p(2). q :- avg{X : p(X)} > 1.")
    assert eval_aggregate_atom(agg, atoms("p/1", "p/2"), p)
    agg, p = first_aggregate("p(1). p(2). q :- avg{X : p(X)} < 2.")
    assert eval_aggregate_atom(agg, atoms("p/1", "p/2"), p)


def test_satisfies_body_guard_rule(guard_program):
    rule = guard_program.rules[-1]
    assert not satisfies_body(atoms("p/1", "p/2", "p/3"), rule, guard_program)
    b = atoms("p/1", "p/2", "p/3", "p/5", "q")
    assert satisfies_body(b, rule, guard_program)


def test_satisfies_body_empty_body(guard_program):
    fact = guard_program.rules[0]
    assert satisfies_body(frozenset(), fact, guard_program)


def test_satisfies_body_negative_literal():
    p = ground_program(parse_program("q :- not r."))
    rule = p.rules[0]
    assert satisfies_body(frozenset(), rule, p)
    assert not satisfies_body(atoms("r"), rule, p)


def test_is_model_guard(guard_program):
    assert is_model(atoms("p/1", "p/2", "p/3"), guard_program)
    assert is_model(atoms("p/1", "p/2", "p/3", "p/5", "q"), guard_program)
    assert not is_model(atoms("p/1"), guard_program)


def test_is_model_superset_of_heads():
    p = ground_program(parse_program("a :- b. b :- c. c."))
    assert is_model(atoms("a", "b", "c"), p)


def test_is_minimal_model_basics():
    p = ground_program(parse_program("p(1)."))
    assert not is_minimal_model(frozenset(), p)
    assert is_minimal_model(atoms("p/1"), p)
    loop = ground_program(parse_program("p(1). q :- q."))
    assert not is_minimal_model(atoms("p/1", "q"), loop)


def test_is_minimal_model_budget():
    p = ground_program(parse_program("p(1). p(2). p(3)."))
    m = atoms("p/1", "p/2", "p/3")
    assert is_minimal_model(m, p)
    with pytest.raises(LimitExceeded):
        is_minimal_model(m, p, Budgets(subsets=4))


def test_aggregate_truth_is_local_to_universe(guard_program):
    agg = guard_program.rules[-1].agg[0]
    inside = atoms("p/1", "p/2", "p/3", "p/5")
    assert eval_aggregate_atom(agg, inside, guard_program) == \
        eval_aggregate_atom(agg, inside | atoms("q"), guard_program)


def test_eval_every_function_on_a_shared_universe():
    base = "p(1). p(2). p(6). "
    i = atoms("p/1", "p/2", "p/6")
    cases = [
        ("sum{X : p(X)} = 9", True),
        ("sum{X : p(X)} < 9", False),
        ("count{X : p(X)} >= 3", True),
        ("min{X : p(X)} = 1", True),
        ("max{X : p(X)} = 6", True),
        ("max{X : p(X)} != 6", False),
        ("avg{X : p(X)} = 3", True),
    ]
    for text, expected in cases:
        agg, p = first_aggregate(base + f"q :- {text}.")
        assert eval_aggregate_atom(agg, i, p) == expected, text
