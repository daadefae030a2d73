"""Two-valued evaluation of ground programs.

An interpretation is a frozenset of ground atoms.  Aggregate atoms are
evaluated by collecting the grouped values of the pattern instances
true in the interpretation: distinct values for a set pattern, one
occurrence per true instance for a multiset pattern.  sum/count are
total (empty collection gives 0); min/max/avg are undefined on the
empty collection and an undefined comparison counts as false.  avg is
computed with exact rationals, never floats.

``is_model`` runs on bit masks over the program's compiled index
(``Program.index``); ``eval_aggregate_atom`` matches atoms directly and
stays the reference the solution oracle evaluates with.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Union

from .errors import Budgets, LimitExceeded, NonIntegerElement
from .syntax import (
    AggregateAtom,
    Atom,
    Program,
    Rule,
    SetExpr,
    Var,
    atom_key,
)

Interpretation = frozenset

_OPS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def compare(op: str, value, bound) -> bool:
    return _OPS[op](value, bound)


def _match(pattern: Atom, atom: Atom, constants: frozenset):
    """Bind pattern variables against a ground atom, or None.

    Bindings must stay inside the signature constants, so atoms outside
    the pattern's universe never contribute.
    """
    if pattern.pred != atom.pred or len(pattern.args) != len(atom.args):
        return None
    binding: dict[Var, object] = {}
    for pt, at in zip(pattern.args, atom.args):
        if isinstance(pt, Var):
            if at not in constants:
                return None
            bound = binding.setdefault(pt, at)
            if bound != at:
                return None
        elif pt != at:
            return None
    return binding


def _collect(expr: SetExpr, i: Interpretation, p: Program, require_int: bool) -> list:
    values = []
    for atom in i:
        binding = _match(expr.pattern, atom, p.constants)
        if binding is None:
            continue
        value = binding[expr.grouped]
        if require_int and not isinstance(value, int):
            raise NonIntegerElement(atom)
        values.append(value)
    if not expr.multiset:
        values = list(dict.fromkeys(values))
    return values


def eval_set_expression(expr: SetExpr, i: Interpretation, p: Program):
    """Collected values of the true pattern instances.

    Returns a set of values for a set pattern and a sorted list (the
    multiset) for a multiset pattern.  Raises NonIntegerElement when a
    symbolic constant is collected.
    """
    values = _collect(expr, i, p, require_int=True)
    if expr.multiset:
        return sorted(values)
    return set(values)


def _value_satisfies(l: AggregateAtom, values: list) -> bool:
    """Whether the aggregate of the collected ``values`` meets the bound."""
    if l.func == "count":
        result: Union[int, Fraction] = len(values)
    elif l.func == "sum":
        result = sum(values)
    elif not values:
        return False  # min/max/avg undefined on the empty collection
    elif l.func == "min":
        result = min(values)
    elif l.func == "max":
        result = max(values)
    else:
        result = Fraction(sum(values), len(values))
    return compare(l.op, result, l.bound)


def eval_aggregate_atom(l: AggregateAtom, i: Interpretation, p: Program) -> bool:
    if not isinstance(l.bound, int):
        raise ValueError(f"aggregate atom {l} is not ground")
    return _value_satisfies(l, _collect(l.set_expr, i, p, require_int=l.func != "count"))


def _holds(c, m: int) -> bool:
    """Truth of a compiled aggregate in the interpretation with bit mask
    ``m``; agrees with ``eval_aggregate_atom``.  Set patterns need no
    de-duplication here: their universe atoms differ in the grouped
    value alone."""
    chosen = m & c.mask
    if chosen & c.symbolic:
        raise NonIntegerElement(c.first_atom(chosen & c.symbolic))
    return _value_satisfies(c.atom, [v for b, _, v in c.universe if b & chosen])


def satisfies_body(i: Interpretation, rule: Rule, p: Program) -> bool:
    return (
        all(a in i for a in rule.pos)
        and not any(b in i for b in rule.neg)
        and all(eval_aggregate_atom(c, i, p) for c in rule.agg)
    )


def is_model(i: Interpretation, p: Program) -> bool:
    index = p.index
    m = index.mask(i)
    for head, pos, neg, aggs in index.rules:
        if not (head & m or pos & ~m or neg & m) and all(_holds(c, m) for c in aggs):
            return False
    return True


def is_minimal_model(
    i: Interpretation, p: Program, budgets: Budgets = Budgets()
) -> bool:
    """Model with no proper submodel.

    Single-atom removals are tried first: bodies are not monotone, so a
    smaller model need not be reachable one atom at a time, but most
    non-minimal candidates fail fast this way.  ``budgets.subsets``
    bounds the exhaustive sweep over the 2**|i| subsets.
    """
    if not is_model(i, p):
        return False
    atoms = sorted(i, key=atom_key)
    for a in atoms:
        if is_model(i - {a}, p):
            return False
    if len(atoms) >= 2:
        if 2 ** len(atoms) > budgets.subsets:
            raise LimitExceeded(
                f"minimality check over {len(atoms)} atoms exceeds "
                f"{budgets.subsets} subsets"
            )
        for size in range(len(atoms) - 1):
            for combo in itertools.combinations(atoms, size):
                if is_model(frozenset(combo), p):
                    return False
    return True
