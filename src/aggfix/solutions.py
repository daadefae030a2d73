"""Aggregate solutions: guaranteed-truth certificates for aggregate atoms.

A solution of a ground aggregate atom ``l`` is a pair of disjoint
subsets ``<p, n>`` of the atom universe H(l) such that every
interpretation containing all of ``p`` and none of ``n`` satisfies
``l``.  The atoms of H(l) outside ``p`` and ``n`` are free: the pair is
a solution exactly when ``l`` survives every way of adding free atoms
on top of ``p``.

Two independent routes decide pair-hood.  ``is_solution_oracle``
enumerates the free subsets and evaluates ``l`` on each extension; it
is exponential in the number of free atoms and serves as ground truth.
``is_solution`` decides the same question case by case per aggregate
function and comparison operator; every case is polynomial except
sum-with-``!=``, which reduces to subset-sum and runs a pseudo-
polynomial reachable-sums sweep, and avg-with-``!=``, which falls back
to the oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import LimitExceeded, NonIntegerElement
from .evaluate import Interpretation, compare, eval_aggregate_atom
from .syntax import (
    AggregateAtom,
    Atom,
    Program,
    SetExpr,
    Var,
    atom_key,
    atom_universe,
)

DEFAULT_ORACLE_FREE_LIMIT = 20        # free atoms, oracle cost 2**free
DEFAULT_ENUM_LIMIT = 3 ** 14          # candidate pairs per universe
DEFAULT_SUBSET_SUM_LIMIT = 1_000_000  # sum of |values| in the reachability sweep

_NUMERIC = ("sum", "min", "max", "avg")


@dataclass(frozen=True)
class SolutionPair:
    p: frozenset
    n: frozenset

    def __post_init__(self):
        if self.p & self.n:
            raise ValueError("solution pair components must be disjoint")

    def __str__(self) -> str:
        def fmt(atoms):
            return "{" + ", ".join(str(a) for a in sorted(atoms, key=atom_key)) + "}"

        return f"<{fmt(self.p)}, {fmt(self.n)}>"


def pair_key(s: SolutionPair):
    return (
        tuple(sorted(atom_key(a) for a in s.p)),
        tuple(sorted(atom_key(a) for a in s.n)),
    )


@dataclass(frozen=True)
class ScpInstance:
    """A solution-checking problem: is ``pair`` a solution of ``atom``?"""

    program: Program
    atom: AggregateAtom
    pair: SolutionPair


def grouped_value(atom: Atom, expr: SetExpr):
    """The value this universe atom contributes to the collection."""
    return atom.args[expr.grouped_position]


def _context(l: AggregateAtom, s: SolutionPair, p: Program):
    universe = atom_universe(l, p)
    uset = frozenset(universe)
    if not (s.p <= uset and s.n <= uset):
        raise ValueError("solution pair mentions atoms outside the universe")
    free = tuple(a for a in universe if a not in s.p and a not in s.n)
    if l.func in _NUMERIC:
        # Both routes reject symbolic values up front: the oracle would
        # otherwise raise or not depending on enumeration order.
        for atom in itertools.chain(s.p, free):
            if not isinstance(grouped_value(atom, l.set_expr), int):
                raise NonIntegerElement(atom)
    return free


def is_solution_oracle(
    l: AggregateAtom,
    s: SolutionPair,
    p: Program,
    free_limit: int = DEFAULT_ORACLE_FREE_LIMIT,
) -> bool:
    """Brute force: evaluate ``l`` on every extension of ``s.p`` by free atoms."""
    free = _context(l, s, p)
    if len(free) > free_limit:
        raise LimitExceeded(
            f"oracle over {len(free)} free atoms exceeds the {free_limit}-atom budget"
        )
    for picks in itertools.product((False, True), repeat=len(free)):
        j = frozenset(s.p) | {a for a, take in zip(free, picks) if take}
        if not eval_aggregate_atom(l, j, p):
            return False
    return True


def _reachable_sums(values, limit: int) -> set[int]:
    weight = sum(abs(v) for v in values)
    if weight > limit:
        raise LimitExceeded(
            f"subset-sum sweep over total weight {weight} exceeds budget {limit}"
        )
    sums = {0}
    for v in values:
        if v:
            sums |= {s + v for s in sums}
    return sums


def _case_split(
    l: AggregateAtom, base_values: list, free_values: list, subset_sum_limit: int
):
    """Whether every extension of the base values by free values satisfies
    ``l``, decided per (function, operator) case.

    ``base_values`` are the grouped values of the pair's positive part
    and ``free_values`` those of its free atoms.  Returns None for avg
    with ``!=``, which has no polynomial case split: the caller asks the
    oracle.
    """
    op, v = l.op, l.bound

    if l.func == "count":
        c, free = len(base_values), len(free_values)
        if op in (">", ">="):
            # adding free atoms only raises the count
            return compare(op, c, v)
        if op in ("=", "<", "<="):
            return compare(op, c, v) and compare(op, c + free, v)
        # "!=": counts sweep the whole range [c, c + free]
        return c > v or (c < v and free < v - c)

    if l.func == "sum":
        base = sum(base_values)
        if op == "=":
            return base == v and all(x == 0 for x in free_values)
        if op in (">", ">="):
            worst = base + sum(x for x in free_values if x < 0)
            return compare(op, base, v) and compare(op, worst, v)
        if op in ("<", "<="):
            worst = base + sum(x for x in free_values if x > 0)
            return compare(op, base, v) and compare(op, worst, v)
        # "!=": no free subset may close the gap to the bound
        return (v - base) not in _reachable_sums(free_values, subset_sum_limit)

    # min/max/avg are undefined on the empty collection, so the base
    # itself must make them defined.
    if not base_values:
        return False

    if l.func == "min":
        c = min(base_values)
        c1 = min(free_values) if free_values else None
        if op == "=":
            return c == v and (c1 is None or c1 >= v)
        if op in ("<", "<="):
            # free atoms can only lower the minimum
            return compare(op, c, v)
        if op in (">", ">="):
            return compare(op, c, v) and (c1 is None or compare(op, c1, v))
        return c < v or (c > v and all(x != v for x in free_values))

    if l.func == "max":
        c = max(base_values)
        c1 = max(free_values) if free_values else None
        if op == "=":
            return c == v and (c1 is None or c1 <= v)
        if op in (">", ">="):
            return compare(op, c, v)
        if op in ("<", "<="):
            return compare(op, c, v) and (c1 is None or compare(op, c1, v))
        return c > v or (c < v and all(x != v for x in free_values))

    # avg: compare sums cross-multiplied by the cardinality, exactly.
    k = len(base_values)
    base = sum(base_values)
    if op == "=":
        return base == v * k and all(x == v for x in free_values)
    if op in (">", ">=", "<", "<="):
        # Worst extensions add the h smallest (for >=) or h largest
        # (for <=) free values; prefixes of the sorted list cover all h.
        ordered = sorted(free_values, reverse=op in ("<", "<="))
        running = base
        if not compare(op, running, v * k):
            return False
        for h, x in enumerate(ordered, start=1):
            running += x
            if not compare(op, running, v * (k + h)):
                return False
        return True
    return None


def _mask_verdict(c, pos: int, free: int, subset_sum_limit: int):
    """``_case_split`` on a compiled aggregate, with the positive part and
    the free atoms given as bit masks."""
    if (pos | free) & c.symbolic:
        raise NonIntegerElement(c.first_atom((pos | free) & c.symbolic))
    base_values = [v for b, _, v in c.universe if b & pos]
    free_values = [v for b, _, v in c.universe if b & free]
    return _case_split(c.atom, base_values, free_values, subset_sum_limit)


def is_solution(
    l: AggregateAtom,
    s: SolutionPair,
    p: Program,
    oracle_free_limit: int = DEFAULT_ORACLE_FREE_LIMIT,
    subset_sum_limit: int = DEFAULT_SUBSET_SUM_LIMIT,
) -> bool:
    """Case-by-case solution check; agrees with ``is_solution_oracle``."""
    index = p.index
    c = index.aggregate(l)
    pos, neg = index.mask(s.p), index.mask(s.n)
    # An atom the program lacks adds no bit; one outside H, a bit outside H.
    if (pos | neg).bit_count() != len(s.p) + len(s.n) or (pos | neg) & ~c.mask:
        raise ValueError("solution pair mentions atoms outside the universe")
    verdict = _mask_verdict(c, pos, c.mask & ~(pos | neg), subset_sum_limit)
    if verdict is None:
        return is_solution_oracle(l, s, p, free_limit=oracle_free_limit)
    return verdict


def enumerate_solutions(
    l: AggregateAtom,
    p: Program,
    limit: int = DEFAULT_ENUM_LIMIT,
    oracle_free_limit: int = DEFAULT_ORACLE_FREE_LIMIT,
    subset_sum_limit: int = DEFAULT_SUBSET_SUM_LIMIT,
) -> tuple[SolutionPair, ...]:
    """All solutions of ``l`` over its universe, in canonical order."""
    universe = atom_universe(l, p)
    if 3 ** len(universe) > limit:
        raise LimitExceeded(
            f"enumerating 3**{len(universe)} pairs exceeds the budget of {limit}"
        )
    found = []
    for assignment in itertools.product((0, 1, 2), repeat=len(universe)):
        pair = SolutionPair(
            frozenset(a for a, w in zip(universe, assignment) if w == 1),
            frozenset(a for a, w in zip(universe, assignment) if w == 2),
        )
        if is_solution(
            l, pair, p,
            oracle_free_limit=oracle_free_limit, subset_sum_limit=subset_sum_limit,
        ):
            found.append(pair)
    return tuple(sorted(found, key=pair_key))


def holds_conditionally(c, i: int, m: int, p: Program) -> bool:
    """``conditionally_satisfies`` for a compiled aggregate of ``p``, with
    ``i`` and ``m`` given as bit masks over ``p.index``."""
    pos = i & m & c.mask
    verdict = _mask_verdict(c, pos, m & c.mask & ~i, DEFAULT_SUBSET_SUM_LIMIT)
    if verdict is None:
        pair = SolutionPair(c.atoms_in(pos), c.atoms_in(c.mask & ~m))
        return is_solution_oracle(c.atom, pair, p)
    return verdict


def conditionally_satisfies(
    i: Interpretation, m: Interpretation, literal, p: Program
) -> bool:
    """Satisfaction of a body literal by ``i`` under the candidate ``m``.

    A plain atom must simply hold in ``i``.  An aggregate atom must have
    the pair <i & m & H, H - m> as a solution: what is already derived
    must guarantee the aggregate no matter which undecided atoms of the
    candidate are derived later.  Monotone in ``i`` for fixed ``m``.
    """
    if isinstance(literal, AggregateAtom):
        index = p.index
        return holds_conditionally(
            index.aggregate(literal), index.mask(i), index.mask(m), p
        )
    return literal in i


def make_subset_sum_instance(values, target: int) -> ScpInstance:
    """Embed a subset-sum question into a solution check.

    The returned pair ``<{}, {}>`` is a solution of ``sum{X : p(X)} !=
    target`` over the universe {p(v) : v in values} exactly when no
    subset of ``values`` (the empty one included) sums to ``target``.
    """
    values = frozenset(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise ValueError("values must be non-negative integers")
    program = Program(
        rules=(),
        constants=values,
        predicates=frozenset({("p", 1)}),
    )
    grouped = Var("X")
    expr = SetExpr(False, grouped, (), Atom("p", (grouped,)))
    atom = AggregateAtom("sum", expr, "!=", target)
    return ScpInstance(program, atom, SolutionPair(frozenset(), frozenset()))
