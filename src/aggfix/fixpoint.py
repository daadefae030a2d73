"""Fixpoint answer sets of ground programs with aggregates.

The reduct of a program w.r.t. a candidate keeps the rules whose
negative body the candidate avoids and strips the negation, leaving
aggregates in place.  The consequence operator collects the heads of
reduct rules whose bodies are conditionally satisfied; it is monotone
for a fixed candidate, so iterating from the empty set climbs to a
least fixpoint in at most |herbrand base| steps.  A candidate is an
answer set exactly when it equals that least fixpoint.

The iteration runs on bit masks over the program's compiled index
(``Program.index``); the public functions take and return frozensets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import Budgets, LimitExceeded
from .evaluate import Interpretation, is_model
from .solutions import holds_conditionally
from .syntax import Atom, Program, Rule

# Not called here, but imported by name like the functions above so
# that perfbench/layers.py, which rebinds each of them in this
# namespace, finds them.
from .solutions import conditionally_satisfies  # noqa: F401
from .syntax import herbrand_base  # noqa: F401


@dataclass(frozen=True)
class FixpointTrace:
    """Successive stages of the consequence iteration, from the empty
    set up to and including the first repeated stage."""

    stages: tuple[Interpretation, ...]

    @property
    def fixpoint(self) -> Interpretation:
        return self.stages[-1]

    @property
    def converged(self) -> bool:
        return len(self.stages) >= 2 and self.stages[-1] == self.stages[-2]

    @property
    def distinct_stages(self) -> tuple[Interpretation, ...]:
        if self.converged:
            return self.stages[:-1]
        return self.stages


def reduct(p: Program, m: Interpretation) -> Program:
    kept = tuple(
        Rule(r.head, r.pos, (), r.agg)
        for r in p.rules
        if not any(b in m for b in r.neg)
    )
    return Program(kept, p.constants, p.predicates)


def _reduct_rules(index, m: int) -> list:
    """``(head, pos, aggregates)`` of the compiled rules the reduct keeps."""
    return [(head, pos, aggs) for head, pos, neg, aggs in index.rules if not neg & m]


def _consequences(rules, m: int, i: int, sum_limit: int) -> int:
    """One step of the consequence operator, on bit masks."""
    heads = 0
    for head, pos, aggs in rules:
        if heads & head or pos & ~i:
            continue
        if all(holds_conditionally(c, i, m, sum_limit) for c in aggs):
            heads |= head
    return heads


def apply_consequence(
    p: Program, m: Interpretation, i: Interpretation, budgets: Budgets = Budgets()
) -> Interpretation:
    """One application of the consequence operator for candidate ``m``."""
    index = p.index
    mm = index.mask(m)
    rules = _reduct_rules(index, mm)
    return index.atoms_of(_consequences(rules, mm, index.mask(i), budgets.sum))


def least_fixpoint(
    p: Program, m: Interpretation, budgets: Budgets = Budgets()
) -> FixpointTrace:
    index = p.index
    mm = index.mask(m)
    rules = _reduct_rules(index, mm)
    stages = [0]
    while True:
        nxt = _consequences(rules, mm, stages[-1], budgets.sum)
        stages.append(nxt)
        if nxt == stages[-2]:
            return FixpointTrace(tuple(index.atoms_of(s) for s in stages))


def is_fixpoint_answer_set(
    p: Program, m: Interpretation, budgets: Budgets = Budgets()
) -> tuple[bool, FixpointTrace]:
    trace = least_fixpoint(p, m, budgets)
    return trace.fixpoint == m, trace


def subsets(atoms: tuple[Atom, ...], budgets: Budgets):
    """Every subset of ``atoms`` (given in canonical order) as a
    frozenset, smallest first and lexicographic within a size, which is
    ``interpretation_key`` order.  Raises LimitExceeded at once when
    there are more than ``budgets.candidates`` subsets."""
    if 2 ** len(atoms) > budgets.candidates:
        raise LimitExceeded(
            f"sweeping 2**{len(atoms)} candidates exceeds the budget of "
            f"{budgets.candidates}"
        )
    return (
        frozenset(combo)
        for size in range(len(atoms) + 1)
        for combo in itertools.combinations(atoms, size)
    )


def enumerate_answer_sets(
    p: Program, budgets: Budgets = Budgets()
) -> tuple[Interpretation, ...]:
    """All fixpoint answer sets, in size-then-lexicographic order.

    An answer set is the least fixpoint of its own reduct, so it holds
    rule-head atoms only: the sweep visits every subset of the head
    atoms, and ``budgets.candidates`` bounds their number,
    2**|head atoms|.  This is
    a desk-scale tool.  Candidates that are not models are skipped
    without running the fixpoint iteration (every answer set is a
    model).
    """
    return tuple(
        m
        for m in subsets(p.index.heads, budgets)
        if is_model(m, p) and is_fixpoint_answer_set(p, m, budgets)[0]
    )
