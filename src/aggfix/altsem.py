"""Alternative semantics and cross-semantics comparison.

Besides the fixpoint semantics this module implements, for ground
programs with aggregates:

* naive reduction: treat aggregate atoms exactly like negative
  literals, deleting rules whose aggregate fails in the candidate and
  stripping the rest.  Accepts self-supporting candidates and is kept
  as the cautionary baseline.
* FLP semantics: keep the rules whose whole body the candidate
  satisfies and ask for a minimal model of that reduct.
* unfolding: replace each aggregate atom by the positive part of one
  of its candidate-compatible solutions, in every combination, then run
  the classical reduct check on the resulting aggregate-free program.
* solution translation ``tr``: candidate-independent compilation that
  expands each aggregate atom into one rule per solution, adding the
  solution's positive part to the body and its negative part as
  negation; classical answer sets of the translation coincide with
  fixpoint answer sets.

The expected relations (unfolding and tr both equivalent to fixpoint,
fixpoint implying FLP) are asserted by the comparison driver, which
raises SemanticsViolation if an engine bug ever breaks them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SemanticsViolation
from .evaluate import (
    DEFAULT_SUBSET_LIMIT,
    Interpretation,
    eval_aggregate_atom,
    is_minimal_model,
    satisfies_body,
)
from .fixpoint import DEFAULT_CANDIDATE_LIMIT, is_fixpoint_answer_set, subsets
from .solutions import (
    DEFAULT_ENUM_LIMIT,
    SolutionPair,
    enumerate_solutions,
)
from .syntax import (
    AggregateAtom,
    Program,
    Rule,
    atom_key,
    herbrand_base,
    interpretation_key,
)


@dataclass(frozen=True)
class NormalProgram:
    """Aggregate-free rules: heads, positive bodies, negation as failure."""

    rules: tuple[Rule, ...]

    def __post_init__(self):
        for rule in self.rules:
            if rule.agg:
                raise ValueError("normal programs cannot contain aggregates")


def _sorted_atoms(atoms):
    return tuple(sorted(set(atoms), key=atom_key))


def least_model_stages(rules) -> tuple[Interpretation, ...]:
    """Iterated one-step consequences of a definite program, from the
    empty set up to and including the first repeated stage."""
    stages = [frozenset()]
    while True:
        nxt = frozenset(
            r.head for r in rules if all(a in stages[-1] for a in r.pos)
        )
        stages.append(nxt)
        if nxt == stages[-2]:
            return tuple(stages)


def least_model(rules) -> Interpretation:
    return least_model_stages(rules)[-1]


def gl_reduct(np: NormalProgram, m: Interpretation) -> tuple[Rule, ...]:
    return tuple(
        Rule(r.head, r.pos, (), ())
        for r in np.rules
        if not any(b in m for b in r.neg)
    )


def gl_answer_check(np: NormalProgram, m: Interpretation) -> bool:
    """Classical stable-model test for aggregate-free programs."""
    return least_model(gl_reduct(np, m)) == m


# ---------------------------------------------------------------------------
# Naive reduction
# ---------------------------------------------------------------------------

def naive_gl_reduct(p: Program, m: Interpretation) -> NormalProgram:
    kept = []
    for r in p.rules:
        if any(b in m for b in r.neg):
            continue
        if any(not eval_aggregate_atom(c, m, p) for c in r.agg):
            continue
        kept.append(Rule(r.head, r.pos, (), ()))
    return NormalProgram(tuple(kept))


def is_naive_answer_set(p: Program, m: Interpretation) -> bool:
    return least_model(naive_gl_reduct(p, m).rules) == m


# ---------------------------------------------------------------------------
# FLP semantics
# ---------------------------------------------------------------------------

def flp_reduct(p: Program, m: Interpretation) -> Program:
    kept = tuple(r for r in p.rules if satisfies_body(m, r, p))
    return Program(kept, p.constants, p.predicates)


def is_flp_answer_set(
    p: Program, m: Interpretation, subset_limit: int = DEFAULT_SUBSET_LIMIT
) -> bool:
    return is_minimal_model(m, flp_reduct(p, m), limit=subset_limit)


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

def solutions_satisfied_by(
    c: AggregateAtom,
    m: Interpretation,
    p: Program,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> tuple[SolutionPair, ...]:
    """Solutions the candidate is compatible with: positive part already
    in ``m``, negative part disjoint from it."""
    return tuple(
        s
        for s in _all_solutions(c, p, limit)
        if s.p <= m and not (s.n & m)
    )


def _all_solutions(c: AggregateAtom, p: Program, limit: int):
    """The solutions of ``c``, enumerated once and kept in ``p.index``."""
    kept = p.index.solutions
    key = (c, limit)
    if key not in kept:
        kept[key] = enumerate_solutions(c, p, limit=limit)
    return kept[key]


def _dedup_subsume(rules) -> tuple[Rule, ...]:
    """Drop duplicate rules and rules another rule subsumes."""
    unique = tuple(dict.fromkeys(rules))
    kept = []
    for r in unique:
        subsumed = any(
            q != r
            and q.head == r.head
            and set(q.pos) <= set(r.pos)
            and set(q.neg) <= set(r.neg)
            for q in unique
        )
        if not subsumed:
            kept.append(r)
    return tuple(kept)


def unfold(
    p: Program, m: Interpretation, limit: int = DEFAULT_ENUM_LIMIT
) -> NormalProgram:
    out = []
    for r in p.rules:
        if any(b in m for b in r.neg):
            continue
        per_aggregate = []
        for c in r.agg:
            compatible = solutions_satisfied_by(c, m, p, limit=limit)
            if not compatible:
                break
            per_aggregate.append(compatible)
        else:
            for pick in itertools.product(*per_aggregate):
                pos = set(r.pos)
                for s in pick:
                    pos |= s.p
                out.append(
                    Rule(r.head, _sorted_atoms(pos), _sorted_atoms(r.neg), ())
                )
    return NormalProgram(_dedup_subsume(out))


def is_unfolding_answer_set(
    p: Program, m: Interpretation, limit: int = DEFAULT_ENUM_LIMIT
) -> bool:
    return gl_answer_check(unfold(p, m, limit=limit), m)


# ---------------------------------------------------------------------------
# Solution translation
# ---------------------------------------------------------------------------

def translate_tr(p: Program, limit: int = DEFAULT_ENUM_LIMIT) -> NormalProgram:
    """Compile aggregates away, one rule per choice of solutions.

    Each solution contributes its positive part to the rule body and
    its negative part as negation as failure.  An aggregate atom with
    no solutions makes the rule vanish.  The result is independent of
    any candidate; it can be exponentially larger than the input.
    """
    out = []
    for r in p.rules:
        choices = [_all_solutions(c, p, limit) for c in r.agg]
        if any(not option for option in choices):
            continue
        for pick in itertools.product(*choices):
            pos = set(r.pos)
            neg = set(r.neg)
            for s in pick:
                pos |= s.p
                neg |= s.n
            out.append(Rule(r.head, _sorted_atoms(pos), _sorted_atoms(neg), ()))
    return NormalProgram(_dedup_subsume(out))


# ---------------------------------------------------------------------------
# Comparison driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SemanticsReport:
    candidate: Interpretation
    fixpoint: bool
    flp: bool
    unfolding: bool
    naive_gl: bool
    tr: bool

    @property
    def verdicts(self) -> dict[str, bool]:
        return {
            "fixpoint": self.fixpoint,
            "flp": self.flp,
            "unfolding": self.unfolding,
            "naive_gl": self.naive_gl,
            "tr": self.tr,
        }

    @property
    def any_accepted(self) -> bool:
        return any(self.verdicts.values())


def semantics_report(
    p: Program,
    m: Interpretation,
    tr_program: NormalProgram | None = None,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
) -> SemanticsReport:
    if tr_program is None:
        tr_program = translate_tr(p, limit=enum_limit)
    report = SemanticsReport(
        candidate=m,
        fixpoint=is_fixpoint_answer_set(p, m)[0],
        flp=is_flp_answer_set(p, m, subset_limit=subset_limit),
        unfolding=is_unfolding_answer_set(p, m, limit=enum_limit),
        naive_gl=is_naive_answer_set(p, m),
        tr=gl_answer_check(tr_program, m),
    )
    _check_relations(report)
    return report


def _check_relations(r: SemanticsReport):
    problems = []
    if r.fixpoint != r.unfolding:
        problems.append("fixpoint and unfolding verdicts differ")
    if r.fixpoint != r.tr:
        problems.append("fixpoint and translation verdicts differ")
    if r.fixpoint and not r.flp:
        problems.append("fixpoint answer set rejected by FLP")
    if problems:
        raise SemanticsViolation(
            f"candidate {sorted(r.candidate, key=atom_key)}: " + "; ".join(problems)
        )


def compare_programs(
    p: Program,
    candidates=None,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
    enum_limit: int = DEFAULT_ENUM_LIMIT,
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
) -> tuple[SemanticsReport, ...]:
    """Reports for every candidate (default: all herbrand subsets, which
    ``candidate_limit`` bounds), in size-then-lexicographic order.

    Only candidates made of rule-head atoms are evaluated; any other
    gets an all-reject row.  Four of the semantics accept only the least
    model of some reduct, which holds rule heads alone.  FLP asks for a
    minimal model of the rules whose bodies the candidate satisfies, and
    dropping an atom that no rule heads from a model of those rules
    leaves a model.
    """
    if candidates is None:
        candidates = subsets(herbrand_base(p), candidate_limit)
    heads = frozenset(p.index.heads)
    tr_program = translate_tr(p, limit=enum_limit)
    reports = [
        semantics_report(
            p, m, tr_program=tr_program,
            enum_limit=enum_limit, subset_limit=subset_limit,
        )
        if m <= heads
        else SemanticsReport(m, *[False] * 5)
        for m in map(frozenset, candidates)
    ]
    return tuple(sorted(reports, key=lambda r: interpretation_key(r.candidate)))
