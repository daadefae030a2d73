"""Input language: abstract syntax, parser, renderer, and grounder.

The language is a normal-logic-program dialect extended with aggregate
atoms over intensional sets and multisets:

    p(1). p(2).
    big :- sum{X : p(X)} > 2.
    q(X) :- p(X), not r(X).
    crowded :- count{{X : edge(X, Z)}} >= 3.
    #const a b 7.

One statement per ``.``; ``%`` starts a line comment.  Single braces
delimit an intensional set (``{X : p(X)}``, distinct values), double
braces a multiset (``{{X : q(X, Z)}}``, one occurrence per true ground
instance).  The variable before ``:`` is the grouped variable and must
occur exactly once in the pattern.  Inside a multiset every other
pattern variable is local (implicitly existentially quantified); inside
a set every other pattern variable is global and gets instantiated by
grounding, as do variables in plain atoms and aggregate bounds.  A
``#const`` statement enlarges the signature without writing facts.

The signature constants of a program are the constants occurring as
term arguments anywhere in its rules plus any ``#const`` declarations.
Aggregate bounds do not contribute: the bound is a comparison value,
not a Herbrand term, and atom universes must not grow just because a
threshold was mentioned.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Union

from .errors import ParseError

AGGREGATE_FUNCTIONS = ("sum", "count", "min", "max", "avg")
COMPARISON_OPS = ("=", "!=", "<", ">", "<=", ">=")


@dataclass(frozen=True)
class Var:
    """A variable; identifiers starting with an uppercase letter."""

    name: str

    def __str__(self) -> str:
        return self.name


# Ground terms are plain Python values: int for integer constants and
# str for symbolic constants.  Variables get their own node type.
Constant = Union[int, str]
Term = Union[int, str, Var]


def term_key(t: Term):
    """Canonical ordering: integers, then symbolic constants, then variables."""
    if isinstance(t, bool):
        raise TypeError("bool is not a term")
    if isinstance(t, int):
        return (0, t, "")
    if isinstance(t, str):
        return (1, 0, t)
    return (2, 0, t.name)


def render_term(t: Term) -> str:
    return str(t)


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({','.join(render_term(t) for t in self.args)})"

    @property
    def is_ground(self) -> bool:
        return not any(isinstance(t, Var) for t in self.args)


def atom_key(a: Atom):
    return (a.pred, len(a.args), tuple(term_key(t) for t in a.args))


@dataclass(frozen=True)
class SetExpr:
    """An intensional set (``multiset=False``) or multiset pattern."""

    multiset: bool
    grouped: Var
    local_vars: tuple[Var, ...]
    pattern: Atom

    def __post_init__(self):
        occurrences = [t for t in self.pattern.args if t == self.grouped]
        if len(occurrences) != 1:
            raise ValueError(
                f"grouped variable {self.grouped} must occur exactly once "
                f"in {self.pattern}"
            )
        if not self.multiset and self.local_vars:
            raise ValueError("a set pattern cannot carry local variables")
        seen = set()
        for v in self.local_vars:
            if v == self.grouped or v in seen:
                raise ValueError(f"bad local variable {v}")
            if v not in self.pattern.args:
                raise ValueError(f"local variable {v} does not occur in pattern")
            seen.add(v)

    @property
    def grouped_position(self) -> int:
        return self.pattern.args.index(self.grouped)

    def __str__(self) -> str:
        inner = f"{self.grouped} : {self.pattern}"
        return f"{{{{{inner}}}}}" if self.multiset else f"{{{inner}}}"


@dataclass(frozen=True)
class AggregateAtom:
    func: str
    set_expr: SetExpr
    op: str
    bound: Union[int, Var]

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCTIONS:
            raise ValueError(f"unknown aggregate function {self.func!r}")
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        if isinstance(self.bound, bool) or not isinstance(self.bound, (int, Var)):
            raise ValueError("bound must be an integer or a variable")

    def __str__(self) -> str:
        return f"{self.func}{self.set_expr} {self.op} {render_term(self.bound)}"


@dataclass(frozen=True)
class Rule:
    head: Atom
    pos: tuple[Atom, ...] = ()
    neg: tuple[Atom, ...] = ()
    agg: tuple[AggregateAtom, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not (self.pos or self.neg or self.agg)

    def __str__(self) -> str:
        return render_rule(self)


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...]
    constants: frozenset
    predicates: frozenset

    def __str__(self) -> str:
        return render_program(self)

    @cached_property
    def index(self):
        """The ``CompiledProgram`` the engine runs on, built on first use.

        It assumes a ground program; the printer and the generator never
        touch it.
        """
        from .compiled import CompiledProgram  # compiled imports this module

        return CompiledProgram(self)


# When grounding, a substitution maps global variables to constants.
Substitution = dict


def make_program(rules, extra_constants=(), extra_predicates=()) -> Program:
    """Build a Program, inferring the signature from the rules."""
    rules = tuple(rules)
    constants = set(extra_constants)
    predicates = set(extra_predicates)
    for rule in rules:
        for atom in _rule_atoms(rule):
            predicates.add((atom.pred, len(atom.args)))
            constants.update(t for t in atom.args if not isinstance(t, Var))
    return Program(rules, frozenset(constants), frozenset(predicates))


def _rule_atoms(rule: Rule) -> Iterator[Atom]:
    yield rule.head
    yield from rule.pos
    yield from rule.neg
    for agg in rule.agg:
        yield agg.set_expr.pattern


def atom_vars(atom: Atom) -> Iterator[Var]:
    for t in atom.args:
        if isinstance(t, Var):
            yield t


def rule_global_vars(rule: Rule) -> tuple[Var, ...]:
    """Variables instantiated by grounding, in first-occurrence order.

    Grouped and local variables are scoped to their aggregate atom and
    excluded; everything else (head, body atoms, bounds, set-pattern
    positions outside the scoped ones) is global.
    """
    seen: dict[Var, None] = {}
    for atom in (rule.head, *rule.pos, *rule.neg):
        for v in atom_vars(atom):
            seen.setdefault(v, None)
    for agg in rule.agg:
        scoped = {agg.set_expr.grouped, *agg.set_expr.local_vars}
        for v in atom_vars(agg.set_expr.pattern):
            if v not in scoped:
                seen.setdefault(v, None)
        if isinstance(agg.bound, Var):
            seen.setdefault(agg.bound, None)
    return tuple(seen)


def is_ground_rule(rule: Rule) -> bool:
    return not rule_global_vars(rule)


def is_ground_program(p: Program) -> bool:
    return all(is_ground_rule(r) for r in p.rules)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>[ \t\r]+)
    | (?P<NL>\n)
    | (?P<COMMENT>%[^\n]*)
    | (?P<CONSTDECL>\#const\b)
    | (?P<IMPL>:-)
    | (?P<LBRACE2>\{\{)
    | (?P<RBRACE2>\}\})
    | (?P<LBRACE>\{)
    | (?P<RBRACE>\})
    | (?P<LPAR>\()
    | (?P<RPAR>\))
    | (?P<COMMA>,)
    | (?P<DOT>\.)
    | (?P<COLON>:)
    | (?P<OP><=|>=|!=|≤|≥|≠|=|<|>)
    | (?P<INT>-?\d+)
    | (?P<IDENT>[a-z_][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_OP_ALIASES = {"≤": "<=", "≥": ">=", "≠": "!="}


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        value = m.group()
        if kind == "NL":
            line += 1
            line_start = m.end()
        elif kind not in ("WS", "COMMENT"):
            if kind == "OP":
                value = _OP_ALIASES.get(value, value)
            tokens.append(_Token(kind, value, line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.rules: list[Rule] = []
        self.constants: set[Constant] = set()
        self.arities: dict[str, tuple[int, _Token]] = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.advance()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, tok.line, tok.column)

    def parse_program(self) -> Program:
        while self.peek().kind != "EOF":
            if self.peek().kind == "CONSTDECL":
                self.parse_const_decl()
            else:
                self.parse_rule()
        predicates = frozenset(
            (name, arity) for name, (arity, _) in self.arities.items()
        )
        return Program(tuple(self.rules), frozenset(self.constants), predicates)

    def parse_const_decl(self):
        self.advance()
        while self.peek().kind != "DOT":
            tok = self.advance()
            if tok.kind == "INT":
                self.constants.add(int(tok.text))
            elif tok.kind == "IDENT":
                self.constants.add(tok.text)
            else:
                self.fail("expected a constant in #const declaration", tok)
        self.advance()

    def parse_rule(self):
        head = self.parse_atom()
        pos: list[Atom] = []
        neg: list[Atom] = []
        agg: list[tuple[AggregateAtom, _Token]] = []
        if self.peek().kind == "IMPL":
            self.advance()
            while True:
                self.parse_body_element(pos, neg, agg)
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
        self.expect("DOT", "'.'")
        rule = Rule(head, tuple(pos), tuple(neg), tuple(a for a, _ in agg))
        self.check_variable_scopes(rule, agg)
        self.rules.append(rule)

    def parse_body_element(self, pos, neg, agg):
        tok = self.peek()
        if tok.kind == "IDENT" and tok.text == "not":
            self.advance()
            neg.append(self.parse_atom())
        elif (
            tok.kind == "IDENT"
            and tok.text in AGGREGATE_FUNCTIONS
            and self.peek(1).kind in ("LBRACE", "LBRACE2")
        ):
            agg.append(self.parse_aggregate())
        else:
            pos.append(self.parse_atom())

    def parse_atom(self) -> Atom:
        name = self.expect("IDENT", "a predicate name")
        args: list[Term] = []
        if self.peek().kind == "LPAR":
            self.advance()
            while True:
                args.append(self.parse_term())
                if self.peek().kind == "COMMA":
                    self.advance()
                    continue
                break
            self.expect("RPAR", "')'")
        known = self.arities.get(name.text)
        if known is not None and known[0] != len(args):
            self.fail(
                f"predicate {name.text}/{len(args)} clashes with earlier use "
                f"{name.text}/{known[0]}",
                name,
            )
        self.arities.setdefault(name.text, (len(args), name))
        return Atom(name.text, tuple(args))

    def parse_term(self) -> Term:
        tok = self.advance()
        if tok.kind == "INT":
            value: Term = int(tok.text)
            self.constants.add(value)
        elif tok.kind == "IDENT":
            value = tok.text
            self.constants.add(value)
        elif tok.kind == "VAR":
            value = Var(tok.text)
        else:
            self.fail("expected a term", tok)
        return value

    def parse_aggregate(self) -> tuple[AggregateAtom, _Token]:
        func = self.advance()
        opener = self.advance()
        multiset = opener.kind == "LBRACE2"
        grouped = Var(self.expect("VAR", "the grouped variable").text)
        self.expect("COLON", "':'")
        pattern = self.parse_atom()
        self.expect("RBRACE2" if multiset else "RBRACE", "closing braces")
        op = self.expect("OP", "a comparison operator").text
        bound_tok = self.advance()
        if bound_tok.kind == "INT":
            bound: Union[int, Var] = int(bound_tok.text)
        elif bound_tok.kind == "VAR":
            bound = Var(bound_tok.text)
        else:
            self.fail("expected an integer or variable bound", bound_tok)

        if sum(1 for t in pattern.args if t == grouped) != 1:
            self.fail(
                f"grouped variable {grouped} must occur exactly once in the pattern",
                opener,
            )
        local_vars: tuple[Var, ...] = ()
        if multiset:
            seen: dict[Var, None] = {}
            for v in atom_vars(pattern):
                if v != grouped:
                    seen.setdefault(v, None)
            local_vars = tuple(seen)
        expr = SetExpr(multiset, grouped, local_vars, pattern)
        return AggregateAtom(func.text, expr, op, bound), opener

    def check_variable_scopes(self, rule: Rule, agg_tokens):
        global_names = {v.name for v in rule_global_vars(rule)}
        for aggregate, tok in agg_tokens:
            scoped = (aggregate.set_expr.grouped, *aggregate.set_expr.local_vars)
            for v in scoped:
                if v.name in global_names:
                    self.fail(
                        f"variable {v} is scoped to an aggregate but also "
                        "used globally in the same rule",
                        tok,
                    )


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError with a source position."""
    return _Parser(text).parse_program()


def parse_atom_list(text: str) -> frozenset:
    """Parse a comma-separated list of ground atoms, e.g. ``p(1), q``."""
    tokens = _tokenize(text)
    if tokens[0].kind == "EOF":
        return frozenset()
    parser = _Parser("")
    parser.tokens = tokens
    parser.index = 0
    atoms = []
    while True:
        atom = parser.parse_atom()
        if not atom.is_ground:
            raise ParseError(f"atom {atom} is not ground")
        atoms.append(atom)
        if parser.peek().kind == "COMMA":
            parser.advance()
            continue
        break
    tok = parser.peek()
    if tok.kind != "EOF":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return frozenset(atoms)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_atom(a: Atom) -> str:
    return str(a)


def render_rule(rule: Rule) -> str:
    head = render_atom(rule.head)
    parts = [render_atom(a) for a in rule.pos]
    parts += [str(a) for a in rule.agg]
    parts += [f"not {render_atom(a)}" for a in rule.neg]
    if not parts:
        return f"{head}."
    return f"{head} :- {', '.join(parts)}."


def render_program(p: Program) -> str:
    """Render to concrete syntax; ``parse_program`` inverts this exactly."""
    syntactic: set[Constant] = set()
    for rule in p.rules:
        for atom in _rule_atoms(rule):
            syntactic.update(t for t in atom.args if not isinstance(t, Var))
    lines = []
    extra = sorted(p.constants - syntactic, key=term_key)
    if extra:
        lines.append(f"#const {' '.join(render_term(c) for c in extra)}.")
    lines.extend(render_rule(r) for r in p.rules)
    return "\n".join(lines) + ("\n" if lines else "")


def render_interpretation(atoms) -> str:
    return "{" + ", ".join(str(a) for a in sorted(atoms, key=atom_key)) + "}"


def interpretation_key(atoms):
    """Size-then-lexicographic ordering for sets of ground atoms."""
    return (len(atoms), tuple(sorted(atom_key(a) for a in atoms)))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

def substitute_atom(atom: Atom, subst: Substitution) -> Atom:
    return Atom(
        atom.pred,
        tuple(subst.get(t, t) if isinstance(t, Var) else t for t in atom.args),
    )


def substitute_rule(rule: Rule, subst: Substitution) -> Rule:
    new_agg = []
    for agg in rule.agg:
        expr = agg.set_expr
        scoped = {expr.grouped, *expr.local_vars}
        narrowed = {v: c for v, c in subst.items() if v not in scoped}
        new_expr = SetExpr(
            expr.multiset,
            expr.grouped,
            expr.local_vars,
            substitute_atom(expr.pattern, narrowed),
        )
        bound = agg.bound
        if isinstance(bound, Var):
            bound = subst.get(bound, bound)
        new_agg.append(AggregateAtom(agg.func, new_expr, agg.op, bound))
    return Rule(
        substitute_atom(rule.head, subst),
        tuple(substitute_atom(a, subst) for a in rule.pos),
        tuple(substitute_atom(a, subst) for a in rule.neg),
        tuple(new_agg),
    )


def sorted_constants(p: Program) -> tuple[Constant, ...]:
    return tuple(sorted(p.constants, key=term_key))


def ground_program(p: Program) -> Program:
    """Instantiate global variables over the signature constants.

    Instances whose aggregate bound grounds to a symbolic constant are
    dropped (the comparison would be undefined).  Grounding an already
    ground program returns it unchanged.
    """
    domain = sorted_constants(p)
    ground_rules: list[Rule] = []
    for rule in p.rules:
        gvars = rule_global_vars(rule)
        if not gvars:
            ground_rules.append(rule)
            continue
        for combo in itertools.product(domain, repeat=len(gvars)):
            subst = dict(zip(gvars, combo))
            if any(
                isinstance(a.bound, Var) and not isinstance(subst[a.bound], int)
                for a in rule.agg
            ):
                continue
            ground_rules.append(substitute_rule(rule, subst))
    return Program(tuple(ground_rules), p.constants, p.predicates)


def universe_atoms(expr: SetExpr, domain: tuple[Constant, ...]) -> tuple[Atom, ...]:
    """Instantiations of a ground set expression's pattern over ``domain``,
    in canonical order."""
    fill = tuple(dict.fromkeys(atom_vars(expr.pattern)))
    scoped = {expr.grouped, *expr.local_vars}
    if any(v not in scoped for v in fill):
        raise ValueError(f"set expression {expr} is not ground")
    atoms = [
        substitute_atom(expr.pattern, dict(zip(fill, combo)))
        for combo in itertools.product(domain, repeat=len(fill))
    ]
    return tuple(sorted(atoms, key=atom_key))


def atom_universe(aggregate: AggregateAtom, p: Program) -> tuple[Atom, ...]:
    """All instantiations of the pattern over the signature constants.

    This is the universe the aggregate atom can observe: its truth value
    under any interpretation depends only on the intersection with it.
    Returned in canonical order, from the program's compiled index.
    """
    return p.index.aggregate(aggregate).atoms


def herbrand_base(p: Program) -> tuple[Atom, ...]:
    """All ground atoms over the program's predicates and constants."""
    domain = sorted_constants(p)
    atoms = []
    for pred, arity in sorted(p.predicates):
        for combo in itertools.product(domain, repeat=arity):
            atoms.append(Atom(pred, combo))
    return tuple(sorted(atoms, key=atom_key))
