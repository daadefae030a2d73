"""The compiled form of a ground program, shared by the engine layers.

``Program.index`` builds a ``CompiledProgram`` on first use and keeps it
on the program, so it lives exactly as long as the program does.  Atoms
are interned to bits of Python ints: the Herbrand base first, in
canonical order, then any rule or universe atom outside it (only a
hand-built program whose signature misses some of its own atoms has
those).  An interpretation becomes a bit mask, and set operations on
interpretations become integer operations.
"""

from __future__ import annotations

from .syntax import (
    AggregateAtom,
    Atom,
    Program,
    SetExpr,
    atom_key,
    herbrand_base,
    sorted_constants,
    universe_atoms,
)


class CompiledAggregate:
    """One ground aggregate atom over its universe.

    ``universe`` holds one ``(bit, atom, grouped value)`` triple per
    universe atom, in canonical order.  ``symbolic`` marks the atoms
    whose grouped value the function cannot take: symbolic constants
    under sum, min, max and avg (count takes any value).
    """

    __slots__ = ("atom", "atoms", "universe", "mask", "symbolic")

    def __init__(self, atom: AggregateAtom, universe: tuple):
        if not isinstance(atom.bound, int):
            raise ValueError(f"aggregate atom {atom} is not ground")
        self.atom = atom
        self.atoms = tuple(a for _, a, _ in universe)
        self.universe = universe
        self.mask = 0
        self.symbolic = 0
        for b, _, value in self.universe:
            self.mask |= b
            if atom.func != "count" and not isinstance(value, int):
                self.symbolic |= b

    def first_atom(self, mask: int) -> Atom:
        """The canonically first universe atom in ``mask``."""
        return next(a for b, a, _ in self.universe if b & mask)


class CompiledProgram:
    """Bit-interned atoms, rules and aggregates of one ground program.

    * ``atoms[k]`` is the atom of bit ``1 << k`` and ``bit`` inverts it;
      the Herbrand base comes first.
    * ``rules`` holds ``(head bit, pos mask, neg mask, aggregates)`` per
      rule, in program order, with the aggregates compiled.
    * ``heads`` lists the atoms that head some rule, in canonical order:
      every answer set is a subset of them, being the least fixpoint of
      its own reduct.
    * ``solutions`` maps ``(aggregate atom, budgets)`` to the aggregate's
      solutions once ``altsem`` has enumerated them.
    """

    def __init__(self, p: Program):
        self.atoms: list[Atom] = list(herbrand_base(p))
        self.bit = {a: 1 << k for k, a in enumerate(self.atoms)}
        self._domain = sorted_constants(p)
        self._universes: dict[SetExpr, tuple] = {}
        self._aggregates: dict[AggregateAtom, CompiledAggregate] = {}
        rules = []
        head_mask = 0
        for r in p.rules:
            head = self._intern(r.head)
            head_mask |= head
            pos = neg = 0
            for a in r.pos:
                pos |= self._intern(a)
            for a in r.neg:
                neg |= self._intern(a)
            aggs = tuple(self._compile(c, self._intern) for c in r.agg)
            rules.append((head, pos, neg, aggs))
        self.rules = tuple(rules)
        self.heads = tuple(sorted(self.atoms_of(head_mask), key=atom_key))
        self.solutions: dict = {}

    def _intern(self, a: Atom) -> int:
        b = self.bit.get(a)
        if b is None:
            b = self.bit[a] = 1 << len(self.atoms)
            self.atoms.append(a)
        return b

    def _compile(self, atom: AggregateAtom, bit_of) -> CompiledAggregate:
        compiled = self._aggregates.get(atom)
        if compiled is None:
            expr = atom.set_expr
            universe = self._universes.get(expr)
            if universe is None:
                position = expr.grouped_position
                universe = self._universes[expr] = tuple(
                    (bit_of(a), a, a.args[position])
                    for a in universe_atoms(expr, self._domain)
                )
            compiled = self._aggregates[atom] = CompiledAggregate(atom, universe)
        return compiled

    def _known_bit(self, a: Atom) -> int:
        b = self.bit.get(a)
        if b is None:
            raise ValueError(f"atom {a} lies outside the program")
        return b

    def aggregate(self, atom: AggregateAtom) -> CompiledAggregate:
        """The compiled form of ``atom``.  One the rules do not contain is
        compiled on first request and kept with the program too."""
        return self._compile(atom, self._known_bit)

    def mask(self, atoms) -> int:
        """The bit mask of ``atoms``; atoms the program never mentions
        cannot affect it and are left out."""
        bit = self.bit
        m = 0
        for a in atoms:
            m |= bit.get(a, 0)
        return m

    def atoms_of(self, mask: int) -> frozenset:
        atoms = self.atoms
        out = []
        while mask:
            low = mask & -mask
            out.append(atoms[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)
