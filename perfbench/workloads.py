"""Seeded inputs of the four benchmark workloads.

A benchmark seed selects one *slice* of a workload: a fixed, contiguous
range of generator seeds and the ops built from it.  Slices are numbered
modulo ``SLICES`` (any ten consecutive seeds give ten different slices),
and every slice has committed expected outputs under ``expected/``.

Each op is one ``aggfix`` command line.  An op whose ``from_lfp`` is set
takes its candidate from the ``lfp`` field of the preceding op's JSON
output: ``check-large`` follows each drawn candidate by a check of its
own least fixpoint, so accepting verdicts occur too.

Per-op cost varies tenfold between programs of one generator family, so
a workload keeps many cheap, alike ops rather than a few dear ones: the
run's mean then hardly depends on which slice a seed picks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from aggfix.harness import GenParams, SplitMix64, generate_program
from aggfix.syntax import (
    AGGREGATE_FUNCTIONS,
    COMPARISON_OPS,
    Atom,
    atom_key,
    render_program,
    term_key,
)

SLICES = 10
SEED_STRIDE = 100_000  # slice n starts at generator seed n * SEED_STRIDE

OP_NAMES = {"=": "eq", "!=": "ne", "<": "lt", ">": "gt", "<=": "le", ">=": "ge"}


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    from_lfp: bool = False


@dataclass
class Inputs:
    """Files to write and ops to run for one slice of one workload."""

    files: dict[str, str] = field(default_factory=dict)  # name -> program text
    ops: list[Op] = field(default_factory=list)
    gen_seeds: tuple[int, int] = (0, 0)  # generator seeds scanned, half-open
    base_atoms: list[int] = field(default_factory=list)  # per file
    rules: list[int] = field(default_factory=list)  # per file

    def add_file(self, name: str, program) -> None:
        self.files[name] = render_program(program)
        self.base_atoms.append(len(base_atoms(program)))
        self.rules.append(len(program.rules))


def base_atoms(program) -> list[Atom]:
    """The Herbrand base, computed here so that set-up fills no engine cache."""
    domain = sorted(program.constants, key=term_key)
    atoms = [
        Atom(pred, combo)
        for pred, arity in program.predicates
        for combo in itertools.product(domain, repeat=arity)
    ]
    return sorted(atoms, key=atom_key)


def _scan(inputs: Inputs, slice_no: int, make_params, count: int, base_size=None):
    """The first ``count`` generated programs from the slice start on,
    with their generator seeds; with ``base_size``, only programs whose
    Herbrand base has that many atoms."""
    seed = start = slice_no * SEED_STRIDE
    kept = []
    while len(kept) < count:
        program = generate_program(make_params(seed))
        if base_size is None or len(base_atoms(program)) == base_size:
            kept.append((seed, program))
        seed += 1
    inputs.gen_seeds = (start, seed)
    return kept


# ---------------------------------------------------------------------------
# solve-sweep: the candidate sweep on small programs
# ---------------------------------------------------------------------------

SOLVE_PROGRAMS = 850
SOLVE_BASE_ATOMS = 10


def solve_params(seed: int) -> GenParams:
    return GenParams(seed, num_predicates=4, num_rules=10, num_constants=4)


def solve_sweep(slice_no: int) -> Inputs:
    """``solve`` on the family's programs whose base has exactly 10 atoms
    (its most common size): 2**10 candidates each."""
    inputs = Inputs()
    kept = _scan(inputs, slice_no, solve_params, SOLVE_PROGRAMS, SOLVE_BASE_ATOMS)
    for seed, program in kept:
        name = f"g{seed}.lp"
        inputs.add_file(name, program)
        inputs.ops.append(Op(name, ("solve", "--format", "json", name)))
    return inputs


# ---------------------------------------------------------------------------
# check-large: the fixpoint and the checker on 80-rule programs
# ---------------------------------------------------------------------------

CHECK_PROGRAMS = 315
CHECK_DRAWS = 2  # drawn candidates per program, each followed by its lfp
CHECK_KEEP_PERMILLE = 500
# avg is left out: an avg != aggregate falls back to the exponential
# oracle, and the few such checks (0.3-1.3 s each, against 17 ms for the
# rest) would decide a run's mean.  solutions-enum measures that case.
CHECK_FUNCTIONS = ("sum", "count", "min", "max")


def check_params(seed: int) -> GenParams:
    return GenParams(
        seed, num_predicates=6, max_arity=2, num_constants=5, num_rules=80,
        allowed_functions=CHECK_FUNCTIONS,
    )


def check_large(slice_no: int) -> Inputs:
    inputs = Inputs()
    for seed, program in _scan(inputs, slice_no, check_params, CHECK_PROGRAMS):
        name = f"g{seed}.lp"
        inputs.add_file(name, program)
        base = base_atoms(program)
        rng = SplitMix64(seed)
        argv = ("check", "--format", "json", name, "-m")
        for draw in range(CHECK_DRAWS):
            picked = [str(a) for a in base if rng.chance(CHECK_KEEP_PERMILLE)]
            inputs.ops.append(Op(f"{name}#{draw}", argv + (",".join(picked),)))
            inputs.ops.append(Op(f"{name}#{draw}.lfp", argv, from_lfp=True))
    return inputs


# ---------------------------------------------------------------------------
# solutions-enum: the per-(function, operator) checker
# ---------------------------------------------------------------------------

SOLUTION_VALUES = 7
SOLUTION_ROUNDS = 10
VALUE_RANGE = (-6, 9)
CASES = [(f, o) for f in AGGREGATE_FUNCTIONS for o in COMPARISON_OPS]


def solutions_file(seed: int, func: str, op: str) -> str:
    """``h :- f{X : p(X)} op b.`` over seeded distinct integers."""
    rng = SplitMix64(seed)
    values: list[int] = []
    while len(values) < SOLUTION_VALUES:
        v = rng.randint(*VALUE_RANGE)
        if v not in values:
            values.append(v)
    if func == "count":
        bound = rng.randint(0, SOLUTION_VALUES)
    elif func == "sum":
        bound = sum(rng.choice(values) for _ in range(3))
    else:
        bound = rng.choice(values)
    consts = " ".join(str(v) for v in sorted(values))
    return f"#const {consts}.\nh :- {func}{{X : p(X)}} {op} {bound}.\n"


def solutions_enum(slice_no: int) -> Inputs:
    """Rounds of one file per (function, operator) case, each op
    sweeping 3**7 pairs; every round draws new values."""
    inputs = Inputs()
    seed = start = slice_no * SEED_STRIDE
    for rnd in range(SOLUTION_ROUNDS):
        for func, op in CASES:
            name = f"r{rnd}_{func}_{OP_NAMES[op]}.lp"
            inputs.files[name] = solutions_file(seed, func, op)
            inputs.base_atoms.append(SOLUTION_VALUES + 1)
            inputs.rules.append(1)
            inputs.ops.append(Op(name, ("solutions", "--format", "json", name)))
            seed += 1
    inputs.gen_seeds = (start, seed)
    return inputs


# ---------------------------------------------------------------------------
# compare-corpus: every semantics on the criterion-6 corpus
# ---------------------------------------------------------------------------

COMPARE_PROGRAMS = 660
COMPARE_BASE_ATOMS = 7


def compare_params(seed: int) -> GenParams:
    return GenParams(seed)


def compare_corpus(slice_no: int) -> Inputs:
    """``compare --all`` on the default family's programs whose base has
    exactly 7 atoms (with 5, its most common size): 2**7 candidates."""
    inputs = Inputs()
    kept = _scan(inputs, slice_no, compare_params, COMPARE_PROGRAMS, COMPARE_BASE_ATOMS)
    for seed, program in kept:
        name = f"g{seed}.lp"
        inputs.add_file(name, program)
        inputs.ops.append(Op(name, ("compare", "--format", "json", name, "--all")))
    return inputs


WHY = {
    "solve-sweep": "solve on 10-atom-base programs: the 2**n candidate sweep (is_model, "
    "least_fixpoint) does most of the work; many small programs",
    "check-large": "check on 80-rule programs: no search, few candidates on big programs, "
    "so the fixpoint, the checker and hashing the program dominate",
    "solutions-enum": "solutions on one aggregate per (function, operator) case, 3**7 pairs "
    "each: the checker itself, incl. sum != subset-sum and the avg != oracle",
    "compare-corpus": "compare --all on the criterion-6 family (7-atom bases): the only "
    "workload that runs altsem (tr, unfolding, FLP) and the second candidate loop",
}

WORKLOADS = {
    "solve-sweep": solve_sweep,
    "check-large": check_large,
    "solutions-enum": solutions_enum,
    "compare-corpus": compare_corpus,
}


def build(workload: str, seed: int) -> Inputs:
    return WORKLOADS[workload](seed % SLICES)


def write(inputs: Inputs, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in inputs.files.items():
        (directory / name).write_text(text, encoding="utf-8")
