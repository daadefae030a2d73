"""Answer sets for logic programs with aggregate atoms.

The package parses a small aggregate-extended rule language, grounds
it, decides aggregate-atom solutions with polynomial case checkers (and
a brute-force oracle alongside), computes answer sets as least
fixpoints of a conditional-satisfaction consequence operator, and
cross-checks those against FLP, unfolding, translation, and naive
reduction semantics.
"""

from .errors import (
    AggfixError,
    LimitExceeded,
    NonIntegerElement,
    ParseError,
    SemanticsViolation,
)
from .syntax import (
    AggregateAtom,
    Atom,
    Program,
    Rule,
    SetExpr,
    Var,
    atom_universe,
    ground_program,
    herbrand_base,
    make_program,
    parse_atom_list,
    parse_program,
    render_interpretation,
    render_program,
    render_rule,
)
from .evaluate import (
    Interpretation,
    eval_aggregate_atom,
    eval_set_expression,
    is_minimal_model,
    is_model,
    satisfies_body,
)
from .solutions import (
    ScpInstance,
    SolutionPair,
    conditionally_satisfies,
    enumerate_solutions,
    is_solution,
    is_solution_oracle,
    make_subset_sum_instance,
)
from .fixpoint import (
    FixpointTrace,
    apply_consequence,
    enumerate_answer_sets,
    is_fixpoint_answer_set,
    least_fixpoint,
    reduct,
)
from .altsem import (
    NormalProgram,
    SemanticsReport,
    compare_programs,
    flp_reduct,
    gl_answer_check,
    is_flp_answer_set,
    is_naive_answer_set,
    is_unfolding_answer_set,
    naive_gl_reduct,
    semantics_report,
    solutions_satisfied_by,
    translate_tr,
    unfold,
)
from .harness import GenParams, SplitMix64, generate_program, generate_scp_instance

__version__ = "0.1.0"
