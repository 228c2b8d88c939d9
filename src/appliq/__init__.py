"""appliq: a multi-backend compiler and evaluator for a small
applicative core language.

The same source term can be reduced directly (beta/delta rules),
compiled to {I, K, S} combinators, compiled to categorical-combinator
code evaluated by closure, or lambda-lifted into a supercombinator
program — all four agree on integer results.  A simply-typed inferencer
rounds the toolkit out.
"""

from .cam import (
    CatCode,
    cam_compile,
    cam_eval_closure,
    cam_step,
    expand_abbreviations,
    print_cat,
)
from .debruijn import decode, encode, print_dterm
from .reduction import (
    EvalConfig,
    Outcome,
    Status,
    Strategy,
    beta_step,
    delta_step,
    eta_step,
    reduce,
)
from .ski import (
    CombTerm,
    Mode,
    bracket_abstract,
    print_comb,
    ski_compile,
    ski_reduce,
    ski_step,
)
from .superc import (
    Classification,
    ScDef,
    ScProgram,
    classify,
    lift,
    parse_program,
    print_program,
    sc_reduce,
)
from .syntax import (
    App,
    Const,
    FreeVariableError,
    IntLit,
    Lam,
    PairLit,
    ParseError,
    Term,
    Var,
    alpha_eq,
    desugar_pairs,
    free_vars,
    fresh_var,
    parse,
    print_term,
    resugar_pairs,
    subst,
)
from .types import (
    Arrow,
    Base,
    TVar,
    Type,
    TypeInferenceError,
    check_typed_term,
    infer,
    type_to_str,
    unify,
)

__version__ = "0.1.0"
