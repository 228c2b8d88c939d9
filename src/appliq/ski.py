"""Bracket abstraction into the {I, K, S} basis and a reduction machine
for the resulting combinator terms.

Compiled code is a lambda-free term over the constants ``I``, ``K`` and
``S``; it prints with ``print_term`` and shares the delta rules of
``reduction.delta_step``.  Two abstraction modes exist.  ``naive`` picks
rules purely by shape — identity for the bound variable, the S rule for
any application, K for everything else — which reproduces the classic
worked derivations exactly.  ``optimized`` applies the K rule whenever
the variable is not free in the body, which yields smaller code.  In
both modes a pair value in function position applies via
``[l, r] f = f l r``.
"""

from __future__ import annotations

import enum

from .reduction import (
    REACH,
    TERM_FIELDS,
    Outcome,
    Rules,
    delta_step,
    run,
    step,
    trace_lines,
)
from .syntax import (
    AddCurried,
    AddPair,
    App,
    Combinator,
    Const,
    I,
    K,
    Lam,
    S,
    Term,
    Var,
    desugar_pairs,
    print_term,
)

# Names from before compiled code became a ``Term``.  ``cli`` prints ski
# code through ``print_comb``, so that ski printing has its own entry point.
CombTerm, CConst = Term, Const
print_comb, ski_trace_lines = print_term, trace_lines


class Mode(enum.Enum):
    NAIVE = "naive"
    OPTIMIZED = "optimized"


def bracket_abstract(x: str, body: Term, mode: Mode = Mode.OPTIMIZED) -> Term:
    """Eliminate ``x`` from a lambda-free combinator body.

    The result never contains ``x``.  In both modes the bound variable
    itself maps to I; applications split through S (unconditionally in
    naive mode); anything the K rule covers becomes ``K body``.
    """
    if mode is Mode.OPTIMIZED:
        code = _abstract(x, body)
        return App(K, body) if code is None else code
    if body == Var(x):
        return I
    match body:
        case App(fun, arg):
            return App(App(S, bracket_abstract(x, fun, mode)),
                       bracket_abstract(x, arg, mode))
    return App(K, body)


def _abstract(x: str, body: Term) -> Term | None:
    """Optimized-mode abstraction of ``x`` from ``body``, or None where
    ``x`` does not occur in ``body`` (the caller then uses ``K body``)."""
    kind = type(body)
    if kind is App:
        fun, arg = _abstract(x, body.fun), _abstract(x, body.arg)
        if fun is None and arg is None:
            return None
        return App(App(S, App(K, body.fun) if fun is None else fun),
                   App(K, body.arg) if arg is None else arg)
    if kind is Var and body.name == x:
        return I
    return None


def ski_compile(t: Term, mode: Mode = Mode.OPTIMIZED) -> Term:
    """Compile a term to the combinator basis, eliminating abstractions
    innermost-first.  Pair literals are desugared up front."""

    def go(t: Term) -> Term:
        kind = type(t)
        if kind is Var or kind is Const:
            return t
        if kind is App:
            return App(go(t.fun), go(t.arg))
        if kind is Lam:
            return bracket_abstract(t.binder, go(t.body), mode)
        raise TypeError(f"not a desugared term: {t!r}")

    return go(desugar_pairs(t))


def _rule(t: App, path: list) -> tuple[Term, str] | None:
    """The I/K/S rule for the application ``t``, dispatched on the types
    of the first three nodes of its spine, or the delta rule where a
    constant other than a combinator heads the spine."""
    fun = t.fun
    if type(fun) is Const:
        if type(fun.value) is not Combinator:
            d = delta_step(t)
            return (d, "delta") if d is not None else None
        return (t.arg, "I") if fun is I else None
    if type(fun) is not App:
        return None
    head = fun.fun
    if type(head) is Const:
        if type(head.value) is not Combinator:
            d = delta_step(t)
            return (d, "delta") if d is not None else None
        return (fun.arg, "K") if head is K else None
    if type(head) is App and head.fun is S:
        return App(App(head.arg, t.arg), App(fun.arg, t.arg)), "S"
    return None


def _ignores_binder(t: Term) -> bool:
    """Whether ``t``, compiled from a component of a pair ``\\r. r l r'``,
    ignores ``r``: it is ``K z``, or ``S u v`` with ``u`` and ``v`` alike."""
    if type(t) is not App:
        return False
    return t.fun is K or type(t.fun) is App and t.fun.fun is S and \
        _ignores_binder(t.fun.arg) and _ignores_binder(t.arg)


def _pair_rule(t: App, path: list) -> tuple[Term, str] | None:
    """``+ [l, r] -> [l, r] add`` for a compiled pair ``S (S I x) y`` whose
    components ignore its binder; tried once ``t``'s children hold no
    redex."""
    if type(t.fun) is Const and type(t.fun.value) is AddPair:
        match t.arg:
            case App(App(s1, App(App(s2, i), x)), y) if s1 is S and s2 is S \
                    and i is I and _ignores_binder(x) and _ignores_binder(y):
                return App(t.arg, Const(AddCurried())), "pair"
    return None


# Compiled code is searched through its applications only.
_FIELDS = {App: TERM_FIELDS[App]}


def _rules() -> Rules:
    return Rules(_FIELDS, before=_rule, after=_pair_rule, reach=REACH)


def ski_step(t: Term) -> Term | None:
    """Contract the leftmost-outermost I/K/S/delta/pair redex, if any."""
    return step(t, _rules())


def ski_reduce(t: Term, max_steps: int = 10000,
               collect_trace: bool = False) -> Outcome:
    return run(t, _rules(), max_steps, collect_trace)


def comb_size(t: Term) -> int:
    """Number of application nodes."""
    match t:
        case App(fun, arg):
            return 1 + comb_size(fun) + comb_size(arg)
    return 0
