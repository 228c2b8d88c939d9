"""Directed reduction for the applicative theory: beta steps, delta rules
for arithmetic, optional eta contraction, normal- or applicative-order
strategies under a step budget."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable

from .syntax import (
    INT64_MAX,
    INT64_MIN,
    AddCurried,
    AddPair,
    App,
    Const,
    FixConst,
    I,
    IntLit,
    K,
    Lam,
    PairLit,
    S,
    SubCurried,
    Term,
    Var,
    const_name,
    desugar_pairs,
    free_vars,
    print_term,
    resugar_pairs,
    subst,
)


class Strategy(enum.Enum):
    NORMAL_ORDER = "normal"
    APPLICATIVE_ORDER = "applicative"


class Status(enum.Enum):
    NORMAL_FORM = "normal_form"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class EvalConfig:
    max_steps: int = 10000
    use_eta: bool = False
    strategy: Strategy = Strategy.NORMAL_ORDER

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class Outcome:
    """What a reducer ended in: the last state, the steps taken, and the
    states visited when a trace was asked for."""
    result: Any
    steps_used: int
    status: Status
    trace: tuple | None = field(default=None, compare=False)


def run(step: Callable[[Any, dict[int, Any]], Any | None], t: Any,
        max_steps: int, collect_trace: bool = False) -> Outcome:
    """Apply ``step(state, memo)`` until it returns None or ``max_steps``
    steps are taken.  ``memo`` maps ``id(node)`` to the node for subtrees
    found to hold no redex; it lives for this call only.  When the
    budget runs out, one more probe tells a normal form reached by the
    last step from an exhausted budget."""
    memo: dict[int, Any] = {}
    trace = [t] if collect_trace else None
    steps, status = 0, Status.NORMAL_FORM
    while (nxt := step(t, memo)) is not None:
        if steps == max_steps:
            status = Status.BUDGET_EXHAUSTED
            break
        t = nxt
        steps += 1
        if trace is not None:
            trace.append(t)
    return Outcome(t, steps, status,
                   tuple(trace) if trace is not None else None)


def arith(op: str, m: int, n: int) -> int:
    """``m - n`` for ``sub``, ``m + n`` for ``+`` and ``add``; a result
    outside 64-bit range raises ``OverflowError``."""
    r = m - n if op == "sub" else m + n
    if not (INT64_MIN <= r <= INT64_MAX):
        raise OverflowError(f"integer overflow in {op}: {r}")
    return r


def _as_literal_pair(t: Term) -> tuple[int, int] | None:
    """Match a pair of integer literals: a ``PairLit``, the desugared
    shape ``\\r. r m n``, or that shape compiled to combinators,
    ``S (S I (K m)) (K n)`` in optimized mode and
    ``S (S I (K m)) (S (K I) (K n))`` in naive mode."""
    match t:
        case PairLit(Const(IntLit(m)), Const(IntLit(n))):
            return m, n
        case Lam(r, App(App(Var(r2), Const(IntLit(m))), Const(IntLit(n)))) \
                if r == r2:
            return m, n
        case App(App(s1, App(App(s2, i), App(k1, Const(IntLit(m))))),
                 App(k2, Const(IntLit(n)))) \
                if s1 == s2 == S and i == I and k1 == k2 == K:
            return m, n
        case App(App(s1, App(App(s2, i1), App(k1, Const(IntLit(m))))),
                 App(App(s3, App(k2, i2)), App(k3, Const(IntLit(n))))) \
                if s1 == s2 == s3 == S and i1 == i2 == I \
                and k1 == k2 == k3 == K:
            return m, n
    return None


def delta_step(t: Term) -> Term | None:
    """Contract a delta redex at the root, if any.

    Pair addition fires only once its argument is literally a pair of
    integer literals; curried addition and subtraction need two literal
    arguments.  Overflow outside 64-bit range raises ``OverflowError``.
    Rules are picked by the types of the nodes on the spine, so a node
    no rule fits costs a few type checks.
    """
    if type(t) is not App:
        return None
    fun = t.fun
    if type(fun) is Const:
        op = type(fun.value)
        if op is AddPair:
            pair = _as_literal_pair(t.arg)
            if pair is not None:
                return Const(IntLit(arith("+", *pair)))
        elif op is FixConst:
            return App(t.arg, t)
        return None
    if type(fun) is App and type(fun.fun) is Const:
        op = type(fun.fun.value)
        if op is AddCurried or op is SubCurried:
            m, n = fun.arg, t.arg
            if type(m) is Const and type(n) is Const and \
                    type(m.value) is IntLit and type(n.value) is IntLit:
                return Const(IntLit(arith(const_name(fun.fun.value),
                                          m.value.value, n.value.value)))
    return None


def eta_step(t: Term) -> Term | None:
    """Contract the leftmost-outermost eta redex ``\\x. f x`` with ``x``
    not free in ``f``, if any."""
    match t:
        case Lam(x, App(f, Var(x2))) if x == x2 and x not in free_vars(f):
            return f
        case Lam(x, body):
            b = eta_step(body)
            return Lam(x, b) if b is not None else None
        case App(fun, arg):
            f = eta_step(fun)
            if f is not None:
                return App(f, arg)
            a = eta_step(arg)
            return App(fun, a) if a is not None else None
        case PairLit(left, right):
            l = eta_step(left)
            if l is not None:
                return PairLit(l, right)
            r = eta_step(right)
            return PairLit(left, r) if r is not None else None
    return None


def _eta_redex(t: Lam) -> Term | None:
    """``f`` when ``t`` is ``\\x. f x`` with ``x`` not free in ``f``."""
    body = t.body
    if type(body) is App and type(body.arg) is Var and \
            body.arg.name == t.binder and t.binder not in free_vars(body.fun):
        return body.fun
    return None


def _normal(t: Term, use_eta: bool, memo: dict[int, Term]) -> Term | None:
    kind = type(t)
    if kind is Var or kind is Const or id(t) in memo:
        return None
    if kind is App:
        d = delta_step(t)
        if d is not None:
            return d
        fun = t.fun
        if type(fun) is Lam:
            return subst(t.arg, fun.binder, fun.body)
        f = _normal(fun, use_eta, memo)
        if f is not None:
            return App(f, t.arg)
        a = _normal(t.arg, use_eta, memo)
        if a is not None:
            return App(fun, a)
    elif kind is Lam:
        if use_eta:
            f = _eta_redex(t)
            if f is not None:
                return f
        b = _normal(t.body, use_eta, memo)
        if b is not None:
            return Lam(t.binder, b)
    elif kind is PairLit:
        l = _normal(t.left, use_eta, memo)
        if l is not None:
            return PairLit(l, t.right)
        r = _normal(t.right, use_eta, memo)
        if r is not None:
            return PairLit(t.left, r)
    memo[id(t)] = t
    return None


def _applicative(t: Term, use_eta: bool,
                 memo: dict[int, Term]) -> Term | None:
    kind = type(t)
    if kind is Var or kind is Const or id(t) in memo:
        return None
    if kind is App:
        f = _applicative(t.fun, use_eta, memo)
        if f is not None:
            return App(f, t.arg)
        a = _applicative(t.arg, use_eta, memo)
        if a is not None:
            return App(t.fun, a)
        d = delta_step(t)
        if d is not None:
            return d
        if type(t.fun) is Lam:
            return subst(t.arg, t.fun.binder, t.fun.body)
    elif kind is Lam:
        b = _applicative(t.body, use_eta, memo)
        if b is not None:
            return Lam(t.binder, b)
        if use_eta:
            f = _eta_redex(t)
            if f is not None:
                return f
    elif kind is PairLit:
        l = _applicative(t.left, use_eta, memo)
        if l is not None:
            return PairLit(l, t.right)
        r = _applicative(t.right, use_eta, memo)
        if r is not None:
            return PairLit(t.left, r)
    memo[id(t)] = t
    return None


def beta_step(t: Term, use_eta: bool = False) -> Term | None:
    """Contract the leftmost-outermost beta/delta redex, if any; with
    ``use_eta``, an eta redex counts at positions where no beta/delta
    redex applies."""
    return _normal(t, use_eta, {})


def applicative_step(t: Term, use_eta: bool = False) -> Term | None:
    """Contract the leftmost-innermost beta/delta redex, if any."""
    return _applicative(t, use_eta, {})


def reduce(t: Term, cfg: EvalConfig | None = None,
           collect_trace: bool = False) -> Outcome:
    """Iterate single steps under the configured strategy until no redex
    remains or the budget runs out.  Pair literals are desugared up
    front."""
    cfg = cfg or EvalConfig()
    step = _normal if cfg.strategy is Strategy.NORMAL_ORDER \
        else _applicative
    return run(lambda t, memo: step(t, cfg.use_eta, memo), desugar_pairs(t),
               cfg.max_steps, collect_trace)


def trace_lines(terms: tuple[Term, ...]) -> list[str]:
    """Fixed golden-trace format: one ``step N: <term>`` line per state,
    with pair literals resugared for display."""
    return [f"step {i}: {print_term(resugar_pairs(t))}"
            for i, t in enumerate(terms)]
