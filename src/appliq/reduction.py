"""Directed reduction for the applicative theory: beta steps, delta rules
for arithmetic, optional eta contraction, normal- or applicative-order
strategies under a step budget."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .syntax import (
    INT64_MAX,
    INT64_MIN,
    AddCurried,
    AddPair,
    App,
    Const,
    FixConst,
    IntLit,
    Lam,
    PairLit,
    SubCurried,
    Term,
    Var,
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
class ReduceOutcome:
    result: Term
    steps_used: int
    status: Status
    trace: tuple[Term, ...] | None = field(default=None, compare=False)


def _checked(n: int, what: str) -> Term:
    if not (INT64_MIN <= n <= INT64_MAX):
        raise OverflowError(f"integer overflow in {what}: {n}")
    return Const(IntLit(n))


def _int(t: Term) -> int | None:
    if type(t) is Const and type(t.value) is IntLit:
        return t.value.value
    return None


def _as_literal_pair(t: Term) -> tuple[int, int] | None:
    """Match a pair of integer literals, either as a ``PairLit`` or in the
    desugared shape ``\\r. r m n``."""
    match t:
        case PairLit(Const(IntLit(m)), Const(IntLit(n))):
            return m, n
        case Lam(r, App(App(Var(r2), Const(IntLit(m))), Const(IntLit(n)))) \
                if r == r2:
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
                return _checked(pair[0] + pair[1], "+")
        elif op is FixConst:
            return App(t.arg, t)
        return None
    if type(fun) is App and type(fun.fun) is Const:
        op = type(fun.fun.value)
        if op is AddCurried or op is SubCurried:
            m, n = _int(fun.arg), _int(t.arg)
            if m is not None and n is not None:
                return _checked(m + n, "add") if op is AddCurried \
                    else _checked(m - n, "sub")
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
           collect_trace: bool = False) -> ReduceOutcome:
    """Iterate single steps under the configured strategy until no redex
    remains or the budget runs out.  Pair literals are desugared up
    front.  The memo of redex-free subtrees lives for this call only."""
    cfg = cfg or EvalConfig()
    step = _normal if cfg.strategy is Strategy.NORMAL_ORDER \
        else _applicative
    t = desugar_pairs(t)
    trace = [t] if collect_trace else None
    memo: dict[int, Term] = {}
    steps = 0
    while steps < cfg.max_steps:
        nxt = step(t, cfg.use_eta, memo)
        if nxt is None:
            return ReduceOutcome(t, steps, Status.NORMAL_FORM,
                                 tuple(trace) if trace is not None else None)
        t = nxt
        steps += 1
        if trace is not None:
            trace.append(t)
    return ReduceOutcome(t, steps, Status.BUDGET_EXHAUSTED,
                         tuple(trace) if trace is not None else None)


def trace_lines(terms: tuple[Term, ...]) -> list[str]:
    """Fixed golden-trace format: one ``step N: <term>`` line per state,
    with pair literals resugared for display."""
    return [f"step {i}: {print_term(resugar_pairs(t))}"
            for i, t in enumerate(terms)]
