"""Bracket abstraction into the {I, K, S} basis and a reduction machine
for the resulting combinator terms.

Two abstraction modes exist.  ``naive`` picks rules purely by shape —
identity for the bound variable, the S rule for any application, K for
everything else — which reproduces the classic worked derivations
exactly.  ``optimized`` applies the K rule whenever the variable is not
free in the body, which yields smaller code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .reduction import Status
from .syntax import (
    INT64_MAX,
    INT64_MIN,
    AddCurried,
    AddPair,
    App,
    Const,
    ConstVal,
    FixConst,
    IntLit,
    Lam,
    SubCurried,
    Term,
    Var,
    const_name,
    desugar_pairs,
)


class CombTerm:
    """Base class for combinator terms."""


@dataclass(frozen=True)
class CI(CombTerm):
    pass


@dataclass(frozen=True)
class CK(CombTerm):
    pass


@dataclass(frozen=True)
class CS(CombTerm):
    pass


@dataclass(frozen=True)
class CVar(CombTerm):
    name: str


@dataclass(frozen=True)
class CConst(CombTerm):
    value: ConstVal


@dataclass(frozen=True)
class CApp(CombTerm):
    fun: CombTerm
    arg: CombTerm


I = CI()
K = CK()
S = CS()


def capps(fun: CombTerm, *args: CombTerm) -> CombTerm:
    t = fun
    for a in args:
        t = CApp(t, a)
    return t


class Mode(enum.Enum):
    NAIVE = "naive"
    OPTIMIZED = "optimized"


def occurs(x: str, t: CombTerm) -> bool:
    match t:
        case CVar(name):
            return name == x
        case CApp(fun, arg):
            return occurs(x, fun) or occurs(x, arg)
    return False


def bracket_abstract(x: str, body: CombTerm,
                     mode: Mode = Mode.OPTIMIZED) -> CombTerm:
    """Eliminate ``x`` from a lambda-free combinator body.

    The result never contains ``x``.  In both modes the bound variable
    itself maps to I; applications split through S (unconditionally in
    naive mode); anything the K rule covers becomes ``K body``.
    """
    if mode is Mode.OPTIMIZED:
        code = _abstract(x, body)
        return CApp(K, body) if code is None else code
    if body == CVar(x):
        return I
    match body:
        case CApp(fun, arg):
            return CApp(CApp(S, bracket_abstract(x, fun, mode)),
                        bracket_abstract(x, arg, mode))
    return CApp(K, body)


def _abstract(x: str, body: CombTerm) -> CombTerm | None:
    """Optimized-mode abstraction of ``x`` from ``body``, or None where
    ``x`` does not occur in ``body`` (the caller then uses ``K body``)."""
    kind = type(body)
    if kind is CApp:
        fun, arg = _abstract(x, body.fun), _abstract(x, body.arg)
        if fun is None and arg is None:
            return None
        return CApp(CApp(S, CApp(K, body.fun) if fun is None else fun),
                    CApp(K, body.arg) if arg is None else arg)
    if kind is CVar and body.name == x:
        return I
    return None


def ski_compile(t: Term, mode: Mode = Mode.OPTIMIZED) -> CombTerm:
    """Compile a term to the combinator basis, eliminating abstractions
    innermost-first.  Pair literals are desugared up front."""

    def go(t: Term) -> CombTerm:
        match t:
            case Var(name):
                return CVar(name)
            case Const(c):
                return CConst(c)
            case App(fun, arg):
                return CApp(go(fun), go(arg))
            case Lam(binder, body):
                return bracket_abstract(binder, go(body), mode)
        raise TypeError(f"not a desugared term: {t!r}")

    return go(desugar_pairs(t))


@dataclass(frozen=True)
class SkiOutcome:
    result: CombTerm
    steps_used: int
    status: Status
    trace: tuple[CombTerm, ...] | None = field(default=None, compare=False)


def _checked(n: int, what: str) -> CombTerm:
    if not (INT64_MIN <= n <= INT64_MAX):
        raise OverflowError(f"integer overflow in {what}: {n}")
    return CConst(IntLit(n))


def _as_literal_pair(t: CombTerm) -> tuple[int, int] | None:
    """Pair values surface here as compiled ``\\r. r m n``:
    ``S (S I (K m)) (K n)`` from the optimized compiler or
    ``S (S I (K m)) (S (K I) (K n))`` from the naive one."""
    match t:
        case CApp(CApp(CS(), CApp(CApp(CS(), CI()), CApp(CK(), CConst(IntLit(m))))),
                  CApp(CK(), CConst(IntLit(n)))):
            return m, n
        case CApp(CApp(CS(), CApp(CApp(CS(), CI()), CApp(CK(), CConst(IntLit(m))))),
                  CApp(CApp(CS(), CApp(CK(), CI())), CApp(CK(), CConst(IntLit(n))))):
            return m, n
    return None


def _int(t: CombTerm) -> int | None:
    if type(t) is CConst and type(t.value) is IntLit:
        return t.value.value
    return None


def _rule(t: CApp) -> CombTerm | None:
    """The I/K/S/delta rule for the application ``t``, dispatched on the
    types of the first three nodes of its spine."""
    fun, arg = t.fun, t.arg
    kind = type(fun)
    if kind is CI:
        return arg
    if kind is CConst:
        op = type(fun.value)
        if op is AddPair:
            pair = _as_literal_pair(arg)
            if pair is not None:
                return _checked(pair[0] + pair[1], "+")
        elif op is FixConst:
            return CApp(arg, t)
        return None
    if kind is not CApp:
        return None
    head = fun.fun
    kind = type(head)
    if kind is CK:
        return fun.arg
    if kind is CConst:
        op = type(head.value)
        if op is AddCurried or op is SubCurried:
            m, n = _int(fun.arg), _int(arg)
            if m is not None and n is not None:
                return _checked(m + n, "add") if op is AddCurried \
                    else _checked(m - n, "sub")
        return None
    if kind is CApp and type(head.fun) is CS:
        return CApp(CApp(head.arg, arg), CApp(fun.arg, arg))
    return None


def _step(t: CombTerm, memo: dict[int, CombTerm]) -> CombTerm | None:
    if type(t) is not CApp or id(t) in memo:
        return None
    hit = _rule(t)
    if hit is not None:
        return hit
    f = _step(t.fun, memo)
    if f is not None:
        return CApp(f, t.arg)
    a = _step(t.arg, memo)
    if a is not None:
        return CApp(t.fun, a)
    memo[id(t)] = t
    return None


def ski_step(t: CombTerm) -> CombTerm | None:
    """Contract the leftmost-outermost I/K/S/delta redex, if any."""
    return _step(t, {})


def ski_reduce(t: CombTerm, max_steps: int = 10000,
               collect_trace: bool = False) -> SkiOutcome:
    trace = [t] if collect_trace else None
    memo: dict[int, CombTerm] = {}
    steps = 0
    while steps < max_steps:
        nxt = _step(t, memo)
        if nxt is None:
            return SkiOutcome(t, steps, Status.NORMAL_FORM,
                              tuple(trace) if trace is not None else None)
        t = nxt
        steps += 1
        if trace is not None:
            trace.append(t)
    return SkiOutcome(t, steps, Status.BUDGET_EXHAUSTED,
                      tuple(trace) if trace is not None else None)


def comb_size(t: CombTerm) -> int:
    """Number of application nodes."""
    match t:
        case CApp(fun, arg):
            return 1 + comb_size(fun) + comb_size(arg)
    return 0


def print_comb(t: CombTerm) -> str:
    """Juxtaposition with minimal parentheses: only composite arguments
    are wrapped."""

    def go(t: CombTerm) -> str:
        match t:
            case CI():
                return "I"
            case CK():
                return "K"
            case CS():
                return "S"
            case CVar(name):
                return name
            case CConst(c):
                return const_name(c)
            case CApp(fun, arg):
                a = f"({go(arg)})" if isinstance(arg, CApp) else go(arg)
                return f"{go(fun)} {a}"
        raise TypeError(f"not a combinator term: {t!r}")

    return go(t)


def ski_trace_lines(terms: tuple[CombTerm, ...]) -> list[str]:
    return [f"step {i}: {print_comb(t)}" for i, t in enumerate(terms)]
