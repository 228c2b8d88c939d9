"""Conversion between named terms and de Bruijn-indexed terms.

An index counts the lambdas strictly between a variable occurrence and
its binder, so ``\\y. (\\x y. x) y`` becomes ``\\.((\\.\\.#1) #0)``.

De Bruijn terms are cam's abbreviated categorical combinators (Curien,
*Categorical combinators*, Inf. & Control 69, 1986): index n is ``n!``,
a constant ``c`` is ``'c``, application is ``$[.,.]``, abstraction is
``L(.)`` and a pair is ``<.,.>``.  So :func:`encode` builds those nodes
of :mod:`appliq.cam` directly, and :func:`decode` reads compiled code
back; :func:`print_dterm` prints them in de Bruijn notation.
"""

from __future__ import annotations

from .cam import AppC, Bang, CatCode, Couple, LamC, QuoteC
from .syntax import (
    App,
    Const,
    FreeVariableError,
    Lam,
    PairLit,
    Term,
    Var,
    const_name,
)


class DanglingIndexError(Exception):
    def __init__(self, n: int):
        super().__init__(f"dangling de Bruijn index: #{n}")
        self.n = n


def encode(t: Term) -> CatCode:
    """Encode a closed named term; raises :class:`FreeVariableError`
    naming the first offending identifier."""

    def go(t: Term, binders: list[str]) -> CatCode:
        match t:
            case Var(name):
                for depth, b in enumerate(reversed(binders)):
                    if b == name:
                        return Bang(depth)
                raise FreeVariableError(name)
            case Const():
                return QuoteC(t)
            case App(fun, arg):
                return AppC(go(fun, binders), go(arg, binders))
            case Lam(binder, body):
                return LamC(go(body, binders + [binder]))
            case PairLit(left, right):
                return Couple(go(left, binders), go(right, binders))
        raise TypeError(f"not a term: {t!r}")

    return go(t, [])


def decode(d: CatCode) -> Term:
    """Decode with binder names assigned by depth (v0, v1, ...)."""

    def go(d: CatCode, depth: int) -> Term:
        match d:
            case Bang(n):
                if n >= depth:
                    raise DanglingIndexError(n)
                return Var(f"v{depth - 1 - n}")
            case QuoteC(Const() as k):
                return k
            case AppC(fun, arg):
                return App(go(fun, depth), go(arg, depth))
            case LamC(body):
                return Lam(f"v{depth}", go(body, depth + 1))
            case Couple(left, right):
                return PairLit(go(left, depth), go(right, depth))
        raise TypeError(f"not a de Bruijn term: {d!r}")

    return go(d, 0)


def print_dterm(d: CatCode) -> str:
    def go(d: CatCode) -> str:
        match d:
            case Bang(n):
                return f"#{n}"
            case QuoteC(Const(c)):
                return const_name(c)
            case AppC(fun, arg):
                f = f"({go(fun)})" if isinstance(fun, LamC) else go(fun)
                return f"({f} {go(arg)})"
            case LamC(body):
                return f"\\.{go(body)}"
            case Couple(left, right):
                return f"[{go(left)}, {go(right)}]"
        raise TypeError(f"not a de Bruijn term: {d!r}")

    return go(d)
