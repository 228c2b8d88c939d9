"""Seeded random term generators shared by the property and acceptance
tests.

``gen_int_term`` builds closed, strongly normalizing terms whose normal
form is an integer literal, so every backend must terminate and agree on
them.  ``gen_closed_lambda`` builds pure closed lambda terms for
round-trip and alpha-equivalence properties, and ``gen_small_term``
builds possibly-open terms over a tiny name pool to provoke capture in
substitution.  ``gen_fix_term`` builds ``fix (\\f. T)`` with a ``T``
that ignores ``f``, which every backend reduces to ``T``'s integer
(applicative-order beta alone unfolds ``fix`` forever).
``church_source`` and ``sharing_source`` are the benchmark's two
scaling families.
"""

from __future__ import annotations

import itertools
import random

from appliq.syntax import (
    AddCurried,
    AddPair,
    App,
    Const,
    FixConst,
    Lam,
    PairLit,
    SubCurried,
    Term,
    Var,
    apps,
    intlit,
)


def uniquify(t: Term, prefix: str = "u") -> Term:
    """Alpha-rename so every binder has a globally unique name."""
    counter = itertools.count()

    def go(t: Term, ren: dict[str, str]) -> Term:
        match t:
            case Var(name):
                return Var(ren.get(name, name))
            case Const():
                return t
            case App(fun, arg):
                return App(go(fun, ren), go(arg, ren))
            case Lam(binder, body):
                fresh = f"{prefix}{next(counter)}"
                return Lam(fresh, go(body, ren | {binder: fresh}))
            case PairLit(left, right):
                return PairLit(go(left, ren), go(right, ren))
        raise TypeError(f"not a term: {t!r}")

    return go(t, {})


def gen_int_term(rng: random.Random, depth: int,
                 ivars: tuple[str, ...] = ()) -> Term:
    """A closed term that normalizes to an integer literal."""
    if depth <= 0:
        if ivars and rng.random() < 0.5:
            return Var(rng.choice(ivars))
        return intlit(rng.randint(-20, 20))
    sub = lambda: gen_int_term(rng, depth - 1, ivars)
    match rng.randrange(7):
        case 0:
            return apps(Const(AddCurried()), sub(), sub())
        case 1:
            return apps(Const(SubCurried()), sub(), sub())
        case 2:
            return App(Const(AddPair()), PairLit(sub(), sub()))
        case 3:
            x = f"n{len(ivars)}"
            body = gen_int_term(rng, depth - 1, ivars + (x,))
            return App(Lam(x, body), sub())
        case 4:
            return App(PairLit(sub(), sub()),
                       Const(rng.choice([AddCurried(), SubCurried()])))
        case 5:
            op = Const(rng.choice([AddCurried(), SubCurried()]))
            return apps(Lam("f", apps(Var("f"), sub(), sub())), op)
        case 6:
            # composition through a higher-order argument
            x = f"n{len(ivars)}"
            inner = gen_int_term(rng, depth - 1, ivars + (x,))
            return apps(Lam("g", App(Var("g"), sub())),
                        Lam(x, inner))
    raise AssertionError


def gen_fix_term(rng: random.Random, depth: int) -> Term:
    """``fix (\\f. T)`` for a ``gen_int_term`` ``T`` in which ``f`` does
    not occur or is passed only to an abstraction that discards it,
    sometimes as an operand of a larger integer term."""
    body = gen_int_term(rng, depth)
    if rng.random() < 0.5:
        body = App(Lam("z", gen_int_term(rng, depth - 1)), Var("f"))
    t = App(Const(FixConst()), Lam("f", body))
    if rng.random() < 0.5:
        op = Const(rng.choice([AddCurried(), SubCurried()]))
        other = gen_int_term(rng, depth - 1)
        t = apps(op, t, other) if rng.random() < 0.5 else apps(op, other, t)
    return t


def church_source(k: int) -> str:
    """``2 k + 3``, computed by the Church numeral ``k``."""
    return r"(\n. n (add 2) 3) (\f x. " + "f (" * k + "x" + ")" * k + ")"


def sharing_source(depth: int, leaf: int = 5) -> str:
    """``leaf * 2 ** depth`` by ``depth`` nested applications of a
    doubling function that uses its argument twice, so normal order
    duplicates the work."""
    return r"(\d. " + "d (" * depth + str(leaf) + ")" * depth + \
        r") (\x. add x x)"


def gen_closed_lambda(rng: random.Random, depth: int,
                      env: tuple[str, ...] = ()) -> Term:
    """A pure closed lambda term (variables, applications, abstractions)."""
    if depth <= 0:
        if env:
            return Var(rng.choice(env))
        return Lam("u", Var("u"))
    r = rng.random()
    if r < 0.35 and env:
        return Var(rng.choice(env))
    if r < 0.65:
        x = f"v{len(env)}"
        return Lam(x, gen_closed_lambda(rng, depth - 1, env + (x,)))
    return App(gen_closed_lambda(rng, depth - 1, env),
               gen_closed_lambda(rng, depth - 1, env))


_POOL = ("x", "y", "z")


def gen_small_term(rng: random.Random, depth: int) -> Term:
    """A possibly-open term over the name pool {x, y, z}; shadowing and
    near-capture shapes are common by construction."""
    if depth <= 0:
        if rng.random() < 0.2:
            return intlit(rng.randint(0, 9))
        return Var(rng.choice(_POOL))
    match rng.randrange(4):
        case 0:
            return Var(rng.choice(_POOL))
        case 1:
            return App(gen_small_term(rng, depth - 1),
                       gen_small_term(rng, depth - 1))
        case 2:
            return Lam(rng.choice(_POOL), gen_small_term(rng, depth - 1))
        case 3:
            return PairLit(gen_small_term(rng, depth - 1),
                           gen_small_term(rng, depth - 1))
    raise AssertionError


def gen_printable_term(rng: random.Random, depth: int) -> Term:
    """A term over the full concrete grammar (possibly open), suitable
    for parse/print round-trips."""
    if depth <= 0:
        match rng.randrange(4):
            case 0:
                return Var(rng.choice(_POOL))
            case 1:
                return intlit(rng.randint(-99, 99))
            case 2:
                return Const(rng.choice([AddCurried(), SubCurried()]))
            case 3:
                return Const(AddPair())
    match rng.randrange(4):
        case 0:
            return App(gen_printable_term(rng, depth - 1),
                       gen_printable_term(rng, depth - 1))
        case 1:
            return Lam(rng.choice(_POOL), gen_printable_term(rng, depth - 1))
        case 2:
            return PairLit(gen_printable_term(rng, depth - 1),
                           gen_printable_term(rng, depth - 1))
        case 3:
            return gen_printable_term(rng, 0)
    raise AssertionError
