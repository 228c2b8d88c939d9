"""Lambda lifting into supercombinator programs, classification of terms
against the supercombinator conditions, and program reduction.

Lifting is one post-order pass that extracts abstraction groups
(consecutive binders collapse into one definition) leftmost innermost
first: a group is lifted as soon as its body is lambda-free, that is,
right after the groups inside it.  Free variables of the extracted
group become leading extra parameters, ordered by first occurrence, and
the group is replaced by the new definition name applied to them.
Definition names draw letters from the stream X, Y, Z, X1, Y1, Z1, ...
— one letter per binder of the group, so a two-binder group lifted
first is named ``$XY``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .reduction import Outcome, delta_step, run
from .syntax import (
    App,
    Const,
    FreeVariableError,
    Lam,
    PairLit,
    ParseError,
    Term,
    Var,
    apps,
    free_vars,
    parse,
    print_term,
)


@dataclass(frozen=True)
class ScDef:
    name: str
    params: tuple[str, ...]
    body: Term


@dataclass(frozen=True)
class ScProgram:
    defs: tuple[ScDef, ...]
    main: Term


class Classification(enum.Enum):
    SUPERCOMBINATOR = "supercombinator"
    COMBINATOR_ONLY = "combinator_only"
    NEITHER = "neither"


def _strip_binders(t: Term) -> tuple[list[str], Term]:
    binders: list[str] = []
    while isinstance(t, Lam):
        binders.append(t.binder)
        t = t.body
    return binders, t


def _inner_lams(t: Term) -> Iterator[Term]:
    match t:
        case Lam():
            yield t
        case App(fun, arg):
            yield from _inner_lams(fun)
            yield from _inner_lams(arg)
        case PairLit(left, right):
            yield from _inner_lams(left)
            yield from _inner_lams(right)


def classify(t: Term) -> Classification:
    """Judge a term against the supercombinator conditions: no free
    variables, and every abstraction inside the binder-stripped body is
    itself a supercombinator.  Closed terms failing the second condition
    are combinators only; open terms are neither."""
    if free_vars(t):
        return Classification.NEITHER
    _, body = _strip_binders(t)
    for inner in _inner_lams(body):
        if classify(inner) is not Classification.SUPERCOMBINATOR:
            return Classification.COMBINATOR_ONLY
    return Classification.SUPERCOMBINATOR


def _letters() -> Iterator[str]:
    k = 0
    while True:
        suffix = "" if k == 0 else str(k)
        for base in ("X", "Y", "Z"):
            yield base + suffix
        k += 1


def _first_occurrences(t: Term, bound: set[str], seen: list[str]) -> None:
    """Append to ``seen`` the variables of the lambda-free ``t`` outside
    ``bound`` and not naming definitions, in first-occurrence order."""
    match t:
        case Var(name):
            if name not in bound and not name.startswith("$") \
                    and name not in seen:
                seen.append(name)
        case App(fun, arg):
            _first_occurrences(fun, bound, seen)
            _first_occurrences(arg, bound, seen)
        case PairLit(left, right):
            _first_occurrences(left, bound, seen)
            _first_occurrences(right, bound, seen)


def lift(t: Term) -> ScProgram:
    """Lift a closed term into supercombinator definitions plus a
    lambda-free main expression.  Names starting with ``$`` refer to
    definitions and do not count as free variables."""
    fvs = {v for v in free_vars(t) if not v.startswith("$")}
    if fvs:
        raise FreeVariableError(sorted(fvs)[0])

    defs: list[ScDef] = []
    letters = _letters()

    def go(t: Term) -> Term:
        kind = type(t)
        if kind is App:
            return App(go(t.fun), go(t.arg))
        if kind is PairLit:
            return PairLit(go(t.left), go(t.right))
        if kind is not Lam:
            return t
        binders, core = _strip_binders(t)
        core = go(core)
        extras: list[str] = []
        _first_occurrences(core, set(binders), extras)
        name = "$" + "".join(next(letters) for _ in binders)
        defs.append(ScDef(name, tuple(extras) + tuple(binders), core))
        return apps(Var(name), *(Var(v) for v in extras))

    main = go(t)  # fills defs
    return ScProgram(tuple(defs), main)


def _substitute_params(body: Term, bindings: dict[str, Term]) -> Term:
    # bodies are lambda-free, so plain simultaneous replacement is safe
    match body:
        case Var(name):
            return bindings.get(name, body)
        case Const():
            return body
        case App(fun, arg):
            return App(_substitute_params(fun, bindings),
                       _substitute_params(arg, bindings))
        case PairLit(left, right):
            return PairLit(_substitute_params(left, bindings),
                           _substitute_params(right, bindings))
        case Lam():
            raise ValueError("supercombinator body contains an abstraction")
    raise TypeError(f"not a term: {body!r}")


def _head_rule(t: App, defs: dict[str, ScDef]) -> Term | None:
    """Unfold a definition applied to at least its arity, or apply a pair
    literal, at the top of the application spine ``t``."""
    head, n = t, 0
    while type(head) is App:
        head, n = head.fun, n + 1
    if type(head) is Var:
        sc = defs.get(head.name)
        if sc is None or n < len(sc.params):
            return None
    elif type(head) is not PairLit:
        return None
    args: list[Term] = []
    while type(t) is App:
        args.append(t.arg)
        t = t.fun
    args.reverse()
    if type(head) is PairLit:
        # [l, r] f  ->  f l r
        return apps(args[0], head.left, head.right, *args[1:])
    arity = len(sc.params)
    unfolded = _substitute_params(sc.body, dict(zip(sc.params, args[:arity])))
    return apps(unfolded, *args[arity:])


def _sc_step(t: Term, defs: dict[str, ScDef], memo: dict[int, Term],
             top: bool = True) -> Term | None:
    """Leftmost-outermost unfold/delta/pair-application step.

    ``memo`` maps ``id(node)`` to the node for subtrees already found to
    hold no redex; they are skipped and every redex-free subtree met is
    added.  Share one memo only across the steps of one reduction with
    one set of definitions.  ``top`` is false for the function part of
    an application: a spine-head rule that did not fire at the top of
    the spine cannot fire below it, where there are fewer arguments.
    """
    kind = type(t)
    if kind is Var:
        sc = defs.get(t.name)
        if sc is not None and not sc.params and top:
            return _substitute_params(sc.body, {})
        return None
    if kind is Const or id(t) in memo:
        return None
    if kind is App:
        d = delta_step(t)
        if d is not None:
            return d
        if top:
            d = _head_rule(t, defs)
            if d is not None:
                return d
        f = _sc_step(t.fun, defs, memo, False)
        if f is not None:
            return App(f, t.arg)
        a = _sc_step(t.arg, defs, memo)
        if a is not None:
            return App(t.fun, a)
    elif kind is PairLit:
        l = _sc_step(t.left, defs, memo)
        if l is not None:
            return PairLit(l, t.right)
        r = _sc_step(t.right, defs, memo)
        if r is not None:
            return PairLit(t.left, r)
    memo[id(t)] = t
    return None


def sc_reduce(p: ScProgram, max_steps: int = 10000,
              collect_trace: bool = False) -> Outcome:
    """Normal-order reduction of the main expression, unfolding a
    definition whenever it is applied to at least its arity."""
    defs = {d.name: d for d in p.defs}
    return run(lambda t, memo: _sc_step(t, defs, memo), p.main, max_steps,
               collect_trace)


def print_program(p: ScProgram) -> str:
    """Definitions one per line, a rule line, then the main expression."""
    lines = [f"{d.name} {' '.join(d.params)} = {print_term(d.body)}"
             if d.params else f"{d.name} = {print_term(d.body)}"
             for d in p.defs]
    lines.append("----")
    lines.append(print_term(p.main))
    return "\n".join(lines)


def parse_program(text: str) -> ScProgram:
    """Parse the :func:`print_program` format back."""
    lines = text.splitlines()
    rule = next((i for i, line in enumerate(lines)
                 if line.strip() == "----"), None)
    if rule is None:
        raise ParseError("missing '----' separator line", len(lines) + 1, 1)
    defs: list[ScDef] = []
    for i, line in enumerate(lines[:rule]):
        if not line.strip() or line.lstrip().startswith("--"):
            continue
        if "=" not in line:
            raise ParseError("definition line without '='", i + 1, 1)
        head, body_src = line.split("=", 1)
        words = head.split()
        if not words or not words[0].startswith("$"):
            raise ParseError("definition name must start with '$'", i + 1, 1)
        defs.append(ScDef(words[0], tuple(words[1:]), parse(body_src)))
    main_src = "\n".join(lines[rule + 1:])
    return ScProgram(tuple(defs), parse(main_src))


def sc_trace_lines(terms: tuple[Term, ...]) -> list[str]:
    return [f"step {i}: {print_term(t)}" for i, t in enumerate(terms)]
