"""The recursive redex searches the reducers used before the spine-stack
driver, kept as test oracles.

Each search starts at the root and recurses to the leftmost redex of its
strategy, rebuilding the path on the way back.  ``memo`` maps
``id(node)`` to nodes found to hold no redex; the single-step functions
below start each call with an empty one, so every step is found from
scratch.  The rules themselves (``delta_step``, ``subst``,
``_eta_redex``, ``_ignores_binder``, cam's ``_rule``, sc's
``_substitute_params``) are the library's; ``eta_step`` writes its
rule inline and keeps no memo.  ``assert_same_states`` compares a
reducer's trace with a sequence of single steps.
"""

from __future__ import annotations

from appliq.cam import AppC, CatCode, Comp, Couple, LamC, QuoteC
from appliq.cam import _rule as cam_rule
from appliq.reduction import _eta_redex, delta_step
from appliq.ski import _ignores_binder
from appliq.superc import ScDef, _substitute_params
from appliq.syntax import (
    AddCurried,
    AddPair,
    App,
    Combinator,
    Const,
    I,
    K,
    Lam,
    PairLit,
    S,
    Term,
    Var,
    apps,
    free_vars,
    subst,
)


# ---------------------------------------------------------------------------
# beta: leftmost-outermost and leftmost-innermost

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
    return _normal(t, use_eta, {})


def applicative_step(t: Term, use_eta: bool = False) -> Term | None:
    return _applicative(t, use_eta, {})


# ---------------------------------------------------------------------------
# eta alone: leftmost-outermost

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


# ---------------------------------------------------------------------------
# ski: leftmost-outermost, with the pair rule once both children are done

def _ski_rule(t: App) -> Term | None:
    fun = t.fun
    if type(fun) is Const:
        if type(fun.value) is not Combinator:
            return delta_step(t)
        return t.arg if fun is I else None
    if type(fun) is not App:
        return None
    head = fun.fun
    if type(head) is Const:
        if type(head.value) is not Combinator:
            return delta_step(t)
        return fun.arg if head is K else None
    if type(head) is App and head.fun is S:
        return App(App(head.arg, t.arg), App(fun.arg, t.arg))
    return None


def _ski_step(t: Term, memo: dict[int, Term]) -> Term | None:
    if type(t) is not App or id(t) in memo:
        return None
    hit = _ski_rule(t)
    if hit is not None:
        return hit
    f = _ski_step(t.fun, memo)
    if f is not None:
        return App(f, t.arg)
    a = _ski_step(t.arg, memo)
    if a is not None:
        return App(t.fun, a)
    if type(t.fun) is Const and type(t.fun.value) is AddPair:
        match t.arg:  # + [l, r] = [l, r] add, with [l, r] = S (S I x) y
            case App(App(s1, App(App(s2, i), x)), y) if s1 is S and s2 is S \
                    and i is I and _ignores_binder(x) and _ignores_binder(y):
                return App(t.arg, Const(AddCurried()))
    memo[id(t)] = t
    return None


def ski_step(t: Term) -> Term | None:
    return _ski_step(t, {})


# ---------------------------------------------------------------------------
# cam: leftmost-innermost

_PAIRS = (AppC, Couple, PairLit, Comp)


def cam_rule_step(c: CatCode | Term, primitive_only: bool,
                  memo: dict[int, CatCode | Term]
                  ) -> tuple[CatCode | Term, str] | None:
    kind = type(c)
    if kind is App:
        if id(c) in memo:
            return None
        x, y = c.fun, c.arg
        hit = cam_rule_step(x, primitive_only, memo)
        if hit is not None:
            return App(hit[0], y), hit[1]
        hit = cam_rule_step(y, primitive_only, memo)
        if hit is not None:
            return App(x, hit[0]), hit[1]
        hit = cam_rule(c, primitive_only)
        if hit is not None:
            return hit
    elif kind in _PAIRS:
        if id(c) in memo:
            return None
        x, y = c.left, c.right
        hit = cam_rule_step(x, primitive_only, memo)
        if hit is not None:
            return kind(hit[0], y), hit[1]
        hit = cam_rule_step(y, primitive_only, memo)
        if hit is not None:
            return kind(x, hit[0]), hit[1]
    elif kind is LamC or kind is QuoteC:
        if id(c) in memo:
            return None
        hit = cam_rule_step(c.body if kind is LamC else c.val, primitive_only,
                            memo)
        if hit is not None:
            return kind(hit[0]), hit[1]
    else:
        return None
    memo[id(c)] = c
    return None


def cam_step(c: CatCode | Term) -> CatCode | Term | None:
    hit = cam_rule_step(c, False, {})
    return hit[0] if hit is not None else None


# ---------------------------------------------------------------------------
# sc: leftmost-outermost, unfolding at the top of an application spine

def _head_rule(t: App, defs: dict[str, ScDef]) -> Term | None:
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


def sc_step(t: Term, defs: dict[str, ScDef], memo: dict[int, Term],
            top: bool = True) -> Term | None:
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
        f = sc_step(t.fun, defs, memo, False)
        if f is not None:
            return App(f, t.arg)
        a = sc_step(t.arg, defs, memo)
        if a is not None:
            return App(t.fun, a)
    elif kind is PairLit:
        l = sc_step(t.left, defs, memo)
        if l is not None:
            return PairLit(l, t.right)
        r = sc_step(t.right, defs, memo)
        if r is not None:
            return PairLit(t.left, r)
    memo[id(t)] = t
    return None


# ---------------------------------------------------------------------------
# comparing state sequences

def assert_same_states(label: str, got, want) -> None:
    """Fail, naming ``label`` and the first index at which the state
    sequences ``got`` and ``want`` differ, unless they are equal.  The
    states are not printed: pytest's diff of two long sequences of deep
    terms can take minutes."""
    __tracebackhide__ = True  # nor are they shown as this frame's arguments
    got, want = list(got), list(want)
    if got == want:
        return
    first = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
    raise AssertionError(f"{label}: the states differ first at index "
                         f"{first} (lengths {len(got)} and {len(want)})")
