"""Categorical-combinator code and its evaluation by closure.

De Bruijn encoding is the compilation: :func:`appliq.debruijn.encode`
builds this module's nodes directly, mapping index n to n!, application
to $[.,.], abstraction to L(.), pairs to <.,.> and constants to quotes.
Evaluation applies the code to the empty environment () and rewrites
with the leftmost-innermost strategy using

    (app)    $[x,y] z        ->  eps [x z, y z]
    (bang)   0! [x,y]        ->  y        (n+1)! [x,y] -> n! x
    (lam)    L(x) y z        ->  x [y,z]
    (quote)  ('x) y          ->  x
    (ass)    (x o y) z       ->  x (y z)
    (fst)    Fst [x,y]       ->  x
    (snd)    Snd [x,y]       ->  y
    (dpair)  <x,y> z         ->  [x z, y z]
    (ac)     eps [L(x) y, z] ->  x [y,z]
    (pair)   [x,y] z         ->  z x y    (pairing combinator applied)
    (eps)    eps [f, z]      ->  f z      (f not a L(.)-closure)
    (delta)  arithmetic on integers, by reduction.delta_step
    (fix)    fix g           ->  eps [g, L($[$['fix, 1!], 0!]) [(), g]]

The fix rule is the call-by-value fixpoint ``fix g -> g (\\x. fix g x)``:
the unfolded ``fix g`` waits inside a closure until it is applied, so the
innermost strategy does not unfold it forever.

Values and juxtaposition are object-language terms: ``x y`` is an
``App``, a pair value ``[x,y]`` a ``PairLit`` and a quoted constant a
``Const``, so cam shares its arithmetic with the other backends.  Fst,
Snd, eps and () are ``Combinator`` constants, like ski's I, K and S.
Environments are pair spines terminating in (); quoted non-integer
constants are unfolded to L(c o Snd) before evaluation so they survive
being stored in an environment and applied later.
"""

from __future__ import annotations

from dataclasses import dataclass

from .reduction import (
    TERM_FIELDS,
    Fields,
    Outcome,
    Rules,
    delta_step,
    run,
    step,
)
from .syntax import (
    App,
    Combinator,
    Const,
    FixConst,
    IntLit,
    PairLit,
    Term,
    const_name,
    intlit,
)


class CatCode:
    """Base class for cam's combinators that take code.  Values,
    juxtaposition and Fst, Snd, eps and () are object-language terms:
    ``App``, ``PairLit`` and ``Const``."""


@dataclass(frozen=True)
class AppC(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class LamC(CatCode):
    body: CatCode


@dataclass(frozen=True)
class QuoteC(CatCode):
    val: CatCode | Term


@dataclass(frozen=True)
class Bang(CatCode):
    n: int


@dataclass(frozen=True)
class Couple(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class Comp(CatCode):
    left: CatCode | Term
    right: CatCode


# Integer values are ``Const(IntLit(n))``; the name stays for callers.
IntV = intlit

# The argument-free combinators, told apart by identity like ski's I, K, S.
UNIT = Const(Combinator("()"))
EPS = Const(Combinator("eps"))
FST = Const(Combinator("Fst"))
SND = Const(Combinator("Snd"))


def cam_compile(d: CatCode) -> CatCode:
    """Return ``d``: :func:`appliq.debruijn.encode` already builds
    categorical code.  Kept as cam's compile step because the spec, the
    CLI and the benchmark's probes call it; the probes time the
    ``cam.compile`` span around it and count ``cam.code_nodes`` on its
    output."""
    return d


def _map_children(c: CatCode | Term, f) -> CatCode | Term:
    match c:
        case App(x, y):
            return App(f(x), f(y))
        case AppC(x, y):
            return AppC(f(x), f(y))
        case LamC(x):
            return LamC(f(x))
        case QuoteC(x):
            return QuoteC(f(x))
        case Couple(x, y):
            return Couple(f(x), f(y))
        case PairLit(x, y):
            return PairLit(f(x), f(y))
        case Comp(x, y):
            return Comp(f(x), f(y))
    return c


def unfold_constant_quotes(c: CatCode | Term) -> CatCode | Term:
    """Rewrite 'c into L(c o Snd) for non-integer constants.  Quoted
    integers are data and keep the quote rule."""
    match c:
        case QuoteC(Const(v) as k) if type(v) is not IntLit:
            return LamC(Comp(k, SND))
    return _map_children(c, unfold_constant_quotes)


def expand_abbreviations(c: CatCode) -> CatCode:
    """Unfold $[x,y] to eps o <x,y>, n! to Snd o Fst^n and 'm to
    L(m o Snd), leaving only the primitive combinator set."""
    match c:
        case AppC(x, y):
            return Comp(EPS, Couple(expand_abbreviations(x),
                                    expand_abbreviations(y)))
        case Bang(n):
            if n == 0:
                return SND
            fst_n: CatCode = FST
            for _ in range(n - 1):
                fst_n = Comp(FST, fst_n)
            return Comp(SND, fst_n)
        case QuoteC(x):
            return LamC(Comp(expand_abbreviations(x), SND))
    return _map_children(c, expand_abbreviations)


# The code of ``\\x. fix g x`` under the environment ``[(), g]``, with the
# quoted ``fix`` unfolded; ``fix g`` applies ``g`` to its closure.
_FIX_BODY = AppC(AppC(LamC(Comp(Const(FixConst()), SND)), Bang(1)), Bang(0))
_FIX_BODY_PRIMITIVE = expand_abbreviations(_FIX_BODY)


def _rule(c: CatCode | Term,
          primitive_only: bool) -> tuple[CatCode | Term, str] | None:
    """The rewrite rule for ``c``, if any; every rule has a
    juxtaposition at its root.  Rules are picked by the type of the
    applied code, or by identity for Fst, Snd and eps, so a juxtaposition
    no rule fits costs a few checks.  Arithmetic is :func:`delta_step`'s;
    ``fix`` is cam's own by-value rule, tried before it."""
    if type(c) is not App:
        return None
    f, z = c.fun, c.arg
    kind = type(f)
    if kind is Comp:
        return App(f.left, App(f.right, z)), "ass"
    if kind is Couple:
        return PairLit(App(f.left, z), App(f.right, z)), "dpair"
    if kind is PairLit:
        # defining equation of the pairing combinator: [x,y] z = z x y
        return App(App(z, f.left), f.right), "pair"
    if f is EPS or f is FST or f is SND:
        if type(z) is not PairLit:
            return None
        if f is FST:
            return z.left, "fst"
        if f is SND:
            return z.right, "snd"
        x = z.left
        if type(x) is App and type(x.fun) is LamC:
            return App(x.fun.body, PairLit(x.arg, z.right)), "ac"
        return App(x, z.right), "eps"
    if kind is Const and type(f.value) is FixConst:
        body = _FIX_BODY_PRIMITIVE if primitive_only else _FIX_BODY
        return App(EPS, PairLit(z, App(LamC(body), PairLit(UNIT, z)))), "fix"
    if kind is Const or kind is App and type(f.fun) is Const:
        d = delta_step(c)
        return (d, "delta") if d is not None else None
    if kind is App and type(f.fun) is LamC and not primitive_only:
        return App(f.fun.body, PairLit(f.arg, z)), "lam"
    if kind is AppC:
        if primitive_only:
            return None
        return App(EPS, PairLit(App(f.left, z), App(f.right, z))), "app"
    if kind is QuoteC:
        return (f.val, "quote") if not primitive_only else None
    if kind is LamC:
        # the quote rule read through 'M = L(M o Snd)
        body = f.body
        if primitive_only and type(body) is Comp and \
                body.right is SND:
            return body.left, "quote"
        return None
    if kind is Bang and not primitive_only and type(z) is PairLit:
        if f.n == 0:
            return z.right, "bang"
        if f.n > 0:
            return App(Bang(f.n - 1), z.left), "bang"
    return None


_FIELDS: dict[type, Fields] = {
    App: TERM_FIELDS[App],
    PairLit: TERM_FIELDS[PairLit],
    AppC: lambda c: [c.left, c.right],
    Couple: lambda c: [c.left, c.right],
    Comp: lambda c: [c.left, c.right],
    LamC: lambda c: [c.body],
    QuoteC: lambda c: [c.val],
}


def _rules(primitive_only: bool) -> Rules:
    """Leftmost-innermost: a juxtaposition's rule is tried once both of
    its children hold no redex, and the search resumes at each
    contractum."""
    return Rules(_FIELDS, after=lambda c, path: _rule(c, primitive_only))


def cam_step(c: CatCode | Term) -> CatCode | Term | None:
    """One leftmost-innermost rewrite, or ``None`` at normal form."""
    return step(c, _rules(False))


def cam_eval_closure(compiled: CatCode, max_steps: int = 10000,
                     collect_trace: bool = False,
                     primitive_only: bool = False) -> Outcome:
    """Apply compiled code to the empty environment and rewrite to a
    value.  With ``primitive_only`` the abbreviation rules (app, bang,
    lam, quote-on-nodes) are disabled; the caller is expected to pass
    code through :func:`expand_abbreviations` first.  The trace pairs
    each state with the rule that produced it (None for the first)."""
    if not primitive_only:
        compiled = unfold_constant_quotes(compiled)
    return run(App(compiled, UNIT), _rules(primitive_only), max_steps,
               collect_trace, named=True)


def print_cat(c: CatCode | Term, expand_quotes: bool = False) -> str:
    """ASCII rendering: ``$[x,y]``, ``L(x)``, ``'x``, ``n!``, ``<x,y>``,
    ``[x,y]``, ``x o y``, ``eps``, ``()``.  With ``expand_quotes``,
    quoted non-integer constants print as ``L(c o Snd)``."""

    def atom(c: CatCode | Term) -> str:
        # operands of juxtaposition and composition that need wrapping
        if isinstance(c, (Comp, App)):
            return f"({go(c)})"
        return go(c)

    def go(c: CatCode | Term) -> str:
        match c:
            case App(fun, arg):
                f = f"({go(fun)})" if isinstance(fun, Comp) else go(fun)
                return f"{f} {atom(arg)}"
            case AppC(left, right):
                return f"$[{go(left)}, {go(right)}]"
            case LamC(body):
                return f"L({go(body)})"
            case QuoteC(Const(v) as k) if expand_quotes and \
                    type(v) is not IntLit:
                return f"L({go(k)} o Snd)"
            case QuoteC(val):
                return f"'{atom(val)}"
            case Bang(n):
                return f"{n}!"
            case Couple(left, right):
                return f"<{go(left)}, {go(right)}>"
            case PairLit(left, right):
                return f"[{go(left)}, {go(right)}]"
            case Comp(left, right):
                return f"{atom(left)} o {atom(right)}"
            case Const(v):
                return const_name(v)
        raise TypeError(f"not categorical code: {c!r}")

    return go(c)


def cam_trace_lines(
        trace: tuple[tuple[str | None, CatCode | Term], ...]) -> list[str]:
    return [f"step {i}: {print_cat(code)}" for i, (_, code) in enumerate(trace)]
