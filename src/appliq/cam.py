"""Categorical-combinator compilation of de Bruijn terms and evaluation
by closure.

Compilation maps index n to n!, application to $[.,.], abstraction to
L(.), pairs to <.,.> and constants to quotes.  Evaluation applies the
compiled code to the empty environment () and rewrites with the
leftmost-innermost strategy using

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
    (delta)  arithmetic on integer values
    (fix)    fix g           ->  eps [g, L($[$['fix, 1!], 0!]) [(), g]]

The fix rule is the call-by-value fixpoint ``fix g -> g (\\x. fix g x)``:
the unfolded ``fix g`` waits inside a closure until it is applied, so the
innermost strategy does not unfold it forever.

Environments are pair-value spines terminating in (); quoted
non-integer constants are unfolded to L(c o Snd) before evaluation so
they survive being stored in an environment and applied later.
"""

from __future__ import annotations

from dataclasses import dataclass

from .debruijn import DApp, DConst, DLam, DPair, DTerm, Index
from .reduction import Fields, Outcome, Rules, arith, run, step
from .syntax import (
    AddCurried,
    AddPair,
    ConstVal,
    FixConst,
    IntLit,
    SubCurried,
    const_name,
)


class CatCode:
    """Base class for categorical code and values."""


@dataclass(frozen=True)
class Ap(CatCode):
    """Application by juxtaposition; appears during evaluation only."""
    fun: CatCode
    arg: CatCode


@dataclass(frozen=True)
class AppC(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class LamC(CatCode):
    body: CatCode


@dataclass(frozen=True)
class QuoteC(CatCode):
    val: CatCode


@dataclass(frozen=True)
class Bang(CatCode):
    n: int


@dataclass(frozen=True)
class Couple(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class PairV(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class FstC(CatCode):
    pass


@dataclass(frozen=True)
class SndC(CatCode):
    pass


@dataclass(frozen=True)
class Comp(CatCode):
    left: CatCode
    right: CatCode


@dataclass(frozen=True)
class Eps(CatCode):
    pass


@dataclass(frozen=True)
class UnitV(CatCode):
    pass


@dataclass(frozen=True)
class KConst(CatCode):
    value: ConstVal


@dataclass(frozen=True)
class IntV(CatCode):
    n: int


UNIT = UnitV()
EPS = Eps()
FST = FstC()
SND = SndC()


def cam_compile(d: DTerm) -> CatCode:
    """Translate a closed de Bruijn term to categorical code."""
    match d:
        case Index(n):
            return Bang(n)
        case DConst(IntLit(n)):
            return QuoteC(IntV(n))
        case DConst(c):
            return QuoteC(KConst(c))
        case DApp(fun, arg):
            return AppC(cam_compile(fun), cam_compile(arg))
        case DLam(body):
            return LamC(cam_compile(body))
        case DPair(left, right):
            return Couple(cam_compile(left), cam_compile(right))
    raise TypeError(f"not a de Bruijn term: {d!r}")


def _map_children(c: CatCode, f) -> CatCode:
    match c:
        case Ap(x, y):
            return Ap(f(x), f(y))
        case AppC(x, y):
            return AppC(f(x), f(y))
        case LamC(x):
            return LamC(f(x))
        case QuoteC(x):
            return QuoteC(f(x))
        case Couple(x, y):
            return Couple(f(x), f(y))
        case PairV(x, y):
            return PairV(f(x), f(y))
        case Comp(x, y):
            return Comp(f(x), f(y))
    return c


def unfold_constant_quotes(c: CatCode) -> CatCode:
    """Rewrite 'c into L(c o Snd) for non-integer constants.  Quoted
    integers are data and keep the quote rule."""
    match c:
        case QuoteC(KConst() as k):
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
_FIX_BODY = AppC(AppC(LamC(Comp(KConst(FixConst()), SND)), Bang(1)), Bang(0))
_FIX_BODY_PRIMITIVE = expand_abbreviations(_FIX_BODY)


def _rule(c: CatCode, primitive_only: bool) -> tuple[CatCode, str] | None:
    """The rewrite rule for ``c``, if any; every rule has a
    juxtaposition at its root.  Rules are picked by the type of the
    applied code, so a juxtaposition no rule fits costs a few type
    checks."""
    if type(c) is not Ap:
        return None
    f, z = c.fun, c.arg
    kind = type(f)
    if kind is Comp:
        return Ap(f.left, Ap(f.right, z)), "ass"
    if kind is Couple:
        return PairV(Ap(f.left, z), Ap(f.right, z)), "dpair"
    if kind is PairV:
        # defining equation of the pairing combinator: [x,y] z = z x y
        return Ap(Ap(z, f.left), f.right), "pair"
    if kind is Ap:
        head = type(f.fun)
        if head is LamC and not primitive_only:
            return Ap(f.fun.body, PairV(f.arg, z)), "lam"
        if head is KConst and type(f.arg) is IntV and type(z) is IntV:
            op = f.fun.value
            if type(op) is AddCurried or type(op) is SubCurried:
                return IntV(arith(const_name(op), f.arg.n, z.n)), "delta"
        return None
    if kind is AppC:
        if primitive_only:
            return None
        return Ap(EPS, PairV(Ap(f.left, z), Ap(f.right, z))), "app"
    if kind is QuoteC:
        return (f.val, "quote") if not primitive_only else None
    if kind is LamC:
        # the quote rule read through 'M = L(M o Snd)
        body = f.body
        if primitive_only and type(body) is Comp and \
                type(body.right) is SndC:
            return body.left, "quote"
        return None
    if kind is KConst and type(f.value) is FixConst:
        body = _FIX_BODY_PRIMITIVE if primitive_only else _FIX_BODY
        return Ap(EPS, PairV(z, Ap(LamC(body), PairV(UNIT, z)))), "fix"
    if type(z) is not PairV:
        return None
    if kind is Eps:
        x = z.left
        if type(x) is Ap and type(x.fun) is LamC:
            return Ap(x.fun.body, PairV(x.arg, z.right)), "ac"
        return Ap(x, z.right), "eps"
    if kind is FstC:
        return z.left, "fst"
    if kind is SndC:
        return z.right, "snd"
    if kind is Bang and not primitive_only:
        if f.n == 0:
            return z.right, "bang"
        if f.n > 0:
            return Ap(Bang(f.n - 1), z.left), "bang"
        return None
    if kind is KConst and type(f.value) is AddPair and \
            type(z.left) is IntV and type(z.right) is IntV:
        return IntV(arith("+", z.left.n, z.right.n)), "delta"
    return None


_FIELDS: dict[type, Fields] = {
    Ap: lambda c: [c.fun, c.arg],
    AppC: lambda c: [c.left, c.right],
    Couple: lambda c: [c.left, c.right],
    PairV: lambda c: [c.left, c.right],
    Comp: lambda c: [c.left, c.right],
    LamC: lambda c: [c.body],
    QuoteC: lambda c: [c.val],
}


def _rules(primitive_only: bool) -> Rules:
    """Leftmost-innermost: a juxtaposition's rule is tried once both of
    its children hold no redex, and the search resumes at each
    contractum."""
    return Rules(_FIELDS, after=lambda c, path: _rule(c, primitive_only))


def cam_step(c: CatCode) -> CatCode | None:
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
    return run(Ap(compiled, UNIT), _rules(primitive_only), max_steps,
               collect_trace, named=True)


def print_cat(c: CatCode, expand_quotes: bool = False) -> str:
    """ASCII rendering: ``$[x,y]``, ``L(x)``, ``'x``, ``n!``, ``<x,y>``,
    ``[x,y]``, ``x o y``, ``eps``, ``()``.  With ``expand_quotes``,
    quoted non-integer constants print as ``L(c o Snd)``."""

    def atom(c: CatCode) -> str:
        # operands of juxtaposition and composition that need wrapping
        if isinstance(c, (Comp, Ap)):
            return f"({go(c)})"
        return go(c)

    def go(c: CatCode) -> str:
        match c:
            case Ap(fun, arg):
                f = f"({go(fun)})" if isinstance(fun, Comp) else go(fun)
                return f"{f} {atom(arg)}"
            case AppC(left, right):
                return f"$[{go(left)}, {go(right)}]"
            case LamC(body):
                return f"L({go(body)})"
            case QuoteC(KConst() as k) if expand_quotes:
                return f"L({go(k)} o Snd)"
            case QuoteC(val):
                return f"'{atom(val)}"
            case Bang(n):
                return f"{n}!"
            case Couple(left, right):
                return f"<{go(left)}, {go(right)}>"
            case PairV(left, right):
                return f"[{go(left)}, {go(right)}]"
            case FstC():
                return "Fst"
            case SndC():
                return "Snd"
            case Comp(left, right):
                return f"{atom(left)} o {atom(right)}"
            case Eps():
                return "eps"
            case UnitV():
                return "()"
            case KConst(v):
                return const_name(v)
            case IntV(n):
                return str(n)
        raise TypeError(f"not categorical code: {c!r}")

    return go(c)


def cam_trace_lines(trace: tuple[tuple[str | None, CatCode], ...]) -> list[str]:
    return [f"step {i}: {print_cat(code)}" for i, (_, code) in enumerate(trace)]
