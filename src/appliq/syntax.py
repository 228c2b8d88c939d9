"""Object language: terms, constants, parsing and printing, plus the
variable toolkit (free variables, capture-avoiding substitution,
alpha-equivalence, deterministic fresh names).

Concrete grammar::

    term  := lam | app
    lam   := '\\' ident+ '.' term
    app   := atom+                      -- left-associative
    atom  := ident | int | '+' | 'add' | 'sub' | 'fix'
           | '[' term ',' term ']' | '(' term ')'

Comments run from ``--`` to end of line.  Identifiers are ASCII letters,
digits and underscores, starting with a letter.  Identifiers starting
with ``$`` name supercombinator definitions and are only produced by the
lifter / program parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Abstract syntax

class ConstVal:
    """Base class for constants."""


@dataclass(frozen=True)
class IntLit(ConstVal):
    value: int


@dataclass(frozen=True)
class AddPair(ConstVal):
    """Addition taking a single pair argument; written ``+``."""


@dataclass(frozen=True)
class AddCurried(ConstVal):
    """Curried addition; written ``add``."""


@dataclass(frozen=True)
class SubCurried(ConstVal):
    """Curried subtraction; written ``sub``."""


@dataclass(frozen=True)
class FixConst(ConstVal):
    """Fixpoint constant with rule ``fix f -> f (fix f)``; an extension,
    never produced by the compilers themselves."""


@dataclass(frozen=True)
class Combinator(ConstVal):
    """An argument-free combinator, never parsed: ski's ``I``, ``K`` and
    ``S``, or cam's ``Fst``, ``Snd``, ``eps`` and ``()``.  Each is one
    ``Const`` singleton that the rules tell apart by identity."""
    name: str


@dataclass(frozen=True)
class Opaque(ConstVal):
    """A constant with no reduction rule; an inert head."""
    name: str


class Term:
    """Base class for object-language terms."""


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    value: ConstVal


# The only combinator nodes of compiled SKI code, told apart by identity.
I, K, S = (Const(Combinator(name)) for name in "IKS")


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Lam(Term):
    binder: str
    body: Term


@dataclass(frozen=True)
class PairLit(Term):
    """First-class pair ``[l, r]``, definitionally ``\\r. r l r'`` for a
    fresh ``r``.  Kept as a node because the categorical backend compiles
    it specially; the other backends desugar it first."""
    left: Term
    right: Term


def intlit(n: int) -> Term:
    return Const(IntLit(n))


def apps(fun: Term, *args: Term) -> Term:
    """Left-associated application chain."""
    t = fun
    for a in args:
        t = App(t, a)
    return t


def lams(binders: list[str] | tuple[str, ...], body: Term) -> Term:
    t = body
    for b in reversed(binders):
        t = Lam(b, t)
    return t


class FreeVariableError(Exception):
    """An operation requiring a closed term met a free variable."""

    def __init__(self, name: str):
        super().__init__(f"free variable: {name}")
        self.name = name


# ---------------------------------------------------------------------------
# Variables

def free_vars(t: Term) -> frozenset[str]:
    """Variables with at least one free occurrence in ``t``."""
    match t:
        case Var(name):
            return frozenset({name})
        case Const():
            return frozenset()
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case Lam(binder, body):
            return free_vars(body) - {binder}
        case PairLit(left, right):
            return free_vars(left) | free_vars(right)
    raise TypeError(f"not a term: {t!r}")


def all_vars(t: Term) -> frozenset[str]:
    """Every variable occurring in ``t``, free or bound, binders included."""
    match t:
        case Var(name):
            return frozenset({name})
        case Const():
            return frozenset()
        case App(fun, arg):
            return all_vars(fun) | all_vars(arg)
        case Lam(binder, body):
            return all_vars(body) | {binder}
        case PairLit(left, right):
            return all_vars(left) | all_vars(right)
    raise TypeError(f"not a term: {t!r}")


def fresh_var(avoid: frozenset[str] | set[str], hint: str) -> str:
    """Deterministic fresh name: ``hint``, then ``hint1``, ``hint2``, ..."""
    if hint not in avoid:
        return hint
    k = 1
    while f"{hint}{k}" in avoid:
        k += 1
    return f"{hint}{k}"


def subst(g: Term, x: str, f: Term) -> Term:
    """Capture-avoiding substitution ``[g/x]f``.

    Renames a binder only when it would capture a free variable of ``g``
    and ``x`` actually occurs free in the body; the replacement binder is
    fresh for every variable of both ``g`` and the body.
    """
    return _subst(g, free_vars(g), x, f)


def _subst(g: Term, g_free: frozenset[str], x: str, f: Term) -> Term:
    """:func:`subst` with ``g_free`` the free variables of ``g``."""
    match f:
        case Var(name):
            return g if name == x else f
        case Const():
            return f
        case App(fun, arg):
            return App(_subst(g, g_free, x, fun), _subst(g, g_free, x, arg))
        case PairLit(left, right):
            return PairLit(_subst(g, g_free, x, left),
                           _subst(g, g_free, x, right))
        case Lam(binder, body):
            if binder == x:
                return f
            if binder not in g_free or x not in free_vars(body):
                return Lam(binder, _subst(g, g_free, x, body))
            z = fresh_var(all_vars(g) | all_vars(body), binder)
            renamed = _subst(Var(z), frozenset({z}), binder, body)
            return Lam(z, _subst(g, g_free, x, renamed))
    raise TypeError(f"not a term: {f!r}")


def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables."""

    def go(a: Term, b: Term, env_a: dict[str, int], env_b: dict[str, int],
           depth: int) -> bool:
        match a, b:
            case Var(na), Var(nb):
                da, db = env_a.get(na), env_b.get(nb)
                if da is None and db is None:
                    return na == nb
                return da == db
            case Const(ca), Const(cb):
                return ca == cb
            case App(fa, aa), App(fb, ab):
                return go(fa, fb, env_a, env_b, depth) and \
                    go(aa, ab, env_a, env_b, depth)
            case PairLit(la, ra), PairLit(lb, rb):
                return go(la, lb, env_a, env_b, depth) and \
                    go(ra, rb, env_a, env_b, depth)
            case Lam(xa, ba), Lam(xb, bb):
                return go(ba, bb, env_a | {xa: depth}, env_b | {xb: depth},
                          depth + 1)
        return False

    return go(a, b, {}, {}, 0)


_NO_VARS: frozenset[str] = frozenset()


def desugar_pairs(t: Term) -> Term:
    """Replace every pair literal by ``\\r. r l r'`` with ``r`` fresh.
    Subtrees without a pair literal are returned as they are."""
    return _desugar(t, False)[0]


def _desugar(t: Term, want_fv: bool) -> tuple[Term, frozenset[str] | None]:
    """:func:`desugar_pairs` of ``t``, with ``free_vars(t)`` (which
    desugaring leaves unchanged) when ``want_fv``, else None.  Only the
    components of a pair literal need their free variables, to pick a
    fresh ``r``."""
    kind = type(t)
    if kind is Var:
        return t, frozenset((t.name,)) if want_fv else None
    if kind is Const:
        return t, _NO_VARS if want_fv else None
    if kind is Lam:
        body, fv = _desugar(t.body, want_fv)
        if body is not t.body:
            t = Lam(t.binder, body)
        return t, fv - {t.binder} if want_fv else None
    if kind is App:
        (fun, fv_fun), (arg, fv_arg) = \
            _desugar(t.fun, want_fv), _desugar(t.arg, want_fv)
        if fun is not t.fun or arg is not t.arg:
            t = App(fun, arg)
        return t, fv_fun | fv_arg if want_fv else None
    if kind is PairLit:
        (left, fv_left), (right, fv_right) = \
            _desugar(t.left, True), _desugar(t.right, True)
        fv = fv_left | fv_right
        r = fresh_var(fv, "r")
        return Lam(r, App(App(Var(r), left), right)), fv if want_fv else None
    raise TypeError(f"not a term: {t!r}")


def resugar_pairs(t: Term) -> Term:
    """Inverse of :func:`desugar_pairs` where the pair shape is visible;
    used only for display (traces, results)."""
    match t:
        case Var() | Const():
            return t
        case App(fun, arg):
            return App(resugar_pairs(fun), resugar_pairs(arg))
        case PairLit(left, right):
            return PairLit(resugar_pairs(left), resugar_pairs(right))
        case Lam(binder, App(App(Var(r), left), right)) if r == binder \
                and binder not in free_vars(left) | free_vars(right):
            return PairLit(resugar_pairs(left), resugar_pairs(right))
        case Lam(binder, body):
            return Lam(binder, resugar_pairs(body))
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Lexer

class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_KEYWORD_CONSTS: dict[str, ConstVal] = {
    "add": AddCurried(),
    "sub": SubCurried(),
    "fix": FixConst(),
}


# Whitespace and comments match no group and are skipped; every other
# character starts a token or is caught by ``bad``.  ``\w`` matches what
# ``str.isalnum()`` accepts plus the underscore; ``[^\W\d_]`` also admits
# numeric characters that are not letters, which ``_tokenize`` rejects.
_TOKEN_RE = re.compile(
    r"[ \t\r\n]+|--[^\n]*"
    r"|(?P<int>-?\d+)|(?P<scname>\$\w*)|(?P<ident>[^\W\d_]\w*)"
    r"|(?P<lambda>\\)|(?P<dot>\.)|(?P<lparen>\()|(?P<rparen>\))"
    r"|(?P<lbrack>\[)|(?P<rbrack>\])|(?P<comma>,)|(?P<plus>\+)"
    r"|(?P<bad>.)", re.DOTALL)

_Token = tuple[str, str, int]  # kind, text, start offset


def _error(text: str, offset: int, message: str) -> ParseError:
    """A :class:`ParseError` at the line and column of ``offset``."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


def _in_int64_range(literal: str) -> bool:
    try:
        return INT64_MIN <= int(literal) <= INT64_MAX
    except ValueError:  # more digits than int() converts from a string
        return False


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind is None:
            continue
        word = m.group()
        if kind == "ident":
            if word in _KEYWORD_CONSTS:
                kind = "keyword"
            elif not word[0].isalpha():  # a numeric character such as '½'
                kind, word = "bad", word[0]
        elif kind == "int" and not _in_int64_range(word):
            raise _error(text, m.start(),
                         f"integer literal out of 64-bit range: {word}")
        elif kind == "scname" and len(word) == 1:
            raise _error(text, m.start(), "'$' must start a definition name")
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {word!r}")
        toks.append((kind, word, m.start()))
    toks.append(("eof", "", len(text)))
    return toks


# ---------------------------------------------------------------------------
# Parser

_ATOM_STARTS = {"ident", "scname", "keyword", "int", "plus", "lbrack",
                "lparen"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token) -> ParseError:
        return _error(self.text, tok[2], message)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok[0] != kind:
            raise self.error(
                f"expected {what}, found {tok[1] or 'end of input'!r}", tok)
        return self.next()

    def term(self) -> Term:
        if self.peek()[0] == "lambda":
            return self.lam()
        return self.app()

    def lam(self) -> Term:
        self.expect("lambda", "'\\'")
        binders = [self.expect("ident", "binder")[1]]
        while self.peek()[0] == "ident":
            binders.append(self.next()[1])
        self.expect("dot", "'.'")
        return lams(binders, self.term())

    def app(self) -> Term:
        tok = self.peek()
        if tok[0] not in _ATOM_STARTS:
            raise self.error(
                f"expected a term, found {tok[1] or 'end of input'!r}", tok)
        t = self.atom()
        while self.peek()[0] in _ATOM_STARTS:
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.next()
        kind, text, _ = tok
        match kind:
            case "ident" | "scname":
                return Var(text)
            case "keyword":
                return Const(_KEYWORD_CONSTS[text])
            case "int":
                return Const(IntLit(int(text)))
            case "plus":
                return Const(AddPair())
            case "lbrack":
                left = self.term()
                self.expect("comma", "','")
                right = self.term()
                self.expect("rbrack", "']'")
                return PairLit(left, right)
            case "lparen":
                t = self.term()
                self.expect("rparen", "')'")
                return t
        raise self.error(f"unexpected {text!r}", tok)


def parse(text: str) -> Term:
    """Parse a source string into a term.

    Application is left-associative and a lambda body extends as far
    right as possible.  Raises :class:`ParseError` with line/column on
    malformed input.
    """
    parser = _Parser(text)
    t = parser.term()
    tok = parser.peek()
    if tok[0] != "eof":
        raise parser.error(f"trailing input starting at {tok[1]!r}", tok)
    return t


# ---------------------------------------------------------------------------
# Printer

def const_name(c: ConstVal) -> str:
    match c:
        case IntLit(v):
            return str(v)
        case AddPair():
            return "+"
        case AddCurried():
            return "add"
        case SubCurried():
            return "sub"
        case FixConst():
            return "fix"
        case Combinator(name) | Opaque(name):
            return name
    raise TypeError(f"not a constant: {c!r}")


def print_term(t: Term) -> str:
    """Render a term; ``parse(print_term(t))`` is structurally ``t`` for
    terms over the concrete grammar (opaque constants print as bare
    names and are not re-readable)."""

    out: list[str] = []

    def go(t: Term, wrap: bool = False) -> None:
        if wrap:
            out.append("(")
        kind = type(t)
        if kind is App:
            go(t.fun, type(t.fun) is Lam)
            out.append(" ")
            go(t.arg, type(t.arg) is App or type(t.arg) is Lam)
        elif kind is Var:
            out.append(t.name)
        elif kind is Const:
            out.append(const_name(t.value))
        elif kind is Lam:
            binders = []
            while type(t) is Lam:
                binders.append(t.binder)
                t = t.body
            out.append(f"\\{' '.join(binders)}. ")
            go(t)
        elif kind is PairLit:
            out.append("[")
            go(t.left)
            out.append(", ")
            go(t.right)
            out.append("]")
        else:
            raise TypeError(f"not a term: {t!r}")
        if wrap:
            out.append(")")

    go(t)
    return "".join(out)
