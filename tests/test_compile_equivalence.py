"""The linear front end and compilers against the quadratic algorithms
they replaced.

The references below are the earlier implementations, kept here only as
test oracles: lambda lifting by repeated extraction from the root,
bracket abstraction guarded by an ``occurs`` walk at every level,
unification that rebuilds the substitution on every call, and the
per-character tokenizer.  Printed programs, combinator code in both
modes, type strings, error messages and token lists must be identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appliq import syntax
from appliq.ski import (
    CApp,
    CombTerm,
    CConst,
    CVar,
    I,
    K,
    Mode,
    S,
    occurs,
    print_comb,
    ski_compile,
)
from appliq.superc import (
    ScDef,
    ScProgram,
    _first_occurrences,
    _letters,
    _strip_binders,
    lift,
    print_program,
)
from appliq.syntax import (
    INT64_MAX,
    INT64_MIN,
    AddPair,
    App,
    Const,
    FreeVariableError,
    IntLit,
    Lam,
    PairLit,
    ParseError,
    Term,
    Var,
    apps,
    desugar_pairs,
    free_vars,
    fresh_var,
    lams,
    parse,
)
from appliq.types import (
    Arrow,
    Base,
    OccursCheckError,
    TVar,
    Type,
    TypeInferenceError,
    UnboundVariableError,
    UnificationMismatch,
    _canonicalize_many,
    _const_type,
    apply_subst,
    infer_with_annotations,
    type_to_str,
)
from genterms import gen_closed_lambda, gen_int_term, gen_printable_term

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.lam"))


# ---------------------------------------------------------------------------
# Reference: lifting by repeated extraction of the leftmost innermost group

def _ref_find_innermost_group(t: Term) -> tuple[list[str], Term] | None:
    match t:
        case Lam():
            binders, core = _strip_binders(t)
            inner = _ref_find_innermost_group(core)
            return inner if inner is not None else (binders, core)
        case App(fun, arg):
            return _ref_find_innermost_group(fun) or \
                _ref_find_innermost_group(arg)
        case PairLit(left, right):
            return _ref_find_innermost_group(left) or \
                _ref_find_innermost_group(right)
    return None


def _ref_replace_group(t: Term, group: Term, replacement: Term) -> Term:
    done = False

    def go(t: Term) -> Term:
        nonlocal done
        if done:
            return t
        if t == group:
            done = True
            return replacement
        match t:
            case App(fun, arg):
                fun2 = go(fun)
                return App(fun2, go(arg))
            case Lam(binder, body):
                return Lam(binder, go(body))
            case PairLit(left, right):
                left2 = go(left)
                return PairLit(left2, go(right))
        return t

    return go(t)


def ref_lift(t: Term) -> ScProgram:
    fvs = {v for v in free_vars(t) if not v.startswith("$")}
    if fvs:
        raise FreeVariableError(sorted(fvs)[0])
    defs: list[ScDef] = []
    letters = _letters()
    while (group := _ref_find_innermost_group(t)) is not None:
        binders, core = group
        extras: list[str] = []
        _first_occurrences(core, set(binders), extras)
        name = "$" + "".join(next(letters) for _ in binders)
        defs.append(ScDef(name, tuple(extras) + tuple(binders), core))
        t = _ref_replace_group(t, lams(binders, core),
                               apps(Var(name), *(Var(v) for v in extras)))
    return ScProgram(tuple(defs), t)


# ---------------------------------------------------------------------------
# Reference: bracket abstraction with an occurs check at every level

def ref_bracket_abstract(x: str, body: CombTerm, mode: Mode) -> CombTerm:
    if body == CVar(x):
        return I
    if mode is Mode.OPTIMIZED and not occurs(x, body):
        return CApp(K, body)
    match body:
        case CApp(fun, arg):
            return CApp(CApp(S, ref_bracket_abstract(x, fun, mode)),
                        ref_bracket_abstract(x, arg, mode))
    return CApp(K, body)


def ref_ski_compile(t: Term, mode: Mode) -> CombTerm:
    def go(t: Term) -> CombTerm:
        match t:
            case Var(name):
                return CVar(name)
            case Const(c):
                return CConst(c)
            case App(fun, arg):
                return CApp(go(fun), go(arg))
            case Lam(binder, body):
                return ref_bracket_abstract(binder, go(body), mode)
        raise TypeError(t)

    return go(desugar_pairs(t))


# ---------------------------------------------------------------------------
# Reference: unification copying and fully applying the substitution

def _ref_occurs(tid: int, t: Type, s: dict[int, Type]) -> bool:
    match apply_subst(s, t):
        case TVar(other):
            return other == tid
        case Arrow(dom, cod):
            return _ref_occurs(tid, dom, s) or _ref_occurs(tid, cod, s)
    return False


def ref_unify(t1: Type, t2: Type, s: dict[int, Type]) -> dict[int, Type]:
    s = dict(s)
    t1, t2 = apply_subst(s, t1), apply_subst(s, t2)
    match t1, t2:
        case TVar(a), TVar(b) if a == b:
            return s
        case TVar(a), _:
            if _ref_occurs(a, t2, s):
                raise OccursCheckError(a, t2)
            s[a] = t2
            return s
        case _, TVar(b):
            if _ref_occurs(b, t1, s):
                raise OccursCheckError(b, t1)
            s[b] = t1
            return s
        case Base(n1), Base(n2) if n1 == n2:
            return s
        case Arrow(d1, c1), Arrow(d2, c2):
            return ref_unify(c1, c2, ref_unify(d1, d2, s))
    raise UnificationMismatch(t1, t2)


def ref_infer_with_annotations(t: Term, env: dict[str, Type]
                               ) -> tuple[Type, dict[str, Type]]:
    counter = itertools.count()

    def fresh() -> Type:
        return TVar(next(counter))

    subst: dict[int, Type] = {}
    binder_types: dict[str, Type] = {}

    def go(t: Term, ctx: dict[str, Type]) -> Type:
        nonlocal subst
        match t:
            case Var(name):
                if name not in ctx:
                    raise UnboundVariableError(name)
                return ctx[name]
            case Const(c):
                return _const_type(c, fresh)
            case App(fun, arg):
                tf = go(fun, ctx)
                ta = go(arg, ctx)
                res = fresh()
                subst = ref_unify(tf, Arrow(ta, res), subst)
                return res
            case Lam(binder, body):
                dom = fresh()
                binder_types[binder] = dom
                return Arrow(dom, go(body, ctx | {binder: dom}))
        raise TypeError(t)

    ty = go(desugar_pairs(t), dict(env))
    names = sorted(binder_types)
    solved = _canonicalize_many(
        [apply_subst(subst, ty)] +
        [apply_subst(subst, binder_types[n]) for n in names])
    return solved[0], dict(zip(names, solved[1:]))


# ---------------------------------------------------------------------------
# Reference: the per-character tokenizer and its parser

@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    col: int


def ref_tokenize(text: str) -> list[_RefToken]:
    toks: list[_RefToken] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def bump(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = text[i]
        if c in " \t\r\n":
            bump()
            continue
        if c == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                bump()
            continue
        start_line, start_col = line, col
        if c in "\\.()[],+":
            kind = {"\\": "lambda", ".": "dot", "(": "lparen",
                    ")": "rparen", "[": "lbrack", "]": "rbrack",
                    ",": "comma", "+": "plus"}[c]
            toks.append(_RefToken(kind, c, start_line, start_col))
            bump()
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            lit = text[i:j]
            if not (INT64_MIN <= int(lit) <= INT64_MAX):
                raise ParseError(f"integer literal out of 64-bit range: {lit}",
                                 start_line, start_col)
            toks.append(_RefToken("int", lit, start_line, start_col))
            bump(j - i)
            continue
        if c.isalpha() or c == "$":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if c == "$" and len(word) == 1:
                raise ParseError("'$' must start a definition name",
                                 start_line, start_col)
            kind = "scname" if c == "$" else \
                ("keyword" if word in syntax._KEYWORD_CONSTS else "ident")
            toks.append(_RefToken(kind, word, start_line, start_col))
            bump(j - i)
            continue
        raise ParseError(f"unexpected character {c!r}", start_line, start_col)
    toks.append(_RefToken("eof", "", line, col))
    return toks


class _RefParser:
    def __init__(self, tokens: list[_RefToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str) -> _RefToken:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {what}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        return self.next()

    def term(self) -> Term:
        return self.lam() if self.peek().kind == "lambda" else self.app()

    def lam(self) -> Term:
        self.expect("lambda", "'\\'")
        binders = [self.expect("ident", "binder").text]
        while self.peek().kind == "ident":
            binders.append(self.next().text)
        self.expect("dot", "'.'")
        return lams(binders, self.term())

    def app(self) -> Term:
        tok = self.peek()
        if tok.kind not in syntax._ATOM_STARTS:
            raise ParseError(
                f"expected a term, found {tok.text or 'end of input'!r}",
                tok.line, tok.col)
        t = self.atom()
        while self.peek().kind in syntax._ATOM_STARTS:
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
        tok = self.next()
        match tok.kind:
            case "ident" | "scname":
                return Var(tok.text)
            case "keyword":
                return Const(syntax._KEYWORD_CONSTS[tok.text])
            case "int":
                return Const(IntLit(int(tok.text)))
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
        raise AssertionError(tok)


def ref_parse(text: str) -> Term:
    parser = _RefParser(ref_tokenize(text))
    t = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input starting at {tok.text!r}",
                         tok.line, tok.col)
    return t


def ref_desugar_pairs(t: Term) -> Term:
    match t:
        case Var() | Const():
            return t
        case App(fun, arg):
            return App(ref_desugar_pairs(fun), ref_desugar_pairs(arg))
        case Lam(binder, body):
            return Lam(binder, ref_desugar_pairs(body))
        case PairLit(left, right):
            left, right = ref_desugar_pairs(left), ref_desugar_pairs(right)
            r = fresh_var(free_vars(left) | free_vars(right), "r")
            return Lam(r, App(App(Var(r), left), right))
    raise TypeError(t)


# ---------------------------------------------------------------------------
# Comparisons

def _outcome(fn, *args) -> tuple[str, object]:
    """What a call returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (ParseError, TypeInferenceError, FreeVariableError) as exc:
        return type(exc).__name__, str(exc)


def _typing(infer_fn, t: Term, env: dict[str, Type]):
    ty, ann = infer_fn(t, env)
    return type_to_str(ty), {n: type_to_str(a) for n, a in ann.items()}


# Free variables of printable terms get types, so that some of them type
# and the rest fail in unification rather than on an unbound name.
_ENV = {"x": Base("N"), "y": Arrow(Base("N"), Base("N")), "z": TVar(0)}


def _check_compilers(t: Term) -> None:
    assert desugar_pairs(t) == ref_desugar_pairs(t)
    for mode in Mode:
        assert print_comb(ski_compile(t, mode)) == \
            print_comb(ref_ski_compile(t, mode)), mode
    assert _outcome(lambda u: print_program(lift(u)), t) == \
        _outcome(lambda u: print_program(ref_lift(u)), t)
    for env in ({}, _ENV):
        assert _outcome(_typing, infer_with_annotations, t, env) == \
            _outcome(_typing, ref_infer_with_annotations, t, env)


def _check_front_end(text: str) -> None:
    ref = _outcome(ref_tokenize, text)
    got = _outcome(syntax._tokenize, text)
    if ref[0] != "ok":
        assert got == ref
    else:
        assert [(k, w) for k, w, _ in got[1]] == \
            [(tok.kind, tok.text) for tok in ref[1]]
        positions = [syntax._error(text, offset, "")
                     for _, _, offset in got[1]]
        assert [(e.line, e.col) for e in positions] == \
            [(tok.line, tok.col) for tok in ref[1]]
    assert _outcome(parse, text) == _outcome(ref_parse, text)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_compilers_match_on_int_terms(seed, depth):
    _check_compilers(gen_int_term(random.Random(seed), depth))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_compilers_match_on_closed_lambdas(seed, depth):
    _check_compilers(gen_closed_lambda(random.Random(seed), depth))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_compilers_match_on_printable_terms(seed, depth):
    t = gen_printable_term(random.Random(seed), depth)
    _check_compilers(t)
    _check_front_end(syntax.print_term(t))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_compilers_and_front_end_match_on_corpus(path):
    _check_front_end(path.read_text())
    _check_compilers(parse(path.read_text()))


@pytest.mark.parametrize("source", [
    r"\r. [1, r]",
    r"\r r1. [r1, [r, 2]]",
    r"\x. [[x, 1], \r. [r, x]]",
    r"\r2 r. + [r, + [r2, 3]]",
])
def test_compilers_match_where_pair_names_clash(source):
    """The fresh binder of a desugared pair avoids the free variables of
    both components."""
    _check_compilers(parse(source))


# Pieces of source text, valid and invalid; every sequence of them is a
# tokenizer or parser input.  Characters that ``str.isdigit`` accepts but
# ``int`` rejects (such as '²') are left out: the reference tokenizer
# raises ValueError on them.
_FRAGMENTS = ("\\", ".", "(", ")", "[", "]", ",", "+", " ", "\t", "\n",
              "\r\n", "x", "y1", "f_g", "add", "sub", "fix", "addx", "$X",
              "$", "-", "--c\n", "-- x", "0", "12", "-7", "٣",
              "9223372036854775807", "-9223372036854775808",
              "9223372036854775808", "@", "é", "½", "_", "#")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=25))
def test_front_end_matches_on_token_soup(pieces):
    _check_front_end("".join(pieces))
