"""Independent reference evaluator for appliq's source language.

It shares no code with appliq: it has its own tokenizer and parser and
evaluates call-by-value over closures.  A pair ``[l, r]`` applied to
``f`` gives ``f l r``, and ``+ p`` is ``p add``.  The self-tests use it
to confirm the hand-written corpus values and the generator's values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_TOKEN = re.compile(
    r"\s+|--[^\n]*|(-?\d+|[A-Za-z][A-Za-z0-9_]*|[\\.()\[\],+])")
_INT64 = (-(2**63), 2**63 - 1)


def tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SyntaxError(f"unexpected character at {pos}: {text[pos]!r}")
        if m.group(1):
            tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse(text: str):
    """Parse to nested tuples: ("var", x), ("int", n), ("prim", op),
    ("lam", x, body), ("app", f, a), ("pair", l, r)."""
    toks = tokenize(text) + ["<eof>"]
    pos = 0

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = toks[pos]
        if expected is not None and tok != expected:
            raise SyntaxError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def term():
        if toks[pos] == "\\":
            take()
            binders = []
            while toks[pos] != ".":
                binders.append(take())
            take(".")
            body = term()
            for x in reversed(binders):
                body = ("lam", x, body)
            return body
        t = atom()
        while toks[pos] not in (")", "]", ",", "<eof>"):
            t = ("app", t, atom())
        return t

    def atom():
        tok = take()
        if tok == "(":
            t = term()
            take(")")
            return t
        if tok == "[":
            left = term()
            take(",")
            right = term()
            take("]")
            return ("pair", left, right)
        if tok in ("add", "sub", "+"):
            return ("prim", tok)
        if tok.lstrip("-").isdigit():
            return ("int", int(tok))
        if tok[0].isalpha() and tok != "fix":
            return ("var", tok)
        raise SyntaxError(f"unexpected token {tok!r}")

    t = term()
    take("<eof>")
    return t


@dataclass(frozen=True)
class Closure:
    binder: str
    body: tuple
    env: dict


@dataclass(frozen=True)
class Prim:
    op: str
    args: tuple = ()


@dataclass(frozen=True)
class Pair:
    left: object
    right: object


def apply(f, v):
    if isinstance(f, Closure):
        return evaluate(f.body, {**f.env, f.binder: v})
    if isinstance(f, Pair):
        return apply(apply(v, f.left), f.right)
    if isinstance(f, Prim):
        if f.op == "+":
            return apply(v, Prim("add"))
        args = f.args + (v,)
        if len(args) < 2:
            return Prim(f.op, args)
        m, n = args
        if not (isinstance(m, int) and isinstance(n, int)):
            raise TypeError(f"{f.op} applied to non-integers")
        r = m + n if f.op == "add" else m - n
        if not _INT64[0] <= r <= _INT64[1]:
            raise OverflowError(f"{f.op} overflows: {r}")
        return r
    raise TypeError(f"cannot apply {f!r}")


def evaluate(t, env: dict | None = None):
    env = env or {}
    match t:
        case ("var", x):
            return env[x]
        case ("int", n):
            return n
        case ("prim", op):
            return Prim(op)
        case ("lam", x, body):
            return Closure(x, body, env)
        case ("app", f, a):
            return apply(evaluate(f, env), evaluate(a, env))
        case ("pair", left, right):
            return Pair(evaluate(left, env), evaluate(right, env))
    raise TypeError(f"not a term: {t!r}")


def eval_int(text: str) -> int:
    v = evaluate(parse(text))
    if not isinstance(v, int):
        raise TypeError(f"program does not evaluate to an integer: {v!r}")
    return v
