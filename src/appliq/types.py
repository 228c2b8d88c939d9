"""Simply-typed inference and checking for object-language terms: the
application and abstraction typing rules drive either bottom-up checking
of fully annotated terms or constraint generation solved by first-order
unification with an occurs check."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    AddCurried,
    AddPair,
    App,
    Const,
    ConstVal,
    FixConst,
    IntLit,
    Lam,
    Opaque,
    PairLit,
    SubCurried,
    Term,
    Var,
    desugar_pairs,
)


class Type:
    """Base class for types."""


@dataclass(frozen=True)
class Base(Type):
    name: str


@dataclass(frozen=True)
class TVar(Type):
    tid: int


@dataclass(frozen=True)
class Arrow(Type):
    dom: Type
    cod: Type


NAT = Base("N")


class TypeInferenceError(Exception):
    pass


class UnificationMismatch(TypeInferenceError):
    def __init__(self, t1: Type, t2: Type):
        super().__init__(f"cannot unify {type_to_str(t1)} with {type_to_str(t2)}")
        self.t1 = t1
        self.t2 = t2


class OccursCheckError(TypeInferenceError):
    def __init__(self, tid: int, ty: Type):
        super().__init__(
            f"occurs check: {type_to_str(TVar(tid))} in {type_to_str(ty)}")
        self.tid = tid
        self.ty = ty


class UnboundVariableError(TypeInferenceError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class RuleFViolation(TypeInferenceError):
    def __init__(self, fun_type: Type, arg_type: Type):
        super().__init__(
            f"application of {type_to_str(fun_type)} to {type_to_str(arg_type)}")
        self.fun_type = fun_type
        self.arg_type = arg_type


def apply_subst(s: dict[int, Type], t: Type) -> Type:
    match t:
        case TVar(tid) if tid in s:
            return apply_subst(s, s[tid])
        case Arrow(dom, cod):
            return Arrow(apply_subst(s, dom), apply_subst(s, cod))
    return t


def _root(s: dict[int, Type], t: Type) -> Type:
    """``t`` with bindings followed at the top only."""
    while type(t) is TVar and t.tid in s:
        t = s[t.tid]
    return t


def _occurs(tid: int, t: Type, s: dict[int, Type]) -> bool:
    t = _root(s, t)
    if type(t) is TVar:
        return t.tid == tid
    return type(t) is Arrow and (_occurs(tid, t.dom, s) or
                                 _occurs(tid, t.cod, s))


def unify(t1: Type, t2: Type, s: dict[int, Type] | None = None) -> dict[int, Type]:
    """Most general unifier extending ``s``; raises on mismatch or a
    circular binding.  ``s`` itself is left unchanged."""
    s = dict(s) if s is not None else {}
    _unify(t1, t2, s)
    return s


def _unify(t1: Type, t2: Type, s: dict[int, Type]) -> None:
    """:func:`unify` extending ``s`` in place.  Bound types are stored as
    found, so bindings are followed again wherever they are read; errors
    carry fully applied types."""
    t1, t2 = _root(s, t1), _root(s, t2)
    k1, k2 = type(t1), type(t2)
    if k1 is TVar:
        if k2 is TVar and t1.tid == t2.tid:
            return
        if _occurs(t1.tid, t2, s):
            raise OccursCheckError(t1.tid, apply_subst(s, t2))
        s[t1.tid] = t2
    elif k2 is TVar:
        if _occurs(t2.tid, t1, s):
            raise OccursCheckError(t2.tid, apply_subst(s, t1))
        s[t2.tid] = t1
    elif k1 is Arrow and k2 is Arrow:
        _unify(t1.dom, t2.dom, s)
        _unify(t1.cod, t2.cod, s)
    elif not (k1 is Base and t1 == t2):
        raise UnificationMismatch(apply_subst(s, t1), apply_subst(s, t2))


def _const_type(c: ConstVal, fresh) -> Type:
    match c:
        case IntLit():
            return NAT
        case AddCurried() | SubCurried():
            return Arrow(NAT, Arrow(NAT, NAT))
        case AddPair():
            # consumes a desugared pair of numbers
            return Arrow(Arrow(Arrow(NAT, Arrow(NAT, NAT)), NAT), NAT)
        case FixConst():
            a = fresh()
            return Arrow(Arrow(a, a), a)
        case Opaque():
            return fresh()
    raise TypeError(f"not a constant: {c!r}")


def _canonicalize_many(ts: list[Type]) -> list[Type]:
    names: dict[int, int] = {}

    def go(t: Type) -> Type:
        match t:
            case TVar(tid):
                if tid not in names:
                    names[tid] = len(names)
                return TVar(names[tid])
            case Arrow(dom, cod):
                dom2 = go(dom)
                return Arrow(dom2, go(cod))
        return t

    return [go(t) for t in ts]


def canonicalize(t: Type) -> Type:
    """Rename type variables to a, b, c, ... in first-occurrence order."""
    return _canonicalize_many([t])[0]


def infer(t: Term, env: dict[str, Type] | None = None) -> Type:
    """Principal type of a term, canonically renamed; the environment
    types any free variables."""
    return infer_with_annotations(t, env)[0]


def infer_with_annotations(t: Term,
                           env: dict[str, Type] | None = None
                           ) -> tuple[Type, dict[str, Type]]:
    """Principal type plus the inferred type of every binder of the
    desugared term, all renamed with one shared canonical mapping.
    Binder names must be unique for the annotation map to be faithful."""
    counter = itertools.count()

    def fresh() -> Type:
        return TVar(next(counter))

    subst: dict[int, Type] = {}
    binder_types: dict[str, Type] = {}

    # one context for the whole term: each name's types, innermost last
    ctx: dict[str, list[Type]] = {x: [ty] for x, ty in (env or {}).items()}

    def go(t: Term) -> Type:
        match t:
            case Var(name):
                if not ctx.get(name):
                    raise UnboundVariableError(name)
                return ctx[name][-1]
            case Const(c):
                return _const_type(c, fresh)
            case App(fun, arg):
                tf = go(fun)
                ta = go(arg)
                res = fresh()
                _unify(tf, Arrow(ta, res), subst)
                return res
            case Lam(binder, body):
                dom = fresh()
                binder_types[binder] = dom
                ctx.setdefault(binder, []).append(dom)
                cod = go(body)
                ctx[binder].pop()
                return Arrow(dom, cod)
        raise TypeError(f"not a desugared term: {t!r}")

    ty = go(desugar_pairs(t))
    names = sorted(binder_types)
    solved = _canonicalize_many(
        [apply_subst(subst, ty)] +
        [apply_subst(subst, binder_types[n]) for n in names])
    return solved[0], dict(zip(names, solved[1:]))


def check_typed_term(t: Term, annotations: dict[str, Type]) -> Type:
    """Compute the unique type of a fully annotated term bottom-up, with
    no unification: every application must apply an arrow to exactly its
    domain.  Pair literals must be desugared (and their binders
    annotated) beforehand."""
    match t:
        case Var(name):
            if name not in annotations:
                raise UnboundVariableError(name)
            return annotations[name]
        case Const(Opaque(name)):
            raise TypeInferenceError(f"opaque constant has no type: {name}")
        case Const(FixConst()):
            raise TypeInferenceError("fix has no monomorphic type")
        case Const(c):
            return _const_type(c, None)
        case App(fun, arg):
            tf = check_typed_term(fun, annotations)
            ta = check_typed_term(arg, annotations)
            match tf:
                case Arrow(dom, cod) if dom == ta:
                    return cod
            raise RuleFViolation(tf, ta)
        case Lam(binder, body):
            if binder not in annotations:
                raise UnboundVariableError(binder)
            return Arrow(annotations[binder],
                         check_typed_term(body, annotations))
        case PairLit():
            raise TypeInferenceError(
                "pair literal in a typed term; desugar and annotate first")
    raise TypeError(f"not a term: {t!r}")


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _tvar_name(k: int) -> str:
    return _LETTERS[k % 26] + ("" if k < 26 else str(k // 26))


def type_to_str(t: Type) -> str:
    """Right-associative arrows with minimal parentheses."""
    match t:
        case Base(name):
            return name
        case TVar(tid):
            return _tvar_name(tid)
        case Arrow(dom, cod):
            d = type_to_str(dom)
            if isinstance(dom, Arrow):
                d = f"({d})"
            return f"{d} -> {type_to_str(cod)}"
    raise TypeError(f"not a type: {t!r}")


def types_equal(t1: Type, t2: Type) -> bool:
    """Equality up to canonical renaming of type variables."""
    return canonicalize(t1) == canonicalize(t2)
