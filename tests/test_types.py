import random
import tracemalloc

import pytest

from appliq.reduction import beta_step
from appliq.syntax import desugar_pairs, parse
from appliq.types import (
    NAT,
    Arrow,
    Base,
    OccursCheckError,
    RuleFViolation,
    TVar,
    TypeInferenceError,
    UnboundVariableError,
    UnificationMismatch,
    apply_subst,
    canonicalize,
    check_typed_term,
    infer,
    infer_with_annotations,
    type_to_str,
    types_equal,
    unify,
)
from genterms import gen_int_term, uniquify

a, b, c, d = TVar(0), TVar(1), TVar(2), TVar(3)


# ---------------------------------------------------------------------------
# inference

def test_infer_composition_combinator():
    got = infer(parse(r"\x y z. x (y z)"))
    want = Arrow(Arrow(b, c), Arrow(Arrow(a, b), Arrow(a, c)))
    assert types_equal(got, want)


def test_infer_identity():
    assert infer(parse(r"\x. x")) == Arrow(TVar(0), TVar(0))
    assert type_to_str(infer(parse(r"\x. x"))) == "a -> a"


def test_infer_self_application_fails():
    with pytest.raises(OccursCheckError):
        infer(parse(r"\x. x x"))


def test_infer_arithmetic():
    assert infer(parse("add 4 3")) == NAT
    assert infer(parse("add 4")) == Arrow(NAT, NAT)
    assert infer(parse(r"(\x. x [4, (\x. x) 3]) +")) == NAT


def test_infer_unbound_variable():
    with pytest.raises(UnboundVariableError):
        infer(parse("x"))
    assert infer(parse("x"), {"x": NAT}) == NAT


def test_infer_binder_scope():
    # an inner binder shadows the outer one only inside its body
    assert infer(parse(r"\x. add ((\x. x 1) (\z. z)) x")) == Arrow(NAT, NAT)
    with pytest.raises(UnboundVariableError):
        infer(parse(r"(\x. x) x"))
    env = {"x": NAT}
    assert infer(parse(r"(\x. x) add x"), env) == Arrow(NAT, NAT)
    assert env == {"x": NAT}


def test_infer_memory_is_linear_in_binder_nesting():
    # one context for the whole term, not a copy per binder kept alive
    # on the recursion stack
    def peak(n):
        t = parse("\\" + " ".join(f"x{i}" for i in range(n)) + ". 0")
        tracemalloc.start()
        try:
            infer(t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) < 3 * peak(1000)


def test_infer_fix():
    assert infer(parse("fix")) == Arrow(Arrow(TVar(0), TVar(0)), TVar(0))


def test_infer_mismatch():
    with pytest.raises(TypeInferenceError):
        infer(parse("add add"))


def test_infer_canonical_ids_contiguous():
    got = infer(parse(r"\x y z. x (y z)"))

    ids = []

    def walk(t):
        match t:
            case TVar(tid):
                ids.append(tid)
            case Arrow(dom, cod):
                walk(dom)
                walk(cod)

    walk(got)
    assert sorted(set(ids)) == list(range(len(set(ids))))


def test_infer_alpha_invariant():
    rng = random.Random(71)
    for _ in range(100):
        t = gen_int_term(rng, rng.randint(1, 4))
        assert infer(t) == infer(uniquify(t))


# ---------------------------------------------------------------------------
# unification

def test_unify_var():
    assert apply_subst(unify(a, NAT), a) == NAT


def test_unify_arrow_decomposition():
    s = unify(Arrow(a, b), Arrow(NAT, Arrow(NAT, NAT)))
    assert apply_subst(s, a) == NAT
    assert apply_subst(s, b) == Arrow(NAT, NAT)


def test_unify_mismatch_and_occurs():
    with pytest.raises(UnificationMismatch):
        unify(NAT, Arrow(a, b))
    with pytest.raises(OccursCheckError):
        unify(a, Arrow(a, b))


def test_unify_composition_equation_set():
    a1, beta, b1, b2, g1, g2, d1, big_d = (TVar(i) for i in range(8))
    s = {}
    for lhs, rhs in [(a1, Arrow(d1, g2)),
                     (b1, Arrow(big_d, d1)),
                     (g1, big_d),
                     (beta, Arrow(b1, b2)),
                     (b2, Arrow(g1, g2))]:
        s = unify(lhs, rhs, s)
    solved = apply_subst(s, Arrow(a1, beta))
    want = Arrow(Arrow(d1, g2),
                 Arrow(Arrow(g1, d1), Arrow(g1, g2)))
    assert types_equal(solved, apply_subst(s, want))


def test_unify_leaves_the_given_substitution_unchanged():
    s = {0: Arrow(b, c)}
    before = dict(s)
    out = unify(Arrow(a, b), Arrow(Arrow(NAT, c), NAT), s)
    assert s == before
    assert out is not s
    assert apply_subst(out, Arrow(a, b)) == Arrow(Arrow(NAT, c), NAT)
    with pytest.raises(UnificationMismatch):  # after binding b := N
        unify(Arrow(b, b), Arrow(NAT, Arrow(NAT, NAT)), s)
    assert s == before


def test_unify_idempotent():
    s = unify(Arrow(a, b), Arrow(NAT, Arrow(c, c)))
    out = apply_subst(s, Arrow(a, b))
    assert apply_subst(s, out) == out


# ---------------------------------------------------------------------------
# checking annotated terms

def test_check_identity():
    assert check_typed_term(parse(r"\x. x"), {"x": NAT}) == Arrow(NAT, NAT)


def test_check_application():
    ann = {"f": Arrow(NAT, NAT), "n": NAT}
    assert check_typed_term(parse("f n"), ann) == NAT


def test_check_rule_violation():
    with pytest.raises(RuleFViolation):
        check_typed_term(parse("f n"), {"f": NAT, "n": NAT})


def test_check_wrong_domain():
    ann = {"f": Arrow(Arrow(NAT, NAT), NAT), "n": NAT}
    with pytest.raises(RuleFViolation):
        check_typed_term(parse("f n"), ann)


def test_check_unannotated_variable():
    with pytest.raises(UnboundVariableError):
        check_typed_term(parse(r"\x. y"), {"x": NAT})


# ---------------------------------------------------------------------------
# principality

_GROUND = [NAT, Arrow(NAT, NAT), Arrow(NAT, Arrow(NAT, NAT)),
           Arrow(Arrow(NAT, NAT), NAT)]


def _ground_subst(rng, ty, annotations):
    ids = set()

    def walk(t):
        match t:
            case TVar(tid):
                ids.add(tid)
            case Arrow(dom, cod):
                walk(dom)
                walk(cod)

    walk(ty)
    for t in annotations.values():
        walk(t)
    return {tid: rng.choice(_GROUND) for tid in ids}


def test_principality_under_ground_instances():
    rng = random.Random(72)
    checked = 0
    while checked < 40:
        t = desugar_pairs(uniquify(gen_int_term(rng, rng.randint(1, 4))))
        try:
            ty, ann = infer_with_annotations(t)
        except TypeInferenceError:
            continue
        for _ in range(20):
            sigma = _ground_subst(rng, ty, ann)
            ground_ann = {v: apply_subst(sigma, k) for v, k in ann.items()}
            got = check_typed_term(t, ground_ann)
            assert got == apply_subst(sigma, ty)
        checked += 1


def test_subject_reduction():
    rng = random.Random(73)
    checked = 0
    while checked < 60:
        t = desugar_pairs(gen_int_term(rng, rng.randint(1, 4)))
        try:
            ty = infer(t)
        except TypeInferenceError:
            continue
        nxt = beta_step(t)
        if nxt is None:
            continue
        ty2 = infer(nxt)
        unify(ty, ty2)  # reduct's type must unify with the original
        checked += 1


# ---------------------------------------------------------------------------
# printing

def test_type_printer():
    ty = Arrow(Arrow(b, c), Arrow(Arrow(a, b), Arrow(a, c)))
    assert type_to_str(canonicalize(ty)) == "(a -> b) -> (c -> a) -> c -> b"
    assert type_to_str(NAT) == "N"
    assert type_to_str(Arrow(NAT, Arrow(NAT, NAT))) == "N -> N -> N"
    assert type_to_str(Arrow(Arrow(NAT, NAT), NAT)) == "(N -> N) -> N"


def test_arrow_injectivity():
    assert Arrow(a, b) != Arrow(a, c)
    assert Arrow(a, b) == Arrow(TVar(0), TVar(1))
    assert Base("N") != Arrow(Base("N"), Base("N"))
