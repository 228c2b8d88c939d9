import random

import pytest

from appliq.cam import AppC, Bang, Couple, LamC, QuoteC, cam_compile
from appliq.debruijn import DanglingIndexError, decode, encode, print_dterm
from appliq.syntax import (
    AddPair,
    Const,
    FreeVariableError,
    IntLit,
    Lam,
    Var,
    alpha_eq,
    parse,
)
from genterms import gen_closed_lambda, gen_int_term


def test_encode_shadowing_example():
    d = encode(parse(r"\y. (\x y. x) y"))
    assert d == LamC(AppC(LamC(LamC(Bang(1))), Bang(0)))
    assert print_dterm(d) == r"\.((\.\.#1) #0)"


def test_encode_applied_pair_term():
    d = encode(parse(r"(\x. x [4, (\x. x) 3]) +"))
    assert d == AppC(
        LamC(AppC(Bang(0),
                  Couple(QuoteC(Const(IntLit(4))),
                         AppC(LamC(Bang(0)), QuoteC(Const(IntLit(3))))))),
        QuoteC(Const(AddPair())))


def test_encode_identity():
    assert encode(parse(r"\x. x")) == LamC(Bang(0))


def test_encode_rejects_open_terms():
    with pytest.raises(FreeVariableError) as exc:
        encode(parse(r"\x. y"))
    assert exc.value.name == "y"


def test_decode_identity():
    assert decode(LamC(Bang(0))) == Lam("v0", Var("v0"))


def test_decode_shadowing_example():
    t = decode(LamC(AppC(LamC(LamC(Bang(1))), Bang(0))))
    assert alpha_eq(t, parse(r"\y. (\x y. x) y"))


def test_decode_dangling_index():
    with pytest.raises(DanglingIndexError):
        decode(LamC(Bang(3)))


def test_roundtrip_random_closed_terms():
    rng = random.Random(77)
    for _ in range(1000):
        t = gen_closed_lambda(rng, rng.randint(0, 7)) if rng.random() < 0.6 \
            else gen_int_term(rng, rng.randint(0, 4))
        assert alpha_eq(decode(encode(t)), t)
        assert alpha_eq(decode(cam_compile(encode(t))), t)


def test_encode_is_canonical():
    rng = random.Random(78)
    for _ in range(400):
        a = gen_closed_lambda(rng, rng.randint(0, 5))
        b = gen_closed_lambda(rng, rng.randint(0, 5))
        assert (encode(a) == encode(b)) == alpha_eq(a, b)
    # alpha-variants must collide
    assert encode(parse(r"\x. x")) == encode(parse(r"\q. q"))
    assert encode(parse(r"\x y. x y")) == encode(parse(r"\a b. a b"))


def test_printer_ascii():
    assert print_dterm(Bang(2)) == "#2"
    assert print_dterm(Couple(QuoteC(Const(IntLit(1))), Bang(0))) == "[1, #0]"
