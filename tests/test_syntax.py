import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from appliq.syntax import (
    AddCurried,
    AddPair,
    App,
    Const,
    IntLit,
    Lam,
    Opaque,
    PairLit,
    ParseError,
    SubCurried,
    Var,
    all_vars,
    alpha_eq,
    desugar_pairs,
    free_vars,
    fresh_var,
    intlit,
    parse,
    print_term,
    resugar_pairs,
    subst,
)
from genterms import gen_printable_term, gen_small_term

F_SOURCE = r"(\x. x [4, (\x. x) 3]) +"


# ---------------------------------------------------------------------------
# parsing

def test_parse_identity():
    assert parse(r"\x. x") == Lam("x", Var("x"))


def test_parse_worked_example():
    expected = App(
        Lam("x", App(Var("x"),
                     PairLit(intlit(4), App(Lam("x", Var("x")), intlit(3))))),
        Const(AddPair()))
    assert parse(F_SOURCE) == expected


def test_parse_left_associative():
    assert parse("f x y") == App(App(Var("f"), Var("x")), Var("y"))


def test_parse_multi_binder_sugar():
    assert parse(r"\x y. x") == Lam("x", Lam("y", Var("x")))


def test_parse_lambda_body_extends_right():
    assert parse(r"\x. f x") == Lam("x", App(Var("f"), Var("x")))


def test_parse_constants_and_comments():
    assert parse("add -- curried\n4 3") == App(App(Const(AddCurried()),
                                                   intlit(4)), intlit(3))
    assert parse("sub") == Const(SubCurried())
    assert parse("-12") == intlit(-12)


@pytest.mark.parametrize("src", ["", "(x", "\\. x", "[1 2]", "x )", "\\1. x",
                                 "x 99999999999999999999"])
def test_parse_errors(src):
    with pytest.raises(ParseError):
        parse(src)


def test_parse_error_location():
    try:
        parse("f (x\n  ]")
    except ParseError as exc:
        assert exc.line == 2 and exc.col == 3
    else:
        pytest.fail("no error raised")


@pytest.mark.parametrize("src, line, col, message", [
    ("-- a comment\n  @ x", 2, 3, "unexpected character '@'"),
    ("x\r\n\t(y\r\n  ]", 3, 3, "expected ')', found ']'"),
    ("\t\tf @", 1, 5, "unexpected character '@'"),
    ("f\n  1 99999999999999999999", 2, 5,
     "integer literal out of 64-bit range: 99999999999999999999"),
    ("x\n $ y", 2, 2, "'$' must start a definition name"),
    ("\\x. x ?", 1, 7, "unexpected character '?'"),
    ("(x) )", 1, 5, "trailing input starting at ')'"),
    ("\\x.", 1, 4, "expected a term, found 'end of input'"),
    ("(f\n  x", 2, 4, "expected ')', found 'end of input'"),
    ("--only a comment\n", 2, 1, "expected a term, found 'end of input'"),
], ids=["after_comment", "crlf", "tabs", "out_of_range", "lone_dollar",
        "unexpected_char", "trailing", "end_of_input", "eof_next_line",
        "comment_only"])
def test_parse_error_line_and_column(src, line, col, message):
    """Columns count characters (a tab or a carriage return is one) and
    a newline starts the next line at column 1."""
    with pytest.raises(ParseError) as info:
        parse(src)
    assert (info.value.line, info.value.col) == (line, col)
    assert str(info.value) == f"line {line}, col {col}: {message}"


def test_parse_error_for_literal_longer_than_int_converts():
    digits = "7" * 5000
    with pytest.raises(ParseError) as info:
        parse(f"add 1 {digits}")
    assert (info.value.line, info.value.col) == (1, 7)
    assert str(info.value).endswith(f"out of 64-bit range: {digits}")


# ---------------------------------------------------------------------------
# printing

def test_print_identity():
    assert print_term(Lam("x", Var("x"))) == r"\x. x"


def test_print_pair():
    assert print_term(PairLit(intlit(4), intlit(3))) == "[4, 3]"


def test_print_worked_example():
    assert print_term(parse(F_SOURCE)) == F_SOURCE


def test_print_parse_roundtrip_random():
    rng = random.Random(2024)
    for _ in range(1000):
        t = gen_printable_term(rng, rng.randint(0, 8))
        assert parse(print_term(t)) == t


_names = st.sampled_from(["x", "y", "z", "f"])
_leaves = st.one_of(
    st.builds(Var, _names),
    st.builds(intlit, st.integers(-99, 99)),
    st.sampled_from([Const(AddPair()), Const(AddCurried()),
                     Const(SubCurried())]),
)
_terms = st.recursive(
    _leaves,
    lambda ts: st.one_of(st.builds(App, ts, ts),
                         st.builds(Lam, _names, ts),
                         st.builds(PairLit, ts, ts)),
    max_leaves=25,
)


@given(_terms)
def test_print_parse_roundtrip(t):
    assert parse(print_term(t)) == t


@given(_terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


# ---------------------------------------------------------------------------
# free variables

def test_free_vars_examples():
    assert free_vars(Lam("x", Var("y"))) == {"y"}
    combinator = parse(r"\f. f (\x. f x 2)")
    assert free_vars(combinator) == frozenset()
    assert free_vars(Var("x")) == {"x"}


# ---------------------------------------------------------------------------
# substitution

def test_subst_variable():
    g = App(Var("g"), intlit(1))
    assert subst(g, "x", Var("x")) == g


def test_subst_shadowed_binder():
    f = Lam("x", App(Var("x"), Var("y")))
    assert subst(Var("q"), "x", f) == f


def test_subst_renaming_branch():
    out = subst(Var("y"), "x", Lam("y", Var("x")))
    assert alpha_eq(out, Lam("z", Var("y")))
    assert isinstance(out, Lam) and out.binder not in {"x", "y"}


def test_subst_atoms():
    assert subst(Var("g"), "x", intlit(7)) == intlit(7)
    assert subst(Var("g"), "x", Var("y")) == Var("y")


def test_subst_free_var_lemma():
    rng = random.Random(99)
    for _ in range(1000):
        f = gen_small_term(rng, rng.randint(1, 5))
        g = gen_small_term(rng, rng.randint(0, 3))
        x = rng.choice(["x", "y", "z"])
        r = subst(g, x, f)
        expected = (free_vars(f) - {x}) | \
            (free_vars(g) if x in free_vars(f) else frozenset())
        assert free_vars(r) == expected


def test_subst_never_captures_tagged():
    # tag the replacement's variables with opaque constants: they must
    # survive substitution verbatim wherever x occurred free
    rng = random.Random(5)

    def count_tags(t) -> int:
        match t:
            case Const(Opaque(name)) if name.startswith("tag_"):
                return 1
            case App(fun, arg):
                return count_tags(fun) + count_tags(arg)
            case Lam(_, body):
                return count_tags(body)
            case PairLit(left, right):
                return count_tags(left) + count_tags(right)
        return 0

    def count_free(t, x, bound=frozenset()) -> int:
        match t:
            case Var(name):
                return int(name == x and name not in bound)
            case App(fun, arg):
                return count_free(fun, x, bound) + count_free(arg, x, bound)
            case Lam(b, body):
                return count_free(body, x, bound | {b})
            case PairLit(left, right):
                return count_free(left, x, bound) + count_free(right, x, bound)
        return 0

    for i in range(200):
        f = gen_small_term(rng, rng.randint(1, 5))
        x = rng.choice(["x", "y", "z"])
        g = App(Const(Opaque(f"tag_{i}")), Const(Opaque(f"tag_{i}b")))
        r = subst(g, x, f)
        assert count_tags(r) == 2 * count_free(f, x)


# ---------------------------------------------------------------------------
# alpha equivalence

def test_alpha_eq_examples():
    assert alpha_eq(parse(r"\x. x"), parse(r"\y. y"))
    assert not alpha_eq(parse(r"\x. y"), parse(r"\x. z"))
    assert not alpha_eq(parse(r"\x y. x"), parse(r"\x y. y"))


def test_alpha_eq_equivalence_relation():
    rng = random.Random(17)
    for _ in range(300):
        a = gen_small_term(rng, rng.randint(0, 4))
        b = gen_small_term(rng, rng.randint(0, 4))
        c = gen_small_term(rng, rng.randint(0, 4))
        assert alpha_eq(a, a)
        assert alpha_eq(a, b) == alpha_eq(b, a)
        if alpha_eq(a, b) and alpha_eq(b, c):
            assert alpha_eq(a, c)


# ---------------------------------------------------------------------------
# fresh names and pair sugar

def test_fresh_var():
    assert fresh_var(frozenset(), "z") == "z"
    assert fresh_var(frozenset({"z"}), "z") == "z1"
    assert fresh_var(frozenset({"z", "z1"}), "z") == "z2"


def test_desugar_pair_shape():
    t = desugar_pairs(PairLit(intlit(4), intlit(3)))
    assert t == Lam("r", App(App(Var("r"), intlit(4)), intlit(3)))


def test_desugar_avoids_capture():
    t = desugar_pairs(PairLit(Var("r"), intlit(3)))
    assert isinstance(t, Lam) and t.binder != "r"
    assert free_vars(t) == {"r"}


def test_resugar_inverts_desugar():
    rng = random.Random(23)
    for _ in range(200):
        t = gen_printable_term(rng, rng.randint(0, 6))
        assert alpha_eq(resugar_pairs(desugar_pairs(t)), resugar_pairs(t))


def test_all_vars():
    t = parse(r"\x. y x")
    assert all_vars(t) == {"x", "y"}
