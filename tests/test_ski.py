import random

from appliq.reduction import EvalConfig, Status, reduce
from appliq.ski import (
    CConst,
    I,
    K,
    Mode,
    S,
    bracket_abstract,
    comb_size,
    print_comb,
    ski_compile,
    ski_reduce,
    ski_step,
    ski_trace_lines,
)
from appliq.syntax import (
    App,
    Const,
    IntLit,
    Opaque,
    Var,
    alpha_eq,
    apps,
    free_vars,
    intlit,
    parse,
)
from genterms import gen_closed_lambda, gen_int_term, uniquify

CURRIED_F = r"(\x. x 4 ((\x. x) 3)) add"
GOLDEN_COMPILE = "S (S I (K 4)) (S (K I) (K 3)) add"


def _lit(n):
    return CConst(IntLit(n))


# ---------------------------------------------------------------------------
# bracket abstraction

def test_bracket_variable_is_identity():
    assert bracket_abstract("x", Var("x"), Mode.NAIVE) == I
    assert bracket_abstract("x", Var("x"), Mode.OPTIMIZED) == I


def test_bracket_constant():
    assert bracket_abstract("x", _lit(4), Mode.NAIVE) == App(K, _lit(4))


def test_bracket_application():
    got = bracket_abstract("x", App(Var("x"), _lit(4)), Mode.NAIVE)
    assert got == apps(S, I, App(K, _lit(4)))


def test_bracket_optimized_shortcuts_applications():
    body = App(Var("y"), _lit(4))
    assert bracket_abstract("x", body, Mode.OPTIMIZED) == App(K, body)
    naive = bracket_abstract("x", body, Mode.NAIVE)
    assert naive == apps(S, App(K, Var("y")), App(K, _lit(4)))


def test_bracket_eliminates_variable():
    rng = random.Random(41)
    for _ in range(300):
        body = ski_compile(gen_closed_lambda(rng, rng.randint(0, 5)))
        for mode in Mode:
            assert "x" not in free_vars(bracket_abstract("x", body, mode))
            got = bracket_abstract("w", App(body, Var("w")), mode)
            assert "w" not in free_vars(got)


# ---------------------------------------------------------------------------
# compilation

def test_compile_worked_example_golden():
    assert print_comb(ski_compile(parse(CURRIED_F), Mode.NAIVE)) == \
        GOLDEN_COMPILE


def test_compile_identity():
    assert ski_compile(parse(r"\x. x")) == I


def test_compile_const_behavioral():
    code = ski_compile(parse(r"\x y. x"), Mode.OPTIMIZED)
    a, b = CConst(Opaque("a")), CConst(Opaque("b"))
    out = ski_reduce(apps(code, a, b), 1000)
    assert out.result == a


def test_compile_alpha_canonical():
    rng = random.Random(42)
    for _ in range(200):
        t = gen_closed_lambda(rng, rng.randint(1, 5))
        variant = uniquify(t)
        assert alpha_eq(t, variant)
        for mode in Mode:
            assert ski_compile(t, mode) == ski_compile(variant, mode)


def test_optimized_never_larger():
    rng = random.Random(43)
    for _ in range(300):
        t = gen_closed_lambda(rng, rng.randint(1, 6))
        assert comb_size(ski_compile(t, Mode.OPTIMIZED)) <= \
            comb_size(ski_compile(t, Mode.NAIVE))


# ---------------------------------------------------------------------------
# reduction

def test_step_axioms():
    x, y, z = Var("x"), Var("y"), Var("z")
    assert ski_step(App(I, x)) == x
    assert ski_step(apps(K, x, y)) == x
    assert ski_step(apps(S, x, y, z)) == App(App(x, z), App(y, z))


def test_step_worked_example_first_step():
    t = ski_compile(parse(CURRIED_F), Mode.NAIVE)
    assert print_comb(ski_step(t)) == "S I (K 4) add (S (K I) (K 3) add)"


def test_reduce_worked_example_chain():
    out = ski_reduce(ski_compile(parse(CURRIED_F), Mode.NAIVE), 1000,
                     collect_trace=True)
    assert out.result == _lit(7)
    assert out.steps_used == 9
    lines = ski_trace_lines(out.trace)
    assert lines[0] == f"step 0: {GOLDEN_COMPILE}"
    assert lines[-1] == "step 9: 7"


def test_reduce_budget():
    # S I I (S I I) loops forever
    sii = apps(S, I, I)
    out = ski_reduce(App(sii, sii), 50)
    assert out.status is Status.BUDGET_EXHAUSTED


def test_delta_on_pair_shapes():
    # optimized and naive compilations of a literal pair both feed '+'
    for mode in Mode:
        code = ski_compile(parse("+ [4, 3]"), mode)
        assert ski_reduce(code, 1000).result == _lit(7)


def test_fix_constant():
    code = ski_compile(parse(r"fix (\g. 7)"))
    assert ski_reduce(code, 1000).result == _lit(7)


def test_cross_backend_sample():
    rng = random.Random(44)
    for _ in range(100):
        t = gen_int_term(rng, rng.randint(1, 4))
        expected = reduce(t, EvalConfig(max_steps=10000)).result
        assert isinstance(expected, Const)
        out = ski_reduce(ski_compile(t, Mode.OPTIMIZED), 10000)
        assert out.result == CConst(expected.value)


def test_both_modes_reach_the_integer_of_beta():
    # naive code keeps a computed pair's components under S (K .), so no
    # literal pair ever reaches '+'; the pair is applied to 'add' instead
    rng = random.Random(7)
    for _ in range(300):
        t = gen_int_term(rng, rng.randint(1, 4))
        expected = reduce(t, EvalConfig(max_steps=10000)).result
        for mode in Mode:
            out = ski_reduce(ski_compile(t, mode), 10000)
            assert out.result == expected, (mode, t)


def test_plus_of_a_non_pair_stays_stuck():
    for src in ("+ 3", r"+ (\x. x)", r"+ (\x y. x)", "+ add"):
        for mode in Mode:
            code = ski_compile(parse(src), mode)
            out = ski_reduce(code, 100)
            assert (out.result, out.steps_used) == (code, 0), (src, mode)


def test_printer_minimal_parens():
    t = apps(S, App(K, I), Var("x"))
    assert print_comb(t) == "S (K I) x"
    assert print_comb(apps(Var("f"), Var("x"), Var("y"))) == "f x y"
