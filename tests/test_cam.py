import random
from pathlib import Path

import pytest

from appliq.cam import (
    EPS,
    FST,
    SND,
    UNIT,
    Ap,
    AppC,
    Bang,
    Comp,
    Couple,
    IntV,
    KConst,
    LamC,
    PairV,
    QuoteC,
    cam_compile,
    cam_eval_closure,
    cam_step,
    cam_trace_lines,
    expand_abbreviations,
    print_cat,
    unfold_constant_quotes,
)
from appliq.debruijn import encode
from appliq.reduction import EvalConfig, Status, reduce
from appliq.syntax import AddPair, Const, parse
from genterms import gen_int_term

F_SOURCE = r"(\x. x [4, (\x. x) 3]) +"
GOLDEN_EXPANDED = "$[L($[0!, <'4, $[L(0!), '3]>]), L(+ o Snd)]"

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.lam"))


def _compile_source(src):
    return cam_compile(encode(parse(src)))


# ---------------------------------------------------------------------------
# compilation and printing

def test_compile_worked_example_golden():
    code = _compile_source(F_SOURCE)
    assert code == AppC(
        LamC(AppC(Bang(0),
                  Couple(QuoteC(IntV(4)),
                         AppC(LamC(Bang(0)), QuoteC(IntV(3)))))),
        QuoteC(KConst(AddPair())))
    assert print_cat(code) == "$[L($[0!, <'4, $[L(0!), '3]>]), '+]"
    assert print_cat(code, expand_quotes=True) == GOLDEN_EXPANDED


def test_compile_identity():
    assert _compile_source(r"\x. x") == LamC(Bang(0))


def test_compile_constant_quote():
    code = _compile_source("+")
    assert code == QuoteC(KConst(AddPair()))
    assert print_cat(code, expand_quotes=True) == "L(+ o Snd)"


def test_unfold_constant_quotes():
    assert unfold_constant_quotes(QuoteC(KConst(AddPair()))) == \
        LamC(Comp(KConst(AddPair()), SND))
    # integer data keeps its quote
    assert unfold_constant_quotes(QuoteC(IntV(4))) == QuoteC(IntV(4))


# ---------------------------------------------------------------------------
# single steps

def test_step_snd():
    rho = PairV(UNIT, PairV(IntV(4), IntV(3)))
    assert cam_step(Ap(SND, rho)) == PairV(IntV(4), IntV(3))


def test_step_bang():
    assert cam_step(Ap(Bang(0), PairV(UNIT, IntV(3)))) == IntV(3)
    assert cam_step(Ap(Bang(2), PairV(PairV(PairV(UNIT, IntV(9)), IntV(1)),
                                      IntV(2)))) == \
        Ap(Bang(1), PairV(PairV(UNIT, IntV(9)), IntV(1)))


def test_step_quote():
    assert cam_step(Ap(QuoteC(IntV(4)), UNIT)) == IntV(4)


def test_step_is_innermost():
    inner = Ap(QuoteC(IntV(1)), UNIT)
    outer = Ap(SND, PairV(inner, IntV(2)))
    assert cam_step(outer) == Ap(SND, PairV(IntV(1), IntV(2)))


# ---------------------------------------------------------------------------
# closure evaluation

def test_eval_worked_example_value():
    out = cam_eval_closure(_compile_source(F_SOURCE))
    assert out.result == IntV(7)
    assert out.status is Status.NORMAL_FORM
    assert out.steps_used == 14


def test_eval_worked_example_rule_sequence():
    out = cam_eval_closure(_compile_source(F_SOURCE), collect_trace=True)
    rules = [rule for rule, _ in out.trace[1:]]
    assert rules == ["app", "ac", "app", "bang", "dpair", "quote", "app",
                     "quote", "ac", "bang", "ac", "ass", "snd", "delta"]


def test_eval_trace_lines():
    out = cam_eval_closure(_compile_source(F_SOURCE), collect_trace=True)
    lines = cam_trace_lines(out.trace)
    assert lines[0] == f"step 0: {GOLDEN_EXPANDED} ()"
    assert lines[-1] == "step 14: 7"
    rho = "[(), L(+ o Snd) ()]"
    assert lines[2] == f"step 2: $[0!, <'4, $[L(0!), '3]>] {rho}"
    assert lines[13] == "step 13: + [4, 3]"


def test_eval_lambda_via_eps():
    state = Ap(EPS, PairV(Ap(LamC(Bang(0)), UNIT), IntV(5)))
    seen = []
    while (nxt := cam_step(state)) is not None:
        state = nxt
        seen.append(state)
    assert seen == [Ap(Bang(0), PairV(UNIT, IntV(5))), IntV(5)]


@pytest.mark.parametrize("primitive_only, closure", [
    (False, "L($[$[L(fix o Snd), 1!], 0!])"),
    (True, "L(eps o <eps o <L(fix o Snd), Snd o Fst>, Snd>)")])
def test_eval_fix_unfolds_by_value(primitive_only, closure):
    code = _compile_source(r"fix (\f x. add x 1) 3")
    if primitive_only:
        code = expand_abbreviations(code)
    out = cam_eval_closure(code, collect_trace=True,
                           primitive_only=primitive_only)
    assert out.result == IntV(4)
    rules = [rule for rule, _ in out.trace[1:]]
    assert rules.count("fix") == 1
    # fix g -> g applied to the closure of \x. fix g x over [(), g]
    _, state = out.trace[rules.index("fix") + 1]
    g = print_cat(state.arg.left.arg.left)
    assert print_cat(state.arg.left) == \
        f"eps [{g}, {closure} [(), {g}]]"


def test_eval_budget():
    out = cam_eval_closure(_compile_source(r"(\x. x x) (\x. x x)"), 100)
    assert out.status is Status.BUDGET_EXHAUSTED


def test_cross_backend_sample():
    rng = random.Random(55)
    for _ in range(100):
        t = gen_int_term(rng, rng.randint(1, 4))
        expected = reduce(t, EvalConfig(max_steps=10000)).result
        out = cam_eval_closure(cam_compile(encode(t)), 10000)
        assert out.result == IntV(expected.value.value)


# ---------------------------------------------------------------------------
# abbreviations

def test_expand_bang():
    assert expand_abbreviations(Bang(0)) == SND
    assert expand_abbreviations(Bang(1)) == Comp(SND, FST)
    assert expand_abbreviations(Bang(2)) == Comp(SND, Comp(FST, FST))


def test_expand_app_and_quote():
    x, y = Bang(0), QuoteC(IntV(3))
    assert expand_abbreviations(AppC(x, y)) == \
        Comp(EPS, Couple(SND, LamC(Comp(IntV(3), SND))))


def test_abbreviation_coherence_on_corpus():
    for path in CORPUS:
        term = parse(path.read_text())
        code = cam_compile(encode(term))
        direct = cam_eval_closure(code, 20000)
        primitive = cam_eval_closure(expand_abbreviations(code), 20000,
                                     primitive_only=True)
        assert direct.status is Status.NORMAL_FORM, path.name
        assert primitive.status is Status.NORMAL_FORM, path.name
        assert direct.result == primitive.result, path.name


def _ground_env(rng, depth):
    if depth <= 0:
        return UNIT if rng.random() < 0.3 else IntV(rng.randint(-9, 9))
    return PairV(_ground_env(rng, depth - 1), IntV(rng.randint(-9, 9)))


def _ground_code(rng):
    pool = [Bang(0), Bang(1), QuoteC(IntV(rng.randint(-9, 9))), SND,
            LamC(Bang(0)), Couple(QuoteC(IntV(1)), Bang(0))]
    return rng.choice(pool)


def _norm(c):
    out = cam_eval_closure(c, 1000)
    return out.result if out.status is Status.NORMAL_FORM else None


def test_derived_dollar_law():
    # $[x,y] z  and  eps [x z, y z]  normalize identically
    rng = random.Random(56)
    for _ in range(200):
        x, y = _ground_code(rng), _ground_code(rng)
        z = _ground_env(rng, rng.randint(1, 3))
        lhs = _norm(Ap(AppC(x, y), z))
        rhs = _norm(Ap(EPS, PairV(Ap(x, z), Ap(y, z))))
        assert lhs == rhs and lhs is not None


def test_quote_law():
    # ('x) y z  and  x z  normalize identically
    rng = random.Random(57)
    for _ in range(200):
        x = _ground_code(rng)
        y = _ground_env(rng, rng.randint(0, 2))
        z = _ground_env(rng, rng.randint(1, 3))
        lhs = _norm(Ap(Ap(QuoteC(x), y), z))
        rhs = _norm(Ap(x, z))
        assert lhs == rhs and lhs is not None
