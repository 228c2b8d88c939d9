import random
from pathlib import Path

import pytest

from appliq.cam import (
    EPS,
    FST,
    SND,
    UNIT,
    AppC,
    Bang,
    Comp,
    Couple,
    LamC,
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
from appliq.syntax import AddPair, App, Const, IntLit, PairLit, intlit, parse
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
                  Couple(QuoteC(intlit(4)),
                         AppC(LamC(Bang(0)), QuoteC(intlit(3)))))),
        QuoteC(Const(AddPair())))
    assert print_cat(code) == "$[L($[0!, <'4, $[L(0!), '3]>]), '+]"
    assert print_cat(code, expand_quotes=True) == GOLDEN_EXPANDED


def test_compile_identity():
    assert _compile_source(r"\x. x") == LamC(Bang(0))


def test_compile_constant_quote():
    code = _compile_source("+")
    assert code == QuoteC(Const(AddPair()))
    assert print_cat(code, expand_quotes=True) == "L(+ o Snd)"


def test_unfold_constant_quotes():
    assert unfold_constant_quotes(QuoteC(Const(AddPair()))) == \
        LamC(Comp(Const(AddPair()), SND))
    # integer data keeps its quote
    assert unfold_constant_quotes(QuoteC(intlit(4))) == QuoteC(intlit(4))


# ---------------------------------------------------------------------------
# single steps

def test_step_snd():
    rho = PairLit(UNIT, PairLit(intlit(4), intlit(3)))
    assert cam_step(App(SND, rho)) == PairLit(intlit(4), intlit(3))


def test_step_bang():
    assert cam_step(App(Bang(0), PairLit(UNIT, intlit(3)))) == intlit(3)
    assert cam_step(App(Bang(2), PairLit(PairLit(PairLit(UNIT, intlit(9)),
                                                 intlit(1)),
                                         intlit(2)))) == \
        App(Bang(1), PairLit(PairLit(UNIT, intlit(9)), intlit(1)))


def test_step_quote():
    assert cam_step(App(QuoteC(intlit(4)), UNIT)) == intlit(4)


def test_step_is_innermost():
    inner = App(QuoteC(intlit(1)), UNIT)
    outer = App(SND, PairLit(inner, intlit(2)))
    assert cam_step(outer) == App(SND, PairLit(intlit(1), intlit(2)))


# ---------------------------------------------------------------------------
# closure evaluation

def test_eval_worked_example_value():
    out = cam_eval_closure(_compile_source(F_SOURCE))
    assert out.result == intlit(7)
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
    state = App(EPS, PairLit(App(LamC(Bang(0)), UNIT), intlit(5)))
    seen = []
    while (nxt := cam_step(state)) is not None:
        state = nxt
        seen.append(state)
    assert seen == [App(Bang(0), PairLit(UNIT, intlit(5))), intlit(5)]


@pytest.mark.parametrize("primitive_only, closure", [
    (False, "L($[$[L(fix o Snd), 1!], 0!])"),
    (True, "L(eps o <eps o <L(fix o Snd), Snd o Fst>, Snd>)")])
def test_eval_fix_unfolds_by_value(primitive_only, closure):
    code = _compile_source(r"fix (\f x. add x 1) 3")
    if primitive_only:
        code = expand_abbreviations(code)
    out = cam_eval_closure(code, collect_trace=True,
                           primitive_only=primitive_only)
    assert out.result == intlit(4)
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


def test_both_modes_reach_the_integer_term_of_beta():
    # cam's integers are the object language's, built by delta_step
    rng = random.Random(58)
    terms = [parse(path.read_text()) for path in CORPUS]
    terms += [gen_int_term(rng, rng.randint(1, 4)) for _ in range(200)]
    checked = 0
    for t in terms:
        want = reduce(t, EvalConfig(max_steps=20000)).result
        if type(want) is not Const or type(want.value) is not IntLit:
            continue
        code = cam_compile(encode(t))
        assert cam_eval_closure(code, 20000).result == want
        assert cam_eval_closure(expand_abbreviations(code), 20000,
                                primitive_only=True).result == want
        checked += 1
    assert checked >= 200


def test_cross_backend_sample():
    rng = random.Random(55)
    for _ in range(100):
        t = gen_int_term(rng, rng.randint(1, 4))
        expected = reduce(t, EvalConfig(max_steps=10000)).result
        out = cam_eval_closure(cam_compile(encode(t)), 10000)
        assert out.result == intlit(expected.value.value)


# ---------------------------------------------------------------------------
# abbreviations

def test_expand_bang():
    assert expand_abbreviations(Bang(0)) == SND
    assert expand_abbreviations(Bang(1)) == Comp(SND, FST)
    assert expand_abbreviations(Bang(2)) == Comp(SND, Comp(FST, FST))


def test_expand_app_and_quote():
    x, y = Bang(0), QuoteC(intlit(3))
    assert expand_abbreviations(AppC(x, y)) == \
        Comp(EPS, Couple(SND, LamC(Comp(intlit(3), SND))))


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
        return UNIT if rng.random() < 0.3 else intlit(rng.randint(-9, 9))
    return PairLit(_ground_env(rng, depth - 1), intlit(rng.randint(-9, 9)))


def _ground_code(rng):
    pool = [Bang(0), Bang(1), QuoteC(intlit(rng.randint(-9, 9))), SND,
            LamC(Bang(0)), Couple(QuoteC(intlit(1)), Bang(0))]
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
        lhs = _norm(App(AppC(x, y), z))
        rhs = _norm(App(EPS, PairLit(App(x, z), App(y, z))))
        assert lhs == rhs and lhs is not None


def test_quote_law():
    # ('x) y z  and  x z  normalize identically
    rng = random.Random(57)
    for _ in range(200):
        x = _ground_code(rng)
        y = _ground_env(rng, rng.randint(0, 2))
        z = _ground_env(rng, rng.randint(1, 3))
        lhs = _norm(App(App(QuoteC(x), y), z))
        rhs = _norm(App(x, z))
        assert lhs == rhs and lhs is not None
