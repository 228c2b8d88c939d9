"""Step sequences of the four reducers.

Each reduce call searches for redexes with the spine-stack driver,
which resumes every search where the last contraction happened and
skips subtrees it has found to hold no redex.  These tests pin the step
counts of the benchmark's term families and check, in every mode, that
a ``*_reduce`` trace is exactly the sequence the recursive searches of
``recursive_search`` produce from the root, with no memo carried between
steps.  A mismatch is reported as the mode and the index of the first
differing state.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appliq.cam import (
    UNIT,
    cam_compile,
    cam_eval_closure,
    expand_abbreviations,
    unfold_constant_quotes,
)
from appliq.debruijn import encode
from appliq.reduction import EvalConfig, Strategy, eta_step, reduce
from appliq.ski import Mode, ski_compile, ski_reduce
from appliq.superc import lift, sc_reduce
from appliq.syntax import App, Lam, PairLit, Term, Var, desugar_pairs, parse
from genterms import (
    church_source,
    gen_fix_term,
    gen_int_term,
    gen_small_term,
    sharing_source,
)
from recursive_search import (
    applicative_step,
    assert_same_states,
    beta_step,
    cam_rule_step,
    cam_step,
    eta_step as recursive_eta_step,
    sc_step as _sc_step,
    ski_step,
)

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.lam"))
BUDGET = 10000


def _steps(t: Term) -> tuple[int, int, int, int]:
    """Steps used by beta, ski, cam and sc, compiled as the CLI does."""
    return (reduce(t, EvalConfig(max_steps=BUDGET)).steps_used,
            ski_reduce(ski_compile(t), BUDGET).steps_used,
            cam_eval_closure(cam_compile(encode(t)), BUDGET).steps_used,
            sc_reduce(lift(t), BUDGET).steps_used)


@pytest.mark.parametrize("source, expected", [
    (church_source(6), (9, 66, 44, 8)),
    (church_source(36), (39, 366, 194, 38)),
    (sharing_source(3), (15, 64, 39, 15)),
    (sharing_source(8), (511, 2296, 99, 511)),
], ids=["church6", "church36", "sharing3", "sharing8"])
def test_pinned_step_counts(source, expected):
    assert _steps(parse(source)) == expected


def _iterate(step, start, budget: int = BUDGET) -> list:
    """``start`` followed by every state ``step`` reaches, up to the
    budget."""
    states = [start]
    while len(states) <= budget:
        nxt = step(states[-1])
        if nxt is None:
            break
        states.append(nxt)
    return states


def _cam_iterate(code, primitive_only: bool, budget: int = BUDGET) -> list:
    """The (rule, code) sequence of single ``cam_rule_step`` calls."""
    trace = [(None, code)]
    while len(trace) <= budget:
        hit = cam_rule_step(trace[-1][1], primitive_only, {})
        if hit is None:
            break
        trace.append((hit[1], hit[0]))
    return trace


def _check_all_modes(t: Term, budget: int = BUDGET) -> None:
    d = desugar_pairs(t)
    for strategy, use_eta, step in (
            (Strategy.NORMAL_ORDER, False, beta_step),
            (Strategy.APPLICATIVE_ORDER, False, applicative_step),
            (Strategy.NORMAL_ORDER, True, beta_step)):
        out = reduce(t, EvalConfig(max_steps=budget, use_eta=use_eta,
                                   strategy=strategy), collect_trace=True)
        assert_same_states(f"beta {strategy.value} eta={use_eta}",
                           out.trace,
                           _iterate(lambda s: step(s, use_eta), d, budget))

    for mode in Mode:
        code = ski_compile(t, mode)
        out = ski_reduce(code, budget, collect_trace=True)
        assert_same_states(f"ski {mode.value}", out.trace,
                           _iterate(ski_step, code, budget))

    code = cam_compile(encode(t))
    out = cam_eval_closure(code, budget, collect_trace=True)
    start = App(unfold_constant_quotes(code), UNIT)
    assert_same_states("cam", out.trace, _cam_iterate(start, False, budget))
    assert_same_states("cam code", [c for _, c in out.trace],
                       _iterate(cam_step, start, budget))

    expanded = expand_abbreviations(code)
    out = cam_eval_closure(expanded, budget, collect_trace=True,
                           primitive_only=True)
    assert_same_states("cam primitive", out.trace,
                       _cam_iterate(App(expanded, UNIT), True, budget))

    prog = lift(t)
    defs = {d.name: d for d in prog.defs}
    out = sc_reduce(prog, budget, collect_trace=True)
    assert_same_states("sc", out.trace,
                       _iterate(lambda s: _sc_step(s, defs, {}), prog.main,
                                budget))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_traces_match_single_steps_on_generated_terms(seed, depth):
    _check_all_modes(gen_int_term(random.Random(seed), depth))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_traces_match_single_steps_on_fix_terms(seed, depth):
    # applicative order unfolds fix forever: its trace is compared up to
    # the budget
    _check_all_modes(gen_fix_term(random.Random(seed), depth), budget=300)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_traces_match_single_steps_on_corpus(path):
    _check_all_modes(parse(path.read_text()))


def test_traces_match_single_steps_on_scaling_families():
    _check_all_modes(parse(church_source(6)))
    _check_all_modes(parse(sharing_source(3)))


@pytest.mark.parametrize("source", [
    church_source(100), church_source(200), r"(\x. x x x) (\x. x x x)",
    "fix 9223372036854775807 sub sub",
], ids=["church100", "church200", "triple", "fix"])
def test_traces_match_single_steps_on_deep_and_growing_terms(source):
    _check_all_modes(parse(source), budget=500)


@pytest.mark.parametrize("source", [
    # sc: the partial application q 7 is found stuck as an argument of p,
    # then applied to two more arguments through a shared copy
    r"(\p q. (\x. p x (x 1 2)) (q 7)) (\a b c. a) (\a b c. add a (add b c))",
    # eta at \x is enabled by a beta step seven levels below it
    r"\a b c d e. \x. a (b (c (d (e ((\y. 1) x))))) x",
], ids=["shared-partial-application", "far-eta"])
def test_traces_match_single_steps_where_a_rule_reaches_far(source):
    _check_all_modes(parse(source))


def _eta_wrapped(rng: random.Random, t: Term) -> Term:
    """``t`` with random subterms ``u`` replaced by ``\\v. u v``; ``v`` is
    drawn from the generator's names and ``e``, so it is sometimes free
    in ``u`` and the wrapper then is no eta redex."""
    match t:
        case App(fun, arg):
            t = App(_eta_wrapped(rng, fun), _eta_wrapped(rng, arg))
        case Lam(binder, body):
            t = Lam(binder, _eta_wrapped(rng, body))
        case PairLit(left, right):
            t = PairLit(_eta_wrapped(rng, left), _eta_wrapped(rng, right))
    if rng.random() < 0.25:
        v = rng.choice("xyze")
        t = Lam(v, App(t, Var(v)))
    return t


def test_eta_steps_match_the_recursive_search():
    rng = random.Random(59)
    with_redex = 0
    for _ in range(2000):
        t = _eta_wrapped(rng, gen_small_term(rng, rng.randint(0, 4)))
        with_redex += recursive_eta_step(t) is not None
        assert_same_states("eta", _iterate(eta_step, t),
                           _iterate(recursive_eta_step, t))
    assert with_redex >= 500
