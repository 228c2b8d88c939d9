"""The re-check after a contraction misses no redex.

After each contraction an outermost strategy tries its rule again only at
the ancestors whose rule can read the contractum (``Rules.reach``).  Each
outermost backend's rules as they ship are run here next to the same
rules with ``reach=None``, which tries every ancestor again and so misses
nothing: rule names, states and statuses must be identical.
"""

import random
from pathlib import Path

import pytest

from appliq import reduction, ski, superc
from appliq.reduction import Strategy, run
from appliq.ski import Mode, ski_compile
from appliq.superc import lift
from appliq.syntax import Term, desugar_pairs, free_vars, parse
from genterms import (
    church_source,
    gen_closed_lambda,
    gen_fix_term,
    gen_int_term,
    gen_small_term,
    sharing_source,
)
from recursive_search import assert_same_states

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.lam"))
BUDGET = 300
TERMS_PER_GENERATOR = 150


def _outermost(t: Term):
    """``(label, start state, rules)`` for every outermost strategy; sc
    only where ``t`` is closed, as lifting needs."""
    yield "beta", desugar_pairs(t), reduction._rules(Strategy.NORMAL_ORDER,
                                                     False)
    for mode in Mode:
        yield f"ski {mode.value}", ski_compile(t, mode), ski._rules()
    if not free_vars(t):
        prog = lift(t)
        yield "sc", prog.main, superc._rules({d.name: d for d in prog.defs})


def _check(t: Term) -> None:
    for label, start, rules in _outermost(t):
        shipped = run(start, rules, BUDGET, collect_trace=True, named=True)
        every = run(start, rules._replace(reach=None), BUDGET,
                    collect_trace=True, named=True)
        assert_same_states(label, shipped.trace, every.trace)
        assert shipped.status is every.status, label


GENERATORS = {
    "int": lambda rng: gen_int_term(rng, rng.randint(1, 4)),
    "closed-lambda": lambda rng: gen_closed_lambda(rng, rng.randint(1, 6)),
    "small": lambda rng: gen_small_term(rng, rng.randint(1, 4)),
    "fix": lambda rng: gen_fix_term(rng, rng.randint(1, 3)),
}


@pytest.mark.parametrize("generator", GENERATORS)
def test_recheck_matches_every_ancestor_on_generated_terms(generator):
    rng = random.Random(f"recheck-{generator}")
    for _ in range(TERMS_PER_GENERATOR):
        _check(GENERATORS[generator](rng))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_recheck_matches_every_ancestor_on_corpus(path):
    _check(parse(path.read_text()))


@pytest.mark.parametrize("source", [
    church_source(6), church_source(36), sharing_source(3),
    sharing_source(8, 3)], ids=["church6", "church36", "sharing3",
                                "sharing8"])
def test_recheck_matches_every_ancestor_on_scaling_families(source):
    _check(parse(source))
