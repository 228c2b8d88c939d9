"""Work per step of the spine-stack driver does not grow with term depth.

Every backend's rules are wrapped with a call counter.  On the Church
family, rule calls per step at k=200 stay within twice those at k=25:
each search resumes where the last contraction happened, instead of
walking down from the root again.  On the sharing family, the outermost
strategies stay under 3.5 rule calls per step: after a contraction only
the ancestors whose rule can read the contractum are tried again.
"""

import pytest

from appliq import cam, reduction, ski, superc
from appliq.cam import cam_compile, cam_eval_closure, expand_abbreviations
from appliq.cli import _result_int
from appliq.debruijn import encode
from appliq.reduction import EvalConfig, Strategy, reduce
from appliq.ski import Mode, ski_compile, ski_reduce
from appliq.superc import lift, sc_reduce
from appliq.syntax import parse
from genterms import church_source, sharing_source


def _count_rule_calls(monkeypatch, module) -> list[int]:
    """Make ``module._rules`` hand out rules that count their calls into
    the returned one-element list."""
    calls = [0]
    make = module._rules

    def counted(rule):
        def wrapper(*args):
            calls[0] += 1
            return rule(*args)
        return wrapper

    def rules(*args):
        r = make(*args)
        return r._replace(before=r.before and counted(r.before),
                          after=r.after and counted(r.after))

    monkeypatch.setattr(module, "_rules", rules)
    return calls


BACKENDS = {
    "beta": (reduction, lambda t: reduce(t, EvalConfig())),
    "beta-applicative": (reduction, lambda t: reduce(
        t, EvalConfig(strategy=Strategy.APPLICATIVE_ORDER))),
    "ski-optimized": (ski, lambda t: ski_reduce(ski_compile(t))),
    "ski-naive": (ski, lambda t: ski_reduce(ski_compile(t, Mode.NAIVE))),
    "cam": (cam, lambda t: cam_eval_closure(cam_compile(encode(t)))),
    "cam-primitive": (cam, lambda t: cam_eval_closure(
        expand_abbreviations(cam_compile(encode(t))), primitive_only=True)),
    "sc": (superc, lambda t: sc_reduce(lift(t))),
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_rule_calls_per_step_flat_in_depth(monkeypatch, backend):
    module, run = BACKENDS[backend]
    calls = _count_rule_calls(monkeypatch, module)
    per_step = []
    for k in (25, 200):
        calls[0] = 0
        out = run(parse(church_source(k)))
        assert _result_int(out.result) == 3 + 2 * k
        per_step.append(calls[0] / out.steps_used)
    assert 0 < per_step[1] <= 2 * per_step[0], per_step


@pytest.mark.parametrize("backend", ["beta", "ski-optimized", "ski-naive",
                                     "sc"])
def test_rule_calls_per_step_on_the_sharing_family(monkeypatch, backend):
    # measured 2.74 for beta, 2.66 for ski in both modes and 3.24 for sc;
    # trying the rule again at the five nearest ancestors after every
    # contraction took 6.14, 6.16, 6.16 and 6.64
    module, run = BACKENDS[backend]
    calls = _count_rule_calls(monkeypatch, module)
    out = run(parse(sharing_source(8, 3)))
    assert _result_int(out.result) == 3 * 2 ** 8
    assert calls[0] / out.steps_used <= 3.5, calls[0] / out.steps_used
