"""Directed reduction for the applicative theory: beta steps, delta rules
for arithmetic, optional eta contraction, normal- or applicative-order
strategies under a step budget.

The redex search here serves all four backends.  A backend supplies its
rules; :class:`Search` keeps the path from the root to the current node
as a stack and, after each contraction, resumes there instead of
walking down from the root again, so the work per step does not grow
with the depth of the term."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .syntax import (
    INT64_MAX,
    INT64_MIN,
    AddCurried,
    AddPair,
    App,
    Const,
    FixConst,
    I,
    IntLit,
    K,
    Lam,
    PairLit,
    S,
    SubCurried,
    Term,
    Var,
    const_name,
    desugar_pairs,
    free_vars,
    print_term,
    resugar_pairs,
    subst,
)


class Strategy(enum.Enum):
    NORMAL_ORDER = "normal"
    APPLICATIVE_ORDER = "applicative"


class Status(enum.Enum):
    NORMAL_FORM = "normal_form"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class EvalConfig:
    max_steps: int = 10000
    use_eta: bool = False
    strategy: Strategy = Strategy.NORMAL_ORDER

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


@dataclass(frozen=True)
class Outcome:
    """What a reducer ended in: the last state, the steps taken, and the
    states visited when a trace was asked for."""
    result: Any
    steps_used: int
    status: Status
    trace: tuple | None = field(default=None, compare=False)


# A rule is called as ``rule(node, path)`` and returns None or
# ``(contractum, rule name)``.
Rule = Callable[[Any, list], "tuple[Any, str] | None"]
# A node's fields as a list, in the order its class takes them, so that
# ``type(node)(*fields)`` rebuilds it; fields that are not nodes of a
# searched class, such as a binder's name, are skipped by the search.
Fields = Callable[[Any], list]

TERM_FIELDS: dict[type, Fields] = {
    App: lambda t: [t.fun, t.arg],
    Lam: lambda t: [t.binder, t.body],
    PairLit: lambda t: [t.left, t.right],
}

# How far above a contracted node an outermost strategy looks for an
# ancestor to check again: the deepest rule pattern, delta's naive
# compiled pair ``+ (S (S I (K m)) (S (K I) (K n)))``, reaches five
# levels below the application it fires at.
REACH = 5


class Rules(NamedTuple):
    """What a backend hands the redex search.

    ``before`` is tried at a node before its children (outermost
    strategies), ``after`` once its children hold no redex (innermost
    strategies, and ski's pair rule).  ``fields`` lists the node classes
    that are searched; nodes of other classes are skipped.  After a
    contraction, ``before`` is tried again, outermost first, at the
    ancestors of the contractum up to the outermost one, at most
    ``reach`` levels up, whose application rule can read it, or at all
    of them when ``reach`` is None; then the search resumes at the
    contractum.  Writing ``j`` for the distance up to an ancestor, a
    rule can read the contractum when ``j = 1`` and the parent is an
    application (beta, ``fix``, an operand), when ``j <= 3`` and the path
    down takes only function children (the I, K and S spines, a curried
    operator), when ``j = 2`` and the path goes function child, then
    argument (a curried operator's first operand), and when the path
    leaves an application of the ``+`` constant through its argument (a
    pair pattern, plain or compiled).
    With ``spine`` the function child of an ``App`` is searched
    even when it is known to hold no redex on its own, because a rule at
    the head of an application spine counts the arguments above it."""
    fields: dict[type, Fields]
    before: Rule | None = None
    after: Rule | None = None
    reach: int | None = 0
    spine: bool = False


class Search:
    """A leftmost redex search over one term that resumes after each
    contraction where it left off (a zipper: Huet, *The Zipper*, 1997).

    ``path`` holds one frame ``[node, children, index, changed]`` per
    ancestor of the focus, the bottom one over the whole term: ``index``
    is the child being searched and ``changed`` says that ``children`` no
    longer are ``node``'s own.  A child that is unchanged keeps its
    parent's identity, so the memo of redex-free subtrees, keyed by
    ``id(node)``, stays valid; the memo lives as long as the search.
    A ``before`` rule may pop frames off ``path`` to fire at an ancestor
    of the node it was called on."""

    __slots__ = ("rules", "path", "memo", "recheck")

    def __init__(self, t: Any, rules: Rules):
        self.rules = rules
        self.path: list[list] = [[None, [t], -1, False]]
        self.memo: dict[int, Any] = {}
        self.recheck = 0  # ancestors whose ``before`` rule is due again

    def find(self) -> tuple[Any, str] | None:
        """Search on to the next redex and return its rule's hit, with the
        path leading to it; None at normal form."""
        rules, path, memo = self.rules, self.path, self.memo
        fields, before, after = rules.fields, rules.before, rules.after
        spine = rules.spine
        if self.recheck:
            held = path[-self.recheck:]
            del path[-self.recheck:]
            self.recheck = 0
            for frame in held:  # outermost first
                hit = before(frame[0], path)
                if hit is not None:
                    return hit
                path.append(frame)
        frame = path[-1]
        node, kids, i, _ = frame
        while True:
            i += 1
            if i < len(kids):
                c = kids[i]
                get = fields.get(type(c))
                if get is None or id(c) in memo and not (
                        spine and i == 0 and type(node) is App):
                    continue
                frame[2] = i
                if before is not None:
                    hit = before(c, path)
                    if hit is not None:
                        return hit
                children = get(c)
                if children:
                    node, kids, i = c, children, -1
                    frame = [c, kids, -1, False]
                    path.append(frame)
                continue
            if len(path) == 1:
                frame[2] = i - 1
                return None
            path.pop()
            if frame[3]:
                node = type(node)(*kids)
            frame = path[-1]
            kids, i = frame[1], frame[2]
            if node is not kids[i]:
                kids[i] = node
                frame[3] = True
            if after is not None:
                hit = after(node, path)
                if hit is not None:
                    return hit
            memo[id(node)] = node
            node = frame[0]

    def contract(self, hit: tuple[Any, str]) -> None:
        """Put the contractum of the redex ``find`` returned in its place,
        to be searched next, and rebuild the ancestors up to the outermost
        one whose ``before`` rule it may enable, for ``find`` to try
        first; the others are rebuilt when the search leaves them."""
        path, reach = self.path, self.rules.reach
        frame = path[-1]
        i = frame[2]
        frame[1][i] = hit[0]
        frame[2] = i - 1
        frame[3] = True
        levels = len(path) - 1
        if reach is not None:
            # the outermost ancestor within ``reach`` whose rule can read
            # the contractum; an ancestor's frame index is the child the
            # path leaves it through, 0 for the function and 1 for the
            # argument, and the parent's is ``i``
            top = reach if reach < levels else levels
            levels = 0
            for j in range(top, 1, -1):  # an argument of ``+``
                kids = path[-j][1]
                if path[-j][2] == 1 and type(kids[0]) is Const and \
                        type(kids[0].value) is AddPair:
                    levels = j
                    break
            else:
                if top >= 3 and i == 0 and path[-2][2] == 0 and \
                        path[-3][2] == 0:
                    levels = 3  # the head of an S spine
                elif top >= 2 and path[-2][2] == 0:
                    levels = 2  # a K spine or a curried operator's operand
                elif top >= 1 and type(frame[0]) is App:
                    levels = 1
        for j in range(1, levels + 1):
            frame = path[-j]
            node = type(frame[0])(*frame[1])
            frame[0] = node
            frame[3] = False
            below = path[-j - 1]
            below[1][below[2]] = node
            below[3] = True
        self.recheck = levels

    def term(self) -> Any:
        """The whole term, as it stands between contractions."""
        node = None
        for parent, kids, i, changed in reversed(self.path[1:]):
            if node is not None and node is not kids[i]:
                kids = kids.copy()
                kids[i] = node
                changed = True
            node = type(parent)(*kids) if changed else parent
        return self.path[0][1][0] if node is None else node


def run(t: Any, rules: Rules, max_steps: int, collect_trace: bool = False,
        named: bool = False) -> Outcome:
    """Contract redexes of ``t`` in the order ``rules`` give until none is
    left or ``max_steps`` are taken.  When the budget runs out, one more
    search tells a normal form reached by the last step from an exhausted
    budget.  With ``named``, trace entries are ``(rule name, state)``
    pairs, the first with None."""
    search = Search(t, rules)
    trace = None
    if collect_trace:
        trace = [(None, t) if named else t]
    steps = 0
    while steps < max_steps and (hit := search.find()) is not None:
        search.contract(hit)
        steps += 1
        if trace is not None:
            state = search.term()
            trace.append((hit[1], state) if named else state)
    result = search.term()
    status = Status.NORMAL_FORM
    if steps == max_steps and search.find() is not None:
        status = Status.BUDGET_EXHAUSTED
    return Outcome(result, steps, status,
                   tuple(trace) if trace is not None else None)


def step(t: Any, rules: Rules) -> Any | None:
    """The state after one contraction, found from the root, or None at
    normal form."""
    search = Search(t, rules)
    hit = search.find()
    if hit is None:
        return None
    search.contract(hit)
    return search.term()


def arith(op: str, m: int, n: int) -> int:
    """``m - n`` for ``sub``, ``m + n`` for ``+`` and ``add``; a result
    outside 64-bit range raises ``OverflowError``."""
    r = m - n if op == "sub" else m + n
    if not (INT64_MIN <= r <= INT64_MAX):
        raise OverflowError(f"integer overflow in {op}: {r}")
    return r


def _as_literal_pair(t: Term) -> tuple[int, int] | None:
    """Match a pair of integer literals: a ``PairLit``, the desugared
    shape ``\\r. r m n``, or that shape compiled to combinators,
    ``S (S I (K m)) (K n)`` in optimized mode and
    ``S (S I (K m)) (S (K I) (K n))`` in naive mode."""
    match t:
        case PairLit(Const(IntLit(m)), Const(IntLit(n))):
            return m, n
        case Lam(r, App(App(Var(r2), Const(IntLit(m))), Const(IntLit(n)))) \
                if r == r2:
            return m, n
        case App(App(s1, App(App(s2, i), App(k1, Const(IntLit(m))))),
                 App(k2, Const(IntLit(n)))) \
                if s1 == s2 == S and i == I and k1 == k2 == K:
            return m, n
        case App(App(s1, App(App(s2, i1), App(k1, Const(IntLit(m))))),
                 App(App(s3, App(k2, i2)), App(k3, Const(IntLit(n))))) \
                if s1 == s2 == s3 == S and i1 == i2 == I \
                and k1 == k2 == k3 == K:
            return m, n
    return None


def delta_step(t: Term) -> Term | None:
    """Contract a delta redex at the root, if any.

    Pair addition fires only once its argument is literally a pair of
    integer literals; curried addition and subtraction need two literal
    arguments.  Overflow outside 64-bit range raises ``OverflowError``.
    Rules are picked by the types of the nodes on the spine, so a node
    no rule fits costs a few type checks.
    """
    if type(t) is not App:
        return None
    fun = t.fun
    if type(fun) is Const:
        op = type(fun.value)
        if op is AddPair:
            pair = _as_literal_pair(t.arg)
            if pair is not None:
                return Const(IntLit(arith("+", *pair)))
        elif op is FixConst:
            return App(t.arg, t)
        return None
    if type(fun) is App and type(fun.fun) is Const:
        op = type(fun.fun.value)
        if op is AddCurried or op is SubCurried:
            m, n = fun.arg, t.arg
            if type(m) is Const and type(n) is Const and \
                    type(m.value) is IntLit and type(n.value) is IntLit:
                return Const(IntLit(arith(const_name(fun.fun.value),
                                          m.value.value, n.value.value)))
    return None


def _eta_redex(t: Lam) -> Term | None:
    """``f`` when ``t`` is ``\\x. f x`` with ``x`` not free in ``f``."""
    body = t.body
    if type(body) is App and type(body.arg) is Var and \
            body.arg.name == t.binder and t.binder not in free_vars(body.fun):
        return body.fun
    return None


def _beta_delta(t: Term, path: list) -> tuple[Term, str] | None:
    """The delta or beta contraction of the application ``t``, delta
    first."""
    if type(t) is not App:
        return None
    d = delta_step(t)
    if d is not None:
        return d, "delta"
    fun = t.fun
    if type(fun) is Lam:
        return subst(t.arg, fun.binder, fun.body), "beta"
    return None


def _eta(t: Term, path: list) -> tuple[Term, str] | None:
    """The eta contraction of the abstraction ``t``, if any."""
    if type(t) is Lam:
        f = _eta_redex(t)
        return (f, "eta") if f is not None else None
    return None


def _beta_delta_eta(t: Term, path: list) -> tuple[Term, str] | None:
    """:func:`_beta_delta`, or the eta contraction of the abstraction
    ``t``."""
    if type(t) is Lam:
        return _eta(t, path)
    return _beta_delta(t, path)


def _rules(strategy: Strategy, use_eta: bool) -> Rules:
    rule = _beta_delta_eta if use_eta else _beta_delta
    if strategy is Strategy.APPLICATIVE_ORDER:
        return Rules(TERM_FIELDS, after=rule)
    # eta at an abstraction reads the free variables of its whole body, so
    # a contraction anywhere below it can enable it
    return Rules(TERM_FIELDS, before=rule,
                 reach=None if use_eta else REACH)


def eta_step(t: Term) -> Term | None:
    """Contract the leftmost-outermost eta redex ``\\x. f x`` with ``x``
    not free in ``f``, if any."""
    return step(t, Rules(TERM_FIELDS, before=_eta, reach=None))


def beta_step(t: Term, use_eta: bool = False) -> Term | None:
    """Contract the leftmost-outermost beta/delta redex, if any; with
    ``use_eta``, an eta redex counts at positions where no beta/delta
    redex applies."""
    return step(t, _rules(Strategy.NORMAL_ORDER, use_eta))


def applicative_step(t: Term, use_eta: bool = False) -> Term | None:
    """Contract the leftmost-innermost beta/delta redex, if any."""
    return step(t, _rules(Strategy.APPLICATIVE_ORDER, use_eta))


def reduce(t: Term, cfg: EvalConfig | None = None,
           collect_trace: bool = False) -> Outcome:
    """Contract redexes under the configured strategy until none remains
    or the budget runs out.  Pair literals are desugared up front."""
    cfg = cfg or EvalConfig()
    return run(desugar_pairs(t), _rules(cfg.strategy, cfg.use_eta),
               cfg.max_steps, collect_trace)


def trace_lines(terms: tuple[Term, ...]) -> list[str]:
    """Fixed golden-trace format: one ``step N: <term>`` line per state,
    with pair literals resugared for display."""
    return [f"step {i}: {print_term(resugar_pairs(t))}"
            for i, t in enumerate(terms)]
