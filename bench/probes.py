"""Spans and counts taken around the calls into appliq's modules.

Both probes replace module attributes for the length of a ``with
patched(...)`` block and restore them afterwards; appliq's source is not
changed.  ``cam_compile`` calls itself through its module global, so a
wrapper that is already running calls straight through instead of
opening a second span or counting twice.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  ``cli`` binds ``parse``, ``reduce``,
# ``print_term`` and ``resugar_pairs`` by name, so those are wrapped where
# cli looks them up; the rest are looked up through their module.
ENTRY_POINTS = (
    ("cli", "parse", "syntax.parse"),
    ("reduction", "desugar_pairs", "syntax.desugar"),
    ("ski", "desugar_pairs", "syntax.desugar"),
    ("types", "desugar_pairs", "syntax.desugar"),
    ("cli", "print_term", "syntax.print"),
    ("cli", "resugar_pairs", "syntax.print"),
    ("cli", "reduce", "reduction.reduce"),
    ("ski", "ski_compile", "ski.compile"),
    ("ski", "ski_reduce", "ski.reduce"),
    ("ski", "print_comb", "ski.print"),
    ("debruijn", "encode", "debruijn.encode"),
    ("cam", "cam_compile", "cam.compile"),
    ("cam", "cam_eval_closure", "cam.eval"),
    ("cam", "print_cat", "cam.print"),
    ("superc", "lift", "superc.lift"),
    ("superc", "sc_reduce", "superc.reduce"),
    ("superc", "print_program", "superc.print"),
    ("types", "infer", "types.infer"),
)
ROOT_SPAN = "cli.main"
SPAN_NAMES = tuple(dict.fromkeys(s for _, _, s in ENTRY_POINTS)) + (ROOT_SPAN,)
REDUCERS = ("reduction.reduce", "ski.reduce", "cam.eval", "superc.reduce")


@contextmanager
def patched(modules: dict, wrap):
    """Replace every entry point by ``wrap(span_name, original)``."""
    saved = []
    try:
        for mod_name, attr, span in ENTRY_POINTS:
            mod = modules[mod_name]
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrap(span, original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _outermost(fn, around):
    """Wrap ``fn`` so that only its outermost call goes through
    ``around(fn, args, kwargs)``; recursive calls go straight to ``fn``."""
    active = False

    def wrapper(*args, **kwargs):
        nonlocal active
        if active:
            return fn(*args, **kwargs)
        active = True
        try:
            return around(fn, args, kwargs)
        finally:
            active = False
    return wrapper


class Tracer:
    """Collects spans in memory: [invocation, name, start, end, parent].

    A span opened with no span open starts a new invocation, so every
    span of one ``cli.main`` call shares its id.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._invocation = 0

    def wrap(self, name: str, fn):
        def timed(fn, args, kwargs):
            if not self._stack:
                self._invocation += 1
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [self._invocation, name, perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
        return _outermost(fn, timed)

    def self_times(self, start: int = 0) -> list[dict[str, float]]:
        """Self seconds per span name, one dict per invocation, for the
        spans recorded from index ``start`` on."""
        spans = self.spans[start:]
        child_time = [0.0] * len(spans)
        for inv, name, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent - start] += t1 - t0
        per_inv: dict[int, dict[str, float]] = {}
        for i, (inv, name, t0, t1, _) in enumerate(spans):
            d = per_inv.setdefault(inv, {})
            d[name] = d.get(name, 0.0) + (t1 - t0) - child_time[i]
        return list(per_inv.values())


def tree_size(root, node_types: tuple, memo: dict[int, int]) -> int:
    """Nodes of a Term / CombTerm / CatCode tree, shared subtrees counted
    at every occurrence.  ``memo`` maps ids to sizes and is only valid
    while the objects it has seen are alive."""
    stack = [root]
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        kids = [v for v in vars(node).values() if isinstance(v, node_types)]
        pending = [k for k in kids if id(k) not in memo]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        memo[id(node)] = 1 + sum(memo[id(k)] for k in kids)
    return memo[id(root)]


class Census:
    """Counts work at the same boundaries: steps, code and term sizes,
    budget exhaustion, integer results and escaping exceptions.

    Reducers are run with ``collect_trace=True`` so that the peak term
    size can be read from the trace; this pass is never timed.
    """

    def __init__(self, node_types: tuple):
        self.node_types = node_types
        self.counts: Counter[str] = Counter()
        self.expected: int | None = None

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]

        def counted(fn, args, kwargs):
            if name in REDUCERS:
                kwargs["collect_trace"] = True
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            self._observe(name, layer, out)
            return out
        return _outermost(fn, counted)

    def _size(self, t, memo=None) -> int:
        return tree_size(t, self.node_types, {} if memo is None else memo)

    def _observe(self, name: str, layer: str, out) -> None:
        c = self.counts
        if name in REDUCERS:
            c[f"{layer}.runs"] += 1
            c[f"{layer}.steps"] += out.steps_used
            c[f"{layer}.budget_exhausted"] += \
                out.status.value == "budget_exhausted"
            c[f"{layer}.int_hits"] += self.expected is not None and \
                _as_int(out.result) == self.expected
            memo: dict[int, int] = {}
            states = [s[1] if isinstance(s, tuple) else s for s in out.trace]
            peak = max(self._size(s, memo) for s in states)
            c[f"{layer}.peak_nodes"] = max(c[f"{layer}.peak_nodes"], peak)
        elif name in ("ski.compile", "cam.compile"):
            c[f"{layer}.code_nodes"] += self._size(out)
        elif name == "superc.lift":
            c["superc.defs"] += len(out.defs)
            c["superc.code_nodes"] += self._size(out.main) + \
                sum(self._size(d.body) for d in out.defs)


def _as_int(result) -> int | None:
    """The integer a reducer ended in: ``Const(IntLit n)`` for beta and
    sc, ``CConst(IntLit n)`` for ski, ``IntV n`` for cam."""
    kind = type(result).__name__
    if kind in ("Const", "CConst") and type(result.value).__name__ == "IntLit":
        return result.value.value
    if kind == "IntV":
        return result.n
    return None
