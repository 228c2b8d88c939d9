"""Seeded inputs for the benchmark's workloads.

Every program is built here as source text together with the integer it
must evaluate to, computed by construction.  No reference value comes
from an appliq backend, and this module does not import appliq: appliq
only ever sees the generated text.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BACKENDS = ("beta", "ski", "cam", "sc")

# Sizes are chosen so that one pass over a workload takes about a second
# on one core, so a run holds tens of passes.
CHURCH_KS = (6, 12, 18, 24, 30, 36)
SHARING_DEPTHS = (3, 4, 5, 6, 7, 8)
# (depth, count).  The one depth-4 term is the oracle's slowest program by
# a wide margin, so its tail latency reads that program, not a noise burst
# on one of several programs of similar cost.
ORACLE_GENERATED = ((3, 60), (4, 1))
EMIT_TERMS, EMIT_DEPTH = 20, 7
EMIT_CHECKS = ((("--emit", "ski"), "emit_ski"),
               (("--emit", "cam"), "emit_cam"),
               (("--emit", "sc"), "emit_sc"),
               (("--type",), "type"))

EXPECTED_FILE = Path(__file__).with_name("corpus_expected.json")


@dataclass(frozen=True)
class Invocation:
    """One ``appliq.cli.main`` call: source text on stdin plus argv.

    ``check`` names how the output is verified: ``int`` compares every
    backend's result with ``expected``; ``emit_ski``, ``emit_cam``,
    ``emit_sc`` and ``type`` check the compiled form or the type.
    ``known_defect`` marks a documented defect that may make this
    invocation fail; it is still counted as a failure when it does.
    """
    label: str
    source: str
    argv: tuple[str, ...]
    check: str
    expected: int | None = None
    known_defect: bool = False


def church_numeral(k: int) -> str:
    return "\\f x. " + "f (" * k + "x" + ")" * k


def gen_int_source(shape: random.Random, values: random.Random, depth: int,
                   env: tuple[tuple[str, int], ...] = ()) -> tuple[str, int]:
    """A closed integer-valued term as source text, with its value.

    The shapes follow the test suite's ``gen_int_term``: curried and
    pair arithmetic, applied abstractions, pairs applied to operators
    and higher-order arguments.  ``shape`` draws the structure and which
    bound variable each leaf names, which set the amount of work: the
    compilers' output size depends on where each variable occurs.
    ``values`` draws the literals and the operators.  Every inner node
    has two subterms of depth - 1.
    """
    if depth <= 0:
        if env and shape.random() < 0.5:
            return shape.choice(env)
        n = values.randint(-20, 20)
        return str(n), n

    def sub(scope=env) -> tuple[str, int]:
        src, val = gen_int_source(shape, values, depth - 1, scope)
        return f"({src})", val

    case = shape.randrange(7)
    if case in (3, 6):
        x = f"n{len(env)}"
        arg, varg = sub()
        body, vbody = sub(env + ((x, varg),))
        if case == 3:
            return f"(\\{x}. {body}) {arg}", vbody
        return f"(\\g. g {arg}) (\\{x}. {body})", vbody
    (a, va), (b, vb) = sub(), sub()
    if case == 2:
        return f"+ [{a}, {b}]", va + vb
    op, vop = values.choice((("add", va + vb), ("sub", va - vb)))
    if case in (0, 1):
        return f"{op} {a} {b}", vop
    if case == 4:
        return f"[{a}, {b}] {op}", vop
    return f"(\\f. f {a} {b}) {op}", vop


def _church(rng: random.Random) -> list[Invocation]:
    out = []
    for k in CHURCH_KS:
        step, base = rng.randint(1, 3), rng.randint(0, 9)
        src = f"(\\n. n (add {step}) {base}) ({church_numeral(k)})"
        for b in BACKENDS:
            out.append(Invocation(f"church k={k} {b}", src,
                                  ("--backend", b, "--json"), "int",
                                  base + step * k))
    return out


def _sharing(rng: random.Random) -> list[Invocation]:
    out = []
    for depth in SHARING_DEPTHS:
        base = rng.randint(1, 9)
        src = "(\\d. " + "d (" * depth + str(base) + ")" * depth + \
            ") (\\x. add x x)"
        for b in BACKENDS:
            out.append(Invocation(f"sharing depth={depth} {b}", src,
                                  ("--backend", b, "--json"), "int",
                                  base * 2 ** depth))
    return out


def load_corpus(root: Path) -> list[tuple[str, str, int]]:
    """(file name, source, expected) for every corpus program; the
    expected values come from the hand-written file next to this one."""
    expected = json.loads(EXPECTED_FILE.read_text())["expected"]
    files = sorted((root / "corpus").glob("*.lam"))
    if sorted(f.name for f in files) != sorted(expected):
        raise ValueError("corpus files and corpus_expected.json disagree")
    return [(f.name, f.read_text(), expected[f.name]) for f in files]


def known_defects() -> set[tuple[str, str]]:
    data = json.loads(EXPECTED_FILE.read_text())["known_defects"]
    return {(d["program"], d["ski_mode"]) for d in data}


def _oracle(shape: random.Random, rng: random.Random,
            root: Path) -> list[Invocation]:
    defects = known_defects()
    out = []
    for name, src, value in load_corpus(root):
        for mode in ("optimized", "naive"):
            out.append(Invocation(
                f"corpus {name} {mode}", src,
                ("--backend", "all", "--json", "--ski-mode", mode), "int",
                value, (name, mode) in defects))
    for depth, count in ORACLE_GENERATED:
        for i in range(count):
            src, value = gen_int_source(shape, rng, depth)
            out.append(Invocation(f"generated depth={depth} #{i}", src,
                                  ("--backend", "all", "--json"), "int",
                                  value))
    return out


def _emit(shape: random.Random, rng: random.Random) -> list[Invocation]:
    out = []
    for i in range(EMIT_TERMS):
        src, _ = gen_int_source(shape, rng, EMIT_DEPTH)
        for argv, check in EMIT_CHECKS:
            out.append(Invocation(f"generated #{i} {' '.join(argv)}", src,
                                  argv, check))
    return out


def make_workload(name: str, seed: int, root: Path) -> list[Invocation]:
    """The fixed program set of one workload, in a seeded order.

    The seed draws every literal, operator and the order.  Term shapes
    and variable occurrences come from a fixed stream, so that runs with
    different seeds do the same amount of work and their timings can be
    compared.
    """
    rng = random.Random(f"{name}:{seed}")
    shape = random.Random(f"{name}:shape")
    if name == "church":
        programs = _church(rng)
    elif name == "sharing":
        programs = _sharing(rng)
    elif name == "oracle":
        programs = _oracle(shape, rng, root)
    elif name == "emit":
        programs = _emit(shape, rng)
    else:
        raise ValueError(f"unknown workload: {name}")
    rng.shuffle(programs)
    return programs
