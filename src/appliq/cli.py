"""Command-line driver: evaluate a source term on one backend or all
four, emit compiled forms, print traces or inferred types.

Exit codes: 0 ok, 1 usage, 2 parse error, 3 type error, 4 evaluation
error, 5 cross-backend disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cam, debruijn, ski, superc, types
from .reduction import EvalConfig, Status, reduce, trace_lines
from .syntax import (
    Const,
    FreeVariableError,
    IntLit,
    ParseError,
    Term,
    parse,
    print_term,
    resugar_pairs,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_TYPE = 3
EXIT_EVAL = 4
EXIT_DISAGREEMENT = 5

# Compile, reduce, print code, print result and trace lines per backend.
# Every entry looks its functions up when it is called, so a module
# attribute replaced at run time (as the benchmark's probes do) is used.
_BACKENDS = {
    "beta": (lambda term, mode: term,
             lambda term, n, trace: reduce(term, EvalConfig(max_steps=n),
                                           collect_trace=trace),
             lambda term: print_term(term),
             lambda result: print_term(resugar_pairs(result)),
             lambda states: trace_lines(states)),
    "ski": (lambda term, mode: ski.ski_compile(term, mode),
            lambda code, n, trace: ski.ski_reduce(code, n,
                                                  collect_trace=trace),
            lambda code: ski.print_comb(code),
            lambda result: ski.print_comb(result),
            lambda states: ski.ski_trace_lines(states)),
    "cam": (lambda term, mode: cam.cam_compile(debruijn.encode(term)),
            lambda code, n, trace: cam.cam_eval_closure(code, n,
                                                        collect_trace=trace),
            lambda code: cam.print_cat(code, expand_quotes=True),
            lambda result: cam.print_cat(result),
            lambda states: cam.cam_trace_lines(states)),
    "sc": (lambda term, mode: superc.lift(term),
           lambda prog, n, trace: superc.sc_reduce(prog, n,
                                                   collect_trace=trace),
           lambda prog: superc.print_program(prog),
           lambda result: print_term(resugar_pairs(result)),
           lambda states: superc.sc_trace_lines(states)),
}
BACKENDS = tuple(_BACKENDS)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="appliq",
        description="Compile and evaluate an applicative-language term "
                    "on the beta, ski, cam or sc backend, or cross-check "
                    "all of them.")
    p.add_argument("file", nargs="?",
                   help="source file (reads stdin when omitted)")
    p.add_argument("--backend", choices=BACKENDS + ("all",), default="beta")
    p.add_argument("--trace", action="store_true",
                   help="print one line per reduction step")
    p.add_argument("--emit", nargs="?", const="", metavar="BACKEND",
                   help="print the compiled form only (optionally for the "
                        "given backend)")
    p.add_argument("--ski-mode", choices=("naive", "optimized"),
                   default="optimized")
    p.add_argument("--max-steps", type=int, default=10000)
    p.add_argument("--type", action="store_true", dest="show_type",
                   help="print the inferred type and exit")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the run report as JSON")
    return p


_PARSER = _build_parser()


def _result_int(result) -> int | None:
    match result:
        case Const(IntLit(n)):
            return n
    return None


def _run_backend(name: str, term: Term, ski_mode: ski.Mode, max_steps: int,
                 want_trace: bool) -> tuple[dict, int | None, list[str]]:
    compile_, reduce_, print_code, print_result, trace_of = _BACKENDS[name]
    code = compile_(term, ski_mode)
    out = reduce_(code, max_steps, want_trace)
    report = {
        "name": name,
        "compiled": print_code(code),
        "result": print_result(out.result),
        "steps": out.steps_used,
        "status": out.status.value,
    }
    lines = trace_of(out.trace) if want_trace else []
    return report, _result_int(out.result), lines


def compiled_form(name: str, term: Term, ski_mode: ski.Mode) -> str:
    compile_, _, print_code, _, _ = _BACKENDS[name]
    return print_code(compile_(term, ski_mode))


def render_text(report: dict) -> str:
    """Text rendering of a run report; a pure function of the report so
    the JSON form round-trips."""
    lines = [f"{b['name']}: {b['result']} ({b['steps']} steps, {b['status']})"
             for b in report["backends"]]
    if report["agreement"] is not None:
        lines.append(f"agreement: {'yes' if report['agreement'] else 'no'}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    # pathological terms reduce to deeply nested trees
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 100000))
    args = _PARSER.parse_args(argv)

    if args.max_steps < 1:
        print("appliq: error: --max-steps must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    emit_backend = None
    if args.emit is not None:
        emit_backend = args.emit or args.backend
        if emit_backend == "all":
            print("appliq: error: --emit is not valid with --backend all",
                  file=sys.stderr)
            return EXIT_USAGE
        if emit_backend not in BACKENDS:
            print(f"appliq: error: unknown backend for --emit: {emit_backend}",
                  file=sys.stderr)
            return EXIT_USAGE

    try:
        if args.file:
            with open(args.file, encoding="utf-8") as fh:
                source = fh.read()
        else:
            source = sys.stdin.read()
        term = parse(source)
    except OSError as exc:
        print(f"appliq: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, RecursionError, UnicodeDecodeError) as exc:
        print(f"appliq: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    if args.show_type:
        try:
            print(types.type_to_str(types.infer(term)))
        except (types.TypeInferenceError, RecursionError) as exc:
            print(f"appliq: type error: {exc}", file=sys.stderr)
            return EXIT_TYPE
        return EXIT_OK

    ski_mode = ski.Mode(args.ski_mode)

    try:
        if emit_backend is not None:
            print(compiled_form(emit_backend, term, ski_mode))
            return EXIT_OK

        names = BACKENDS if args.backend == "all" else (args.backend,)
        backends = []
        values: list[int | None] = []
        for name in names:
            rep, value, lines = _run_backend(
                name, term, ski_mode, args.max_steps,
                args.trace and not args.as_json)
            backends.append(rep)
            values.append(value)
            if lines:
                if len(names) > 1:
                    print(f"-- {name} --")
                for line in lines:
                    print(line)
        printed = print_term(term)
    except (FreeVariableError, OverflowError, RecursionError) as exc:
        print(f"appliq: evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVAL

    # Every backend that reached a normal form must reach the same
    # integer: one that reached a different integer, or a non-integer
    # while another reached an integer, is a disagreement.  A backend
    # that ran out of budget is left out and reported by exit 4.
    done = [v for v, b in zip(values, backends)
            if b["status"] == Status.NORMAL_FORM.value]
    agreement = None
    if len(done) >= 2 and any(v is not None for v in done):
        agreement = all(v == done[0] for v in done)
    report = {"source": printed, "backends": backends, "agreement": agreement}

    if args.as_json:
        print(json.dumps(report, indent=2))
    else:
        sys.stdout.write(render_text(report))

    if agreement is False:
        return EXIT_DISAGREEMENT
    if any(b["status"] == Status.BUDGET_EXHAUSTED.value for b in backends):
        return EXIT_EVAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
