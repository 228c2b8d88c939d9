"""CLI output hashes: every corpus program under the main flag sets, one
stdin input per exit code, and every demo's output.

Each case maps to the sha256 of ``[exit code, stdout, stderr]`` from an
in-process call of ``cli.main`` (or of the demo script).  A change that
alters output on purpose regenerates ``cli_golden.json`` with

    PYTHONPATH=src python tests/test_cli_golden.py

and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
from pathlib import Path

from appliq import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

_CORPUS_FLAGS = [
    [*flags, "--ski-mode", mode]
    for flags in (["--backend", "all", "--json"],
                  ["--backend", "all", "--trace"],
                  ["--emit", "ski"])
    for mode in ("naive", "optimized")
] + [["--emit", "cam"], ["--emit", "sc"], ["--type"]]

# One stdin input per exit code.  Exit 5 is the lambda-pair disagreement
# on cam and sc; fixing it re-pins that case.
_EDGE_CASES = {
    "exit1 --max-steps 0": ("1", ["--max-steps", "0"]),
    "exit2 (": ("(", []),
    "exit3 \\x. x x --type": ("\\x. x x", ["--type"]),
    "exit4 omega3 --backend all --max-steps 50":
        ("(\\x. x x x) (\\x. x x x)",
         ["--backend", "all", "--max-steps", "50"]),
    "exit5 + (\\r. r 1 2) --backend all":
        ("+ (\\r. r 1 2)", ["--backend", "all"]),
    "exit0 fix (\\f x. x) 5 --backend all":
        ("fix (\\f x. x) 5", ["--backend", "all"]),
}


def _cli_cases() -> dict[str, tuple[str, list[str]]]:
    cases = {}
    for path in sorted((ROOT / "corpus").glob("*.lam")):
        source = path.read_text(encoding="utf-8")
        for flags in _CORPUS_FLAGS:
            cases[" ".join([path.name, *flags])] = (source, flags)
    cases.update(_EDGE_CASES)
    return cases


@contextlib.contextmanager
def _captured(stdin: str):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            yield out, err
    finally:
        sys.stdin = saved


def _run_cli(source: str, argv: list[str]) -> list:
    with _captured(source) as (out, err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def _run_demo(path: Path) -> list:
    with _captured("") as (out, err):
        try:
            runpy.run_path(str(path), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


def outputs() -> dict[str, list]:
    """``[exit code, stdout, stderr]`` for every case."""
    got = {name: _run_cli(source, argv)
           for name, (source, argv) in _cli_cases().items()}
    for path in sorted((ROOT / "demos").glob("*.py")):
        got[f"demo {path.name}"] = _run_demo(path)
    return got


def _digest(output: list) -> str:
    return hashlib.sha256(json.dumps(output).encode("utf-8")).hexdigest()


def test_cli_output_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = outputs()
    assert sorted(got) == sorted(golden), "cases differ from cli_golden.json"
    differing = [name for name, output in got.items()
                 if _digest(output) != golden[name]]
    report = "\n\n".join(
        f"== {name}\nexit {got[name][0]}\n-- stdout\n{got[name][1]}"
        f"-- stderr\n{got[name][2]}" for name in differing)
    assert not differing, \
        f"{len(differing)} case(s) differ from cli_golden.json:\n\n{report}"


if __name__ == "__main__":
    hashes = {name: _digest(output) for name, output in outputs().items()}
    GOLDEN.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(hashes)} cases to {GOLDEN}")
