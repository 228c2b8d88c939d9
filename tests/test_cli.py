import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from appliq import cli
from appliq.cam import cam_compile, cam_eval_closure, expand_abbreviations
from appliq.debruijn import encode
from appliq.syntax import print_term
from genterms import gen_fix_term

CORPUS = sorted((Path(__file__).parent.parent / "corpus").glob("*.lam"))
F_SOURCE = r"(\x. x [4, (\x. x) 3]) +"


def _write(tmp_path, src, name="prog.lam"):
    path = tmp_path / name
    path.write_text(src + "\n", encoding="utf-8")
    return str(path)


def test_beta_run(tmp_path, capsys):
    assert cli.main([_write(tmp_path, F_SOURCE)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == "beta: 7 (3 steps, normal_form)\n"


def test_all_backends_agree(tmp_path, capsys):
    assert cli.main([_write(tmp_path, F_SOURCE), "--backend", "all"]) == \
        cli.EXIT_OK
    out = capsys.readouterr().out
    assert "agreement: yes" in out
    assert out.count(": 7 (") == 4


def test_emit_ski(tmp_path, capsys):
    path = _write(tmp_path, r"\x. x")
    assert cli.main([path, "--emit", "--backend", "ski"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "I\n"


def test_emit_with_backend_argument(tmp_path, capsys):
    path = _write(tmp_path, F_SOURCE)
    assert cli.main([path, "--emit", "sc"]) == cli.EXIT_OK
    assert capsys.readouterr().out == \
        "$X x = x\n$Y x = x [4, $X 3]\n----\n$Y +\n"


def test_emit_cam_golden(tmp_path, capsys):
    path = _write(tmp_path, F_SOURCE)
    assert cli.main([path, "--emit", "cam"]) == cli.EXIT_OK
    assert capsys.readouterr().out == \
        "$[L($[0!, <'4, $[L(0!), '3]>]), L(+ o Snd)]\n"


def test_emit_ski_naive_golden(tmp_path, capsys):
    path = _write(tmp_path, r"(\x. x 4 ((\x. x) 3)) add")
    assert cli.main([path, "--emit", "ski", "--ski-mode", "naive"]) == \
        cli.EXIT_OK
    assert capsys.readouterr().out == "S (S I (K 4)) (S (K I) (K 3)) add\n"


def test_type_flag(tmp_path, capsys):
    path = _write(tmp_path, r"\x y z. x (y z)")
    assert cli.main([path, "--type"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "(a -> b) -> (c -> a) -> c -> b\n"


def test_type_error_exit(tmp_path, capsys):
    path = _write(tmp_path, r"\x. x x")
    assert cli.main([path, "--type"]) == cli.EXIT_TYPE
    assert "occurs check" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    assert cli.main([_write(tmp_path, "(x")]) == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_free_variable_exit(tmp_path, capsys):
    path = _write(tmp_path, "f x")
    assert cli.main([path, "--backend", "cam"]) == cli.EXIT_EVAL
    assert "free variable" in capsys.readouterr().err


def test_budget_exit(tmp_path, capsys):
    path = _write(tmp_path, r"(\x. x x) (\x. x x)")
    assert cli.main([path, "--max-steps", "50"]) == cli.EXIT_EVAL
    assert "budget_exhausted" in capsys.readouterr().out


def test_usage_emit_with_all(tmp_path, capsys):
    path = _write(tmp_path, "3")
    assert cli.main([path, "--backend", "all", "--emit"]) == cli.EXIT_USAGE


def test_usage_bad_max_steps(tmp_path, capsys):
    assert cli.main([_write(tmp_path, "3"), "--max-steps", "0"]) == \
        cli.EXIT_USAGE


def test_missing_file(capsys):
    assert cli.main(["/nonexistent/q.lam"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("from_file", [True, False], ids=["file", "stdin"])
def test_source_not_utf8_is_parse_error(from_file, tmp_path):
    # a subprocess, so that stdin is decoded strictly as UTF-8
    source = b"\xff add 1 2"
    path = tmp_path / "bad.lam"
    path.write_bytes(source)
    paths = [str(Path(__file__).parent.parent / "src")] + \
        [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(paths))
    args = [str(path)] if from_file else []
    proc = subprocess.run([sys.executable, "-m", "appliq.cli", *args],
                          input=b"" if from_file else source,
                          capture_output=True, env=env, timeout=60)
    assert proc.returncode == cli.EXIT_PARSE
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"appliq: parse error: ")
    assert proc.stderr.count(b"\n") == 1


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("add 1 2\n"))
    assert cli.main([]) == cli.EXIT_OK
    assert capsys.readouterr().out == "beta: 3 (1 steps, normal_form)\n"


def test_trace_output(tmp_path, capsys):
    path = _write(tmp_path, F_SOURCE)
    assert cli.main([path, "--trace"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "step 0: (\\x. x [4, (\\x. x) 3]) +" in out
    assert "step 3: 7" in out


def test_json_roundtrips_to_text(tmp_path, capsys):
    path = _write(tmp_path, F_SOURCE)
    assert cli.main([path, "--backend", "all"]) == cli.EXIT_OK
    text = capsys.readouterr().out
    assert cli.main([path, "--backend", "all", "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert cli.render_text(report) == text
    assert report["agreement"] is True
    assert {b["name"] for b in report["backends"]} == \
        {"beta", "ski", "cam", "sc"}


def test_json_single_backend_agreement_null(tmp_path, capsys):
    path = _write(tmp_path, "add 1 2")
    assert cli.main([path, "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["agreement"] is None


def test_disagreement_exit_code(tmp_path, capsys, monkeypatch):
    def fake(name, term, ski_mode, max_steps, want_trace):
        value = 8 if name == "ski" else 7
        report = {"name": name, "compiled": "", "result": str(value),
                  "steps": 1, "status": "normal_form"}
        return report, value, []

    monkeypatch.setattr(cli, "_run_backend", fake)
    path = _write(tmp_path, "3")
    assert cli.main([path, "--backend", "all"]) == cli.EXIT_DISAGREEMENT
    assert "agreement: no" in capsys.readouterr().out


def test_stuck_backend_is_disagreement(monkeypatch, capsys):
    # ski stops at once at a non-integer normal form; the others reach 6
    from appliq import ski
    from appliq.reduction import Outcome, Status

    def stuck(code, max_steps, collect_trace=False):
        return Outcome(code, 0, Status.NORMAL_FORM,
                       (code,) if collect_trace else None)

    monkeypatch.setattr(ski, "ski_reduce", stuck)
    monkeypatch.setattr("sys.stdin", io.StringIO("+ [+ [1,2], 3]\n"))
    assert cli.main(["--backend", "all", "--ski-mode", "naive"]) == \
        cli.EXIT_DISAGREEMENT
    out = capsys.readouterr().out
    assert out.count(": 6 (") == 3
    assert "agreement: no" in out


@pytest.mark.parametrize("source", [r"+ (\r. r 1 (r 2 3))",
                                    r"+ (\r. r (r 1 2) 3)"])
@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_plus_of_a_function_using_its_argument_is_stuck(source, mode,
                                                        monkeypatch, capsys):
    # \r. r l r' is a pair only where l and r' do not use r; no backend
    # adds these, so none reaches an integer
    monkeypatch.setattr("sys.stdin", io.StringIO(source + "\n"))
    assert cli.main(["--backend", "all", "--ski-mode", mode, "--json"]) == \
        cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    ski = next(b for b in report["backends"] if b["name"] == "ski")
    assert (ski["result"], ski["steps"]) == (ski["compiled"], 0)
    assert report["agreement"] is None


def test_budget_exhausted_backend_under_all(tmp_path, capsys):
    # beta and sc finish in 2 steps; ski and cam need more than 3
    path = _write(tmp_path, r"(\x. add x x) 3")
    assert cli.main([path, "--backend", "all", "--max-steps", "3",
                     "--json"]) == cli.EXIT_EVAL
    report = json.loads(capsys.readouterr().out)
    status = {b["name"]: b["status"] for b in report["backends"]}
    assert status == {"beta": "normal_form", "ski": "budget_exhausted",
                      "cam": "budget_exhausted", "sc": "normal_form"}
    assert report["agreement"] is True


def test_no_integer_results_is_no_agreement(tmp_path, capsys):
    path = _write(tmp_path, r"\x. x")
    assert cli.main([path, "--backend", "all", "--json"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["agreement"] is None


@pytest.mark.parametrize("source, value", [
    (r"fix (\f x. x) 3", 3), (r"fix (\f x. add x 1) 3", 4)])
def test_fix_agrees_on_every_backend(source, value, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert cli.main(["--backend", "all", "--json"]) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [b["result"] for b in report["backends"]] == [str(value)] * 4
    assert report["agreement"] is True


@pytest.mark.parametrize("mode", ["naive", "optimized"])
def test_generated_fix_terms_agree_on_every_backend(mode, monkeypatch,
                                                    capsys):
    # fix (\f. T) with T ignoring f; primitive-only cam, which the CLI
    # does not expose, must reach the same integer
    rng = random.Random(f"fix-{mode}")
    for _ in range(25):
        t = gen_fix_term(rng, rng.randint(1, 3))
        monkeypatch.setattr("sys.stdin", io.StringIO(print_term(t)))
        assert cli.main(["--backend", "all", "--ski-mode", mode,
                         "--json"]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["agreement"] is True, print_term(t)
        results = {(b["result"], b["status"]) for b in report["backends"]}
        assert len(results) == 1, print_term(t)
        result, status = results.pop()
        assert status == "normal_form", print_term(t)
        out = cam_eval_closure(expand_abbreviations(cam_compile(encode(t))),
                               primitive_only=True)
        assert str(cli._result_int(out.result)) == result


@pytest.mark.parametrize("source", [
    r"(\x. x x x) (\x. x x x)", "fix 9223372036854775807 sub sub"])
def test_growing_terms_exhaust_the_default_budget(source, monkeypatch,
                                                   capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert cli.main(["--backend", "all", "--json"]) == cli.EXIT_EVAL
    report = json.loads(capsys.readouterr().out)
    status = {b["name"]: (b["status"], b["steps"])
              for b in report["backends"]}
    if source.startswith("fix"):
        # cam unfolds fix by value: fix N -> N (\x. fix N x), an integer
        # applied to a closure, which is stuck
        assert status.pop("cam") == ("normal_form", 11)
    assert status == dict.fromkeys(status, ("budget_exhausted", 10000))
    assert report["agreement"] is None


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_agreement(path, capsys):
    assert cli.main([str(path), "--backend", "all"]) == cli.EXIT_OK
    assert "agreement: yes" in capsys.readouterr().out


@pytest.mark.parametrize("backend, steps", [
    ("beta", 2), ("ski", 6), ("cam", 12), ("sc", 2)])
def test_budget_boundary(backend, steps, monkeypatch, capsys):
    # the last step allowed may be the one that reaches normal form
    for budget, status, code in ((steps, "normal_form", cli.EXIT_OK),
                                 (steps - 1, "budget_exhausted",
                                  cli.EXIT_EVAL)):
        monkeypatch.setattr("sys.stdin", io.StringIO(r"(\x. add x x) 3"))
        assert cli.main(["--backend", backend, "--max-steps", str(budget),
                         "--json"]) == code
        [report] = json.loads(capsys.readouterr().out)["backends"]
        assert (report["steps"], report["status"]) == (budget, status)


def test_deep_nesting_is_parse_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("(" * 90000 + "1" + ")" * 90000))
    assert cli.main([]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("appliq: parse error: ")
    assert "Traceback" not in err


def test_deep_term_is_evaluation_error(monkeypatch, capsys):
    # an application spine is parsed by a loop but walked recursively
    monkeypatch.setattr("sys.stdin", io.StringIO(r"(\x. x)" + " 0" * 110000))
    assert cli.main([]) == cli.EXIT_EVAL
    err = capsys.readouterr().err
    assert err.startswith("appliq: evaluation error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("backend", cli.BACKENDS)
@pytest.mark.parametrize("source, message", [
    ("add 9223372036854775807 1", "add: 9223372036854775808"),
    ("+ [9223372036854775807, 1]", "+: 9223372036854775808"),
    ("sub -9223372036854775808 1", "sub: -9223372036854775809"),
])
def test_overflow_on_every_backend(backend, source, message, monkeypatch,
                                   capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(source))
    assert cli.main(["--backend", backend]) == cli.EXIT_EVAL
    assert capsys.readouterr().err == \
        f"appliq: evaluation error: integer overflow in {message}\n"


def test_entry_points_are_looked_up_when_called(tmp_path, monkeypatch,
                                                capsys):
    # the benchmark's probes replace these attributes to time each layer
    from appliq import cam, ski, superc
    calls = {}
    for mod, attr in ((cli, "reduce"), (ski, "ski_compile"),
                      (ski, "ski_reduce"), (cam, "cam_compile"),
                      (cam, "cam_eval_closure"), (superc, "lift"),
                      (superc, "sc_reduce"), (superc, "print_program"),
                      (ski, "print_comb")):
        def counted(*args, _fn=getattr(mod, attr), _key=attr, **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, attr, counted)
    path = _write(tmp_path, F_SOURCE)
    assert cli.main([path, "--backend", "all"]) == cli.EXIT_OK
    assert cli.main([path, "--emit", "sc"]) == cli.EXIT_OK
    assert cli.main([path, "--emit", "ski"]) == cli.EXIT_OK
    capsys.readouterr()
    assert set(calls) == {"reduce", "ski_compile", "ski_reduce",
                          "cam_compile", "cam_eval_closure", "lift",
                          "sc_reduce", "print_program", "print_comb"}
