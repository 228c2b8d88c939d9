"""Self-tests of the benchmark: references, generator and probes.

    python3 -m pytest -q bench
"""

import json
import random
from pathlib import Path

import pytest

import probes
import reference
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_reference_reproduces_corpus_expected_values():
    corpus = workloads.load_corpus(ROOT)
    assert len(corpus) == 24
    for name, src, expected in corpus:
        assert reference.eval_int(src) == expected, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generated_programs_carry_reference_values(workload):
    for seed in (1, 2):
        for inv in workloads.make_workload(workload, seed, ROOT):
            if inv.check == "int":
                assert reference.eval_int(inv.source) == inv.expected, \
                    inv.label
            else:
                reference.eval_int(inv.source)


def test_generator_value_matches_reference_on_many_shapes():
    for seed in range(40):
        shape, values = random.Random(seed), random.Random(-seed)
        src, value = workloads.gen_int_source(shape, values, seed % 6)
        assert reference.eval_int(src) == value, src


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = workloads.make_workload(workload, 7, ROOT)
    assert first == workloads.make_workload(workload, 7, ROOT)
    assert first != workloads.make_workload(workload, 8, ROOT)


def test_oracle_keeps_the_known_defect_in_the_workload():
    defects = [inv.label for inv in workloads.make_workload("oracle", 1, ROOT)
               if inv.known_defect]
    assert defects == ["corpus 20_pair_of_exprs.lam naive"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_tail_is_the_eleventh_largest_sample():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_add_up_and_recursion_opens_one_span():
    tracer = probes.Tracer()

    def countdown(n):
        return n if n == 0 else wrapped_countdown(n - 1)

    wrapped_countdown = tracer.wrap("inner", countdown)
    outer = tracer.wrap("outer", lambda: wrapped_countdown(50))
    outer()
    outer()
    assert [s[:2] for s in tracer.spans] == \
        [[1, "outer"], [1, "inner"], [2, "outer"], [2, "inner"]]
    for (inv, name, t0, t1, parent), selfs in zip(tracer.spans[::2],
                                                   tracer.self_times()):
        assert sum(selfs.values()) == pytest.approx(t1 - t0)
        assert min(selfs.values()) >= 0
