"""appliq benchmark.

    python3 bench/run.py --workload church --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

A single-process closed loop: one caller runs each program through
``appliq.cli.main``, in-process, to completion before it sends the next,
and checks every answer against the benchmark's own references.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs an untimed counting pass twice and alternates untraced and traced
passes, and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See SCHEMA.md for every metric.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import random
import re
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import probes
import reference
import workloads

WORKLOADS = ("church", "sharing", "oracle", "emit")
SETUP_REPEATS = 5
# A shared 2-vCPU cloud VM runs the same Python code up to 1.8x slower
# for minutes at a time.  End-to-end times are scaled by
# CALIBRATION_REF_S over the time the calibration work took next to
# them, so they read as times on a machine where it takes this long.
CALIBRATION_REF_S = 0.012
CALIBRATION_SOURCE, _ = workloads.gen_int_source(
    random.Random("calibration"), random.Random("calibration"), 5)
CALIBRATION_EVALS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("programs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYER_MODULES = ("syntax", "reduction", "ski", "debruijn", "cam", "superc",
                 "types")
REDUCER_LAYERS = {span: span.split(".")[0] for span in probes.REDUCERS}
PER_LAYER = (
    tuple((f"{s}.s", "s") for s in probes.SPAN_NAMES if s != probes.ROOT_SPAN)
    + (("cli.self_s", "s"),)
    + tuple((f"{layer}.{m}", unit)
            for layer in REDUCER_LAYERS.values()
            for m, unit in (("steps", "count"), ("us_per_step", "us"),
                            ("peak_nodes", "count"),
                            ("budget_exhausted", "count"), ("int_ratio", "1")))
    + tuple((f"{layer}.code_nodes", "count") for layer in ("ski", "cam",
                                                           "superc"))
    + (("superc.defs", "count"),)
    + tuple((f"{m}.errors", "count") for m in LAYER_MODULES + ("cli",))
    + (("fail_ratio", "1"), ("trace.overhead_ratio", "1"))
)
# Counts that must repeat exactly between the two counting passes.
CENSUS_KEYS = tuple(name for name, unit in PER_LAYER if unit == "count")

_SKI_WORDS = {"I", "K", "S", "add", "sub", "fix"}
_CAM_WORDS = {"L", "Fst", "Snd", "o", "eps", "add", "sub", "fix"}
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class SetupError(Exception):
    """The checkout does not hold what the benchmark needs."""


@dataclass
class Result:
    rc: int | None
    seconds: float
    stdout: str
    error: BaseException | None


@dataclass
class Tally:
    """Invocations attempted and failed.  A failure of an invocation
    marked ``known_defect`` is counted in ``failures`` but not in
    ``unexpected``, which alone makes a run incorrect."""
    attempted: int = 0
    failures: int = 0
    unexpected: int = 0
    first_unexpected: list[str] = field(default_factory=list)

    def add(self, inv: workloads.Invocation, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failures += 1
        if not inv.known_defect:
            self.unexpected += 1
            if len(self.first_unexpected) < 5:
                self.first_unexpected.append(f"{inv.label}: {reason}")


@dataclass
class Prepared:
    """Freshly imported appliq modules and the workload's program set."""
    modules: dict
    programs: list[workloads.Invocation]

    @property
    def cli(self):
        return self.modules["cli"]


def load_appliq(root: Path) -> dict:
    """Import appliq afresh from the checkout's ``src``."""
    src = root / "src"
    if not (src / "appliq" / "__init__.py").is_file():
        raise SetupError(f"no appliq package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "appliq" or
                 n.startswith("appliq.")]:
        del sys.modules[name]
    pkg = importlib.import_module("appliq")
    if Path(pkg.__file__).resolve().parent != (src / "appliq").resolve():
        raise SetupError(f"appliq imported from {pkg.__file__}, not {src}")
    return {m: importlib.import_module(f"appliq.{m}")
            for m in LAYER_MODULES + ("cli",)}


def invoke(main, inv: workloads.Invocation) -> Result:
    """One closed-loop call of ``main`` with the source on stdin."""
    out, err, stdin = io.StringIO(), io.StringIO(), io.StringIO(inv.source)
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = stdin, out, err
    error = None
    try:
        t0 = perf_counter()
        try:
            rc = main(list(inv.argv))
        except (Exception, SystemExit) as exc:  # counted as a failure
            rc, error = None, exc
        t1 = perf_counter()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return Result(rc, t1 - t0, out.getvalue(), error)


def check(prep: Prepared, inv: workloads.Invocation,
          res: Result) -> str | None:
    """Why the invocation failed, or None when its answer is right."""
    if res.error is not None:
        return f"{type(res.error).__name__} escaped cli.main: {res.error}"
    if res.rc != 0:
        return f"exit code {res.rc}, expected 0"
    out = res.stdout
    if inv.check == "int":
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        for b in report["backends"]:
            if b["result"] != str(inv.expected) or \
                    b["status"] != "normal_form":
                return f"{b['name']} gave {b['result']!r} ({b['status']}), " \
                       f"expected {inv.expected}"
        if len(report["backends"]) > 1 and report["agreement"] is not True:
            return f"agreement is {report['agreement']!r}"
        return None
    if inv.check == "type":
        return None if out.strip() == "N" else f"type {out.strip()!r}"
    allowed = {"emit_ski": _SKI_WORDS, "emit_cam": _CAM_WORDS}.get(inv.check)
    if allowed is not None:
        extra = set(_WORD.findall(out)) - allowed
        return f"variables in compiled code: {sorted(extra)[:5]}" \
            if extra or not out.strip() else None
    if inv.check == "emit_sc":
        try:
            prog = prep.modules["superc"].parse_program(out)
        except prep.modules["syntax"].ParseError as exc:
            return f"output does not read back: {exc}"
        lam = prep.modules["syntax"].Lam
        if any(_contains(t, lam) for t in
               [prog.main] + [d.body for d in prog.defs]):
            return "supercombinator program contains an abstraction"
        return None
    raise ValueError(f"unknown check: {inv.check}")


def _contains(term, cls) -> bool:
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, cls):
            return True
        stack.extend(v for v in vars(t).values() if hasattr(v, "__dict__"))
    return False


def setup(root: Path, workload: str, seed: int) -> tuple[float, Prepared]:
    """Import, input generation, references and warm-up: everything
    before the first timed call.  Warm-up runs the smallest program of
    each distinct flag set once."""
    t0 = perf_counter()
    prep = Prepared(load_appliq(root),
                      workloads.make_workload(workload, seed, root))
    smallest = {}
    for inv in sorted(prep.programs, key=lambda i: len(i.source)):
        smallest.setdefault(inv.argv, inv)
    for inv in smallest.values():
        invoke(prep.cli.main, inv)
    return perf_counter() - t0, prep


def run_pass(prep: Prepared, main, tally: Tally,
             latencies: list[float]) -> float:
    """Every program once, in order; returns the summed cli.main time."""
    total = 0.0
    for inv in prep.programs:
        res = invoke(main, inv)
        latencies.append(res.seconds)
        total += res.seconds
        tally.add(inv, check(prep, inv, res))
    return total


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh-largest sample."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def calibrate() -> float:
    """Seconds taken by fixed pure-Python work that does not involve
    appliq: the benchmark's own reference evaluator parsing and
    evaluating a fixed generated term.  Like appliq, it builds and walks
    trees of small objects, so it slows down with the host as appliq
    does."""
    t0 = perf_counter()
    for _ in range(CALIBRATION_EVALS):
        reference.eval_int(CALIBRATION_SOURCE)
    return perf_counter() - t0


def measure(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics.  Every set-up and every pass is scaled by the
    mean of the calibrations taken just before and just after it."""
    setups, raw_setups = [], []
    cal = [calibrate()]
    for _ in range(SETUP_REPEATS):
        dt, prep = setup(root, workload, seed)
        cal.append(calibrate())
        raw_setups.append(dt)
        setups.append(dt * 2 * CALIBRATION_REF_S / (cal[-2] + cal[-1]))
    gc.collect()
    tally, latencies, pass_times, raw_times = Tally(), [], [], []
    cal = [calibrate()]
    deadline = perf_counter() + seconds
    while not pass_times or perf_counter() < deadline:
        raw = []
        raw_times.append(run_pass(prep, prep.cli.main, tally, raw))
        cal.append(calibrate())
        scale = 2 * CALIBRATION_REF_S / (cal[-2] + cal[-1])
        pass_times.append(raw_times[-1] * scale)
        latencies += [t * scale for t in raw]
    n = len(prep.programs)
    per_program = [statistics.median(latencies[i::n]) for i in range(n)]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "programs_per_s": n / statistics.median(pass_times),
        # Latencies cluster by program, so the median of all samples, or
        # of one pass, can fall in a gap between two programs and jump
        # with noise; the median over programs of each program's median
        # moves only as fast as those programs do.
        "latency_p50_ms": statistics.median(per_program) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    notes = [f"latency_tail_ms is p{tail_pct:.2f} of {len(latencies)} samples",
             f"calibration median {statistics.median(cal) * 1e3:.2f} ms "
             f"(reference {CALIBRATION_REF_S * 1e3:g} ms); unscaled "
             f"setup_s {statistics.median(raw_setups):.4g}, programs_per_s "
             f"{n / statistics.median(raw_times):.4g}",
             f"fail_ratio {tally.failures}/{tally.attempted} = "
             f"{tally.failures / tally.attempted:.4f}"
             f" ({tally.unexpected} not known defects)"]
    return dict(metrics=metrics, units=dict(END_TO_END), tally=tally,
                notes=notes, problems=[])


def census_pass(prep: Prepared, tally: Tally) -> dict[str, float]:
    """Untimed pass that counts work at every layer boundary."""
    m = prep.modules
    census = probes.Census((m["syntax"].Term, m["ski"].CombTerm,
                            m["cam"].CatCode))
    failures_before = tally.failures
    with probes.patched(prep.modules, census.wrap):
        for inv in prep.programs:
            census.expected = inv.expected
            res = invoke(prep.cli.main, inv)
            if res.error is not None:
                census.counts["cli.errors"] += 1
            tally.add(inv, check(prep, inv, res))
    c = census.counts
    counts = {name: c[name] for name in CENSUS_KEYS}
    for layer in REDUCER_LAYERS.values():
        runs = c[f"{layer}.runs"]
        counts[f"{layer}.int_ratio"] = c[f"{layer}.int_hits"] / runs \
            if runs else 0.0
    counts["fail_ratio"] = (tally.failures - failures_before) / \
        len(prep.programs)
    return counts


def measure_layers(root: Path, workload: str, seed: int, seconds: float,
                   spans_out: Path) -> dict:
    _, prep = setup(root, workload, seed)
    problems = []
    tally = Tally()
    first = census_pass(prep, tally)
    second = census_pass(prep, tally)
    if first != second:
        diff = {k: (first[k], second[k]) for k in first
                if first[k] != second[k]}
        problems.append(f"counting pass not deterministic: {diff}")

    tracer = probes.Tracer()
    traced_main = tracer.wrap(probes.ROOT_SPAN, prep.cli.main)
    gc.collect()
    plain_times, traced_times, pass_selfs = [], [], []
    deadline = perf_counter() + seconds
    while not traced_times or perf_counter() < deadline:
        plain_times.append(run_pass(prep, prep.cli.main, tally, []))
        start = len(tracer.spans)
        walls: list[float] = []
        with probes.patched(prep.modules, tracer.wrap):
            traced_times.append(run_pass(prep, traced_main, tally, walls))
        selfs = tracer.self_times(start)
        problems += _unaccounted(selfs, walls)
        pass_selfs.append({name: sum(s.get(name, 0.0) for s in selfs)
                           for name in probes.SPAN_NAMES})

    metrics: dict[str, float] = {}
    for name in probes.SPAN_NAMES:
        metric = "cli.self_s" if name == probes.ROOT_SPAN else f"{name}.s"
        metrics[metric] = statistics.median(p[name] for p in pass_selfs)
    metrics.update(first)
    for span, layer in REDUCER_LAYERS.items():
        steps = first[f"{layer}.steps"]
        metrics[f"{layer}.us_per_step"] = \
            metrics[f"{span}.s"] / steps * 1e6 if steps else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(
        t / p for t, p in zip(traced_times, plain_times))

    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "fields": ["invocation", "name", "start", "end", "parent"],
        "spans": tracer.spans}))
    notes = [f"{len(plain_times)} untraced and {len(traced_times)} traced "
             f"passes of {len(prep.programs)} programs; spans in "
             f"{spans_out.relative_to(root)}"]
    return dict(metrics=metrics, units=dict(PER_LAYER), tally=tally,
                notes=notes, problems=problems)


def _unaccounted(selfs: list[dict[str, float]],
                 walls: list[float]) -> list[str]:
    """Self times of one invocation must add up to its traced wall time."""
    bad = []
    for i, (s, wall) in enumerate(zip(selfs, walls)):
        total = sum(s.values())
        if min(s.values()) < -1e-9 or abs(total - wall) > 0.02 * wall + 1e-4:
            bad.append(f"invocation {i}: self times {total:.6f}s "
                       f"vs wall {wall:.6f}s")
    return bad[:5]


def report(workload: str, out: dict) -> dict:
    tally: Tally = out["tally"]
    problems = out["problems"] + tally.first_unexpected
    print(f"== {workload}")
    for name, unit in out["units"].items():
        print(f"  {name:28s} {out['metrics'][name]:14.6g} {unit}")
    for line in out["notes"] + [f"PROBLEM {p}" for p in problems]:
        print(f"  {line}")
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.unexpected,
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in out["units"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, check=True,
            timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        combined["metrics"].update(
            {f"{w}.{k}": v for k, v in one["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    root = Path(__file__).resolve().parent.parent
    try:
        if args.workload == "all":
            result = run_all(args)
        elif args.trace:
            spans = Path(__file__).resolve().parent / "out" / \
                f"spans-{args.workload}-seed{args.seed}.json"
            result = report(args.workload, measure_layers(
                root, args.workload, args.seed, args.seconds, spans))
        else:
            result = report(args.workload, measure(
                root, args.workload, args.seed, args.seconds))
    except (SetupError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
