#!/usr/bin/env python3
"""The linedyn benchmark.

    python3 perfbench/run.py --workload {cli,analysis,sweep,all}
        --seed N --seconds S --trace {0,1}

Run from anywhere; the library is loaded from ``src/`` next to this
directory and scratch files go to ``.perfbench_out/``.  Each workload is a
closed loop with one client: the next operation starts when the previous
one has returned.  Set-up time is the median of several fresh processes
that each import the library, build the inputs and warm up; they run
between rounds, spread over the run.  Every output is checked (goldens for
CLI reports, oracles for analysis results, frozen counts for sweeps) as
its call returns, outside the timed span.  The process and its children
run on one CPU.  Every reported time is CPU time (user plus system, of the
child for subprocesses), so time the CPU spends on other processes or other
guests does not count, and it is scaled to the speed of a fixed reference
job timed between calls (``calibrate.py``), so the shared host's drift in
speed mostly drops out.  The last line of standard
output is one JSON object; with ``--trace 1`` it carries per-layer metrics
taken from spans around the library's public functions, plus the tracing
overhead, instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
GOLDENS = HERE / "cli_goldens.json"
PROBES = 9  # fresh set-up (or import) processes per run
CALL_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402
import oracles  # noqa: E402
from calibrate import REFERENCE_S, Speedometer  # noqa: E402
from tracing import BUSY, COUNT, NAME, OP, PARENT, TRACED, Tracer, self_times  # noqa: E402


def nearest_rank(sorted_values: list[float], q: int) -> float:
    return sorted_values[max(1, math.ceil(q * len(sorted_values) / 100)) - 1]


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it; the
    maximum when there are too few samples for any percentile above p50."""
    s = sorted(values)
    n = len(s)
    for q in range(99, 50, -1):
        if n - math.ceil(q * n / 100) >= 10:
            return nearest_rank(s, q), f"p{q}"
    return s[-1], "max"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- subprocesses ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv: list[str], log: str = "call_stderr.txt") -> tuple[int, bytes, float, float, float]:
    """Run a child to completion from the repository root, its standard
    error going to ``log`` under the scratch directory.  Returns exit code,
    stdout, wall seconds, CPU seconds (user plus system, of the child and
    the descendants it waited for) and the child's own peak RSS in MB."""
    OUT.mkdir(exist_ok=True)
    with open(OUT / log, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, out, wall, cpu, usage.ru_maxrss / 1024


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "linedyn.cli", *args]


# -- workloads -------------------------------------------------------------


class Cli:
    """Operation: one ``python -m linedyn.cli ... --no-timing`` call."""

    name = "cli"
    unit = "calls"
    peak_rss_mb = 0.0  # of the largest child
    # A CLI call spends its CPU time starting a process (exec, page faults,
    # unmarshalling modules), which follows the host's speed less than
    # interpreted code does: over four sets of ten runs, scaling by the
    # reference's factor to the power 0.8 left the least spread, while the
    # in-process workloads did best at 0.9 to 1 (see calibrate.py).
    elasticity = 0.8

    def setup(self, seed: int) -> None:
        self.rng = random.Random(f"cli:{seed}")
        self.paths = inputs.write_cli_pool(ROOT)
        self.goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
        code = spawn(cli_argv(["window", "0", "4", "--no-timing"]))[0]
        if code != 0:
            fail("the warm-up CLI call failed; see .perfbench_out/call_stderr.txt")

    def round(self, round_no: int) -> list:
        return inputs.cli_round(self.rng, self.paths)

    def run(self, argv: list[str], tracer):
        """One CLI call; when traced, the child's spans join the tracer's."""
        if tracer is None:
            result = spawn(cli_argv(argv))
        else:
            spans_path = OUT / "cli_spans.json"
            spans_path.unlink(missing_ok=True)
            result = spawn([sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv])
            spans = json.loads(spans_path.read_text(encoding="utf-8"))
            base = len(tracer.spans)
            for s in spans:
                s[OP] = tracer.op
                if s[PARENT] >= 0:
                    s[PARENT] += base
            tracer.spans.extend(spans)
        self.peak_rss_mb = max(self.peak_rss_mb, result[4])
        return result

    def cpu_seconds(self, out, own: float) -> float:
        """The child's CPU time; the parent's own share is only waiting."""
        return own if out is None else out[3]

    def check(self, argv, out) -> list[str]:
        code, stdout = out[:2]
        key = " ".join(argv)
        golden = self.goldens.get(key)
        if golden is None:
            return [f"no golden for {key!r}"]
        digest = hashlib.sha256(stdout).hexdigest()
        if [code, digest] != golden:
            return [f"{key!r}: exit {code} / report {digest[:12]} differ from the golden"]
        return []

    def work(self, argv) -> int:
        return 1

    def label(self, argv) -> str:
        return f"{argv[0]}.{argv[2]}" if argv[0] == "verify" else argv[0]


ld = None  # the linedyn package, imported during set-up


def import_library() -> None:
    global ld
    import linedyn as ld


class Analysis:
    """Operation: every check, orbit, Lefschetz and homology call on one map."""

    name = "analysis"
    unit = "maps"
    elasticity = 1.0

    def setup(self, seed: int) -> None:
        import_library()
        self.seed = seed
        # warm up on the smallest map of each kind, from a round never measured
        seen = set()
        for op in inputs.analysis_round(seed, -1):
            if op["kind"] not in seen:
                seen.add(op["kind"])
                self.run(op, None)

    def round(self, round_no: int) -> list:
        return inputs.analysis_round(self.seed, round_no)

    def run(self, op: dict, tracer):
        lo, size = op["lo"], op["size"]
        w = ld.build_line_window(lo, lo + size - 1)
        if op["kind"] == "single":
            f = ld.SelfMap(w, op["values"])
            out = (
                f.check_continuity(),
                ld.classify_dynamics(f),
                ld.periodic_points(f),
                ld.selfmap_lefschetz(f),
            )
        else:
            F = ld.MultiMap(w, op["values"], op["clipped"])
            verdict = ld.is_vietoris_like_multimap(F)
            out = (
                verdict,
                ld.lefschetz_number(F) if verdict[0] else None,
                ld.periodic_orbits(F, min(6, size)),
                ld.classify_invariant_sets(F),
            )
        return out + (ld.homology(w.poset),)

    def check(self, op: dict, out) -> list[str]:
        lo, hi = op["lo"], op["lo"] + op["size"] - 1
        problems = oracles.check_window_homology(out[-1])
        if op["kind"] == "single":
            return problems + oracles.check_selfmap(op["values"], *out[:4])
        values = {x: frozenset(vs) for x, vs in op["values"].items()}
        verdict, lefschetz, orbits, report = out[:4]
        return problems + oracles.check_multimap(
            values, set(op["clipped"]), lo, hi, verdict, lefschetz, orbits,
            min(6, op["size"]), report,
        )

    def work(self, op) -> int:
        return 1

    def cpu_seconds(self, out, own: float) -> float:
        return own

    def label(self, op) -> str:
        return inputs.size_bucket(op["size"])


class Sweep:
    """Operation: one exhaustive suite; a round runs the four suites once
    on windows moved by a seeded shift."""

    name = "sweep"
    unit = "maps"
    elasticity = 1.0
    # theorem -> (corpus size, checks, details that must match)
    FROZEN = {
        "no-period-3": (44931, 44931, {}),
        "period-2-structure": (44931, 10873, {"maps_with_two_cycle": 10873}),
        "interval-lemma": (6187, 278415, {"pairs_per_map": 45}),
        "lefschetz": (1539202, 59990,
                      {"fixed_point_free_maps": 59990, "vietoris_like_fixed_point_free": 0}),
    }

    def setup(self, seed: int) -> None:
        import_library()
        self.seed = seed
        tiny = ld.build_line_window(-1, 1)
        ld.verify_no_high_periods(tiny)
        ld.verify_period_two_structure(tiny)
        ld.verify_interval_lemma(tiny)
        ld.verify_lefschetz_fixed_points(max_size=2)

    def round(self, round_no: int) -> list:
        shift = inputs.sweep_shift(self.seed, round_no)
        return [(theorem, shift) for theorem in self.FROZEN]

    def run(self, op, tracer):
        theorem, shift = op
        if theorem == "no-period-3":
            return ld.verify_no_high_periods(ld.build_line_window(shift - 5, shift + 5))
        if theorem == "period-2-structure":
            return ld.verify_period_two_structure(ld.build_line_window(shift - 5, shift + 5))
        if theorem == "interval-lemma":
            return ld.verify_interval_lemma(ld.build_line_window(shift - 4, shift + 4))
        return ld.verify_lefschetz_fixed_points()

    def check(self, op, result) -> list[str]:
        theorem = op[0]
        corpus, checks, details = self.FROZEN[theorem]
        problems = []
        got = (result.theorem, result.corpus_size, result.checks, len(result.violations))
        if got != (theorem, corpus, checks, 0):
            problems.append(f"{theorem}: got {got}, expected {(theorem, corpus, checks, 0)}")
        for key, value in details.items():
            if result.details.get(key) != value:
                got = result.details.get(key)
                problems.append(f"{theorem}: {key} = {got}, expected {value}")
        return problems

    def work(self, op) -> int:
        return self.FROZEN[op[0]][0]  # maps covered

    def label(self, op) -> str:
        return op[0]

    def cpu_seconds(self, out, own: float) -> float:
        return own


WORKLOAD_CLASSES = {"cli": Cli, "analysis": Analysis, "sweep": Sweep}


# -- measurement -----------------------------------------------------------


class Record:
    """One operation's outcome.  It keeps the operation's label and work,
    not its inputs, so the benchmark's heap does not grow with the number
    of operations a run gets through."""

    __slots__ = ("label", "work", "round_no", "wall", "cpu", "problem", "traced", "mark")

    def __init__(self, label, work, round_no, wall, cpu, problem, traced, mark):
        self.label, self.work, self.round_no = label, work, round_no
        self.wall, self.cpu = wall, cpu
        self.problem, self.traced, self.mark = problem, traced, mark


def measure(wl, seconds: float, records: list, probe, speed, tracer=None) -> list:
    """Run whole rounds until ``seconds`` of calls have passed; an
    operation's id is its index in ``records``.  Each output is checked as
    soon as its call returns, outside the timed span, and then dropped, so
    kept outputs do not grow the heap that later calls garbage-collect.
    Between rounds, ``probe`` runs ``PROBES`` times spread evenly over the
    run, so its samples see the machine's speed throughout; its time is not
    counted in ``seconds``, which is wall time.  With a tracer, odd rounds
    are traced and even rounds are not, so both halves see the same drift
    in machine speed.
    ``speed`` samples the reference job after each call (at most every
    ``EVERY_S``) and after each probe; records and probes keep the mark of
    the next sample.  Returns the probes' results with their marks."""

    def run_probe():
        mark = speed.mark()
        probes.append((*probe(), mark))
        speed.sample(force=True)

    probes: list = []
    speed.sample(force=True)
    spent = 0.0
    round_no = 0
    while spent < seconds or (tracer is not None and round_no < 2):
        while len(probes) < PROBES and spent >= len(probes) * seconds / PROBES:
            run_probe()
        traced = tracer is not None and round_no % 2 == 1
        if traced and wl.name != "cli":  # CLI children install their own wrappers
            tracer.install()
        try:
            for op in wl.round(round_no):
                if traced:
                    tracer.op = len(records)
                mark = speed.mark()
                start, cpu_start = perf_counter(), process_time()
                try:
                    out, problem = wl.run(op, tracer if traced else None), None
                except Exception as exc:  # counted as a failed operation
                    out, problem = None, f"{type(exc).__name__}: {exc}"
                wall = perf_counter() - start
                cpu = wl.cpu_seconds(out, process_time() - cpu_start)
                spent += wall
                if problem is None:
                    found = wl.check(op, out)
                    problem = found[0] if found else None
                records.append(Record(
                    wl.label(op), wl.work(op), round_no, wall, cpu, problem, traced, mark
                ))
                speed.sample()
        finally:
            if traced:
                tracer.uninstall()
        round_no += 1
    while len(probes) < PROBES:
        run_probe()
    return probes


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """CPU and wall time of a fresh process that only sets the workload up."""
    code, _, wall, cpu, _ = spawn(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        log="setup_stderr.txt",
    )
    if code != 0:
        fail(f"set-up of {workload} failed; see .perfbench_out/setup_stderr.txt")
    return cpu, wall


IMPORT_TIMER = (
    "import time; t = time.process_time(); import linedyn; "
    "print(time.process_time() - t)"
)


def import_probe() -> tuple[float, float]:
    """CPU seconds a bare interpreter spends on ``import linedyn``, and
    the child's wall time."""
    code, out, wall, _, _ = spawn(
        [sys.executable, "-c", IMPORT_TIMER], log="import_stderr.txt"
    )
    if code != 0:
        fail("importing linedyn failed; see .perfbench_out/import_stderr.txt")
    return float(out.decode().split()[-1]), wall


# -- reports ---------------------------------------------------------------


E2E_NAMES = {
    "cli": ("cli_calls_per_s", "cli_latency_p50_s", "cli_latency_tail_s"),
    "analysis": ("analysis_maps_per_s", "analysis_latency_p50_s", "analysis_latency_tail_s"),
    "sweep": ("sweep_maps_per_s", "sweep_pass_latency_p50_s", "sweep_call_latency_tail_s"),
}


def end_to_end(wl, records, probes, speed) -> dict:
    """Latency percentiles over all operations; throughput is the work of
    one round over the median round time (the sum of its calls), so a slow
    spell of the machine shifts it no more than it shifts the median.  On
    ``sweep`` the four suites differ fourfold in cost and every run holds
    whole passes, so the median call would always fall between two suites,
    and the rank of the tail percentile would move from one suite to the
    next as the number of calls in a run changes; its p50 is the median
    pass (round) time and its tail the median call of the slowest suite,
    the middle of the top quarter of calls.  Every time, set-up
    included, is CPU time at the reference speed (``calibrate.py``); the
    unscaled wall medians are printed beside them."""
    latencies = [speed.scale(r.cpu, r.mark, wl.elasticity) for r in records]
    rounds = defaultdict(lambda: [0, 0.0])
    for r, latency in zip(records, latencies):
        rounds[r.round_no][0] += r.work
        rounds[r.round_no][1] += latency
    throughput = statistics.median(work / secs for work, secs in rounds.values())
    round_work = statistics.median(work for work, _ in rounds.values())
    if wl.name == "sweep":
        wall_rounds = defaultdict(float)
        for r in records:
            wall_rounds[r.round_no] += r.wall
        p50 = statistics.median(secs for _, secs in rounds.values())
        wall_p50 = statistics.median(wall_rounds.values())
        p50_note = f"p50 of {len(rounds)} passes"
    else:
        p50, p50_note = statistics.median(latencies), f"p50 of n={len(latencies)}"
        wall_p50 = statistics.median(r.wall for r in records)
    if wl.name == "sweep":
        by_suite = defaultdict(list)
        for r, latency in zip(records, latencies):
            by_suite[r.label].append(latency)
        slowest = max(by_suite, key=lambda suite: statistics.median(by_suite[suite]))
        tail_value = statistics.median(by_suite[slowest])
        tail_label = f"p50 of the slowest suite ({slowest}, n={len(by_suite[slowest])})"
    else:
        tail_value, tail_label = tail(latencies)
    if wl.name == "cli":
        rss = wl.peak_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    through_name, p50_name, tail_name = E2E_NAMES[wl.name]
    n = len(latencies)
    lines = [
        (through_name, "throughput_per_s", throughput, "1/s",
         f"median of {len(rounds)} rounds of {round_work:g} {wl.unit}"),
        (p50_name, "latency_p50_s", p50, "s", f"{p50_note}; wall {wall_p50:.6f} s"),
        (tail_name, "latency_tail_s", tail_value, "s", f"{tail_label}; all calls n={n}"),
        ("setup_s", "setup_s",
         statistics.median(speed.scale(c, m, wl.elasticity) for c, _, m in probes), "s",
         f"median of {len(probes)} fresh set-ups; wall "
         f"{statistics.median(w for _, w, _ in probes):.6f} s"),
        ("peak_rss_mb", "peak_rss_mb", rss, "MB",
         "largest CLI child" if wl.name == "cli" else "benchmark process"),
    ]
    print(f"  reference job: median {speed.median() * 1000:.3f} ms of "
          f"{len(speed.samples)} samples; CPU times below are scaled to {REFERENCE_S * 1000:g} ms")
    metrics = {}
    for shown, key, value, unit, note in lines:
        print(f"  {shown:<28} {value:12.6f} {unit:<4} ({note})")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


LAYER_TIMES = [
    name for name, *_ in TRACED if not name.startswith(("verify.", "singlemaps.enumerate"))
]
LAYER_COUNTS = {
    "posets.core.calls": ("posets.core", "calls"),
    "homology.is_acyclic.calls": ("homology.is_acyclic", "calls"),
    "complexes.order_complex.simplices": ("complexes.order_complex", "count"),
    "multimaps.periodic_orbits.cycles": ("multimaps.periodic_orbits", "count"),
}
SUITES = [name for name, *_ in TRACED if name.startswith("verify.")]
CLI_LABELS = ("window", "check-map", "orbits", "homology", "verify.lefschetz", "verify.no-period-3")
BUCKETS = ("small", "medium", "large")  # inputs.size_bucket


def per_layer(wl, records: list, spans: list, imports: list) -> dict:
    """Per-layer metrics from the traced records and their spans; layer
    times and counts are per operation, so runs of any length compare.
    On ``analysis`` the layer times and counts are also printed per size
    bucket; those lines are not part of the JSON result."""
    plain = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    bucketed = wl.name == "analysis"
    ops = defaultdict(int)
    for r in traced:
        ops["all"] += 1
        if bucketed:
            ops[r.label] += 1
    acc = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        groups = ["all", records[s[OP]].label] if bucketed else ["all"]
        for g in groups:
            acc[(s[NAME], g, "self")] += own
            acc[(s[NAME], g, "busy")] += s[BUSY]
            acc[(s[NAME], g, "calls")] += 1
            acc[(s[NAME], g, "count")] += s[COUNT] or 0

    def per_op(name, group, field):
        return acc[(name, group, field)] / ops[group] if ops[group] else 0.0

    def layers(group) -> dict:
        out = {f"{name}.self_s": (per_op(name, group, "self"), "s/op") for name in LAYER_TIMES}
        for metric, (name, field) in LAYER_COUNTS.items():
            out[metric] = (per_op(name, group, field), "count/op")
        return out

    metrics = {"import.linedyn_s": (statistics.median(imports), "s")}
    for label in CLI_LABELS:
        walls = [r.wall for r in plain if wl.name == "cli" and r.label == label]
        metrics[f"cli.{label}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    metrics.update(layers("all"))
    metrics["singlemaps.enumerate_s"] = (per_op("singlemaps.enumerate", "all", "self"), "s/op")
    for name in SUITES:
        calls = acc[(name, "all", "calls")]
        metrics[f"{name}.s"] = (acc[(name, "all", "busy")] / calls if calls else 0.0, "s/call")
        metrics[f"{name}.checks"] = (
            acc[(name, "all", "count")] / calls if calls else 0.0, "count/call"
        )
    plain_mean = statistics.fmean(r.cpu for r in plain)
    traced_mean = statistics.fmean(r.cpu for r in traced)
    metrics["trace.overhead_ratio"] = (traced_mean / plain_mean - 1, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:14.7f} {unit}")
    if bucketed:
        print(f"  {'per size bucket (ops)':<52}" + "".join(
            f"{f'{b} ({ops[b]})':>15}" for b in BUCKETS))
        per_bucket = {b: layers(b) for b in BUCKETS}
        for name, (_, unit) in layers("all").items():
            print(f"  {name:<52}" + "".join(
                f"{per_bucket[b][name][0]:15.7f}" for b in BUCKETS) + f" {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def workload_reason(name: str) -> str:
    """The one-line reason for a workload, as recorded in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        return next(w["why"] for w in spec["workloads"] if w["name"] == name)
    except (OSError, ValueError, KeyError, StopIteration):
        return "(BENCHMARK.json not found)"


# -- entry points ----------------------------------------------------------


def run_workload(args) -> int:
    wl = WORKLOAD_CLASSES[args.workload]()
    print(f"workload {wl.name}, seed {args.seed}: {workload_reason(wl.name)}")
    print(f"  closed loop, 1 client. {' '.join(wl.__doc__.split())}")
    if args.trace:
        probe = import_probe
    else:
        probe = lambda: setup_probe(wl.name, args.seed)  # noqa: E731
    wl.setup(args.seed)
    records: list[Record] = []
    tracer = Tracer() if args.trace else None
    speed = Speedometer()
    probes = measure(wl, args.seconds, records, probe, speed, tracer)
    if tracer is not None:
        tracer.dump(OUT / f"spans_{wl.name}_seed{args.seed}.jsonl")
    problems = [r.problem for r in records if r.problem]
    for p in problems[:5]:
        print(f"  FAILED: {p}", file=sys.stderr)
    print(f"  failed_ops_ratio             {len(problems)}/{len(records)} = "
          f"{len(problems) / len(records):.4f}")
    if args.trace:
        metrics = per_layer(wl, records, tracer.spans, [v for v, _, _ in probes])
    else:
        metrics = end_to_end(wl, records, probes, speed)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another; the last line
    combines their results with metric names prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_CLASSES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def set_up_only(args) -> int:
    """The body of a set-up probe: set the workload up and exit."""
    WORKLOAD_CLASSES[args.workload]().setup(args.seed)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOAD_CLASSES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        # one core for this process and every child, so the reference job
        # (calibrate.py) reads the speed of the core the calls run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "linedyn" / "__init__.py").is_file():
        fail(f"no library source at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return set_up_only(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
