"""guiseq benchmark: seeded synthetic workloads through the real CLI pipeline.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --print-reference

``BENCHMARK.json``'s command is run once per workload and seed, as
``--workload NAME --seed N --seconds RUN_SECONDS --trace 0|1``.  Without
arguments it runs all three workloads on their default seeds.

For each workload the benchmark writes a seeded application model and its
derived program model into a temporary directory inside the checkout, then
runs ``guiseq rip -> edg -> gen -> replay`` through ``guiseq.cli.main``,
serially in this one process, with replay at its default parallelism.

``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) is the
measuring time of the whole invocation, split equally among the workloads
it runs; a repeat that would end past it is not started.  The correctness
gate and the fresh-process run add a few seconds per workload on top.

``--trace 0`` repeats the pipeline for the measuring time and reports the medians
of the end-to-end metrics: ``pipeline_s`` (the four stages), ``gen_s``,
``replay_s``, ``setup_s`` (the public loaders over every file the stages
read) and ``peak_rss_mb`` (a fresh process running the four stages).
The four times are in reference seconds: see ``reference_task``.
``--trace 1`` alternates untraced and traced pipelines and reports the
per-layer metrics of ``tracing.METRICS``, whose times are not scaled.

Every invocation also runs the correctness gate of ``gate.py``.  Stage
invocations with an unexpected exit code and failed checks count as failed
operations; ``error_rate`` is failed over attempted.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--print-reference`` prints the artifact
hashes of every workload's default seed in the format of ``reference.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent

try:
    import pipeline
except ImportError as exc:
    print(f"error: cannot import guiseq from this checkout: {exc}", file=sys.stderr)
    sys.exit(2)

import gate  # noqa: E402
import models  # noqa: E402
import tracing  # noqa: E402
from guiseq import (  # noqa: E402
    build_class_db,
    group_test_cases,
    load_app_model,
    load_graph,
    load_program_model,
    load_sequences,
    render_report_table,
)

MIN_REPEATS = 3
# Loading takes tens of milliseconds, so it is timed several times per pipeline.
SETUP_REPEATS = 5
RUN_SECONDS = json.loads((pipeline.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
    "run_seconds"
]
END_TO_END_UNITS = {
    "pipeline_s": "s",
    "gen_s": "s",
    "replay_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The benchmark reads and writes only inside its checkout; .gitignore lists this.
WORK_PREFIX = ".bench_work-"
REFERENCE_S = 0.06


def reference_task() -> int:
    """A fixed pure-Python task that shares no code with guiseq.

    On a shared virtual machine the interpreter's speed drifts by 15-35%
    over minutes, more than the bounds a change is judged by, and this task
    slows down and speeds up with the pipeline.  It is timed just before and
    just after each pipeline repeat, and every time ``t`` of that repeat is
    reported as ``t * REFERENCE_S / r``, where ``r`` is the mean of those two
    times: seconds on a machine where this task takes ``REFERENCE_S``.  A
    change to guiseq moves ``t`` but not ``r``.
    """
    rng = random.Random(0)
    n = 3000
    succ = {f"w{i}": tuple(f"w{rng.randrange(n)}" for _ in range(4)) for i in range(n)}
    total = 0
    for source in range(24):
        dist = {f"w{source}": 0}
        queue = [f"w{source}"]
        for node in queue:
            for nxt in succ[node]:
                if nxt not in dist:
                    dist[nxt] = dist[node] + 1
                    queue.append(nxt)
        total += sum(dist.values()) + len(sorted(dist, key=dist.get))
    return total


def reference_seconds() -> float:
    """Wall time of one ``reference_task``."""
    gc.collect()
    start = perf_counter()
    reference_task()
    return perf_counter() - start


class Ops:
    """Operations attempted and failed: stage invocations and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def stages(self, errors: list[str]) -> None:
        """Count one pipeline's stage invocations, given one error per failed stage."""
        self.attempted += len(pipeline.STAGES)
        self.failed += len(errors)
        self.problems.extend(errors)

    def check(self, name: str, check, *args) -> None:
        self.attempted += 1
        try:
            problems = check(*args)
        except Exception as exc:  # a check that cannot run has failed
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: " + "; ".join(problems[:3]))


def time_setup(app: Path, ir: Path, out: Path) -> float:
    """Seconds to load and validate everything the four stages read."""
    start = perf_counter()
    load_app_model(app)
    build_class_db(load_program_model(ir))
    load_graph(out / "efg.json")
    load_graph(out / "edg.json")
    group_test_cases(load_sequences(out / "seqs.jsonl"))
    return perf_counter() - start


def peak_rss(app: Path, ir: Path, config: str, out: Path, ops: Ops) -> float:
    """Peak resident memory, in MiB, of a fresh process running the four stages.

    The artifacts it leaves in ``out`` are the ones every later run must
    reproduce byte for byte.
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "peak_rss.py"), str(app), str(ir), config, str(out)],
        capture_output=True,
        text=True,
        timeout=150,
        cwd=pipeline.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        died = f"fresh process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        ops.stages([died] * len(pipeline.STAGES))
        return 0.0
    doc = json.loads(lines[-1])
    ops.stages(doc["errors"])
    return doc["peak_rss_mb"]


def _timed(app, ir, config, work, seconds, ops, expected) -> tuple[dict, str]:
    runs, scales, setups = [], [], []
    out = work / "rep"
    start, lap = perf_counter(), 0.0
    before = reference_seconds()
    # Start another repeat only while one as long as the last still fits.
    while len(runs) < MIN_REPEATS or perf_counter() - start + lap <= seconds:
        began = perf_counter()
        gc.collect()
        run = pipeline.run_pipeline(app, ir, config, out)
        after = reference_seconds()
        scale = 2 * REFERENCE_S / (before + after)
        before = after
        ops.stages(run.errors)
        ops.check("repeat", gate.check_same, "repeat", expected, pipeline.artifact_hashes(out))
        runs.append(run)
        scales.append(scale)
        setups.extend(scale * time_setup(app, ir, out) for _ in range(SETUP_REPEATS))
        lap = perf_counter() - began
    totals = [s * r.total for s, r in zip(scales, runs)]
    metrics = {
        "pipeline_s": statistics.median(totals),
        "gen_s": statistics.median(s * r.seconds["gen"] for s, r in zip(scales, runs)),
        "replay_s": statistics.median(s * r.seconds["replay"] for s, r in zip(scales, runs)),
        "setup_s": statistics.median(setups),
    }
    q1, _, q3 = statistics.quantiles(totals, n=4)
    note = (
        f"{len(runs)} repeats in {perf_counter() - start:.1f} s; "
        f"pipeline_s quartiles {q1:.4f} .. {q3:.4f}; setup_s median of {len(setups)}; "
        f"unscaled medians: pipeline {statistics.median(r.total for r in runs):.4f} s, "
        f"reference task {REFERENCE_S / statistics.median(scales):.4f} s"
    )
    return metrics, note


def _traced(app, ir, config, work, seconds, ops, expected) -> tuple[dict, str]:
    plain, traced, layers = [], [], []
    out = work / "rep"
    start, lap = perf_counter(), 0.0
    # Start another repeat only while one as long as the last still fits.
    while len(traced) < 2 or perf_counter() - start + lap <= seconds:
        began = perf_counter()
        gc.collect()
        run = pipeline.run_pipeline(app, ir, config, out)
        ops.stages(run.errors)
        plain.append(run)
        gc.collect()
        with tracing.Tracer() as tracer:
            run = pipeline.run_pipeline(app, ir, config, out, before_stage=tracer.set_stage)
        ops.stages(run.errors)
        ops.check("traced artifacts", gate.check_same, "traced", expected,
                  pipeline.artifact_hashes(out))
        traced.append(run)
        layers.append(tracer.metrics(run.seconds))
        breakdown = tracer.generator_self_s()
        del tracer  # its call records would slow the collector in the next run
        lap = perf_counter() - began
    counts = [n for n in layers[0] if tracing.METRICS[n][2] == "count"]
    ops.check(
        "trace counts repeat",
        lambda: [f"{n} varies: {sorted({m[n] for m in layers})}" for n in counts
                 if len({m[n] for m in layers}) > 1],
    )
    metrics = {n: statistics.median(m[n] for m in layers) for n in layers[0]}
    for n in counts:
        metrics[n] = layers[0][n]
    metrics["cli.rip_s"] = statistics.median(r.seconds["rip"] for r in plain)
    metrics["cli.edg_s"] = statistics.median(r.seconds["edg"] for r in plain)
    metrics["trace.overhead"] = (
        statistics.median(r.total for r in traced) / statistics.median(r.total for r in plain) - 1
    )
    note = f"{len(traced)} traced and {len(plain)} untraced pipelines; last traced: " + ", ".join(
        f"{k} {v:.4f}" for k, v in breakdown.items()
    )
    return metrics, note


def measure(name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    """Run the gate and the measurement of one workload."""
    spec = models.load_workloads()[name]
    config = spec["config"]
    ops = Ops()
    app, ir = models.write_inputs(name, seed, work / "inputs")
    first = work / "first"
    rss = peak_rss(app, ir, config, first, ops)
    expected = pipeline.artifact_hashes(first)

    default = spec["default_seed"]
    if seed == default:
        ops.check("reference", gate.check_reference, name, default, expected)
    else:
        ref_app, ref_ir = models.write_inputs(name, default, work / "ref-inputs")
        ops.stages(pipeline.run_pipeline(ref_app, ref_ir, config, work / "ref").errors)
        ops.check("reference", gate.check_reference, name, default,
                  pipeline.artifact_hashes(work / "ref"))
    ops.check("executable", gate.check_executable, first)
    ops.check("behaviours", gate.check_behaviours, _report(first), spec["expects"])
    ops.check("corpus", gate.check_corpus)

    measure_fn = _traced if traced else _timed
    metrics, note = measure_fn(app, ir, config, work, seconds, ops, expected)
    if not traced:
        metrics["peak_rss_mb"] = rss
    # Parsed only now: a large document held during the timed runs would
    # slow the garbage collector inside the pipeline.
    return {"name": name, "seed": seed, "config": config, "report": _report(first),
            "metrics": metrics, "note": note, "ops": ops}


def _report(out: Path) -> dict:
    try:
        return json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def _print_result(r: dict, traced: bool) -> None:
    ops = r["ops"]
    print(f"{r['name']}  seed {r['seed']}  config {r['config']}: {r['note']}")
    for name, value in r["metrics"].items():
        unit = tracing.METRICS[name][0] if traced else END_TO_END_UNITS[name]
        print(f"  {name:<38} {value:>14.6f} {unit}")
    print(f"  {'error_rate':<38} {ops.failed / ops.attempted:>14.6f} ratio"
          f"  ({ops.failed} of {ops.attempted} operations failed)")
    for problem in ops.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)


def print_reference() -> int:
    """Print the artifact hashes of every workload's default seed."""
    doc = {}
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=pipeline.ROOT) as tmp:
        for name, spec in models.load_workloads().items():
            work = Path(tmp) / name
            app, ir = models.write_inputs(name, spec["default_seed"], work)
            run = pipeline.run_pipeline(app, ir, spec["config"], work)
            if run.errors:
                print("\n".join(run.errors), file=sys.stderr)
                return 1
            doc[name] = {"seed": spec["default_seed"], "sha256": pipeline.artifact_hashes(work)}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    workloads = models.load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads, "all"], default="all")
    parser.add_argument("--seed", type=int, help="model seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measuring time, split among the workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--print-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.print_reference:
        return print_reference()

    names = list(workloads) if args.workload == "all" else [args.workload]
    with tempfile.TemporaryDirectory(prefix=WORK_PREFIX, dir=pipeline.ROOT) as tmp:
        results = [
            measure(n, workloads[n]["default_seed"] if args.seed is None else args.seed,
                    args.seconds / len(names), bool(args.trace), Path(tmp) / n)
            for n in names
        ]

    for r in results:
        _print_result(r, bool(args.trace))
    if not args.trace:
        columns = [(f"{r['name']} ({r['config']})", r["report"]) for r in results
                   if r["report"]]
        if len(columns) == len(results):
            print()
            print(render_report_table(
                columns,
                [r["metrics"]["gen_s"] for r in results],
                [r["metrics"]["replay_s"] for r in results],
            ), end="")

    units = (lambda n: tracing.METRICS[n][0]) if args.trace else END_TO_END_UNITS.__getitem__
    prefix = (lambda r: "") if len(results) == 1 else (lambda r: f"{r['name']}.")
    failed = sum(r["ops"].failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"].attempted for r in results),
        "failed": failed,
        "metrics": {
            prefix(r) + n: {"value": v, "unit": units(n)}
            for r in results for n, v in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
