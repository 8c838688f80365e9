"""Outside-in tracing of guiseq's public functions.

A :class:`Tracer` replaces each function in :data:`TRACED` with a wrapper in
every ``guiseq`` module that binds it: ``ripper``, ``replay`` and ``cli``
import simulator, graph and generator functions by name, so patching only the
defining module would miss their calls.  Each wrapper keeps a span stack to
split a call's duration into self time and child time, counts calls per
pipeline stage, and records a few call arguments and results.  Everything
stays in memory; :meth:`Tracer.metrics` turns it into the per-layer metrics
once the pipeline has finished.
"""

from __future__ import annotations

import importlib
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

TRACED = {
    "guiseq.appmodel": ("load_app_model",),
    "guiseq.simulator": ("launch", "fire_event", "available_events"),
    "guiseq.ripper": ("rip",),
    "guiseq.programdb": ("load_program_model", "build_class_db", "build_edg"),
    "guiseq.graphs": ("shortest_path", "load_graph", "save_graph"),
    "guiseq.generate": (
        "generate_sequences",
        "gen_blackbox",
        "gen_abstract",
        "to_executable",
        "save_sequences",
        "load_sequences",
    ),
    "guiseq.replay": ("group_test_cases", "run_suite", "run_test_case", "save_report"),
}

GENERATORS = ("generate_sequences", "gen_blackbox", "gen_abstract", "to_executable")

# name -> (unit, better, kind).  "count" metrics, and ratios of counts, must
# repeat exactly from run to run; "time" metrics are medians over traced runs.
METRICS = {
    "graphs.shortest_path.calls": ("count", "lower", "count"),
    "graphs.shortest_path.self_s": ("s", "lower", "time"),
    "graphs.shortest_path.distinct": ("count", "lower", "count"),
    "graphs.shortest_path.distinct_ratio": ("ratio", "higher", "count"),
    "graphs.shortest_path.gen_share": ("ratio", "lower", "time"),
    "graphs.load_s": ("s", "lower", "time"),
    "graphs.save_s": ("s", "lower", "time"),
    "simulator.available_events.calls": ("count", "lower", "count"),
    "simulator.available_events.self_s": ("s", "lower", "time"),
    "simulator.fire_event.calls": ("count", "lower", "count"),
    "simulator.fire_event.self_s": ("s", "lower", "time"),
    "simulator.launch.calls": ("count", "lower", "count"),
    "simulator.launch.self_s": ("s", "lower", "time"),
    "simulator.available_per_fire": ("ratio", "lower", "count"),
    "simulator.fire_us": ("us", "lower", "time"),
    "ripper.rip_s": ("s", "lower", "time"),
    "ripper.launches": ("count", "lower", "count"),
    "ripper.fires": ("count", "lower", "count"),
    "ripper.firings": ("count", "higher", "count"),
    "ripper.useful_fire_ratio": ("ratio", "higher", "count"),
    "ripper.pipeline_share": ("ratio", "lower", "time"),
    "programdb.build_edg_s": ("s", "lower", "time"),
    "programdb.edges": ("count", "higher", "count"),
    "programdb.load_s": ("s", "lower", "time"),
    "generate.self_s": ("s", "lower", "time"),
    "generate.records": ("count", "higher", "count"),
    "generate.abstracts": ("count", "higher", "count"),
    "generate.splits": ("count", "lower", "count"),
    "generate.diagnostics": ("count", "lower", "count"),
    "generate.save_s": ("s", "lower", "time"),
    "generate.load_s": ("s", "lower", "time"),
    "replay.cases": ("count", "higher", "count"),
    "replay.events": ("count", "lower", "count"),
    "replay.prefix_share": ("ratio", "lower", "count"),
    "replay.case_us.p50": ("us", "lower", "time"),
    "replay.case_us.p99": ("us", "lower", "time"),
    "replay.case_us.samples": ("count", "higher", "count"),
    "replay.run_test_case.self_s": ("s", "lower", "time"),
    "replay.save_report_s": ("s", "lower", "time"),
    "replay.launches_per_case": ("ratio", "lower", "count"),
    "replay.verdicts.failed": ("count", "higher", "count"),
    "replay.verdicts.broken": ("count", "lower", "count"),
    "appmodel.load_s": ("s", "lower", "time"),
    "cli.rip_s": ("s", "lower", "time"),
    "cli.edg_s": ("s", "lower", "time"),
    "trace.overhead": ("ratio", "lower", "time"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Tracer:
    """Context manager that traces every :data:`TRACED` function while active.

    Set :attr:`stage` to attribute calls to a pipeline stage.
    """

    def __init__(self) -> None:
        self.stage = "none"
        self.calls: Counter = Counter()  # (stage, name) -> calls
        self.total: defaultdict = defaultdict(float)  # (stage, name) -> seconds
        self.self_s: defaultdict = defaultdict(float)  # (stage, name) -> seconds
        self.queries: set = set()  # distinct shortest_path (from, to, strict)
        self.results: Counter = Counter()  # counts read off return values
        self.case_us: list[float] = []
        self.trie_nodes = 0
        self._trie: dict = {}
        self._case: list | None = None
        self._launch_no = 0
        self._children = [0.0]
        self._patches: list = []

    def set_stage(self, stage: str) -> None:
        self.stage = stage

    # -- hooks: what a traced call records besides time ---------------------

    def _before(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "graphs.shortest_path":
            self.queries.add((args[1], args[2], kwargs.get("strict", False)))
        elif name == "replay.run_test_case":
            self._case = []
            self._launch_no = 0
        elif name == "simulator.launch" and self._case is not None:
            self._launch_no += 1
        elif name == "simulator.fire_event" and self._case is not None:
            self._case.append((self._launch_no, args[1]))

    def _after(self, name: str, result, seconds: float) -> None:
        if name == "replay.run_test_case":
            self.case_us.append(seconds * 1e6)
            node = self._trie
            for key in self._case:
                child = node.get(key)
                if child is None:
                    child = node[key] = {}
                    self.trie_nodes += 1
                node = child
            self._case = None
        elif name == "ripper.rip":
            self.results["firings"] += len(result.firings)
        elif name == "programdb.build_edg":
            self.results["edges"] += len(result[0].edges)
        elif name == "generate.gen_abstract":
            self.results["abstracts"] += len(result)
        elif name == "generate.generate_sequences":
            self.results["records"] += len(result.records)
            self.results["splits"] += sum(r.split_of is not None for r in result.records)
            self.results["diagnostics"] += len(result.diagnostics)
        elif name == "replay.run_suite":
            self.results["cases"] += len(result.results)
            self.results["failed"] += result.count("failed")
            self.results["broken"] += result.count("broken")

    def _wrap(self, name: str, fn):
        children = self._children

        def traced(*args, **kwargs):
            self._before(name, args, kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                child = children.pop()
                children[-1] += seconds
                key = (self.stage, name)
                self.calls[key] += 1
                self.total[key] += seconds
                self.self_s[key] += seconds - child
            self._after(name, result, seconds)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "guiseq" or n.startswith("guiseq."))
        ]
        for module_name, names in TRACED.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                traced = self._wrap(f"{module_name.rsplit('.', 1)[1]}.{name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
                            self._patches.append((m, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- metrics --------------------------------------------------------------

    def _sum(self, table, name: str, stage: str | None = None):
        return sum(v for (s, n), v in table.items() if n == name and stage in (None, s))

    def metrics(self, stage_seconds: dict[str, float]) -> dict[str, float]:
        """Per-layer metrics of one traced pipeline.

        ``stage_seconds`` are the traced wall times of the four stages.
        """
        calls = lambda name, stage=None: self._sum(self.calls, name, stage)  # noqa: E731
        total = lambda name, stage=None: self._sum(self.total, name, stage)  # noqa: E731
        self_s = lambda name: self._sum(self.self_s, name)  # noqa: E731
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

        sp_calls = calls("graphs.shortest_path")
        rip_fires = calls("simulator.fire_event", "rip")
        replay_fires = calls("simulator.fire_event", "replay")
        cases = self.results["cases"]
        return {
            "graphs.shortest_path.calls": sp_calls,
            "graphs.shortest_path.self_s": self_s("graphs.shortest_path"),
            "graphs.shortest_path.distinct": len(self.queries),
            "graphs.shortest_path.distinct_ratio": ratio(len(self.queries), sp_calls),
            "graphs.shortest_path.gen_share": ratio(
                total("graphs.shortest_path", "gen"), stage_seconds["gen"]
            ),
            "graphs.load_s": total("graphs.load_graph"),
            "graphs.save_s": total("graphs.save_graph"),
            "simulator.available_events.calls": calls("simulator.available_events"),
            "simulator.available_events.self_s": self_s("simulator.available_events"),
            "simulator.fire_event.calls": calls("simulator.fire_event"),
            "simulator.fire_event.self_s": self_s("simulator.fire_event"),
            "simulator.launch.calls": calls("simulator.launch"),
            "simulator.launch.self_s": self_s("simulator.launch"),
            "simulator.available_per_fire": ratio(
                calls("simulator.available_events", "replay"), replay_fires
            ),
            "simulator.fire_us": ratio(total("simulator.fire_event"), calls("simulator.fire_event"))
            * 1e6,
            "ripper.rip_s": total("ripper.rip"),
            "ripper.launches": calls("simulator.launch", "rip"),
            "ripper.fires": rip_fires,
            "ripper.firings": self.results["firings"],
            "ripper.useful_fire_ratio": ratio(self.results["firings"], rip_fires),
            "ripper.pipeline_share": ratio(stage_seconds["rip"], sum(stage_seconds.values())),
            "programdb.build_edg_s": total("programdb.build_edg"),
            "programdb.edges": self.results["edges"],
            "programdb.load_s": total("programdb.load_program_model")
            + total("programdb.build_class_db"),
            "generate.self_s": sum(self_s(f"generate.{g}") for g in GENERATORS),
            "generate.records": self.results["records"],
            "generate.abstracts": self.results["abstracts"],
            "generate.splits": self.results["splits"],
            "generate.diagnostics": self.results["diagnostics"],
            "generate.save_s": total("generate.save_sequences"),
            "generate.load_s": total("generate.load_sequences"),
            "replay.cases": cases,
            "replay.events": replay_fires,
            "replay.prefix_share": 1.0 - ratio(self.trie_nodes, replay_fires),
            "replay.case_us.p50": statistics.median(self.case_us) if self.case_us else 0.0,
            "replay.case_us.p99": percentile(self.case_us, 0.99) if self.case_us else 0.0,
            "replay.case_us.samples": len(self.case_us),
            "replay.run_test_case.self_s": self_s("replay.run_test_case"),
            "replay.save_report_s": total("replay.save_report"),
            "replay.launches_per_case": ratio(calls("simulator.launch", "replay"), cases),
            "replay.verdicts.failed": self.results["failed"],
            "replay.verdicts.broken": self.results["broken"],
            "appmodel.load_s": total("appmodel.load_app_model"),
        }

    def generator_self_s(self) -> dict[str, float]:
        """Self time of each generator function, for the printed breakdown."""
        return {f"generate.{g}.self_s": self._sum(self.self_s, f"generate.{g}") for g in GENERATORS}
