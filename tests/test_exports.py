"""Every name a module lists in ``__all__`` resolves, so that
``from module import *`` works and no moved function lingers there; every
``guiseq`` name the benchmark scripts import or trace resolves too, read
from their source without running them, and the package itself lists no
name they do not read from it; the one import inside a function
of ``src/guiseq`` is the one that breaks an import cycle; and the
benchmark's tracer reads what a traced pipeline's stages return."""

from __future__ import annotations

import ast
import importlib
import json
import math
import pkgutil
from pathlib import Path
from time import perf_counter

import pytest

import guiseq
from guiseq import corpus
from guiseq.cli import main

# ``guiseq.__main__`` runs the command line when imported.
MODULES = ["guiseq"] + [
    f"guiseq.{info.name}" for info in pkgutil.iter_modules(guiseq.__path__)
    if info.name != "__main__"
]

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(guiseq.__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def bench_names() -> dict[str, set[str]]:
    """Module -> the names ``bench/*.py`` take from it: each ``from guiseq…
    import`` and each entry of the tracer's ``TRACED`` table."""
    names: dict[str, set[str]] = {}
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "guiseq":
                names.setdefault(node.module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                for module, traced in ast.literal_eval(node.value).items():
                    names.setdefault(module, set()).update(traced)
    return names


def function_local_imports() -> list[tuple[str, str, str]]:
    """``(module file, function, statement)`` for each import inside a
    function of ``src/guiseq``, read from the source without running it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += (
                    (path.relative_to(SRC).as_posix(), func.name, ast.unparse(node))
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    return found


def test_the_only_function_local_import_breaks_the_simulator_cycle():
    # simulator imports appmodel, so AppModel.program imports simulator late
    assert function_local_imports() == [("appmodel.py", "program", "from .simulator import Program")]


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` works: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_the_bench_reads_resolves():
    names = bench_names()
    # no bench script imports from guiseq.simulator: only TRACED names it
    assert {"guiseq", "guiseq.replay", "guiseq.simulator"} <= names.keys()
    missing = [
        f"{module}.{name}"
        for module, wanted in sorted(names.items())
        for name in sorted(wanted)
        if not resolves(module, name)
    ]
    assert missing == []


def test_the_package_exports_only_what_the_bench_reads_from_it():
    # submodules such as ``corpus`` are no exports; the bench's tracer test
    # patches ``guiseq.available_events`` through the package
    submodules = {info.name for info in pkgutil.iter_modules(guiseq.__path__)}
    expected = bench_names()["guiseq"] - submodules | {"available_events", "__version__"}
    assert set(guiseq.__all__) == expected


def test_the_tracer_reads_every_stage_of_a_pipeline(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    model = str(corpus.model_path("example-app"))
    efg, edg, seqs, report = (
        str(tmp_path / name) for name in ("efg.json", "edg.json", "seqs.jsonl", "report.json")
    )
    stages = {
        "rip": ["rip", "--model", model, "--out", efg],
        "edg": ["edg", "--ir", str(corpus.ir_path("example-app-curated")), "--efg", efg,
                "--out", edg],
        "gen": ["gen", "--config", "E", "--efg", efg, "--edg", edg, "--out", seqs],
        "replay": ["replay", "--model", model, "--sequences", seqs, "--report", report],
    }
    stage_seconds: dict[str, float] = {}
    exit_codes: dict[str, int] = {}
    with tracing.Tracer() as tracer:
        for stage, argv in stages.items():
            tracer.set_stage(stage)
            start = perf_counter()
            exit_codes[stage] = main(argv)
            stage_seconds[stage] = perf_counter() - start
    capsys.readouterr()
    assert exit_codes == {"rip": 0, "edg": 0, "gen": 0, "replay": 1}  # replay finds the crash
    metrics = tracer.metrics(stage_seconds)
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []
    lines = Path(seqs).read_text(encoding="utf-8").splitlines()
    assert metrics["generate.records"] == len(lines) > 0
    total = json.loads(Path(report).read_text(encoding="utf-8"))["summary"]["total"]
    assert metrics["replay.cases"] == total > 0
