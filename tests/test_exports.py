"""Every name a module lists in ``__all__`` resolves, so that
``from module import *`` works and no moved function lingers there; and
every ``guiseq`` name the benchmark scripts import or trace resolves too,
read from their source without running them."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import guiseq

# ``guiseq.__main__`` runs the command line when imported.
MODULES = ["guiseq"] + [
    f"guiseq.{info.name}" for info in pkgutil.iter_modules(guiseq.__path__)
    if info.name != "__main__"
]

BENCH = Path(__file__).resolve().parents[1] / "bench"


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
